"""Closed-form bound calculators and the audit engine.

Structural claims (exact widths, the construction's own depth formula,
exact memorization, the projection ceiling) are pass/fail.  Asymptotic
formulas are instantiated with constant 1 and reported as ratios only:
the hidden constants are audit outputs, never pass/fail thresholds.
Logs are base 2 and clamped below at 1 inside the O-formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactnum import ceil_sqrt
from .netir import LayeredNet, NetMetrics, check_outputs, effective_bits, metrics

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import BuildInfo, Dataset

__all__ = [
    "ProvenanceError",
    "WIDTH_LIMIT",
    "CHAIN_WIDTH_LIMIT",
    "AuditReport",
    "vc_upper_bits",
    "lower_bound_params",
    "audit",
]

# Width ceilings fixed once for the whole artifact (see docs/FORMATS.md):
# every single-chain build must fit in WIDTH_LIMIT channels.
WIDTH_LIMIT = 12
# The bit-budget chain threads one global accumulator through the core.
CHAIN_WIDTH_LIMIT = WIDTH_LIMIT + 2


class ProvenanceError(ValueError):
    """The audit does not know the named construction."""


def vc_upper_bits(params: int, bits: int) -> int:
    """Counting ceiling W*B + W*ceil(log2 W) on shatterable set size."""
    if params < 1 or bits < 1:
        raise ValueError("params and bits must be at least 1")
    return params * bits + params * (params - 1).bit_length()


def lower_bound_params(n: int, mode: str, L: int | None = None) -> int:
    """Parameter floors implied by shattering ceilings, constants set to 1."""
    if n < 2:
        raise ValueError("lower bounds need n >= 2")
    if mode == "goldberg_sqrt":
        return ceil_sqrt(n)
    if mode == "sqrt_nlogn":
        return math.ceil(math.sqrt(n * math.log2(n)))
    if mode == "bartlett_depth":
        if L is None or L < 1:
            raise ValueError("bartlett_depth needs a depth L >= 1")
        return math.ceil(n / (L * math.log2(n)))
    raise ValueError(f"unknown lower-bound mode {mode!r}")


def _lg(x) -> float:
    try:
        x = float(x)
    except OverflowError:  # an exact Fraction past the float range
        return math.log2(x.numerator) - math.log2(x.denominator)
    return max(1.0, math.log2(max(2.0, x)))


def to_float(q) -> float:
    """float(q) for an exact q, saturating to -inf/inf past the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _sqrt(q) -> float:
    """sqrt(q) for an exact q >= 0, also where float(q) would overflow or
    round to 0: then q is scaled by 4**-k and the root by 2**k."""
    f = to_float(q)
    if q and f in (0.0, math.inf):
        k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
        return math.sqrt(float(q / Fraction(4) ** k)) * to_float(Fraction(2) ** k)
    return math.sqrt(f)


def projection_ceiling(info) -> float:
    """10 * r * N^2 * sqrt(pi d) / delta with r >= 1 and delta <= 1."""
    r = max(1.0, _sqrt(info.r_sq))
    delta = 1.0 if info.delta_sq is None else min(1.0, _sqrt(info.delta_sq))
    return (10.0 * r * info.n * info.n * math.sqrt(math.pi * info.dim) / delta
            if delta else math.inf)  # delta is 0.0 below the float range


def construction_depth(info) -> int:
    """Exact layer count of the assembled single-chain memorizer."""
    m, k = info.bucket_count, info.bucket_size
    maxs = max(info.rho, info.c)
    depth = 2 + (3 * m + 2) + (3 * k * maxs + 2 * k + 2)
    if info.theorem == "regression":
        depth += 1
    return depth


@dataclass
class AuditReport:
    """Realized metrics vs formula ceilings and lower bounds."""

    theorem: str
    realized: NetMetrics
    effective_bits: int
    memorized: bool
    ceilings: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    lower_bounds: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict)
    kappa: float = 0.0
    info: object = None

    @property
    def passed(self) -> bool:
        return all(self.passes.values())

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "theorem": self.theorem,
            "realized": self.realized.to_json(),
            "effective_bits": self.effective_bits,
            "memorized": self.memorized,
            "ceilings": self.ceilings,
            "ratios": self.ratios,
            "lower_bounds": self.lower_bounds,
            "passes": self.passes,
            "pass": self.passed,
            "kappa": self.kappa,
            "builder": self.info.to_json() if self.info is not None else None,
        }


_KNOWN = {"sqrt", "bounded_depth", "bounded_bits", "regression"}


def audit(net: LayeredNet, ds: "Dataset", info: "BuildInfo") -> AuditReport:
    """Fill every ceiling and lower bound relevant to info.theorem.

    The ceilings come from the builder record, so it must describe ds: a
    ValueError names the fields of N, d, C, delta_sq and r_sq that differ.
    Memorization is re-verified here by exact evaluation: against the
    labels, or for a regression build against the grid midpoints
    label_lo + (q - 1/2) * epsilon of the quantized labels q.
    """
    theorem = info.theorem
    if theorem not in _KNOWN:
        raise ProvenanceError(f"unknown construction {theorem!r}")
    differ = [key for key, recorded, real in (
        ("N", info.n, ds.n), ("d", info.dim, ds.dim), ("C", info.num_classes, ds.num_classes),
        ("delta_sq", info.delta_sq, ds.delta_sq), ("r_sq", info.r_sq, ds.r_sq))
        if recorded != real]
    if differ:
        raise ValueError("the builder record does not describe this dataset: "
                         f"its {', '.join(differ)} differ")
    real = metrics(net)
    ebits = effective_bits(net)
    expected = ds.labels
    if theorem == "regression":
        expected = [info.label_lo + Fraction(2 * q - 1, 2) * info.epsilon for q in ds.labels]
    memorized = not check_outputs(net, ds.points, expected)[0]

    n, d = info.n, info.dim
    log_r = _lg(Fraction(info.R_realized) if info.R_realized else 2.0)
    log_c = _lg(info.num_classes)
    log_n = _lg(n)
    ceilings: dict = {}
    ratios: dict = {}
    passes: dict = {"memorized": memorized}

    def ratio(name, realized_value, ceiling_value):
        ceilings[name] = ceiling_value
        ratios[name] = realized_value / ceiling_value if ceiling_value else math.inf

    if theorem in ("sqrt", "regression"):
        ceilings["width"] = WIDTH_LIMIT
        passes["width"] = real.width <= WIDTH_LIMIT
        ceilings["depth_construction"] = construction_depth(info)
        passes["depth_construction"] = real.depth == ceilings["depth_construction"]
        ceilings["projection_range"] = projection_ceiling(info)
        passes["projection_range"] = to_float(Fraction(info.R_realized)) <= ceilings["projection_range"]
        ratio("depth", real.depth,
              math.sqrt(n * log_n) + math.sqrt(n / log_n) * max(log_r, log_c))
        ratio("params", real.params,
              d + math.sqrt(n * log_n) + math.sqrt(n / log_n) * max(log_r, log_c))
        ratio("bits", ebits,
              _lg(d) + math.sqrt(n / log_n) * max(log_r, log_c))
    elif theorem == "bounded_depth":
        subnets = info.subnet_count
        ceilings["width"] = WIDTH_LIMIT * subnets
        passes["width"] = real.width <= ceilings["width"]
        log_l = _lg(info.L)
        ratio("width_vs_subsets", real.width, math.ceil(n / info.L ** 2))
        ratio("depth", real.depth, (info.L / math.sqrt(log_l)) * log_r)
        ratio("params", real.params,
              (n / (info.L * math.sqrt(log_l))) * log_r + d)
    elif theorem == "bounded_bits":
        ceilings["width"] = CHAIN_WIDTH_LIMIT
        passes["width"] = real.width <= CHAIN_WIDTH_LIMIT
        log_b = _lg(info.B)
        ratio("bits", ebits, (info.B / math.sqrt(log_b)) * log_r)
        ratio("depth", real.depth, (n * math.sqrt(log_b) / info.B) * log_r)

    lower_bounds: dict = {}
    if n >= 2:
        lower_bounds["goldberg_sqrt"] = lower_bound_params(n, "goldberg_sqrt")
        lower_bounds["sqrt_nlogn"] = lower_bound_params(n, "sqrt_nlogn")
        lower_bounds["bartlett_depth"] = lower_bound_params(n, "bartlett_depth",
                                                            L=real.depth)
        ratios["params_over_goldberg"] = real.params / lower_bounds["goldberg_sqrt"]
    kappa = n / vc_upper_bits(max(1, real.params), max(1, ebits))
    return AuditReport(theorem, real, ebits, memorized, ceilings, ratios,
                       lower_bounds, passes, kappa, info)
