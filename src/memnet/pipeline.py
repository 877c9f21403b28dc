"""The three-stage construction: project to a line, select payload integers
per bucket, extract the stored label by bit manipulation.

Stage 1 projects the d-dimensional points to nonnegative reals with pairwise
gaps of at least 2, using a truncated random direction verified exactly.
Stage 2 packs the floors of the projected points and their labels into one
pair of big integers per bucket and selects the right pair with interval
indicators.  Stage 3 walks the payload's fixed-width bit blocks with two
iterated-triangle tracks, gates each block value against the input with a
distance gate, and emits the matching label block.

Everything is verified with exact arithmetic: the assembled network is only
returned after every training point evaluates to its label exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from . import bounds, gadgets
from .exactnum import DyadicRational, bit_len, ceil_log2, ceil_sqrt, pack_blocks
from .gadgets import ParameterError
from .netir import LayeredNet, TapeBuilder, check_outputs, compose_serial, metrics

__all__ = [
    "DuplicatePointError",
    "LabelRangeError",
    "ProjectionSearchExhausted",
    "MemorizationError",
    "Dataset",
    "Projection1D",
    "CraftedCode",
    "PipelineConfig",
    "load_and_validate",
    "read_dataset",
    "load_dataset",
    "exact_labels",
    "project_to_line",
    "projected_values",
    "default_bucket_count",
    "craft_codes",
    "build_stage2",
    "build_stage3",
    "assemble_sqrt",
    "regression_dataset",
    "regression_wrap",
    "verify_exact",
]

DEFAULT_RETRY_BUDGET = 200


class DuplicatePointError(ValueError):
    """Two input points coincide; separation is impossible."""


class LabelRangeError(ValueError):
    """A label is not an integer in 1..C."""


class ProjectionSearchExhausted(RuntimeError):
    """No sampled direction passed exact verification within the budget."""


class MemorizationError(AssertionError):
    """Internal check failed: a constructed network missed a training point."""


# ---------------------------------------------------------------------------
# dataset


@dataclass(frozen=True)
class Dataset:
    """N exact rational points with integer labels in 1..C.

    delta_sq is the exact minimum pairwise squared distance (None when
    N == 1), r_sq the exact maximum squared norm; both are recomputed
    exactly at load time (see load_and_validate).
    """

    points: tuple
    labels: tuple
    num_classes: int
    delta_sq: Fraction | None
    r_sq: Fraction

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


# Every dataset number is a fraction whose numerator and denominator are at
# most 10^MAX_NUMBER_DIGITS in absolute value (docs/FORMATS.md): with every
# value under it a build saves, verifies and audits.
MAX_NUMBER_DIGITS = 1000
_NUMBER_CAP = 10 ** MAX_NUMBER_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def _to_fraction(value) -> Fraction:
    """An exact dataset number; ValueError if it is not one or is past the cap."""
    if isinstance(value, str):
        exp = _EXPONENT.search(value)
        # past this, no digit string can bring the number back under the cap,
        # so 10^exp is never built
        if exp and abs(int(exp[1])) > MAX_NUMBER_DIGITS + len(value):
            raise ValueError(f"{value!r:.40} is past the cap of 10^{MAX_NUMBER_DIGITS}")
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} divides by zero") from None
    elif isinstance(value, DyadicRational):
        value = value.as_fraction()
    elif isinstance(value, int) and not isinstance(value, bool):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise ValueError(f"{value!r} is not an exact number (int/str/Fraction)")
    if abs(value.numerator) > _NUMBER_CAP or value.denominator > _NUMBER_CAP:
        raise ValueError(f"a dataset number is past the cap of 10^{MAX_NUMBER_DIGITS}")
    return value


def load_and_validate(raw_points, raw_labels, num_classes: int | None = None) -> Dataset:
    """Parse, reject duplicate points, and compute delta_sq and r_sq exactly.

    Duplicates are found by hashing the exact coordinate tuples; the error
    names the first coinciding pair (i, j) in row-major pair order.  The
    minimum squared distance comes from a sort-and-sweep closest-pair
    search (Shamos & Hoey): points are sorted along the coordinate with the
    widest spread, and each point is compared with earlier ones only while
    the gap along that coordinate could still beat the best distance.
    """
    points = tuple(tuple(_to_fraction(c) for c in p) for p in raw_points)
    if not points:
        raise ValueError("dataset is empty")
    d = len(points[0])
    if d < 1 or any(len(p) != d for p in points):
        raise ValueError("points must share a positive dimension")
    labels = []
    for y in raw_labels:
        if isinstance(y, bool) or not isinstance(y, int):
            raise LabelRangeError(f"label {y!r} is not an integer")
        labels.append(y)
    if len(labels) != len(points):
        raise ValueError("points and labels differ in length")
    c = num_classes if num_classes is not None else max(labels)
    if c > _NUMBER_CAP:
        raise LabelRangeError(f"class count past the cap of 10^{MAX_NUMBER_DIGITS}")
    for y in labels:
        if not 1 <= y <= c:
            raise LabelRangeError(f"label {y} outside 1..{c}")
    r_sq = max(sum(x * x for x in p) for p in points)
    _reject_duplicates(points)
    return Dataset(points, tuple(labels), c, _min_sq_distance(points), r_sq)


def _reject_duplicates(points) -> None:
    first = {}
    dup = None
    for j, p in enumerate(points):
        i = first.setdefault(p, j)
        # only a point's second occurrence can lower dup[0]
        if i != j and (dup is None or i < dup[0]):
            dup = (i, j)
    if dup is not None:
        raise DuplicatePointError(f"points {dup[0]} and {dup[1]} coincide")


def _min_sq_distance(points) -> Fraction | None:
    """Exact closest-pair squared distance of distinct points (None if N == 1)."""
    d = len(points[0])
    axis = max(range(d), key=lambda k: max(p[k] for p in points) - min(p[k] for p in points))
    ordered = sorted(points, key=lambda p: p[axis])
    best = None
    for pos, p in enumerate(ordered):
        x = p[axis]
        for back in range(pos - 1, -1, -1):
            q = ordered[back]
            dx = x - q[axis]
            if best is not None and dx * dx >= best:
                break
            dist = sum((a - b) * (a - b) for a, b in zip(p, q))
            if best is None or dist < best:
                best = dist
    return best


def read_dataset(path):
    """(exact points, raw label cells, class count) of a .json or CSV dataset.

    Label cells are None without a label column (a CSV header not ending in
    `label`, a JSON object without "labels"), the class count unless a JSON
    file gives "C".  ValueError on a malformed file (docs/FORMATS.md).
    """
    if not str(path).endswith(".json"):
        return _csv_rows(path)
    with open(path) as fh:
        try:
            obj = json.load(fh, parse_float=_to_fraction, parse_constant=Fraction)
        except RecursionError:
            raise ValueError("dataset file nests too deeply to parse") from None
    return _json_rows(obj)


def _csv_rows(path):
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # such as a field past the csv module's size limit
            raise ValueError(f"malformed CSV file: {exc}") from None
    if not rows:
        raise ValueError("the CSV file is empty")
    header, rows = rows[0], [row for row in rows[1:] if row]
    if not header or header[-1].strip().lower() != "label":
        return _exact_rows(rows, None, None)
    return _exact_rows([row[:-1] for row in rows], [row[-1] for row in rows], None)


def _json_rows(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise ValueError('a JSON dataset is an object with a "points" list')
    points, labels, c = obj["points"], obj.get("labels"), obj.get("C")
    if not all(isinstance(p, list) for p in points):
        raise ValueError("every JSON point must be a list of coordinates")
    if labels is not None and not isinstance(labels, list):
        raise ValueError('"labels" must be a list')
    if c is not None and (isinstance(c, bool) or not isinstance(c, int)):
        raise ValueError(f'"C" must be an integer, got {c!r}')
    return _exact_rows(points, labels, c)


def _exact_rows(points, labels, c):
    if labels is not None and len(labels) != len(points):
        raise ValueError("points and labels differ in length")
    return [tuple(_to_fraction(v) for v in p) for p in points], labels, c


def _label_cells(labels):
    if labels is None:
        raise ValueError("the dataset has no label column")
    return labels


def exact_labels(labels) -> list[Fraction]:
    """read_dataset's label cells as exact numbers (regression labels, or
    the targets `verify` checks); ValueError without a label column."""
    return [_to_fraction(y) for y in _label_cells(labels)]


def load_dataset(path) -> Dataset:
    """The classification dataset of a .json or CSV file (see read_dataset)."""
    points, labels, c = read_dataset(path)
    labels = [int(y) if isinstance(y, str) else y for y in _label_cells(labels)]
    return load_and_validate(points, labels, c)


# ---------------------------------------------------------------------------
# stage 1: projection


@dataclass(frozen=True)
class Projection1D:
    """Verified 1-D embedding z = scale * (direction . x + bias).

    All projected training values are nonnegative, pairwise at least 2
    apart, and at most R_realized; every property is checked exactly before
    the projection is accepted.
    """

    direction: tuple
    bias: DyadicRational
    scale: DyadicRational
    R_realized: Fraction
    attempts: int = 1


def _truncated_unit_vector(coords: list[int], frac_bits: int) -> list[DyadicRational]:
    """coords/|coords| with each coordinate truncated toward zero to frac_bits."""
    norm_sq = sum(v * v for v in coords)
    out = []
    for v in coords:
        a = abs(v) << frac_bits
        q = math.isqrt((a * a) // norm_sq)
        out.append(DyadicRational(q if v >= 0 else -q, -frac_bits))
    return out


def project_to_line(ds: Dataset, seed: int = 0,
                    retry_budget: int | None = None) -> tuple[Projection1D, LayeredNet]:
    """Search directions until the projected gaps verify, then scale.

    A direction is accepted when all projections are distinct and the
    smallest gap is at least 2*delta/(N^2*sqrt(3d)) (checked exactly on
    squares), which caps R_realized below the audit ceiling.  The scale is
    the smallest power of two making every gap at least 2.
    """
    if retry_budget is None:
        retry_budget = int(os.environ.get("MEMNET_RETRY_BUDGET", DEFAULT_RETRY_BUDGET))
    n, d = ds.n, ds.dim
    frac_bits = ceil_log2(2 * d * n * n) + 2
    rng = random.Random(seed)
    gap_floor_sq = None
    if ds.delta_sq is not None:
        # gap^2 >= 4*delta^2 / (3*d*N^4), with 3 < pi as a rational guard
        gap_floor_sq = Fraction(4, 3 * d * n ** 4) * ds.delta_sq

    for attempt in range(1, retry_budget + 1):
        coords = [rng.randint(-(1 << frac_bits), 1 << frac_bits) for _ in range(d)]
        if all(v == 0 for v in coords):
            continue
        direction = _truncated_unit_vector(coords, frac_bits)
        dir_fr = [u.as_fraction() for u in direction]
        proj = [sum(u * x for u, x in zip(dir_fr, p)) for p in ds.points]
        if n > 1:
            ordered = sorted(proj)
            gaps = [b - a for a, b in zip(ordered, ordered[1:])]
            min_gap = min(gaps)
            if min_gap == 0 or (gap_floor_sq is not None
                                and min_gap * min_gap < gap_floor_sq):
                continue
            scale_exp = max(0, ceil_log2(Fraction(2) / min_gap))
        else:
            scale_exp = 0
        scale = DyadicRational.pow2(scale_exp)
        low = min(proj)
        bias_int = 1 - min(0, low.numerator // low.denominator)
        bias = DyadicRational(bias_int)
        zs = [scale.as_fraction() * (p + bias_int) for p in proj]
        assert all(z > 0 for z in zs)
        if n > 1:
            zs_sorted = sorted(zs)
            assert all(b - a >= 2 for a, b in zip(zs_sorted, zs_sorted[1:]))
        proj1d = Projection1D(tuple(direction), bias, scale, max(zs), attempt)
        t = TapeBuilder([f"x{k}" for k in range(d)])
        t.layer([("h", bias, {f"x{k}": direction[k] for k in range(d)})])
        t.layer([("z", 0, {"h": scale})], relu=False)
        net = t.build("line_projection", output_nonneg=True)
        return proj1d, net
    raise ProjectionSearchExhausted(
        f"no separating direction found in {retry_budget} attempts")


def projected_values(proj: Projection1D, ds: Dataset) -> list[Fraction]:
    dir_fr = [u.as_fraction() for u in proj.direction]
    s = proj.scale.as_fraction()
    b = proj.bias.as_fraction()
    return [s * (sum(u * x for u, x in zip(dir_fr, p)) + b) for p in ds.points]


# ---------------------------------------------------------------------------
# stage 2: payload crafting and bucket selection


@dataclass(frozen=True)
class CraftedCode:
    """Per-bucket payload integers and their block geometry.

    u[j] stores the floors of bucket j's projected points in rho-bit blocks
    (block 0 most significant); w[j] stores the labels in c-bit blocks.
    Partial buckets are filled with sentinel floors above every real floor
    so the block-gap precondition of the extraction stage always holds.
    """

    bucket_count: int
    bucket_size: int
    rho: int
    c: int
    u: tuple
    w: tuple
    sentinels: tuple
    intervals: tuple  # (a_j, b_j) indicator plateau per bucket
    block_values: tuple  # per bucket: floors incl. sentinels
    label_blocks: tuple


def default_bucket_count(n: int) -> int:
    """ceil(sqrt(n * log2 n)) buckets of roughly sqrt(n / log2 n) points."""
    return ceil_sqrt(n * max(1, ceil_log2(n) if n > 1 else 1))


def craft_codes(z_sorted, labels_sorted, m: int, num_classes: int,
                sentinel_base: int | None = None) -> CraftedCode:
    """Pack floors and labels into per-bucket integers.

    z_sorted holds Fractions (as projected_values gives them) and must be
    strictly increasing with gaps >= 2 (so floors differ by >= 2 as well).
    sentinel_base overrides the largest floor used for sentinel placement,
    letting several code sets share one sentinel band.
    """
    n = len(z_sorted)
    if n == 0:
        raise ParameterError("cannot craft codes for an empty sequence")
    if not 1 <= m <= n:
        raise ParameterError(f"bucket count {m} outside 1..{n}")
    floors = [z.numerator // z.denominator for z in z_sorted]
    for a, b in zip(floors, floors[1:]):
        if b - a < 2:
            raise ParameterError("projected floors are not 2-separated")
    if floors and floors[0] < 0:
        raise ParameterError("projected values must be nonnegative")
    k = -(-n // m)  # bucket size, ceil
    m_real = -(-n // k)
    base = max(floors) if sentinel_base is None else max(sentinel_base, max(floors))
    missing = m_real * k - n
    sentinels = tuple(base + 2 * (t + 1) for t in range(missing))
    block_values = []
    label_blocks = []
    intervals = []
    for j in range(m_real):
        lo = j * k
        hi = min((j + 1) * k, n)
        blocks = list(floors[lo:hi])
        labels = list(labels_sorted[lo:hi])
        pad = k - len(blocks)
        if pad:
            blocks += list(sentinels[:pad])
            labels += [0] * pad
        block_values.append(tuple(blocks))
        label_blocks.append(tuple(labels))
        intervals.append((floors[lo], floors[hi - 1] + 1))
    all_blocks = [v for bucket in block_values for v in bucket]
    rho = max(1, bit_len(max(all_blocks)))
    c = max(1, bit_len(num_classes))
    u = tuple(pack_blocks(list(bucket), rho) for bucket in block_values)
    w = tuple(pack_blocks(list(bucket), c) for bucket in label_blocks)
    return CraftedCode(m_real, k, rho, c, u, w, sentinels,
                       tuple(intervals), tuple(block_values), tuple(label_blocks))


def build_stage2(code: CraftedCode, carry: int = 0) -> LayeredNet:
    """Bucket selector: z -> (z, w_j, u_j) for z in bucket j's plateau.

    Bucket j's indicator (gadgets.window_rows on [a_j, b_j]) gates both
    payload accumulators, so the realized width is 5 (the scalar selector of
    the contract is width 4) plus any carry channels.  Depth is 3*bucket_count + 2.
    """
    carries = [f"k{t}" for t in range(carry)]
    t = TapeBuilder(["z"] + carries)
    t.layer([("x", 0, {"z": 1}), ("yw", 0, {}), ("yu", 0, {})]
            + t.passthrough_rows(carries),
            passthrough=["x"] + carries)
    keep = ["x", "yw", "yu"] + carries
    for j in range(code.bucket_count):
        a, b = code.intervals[j]
        for rows in gadgets.window_rows("x", (a, {}), (b, {})):
            t.layer(rows + t.passthrough_rows(keep), passthrough=keep)
        t.layer([
            ("x", 0, {"x": 1}),
            ("yw", -code.w[j], {"yw": 1, "g1": code.w[j], "g2": code.w[j]}),
            ("yu", -code.u[j], {"yu": 1, "g1": code.u[j], "g2": code.u[j]}),
        ] + t.passthrough_rows(carries), passthrough=["x"] + carries)
    t.layer(t.passthrough_rows(keep), relu=False)
    return t.build(f"bucket_selector[m={code.bucket_count}]", output_nonneg=True)


def build_stage3(n_blocks: int, rho: int, c: int, carry: int = 0) -> LayeredNet:
    """Block matcher: (x, w, u) -> label block of w whose u block equals floor(x).

    Walks the n_blocks rho-bit blocks of u and c-bit blocks of w with two
    iterated-triangle tracks each (gadgets.triangle_step_rows, tap_weight),
    gates every decoded u block b against x with a distance gate (the window
    [b, b+1], gadgets.window_rows), and sums the gated w blocks.  Output is
    0 when x is farther than 3/2 from every block value.  Width 12; depth
    3*n_blocks*max(rho, c) + 2*n_blocks + 2.

    With one carry channel the net maps (x, w, u, y) -> (x, y + result),
    which is how the bit-budget chain threads its accumulator.
    """
    if n_blocks < 1 or rho < 1 or c < 1:
        raise ParameterError("block counts and widths must be positive")
    carries = [f"k{t}" for t in range(carry)]
    nr = n_blocks * rho
    nc = n_blocks * c
    steps = max(rho, c)
    t = TapeBuilder(["x", "w", "u"] + carries)
    t.layer([
        ("x", 0, {"x": 1}),
        ("pu", DyadicRational(1, -(nr + 1)), {"u": DyadicRational(1, -nr)}),
        ("qu", DyadicRational(1, -(nr + 2)), {"u": DyadicRational(1, -nr)}),
        ("pw", DyadicRational(1, -(nc + 1)), {"w": DyadicRational(1, -nc)}),
        ("qw", DyadicRational(1, -(nc + 2)), {"w": DyadicRational(1, -nc)}),
        ("y", 0, {}),
    ] + t.passthrough_rows(carries), passthrough=["x"] + carries)

    def track(v, active):
        """Both layers of one step on payload v's tracks; idle tracks hold."""
        if active:
            return gadgets.triangle_step_rows(f"p{v}", f"q{v}", f"t{v}", f"h{v}")
        hold = t.passthrough_rows([f"p{v}", f"q{v}"])
        return hold, hold

    def accumulator(v, step, width, n):
        """b_v plus this step's tapped bit of the current block, if it has one."""
        terms = {f"b{v}": 1} if step > 1 else {}
        if step <= width:
            terms[f"t{v}"] = gadgets.tap_weight(n, blk * width + step, width - step)
        return terms

    for blk in range(n_blocks):
        y_in = {"y": 1, "g": 1} if blk else {"y": 1}
        for step in range(1, steps + 1):
            sums = t.passthrough_rows(["bu", "bw"] if step > 1 else [])
            tracks = zip(track("u", step <= rho), track("w", step <= c))
            for layer, (u_rows, w_rows) in enumerate(tracks):
                y = y_in if step == 1 and layer == 0 else {"y": 1}
                t.layer([("x", 0, {"x": 1})] + u_rows + w_rows + sums + [("y", 0, y)]
                        + t.passthrough_rows(carries), passthrough=["x"] + carries)
            # advance the accumulators; on the last step open the distance gate
            bu = accumulator("u", step, rho, nr)
            bw = accumulator("w", step, c, nc)
            rows = t.passthrough_rows(["x", "pu", "qu", "pw", "qw", "y"])
            if step < steps:
                rows += [("bu", 0, bu), ("bw", 0, bw)]
            else:
                gate, gate_out = gadgets.window_rows("x", (0, bu), (1, bu))
                rows += [("bw", 0, bw)] + gate
            t.layer(rows + t.passthrough_rows(carries), passthrough=["x"] + carries)
        hold = ["x", "pu", "qu", "pw", "qw", "y"] + carries
        t.layer(gate_out + [("bw", 0, {"bw": 1})]
                + t.passthrough_rows(hold), passthrough=["x", "bw"] + carries)
        gate_scale = DyadicRational(1, c + 1)
        t.layer([("g", -gate_scale.mul_pow2(1),
                  {"g1": gate_scale, "g2": gate_scale, "bw": 1})]
                + t.passthrough_rows(hold), passthrough=["x"] + carries)
    if carry:
        final = [("x", 0, {"x": 1}),
                 ("y", 0, {carries[0]: 1, "y": 1, "g": 1})]
    else:
        final = [("out", 0, {"y": 1, "g": 1})]
    t.layer(final, relu=False)
    return t.build(f"block_matcher[n={n_blocks},rho={rho},c={c}]", output_nonneg=True)


# ---------------------------------------------------------------------------
# assembly


@dataclass
class PipelineConfig:
    seed: int = 0
    bucket_count: int | None = None


@dataclass
class BuildInfo:
    """Realized construction quantities, serialized next to the network."""

    theorem: str
    n: int
    dim: int
    num_classes: int
    seed: int
    rho: int = 0
    c: int = 0
    bucket_count: int = 0
    bucket_size: int = 0
    R_realized: Fraction = Fraction(0)
    delta_sq: Fraction | None = None
    r_sq: Fraction = Fraction(0)
    L: int | None = None
    B: int | None = None
    subnet_count: int | None = None
    epsilon: Fraction | None = None
    label_lo: Fraction | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"theorem": self.theorem}
        for attr, key, kind, _ in _FIELDS:
            v = getattr(self, attr)
            if v is not None or key not in _MODE_KEYS:
                out[key] = v if kind is int or v is None else str(v)
        out.update(self.extra)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "BuildInfo":
        """Parse a saved builder record; ValueError on a missing or mistyped field."""
        if not isinstance(obj, dict):
            raise ValueError("builder record must be a JSON object")
        theorem = obj.get("theorem")
        if not isinstance(theorem, str):
            raise ValueError(f"builder field 'theorem' must be a string, got {theorem!r}")
        missing = [k for k in _MODE_FIELDS.get(theorem, ()) if obj.get(k) is None]
        if missing:
            raise ValueError(f"builder record for {theorem!r} lacks {', '.join(missing)}")
        defaults = {f.name: f.default for f in fields(cls)}
        values = {}
        for attr, key, kind, floor in _FIELDS:
            v = obj.get(key)
            if v is None and (kind is Fraction or defaults[attr] is None):
                values[attr] = defaults[attr]
            elif kind is int:
                if isinstance(v, bool) or not isinstance(v, int) or (
                        floor is not None and v < floor):
                    at_least = "" if floor is None else f" >= {floor}"
                    raise ValueError(f"builder field {key!r} must be an integer{at_least}, "
                                     f"got {v!r}")
                values[attr] = v
            else:
                if not (isinstance(v, int) and not isinstance(v, bool)
                        or isinstance(v, str) and _RECORD_RATIONAL.fullmatch(v)):
                    raise ValueError(f"builder field {key!r} must be an exact number, got {v!r}")
                values[attr] = Fraction(v)
                if floor is not None and values[attr] <= floor:
                    raise ValueError(f"builder field {key!r} must be > {floor}, got {v}")
        extra = {k: v for k, v in obj.items() if k != "theorem" and k not in _KEYS}
        return cls(theorem=theorem, extra=extra, **values)


# The builder record's fields: (attribute, JSON key, kind, floor).  An int is
# at least its floor, an exact number (a string "n" or "n/d") is above it.
# Mode fields are left out while None; the rest are always written.
_FIELDS = (
    ("n", "N", int, 1), ("dim", "d", int, 1), ("num_classes", "C", int, 1),
    ("seed", "seed", int, None), ("rho", "rho", int, 0), ("c", "c", int, 0),
    ("bucket_count", "bucket_count", int, 0), ("bucket_size", "bucket_size", int, 0),
    ("R_realized", "R_realized", Fraction, None), ("delta_sq", "delta_sq", Fraction, 0),
    ("r_sq", "r_sq", Fraction, None), ("L", "L", int, 1), ("B", "B", int, 1),
    ("subnet_count", "subnet_count", int, 1), ("epsilon", "epsilon", Fraction, 0),
    ("label_lo", "label_lo", Fraction, None),
)
_KEYS = {key for _, key, _, _ in _FIELDS}
# the fields a record of each theorem must carry; absent while None otherwise
_MODE_FIELDS = {"bounded_depth": ("L", "subnet_count"), "bounded_bits": ("B",),
                "regression": ("epsilon", "label_lo")}
_MODE_KEYS = {key for keys in _MODE_FIELDS.values() for key in keys}
_RECORD_RATIONAL = re.compile(r"-?\d+(/\d*[1-9]\d*)?")


def verify_exact(net: LayeredNet, points, labels, debug: bool = False):
    """Evaluate every point exactly; return (all_equal, mismatched indices)."""
    bad, _ = check_outputs(net, points, labels, debug)
    return not bad, bad


def _sorted_projection(ds: Dataset, config: PipelineConfig):
    proj, net1 = project_to_line(ds, config.seed)
    zs = projected_values(proj, ds)
    order = sorted(range(ds.n), key=lambda i: zs[i])
    z_sorted = [zs[i] for i in order]
    labels_sorted = [ds.labels[i] for i in order]
    return proj, net1, z_sorted, labels_sorted


def _verified_build(net: LayeredNet, ds: Dataset, config: PipelineConfig,
                    proj: Projection1D, codes, theorem: str, debug: bool = False,
                    **mode_fields):
    """Every builder's tail: verify each training point exactly, record the
    realized quantities of the codes, and audit.  Returns (net, report)."""
    ok, bad = verify_exact(net, ds.points, ds.labels, debug)
    if not ok:
        raise MemorizationError(f"training points {bad[:5]} not reproduced")
    info = BuildInfo(
        theorem=theorem, n=ds.n, dim=ds.dim, num_classes=ds.num_classes,
        seed=config.seed, rho=max(c.rho for c in codes), c=codes[0].c,
        bucket_count=max(c.bucket_count for c in codes),
        bucket_size=max(c.bucket_size for c in codes),
        R_realized=proj.R_realized, delta_sq=ds.delta_sq, r_sq=ds.r_sq,
        **mode_fields,
    )
    return net, bounds.audit(net, ds, theorem, info)


def assemble_sqrt(ds: Dataset, config: PipelineConfig | None = None):
    """Build and exactly verify the square-root-size memorizer.

    Returns (net, audit_report); raises MemorizationError if any training
    point fails exact verification (which would indicate a bug, not data).
    """
    config = config or PipelineConfig()
    proj, net1, z_sorted, labels_sorted = _sorted_projection(ds, config)
    m = config.bucket_count or min(ds.n, default_bucket_count(ds.n))
    code = craft_codes(z_sorted, labels_sorted, m, ds.num_classes)
    net2 = build_stage2(code)
    net3 = build_stage3(code.bucket_size, code.rho, code.c)
    net = compose_serial(compose_serial(net1, net2), net3, "sqrt_memorizer")
    return _verified_build(net, ds, config, proj, [code], "sqrt", extra={
        "stage_widths": [metrics(net1).width, metrics(net2).width, metrics(net3).width]})


def regression_dataset(points, labels, lo, epsilon, classes: int) -> Dataset:
    """The points with their real labels (exact_labels) put on the grid of
    width epsilon from lo: label y becomes class
    min(classes, floor((y - lo) / epsilon) + 1)."""
    quantized = [min(classes - 1, int((y - lo) // epsilon)) + 1 for y in exact_labels(labels)]
    return load_and_validate(points, quantized, classes)


def regression_wrap(raw_points, raw_labels, epsilon,
                    config: PipelineConfig | None = None,
                    lo=None, hi=None):
    """Quantize real labels to a grid of width epsilon and memorize the bins.

    The returned network satisfies |F(x_i) - y_i| <= epsilon/2 exactly; the
    class count grows like (hi-lo)/epsilon so parameters grow with
    log(1/epsilon).  lo/hi declare the label interval and default to the
    observed extremes.
    """
    config = config or PipelineConfig()
    epsilon = _to_fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    labels = exact_labels(raw_labels)
    lo = min(labels) if lo is None else _to_fraction(lo)
    hi = max(labels) if hi is None else _to_fraction(hi)
    if any(not lo <= y <= hi for y in labels):
        raise ParameterError("labels fall outside the declared interval")
    classes = max(1, math.ceil((hi - lo) / epsilon))
    ds = regression_dataset(raw_points, labels, lo, epsilon, classes)
    # class q maps back to the grid midpoint lo + (q - 1/2) * epsilon
    head = _dyadic_head(epsilon, lo - epsilon / 2)
    base, base_report = assemble_sqrt(ds, config)
    net = compose_serial(base, head, "regression_memorizer")
    _, worst = check_outputs(net, ds.points, labels)
    if worst > epsilon / 2:
        raise MemorizationError(f"regression error {worst} exceeds epsilon/2")
    info = replace(base_report.info, theorem="regression", epsilon=epsilon, label_lo=lo,
                   extra={"max_abs_error": str(worst)})
    return net, bounds.audit(net, ds, "regression", info)


def _dyadic_head(epsilon: Fraction, bias: Fraction) -> LayeredNet:
    try:
        weight, bias = DyadicRational.from_fraction(epsilon), DyadicRational.from_fraction(bias)
    except ValueError:
        raise ParameterError("epsilon and label range must be dyadic rationals") from None
    t = TapeBuilder(["q"])
    t.layer([("y", bias, {"q": weight})], relu=False)
    return t.build("grid_midpoint_head")
