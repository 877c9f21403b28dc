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
    """Internal check failed: a constructed network missed a training point,
    or a projection broke the gaps it was built for."""


# ---------------------------------------------------------------------------
# dataset


@dataclass(frozen=True)
class Dataset:
    """N exact rational points with integer labels in 1..C.

    delta_sq is the exact minimum pairwise squared distance (None when
    N == 1), r_sq the exact maximum squared norm; both are recomputed
    exactly at load time (see load_and_validate).  forms holds each point
    as integer coordinates over its own denominator (_over_denominator),
    the form the geometry and the projection run on.
    """

    points: tuple
    labels: tuple
    num_classes: int
    delta_sq: Fraction | None
    r_sq: Fraction
    forms: tuple = field(compare=False, repr=False)

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
    elif isinstance(value, int) and not isinstance(value, bool):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise ValueError(f"{value!r} is not an exact number (int/str/Fraction)")
    if abs(value.numerator) > _NUMBER_CAP or value.denominator > _NUMBER_CAP:
        raise ValueError(f"a dataset number is past the cap of 10^{MAX_NUMBER_DIGITS}")
    return value


def load_and_validate(raw_points, raw_labels, num_classes: int | None = None) -> Dataset:
    """Parse, reject duplicate points, and compute delta_sq and r_sq exactly.

    The geometry runs on integers: each point is written once as integer
    coordinates over its own denominator D (_over_denominator), and two
    points with different D are compared by cross-multiplication.  There
    is no dataset-wide denominator: its size grows with the number of
    distinct D, to about 150,000 digits for 256 points in the plane whose
    coordinates have pairwise distinct 300-digit denominators.  Duplicates
    are found by hashing these integer forms; the error names the first
    coinciding pair (i, j) in row-major pair order.  The minimum squared
    distance comes from a sort-and-sweep closest-pair search (Shamos &
    Hoey): points are sorted along the coordinate with the widest spread,
    and each point is compared with earlier ones only while the gap along
    that coordinate could still beat the best distance.
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
    forms = tuple([_over_denominator(p) for p in points])
    r_sq = _max_sq_norm(forms)
    _reject_duplicates(forms)
    return Dataset(points, tuple(labels), c, _min_sq_distance(forms), r_sq, forms)


def _over_denominator(point) -> tuple:
    """(D, X): the point is X[k] / D, with D the lcm of its coordinates'
    denominators, so (D, X) is unique to the point."""
    den = math.lcm(*[x.denominator for x in point])
    return den, tuple([x.numerator * (den // x.denominator) for x in point])


def _sort_keys(nums, dens) -> list[int]:
    """Integers in the order of the values nums[i] / dens[i], equal exactly
    for equal values.  Two distinct values differ by at least
    1 / (dens[i] * dens[j]) > 2**-s, so their floors times 2**s differ."""
    top = max(dens)
    if top == min(dens):
        return nums
    s = 2 * top.bit_length()
    return [(v << s) // den for v, den in zip(nums, dens)]


def _max_sq_norm(rows) -> Fraction:
    best, best_den = -1, 1
    for den, x in rows:
        norm = sum([v * v for v in x])
        if norm * best_den > best * den * den:
            best, best_den = norm, den * den
    return Fraction(best, best_den)


def _reject_duplicates(rows) -> None:
    first = {}
    dup = None
    for j, p in enumerate(rows):
        i = first.setdefault(p, j)
        # only a point's second occurrence can lower dup[0]
        if i != j and (dup is None or i < dup[0]):
            dup = (i, j)
    if dup is not None:
        raise DuplicatePointError(f"points {dup[0]} and {dup[1]} coincide")


def _min_sq_distance(rows) -> Fraction | None:
    """Exact closest-pair squared distance of distinct points (None if N == 1).

    rows are the points' (D, X) forms.  A pair with equal D differs by
    (X_p - X_q) / D; any other by (X_p * D_q - X_q * D_p) / (D_p * D_q).
    The best squared distance so far is best / best_den, starting from the
    first two points in sweep order.
    """
    if len(rows) == 1:
        return None
    d = len(rows[0][1])
    dens = [den for den, _ in rows]
    keys = [_sort_keys([x[k] for _, x in rows], dens) for k in range(d)]
    axis = max(range(d), key=lambda k: max(keys[k]) - min(keys[k]))
    ordered = [rows[i] for i in sorted(range(len(rows)), key=keys[axis].__getitem__)]
    dp, p = ordered[0]
    dq, q = ordered[1]
    best = sum([(u * dq - v * dp) ** 2 for u, v in zip(p, q)])
    best_den = (dp * dq) ** 2
    for pos, (dp, p) in enumerate(ordered):
        a = p[axis]
        for back in range(pos - 1, -1, -1):
            dq, q = ordered[back]
            if dp == dq:
                dx, den = a - q[axis], dp * dp
            else:
                dx, den = a * dq - q[axis] * dp, (dp * dq) ** 2
            bound = best * den  # the best distance over den
            if dx * dx * best_den >= bound:
                break
            if dp == dq:
                dist = sum([(u - v) * (u - v) for u, v in zip(p, q)])
            else:
                dist = sum([(u * dq - v * dp) ** 2 for u, v in zip(p, q)])
            if dist * best_den < bound:
                best, best_den = dist, den
    return Fraction(best, best_den)


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


def _truncated_unit_vector(coords: list[int], frac_bits: int) -> list[int]:
    """coords/|coords| with each coordinate truncated toward zero to
    frac_bits, as integers over 2**frac_bits."""
    norm_sq = sum(v * v for v in coords)
    out = []
    for v in coords:
        a = abs(v) << frac_bits
        q = math.isqrt((a * a) // norm_sq)
        out.append(q if v >= 0 else -q)
    return out


def _doubling_exponent(num: int, den: int) -> int:
    """The least k >= 0 with 2**k * num / den >= 2, for num, den > 0."""
    k = max(0, (den << 1).bit_length() - num.bit_length())
    return k if num << k >= den << 1 else k + 1


def project_to_line(ds: Dataset, seed: int = 0) -> tuple[Projection1D, LayeredNet]:
    """Search directions until the projected gaps verify, then scale.

    A direction is accepted when all projections are distinct and the
    smallest gap is at least 2*delta/(N^2*sqrt(3d)) (checked exactly on
    squares), which caps R_realized below the audit ceiling.  The scale is
    the smallest power of two making every gap at least 2.  The search
    tries MEMNET_RETRY_BUDGET directions (default 200).

    Point p projects to dots[p] / (D_p * 2**frac_bits), with dots[p] the
    integer dot product of the direction's numerators and p's integer
    coordinates over D_p (ds.forms); every comparison is on integers.
    """
    retry_budget = int(os.environ.get("MEMNET_RETRY_BUDGET", DEFAULT_RETRY_BUDGET))
    n, d = ds.n, ds.dim
    frac_bits = ceil_log2(2 * d * n * n) + 2
    rng = random.Random(seed)
    gap_floor_sq = None
    if ds.delta_sq is not None:
        # gap^2 >= 4*delta^2 / (3*d*N^4), with 3 < pi as a rational guard
        gap_floor_sq = Fraction(4, 3 * d * n ** 4) * ds.delta_sq
    dens = [den for den, _ in ds.forms]

    for attempt in range(1, retry_budget + 1):
        coords = [rng.randint(-(1 << frac_bits), 1 << frac_bits) for _ in range(d)]
        if all(v == 0 for v in coords):
            continue
        units = _truncated_unit_vector(coords, frac_bits)
        dots = [sum([u * v for u, v in zip(units, x)]) for _, x in ds.forms]
        order = sorted(range(n), key=_sort_keys(dots, dens).__getitem__)
        scale_exp = 0
        if n > 1:
            gap, gap_den = _min_gap(dots, dens, order)
            gap_den <<= frac_bits  # dots are over 2**frac_bits too
            if gap == 0 or (gap_floor_sq is not None and gap * gap * gap_floor_sq.denominator
                            < gap_floor_sq.numerator * gap_den * gap_den):
                continue
            scale_exp = _doubling_exponent(gap, gap_den)
            # what craft_codes relies on, checked by raises that -O keeps:
            # gaps of at least 2 and (below) a positive lowest value
            if gap << scale_exp < gap_den << 1:
                raise MemorizationError("projected training values are less than 2 apart")
        low, high = order[0], order[-1]
        bias_int = 1 - min(0, dots[low] // (dens[low] << frac_bits))
        if dots[low] + (bias_int * dens[low] << frac_bits) <= 0:
            raise MemorizationError("a projected training value is not positive")
        r_realized = Fraction((dots[high] + (bias_int * dens[high] << frac_bits)) << scale_exp,
                              dens[high] << frac_bits)
        direction = tuple(DyadicRational(u, -frac_bits) for u in units)
        bias, scale = DyadicRational(bias_int), DyadicRational.pow2(scale_exp)
        proj1d = Projection1D(direction, bias, scale, r_realized, attempt)
        t = TapeBuilder([f"x{k}" for k in range(d)])
        t.layer([("h", bias, {f"x{k}": direction[k] for k in range(d)})])
        t.layer([("z", 0, {"h": scale})], relu=False)
        net = t.build("line_projection", output_nonneg=True)
        return proj1d, net
    raise ProjectionSearchExhausted(
        f"no separating direction found in {retry_budget} attempts")


def _min_gap(nums, dens, order) -> tuple[int, int]:
    """(g, g_den): the smallest gap g / g_den between the values
    nums[i] / dens[i] that are neighbours in order, which sorts them."""
    gap, gap_den = None, 1
    for i, j in zip(order, order[1:]):
        di, dj = dens[i], dens[j]
        if di == dj:
            g, g_den = nums[j] - nums[i], di
        else:
            g, g_den = nums[j] * di - nums[i] * dj, di * dj
        if gap is None or g * gap_den < gap * g_den:
            gap, gap_den = g, g_den
    return gap, gap_den


def projected_values(proj: Projection1D, ds: Dataset) -> list[Fraction]:
    """scale * (direction . p + bias) for every point p, exactly."""
    frac_bits = max(0, *[-u.exponent for u in proj.direction])
    units = [(u.sign * u.mantissa) << (u.exponent + frac_bits) for u in proj.direction]
    b, s = proj.bias.as_fraction(), proj.scale.as_fraction()
    out = []
    for den, x in ds.forms:
        den = den << frac_bits
        dot = sum([u * v for u, v in zip(units, x)])
        out.append(Fraction(s.numerator * (dot * b.denominator + b.numerator * den),
                            s.denominator * b.denominator * den))
    return out


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
    intervals: tuple  # (a_j, b_j) indicator plateau per bucket


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
    return CraftedCode(m_real, k, rho, c, u, w, tuple(intervals))


def build_stage2(code: CraftedCode, carry: bool = False) -> LayeredNet:
    """Bucket selector: z -> (z, w_j, u_j) for z in bucket j's plateau.

    Bucket j's indicator (gadgets.window_rows on [a_j, b_j]) gates both
    payload accumulators, so the realized width is 5 (the scalar selector of
    the contract is width 4) plus the carry channel k0 when carry is set.
    Depth is 3*bucket_count + 2.
    """
    carries = ["k0"] if carry else []
    t = TapeBuilder(["z"] + carries)
    t.layer([("x", 0, {"z": 1}), ("yw", 0, {}), ("yu", 0, {})]
            + t.passthrough_rows(carries))
    keep = ["x", "yw", "yu"] + carries
    for j in range(code.bucket_count):
        a, b = code.intervals[j]
        for rows in gadgets.window_rows("x", (a, {}), (b, {})):
            t.layer(rows + t.passthrough_rows(keep))
        t.layer([
            ("x", 0, {"x": 1}),
            ("yw", -code.w[j], {"yw": 1, "g1": code.w[j], "g2": code.w[j]}),
            ("yu", -code.u[j], {"yu": 1, "g1": code.u[j], "g2": code.u[j]}),
        ] + t.passthrough_rows(carries))
    t.layer(t.passthrough_rows(keep), relu=False)
    return t.build(f"bucket_selector[m={code.bucket_count}]", output_nonneg=True)


def build_stage3(n_blocks: int, rho: int, c: int, carry: bool = False) -> LayeredNet:
    """Block matcher: (x, w, u) -> label block of w whose u block equals floor(x).

    Walks the n_blocks rho-bit blocks of u and c-bit blocks of w with two
    iterated-triangle tracks each (gadgets.triangle_step_rows, tap_weight),
    gates every decoded u block b against x with a distance gate (the window
    [b, b+1], gadgets.window_rows), and sums the gated w blocks.  Output is
    0 when x is farther than 3/2 from every block value.  Width 12; depth
    3*n_blocks*max(rho, c) + 2*n_blocks + 2.

    With the carry channel the net maps (x, w, u, y) -> (x, y + result),
    which is how the bit-budget chain threads its accumulator.
    """
    if n_blocks < 1 or rho < 1 or c < 1:
        raise ParameterError("block counts and widths must be positive")
    carries = ["k0"] if carry else []
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
    ] + t.passthrough_rows(carries))

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
                        + t.passthrough_rows(carries))
            # advance the accumulators; on the last step open the distance gate
            bu = accumulator("u", step, rho, nr)
            bw = accumulator("w", step, c, nc)
            rows = t.passthrough_rows(["x", "pu", "qu", "pw", "qw", "y"])
            if step < steps:
                rows += [("bu", 0, bu), ("bw", 0, bw)]
            else:
                gate, gate_out = gadgets.window_rows("x", (0, bu), (1, bu))
                rows += [("bw", 0, bw)] + gate
            t.layer(rows + t.passthrough_rows(carries))
        hold = ["x", "pu", "qu", "pw", "qw", "y"] + carries
        t.layer(gate_out + [("bw", 0, {"bw": 1})] + t.passthrough_rows(hold))
        t.layer([("g", -(1 << (c + 2)),
                  {"g1": 1 << (c + 1), "g2": 1 << (c + 1), "bw": 1})]
                + t.passthrough_rows(hold))
    if carry:
        final = [("x", 0, {"x": 1}),
                 ("y", 0, {"k0": 1, "y": 1, "g": 1})]
    else:
        final = [("out", 0, {"y": 1, "g": 1})]
    t.layer(final, relu=False)
    return t.build(f"block_matcher[n={n_blocks},rho={rho},c={c}]", output_nonneg=True)


# ---------------------------------------------------------------------------
# assembly


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


def verify_exact(net: LayeredNet, points, labels):
    """Evaluate every point exactly; return (all_equal, mismatched indices)."""
    bad, _ = check_outputs(net, points, labels)
    return not bad, bad


def _sorted_projection(ds: Dataset, seed: int):
    proj, net1 = project_to_line(ds, seed)
    zs = projected_values(proj, ds)
    keys = _sort_keys([z.numerator for z in zs], [z.denominator for z in zs])
    order = sorted(range(ds.n), key=keys.__getitem__)
    z_sorted = [zs[i] for i in order]
    labels_sorted = [ds.labels[i] for i in order]
    return proj, net1, z_sorted, labels_sorted


def _verified_build(net: LayeredNet, ds: Dataset, seed: int, proj: Projection1D,
                    codes, theorem: str, **mode_fields):
    """Every builder's tail: verify each training point exactly, record the
    realized quantities of the codes, and audit.  Returns (net, report)."""
    ok, bad = verify_exact(net, ds.points, ds.labels)
    if not ok:
        raise MemorizationError(f"training points {bad[:5]} not reproduced")
    info = BuildInfo(
        theorem=theorem, n=ds.n, dim=ds.dim, num_classes=ds.num_classes,
        seed=seed, rho=max(c.rho for c in codes), c=codes[0].c,
        bucket_count=max(c.bucket_count for c in codes),
        bucket_size=max(c.bucket_size for c in codes),
        R_realized=proj.R_realized, delta_sq=ds.delta_sq, r_sq=ds.r_sq,
        **mode_fields,
    )
    return net, bounds.audit(net, ds, info)


def assemble_sqrt(ds: Dataset, seed: int = 0):
    """Build and exactly verify the square-root-size memorizer.

    Returns (net, audit_report); raises MemorizationError if any training
    point fails exact verification (which would indicate a bug, not data).
    """
    proj, net1, z_sorted, labels_sorted = _sorted_projection(ds, seed)
    code = craft_codes(z_sorted, labels_sorted, min(ds.n, default_bucket_count(ds.n)),
                       ds.num_classes)
    net2 = build_stage2(code)
    net3 = build_stage3(code.bucket_size, code.rho, code.c)
    net = compose_serial(compose_serial(net1, net2), net3, "sqrt_memorizer")
    return _verified_build(net, ds, seed, proj, [code], "sqrt", extra={
        "stage_widths": [metrics(net1).width, metrics(net2).width, metrics(net3).width]})


def regression_dataset(points, labels, lo, epsilon, hi=None) -> Dataset:
    """The points with their real labels (exact_labels) put on the grid of
    width epsilon from lo up to hi (default: the largest label): C is
    max(1, ceil((hi - lo) / epsilon)), and label y becomes class
    min(C, floor((y - lo) / epsilon) + 1)."""
    ys = exact_labels(labels)
    hi = max(ys, default=lo) if hi is None else hi
    classes = max(1, math.ceil((hi - lo) / epsilon))
    quantized = [min(classes - 1, int((y - lo) // epsilon)) + 1 for y in ys]
    return load_and_validate(points, quantized, classes)


def regression_wrap(raw_points, raw_labels, epsilon, seed: int = 0, lo=None, hi=None):
    """Quantize real labels to a grid of width epsilon and memorize the bins.

    The returned network satisfies |F(x_i) - y_i| <= epsilon/2 exactly; the
    class count grows like (hi-lo)/epsilon so parameters grow with
    log(1/epsilon).  lo/hi declare the label interval and default to the
    observed extremes.
    """
    epsilon = _to_fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    labels = exact_labels(raw_labels)
    lo = min(labels) if lo is None else _to_fraction(lo)
    hi = max(labels) if hi is None else _to_fraction(hi)
    if any(not lo <= y <= hi for y in labels):
        raise ParameterError("labels fall outside the declared interval")
    ds = regression_dataset(raw_points, labels, lo, epsilon, hi)
    # class q maps back to the grid midpoint lo + (q - 1/2) * epsilon
    head = _dyadic_head(epsilon, lo - epsilon / 2)
    base, base_report = assemble_sqrt(ds, seed)
    net = compose_serial(base, head, "regression_memorizer")
    _, worst = check_outputs(net, ds.points, labels)
    if worst > epsilon / 2:
        raise MemorizationError(f"regression error {worst} exceeds epsilon/2")
    info = replace(base_report.info, theorem="regression", epsilon=epsilon, label_lo=lo,
                   extra={"max_abs_error": str(worst)})
    return net, bounds.audit(net, ds, info)


def _dyadic_head(epsilon: Fraction, bias: Fraction) -> LayeredNet:
    try:
        weight, bias = DyadicRational.from_fraction(epsilon), DyadicRational.from_fraction(bias)
    except ValueError:
        raise ParameterError("epsilon and label range must be dyadic rationals") from None
    t = TapeBuilder(["q"])
    t.layer([("y", bias, {"q": weight})], relu=False)
    return t.build("grid_midpoint_head")
