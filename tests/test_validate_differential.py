"""Differential tests: load_and_validate against a brute-force pair sweep,
and the projection search against a Fraction reference.

`brute_force_validate` below is the reference: it compares every pair of
points with Fraction arithmetic, raising DuplicatePointError on the first
coinciding pair in row-major pair order.  load_and_validate must agree with
it on delta_sq and r_sq, in value and in type, and raise the same
DuplicatePointError message.  `reference_projection` runs
project_to_line's direction search in Fraction arithmetic:
project_to_line and projected_values must give the same projection, the
same attempt count and the same projected values.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from memnet.exactnum import ceil_log2
from memnet.pipeline import (DEFAULT_RETRY_BUDGET, DuplicatePointError,
                             ProjectionSearchExhausted, load_and_validate,
                             project_to_line, projected_values)


def brute_force_validate(raw_points):
    """(delta_sq, r_sq) by comparing every pair of exact points."""
    points = [tuple(Fraction(c) for c in p) for p in raw_points]
    r_sq = max(sum(x * x for x in p) for p in points)
    delta_sq = None
    for i, j in itertools.combinations(range(len(points)), 2):
        dist = sum((a - b) * (a - b) for a, b in zip(points[i], points[j]))
        if dist == 0:
            raise DuplicatePointError(f"points {i} and {j} coincide")
        if delta_sq is None or dist < delta_sq:
            delta_sq = dist
    return delta_sq, r_sq


def _outcome(validate, raw_points):
    """Typed results or the duplicate message, for comparing two validators."""
    try:
        delta_sq, r_sq = validate(raw_points)
    except DuplicatePointError as exc:
        return "duplicate", str(exc)
    return (type(delta_sq), delta_sq), (type(r_sq), r_sq)


def _validated(raw_points):
    ds = load_and_validate(raw_points, [1] * len(raw_points))
    return ds.delta_sq, ds.r_sq


_COORDS = {
    "integer": st.integers(-60, 60).map(Fraction),
    "dyadic": st.builds(lambda m, e: Fraction(m, 1 << e),
                        st.integers(-300, 300), st.integers(0, 8)),
    "decimal": st.integers(-6000, 6000).map(lambda v: Fraction(v, 100)),
    "rational": st.fractions(min_value=-30, max_value=30, max_denominator=60),
}
# every coordinate of a set drawn from any kind, so points carry different
# denominators and one point can mix kinds
_COORDS["mixed"] = st.one_of(*_COORDS.values())


@st.composite
def point_sets(draw, dims=(1, 2, 3, 4)):
    dim = draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(sorted(_COORDS)))
    coord = _COORDS[kind]
    point = st.tuples(*[coord] * dim)
    shape = draw(st.sampled_from(["random", "collinear", "grid", "cluster"]))
    if shape == "random":
        pts = draw(st.lists(point, min_size=1, max_size=40))
    elif shape == "collinear":
        base, step = draw(point), draw(point)
        ks = draw(st.lists(st.integers(-25, 25), min_size=1, max_size=30, unique=True))
        pts = [tuple(b + k * s for b, s in zip(base, step)) for k in ks]
    elif shape == "grid":
        side = draw(st.integers(1, 7 if dim <= 2 else 3))
        spacing = draw(coord.filter(bool))
        pts = [tuple(spacing * v for v in cell)
               for cell in itertools.product(range(side), repeat=dim)]
    else:  # tight clusters around a few centres
        centres = draw(st.lists(point, min_size=1, max_size=4))
        jitter = st.integers(-3, 3).map(lambda v: Fraction(v, 10 ** 6))
        pts = [tuple(c + draw(jitter) for c in centre)
               for centre in centres for _ in range(draw(st.integers(1, 8)))]
    pts = draw(st.permutations(pts))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    # raw coordinates as the loaders see them: strings, ints or Fractions
    form = draw(st.sampled_from(["str", "native"]))
    if form == "str":
        return [tuple(str(c) for c in p) for p in pts]
    return [tuple(int(c) if c.denominator == 1 else c for c in p) for p in pts]


class TestAgainstBruteForce:
    @settings(max_examples=400, deadline=None)
    @given(point_sets())
    def test_matches_brute_force(self, raw_points):
        assert _outcome(_validated, raw_points) == _outcome(brute_force_validate, raw_points)

    def test_single_point(self):
        assert _outcome(_validated, [("5", "-1")]) == (
            (type(None), None), (Fraction, Fraction(26)))

    def test_two_points(self):
        raw = [("1/3", "0"), ("0", "1/4")]
        assert _outcome(_validated, raw) == _outcome(brute_force_validate, raw)

    def test_duplicate_pair_order(self):
        a, b, c = ("0", "0"), ("1", "2"), ("3", "1/2")
        for raw in ([a, b, b, a], [b, a, c, a, b], [c, a, a, a], [a, b, c, c, b]):
            assert _outcome(_validated, raw)[0] == "duplicate"
            assert _outcome(_validated, raw) == _outcome(brute_force_validate, raw)


class TestLargeN:
    def test_planted_pair_in_a_4096_point_lattice(self):
        # 64 x 64 lattice of spacing 10 (pairwise at least 100 apart squared),
        # with the point at (20, 30) moved to (20 + 7/3, 30 + 1/2): its new
        # nearest neighbour is (30, 30), at (23/3)^2 + (1/2)^2 = 2125/36.
        pts = [(Fraction(10 * i), Fraction(10 * j)) for i in range(64) for j in range(64)]
        pts[pts.index((20, 30))] = (20 + Fraction(7, 3), 30 + Fraction(1, 2))
        random.Random(0).shuffle(pts)
        ds = load_and_validate(pts, [1] * len(pts))
        assert ds.n == 4096
        assert ds.delta_sq == Fraction(2125, 36)
        assert ds.r_sq == 2 * 630 ** 2


    def test_pairwise_distinct_300_digit_denominators(self):
        # The lcm of all 512 denominators has about 507,000 bits: writing
        # the points over it took 1.3 s and each squared distance over it
        # 50 ms, so a sweep through it would take tens of seconds.  Over
        # each point's own denominator these points validate in about 0.1 s
        # and project in about 0.03 s (2-core Xeon, Python 3.11).
        rng = random.Random(0)
        pts = [tuple(Fraction(rng.randrange(10 ** 303), 10 ** 300 + 2 * (2 * i + k) + 1)
                     for k in range(2)) for i in range(256)]
        start = time.perf_counter()
        ds = load_and_validate(pts, [1] * len(pts))
        validated = time.perf_counter()
        proj, _ = project_to_line(ds, seed=0)
        zs = projected_values(proj, ds)
        projected = time.perf_counter()
        assert validated - start < 2.0 and projected - validated < 1.0
        assert ds.delta_sq > 0 and max(zs) == proj.R_realized
        zs.sort()
        assert all(b - a >= 2 for a, b in zip(zs, zs[1:]))


def reference_projection(ds, seed):
    """project_to_line's search in Fraction arithmetic: (direction, bias,
    scale, R_realized, attempts, projected values), or None when no
    direction passes within the default retry budget."""
    n, d = ds.n, ds.dim
    frac_bits = ceil_log2(2 * d * n * n) + 2
    rng = random.Random(seed)
    gap_floor_sq = None if ds.delta_sq is None else Fraction(4, 3 * d * n ** 4) * ds.delta_sq
    for attempt in range(1, DEFAULT_RETRY_BUDGET + 1):
        coords = [rng.randint(-(1 << frac_bits), 1 << frac_bits) for _ in range(d)]
        if not any(coords):
            continue
        norm_sq = sum(v * v for v in coords)
        direction = []
        for v in coords:  # v / sqrt(norm_sq), truncated toward zero
            q = math.isqrt(((abs(v) << frac_bits) ** 2) // norm_sq)
            direction.append(Fraction(q if v >= 0 else -q, 1 << frac_bits))
        proj = [sum(u * x for u, x in zip(direction, p)) for p in ds.points]
        scale = 1
        if n > 1:
            ordered = sorted(proj)
            min_gap = min(b - a for a, b in zip(ordered, ordered[1:]))
            if min_gap == 0 or (gap_floor_sq is not None and min_gap ** 2 < gap_floor_sq):
                continue
            while scale * min_gap < 2:
                scale *= 2
        bias = 1 - min(0, math.floor(min(proj)))
        zs = [scale * (v + bias) for v in proj]
        return direction, bias, scale, max(zs), attempt, zs
    return None


def _projection(ds, seed):
    """project_to_line and projected_values in reference_projection's form."""
    try:
        proj, _ = project_to_line(ds, seed)
    except ProjectionSearchExhausted:
        return None
    zs = projected_values(proj, ds)
    assert type(proj.R_realized) is Fraction and {type(z) for z in zs} == {Fraction}
    return ([u.as_fraction() for u in proj.direction], proj.bias.as_fraction(),
            proj.scale.as_fraction(), proj.R_realized, proj.attempts, zs)


class TestProjectionAgainstFractions:
    @settings(max_examples=300, deadline=None)
    @given(point_sets(dims=(1, 2, 3)), st.integers(0, 2 ** 32))
    def test_matches_fraction_reference(self, raw_points, seed):
        try:
            ds = load_and_validate(raw_points, [1] * len(raw_points))
        except DuplicatePointError:
            assume(False)
        assert _projection(ds, seed) == reference_projection(ds, seed)

    def test_every_coordinate_kind_and_dimension(self):
        kinds = {
            "integer": lambda rng: rng.randint(-50, 50),
            "dyadic": lambda rng: Fraction(rng.randint(-800, 800), 1 << rng.randint(0, 6)),
            "decimal": lambda rng: Fraction(rng.randint(-5000, 5000), 100),
            "rational": lambda rng: Fraction(rng.randint(-900, 900), rng.randint(1, 40)),
        }
        draws = list(kinds.values())
        kinds["mixed"] = lambda rng: rng.choice(draws)(rng)
        for (name, coord), d, seed in itertools.product(kinds.items(), (1, 2, 3), range(8)):
            rng = random.Random(f"{name}-{d}-{seed}")
            pts = list(dict.fromkeys(tuple(coord(rng) for _ in range(d)) for _ in range(24)))
            ds = load_and_validate(pts, [1] * len(pts))
            got = _projection(ds, seed)
            assert got is not None and got == reference_projection(ds, seed), (name, d, seed)
