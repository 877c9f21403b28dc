"""Differential test: load_and_validate against a brute-force pair sweep.

`brute_force_validate` below is the reference: it compares every pair of
points with Fraction arithmetic, raising DuplicatePointError on the first
coinciding pair in row-major pair order.  load_and_validate must agree with
it on delta_sq and r_sq, in value and in type, and raise the same
DuplicatePointError message.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from memnet.pipeline import DuplicatePointError, load_and_validate


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


@st.composite
def point_sets(draw):
    dim = draw(st.integers(1, 4))
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

