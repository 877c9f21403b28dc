"""Differential test: eval_float against a plain per-layer float64 walk.

`reference_float` below is the reference: it walks every row of every
layer, accumulating bias first and then the terms in stored order, left to
right, with no aliasing or register reuse.  eval_float must return the same
float64 bits (any NaN matches any NaN) on every input, including +-0.0,
+-inf, NaN, subnormals and values near the float range.  The seam memo of
eval_float is also checked against `plain_float`, the register plan run op
by op with no memo, down to the NaN payloads.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from memnet import netir
from memnet.datagen import random_dataset, random_separated_points
from memnet.exactnum import DyadicRational
from memnet.netir import AffineLayer, LayeredNet, eval_exact, eval_float
from memnet.pipeline import assemble_sqrt
from test_eval_differential import (CORPUS_NAMES, WRONG_SPLITS, _dyadics, _fresh,
                                    _key_per_point_net, _mutated, _nets, _relu_chains,
                                    _stacked_nets, corpus)
from test_golden import BUILD_DIGESTS, _build

SPECIALS = (0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
            -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308, 1e16, -1e16)


def reference_float(net: LayeredNet, xs) -> list[float]:
    vals = [float(x) for x in xs]
    for layer in net.layers:
        out = []
        for row, bias in zip(layer.rows, layer.biases):
            acc = bias.to_float()
            for i, w in row:
                acc += w.to_float() * vals[i]
            if layer.relu and not acc > 0.0:
                acc = 0.0 if acc == acc else acc  # keep NaN
            out.append(acc)
        vals = out
    return vals


def _bits(v: float) -> bytes:
    return b"nan" if v != v else struct.pack("<d", v)


def assert_same_bits(net: LayeredNet, xs) -> None:
    want = reference_float(net, xs)
    got = eval_float(net, xs)
    assert [_bits(v) for v in got] == [_bits(v) for v in want], (xs, got, want)


def _hostile_points(dim: int, rng: random.Random, count: int = 40):
    """Points mixing special values with random floats of every magnitude."""
    def coordinate(scale):
        if rng.random() < 0.3:
            return rng.choice(SPECIALS)
        return rng.uniform(-1, 1) * scale
    # one magnitude per point, so that the terms of a row round against each other
    scales = [2.0 ** rng.randint(-1074, 1023) for _ in range(count)]
    return [[coordinate(scale) for _ in range(dim)] for scale in scales]


def _check(net: LayeredNet, points, rng: random.Random) -> None:
    for p in points:
        assert_same_bits(net, [float(c) for c in p])
    for p in _hostile_points(net.input_dim, rng):
        assert_same_bits(net, p)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_nets_bitwise(name):
    net, ds = corpus(name)
    _check(net, ds.points, random.Random(name))


@pytest.mark.parametrize("name", CORPUS_NAMES[-4:])
def test_mutated_weight_nets_bitwise(name):
    net, ds = corpus(name)
    rng = random.Random(name)
    for _ in range(4):
        _check(_mutated(net, rng), ds.points[:4], rng)


def test_negative_zero_through_identity_rows():
    """Identity rows of a final layer on raw inputs give +0.0 for -0.0."""
    rows = [((0, 1),), ((1, 1),), ((0, 1), (1, 1))]
    net = LayeredNet(2, [AffineLayer(2, 3, rows, [0, 0, 0], relu=False)])
    for xs in ([-0.0, -0.0], [-0.0, 1.5], [float("nan"), -0.0]):
        assert_same_bits(net, xs)
    assert _bits(eval_float(net, [-0.0, 2.0])[0]) == _bits(0.0)


def test_negative_zero_input_after_an_underflowing_bias():
    """An identity row on a raw input runs as an op: its bias -2^-1100,
    which underflows to -0.0, plus 1.0 * -0.0 is -0.0, as in the walk."""
    net = LayeredNet(1, [AffineLayer(1, 1, [((0, 1),)], [DyadicRational(-1, -1100)],
                                     relu=False)])
    assert _bits(eval_float(net, [-0.0])[0]) == _bits(-0.0)
    for x in (-0.0, 0.0, 5e-324, -5e-324, float("nan")):
        assert_same_bits(net, [x])


def test_accumulation_order_is_left_to_right():
    """Bias first, then the terms in stored order; no compensated summation."""
    rows = [((0, 1), (1, 1), (2, 1))]
    net = LayeredNet(3, [AffineLayer(3, 1, rows, [0], relu=False)])
    assert eval_float(net, [1.0, 1e16, -1e16]) == [0.0]
    assert_same_bits(net, [1.0, 1e16, -1e16])


_floats = st.one_of(st.floats(), st.sampled_from(SPECIALS), st.sampled_from([0.0, -0.0]))
# Biases that underflow to -0.0 or +0.0 in float64, among the usual ones: a
# row that adds a -0.0 input to such a bias keeps the input's sign.
_float_biases = st.one_of(_dyadics, st.sampled_from([DyadicRational(-1, -1100),
                                                     DyadicRational(1, -1100)]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_nets_bitwise(data):
    net = data.draw(_nets(biases=_float_biases))
    for _ in range(3):
        xs = data.draw(st.lists(_floats, min_size=net.input_dim, max_size=net.input_dim))
        assert_same_bits(net, xs)


# ---------------------------------------------------------------------------
# the seam memo of eval_float against the plan run without it


def _strict(values) -> list:
    """The exact float64 bits of each value, NaN payloads included."""
    return [struct.pack("<d", v) for v in values]


def _run_plain(net: LayeredNet, regs: list) -> list:
    """Every op of the net's register plan on regs, in order, with no memo:
    eval_float's loop before the memo.  Returns the output values."""
    ops, size, outputs = netir._plan(net)
    regs += [0.0] * (size - len(regs))
    for bias, slots, weights, relu, dest, _ in ops:
        acc = bias.to_float()
        for r, w in zip(slots, weights):
            acc += w.to_float() * regs[r]
        if relu and not acc > 0.0:
            acc = 0.0 if acc == acc else acc
        regs[dest] = acc
    return [regs[s] for s in outputs]


def plain_float(net: LayeredNet, xs) -> list:
    return _run_plain(net, [float(x) for x in xs])


def assert_float_memo_agrees(net: LayeredNet, points) -> None:
    """eval_float on every point, in order on one net object, equals the
    plan without the memo bit for bit and the layer walk up to NaN payloads."""
    for xs in points:
        got = eval_float(net, xs)
        assert _strict(got) == _strict(plain_float(net, xs)), (net.provenance, xs)
        assert [_bits(v) for v in got] == [_bits(v) for v in reference_float(net, xs)], xs


def _memos(runner) -> list:
    """The memos of a runner's memoized segments, in program order; a region
    segment, whose dyn is None, keeps intervals instead (_intervals)."""
    return [seg[4] for seg in runner.segments if seg[0] is not None and seg[2] is not None]


def _intervals(runner) -> list:
    """The interval stores of a runner's region segments, each checked: its
    intervals sorted, each nonempty and free of NaN, and no two neighbours
    meeting, since each interval ends at exact flips."""
    stores = [seg[4] for seg in runner.segments if seg[0] is not None and seg[2] is None]
    for store in stores:
        lows, highs = store.lows, store.highs
        assert len(lows) == len(highs) == len(store.entries)
        assert all(low <= high for low, high in zip(lows, highs)), (lows, highs)
        assert all(high < low for high, low in zip(highs, lows[1:])), (lows, highs)
    return stores


def _stored(runner) -> tuple:
    """(memo entries, intervals, bits) of a float runner."""
    return (sum(map(len, _memos(runner))), sum(len(s.lows) for s in _intervals(runner)),
            runner.bits)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_float_memo_matches_plain_loop(name):
    """The training points and hostile points through one net object, twice:
    the second pass finds every key and interval the first stored and
    stores nothing."""
    built, ds = corpus(name)
    net = _fresh(built)
    rng = random.Random(name)
    points = [[float(c) for c in p] for p in ds.points] + _hostile_points(net.input_dim, rng)
    assert_float_memo_agrees(net, points)
    stored = _stored(net._flt)
    assert_float_memo_agrees(net, points)
    assert _stored(net._flt) == stored
    entries, intervals, _ = stored
    if _memos(net._flt):  # the training points share keys: some of them hit
        assert 0 < entries < len(points)
    assert 0 < intervals < len(points)  # so do the selector's intervals


def test_one_seam_analysis_serves_both_arithmetics(monkeypatch):
    """Exact and float64 evaluation of one net run the seam analysis once
    and cut the plan into the same segments: the same op ranges, the same
    kinds, key slots and export slots, so the float64 runner's region
    segments are the exact runner's, with the same v slot."""
    built, ds = corpus(CORPUS_NAMES[0])
    net = _fresh(built)
    calls = []
    real = netir._seams
    monkeypatch.setattr(netir, "_seams", lambda plan: calls.append(plan) or real(plan))
    for p in ds.points[:3]:
        eval_float(net, [float(c) for c in p])
        eval_exact(net, list(p))
    assert len(calls) == 1 and calls[0] is netir._plan(net)
    exact, floats = net._seams.segments, net._flt.segments

    def shape(segments):  # each segment's keys, op count, kind and exports, in order
        return [(seg[0], len(seg[1]), seg[2] is None, seg[3]) for seg in segments]

    assert shape(floats) == shape(exact)
    assert any(keys is not None and region for keys, _, region, _ in shape(exact))
    assert any(keys is not None and not region for keys, _, region, _ in shape(exact))


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def _signed_zero_net() -> LayeredNet:
    """(k, y) -> (b + k, b + 2k, b + y) with b = -2^-1100, which underflows
    to -0.0: the first two rows read only k, so k is the memo's key, and
    they give -0.0 for k = -0.0 and +0.0 for k = +0.0."""
    tiny = DyadicRational(-1, -1100)
    rows = [((0, 1),), ((0, 2),), ((1, 1),)]
    return LayeredNet(2, [AffineLayer(2, 3, rows, [tiny] * 3, relu=False)], "signed-zero")


def test_float_memo_keys_are_bit_patterns(monkeypatch):
    """-0.0 and +0.0, NaNs of two payloads and +-inf are different keys,
    with the key registers set on the runner directly."""
    monkeypatch.setattr(netir, "_MIN_STATIC", 0)
    monkeypatch.setattr(netir, "_SEAM_WIDTH", 2)  # one segment of all three rows
    net = _signed_zero_net()
    assert _strict([DyadicRational(-1, -1100).to_float()]) == _strict([-0.0])
    eval_float(net, [1.0, 1.0])
    runner = net._flt
    (keys,) = [seg[0] for seg in runner.segments if seg[0] is not None]
    assert keys == (0,)
    specials = (-0.0, 0.0, -0.0, _nan(1), _nan(2), _nan(1), float("inf"), float("-inf"),
                float("inf"), 0.0)
    _, size, outputs = netir._plan(net)
    for k in specials:
        for y in (-0.0, 3.0):
            regs = [k, y] + [0.0] * (size - 2)
            runner.run(regs)
            got = [regs[s] for s in outputs]
            assert _strict(got) == _strict(_run_plain(net, [k, y])), (k, y)
    assert len(_memos(runner)[0]) == 7  # 1.0, -0.0, +0.0, two NaNs, inf, -inf


def test_float_memo_keeps_term_order(monkeypatch):
    """(k, y) -> ReLU(y) + ReLU(k) - ReLU(k), with the dynamic term first, as
    in the matcher rows of a sqrt build.  Left to right, 1 + 2^53 rounds to
    2^53 and the row gives 0.0; static terms summed first would give 1.0.
    The static values stay in the row's order on a miss and on a hit."""
    monkeypatch.setattr(netir, "_SEAM_WIDTH", 2)  # one segment keyed on k
    first = AffineLayer(2, 3, [((0, 1),), ((0, 1),), ((1, 1),)], [0, 0, 0], relu=True)
    last = AffineLayer(3, 1, [((2, 1), (0, 1), (1, -1))], [0], relu=False)
    net = LayeredNet(2, [first, last], "term-order")
    netir._plan(net)  # in layer order: at _MIN_STATIC 0, its three first rows would be tracks
    monkeypatch.setattr(netir, "_MIN_STATIC", 0)
    big = 2.0 ** 53
    points = [[big, 1.0], [big, 1.0], [big, 3.0], [1.0, 1.0], [big, 1.0]]
    assert_float_memo_agrees(net, points)
    assert eval_float(net, [big, 1.0]) == [0.0]
    assert [seg[0] for seg in net._flt.segments] == [(0,)]
    assert len(_memos(net._flt)[0]) == 2


def test_float_memo_shares_each_bucket():
    """One pass over the training points of a sqrt build keeps at most
    bucket_count entries in each float memo, as in the exact one."""
    ds = random_dataset(64, 2, 4, seed=5)
    built, report = assemble_sqrt(ds, seed=5)
    net = _fresh(built)
    assert_float_memo_agrees(net, [[float(c) for c in p] for p in ds.points])
    assert _memos(net._flt)
    for memo in _memos(net._flt):
        assert 0 < len(memo) <= report.info.bucket_count < ds.n


def test_float_memo_stops_at_its_cap(monkeypatch):
    """Points with distinct keys fill the float memo up to its cap and no
    further, apart from the exact memo's count, and every result keeps its
    bits."""
    monkeypatch.setattr(netir, "_MEMO_BITS", 4000)
    net = _key_per_point_net()
    assert_float_memo_agrees(net, [[float(x), float(y)] for x in range(40) for y in (1, 2)])
    runner = net._flt
    entries = sum(map(len, _memos(runner)))
    assert 0 < entries < 40 and 0 < runner.bits <= 4000
    assert net._seams is None  # the exact runner was never built, nor counted
    assert_float_memo_agrees(net, [[x + 100.5, 1.0] for x in range(40)])
    assert sum(map(len, _memos(runner))) == entries and runner.bits <= 4000


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["random", "stacked"]))
def test_random_nets_float_memo(data, kind):
    """Random nets and stacked ones, whose members run as tracks, every
    segment memoized, under every cut and split rule, on float points drawn
    so that some share coordinates and some repeat."""
    net = data.draw(_nets(biases=_float_biases) if kind == "random"
                    else _stacked_nets(biases=_float_biases))
    point = st.lists(_floats, min_size=net.input_dim, max_size=net.input_dim)
    points = data.draw(st.lists(point, min_size=1, max_size=5))
    points += [p[:1] + q[1:] for p, q in zip(points, points[1:])] + points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netir, "_MIN_STATIC", 0)
        mp.setattr(netir, "_SEAM_WIDTH", data.draw(st.sampled_from([1, 2, 4, 1 << 30])))
        split = data.draw(st.sampled_from([None, *WRONG_SPLITS]))
        if split:
            mp.setattr(netir, "_dynamic_bit", WRONG_SPLITS[split])
        assert_float_memo_agrees(_fresh(net), points)


# ---------------------------------------------------------------------------
# the float64 intervals of region segments against the plan run without them


def _region_net(layers: list, provenance: str) -> LayeredNet:
    """A 1-D net of the given hidden ReLU layers, each a list of (bias,
    ((source, weight), ...)) rows, and one affine output row summing the
    last layer: with _MIN_REGION 0, every op after the input is one region
    segment on v = x."""
    net_layers, width = [], 1
    for rows in layers:
        net_layers.append(AffineLayer(width, len(rows), [terms for _, terms in rows],
                                      [bias for bias, _ in rows], relu=True))
        width = len(rows)
    net_layers.append(AffineLayer(width, 1, [tuple((i, 1) for i in range(width))], [0],
                                  relu=False))
    return LayeredNet(1, net_layers, provenance)


def _staircase_net(steps: int) -> LayeredNet:
    """x -> the number of k in 0..steps-1 with x >= k, as a sum of windows
    g_k = ReLU(1 - ReLU(2^20 (k - x))): between two steps every g_k is 0 or
    1 and depends on no input, so each step is one interval.  (At
    _SEAM_WIDTH 1 the net is one region segment; at 4 its first three ops
    are one, cut at the seam after them.)"""
    h = [(DyadicRational(k, 20), ((0, DyadicRational(-1, 20)),)) for k in range(steps)]
    g = [(1, ((k, -1),)) for k in range(steps)]
    return _region_net([h, g], "staircase")


def _specials_only(net: LayeredNet) -> None:
    """NaN, +-inf and +-0.0 run plain and store no interval."""
    assert_float_memo_agrees(net, [[x] for x in SPECIALS[:5]] + [[_nan(3)]])
    assert sum(len(s.lows) for s in _intervals(net._flt)) == 0


def test_float_intervals_share_each_step(monkeypatch):
    """One interval per step of a staircase, whose exports depend on no
    input there: later points on a step hit it in either order, points on
    the steep ramps and special values run plain, and a repeat pass stores
    nothing."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    monkeypatch.setattr(netir, "_SEAM_WIDTH", 1)
    net = _staircase_net(12)
    _specials_only(net)
    points = [[k + f] for k in range(-1, 13) for f in (0.5, 0.25, 0.75, 0.0)]
    points += [[k - 2.0 ** -22] for k in range(12)]  # on the ramps
    assert_float_memo_agrees(net, points + points[::-1])
    (store,) = _intervals(net._flt)
    assert len(store.lows) == 13  # below the first step, then one per step
    stored = _stored(net._flt)
    assert_float_memo_agrees(net, points)
    assert _stored(net._flt) == stored


def test_float_intervals_follow_rounding(monkeypatch):
    """y = ReLU(x + 2^53), q = ReLU(y - (2^53 + 2)): y rounds to a multiple
    of 2, so q clips up to x = 3 (the tie at 3 rounds to 2^53 + 4), not up
    to the x = 2 near which the slope guesses from 0.5, 2.7 or 3.5: there
    neither the guess nor the float next to it shows the flip, and the
    point runs plain.  At 2.9999999999999996, where q's pre-activation is
    0, the guess is the point itself and the float next to it, 3.0, pins
    the flip, so in either order intervals end there and no interval holds
    a point on the wrong side of it."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    net = _region_net([[(DyadicRational(1, 53), ((0, 1),))],
                       [(DyadicRational(-(1 << 53) - 2, 0), ((0, 1),))]], "rounding")
    points = [[0.5], [2.7], [3.5], [2.9999999999999996], [3.0], [1e6], [1e300]]
    for order in (points, points[::-1]):
        fresh = _fresh(net)
        assert_float_memo_agrees(fresh, order)
        assert eval_float(fresh, [2.9999999999999996]) == [0.0]
        assert eval_float(fresh, [3.0]) == [2.0]
        (store,) = _intervals(fresh._flt)
        assert 2.9999999999999996 in store.highs and 3.0 in store.lows


def test_two_dynamic_terms_are_not_a_chain(monkeypatch):
    """q = ReLU(ReLU(x) - 2 ReLU(x - 1) - 1/2), a tent that is positive on
    (1/2, 3/2) only: q reads two values that depend on x, so its state is
    not monotone in x, and no interval may copy it."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    net = _region_net([[(0, ((0, 1),)), (-1, ((0, 1),))],
                       [(DyadicRational(-1, -1), ((0, 1), (1, -2)))]], "tent")
    points = [[x] for x in (0.75, 1.75, 0.25, 1.25, 2.5, 1.0, 0.6, 1.4, 3.0, -1.0)]
    for order in (points, points[::-1]):
        fresh = _fresh(net)
        assert_float_memo_agrees(fresh, order + order)
        assert [eval_float(fresh, p)[0] for p in points] == [
            0.25, 0.0, 0.0, 0.25, 0.0, 0.5, 0.09999999999999998, 0.10000000000000009, 0.0, 0.0]


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *(f"golden-{mode}" for mode in sorted(BUILD_DIGESTS))])
def test_region_ops_reading_v_once_have_one_term(name):
    """In every float64 region segment of the corpus nets and the golden
    builds, an op with exactly one term that reads a value depending on v
    has no other term, so the one-term chain ops cover every op that reads
    v once.  A construction that adds a constant term to such an op keeps
    its bits and loses intervals, and fails here."""
    net = _fresh(_build(name[7:])[0] if name.startswith("golden-") else corpus(name)[0])
    eval_float(net, [0.0] * net.input_dim)
    regions = [seg for seg in net._flt.segments if seg[0] is not None and seg[2] is None]
    assert regions
    for (v,), ops, *_ in regions:
        dependent = {v}
        for _, terms, _, dest in ops:
            reads = [r for r, _ in terms if r in dependent]
            assert len(reads) != 1 or len(terms) == 1, (name, terms)
            if reads:
                dependent.add(dest)
            else:
                dependent.discard(dest)


def test_a_constant_term_is_not_a_chain(monkeypatch):
    """q = ReLU(c - 2 ReLU(x)), with c = 3 a constant channel: q reads one
    value that depends on x and one that does not, so it is not a chain
    op, and no interval may copy or rerun it where it depends on x.  For
    x <= 0, ReLU(x) clips and q is the constant 3."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    net = _region_net([[(0, ((0, 1),)), (3, ())],
                       [(0, ((0, -2), (1, 1)))]], "constant-term")
    points = [[x] for x in (0.5, 0.25, 1.0, 1.25, 1.5, 2.0, 0.75, -1.0, -3.0, 1e300, 5e-324)]
    for order in (points, points[::-1]):
        fresh = _fresh(net)
        assert_float_memo_agrees(fresh, order + order)
        (store,) = _intervals(fresh._flt)
        assert store.lows and all(high <= 0.0 for high in store.highs)
    assert [eval_float(fresh, p)[0] for p in points[:6]] == [2.0, 2.5, 1.0, 0.5, 0.0, 0.0]


@pytest.mark.parametrize("bias, weight", [(DyadicRational(-1, 1100), DyadicRational(1, 100)),
                                          (DyadicRational(1, 1100), DyadicRational(-1, 100))],
                         ids=["minus-inf", "plus-inf"])
def test_an_infinite_bias_is_not_a_chain(monkeypatch, bias, weight):
    """a = ReLU(b + w x) with |b| = 2^1100, which is +-inf in float64, and
    w x overflowing to the other infinity for x past about 2^924: there a
    is NaN, and b + w x is not monotone in x.  With b = -inf, a clips for
    every other x, and an interval that took a for a chain op would copy
    ReLU(1 - a) = 1 onto the points where it is NaN."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    net = _region_net([[(bias, ((0, weight),))], [(1, ((0, -1),))]], "infinite-bias")
    points = [[x] for x in (1.0, 0.5, 1e300, 2.0, 1e278, 2e278, -1e300, 1e200, 5e-324, -2.0)]
    for order in (points, points[::-1]):
        assert_float_memo_agrees(_fresh(net), order + order)
    assert math.isnan(eval_float(net, [1e300])[0])


@pytest.mark.parametrize("split", [None, *WRONG_SPLITS], ids=["natural", *WRONG_SPLITS])
@pytest.mark.parametrize("seam_width", [1, 2, 4, 1 << 30])
def test_float_intervals_under_forced_cuts(monkeypatch, seam_width, split):
    """Corpus nets with every run that qualifies a region segment, whatever
    its length, a cut at the seams of every width up to every boundary, and
    the memos' dynamic register chosen well or wrongly: float64 bits equal
    the plain loop in both point orders, intervals stored in one order are
    found in the other, and a repeat pass stores nothing."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    monkeypatch.setattr(netir, "_SEAM_WIDTH", seam_width)
    if split:
        monkeypatch.setattr(netir, "_dynamic_bit", WRONG_SPLITS[split])
    for name in ("sqrt-102", "sqrt-112", "depth", "bits", "regression"):
        net, ds = corpus(name)
        net = _fresh(net)
        points = [[float(c) for c in p] for p in ds.points[:10]]
        points += [[(a + b) / 2 for a, b in zip(p, q)] for p, q in zip(points, points[1:])]
        assert_float_memo_agrees(net, points + points[::-1])
        assert _intervals(net._flt), name
        stored = _stored(net._flt)
        assert_float_memo_agrees(net, points[::-1])
        assert _stored(net._flt) == stored, name


def test_float_intervals_share_each_bucket():
    """One pass over the training points of a sqrt build stores one
    interval per bucket in its selector, whose exports other than x depend
    on no input on each bucket's plateau, and a point in the middle of two
    buckets' plateaus finds the interval of its bucket."""
    ds = random_dataset(64, 2, 4, seed=5)
    built, report = assemble_sqrt(ds, seed=5)
    net = _fresh(built)
    points = [[float(c) for c in p] for p in ds.points]
    assert_float_memo_agrees(net, points)
    (store,) = _intervals(net._flt)
    assert len(store.lows) == report.info.bucket_count
    stored = _stored(net._flt)
    assert_float_memo_agrees(net, points[::-1])
    assert _stored(net._flt) == stored
    assert all(len(rerun) == 1 for rerun, _, _ in store.entries)  # x = ReLU(c z) reruns


def _with_points(name: str) -> tuple:
    """(a fresh net, its training points as floats) for a corpus net or a
    golden build, whose datasets are those of test_golden._build."""
    if name.startswith("golden-"):
        mode = name[7:]
        points = (random_separated_points(24, 2, seed=5) if mode == "regression"
                  else random_dataset(24, 2, 4, seed=5).points)
        net = _build(mode)[0]
    else:
        net, ds = corpus(name)
        points = ds.points
    return _fresh(net), [[float(c) for c in p] for p in points]


@pytest.mark.parametrize("name", [*(f"golden-{mode}" for mode in sorted(BUILD_DIGESTS)),
                                  "depth", "bits", "regression"])
def test_slope_guesses_pin_every_flip(monkeypatch, name):
    """On the golden builds and the corpus depth, bits and regression nets,
    the slope guess and the float next to it pin every flip that the
    training points and the midpoints between them meet.  A construction
    change whose flips the guess misses keeps its bits but loses its
    intervals, and fails here."""
    net, points = _with_points(name)
    points += [[(a + b) / 2 for a, b in zip(p, q)] for p, q in zip(points, points[1:])]
    found, real = [], netir._FloatIntervals._bound

    def bound(self, k, v, p, budget):
        found.append(real(self, k, v, p, budget))
        return found[-1]

    monkeypatch.setattr(netir._FloatIntervals, "_bound", bound)
    assert_float_memo_agrees(net, points)
    assert found and all(flip is not None for flip, _ in found), name
    assert _intervals(net._flt)


def test_a_missed_guess_runs_plain(monkeypatch):
    """The chain of the corpus net sqrt-112: a = ReLU(1 + x), b = ReLU(8a),
    q = ReLU(48 - 2b).  In exact arithmetic q flips at x = 2; in float64 it
    flips between 1.9999999999999996 and 1.9999999999999998, and from the
    points with x > -1 below the slope guess and the float next to it have
    one state.  Those points run plain and store nothing, in either order
    and on a repeat pass; only points with x < -1, where a clips and q is
    the constant 48, store an interval.  At 1.9999999999999998, where q's
    pre-activation is 0, the guess is the point itself and pins the flip:
    from then on the points store intervals that end at it."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    net = _region_net([[(1, ((0, 1),))], [(0, ((0, 8),))], [(48, ((0, -2),))]], "sqrt-112-chain")
    missed = [61.85, 1.0, 3.0, 10.0, 0.5, 1.5, 2.5, 100.0, -0.5, 1.9999999999999996, 2.0]
    points = [[x] for x in missed + [-2.0, -3.5, -1.5]]
    flip = [[1.9999999999999998]]
    for order in (points, points[::-1]):
        fresh = _fresh(net)
        assert_float_memo_agrees(fresh, order)
        (store,) = _intervals(fresh._flt)
        assert (store.lows, store.highs) == ([-math.inf], [-1.0])
        stored = _stored(fresh._flt)
        assert_float_memo_agrees(fresh, order)
        assert _stored(fresh._flt) == stored
        assert_float_memo_agrees(fresh, flip + order)
        assert store.lows == [-math.inf, -0.9999999999999999, 1.9999999999999998]
        assert store.highs == [-1.0, 1.9999999999999996, math.inf]
    assert eval_float(net, [1.9999999999999996])[0] > 0.0
    assert eval_float(net, flip[0]) == [0.0]


def test_float_intervals_stop_at_the_cap(monkeypatch):
    """Intervals and their boundaries count against the float memo's cap: a
    staircase fills it, later steps run plain with the same bits, and the
    count never passes the cap.  Each step costs 384 bits (two ends and one
    copied export) and each found boundary 256: at 30,000 bits 25 of the 40
    steps fit, and at 1,000 bits the flips found by the first misses fill
    the room before any interval."""
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    monkeypatch.setattr(netir, "_SEAM_WIDTH", 1)
    monkeypatch.setattr(netir, "_MEMO_BITS", 30000)
    net = _staircase_net(40)
    assert_float_memo_agrees(net, [[k + 0.5] for k in range(40)])
    (store,) = _intervals(net._flt)
    assert len(store.lows) == 25 and net._flt.bits == 29824
    stored = _stored(net._flt)
    assert_float_memo_agrees(net, [[k + 0.25] for k in range(40, -2, -1)])
    assert _stored(net._flt) == stored
    monkeypatch.setattr(netir, "_MEMO_BITS", 1000)
    net = _staircase_net(40)
    assert_float_memo_agrees(net, [[k + 0.5] for k in range(40)])
    assert _stored(net._flt) == (0, 0, 768)  # three boundaries, no interval


_chain_weights = st.sampled_from([-2, -1, DyadicRational(1, -1), 1, 2, 3, DyadicRational(1, 30),
                                  DyadicRational(-1, 30), DyadicRational(1, -30),
                                  DyadicRational(3, 1000), DyadicRational(1, -1060)])
_chain_biases = st.sampled_from([0, 1, -1, DyadicRational(-3, -1), DyadicRational(1, 53),
                                 DyadicRational(-1, 53), DyadicRational((1 << 53) + 1, 0),
                                 DyadicRational(1, 1000), DyadicRational(-1, -1100),
                                 DyadicRational(1, 1100), DyadicRational(-1, 1100)])


@st.composite
def _float_chains(draw):
    """1-D nets of 1-5 ReLU layers of 1-3 rows, each row reading 1-2
    channels of the layer before, with weights and biases that round:
    2^53 and 2^53 + 1 biases, 2^+-30, 3 * 2^1000, which overflows to inf
    on large inputs, the subnormal 2^-1060, and biases +-2^1100, which are
    +-inf."""
    width, layers = 1, []
    for _ in range(draw(st.integers(1, 5))):
        rows = []
        for _ in range(draw(st.integers(1, 3))):
            cols = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2, unique=True))
            rows.append((draw(_chain_biases), tuple((i, draw(_chain_weights)) for i in cols)))
        layers.append(rows)
        width = len(rows)
    return _region_net(layers, "float-chain")


def _boundary_points(runner) -> list:
    """Every boundary and interval end the runner's intervals found, and
    the floats next to each."""
    ends = set()
    for store in _intervals(runner):
        for bound in store.bounds or ():
            ends.update(bound or ())
        ends.update(store.lows + store.highs)
    ends = {x for x in ends if x == x and abs(x) < float("inf")}
    return sorted({y for x in ends for y in (math.nextafter(x, -math.inf), x,
                                             math.nextafter(x, math.inf))})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_float_chains_intervals(data):
    """1-D ReLU chains, exact-style and rounding, as region segments of any
    length at any seam width and with any search budget: a first pass finds
    the boundaries, and a fresh net then evaluates points at each boundary
    and one float either side, subnormals, signed zeros, NaN, +-inf and
    points that overflow, in both orders.  Bits equal the plain loop, and a
    repeat pass stores nothing."""
    net = data.draw(st.one_of(_relu_chains(), _float_chains()))
    xs = data.draw(st.lists(st.one_of(_floats, st.floats(-8, 8), st.sampled_from(
        [-2.0, -1.0, -0.5, 0.25, 1.0, 3.0])), min_size=1, max_size=8))
    if net.input_dim == 2:  # z = x + y
        def point(x):
            return [x, 0.0]
    else:
        def point(x):
            return [x]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netir, "_MIN_REGION", data.draw(st.sampled_from([0, 8])))
        mp.setattr(netir, "_SEAM_WIDTH", data.draw(st.sampled_from([1, 2, 4, 1 << 30])))
        mp.setattr(netir, "_FLIP_RUNS", data.draw(st.sampled_from([0, 1, 4])))
        first = _fresh(net)
        assert_float_memo_agrees(first, [point(x) for x in xs])
        points = [point(x) for x in xs + _boundary_points(first._flt) + list(SPECIALS)]
        fresh = _fresh(net)
        assert_float_memo_agrees(fresh, points + points[::-1])
        stored = _stored(fresh._flt)
        assert_float_memo_agrees(fresh, points)
        assert _stored(fresh._flt) == stored
