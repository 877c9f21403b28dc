"""Differential test: eval_float against a plain per-layer float64 walk.

`reference_float` below is the reference: it walks every row of every
layer, accumulating bias first and then the terms in stored order, left to
right, with no aliasing or register reuse.  eval_float must return the same
float64 bits (any NaN matches any NaN) on every input, including +-0.0,
+-inf, NaN, subnormals and values near the float range.  The seam memo of
eval_float is also checked against `plain_float`, the register plan run op
by op with no memo, down to the NaN payloads.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from memnet import netir
from memnet.datagen import random_dataset
from memnet.exactnum import DyadicRational
from memnet.netir import AffineLayer, LayeredNet, eval_exact, eval_float
from memnet.pipeline import assemble_sqrt
from test_eval_differential import (CORPUS_NAMES, WRONG_SPLITS, _dyadics, _fresh,
                                    _key_per_point_net, _mutated, _nets, _stacked_nets,
                                    corpus)

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
    """The memos of a runner's memoized segments, in program order."""
    return [seg[4] for seg in runner.segments if seg[0] is not None]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_float_memo_matches_plain_loop(name):
    """The training points and hostile points through one net object, twice:
    the second pass finds every key the first stored and stores nothing."""
    built, ds = corpus(name)
    net = _fresh(built)
    rng = random.Random(name)
    points = [[float(c) for c in p] for p in ds.points] + _hostile_points(net.input_dim, rng)
    assert_float_memo_agrees(net, points)
    entries, bits = sum(map(len, _memos(net._flt))), net._flt.bits
    assert_float_memo_agrees(net, points)
    assert (sum(map(len, _memos(net._flt))), net._flt.bits) == (entries, bits)
    if _memos(net._flt):  # the training points share keys: some of them hit
        assert 0 < entries < len(points)


def test_one_seam_analysis_serves_both_arithmetics(monkeypatch):
    """Exact and float64 evaluation of one net run the seam analysis once
    and memoize the same segments with the same key slots; the float64
    runner runs each region segment of the exact one as part of a plain
    run."""
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
    assert any(seg[2] is None for seg in exact)  # a region segment
    kinds = []  # each exact segment's keys, None for a plain run or a region segment
    for keys, _, dyn, _, _ in exact:
        keys = None if dyn is None else keys
        if keys is not None or not kinds or kinds[-1] is not None:
            kinds.append(keys)
    assert kinds == [seg[0] for seg in floats]
    assert any(seg[0] for seg in floats)
    memos = [seg for seg in exact if seg[0] is not None and seg[2] is not None]
    for seg, fseg in zip(memos, [fseg for fseg in floats if fseg[0] is not None]):
        assert len(seg[1]) == len(fseg[1]) and seg[3] == fseg[3]
    assert sum(len(seg[1]) for seg in exact) == sum(len(seg[1]) for seg in floats)


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
