"""Differential test: eval_float against a plain per-layer float64 walk.

`reference_float` below is the reference: it walks every row of every
layer, accumulating bias first and then the terms in stored order, left to
right, with no aliasing or register reuse.  eval_float must return the same
float64 bits (any NaN matches any NaN) on every input, including +-0.0,
+-inf, NaN, subnormals and values near the float range.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from memnet.netir import AffineLayer, LayeredNet, eval_float
from test_eval_differential import CORPUS, _mutated, _nets

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


@pytest.mark.parametrize("name,net,ds", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_nets_bitwise(name, net, ds):
    _check(net, ds.points, random.Random(name))


@pytest.mark.parametrize("name,net,ds", CORPUS[-4:], ids=[c[0] for c in CORPUS[-4:]])
def test_mutated_weight_nets_bitwise(name, net, ds):
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


def test_accumulation_order_is_left_to_right():
    """Bias first, then the terms in stored order; no compensated summation."""
    rows = [((0, 1), (1, 1), (2, 1))]
    net = LayeredNet(3, [AffineLayer(3, 1, rows, [0], relu=False)])
    assert eval_float(net, [1.0, 1e16, -1e16]) == [0.0]
    assert_same_bits(net, [1.0, 1e16, -1e16])


_floats = st.one_of(st.floats(), st.sampled_from(SPECIALS))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_nets_bitwise(data):
    net = data.draw(_nets())
    for _ in range(3):
        xs = data.draw(st.lists(_floats, min_size=net.input_dim, max_size=net.input_dim))
        assert_same_bits(net, xs)
