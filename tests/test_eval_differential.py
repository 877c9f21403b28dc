"""Differential test: eval_exact against a plain-Fraction forward pass.

`reference_eval` below is the reference: it walks the layers with Fraction
arithmetic only, with no exponent bookkeeping, aliasing or register reuse.
eval_exact must agree with it value for value, return DyadicRational
exactly when every input is dyadic (Fraction otherwise), and raise
ContractViolation under debug=True exactly when the reference does.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from memnet.datagen import random_dataset
from memnet.exactnum import DyadicRational
from memnet.netir import (AffineLayer, ContractViolation, LayeredNet,
                          check_outputs, eval_exact)
from memnet.pipeline import PipelineConfig, assemble_sqrt, regression_wrap
from memnet.variants import assemble_bounded_bits, assemble_bounded_depth
from test_acceptance import _corpus_specs


def _fraction(x) -> Fraction:
    if isinstance(x, DyadicRational):
        return x.as_fraction()
    return Fraction(x)


def reference_eval(net: LayeredNet, xs, debug: bool = False) -> list:
    vals = [_fraction(x) for x in xs]
    for layer in net.layers:
        out = []
        for k, (row, bias) in enumerate(zip(layer.rows, layer.biases)):
            acc = bias.as_fraction() + sum((w.as_fraction() * vals[i] for i, w in row),
                                           Fraction(0))
            if layer.relu and acc < 0:
                if debug and k in layer.passthrough:
                    raise ContractViolation(f"pass-through unit {k} went negative")
                acc = Fraction(0)
            out.append(acc)
        vals = out
    return vals


def _is_dyadic(x) -> bool:
    den = _fraction(x).denominator
    return not den & (den - 1)


def assert_agrees(net: LayeredNet, xs, debug: bool = False) -> None:
    try:
        want = reference_eval(net, xs, debug)
    except ContractViolation:
        with pytest.raises(ContractViolation):
            eval_exact(net, xs, debug)
        return
    got = eval_exact(net, xs, debug)
    kind = DyadicRational if all(_is_dyadic(x) for x in xs) else Fraction
    assert [type(v) for v in got] == [kind] * len(want), xs
    assert [_fraction(v) for v in got] == want, xs


def _input_variants(point, rng):
    """The point as given, and dyadic, non-dyadic and mixed shifts of it."""
    return [
        list(point),
        [c + Fraction(rng.randint(-7, 7), 8) for c in point],
        [DyadicRational(rng.randint(-40, 40), -rng.randint(1, 6)) + c.numerator
         for c in point],
        [c + Fraction(rng.randint(1, 8), 3 * rng.randint(1, 5)) for c in point],
        [c + Fraction(1, 3) if k % 2 else DyadicRational(3, -2) + c.numerator
         for k, c in enumerate(point)],
    ]


def _check_points(net, points, rng):
    """Each point as given, plus one rotating variant, with and without debug."""
    for k, p in enumerate(points):
        variants = _input_variants(p, rng)
        assert_agrees(net, variants[0])
        assert_agrees(net, variants[1 + k % 4], debug=k % 2 == 1)


def _corpus():
    """Small nets of every build mode on acceptance-corpus datasets."""
    nets = []
    for n, d, c, kind, seed in _corpus_specs()[:15]:
        if n > 16:
            continue
        ds = random_dataset(n, d, c, seed=seed, coord_kind=kind)
        nets.append((f"sqrt-{seed}", assemble_sqrt(ds, PipelineConfig(seed=seed))[0], ds))
    ds = random_dataset(16, 2, 4, seed=11)
    nets.append(("depth", assemble_bounded_depth(ds, 2)[0], ds))
    nets.append(("bits", assemble_bounded_bits(ds, 2)[0], ds))
    labels = [Fraction(k % 5, 4) for k in range(ds.n)]
    nets.append(("regression", regression_wrap(ds.points, labels, Fraction(1, 8))[0], ds))
    return nets


CORPUS = _corpus()


@pytest.mark.parametrize("name,net,ds", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_nets_agree(name, net, ds):
    _check_points(net, ds.points, random.Random(name))


def _mutated(net: LayeredNet, rng: random.Random) -> LayeredNet:
    """net with one stored weight replaced by a random dyadic."""
    k = rng.choice([i for i, layer in enumerate(net.layers) if any(layer.rows)])
    layer = net.layers[k]
    u = rng.choice([i for i, row in enumerate(layer.rows) if row])
    rows = list(layer.rows)
    t = rng.randrange(len(rows[u]))
    weight = DyadicRational(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(-4, 4))
    rows[u] = rows[u][:t] + ((rows[u][t][0], weight),) + rows[u][t + 1:]
    new = AffineLayer(layer.in_dim, layer.out_dim, rows, layer.biases, layer.relu,
                      layer.passthrough)
    return LayeredNet(net.input_dim, net.layers[:k] + (new,) + net.layers[k + 1:])


@pytest.mark.parametrize("name,net,ds", CORPUS[-4:], ids=[c[0] for c in CORPUS[-4:]])
def test_mutated_weight_nets_agree(name, net, ds):
    rng = random.Random(name)
    for _ in range(4):
        _check_points(_mutated(net, rng), ds.points[:4], rng)


def test_negative_first_layer_inputs_under_debug():
    """A pass-through ReLU layer on the raw inputs, in front of a corpus net."""
    name, net, ds = CORPUS[-2]
    d = net.input_dim
    carrier = AffineLayer(d, d, [((i, 1),) for i in range(d)], [0] * d, relu=True,
                          passthrough=range(d))
    guarded = LayeredNet(d, (carrier,) + net.layers)
    for x in (-1, Fraction(-1, 3), DyadicRational(-5, -3)):
        xs = [x] + list(ds.points[0][1:])
        with pytest.raises(ContractViolation):
            eval_exact(guarded, xs, debug=True)
        assert_agrees(guarded, xs)
    _check_points(guarded, ds.points[:4], random.Random(name))


# ---------------------------------------------------------------------------
# check_outputs against a plain loop over the reference evaluator


def plain_check(net: LayeredNet, points, expected, debug: bool = False):
    bad, worst = [], Fraction(0)
    for idx, (p, want) in enumerate(zip(points, expected)):
        err = abs(reference_eval(net, list(p), debug)[0] - want)
        if err:
            bad.append(idx)
            worst = max(worst, err)
    return bad, worst


@pytest.mark.parametrize("name,net,ds", CORPUS, ids=[c[0] for c in CORPUS])
def test_check_outputs_matches_plain_loop(name, net, ds):
    """Corpus nets and one-weight mutations of them, on the training points
    and on dyadic, decimal and mixed shifts of them, against the labels and
    against labels moved by thirds."""
    rng = random.Random(name)
    points = [_input_variants(p, rng)[k % 5] for k, p in enumerate(ds.points[:8])]
    expected = list(ds.labels[:8])
    moved = [Fraction(y) + Fraction(1 + k % 3, 3) for k, y in enumerate(expected)]
    found = []
    for candidate in (net, _mutated(net, rng), _mutated(net, rng)):
        for want in (expected, moved):
            bad, worst = check_outputs(candidate, points, want)
            assert (bad, worst) == plain_check(candidate, points, want), name
            assert type(worst) is Fraction
            found.append(bad)
    assert found[1]  # labels moved by thirds always mismatch


def test_check_outputs_debug_raises_contract_violation():
    name, net, ds = CORPUS[-2]
    d = net.input_dim
    carrier = AffineLayer(d, d, [((i, 1),) for i in range(d)], [0] * d, relu=True,
                          passthrough=range(d))
    guarded = LayeredNet(d, (carrier,) + net.layers)
    points = [list(ds.points[0]), [Fraction(-1, 3)] + list(ds.points[1][1:])]
    labels = ds.labels[:2]
    with pytest.raises(ContractViolation):
        check_outputs(guarded, points, labels, debug=True)
    assert check_outputs(guarded, points, labels) == plain_check(guarded, points, labels)


# ---------------------------------------------------------------------------
# random nets: identity rows, pass-through marks and every input kind

_dyadics = st.builds(DyadicRational, st.integers(-9, 9), st.integers(-5, 5))
_inputs = st.one_of(
    st.integers(-20, 20),
    _dyadics,
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 24)),
)


@st.composite
def _nets(draw):
    input_dim = draw(st.integers(1, 3))
    dims = [input_dim] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    layers = []
    for k, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        rows, biases = [], []
        for _ in range(n_out):
            if draw(st.booleans()):  # identity row
                rows.append(((draw(st.integers(0, n_in - 1)), 1),))
                biases.append(0)
            else:
                cols = draw(st.lists(st.integers(0, n_in - 1), max_size=3, unique=True))
                rows.append(tuple((i, draw(_dyadics)) for i in cols))
                biases.append(draw(_dyadics))
        relu = k < len(dims) - 2
        passthrough = draw(st.lists(st.integers(0, n_out - 1), unique=True))
        layers.append(AffineLayer(n_in, n_out, rows, biases, relu, passthrough))
    return LayeredNet(input_dim, layers, "random")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_nets_agree(data):
    net = data.draw(_nets())
    for _ in range(3):  # several points per net: exercises recompilation
        xs = data.draw(st.lists(_inputs, min_size=net.input_dim,
                                max_size=net.input_dim))
        assert_agrees(net, xs, debug=data.draw(st.booleans()))
