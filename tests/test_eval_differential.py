"""Differential test: eval_exact and eval_exact_batch against a plain-Fraction
forward pass.

`reference_eval` below is the reference: it walks the layers with Fraction
arithmetic only, with no exponent bookkeeping, aliasing, register reuse or
lane packing.  Both evaluators must agree with it value for value and
return Fraction for every input kind (int, dyadic and non-dyadic
Fraction).  The per-point loop's seam memo is also checked against
`plain_loop`, the same integer program run op by op with no memo, under
natural, forced and wrong choices of where to cut and what to share.
"""

import functools
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from memnet import gadgets, netir
from memnet.datagen import random_dataset
from memnet.exactnum import DyadicRational
from memnet.netir import (AffineLayer, DimensionError, LayeredNet, check_outputs,
                          eval_exact, eval_exact_batch)
from memnet.pipeline import assemble_sqrt, regression_wrap
from memnet.variants import assemble_bounded_bits, assemble_bounded_depth
from test_acceptance import _corpus_specs


def reference_eval(net: LayeredNet, xs) -> list:
    vals = [Fraction(x) for x in xs]
    for layer in net.layers:
        out = []
        for row, bias in zip(layer.rows, layer.biases):
            acc = bias.as_fraction() + sum((w.as_fraction() * vals[i] for i, w in row),
                                           Fraction(0))
            out.append(max(acc, Fraction(0)) if layer.relu else acc)
        vals = out
    return vals


def assert_agrees(net: LayeredNet, xs) -> None:
    assert_outputs(net, xs, eval_exact(net, xs))


def assert_outputs(net, xs, got) -> None:
    """got is the reference's output on xs, as Fractions."""
    want = reference_eval(net, xs)
    assert [type(v) for v in got] == [Fraction] * len(want), xs
    assert got == want, xs


def assert_batch_agrees(net: LayeredNet, points) -> None:
    """One eval_exact_batch call against the reference, point by point."""
    got = eval_exact_batch(net, points)
    assert len(got) == len(points)
    for xs, out in zip(points, got):
        assert_outputs(net, xs, out)


def assert_lanes_hold(net: LayeredNet, points) -> None:
    """The lane proof, checked: for each group of the batch, every register
    value a point realizes (inputs, and each row before its ReLU) fits in
    W - 2 bits, and every ReLU that clips a value is marked as one that can."""
    prog, groups = netir._lane_groups(net, points)
    ops, size, _ = prog
    for den, (_, inputs) in groups.items():
        cols = list(zip(*inputs))
        width, clips = netir._lane_bounds(prog, den, [min(c) for c in cols],
                                          [max(c) for c in cols])
        for xs in inputs:
            regs = list(xs) + [0] * (size - len(xs))
            seen = list(xs)
            for (bias, terms, relu, dest), clip in zip(ops, clips):
                acc = bias * den + sum(c * regs[r] for r, c in terms)
                seen.append(acc)
                if relu and acc < 0:
                    assert clip, (net.provenance, dest)
                    acc = 0
                regs[dest] = acc
            assert max(map(abs, seen), default=0).bit_length() <= width - 2, net.provenance


def _shifted(k: int, a: int, e: int) -> Fraction:
    """The dyadic input k + a/2^e."""
    return Fraction((k << e) + a, 1 << e)


def _input_variants(point, rng):
    """The point as given, and dyadic, non-dyadic and mixed shifts of it."""
    return [
        list(point),
        [c + Fraction(rng.randint(-7, 7), 8) for c in point],
        [_shifted(c.numerator, rng.randint(-40, 40), rng.randint(1, 6)) for c in point],
        [c + Fraction(rng.randint(1, 8), 3 * rng.randint(1, 5)) for c in point],
        [c + Fraction(1, 3) if k % 2 else _shifted(c.numerator, 3, 2)
         for k, c in enumerate(point)],
    ]


def _check_points(net, points, rng):
    """Each point as given, plus one rotating variant."""
    for k, p in enumerate(points):
        variants = _input_variants(p, rng)
        assert_agrees(net, variants[0])
        assert_agrees(net, variants[1 + k % 4])


def _corpus():
    """Small nets of every build mode on acceptance-corpus datasets."""
    nets = []
    for n, d, c, kind, seed in _corpus_specs()[:15]:
        if n > 16:
            continue
        ds = random_dataset(n, d, c, seed=seed, coord_kind=kind)
        nets.append((f"sqrt-{seed}", assemble_sqrt(ds, seed=seed)[0], ds))
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


@pytest.mark.parametrize("name,net,ds", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_batches_agree(name, net, ds):
    """Every training point and its variants in one batch: dyadic points and
    several odd denominators, each group packed into lanes."""
    rng = random.Random(name)
    points = [v for p in ds.points for v in _input_variants(p, rng)]
    assert_batch_agrees(net, points)
    assert_lanes_hold(net, points)


@pytest.mark.parametrize("name,net,ds", CORPUS, ids=[c[0] for c in CORPUS])
def test_passthrough_units_alias_relu_outputs(name, net, ds):
    """Every identity row a builder makes (one term of weight 1, bias 0)
    reads a ReLU output or applies no ReLU, so its register is an alias of
    its source and can never be clipped: the register plan runs an op for
    every other row and for no identity row."""
    identity = 0
    for k, layer in enumerate(net.layers):
        for u, (row, bias) in enumerate(zip(layer.rows, layer.biases)):
            if len(row) == 1 and row[0][1] == 1 and not bias.sign:
                assert not layer.relu or k >= 1 and net.layers[k - 1].relu, (name, k, u)
                identity += 1
    assert identity
    assert len(netir._plan(net)[0]) == sum(l.out_dim for l in net.layers) - identity


def test_oracle_bit_nets_hold_their_lanes():
    """Each extractor net of oracle_bits(7) on its 2^n track pairs."""
    for n in range(1, 8):
        tracks = [gadgets._track_table(x, n) for x in range(1 << n)]
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert_lanes_hold(gadgets.build_bit_extractor(n, i, j),
                                  [tracks[x][i - 1] for x in range(1 << n)])


@pytest.mark.parametrize("register_bits", [1, 40, 100, 1 << 16])
def test_batch_chunks_and_one_lane_fallback(monkeypatch, register_bits):
    """A smaller register cap cuts each group into more chunks; below two
    lanes no register is packed and the batch runs point by point."""
    name, net, ds = CORPUS[0]
    rng = random.Random(name)
    points = [v for p in ds.points for v in _input_variants(p, rng)[:3]]
    packed = []

    def counted(values, width):
        packed.append(width)
        return real_pack(values, width)

    real_pack = netir._pack
    monkeypatch.setattr(netir, "_REGISTER_BITS", register_bits)
    monkeypatch.setattr(netir, "_pack", counted)
    assert_batch_agrees(net, points)
    assert bool(packed) == (register_bits > 1)
    with pytest.raises(DimensionError):
        eval_exact_batch(net, points[:2] + [[1] * (net.input_dim + 1)])


def _cancellation_chain(layers: int) -> LayeredNet:
    """x -> (x, x), then ReLU layers of the rows 3r - 3r' with r == r'.

    Every value after the first layer is 0, but the interval bound triples
    per layer.  (With 2r - 2r' the integer program would fold the common 2
    into the register's exponent, and the bound would not grow.)
    """
    first = AffineLayer(1, 2, [((0, 1),), ((0, 1),)], [0, 0], relu=True)
    step = AffineLayer(2, 2, [((0, 3), (1, -3))] * 2, [0, 0], relu=True)
    last = AffineLayer(2, 1, [((0, 1),)], [0], relu=False)
    return LayeredNet(1, [first] + [step] * layers + [last], "cancellation")


def test_cancellation_chain_stays_bounded():
    """A hostile net whose lane width is thousands of bits while its values
    are 0: the batch is exact and its time stays bounded.  3,000 layers and
    48 points give 13 lanes of 4,763 bits per register; the batch took
    1.4 s on a 2-core Xeon with Python 3.11, against 0.09 s point by point."""
    net = _cancellation_chain(3000)
    points = [[x] for x in range(1, 49)]
    start = time.perf_counter()
    got = eval_exact_batch(net, points)
    assert time.perf_counter() - start < 30
    assert got == [eval_exact(net, xs) for xs in points] == [[0]] * len(points)
    width, _ = netir._lane_bounds(net._prog, 1, [1], [48])
    assert width > 4000


def _mutated(net: LayeredNet, rng: random.Random) -> LayeredNet:
    """net with one stored weight replaced by a random dyadic."""
    k = rng.choice([i for i, layer in enumerate(net.layers) if any(layer.rows)])
    layer = net.layers[k]
    u = rng.choice([i for i, row in enumerate(layer.rows) if row])
    rows = list(layer.rows)
    t = rng.randrange(len(rows[u]))
    weight = DyadicRational(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(-4, 4))
    rows[u] = rows[u][:t] + ((rows[u][t][0], weight),) + rows[u][t + 1:]
    new = AffineLayer(layer.in_dim, layer.out_dim, rows, layer.biases, layer.relu)
    return LayeredNet(net.input_dim, net.layers[:k] + (new,) + net.layers[k + 1:])


@pytest.mark.parametrize("name,net,ds", CORPUS[-4:], ids=[c[0] for c in CORPUS[-4:]])
def test_mutated_weight_nets_agree(name, net, ds):
    rng = random.Random(name)
    for _ in range(4):
        _check_points(_mutated(net, rng), ds.points[:4], rng)


def _guarded(net: LayeredNet) -> LayeredNet:
    """net behind a pass-through ReLU layer on its raw inputs: the one kind
    of pass-through unit no builder makes, an identity row that is not an
    alias, so the ReLU clips negative inputs."""
    d = net.input_dim
    carrier = AffineLayer(d, d, [((i, 1),) for i in range(d)], [0] * d, relu=True)
    return LayeredNet(d, (carrier,) + net.layers)


def test_negative_first_layer_inputs_under_debug():
    """A pass-through ReLU layer on the raw inputs, in front of a corpus net,
    on negative inputs that it clips."""
    name, net, ds = CORPUS[-2]
    guarded = _guarded(net)
    for x in (-1, Fraction(-1, 3), Fraction(-5, 8)):
        assert_agrees(guarded, [x] + list(ds.points[0][1:]))
    _check_points(guarded, ds.points[:4], random.Random(name))


@pytest.mark.parametrize("register_bits", [1, 1 << 16], ids=["one-lane", "packed"])
def test_negative_first_layer_lanes_under_debug(monkeypatch, register_bits):
    """The guarded first layer on batches whose dyadic group and odd-D group
    each have several negative lanes, point by point or packed."""
    name, net, ds = CORPUS[-2]
    guarded = _guarded(net)
    rest = [list(p[1:]) for p in ds.points[:4]]
    dyadic = [[x] + r for x, r in zip((-1, Fraction(-5, 8), -2, 3), rest)]
    odd = [[x] + r for x, r in zip((Fraction(-1, 3), Fraction(-7, 9), Fraction(4, 3)), rest)]
    clean = ([list(p) for p in ds.points[:4]]
             + [[Fraction(k, 3)] + r for k, r in zip((1, 2, 4), rest)])
    monkeypatch.setattr(netir, "_REGISTER_BITS", register_bits)
    for points in (clean, clean + dyadic, clean + odd, odd + dyadic, dyadic[-1:] + odd[-1:]):
        assert_batch_agrees(guarded, points)


# ---------------------------------------------------------------------------
# check_outputs against a plain loop over the reference evaluator


def plain_check(net: LayeredNet, points, expected):
    bad, worst = [], Fraction(0)
    for idx, (p, want) in enumerate(zip(points, expected)):
        err = abs(reference_eval(net, list(p))[0] - want)
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


def test_check_outputs_on_negative_first_layer_inputs():
    name, net, ds = CORPUS[-2]
    guarded = _guarded(net)
    points = [list(ds.points[0]), [Fraction(-1, 3)] + list(ds.points[1][1:])]
    labels = ds.labels[:2]
    assert check_outputs(guarded, points, labels) == plain_check(guarded, points, labels)


# ---------------------------------------------------------------------------
# random nets: identity rows, pass-through marks and every input kind

_dyadics = st.builds(DyadicRational, st.integers(-9, 9), st.integers(-5, 5))
_dyadic_inputs = _dyadics.map(DyadicRational.as_fraction)
_inputs = st.one_of(
    st.integers(-20, 20),
    _dyadic_inputs,
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
        layers.append(AffineLayer(n_in, n_out, rows, biases, relu))
    return LayeredNet(input_dim, layers, "random")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_nets_agree(data):
    net = data.draw(_nets())
    point = st.lists(_inputs, min_size=net.input_dim, max_size=net.input_dim)
    for _ in range(3):  # several points per net: one program for all of them
        assert_agrees(net, data.draw(point))
    prog, seams = net._prog, net._seams
    for size in (1, 2, data.draw(st.sampled_from([3, 5, 7]))):
        assert_batch_agrees(net, data.draw(st.lists(point, min_size=size, max_size=size)))
    # single points and batches in turn on the same net object, at falling
    # then rising input exponents: the net's e0 only falls, and the program
    # and memo built at the first call serve every later one
    for e in (*range(1, 8), *range(7, -1, -1)):
        shift = Fraction(1, 1 << e)
        if e % 2:
            assert_agrees(net, [x + shift for x in data.draw(point)])
        else:
            assert_batch_agrees(net, [[x + shift for x in p] for p in data.draw(
                st.lists(point, min_size=2, max_size=3))])
    assert net._prog is prog and net._seams is seams
    # one D == 1 group: several lanes of one packed register
    dyadic = st.lists(st.one_of(st.integers(-20, 20), _dyadic_inputs),
                      min_size=net.input_dim, max_size=net.input_dim)
    assert_batch_agrees(net, data.draw(st.lists(dyadic, min_size=4, max_size=6)))


# ---------------------------------------------------------------------------
# the seam memo of the per-point loop against the loop without it


def plain_loop(net: LayeredNet, points) -> list:
    """Per-point evaluation without the seam memo: every op of the integer
    program, in order, for each point; compiled for a copy of the net, so
    the net's own program and memo are left as they are."""
    prog, groups = netir._lane_groups(_fresh(net), points)
    ops, size, outputs = prog
    results = [None] * len(points)
    for den, (members, inputs) in groups.items():
        for k, xs in zip(members, inputs):
            regs = list(xs) + [0] * (size - len(xs))
            for bias, terms, relu, dest in ops:
                acc = bias * den + sum(c * regs[r] for r, c in terms)
                regs[dest] = max(acc, 0) if relu else acc
            results[k] = [netir._value(regs[r], e, den) for r, e in outputs]
    return results


def _fresh(net: LayeredNet) -> LayeredNet:
    """The same layers in a new net object, so its memo starts empty."""
    return LayeredNet(net.input_dim, net.layers, net.provenance, net.output_nonneg)


def assert_memo_agrees(net: LayeredNet, points) -> None:
    """eval_exact on every point, which runs the memo path, equals the loop
    without the memo, value for value and type for type."""
    want = plain_loop(net, points)
    for xs, out, ref in zip(points, [eval_exact(net, xs) for xs in points], want):
        assert [type(v) for v in out] == [Fraction] * len(ref), xs
        assert out == ref, (net.provenance, xs)


def _memo_entries(net: LayeredNet) -> int:
    """The entries of every memo of the net's per-point program."""
    return sum(len(memo) for keys, _, _, _, memo in net._seams.segments if keys is not None)


@pytest.mark.parametrize("name,net,ds", CORPUS, ids=[c[0] for c in CORPUS])
def test_seam_memo_matches_plain_loop(name, net, ds):
    """Passes on one net object over the training points and their dyadic,
    decimal and mixed shifts (several odd D).  The first pass ends at the
    lowest e0 of the points, so the pass after the second stores nothing."""
    rng = random.Random(name)
    net = _fresh(net)
    points = [v for p in ds.points for v in _input_variants(p, rng)]
    assert_memo_agrees(net, points)
    assert_memo_agrees(net, points)
    seams, stored = net._seams, (_memo_entries(net), net._seams.bits)
    assert_memo_agrees(net, points)
    assert net._seams is seams and (_memo_entries(net), seams.bits) == stored


def test_seam_memo_shares_each_bucket():
    """One pass over the training points of a sqrt build keeps at most
    bucket_count entries in each memo, all for D = 1.  Points at a lower
    input exponent change neither the program nor the memo object, and the
    entries stored for D = 1 are kept."""
    ds = random_dataset(64, 2, 4, seed=5)
    built, report = assemble_sqrt(ds, seed=5)
    net = _fresh(built)
    assert_memo_agrees(net, ds.points)
    memos = [memo for keys, _, _, _, memo in net._seams.segments if keys is not None]
    assert memos
    for memo in memos:
        assert {key[0] for key in memo} == {1}
        assert len(memo) <= report.info.bucket_count < ds.n
    prog, seams, before = net._prog, net._seams, [dict(memo) for memo in memos]
    assert_memo_agrees(net, [[c + Fraction(1, 1 << 40) for c in p] for p in ds.points[:6]])
    assert net._e0 == -40 and net._prog is prog and net._seams is seams
    for old, memo in zip(before, memos):
        assert all(memo[key] is entry for key, entry in old.items())
        assert {key[0] for key in memo} <= {1, 1 << 40}


def _memoized(net: LayeredNet) -> list:
    """The op counts of the memoized segments of the net's per-point program."""
    eval_exact(net, [0] * net.input_dim)
    return [len(ops) for keys, ops, _, _, _ in net._seams.segments if keys is not None]


def test_only_input_dependent_static_ops_earn_a_memo():
    """A segment is memoized only when _MIN_STATIC of its static ops read an
    input: the depth net's long segment, whose static ops are constants, runs
    plain, while the sqrt, bits and regression nets keep their memoized
    segments."""
    nets = {name: _fresh(net) for name, net, _ in CORPUS}
    assert _memoized(nets["depth"]) == []
    assert len(_memoized(nets["bits"])) == 4
    for name in ("sqrt-100", "sqrt-112", "regression"):
        assert len(_memoized(nets[name])) == 1, name


def _key_per_point_net() -> LayeredNet:
    """(x, y) -> the pairwise sums of ReLU(kx + k), k = 1..6, plus ReLU(y).
    Past its first seams a segment has 9 ops that read x and not y, so the
    memo key is a function of x alone: each distinct x is one more entry."""
    first = AffineLayer(2, 7, [((0, k),) for k in range(1, 7)] + [((1, 1),)],
                        [*range(1, 7), 0], relu=True)
    pairs = AffineLayer(7, 6, [((k, 1), (k + 1, 1)) for k in range(5)] + [((6, 1),)],
                        [0] * 6, relu=True)
    last = AffineLayer(6, 1, [tuple((k, 1) for k in range(6))], [0], relu=False)
    return LayeredNet(2, [first, pairs, last], "key-per-point")


def test_seam_memo_stops_at_its_cap(monkeypatch):
    """Points with distinct keys fill the memo up to its cap and no further,
    and every result stays exact."""
    monkeypatch.setattr(netir, "_MEMO_BITS", 4000)
    net = _key_per_point_net()
    points = [[x, y] for x in range(40) for y in (1, 2)]
    assert_memo_agrees(net, points)
    seams = net._seams
    entries = _memo_entries(net)
    assert 0 < entries < 40 and 0 < seams.bits <= 4000
    assert_memo_agrees(net, [[x + 100, 1] for x in range(40)])
    assert _memo_entries(net) == entries and seams.bits <= 4000


def _read(supports) -> int:
    return functools.reduce(operator.or_, supports, 0)


# Choices of the dynamic register other than _dynamic_bit's: the lowest or
# the highest register read, or none (every op static, keyed on all it reads).
WRONG_SPLITS = {
    "lowest-read": lambda supports: _read(supports) & -_read(supports),
    "highest-read": lambda supports: 1 << _read(supports).bit_length() >> 1,
    "none": lambda supports: 0,
}


@pytest.mark.parametrize("split", [None, *WRONG_SPLITS], ids=["natural", *WRONG_SPLITS])
@pytest.mark.parametrize("seam_width", [4, 1 << 30], ids=["seams", "every-boundary"])
def test_seam_memo_under_forced_cuts(monkeypatch, seam_width, split):
    """Every segment memoized, with a cut at every boundary or at the seams,
    and the dynamic register chosen well or wrongly: results stay exact."""
    monkeypatch.setattr(netir, "_SEAM_WIDTH", seam_width)
    monkeypatch.setattr(netir, "_MIN_STATIC", 0)
    if split:
        monkeypatch.setattr(netir, "_dynamic_bit", WRONG_SPLITS[split])
    for name, net, ds in [CORPUS[0], CORPUS[-4], *CORPUS[-3:]]:
        rng = random.Random(name)
        net = _fresh(net)
        points = [_input_variants(p, rng)[k % 5] for k, p in enumerate(ds.points[:8])]
        assert_memo_agrees(net, points + points[::-1])
        low = [Fraction(1, 1 << 40)] * net.input_dim  # lowers the net's e0
        assert_memo_agrees(net, [low] + points)
    net = _key_per_point_net()
    assert_memo_agrees(net, [[x, y] for x in range(-3, 4) for y in (-1, 1, 2)] * 2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_nets_seam_memo(data):
    """Random nets, every segment memoized, under every cut and split rule,
    on points drawn so that some share coordinates and some repeat."""
    net = data.draw(_nets())
    point = st.lists(_inputs, min_size=net.input_dim, max_size=net.input_dim)
    points = data.draw(st.lists(point, min_size=1, max_size=5))
    points += [p[:1] + q[1:] for p, q in zip(points, points[1:])] + points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netir, "_MIN_STATIC", 0)
        mp.setattr(netir, "_SEAM_WIDTH", data.draw(st.sampled_from([1, 2, 4, 1 << 30])))
        split = data.draw(st.sampled_from([None, *WRONG_SPLITS]))
        if split:
            mp.setattr(netir, "_dynamic_bit", WRONG_SPLITS[split])
        assert_memo_agrees(_fresh(net), points)
