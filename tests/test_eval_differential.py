"""Differential test: eval_exact and the oracles' lane-packed evaluator
(netir._eval_lanes) against a plain-Fraction forward pass.

`reference_eval` below is the reference: it walks the layers with Fraction
arithmetic only, with no exponent bookkeeping, aliasing, register reuse or
lane packing.  Both evaluators must agree with it value for value and
return Fraction for every input kind (int, dyadic and non-dyadic
Fraction).  The per-point loop's seam memo is also checked against
`plain_loop`, the same integer program run op by op with no memo, under
natural, forced and wrong choices of where to cut and what to share.
"""

import functools
import json
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from memnet import cli, gadgets, netir
from memnet.datagen import random_dataset, random_separated_points, write_csv
from memnet.exactnum import DyadicRational
from memnet.netir import (AffineLayer, DimensionError, LayeredNet, check_outputs,
                          compose_serial, eval_exact, stack_parallel)
from memnet.pipeline import assemble_sqrt, load_and_validate, regression_wrap
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
    """One _eval_lanes call against the reference, point by point."""
    got = netir._eval_lanes(net, points)
    assert len(got) == len(points)
    for xs, out in zip(points, got):
        assert_outputs(net, xs, out)


def assert_lanes_hold(net: LayeredNet, points) -> None:
    """The lane proof, checked: for each group of the batch, every register
    value a point realizes (inputs, and each row before its ReLU) fits in
    W - 2 bits, and every ReLU that clips a value is marked as one that can."""
    prog = netir._compile(net)
    ops, size, _ = prog
    for den, (_, inputs) in netir._lane_groups(net, points).items():
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


@functools.cache
def _mixed_dataset():
    return random_dataset(16, 2, 4, seed=11)


def _sqrt_recipe(n, d, c, kind, seed):
    ds = random_dataset(n, d, c, seed=seed, coord_kind=kind)
    return assemble_sqrt(ds, seed=seed)[0], ds


def _regression_recipe():
    ds = _mixed_dataset()
    labels = [Fraction(k % 5, 4) for k in range(ds.n)]
    return regression_wrap(ds.points, labels, Fraction(1, 8))[0], ds


def _corpus_recipes() -> dict:
    """Small nets of every build mode on acceptance-corpus datasets: name ->
    a function that builds (net, dataset)."""
    recipes = {}
    for n, d, c, kind, seed in _corpus_specs()[:15]:
        if n <= 16:
            recipes[f"sqrt-{seed}"] = functools.partial(_sqrt_recipe, n, d, c, kind, seed)
    recipes["depth"] = lambda: (assemble_bounded_depth(_mixed_dataset(), 2)[0], _mixed_dataset())
    recipes["bits"] = lambda: (assemble_bounded_bits(_mixed_dataset(), 2)[0], _mixed_dataset())
    recipes["regression"] = _regression_recipe
    return recipes


_RECIPES = _corpus_recipes()
# The corpus nets' names, known without building any net: each is built on
# its first use, so a build that fails fails only the tests that use it.
CORPUS_NAMES = list(_RECIPES)


@functools.cache
def corpus(name: str) -> tuple:
    """(net, dataset) of the corpus net `name`, built on first use and kept."""
    return _RECIPES[name]()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_nets_agree(name):
    net, ds = corpus(name)
    _check_points(net, ds.points, random.Random(name))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_batches_agree(name):
    """Every training point and its variants in one batch: dyadic points and
    several odd denominators, each group packed into lanes."""
    net, ds = corpus(name)
    rng = random.Random(name)
    points = [v for p in ds.points for v in _input_variants(p, rng)]
    assert_batch_agrees(net, points)
    assert_lanes_hold(net, points)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_passthrough_units_alias_relu_outputs(name):
    """Every identity row a builder makes (one term of weight 1, bias 0)
    reads a ReLU output or applies no ReLU, so its register is an alias of
    its source and can never be clipped: the register plan runs an op for
    every other row and for no identity row."""
    net, ds = corpus(name)
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
    """A smaller register cap cuts each group into more chunks; a lane wider
    than the cap, or a batch of one point, is one packed lane.  The packed
    path never builds the net's seam memo."""
    name = CORPUS_NAMES[0]
    net, ds = corpus(name)
    net = _fresh(net)
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
    assert packed
    packed.clear()
    assert_batch_agrees(net, points[:1])
    assert packed and net._seams is None
    with pytest.raises(DimensionError):
        netir._eval_lanes(net, points[:2] + [[1] * (net.input_dim + 1)])


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
    0.25-0.27 s on a 2-core Xeon with Python 3.11, against 0.053-0.055 s
    point by point."""
    net = _cancellation_chain(3000)
    points = [[x] for x in range(1, 49)]
    start = time.perf_counter()
    got = netir._eval_lanes(net, points)
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


@pytest.mark.parametrize("name", CORPUS_NAMES[-4:])
def test_mutated_weight_nets_agree(name):
    net, ds = corpus(name)
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
    name = CORPUS_NAMES[-2]
    net, ds = corpus(name)
    guarded = _guarded(net)
    for x in (-1, Fraction(-1, 3), Fraction(-5, 8)):
        assert_agrees(guarded, [x] + list(ds.points[0][1:]))
    _check_points(guarded, ds.points[:4], random.Random(name))


@pytest.mark.parametrize("register_bits", [1, 1 << 16], ids=["one-lane", "packed"])
def test_negative_first_layer_lanes_under_debug(monkeypatch, register_bits):
    """The guarded first layer on batches whose dyadic group and odd-D group
    each have several negative lanes, one lane per register or packed."""
    name = CORPUS_NAMES[-2]
    net, ds = corpus(name)
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


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_check_outputs_matches_plain_loop(name):
    """Corpus nets and one-weight mutations of them, on the training points
    and on dyadic, decimal and mixed shifts of them, against the labels and
    against labels moved by thirds."""
    net, ds = corpus(name)
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
    name = CORPUS_NAMES[-2]
    net, ds = corpus(name)
    guarded = _guarded(net)
    points = [list(ds.points[0]), [Fraction(-1, 3)] + list(ds.points[1][1:])]
    labels = ds.labels[:2]
    assert check_outputs(guarded, points, labels) == plain_check(guarded, points, labels)


def test_point_path_never_packs(monkeypatch, tmp_path, capsys):
    """Builds, check_outputs and the exact CLI commands run eval_exact, which
    never reaches the lane-packing front end or its interval pass."""
    def packed(*args):
        raise AssertionError("eval_exact reached the lane-packed path")

    monkeypatch.setattr(netir, "_lane_groups", packed)
    monkeypatch.setattr(netir, "_lane_bounds", packed)
    ds = _mixed_dataset()
    for net in (assemble_sqrt(ds, seed=3)[0], assemble_bounded_depth(ds, 2)[0]):
        assert check_outputs(net, ds.points, ds.labels) == ([], 0)
    data = str(tmp_path / "data.csv")
    write_csv(data, ds.points, ds.labels)
    for mode in (["sqrt"], ["depth", "--L", "2"]):
        out = str(tmp_path / f"{mode[0]}.net.json")
        assert cli.main(["build", "--mode", *mode, "--in", data, "--out", out]) == 0
        for command in (["verify", "--precision", "exact"], ["eval", "--precision", "exact"],
                        ["audit"]):
            assert cli.main([*command, "--net", out, "--in", data]) == 0, command
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    outputs = [e["output"] for e in events if e["event"] == "eval"]
    assert outputs == [str(y) for y in ds.labels] * 2


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
def _nets(draw, input_dim=None, biases=_dyadics, max_layers=4):
    """Random nets of 1 to max_layers layers, about half their rows identity
    rows; biases are drawn from `biases`."""
    input_dim = input_dim or draw(st.integers(1, 3))
    dims = [input_dim] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_layers))
    layers = []
    for k, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        rows, row_biases = [], []
        for _ in range(n_out):
            if draw(st.booleans()):  # identity row
                rows.append(((draw(st.integers(0, n_in - 1)), 1),))
                row_biases.append(0)
            else:
                cols = draw(st.lists(st.integers(0, n_in - 1), max_size=3, unique=True))
                rows.append(tuple((i, draw(_dyadics)) for i in cols))
                row_biases.append(draw(biases))
        relu = k < len(dims) - 2
        layers.append(AffineLayer(n_in, n_out, rows, row_biases, relu))
    return LayeredNet(input_dim, layers, "random")


@st.composite
def _stacked_nets(draw, biases=_dyadics):
    """2-5 random nets side by side under stack_parallel, as the depth
    variant stacks its subset memorizers: unequal depths (so the shorter
    ones are padded with identity layers), one-op members, members whose
    first rows read the raw inputs or a shared front net's outputs, and a
    head that sums every member's outputs.  The members certify
    nonnegative outputs whether or not they have them: the stack is its own
    reference, so only the evaluators are under test."""
    front = draw(st.none() | _nets(biases=biases, max_layers=2))
    if front:
        front = LayeredNet(front.input_dim, front.layers, "front", output_nonneg=True)
    dim = front.output_dim if front else draw(st.integers(1, 3))
    one_op = st.builds(
        lambda i, w, b: LayeredNet(dim, [AffineLayer(dim, 1, [((i, w),)], [b], relu=False)],
                                   "one-op", output_nonneg=True),
        st.integers(0, dim - 1), _dyadics, biases)
    members = draw(st.lists(one_op | _nets(input_dim=dim, biases=biases, max_layers=5),
                            min_size=2, max_size=5))
    stacked = stack_parallel([LayeredNet(dim, m.layers, m.provenance, output_nonneg=True)
                              for m in members], "stack")
    width = stacked.output_dim
    head = LayeredNet(width, [AffineLayer(width, 1, [tuple((i, 1) for i in range(width))],
                                          [0], relu=False)], "sum")
    net = compose_serial(stacked, head)
    return compose_serial(front, net) if front else net


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
    # then rising input exponents: each call scales at its own exponent, and
    # the program and memo built at the first call serve every later one
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
    fresh = _fresh(net)
    ops, size, outputs = netir._compile(fresh)
    results = []
    for den, xs in netir._scaled_points(fresh, points):
        regs = xs + [0] * (size - len(xs))
        for bias, terms, relu, dest in ops:
            acc = bias * den + sum(c * regs[r] for r, c in terms)
            regs[dest] = max(acc, 0) if relu else acc
        results.append([netir._value(regs[r], e, den) for r, e in outputs])
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
    """The entries of every memo of the net's per-point program, the pieces
    of its region segments included."""
    return sum(len(memo if dyn is not None else memo.forms)
               for keys, _, dyn, _, memo in net._seams.segments if keys is not None)


def _pieces(net: LayeredNet) -> list:
    """The piece stores of the region segments of the net's per-point
    program, each checked: sorted, every piece a nonempty interval, and two
    neighbours meeting at most in an end, so no piece is stored twice."""
    stores = [memo for keys, _, dyn, _, memo in net._seams.segments
              if keys is not None and dyn is None]
    for pieces in stores:
        ends = [end for low, high in zip(pieces.lows, pieces.highs) for end in (low, high)]
        for (n, d), (n2, d2) in zip(ends, ends[1:]):  # d == 0: n * infinity
            assert n <= n2 if d == d2 == 0 else n * d2 <= n2 * d, (net.provenance, ends)
        assert len(pieces.lows) == len(pieces.highs) == len(pieces.forms)
    return stores


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_seam_memo_matches_plain_loop(name):
    """Passes on one net object over the training points and their dyadic,
    decimal and mixed shifts (several odd D).  Each point is scaled at its
    own exponent and its memo keys have their common power of two divided
    out, so the second pass finds every key the first stored and stores
    nothing."""
    net, ds = corpus(name)
    rng = random.Random(name)
    net = _fresh(net)
    points = [v for p in ds.points for v in _input_variants(p, rng)]
    assert_memo_agrees(net, points)
    seams, stored = net._seams, (_memo_entries(net), net._seams.bits)
    assert_memo_agrees(net, points)
    assert net._seams is seams and (_memo_entries(net), seams.bits) == stored


def test_seam_memo_shares_each_bucket():
    """One pass over the training points of a sqrt build keeps at most
    bucket_count entries in each memo, all for D = 1, and its bucket
    selector, a region segment, holds one piece per bucket met: the
    bucket's plateau.  Points shifted by
    2^-40 run over den = 2^40 and hit the entries stored for the integer
    points: the memo divides each key's common power of two out, and a
    piece holds for every den, so the program, the memo objects and their
    entries stay as they were.  On a
    fresh net, a plain eval_exact loop over the points shifted by 2^-(k+8),
    each at a lower exponent than the points before it, stores just what
    the unshifted pass stores.  (A shift of 2^-5 or more moves a few of
    these points off their bucket's plateau, to new keys.)"""
    ds = random_dataset(64, 2, 4, seed=5)
    built, report = assemble_sqrt(ds, seed=5)

    def memos(net):
        return [memo for keys, _, dyn, _, memo in net._seams.segments
                if keys is not None and dyn is not None]

    net = _fresh(built)
    assert_memo_agrees(net, ds.points)
    assert memos(net)
    for memo in memos(net):
        assert {key[0] for key in memo} == {1}
        assert len(memo) <= report.info.bucket_count < ds.n
    (pieces,) = _pieces(net)
    assert len(pieces.forms) == len(memos(net)[0])
    prog, seams, bits = net._prog, net._seams, net._seams.bits
    before = [dict(memo) for memo in memos(net)]
    forms = list(pieces.forms)
    assert_memo_agrees(net, [[c + Fraction(1, 1 << 40) for c in p] for p in ds.points[:6]])
    assert net._prog is prog and net._seams is seams and seams.bits == bits
    for old, memo in zip(before, memos(net)):
        assert len(memo) == len(old) and {key[0] for key in memo} == {1}
        assert all(memo[key] is entry for key, entry in old.items())
    assert all(new is old for new, old in zip(pieces.forms, forms)) and len(pieces.forms) == len(forms)
    falling = _fresh(built)
    assert_memo_agrees(falling, [[c + Fraction(1, 2 ** (k + 8)) for c in p]
                                 for k, p in enumerate(ds.points)])
    assert all(len(memo) <= report.info.bucket_count for memo in memos(falling))
    assert falling._seams.bits == bits


def test_seam_memo_shares_each_bucket_across_odd_d():
    """Decimal points of one bucket reach the block matcher at different
    odd D (den 5 and 25 among them), with keys that are multiples of each
    other.  The memo divides each key by its gcd, so one pass over the
    sqrt-decimal benchmark's 64 points stores one matcher entry per bucket
    (16; dividing out the common power of two alone stored 20).  Every
    output equals the plain loop's, and a second pass stores nothing."""
    points = random_separated_points(64, 2, 0, "decimal")
    rng = random.Random(5)
    rng.shuffle(points)
    ds = load_and_validate(points, [rng.randint(1, 4) for _ in points], 4)
    built, report = assemble_sqrt(ds, seed=0)
    net = _fresh(built)
    assert not check_outputs(net, ds.points, ds.labels)[0]
    (memo,) = [memo for keys, _, dyn, _, memo in net._seams.segments
               if keys is not None and dyn is not None]
    assert len(memo) == report.info.bucket_count == 16
    assert_memo_agrees(net, ds.points)
    assert len(memo) == 16


def _memoized(net: LayeredNet) -> list:
    """The op counts of the memoized segments of the net's per-point program."""
    eval_exact(net, [0] * net.input_dim)
    return [len(ops) for keys, ops, dyn, _, _ in net._seams.segments
            if keys is not None and dyn is not None]


def test_only_input_dependent_static_ops_earn_a_memo():
    """A segment is memoized only when _MIN_STATIC of its static ops read an
    input.  The depth net runs track by track, one track per subset
    memorizer (16 points in subsets of L^2 = 4), and each track's block
    matcher is one memoized segment; the sqrt, bits and regression nets
    keep their memoized segments."""
    nets = {name: _fresh(corpus(name)[0]) for name in CORPUS_NAMES}
    depth = nets["depth"]
    _memoized(depth)
    ops = netir._plan(depth)[0]
    tracks = {op[5] for op in ops} - {None}
    memo_tracks = [{ops[t][5] for t in range(lo, hi)}
                   for lo, hi, _, flags, _ in depth._cuts if flags is not None]
    assert len(tracks) == 4 and sorted(memo_tracks) == [{t} for t in sorted(tracks)]
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


def _piece_per_point_net() -> LayeredNet:
    """x -> the sum of ReLU(x - k), k = 0..39: without memos, one region
    segment, whose pieces are the unit intervals between the thresholds.
    (With them, the rows past the fourth are a memoized segment keyed on
    x, cut at the seam after the first three.)"""
    first = AffineLayer(1, 40, [((0, 1),)] * 40, [-k for k in range(40)], relu=True)
    last = AffineLayer(40, 1, [tuple((k, 1) for k in range(40))], [0], relu=False)
    return LayeredNet(1, [first, last], "piece-per-point")


def test_seam_memo_stops_at_its_cap(monkeypatch):
    """Points with distinct keys fill the memo up to its cap and no further,
    and every result stays exact.  The pieces of a region segment count
    against the same cap: points on distinct pieces fill it, and once it is
    full, points on pieces not stored still run the segment on forms and
    stay exact, at any scale and odd D.  On a net with both kinds, the
    memo entries and the pieces share the one count."""
    monkeypatch.setattr(netir, "_MEMO_BITS", 4000)
    net = _key_per_point_net()
    points = [[x, y] for x in range(40) for y in (1, 2)]
    assert_memo_agrees(net, points)
    seams = net._seams
    entries = _memo_entries(net)
    assert 0 < entries < 40 and 0 < seams.bits <= 4000
    assert_memo_agrees(net, [[x + 100, 1] for x in range(40)])
    assert _memo_entries(net) == entries and seams.bits <= 4000
    net, ds = corpus("sqrt-102")
    net = _fresh(net)
    assert_memo_agrees(net, [list(p) for p in ds.points])
    (pieces,) = _pieces(net)
    assert 0 < len(pieces.forms) and 0 < _memo_entries(net) - len(pieces.forms)
    assert 3000 < net._seams.bits <= 4000
    monkeypatch.setattr(netir, "_MIN_STATIC", 1 << 30)
    net = _piece_per_point_net()
    assert_memo_agrees(net, [[Fraction(2 * k + 1, 2)] for k in range(40)])
    (pieces,) = _pieces(net)
    stored, bits = len(pieces.forms), net._seams.bits
    assert 0 < stored < 40 and 0 < bits <= 4000
    assert_memo_agrees(net, [[Fraction(6 * k + 1, 6)] for k in range(40, -3, -1)])
    assert len(pieces.forms) == stored and net._seams.bits == bits
    assert_memo_agrees(net, [[Fraction(2 * k + 1, 2)] for k in range(stored)])  # all hits
    assert len(pieces.forms) == stored and net._seams.bits == bits


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
    for name in [CORPUS_NAMES[0], CORPUS_NAMES[-4], *CORPUS_NAMES[-3:]]:
        rng = random.Random(name)
        net, ds = corpus(name)
        net = _fresh(net)
        points = [_input_variants(p, rng)[k % 5] for k, p in enumerate(ds.points[:8])]
        assert_memo_agrees(net, points + points[::-1])
        low = [Fraction(1, 1 << 40)] * net.input_dim  # den 2^40, then the points again
        assert_memo_agrees(net, [low] + points)
    net = _key_per_point_net()
    assert_memo_agrees(net, [[x, y] for x in range(-3, 4) for y in (-1, 1, 2)] * 2)


def _regions(net: LayeredNet) -> list:
    """(lo, hi) of each region segment of the net's seam analysis."""
    return [(lo, hi) for lo, hi, keys, flags, _ in netir._cuts(net)
            if keys is not None and flags is None]


def test_region_segments_are_the_bucket_selectors():
    """The bucket selector, which reads only z, is one region segment, from
    the boundary after the projection to the (x, w, u) seam, where the
    memoized matcher starts: once in a sqrt or regression net, once in
    each track of a depth net, and once per block of a bits chain, whose
    later selectors start past the (x, y) seam between blocks and the two
    constant rows that open them, and read only x.  The matcher reads x, w
    and u, three registers that depend on the input, so no region starts
    at its seam."""
    for name in ("sqrt-102", "sqrt-107", "regression", "depth", "bits"):
        net = _fresh(corpus(name)[0])
        ops = netir._plan(net)[0]
        cuts = netir._cuts(net)
        regions = [cut for cut in cuts if cut[2] is not None and cut[3] is None]
        matchers = [cut for cut in cuts if cut[3] is not None]
        assert len(regions) == {"depth": 4, "bits": 4}.get(name, 1), name
        assert [cut[1] for cut in regions] == [cut[0] for cut in matchers], name
        for (lo, _, (v,), _, exports), (mlo, mhi, keys, _, _) in zip(regions, matchers):
            assert len({ops[t][5] for t in range(lo, mhi)}) == 1  # one track, or none
            reads = netir._dynamic_reads(ops[mlo:mhi], [False] * netir._plan(net)[1])
            assert len(reads & {v, *exports}) >= 3 and set(keys) < reads, name
        if name == "depth":
            assert len({ops[cut[0]][5] for cut in regions}) == 4
        assert_memo_agrees(net, [list(p) for p in corpus(name)[1].points])


@pytest.mark.parametrize("split", [None, *WRONG_SPLITS], ids=["natural", *WRONG_SPLITS])
@pytest.mark.parametrize("seam_width", [1, 2, 4, 1 << 30])
def test_region_memo_under_forced_cuts(monkeypatch, seam_width, split):
    """Every run that qualifies a region segment, whatever its length, with
    a cut at the seams of every width up to every boundary and the memo's
    dynamic register chosen well or wrongly: results stay exact, points
    in both orders and at several scales and odd D share the pieces, and a
    repeat pass stores nothing."""
    monkeypatch.setattr(netir, "_SEAM_WIDTH", seam_width)
    monkeypatch.setattr(netir, "_MIN_REGION", 0)
    if split:
        monkeypatch.setattr(netir, "_dynamic_bit", WRONG_SPLITS[split])
    for name in ("sqrt-102", "sqrt-112", "depth", "bits", "regression"):
        rng = random.Random(name)
        net, ds = corpus(name)
        net = _fresh(net)
        points = [_input_variants(p, rng)[k % 5] for k, p in enumerate(ds.points[:10])]
        assert_memo_agrees(net, points + points[::-1])
        assert _regions(net), name
        stored = (_memo_entries(net), net._seams.bits)
        assert_memo_agrees(net, points[::-1])
        assert (_memo_entries(net), net._seams.bits) == stored
        _pieces(net)


_thresholds = st.sampled_from([-2, -1, Fraction(-1, 2), 0, Fraction(1, 4), 1, 3])
_chain_weights = st.sampled_from([-2, -1, DyadicRational(1, -1), 1, 2, 3])


@st.composite
def _relu_chains(draw):
    """1-D nets: 1-5 ReLU layers of 1-3 rows, each row reading 1-2 channels
    of the layer before with weights in {-2, -1, 1/2, 1, 2, 3}, and a bias
    that puts the row's threshold, on its first channel, at one of seven
    dyadic values, so thresholds repeat and coincide; then one affine
    output row.  Some chains read z = x + y of two inputs and a constant
    channel beside it, both made by a first layer: then the chain reads z
    and a constant written before it starts."""
    width, layers = 1, []
    if draw(st.booleans()):
        lead = [((0, 1), (1, 1)), ()]
        layers.append(AffineLayer(2, 2, lead, [0, draw(_dyadics.filter(lambda d: d.sign > 0))],
                                  relu=True))
        width = 2
    for _ in range(draw(st.integers(1, 5))):
        rows, biases = [], []
        for _ in range(draw(st.integers(1, 3))):
            cols = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2, unique=True))
            weights = [draw(_chain_weights) for _ in cols]
            first = weights[0] if isinstance(weights[0], int) else weights[0].as_fraction()
            rows.append(tuple(zip(cols, weights)))
            biases.append(DyadicRational.from_fraction(-first * Fraction(draw(_thresholds))))
        layers.append(AffineLayer(width, len(rows), rows, biases, relu=True))
        width = len(rows)
    out = tuple((i, draw(_chain_weights)) for i in range(width))
    layers.append(AffineLayer(width, 1, [out], [draw(_dyadics)], relu=False))
    return LayeredNet(layers[0].in_dim, layers, "relu-chain")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_relu_chains_region_memo(data):
    """1-D ReLU chains, whose program past the first layer reads one
    register: points on the thresholds themselves and near them, dyadic
    and with odd D, each list in both orders on one net object, as a region
    segment of any length at any seam width.  Results equal the loop
    without memos and the layer walk; pieces are stored once and meet at
    most in an end."""
    net = data.draw(_relu_chains())
    near = st.builds(lambda c, k, e: Fraction(c) + Fraction(k, e), _thresholds,
                     st.integers(-3, 3), st.sampled_from([1, 3, 4, 7, 64, 1 << 40]))
    points = [[x] for x in data.draw(st.lists(st.one_of(_thresholds.map(Fraction), near, _inputs),
                                              min_size=1, max_size=12))]
    if net.input_dim == 2:  # z = x + y
        points = [[x - y, y] for (x,), y in zip(points, data.draw(st.lists(
            st.sampled_from([0, 1, Fraction(1, 3), Fraction(-5, 8)]),
            min_size=len(points), max_size=len(points))))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netir, "_MIN_REGION", data.draw(st.sampled_from([0, 8])))
        mp.setattr(netir, "_SEAM_WIDTH", data.draw(st.sampled_from([1, 2, 4, 1 << 30])))
        fresh = _fresh(net)
        assert_memo_agrees(fresh, points + points[::-1])
        for xs in points[:3]:
            assert_agrees(fresh, xs)
        stored = (_memo_entries(fresh), fresh._seams.bits)
        assert_memo_agrees(fresh, points)
        assert (_memo_entries(fresh), fresh._seams.bits) == stored
        _pieces(fresh)


def _alias_free_rows(net: LayeredNet) -> list:
    """(bias, weights) of every row of the net that _plan runs as an op, in
    layer order: all but the identity rows on a ReLU output."""
    rows = []
    for k, layer in enumerate(net.layers):
        for row, bias in zip(layer.rows, layer.biases):
            if (k and net.layers[k - 1].relu and len(row) == 1 and row[0][1] == 1
                    and not bias.sign):
                continue
            rows.append((bias, tuple(w for _, w in row)))
    return rows


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_plans_run_in_layer_order_or_track_by_track(name):
    """Every corpus net runs each row that is not an alias as one op.  The
    depth net's subset memorizers run as tracks, each track's ops in one
    run and the summation head last; the sqrt, bits and regression nets
    built on 16 points have no tracks and run in layer order.  (A sqrt net
    on one or two points has one bucket, and its block matcher may decode
    its payloads in two chains that share no register: two tracks.)"""
    net, ds = corpus(name)
    ops = netir._plan(_fresh(net))[0]
    tracks, rows = [op[5] for op in ops], _alias_free_rows(net)
    if name == "depth" or ds.n < 16 and any(t is not None for t in tracks):
        runs = [t for k, t in enumerate(tracks)
                if t is not None and (not k or t != tracks[k - 1])]
        assert len(runs) == len(set(runs)) >= 2
        assert sorted(map(repr, rows)) == sorted(repr((op[0], op[2])) for op in ops)
    else:
        assert tracks == [None] * len(ops)
        assert [(op[0], op[2]) for op in ops] == rows
    if name == "depth":
        assert len(runs) == 4 and tracks[-1] is None and len(ops[-1][1]) == 4


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacked_nets_seam_memo(data):
    """Stacked nets, whose members run as tracks, every segment memoized,
    under every cut and split rule: the memo equals the loop without it,
    and both equal the layer walk."""
    net = data.draw(_stacked_nets())
    point = st.lists(_inputs, min_size=net.input_dim, max_size=net.input_dim)
    points = data.draw(st.lists(point, min_size=1, max_size=5))
    points += [p[:1] + q[1:] for p, q in zip(points, points[1:])] + points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netir, "_MIN_STATIC", 0)
        mp.setattr(netir, "_SEAM_WIDTH", data.draw(st.sampled_from([1, 2, 4, 1 << 30])))
        split = data.draw(st.sampled_from([None, *WRONG_SPLITS]))
        if split:
            mp.setattr(netir, "_dynamic_bit", WRONG_SPLITS[split])
        fresh = _fresh(net)
        assert_memo_agrees(fresh, points)
        for xs in points[:3]:
            assert_agrees(fresh, xs)


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
