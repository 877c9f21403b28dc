"""Differential tests: netir's network-file writer and reader against the old ones.

`netfile_reference` holds the dict-per-cell writer and the cell-by-cell
reader that netir replaced.  The writer must give the same bytes on every
net, and the memoized reader the same net or the same ValueError on every
file, including files where one copy of a value repeated across many cells
is broken.  The intended differences are a loose cell (see `_loose`) and
a malformed matrix shape (see `SHAPES`), which the reference reader may
take and netir refuses.  `load_net`, which first parses a file with its
zero cells replaced by null, must give on the file's bytes what
`deserialize_net` gives on the parsed file.
"""

import copy
import functools
import gc
import json
import os
import re
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from memnet import netir
from memnet.datagen import random_dataset
from memnet.exactnum import DyadicRational
from memnet.netir import (MAX_EXPONENT, MAX_MANTISSA_BITS, AffineLayer,
                          LayeredNet, deserialize_net, eval_exact, eval_float,
                          load_net, net_to_json_bytes, save_net)
from memnet.pipeline import assemble_sqrt
from memnet.variants import assemble_bounded_bits
from netfile_reference import reference_bytes, reference_deserialize
from test_cli import _edit_dense_row, _split_sparse_term
from test_eval_differential import CORPUS_NAMES, _nets, corpus
from test_golden import BUILD_DIGESTS, _build


def assert_same_bytes(net, builder=None):
    assert net_to_json_bytes(net, builder) == reference_bytes(net, builder)


# ---------------------------------------------------------------------------
# writer


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_nets_write_the_same_bytes(name):
    net, ds = corpus(name)
    assert_same_bytes(net, {"theorem": name, "N": ds.n})


@settings(max_examples=200, deadline=None)
@given(_nets())
def test_random_nets_write_the_same_bytes(net):
    assert_same_bytes(net)


def _layer(in_dim, out_dim, weight, relu=True):
    """Row k holds `weight` in column k % in_dim; every other row is empty."""
    rows = [((k % in_dim, weight),) if k % 3 == 0 else () for k in range(out_dim)]
    biases = [weight if k % 4 == 1 else 0 for k in range(out_dim)]
    return AffineLayer(in_dim, out_dim, rows, biases, relu)


@pytest.mark.parametrize("dims", [(16, 16, 1), (16, 17, 1), (17, 16, 1), (1, 16, 17),
                                  (3, 17, 16), (17, 17, 17)],
                         ids=lambda d: "-".join(map(str, d)))
def test_dense_sparse_edge(dims):
    weight = DyadicRational(-5, -3)
    layers = [_layer(a, b, weight) for a, b in zip(dims, dims[1:])]
    layers[-1] = _layer(dims[-2], dims[-1], weight, relu=False)
    assert_same_bytes(LayeredNet(dims[0], layers, "edge"))


def test_empty_rows_and_zero_biases():
    hidden = AffineLayer(3, 20, [()] * 20, [0] * 20, relu=True)
    out = AffineLayer(20, 2, [(), ((19, 1),)], [0, 0], relu=False)
    assert_same_bytes(LayeredNet(3, [hidden, out], ""))
    assert_same_bytes(LayeredNet(2, [AffineLayer(2, 1, [()], [0], relu=False)]))


@pytest.mark.parametrize("width", [4, 40])
def test_weights_at_the_caps(width):
    big = (1 << MAX_MANTISSA_BITS) - 1
    values = [DyadicRational(1, MAX_EXPONENT), DyadicRational(-3, -MAX_EXPONENT),
              DyadicRational(big, 7), DyadicRational(-big, -MAX_EXPONENT),
              DyadicRational((1 << 200) + 1, 0)]
    rows = [tuple((k, values[(k + u) % len(values)]) for k in range(0, width, 3))
            for u in range(width)]
    biases = [values[u % len(values)] for u in range(width)]
    layers = [AffineLayer(width, width, rows, biases, relu=True),
              AffineLayer(width, 1, [((0, values[2]),)], [values[1]], relu=False)]
    assert_same_bytes(LayeredNet(width, layers, "caps"))


PROVENANCES = ['say "hi"', "back\\slash\\\\", "tab\tnl\ncr\rnul\x00bell\x07\x1f",
               "Grüße, 𝔁 ≤ ∞, 日本", "lone \ud800 surrogate", "</script> ", ""]


@pytest.mark.parametrize("provenance", PROVENANCES)
def test_escaped_provenance(provenance):
    layer = AffineLayer(1, 1, [((0, 3),)], [DyadicRational(1, -2)], relu=False)
    assert_same_bytes(LayeredNet(1, [layer], provenance, output_nonneg=True))


def test_nested_non_ascii_builder():
    net, _ = corpus(CORPUS_NAMES[0])
    builder = {"théorème": "sqrt", "zeta": {"b": [1, -2, "ü\"\\"], "a": {"ß": None}},
               "flag": True, "ratio": 0.1, "big": 10 ** 40, "empty": {}, "list": [],
               "Z": "é\U0001f600"}
    assert_same_bytes(net, builder)


# ---------------------------------------------------------------------------
# reader


def _read(reader, obj):
    """('net', bytes of the net read) or ('error', the ValueError's message)."""
    try:
        net = reader(obj)
    except ValueError as exc:
        return "error", str(exc)
    return "net", net_to_json_bytes(net)


def _compact(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _load_bytes(data: bytes):
    """load_net's (net, builder) of a file holding data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "wb") as fh:
            fh.write(data)
        return load_net(path)


def _read_both(obj):
    """deserialize_net's verdict on obj.  load_net must give, on the
    sorted-key, compact JSON of obj, deserialize_net's verdict on that
    JSON parsed (a message may show a cell's keys in the file's order)."""
    data = _compact(obj)
    assert (_read(lambda _: _load_bytes(data)[0], None)
            == _read(deserialize_net, json.loads(data)))
    return _read(deserialize_net, obj)


def _cells(obj):
    """(container, key) of every dyadic cell of a parsed network file."""
    for spec in obj["layers"]:
        yield from ((spec["b"], k) for k in range(len(spec["b"])))
        w = spec["w"]
        if isinstance(w, dict):
            yield from ((pair, 1) for row in w["sparse"] for pair in row)
        else:
            yield from ((row, k) for row in w for k in range(len(row)))


def _loose(cell) -> bool:
    """A cell that is not {"s": int, "m": lowercase hex without leading zeros,
    "e": int} (docs/FORMATS.md), such as a bool, float or string sign or
    exponent, a mantissa " 0x5 " or a missing field; or a zero sign with any
    other mantissa or exponent.  The reference reader took some of these,
    and skipped any dense cell whose s == 0 unread.  netir refuses them all,
    and its message may differ from the reference's."""
    if not isinstance(cell, dict) or not {"s", "m", "e"} <= cell.keys():
        return True
    s, m, e = cell["s"], cell["m"], cell["e"]
    if not (type(s) is int and type(e) is int and type(m) is str
            and re.fullmatch("0|[1-9a-f][0-9a-f]*", m)):
        return True
    return s == 0 and (m, e) != ("0", 0)


def verdict_with(obj, place, cell):
    """netir's verdict on obj with `cell` at place.

    It must equal the reference reader's, or be a refusal when the cell is
    loose.  The cell is swapped in and back out, so every test reads the
    same parsed file without copying it.
    """
    container, key = place
    kept, container[key] = container[key], cell
    try:
        got = _read_both(obj)
        if _loose(cell):
            assert got[0] == "error", cell
        else:
            assert got == _read(reference_deserialize, obj)
    finally:
        container[key] = kept
    return got[0]


SAVED_NAMES = (CORPUS_NAMES[0], *CORPUS_NAMES[-3:])


@functools.cache
def _saved(name: str) -> tuple:
    """The parsed file of the corpus net `name` and its cells, made on first
    use; the tests swap cells in and back out of this one object."""
    obj = json.loads(net_to_json_bytes(corpus(name)[0]))
    return obj, list(_cells(obj))


BAD_CELLS = [
    {"s": 1, "m": "4", "e": 0},  # even mantissa
    {"s": 1, "m": "0", "e": 0},
    {"s": -1, "m": "0", "e": 3},
    {"s": 0, "m": "1", "e": 0},
    {"s": 0, "m": "0", "e": 2},
    {"s": 2, "m": "1", "e": 0},
    {"s": 1, "m": "1", "e": MAX_EXPONENT + 1},
    {"s": -1, "m": "3", "e": -MAX_EXPONENT - 1},
    {"s": 1, "m": "3" * (MAX_MANTISSA_BITS // 4 + 1), "e": 0},
    {"s": [], "m": "1", "e": 0},
    {"s": {}, "m": "1", "e": 0},
    {"s": 1, "m": ["1"], "e": 0},
    {"s": 1, "m": 5, "e": 0},
    {"s": 1, "m": "1", "e": None},
    {"s": "x", "m": "1"},
    {"s": 1, "m": "1"},
    {"m": "1", "e": 0},
    [1, "1", 0],
    "1",
    None,
]

# Cells the reference reader takes.  The ones marked loose are refused by
# netir; the rest load in both.
ODD_CELLS = [
    {"s": True, "m": "1", "e": 0},  # loose
    {"s": 1, "m": "1", "e": "3"},  # loose
    {"s": 1.0, "m": "3", "e": -2.0},  # loose
    {"s": "-1", "m": "0x5", "e": 1},  # loose
    {"s": 1, "m": "1", "e": MAX_EXPONENT},
    {"s": 0, "m": "0", "e": "0"},  # loose
    {"s": 1, "m": "7", "e": 0, "extra": []},
    {"s": 0, "m": "zz", "e": 0},  # loose; the reference skips it in a dense row
    {"s": False, "m": "5", "e": 1},  # loose; the reference skips it in a dense row
    {"s": -1.5, "m": " 0x5 ", "e": "3"},  # loose
    {"s": 1, "m": "5", "e": 1.0},  # loose
    {"s": 1, "m": "05", "e": 0},  # loose
    {"s": 1, "m": "B", "e": 0},  # loose
    {"s": 0, "m": "0", "e": 0.0},  # loose
]


@pytest.mark.parametrize("name", ["depth", "regression", CORPUS_NAMES[0]])
@pytest.mark.parametrize("cell", BAD_CELLS + ODD_CELLS,
                         ids=[f"bad{k}" for k in range(len(BAD_CELLS))]
                         + [f"odd{k}" for k in range(len(ODD_CELLS))])
def test_one_cell_mutations(name, cell):
    """The cell in place of the first (a bias), a middle and the last cell."""
    obj, cells = _saved(name)
    verdicts = {verdict_with(obj, cells[where], cell)
                for where in (0, len(cells) // 2, len(cells) - 1)}
    if cell in BAD_CELLS[:9] or _loose(cell):
        assert verdicts == {"error"}
    if cell in ODD_CELLS and not _loose(cell):
        assert verdicts == {"net"}


def test_loose_dense_zero_cells_are_refused():
    """The reference reader skipped any dense cell whose s == 0 unread."""
    obj, _ = _saved("regression")
    row = next(row for spec in obj["layers"] if isinstance(spec["w"], list)
               for row in spec["w"] if row[-1]["s"] == 0)
    zero = (row, len(row) - 1)
    for cell in ({"s": 0, "m": "zz"}, {"s": 0, "m": "zz", "e": 0},
                 {"s": False, "m": "5", "e": 1}, {"s": 0.0, "m": "0", "e": 0},
                 {"s": 0, "m": "0", "e": False}, {"s": 0, "m": "00", "e": 0}):
        container, key = zero
        kept, container[key] = container[key], cell
        try:
            assert _read(reference_deserialize, obj)[0] == "net"
        finally:
            container[key] = kept
        assert verdict_with(obj, zero, cell) == "error"


def _most_repeated(name):
    """The nonzero cell value held by the most cells, and where they are."""
    seen = {}
    for container, key in _saved(name)[1]:
        cell = container[key]
        if cell["s"]:
            seen.setdefault(json.dumps(cell, sort_keys=True), []).append((container, key))
    text, places = max(seen.items(), key=lambda kv: len(kv[1]))
    return json.loads(text), places


@pytest.mark.parametrize("name", sorted(SAVED_NAMES))
def test_one_broken_copy_of_a_repeated_value(name):
    """Good copies are read before the broken one; the memo must not pass it."""
    good, places = _most_repeated(name)
    assert len(places) > 3
    broken = [
        {**good, "m": format(2 * int(good["m"], 16), "x"), "e": good["e"] - 1},  # even
        {**good, "m": "0"},
        {**good, "e": MAX_EXPONENT + 1},
        {**good, "s": 2},
        {**good, "s": []},
    ]
    for cell in broken:
        for where in (1, len(places) - 1):
            assert verdict_with(_saved(name)[0], places[where], cell) == "error", cell
    for cell in ({**good, "s": True}, {**good, "e": str(good["e"])},
                 {**good, "e": float(good["e"])}, {**good, "m": "0" + good["m"]}):
        assert verdict_with(_saved(name)[0], places[-1], cell) == "error", cell


def test_repeated_zero_bias_with_one_bad_copy():
    obj, _ = _saved(CORPUS_NAMES[0])
    zeros = [(spec["b"], k) for spec in obj["layers"]
             for k, b in enumerate(spec["b"]) if b["s"] == 0]
    assert len(zeros) > 3
    assert verdict_with(obj, zeros[-1], {"s": 0, "m": "1", "e": 0}) == "error"


_field = st.one_of(st.integers(-3, 3), st.booleans(), st.none(),
                   st.sampled_from(["0", "1", "3", "4", "-1", "x", "0x3", " 5 "]),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.lists(st.integers(), max_size=1))


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({"s": _field, "m": _field, "e": _field}),
       st.integers(0, 10 ** 6), st.sampled_from(["depth", CORPUS_NAMES[0]]))
def test_arbitrary_cell_fields(cell, where, name):
    obj, cells = _saved(name)
    verdict_with(obj, cells[where % len(cells)], cell)


def _zero_term_past_in_dim(obj):
    """obj with a zero-weight term on column in_dim added to a sparse row."""
    w = next(spec["w"] for spec in obj["layers"] if isinstance(spec["w"], dict))
    next(row for row in w["sparse"] if row).append([w["in_dim"], {"s": 0, "m": "0", "e": 0}])


# Files that break the matrix shape of docs/FORMATS.md: a dense row must
# have in_dim cells, and a sparse row names each column in [0, in_dim) once,
# even for a zero weight, which the reader then drops.  The reference
# reader took each of them but the repeated column, which AffineLayer's
# checking constructor refuses too; netir refuses them all.
SHAPES = {
    "dense-row-short": ("regression", lambda obj: _edit_dense_row(obj, list.pop)),
    "dense-row-long": ("regression", lambda obj: _edit_dense_row(
        obj, lambda row: row.append({"s": 0, "m": "0", "e": 0}))),
    "dense-row-empty": ("regression", lambda obj: _edit_dense_row(obj, list.clear)),
    "sparse-column-twice": ("depth", _split_sparse_term),
    "sparse-zero-term-past-in-dim": ("depth", _zero_term_past_in_dim),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_malformed_shapes_are_refused(shape):
    name, edit = SHAPES[shape]
    obj = copy.deepcopy(_saved(name)[0])
    edit(obj)
    assert _read(reference_deserialize, obj)[0] == (
        "error" if shape == "sparse-column-twice" else "net")
    assert _read_both(obj)[0] == "error"


_ZERO = b'{"e":0,"m":"0","s":0}'


def _strict_load(data: bytes):
    """One json.loads and deserialize_net, as load_net read every file before
    it replaced zero cells: ('net', bytes of the net, builder) or ('error',
    the ValueError's message)."""
    try:
        obj = json.loads(data)
        return "net", net_to_json_bytes(deserialize_net(obj)), obj.get("builder")
    except ValueError as exc:
        return "error", str(exc)


def _counted_load(monkeypatch, data: bytes):
    """(load_net's outcome on data in _strict_load's form, its json.loads calls)."""
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *args: calls.append(args) or loads(*args))
    try:
        net, builder = _load_bytes(data)
        got = "net", net_to_json_bytes(net), builder
    except ValueError as exc:
        got = "error", str(exc)
    finally:
        monkeypatch.undo()
    return got, len(calls)


def _saved_file(builder=None) -> bytes:
    """The depth corpus net, which has dense and sparse layers, as saved."""
    return net_to_json_bytes(corpus("depth")[0], builder)


def _literal_in_provenance() -> bytes:
    """The zero literal spliced in after the provenance string's opening quote:
    its own quote ends the string, so the file is not JSON, but with the
    literal replaced by null it is."""
    head, quote, tail = _saved_file().partition(b'"provenance":"')
    return head + quote + _ZERO + tail


def _sparse_zero_weight() -> bytes:
    """A zero cell as a sparse weight [i, {...}] on a column its row lacks."""
    obj = json.loads(_saved_file())
    w = next(spec["w"] for spec in obj["layers"] if isinstance(spec["w"], dict))
    row = next(row for row in w["sparse"] if row)
    free = min(set(range(w["in_dim"])) - {i for i, _ in row})
    row.append([free, {"e": 0, "m": "0", "s": 0}])
    return _compact(obj)


def _null_in_dense_row(builder=None) -> bytes:
    obj = json.loads(_saved_file(builder))
    _edit_dense_row(obj, lambda row: row.__setitem__(-1, None))
    return _compact(obj)


def _single_point_build() -> bytes:
    """An N = 1 sqrt build, whose builder record holds "delta_sq":null."""
    net, report = assemble_sqrt(random_dataset(1, 2, 3, seed=4))
    data = net_to_json_bytes(net, report.info.to_json())
    assert b'"delta_sq":null' in data and _ZERO in data
    return data


# Files load_net must read as one json.loads and deserialize_net read them,
# and the json.loads calls it may make: two when the first read is dropped.
HAND_MADE = {
    "literal-straddles-provenance": (_literal_in_provenance, 2, "error"),
    "sparse-zero-weight": (_sparse_zero_weight, 2, "net"),
    "literal-in-builder": (lambda: _saved_file({"kept": {"e": 0, "m": "0", "s": 0}}), 2, "net"),
    "literal-is-the-file": (lambda: _ZERO, 2, "error"),
    "null-in-builder": (lambda: _saved_file({"delta_sq": None}), 1, "net"),
    "null-in-dense-row": (_null_in_dense_row, 1, "error"),
    # one None too many in the cells and one too few in the builder
    "null-in-dense-row-literal-in-builder": (
        lambda: _null_in_dense_row({"kept": {"e": 0, "m": "0", "s": 0}}), 1, "error"),
    "utf-16-null-in-dense-row": (lambda: _null_in_dense_row().decode().encode("utf-16"),
                                 1, "error"),
    "utf-16": (lambda: _saved_file({"theorem": "é"}).decode().encode("utf-16"), 1, "net"),
    "utf-8-bom": (lambda: b"\xef\xbb\xbf" + _saved_file(), 1, "net"),
    "indented": (lambda: json.dumps(json.loads(_saved_file()), indent=2).encode(), 1, "net"),
    "single-point-build": (_single_point_build, 1, "net"),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_hand_made_files(monkeypatch, case):
    make, parses, verdict = HAND_MADE[case]
    data = make()
    want = _strict_load(data)
    assert want[0] == verdict
    assert _counted_load(monkeypatch, data) == (want, parses)


@pytest.mark.parametrize("case", sorted(c for c, (_, parses, _) in HAND_MADE.items()
                                         if parses == 2))
def test_strict_read_gets_the_file(monkeypatch, case):
    """load_net drops the file's bytes after the zero-cell substitution; when
    the first read fails, the strict read must get them back exactly."""
    data = HAND_MADE[case][0]()
    seen = []
    parse = netir._parse_net
    monkeypatch.setattr(netir, "_parse_net",
                        lambda text, null_cells: seen.append((text, null_cells))
                        or parse(text, null_cells))
    try:
        _load_bytes(data)
    except ValueError:
        pass
    assert [null_cells is None for _, null_cells in seen] == [False, True]
    assert seen[1][0] == data


_PIECES = [b"n", b"u", b"l", b"nul", *(_ZERO[:k] for k in range(1, len(_ZERO) + 1))]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES)).map(b"".join).filter(lambda b: b"null" not in b))
def test_null_substitution_is_undone_exactly(data):
    """No null forms across a replacement, so the strict read's bytes,
    rebuilt from the substituted ones, are the file's."""
    assert data.replace(_ZERO, b"null").replace(b"null", _ZERO) == data


SAVED_FILES = [*CORPUS_NAMES, *(f"golden-{m}" for m in sorted(BUILD_DIGESTS))]


def _named(name):
    """(net, builder record) of a corpus net or a golden build."""
    if name.startswith("golden-"):
        net, report = _build(name.removeprefix("golden-"))
        return net, report.info.to_json()
    net, ds = corpus(name)
    return net, {"theorem": name, "N": ds.n}


@pytest.mark.parametrize("with_builder", [True, False], ids=["builder", "no-builder"])
@pytest.mark.parametrize("name", SAVED_FILES)
def test_save_net_writes_the_file_bytes(tmp_path, name, with_builder):
    """save_net writes the parts of the one writer as they are made: the
    file is net_to_json_bytes and a newline, dense and sparse layers alike."""
    net, builder = _named(name)
    builder = builder if with_builder else None
    path = tmp_path / "net.json"
    save_net(net, path, builder)
    assert path.read_bytes() == net_to_json_bytes(net, builder) + b"\n"


def _traced_peak(call) -> int:
    """Bytes tracemalloc sees allocated at the peak of call(), past what
    was allocated before it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_save_and_load_hold_one_copy_of_the_file(tmp_path):
    """An int-mix-shaped bits build (N = 96, B = 4; about 1.4 MB): save_net
    holds no whole copy of the file, and load_net one copy of its bytes
    beside the parse tree and the net.  Whole-file copies made save_net
    peak at 3.1 and load_net at 4.1 times the file size."""
    net, report = assemble_bounded_bits(random_dataset(96, 2, 4, seed=3), 4, seed=3)
    path = tmp_path / "bits.net.json"
    save = _traced_peak(lambda: save_net(net, path, report.info.to_json()))
    size = path.stat().st_size
    assert size > 1_000_000
    del net
    load = _traced_peak(lambda: load_net(path))
    assert save < 0.5 * size, (save, size)
    assert load < 3.6 * size, (load, size)


@pytest.mark.parametrize("name", SAVED_FILES)
def test_saved_nets_parse_once(monkeypatch, name):
    """Every zero cell of a file the writer made is read as null on the first
    parse: a fallback to the strict read would parse twice."""
    net, builder = _named(name)
    data = net_to_json_bytes(net, builder)
    assert _ZERO in data and b"null" not in data
    assert _counted_load(monkeypatch, data) == (_strict_load(data), 1)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_legacy_passthrough_marks_load(name):
    """Older files list each layer's identity units under "passthrough".
    Such a file is the new bytes with the lists put back; it loads to the
    same layers and evaluates to the same outputs, exactly and in float64."""
    net, ds = corpus(name)
    new = net_to_json_bytes(net)
    obj = json.loads(new)
    for spec, layer in zip(obj["layers"], net.layers):
        spec["passthrough"] = [u for u, (row, b) in enumerate(zip(layer.rows, layer.biases))
                               if len(row) == 1 and row[0][1] == 1 and not b.sign]
    assert any(spec["passthrough"] for spec in obj["layers"])
    legacy = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert re.sub(r'"passthrough":\[[0-9,]*\],', "", legacy).encode() == new
    old, again = deserialize_net(json.loads(legacy)), deserialize_net(json.loads(new))
    assert ([(l.in_dim, l.out_dim, l.rows, l.biases, l.relu) for l in old.layers]
            == [(l.in_dim, l.out_dim, l.rows, l.biases, l.relu) for l in again.layers])
    points = [list(p) for p in ds.points]
    assert [eval_exact(old, p) for p in points] == [eval_exact(again, p) for p in points]
    floats = [[float(x) for x in p] for p in points]
    assert [eval_float(old, p) for p in floats] == [eval_float(again, p) for p in floats]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_loaded_layers_equal_the_checking_constructor(name):
    """deserialize_net checks its rows itself and skips AffineLayer.__init__;
    the checking constructor, given the same tuples, must change nothing."""
    net, _ = corpus(name)
    loaded = deserialize_net(json.loads(net_to_json_bytes(net)))
    for layer in loaded.layers:
        again = AffineLayer(layer.in_dim, layer.out_dim, layer.rows, layer.biases, layer.relu)
        assert (layer.rows, layer.biases, layer.relu) == (again.rows, again.biases, again.relu)
        assert type(layer.relu) is bool
