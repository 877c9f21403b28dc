import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from memnet import cli, netir, pipeline
from memnet.datagen import random_dataset, random_regression_labels, \
    random_separated_points, write_csv
from memnet.netir import MAX_EXPONENT, MAX_MANTISSA_BITS, load_net, save_net
from memnet.pipeline import MAX_NUMBER_DIGITS, load_dataset, read_dataset


@pytest.fixture()
def dataset_csv(tmp_path):
    ds = random_dataset(24, 2, 4, seed=1)
    path = tmp_path / "data.csv"
    write_csv(path, ds.points, ds.labels)
    return str(path)


def run(argv):
    return cli.main(argv)


class TestBuildVerify:
    def test_build_then_verify_exact(self, dataset_csv, tmp_path, capsys):
        net = str(tmp_path / "net.json")
        report = str(tmp_path / "report.json")
        assert run(["build", "--mode", "sqrt", "--in", dataset_csv,
                    "--out", net, "--report", report, "--seed", "7"]) == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["memorized"] and event["pass"]
        assert run(["verify", "--net", net, "--in", dataset_csv,
                    "--precision", "exact"]) == 0
        rep = json.loads(open(report).read())
        assert rep["pass"] and rep["memorized"]

    def test_duplicate_points_exit_2(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x1,label\n3,1\n3,2\n")
        assert run(["build", "--mode", "sqrt", "--in", str(path)]) == 2

    def test_bad_label_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,label\n3,0\n5,1\n")
        assert run(["build", "--mode", "sqrt", "--in", str(path)]) == 2

    def test_mutated_weight_fails_exact_verify(self, dataset_csv, tmp_path):
        net_path = str(tmp_path / "net.json")
        assert run(["build", "--mode", "sqrt", "--in", dataset_csv,
                    "--out", net_path]) == 0
        obj = json.loads(open(net_path).read())
        obj["layers"][-1]["b"][0] = {"s": 1, "m": "1", "e": 0}
        open(net_path, "w").write(json.dumps(obj))
        assert run(["verify", "--net", net_path, "--in", dataset_csv,
                    "--precision", "exact"]) == 1

    def test_schema_mismatch_exit_2(self, dataset_csv, tmp_path):
        bad = tmp_path / "net.json"
        bad.write_text('{"format_version": 99}')
        assert run(["verify", "--net", str(bad), "--in", dataset_csv]) == 2

    def test_float64_reports_error_magnitude(self, dataset_csv, tmp_path, capsys):
        net = str(tmp_path / "net.json")
        run(["build", "--mode", "sqrt", "--in", dataset_csv, "--out", net])
        capsys.readouterr()
        assert run(["verify", "--net", net, "--in", dataset_csv,
                    "--precision", "float64"]) == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "max_abs_error" in event

    def test_depth_mode_reports_subnets(self, tmp_path, capsys):
        ds = random_dataset(64, 1, 4, seed=2)
        data = tmp_path / "d.csv"
        write_csv(data, ds.points, ds.labels)
        report = tmp_path / "rep.json"
        assert run(["build", "--mode", "depth", "--L", "4", "--in", str(data),
                    "--report", str(report)]) == 0
        rep = json.loads(open(report).read())
        assert rep["builder"]["subnet_count"] == 4

    def test_missing_budget_flag_exit_2(self, dataset_csv):
        assert run(["build", "--mode", "depth", "--in", dataset_csv]) == 2

    def test_exhausted_projection_budget_exit_3(self, dataset_csv, monkeypatch):
        monkeypatch.setenv("MEMNET_RETRY_BUDGET", "0")
        assert run(["build", "--mode", "sqrt", "--in", dataset_csv]) == 3


class TestCollectorPause:
    """main pauses the cyclic collector per command and puts it back."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("outcome", ["exit-0", "exit-2", "exit-3", "uncaught"])
    def test_main_leaves_the_collector_as_it_found_it(self, dataset_csv, tmp_path,
                                                      monkeypatch, enabled, outcome):
        data = dataset_csv
        if outcome == "exit-2":
            data = tmp_path / "malformed.csv"
            data.write_text("x1,label\n3,1\n5\n")
        paused = []
        real = pipeline.assemble_sqrt

        def builder(ds, seed):
            paused.append(not gc.isenabled())
            if outcome == "exit-3":
                raise pipeline.ProjectionSearchExhausted("no direction passed")
            if outcome == "uncaught":
                raise pipeline.MemorizationError("a training point was missed")
            return real(ds, seed)

        monkeypatch.setattr(pipeline, "assemble_sqrt", builder)
        argv = ["build", "--in", str(data)]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "uncaught":
                with pytest.raises(pipeline.MemorizationError):
                    run(argv)
            else:
                assert run(argv) == {"exit-0": 0, "exit-2": 2, "exit-3": 3}[outcome]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert paused == ([] if outcome == "exit-2" else [True])


class TestNoReferenceCycles:
    """The collector pause frees nothing late only if commands make no
    reference cycles: with the collector off, a collection after a command
    finds no more objects than one after parsing the command line alone."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cycles")
        ds = random_dataset(24, 2, 4, seed=1)
        data = str(root / "data.csv")
        write_csv(data, ds.points, ds.labels)
        reg = str(root / "reg.csv")
        write_csv(reg, random_separated_points(16, 2, seed=2),
                  random_regression_labels(16, seed=2))
        net = str(root / "net.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["build", "--in", data, "--out", net]) == 0
        return {"root": str(root), "data": data, "reg": reg, "net": net}

    @pytest.mark.parametrize("argv", [
        "build --mode sqrt --in {data} --out {root}/sqrt.json --report {root}/sqrt.report.json",
        "build --mode depth --L 2 --in {data} --out {root}/depth.json",
        "build --mode bits --B 2 --in {data} --out {root}/bits.json",
        "build --mode regression --epsilon 1/8 --in {reg} --out {root}/reg.json",
        "verify --net {net} --in {data} --precision exact",
        "verify --net {net} --in {data} --precision float64",
        "eval --net {net} --in {data} --precision exact",
        "audit --net {net} --in {data} --report {root}/audit.json",
        "oracle stage3",
        "sweep --N 8,16 --d 1 --out {root}/sweep.csv",
    ], ids=["build-sqrt", "build-depth", "build-bits", "build-regression", "verify-exact",
            "verify-float64", "eval", "audit", "oracle-stage3", "sweep"])
    def test_command_makes_no_reference_cycles(self, files, argv):
        argv = [arg.format(**files) for arg in argv.split()]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert run(argv) == 0  # warm-up: imports and first-use caches
        was = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            with contextlib.redirect_stdout(sink):
                cli.build_parser().parse_args(argv)
            parser_only = gc.collect()
            with contextlib.redirect_stdout(sink):
                assert run(argv) == 0
            command = gc.collect()
        finally:
            if was:
                gc.enable()
        assert parser_only > 0  # argparse's own cycles: the probe sees cycles
        assert command <= parser_only


class TestEvalAuditOracle:
    def test_eval_outputs_labels(self, dataset_csv, tmp_path, capsys):
        net = str(tmp_path / "net.json")
        run(["build", "--mode", "sqrt", "--in", dataset_csv, "--out", net])
        capsys.readouterr()
        assert run(["eval", "--net", net, "--in", dataset_csv]) == 0
        lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
        import csv
        with open(dataset_csv) as fh:
            labels = [row["label"] for row in csv.DictReader(fh)]
        assert [line["output"] for line in lines] == labels

    @pytest.mark.parametrize("via", ["check_outputs", "eval"])
    def test_falling_exponents_compile_once(self, dataset_csv, tmp_path, capsys,
                                            monkeypatch, via):
        """Row k shifted by 2^-(k+1): each row has a lower input exponent
        than the rows before it.  In either order the net compiles its
        integer program once and runs the seam analysis once, and the outputs
        equal those of one batch over all the rows."""
        net_path = str(tmp_path / "net.json")
        run(["build", "--mode", "sqrt", "--in", dataset_csv, "--out", net_path])
        capsys.readouterr()
        points, labels, _ = read_dataset(dataset_csv)
        rows = [[x + Fraction(1, 2 ** (k + 1)) for x in p] for k, p in enumerate(points)]
        want = netir._eval_lanes(load_net(net_path)[0], rows)
        compiles, analyses = [], []
        real_compile, real_seams = netir._compile, netir._seams
        monkeypatch.setattr(netir, "_compile", lambda net: compiles.append(
            net._prog is None) or real_compile(net))  # True: a real compile
        monkeypatch.setattr(netir, "_seams", lambda prog: analyses.append(
            prog) or real_seams(prog))
        for order in (range(len(rows)), range(len(rows) - 1, -1, -1)):
            compiles.clear()
            analyses.clear()
            if via == "eval":
                shifted = tmp_path / "shifted.csv"
                write_csv(shifted, [rows[k] for k in order], [labels[k] for k in order])
                assert run(["eval", "--net", net_path, "--in", str(shifted)]) == 0
                got = [json.loads(s)["output"] for s in capsys.readouterr().out.splitlines()]
                assert got == [str(want[k][0]) for k in order]
            else:
                net, _ = load_net(net_path)
                outs = [want[k][0] for k in order]
                assert netir.check_outputs(net, [rows[k] for k in order], outs) == ([], 0)
            assert sum(compiles) == 1 and len(analyses) == 1

    def test_audit_from_file(self, dataset_csv, tmp_path, capsys):
        net = str(tmp_path / "net.json")
        rep = str(tmp_path / "audit.json")
        run(["build", "--mode", "sqrt", "--in", dataset_csv, "--out", net])
        capsys.readouterr()
        assert run(["audit", "--net", net, "--in", dataset_csv,
                    "--report", rep]) == 0
        obj = json.loads(open(rep).read())
        assert obj["pass"] and obj["theorem"] == "sqrt"

    def test_audit_without_builder_record_exit_2(self, dataset_csv, tmp_path):
        ds = random_dataset(4, 2, 2, seed=3)
        from memnet.pipeline import assemble_sqrt
        net, _ = assemble_sqrt(ds)
        path = tmp_path / "bare.json"
        save_net(net, path)  # no builder payload
        assert run(["audit", "--net", str(path), "--in", dataset_csv]) == 2

    def test_oracle_suites(self, capsys):
        assert run(["oracle", "triangle"]) == 0
        assert run(["oracle", "bits", "--n-max", "3"]) == 0
        events = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
        assert all(e["pass"] for e in events)

    def test_oracle_rejects_oversized_sweep(self):
        assert run(["oracle", "bits", "--n-max", "15"]) == 2

    def test_oracle_surfaces_witness_on_sabotage(self, monkeypatch, capsys):
        from memnet import gadgets

        real = gadgets.build_bit_extractor

        def sabotaged(n, i, j):
            net = real(n, i, j)
            last = net.layers[-1]
            from memnet.exactnum import DyadicRational
            from memnet.netir import AffineLayer, LayeredNet
            rows = list(last.rows)
            rows[2] = tuple((idx, DyadicRational(w.sign * w.mantissa, w.exponent + 1))
                            for idx, w in rows[2])
            bad = AffineLayer(last.in_dim, last.out_dim, rows, last.biases, False)
            return LayeredNet(net.input_dim, net.layers[:-1] + (bad,),
                              net.provenance, net.output_nonneg)

        monkeypatch.setattr(gadgets, "build_bit_extractor", sabotaged)
        assert run(["oracle", "bits", "--n-max", "2"]) == 1
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["witnesses"]


class TestSweepAndRegression:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--mode", "sqrt", "--N", "8,16", "--d", "1",
                    "--C", "2", "--out", str(out)]) == 0
        import csv
        rows = list(csv.DictReader(open(out)))
        assert [r["N"] for r in rows] == ["8", "16"]
        assert all(r["memorized"] == "1" for r in rows)

    def test_builders_are_looked_up_at_call_time(self, tmp_path, monkeypatch):
        """build and sweep call whatever the module attributes hold when they
        run, so a rebinding (such as a tracer's) sees every build."""
        from memnet import pipeline, variants
        calls = []

        def recording(name, real):
            return lambda *a, **k: calls.append(name) or real(*a, **k)

        for module, name in ((pipeline, "assemble_sqrt"), (variants, "assemble_bounded_depth")):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        ds = random_dataset(16, 1, 2, seed=1)
        data = tmp_path / "data.csv"
        write_csv(data, ds.points, ds.labels)
        for argv in (["build", "--in", str(data)],
                     ["build", "--mode", "depth", "--L", "2", "--in", str(data)],
                     ["sweep", "--N", "8"], ["sweep", "--mode", "depth", "--N", "8", "--L", "1,2"]):
            assert run(argv) == 0
        assert calls == ["assemble_sqrt", "assemble_bounded_depth", "assemble_sqrt",
                         "assemble_bounded_depth", "assemble_bounded_depth"]

    def test_regression_build(self, tmp_path, capsys):
        pts = random_separated_points(12, 1, seed=4)
        labels = random_regression_labels(12, seed=4)
        data = tmp_path / "reg.csv"
        write_csv(data, pts, labels)
        report = tmp_path / "rep.json"
        assert run(["build", "--mode", "regression", "--epsilon", "1/4",
                    "--in", str(data), "--report", str(report)]) == 0
        rep = json.loads(open(report).read())
        assert rep["theorem"] == "regression" and rep["pass"]

    def test_regression_requires_epsilon(self, tmp_path):
        pts = random_separated_points(6, 1, seed=5)
        labels = random_regression_labels(6, seed=5)
        data = tmp_path / "reg.csv"
        write_csv(data, pts, labels)
        assert run(["build", "--mode", "regression", "--in", str(data)]) == 2

    @pytest.mark.parametrize("mode", [["sqrt"], ["depth", "--L", "2"],
                                      ["bits", "--B", "2"], ["regression", "--epsilon", "1/8"]],
                             ids=["sqrt", "depth", "bits", "regression"])
    def test_audit_report_equals_build_report(self, tmp_path, mode):
        ds = random_dataset(24, 2, 4, seed=3)
        labels = (random_regression_labels(24, seed=3) if mode[0] == "regression"
                  else ds.labels)
        data = tmp_path / "data.csv"
        write_csv(data, ds.points, labels)
        net, built, audited = (tmp_path / f for f in ("net.json", "build.json", "audit.json"))
        assert run(["build", "--mode", *mode, "--in", str(data), "--out", str(net),
                    "--report", str(built), "--seed", "5"]) == 0
        assert run(["audit", "--net", str(net), "--in", str(data),
                    "--report", str(audited)]) == 0
        assert audited.read_bytes() == built.read_bytes()

    def test_determinism_byte_identical(self, dataset_csv, tmp_path):
        outs = []
        for tag in ("a", "b"):
            net = tmp_path / f"net_{tag}.json"
            rep = tmp_path / f"rep_{tag}.json"
            assert run(["build", "--mode", "sqrt", "--in", dataset_csv,
                        "--out", str(net), "--report", str(rep),
                        "--seed", "13"]) == 0
            outs.append((net.read_bytes(), rep.read_bytes()))
        assert outs[0] == outs[1]

    def test_loaded_net_round_trips(self, dataset_csv, tmp_path):
        net_path = tmp_path / "net.json"
        run(["build", "--mode", "sqrt", "--in", dataset_csv,
             "--out", str(net_path)])
        net, builder = load_net(net_path)
        assert builder["theorem"] == "sqrt"
        assert len(net.layers) == json.loads(net_path.read_text())["metrics"]["depth"]

    def test_json_dataset_input(self, tmp_path):
        ds = random_dataset(10, 2, 3, seed=6)
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"points": [[str(c) for c in p] for p in ds.points],
                                    "labels": list(ds.labels), "C": ds.num_classes}))
        net = tmp_path / "net.json"
        assert run(["build", "--mode", "sqrt", "--in", str(data),
                    "--out", str(net)]) == 0
        assert run(["verify", "--net", str(net), "--in", str(data)]) == 0


class TestHostileInput:
    """Crafted network files and points: exit codes 0-3, never a traceback."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hostile")
        data = root / "data.csv"
        ds = random_dataset(6, 2, 2, seed=4)
        write_csv(data, ds.points, ds.labels)
        net = root / "net.json"
        assert run(["build", "--in", str(data), "--out", str(net)]) == 0
        return root, str(data), json.loads(net.read_text())

    @staticmethod
    def _commands(root, data, obj):
        path = root / "crafted.json"
        path.write_text(json.dumps(obj))
        for argv in (["verify", "--net", str(path), "--in", data],
                     ["eval", "--net", str(path), "--in", data]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = run(argv)
            for line in out.getvalue().splitlines():
                json.loads(line)
            yield rc

    @pytest.fixture(scope="class")
    def depth_saved(self, tmp_path_factory):
        """A 1-D depth build: its stacked layers are written in the sparse form."""
        root = tmp_path_factory.mktemp("hostile-depth")
        data = root / "data.csv"
        ds = random_dataset(40, 1, 4, seed=4)
        write_csv(data, ds.points, ds.labels)
        net = root / "net.json"
        assert run(["build", "--mode", "depth", "--L", "2", "--in", str(data),
                    "--out", str(net)]) == 0
        return root, str(data), json.loads(net.read_text())

    @pytest.mark.parametrize("net, craft", [("saved", craft) for craft in (
        lambda obj: obj["layers"].clear() or obj,
        lambda obj: obj.update(layers=None) or obj,
        lambda obj: obj["layers"][0].update(w=5) or obj,
        lambda obj: [obj],
        lambda obj: obj.update(input_dim=2.0) or obj,
        lambda obj: obj["layers"][0]["b"][0].update(e=float("inf")) or obj,
        lambda obj: obj["layers"][0].update(passthrough=[len(obj["layers"][0]["b"])]) or obj,
        lambda obj: obj["layers"][0]["b"].__setitem__(
            0, {"s": 1, "m": "1", "e": MAX_EXPONENT + 1}) or obj,
        lambda obj: obj["layers"][0]["b"].__setitem__(
            0, {"s": -1, "m": "3", "e": -MAX_EXPONENT - 1}) or obj,
        lambda obj: obj["layers"][0]["b"].__setitem__(
            0, {"s": 1, "m": "1" + "0" * (MAX_MANTISSA_BITS // 4 - 1) + "1", "e": 0}) or obj,
        lambda obj: obj["layers"][0]["b"].__setitem__(0, {"s": [], "m": "1", "e": 0}) or obj,
        lambda obj: obj["layers"][0]["w"][0].__setitem__(
            0, {"s": 1, "m": {}, "e": 0}) or obj,
        lambda obj: _edit_dense_cell(obj, True, lambda c: {"s": 0, "m": "zz"}),
        lambda obj: _edit_dense_cell(obj, True, lambda c: {"s": False, "m": "5", "e": 1}),
        lambda obj: _edit_dense_cell(obj, False, lambda c: {**c, "s": 1.5 * c["s"]}),
        lambda obj: _edit_dense_cell(obj, False, lambda c: {**c, "m": f" 0x{c['m']} "}),
        lambda obj: _edit_dense_cell(obj, False, lambda c: {**c, "e": str(c["e"])}),
        lambda obj: _edit_dense_cell(obj, False, lambda c: {**c, "e": float(c["e"])}),
        lambda obj: obj["layers"][0].update(relu=1) or obj,
        lambda obj: obj["layers"][0].update(relu="no") or obj,
        lambda obj: obj["layers"][0].update(passthrough=[True]) or obj,
        lambda obj: obj.update(output_nonneg="yes") or obj,
        lambda obj: obj.update(provenance=5) or obj,
        lambda obj: obj.update(format_version=True) or obj,
        lambda obj: _edit_dense_row(obj, list.pop),
        lambda obj: _edit_dense_row(obj, lambda row: row.append({"s": 0, "m": "0", "e": 0})),
        lambda obj: _edit_dense_row(obj, list.clear),
    )] + [("depth_saved", craft) for craft in (
        lambda obj: obj.update(input_dim=True) or obj,
        lambda obj: _edit_sparse_column(obj, lambda col: col + 0.25),
        lambda obj: _edit_sparse_column(obj, str),
        lambda obj: _edit_sparse_column(obj, lambda col: True),
        lambda obj: _edit_sparse_in_dim(obj, str),
        lambda obj: _edit_sparse_in_dim(obj, lambda n: n + 0.5),
        lambda obj: _split_sparse_term(obj),
    )], ids=["no-layers", "layers-null", "w-int", "top-level-list", "float-input-dim",
             "infinite-exponent",
             "passthrough-past-out-dim", "exponent-past-cap", "negative-exponent-past-cap",
             "mantissa-past-cap", "unhashable-sign", "unhashable-mantissa",
             "dense-zero-hex-zz", "dense-zero-false-sign", "sign-one-and-a-half",
             "mantissa-0x-padded", "exponent-string", "exponent-float",
             "relu-int", "relu-string", "passthrough-bool",
             "output-nonneg-string", "provenance-int", "bool-format-version",
             "dense-row-short", "dense-row-long", "dense-row-empty", "bool-input-dim",
             "sparse-column-float", "sparse-column-string", "sparse-column-bool",
             "sparse-in-dim-string", "sparse-in-dim-float", "sparse-column-twice"])
    def test_crafted_net_exit_2(self, request, net, craft):
        root, data, obj = request.getfixturevalue(net)
        assert list(self._commands(root, data, craft(copy.deepcopy(obj)))) == [2, 2]

    def test_deeply_nested_file_exit_2(self, saved, tmp_path):
        _, data, _ = saved
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert run(["verify", "--net", str(path), "--in", data]) == 2

    def test_values_at_the_caps_load(self, saved):
        root, data, obj = saved
        obj = copy.deepcopy(obj)
        obj["layers"][-1]["b"][0] = {"s": 1, "m": "1", "e": -MAX_EXPONENT}
        verify_rc, eval_rc = self._commands(root, data, obj)
        assert verify_rc == 1  # loaded, and the label is now off by 2^-MAX_EXPONENT
        assert eval_rc in (0, 2)  # 2 where int-to-decimal conversion is limited

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_net_exit_codes(self, saved, data):
        root, csv_path, obj = saved
        obj = copy.deepcopy(obj)
        paths = list(_json_paths(obj))
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from(_HOSTILE_VALUES))
        if not path:
            obj = value
        else:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        for rc in self._commands(root, csv_path, obj):
            assert rc in (0, 1, 2, 3)

    def test_eval_wrong_dimension_exit_2(self, saved, tmp_path):
        root, _, obj = saved
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        points = tmp_path / "points.csv"
        points.write_text("x1,x2,x3\n1,2,3\n")
        assert run(["eval", "--net", str(net), "--in", str(points)]) == 2

    @pytest.fixture(scope="class")
    def regression_saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hostile-regression")
        data = root / "reg.csv"
        write_csv(data, random_separated_points(6, 2, seed=5),
                  random_regression_labels(6, seed=5))
        net = root / "reg.net.json"
        assert run(["build", "--mode", "regression", "--epsilon", "1/4",
                    "--in", str(data), "--out", str(net)]) == 0
        return str(net)

    @staticmethod
    def _one_error_line(argv):
        """Exit code of a command that must print nothing and one stderr line."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        return rc

    def test_audit_against_a_subset_of_the_data_exit_2(self, saved, tmp_path):
        """The ceilings come from the builder record, so audit refuses data
        the record does not describe: here two of the six training points."""
        _, data, obj = saved
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        subset = tmp_path / "subset.csv"
        with open(data) as fh:
            subset.write_text("".join(fh.readlines()[:3]))
        assert self._one_error_line(["audit", "--net", str(net), "--in", str(subset)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("N", 7), ("d", 3), ("C", 3), ("delta_sq", "1/1000000000000"), ("r_sq", "1/2")])
    def test_audit_of_a_record_for_other_data_exit_2(self, saved, tmp_path, capsys,
                                                     field, value):
        _, data, obj = saved
        obj = copy.deepcopy(obj)
        obj["builder"][field] = value
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        assert run(["audit", "--net", str(net), "--in", data]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "ValueError: the builder record does not describe this dataset: "
            f"its {field} differ"]

    @pytest.mark.parametrize("edit", [False, True], ids=["untouched", "edited"])
    def test_audit_derives_a_regression_class_count(self, regression_saved, tmp_path,
                                                    capsys, edit):
        """audit computes a regression dataset's C from its labels and the
        record's epsilon and label_lo, so a record with an edited C is refused."""
        obj = json.loads(open(regression_saved).read())
        if edit:
            obj["builder"]["C"] = 1000
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        data = os.path.join(os.path.dirname(regression_saved), "reg.csv")
        rc = run(["audit", "--net", str(net), "--in", data])
        out, err = capsys.readouterr()
        if edit:
            assert rc == 2 and out == "" and err.splitlines() == [
                "ValueError: the builder record does not describe this dataset: its C differ"]
        else:
            assert rc == 0 and err == "" and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    @pytest.mark.parametrize("command", ["build", "verify", "eval", "audit"])
    def test_coordinate_dividing_by_zero_exit_2(self, saved, tmp_path, command, suffix):
        _, _, obj = saved
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        data = tmp_path / f"points{suffix}"
        if suffix == ".csv":
            data.write_text("x1,x2,label\n1/0,2,1\n")
        else:
            data.write_text(json.dumps({"points": [["1/0", "2"]], "labels": [1]}))
        argv = [command, "--in", str(data)]
        if command != "build":
            argv += ["--net", str(net)]
        assert self._one_error_line(argv) == 2

    @pytest.mark.parametrize("command", ["build", "verify", "audit"])
    def test_regression_label_dividing_by_zero_exit_2(self, regression_saved, tmp_path,
                                                       command):
        data = tmp_path / "reg.csv"
        data.write_text("x1,x2,label\n1,2,1/0\n3,4,1/2\n")
        if command == "build":
            argv = ["build", "--mode", "regression", "--epsilon", "1/4"]
        else:
            argv = [command, "--net", regression_saved]
        assert self._one_error_line(argv + ["--in", str(data)]) == 2

    def test_epsilon_dividing_by_zero_exit_2(self, tmp_path):
        data = tmp_path / "reg.csv"
        data.write_text("x1,label\n1,1/2\n3,1/4\n")
        assert self._one_error_line(["build", "--mode", "regression", "--epsilon", "1/0",
                                     "--in", str(data)]) == 2

    @pytest.mark.parametrize("epsilon,label", [("1/3", "1/2"), ("1/2", "1/3")],
                             ids=["epsilon", "midpoint-bias"])
    def test_non_dyadic_regression_head_exit_2(self, tmp_path, monkeypatch, epsilon, label):
        """A non-dyadic epsilon, or a lowest label that puts the grid midpoint
        off the dyadics, is refused before the base net is built."""
        from memnet import pipeline

        def unreachable(*args, **kwargs):
            raise AssertionError("the base net was built")

        monkeypatch.setattr(pipeline, "assemble_sqrt", unreachable)
        data = tmp_path / "reg.csv"
        data.write_text(f"x1,label\n1,{label}\n3,1\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(["build", "--mode", "regression", "--epsilon", epsilon,
                      "--in", str(data)])
        assert (rc, out.getvalue()) == (2, "")
        assert err.getvalue() == ("ParameterError: epsilon and label range must be "
                                  "dyadic rationals\n")

    @pytest.mark.parametrize("rows", [["1e200,1", "3e200,2"], ["0,1", "1e-200,2"]],
                             ids=["r-past-float-range", "delta-below-float-range"])
    def test_dataset_past_the_float_range(self, tmp_path, rows):
        """Exact r_sq overflows float64, or delta_sq underflows it to 0."""
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n" + "\n".join(rows) + "\n")
        net = tmp_path / "net.json"
        assert run(["build", "--in", str(data), "--out", str(net)]) == 0
        assert run(["audit", "--net", str(net), "--in", str(data)]) == 0

    def test_json_numbers_are_exact_decimals(self, tmp_path):
        data = tmp_path / "data.json"
        data.write_text('{"points": [[0.5, 1], [0.1, 3]], "labels": [1, 2]}')
        net = tmp_path / "net.json"
        for argv in (["build", "--out", str(net)], ["verify", "--net", str(net)],
                     ["eval", "--net", str(net)], ["audit", "--net", str(net)]):
            assert run(argv + ["--in", str(data)]) == 0
        assert load_dataset(str(data)).points[1] == (Fraction(1, 10), 3)
        assert read_dataset(str(data))[0][1] == (Fraction(1, 10), 3)
        reg = tmp_path / "reg.json"
        reg.write_text('{"points": [[0.5, 1], [0.1, 3]], "labels": [0.5, 0.25]}')
        for argv in (["build", "--mode", "regression", "--epsilon", "1/8", "--out", str(net)],
                     ["audit", "--net", str(net)]):
            assert run(argv + ["--in", str(reg)]) == 0

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["build", "verify", "eval", "audit"])
    def test_json_nan_or_infinity_exit_2(self, saved, tmp_path, command, constant):
        _, _, obj = saved
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        data = tmp_path / "points.json"
        data.write_text('{"points": [[%s, 1], [2, 3]], "labels": [1, 2]}' % constant)
        argv = [command, "--in", str(data)]
        if command != "build":
            argv += ["--net", str(net)]
        assert self._one_error_line(argv) == 2

    @pytest.mark.parametrize("suffix, text", [
        (".json", '{"labels": [1, 2]}'),
        (".json", '{"points": 5, "labels": [1, 2]}'),
        (".json", '{"points": [5, 6], "labels": [1, 2]}'),
        (".json", '{"points": [[1, 2], [3, 4]], "labels": 7}'),
        (".json", '{"points": [[1, 2], [3, 4]], "labels": [1]}'),
        (".json", '"x"'),
        (".json", "[1, 2]"),
        (".json", '{"points": [[1, 2], [3, 4]], "labels": [1, 2], "C": 4.0}'),
        (".json", '{"points": [[1, 2], [3, 4]], "labels": [1, 2], "C": true}'),
        (".json", '{"points": [[true, 2], [3, 4]], "labels": [1, 2]}'),
        (".json", "[" * 100000 + "]" * 100000),
        (".csv", ""),
        (".csv", "x1,x2,label\n%s,1,1\n" % ("1" * 200000)),
    ], ids=["no-points", "points-int", "point-int", "labels-int", "labels-short",
            "top-level-string", "top-level-list", "C-float", "C-bool", "bool-coordinate",
            "deeply-nested", "empty-csv", "csv-field-past-the-csv-limit"])
    @pytest.mark.parametrize("command", ["build", "verify", "eval", "audit"])
    def test_malformed_dataset_exit_2(self, saved, tmp_path, command, suffix, text):
        _, _, obj = saved
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        data = tmp_path / f"points{suffix}"
        data.write_text(text)
        argv = [command, "--in", str(data)]
        if command != "build":
            argv += ["--net", str(net)]
        assert self._one_error_line(argv) == 2

    def test_numbers_at_the_cap_build_verify_and_audit(self, tmp_path):
        cap = MAX_NUMBER_DIGITS
        data = tmp_path / "data.csv"
        data.write_text(f"x1,label\n1e{cap},1\n1e-{cap},2\n")
        net = tmp_path / "net.json"
        assert run(["build", "--in", str(data), "--out", str(net)]) == 0
        for command in ("verify", "audit"):
            assert run([command, "--net", str(net), "--in", str(data)]) == 0

    @pytest.mark.parametrize("suffix, number", [
        (".csv", f"1e{MAX_NUMBER_DIGITS + 1}"), (".csv", f"1e-{MAX_NUMBER_DIGITS + 1}"),
        (".csv", "1e3000000"), (".csv", "-1E-3_000_000"),
        (".csv", "1/" + "3" * (MAX_NUMBER_DIGITS + 1)),
        (".json", f"1e{MAX_NUMBER_DIGITS + 1}"), (".json", "1e3000000"),
        (".json", str(10 ** MAX_NUMBER_DIGITS + 1)),
    ], ids=["csv-large", "csv-small", "csv-huge-exponent", "csv-huge-negative-exponent",
            "csv-long-denominator", "json-large", "json-huge-exponent", "json-long-int"])
    @pytest.mark.parametrize("command", ["build", "eval"])
    def test_numbers_past_the_cap_exit_2(self, saved, tmp_path, command, suffix, number):
        _, _, obj = saved
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        data = tmp_path / f"points{suffix}"
        if suffix == ".csv":
            data.write_text(f"x1,x2,label\n{number},1,1\n2,3,2\n")
        else:
            data.write_text('{"points": [[%s, 1], [2, 3]], "labels": [1, 2]}' % number)
        argv = [command, "--in", str(data)]
        if command != "build":
            argv += ["--net", str(net)]
        assert self._one_error_line(argv) == 2

    @pytest.mark.parametrize("text", [
        "x1,label\n1,1\n2,1%s1\n", '{"points": [[1], [2]], "labels": [1, 1%s1]}',
        '{"points": [[1], [2]], "labels": [1, 2], "C": 1%s1}',
    ], ids=["csv-label", "json-label", "json-C"])
    def test_class_count_past_the_cap_exit_2(self, tmp_path, text):
        data = tmp_path / ("data.csv" if text.startswith("x1") else "data.json")
        data.write_text(text % ("0" * MAX_NUMBER_DIGITS))
        assert self._one_error_line(["build", "--in", str(data)]) == 2

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-decimal limit in this interpreter")
    def test_record_past_the_decimal_limit_exit_2(self, tmp_path):
        """Numbers under the cap whose delta_sq has a denominator of about
        6,000 digits: the builder record cannot be written."""
        p, q, r = (10 ** (MAX_NUMBER_DIGITS - 1) + k for k in (7, 9, 13))
        data = tmp_path / "data.csv"
        data.write_text(f"x1,x2,x3,label\n1/{p},1/{q},1/{r},1\n0,0,0,2\n")
        net = tmp_path / "net.json"
        assert self._one_error_line(["build", "--in", str(data), "--out", str(net)]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--d", "0", "--N", "8"], ["sweep", "--C", "0", "--N", "8"],
        ["sweep", "--N", "0"], ["sweep", "--mode", "depth", "--L", "100", "--N", "8"],
        ["sweep", "--N", "8", "--out", "{missing}"],
        ["oracle", "bits", "--n-max", "0"], ["oracle", "bits", "--n-max", "-3"],
    ], ids=["sweep-d-0", "sweep-C-0", "sweep-N-0", "sweep-L-past-sqrt-N",
            "sweep-out-in-missing-directory", "oracle-n-max-0", "oracle-n-max-negative"])
    def test_sweep_and_oracle_refusals_exit_2(self, tmp_path, argv):
        missing = str(tmp_path / "missing" / "sweep.csv")
        assert self._one_error_line([a.format(missing=missing) for a in argv]) == 2

    def test_unwritable_output_exit_2(self, dataset_csv, tmp_path):
        out = tmp_path / "missing" / "net.json"
        assert self._one_error_line(["build", "--in", dataset_csv, "--out", str(out)]) == 2

    def test_float64_past_the_float_range(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n1e400,1\n3e400,2\n")
        net = tmp_path / "net.json"
        assert run(["build", "--in", str(data), "--out", str(net)]) == 0
        capsys.readouterr()
        for command in ("verify", "eval"):
            assert run([command, "--net", str(net), "--in", str(data),
                        "--precision", "float64"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        verify, *evals = [json.loads(line, parse_constant=refuse) for line in lines]
        # float64 overflows to inf on both points: error inf, outputs inf - inf
        assert verify["max_abs_error"] == "inf"
        assert [e["output"] for e in evals] == ["nan", "nan"]

    def test_report_past_the_float_range(self, tmp_path):
        """The projection ceiling overflows to inf; both reports write it as "inf"."""
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n1e400,1\n3e400,2\n")
        net, built, audited = (tmp_path / name for name in ("net.json", "b.json", "a.json"))
        assert run(["build", "--in", str(data), "--out", str(net),
                    "--report", str(built)]) == 0
        assert run(["audit", "--net", str(net), "--in", str(data),
                    "--report", str(audited)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert built.read_bytes() == audited.read_bytes()
        report = json.loads(built.read_text(), parse_constant=refuse)
        assert report["ceilings"]["projection_range"] == "inf"
        assert report["passes"]["projection_range"] is True

    def test_net_past_the_load_caps_is_not_saved(self, dataset_csv, tmp_path,
                                                  monkeypatch):
        """build exits 2 and writes no file when load_net would refuse the net;
        the caps are lowered so that a small build passes them."""
        from memnet import netir
        net = tmp_path / "net.json"
        monkeypatch.setattr(netir, "MAX_EXPONENT", 2)
        assert self._one_error_line(["build", "--in", dataset_csv,
                                     "--out", str(net)]) == 2
        assert not net.exists()

    @staticmethod
    def _audit(root, data, obj):
        path = root / "crafted-builder.json"
        path.write_text(json.dumps(obj))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(["audit", "--net", str(path), "--in", data])
        for line in out.getvalue().splitlines():
            json.loads(line)
        return rc

    @pytest.mark.parametrize("field, value", [
        (key, value)
        for key in ("N", "d", "C", "seed", "rho", "c", "bucket_count", "bucket_size")
        for value in ("x", 2.5, None, [3], True)
    ] + [
        (key, value)
        for key in ("R_realized", "delta_sq", "r_sq")
        for value in ("x", "1/0", "", 2.5, [1], {"s": 1})
    ] + [("rho", -1), ("N", 0), ("delta_sq", "0"), ("delta_sq", "-4"),
         ("theorem", 5), ("theorem", None)])
    def test_crafted_builder_record_exit_2(self, saved, field, value):
        root, data, obj = saved
        obj = copy.deepcopy(obj)
        obj["builder"][field] = value
        assert self._audit(root, data, obj) == 2

    @pytest.mark.parametrize("theorem, missing", [
        ("bounded_depth", "L"), ("bounded_depth", "subnet_count"),
        ("bounded_bits", "B"), ("regression", "epsilon"), ("regression", "label_lo"),
    ])
    def test_builder_record_lacking_a_mode_field_exit_2(self, saved, theorem, missing):
        root, data, obj = saved
        obj = copy.deepcopy(obj)
        obj["builder"].update(theorem=theorem, L=2, B=2, subnet_count=1,
                              epsilon="1/4", label_lo="0")
        obj["builder"][missing] = None
        assert self._audit(root, data, obj) == 2

    @pytest.mark.parametrize("field, value", [
        ("epsilon", "x"), ("epsilon", "0"), ("epsilon", "-1/4"), ("epsilon", "1/0"),
        ("label_lo", "x"), ("label_lo", 2.5),
    ])
    def test_crafted_regression_record_exit_2(self, regression_saved, tmp_path,
                                              field, value):
        obj = json.loads(open(regression_saved).read())
        obj["builder"][field] = value
        data = tmp_path / "reg.csv"
        write_csv(data, random_separated_points(6, 2, seed=5),
                  random_regression_labels(6, seed=5))
        assert self._audit(tmp_path, str(data), obj) == 2

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_builder_record_exit_codes(self, saved, data):
        root, csv_path, obj = saved
        obj = copy.deepcopy(obj)
        key = data.draw(st.sampled_from(sorted(obj["builder"])))
        if data.draw(st.booleans()):
            del obj["builder"][key]
        else:
            obj["builder"][key] = data.draw(st.sampled_from(_HOSTILE_VALUES))
        assert self._audit(root, csv_path, obj) in (0, 1, 2, 3)

    def test_module_help(self):
        import memnet
        src = os.path.dirname(os.path.dirname(memnet.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "memnet.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: memnet")


_HOSTILE_VALUES = [None, True, 5, -1, 2.5, float("inf"), "x", "zz", [], {}, [[]], [5],
                   {"s": 1},
                   {"s": 1, "m": "1", "e": MAX_EXPONENT},
                   {"s": 1, "m": "1", "e": MAX_EXPONENT + 1},
                   MAX_EXPONENT + 1, -MAX_EXPONENT - 1,
                   "1" + "0" * (MAX_MANTISSA_BITS // 4 - 1) + "1"]


def _edit_dense_cell(obj, zero: bool, edit):
    """obj with its first zero (or nonzero) dense weight cell c replaced by edit(c)."""
    row, k = next((row, k) for spec in obj["layers"] if isinstance(spec["w"], list)
                  for row in spec["w"] for k, c in enumerate(row) if (c["s"] == 0) == zero)
    row[k] = edit(row[k])
    return obj


def _edit_dense_row(obj, edit):
    """obj after edit(row) on a dense row, not its layer's first, whose last cell is zero."""
    edit(next(row for spec in obj["layers"] if isinstance(spec["w"], list)
              for row in spec["w"][1:] if row[-1]["s"] == 0))
    return obj


def _split_sparse_term(obj):
    """obj with its first sparse term [c, w] written as the two terms [c, w/2]."""
    row = next(row for spec in obj["layers"] if isinstance(spec["w"], dict)
               for row in spec["w"]["sparse"] if row)
    column, cell = row[0]
    row[0:1] = [[column, {**cell, "e": cell["e"] - 1}] for _ in range(2)]
    return obj


def _edit_sparse_in_dim(obj, edit):
    """obj with the in_dim n of its first sparse layer replaced by edit(n)."""
    w = next(spec["w"] for spec in obj["layers"] if isinstance(spec["w"], dict))
    w["in_dim"] = edit(w["in_dim"])
    return obj


def _edit_sparse_column(obj, edit):
    """obj with the first sparse term on column 1 given column edit(1)."""
    term = next(term for spec in obj["layers"] if isinstance(spec["w"], dict)
                for row in spec["w"]["sparse"] for term in row if term[0] == 1)
    term[0] = edit(term[0])
    return obj


def _json_paths(node, path=()):
    """Every path (a tuple of keys and indices) into a parsed JSON document."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _json_paths(value, path + (index,))
