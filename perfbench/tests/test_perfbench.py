"""The benchmark's own tests.

    python3 -m pytest perfbench/tests

Runs every workload at smoke-test size, checks the reference evaluator
catches a corrupted network, and checks the traced run covers every
import site of the wrapped functions.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import refeval  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scratch() -> Path:
    (BENCH / ".work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=BENCH / ".work", prefix="test-"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    prefix = "layer" if trace else "metric"
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith(prefix + " ")}
    for m in spec:
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["netir.eval_exact.stage.matcher_s"]["value"] > 0
        assert result["metrics"]["cli.untraced_s"]["value"] > 0
    if trace and workload == "sqrt-decimal":  # its only build is a sqrt build
        assert result["metrics"]["netir.eval_exact.calls_per_point"]["value"] == 2


def test_traced_sqrt_build_evaluates_each_point_twice():
    proc = _run("--workload", "int-mix", "--seed", "4", "--seconds", "0",
                "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    per_build = [line for line in proc.stdout.splitlines()
                 if line.startswith("traced build ")]
    assert len(per_build) == 4
    assert "--mode sqrt" in per_build[0] and "(2 per point)" in per_build[0]
    assert "--mode regression" in per_build[3] and "(4 per point)" in per_build[3]


def test_reference_check_catches_flipped_weight():
    import memnet.cli
    from memnet import datagen

    work = _scratch()
    try:
        data = work / "data.csv"
        points = datagen.random_separated_points(16, 2, 5)
        datagen.write_csv(data, points, [1 + i % 3 for i in range(16)])
        net = work / "net.json"
        assert memnet.cli.main(["build", "--in", str(data), "--out", str(net)]) == 0
        clean = refeval.check_net(net, data, 8, 0)
        assert clean["checked"] == 8 and clean["mismatches"] == []

        obj = json.loads(net.read_text())
        last = obj["layers"][-1]["w"][0]
        col = next(i for i, d in enumerate(last) if d["s"])
        last[col]["s"] = -last[col]["s"]
        flipped = work / "flipped.json"
        flipped.write_text(json.dumps(obj))
        bad = refeval.check_net(flipped, data, 8, 0)
        assert bad["checked"] == 8 and bad["mismatches"]
        failures: list = []
        cmd = Command("build", (), 16, str(flipped), str(data))
        checked, _, _ = run.reference_checks([cmd], 0, failures, [])
        assert checked == 8 and len(failures) == len(bad["mismatches"])
    finally:
        shutil.rmtree(work)


def test_tracer_rebinds_every_import_site():
    import importlib

    modules = [importlib.import_module(m) for m in tracing.MODULES]
    originals = [getattr(importlib.import_module(f"memnet.{home}"), fn)
                 for home, fn, _, _ in tracing.TARGETS]
    sites = [(mod, attr) for mod in modules for attr, v in vars(mod).items()
             if any(v is o for o in originals)]
    assert len(sites) > len(originals)  # names bound in several modules
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, attr in sites:
            value = getattr(mod, attr)
            assert not any(value is o for o in originals), (mod.__name__, attr)
    finally:
        tracer.uninstall()
    for mod, attr in sites:
        assert any(getattr(mod, attr) is o for o in originals)


def test_fails_without_the_program():
    bare = _scratch()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run("--workload", "sqrt-int", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
