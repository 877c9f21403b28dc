"""memnet benchmark: one workload as a closed loop with one client.

    python3 perfbench/run.py --workload int-mix --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The process imports memnet from the
checkout's `src/`, writes the workload's input CSVs from `--seed`, then
repeats the workload's session of `memnet` commands (calling
`memnet.cli.main` in-process, one command after another) until the next
repetition would end after `--seconds`.  Every stdout line of every command is parsed and
checked; after the timed loop the saved networks are checked again by an
independent Fraction evaluator (refeval.py).

Set-up time is measured by starting fresh interpreters that import memnet
and write the inputs, several times, and taking the median.

End-to-end times are reference-speed seconds: a fixed loop (`probe`) is
timed before every command, and each session's wall times are scaled by
PROBE_REF_S over the session's median probe time.

With `--trace 0` the last stdout line carries the end-to-end metrics
(medians over sessions).  With `--trace 1` untraced and traced sessions
alternate; the traced ones wrap memnet's public functions (tracing.py) and
the last line carries the per-layer metrics, per session.  Spans are
written to perfbench/.work/trace-<workload>-s<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import refeval
import tracing
from workloads import BUILD_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SETUP_REPEATS = 7
REF_SAMPLE = 8  # training points per saved net for the reference check

# Host-speed probe: a fixed pure-Python loop, timed between commands.  The
# host this benchmark was written on changes speed by 1.3-2x over minutes
# (the probe's own time moves with it), so end-to-end times are reported
# as reference-speed seconds: wall time * PROBE_REF_S / (median probe time
# around it).  See README.md, "Host-speed reference".
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.020

END_TO_END = (("setup_s", "s"), ("build_s", "s"), ("verify_exact_s", "s"),
              ("verify_float_s", "s"), ("audit_s", "s"), ("oracle_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB"), ("net_bytes", "B"))


def import_memnet():
    """memnet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import memnet
        import memnet.cli
        import memnet.datagen
    except ImportError as exc:
        raise SystemExit(f"cannot import memnet from {src}: {exc}")
    if src.resolve() not in Path(memnet.__file__).resolve().parents:
        raise SystemExit(f"memnet was imported from {memnet.__file__}, not {src}")
    return memnet


def probe() -> float:
    """Seconds for PROBE_LOOPS iterations of a fixed integer loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters doing the run's set-up and exiting,
    and the host-speed probes taken around them."""
    times, probes = [], [probe()]
    for k in range(SETUP_REPEATS):
        target = WORK / f"setup-{os.getpid()}-{k}"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(target)]
        if args.tiny:
            argv.append("--tiny")
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        probes.append(probe())
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return times, probes


def check_output(cmd, rc, text: str) -> str | None:
    """None when the command's exit code and JSON lines say it succeeded."""
    if rc != 0:
        return f"exit code {rc}"
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return "no output"
    try:
        events = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        return "non-JSON stdout line"
    last = events[-1]
    if not isinstance(last, dict) or last.get("event") != cmd.argv[0]:
        return "unexpected event"
    if cmd.kind == "verify_float":
        return None if "max_abs_error" in last else "no max_abs_error"
    if last.get("pass") is not True:
        return "pass is not true"
    if cmd.kind in ("build", "audit") and last.get("memorized") is not True:
        return "memorized is not true"
    return None


class Session:
    """One pass over a workload's commands, with timings and failures."""

    def __init__(self, memnet, commands, tracer=None):
        self.kind_s = defaultdict(float)
        self.failures: list = []
        self.commands: list = []
        main = memnet.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        clock = time.perf_counter
        self.probes = []
        for cmd in commands:
            self.probes.append(probe())
            root = len(tracer.spans) if tracer is not None else 0
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = main(list(cmd.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash is a failed operation; keep running
                    traceback.print_exc()
                    rc = None
            wall = clock() - t0
            self.kind_s[cmd.kind] += wall
            problem = check_output(cmd, rc, out.getvalue())
            if problem:
                self.failures.append(f"{' '.join(cmd.argv[:2])}: {problem} "
                                     f"{err.getvalue().strip()[-300:]}")
            record = {"argv": list(cmd.argv), "s": wall}
            if tracer is not None:
                spans = tracer.spans
                record["untraced_s"] = wall - tracing.top_level_time(spans, root)
                record["eval_exact_calls"] = sum(
                    1 for s in spans[root:] if s[0] == "netir.eval_exact")
            self.commands.append(record)
        self.probes.append(probe())
        self.total_s = sum(self.kind_s.values())
        self.nets = {}
        for cmd in commands:
            if cmd.net and os.path.exists(cmd.net):
                with open(cmd.net, "rb") as fh:
                    self.nets[cmd.net] = hashlib.sha256(fh.read()).hexdigest()
        self.net_bytes = sum(os.path.getsize(p) for p in self.nets)

    def metrics(self) -> dict:
        """Reference-speed seconds per command kind and in total, and bytes."""
        scale = PROBE_REF_S / statistics.median(self.probes)
        m = {f"{kind}_s": self.kind_s[kind] * scale for kind in
             ("build", "verify_exact", "verify_float", "audit", "oracle")}
        m["total_s"] = self.total_s * scale
        m["net_bytes"] = self.net_bytes
        return m


def label(argv) -> str:
    """A command line with its file paths cut to their base names."""
    return " ".join(os.path.basename(a) if os.path.isabs(a) else a for a in argv)


def reference_checks(commands, seed, failures, notes) -> tuple[int, dict, dict]:
    """Check every saved net with the reference evaluator.

    Returns the number of points checked, the largest activation bits per
    stage over the sqrt-shaped nets, and structural counts over all nets.
    Mismatches go to `failures`, one line per net to `notes`.
    """
    checked = 0
    bits: dict = {}
    counts = defaultdict(int)
    for k, cmd in enumerate(c for c in commands if c.net):
        if not os.path.exists(cmd.net):
            continue  # its build already counts as failed
        name = os.path.basename(cmd.net)
        try:
            res = refeval.check_net(cmd.net, cmd.data, REF_SAMPLE, seed * 1000 + k)
            info = refeval.net_counts(cmd.net)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            checked += 1
            failures.append(f"reference check {name}: unreadable: {exc!r}")
            continue
        checked += res["checked"]
        failures.extend(f"reference check {name}: point {idx} mismatches"
                        for idx in res["mismatches"])
        if "selector" in res["activation_bits"]:
            for stage, b in res["activation_bits"].items():
                bits[stage] = max(bits.get(stage, 0), b)
        notes.append(f"net {name} sha256={info['sha256']} bytes={info['bytes']} "
                     f"layers={info['layers']} params={info['params']} activation_bits="
                     f"{json.dumps(res['activation_bits'], sort_keys=True)}")
        for key in ("layers", "rows", "params", "identity_rows", "weights",
                    "pow2_weights"):
            counts[key] += info[key]
        for key in ("width", "bits"):
            counts[key] = max(counts[key], info[key])
    return checked, bits, counts


def layer_metrics(tracer, traced, untraced, commands, stage, bits, counts) -> dict:
    """Per-layer metrics as {name: (value, unit)}; times are per traced session."""
    n = len(traced)
    own = tracing.self_times(tracer.spans)
    m = {f"{name}.s": (own[name][0] / n, "s") for name in tracing.TIMED}
    for name in ("pipeline.load_and_validate", "netir.eval_exact",
                 "gadgets.build_bit_extractor"):
        m[f"{name}.calls"] = (own[name][1] / n, "count")
    for name in ("pipeline.load_and_validate.pairs", "pipeline.project_to_line.attempts",
                 "netir.eval_exact.rational_calls", "variants.subnet_count",
                 "gadgets.oracle_bits.checks"):
        m[name] = (tracer.counts[name] / n, "count")
    attempts = tracer.counts["pipeline.project_to_line.attempts"]
    m["pipeline.project_to_line.accept_ratio"] = (
        own["pipeline.project_to_line"][1] / attempts if attempts else 0.0, "ratio")
    for key in ("bucket_count", "bucket_size", "rho", "payload_bits_max"):
        name = f"pipeline.craft.{key}"
        m[name] = (tracer.maxes.get(name, 0), "bit" if "bits" in key or key == "rho"
                   else "count")
    build_calls = sum(r["eval_exact_calls"] for s in traced for r in s.commands
                      if r["argv"][0] == "build")
    build_points = n * sum(c.points for c in commands if c.kind == "build")
    m["netir.eval_exact.calls_per_point"] = (build_calls / build_points
                                             if build_points else 0.0, "calls/point")
    for key in ("projection", "selector", "matcher"):
        m[f"netir.eval_exact.stage.{key}_s"] = (stage[f"{key}_s"], "s")
        m[f"netir.activation_bits_max.{key}"] = (bits.get(key, 0), "bit")
    for key in ("layers", "rows", "params", "width"):
        m[f"netir.net.{key}"] = (counts[key], "count")
    m["netir.net.bits"] = (counts["bits"], "bit")
    m["netir.net.identity_row_share"] = (
        counts["identity_rows"] / counts["rows"] if counts["rows"] else 0.0, "ratio")
    m["netir.net.pow2_weight_share"] = (
        counts["pow2_weights"] / counts["weights"] if counts["weights"] else 0.0, "ratio")
    m["cli.main.self_s"] = (own["cli.main"][0] / n, "s")
    m["cli.untraced_s"] = (sum(r["untraced_s"] for s in traced for r in s.commands) / n,
                           "s")
    m["trace.overhead_s"] = (statistics.median(s.total_s for s in traced)
                             - statistics.median(s.total_s for s in untraced), "s")
    return m


def write_trace(path, args, tracer, traced) -> None:
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans,
                   "commands": [s.commands for s in traced]}, fh)


def run(args, memnet, workload) -> int:
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, memnet, workload, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, memnet, workload, work) -> int:
    setup, setup_probes = measure_setup(args)
    inputs = workload.make_inputs(memnet.datagen, work, args.seed, args.tiny)
    commands = workload.session(inputs, work, args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:  # stop before a round that would end past the deadline
        start = time.perf_counter()
        gc.collect()
        untraced.append(Session(memnet, commands))
        if tracer is not None:
            gc.collect()
            tracer.install()
            try:
                traced.append(Session(memnet, commands, tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sessions = untraced + traced
    failures = [f for s in sessions for f in s.failures]
    first = sessions[0].nets
    failures.extend(f"nondeterministic output {os.path.basename(p)}"
                    for s in sessions[1:] for p, h in s.nets.items()
                    if first.get(p, h) != h)
    attempted = len(commands) * len(sessions)
    notes: list = []
    checked, bits, counts = reference_checks(commands, args.seed, failures, notes)
    attempted += checked
    stage = None
    if tracer is not None:
        stage = tracing.stage_split(memnet, inputs.files["sqrt"], BUILD_SEED)
        attempted += stage["points"]
        failures.extend(["stage-split chain missed a label"] * stage["mismatches"])

    per_session = [s.metrics() for s in untraced]
    e2e = {name: (statistics.median([m[name] for m in per_session]), unit)
           for name, unit in END_TO_END if name not in ("setup_s", "peak_rss_mb")}
    e2e["setup_s"] = (statistics.median(setup) * PROBE_REF_S
                      / statistics.median(setup_probes), "s")
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB")

    probes = [p for s in untraced for p in s.probes]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} sessions={len(untraced)} untraced"
          + (f", {len(traced)} traced" if traced else ""))
    print(f"# host-speed probe: median {statistics.median(probes) * 1000:.2f} ms over "
          f"{len(probes)}, range {min(probes) * 1000:.2f}-{max(probes) * 1000:.2f} ms; "
          f"reference {PROBE_REF_S * 1000:.1f} ms; set-up wall times "
          + " ".join(f"{t:.4f}" for t in setup))
    for i, cmd in enumerate(commands):
        times = [s.commands[i]["s"] for s in untraced]
        print(f"command {label(cmd.argv)}: wall median {statistics.median(times):.4f} s, "
              f"range {min(times):.4f}-{max(times):.4f} s over {len(times)} sessions")
    for line in notes:
        print(line)
    for name, unit in END_TO_END:
        print(f"metric {name} {e2e[name][0]:.6g} {unit}")
    error_rate = len(failures) / attempted
    print(f"metric error_rate {error_rate:.6g} 1 ({len(failures)} failed of "
          f"{attempted} attempted)")
    for problem in failures[:20]:
        print(f"failure: {problem}")

    if tracer is not None:
        for cmd, r in zip(commands, traced[-1].commands):
            print(f"traced {label(cmd.argv)}: cli.untraced_s {r['untraced_s']:.6f} s, "
                  f"eval_exact calls {r['eval_exact_calls']}"
                  + (f" ({r['eval_exact_calls'] / cmd.points:.4g} per point)"
                     if cmd.kind == "build" else ""))
        layers = layer_metrics(tracer, traced, untraced, commands, stage, bits, counts)
        for name, (value, unit) in layers.items():
            print(f"layer {name} {value:.6g} {unit}")
        trace_path = WORK / f"trace-{args.workload}-s{args.seed}.json"
        write_trace(trace_path, args, tracer, traced)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
        reported = layers
    else:
        reported = e2e
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (the benchmark's own tests)")
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    memnet = import_memnet()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        os.makedirs(args.setup_only, exist_ok=True)
        workload.make_inputs(memnet.datagen, args.setup_only, args.seed, args.tiny)
        return 0
    return run(args, memnet, workload)


if __name__ == "__main__":
    sys.exit(main())
