"""Command-line surface: build, verify, eval, audit, oracle, sweep.

stdout carries machine-parseable JSON lines; human diagnostics go to
stderr.  Exit codes are the only success signal: 0 ok, 1 check failed,
2 input/schema invalid, 3 projection search exhausted.  Flag names and
file formats are frozen in docs/FORMATS.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from fractions import Fraction

from . import bounds, datagen, gadgets, pipeline, variants
from .netir import (DimensionError, check_outputs, eval_exact, eval_float,
                    load_net, save_net)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_PROJECTION = 3


def _strict(obj):
    """obj with every non-finite float written "inf", "-inf" or "nan": JSON has
    no such numbers."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_strict(payload), sort_keys=True))


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _write_report(report, path) -> None:
    # json.dumps, not json.dump: dump's pure-Python encoder is a set of closures
    # that refer to each other, a reference cycle left for the collector
    text = json.dumps(_strict(report.to_json()), sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


# mode -> (budget flag, builder(ds, budget, seed)).  The lambdas look each
# builder up on its module at call time, so a rebound attribute is called.
_BUILDERS = {
    "sqrt": (None, lambda ds, budget, seed: pipeline.assemble_sqrt(ds, seed)),
    "depth": ("L", lambda ds, L, seed: variants.assemble_bounded_depth(ds, L, seed)),
    "bits": ("B", lambda ds, B, seed: variants.assemble_bounded_bits(ds, B, seed)),
}


def cmd_build(args) -> int:
    if args.mode == "regression":
        if args.epsilon is None:
            raise ValueError("--epsilon is required for --mode regression")
        points, labels, _ = pipeline.read_dataset(args.infile)
        net, report = pipeline.regression_wrap(points, labels, args.epsilon, args.seed)
    else:
        flag, builder = _BUILDERS[args.mode]
        budget = getattr(args, flag) if flag else None
        if flag and budget is None:
            raise ValueError(f"--{flag} is required for --mode {args.mode}")
        net, report = builder(pipeline.load_dataset(args.infile), budget, args.seed)
    # a record number past the interpreter's int-to-decimal limit is a ValueError
    if args.out:
        save_net(net, args.out, builder=report.info.to_json())
    if args.report:
        _write_report(report, args.report)
    _emit({
        "event": "build",
        "mode": args.mode,
        "memorized": report.memorized,
        "pass": report.passed,
        "metrics": report.realized.to_json(),
        "out": args.out,
        "report": args.report,
    })
    return EXIT_OK if report.memorized and report.passed else EXIT_CHECK_FAILED


def _net_and_points(args):
    """The saved net and the points of --in, which must match its input dimension."""
    net, _ = load_net(args.net)
    points, labels, _ = pipeline.read_dataset(args.infile)
    if any(len(p) != net.input_dim for p in points):
        raise DimensionError("point dimension does not match the network")
    return net, points, labels


def cmd_verify(args) -> int:
    net, points, labels = _net_and_points(args)
    targets = pipeline.exact_labels(labels)
    if args.precision == "exact":
        bad, _ = check_outputs(net, points, targets)
        _emit({"event": "verify", "precision": "exact",
               "points": len(points), "mismatches": bad[:32],
               "pass": not bad})
        return EXIT_OK if not bad else EXIT_CHECK_FAILED
    worst = 0.0
    for p, want in zip(points, targets):
        out = eval_float(net, [bounds.to_float(c) for c in p])[0]
        err = abs(out - bounds.to_float(want))
        if err != err or err > worst:  # NaN counts as collapse
            worst = err if err == err else float("inf")
    _emit({"event": "verify", "precision": "float64",
           "points": len(points), "max_abs_error": worst})
    return EXIT_OK


def cmd_eval(args) -> int:
    net, points, _ = _net_and_points(args)
    for idx, p in enumerate(points):
        if args.precision == "exact":
            out = eval_exact(net, list(p))[0]
            # str() is a ValueError past the interpreter's int-to-decimal limit
            _emit({"event": "eval", "index": idx, "output": str(out)})
        else:
            out = eval_float(net, [bounds.to_float(c) for c in p])[0]
            _emit({"event": "eval", "index": idx, "output": out})
    return EXIT_OK


def cmd_audit(args) -> int:
    net, builder = load_net(args.net)
    if not builder:
        raise ValueError("network file carries no builder record; cannot audit")
    info = pipeline.BuildInfo.from_json(builder)
    if info.theorem == "regression":
        points, labels, _ = pipeline.read_dataset(args.infile)
        ds = pipeline.regression_dataset(points, labels, info.label_lo, info.epsilon)
    else:
        ds = pipeline.load_dataset(args.infile)
    report = bounds.audit(net, ds, info)
    if args.report:
        _write_report(report, args.report)
    _emit({"event": "audit", "theorem": report.theorem,
           "memorized": report.memorized, "pass": report.passed,
           "ratios": report.ratios})
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


_ORACLES = {
    "triangle": lambda args: gadgets.oracle_triangle(),
    "indicator": lambda args: gadgets.oracle_indicator(),
    "distance": lambda args: gadgets.oracle_distance(),
    "bits": lambda args: gadgets.oracle_bits(args.n_max),
    "stage3": lambda args: gadgets.oracle_stage3(),
}


def cmd_oracle(args) -> int:
    summary = _ORACLES[args.suite](args)
    _emit({"event": "oracle", "suite": summary["suite"],
           "checks": summary["checks"], "pass": summary["pass"],
           "witnesses": summary["mismatches"][:8]})
    return EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED


def _sweep_rows(args):
    flag, builder = _BUILDERS[args.mode]
    budgets = [None] if flag is None else getattr(args, flag) or [2]
    for n in args.N or [64]:
        ds = datagen.random_dataset(n, args.d, args.C, args.seed)
        for budget in budgets:
            _, report = builder(ds, budget, args.seed)
            real = report.realized
            yield {
                "mode": args.mode, "N": n, "param": "" if budget is None else budget,
                "width": real.width, "depth": real.depth, "params": real.params,
                "bits": real.bits, "exponent_range": real.exponent_range,
                "effective_bits": report.effective_bits,
                "memorized": int(report.memorized),
                "R_realized": bounds.to_float(Fraction(report.info.R_realized)),
                "kappa": report.kappa,
                **{f"ceiling_{k}": v for k, v in sorted(report.ceilings.items())},
                **{f"ratio_{k}": v for k, v in sorted(report.ratios.items())},
                **{f"lower_{k}": v for k, v in sorted(report.lower_bounds.items())},
            }


def cmd_sweep(args) -> int:
    import csv

    rows = list(_sweep_rows(args))
    fields = sorted({k for row in rows for k in row},
                    key=lambda k: (k not in ("mode", "N", "param"), k))
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fields, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    _emit({"event": "sweep", "rows": len(rows), "out": args.out})
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memnet",
        description="Compile separated datasets into exact ReLU memorizers, "
                    "then verify and audit them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a memorizer from a CSV dataset")
    p.add_argument("--mode", choices=["sqrt", "depth", "bits", "regression"],
                   default="sqrt")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--B", type=int, default=None)
    p.add_argument("--epsilon", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check a saved network against a dataset")
    p.add_argument("--net", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--precision", choices=["exact", "float64"], default="exact")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate a saved network on CSV points")
    p.add_argument("--net", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--precision", choices=["exact", "float64"], default="exact")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="recompute the bound audit for a saved network")
    p.add_argument("--net", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("oracle", help="run exhaustive gadget checks")
    p.add_argument("suite", choices=sorted(_ORACLES))
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="build across ranges and emit a CSV of metrics")
    p.add_argument("--mode", choices=["sqrt", "depth", "bits"], default="sqrt")
    p.add_argument("--N", type=_int_list, default=None)
    p.add_argument("--L", type=_int_list, default=None)
    p.add_argument("--B", type=_int_list, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--C", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: a parser is about 300 objects
    in reference cycles, and parse_args leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; the one place that turns an exception into an exit code.

    A ValueError (every malformed input, out-of-range parameter and
    mismatched dimension) or an OSError exits 2 with one stderr line.  A
    MemorizationError is an internal fault and is not caught.

    The cyclic garbage collector is paused while the command runs and put
    back as it was found.  memnet makes no reference cycles, so a collection
    would free nothing: it would only rescan every live net, layer and cell.
    """
    args = _parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except pipeline.ProjectionSearchExhausted as exc:
        _diag(f"projection search failed: {exc}")
        return EXIT_PROJECTION
    except (ValueError, OSError) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_INVALID_INPUT
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
