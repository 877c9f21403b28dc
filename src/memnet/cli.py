"""Command-line surface: build, verify, eval, audit, oracle, sweep.

stdout carries machine-parseable JSON lines; human diagnostics go to
stderr.  Exit codes are the only success signal: 0 ok, 1 check failed,
2 input/schema invalid, 3 projection search exhausted.  Flag names and
file formats are frozen in docs/FORMATS.md.
"""

from __future__ import annotations

import argparse
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
    with open(path, "w") as fh:
        json.dump(_strict(report.to_json()), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def cmd_build(args) -> int:
    config = pipeline.PipelineConfig(seed=args.seed)
    try:
        if args.mode == "regression":
            points, labels = pipeline.load_dataset(args.infile, regression=True)
            if args.epsilon is None:
                raise ValueError("--epsilon is required for --mode regression")
            net, report = pipeline.regression_wrap(points, labels, args.epsilon, config)
        else:
            ds = pipeline.load_dataset(args.infile)
            if args.mode == "sqrt":
                net, report = pipeline.assemble_sqrt(ds, config)
            elif args.mode == "depth":
                if args.L is None:
                    raise ValueError("--L is required for --mode depth")
                net, report = variants.assemble_bounded_depth(ds, args.L, config)
            elif args.mode == "bits":
                if args.B is None:
                    raise ValueError("--B is required for --mode bits")
                net, report = variants.assemble_bounded_bits(ds, args.B, config)
            else:
                raise ValueError(f"unknown mode {args.mode!r}")
        # a record number past the interpreter's int-to-decimal limit is a ValueError
        if args.out:
            save_net(net, args.out, builder=report.info.to_json())
        if args.report:
            _write_report(report, args.report)
    except pipeline.ProjectionSearchExhausted as exc:
        _diag(f"projection search failed: {exc}")
        return EXIT_PROJECTION
    except (pipeline.DuplicatePointError, pipeline.LabelRangeError,
            gadgets.ParameterError, ValueError, OSError) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_INVALID_INPUT
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


def _load_net_or_none(path):
    try:
        return load_net(path)
    except (ValueError, KeyError, OSError, DimensionError) as exc:
        _diag(f"cannot load network: {type(exc).__name__}: {exc}")
        return None


def cmd_verify(args) -> int:
    loaded = _load_net_or_none(args.net)
    if loaded is None:
        return EXIT_INVALID_INPUT
    net, _ = loaded
    try:
        points, labels, _ = pipeline.read_dataset(args.infile)
        if labels is None:
            raise ValueError("verify needs a label column")
        targets = [pipeline._to_fraction(v) for v in labels]
        if any(len(p) != net.input_dim for p in points):
            raise DimensionError("point dimension does not match the network")
    except (ValueError, OSError, DimensionError) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_INVALID_INPUT
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
    loaded = _load_net_or_none(args.net)
    if loaded is None:
        return EXIT_INVALID_INPUT
    net, _ = loaded
    try:
        points, _, _ = pipeline.read_dataset(args.infile)
        if any(len(p) != net.input_dim for p in points):
            raise DimensionError("point dimension does not match the network")
    except (ValueError, OSError) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_INVALID_INPUT
    for idx, p in enumerate(points):
        if args.precision == "exact":
            out = eval_exact(net, list(p))[0]
            got = out if isinstance(out, Fraction) else out.as_fraction()
            try:
                text = str(got)
            except ValueError as exc:  # past the interpreter's int-to-decimal limit
                _diag(f"output {idx} cannot be printed: {exc}")
                return EXIT_INVALID_INPUT
            _emit({"event": "eval", "index": idx, "output": text})
        else:
            out = eval_float(net, [bounds.to_float(c) for c in p])[0]
            _emit({"event": "eval", "index": idx, "output": out})
    return EXIT_OK


def cmd_audit(args) -> int:
    loaded = _load_net_or_none(args.net)
    if loaded is None:
        return EXIT_INVALID_INPUT
    net, builder = loaded
    if not builder:
        _diag("network file carries no builder record; cannot audit")
        return EXIT_INVALID_INPUT
    try:
        info = pipeline.BuildInfo.from_json(builder)
        if info.theorem == "regression":
            points, labels = pipeline.load_dataset(args.infile, regression=True)
            ds = pipeline.regression_dataset(points, labels, info.label_lo,
                                             info.epsilon, info.num_classes)
        else:
            ds = pipeline.load_dataset(args.infile)
        report = bounds.audit(net, ds, info.theorem, info)
    except bounds.ProvenanceError as exc:
        _diag(f"ProvenanceError: {exc}")
        return EXIT_INVALID_INPUT
    except (ValueError, OSError, KeyError) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_INVALID_INPUT
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
    try:
        summary = _ORACLES[args.suite](args)
    except gadgets.ParameterError as exc:
        _diag(f"ParameterError: {exc}")
        return EXIT_INVALID_INPUT
    _emit({"event": "oracle", "suite": summary["suite"],
           "checks": summary["checks"], "pass": summary["pass"],
           "witnesses": summary["mismatches"][:8]})
    return EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED


def _sweep_rows(args):
    n_list = args.N or [64]
    for n in n_list:
        ds = datagen.random_dataset(n, args.d, args.C, args.seed)
        if args.mode == "sqrt":
            runs = [(None, pipeline.assemble_sqrt(
                ds, pipeline.PipelineConfig(seed=args.seed)))]
        elif args.mode == "depth":
            runs = [(L, variants.assemble_bounded_depth(
                ds, L, pipeline.PipelineConfig(seed=args.seed)))
                for L in (args.L or [2])]
        else:
            runs = [(B, variants.assemble_bounded_bits(
                ds, B, pipeline.PipelineConfig(seed=args.seed)))
                for B in (args.B or [2])]
        for param, (net, report) in runs:
            real = report.realized
            yield {
                "mode": args.mode, "N": n, "param": "" if param is None else param,
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
