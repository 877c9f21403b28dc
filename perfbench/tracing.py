"""Spans around memnet's public functions, for the traced benchmark run.

`Tracer.install` wraps each function in TARGETS and rebinds every module
attribute of the memnet package that refers to the original, so names
imported with `from .netir import eval_exact` are traced too.  Spans
(name, start, end, parent) stay in memory; `self_times` turns them into
per-layer self times and counts.  `uninstall` restores every binding, so
untraced sessions in the same process run the original functions.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from fractions import Fraction

MODULES = ("memnet", "memnet.exactnum", "memnet.netir", "memnet.gadgets",
           "memnet.pipeline", "memnet.bounds", "memnet.variants",
           "memnet.datagen", "memnet.cli")


def _rational_inputs(tracer, args):
    if any(isinstance(x, Fraction) and x.denominator & (x.denominator - 1)
           for x in args[1]):
        tracer.counts["netir.eval_exact.rational_calls"] += 1


def _validated(tracer, ds):
    tracer.counts["pipeline.load_and_validate.pairs"] += ds.n * (ds.n - 1) // 2


def _projected(tracer, result):
    tracer.counts["pipeline.project_to_line.attempts"] += result[0].attempts


def _crafted(tracer, code):
    payload = max(v.bit_length() for v in code.u + code.w)
    for key, value in (("bucket_count", code.bucket_count),
                       ("bucket_size", code.bucket_size), ("rho", code.rho),
                       ("payload_bits_max", payload)):
        name = f"pipeline.craft.{key}"
        tracer.maxes[name] = max(tracer.maxes.get(name, 0), value)


def _oracle_checks(tracer, summary):
    tracer.counts["gadgets.oracle_bits.checks"] += summary["checks"]


def _subnets(tracer, result):
    tracer.counts["variants.subnet_count"] += result[1].info.subnet_count


# (home module, function, hook before the call, hook on the result)
TARGETS = (
    ("pipeline", "load_and_validate", None, _validated),
    ("pipeline", "load_dataset", None, None),
    ("pipeline", "project_to_line", None, _projected),
    ("pipeline", "craft_codes", None, _crafted),
    ("pipeline", "build_stage2", None, None),
    ("pipeline", "build_stage3", None, None),
    ("pipeline", "verify_exact", None, None),
    ("pipeline", "assemble_sqrt", None, None),
    ("pipeline", "regression_wrap", None, None),
    ("netir", "eval_exact", _rational_inputs, None),
    ("netir", "eval_float", None, None),
    ("netir", "compose_serial", None, None),
    ("netir", "stack_parallel", None, None),
    ("netir", "net_to_json_bytes", None, None),
    ("netir", "save_net", None, None),
    ("netir", "deserialize_net", None, None),
    ("netir", "load_net", None, None),
    ("netir", "metrics", None, None),
    ("bounds", "audit", None, None),
    ("variants", "assemble_bounded_depth", None, _subnets),
    ("variants", "assemble_bounded_bits", None, _subnets),
    ("gadgets", "build_bit_extractor", None, None),
    ("gadgets", "oracle_bits", None, _oracle_checks),
    ("exactnum", "pack_blocks", None, None),
)

TIMED = tuple(f"{mod}.{fn}" for mod, fn, _, _ in TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self._stack: list = []
        self.counts = defaultdict(int)
        self.maxes: dict = {}
        self._undo: list = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, fn_name, before, after in TARGETS:
            original = getattr(importlib.import_module(f"memnet.{home}"), fn_name)
            traced = self.wrap(f"{home}.{fn_name}", original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def self_times(spans) -> dict:
    """name -> [self seconds, calls].

    A span's self time is its duration minus the durations of its children.
    """
    child = defaultdict(float)
    for _, start, end, parent in spans:
        child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for k, (name, start, end, _) in enumerate(spans):
        out[name][0] += end - start - child[k]
        out[name][1] += 1
    return out


def top_level_time(spans, root: int) -> float:
    """Summed duration of the direct children of span `root`."""
    return sum(end - start for _, start, end, parent in spans[root + 1:]
               if parent == root)


def stage_split(memnet, csv_path: str, seed: int) -> dict:
    """Exact-evaluation time per stage over every point of a dataset.

    Rebuilds the three stage nets of a sqrt build with the public pipeline
    functions (same seed, default bucket count) and chains eval_exact
    through them, timing each stage.  Runs on the untraced functions.
    """
    pipeline, eval_exact = memnet.pipeline, memnet.netir.eval_exact
    ds = pipeline.load_dataset(csv_path)
    proj, net1 = pipeline.project_to_line(ds, seed)
    zs = pipeline.projected_values(proj, ds)
    order = sorted(range(ds.n), key=lambda i: zs[i])
    code = pipeline.craft_codes([zs[i] for i in order],
                                [ds.labels[i] for i in order],
                                min(ds.n, pipeline.default_bucket_count(ds.n)),
                                ds.num_classes)
    nets = (net1, pipeline.build_stage2(code),
            pipeline.build_stage3(code.bucket_size, code.rho, code.c))
    seconds = [0.0, 0.0, 0.0]
    mismatches = 0
    clock = time.perf_counter
    for p, label in zip(ds.points, ds.labels):
        vals = list(p)
        for k, net in enumerate(nets):
            t0 = clock()
            vals = eval_exact(net, vals)
            seconds[k] += clock() - t0
        mismatches += vals[0] != label
    return {"points": ds.n, "mismatches": mismatches,
            "projection_s": seconds[0], "selector_s": seconds[1],
            "matcher_s": seconds[2]}
