"""The benchmark's workloads: seeded inputs and one CLI session each.

A workload writes its input CSVs once per run from the seed, then the run
repeats its session (a fixed list of `memnet` commands) as a closed loop
with one client.  Every session holds at least one command of each kind
(build, exact verify, float64 verify, audit, oracle), so every end-to-end
metric is measured on every workload.  README.md says why each session
holds the commands it does.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

SHAPE_SEED = 0   # seeds the point sets; see make_inputs
BUILD_SEED = 0   # `memnet build --seed`, which seeds the projection search


@dataclass(frozen=True)
class Command:
    kind: str                # build, verify_exact, verify_float, audit or oracle
    argv: tuple
    points: int = 0          # training points the command works on
    net: str | None = None   # network file the command writes
    data: str | None = None  # dataset CSV the written net memorizes


@dataclass
class Inputs:
    files: dict = field(default_factory=dict)  # role -> CSV path
    sizes: dict = field(default_factory=dict)  # role -> N


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: dict   # segment parameters at benchmark size
    tiny: dict   # the same at smoke-test size

    def params(self, tiny: bool) -> dict:
        return self.tiny if tiny else self.full

    def make_inputs(self, datagen, work: str, seed: int, tiny: bool) -> Inputs:
        """The workload's CSVs: fixed point sets, seeded row order and labels.

        The point sets are drawn from SHAPE_SEED, not from `seed`: the
        random projection's smallest gap sets the payload block width rho,
        and rho moves every exact-evaluation cost (matcher depth is
        3*k*rho + 2k + 2) by about 15% between point sets.  The seed draws
        what leaves the amount of work unchanged: row order and labels.
        """
        p = self.params(tiny)
        rng = random.Random(seed)
        inputs = Inputs()

        def write(role, points, labels):
            path = os.path.join(work, f"{role}.csv")
            datagen.write_csv(path, points, labels)
            inputs.files[role] = path
            inputs.sizes[role] = len(points)

        for role, n, coords in (("sqrt", p["sqrt_n"], p["coords"]),
                                ("mix", p.get("mix_n"), "integer")):
            if not n:
                continue
            points = datagen.random_separated_points(n, 2, SHAPE_SEED, coords)
            rng.shuffle(points)
            write(role, points, [rng.randint(1, 4) for _ in points])
            if role == "mix":
                write("regression", points,
                      datagen.random_regression_labels(n, rng.randrange(1 << 30)))
        return inputs

    def session(self, inputs: Inputs, work: str, tiny: bool) -> list:
        p = self.params(tiny)
        cmds = _sqrt_segment(inputs, work)
        if "mix_n" in p:
            cmds += _mix_segment(inputs, work, p)
        cmds.append(Command("oracle", ("oracle", "bits", "--n-max", str(p["n_max"]))))
        cmds.append(Command("oracle", ("oracle", "stage3")))
        return cmds


def _build(mode_args, data, net, n, report=None) -> Command:
    argv = ("build", *mode_args, "--in", data, "--out", net)
    if report:
        argv += ("--report", report)
    return Command("build", argv + ("--seed", str(BUILD_SEED)), n, net, data)


def _verify(net, data, precision, n) -> Command:
    kind = "verify_exact" if precision == "exact" else "verify_float"
    return Command(kind, ("verify", "--net", net, "--in", data,
                          "--precision", precision), n)


def _sqrt_segment(inputs: Inputs, work: str) -> list:
    """build --mode sqrt, exact and float64 verify, audit."""
    data, n = inputs.files["sqrt"], inputs.sizes["sqrt"]
    net = os.path.join(work, "sqrt.net.json")
    return [
        _build(("--mode", "sqrt"), data, net, n,
               report=os.path.join(work, "sqrt.report.json")),
        _verify(net, data, "exact", n),
        _verify(net, data, "float64", n),
        Command("audit", ("audit", "--net", net, "--in", data), n),
    ]


def _mix_segment(inputs: Inputs, work: str, p: dict) -> list:
    """The budget variants and a regression build on a smaller point set."""
    data, reg, n = inputs.files["mix"], inputs.files["regression"], inputs.sizes["mix"]
    depth, bits, regnet = (os.path.join(work, f"{t}.net.json")
                           for t in ("depth", "bits", "regression"))
    return [
        _build(("--mode", "depth", "--L", str(p["L"])), data, depth, n),
        _build(("--mode", "bits", "--B", str(p["B"])), data, bits, n),
        _build(("--mode", "regression", "--epsilon", p["epsilon"]), reg, regnet, n),
        _verify(depth, data, "exact", n),
        _verify(bits, data, "exact", n),
        _verify(depth, data, "float64", n),
        Command("audit", ("audit", "--net", regnet, "--in", reg), n),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("int-mix",
             "integer coordinates, dyadic evaluation: sqrt build at N=256 "
             "(O(N^2) validation, big-integer matcher), budget variants, "
             "regression, bit oracle",
             {"sqrt_n": 256, "coords": "integer", "mix_n": 96, "L": 4, "B": 4,
              "epsilon": "1/64", "n_max": 7},
             {"sqrt_n": 24, "coords": "integer", "mix_n": 24, "L": 2, "B": 2,
              "epsilon": "1/8", "n_max": 3}),
    Workload("sqrt-decimal",
             "decimal coordinates put every evaluation on the Fraction path; "
             "a dyadic-only evaluator change must show no change here",
             {"sqrt_n": 64, "coords": "decimal", "n_max": 5},
             {"sqrt_n": 12, "coords": "decimal", "n_max": 2}),
)}
