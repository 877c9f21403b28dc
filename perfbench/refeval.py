"""Independent reference evaluator for saved memnet network files.

Reads the network JSON of docs/FORMATS.md directly (dense and sparse `w`)
and runs a plain-`Fraction` forward pass.  It shares no code with
`memnet.netir`, so a bug in the program's evaluator or serializer cannot
hide itself by agreeing with its own reader.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from fractions import Fraction


def dyadic(obj: dict) -> Fraction:
    """The exact value s * m * 2^e of one serialized dyadic."""
    value = int(obj["s"]) * int(obj["m"], 16)
    e = int(obj["e"])
    return Fraction(value << e) if e >= 0 else Fraction(value, 1 << -e)


def rational_bits(v: Fraction) -> int:
    """Storage bits of a rational: numerator bits plus log2 of the denominator.

    For an integer this is its bit length; for m / 2^k it is bits(m) + k,
    the `effective_bits` convention of docs/FORMATS.md.
    """
    return abs(v.numerator).bit_length() + v.denominator.bit_length() - 1


class RefNet:
    """A saved network as rows of (bias, [(column, weight), ...]) Fractions."""

    def __init__(self, obj: dict):
        if obj.get("format_version") != 1:
            raise ValueError(f"unsupported network format {obj.get('format_version')!r}")
        self.input_dim = int(obj["input_dim"])
        self.builder = obj.get("builder") or {}
        self.layers = []
        for spec in obj["layers"]:
            w = spec["w"]
            if isinstance(w, dict):
                rows = [[(int(i), dyadic(d)) for i, d in row] for row in w["sparse"]]
            else:
                rows = [[(i, dyadic(d)) for i, d in enumerate(row) if int(d["s"])]
                        for row in w]
            biases = [dyadic(d) for d in spec["b"]]
            if len(rows) != len(biases):
                raise ValueError("row and bias counts differ")
            self.layers.append((list(zip(biases, rows)), bool(spec["relu"])))

    @property
    def depth(self) -> int:
        return len(self.layers)

    def stage_bounds(self) -> dict:
        """Layer index ranges of the three stages, from the builder record.

        A sqrt-shaped chain has 2 projection layers, 3m + 2 selector layers
        and the block matcher after them (plus the regression head, counted
        with the matcher).  The budget variants interleave many selectors and
        matchers, so only their projection is separated.
        """
        cut = 2
        if self.builder.get("theorem") in ("sqrt", "regression"):
            sel = cut + 3 * int(self.builder["bucket_count"]) + 2
            return {"projection": (0, cut), "selector": (cut, sel),
                    "matcher": (sel, self.depth)}
        return {"projection": (0, cut), "subsets": (cut, self.depth)}

    def forward(self, xs, bits=None, stages=None):
        """Exact outputs for input xs; optionally track activation bit lengths.

        With `bits` (a dict) and `stages` (from stage_bounds), records the
        largest rational_bits of any activation per stage.
        """
        if len(xs) != self.input_dim:
            raise ValueError("input dimension does not match the network")
        vals = list(xs)
        zero = Fraction(0)
        owner = None
        if bits is not None:
            owner = [name for k in range(self.depth)
                     for name, (lo, hi) in stages.items() if lo <= k < hi]
        for k, (rows, relu) in enumerate(self.layers):
            out = []
            for bias, terms in rows:
                acc = bias
                for i, w in terms:
                    acc += w * vals[i]
                if relu and acc < 0:
                    acc = zero
                out.append(acc)
            vals = out
            if bits is not None:
                top = max(rational_bits(v) for v in vals)
                if top > bits.get(owner[k], 0):
                    bits[owner[k]] = top
        return vals


def read_csv(path):
    """(points, labels) of a dataset CSV as exact Fractions."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh)][1:]
    points = [[Fraction(c) for c in row[:-1]] for row in rows if row]
    labels = [Fraction(row[-1]) for row in rows if row]
    return points, labels


def check_net(net_path, csv_path, sample: int, seed: int) -> dict:
    """Evaluate a seeded sample of training points against the CSV labels.

    Classification nets must return the label exactly.  Regression nets
    (builder theorem "regression") must land within epsilon/2 of it.
    Returns the counts plus the largest activation bits per stage.
    """
    with open(net_path) as fh:
        net = RefNet(json.load(fh))
    points, labels = read_csv(csv_path)
    rng = random.Random(seed)
    picks = rng.sample(range(len(points)), min(sample, len(points)))
    tol = None
    if net.builder.get("theorem") == "regression":
        tol = Fraction(net.builder["epsilon"]) / 2
    stages = net.stage_bounds()
    bits: dict = {}
    mismatches = []
    for idx in picks:
        out = net.forward(points[idx], bits, stages)[0]
        ok = out == labels[idx] if tol is None else abs(out - labels[idx]) <= tol
        if not ok:
            mismatches.append(idx)
    return {"checked": len(picks), "mismatches": mismatches, "activation_bits": bits}


def net_counts(path) -> dict:
    """Structural counts of one saved net, read straight from its JSON."""
    with open(path, "rb") as fh:
        raw = fh.read()
    obj = json.loads(raw)
    rows = identity = weights = pow2 = params = width = bits = 0
    layers = obj["layers"]
    for k, spec in enumerate(layers):
        w = spec["w"]
        if isinstance(w, dict):
            row_terms = [[d for _, d in row] for row in w["sparse"]]
        else:
            row_terms = [[d for d in row if int(d["s"])] for row in w]
        if k < len(layers) - 1:
            width = max(width, len(spec["b"]))
        for terms, b in zip(row_terms, spec["b"]):
            rows += 1
            weights += len(terms)
            pow2 += sum(1 for d in terms if d["m"] == "1")
            params += len(terms) + (1 if int(b["s"]) else 0)
            bits = max([bits] + [int(d["m"], 16).bit_length() for d in terms]
                       + [int(b["m"], 16).bit_length()])
            if (len(terms) == 1 and not int(b["s"])
                    and terms[0] == {"s": 1, "m": "1", "e": 0}):
                identity += 1
    return {"layers": len(layers), "rows": rows, "params": params, "width": width,
            "bits": bits, "identity_rows": identity, "weights": weights,
            "pow2_weights": pow2, "bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest()}
