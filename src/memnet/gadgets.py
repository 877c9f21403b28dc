"""Verified ReLU building blocks: triangle, indicator, distance gate, bit extractor.

Each gadget comes in two forms: a scalar defining formula (the oracle) and
row emitters (`window_rows`, `triangle_step_rows`, `tap_weight`), the one
copy of its rows.  The standalone nets here wrap the emitters and are
compared exhaustively with the formulas on small instances; the pipeline's
bucket selector and block matcher emit the same rows inside their layers.
The bit extractor's oracle is brute-force bit slicing (bin_range); the
scalar iterated-triangle formula behind its tracks is kept in tests/ as the
reference of the track table.

Depth convention: depth counts affine layers including the final affine
readout.  The indicator and distance gate therefore realize depth 3 (two
ReLU layers plus the readout); inside a larger composition their readout
fuses with the consumer's first affine layer, contributing 2 layers, which
is the figure their contracts quote.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactnum import bin_range, pack_blocks
from .netir import LayeredNet, TapeBuilder, _eval_lanes, compose_serial

__all__ = [
    "ParameterError",
    "triangle_value",
    "triangle_iterate",
    "build_triangle",
    "window_rows",
    "triangle_step_rows",
    "tap_weight",
    "indicator_value",
    "build_indicator",
    "distance_value",
    "build_distance_gate",
    "build_bit_extractor",
    "oracle_triangle",
    "oracle_indicator",
    "oracle_distance",
    "oracle_bits",
    "oracle_stage3",
]


class ParameterError(ValueError):
    """Gadget parameters violate the construction's preconditions."""


def _relu(v):
    """sigma(v) of a Fraction or int, in the argument's type."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"sigma needs a Fraction or int, got {type(v).__name__}")
    return v if v > 0 else v * 0


# ---------------------------------------------------------------------------
# triangle function


def triangle_value(z):
    """sigma(sigma(2z) - sigma(4z - 2)): the unit triangle with peak at 1/2."""
    two_z = z + z
    four_z = two_z + two_z
    return _relu(_relu(two_z) - _relu(four_z - 2))


def triangle_iterate(z, k: int):
    """k-fold composition of the triangle function."""
    for _ in range(k):
        z = triangle_value(z)
    return z


def build_triangle() -> LayeredNet:
    """Two-layer, width-2 net computing the triangle function on [0, 1].

    The readout omits the outermost sigma (it is the identity on [0, 1]);
    serial composition restores it, so iterated triangles are exact on all
    of R.
    """
    t = TapeBuilder(["z"])
    t.layer([("h1", 0, {"z": 2}), ("h2", -2, {"z": 4})])
    t.layer([("phi", 0, {"h1": 1, "h2": -1})], relu=False)
    return t.build("triangle", output_nonneg=True)


# ---------------------------------------------------------------------------
# interval window: indicator and distance gate


def window_rows(x: str, lo, hi):
    """The two ReLU layers of an interval window on channel x.

    lo and hi are affine expressions (bias, {source: coeff}) over channels
    other than x.  Layer one: h1 = sigma(2lo - 2x), h2 = sigma(2x - 2hi),
    endpoint terms before x; layer two: g1 = sigma(1 - h1), g2 = sigma(1 - h2).
    The readout g1 + g2 - 1, which consumers fuse into their next layer, is
    1 on [lo, hi] and 0 beyond margins of 1/2.
    """
    (lo_bias, lo_terms), (hi_bias, hi_terms) = lo, hi
    first = [("h1", 2 * lo_bias, {**{s: 2 * w for s, w in lo_terms.items()}, x: -2}),
             ("h2", -2 * hi_bias, {**{s: -2 * w for s, w in hi_terms.items()}, x: 2})]
    return first, [("g1", 1, {"h1": -1}), ("g2", 1, {"h2": -1})]


def _window_net(inputs, lo, hi, provenance) -> LayeredNet:
    t = TapeBuilder(inputs)
    for rows in window_rows("x", lo, hi):
        t.layer(rows)
    t.layer([("f", -1, {"g1": 1, "g2": 1})], relu=False)
    return t.build(provenance, output_nonneg=True)


def indicator_value(a: int, b: int, x):
    """sigma(1 - sigma(2a - 2x)) + sigma(1 - sigma(2x - 2b)) - 1."""
    return _relu(1 - _relu(2 * a - x - x)) + _relu(1 - _relu(x + x - 2 * b)) - 1


def build_indicator(a: int, b: int) -> LayeredNet:
    """Net with F(x)=1 on [a,b], 0 outside (a-1/2, b+1/2), values in [0,1]."""
    if a >= b:
        raise ParameterError(f"indicator needs a < b, got a={a}, b={b}")
    return _window_net(["x"], (a, {}), (b, {}), f"indicator[{a},{b}]")


def distance_value(x, y):
    """1 when x is in [y, y+1], 0 beyond margins of 1/2; the block selector."""
    return _relu(1 - _relu(y + y - x - x)) + _relu(1 - _relu(x + x - y - y - 2)) - 1


def build_distance_gate() -> LayeredNet:
    """Net on (x, y) firing 1 for x in [y, y+1], 0 past the 1/2 margins: the
    window from y to y+1, since distance_value(x, y) == indicator_value(y, y+1, x)."""
    return _window_net(["x", "y"], (0, {"y": 1}), (1, {"y": 1}), "distance_gate")


# ---------------------------------------------------------------------------
# bit extraction


def triangle_step_rows(p: str, q: str, t: str, prefix: str):
    """The two layers of one triangle step on tracks p and q, with the bit tap.

    Layer one writes sigma(2v) and sigma(4v - 2) of each track to channels
    prefix1..prefix4; layer two folds them into phi(p), phi(q) and the tap
    t = phi(q) - phi(p), the current bit over 2^(n + 2 - i) (_tap_bit).
    """
    h1, h2, h3, h4 = (f"{prefix}{k}" for k in range(1, 5))
    first = [(h1, 0, {p: 2}), (h2, -2, {p: 4}), (h3, 0, {q: 2}), (h4, -2, {q: 4})]
    second = [(p, 0, {h1: 1, h2: -1}), (q, 0, {h3: 1, h4: -1}),
              (t, 0, {h3: 1, h4: -1, h1: -1, h2: 1})]
    return first, second


def tap_weight(n: int, k: int, left: int) -> int:
    """Weight on the tap of bit k (MSB-first, width n) when `left` more bits
    of the same block follow it: it scales the bit to 2^left."""
    return 1 << (left + n + 2 - k)


def _track_table(x: int, n: int) -> list:
    """The track pairs (phi^(k)(x/2^n + 1/2^(n+1)), phi^(k)(x/2^n + 1/2^(n+2)))
    for k = 0..n, one triangle step apart: entry i - 1 is the input of a bit
    extractor starting at bit i.

    The tracks stay on the grid of 2^-(n+2), so the steps run on integers
    a in those units: triangle_value is sigma(sigma(2a) - sigma(4a - 2u))
    with u = 2^(n+2).
    """
    u = 1 << (n + 2)

    def step(a: int) -> int:
        return max(max(2 * a, 0) - max(4 * a - 2 * u, 0), 0)

    p, q = (x << 2) + 2, (x << 2) + 1
    table = [(Fraction(p, u), Fraction(q, u))]
    for _ in range(n):
        p, q = step(p), step(q)
        table.append((Fraction(p, u), Fraction(q, u)))
    return table


def _tap_bit(p: Fraction, q: Fraction, n: int, i: int) -> int:
    """Bit i from the stage-(i+1) track pair: 2^(n+2-i) * sigma(q - p).

    This is the iterated-triangle identity
    bit_i = 2^(n+2-i) * sigma(phi^(i)(x/2^n + 1/2^(n+2)) - phi^(i)(x/2^n + 1/2^(n+1))).
    A tap that is not an integer is a ValueError, never rounded.
    """
    tap = _relu(q - p) * 2 ** (n + 2 - i)
    if tap.denominator != 1:
        raise ValueError(f"the tap of bit {i} is {tap}, not an integer")
    return tap.numerator


def build_bit_extractor(n: int, i: int, j: int) -> LayeredNet:
    """Net advancing both triangle tracks from stage i-1 to stage j while
    summing the tapped bits.

    Input (phi^(i-1)(x/2^n + 1/2^(n+1)), phi^(i-1)(x/2^n + 1/2^(n+2)));
    output (phi^(j) of both, bin_range(x, i, j, n)).  Depth 3(j-i+1),
    width at most 5; all weights are signed powers of two.
    """
    if i < 1 or i > j or j > n:
        raise IndexError(f"bit range {i}:{j} out of range for width {n}")
    t = TapeBuilder(["p", "q"])
    for k in range(i, j + 1):  # global bit tapped by this block
        carry = ["y"] if k > i else []
        for rows in triangle_step_rows("p", "q", "t", "h"):
            t.layer(rows + t.passthrough_rows(carry))
        y_terms = {"t": tap_weight(n, k, j - k), **dict.fromkeys(carry, 1)}
        t.layer([("p", 0, {"p": 1}), ("q", 0, {"q": 1}), ("y", 0, y_terms)],
                relu=k < j)
    return t.build(f"bit_extractor[n={n},{i}:{j}]", output_nonneg=True)


# ---------------------------------------------------------------------------
# exhaustive oracles


def _grid(lo: Fraction, hi: Fraction, step: Fraction):
    x = lo
    while x <= hi:
        yield x
        x += step


def _summary(suite: str, checks: int, witnesses: list) -> dict:
    return {"suite": suite, "checks": checks, "mismatches": witnesses,
            "pass": not witnesses}


def oracle_triangle(max_iter: int = 6, grid_halving: int = 6) -> dict:
    """Composed triangle nets vs the scalar formula on dyadic grids of [0,1]."""
    grid = [Fraction(t, 2 ** grid_halving) for t in range((1 << grid_halving) + 1)]
    witnesses = []
    net = build_triangle()
    for k in range(1, max_iter + 1):
        for z, (got,) in zip(grid, _eval_lanes(net, [[t] for t in grid])):
            want = triangle_iterate(z, k)
            if got != want:
                witnesses.append({"suite": "triangle", "k": k, "z": str(z),
                                  "got": str(got), "want": str(want)})
        net = compose_serial(net, build_triangle())
    return _summary("triangle", max_iter * len(grid), witnesses)


def _window_ok(got, want, x, lo, hi) -> bool:
    """The window_rows contract: the formula's value, in [0, 1], 1 on
    [lo, hi] and 0 beyond the 1/2 margins."""
    half = Fraction(1, 2)
    return (got == want and 0 <= got <= 1 and (got == 1 or not lo <= x <= hi)
            and (got == 0 or lo - half <= x <= hi + half))


def oracle_indicator(pairs=((2, 5), (0, 1), (7, 19)), step=Fraction(1, 4)) -> dict:
    """Indicator nets vs formula and contract on grids over [a-3, b+3]."""
    checks = 0
    witnesses = []
    for a, b in pairs:
        xs = list(_grid(Fraction(a - 3), Fraction(b + 3), step))
        checks += len(xs)
        for x, (got,) in zip(xs, _eval_lanes(build_indicator(a, b), [[t] for t in xs])):
            want = indicator_value(a, b, x)
            if not _window_ok(got, want, x, a, b):
                witnesses.append({"suite": "indicator", "a": a, "b": b, "x": str(x),
                                  "got": str(got), "want": str(want)})
    return _summary("indicator", checks, witnesses)


def oracle_distance(y_values=(0, 3, 10), step=Fraction(1, 4)) -> dict:
    """Distance gate vs formula and contract on 2-D grids around each y."""
    cases = [(x, y) for y in y_values for x in _grid(Fraction(y - 3), Fraction(y + 4), step)]
    outs = _eval_lanes(build_distance_gate(), [[x, Fraction(y)] for x, y in cases])
    witnesses = []
    for (x, y), (got,) in zip(cases, outs):
        want = distance_value(x, Fraction(y))
        if not _window_ok(got, want, x, y, y + 1):
            witnesses.append({"suite": "distance", "y": y, "x": str(x),
                              "got": str(got), "want": str(want)})
    return _summary("distance", len(cases), witnesses)


def oracle_bits(n_max: int = 10) -> dict:
    """Exhaustive check of extractor nets against brute-force bit slicing.

    For all n <= n_max, all x < 2^n, all 1 <= i <= j <= n, the network's
    third output must equal bin_range(x, i, j, n) exactly.  The single-bit
    tap formula is swept on the same domain, on the track pairs of the
    per-(n, x) table the net sweep uses.
    """
    if not 1 <= n_max <= 14:
        raise ParameterError(f"n_max must be in 1..14 (above 14 would take too long), "
                             f"got {n_max}")
    checks = 0
    witnesses = []
    for n in range(1, n_max + 1):
        tracks = [_track_table(x, n) for x in range(1 << n)]
        for i in range(1, n + 1):
            for x in range(1 << n):
                got = _tap_bit(*tracks[x][i], n, i)
                want = bin_range(x, i, i, n)
                checks += 1
                if got != want:
                    witnesses.append({"suite": "bits", "kind": "formula", "n": n,
                                      "i": i, "x": x, "got": got, "want": want})
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                net = build_bit_extractor(n, i, j)
                outs = _eval_lanes(net, [tracks[x][i - 1] for x in range(1 << n)])
                for x, out in enumerate(outs):
                    want_tracks = tracks[x][j]
                    want_bits = bin_range(x, i, j, n)
                    checks += 1
                    # normalized Fractions are equal when their ratios are;
                    # comparing those skips Fraction.__eq__'s type dispatch
                    ok = (out[2] == want_bits
                          and out[0].as_integer_ratio() == want_tracks[0].as_integer_ratio()
                          and out[1].as_integer_ratio() == want_tracks[1].as_integer_ratio())
                    if not ok:
                        witnesses.append({
                            "suite": "bits", "kind": "net", "n": n, "i": i, "j": j,
                            "x": x, "got": str(out[2]), "want": want_bits})
                        if len(witnesses) > 20:
                            return _summary("bits", checks, witnesses)
    return _summary("bits", checks, witnesses)


def oracle_stage3(seed: int = 0, trials: int = 12) -> dict:
    """Random small block-matcher instances vs direct block lookup.

    Builds payload integers from pairwise-separated block values, then checks
    the matcher net returns the paired label block at gated inputs and exact
    zero far from every block value.
    """
    from .pipeline import build_stage3  # lazy: pipeline imports this module

    rng = random.Random(seed)
    checks = 0
    witnesses = []
    for _ in range(trials):
        rho = rng.randint(2, 4)
        c = rng.randint(1, 3)
        # pairwise >= 2 apart block values, each fitting in rho bits
        pool = list(range(0, 1 << rho, 2))
        n = rng.randint(1, min(3, len(pool)))
        rng.shuffle(pool)
        blocks = sorted(pool[:n])
        labels = [rng.randrange(1 << c) for _ in range(n)]
        u = pack_blocks(blocks, rho)
        w = pack_blocks(labels, c)
        # (x, wanted output): gated inputs give the paired label block, and
        # inputs far from every block value give exact zero
        cases = [(Fraction(blk) + off, labels[t]) for t, blk in enumerate(blocks)
                 for off in (Fraction(0), Fraction(1, 4), Fraction(1))]
        far = max(blocks) + 2
        cases += [(x, 0) for x in (Fraction(far), Fraction(4 * far + 7, 4))
                  if all(abs(x - blk) >= Fraction(3, 2) for blk in blocks)]
        outs = _eval_lanes(build_stage3(n, rho, c),
                           [[x, Fraction(w), Fraction(u)] for x, _ in cases])
        for (x, want), (got, *_) in zip(cases, outs):
            checks += 1
            if got != want:
                witnesses.append({"suite": "stage3", "n": n, "rho": rho, "c": c,
                                  "x": str(x), "got": str(got), "want": want})
    return _summary("stage3", checks, witnesses)
