"""Explicit layered ReLU network representation with exact evaluators.

A network is a stack of affine layers; every layer but the last applies the
ReLU elementwise.  Weights are sparse rows of DyadicRational, so the
parameter count (number of nonzero weights and biases) is exact and the
block-diagonal zeros created by stacking are free.  Depth counts affine
layers including the final one; width is the largest hidden-layer size.
"""

from __future__ import annotations

import functools
import gc
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .exactnum import DyadicRational

__all__ = [
    "DimensionError",
    "ContractViolation",
    "AffineLayer",
    "LayeredNet",
    "NetMetrics",
    "metrics",
    "effective_bits",
    "eval_exact",
    "eval_exact_batch",
    "check_outputs",
    "eval_float",
    "compose_serial",
    "stack_parallel",
    "deserialize_net",
    "save_net",
    "load_net",
    "TapeBuilder",
]

FORMAT_VERSION = 1


class DimensionError(ValueError):
    """Input or interface dimensions do not line up."""


class ContractViolation(RuntimeError):
    """A net without a nonnegative-output certificate was composed or padded."""


# One shared immutable value per small integer weight or bias: identity rows
# and zero biases are most of the cells of a built net.
_SMALL_INTS = {k: DyadicRational(k, 0) for k in range(-16, 17)}


def _as_dyadic(v) -> DyadicRational:
    if isinstance(v, DyadicRational):
        return v
    if isinstance(v, int):
        d = _SMALL_INTS.get(v)
        return DyadicRational(v, 0) if d is None else d
    raise TypeError(f"weight must be int or DyadicRational, got {type(v)!r}")


class AffineLayer:
    """One affine map with optional ReLU.

    rows[k] is a tuple of (input_index, weight) pairs for output unit k;
    zero weights are never stored, and a row names a column at most once.
    """

    __slots__ = ("in_dim", "out_dim", "rows", "biases", "relu")

    def __init__(self, in_dim, out_dim, rows, biases, relu):
        rows = tuple([tuple([(int(i), d) for i, w in row if (d := _as_dyadic(w)).sign])
                      for row in rows])
        for row in rows:
            for i, _ in row:
                if not 0 <= i < in_dim:
                    raise DimensionError(f"column {i} out of range for in_dim {in_dim}")
            if len(row) > 1 and len({i for i, _ in row}) != len(row):
                raise DimensionError("a row names a column twice")
        self._fill(in_dim, out_dim, rows, tuple(map(_as_dyadic, biases)), bool(relu))

    def _fill(self, in_dim, out_dim, rows, biases, relu) -> AffineLayer:
        """Set the fields from checked rows (tuples of (column in range, nonzero
        dyadic), each column once); deserialize_net calls it on a bare
        AffineLayer.__new__."""
        if len(rows) != out_dim or len(biases) != out_dim:
            raise DimensionError("row/bias count does not match out_dim")
        self.in_dim, self.out_dim, self.rows = in_dim, out_dim, rows
        self.biases, self.relu = biases, relu
        return self

    def nonzero_params(self) -> int:
        return sum(len(r) for r in self.rows) + sum(1 for b in self.biases if b.sign)


class LayeredNet:
    """Immutable layer stack.  The final layer never applies ReLU.

    `output_nonneg` is a builder-supplied certificate that the outputs are
    nonnegative on the declared input domain.  Composition and padding
    require it: they turn the final affine layer into a genuine ReLU layer,
    which leaves the computed function unchanged on that domain.
    """

    __slots__ = ("input_dim", "layers", "provenance", "output_nonneg",
                 "_plan", "_prog", "_seams", "_flt", "_stats", "_e0")

    def __init__(self, input_dim, layers, provenance="", output_nonneg=False):
        layers = tuple(layers)
        if not layers:
            raise DimensionError("a network needs at least one layer")
        dim = input_dim
        for k, layer in enumerate(layers):
            if layer.in_dim != dim:
                raise DimensionError(f"layer {k} expects {layer.in_dim} inputs, got {dim}")
            dim = layer.out_dim
        if layers[-1].relu:
            raise DimensionError("final layer must be affine (no ReLU)")
        object.__setattr__(self, "input_dim", input_dim)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "output_nonneg", bool(output_nonneg))
        for cache in ("_plan", "_prog", "_seams", "_flt", "_stats"):
            object.__setattr__(self, cache, None)
        object.__setattr__(self, "_e0", 0)  # lowest input exponent seen (_lower_e0)

    def __setattr__(self, name, value):
        raise AttributeError("LayeredNet is immutable")

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class NetMetrics:
    width: int
    depth: int
    params: int
    bits: int
    exponent_range: int

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "params": self.params,
            "bits": self.bits,
            "exponent_range": self.exponent_range,
        }


def _stored_values(net: LayeredNet):
    """Every stored weight and every nonzero bias of the net."""
    for layer in net.layers:
        yield from (w for row in layer.rows for _, w in row)
        yield from (b for b in layer.biases if b.sign)


def _stats(net: LayeredNet) -> tuple[NetMetrics, int]:
    """metrics and effective_bits of the net from one walk of its stored
    values, cached like the register plan."""
    if net._stats is None:
        sizes = [(m.bit_length(), abs(e))
                 for m, e in {(w.mantissa, w.exponent) for w in _stored_values(net)}]
        bits = max((b for b, _ in sizes), default=0)
        erange = max((e for _, e in sizes), default=0)
        ebits = max((b + e for b, e in sizes), default=0)
        width = max((l.out_dim for l in net.layers[:-1]), default=0)
        params = sum(l.nonzero_params() for l in net.layers)
        object.__setattr__(net, "_stats", (
            NetMetrics(width, len(net.layers), params, bits, erange), ebits))
    return net._stats


def metrics(net: LayeredNet) -> NetMetrics:
    return _stats(net)[0]


def effective_bits(net: LayeredNet) -> int:
    """Storage bits of the worst weight: mantissa length plus |exponent|.

    For an integer weight this equals its plain bit length; for a scale
    2**-k it is k+1.  Used by the audit's bit-complexity comparisons.
    """
    return _stats(net)[1]


# ---------------------------------------------------------------------------
# evaluation


def _plan(net: LayeredNet) -> tuple:
    """The net's register plan, cached; the exact and float programs fill it in.

    Op t writes virtual register input_dim + t.  An identity row (weight 1,
    bias 0) aliases its source register when ReLU cannot clip it: the source
    is a ReLU output or the row applies no ReLU.  A slot is reused once its
    register's last reader has run, so a pass holds about one layer of
    values.  Ops: (bias, source slots, weights, relu, destination slot);
    outputs: slots.
    """
    if net._plan is not None:
        return net._plan
    chan = list(range(net.input_dim))  # virtual register of each channel
    ops = []
    nonneg = False  # the channels in `chan` are ReLU outputs
    for layer in net.layers:
        regs = []
        for row, bias in zip(layer.rows, layer.biases):
            if (len(row) == 1 and not bias.sign and (nonneg or not layer.relu)
                    and (w := row[0][1]).exponent == 0 and w.mantissa == 1 and w.sign == 1):
                regs.append(chan[row[0][0]])
                continue
            ops.append((bias, [chan[i] for i, _ in row], tuple([w for _, w in row]),
                        layer.relu))
            regs.append(net.input_dim + len(ops) - 1)
        chan = regs
        nonneg = layer.relu
    # index of each virtual register's last reader (-1: none); outputs live to the end
    last = [-1] * (net.input_dim + len(ops))
    for t, op in enumerate(ops):
        for r in op[1]:
            last[r] = t
    for r in chan:
        last[r] = len(ops)
    slot, free, size = list(range(net.input_dim)), [], net.input_dim
    for t, (bias, srcs, weights, relu) in enumerate(ops):
        free.extend({slot[r] for r in srcs if last[r] == t})
        slot.append(free.pop() if free else size)
        size = max(size, slot[-1] + 1)
        if last[net.input_dim + t] < 0:  # never read: reuse at once
            free.append(slot[-1])
        ops[t] = (bias, tuple([slot[r] for r in srcs]), weights, relu, slot[-1])
    object.__setattr__(net, "_plan", (tuple(ops), size, tuple([slot[r] for r in chan])))
    return net._plan


def _compile(net: LayeredNet) -> tuple:
    """The plan as an integer program, compiled on the net's first exact
    evaluation and never rebuilt.

    Register values are integers v standing for v * 2**E / den, where
    den = D << -e0: D is the odd part of the point's common input
    denominator and e0 the net's input exponent (_lower_e0).  Every op
    multiplies its bias by den, so the program does not depend on e0.  E is
    a static exponent: 0 for inputs, and for a computed row the smallest
    exponent among its terms and bias, so weights and biases fold into
    integer coefficients.  A slot holds one register from its write to its
    last read, so exponents are kept per slot.
    """
    if net._prog is not None:
        return net._prog
    plan, size, outputs = _plan(net)
    exps = [0] * size  # static exponent of the register each slot holds
    ops = []
    for bias, slots, weights, relu, dest in plan:
        ts = [w.exponent + exps[s] for s, w in zip(slots, weights)]
        e = min([*ts, bias.exponent] if bias.sign else ts, default=0)
        ops.append((bias.sign * bias.mantissa << (bias.exponent - e) if bias.sign else 0,
                    tuple([(s, w.sign * w.mantissa << (t - e))
                           for s, w, t in zip(slots, weights, ts)]),
                    relu, dest))
        exps[dest] = e
    object.__setattr__(net, "_prog", (tuple(ops), size,
                                      tuple([(s, exps[s]) for s in outputs])))
    return net._prog


def _lower_e0(net: LayeredNet, points) -> int:
    """The net's input exponent e0 <= 0, first lowered to the least 2-adic
    exponent of the points' coordinates, read without scaling them.  It
    only falls, and a lower e0 rebuilds nothing; check_outputs and `memnet
    eval` call this before their per-point loops, so their points share
    one den and one set of memo keys."""
    e0 = min([net._e0, *[1 - (x.denominator & -x.denominator).bit_length()
                         for p in points for x in p if isinstance(x, Fraction)]])
    object.__setattr__(net, "_e0", e0)
    return e0


def _scaled(x) -> tuple[int, int, int]:
    """(n, e, d) with x == n * 2**e / d and d odd, for an int or Fraction x."""
    if type(x) is int:
        return x, 0, 1
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"input must be int or Fraction, got {type(x)!r}")
    n, den = x.as_integer_ratio()
    twos = (den & -den).bit_length() - 1
    return n, -twos, den >> twos


def eval_exact(net: LayeredNet, xs: Sequence) -> list:
    """Exact forward pass; no rounding anywhere: eval_exact_batch on a
    batch of one.

    Inputs are int or Fraction; outputs are Fraction.
    """
    return eval_exact_batch(net, [xs])[0]


def _value(v: int, e: int, den: int) -> Fraction:
    """v * 2**e / den."""
    return Fraction(v << e, den) if e >= 0 else Fraction(v, den << -e)


# Bits held in one lane-packed register: eval_exact_batch cuts a group of
# points into chunks of _REGISTER_BITS // W lanes, so a pass holds about
# one layer of registers of at most this size, however many points it has.
_REGISTER_BITS = 1 << 16


def _lane_groups(net: LayeredNet, points) -> tuple:
    """(program, {den: (point indices, their input registers)}).

    The one place inputs are checked and scaled: each point is written as
    integers over its runtime denominator den = D << -e0, with D the odd
    part of its common input denominator and e0 the net's input exponent,
    first lowered for this batch (_lower_e0).
    """
    parts = []
    for xs in points:
        if len(xs) != net.input_dim:
            raise DimensionError(f"expected {net.input_dim} inputs, got {len(xs)}")
        parts.append([_scaled(x) for x in xs])
    prog, e0, groups = _compile(net), _lower_e0(net, points), {}
    for k, p in enumerate(parts):
        den = 1
        for _, _, d in p:
            if d != 1:
                den = lcm(den, d)
        if den == 1:  # every denominator a power of two: no scaling by D // d
            regs = [n << (e - e0) for n, e, _ in p]
        else:
            regs = [n * (den // d) << (e - e0) for n, e, d in p]
        members, inputs = groups.setdefault(den << -e0, ([], []))
        members.append(k)
        inputs.append(regs)
    return prog, groups


def _lane_bounds(prog: tuple, den: int, lows, highs) -> tuple[int, list]:
    """(W, clips) for input registers in [lows[i], highs[i]] over den.

    Interval bound propagation over the integer program (Gowal et al.,
    arXiv:1810.12715): every input, and every row's value before and after
    its ReLU, stays within the bounds of its register for each point of the
    batch.  W is the bit length of the largest bound plus 2, so each value
    fits in W - 2 bits and a lane has room for its sign and for the offset
    2**(W-1) of the ReLU mask.  clips[t] is false when op t has no ReLU or
    its lower bound is >= 0, so the ReLU can never clip.
    """
    ops, size, _ = prog
    lo = [*lows, *[0] * (size - len(lows))]
    hi = [*highs, *[0] * (size - len(highs))]
    top = max([*highs, *[-v for v in lows]], default=0)
    clips = []
    for bias, terms, relu, dest in ops:
        a = b = bias * den
        for r, c in terms:
            if c > 0:
                a += c * lo[r]
                b += c * hi[r]
            else:
                a += c * hi[r]
                b += c * lo[r]
        top = max(top, b, -a)
        clip = relu and a < 0
        clips.append(clip)
        if clip:
            a, b = 0, max(b, 0)
        lo[dest], hi[dest] = a, b
    return top.bit_length() + 2, clips


def _pack(values, width: int) -> int:
    """sum(v << k*width): values[k] in lane k.  A negative lane borrows from
    the lanes above it; the offset 2**(width-1) in every lane undoes that."""
    if len(values) > 32:  # halve, so packing many lanes stays O(n log n)
        h = len(values) >> 1
        return _pack(values[:h], width) + (_pack(values[h:], width) << h * width)
    acc = 0
    for v in reversed(values):
        acc = (acc << width) + v
    return acc


def _lanes(q: int, width: int, count: int) -> list:
    """The count width-bit fields of q >= 0, lane 0 first."""
    if count > 32:
        h = count >> 1
        return (_lanes(q & ((1 << h * width) - 1), width, h)
                + _lanes(q >> h * width, width, count - h))
    mask = (1 << width) - 1
    return [q >> k * width & mask for k in range(count)]


# A boundary between two ops is a seam when at most this many registers are
# live across it: the (x, w, u) stage seams of sqrt and regression nets and
# the (x, w, u, y) block seams of a bits chain.
_SEAM_WIDTH = 4
# A segment keeps a memo only when at least this many of its ops are static
# and read an input: a constant op costs the same on a hit as on a miss.  At
# 1-3 the bucket selector's 5-op segments (4 static ops, keyed on the
# accumulators, so they never hit) get memos, and a first pass over a sqrt
# build at N = 256 took 0.86-0.89 of the memo-free time instead of 0.46-0.50
# (2-core Xeon, Python 3.11).
_MIN_STATIC = 8
# The memos of one program stop inserting once they would hold more than
# this many bits, each stored integer counted as its bit length plus 64.
_MEMO_BITS = 1 << 24


class _Seams:
    """The integer program cut at its seams, each segment with its memo.

    segments are (keys, ops, dyn, exports, memo) in program order.  A plain
    run has keys None and the program's own ops.  A memoized segment keys
    its memo on (den, the values of its key slots); its ops are (bias,
    terms, rest, relu, dest), where a static op has rest None and a dynamic
    op's terms are its static terms and rest its dynamic ones.  An entry
    holds each dynamic op's static partial sum (bias*den plus its static
    terms) and the values of the export slots.  dyn lists the dynamic ops as (dynamic
    terms, relu, dest).  bits counts what the memos hold.  The program
    never changes, so the memos live as long as the net; entries keyed at
    an older den stay exact and still count toward _MEMO_BITS.
    """

    __slots__ = ("segments", "bits")

    def __init__(self, segments):
        self.segments, self.bits = segments, 0

    def run(self, regs: list, den: int) -> None:
        """Every op of the program on one point's registers, over den."""
        for keys, ops, dyn, exports, memo in self.segments:
            if keys is None:
                for bias, terms, relu, dest in ops:
                    acc = bias * den
                    for r, c in terms:
                        acc += c * regs[r]
                    if relu and acc < 0:
                        acc = 0
                    regs[dest] = acc
                continue
            key = (den, *[regs[s] for s in keys])
            hit = memo.get(key)
            if hit is not None:  # only the dynamic ops run
                partials, saved = hit
                for acc, (terms, relu, dest) in zip(partials, dyn):
                    for r, c in terms:
                        acc += c * regs[r]
                    if relu and acc < 0:
                        acc = 0
                    regs[dest] = acc
                for s, v in zip(exports, saved):
                    regs[s] = v
                continue
            partials = []  # the segment in program order, recording the partials
            for bias, terms, rest, relu, dest in ops:
                acc = bias * den
                for r, c in terms:
                    acc += c * regs[r]
                if rest is not None:
                    partials.append(acc)
                    for r, c in rest:
                        acc += c * regs[r]
                if relu and acc < 0:
                    acc = 0
                regs[dest] = acc
            saved = [regs[s] for s in exports]
            cost = sum([v.bit_length() + 64 for v in (*key, *partials, *saved)])
            if self.bits + cost <= _MEMO_BITS:
                memo[key] = (partials, saved)
                self.bits += cost


def _dynamic_bit(supports: list) -> int:
    """The support bit of a segment's dynamic start register: of the start
    registers its ops read, the one whose exclusion leaves the most ops
    independent of it (the first on a tie; 0 when they read none)."""
    read = 0
    for m in supports:
        read |= m
    best, rbit = -1, 0
    for i in range(read.bit_length()):
        if read >> i & 1:
            count = sum([not m >> i & 1 for m in supports])
            if count > best:
                best, rbit = count, 1 << i
    return rbit


def _segment(ops, start, end, const: list) -> tuple:
    """ops, which run from a boundary where the slots `start` are live to one
    where `end` are (both sorted), as a segment of _Seams.

    A forward pass gives every op its support: a bitmask over the start
    registers it depends on.  A start register that depends on no input
    (const[slot], brought up to the end of ops here) has no bit, so a value
    is constant exactly when its support is 0; a start wider than a seam
    gives all its registers one bit.  The ops whose support leaves out the
    dynamic register r (_dynamic_bit) are static: exact integer functions of
    den and of the start registers they read, which form the key.  So equal
    keys give equal partials and exports, and results are exact for any
    seam or r; a poor choice only loses sharing.  A segment with fewer than
    _MIN_STATIC static ops of nonzero support is a plain run: a constant op
    runs on a hit as on a miss, so it saves nothing.
    """
    wide, bits = len(start) > _SEAM_WIDTH, {}
    for s in start:
        if not const[s]:
            bits[s] = 1 if wide else 1 << len(bits)
    sup = {s: bits.get(s, 0) for s in start}
    supports = []
    for _, terms, _, dest in ops:
        m = 0
        for r, _ in terms:
            m |= sup[r]
        sup[dest] = m
        const[dest] = not m
        supports.append(m)
    rbit = _dynamic_bit(supports)
    if sum([bool(m) and not m & rbit for m in supports]) < _MIN_STATIC:
        return None, list(ops), (), (), None
    sup = {s: bits.get(s, 0) for s in start}
    keymask, split, dyn, written = 0, [], [], {}
    for (bias, terms, relu, dest), m in zip(ops, supports):
        rest = None
        if m & rbit:
            rest = tuple([(r, c) for r, c in terms if sup[r] & rbit])
            terms = tuple([(r, c) for r, c in terms if not sup[r] & rbit])
            dyn.append((rest, relu, dest))
        for r, _ in terms:
            keymask |= sup[r]
        split.append((bias, terms, rest, relu, dest))
        sup[dest] = written[dest] = m
    keys = tuple([s for s in bits if bits[s] & keymask])
    exports = tuple([s for s in end if s in written and not written[s] & rbit])
    return keys, split, dyn, exports, {}


def _seams(prog: tuple) -> _Seams:
    """The program cut at its seams, for the per-point loop.

    A backward pass finds the seams: the boundaries with at most _SEAM_WIDTH
    live registers; it keeps the live set only there.  The first op starts
    a segment and the last ends one, seams or not.  Each segment is
    analysed by _segment, and adjacent plain runs merge into one.
    """
    ops, size, outputs = prog
    live = {s for s, _ in outputs}
    seams = {len(ops): tuple(sorted(live))}
    for t in range(len(ops) - 1, -1, -1):
        _, terms, _, dest = ops[t]
        live.discard(dest)
        live.update([r for r, _ in terms])
        if len(live) <= _SEAM_WIDTH or not t:
            seams[t] = tuple(sorted(live))
    bounds = sorted(seams)
    const, segments = [False] * size, []
    for a, b in zip(bounds, bounds[1:]):
        seg = _segment(ops[a:b], seams[a], seams[b], const)
        if seg[0] is None and segments and segments[-1][0] is None:
            segments[-1][1].extend(seg[1])
        else:
            segments.append(seg)
    return _Seams(segments)


def eval_exact_batch(net: LayeredNet, points) -> list:
    """[eval_exact(net, p) for p in points]: the same values, types and
    errors, with each register one Python int for a whole group of points.

    Points are grouped by their runtime denominator den (_compile), and
    point k of a group sits in bits [kW, (k+1)W) of every register (SIMD
    within a register: Fisher & Dietz, LCPC 1998).  The layout is linear,
    so an affine row is bias*den*ONES + sum(c*R) for all lanes at once,
    where ONES has a 1 in every lane.  A ReLU that can clip runs on Q = R + 2**(W-1)*ONES:
    s = (Q >> (W-1)) & ONES marks the lanes >= 0, and
    (Q & ((s << W) - s)) - (s << (W-1)) keeps them.  The lane width W
    comes from an interval pass over the program (_lane_bounds), which
    proves that no lane carries into its neighbour and marks the ReLUs
    that cannot clip, which skip the mask.  A register holds at most
    _REGISTER_BITS bits; a group of one point, or one whose lanes are too
    wide for two to fit, runs point by point on its scaled registers.
    That loop runs the program cut at its seams (_seams, built once per
    net): a segment's static ops, those that do not depend on its dynamic
    register, run once per key (den and the values of the seam registers
    they read), and later points with that key run only the dynamic ops.
    Every point of a bucket reaches the block matcher with the same
    payload registers, so the matcher's static work runs once per bucket
    and den.  eval_exact is a batch of one; check_outputs stays per point
    while the benchmark pins its eval_exact calls per build point (README,
    "Exact evaluation").
    """
    prog, groups = _lane_groups(net, points)
    ops, size, outputs = prog
    results = [None] * len(points)
    for den, (members, inputs) in groups.items():
        lanes = 0
        if len(members) > 1:
            cols = list(zip(*inputs))
            width, clips = _lane_bounds(prog, den, [min(c) for c in cols],
                                        [max(c) for c in cols])
            lanes = _REGISTER_BITS // width
        if lanes < 2:
            seams = net._seams
            if seams is None:
                seams = _seams(prog)
                object.__setattr__(net, "_seams", seams)
            for k, regs in zip(members, inputs):
                regs += [0] * (size - len(regs))
                seams.run(regs, den)
                results[k] = [_value(regs[r], e, den) for r, e in outputs]
            continue
        shift = width - 1
        for start in range(0, len(members), lanes):
            chunk = inputs[start:start + lanes]
            count = len(chunk)
            ones = ((1 << count * width) - 1) // ((1 << width) - 1)
            half, unit = ones << shift, den * ones
            regs = [_pack(col, width) for col in zip(*chunk)]
            regs += [0] * (size - len(regs))
            for (bias, terms, _, dest), clip in zip(ops, clips):
                acc = bias * unit
                for r, c in terms:
                    acc += c * regs[r]
                if clip:
                    q = acc + half
                    s = (q >> shift) & ones
                    acc = (q & ((s << width) - s)) - (s << shift)
                regs[dest] = acc
            columns = []
            for r, e in outputs:
                fields = _lanes(regs[r] + half, width, count)
                # each distinct output is built once: labels and bits repeat
                made = {v: _value(v - (1 << shift), e, den) for v in set(fields)}
                columns.append([made[v] for v in fields])
            for i, k in enumerate(members[start:start + lanes]):
                results[k] = [col[i] for col in columns]
    return results


def check_outputs(net: LayeredNet, points, expected):
    """Evaluate every point exactly against its expected first output.

    Returns (indices of the points whose output differs, the largest
    absolute error as a Fraction).  This is the one loop that checks
    eval_exact outputs: build verification, the audit and `verify` use it.
    """
    _lower_e0(net, points)
    bad, worst = [], Fraction(0)
    for idx, (p, want) in enumerate(zip(points, expected)):
        got = eval_exact(net, list(p))[0]
        if got != want:
            bad.append(idx)
            worst = max(worst, abs(got - want))
    return bad, worst


def eval_float(net: LayeredNet, xs: Sequence[float]) -> list[float]:
    """Same recursion under IEEE float64 rounding; NaN/Inf propagate.

    Runs the register plan with float weights.  A row adds its bias, then
    its terms in stored order, left to right (sum() and math.fsum round
    differently), so the bits equal a walk over every row of every layer.
    Inputs are float(x) + 0.0: an aliased identity row then gives +0.0 for
    -0.0, as the row 0.0 + 1.0 * x does.
    """
    if len(xs) != net.input_dim:
        raise DimensionError(f"expected {net.input_dim} inputs, got {len(xs)}")
    if net._flt is None:
        plan, size, outputs = _plan(net)
        object.__setattr__(net, "_flt", (tuple(
            (bias.to_float(), tuple(zip(slots, [w.to_float() for w in weights])), relu, dest)
            for bias, slots, weights, relu, dest in plan), size, outputs))
    ops, size, outputs = net._flt
    regs = [float(x) + 0.0 for x in xs] + [0.0] * (size - len(xs))
    for acc, terms, relu, dest in ops:  # acc starts at the row's bias
        for r, w in terms:
            acc += w * regs[r]
        if relu and not acc > 0.0:
            acc = 0.0 if acc == acc else acc  # keep NaN
        regs[dest] = acc
    return [regs[s] for s in outputs]


# ---------------------------------------------------------------------------
# structural combinators


def _relu_seam_layers(a: LayeredNet) -> list[AffineLayer]:
    """a's layers with the final affine turned into a hidden ReLU layer.

    The inserted ReLU is the identity only on nonnegative values, so a must
    certify nonnegative outputs; ContractViolation otherwise.
    """
    if not a.output_nonneg:
        raise ContractViolation(
            f"{a.provenance or 'net'} has no nonnegative-output certificate, "
            "so a ReLU cannot follow its final affine layer")
    last = a.layers[-1]
    seam = AffineLayer(last.in_dim, last.out_dim, last.rows, last.biases, relu=True)
    return list(a.layers[:-1]) + [seam]


def compose_serial(a: LayeredNet, b: LayeredNet, provenance: str = "") -> LayeredNet:
    """Network computing b(a(x)); depth adds exactly.

    a's final affine layer becomes a hidden ReLU layer, which is the
    identity because a certifies nonnegative outputs (ContractViolation
    when it does not).
    """
    if b.input_dim != a.output_dim:
        raise DimensionError(
            f"cannot compose: {a.output_dim} outputs into {b.input_dim} inputs")
    return LayeredNet(
        a.input_dim,
        _relu_seam_layers(a) + list(b.layers),
        provenance or f"({a.provenance}>>{b.provenance})",
        output_nonneg=b.output_nonneg,
    )


def _identity_layer(dim: int, relu: bool) -> AffineLayer:
    rows = tuple(((i, 1),) for i in range(dim))
    return AffineLayer(dim, dim, rows, (0,) * dim, relu)


def _padded_layers(net: LayeredNet, depth: int) -> list[AffineLayer]:
    """net's layers padded with identity layers to the requested depth.

    Padding appends sigma(identity) layers after the (now hidden) final
    affine; valid only for nets certifying nonnegative outputs.
    """
    extra = depth - len(net.layers)
    if extra == 0:
        return list(net.layers)
    layers = _relu_seam_layers(net)
    dim = layers[-1].out_dim
    for k in range(extra):
        layers.append(_identity_layer(dim, relu=(k < extra - 1)))
    return layers


def stack_parallel(nets: Sequence[LayeredNet], provenance: str = "") -> LayeredNet:
    """Evaluate member nets side by side on a shared input.

    Outputs are concatenated; cross-member weights are zero and never
    stored, so parameter counts add exactly.  Shorter members are padded
    with nonnegative identity layers.
    """
    nets = list(nets)
    if not nets:
        raise DimensionError("stack_parallel needs at least one net")
    input_dim = nets[0].input_dim
    for net in nets:
        if net.input_dim != input_dim:
            raise DimensionError("stacked nets must share input_dim")
    depth = max(len(net.layers) for net in nets)
    columns = [_padded_layers(net, depth) for net in nets]
    stacked = []
    for k in range(depth):
        parts = [col[k] for col in columns]
        relu = parts[0].relu
        if any(p.relu != relu for p in parts):
            raise DimensionError("stacked nets disagree on ReLU at aligned layers")
        rows = []
        biases = []
        offset_in = 0
        for p in parts:
            shift = 0 if k == 0 else offset_in
            for row in p.rows:
                rows.append(tuple((i + shift, w) for i, w in row))
            biases.extend(p.biases)
            offset_in += p.in_dim
        in_dim = input_dim if k == 0 else offset_in
        stacked.append(AffineLayer(in_dim, len(rows), rows, biases, relu))
    return LayeredNet(
        input_dim,
        stacked,
        provenance or "stack(" + ",".join(n.provenance for n in nets) + ")",
        output_nonneg=all(n.output_nonneg for n in nets),
    )


# ---------------------------------------------------------------------------
# serialization (bit-exact; no floats in the file)

_DENSE_WIDTH_LIMIT = 16
# Load-time caps on every serialized weight and bias (docs/FORMATS.md): the
# evaluator turns exponents into shifts, so a crafted exponent is refused.
MAX_EXPONENT = 1 << 14
MAX_MANTISSA_BITS = 1 << 16


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
_ZERO_CELL = '{"e":0,"m":"0","s":0}'
# The dense-row skip takes a cell only when s and e are this object: the
# parser's int 0 is the interpreter's one cached small int, never False or
# 0.0.  Any other zero cell is read by `capped`, which checks its types.
_INT_ZERO = 0


def net_to_json_bytes(net: LayeredNet, builder: dict | None = None) -> bytes:
    """The network file: dense weight rows up to width 16, sparse beyond.

    Writes the sorted-key, compact JSON of docs/FORMATS.md straight to
    text; each distinct dyadic is encoded once per call.  ValueError if a
    weight or bias is past the caps load_net enforces.
    """
    real = metrics(net)
    if real.exponent_range > MAX_EXPONENT or real.bits > MAX_MANTISSA_BITS:
        raise ValueError(f"the network exceeds the load caps |e| <= {MAX_EXPONENT}, "
                         f"mantissa <= {MAX_MANTISSA_BITS} bits (it has |e| <= "
                         f"{real.exponent_range}, mantissa <= {real.bits} bits)")
    memo = {(0, 0, 0): _ZERO_CELL}

    def cell(d: DyadicRational) -> str:
        key = (d.sign, d.mantissa, d.exponent)
        text = memo.get(key)
        if text is None:
            text = memo[key] = f'{{"e":{d.exponent},"m":"{d.mantissa:x}","s":{d.sign}}}'
        return text

    layers = []
    for layer in net.layers:
        if max(layer.in_dim, layer.out_dim) <= _DENSE_WIDTH_LIMIT:
            rows = []
            for row in layer.rows:
                cells = [_ZERO_CELL] * layer.in_dim
                for i, w in row:
                    cells[i] = cell(w)
                rows.append("[" + ",".join(cells) + "]")
            w = "[" + ",".join(rows) + "]"
        else:
            rows = ["[" + ",".join([f"[{i},{cell(w)}]" for i, w in row]) + "]"
                    for row in layer.rows]
            w = f'{{"in_dim":{_dumps(layer.in_dim)},"sparse":[' + ",".join(rows) + "]}"
        layers.append(f'{{"b":[{",".join([cell(b) for b in layer.biases])}],'
                      f'"relu":{_dumps(layer.relu)},"w":{w}}}')
    head = "" if builder is None else f'"builder":{_dumps(builder)},'
    return (f'{{{head}"format_version":{FORMAT_VERSION},"input_dim":{_dumps(net.input_dim)},'
            f'"layers":[{",".join(layers)}],"metrics":{_dumps(real.to_json())},'
            f'"output_nonneg":{_dumps(net.output_nonneg)},'
            f'"provenance":{_dumps(net.provenance)}}}').encode()


def _capped(obj) -> DyadicRational:
    v = DyadicRational.from_json(obj)
    if abs(v.exponent) > MAX_EXPONENT or v.mantissa.bit_length() > MAX_MANTISSA_BITS:
        raise ValueError(f"weight {v!r} exceeds the caps |e| <= {MAX_EXPONENT}, "
                         f"mantissa <= {MAX_MANTISSA_BITS} bits")
    return v


def _typed(value, kind: type, what: str):
    """value if its type is exactly kind (so true is no int); ValueError otherwise."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r:.40}")
    return value


def _bad_column(i, in_dim: int):
    raise ValueError(f"sparse column {i!r:.40} is not a JSON integer in [0, {in_dim})")


def deserialize_net(obj: dict) -> LayeredNet:
    """The net of a parsed network file; ValueError on any malformed content.

    Each distinct cell (s, m, e) is decoded and checked against the caps
    once; a cell whose fields cannot form that key is decoded on its own.
    The key holds the types of s and e, since True == 1 == 1.0 hash alike
    and only the int is a valid field.  Every other field must have exactly
    the type docs/FORMATS.md gives it; a dense row has in_dim cells, and a
    sparse row names each column once.  Each row is checked as its cells are
    decoded, so the layers skip AffineLayer's checking constructor.
    """
    memo = {}

    def capped(cell) -> DyadicRational:
        try:
            s, e = cell["s"], cell["e"]
            key = (s, cell["m"], e, s.__class__, e.__class__)
            v = memo.get(key)
        except (TypeError, KeyError):  # not a dict, or a field missing or unhashable
            return _capped(cell)
        if v is None:
            v = memo[key] = _capped(cell)
        return v

    try:
        version = obj.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise ValueError(f"unsupported network format: {version!r}")
        input_dim = _typed(obj["input_dim"], int, "input_dim")
        layers = []
        for spec in obj["layers"]:
            biases = tuple([capped(b) for b in spec["b"]])
            w = spec["w"]
            rows = []
            if isinstance(w, dict):
                in_dim = _typed(w["in_dim"], int, "in_dim")
                for row in w["sparse"]:
                    rows.append(tuple([(i, d) for i, wt in row if (
                        type(i) is int and 0 <= i < in_dim or _bad_column(i, in_dim))
                        and (d := capped(wt)).sign]))
                    if len({i for i, _ in row}) != len(row):
                        raise ValueError("a sparse row names a column twice")
            else:
                in_dim = len(w[0]) if w else 0
                for row in w:
                    if len(row) != in_dim:
                        raise ValueError(f"a dense row has {len(row)} cells, not {in_dim}")
                    rows.append(tuple([(i, d) for i, wt in enumerate(row) if not (
                        wt["m"] == "0" and wt["s"] is _INT_ZERO and wt["e"] is _INT_ZERO)
                        and (d := capped(wt)).sign]))
            # older writers listed a layer's identity units: checked, then dropped
            marks = [_typed(u, int, "a passthrough unit") for u in spec.get("passthrough", ())]
            layers.append(AffineLayer.__new__(AffineLayer)._fill(
                in_dim, len(biases), tuple(rows), biases, _typed(spec["relu"], bool, "relu")))
            for u in marks:
                if not 0 <= u < len(biases):
                    raise DimensionError(
                        f"passthrough unit {u} out of range for out_dim {len(biases)}")
        return LayeredNet(input_dim, layers, _typed(obj.get("provenance", ""), str, "provenance"),
                          _typed(obj.get("output_nonneg", False), bool, "output_nonneg"))
    except (TypeError, AttributeError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed network file: {type(exc).__name__}: {exc}") from exc


def save_net(net: LayeredNet, path, builder: dict | None = None) -> None:
    data = net_to_json_bytes(net, builder)  # raises before the file is opened
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(b"\n")


def load_net(path) -> tuple[LayeredNet, dict | None]:
    with open(path, "rb") as fh:
        text = fh.read()
    # The parse tree holds no reference cycles, so a collection while it is
    # alive only rescans its cells: pause the collector until it is dropped.
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = json.loads(text)
        net, builder = deserialize_net(obj), obj.get("builder")
        del obj
        return net, builder
    except RecursionError:
        raise ValueError("network file nests too deeply to parse") from None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# layer-by-layer builder over named channels


class TapeBuilder:
    """Builds a LayeredNet from named-channel affine rows.

    Each emitted layer is a list of (name, bias, {source_name: coeff})
    triples; sources must name channels of the previous layer.  Keeps the
    fiddly index bookkeeping of the wide constructions out of the builders.
    """

    def __init__(self, input_names: Iterable[str]):
        self.names = list(input_names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate input channel names")
        self.input_dim = len(self.names)
        self.layers: list[AffineLayer] = []

    def layer(self, rows, relu=True):
        index = {name: i for i, name in enumerate(self.names)}
        out_rows = []
        biases = []
        new_names = []
        for name, bias, terms in rows:
            row = []
            for src, coeff in terms.items():
                if src not in index:
                    raise KeyError(f"unknown source channel {src!r}")
                row.append((index[src], coeff))
            out_rows.append(tuple(row))
            biases.append(bias)
            new_names.append(name)
        if len(set(new_names)) != len(new_names):
            raise ValueError("duplicate output channel names")
        self.layers.append(AffineLayer(len(self.names), len(out_rows), out_rows, biases, relu))
        self.names = new_names

    def passthrough_rows(self, names):
        """Identity rows for channels that survive this layer unchanged."""
        return [(n, 0, {n: 1}) for n in names]

    def build(self, provenance: str, output_nonneg: bool = False) -> LayeredNet:
        return LayeredNet(self.input_dim, self.layers, provenance, output_nonneg)
