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
import struct
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import copysign, gcd, inf, isfinite, lcm, nextafter
from typing import Iterable, Sequence

from .exactnum import ZERO, DyadicRational

__all__ = [
    "DimensionError",
    "ContractViolation",
    "AffineLayer",
    "LayeredNet",
    "NetMetrics",
    "metrics",
    "effective_bits",
    "eval_exact",
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
        dyadic), each column once), dyadic biases and a bool relu; _checked_layer
        calls it on a bare AffineLayer.__new__."""
        if len(rows) != out_dim or len(biases) != out_dim:
            raise DimensionError("row/bias count does not match out_dim")
        self.in_dim, self.out_dim, self.rows = in_dim, out_dim, rows
        self.biases, self.relu = biases, relu
        return self

    def nonzero_params(self) -> int:
        return sum(len(r) for r in self.rows) + sum(1 for b in self.biases if b.sign)


def _checked_layer(in_dim, out_dim, rows, biases, relu) -> AffineLayer:
    """A layer from rows, biases and relu already in _fill's form, which its
    caller has checked: it skips the checking constructor."""
    return AffineLayer.__new__(AffineLayer)._fill(in_dim, out_dim, rows, biases, relu)


class LayeredNet:
    """Immutable layer stack.  The final layer never applies ReLU.

    `output_nonneg` is a builder-supplied certificate that the outputs are
    nonnegative on the declared input domain.  Composition and padding
    require it: they turn the final affine layer into a genuine ReLU layer,
    which leaves the computed function unchanged on that domain.
    """

    __slots__ = ("input_dim", "layers", "provenance", "output_nonneg",
                 "_plan", "_cuts", "_prog", "_seams", "_flt", "_stats")

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
        for cache in ("_plan", "_cuts", "_prog", "_seams", "_flt", "_stats"):
            object.__setattr__(self, cache, None)

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
    """The net's register plan, cached; the exact and float programs fill it
    in, and the seam analysis (_seams) cuts it.

    Op t of the layer walk writes virtual register input_dim + t.  An
    identity row (weight 1, bias 0) aliases its source register when the
    source is a ReLU output: ReLU cannot clip it, and it is never -0.0, so
    the row's 0 + 1*x is x in either arithmetic.  Any other identity row,
    such as one on a raw input, runs as an op.  The ops run in layer
    order, except in a region whose ops form independent tracks (_tracks),
    which run track by track; the order is fixed on virtual registers, and
    the slots are then allocated again.  A slot is reused once its
    register's last reader has run, so a pass holds about one layer of
    values, or one track's.  Ops: (bias, source slots, weights, relu,
    destination slot, track), track None outside a track; outputs: slots.
    """
    if net._plan is not None:
        return net._plan
    dim = net.input_dim
    chan = list(range(dim))  # virtual register of each channel
    ops = []  # (bias, source registers, weights, relu, register, track)
    nonneg = False  # the channels in `chan` are ReLU outputs
    for layer in net.layers:
        regs = []
        for row, bias in zip(layer.rows, layer.biases):
            if (nonneg and len(row) == 1 and not bias.sign
                    and (w := row[0][1]).exponent == 0 and w.mantissa == 1 and w.sign == 1):
                regs.append(chan[row[0][0]])
                continue
            regs.append(dim + len(ops))
            ops.append((bias, [chan[i] for i, _ in row], tuple([w for _, w in row]),
                        layer.relu, regs[-1], None))
        chan = regs
        nonneg = layer.relu
    last = _last_readers(ops, chan, dim)
    order = _tracks(ops, last, _live_counts(last, dim), dim)
    plan = _slots(ops, chan, dim, last) if order is None else _slots(order, chan, dim)
    object.__setattr__(net, "_plan", plan)
    return net._plan


def _last_readers(ops: list, chan: list, dim: int) -> list:
    """The position of each register's last reader among the ops of _plan,
    in their order, whose outputs are the registers chan: -1 for none,
    len(ops) for an output."""
    last = [-1] * (dim + len(ops))
    for p, op in enumerate(ops):
        for r in op[1]:
            last[r] = p
    for r in chan:
        last[r] = len(ops)
    return last


def _live_counts(last: list, dim: int) -> list:
    """The number of registers live at each boundary between the ops whose
    last readers are `last` (_last_readers), the first and the last
    included: register dim + t from boundary t + 1 (an input from 0) up to
    the boundary before its last reader, and never if nothing reads it."""
    steps = [0] * (len(last) - dim + 2)
    for r, end in enumerate(last):
        if end >= 0:
            steps[r - dim + 1 if r >= dim else 0] += 1
            steps[end + 1] -= 1
    live, count = [], 0
    for step in steps[:-1]:
        count += step
        live.append(count)
    return live


def _slots(ops: list, chan: list, dim: int, last: list | None = None) -> tuple:
    """The plan of the ops of _plan in their order, whose outputs are the
    registers chan, with a slot for each register; last is _last_readers'
    for that order, computed when not given.  A slot is free again once its
    register's last reader has run."""
    if last is None:
        last = _last_readers(ops, chan, dim)
    slot, free, size, plan = list(range(dim)) + [0] * len(ops), [], dim, []
    for p, (bias, srcs, weights, relu, reg, track) in enumerate(ops):
        free.extend({slot[r] for r in srcs if last[r] == p})
        if free:
            s = slot[reg] = free.pop()
        else:
            s = slot[reg] = size
            size += 1
        if last[reg] < 0:  # never read: reuse at once
            free.append(s)
        plan.append((bias, tuple([slot[r] for r in srcs]), weights, relu, s, track))
    return tuple(plan), size, tuple([slot[r] for r in chan])


def _tracks(ops: list, last: list, live: list, dim: int) -> list | None:
    """The layer-walk ops of _plan in track order, each with its track set,
    or None to keep layer order; last and live are _last_readers' and
    _live_counts' for layer order.

    A region is the op range between two narrow boundaries, those with at
    most _SEAM_WIDTH live registers (the first and the last boundary count
    as narrow).  Its end-writers are the ops whose register is read after
    the region or is an output, and every op that reads an end-writer's
    register.  The other ops fall into groups, the connected components of
    their def-use edges inside the region.  A region with at least two
    groups of _MIN_STATIC or more ops runs group by group, in the order of
    each group's first op, each group in layer order, and then its
    end-writers in layer order: no op reads a later group, so this is a
    valid order, and each op keeps its terms, so values and float64 bits
    stay the same.  Each such group is a track, named by its first op.
    This is how the depth variant's stacked subset memorizers, which all
    read the projection z and meet only in the summation head, come to run
    one after another.
    """
    n, least = len(ops), max(2 * _MIN_STATIC, 2)
    if n < least:
        return None
    narrow = [t for t, count in enumerate(live) if count <= _SEAM_WIDTH or t == 0 or t == n]
    order, done = [], 0
    for a, b in zip(narrow, narrow[1:]):
        if b - a < least:
            continue
        base = dim + a
        parent, tail = list(range(b - a)), [end >= b for end in last[base:dim + b]]
        for i, op in enumerate(ops[a:b]):
            if tail[i]:
                continue
            root = i
            for r in op[1]:
                if (j := r - base) < 0:  # written before the region
                    continue
                if tail[j]:  # an end-writer too; groups it joined stay joined,
                    tail[i] = True  # and coarser groups keep the order valid
                    break
                while parent[j] != j:  # find, halving the path
                    parent[j] = j = parent[parent[j]]
                if j < root:
                    parent[root] = root = j
                elif j > root:
                    parent[j] = root
        groups = {}  # root (the group's first op) -> ops, in layer order
        for i in range(b - a):
            if not tail[i]:
                j = i
                while parent[j] != j:
                    j = parent[j]
                groups.setdefault(j, []).append(a + i)
        if sum([len(g) >= _MIN_STATIC for g in groups.values()]) < 2:
            continue
        order.extend(ops[done:a])
        for group in groups.values():
            order.extend([ops[t][:5] + (group[0],) for t in group])
        order.extend([ops[a + i] for i in range(b - a) if tail[i]])
        done = b
    if not done:
        return None
    return order + ops[done:]


def _compile(net: LayeredNet) -> tuple:
    """The plan as an integer program, compiled on the net's first exact
    evaluation and never rebuilt.

    Register values are integers v standing for v * 2**E / den, where
    den = D << -e0: D is the odd part of the point's common input
    denominator and e0 <= 0 the input exponent of its call.  Every op
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
    for bias, slots, weights, relu, dest, _ in plan:
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


def _scaled(x) -> tuple[int, int, int]:
    """(n, e, d) with x == n * 2**e / d and d odd, for an int or Fraction x."""
    if type(x) is int:
        return x, 0, 1
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"input must be int or Fraction, got {type(x)!r}")
    n, den = x.as_integer_ratio()
    twos = (den & -den).bit_length() - 1
    return n, -twos, den >> twos


def _value(v: int, e: int, den: int) -> Fraction:
    """v * 2**e / den."""
    return Fraction(v << e, den) if e >= 0 else Fraction(v, den << -e)


def _scaled_points(net: LayeredNet, points) -> list:
    """[(den, input registers)] of each point, in order.

    The one place inputs are checked and scaled: each point is written as
    integers over its runtime denominator den = D << -e0, with D the odd
    part of its common input denominator and e0 <= 0 the least 2-adic
    exponent of this call's coordinates; the net keeps no exponent.
    """
    parts = []
    for xs in points:
        if len(xs) != net.input_dim:
            raise DimensionError(f"expected {net.input_dim} inputs, got {len(xs)}")
        parts.append([_scaled(x) for x in xs])
    e0, scaled = min([0, *[e for p in parts for _, e, _ in p]]), []
    for p in parts:
        den = 1
        for _, _, d in p:
            if d != 1:
                den = lcm(den, d)
        if den == 1:  # every denominator a power of two: no scaling by D // d
            regs = [n << (e - e0) for n, e, _ in p]
        else:
            regs = [n * (den // d) << (e - e0) for n, e, d in p]
        scaled.append((den << -e0, regs))
    return scaled


def eval_exact(net: LayeredNet, xs: Sequence) -> list:
    """Exact forward pass; no rounding anywhere.

    Inputs are int or Fraction; outputs are Fraction.  The scaled point
    runs the integer program cut at its seams (_Seams, built once per net
    from the _seams analysis that eval_float shares): a segment's static
    ops, those that do not depend on its dynamic register, run once per key
    (den and the values of the seam registers they read, over their
    greatest common divisor), and later points with that key run only the
    dynamic ops.  Every point of a bucket reaches the block matcher with
    the same payload registers, so the matcher's static work runs once per
    bucket.  The bucket selector reads only the projection z and is affine
    in z on each bucket's plateau: it is a region segment, whose exports a
    point on a piece met before computes from that piece's forms (_Pieces),
    at any scale.
    """
    [(den, regs)] = _scaled_points(net, [xs])
    seams = net._seams
    if seams is None:
        seams = _Seams(_cuts(net), _compile(net))
        object.__setattr__(net, "_seams", seams)
    _, size, outputs = net._prog
    regs += [0] * (size - len(regs))
    seams.run(regs, den)
    return [_value(regs[r], e, den) for r, e in outputs]


# Bits held in one lane-packed register: _eval_lanes runs a group of points
# in chunks of max(1, _REGISTER_BITS // W) lanes, so a pass holds about one
# layer of registers of at most this size, or of one lane wider than that.
_REGISTER_BITS = 1 << 16


def _lane_groups(net: LayeredNet, points) -> dict:
    """{den: (point indices, their input registers)} of _scaled_points."""
    groups = {}
    for k, (den, regs) in enumerate(_scaled_points(net, points)):
        members, inputs = groups.setdefault(den, ([], []))
        members.append(k)
        inputs.append(regs)
    return groups


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
# live across it, or, inside a track, active for it: the (x, w, u) stage
# seams of sqrt and regression nets and of each subset memorizer of a depth
# net, and the (x, w, u, y) block seams of a bits chain.  _plan's track
# search cuts regions at the same width.
_SEAM_WIDTH = 4
# A segment keeps a memo only when at least this many of its ops are static
# and read an input: a constant op costs the same on a hit as on a miss.  At
# 1-3 the bucket selector's 5-op segments (4 static ops, keyed on the
# accumulators, so they never hit) get memos, and a first pass over a sqrt
# build at N = 256 took 0.86-0.89 of the memo-free time instead of 0.46-0.50
# (2-core Xeon, Python 3.11).
_MIN_STATIC = 8
# A plain run whose ops read one register that depends on an input becomes a
# region segment only when it has at least this many ops.  A hit (a bisect
# over the run's pieces and one form per export) costs about as much as 5
# plain ops, and a miss about twice the run: on a chain of one-term ReLU ops
# read from x, 200 points in one piece took 6.1 us per point plain against
# 6.7 as a region at 4 ops, and 7.3 against 5.9 at 10 (2-core Xeon, Python
# 3.11).
_MIN_REGION = 8
# A miss of a float64 region segment runs at most this many times its op
# count plus 64 chain ops to find the boundaries of its interval
# (_FloatIntervals._bound), so a point costs a few plain runs at most.  A
# boundary takes at most two runs of its chain; past the budget the point
# stores no interval, and the boundaries found stay.
_FLIP_RUNS = 4
# The memos of one runner stop inserting once they would hold more than this
# many bits, each stored integer counted as its bit length plus 64 and each
# stored float as 128.  The exact and the float64 runner count their own;
# a region segment's pieces or intervals count with its runner's memos.
_MEMO_BITS = 1 << 24


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


def _segment(ops, start, end, const: list):
    """The plan ops `ops`, which start from the slots `start` and end where
    the slots `end` hold every value that outlives them (both sorted), as
    (keys, flags, exports), or None for a plain run.  start holds every
    slot the ops read before writing it, and may hold slots they never
    read; end may hold slots they never write.

    A forward pass gives every op its support: a bitmask over the start
    registers it depends on.  A start register that depends on no input
    (const[slot], brought up to the end of ops here) has no bit, so a value
    is constant exactly when its support is 0; a start wider than a seam
    gives all its registers one bit.  The ops whose support leaves out the
    dynamic register r (_dynamic_bit) are static: functions of the start
    registers they read, which form the key, and of constants.  flags[i] is
    None for a static op; for a dynamic one it marks each term that reads a
    value depending on r.  exports are the end slots a static op wrote last.
    So equal keys give equal static values in either arithmetic, and results
    are exact for any seam or r; a poor choice only loses sharing.  A
    segment with fewer than _MIN_STATIC static ops of nonzero support is a
    plain run: a constant op runs on a hit as on a miss, so it saves nothing.
    """
    wide, bits = len(start) > _SEAM_WIDTH, {}
    for s in start:
        if not const[s]:
            bits[s] = 1 if wide else 1 << len(bits)
    sup = {s: bits.get(s, 0) for s in start}
    supports = []
    for _, srcs, _, _, dest, _ in ops:
        m = 0
        for r in srcs:
            m |= sup[r]
        sup[dest] = m
        const[dest] = not m
        supports.append(m)
    if len(ops) < _MIN_STATIC:  # too few ops to earn a memo
        return None
    rbit = _dynamic_bit(supports)
    if sum([bool(m) and not m & rbit for m in supports]) < _MIN_STATIC:
        return None
    sup = {s: bits.get(s, 0) for s in start}
    keymask, flags, written = 0, [], {}
    for (_, srcs, _, _, dest, _), m in zip(ops, supports):
        flag = None
        if m & rbit:
            flag = tuple([bool(sup[r] & rbit) for r in srcs])
        for r in srcs:
            if not sup[r] & rbit:
                keymask |= sup[r]
        flags.append(flag)
        sup[dest] = written[dest] = m
    keys = tuple([s for s in bits if bits[s] & keymask])
    exports = tuple([s for s in end if s in written and not written[s] & rbit])
    return keys, tuple(flags), exports


def _seams(plan: tuple) -> tuple:
    """The register plan cut at its seams, analysed once per net for both
    the exact and the float64 runner (_Seams, _FloatSeams).

    A backward pass finds the seams outside tracks: the boundaries with at
    most _SEAM_WIDTH live registers; it keeps the live set only there and
    at the first and last boundary of each track.  Inside a track, the
    seams are the boundaries where few registers are active for it
    (_track_seams): registers that are live but parked, such as the shared
    input of later tracks or the outputs of earlier ones, stay in their
    slots and do not count.  The first op starts a segment and the last
    ends one, and so does each track, seams or not.  Each segment is
    analysed by _segment, from the registers live at its start (inside a
    track, the active ones) to those live at its end.

    A segment that _segment leaves plain may start or extend a region run:
    a run of such segments whose ops read, before writing it, exactly one
    slot that depends on an input (v's), and otherwise constants or slots
    the run wrote.  A region run does not cross a track's start or end.
    With _MIN_REGION ops or more it is a region segment, which the exact
    runner replaces by a lookup of its affine piece (_Pieces), and the
    float64 runner by a lookup of its float interval (_FloatIntervals): the
    bucket selector from the projection z to the (x, w, u) seam, in a sqrt,
    regression or bits net and in each track of a depth net.  Plain runs
    that remain adjacent merge into one.

    Returns the segments in program order as (lo, hi, keys, flags,
    exports): ops lo..hi-1 of the plan, with keys, flags and exports None
    for a plain run; a region segment has keys (v's slot,), flags None and
    exports the end slots the run wrote.  The analysis reads only the
    plan's structure (slots, tracks, liveness and supports), never a weight.
    """
    ops, size, outputs = plan
    live = set(outputs)
    seams = {len(ops): tuple(sorted(live))}
    spans, hi, later = [], len(ops), None  # later: the track of op t + 1
    for t in range(len(ops) - 1, -1, -1):
        _, srcs, _, _, dest, track = ops[t]
        if track != later:  # a track starts or ends at boundary t + 1
            seams[t + 1] = tuple(sorted(live))
            if later is not None:
                spans.append((t + 1, hi))
            hi, later = t + 1, track
        live.discard(dest)
        live.update(srcs)
        if len(live) <= _SEAM_WIDTH or not t:
            seams[t] = tuple(sorted(live))
    if later is not None:
        spans.append((0, hi))
    inside = {}  # boundary -> the slots a segment starting there starts from
    outside = dict(seams)  # and those a segment ending there ends at
    for lo, hi in spans:
        found = _track_seams(ops, lo, hi, seams[hi])
        inside[lo], outside[hi] = found.pop(lo), found.pop(hi)
        inside.update(found)
        outside.update(found)
    bounds = sorted({*seams, *inside})
    edges = {bound for span in spans for bound in span}
    const, runs = [False] * size, []
    for a, b in zip(bounds, bounds[1:]):
        reads = _dynamic_reads(ops[a:b], const)  # before _segment brings const up to b
        cut = _segment(ops[a:b], inside.get(a, seams.get(a)), outside[b], const)
        if cut is not None:
            runs.append((a, b, *cut))
            continue
        wrote = {op[4] for op in ops[a:b]}
        last = runs[-1] if runs else None  # a region run carries the slots it wrote
        if (last and last[2] is not None and last[3] is None and a not in edges
                and reads <= last[4] | set(last[2])):  # the region run goes on
            runs[-1] = (last[0], b, last[2], None, last[4] | wrote)
        elif len(reads) == 1:  # a region run starts
            runs.append((a, b, tuple(reads), None, wrote))
        else:
            runs.append((a, b, None, None, None))
    cuts = []
    for lo, hi, keys, flags, exports in runs:
        if flags is None and keys is not None:
            if hi - lo < _MIN_REGION:
                keys = exports = None
            else:  # the end slots the run wrote
                exports = tuple([s for s in outside[hi] if s in exports])
        if keys is None and cuts and cuts[-1][2] is None:  # adjacent plain runs merge
            cuts[-1] = (cuts[-1][0], hi, None, None, None)
        else:
            cuts.append((lo, hi, keys, flags, exports))
    return tuple(cuts)


def _dynamic_reads(ops, const: list) -> set:
    """The slots that the plan ops read before they write them and that hold
    a value depending on an input (const[slot] false)."""
    written, reads = set(), set()
    for _, srcs, _, _, dest, _ in ops:
        reads.update([r for r in srcs if r not in written and not const[r]])
        written.add(dest)
    return reads


def _track_seams(ops, lo: int, hi: int, after: tuple) -> dict:
    """{boundary: active slots} for the track of ops lo..hi-1, whose last
    op is followed by the live slots `after`: lo, hi and every boundary
    between with at most _SEAM_WIDTH active registers.

    A register is active for the track at a boundary if the track wrote it
    and it is live there, or the track reads it at or after the boundary.
    A backward pass over the track keeps that set as the liveness pass
    keeps the live one, starting from the track's own registers that are
    live after it.  So every register a segment reads from before its
    start is active there, and every static value that outlives the
    segment is active at its end.
    """
    active = set(after).intersection([op[4] for op in ops[lo:hi]])
    found = {hi: tuple(sorted(active))}
    for u in range(hi - 1, lo - 1, -1):
        _, srcs, _, _, dest, _ = ops[u]
        active.discard(dest)
        active.update(srcs)
        if len(active) <= _SEAM_WIDTH or u == lo:
            found[u] = tuple(sorted(active))
    return found


def _cuts(net: LayeredNet) -> tuple:
    """_seams of the net's plan, cached: one analysis serves both runners."""
    if net._cuts is None:
        object.__setattr__(net, "_cuts", _seams(_plan(net)))
    return net._cuts


def _affine_piece(ops, coef: list, const: list, v: int, den: int) -> tuple:
    """Run program ops on affine forms of one variable, on the linear piece
    of the point whose dynamic register holds v.

    Slot s holds the form coef[s]*v + const[s]*den: on entry the slots the
    ops read before writing them, and the ops write the forms of the slots
    they write.  A ReLU whose form has coef a != 0 clips on one side of its
    threshold -b/a for t = v/den; the point's own value a*v + b*den picks
    the side, and the piece shrinks to the closed half-line on it.
    A ReLU with a == 0 keeps b*den or clips it for every den > 0.  Returns
    the piece's ends as pairs (n, d) with d >= 0 standing for n/d, where
    (-1, 0) and (1, 0) are -inf and +inf: so n*den <= v*d says the end is
    at most t, for finite and infinite ends alike, with integers only.
    """
    ln, ld, hn, hd = -1, 0, 1, 0
    for bias, terms, relu, dest in ops:
        a, b = 0, bias
        for r, c in terms:
            a += c * coef[r]
            b += c * const[r]
        if relu:
            if a:
                kept = a * v + b * den >= 0
                n, d = (-b, a) if a > 0 else (b, -a)  # the threshold n/d
                if kept == (a > 0):  # the piece lies at or above it
                    if n * ld > ln * d:
                        ln, ld = n, d
                elif n * hd < hn * d:
                    hn, hd = n, d
                if not kept:
                    a = b = 0
            elif b < 0:
                b = 0
        coef[dest], const[dest] = a, b
    return (ln, ld), (hn, hd)


class _Pieces:
    """The linear pieces of one region segment met so far: closed intervals
    of t = v/den, sorted by lower end and then upper end, each with the
    forms (a, b) of the export slots, which hold a*v + b*den there.

    The segment's ops read one slot that depends on an input, v's, and
    slots that hold constants, integer multiples of den.  On each piece
    every register is one affine form in v and den (_affine_piece), so a
    point in a piece gets that piece's exact values, at its ends too: the
    net is continuous, and a form holds on the closed side of each of its
    thresholds.  Two pieces meet at most in an end: at the first ReLU where
    their sides differ, their forms are equal and they lie on opposite
    sides of one threshold.  So the last piece whose lower end is at most t
    is the one that holds t, if any does.  Forms do not depend on den, so
    points at every scale and odd D share pieces.
    """

    __slots__ = ("ops", "v", "consts", "exports", "lows", "highs", "forms")

    def __init__(self, ops, v: int, exports: tuple):
        consts, written = {}, set()  # the constant slots read before written
        for _, terms, _, dest in ops:
            for r, _ in terms:
                if r != v and r not in written:
                    consts[r] = None
            written.add(dest)
        self.ops, self.v, self.consts, self.exports = ops, v, tuple(consts), exports
        self.lows, self.highs, self.forms = [], [], []

    def find(self, v: int, den: int) -> int:
        """The index of the piece holding v/den, or ~i when none does and a
        piece holding it belongs at index i."""
        lows = self.lows
        lo, hi = 0, len(lows)
        while lo < hi:
            mid = (lo + hi) >> 1
            n, d = lows[mid]
            if n * den <= v * d:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            n, d = self.highs[lo - 1]
            if v * d <= n * den:
                return lo - 1
        return ~lo

    def add(self, k: int, v: int, regs: list, den: int, room: int) -> tuple:
        """(forms of the exports, bits stored): the piece holding v/den, from
        one run on forms, inserted at index k if its bits fit in room."""
        coef, const = [0] * len(regs), [0] * len(regs)
        coef[self.v] = 1
        for s in self.consts:
            const[s] = regs[s] // den
        low, high = _affine_piece(self.ops, coef, const, v, den)
        forms = [(coef[s], const[s]) for s in self.exports]
        cost = sum([x.bit_length() + 64 for x in (*low, *high, *[y for f in forms for y in f])])
        if cost > room:
            return forms, 0
        self.lows.insert(k, low)
        self.highs.insert(k, high)
        self.forms.insert(k, forms)
        return forms, cost


class _Seams:
    """The integer program cut at its seams, each segment with its memo.

    segments are (keys, ops, dyn, exports, memo) in program order, built
    from the shared analysis (_seams).  A plain run has keys None and the
    program's own ops.  A memoized segment keys its memo on (den, the values
    of its key slots) over g, their greatest common divisor; its ops
    are (bias, terms, rest, relu, dest), where a static op has rest None
    and a dynamic op's terms are its static terms and rest its dynamic
    ones.  An entry holds each dynamic op's static partial sum (bias*den
    plus its static terms) and the values of the export slots, over g
    too: a static op adds integer multiples of den, key slots and constant
    slots (multiples of den), so the division is exact, and points at any
    input scale and odd D share entries.  dyn lists the dynamic ops as
    (dynamic terms, relu, dest).  A region segment has keys (v's slot,), the
    program's own ops, dyn None and its _Pieces in place of the memo: a
    point whose v/den lies in a stored piece writes each export slot as
    a*v + b*den from the piece's forms and skips the segment's ops; any
    other point runs the ops once on forms, which stores its piece.  bits
    counts what the memos and the pieces hold.  The program never changes,
    so the memos live as long as the net.
    """

    __slots__ = ("segments", "bits")

    def __init__(self, cuts: tuple, prog: tuple):
        ops, segments = prog[0], []
        for lo, hi, keys, flags, exports in cuts:
            if keys is None:
                segments.append((None, ops[lo:hi], (), (), None))
                continue
            if flags is None:
                run = ops[lo:hi]
                segments.append((keys, run, None, exports, _Pieces(run, keys[0], exports)))
                continue
            split, dyn = [], []
            for (bias, terms, relu, dest), flag in zip(ops[lo:hi], flags):
                rest = None
                if flag is not None:
                    rest = tuple([t for t, f in zip(terms, flag) if f])
                    terms = tuple([t for t, f in zip(terms, flag) if not f])
                    dyn.append((rest, relu, dest))
                split.append((bias, terms, rest, relu, dest))
            segments.append((keys, split, dyn, exports, {}))
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
            if dyn is None:  # a region segment: memo is its _Pieces
                v = regs[keys[0]]
                k = memo.find(v, den)
                if k >= 0:
                    forms = memo.forms[k]
                else:
                    forms, cost = memo.add(~k, v, regs, den, _MEMO_BITS - self.bits)
                    self.bits += cost
                for s, (a, b) in zip(exports, forms):
                    regs[s] = a * v + b * den
                continue
            key = (den, *[regs[s] for s in keys])
            g = 0
            for v in key:
                g = gcd(g, v)
                if g == 1:
                    break
            if g != 1:  # the key over its gcd
                key = tuple([v // g for v in key])
            hit = memo.get(key)
            if hit is not None:  # only the dynamic ops run
                partials, saved = hit
                if g != 1:
                    partials, saved = [v * g for v in partials], [v * g for v in saved]
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
            if g != 1:
                partials, saved = [v // g for v in partials], [v // g for v in saved]
            cost = sum([v.bit_length() + 64 for v in (*key, *partials, *saved)])
            if self.bits + cost <= _MEMO_BITS:
                memo[key] = (partials, saved)
                self.bits += cost


def _chain_kept(path, t: float) -> bool:
    """Whether the last chain op of path keeps its value (its pre-activation
    is positive) when v holds t.  path holds the chain forms (_FloatIntervals)
    from the op that reads v to that op, each run as the plain loop runs it."""
    s = t
    for bias, w, relu, _, _, _ in path:
        acc = bias + w * s
        s = acc if not relu or acc > 0.0 else 0.0
    return acc > 0.0


class _FloatIntervals:
    """The float64 intervals of v met so far for one region segment of
    _FloatSeams: closed intervals [lows[i], highs[i]], sorted, which never
    meet, each with the export values it copies and the chain ops it
    reruns.

    The segment's ops read v's slot and slots that hold constants: the same
    bits for every point.  A chain op is an op with one term, which reads v
    itself or a chain op's output, with a finite nonzero weight and a
    finite bias.  Correctly rounded addition and multiplication are
    monotone in each argument (IEEE 754-2019, 4.3), and so is the ReLU on
    non-NaN values, so for any v that is not NaN a chain op's
    pre-activation is a monotone function of v, ±inf included, and never
    NaN: its ReLU state (kept, or clipped to +0.0) flips at most once
    along v.  The chain ops come from the segment's structure alone, once.

    A point whose v is not NaN, ±inf or ±0.0 and lies in a stored
    interval reruns that interval's chain ops, writes its copied exports
    and skips the other ops.  Any other point runs the ops as the plain
    loop does, recording each pre-activation.  A dependency pass then marks
    each value as depending on v unless it is a chain op that clipped or an
    op whose inputs are all independent; any other op that reads a value
    depending on v is never taken as monotone.  The live ops are the chain
    ops that read a value depending on v.  If every export is independent,
    or computed by chain ops from v, the point's interval is the set of v
    on which every live op keeps the state it had at v.  On it each
    independent value keeps its bits, by induction over the ops, so the
    interval copies them and reruns the chain ops that compute the other
    exports.  Each live op's state flips at one boundary, a pair of
    adjacent floats that its slope guess pins on first need and kept
    (_bound): the boundaries nearest v on each side are the interval's
    ends.  A point with a live op whose guess misses stores no interval
    and runs plain, so every interval ends at exact flips, and two never
    meet, since a point in both would give their live ops one state.

    chain holds each op's chain form (bias, w, relu, j, src, dest), or
    None, with j the chain op that wrote src, -1 for v.  flow holds (k, j,
    relu, ops read) for each op k that reads a value depending on v, with j
    None unless k is a chain op.  bounds holds each chain op's boundary
    once found, () for one without a ReLU, and None otherwise.
    """

    __slots__ = ("ops", "v", "exports", "chain", "flow", "writers", "bounds",
                 "lows", "highs", "entries")

    def __init__(self, ops, v: int, exports: tuple):
        chain, flow, writer = [], [], {}
        src = {v: -1}  # slot -> the op whose v-dependent value it holds; -1: v
        for k, (bias, terms, relu, dest) in enumerate(ops):
            dyn = tuple([src[r] for r, _ in terms if r in src])
            form = None
            if len(terms) == 1 and dyn:
                ((r, w),), (j,) = terms, dyn
                if (j < 0 or chain[j] is not None) and w and isfinite(w) and isfinite(bias):
                    form = (bias, w, relu, j, r, dest)
            chain.append(form)
            if dyn:
                src[dest] = k
                flow.append((k, None if form is None else j, relu, dyn))
            else:
                src.pop(dest, None)
            writer[dest] = k
        self.ops, self.v, self.exports, self.chain, self.flow = ops, v, exports, chain, flow
        self.writers = tuple([writer[s] for s in exports])
        # an op without a ReLU has no state to flip
        self.bounds = [() if form is not None and not form[2] else None for form in chain]
        self.lows, self.highs, self.entries = [], [], []

    def add(self, regs: list, room: int) -> int:
        """Run the ops on one point's registers, as the plain loop does, and
        store the interval of its v if it has one whose floats fit in room;
        returns the bits stored."""
        v, pres = regs[self.v], []
        for acc, terms, relu, dest in self.ops:
            for r, w in terms:
                acc += w * regs[r]
            pres.append(acc)
            if relu and not acc > 0.0:
                acc = 0.0 if acc == acc else acc
            regs[dest] = acc
        return self._store(v, pres, regs, room) if 0.0 < abs(v) < inf else 0

    def _store(self, v: float, pres: list, regs: list, room: int) -> int:
        """Store the interval of v after a run that left pre-activations pres
        and registers regs; returns the bits stored, found bounds included."""
        chain, bounds = self.chain, self.bounds
        dep = [False] * len(chain) + [True]  # dep[-1]: v
        live = []
        for k, j, relu, srcs in self.flow:
            if j is None:
                for d in srcs:
                    if dep[d]:
                        dep[k] = True
                        break
            elif dep[j]:
                live.append(k)
                dep[k] = not relu or pres[k] > 0.0
        copied, rerun = [], set()
        for s, k in zip(self.exports, self.writers):
            if not dep[k]:
                copied.append(s)
            elif chain[k] is None:
                return 0
            else:
                while k >= 0 and k not in rerun:  # the chain ops from v to the export
                    rerun.add(k)
                    k = chain[k][3]
        low, high, cost, budget = -inf, inf, 0, _FLIP_RUNS * (len(chain) + 64)
        for k in live:
            bound = bounds[k]
            if bound is None:
                bound, spent = self._bound(k, v, pres[k], budget)
                if bound is None:  # not pinned: the point runs plain
                    return cost
                budget -= spent
                if cost + 256 <= room:
                    bounds[k] = bound
                    cost += 256
            if bound:
                if v <= bound[0]:
                    if bound[0] < high:
                        high = bound[0]
                elif bound[1] > low:
                    low = bound[1]
        size = 128 * (2 + len(copied))
        if cost + size > room:
            return cost
        i = bisect_right(self.lows, v)
        self.lows.insert(i, low)
        self.highs.insert(i, high)
        self.entries.insert(i, (tuple([chain[k][:2] + chain[k][4:] for k in sorted(rerun)]),
                                tuple(copied), [regs[s] for s in copied]))
        return cost + size

    def _bound(self, k: int, v: float, p: float, budget: int) -> tuple:
        """(bound, chain ops run) for the ReLU chain op k, whose
        pre-activation is p at v.  bound is the adjacent floats (a, b) of its
        flip, so that its state is one for every v <= a and the other for
        every v >= b, or None if the guess does not pin it or budget is
        short of two runs of its chain.

        The product of the weights from v (the slope) guesses the flip at
        g = v - p / slope, which is v itself when p is 0, or at v if the
        slope underflows.  A run at g, none if g is v, tells on which side
        of g the flip lies; a run at the float next to g on that side, none
        if it is v, whose state is known, shows whether the flip lies
        between the two.  Seen from v, the flip lies below if the op is kept
        and its pre-activation rises with v, or clipped and it falls, and
        above otherwise.  By monotone rounding a state that differs on two
        adjacent floats pins the flip exactly; nothing searches further.
        """
        path, j = [], k
        while j >= 0:
            path.append(self.chain[j])
            j = self.chain[j][3]
        path.reverse()
        if budget < 2 * len(path):
            return None, 0
        slope = 1.0
        for form in path:
            slope = form[1] * slope
        kept, runs = p > 0.0, 0
        guess = v - p / slope if slope else v
        at = kept
        if guess != v:
            runs, at = 1, _chain_kept(path, guess)
        if at != kept:  # the flip lies between v and the guess
            near = nextafter(guess, v)
        else:
            near = nextafter(guess, -inf if kept == (copysign(1.0, slope) > 0) else inf)
        near_at = kept
        if near != v:
            runs, near_at = runs + 1, _chain_kept(path, near)
        if near_at == at:  # a NaN guess lands here too
            return None, runs * len(path)
        return (guess, near) if guess < near else (near, guess), runs * len(path)


class _FloatSeams:
    """The register plan under float64 rounding, cut at the same seams as
    the exact program (_seams), each memoized segment with its own memo and
    each region segment with its own intervals.

    segments are (keys, ops, dyn, exports, memo, pack).  A plain run has
    keys None and ops (bias, terms, relu, dest) with float weights.  A
    memoized segment keys its memo on the bytes pack() makes of its key
    slots' values, so -0.0 and +0.0, and NaNs with different payloads, are
    different keys.  Float addition does not associate, so a dynamic op
    keeps its term order: its ops entry is (bias, head, tail, stash, relu,
    dest), head the static terms before its first dynamic term and tail the
    rest in stored order; a static op has tail None.  An entry holds each
    dynamic op's partial bias + head, summed left to right as the plain
    loop sums it, the values of the registers a tail reads that static ops
    of the segment wrote (the slots in stash), and the export values.  On
    a hit those values go to the registers past the plan's size, which the
    tail terms in dyn read instead, so every dynamic op adds the same
    values in the same order as the plain loop and the bits are the same.
    A tail term that reads a start register reads it in place: the register
    stays in its slot until its last reader.  A region segment has keys
    (v's slot,), the plain run's ops, dyn None and, in place of the memo,
    its _FloatIntervals, whose chain ops come from the run's structure when
    the runner is built.  bits counts what the memos and the intervals
    hold, apart from the exact runner's count.
    """

    __slots__ = ("segments", "bits", "size")

    def __init__(self, cuts: tuple, plan: tuple):
        plan_ops, size, _ = plan
        floats, ops = {}, []  # each distinct weight object converted once: a loaded
        for bias, slots, weights, relu, dest, _ in plan_ops:  # net shares one per cell
            row = []
            for w in (bias, *weights):
                f = floats.get(id(w))
                if f is None:
                    f = floats[id(w)] = w.to_float()
                row.append(f)
            ops.append((row[0], tuple(zip(slots, row[1:])), relu, dest))
        segments = []
        for lo, hi, keys, flags, exports in cuts:
            if keys is None:
                segments.append((None, ops[lo:hi], (), (), None, None))
                continue
            if flags is None:
                run = ops[lo:hi]
                segments.append((keys, run, None, exports,
                                 _FloatIntervals(run, keys[0], exports), None))
                continue
            split, dyn, written, stashed = [], [], set(), 0
            for (bias, terms, relu, dest), flag in zip(ops[lo:hi], flags):
                if flag is None:
                    split.append((bias, terms, None, (), relu, dest))
                else:
                    i = flag.index(True)
                    stash, moved = [], []
                    for (r, w), dynamic in zip(terms[i:], flag[i:]):
                        if not dynamic and r in written:  # a static value of this segment
                            moved.append((size + stashed, w))
                            stash.append(r)
                            stashed += 1
                        else:
                            moved.append((r, w))
                    split.append((bias, terms[:i], terms[i:], tuple(stash), relu, dest))
                    dyn.append((tuple(moved), relu, dest))
                written.add(dest)
            pack = struct.Struct(f"<{len(keys)}d").pack
            segments.append((keys, split, dyn, exports, {}, pack))
        self.segments, self.bits, self.size = segments, 0, size

    def run(self, regs: list) -> None:
        """Every op of the plan on one point's float registers."""
        for keys, ops, dyn, exports, memo, pack in self.segments:
            if keys is None:
                for acc, terms, relu, dest in ops:  # acc starts at the row's bias
                    for r, w in terms:
                        acc += w * regs[r]
                    if relu and not acc > 0.0:
                        acc = 0.0 if acc == acc else acc  # keep NaN
                    regs[dest] = acc
                continue
            if dyn is None:  # a region segment: memo is its _FloatIntervals
                v = regs[keys[0]]
                if 0.0 < abs(v) < inf:
                    i = bisect_right(memo.lows, v) - 1
                    if i >= 0 and v <= memo.highs[i]:
                        rerun, slots, values = memo.entries[i]
                        for bias, w, src, dest in rerun:  # kept on the whole interval
                            regs[dest] = bias + w * regs[src]
                        for s, x in zip(slots, values):
                            regs[s] = x
                        continue
                self.bits += memo.add(regs, _MEMO_BITS - self.bits)
                continue
            key = pack(*[regs[s] for s in keys])
            hit = memo.get(key)
            if hit is not None:  # only the dynamic ops run
                partials, stashed, saved = hit
                regs[self.size:] = stashed
                for acc, (terms, relu, dest) in zip(partials, dyn):
                    for r, w in terms:
                        acc += w * regs[r]
                    if relu and not acc > 0.0:
                        acc = 0.0 if acc == acc else acc
                    regs[dest] = acc
                for s, v in zip(exports, saved):
                    regs[s] = v
                continue
            partials, stashed = [], []
            for acc, head, tail, stash, relu, dest in ops:
                for r, w in head:
                    acc += w * regs[r]
                if tail is not None:
                    partials.append(acc)
                    stashed += [regs[r] for r in stash]
                    for r, w in tail:
                        acc += w * regs[r]
                if relu and not acc > 0.0:
                    acc = 0.0 if acc == acc else acc
                regs[dest] = acc
            saved = [regs[s] for s in exports]
            cost = 128 * (len(keys) + len(partials) + len(stashed) + len(saved))
            if self.bits + cost <= _MEMO_BITS:
                memo[key] = (partials, stashed, saved)
                self.bits += cost


def _eval_lanes(net: LayeredNet, points) -> list:
    """[eval_exact(net, p) for p in points]: the same values, types and
    errors, with each register one Python int for a chunk of points.  The
    oracles run it; commands run eval_exact, whose seam memo beats packed
    lanes on a sqrt build at N = 1024 (README, "Exact evaluation").

    Points are grouped by their runtime denominator den (_scaled_points),
    and point k of a chunk sits in bits [kW, (k+1)W) of every register
    (SIMD within a register: Fisher & Dietz, LCPC 1998).  The layout is
    linear, so an affine row is bias*den*ONES + sum(c*R) for all lanes at
    once, where ONES has a 1 in every lane.  A ReLU that can clip runs on
    Q = R + 2**(W-1)*ONES: s = (Q >> (W-1)) & ONES marks the lanes >= 0,
    and (Q & ((s << W) - s)) - (s << (W-1)) keeps them.  The lane width W
    comes from an interval pass over the program (_lane_bounds), which
    proves that no lane carries into its neighbour, whatever the lane
    count, and marks the ReLUs that cannot clip, which skip the mask.  A
    chunk holds max(1, _REGISTER_BITS // W) lanes, so a group of one point,
    or a lane wider than the cap, is one packed lane.
    """
    groups = _lane_groups(net, points)
    ops, size, outputs = prog = _compile(net)
    results = [None] * len(points)
    for den, (members, inputs) in groups.items():
        cols = list(zip(*inputs))
        width, clips = _lane_bounds(prog, den, [min(c) for c in cols],
                                    [max(c) for c in cols])
        lanes = max(1, _REGISTER_BITS // width)
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
    Each point is scaled at its own exponent, and the seam memo shares its
    entries across scales.
    """
    bad, worst = [], Fraction(0)
    for idx, (p, want) in enumerate(zip(points, expected)):
        got = eval_exact(net, list(p))[0]
        if got != want:
            bad.append(idx)
            worst = max(worst, abs(got - want))
    return bad, worst


def eval_float(net: LayeredNet, xs: Sequence[float]) -> list[float]:
    """Same recursion under IEEE float64 rounding; NaN/Inf propagate.

    Runs the register plan with float weights, cut at the seams the exact
    evaluator uses (_FloatSeams, built once per net from the same _seams
    analysis): a memoized segment's static ops run once per bit pattern of
    its key registers, and a point whose v lies in a stored float interval
    of a region segment copies the exports that cannot depend on v there
    and reruns the few chain ops, one-term ops from v, that compute the
    others (_FloatIntervals).  A row adds its bias, then its terms in stored
    order, left to right (sum() and math.fsum round differently), on a hit
    as on a miss, so the bits equal a walk over every row of every layer.
    Inputs are taken as float(x): only identity rows on ReLU outputs, which
    are never -0.0, are aliases (_plan), so a row on a -0.0 input adds it
    to its bias as the walk does.
    """
    if len(xs) != net.input_dim:
        raise DimensionError(f"expected {net.input_dim} inputs, got {len(xs)}")
    plan = _plan(net)
    runner = net._flt
    if runner is None:
        runner = _FloatSeams(_cuts(net), plan)
        object.__setattr__(net, "_flt", runner)
    regs = [float(x) for x in xs]
    regs += [0.0] * (plan[1] - len(regs))
    runner.run(regs)
    return [regs[s] for s in plan[2]]


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
    seam = _checked_layer(last.in_dim, last.out_dim, last.rows, last.biases, True)
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
    one, zero = _SMALL_INTS[1], _SMALL_INTS[0]
    return _checked_layer(dim, dim, tuple([((i, one),) for i in range(dim)]),
                          (zero,) * dim, relu)


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
        # each part's checked rows, shifted into its own block of columns
        stacked.append(_checked_layer(in_dim, len(rows), tuple(rows), tuple(biases), relu))
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
_ZERO_LITERAL = _ZERO_CELL.encode()
_LITERAL_SHRINK = len(_ZERO_LITERAL) - len(b"null")  # bytes saved per copy read as null


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


def deserialize_net(obj: dict, null_cells: int | None = None) -> LayeredNet:
    """The net of a parsed network file; ValueError on any malformed content.

    Each distinct cell (s, m, e) is decoded and checked against the caps
    once; a cell whose fields cannot form that key is decoded on its own.
    The key holds the types of s and e, since True == 1 == 1.0 hash alike
    and only the int is a valid field.  Every other field must have exactly
    the type docs/FORMATS.md gives it; a dense row has in_dim cells, and a
    sparse row names each column once.  Each row is checked as its cells are
    decoded, so the layers skip AffineLayer's checking constructor.

    With null_cells set, None in a dense row or a bias list is read as the
    zero cell, and the file must hold exactly null_cells such Nones
    (ValueError otherwise); None anywhere else is refused as without it.
    load_net passes the number of zero cells it turned into null.
    """
    memo = {}
    # A dense or bias cell that is `null` is a zero cell: None when null
    # cells are on, else a fresh object no parsed file can hold.
    null = object() if null_cells is None else None
    nulls = 0

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
            cells = spec["b"]
            if null_cells is not None:
                nulls += cells.count(None)
            biases = tuple([ZERO if b is null else capped(b) for b in cells])
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
                    if null_cells is not None:
                        nulls += row.count(None)
                    rows.append(tuple([(i, d) for i, wt in enumerate(row) if wt is not null
                                       and (d := capped(wt)).sign]))
            # older writers listed a layer's identity units: checked, then dropped
            marks = [_typed(u, int, "a passthrough unit") for u in spec.get("passthrough", ())]
            layers.append(_checked_layer(
                in_dim, len(biases), tuple(rows), biases, _typed(spec["relu"], bool, "relu")))
            for u in marks:
                if not 0 <= u < len(biases):
                    raise DimensionError(
                        f"passthrough unit {u} out of range for out_dim {len(biases)}")
        net = LayeredNet(input_dim, layers, _typed(obj.get("provenance", ""), str, "provenance"),
                         _typed(obj.get("output_nonneg", False), bool, "output_nonneg"))
    except (TypeError, AttributeError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed network file: {type(exc).__name__}: {exc}") from exc
    if null_cells is not None and nulls != null_cells:
        raise ValueError(f"{nulls} null zero cells, not {null_cells}")
    return net


def save_net(net: LayeredNet, path, builder: dict | None = None) -> None:
    data = net_to_json_bytes(net, builder)  # raises before the file is opened
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(b"\n")


def load_net(path) -> tuple[LayeredNet, dict | None]:
    """The net and builder record of a network file; ValueError if malformed.

    Most cells of a saved net are the zero literal _ZERO_CELL, and parsing
    one dict per copy dominated the load.  So a UTF-8 file that holds no
    `null` is first parsed with every copy of the literal replaced by
    `null`, and deserialize_net reads None as the zero cell in dense rows
    and bias lists only, where it must find exactly one None per copy
    replaced.  That load is the one the file itself gives:

    - In valid JSON the literal cannot start inside a string: its second
      byte is an unescaped `"` after `{`, which would end the string, and
      the `e` after it is then illegal.  Outside strings a `{` opens an
      object, so every copy is a whole zero-cell object at a value position.
    - The literal is ASCII and the file UTF-8, so bytes and characters
      agree.  The literal cannot overlap itself, and `null` next to other
      text never forms a second `null`: with no `null` in the file, each
      None of the parse comes from a distinct copy.
    - A copy that landed in a string, a sparse row, the builder record or
      anywhere else is no None of a dense row or bias list, so the count
      comes out short, or deserialization fails.  If the count matches,
      putting the literal back at each of those value positions gives the
      file, which is then valid JSON, and the zero cell the strict read
      takes from there is what None gave.

    On a count mismatch or any ValueError of this first read the file is
    read again as it is, the strict path, which gives the net or the
    refusal of that file: it is parsed at most twice.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    # The parse tree holds no reference cycles, so a collection while it is
    # alive only rescans its cells: pause the collector until it is dropped.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if b"null" not in text and json.detect_encoding(text) == "utf-8":
            fast = text.replace(_ZERO_LITERAL, b"null")
            try:
                return _parse_net(fast, (len(text) - len(fast)) // _LITERAL_SHRINK)
            except (ValueError, RecursionError):
                pass
        return _parse_net(text, None)
    except RecursionError:
        raise ValueError("network file nests too deeply to parse") from None
    finally:
        if enabled:
            gc.enable()


def _parse_net(text: bytes, null_cells: int | None) -> tuple[LayeredNet, dict | None]:
    obj = json.loads(text)
    return deserialize_net(obj, null_cells), obj.get("builder")


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
        """Append one layer.  The channel names are unique, so each row's
        columns are in range and distinct: the layer skips the checking
        constructor."""
        index = {name: i for i, name in enumerate(self.names)}
        out_rows = []
        biases = []
        new_names = []
        for name, bias, terms in rows:
            row = []
            for src, coeff in terms.items():
                if src not in index:
                    raise KeyError(f"unknown source channel {src!r}")
                if (d := _as_dyadic(coeff)).sign:
                    row.append((index[src], d))
            out_rows.append(tuple(row))
            biases.append(_as_dyadic(bias))
            new_names.append(name)
        if len(set(new_names)) != len(new_names):
            raise ValueError("duplicate output channel names")
        self.layers.append(_checked_layer(len(self.names), len(out_rows), tuple(out_rows),
                                          tuple(biases), bool(relu)))
        self.names = new_names

    def passthrough_rows(self, names):
        """Identity rows for channels that survive this layer unchanged."""
        return [(n, 0, {n: 1}) for n in names]

    def build(self, provenance: str, output_nonneg: bool = False) -> LayeredNet:
        return LayeredNet(self.input_dim, self.layers, provenance, output_nonneg)
