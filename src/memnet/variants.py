"""Depth-budget and bit-budget memorizers built from the core stages.

Both variants share one projection, split the sorted projected points into
contiguous subsets, and run the bucket-selector / block-matcher pair per
subset.  A subset's network outputs exactly 0 on every point outside the
subset (its selector emits a zero payload there, and a zero label block is
gated to zero), so the depth variant can sum parallel subnetworks and the
bit variant can chain additive blocks without interference.
"""

from __future__ import annotations

from .exactnum import ZERO, ceil_sqrt
from .gadgets import ParameterError
from .netir import (LayeredNet, TapeBuilder, _checked_layer, compose_serial,
                    stack_parallel)
from .pipeline import (Dataset, build_stage2, build_stage3,
                       craft_codes, default_bucket_count, _sorted_projection,
                       _verified_build)

__all__ = [
    "assemble_bounded_depth",
    "assemble_bounded_bits",
]


def _check_budget(budget: int, n: int) -> None:
    """ParameterError unless 1 <= budget <= ceil(sqrt(n))."""
    limit = ceil_sqrt(n)
    if not 1 <= budget <= limit:
        raise ParameterError(f"budget {budget} outside 1..ceil(sqrt(N))={limit}")


def _subset_codes(ds: Dataset, z_sorted, labels_sorted, subset_size: int):
    """Contiguous subsets with a shared sentinel band above every floor."""
    n = ds.n
    global_max_floor = max(z.numerator // z.denominator for z in z_sorted)
    codes = []
    for lo in range(0, n, subset_size):
        hi = min(lo + subset_size, n)
        size = hi - lo
        codes.append(craft_codes(z_sorted[lo:hi], labels_sorted[lo:hi],
                                 min(size, default_bucket_count(size)), ds.num_classes,
                                 sentinel_base=global_max_floor))
    return codes


def _matchers(codes, carry: bool = False) -> list:
    """The block matcher of each subset.  It depends only on (bucket_size,
    rho, c), so subsets with the same key share one build_stage3 net."""
    built = {}
    for code in codes:
        key = (code.bucket_size, code.rho, code.c)
        if key not in built:
            built[key] = build_stage3(*key, carry=carry)
    return [built[code.bucket_size, code.rho, code.c] for code in codes]


def _with_zero_outputs(net: LayeredNet, extra: int) -> LayeredNet:
    """Append constant-zero output channels to the final affine layer."""
    last = net.layers[-1]
    new_last = _checked_layer(last.in_dim, last.out_dim + extra,
                              last.rows + ((),) * extra,
                              last.biases + (ZERO,) * extra, False)
    return LayeredNet(net.input_dim, net.layers[:-1] + (new_last,),
                      net.provenance, net.output_nonneg)


def assemble_bounded_depth(ds: Dataset, L: int, seed: int = 0):
    """Parallel subset memorizers under a summation head.

    ceil(N/L^2) subsets of L^2 points each become independent width-12
    chains stacked side by side behind the shared projection; every training
    point activates exactly one of them.
    """
    _check_budget(L, ds.n)
    proj, net1, z_sorted, labels_sorted = _sorted_projection(ds, seed)
    codes = _subset_codes(ds, z_sorted, labels_sorted, L * L)
    subnets = [compose_serial(build_stage2(code), matcher)
               for code, matcher in zip(codes, _matchers(codes))]
    stacked = stack_parallel(subnets, "subset_memorizers")
    head = TapeBuilder([f"o{k}" for k in range(len(subnets))])
    head.layer([("y", 0, {f"o{k}": 1 for k in range(len(subnets))})], relu=False)
    net = compose_serial(compose_serial(net1, stacked),
                         head.build("sum_head", output_nonneg=True),
                         f"depth_budget_memorizer[L={L}]")
    sizes = [min(L * L, ds.n - lo) for lo in range(0, ds.n, L * L)]
    return _verified_build(net, ds, seed, proj, codes, "bounded_depth",
                           L=L, subnet_count=len(codes), extra={"subset_sizes": sizes})


def assemble_bounded_bits(ds: Dataset, B: int, seed: int = 0):
    """Sequential subset memorizers threading one label accumulator.

    Each block maps (x, y) to (x, y + out_k(x)); out_k is the subset's
    memorizer, zero off-subset.  Payload integers only cover B^2 points, so
    every weight stays within the bit budget while depth grows with N/B^2.
    """
    _check_budget(B, ds.n)
    proj, net1, z_sorted, labels_sorted = _sorted_projection(ds, seed)
    codes = _subset_codes(ds, z_sorted, labels_sorted, B * B)
    net = _with_zero_outputs(net1, 1)
    for code, matcher in zip(codes, _matchers(codes, carry=True)):
        block = compose_serial(build_stage2(code, carry=True), matcher)
        net = compose_serial(net, block)
    tail = TapeBuilder(["x", "y"])
    tail.layer([("out", 0, {"y": 1})], relu=False)
    net = compose_serial(net, tail.build("accumulator_readout", output_nonneg=True),
                         f"bit_budget_memorizer[B={B}]")
    return _verified_build(net, ds, seed, proj, codes, "bounded_bits",
                           B=B, subnet_count=len(codes))
