"""Pinned network bytes, and proof that the stages run the oracle-checked gadget rows.

The SHA-256 digests below are of `net_to_json_bytes(net, builder)` for one
small fixed-seed build per mode and for the standalone gadget nets.  Saved
nets hold only exact values, so the digests are the same on every Python
version; a refactor of the builders must leave them unchanged.
"""

import hashlib
from fractions import Fraction

import pytest

from memnet import gadgets, variants
from memnet.datagen import (random_dataset, random_regression_labels,
                            random_separated_points)
from memnet.exactnum import DyadicRational
from memnet.netir import AffineLayer, compose_serial, net_to_json_bytes, stack_parallel
from memnet.pipeline import (MemorizationError, assemble_sqrt,
                             regression_wrap)
from memnet.variants import assemble_bounded_bits, assemble_bounded_depth

BUILD_DIGESTS = {
    "sqrt": "2247bfba36a8dd7d9f7484452c85cb3b10b0cc2113fc840ccc0410cc7e1def23",
    "depth": "ab54e6eb058d65644b884f7eda383e5d84c7fea6bd7a4986e433e93caa4e3605",
    "bits": "655b674baba229713401dde3ed4b5de9bc0c3cc655db4487196ea00973a6e272",
    "regression": "533ca52dea683a575c767ce88ffeb770495b0a23f23860e1451cd970210549c4",
}

GADGET_DIGESTS = {
    "indicator": "da411c43f20be34ac69f301c152b3bbedca7a88a66ba9e1b12416b6bfdb56090",
    "distance_gate": "9cdf6d052be97f7577e34e3818e9d26ee9022065391c02261c07f9985cdea94a",
    "bit_extractor": "52520a4c7db5314d3b25feeac1864aa479bcfe1e41b0db769c688bc7b15cd5d3",
}


def _digest(net, builder=None):
    return hashlib.sha256(net_to_json_bytes(net, builder)).hexdigest()


def _build(mode):
    if mode == "regression":
        return regression_wrap(random_separated_points(24, 2, seed=5),
                               random_regression_labels(24, seed=5), Fraction(1, 8),
                               seed=5, lo=0, hi=1)
    ds = random_dataset(24, 2, 4, seed=5)
    if mode == "sqrt":
        return assemble_sqrt(ds, seed=5)
    if mode == "depth":
        return assemble_bounded_depth(ds, 2, seed=5)
    return assemble_bounded_bits(ds, 2, seed=5)


@pytest.mark.parametrize("mode", sorted(BUILD_DIGESTS))
def test_build_bytes_are_pinned(mode):
    net, report = _build(mode)
    assert _digest(net, report.info.to_json()) == BUILD_DIGESTS[mode]


def _stacked():
    """Members 9, 3 and 6 layers deep: the shorter two are padded."""
    gate = gadgets.build_distance_gate()
    return stack_parallel([gadgets.build_bit_extractor(4, 2, 4), gate,
                           compose_serial(gate, gadgets.build_indicator(0, 1))])


@pytest.mark.parametrize("name", sorted(BUILD_DIGESTS) + ["stacked"])
def test_built_layers_equal_the_checking_constructor(name):
    """TapeBuilder, stack_parallel, the ReLU seams, identity padding and the
    bits chain's zero outputs skip AffineLayer.__init__; the checking
    constructor, given the same tuples, must change nothing."""
    net = _stacked() if name == "stacked" else _build(name)[0]
    for layer in net.layers:
        again = AffineLayer(layer.in_dim, layer.out_dim, layer.rows, layer.biases, layer.relu)
        assert (layer.rows, layer.biases, layer.relu) == (again.rows, again.biases, again.relu)
        assert type(layer.rows) is type(layer.biases) is tuple and type(layer.relu) is bool
        assert all(type(row) is tuple for row in layer.rows)
        assert all(type(i) is int and type(w) is DyadicRational
                   for row in layer.rows for i, w in row)
        assert all(type(b) is DyadicRational for b in layer.biases)


@pytest.mark.parametrize("mode", ["depth", "bits"])
def test_one_matcher_per_distinct_key(mode, monkeypatch):
    """The depth and bits builds call build_stage3 once per distinct
    (bucket_size, rho, c) and share that net among the subsets with the key."""
    calls = []
    real = variants.build_stage3

    def counted(*args, carry=False):
        calls.append((args, carry))
        return real(*args, carry=carry)

    monkeypatch.setattr(variants, "build_stage3", counted)
    net, report = _build(mode)
    assert _digest(net, report.info.to_json()) == BUILD_DIGESTS[mode]
    # six subsets, three distinct keys
    assert report.info.subnet_count == 6
    assert calls == [((2, rho, 3), mode == "bits") for rho in (8, 9, 10)]


def test_gadget_bytes_are_pinned():
    nets = {"indicator": gadgets.build_indicator(2, 5),
            "distance_gate": gadgets.build_distance_gate(),
            "bit_extractor": gadgets.build_bit_extractor(4, 2, 4)}
    assert {k: _digest(net) for k, net in nets.items()} == GADGET_DIGESTS


def test_sabotaged_window_fails_oracle_and_build(monkeypatch):
    """A wrong h2 bias in the shared window rows breaks the indicator oracle
    and the pipeline's bucket selector and distance gate alike."""
    real = gadgets.window_rows

    def sabotaged(x, lo, hi):
        first, second = real(x, lo, hi)
        name, bias, terms = first[1]
        return [first[0], (name, bias + 2, terms)], second

    monkeypatch.setattr(gadgets, "window_rows", sabotaged)
    assert not gadgets.oracle_indicator()["pass"]
    assert not gadgets.oracle_distance()["pass"]
    with pytest.raises(MemorizationError):
        assemble_sqrt(random_dataset(16, 2, 4, seed=5), seed=5)


def test_sabotaged_triangle_step_fails_oracle_and_build(monkeypatch):
    """A wrong fold in the shared triangle step breaks the bit oracle and the
    pipeline's block matcher alike."""
    real = gadgets.triangle_step_rows

    def sabotaged(p, q, t, prefix):
        first, second = real(p, q, t, prefix)
        name, bias, terms = second[0]
        return first, [(name, bias, {**terms, f"{prefix}2": 1})] + second[1:]

    monkeypatch.setattr(gadgets, "triangle_step_rows", sabotaged)
    assert not gadgets.oracle_bits(3)["pass"]
    with pytest.raises(MemorizationError):
        assemble_sqrt(random_dataset(16, 2, 4, seed=5), seed=5)
