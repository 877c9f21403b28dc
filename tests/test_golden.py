"""Pinned network bytes, and proof that the stages run the oracle-checked gadget rows.

The SHA-256 digests below are of `net_to_json_bytes(net, builder)` for one
small fixed-seed build per mode and for the standalone gadget nets.  Saved
nets hold only exact values, so the digests are the same on every Python
version; a refactor of the builders must leave them unchanged.
"""

import hashlib
from fractions import Fraction

import pytest

from memnet import gadgets
from memnet.datagen import (random_dataset, random_regression_labels,
                            random_separated_points)
from memnet.netir import net_to_json_bytes
from memnet.pipeline import (MemorizationError, assemble_sqrt,
                             regression_wrap)
from memnet.variants import assemble_bounded_bits, assemble_bounded_depth

BUILD_DIGESTS = {
    "sqrt": "709c61cf772e46dcf224f2b7c2e9109160c34541a4e5db4291e16b91b657ea6b",
    "depth": "dc295358fb41b2e4a002ac1f434e738f5e0a162c4da856b843e498e750de07f7",
    "bits": "eda6c26f8150ec9ed379dbe9e02418c1e49a59359e5cdc7e4d4b8b37e415b626",
    "regression": "fc87832ad73fb1ad9a714858986977fb8bc44363b5a58c916ef622d1b7df597d",
}

GADGET_DIGESTS = {
    "indicator": "d241c848ae50ecac46252cecc243167c831e911c50503190a0a5e00423811ac4",
    "distance_gate": "570bb4f3c403530508d55a77903d46d0a89231b89b1d5992ecdf880a36d63510",
    "bit_extractor": "8ad15a0cb5412346751ea8976de96cf906b2d95cab9f6873f2a93adc93fd4b5e",
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
