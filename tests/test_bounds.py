import math
from fractions import Fraction
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from memnet.bounds import (ProvenanceError, audit, lower_bound_params,
                           projection_ceiling, vc_upper_bits)
from memnet.datagen import random_dataset
from memnet.exactnum import DyadicRational
from memnet.netir import AffineLayer, LayeredNet
from memnet.pipeline import assemble_sqrt


class TestVcUpperBits:
    def test_examples(self):
        assert vc_upper_bits(1, 1) == 1
        assert vc_upper_bits(16, 4) == 128

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_monotone(self, w, b):
        assert vc_upper_bits(w + 1, b) >= vc_upper_bits(w, b)
        assert vc_upper_bits(w, b + 1) >= vc_upper_bits(w, b)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            vc_upper_bits(0, 1)


class TestLowerBounds:
    def test_examples(self):
        assert lower_bound_params(4, "goldberg_sqrt") == 2
        assert lower_bound_params(256, "sqrt_nlogn") == 46
        assert lower_bound_params(256, "bartlett_depth", L=4) == 8

    def test_goldberg_is_ceil_sqrt(self):
        for n in range(2, 200):
            v = lower_bound_params(n, "goldberg_sqrt")
            assert (v - 1) ** 2 < n <= v ** 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            lower_bound_params(16, "unknown")
        with pytest.raises(ValueError):
            lower_bound_params(16, "bartlett_depth")


class TestFloatRange:
    """Exact dataset quantities past float64 range still give a ceiling."""

    @staticmethod
    def _ceiling(r_sq, delta_sq):
        return projection_ceiling(SimpleNamespace(r_sq=r_sq, delta_sq=delta_sq, n=2, dim=1))

    def test_in_range_matches_plain_float(self):
        for r_sq, delta_sq in ((Fraction(10**300), Fraction(1, 3)),
                               (Fraction(7, 2), Fraction(1, 10**300)), (Fraction(0), None)):
            r = max(1.0, math.sqrt(float(r_sq)))
            delta = 1.0 if delta_sq is None else min(1.0, math.sqrt(float(delta_sq)))
            assert self._ceiling(r_sq, delta_sq) == 10.0 * r * 4 * math.sqrt(math.pi) / delta

    def test_past_the_range(self):
        root = 10.0 * 4 * math.sqrt(math.pi)
        assert self._ceiling(Fraction(9 * 10**400), Fraction(1)) == pytest.approx(3e200 * root)
        assert self._ceiling(Fraction(1), Fraction(1, 4 * 10**400)) == pytest.approx(2e200 * root)
        assert self._ceiling(Fraction(10**800), Fraction(1)) == math.inf
        assert self._ceiling(Fraction(1), Fraction(1, 10**800)) == math.inf


@pytest.fixture(scope="module")
def built():
    ds = random_dataset(32, 2, 4, seed=1)
    net, report = assemble_sqrt(ds, seed=1)
    return ds, net, report


class TestAudit:
    def test_structural_passes(self, built):
        _, _, report = built
        assert report.passes["memorized"]
        assert report.passes["width"]
        assert report.passes["depth_construction"]
        assert report.passes["projection_range"]
        assert report.passed

    def test_ratios_finite_positive(self, built):
        _, _, report = built
        for name, value in report.ratios.items():
            assert math.isfinite(value) and value > 0, name

    def test_sandwich_over_goldberg(self, built):
        _, _, report = built
        assert report.realized.params >= report.lower_bounds["goldberg_sqrt"]
        assert report.ratios["params_over_goldberg"] >= 1

    def test_kappa_consistency(self, built):
        ds, _, report = built
        w, b = report.realized.params, report.effective_bits
        assert ds.n <= report.kappa * vc_upper_bits(w, b) + 1e-9

    def test_audit_is_pure(self, built):
        ds, net, report = built
        again = audit(net, ds, report.info)
        assert again.to_json() == report.to_json()

    def test_corrupted_weight_fails_memorization(self, built):
        ds, net, report = built
        last = net.layers[-1]
        bad_rows = tuple(
            tuple((i, DyadicRational.from_fraction(w.as_fraction() + 1)) for i, w in row)
            if row else ((0, DyadicRational(1)),)
            for row in last.rows
        )
        bad_last = AffineLayer(last.in_dim, last.out_dim, bad_rows, last.biases,
                               relu=False)
        broken = LayeredNet(net.input_dim, net.layers[:-1] + (bad_last,),
                            net.provenance, net.output_nonneg)
        again = audit(broken, ds, report.info)
        assert not again.memorized
        assert not again.passed

    def test_record_of_other_data_is_refused(self, built):
        ds, net, report = built
        other = random_dataset(ds.n + 2, ds.dim, ds.num_classes, seed=5)
        with pytest.raises(ValueError, match="does not describe this dataset: its N, "):
            audit(net, other, report.info)

    def test_unknown_theorem(self, built):
        ds, net, report = built
        with pytest.raises(ProvenanceError):
            audit(net, ds, replace(report.info, theorem="unheard_of"))

    def test_report_json_schema(self, built):
        _, _, report = built
        obj = report.to_json()
        assert obj["schema_version"] == 1
        for key in ("theorem", "realized", "memorized", "ceilings", "ratios",
                    "lower_bounds", "passes", "pass", "kappa", "builder"):
            assert key in obj
