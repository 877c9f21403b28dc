from fractions import Fraction

import pytest

from memnet.exactnum import DyadicRational, bin_range
from memnet import gadgets
from memnet.gadgets import (ParameterError, _relu, _track_table,
                            build_bit_extractor, build_distance_gate,
                            build_indicator, build_triangle, distance_value,
                            indicator_value, oracle_bits, oracle_distance,
                            oracle_indicator, oracle_stage3, oracle_triangle,
                            triangle_iterate, triangle_value)
from memnet.netir import eval_exact, metrics
from bitformula_reference import bin_bit_formula, extractor_track_inputs


class TestRelu:
    @pytest.mark.parametrize("v,want", [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(-1, 3), Fraction(0)),
        (Fraction(0), Fraction(0)),
        (5, 5),
        (-5, 0),
        (0, 0),
    ], ids=repr)
    def test_values_and_types(self, v, want):
        got = _relu(v)
        assert type(got) is type(want) and got == want
        if type(v) is type(want) and v > 0:
            assert got is v

    def test_other_types_are_refused(self):
        # a float would round
        with pytest.raises(TypeError):
            _relu(0.5)

    @pytest.mark.parametrize("v", [
        DyadicRational(3, -2), DyadicRational(-3, -2), DyadicRational(0),
    ], ids=repr)
    def test_dyadic_is_refused(self, v):
        # a dyadic is only a weight's stored form and has no ordering
        with pytest.raises(TypeError):
            _relu(v)


class TestTriangle:
    def test_landmarks(self):
        net = build_triangle()
        assert eval_exact(net, [0])[0] == 0
        assert eval_exact(net, [Fraction(1, 2)])[0] == 1
        assert eval_exact(net, [1])[0] == 0
        assert eval_exact(net, [Fraction(1, 4)])[0] == Fraction(1, 2)

    def test_metrics(self):
        m = metrics(build_triangle())
        assert (m.width, m.depth) == (2, 2)

    def test_slopes_are_plus_minus_two(self):
        net = build_triangle()
        step = Fraction(1, 64)
        for k in range(64):
            lo, hi = k * step, (k + 1) * step
            rise = eval_exact(net, [hi])[0] - eval_exact(net, [lo])[0]
            assert abs(rise / step) == 2

    def test_iterate_zero_fixed_point(self):
        assert triangle_iterate(0, 10) == 0 == triangle_iterate(Fraction(0), 10)

    def test_scalar_formula_agrees_with_fraction(self):
        # an int and the equal Fraction give one value: the closed form
        # 2z on [0, 1/2], 2 - 2z on [1/2, 1] and 0 elsewhere
        for num in range(-4, 9):
            z = Fraction(num, 4)
            want = max(0, min(2 * z, 2 - 2 * z))
            assert triangle_value(z) == want
            if num % 4 == 0:
                assert triangle_value(num // 4) == want


class TestIndicator:
    def test_plateau_endpoints(self):
        net = build_indicator(2, 5)
        assert eval_exact(net, [2])[0] == 1
        assert eval_exact(net, [5])[0] == 1

    def test_zero_outside_margins(self):
        net = build_indicator(2, 5)
        assert eval_exact(net, [Fraction(7, 5)])[0] == 0
        assert eval_exact(net, [Fraction(28, 5)])[0] == 0

    def test_ramp_midpoint(self):
        # the upper ramp runs from (5, 1) down to (11/2, 0)
        net = build_indicator(2, 5)
        assert eval_exact(net, [Fraction(21, 4)])[0] == Fraction(1, 2)

    def test_matches_formula_everywhere(self):
        net = build_indicator(2, 5)
        x = Fraction(-1)
        while x <= 8:
            assert eval_exact(net, [x])[0] == indicator_value(2, 5, x)
            x += Fraction(1, 8)

    def test_metrics(self):
        m = metrics(build_indicator(2, 5))
        # two sigma layers plus the affine readout; bit complexity len(2b)
        assert (m.width, m.depth) == (2, 3)
        assert m.bits <= 4

    def test_requires_ordered_interval(self):
        with pytest.raises(ParameterError):
            build_indicator(5, 5)


class TestDistanceGate:
    def test_contract_points(self):
        net = build_distance_gate()
        assert eval_exact(net, [Fraction(7, 2), 3])[0] == 1
        assert eval_exact(net, [1, 3])[0] == 0

    def test_upper_ramp(self):
        # ramp falls from (y+1, 1) to (y+3/2, 0); midpoint y+5/4 reads 1/2
        net = build_distance_gate()
        assert eval_exact(net, [Fraction(17, 4), 3])[0] == Fraction(1, 2)
        assert eval_exact(net, [Fraction(19, 4), 3])[0] == 0

    def test_matches_formula_on_grid(self):
        net = build_distance_gate()
        for y in (0, 3):
            x = Fraction(y - 3)
            while x <= y + 3:
                assert eval_exact(net, [x, y])[0] == distance_value(x, Fraction(y))
                x += Fraction(1, 4)

    def test_metrics(self):
        m = metrics(build_distance_gate())
        assert (m.width, m.depth) == (2, 3)
        assert m.bits == 1 and m.exponent_range <= 1


class TestBitFormula:
    def test_examples(self):
        assert bin_bit_formula(5, 3, 1) == 1
        assert bin_bit_formula(5, 3, 2) == 0
        assert all(bin_bit_formula(0, 4, i) == 0 for i in range(1, 5))

    def test_exhaustive_small(self):
        for n in range(1, 8):
            for x in range(1 << n):
                for i in range(1, n + 1):
                    assert bin_bit_formula(x, n, i) == bin_range(x, i, i, n)

    def test_errors(self):
        with pytest.raises(IndexError):
            bin_bit_formula(1, 3, 4)
        with pytest.raises(OverflowError):
            bin_bit_formula(9, 3, 1)


class TestBitExtractor:
    def test_full_range_example(self):
        net = build_bit_extractor(4, 1, 4)
        p, q = extractor_track_inputs(11, 4, 1)
        assert eval_exact(net, [p, q])[2] == 11

    def test_inner_range_example(self):
        net = build_bit_extractor(3, 2, 3)
        p, q = extractor_track_inputs(5, 3, 2)
        assert eval_exact(net, [p, q])[2] == 1  # bits "01"

    def test_depth_exact_width_bounded(self):
        for (n, i, j) in ((4, 1, 4), (6, 2, 5), (5, 3, 3)):
            m = metrics(build_bit_extractor(n, i, j))
            assert m.depth == 3 * (j - i + 1)
            assert m.width <= 5
            assert m.bits == 1  # every weight is a signed power of two
            assert m.exponent_range <= n + (j - i) + 2

    def test_track_outputs_advance(self):
        n, i, j, x = 5, 2, 4, 19
        net = build_bit_extractor(n, i, j)
        out = eval_exact(net, list(extractor_track_inputs(x, n, i)))
        want_p, want_q = extractor_track_inputs(x, n, j + 1)
        assert (out[0], out[1]) == (want_p, want_q)

    def test_exhaustive_small(self):
        report = oracle_bits(5)
        assert report["pass"], report["mismatches"][:3]

    def test_index_errors(self):
        with pytest.raises(IndexError):
            build_bit_extractor(4, 3, 2)
        with pytest.raises(IndexError):
            build_bit_extractor(4, 1, 5)


class TestOracles:
    def test_triangle_suite(self):
        assert oracle_triangle(max_iter=4)["pass"]

    def test_indicator_suite(self):
        assert oracle_indicator()["pass"]

    def test_distance_suite(self):
        assert oracle_distance()["pass"]

    def test_stage3_suite(self):
        assert oracle_stage3(trials=6)["pass"]

    def test_oracle_catches_sabotaged_exponent(self, monkeypatch):
        # mutation check: a wrong power in the bit tap must produce a witness
        def bad_tap(p, q, n, i):
            wrong = _relu(q - p) * 2 ** (n + 1 - i)  # off by one power
            return 1 if wrong == 1 else 0

        monkeypatch.setattr(gadgets, "_tap_bit", bad_tap)
        report = oracle_bits(3)
        assert not report["pass"]
        assert report["mismatches"]

    def test_track_table_holds_the_extractor_inputs(self):
        for n in range(1, 9):
            for x in range(1 << n):
                table = _track_table(x, n)
                assert len(table) == n + 1
                for i in range(n + 1):
                    assert table[i] == extractor_track_inputs(x, n, i + 1)
                    for v in table[i]:
                        # a normalized Fraction on the grid of 2^-(n+2)
                        assert type(v) is Fraction and (v * (1 << (n + 2))).denominator == 1

    def test_oracle_catches_sabotaged_tap_helper(self, monkeypatch):
        # a tap wrong on the last bit only: the formula sweep catches it
        tap_bit = gadgets._tap_bit
        monkeypatch.setattr(gadgets, "_tap_bit",
                            lambda p, q, n, i: tap_bit(p, q, n, i) ^ (i == n))
        report = oracle_bits(3)
        assert not report["pass"]
        assert {w["kind"] for w in report["mismatches"]} == {"formula"}

    def test_oracle_refuses_huge_sweep(self):
        with pytest.raises(ParameterError):
            oracle_bits(15)
