import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from memnet.exactnum import (DyadicRational, ZERO, bin_range, bit_len,
                             ceil_log2, ceil_sqrt, pack_blocks)
from memnet.netir import MAX_EXPONENT, MAX_MANTISSA_BITS
from netfile_reference import cell_json

# zero, small and negative numerators, and mantissas up to the load cap
_numerators = st.one_of(
    st.integers(-9, 9),
    st.integers(1, MAX_MANTISSA_BITS).flatmap(
        lambda b: st.integers(-(1 << b) + 1, (1 << b) - 1)))
_exponents = st.one_of(st.integers(-4, 4), st.integers(-MAX_EXPONENT, MAX_EXPONENT),
                       st.sampled_from([-MAX_EXPONENT, MAX_EXPONENT]))
_dyadics = st.builds(DyadicRational, _numerators, _exponents)


def brute_bits(n: int, width: int) -> str:
    """Independent oracle: the padded MSB-first bit string of n."""
    return format(n, "b").zfill(width)


class TestBitLen:
    def test_examples(self):
        assert bit_len(32) == 6
        assert bit_len(0) == 0
        assert bit_len(1) == 1

    def test_matches_floor_log(self):
        for n in range(1, 4096):
            assert bit_len(n) == len(format(n, "b"))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_len(-1)


class TestBinRange:
    def test_msb_first_indexing(self):
        assert bin_range(32, 1, 3, 6) == 4

    def test_middle_bit(self):
        assert bin_range(5, 2, 2, 3) == 0

    def test_padded_slice(self):
        # 73 = 01001001 as an 8-bit string; bits 5..8 are 1001
        assert brute_bits(73, 8) == "01001001"
        assert bin_range(73, 5, 8, 8) == int("1001", 2) == 9

    def test_against_string_oracle(self):
        rng = random.Random(1)
        for _ in range(2000):
            width = rng.randint(1, 40)
            n = rng.randrange(1 << width)
            i = rng.randint(1, width)
            j = rng.randint(i, width)
            assert bin_range(n, i, j, width) == int(brute_bits(n, width)[i - 1:j], 2)

    def test_errors(self):
        with pytest.raises(IndexError):
            bin_range(3, 2, 1, 4)
        with pytest.raises(IndexError):
            bin_range(3, 1, 5, 4)
        with pytest.raises(OverflowError):
            bin_range(32, 1, 2, 3)


class TestPackBlocks:
    def test_examples(self):
        assert pack_blocks([4, 9], 4) == 73
        assert pack_blocks([3, 1], 2) == 13
        assert pack_blocks([0], 5) == 0

    def test_overflow(self):
        with pytest.raises(OverflowError):
            pack_blocks([4], 2)

    def test_round_trip_bulk(self):
        # the pack/slice round trip on ten thousand random block lists
        rng = random.Random(7)
        for _ in range(10_000):
            width = rng.randint(1, 12)
            count = rng.randint(1, 6)
            values = [rng.randrange(1 << width) for _ in range(count)]
            packed = pack_blocks(values, width)
            for k, v in enumerate(values):
                assert bin_range(packed, k * width + 1, (k + 1) * width,
                                 count * width) == v

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=8))
    def test_round_trip_property(self, values):
        packed = pack_blocks(values, 8)
        for k, v in enumerate(values):
            assert bin_range(packed, 8 * k + 1, 8 * (k + 1), 8 * len(values)) == v


class TestDyadicRational:
    def test_canonical_form(self):
        v = DyadicRational(12, 0)
        assert (v.sign, v.mantissa, v.exponent) == (1, 3, 2)
        z = DyadicRational(0, 17)
        assert (z.sign, z.mantissa, z.exponent) == (0, 0, 0)

    def test_canonicalization_idempotent(self):
        rng = random.Random(3)
        for _ in range(1000):
            v = DyadicRational(rng.randint(-999, 999), rng.randint(-20, 20))
            again = DyadicRational(v.sign * v.mantissa, v.exponent)
            assert (again.sign, again.mantissa, again.exponent) == \
                (v.sign, v.mantissa, v.exponent)

    def test_agrees_with_fraction_oracle_bulk(self):
        # the value of (n, e) is n * 2**e, and from_fraction inverts as_fraction
        rng = random.Random(11)
        for _ in range(10_000):
            n, e = rng.randint(-500, 500), rng.randint(-12, 12)
            a = DyadicRational(n, e)
            want = Fraction(n) * Fraction(2) ** e
            assert a.as_fraction() == want and a == want
            assert DyadicRational.from_fraction(want) == a
            assert a.to_float() == float(want)

    @staticmethod
    def _nearest_float(q: Fraction) -> float:
        """float(q), +-inf past the float range."""
        try:
            return float(q)
        except OverflowError:
            return float("inf") if q > 0 else float("-inf")

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2100).flatmap(lambda b: st.integers(-(1 << b), 1 << b)),
           st.integers(-1200, 1200))
    def test_to_float_rounds_once(self, n, e):
        """Mantissas of up to about 2,100 bits and exponents up to +-1,200,
        past the float range and into the subnormals on either side: the
        nearest float, rounded once, as float() of the Fraction."""
        got = DyadicRational(n, e).to_float()
        want = self._nearest_float(DyadicRational(n, e).as_fraction())
        assert struct.pack("<d", got) == struct.pack("<d", want), (n, e, got, want)

    def test_to_float_examples(self):
        """A wide mantissa inside the load caps, and a subnormal that
        rounding first to 53 bits and then to the subnormal grid gets one
        ulp wrong; a negative value below the subnormals is -0.0."""
        assert DyadicRational((1 << 1100) + 1, -1100).to_float() == 1.0
        assert DyadicRational(0x1064C649FB695FFB, -1088).to_float().hex() == \
            "0x0.041931927eda5p-1022"
        assert struct.pack("<d", DyadicRational(-1, -1100).to_float()) == \
            struct.pack("<d", -0.0)
        assert DyadicRational(-3, MAX_EXPONENT).to_float() == float("-inf")

    @settings(max_examples=300, deadline=None)
    @given(_dyadics, st.one_of(_dyadics, _numerators))
    def test_comparisons_match_fractions(self, a, b):
        # equality is the only comparison; it agrees with the Fraction values
        fa = a.as_fraction()
        fb = b.as_fraction() if isinstance(b, DyadicRational) else Fraction(b)
        assert (a == b, a != b, b == a, b != a) == (fa == fb, fa != fb, fb == fa, fb != fa)
        assert a == fa and (a == fb) == (fa == fb)

    def test_comparison_with_a_fraction_is_refused(self):
        # a dyadic has no ordering: computed values are Fraction and int
        for other in (Fraction(1, 2), 0, DyadicRational(3)):
            with pytest.raises(TypeError):
                DyadicRational(1) < other  # noqa: B015
            with pytest.raises(TypeError):
                other >= DyadicRational(1)  # noqa: B015
        assert DyadicRational(1, -1) == Fraction(1, 2) != DyadicRational(1)

    def test_int_interop(self):
        v = DyadicRational(3, 1)
        assert v == 6 and 6 == v and v != 3 and v != 12
        assert DyadicRational(3, -1) != 1 and ZERO == 0 and DyadicRational(-1) == -1
        with pytest.raises(TypeError):
            v + 1  # noqa: B018

    def test_json_round_trip(self):
        for v in (ZERO, DyadicRational(-12345, -7), DyadicRational(1, 99)):
            again = DyadicRational.from_json(cell_json(v))
            assert again == v
        with pytest.raises(ValueError):
            DyadicRational.from_json({"s": 1, "m": "4", "e": 0})  # even mantissa

    def test_no_general_division(self):
        with pytest.raises(TypeError):
            DyadicRational(1) / DyadicRational(3)  # noqa: B015

    def test_from_fraction(self):
        assert DyadicRational.from_fraction(Fraction(3, 8)) == DyadicRational(3, -3)
        with pytest.raises(ValueError):
            DyadicRational.from_fraction(Fraction(1, 3))


class TestLogHelpers:
    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        for bad in (0, -3):
            with pytest.raises(ValueError):
                ceil_log2(bad)
        for bad in (Fraction(9), 2.0):
            with pytest.raises(TypeError):
                ceil_log2(bad)

    @given(st.integers(min_value=1, max_value=1 << 200))
    def test_ceil_log2_property(self, n):
        k = ceil_log2(n)
        assert 2 ** k >= n > 2 ** (k - 1)

    def test_ceil_sqrt(self):
        for n in range(0, 500):
            r = ceil_sqrt(n)
            assert r * r >= n and (r == 0 or (r - 1) * (r - 1) < n)
