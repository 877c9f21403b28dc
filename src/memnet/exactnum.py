"""The stored form of a weight, and big-integer bit utilities.

Every weight and bias in this package is a dyadic rational m * 2**e, held
as a DyadicRational: a canonical triple (odd mantissa, or the zero triple),
so equality is structural and serialization is bit-exact.  It is only a
storage form; computed values (activations, outputs, the oracles' formulas)
are Fraction and int.  Bit-string helpers treat integers as fixed-width,
MSB-first bit blocks (bit 1 is the most significant bit of the padded
string).
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "DyadicRational",
    "ZERO",
    "bit_len",
    "bin_range",
    "pack_blocks",
    "ceil_log2",
    "ceil_sqrt",
]


def bit_len(n: int) -> int:
    """Number of bits in the binary representation of n >= 0 (0 -> 0)."""
    if n < 0:
        raise ValueError("bit_len is defined for nonnegative integers")
    return n.bit_length()


def bin_range(n: int, i: int, j: int, width: int) -> int:
    """Bits i..j (inclusive, 1-indexed, MSB-first) of n as a width-bit string.

    n is padded with leading zeros to `width` bits; bit 1 is the most
    significant bit of the padded string.  Example: bin_range(32, 1, 3, 6)
    is 0b100 = 4.
    """
    if i < 1 or i > j or j > width:
        raise IndexError(f"bit slice {i}:{j} out of range for width {width}")
    if n < 0 or n.bit_length() > width:
        raise OverflowError(f"{n} does not fit in {width} bits")
    return (n >> (width - j)) & ((1 << (j - i + 1)) - 1)


def pack_blocks(values: list[int], block_width: int) -> int:
    """Inverse of bin_range over fixed-width blocks; block 0 is most significant.

    pack_blocks([4, 9], 4) == 0b0100_1001 == 73.
    """
    if block_width < 1:
        raise ValueError("block_width must be positive")
    out = 0
    for v in values:
        if v < 0 or v.bit_length() > block_width:
            raise OverflowError(f"{v} does not fit in a {block_width}-bit block")
        out = (out << block_width) | v
    return out


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for a positive int."""
    if not isinstance(x, int):
        raise TypeError("ceil_log2 needs an int")
    if x < 1:
        raise ValueError("ceil_log2 needs a positive argument")
    return (x - 1).bit_length()


def ceil_sqrt(n: int) -> int:
    """Smallest k with k*k >= n."""
    if n < 0:
        raise ValueError("ceil_sqrt needs a nonnegative argument")
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else r + 1


_HEX = re.compile("0|[1-9a-f][0-9a-f]*")


def _canon(num: int, exp: int) -> tuple[int, int]:
    if num == 0:
        return 0, 0
    shift = (num & -num).bit_length() - 1
    return num >> shift, exp + shift


class DyadicRational:
    """The stored form of a weight: sign * mantissa * 2**exponent with odd
    mantissa (or exact zero).

    It holds no arithmetic: the evaluators compile the triple into integer
    programs, and every computed value is a Fraction or an int.
    """

    __slots__ = ("sign", "mantissa", "exponent")

    def __init__(self, numerator: int = 0, exponent: int = 0):
        num, exp = _canon(numerator, exponent)
        if num == 0:
            object.__setattr__(self, "sign", 0)
            object.__setattr__(self, "mantissa", 0)
            object.__setattr__(self, "exponent", 0)
        else:
            object.__setattr__(self, "sign", 1 if num > 0 else -1)
            object.__setattr__(self, "mantissa", abs(num))
            object.__setattr__(self, "exponent", exp)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def pow2(cls, k: int) -> "DyadicRational":
        return cls(1, k)

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "DyadicRational":
        den = fr.denominator
        if den & (den - 1):
            raise ValueError(f"{fr} is not dyadic (denominator not a power of two)")
        return cls(fr.numerator, -(den.bit_length() - 1))

    # -- views --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        n = self.sign * self.mantissa
        if self.exponent >= 0:
            return Fraction(n << self.exponent, 1)
        return Fraction(n, 1 << -self.exponent)

    def to_float(self) -> float:
        """The nearest float64, ties to even, as float() of the Fraction: one
        rounding, so a mantissa wider than 53 bits and a subnormal result
        are not rounded twice.  Past the float range it is +-inf, and a
        negative value too small for a subnormal is -0.0."""
        n = self.sign * self.mantissa
        try:
            return float(n << self.exponent) if self.exponent >= 0 else n / (1 << -self.exponent)
        except OverflowError:
            return self.sign * float("inf")

    def __eq__(self, other):
        if isinstance(other, DyadicRational):
            return (
                self.sign == other.sign
                and self.mantissa == other.mantissa
                and self.exponent == other.exponent
            )
        if isinstance(other, int):
            # canonical form: a nonzero value with e < 0 is not an integer, and
            # one with e > other.bit_length() exceeds |other|
            e = self.exponent
            return 0 <= e <= other.bit_length() and self.sign * self.mantissa << e == other
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        return NotImplemented

    def __repr__(self):
        return f"DyadicRational({self.sign * self.mantissa}, {self.exponent})"

    # -- parsing (netir.net_to_json_bytes writes the cells) -----------

    @classmethod
    def from_json(cls, obj: dict) -> "DyadicRational":
        """The value of a cell {"s": sign, "m": mantissa hex, "e": exponent}.

        ValueError unless s and e are JSON integers (not booleans, floats or
        strings), m is lowercase hex without leading zeros, and the triple is
        canonical: s in {-1, 1} with an odd mantissa, or exactly the zero cell.
        """
        sign, hex_mantissa, exponent = obj["s"], obj["m"], obj["e"]
        if (type(sign) is not int or type(exponent) is not int
                or type(hex_mantissa) is not str or not _HEX.fullmatch(hex_mantissa)):
            raise ValueError(f"serialized dyadic needs integer s and e and a lowercase "
                             f"hex m: {obj!r:.200}")
        mantissa = int(hex_mantissa, 16)
        if sign == 0:
            if mantissa != 0 or exponent != 0:
                raise ValueError("non-canonical zero in serialized dyadic")
            return ZERO
        if sign not in (-1, 1) or mantissa == 0 or not mantissa & 1:
            raise ValueError(f"non-canonical serialized dyadic: {obj}")
        return cls(sign * mantissa, exponent)


ZERO = DyadicRational(0, 0)
