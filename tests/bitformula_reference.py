"""The scalar bit-extraction formula, stepped on Fractions.

`extractor_track_inputs` iterates the triangle function on the two track
offsets one Fraction step at a time, and `bin_bit_formula` reads a bit
from them.  They are the reference of tests/test_gadgets.py for
gadgets._track_table, which steps the same tracks on plain integers for
the bit oracle and the extractor inputs.
"""

from fractions import Fraction

from memnet.gadgets import _relu, triangle_iterate


def extractor_track_inputs(x: int, n: int, i: int) -> tuple[Fraction, Fraction]:
    """The two triangle-track values expected by a bit extractor at stage i.

    Returns (phi^(i-1)(x/2^n + 1/2^(n+1)), phi^(i-1)(x/2^n + 1/2^(n+2))).
    """
    base_p = Fraction(x, 1 << n) + Fraction(1, 1 << (n + 1))
    base_q = Fraction(x, 1 << n) + Fraction(1, 1 << (n + 2))
    return triangle_iterate(base_p, i - 1), triangle_iterate(base_q, i - 1)


def bin_bit_formula(x: int, n: int, i: int) -> int:
    """Bit i of x (width-n, MSB-first) via the iterated-triangle identity.

    bit_i = 2^(n+2-i) * sigma(phi^(i)(x/2^n + 1/2^(n+2)) - phi^(i)(x/2^n + 1/2^(n+1)))
    """
    if not 1 <= i <= n:
        raise IndexError(f"bit index {i} out of range for width {n}")
    if x.bit_length() > n:
        raise OverflowError(f"{x} does not fit in {n} bits")
    p, q = extractor_track_inputs(x, n, i + 1)  # phi^(i) of both offsets
    value = _relu(q - p) * 2 ** (n + 2 - i)
    if value.denominator != 1:
        raise ValueError(f"the tap of bit {i} is {value}, not an integer")
    return int(value)
