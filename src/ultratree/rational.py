"""Exact rational values and their canonical text form.

All quantities in the toolkit (weights, labels, distances) are
``fractions.Fraction`` values.  The canonical text form is ``str(Fraction)``
in lowest terms ("4", "-1/3"), so text equality coincides with value
equality; it is the form embedded in canonical codes and serialized files.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParseError, SizeLimitError


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or integer text, an optional sign and ASCII digits (or an exact number), exactly."""
    if isinstance(text, (Fraction, int)) and not isinstance(text, bool):  # JSON true/false are no numbers
        return text if isinstance(text, Fraction) else Fraction(text)
    num, slash, den = str(text).strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:  # ASCII digits, a nonzero denominator: Fraction(str) also reads "1.5", "1e3", "1_000" and "١٢"
        if digits.isascii() and digits.isdecimal() and (not slash or den.isascii() and den.isdecimal() and int(den)):
            return Fraction(int(num), int(den or 1))
    except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits()), counted, not shown
        raise ParseError(f"not a rational: {max(len(digits), len(den))} digits, over {sys.get_int_max_str_digits()}")
    raise ParseError(f"not a rational: {text!r}")


def format_rational(value: Fraction) -> str:
    value = value if isinstance(value, Fraction) else Fraction(value)
    try:
        return str(value)
    except ValueError:  # more digits than str() writes, refused alike on every release
        raise SizeLimitError(f"a number has over sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} digits")
