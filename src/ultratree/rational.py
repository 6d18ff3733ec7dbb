"""Exact rational values and their canonical text form.

All quantities in the toolkit (weights, labels, distances) are
``fractions.Fraction`` values.  The canonical text form is ``str(Fraction)``
in lowest terms ("4", "-1/3"), so text equality coincides with value
equality; it is the form embedded in canonical codes and serialized files.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

Rational = Fraction


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or integer text, an optional sign and ASCII digits (or an exact number), exactly."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):  # JSON true/false are no numbers
        return Fraction(text)
    num, slash, den = str(text).strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:  # ASCII digits only: Fraction(str) also reads "1.5", "1e3", "1_000" and "١٢", and a float's text
        if digits.isascii() and digits.isdecimal() and (not slash or den.isascii() and den.isdecimal()):
            return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError):  # more digits than int() reads, or a zero denominator
        pass
    raise ParseError(f"not a rational: {text!r}")


def format_rational(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))
