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
    """Parse "p/q" / integer text (or an already-exact number) exactly."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (bool, float)):  # JSON true/false, or a number already rounded to binary
        raise ParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))
