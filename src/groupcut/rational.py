"""Exact rational scalars.

All numeric data in this package is ``fractions.Fraction``: arbitrary
precision, always in lowest terms, exact arithmetic and comparison.  Floats
are rejected everywhere so that no inexact value can slip in silently.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

Rational = Fraction

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p' or 'p/q' string.  Decimal notation and non-strings (a
    JSON number, say) are rejected."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal (use a 'p' or 'p/q' "
                         f"string): {text!r}")
    m = _RAT_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal (use p or p/q): {text!r}")
    num, den = m.group(1), m.group(2)
    return Fraction(int(num), int(den) if den else 1)


def to_rational(value) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to Fraction.  Floats error out."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected exact rational data, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def common_denominator(values) -> int:
    """lcm of the denominators of an iterable of Fractions (at least 1)."""
    return lcm(*{v.denominator for v in values})


def on_grid(values, D: int = 1) -> tuple[int, list[int]]:
    """(G, ints): the Fractions values on their common grid 1/G, with G the
    lcm of D and their denominators, and ints[i] = values[i] * G."""
    values = list(values)
    G = lcm(D, *{v.denominator for v in values})
    return G, [v.numerator * (G // v.denominator) for v in values]
