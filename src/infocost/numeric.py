"""Scalar coercion and rendering.

Every quantity in this package is a ``Scalar``: an exact rational
(:class:`fractions.Fraction`). Exactness makes every equality and sign
test a plain comparison, which the feasibility machinery depends on.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = Fraction


def scalar(value: object) -> Scalar:
    """Coerce ``value`` to an exact rational.

    Accepts ints, ``"p/q"`` strings, decimal strings, floats, and
    Fractions. Floats are converted through their shortest repr, so a
    JSON literal ``0.49`` becomes exactly 49/100.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite scalar: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


def format_scalar(x: Scalar) -> str:
    """Exact text rendering: ``p/q``, or a bare integer."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
