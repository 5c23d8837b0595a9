"""The two crossings between exact rationals and the outside world.

Every quantity in this package is a :class:`fractions.Fraction`.
Exactness makes every equality and sign test a plain comparison, which
the feasibility machinery depends on. ``scalar`` turns a value read from
input into a ``Fraction`` (``io.scalar_in`` is its one caller), and
``format_scalar`` renders a ``Fraction`` as text, in reports and in
every message that names a scalar.
"""

from __future__ import annotations

import math
from fractions import Fraction


def scalar(value: object) -> Fraction:
    """Coerce an input ``value`` to an exact rational.

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


def format_scalar(x: Fraction) -> str:
    """Exact text rendering: ``p/q``, or a bare integer."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
