"""The two crossings between exact rationals and the outside world.

Every quantity in this package is a :class:`fractions.Fraction`.
Exactness makes every equality and sign test a plain comparison, which
the feasibility machinery depends on. ``scalar`` turns a value read from
input into a ``Fraction`` (``io.scalar_in`` is its one caller), and
``format_scalar`` renders a ``Fraction`` as text, in reports and in
every message that names a scalar, and ``approx`` as the float shown
next to it. ``scaled`` puts rationals over one common denominator, for
the integer sums and comparisons of the revealed statistics, a menu's
act lines and every LP tableau row.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction


def scalar(value: object) -> Fraction:
    """Coerce an input ``value`` to an exact rational.

    Accepts ints, ``"p/q"`` strings, decimal strings, floats, and
    Fractions. Floats are converted through their shortest repr, so a
    JSON literal ``0.49`` becomes exactly 49/100. A string whose value
    needs more digits than the interpreter converts between integers and
    text (``sys.get_int_max_str_digits()``; none when it is 0) raises
    ``ValueError``, naming it, since it could be neither read nor shown.
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
        limit = sys.get_int_max_str_digits()
        # with no exponent, neither term of the value has more digits than the text
        long = limit and (len(value) > limit or "e" in value or "E" in value)
        if long and re.search(rf"\d{{{limit + 1}}}", value):
            raise _too_many_digits(value, limit)
        try:
            x = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"scalar {value!r} has a zero denominator") from None
        big = max(abs(x.numerator), x.denominator) if long else 0
        if big.bit_length() > 3 * limit and big >= 10**limit:  # 2**(3 limit) < 10**limit
            raise _too_many_digits(value, limit)
        return x
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


def _too_many_digits(text: str, limit: int) -> ValueError:
    shown = text if len(text) <= 24 else text[:20] + "..."
    return ValueError(
        f"scalar {shown!r} has more than {limit} digits, the interpreter's limit "
        "for integer text (sys.get_int_max_str_digits)"
    )


def scaled(values) -> tuple[int, list[int]]:
    """The least common denominator of the rationals ``values`` (1 when
    there are none), and each value's numerator over it."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def approx(x: Fraction) -> float:
    """The float nearest ``x``, shown next to the exact value in reports
    and LP dumps; a ``ValueError`` outside float range."""
    try:
        return float(x)
    except OverflowError:
        order = math.floor(math.log10(abs(x.numerator)) - math.log10(x.denominator))
        raise ValueError(f"a value of order 10^{order} lies outside float range") from None


def format_scalar(x: Fraction) -> str:
    """Exact text rendering: ``p/q``, or a bare integer."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
