"""Breakpoint-represented scalar functions on [0, 1].

Covers everything the pipelines pass around: cost derivatives, price
functions, indirect utilities, and their sums and envelopes. Segments are
quadratic ``a z^2 + b z + c`` with ``a = 0`` for the affine case; the only
quadratic producer is the posterior-variance cost.

Every operation on several functions reads one walk, ``_merged``: the
intervals of their merged breakpoint grid from left to right, with each
function's segment on each. ``+``, ``-`` and unary ``-`` are one
integer-weighted sum over it (``_weighted_sum``), ``minimum_of_sum``
minimizes such a sum on it without building it, and ``lower_envelope``
runs ``line_envelope`` on each of its intervals: the lower envelope of
lines over an interval, found crossing by crossing from its left end. A
menu's indirect utility (``model.Menu.value``) is ``line_envelope`` over
the negated integer act lines on [0, 1].

Breakpoints and coefficients are ``Fraction``s or ``int``s; a float
raises ``TypeError``. ``from_points`` and ``line_envelope`` divide in
``Fraction`` whatever mix of the two they are given, so no float arises.

A value is built from integers: ``_eval`` takes the numerators and
denominators of ``a``, ``b``, ``c`` and the point ``z``, computes ``(a z
+ b) z + c`` as one integer numerator over one positive integer
denominator, and ``values_at`` makes one ``Fraction`` of that pair. A sum's
coefficients are likewise one ``Fraction`` each of an integer ratio
(``_combine``). The continuity check compares the two sides of a
breakpoint by cross-multiplying their pairs, and makes no ``Fraction``;
``minimum_of_sum`` compares its candidates the same way and makes one
``Fraction``, of the least.

Points are evaluated by one sweep: ``values_at`` walks a sorted list of
points and the breakpoints together, and a single point ``f(z)`` is that
sweep over ``(z,)``, so no segment is ever searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

from . import numeric

_EXACT = (Fraction, int)
Coeffs = tuple[Fraction, Fraction, Fraction]
Line = tuple[Fraction, Fraction]  # (slope, value at 0)


@dataclass(frozen=True)
class PiecewiseScalarFunction:
    """Continuous piecewise function on exactly [0, 1]."""

    breakpoints: tuple[Fraction, ...]
    coefficients: tuple[Coeffs, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(
            self, "coefficients", tuple(tuple(c) for c in self.coefficients)
        )
        xs = self.breakpoints
        for v in (*xs, *(c for seg in self.coefficients for c in seg)):
            if type(v) not in _EXACT:
                raise TypeError(f"{v!r} is a {type(v).__name__}, not a Fraction or an int")
        if len(xs) < 2:
            raise ValueError("need at least two breakpoints")
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("domain must be exactly [0, 1]")
        ratios = [(x.numerator, x.denominator) for x in xs]
        for (an, ad), (bn, bd) in zip(ratios, ratios[1:]):
            if an * bd >= bn * ad:
                raise ValueError("breakpoints must be strictly increasing")
        coeffs = self.coefficients
        if len(coeffs) != len(xs) - 1:
            raise ValueError("need one coefficient triple per segment")
        for i in range(1, len(xs) - 1):
            zn, zd = ratios[i]
            ln, ld = _eval(coeffs[i - 1], zn, zd)
            rn, rd = _eval(coeffs[i], zn, zd)
            if ln * rd != rn * ld:
                raise ValueError(f"discontinuity at breakpoint {numeric.format_scalar(xs[i])}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, v: Fraction) -> "PiecewiseScalarFunction":
        return cls.affine(Fraction(0), v)

    @classmethod
    def affine(cls, slope: Fraction, intercept: Fraction) -> "PiecewiseScalarFunction":
        return cls.quadratic(Fraction(0), slope, intercept)

    @classmethod
    def quadratic(cls, a: Fraction, b: Fraction, c: Fraction) -> "PiecewiseScalarFunction":
        return cls(breakpoints=(Fraction(0), Fraction(1)), coefficients=((a, b, c),))

    @classmethod
    def from_points(
        cls, points: Iterable[tuple[Fraction, Fraction]]
    ) -> "PiecewiseScalarFunction":
        """Affine interpolation through (x, y) points spanning [0, 1].

        A repeated x raises ``ValueError``, naming it.
        """
        pts = sorted(points, key=lambda t: t[0])
        xs = tuple(x for x, _ in pts)
        zero = Fraction(0)
        coeffs = []
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if x1 == x2:
                raise ValueError(f"repeated breakpoint {numeric.format_scalar(x1)}")
            slope = Fraction(y2 - y1, x2 - x1)
            coeffs.append((zero, slope, y1 - slope * x1))
        return cls(breakpoints=xs, coefficients=tuple(coeffs))

    # -- evaluation -----------------------------------------------------

    def __call__(self, z: Fraction) -> Fraction:
        return self.values_at((z,))[0]

    def values_at(self, xs: Sequence[Fraction]) -> list[Fraction]:
        """The values at the nondecreasing points ``xs``, in one sweep; a
        ``ValueError`` at a point outside [0, 1]. At a breakpoint the
        segment to its right is used.
        """
        out: list[Fraction] = []
        if not xs:
            return out
        _ratio(xs[0])
        _ratio(xs[-1])
        bps = [(x.numerator, x.denominator) for x in self.breakpoints[1:-1]]
        coeffs = self.coefficients
        i = 0
        pn, pd = 0, 1
        for x in xs:
            xn, xd = x.numerator, x.denominator
            if xn * pd < pn * xd:
                raise ValueError("points must be nondecreasing")
            pn, pd = xn, xd
            # bps[i] is where segment i ends and segment i + 1 starts
            while i < len(bps) and bps[i][0] * xd <= xn * bps[i][1]:
                i += 1
            out.append(Fraction(*_eval(coeffs[i], xn, xd)))
        return out

    def breakpoint_values(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.breakpoints, self.values_at(self.breakpoints)))

    @property
    def is_affine(self) -> bool:
        return all(a == 0 for a, _, _ in self.coefficients)

    def slopes(self) -> tuple[Fraction, ...]:
        if not self.is_affine:
            raise ValueError("slopes are defined for affine segments only")
        return tuple(b for _, b, _ in self.coefficients)

    def minimum(self) -> Fraction:
        """The exact minimum over [0, 1]: ``minimum_of_sum`` of this
        function alone."""
        return minimum_of_sum(((1, self),))

    def derivative_at(self, seg_index: int, z: Fraction) -> Fraction:
        a, b, _ = self.coefficients[seg_index]
        return 2 * a * z + b

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "PiecewiseScalarFunction") -> "PiecewiseScalarFunction":
        return _weighted_sum(((1, self), (1, other)))

    def __neg__(self) -> "PiecewiseScalarFunction":
        return _weighted_sum(((-1, self),))

    def __sub__(self, other: "PiecewiseScalarFunction") -> "PiecewiseScalarFunction":
        return _weighted_sum(((1, self), (-1, other)))

    def __mul__(self, k: Fraction) -> "PiecewiseScalarFunction":
        return PiecewiseScalarFunction(
            breakpoints=self.breakpoints,
            coefficients=tuple(tuple(k * c for c in seg) for seg in self.coefficients),
        )

    __rmul__ = __mul__


def _eval(coeffs: Coeffs, zn: int, zd: int) -> tuple[int, int]:
    """``a z^2 + b z + c`` at ``z = zn / zd`` (``zd > 0``), as an integer
    numerator over a positive integer denominator, not reduced: the
    Horner form ``(a z + b) z + c`` over ``ad bd cd zd^2``, or over
    ``bd cd zd`` when ``a`` is 0."""
    a, b, c = coeffs
    bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator
    an = a.numerator
    if not an:
        return bn * zn * cd + cn * bd * zd, bd * cd * zd
    ad = a.denominator
    linear = an * zn * bd + bn * ad * zd  # (a z + b) ad bd zd
    return linear * zn * cd + cn * ad * bd * zd * zd, ad * bd * cd * zd * zd


def _combine(weights: Sequence[int], ratios: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of ``k n / d`` over the weights ``k`` and the integer
    ratios ``(n, d)``, ``d > 0``, as one such ratio."""
    num, den = 0, 1
    for k, (n, d) in zip(weights, ratios):
        num, den = num * d + k * n * den, den * d
    return num, den


def _merged(
    fns: Sequence[PiecewiseScalarFunction],
) -> Iterator[tuple[Fraction, Fraction, list[Coeffs]]]:
    """Each interval ``(x1, x2)`` of the merged breakpoint grid of ``fns``,
    from left to right, with every function's segment on it, in order.

    The grid is ``sorted_points`` of all the breakpoints, and each
    function's segment is tracked in step with it, so no segment is
    searched for. An empty ``fns`` raises ``ValueError``.
    """
    if not fns:
        raise ValueError("need at least one function")
    xs = sorted_points(x for f in fns for x in f.breakpoints)
    at = [0] * len(fns)
    for x1, x2 in zip(xs, xs[1:]):
        for k, f in enumerate(fns):
            if f.breakpoints[at[k] + 1] <= x1:
                at[k] += 1
        yield x1, x2, [f.coefficients[i] for f, i in zip(fns, at)]


def _weighted_sum(terms: Sequence[tuple[int, PiecewiseScalarFunction]]) -> PiecewiseScalarFunction:
    """``sum(k * f for k, f in terms)`` for integer weights ``k``, on the
    merged grid: each coefficient is one ``Fraction`` of ``_combine``'s
    integer ratio, so no operand is scaled or negated first."""
    weights = [k for k, _ in terms]
    xs: list[Fraction] = []
    coeffs = []
    for x1, x2, segs in _merged([f for _, f in terms]):
        xs.append(x1)
        coeffs.append(tuple(
            Fraction(*_combine(weights, [v.as_integer_ratio() for v in column]))
            for column in zip(*segs)
        ))
    return PiecewiseScalarFunction(breakpoints=(*xs, x2), coefficients=tuple(coeffs))


def minimum_of_sum(terms: Sequence[tuple[int, PiecewiseScalarFunction]]) -> Fraction:
    """The exact minimum over [0, 1] of ``sum(k * f for k, f in terms)``,
    for integer weights ``k``, in one walk of the merged breakpoint grid
    (``_merged``), without building the sum.

    The sum is one quadratic on each merged interval, so its minimum is
    attained at a merged breakpoint or, on an interval where the sum's
    leading coefficient is positive, at its stationary point ``-b / 2a``
    when that lies strictly inside. Every candidate value is an integer
    ratio from ``_eval``, compared with the least so far by
    cross-multiplication, and one ``Fraction`` is built at the end.
    """
    weights = [k for k, _ in terms]
    candidates = []  # (each term's segment, numerator, denominator) of a point
    for x1, x2, segs in _merged([f for _, f in terms]):
        xn, xd = x1.numerator, x1.denominator
        candidates.append((segs, xn, xd))
        if any(a for a, _, _ in segs):
            an, ad = _combine(weights, ((a.numerator, a.denominator) for a, _, _ in segs))
            if an > 0:
                bn, bd = _combine(weights, ((b.numerator, b.denominator) for _, b, _ in segs))
                sn, sd = -bn * ad, 2 * an * bd  # -b / 2a, over a positive denominator
                if xn * sd < sn * xd and sn * x2.denominator < x2.numerator * sd:
                    candidates.append((segs, sn, sd))
    candidates.append((segs, 1, 1))  # the right end, on every last segment
    best = None
    for segs, zn, zd in candidates:
        n, d = _combine(weights, (_eval(seg, zn, zd) for seg in segs))
        if best is None or n * best[1] < best[0] * d:
            best = n, d
    return Fraction(*best)


def _ratio(z: Fraction) -> tuple[int, int]:
    """``z`` as its numerator and positive denominator; a ``ValueError``
    outside [0, 1]."""
    zn, zd = z.numerator, z.denominator
    if zn < 0 or zn > zd:
        raise ValueError(f"argument {numeric.format_scalar(z)} outside [0, 1]")
    return zn, zd


def sorted_points(points: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """The distinct values of ``points`` in increasing order, the first
    given of equal ones, ordered as integers over one common denominator."""
    points = list(points)
    _, keys = numeric.scaled(points)
    out: list[Fraction] = []
    last = None
    for key, i in sorted(zip(keys, range(len(points)))):
        if key != last:
            out.append(points[i])
            last = key
    return tuple(out)


def line_envelope(
    lines: Collection[Line], x1: Fraction, x2: Fraction
) -> list[tuple[Fraction, Line]]:
    """The lower envelope of ``lines`` on [x1, x2], as (start, line) pieces
    from left to right; each line is (slope, value at 0).

    The walk starts at x1 on the lowest line there, the flattest among
    ties. Every flatter line is then strictly above it, so the next kink is
    the nearest crossing with a flatter line, if that lies before x2, and
    there the flattest line through the crossing takes over. Slopes
    strictly decrease along the walk, so it ends.
    """
    xn, xd = x1.numerator, x1.denominator  # each line's value at x1, times xd
    m, c = min(lines, key=lambda line: (line[0] * xn + line[1] * xd, line[0]))
    pieces = [(x1, (m, c))]
    while True:
        crossings = [(Fraction(c2 - c, m - m2), m2, c2) for m2, c2 in lines if m2 < m]
        if not crossings:
            return pieces
        t, m, c = min(crossings)
        if t >= x2:
            return pieces
        pieces.append((t, (m, c)))


def lower_envelope(fns: Sequence[PiecewiseScalarFunction]) -> PiecewiseScalarFunction:
    """Pointwise minimum of affine-segmented functions, exactly.

    On each interval of the merged breakpoint grid (``_merged``) every
    input is one line, its segment there, so the envelope there is the
    ``line_envelope`` of those lines. A piece on the same line as the one
    before it extends that one, so every breakpoint is a kink. An empty
    ``fns`` raises ``ValueError``.
    """
    if not all(f.is_affine for f in fns):
        raise ValueError("envelopes require affine segments")
    starts: list[Fraction] = []
    lines: list[Line] = []
    for x1, x2, segs in _merged(fns):
        for x, line in line_envelope([(b, c) for _, b, c in segs], x1, x2):
            if not lines or lines[-1] != line:
                starts.append(x)
                lines.append(line)
    zero = Fraction(0)
    return PiecewiseScalarFunction(
        breakpoints=(*starts, x2),
        coefficients=tuple((zero, m, c) for m, c in lines),
    )


def upper_envelope(fns: Sequence[PiecewiseScalarFunction]) -> PiecewiseScalarFunction:
    return -lower_envelope([-f for f in fns])
