"""Breakpoint-represented scalar functions on [0, 1].

Covers everything the pipelines pass around: cost derivatives, price
functions, indirect utilities, and their sums and envelopes. Segments are
quadratic ``a z^2 + b z + c`` with ``a = 0`` for the affine case; the only
quadratic producer is the posterior-variance cost.

Every envelope is built by one walk, ``line_envelope``: the lower
envelope of lines over an interval, found crossing by crossing from its
left end. ``lower_envelope`` runs it on each interval of the merged
breakpoint grid of affine-segmented functions, and a menu's indirect
utility (``model.Menu.value``) is the walk over the negated integer act
lines on [0, 1].

Breakpoints and coefficients are ``Fraction``s or ``int``s; a float
raises ``TypeError``. ``from_points`` and ``line_envelope`` divide in
``Fraction`` whatever mix of the two they are given, so no float arises.

Functions are evaluated at many points by one sweep: ``values_at`` walks
a sorted list of points and the breakpoints together, and ``__add__``
and ``lower_envelope`` walk every operand's breakpoints in step, so none
of them searches for a segment per point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

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
        for a, b in zip(xs, xs[1:]):
            if a >= b:
                raise ValueError("breakpoints must be strictly increasing")
        if len(self.coefficients) != len(xs) - 1:
            raise ValueError("need one coefficient triple per segment")
        for i in range(1, len(xs) - 1):
            left = _eval(self.coefficients[i - 1], xs[i])
            right = _eval(self.coefficients[i], xs[i])
            if left != right:
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

    def segment_index(self, z: Fraction) -> int:
        i = bisect_right(self.breakpoints, z) - 1
        return min(max(i, 0), len(self.coefficients) - 1)

    def __call__(self, z: Fraction) -> Fraction:
        _check_domain(z)
        return _eval(self.coefficients[self.segment_index(z)], z)

    def values_at(self, xs: Sequence[Fraction]) -> list[Fraction]:
        """The values at the nondecreasing points ``xs``, in one sweep.

        Equal to ``[self(x) for x in xs]``, raising the same way on a
        point outside [0, 1]; at a breakpoint the segment to its right is
        used, as in ``segment_index``.
        """
        out: list[Fraction] = []
        if not xs:
            return out
        _check_domain(xs[0])
        _check_domain(xs[-1])
        bps, coeffs = self.breakpoints, self.coefficients
        last = len(coeffs) - 1
        i = 0
        prev = xs[0]
        for x in xs:
            if x < prev:
                raise ValueError("points must be nondecreasing")
            prev = x
            while i < last and bps[i + 1] <= x:
                i += 1
            out.append(_eval(coeffs[i], x))
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
        """The exact minimum over [0, 1].

        It is attained at a breakpoint or, on a segment with ``a > 0``, at
        the stationary point ``-b / 2a`` when that lies inside the segment.
        """
        bps = self.breakpoints
        values = [_eval(self.coefficients[-1], bps[-1])]
        for x1, x2, seg in zip(bps, bps[1:], self.coefficients):
            values.append(_eval(seg, x1))
            a, b, _ = seg
            if a > 0:
                x = -b / (2 * a)
                if x1 < x < x2:
                    values.append(_eval(seg, x))
        return min(values)

    def derivative_at(self, seg_index: int, z: Fraction) -> Fraction:
        a, b, _ = self.coefficients[seg_index]
        return 2 * a * z + b

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "PiecewiseScalarFunction") -> "PiecewiseScalarFunction":
        """Sum on the merged breakpoints: both breakpoint lists are walked in
        step, and each merged interval adds the two segments covering it."""
        xa, ca = self.breakpoints, self.coefficients
        xb, cb = other.breakpoints, other.coefficients
        xs = [xa[0]]
        coeffs = []
        i = j = 0
        # Both lists end at 1, so both indices run off their ends together.
        while i < len(ca):
            (a1, b1, c1), (a2, b2, c2) = ca[i], cb[j]
            coeffs.append((a1 + a2, b1 + b2, c1 + c2))
            na, nb = xa[i + 1], xb[j + 1]
            xs.append(min(na, nb))
            if na <= nb:
                i += 1
            if nb <= na:
                j += 1
        return PiecewiseScalarFunction(breakpoints=tuple(xs), coefficients=tuple(coeffs))

    def __neg__(self) -> "PiecewiseScalarFunction":
        return self * Fraction(-1)

    def __sub__(self, other: "PiecewiseScalarFunction") -> "PiecewiseScalarFunction":
        return self + (-other)

    def __mul__(self, k: Fraction) -> "PiecewiseScalarFunction":
        return PiecewiseScalarFunction(
            breakpoints=self.breakpoints,
            coefficients=tuple(tuple(k * c for c in seg) for seg in self.coefficients),
        )

    __rmul__ = __mul__


def _eval(coeffs: Coeffs, z: Fraction) -> Fraction:
    a, b, c = coeffs
    return (a * z + b) * z + c


def _check_domain(z: Fraction) -> None:
    if z < 0 or z > 1:
        raise ValueError(f"argument {numeric.format_scalar(z)} outside [0, 1]")


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
    if x1:
        m, c = min(lines, key=lambda line: (line[0] * x1 + line[1], line[0]))
    else:  # the usual start, 0, without multiplying by it
        m, c = min(lines, key=lambda line: (line[1], line[0]))
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

    On each interval of the merged breakpoint grid every input is one
    line, its segment there (each input's segment is tracked in step with
    the grid, as in ``__add__``), so the envelope there is the
    ``line_envelope`` of those lines. A piece on the same line as the one
    before it extends that one, so every breakpoint is a kink.
    """
    if not fns:
        raise ValueError("need at least one function")
    if not all(f.is_affine for f in fns):
        raise ValueError("envelopes require affine segments")
    xs = sorted_points(x for f in fns for x in f.breakpoints)
    at = [0] * len(fns)
    starts: list[Fraction] = []
    lines: list[Line] = []
    for x1, x2 in zip(xs, xs[1:]):
        here = []
        for k, f in enumerate(fns):
            if f.breakpoints[at[k] + 1] <= x1:
                at[k] += 1
            _, b, c = f.coefficients[at[k]]
            here.append((b, c))
        for x, line in line_envelope(here, x1, x2):
            if not lines or lines[-1] != line:
                starts.append(x)
                lines.append(line)
    zero = Fraction(0)
    return PiecewiseScalarFunction(
        breakpoints=(*starts, xs[-1]),
        coefficients=tuple((zero, m, c) for m, c in lines),
    )


def upper_envelope(fns: Sequence[PiecewiseScalarFunction]) -> PiecewiseScalarFunction:
    return -lower_envelope([-f for f in fns])
