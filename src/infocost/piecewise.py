"""Breakpoint-represented scalar functions on [0, 1].

Covers everything the pipelines pass around: cost derivatives, price
functions, indirect utilities, and their sums and envelopes. Segments are
quadratic ``a z^2 + b z + c`` with ``a = 0`` for the affine case; the only
quadratic producer is the posterior-variance cost.

Envelopes (pointwise min/max) are computed exactly over the refined
breakpoint grid, splitting segments at pairwise crossing points.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import numeric

Coeffs = tuple[Fraction, Fraction, Fraction]


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
        """Affine interpolation through (x, y) points spanning [0, 1]."""
        pts = sorted(points, key=lambda t: t[0])
        xs = tuple(x for x, _ in pts)
        zero = Fraction(0)
        coeffs = []
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            slope = (y2 - y1) / (x2 - x1)
            coeffs.append((zero, slope, y1 - slope * x1))
        return cls(breakpoints=xs, coefficients=tuple(coeffs))

    # -- evaluation -----------------------------------------------------

    def segment_index(self, z: Fraction) -> int:
        i = bisect_right(self.breakpoints, z) - 1
        return min(max(i, 0), len(self.coefficients) - 1)

    def __call__(self, z: Fraction) -> Fraction:
        if z < 0 or z > 1:
            raise ValueError(f"argument {numeric.format_scalar(z)} outside [0, 1]")
        return _eval(self.coefficients[self.segment_index(z)], z)

    def breakpoint_values(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((x, self(x)) for x in self.breakpoints)

    @property
    def is_affine(self) -> bool:
        return all(a == 0 for a, _, _ in self.coefficients)

    def slopes(self) -> tuple[Fraction, ...]:
        if not self.is_affine:
            raise ValueError("slopes are defined for affine segments only")
        return tuple(b for _, b, _ in self.coefficients)

    def derivative_at(self, seg_index: int, z: Fraction) -> Fraction:
        a, b, _ = self.coefficients[seg_index]
        return 2 * a * z + b

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "PiecewiseScalarFunction") -> "PiecewiseScalarFunction":
        xs = sorted_points((*self.breakpoints, *other.breakpoints))
        coeffs = []
        for x1, x2 in zip(xs, xs[1:]):
            mid = (x1 + x2) / 2
            ca = self.coefficients[self.segment_index(mid)]
            cb = other.coefficients[other.segment_index(mid)]
            coeffs.append(tuple(p + q for p, q in zip(ca, cb)))
        return PiecewiseScalarFunction(breakpoints=xs, coefficients=tuple(coeffs))

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

    def simplify(self) -> "PiecewiseScalarFunction":
        """Merge adjacent segments that share one polynomial."""
        xs = [self.breakpoints[0]]
        coeffs: list[Coeffs] = []
        for i, seg in enumerate(self.coefficients):
            if coeffs and all(
                p == q for p, q in zip(coeffs[-1], seg)
            ):
                xs[-1] = self.breakpoints[i + 1]
                continue
            coeffs.append(seg)
            xs.append(self.breakpoints[i + 1])
        return PiecewiseScalarFunction(breakpoints=tuple(xs), coefficients=tuple(coeffs))


def _eval(coeffs: Coeffs, z: Fraction) -> Fraction:
    a, b, c = coeffs
    return (a * z + b) * z + c


def sorted_points(points: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """The distinct values of ``points`` in increasing order."""
    out: list[Fraction] = []
    for p in sorted(points):
        if not out or out[-1] != p:
            out.append(p)
    return tuple(out)


def _line_at(fn: PiecewiseScalarFunction, x1: Fraction, x2: Fraction) -> tuple[Fraction, Fraction]:
    """Slope and value-at-x1 of ``fn`` on [x1, x2], which must be kink-free."""
    mid = (x1 + x2) / 2
    seg = fn.coefficients[fn.segment_index(mid)]
    a, b, c = seg
    if a != 0:
        raise ValueError("envelopes require affine segments")
    return b, _eval(seg, x1)


def lower_envelope(fns: Sequence[PiecewiseScalarFunction]) -> PiecewiseScalarFunction:
    """Pointwise minimum of affine-segmented functions, exactly.

    On each interval of the merged breakpoint grid all inputs are affine,
    so the envelope there is a lower envelope of lines, found by walking
    crossings from left to right.
    """
    if not fns:
        raise ValueError("need at least one function")
    xs = sorted_points(x for f in fns for x in f.breakpoints)
    points: list[tuple[Fraction, Fraction]] = []
    for x1, x2 in zip(xs, xs[1:]):
        lines = [_line_at(f, x1, x2) for f in fns]
        width = x2 - x1
        # Walk the winner from x1 to x2; t measures offset from x1 and
        # each line is (slope m, value v at x1), so line(t) = v + m t.
        t = Fraction(0)
        cur = min(lines, key=lambda mv: (mv[1], mv[0]))
        if not points:
            points.append((x1, cur[1]))
        while True:
            best_t = None
            for m, v in lines:
                if m >= cur[0]:
                    continue
                tc = (v - cur[1]) / (cur[0] - m)
                if tc <= t or tc > width:
                    continue
                if best_t is None or tc < best_t:
                    best_t = tc
            if best_t is None:
                points.append((x2, cur[1] + cur[0] * width))
                break
            points.append((x1 + best_t, cur[1] + cur[0] * best_t))
            t = best_t
            # The new winner is the flattest line attaining the envelope
            # value at the crossing; its slope strictly decreases, so the
            # walk terminates.
            cur = min(lines, key=lambda mv: (mv[1] + mv[0] * t, mv[0]))
    dedup: list[tuple[Fraction, Fraction]] = []
    for x, y in points:
        if dedup and dedup[-1][0] == x:
            continue
        dedup.append((x, y))
    return PiecewiseScalarFunction.from_points(dedup).simplify()


def upper_envelope(fns: Sequence[PiecewiseScalarFunction]) -> PiecewiseScalarFunction:
    return -lower_envelope([-f for f in fns])
