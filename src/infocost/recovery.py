"""Price basis, cost derivative and price functions from multipliers.

A price function is a convex function of the posterior mean, written in
one basis: an intercept at 0 plus a hinge ``max(z - x, 0)`` at every other
binding point ``z``. ``hinge`` is the pointwise definition of that
basis and ``price_terms`` its one sparse form, which the tests check
against it: it reads one observation's own slice of a system's columns,
(column index, binding point) pairs, and scales the basis values by a
weight in integers. The cycle rows, the concavity generator rows and
``price_function`` are built from ``price_terms``, and the forward grid
program writes the same hinge values straight from its sorted grid
(``forward._grid_lp``). A feasible
multiplier vector gives one price function per observation; the cost
derivative is the pointwise minimum over observations of (price - menu
value), built by ``lower_envelope`` from each menu's own value
(``Menu.value``). The auditor re-derives every optimality condition from
the raw dataset, the menus' values and the priors' distributions, never
trusting the multipliers or other construction state, so it doubles as
an independent oracle in tests.

The audit works by sweeps and builds no function. The majorization gap
``price - (value + cost)`` is minimized by one merge over the three
functions' breakpoints (``piecewise.minimum_of_sum``), the stationary
point of a convex quadratic piece included. The price and the cost are
read at the chosen acts' revealed means, sorted, and the price at each
distribution's atoms by ``values_at`` sweeps, and the price's segments
are merged once with the positive-gap intervals for the affine check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .model import Dataset, DiscreteCDF, utility
from .piecewise import PiecewiseScalarFunction, lower_envelope, minimum_of_sum
from .revealed import positive_gap_intervals

ColKey = tuple[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def hinge(z: Fraction, x: Fraction) -> Fraction:
    """The price basis function of binding point ``z``, evaluated at ``x``.

    The point 0 carries the intercept, the constant 1; every other binding
    point carries the hinge ``max(z - x, 0)``.
    """
    if z == 0:
        return _ONE
    if x < z:
        return z - x
    return _ZERO


def price_terms(
    columns: Sequence[tuple[int, Fraction]], x: Fraction, weight: Fraction = _ONE
) -> tuple[tuple[int, Fraction], ...]:
    """Sparse coefficients of ``weight`` times one observation's price at ``x``.

    ``columns`` is that observation's own slice of a system's columns:
    (column index, binding point) pairs, in column order. The price at
    ``x`` is the sum of ``coefficient * multiplier`` over the returned
    (column, coefficient) pairs, which are ``weight`` times the nonzero
    basis values (``hinge``) in the slice's order. Each hinge value is
    compared and scaled in integers and built as one exact fraction.
    """
    xn, xd = x.numerator, x.denominator
    wn, wd = weight.numerator, weight.denominator
    terms = []
    for j, z in columns:
        zn, zd = z.numerator, z.denominator
        if zn == 0:
            terms.append((j, weight))
        elif zn * xd > xn * zd:
            terms.append((j, Fraction(wn * (zn * xd - xn * zd), wd * zd * xd)))
    return tuple(terms)


def price_function(
    multipliers: Mapping[ColKey, Fraction], obs_index: int
) -> PiecewiseScalarFunction:
    """Convex price function of one observation's multipliers.

    The price is the multiplier at 0 as intercept plus one hinge per other
    binding point, weighted by its multiplier (see ``hinge``), so
    nonnegative interior multipliers make the slopes nondecreasing.
    """
    own = [(z, v) for (oi, z), v in multipliers.items() if oi == obs_index]
    if not own:
        return PiecewiseScalarFunction.constant(_ZERO)
    columns = tuple(enumerate(z for z, _ in own))
    xs = sorted({_ZERO, _ONE, *(z for z, _ in own)})
    points = []
    for x in xs:
        terms = price_terms(columns, x)
        points.append((x, sum((c * own[j][1] for j, c in terms), _ZERO)))
    return PiecewiseScalarFunction.from_points(points)


def recover_cost(
    dataset: Dataset, multipliers: Mapping[ColKey, Fraction]
) -> PiecewiseScalarFunction:
    """The minimum over observations of price minus menu value, so of
    (price - payoff) over observations and acts. It is piecewise linear
    and need not be concave.
    """
    return cost_from_prices(
        dataset,
        [price_function(multipliers, oi) for oi in range(len(dataset.observations))],
    )


def cost_from_prices(
    dataset: Dataset, prices: Sequence[PiecewiseScalarFunction]
) -> PiecewiseScalarFunction:
    """``recover_cost`` from the price functions already built, one per observation."""
    return lower_envelope([
        price - obs.menu.value
        for obs, price in zip(dataset.observations, prices)
    ])


def variance_cost(kappa: Fraction, z0: Fraction) -> PiecewiseScalarFunction:
    """Cost derivative whose total cost is kappa times the variance of means."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0 < z0 < 1:
        raise ValueError("prior mean must lie strictly inside (0, 1)")
    return PiecewiseScalarFunction.quadratic(-kappa, 2 * kappa * z0, -kappa * z0 * z0)


def information_cost(
    cost: PiecewiseScalarFunction, z0: Fraction, f: DiscreteCDF
) -> Fraction:
    """Separable cost of a distribution of posterior means: c(z0) - int c dF."""
    return cost(z0) - _integral(cost, f)


@dataclass(frozen=True)
class ObservationAudit:
    price_convex: bool
    price_majorizes: bool
    contact_at_revealed: bool
    affine_off_binding: bool
    integral_match: bool
    convexity_slack: Fraction
    majorization_slack: Fraction
    contact_slack: Fraction
    affine_slack: Fraction
    integral_slack: Fraction

    @property
    def ok(self) -> bool:
        return (
            self.price_convex
            and self.price_majorizes
            and self.contact_at_revealed
            and self.affine_off_binding
            and self.integral_match
        )


@dataclass(frozen=True)
class RationalizationReport:
    audits: tuple[ObservationAudit, ...]

    @property
    def all_ok(self) -> bool:
        return all(a.ok for a in self.audits)


def _audit_observation(
    obs, cost: PiecewiseScalarFunction, price: PiecewiseScalarFunction
) -> ObservationAudit:
    slopes = price.slopes()
    convexity_slack = min(
        (b - a for a, b in zip(slopes, slopes[1:])),
        default=_ZERO,
    )
    price_convex = convexity_slack >= 0

    majorization_slack = minimum_of_sum(((1, price), (-1, obs.menu.value), (-1, cost)))
    price_majorizes = majorization_slack >= 0

    summary = obs.summary
    chosen = sorted(
        (ai for ai, p in enumerate(summary.act_probabilities) if p > 0),
        key=summary.act_means.__getitem__,
    )
    means = [summary.act_means[ai] for ai in chosen]
    deviations = [
        p - utility(obs.menu.acts[ai], z) - c
        for ai, z, p, c in zip(chosen, means, price.values_at(means), cost.values_at(means))
    ]
    contact_slack = max(map(abs, deviations), default=_ZERO)
    contact_at_revealed = contact_slack == 0

    affine_slack = _ZERO
    f0 = obs.prior.distribution
    bps = price.breakpoints
    i = 0
    for lo, hi in positive_gap_intervals(f0, summary.cdf):
        # the segments meeting (lo, hi) run from the one holding lo to the
        # last one starting before hi; the intervals come sorted, so i
        # never moves back
        while bps[i + 1] <= lo:
            i += 1
        j = i + 1
        while bps[j] < hi:
            j += 1
        seen = slopes[i:j]
        affine_slack = max(affine_slack, max(seen) - min(seen))
    affine_off_binding = affine_slack == 0

    lhs = _integral(price, summary.cdf)
    rhs = _integral(price, f0)
    integral_slack = abs(lhs - rhs)
    integral_match = integral_slack == 0

    return ObservationAudit(
        price_convex=price_convex,
        price_majorizes=price_majorizes,
        contact_at_revealed=contact_at_revealed,
        affine_off_binding=affine_off_binding,
        integral_match=integral_match,
        convexity_slack=convexity_slack,
        majorization_slack=majorization_slack,
        contact_slack=contact_slack,
        affine_slack=affine_slack,
        integral_slack=integral_slack,
    )


def _integral(fn: PiecewiseScalarFunction, f: DiscreteCDF) -> Fraction:
    """The integral of ``fn`` against ``f``, its atoms in one sweep."""
    values = fn.values_at(f.support)
    return sum((p * v for (_, p), v in zip(f.atoms, values)), _ZERO)


def verify_rationalization(
    dataset: Dataset,
    cost: PiecewiseScalarFunction,
    prices: Sequence[PiecewiseScalarFunction],
) -> RationalizationReport:
    """Audit the optimality conditions per observation from raw data.

    Checks, for each observation: the price function is convex, majorizes
    indirect utility plus cost on all of [0, 1] (the gap's exact minimum,
    inside a quadratic segment too), touches it at every revealed mean of a
    chosen act, is affine wherever the contraction constraint is slack,
    and integrates identically against the revealed distribution and the
    prior. All five together certify the construction.
    """
    if len(prices) != len(dataset.observations):
        raise ValueError("one price function per observation required")
    audits = tuple(
        _audit_observation(obs, cost, prices[oi])
        for oi, obs in enumerate(dataset.observations)
    )
    return RationalizationReport(audits=audits)
