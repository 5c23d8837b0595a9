"""Price basis, cost derivative and price functions from multipliers.

A price function is a convex function of the posterior mean, written in
one basis: an intercept at 0 plus a hinge ``max(z - x, 0)`` at every other
binding point ``z``. ``hinge`` and ``price_terms`` are the only
definition of that basis; the cycle rows, the concavity generator rows
and the forward grid program are all built from them. A feasible
multiplier vector gives one price function per observation; the cost
derivative is the pointwise minimum of (price - act payoff) over every
observation and act. The auditor re-derives every optimality condition
from the raw dataset, never trusting construction state, so it doubles
as an independent oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .model import Dataset, Prior, utility
from .piecewise import PiecewiseScalarFunction, lower_envelope, upper_envelope
from .revealed import (
    DiscreteCDF,
    positive_gap_intervals,
    prior_cdf,
    revealed_summary,
)

ColKey = tuple[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def act_payoff_function(u0: Fraction, u1: Fraction) -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction.affine(u1 - u0, u0)


def menu_value_function(menu) -> PiecewiseScalarFunction:
    """Indirect utility of a menu as an explicit piecewise function."""
    return upper_envelope(
        [act_payoff_function(a.u0, a.u1) for a in menu.acts]
    )


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
    columns: Sequence[ColKey], obs_index: int, x: Fraction
) -> dict[int, Fraction]:
    """Sparse coefficients of one observation's price at ``x``.

    Column ``j`` of ``columns`` is a (observation, binding point) key; the
    price at ``x`` is the sum of ``coefficient * multiplier`` over the
    returned entries, which are the nonzero basis values of that
    observation's columns.
    """
    terms = {}
    for j, (oi, z) in enumerate(columns):
        if oi == obs_index:
            h = hinge(z, x)
            if h:
                terms[j] = h
    return terms


def price_function(
    multipliers: Mapping[ColKey, Fraction], obs_index: int
) -> PiecewiseScalarFunction:
    """Convex price function of one observation's multipliers.

    The price is the multiplier at 0 as intercept plus one hinge per other
    binding point, weighted by its multiplier (see ``hinge``), so
    nonnegative interior multipliers make the slopes nondecreasing.
    """
    own = {key: v for key, v in multipliers.items() if key[0] == obs_index}
    if not own:
        return PiecewiseScalarFunction.constant(_ZERO)
    columns = tuple(own)
    values = tuple(own.values())
    xs = sorted({_ZERO, _ONE, *(z for _, z in columns)})
    points = []
    for x in xs:
        terms = price_terms(columns, obs_index, x)
        points.append((x, sum((c * values[j] for j, c in terms.items()), _ZERO)))
    return PiecewiseScalarFunction.from_points(points)


def recover_cost(
    dataset: Dataset, multipliers: Mapping[ColKey, Fraction]
) -> PiecewiseScalarFunction:
    """Pointwise minimum of (price - payoff) over observations and acts.

    The result is piecewise linear on the union of all price
    breakpoints and pairwise crossing points; it need not be concave.
    """
    return _cost_from_prices(
        dataset,
        [price_function(multipliers, oi) for oi in range(len(dataset.observations))],
    )


def _cost_from_prices(
    dataset: Dataset, prices: Sequence[PiecewiseScalarFunction]
) -> PiecewiseScalarFunction:
    """``recover_cost`` from the price functions already built, one per observation."""
    return lower_envelope(
        [
            price - act_payoff_function(act.u0, act.u1)
            for obs, price in zip(dataset.observations, prices)
            for act in obs.menu.acts
        ]
    )


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
    return cost(z0) - sum(p * cost(z) for z, p in f.atoms)


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
    obs, prior: Prior, cost: PiecewiseScalarFunction, price: PiecewiseScalarFunction
) -> ObservationAudit:
    slopes = price.slopes()
    convexity_slack = min(
        (b - a for a, b in zip(slopes, slopes[1:])),
        default=_ZERO,
    )
    price_convex = convexity_slack >= 0

    target = menu_value_function(obs.menu) + cost
    grid = sorted({*price.breakpoints, *target.breakpoints})
    majorization_slack = min(price(x) - target(x) for x in grid)
    price_majorizes = majorization_slack >= 0

    summary = revealed_summary(obs)
    contact_slack = _ZERO
    for ai, act in enumerate(obs.menu.acts):
        if summary.act_probabilities[ai] <= 0:
            continue
        mean = summary.act_means[ai]
        dev = price(mean) - utility(act, mean) - cost(mean)
        contact_slack = max(contact_slack, abs(dev))
    contact_at_revealed = contact_slack == 0

    affine_slack = _ZERO
    f0 = prior_cdf(prior)
    for lo, hi in positive_gap_intervals(f0, summary.cdf):
        seen: list[Fraction] = []
        for i, (x1, x2) in enumerate(
            zip(price.breakpoints, price.breakpoints[1:])
        ):
            if max(x1, lo) < min(x2, hi):
                seen.append(slopes[i])
        if seen:
            affine_slack = max(affine_slack, max(seen) - min(seen))
    affine_off_binding = affine_slack == 0

    lhs = sum(p * price(z) for z, p in summary.cdf.atoms)
    rhs = sum(w * price(z) for z, w in f0.atoms)
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


def verify_rationalization(
    dataset: Dataset,
    cost: PiecewiseScalarFunction,
    prices: Sequence[PiecewiseScalarFunction],
) -> RationalizationReport:
    """Audit the optimality conditions per observation from raw data.

    Checks, for each observation: the price function is convex, majorizes
    indirect utility plus cost, touches it at every revealed mean of a
    chosen act, is affine wherever the contraction constraint is slack,
    and integrates identically against the revealed distribution and the
    prior. All five together certify the construction.
    """
    if len(prices) != len(dataset.observations):
        raise ValueError("one price function per observation required")
    audits = tuple(
        _audit_observation(obs, obs.prior, cost, prices[oi])
        for oi, obs in enumerate(dataset.observations)
    )
    return RationalizationReport(audits=audits)
