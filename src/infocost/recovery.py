"""Cost derivative and price functions from feasible multipliers.

A feasible multiplier vector turns into one convex piecewise-linear
envelope per observation; the cost derivative is the pointwise minimum of
(envelope - act payoff) over every observation and act. The price
function of an observation is its envelope. The auditor re-derives every
optimality condition from the raw dataset, never trusting construction
state, so it doubles as an independent oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import numeric
from .model import Dataset, Prior, utility
from .numeric import Scalar
from .piecewise import PiecewiseScalarFunction, lower_envelope, upper_envelope
from .revealed import (
    DiscreteCDF,
    positive_gap_intervals,
    prior_cdf,
    revealed_summary,
)

ColKey = tuple[int, Scalar]


def act_payoff_function(u0: Scalar, u1: Scalar) -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction.affine(u1 - u0, u0)


def menu_value_function(menu) -> PiecewiseScalarFunction:
    """Indirect utility of a menu as an explicit piecewise function."""
    return upper_envelope(
        [act_payoff_function(a.u0, a.u1) for a in menu.acts]
    )


def lambda_to_envelope(
    multipliers: Mapping[ColKey, Scalar], obs_index: int
) -> PiecewiseScalarFunction:
    """Convex envelope of one observation's multipliers.

    The entry at 0 is a pure intercept; every other entry at a binding
    point ``z*`` contributes a hinge ``(z* - z)`` active left of ``z*``.
    Nonnegative interior entries make the slopes nondecreasing.
    """
    entries = {
        z: v for (oi, z), v in multipliers.items() if oi == obs_index
    }
    if not entries:
        return PiecewiseScalarFunction.constant(numeric.scalar(0))
    intercept = numeric.scalar(0)
    hinges: list[tuple[Scalar, Scalar]] = []
    for z, v in entries.items():
        if z == 0:
            intercept = v
        else:
            hinges.append((z, v))
    xs = sorted({numeric.scalar(0), numeric.scalar(1), *(z for z, _ in hinges)})
    points = []
    for x in xs:
        val = intercept
        for z, v in hinges:
            if z >= x:
                val += v * (z - x)
        points.append((x, val))
    return PiecewiseScalarFunction.from_points(points)


def price_function(
    multipliers: Mapping[ColKey, Scalar], obs_index: int
) -> PiecewiseScalarFunction:
    """The observation's price function is exactly its envelope."""
    return lambda_to_envelope(multipliers, obs_index)


def recover_cost(
    dataset: Dataset, multipliers: Mapping[ColKey, Scalar]
) -> PiecewiseScalarFunction:
    """Pointwise minimum of (envelope - payoff) over observations and acts.

    The result is piecewise linear on the union of all envelope
    breakpoints and pairwise crossing points; it need not be concave.
    """
    candidates = []
    for oi, obs in enumerate(dataset.observations):
        env = lambda_to_envelope(multipliers, oi)
        for act in obs.menu.acts:
            candidates.append(env - act_payoff_function(act.u0, act.u1))
    return lower_envelope(candidates)


def variance_cost(kappa: Scalar, z0: Scalar) -> PiecewiseScalarFunction:
    """Cost derivative whose total cost is kappa times the variance of means."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0 < z0 < 1:
        raise ValueError("prior mean must lie strictly inside (0, 1)")
    return PiecewiseScalarFunction.quadratic(-kappa, 2 * kappa * z0, -kappa * z0 * z0)


def information_cost(
    cost: PiecewiseScalarFunction, z0: Scalar, f: DiscreteCDF
) -> Scalar:
    """Separable cost of a distribution of posterior means: c(z0) - int c dF."""
    return cost(z0) - sum(p * cost(z) for z, p in f.atoms)


@dataclass(frozen=True)
class ObservationAudit:
    price_convex: bool
    price_majorizes: bool
    contact_at_revealed: bool
    affine_off_binding: bool
    integral_match: bool
    convexity_slack: Scalar
    majorization_slack: Scalar
    contact_slack: Scalar
    affine_slack: Scalar
    integral_slack: Scalar

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
    zero = numeric.scalar(0)

    slopes = price.slopes()
    convexity_slack = min(
        (b - a for a, b in zip(slopes, slopes[1:])),
        default=zero,
    )
    price_convex = convexity_slack >= 0

    target = menu_value_function(obs.menu) + cost
    grid = sorted({*price.breakpoints, *target.breakpoints})
    majorization_slack = min(price(x) - target(x) for x in grid)
    price_majorizes = majorization_slack >= 0

    summary = revealed_summary(obs)
    contact_slack = zero
    for ai, act in enumerate(obs.menu.acts):
        if summary.act_probabilities[ai] <= 0:
            continue
        mean = summary.act_means[ai]
        dev = price(mean) - utility(act, mean) - cost(mean)
        contact_slack = max(contact_slack, abs(dev))
    contact_at_revealed = contact_slack == 0

    affine_slack = zero
    f0 = prior_cdf(prior)
    for lo, hi in positive_gap_intervals(f0, summary.cdf):
        seen: list[Scalar] = []
        for i, (x1, x2) in enumerate(
            zip(price.breakpoints, price.breakpoints[1:])
        ):
            if max(x1, lo) < min(x2, hi):
                seen.append(price.slopes()[i])
        if seen:
            affine_slack = max(affine_slack, max(seen) - min(seen))
    affine_off_binding = affine_slack == 0

    lhs = sum(p * price(z) for z, p in summary.cdf.atoms)
    rhs = sum(
        w * price(z)
        for z, w in zip(prior.state_space.states, prior.weights)
        if w > 0
    )
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
