"""Envelope construction, cost recovery, and the independent auditor."""

import json
import random
from dataclasses import fields
from fractions import Fraction as F

import pytest

from infocost import (
    Act,
    Dataset,
    DiscreteCDF,
    Menu,
    Observation,
    PiecewiseScalarFunction,
    Prior,
    SDSC,
    StateSpace,
    check_nipmc,
    generate_dataset,
    information_cost,
    io,
    lower_envelope,
    price_function,
    recover_cost,
    revealed_summary,
    utility,
    variance_cost,
    verify_rationalization,
)
from infocost.axioms import build_farkas_system
from infocost.recovery import ObservationAudit, _audit_observation, hinge, price_terms
from infocost.revealed import positive_gap_intervals
from test_axioms import GOLDEN, SWAP_PARAMS, random_generated_dataset, reference_cases
from test_acceptance import _swap_fixture
from test_piecewise import assert_pointwise_envelope, random_affine_pwl


def act_payoff_function(u0: F, u1: F) -> PiecewiseScalarFunction:
    """An act's payoff as a function of the posterior mean: the reference
    line for the envelopes below."""
    return PiecewiseScalarFunction.affine(u1 - u0, u0)


def generic_upper_envelope(menu: Menu) -> PiecewiseScalarFunction:
    """The menu's indirect utility by the generic envelope walk, as
    ``upper_envelope`` builds it: the reference for the envelope of lines."""
    return -lower_envelope([-act_payoff_function(a.u0, a.u1) for a in menu.acts])


def line_menu(*payoffs: tuple[F, F]) -> Menu:
    return Menu(id="m", acts=tuple(Act(f"a{j}", u0, u1) for j, (u0, u1) in enumerate(payoffs)))


def line_menus() -> list[Menu]:
    """Menus of one to six act lines: edge cases, then 200 seeded draws."""
    menus = [
        line_menu((F(1, 3), F(2, 3))),  # a single act
        line_menu((F(1), F(0)), (F(1), F(0)), (F(0), F(1))),  # duplicate acts
        line_menu((F(0), F(1)), (F(1, 2), F(3, 2)), (F(1), F(0))),  # parallel lines
        line_menu((F(0), F(1)), (F(0), F(-1))),  # crossing at 0
        line_menu((F(1), F(0)), (F(0), F(0))),  # crossing at 1
        line_menu((F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1))),  # three through one point
        line_menu((F(1), F(0)), (F(1, 4), F(1, 4)), (F(0), F(1)), (F(1, 2), F(1, 2))),
        line_menu((F(0), F(0)), (F(0), F(0)), (F(0), F(0))),  # all tied
    ]
    rng = random.Random(23)
    for _ in range(200):
        menus.append(line_menu(*(
            (F(rng.randint(-4, 4), 4), F(rng.randint(-4, 4), 4))
            for _ in range(rng.randint(1, 6))
        )))
    return menus


class TestMenuValueFunction:
    def test_envelope_of_lines_matches_the_generic_walk(self):
        for menu in line_menus():
            assert menu.value == generic_upper_envelope(menu), menu

    def test_envelopes_of_lines_match_the_brute_force_oracle(self):
        for menu in line_menus():
            lines = [act_payoff_function(a.u0, a.u1) for a in menu.acts]
            assert_pointwise_envelope(menu.value, lines, max)
            assert_pointwise_envelope(lower_envelope(lines), lines, min)


class TestEnvelope:
    def test_zero_multipliers_flat(self):
        env = price_function({(0, F(0)): F(0), (0, F(1)): F(0)}, 0)
        assert env(F(0)) == 0 and env(F(1)) == 0

    def test_intercept_plus_terminal_hinge(self):
        env = price_function({(0, F(0)): F(1), (0, F(1)): F(2)}, 0)
        # 1 + 2(1 - z): affine with slope -2
        assert env(F(0)) == F(3)
        assert env(F(1)) == F(1)
        assert env.slopes() == (F(-2),)

    def test_interior_hinges_make_it_convex(self):
        rng = random.Random(19)
        for _ in range(25):
            cols = {(0, F(0)): F(rng.randint(-3, 3))}
            for _ in range(rng.randint(0, 4)):
                cols[(0, F(rng.randint(1, 11), 12))] = F(rng.randint(0, 5), 2)
            cols[(0, F(1))] = F(rng.randint(-4, 4))
            env = price_function(cols, 0)
            slopes = env.slopes()
            assert all(a <= b for a, b in zip(slopes, slopes[1:]))

    def test_other_observations_ignored(self):
        env = price_function(
            {(0, F(0)): F(1), (1, F(0)): F(99), (1, F(1, 2)): F(7)}, 0
        )
        assert env(F(1, 2)) == F(1)

    def test_price_function_is_the_envelope(self):
        cols = {(0, F(0)): F(1), (0, F(1, 2)): F(3), (0, F(1)): F(0)}
        # 1 + 3 max(1/2 - z, 0) + 0 (1 - z)
        b = price_function(cols, 0)
        assert [b(z) for z in (F(0), F(1, 4), F(1, 2), F(1))] == [
            F(5, 2), F(7, 4), F(1), F(1)
        ]


class TestPriceTerms:
    def test_weighted_hinges_pointwise(self):
        """On seeded slices (a column offset, binding points with 0 and 1
        among them) and at every binding point, between them and off them,
        ``price_terms`` is ``weight`` times each nonzero ``hinge`` value, in
        the slice's order; the default weight is 1."""
        rng = random.Random(71)
        for _ in range(150):
            interior = {F(rng.randint(1, 23), rng.choice((24, 7, 1_000_003))) for _ in range(4)}
            points = sorted({F(0), F(1), *interior})
            columns = tuple(enumerate(points, rng.randint(0, 40)))
            weight = rng.choice((F(1), F(-1), F(rng.randint(1, 99), rng.randint(1, 99)),
                                 -F(rng.randint(1, 99), rng.randint(1, 99))))
            xs = {*points, *(F(rng.randint(0, 60), 60) for _ in range(4))}
            xs |= {(a + b) / 2 for a, b in zip(points, points[1:])}
            for x in xs:
                want = tuple((j, weight * hinge(z, x)) for j, z in columns if hinge(z, x))
                assert price_terms(columns, x, weight) == want
                assert price_terms(columns, x) == tuple(
                    (j, hinge(z, x)) for j, z in columns if hinge(z, x)
                )


class TestRecoverCost:
    def test_single_observation_zero_multipliers(self, three_act_dataset):
        """With a flat envelope the cost is the negated indirect utility."""
        verdict = check_nipmc(three_act_dataset, flattest=True)
        cost = recover_cost(three_act_dataset, verdict.multipliers)
        menu = three_act_dataset.observations[0].menu
        for z in [F(0), F(1, 6), F(1, 4), F(1, 2), F(3, 4), F(1)]:
            assert cost(z) == -max(utility(a, z) for a in menu.acts)

    def test_contact_at_revealed_means(self, three_act_dataset):
        verdict = check_nipmc(three_act_dataset, flattest=True)
        cost = recover_cost(three_act_dataset, verdict.multipliers)
        price = price_function(verdict.multipliers, 0)
        summary = revealed_summary(three_act_dataset.observations[0])
        for ai, act in enumerate(three_act_dataset.observations[0].menu.acts):
            if summary.act_probabilities[ai] == 0:
                continue
            m = summary.act_means[ai]
            assert cost(m) == price(m) - utility(act, m)

    def test_uninformative_observation_contact_at_the_mean(self, four_state_uniform_prior):
        """Data revealing nothing still pins the cost at the prior mean."""
        menu = Menu(id="m", acts=(Act("a", F(1, 3), F(1, 3)),))
        rows = ((F(1),) * 4,)
        ds = Dataset(
            state_space=four_state_uniform_prior.state_space,
            observations=(
                Observation(
                    prior=four_state_uniform_prior, menu=menu, sdsc=SDSC(rows=rows)
                ),
            ),
        )
        verdict = check_nipmc(ds)
        assert verdict.passed
        cost = recover_cost(ds, verdict.multipliers)
        price = price_function(verdict.multipliers, 0)
        z0 = four_state_uniform_prior.mean
        assert cost(z0) == price(z0) - utility(menu.acts[0], z0)

    def test_majorization_is_structural(self, three_act_dataset):
        verdict = check_nipmc(three_act_dataset, flattest=True)
        cost = recover_cost(three_act_dataset, verdict.multipliers)
        price = price_function(verdict.multipliers, 0)
        menu = three_act_dataset.observations[0].menu
        for k in range(25):
            z = F(k, 24)
            assert price(z) >= max(utility(a, z) for a in menu.acts) + cost(z)


    def test_equals_the_envelope_over_every_act(self):
        """The minimum over observations of price minus menu value is the
        minimum over every observation and act of price minus payoff, the
        same function with the same breakpoints, for any multipliers."""
        rng = random.Random(43)
        batch = [random_generated_dataset(rng) for _ in range(8)]
        batch += [_swap_fixture(*p) for p in SWAP_PARAMS]
        for ds in batch:
            columns = build_farkas_system(ds).columns
            for _ in range(3):
                lam = {
                    (oi, z): F(rng.randint(0 if 0 < z < 1 else -6, 6), rng.randint(1, 4))
                    for oi, z in columns
                }
                reference = lower_envelope([
                    price_function(lam, oi) - act_payoff_function(a.u0, a.u1)
                    for oi, obs in enumerate(ds.observations)
                    for a in obs.menu.acts
                ])
                assert recover_cost(ds, lam) == reference


class TestVarianceCost:
    def test_null_experiment_costs_nothing(self):
        cost = variance_cost(F(1), F(1, 2))
        assert information_cost(cost, F(1, 2), DiscreteCDF.point(F(1, 2))) == 0

    def test_full_revelation_pays_the_prior_variance(self):
        cost = variance_cost(F(1), F(1, 2))
        full = DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(1, 2))))
        assert information_cost(cost, F(1, 2), full) == F(1, 4)

    def test_scaling_in_kappa(self):
        f = DiscreteCDF(atoms=((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))))
        c1 = information_cost(variance_cost(F(1), F(1, 2)), F(1, 2), f)
        c2 = information_cost(variance_cost(F(2), F(1, 2)), F(1, 2), f)
        assert c2 == 2 * c1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            variance_cost(F(0), F(1, 2))
        with pytest.raises(ValueError):
            variance_cost(F(1), F(1))


class TestAuditor:
    def _recovered(self, dataset):
        verdict = check_nipmc(dataset, flattest=True)
        cost = recover_cost(dataset, verdict.multipliers)
        prices = [
            price_function(verdict.multipliers, oi)
            for oi in range(len(dataset.observations))
        ]
        return cost, prices

    def test_construction_passes_all_five(self, three_act_dataset):
        cost, prices = self._recovered(three_act_dataset)
        report = verify_rationalization(three_act_dataset, cost, prices)
        assert report.all_ok
        audit = report.audits[0]
        assert audit.majorization_slack >= 0
        assert audit.contact_slack == 0
        assert audit.integral_slack == 0

    def test_concave_kink_in_price_is_caught(self, three_act_dataset):
        cost, prices = self._recovered(three_act_dataset)
        bent = PiecewiseScalarFunction.from_points(
            [(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(0))]
        )
        price = prices[0] + bent
        report = verify_rationalization(three_act_dataset, cost, [price])
        assert not report.audits[0].price_convex
        assert not report.all_ok

    def test_shifted_cost_loses_contact_keeps_majorization(self, three_act_dataset):
        cost, prices = self._recovered(three_act_dataset)
        lowered = cost + PiecewiseScalarFunction.constant(F(-1))
        report = verify_rationalization(three_act_dataset, lowered, prices)
        audit = report.audits[0]
        assert not audit.contact_at_revealed
        assert audit.contact_slack == F(1)
        assert audit.price_majorizes
        assert audit.majorization_slack == F(1)

    def test_kink_in_slack_region_is_caught(self):
        """A price kink strictly inside a slack interval must flip the
        affine-off-binding flag even when convexity survives."""
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)),))
        ds = Dataset(
            state_space=space,
            observations=(
                Observation(
                    prior=prior, menu=menu, sdsc=SDSC(rows=((F(1), F(1)),))
                ),
            ),
        )
        cost = PiecewiseScalarFunction.from_points(
            [(F(0), F(-1, 2)), (F(1, 2), F(0)), (F(1), F(-1, 2))]
        )
        kinked = PiecewiseScalarFunction.from_points(
            [(F(0), F(1, 2)), (F(3, 4), F(0)), (F(1), F(1, 2))]
        )
        report = verify_rationalization(ds, cost, [kinked])
        audit = report.audits[0]
        assert not audit.affine_off_binding
        assert audit.affine_slack > 0

    def test_dip_between_breakpoints_is_caught(self):
        """With a quadratic cost, price - (indirect utility + cost) can dip
        inside a segment: a flat price of -1/4 against variance_cost(1, 1/2)
        and one act paying 0 meets the target at 0 and 1, its only
        breakpoints, and falls 1/4 short of it at 1/2."""
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)),))
        ds = Dataset(
            state_space=space,
            observations=(
                Observation(
                    prior=prior, menu=menu, sdsc=SDSC(rows=((F(1), F(1)),))
                ),
            ),
        )
        flat = PiecewiseScalarFunction.constant(F(-1, 4))
        report = verify_rationalization(ds, variance_cost(F(1), F(1, 2)), [flat])
        audit = report.audits[0]
        assert audit.majorization_slack == F(-1, 4)
        assert not audit.price_majorizes
        assert not report.all_ok

    def test_integral_mismatch_is_caught(self, three_act_dataset):
        # kink strictly inside the high pooling interval: the revealed
        # distribution and the prior then integrate the price differently
        cost, _ = self._recovered(three_act_dataset)
        kinked = PiecewiseScalarFunction.from_points(
            [(F(0), F(0)), (F(3, 4), F(0)), (F(1), F(1, 4))]
        )
        report = verify_rationalization(three_act_dataset, cost, [kinked])
        audit = report.audits[0]
        assert not audit.integral_match
        assert audit.integral_slack == abs(F(1, 24) - F(1, 16))


def reference_audit(obs, cost, price) -> ObservationAudit:
    """One observation's audit as first written, building ``price - (value
    + cost)`` whole for its minimum and evaluating point by point: the
    reference for the swept ``_audit_observation``."""
    zero = F(0)
    slopes = price.slopes()
    convexity_slack = min(
        (b - a for a, b in zip(slopes, slopes[1:])),
        default=zero,
    )
    price_convex = convexity_slack >= 0

    target = obs.menu.value + cost
    majorization_slack = (price - target).minimum()
    price_majorizes = majorization_slack >= 0

    summary = obs.summary
    contact_slack = zero
    for ai, act in enumerate(obs.menu.acts):
        if summary.act_probabilities[ai] <= 0:
            continue
        mean = summary.act_means[ai]
        dev = price(mean) - utility(act, mean) - cost(mean)
        contact_slack = max(contact_slack, abs(dev))
    contact_at_revealed = contact_slack == 0

    affine_slack = zero
    f0 = obs.prior.distribution
    for lo, hi in positive_gap_intervals(f0, summary.cdf):
        seen: list[F] = []
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


def quadratic_dip_dataset() -> Dataset:
    """One observation, one act paying 0, full revelation on two states:
    ``TestAuditor.test_dip_between_breakpoints_is_caught``'s data."""
    space = StateSpace(states=(F(0), F(1)))
    prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
    menu = Menu(id="m", acts=(Act("a", F(0), F(0)),))
    obs = Observation(prior=prior, menu=menu, sdsc=SDSC(rows=((F(1), F(1)),)))
    return Dataset(state_space=space, observations=(obs,))


def audit_cases():
    """``reference_cases()`` (the benchmark catalog's cycle and concavity
    entries, the golden datasets, the fixtures and seeded draws), the data
    generated from the golden generation specs, and the quadratic dip."""
    cases = reference_cases()
    for path in sorted(GOLDEN.glob("generate_*.json")):
        prior, menus, cost = io.parse_generation_spec(json.loads(path.read_text()))
        cases.append((path.name, generate_dataset(prior, menus, cost)))
    cases.append(("quadratic dip", quadratic_dip_dataset()))
    return cases


def audit_candidates(ds: Dataset, rng: random.Random):
    """(cost, prices) pairs to audit ``ds`` against: when the cycle axiom
    holds, the recovered construction, and it again under a variance cost
    added to the cost; for every dataset, a random piecewise-affine cost
    with prices of menu value + cost + a random kinked function, and that
    again under a variance cost. The variance costs put the gap's minimum
    inside a segment, at a stationary point."""
    def variance():
        return variance_cost(F(rng.randint(1, 8), 4), F(rng.randint(1, 11), 12))

    verdict = check_nipmc(ds)
    if verdict.passed:
        cost = recover_cost(ds, verdict.multipliers)
        prices = [price_function(verdict.multipliers, oi) for oi in range(len(ds.observations))]
        yield cost, prices
        yield cost + variance(), prices
    cost = random_affine_pwl(rng)
    prices = [obs.menu.value + cost + random_affine_pwl(rng) for obs in ds.observations]
    yield cost, prices
    yield cost + variance(), prices
    if len(ds.observations) == 1:  # the flat price of the dip test
        yield variance_cost(F(1), F(1, 2)), [PiecewiseScalarFunction.constant(F(-1, 4))]


class TestSweptAudit:
    """The audit sweeps (one merge for the majorization minimum, sorted
    ``values_at`` sweeps, one merge with the gap intervals) and must equal
    ``reference_audit`` field by field."""

    def test_every_field_matches_the_reference(self):
        rng = random.Random(89)
        audited = inside = 0
        for name, ds in audit_cases():
            for cost, prices in audit_candidates(ds, rng):
                for oi, (obs, price) in enumerate(zip(ds.observations, prices)):
                    got = _audit_observation(obs, cost, price)
                    want = reference_audit(obs, cost, price)
                    for field in fields(ObservationAudit):
                        assert getattr(got, field.name) == getattr(want, field.name), (
                            name, oi, field.name
                        )
                    audited += 1
                    inside += not cost.is_affine and want.majorization_slack < min(
                        v for _, v in (price - obs.menu.value - cost).breakpoint_values()
                    )
        assert audited > 600
        assert inside > 50  # minima strictly inside a segment are covered
