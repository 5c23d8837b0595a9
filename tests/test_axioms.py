"""Action-switch and posterior-mean-cycle checks with their certificates."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from infocost import lp
from infocost import (
    Act,
    Dataset,
    Menu,
    Observation,
    Prior,
    SDSC,
    StateSpace,
    build_farkas_system,
    check_nias,
    check_nipmc,
    explain_violation,
)

def singleton_observation(prior, act=None, label="solo"):
    act = act or Act("only", F(0), F(0))
    menu = Menu(id=label, acts=(act,))
    rows = ((F(1),) * len(prior.state_space.states),)
    return Observation(prior=prior, menu=menu, sdsc=SDSC(rows=rows))


class TestNias:
    def test_singleton_menus_pass(self, four_state_uniform_prior):
        ds = Dataset(
            state_space=four_state_uniform_prior.state_space,
            observations=(singleton_observation(four_state_uniform_prior),),
        )
        assert check_nias(ds).passed

    def test_dominated_choice_fails_with_witness(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("bad", F(0), F(0)), Act("good", F(1), F(1))))
        sdsc = SDSC(rows=((F(1), F(1)), (F(0), F(0))))
        ds = Dataset(
            state_space=space,
            observations=(Observation(prior=prior, menu=menu, sdsc=sdsc),),
        )
        report = check_nias(ds)
        assert not report.passed
        v = report.violations[0]
        assert (v.chosen, v.better) == ("bad", "good")
        assert v.gain == F(1)

    def test_generated_data_passes(self, three_act_dataset):
        assert check_nias(three_act_dataset).passed

    def test_swap_dataset_passes_nias(self, swap_violation_dataset):
        assert check_nias(swap_violation_dataset).passed


class TestFarkasSystem:
    def test_single_observation_has_no_rows(self, three_act_dataset):
        system = build_farkas_system(three_act_dataset)
        assert system.rows == ()
        assert len(system.columns) == 4  # binding set {0, 1/3, 2/3, 1}
        assert system.binding_sets == ((F(0), F(1, 3), F(2, 3), F(1)),)

    def test_two_singletons_row_and_column_count(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        ds = Dataset(
            state_space=space,
            observations=(
                singleton_observation(prior, Act("a", F(0), F(0)), "m1"),
                singleton_observation(prior, Act("b", F(1, 10), F(0)), "m2"),
            ),
        )
        system = build_farkas_system(ds)
        assert len(system.rows) == 2
        assert len(system.columns) == 4
        assert all(f for f in system.free_columns)

    def test_mixed_dataset_row_count(self, three_act_dataset, four_state_uniform_prior):
        # rows = sum over ordered pairs of |supp sigma_A| * |B|
        solo = singleton_observation(four_state_uniform_prior)
        ds = Dataset(
            state_space=four_state_uniform_prior.state_space,
            observations=three_act_dataset.observations + (solo,),
        )
        system = build_farkas_system(ds)
        assert len(system.rows) == 2 * 1 + 1 * 3

    def test_entries_carry_the_choice_probability(self, swap_violation_dataset):
        system = build_farkas_system(swap_violation_dataset)
        # row for (obs 0, obs 1, act L, act l); column (0, z*=0) entry +sigma(L)
        row_idx = system.rows.index((0, 1, 0, 0))
        col_idx = system.columns.index((0, F(0)))
        assert system.matrix[row_idx][col_idx] == F(1, 2)
        col_idx_b = system.columns.index((1, F(0)))
        assert system.matrix[row_idx][col_idx_b] == F(-1, 2)

    def test_hinge_entries_respect_the_mean(self, swap_violation_dataset):
        system = build_farkas_system(swap_violation_dataset)
        row_idx = system.rows.index((0, 1, 0, 0))  # revealed mean 1/4
        col_one = system.columns.index((0, F(1)))
        assert system.matrix[row_idx][col_one] == (1 - F(1, 4)) * F(1, 2)

    def test_nias_equals_nonnegative_diagonal_surplus(self, swap_violation_dataset):
        """Rows with matching observations are omitted from the system; their
        right-hand sides are the action-switch surpluses, so the axiom holds
        exactly when every such surplus is nonnegative. Checked both ways."""
        from infocost.revealed import revealed_summary
        from infocost.model import utility

        def diagonal_surpluses(ds):
            for obs in ds.observations:
                summary = revealed_summary(obs)
                for ai, act in enumerate(obs.menu.acts):
                    if summary.act_probabilities[ai] == 0:
                        continue
                    for alt in obs.menu.acts:
                        yield (
                            utility(act, summary.act_means[ai])
                            - utility(alt, summary.act_means[ai])
                        ) * summary.act_probabilities[ai]

        assert check_nias(swap_violation_dataset).passed
        assert all(s >= 0 for s in diagonal_surpluses(swap_violation_dataset))

        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("bad", F(0), F(0)), Act("good", F(1), F(1))))
        broken = Dataset(
            state_space=space,
            observations=(
                Observation(
                    prior=prior, menu=menu, sdsc=SDSC(rows=((F(1), F(1)), (F(0), F(0))))
                ),
            ),
        )
        assert not check_nias(broken).passed
        assert any(s < 0 for s in diagonal_surpluses(broken))


class TestNipmc:
    def test_single_observation_trivially_feasible(self, three_act_dataset):
        verdict = check_nipmc(three_act_dataset)
        assert verdict.passed
        assert all(v == 0 for v in verdict.multipliers.values())

    def test_multipliers_satisfy_every_row_exactly(self, swap_violation_dataset, three_act_dataset, four_state_uniform_prior):
        ds = Dataset(
            state_space=four_state_uniform_prior.state_space,
            observations=three_act_dataset.observations
            + (singleton_observation(four_state_uniform_prior),),
        )
        verdict = check_nipmc(ds)
        assert verdict.passed
        system = verdict.system
        lam = [verdict.multipliers[key] for key in system.columns]
        for free, value in zip(system.free_columns, lam):
            if not free:
                assert value >= 0
        for row, rhs in zip(system.matrix, system.rhs):
            assert sum(a * v for a, v in zip(row, lam)) <= rhs

    def test_swap_dataset_fails_with_verified_certificate(self, swap_violation_dataset):
        verdict = check_nipmc(swap_violation_dataset)
        assert not verdict.passed
        beta = verdict.certificate
        system = verdict.system
        # direct multiplication: nonnegative weights
        assert all(b >= 0 for b in beta.values())
        # balanced at the free columns, nonnegative at interior ones
        vec = [beta[key] for key in system.rows]
        for j, free in enumerate(system.free_columns):
            s = sum(vec[i] * system.matrix[i][j] for i in range(len(vec)))
            if free:
                assert s == 0
            else:
                assert s >= 0
        # strict improvement
        assert sum(b * r for b, r in zip(vec, system.rhs)) < 0

    def test_corrupted_certificate_is_rejected(self, swap_violation_dataset, monkeypatch):
        real_solve = lp.solve

        def corrupted(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            cert = list(outcome.certificate)
            i = next(i for i, y in enumerate(cert) if y != 0)
            cert[i] = -cert[i]
            return replace(outcome, certificate=tuple(cert))

        monkeypatch.setattr(lp, "solve", corrupted)
        with pytest.raises(RuntimeError, match="direct verification"):
            check_nipmc(swap_violation_dataset)

    def test_flattest_multipliers_deterministic(self, three_act_dataset):
        a = check_nipmc(three_act_dataset, flattest=True)
        b = check_nipmc(three_act_dataset, flattest=True)
        assert a.multipliers == b.multipliers

    def test_payoff_rescaling_preserves_the_verdict(self, swap_violation_dataset):
        def transform(ds, scale, shifts):
            obs_out = []
            for oi, obs in enumerate(ds.observations):
                acts = tuple(
                    Act(a.id, scale * a.u0 + shifts[oi], scale * a.u1 + shifts[oi])
                    for a in obs.menu.acts
                )
                obs_out.append(
                    Observation(
                        prior=obs.prior,
                        menu=Menu(id=obs.menu.id, acts=acts),
                        sdsc=obs.sdsc,
                    )
                )
            return Dataset(state_space=ds.state_space, observations=tuple(obs_out))

        base = check_nipmc(swap_violation_dataset).passed
        scaled = transform(swap_violation_dataset, F(7, 2), [F(0), F(0)])
        shifted = transform(swap_violation_dataset, F(1), [F(3), F(-2)])
        assert check_nipmc(scaled).passed == base
        assert check_nipmc(shifted).passed == base

    def test_rescaling_preserves_feasible_verdicts_too(self, three_act_dataset):
        obs = three_act_dataset.observations[0]
        acts = tuple(
            Act(a.id, 5 * a.u0 + F(1, 3), 5 * a.u1 + F(1, 3)) for a in obs.menu.acts
        )
        ds = Dataset(
            state_space=three_act_dataset.state_space,
            observations=(
                Observation(
                    prior=obs.prior,
                    menu=Menu(id=obs.menu.id, acts=acts),
                    sdsc=obs.sdsc,
                ),
            ),
        )
        assert check_nipmc(ds).passed


class TestExplainViolation:
    def test_explanation_names_the_swap(self, swap_violation_dataset):
        verdict = check_nipmc(swap_violation_dataset)
        text = explain_violation(verdict, swap_violation_dataset)
        assert "stakes" in text and "flat" in text
        assert "< 0" in text

    def test_passing_verdict_rejected(self, three_act_dataset):
        verdict = check_nipmc(three_act_dataset)
        with pytest.raises(ValueError):
            explain_violation(verdict, three_act_dataset)

    def test_scaled_certificate_same_story(self, swap_violation_dataset):
        verdict = check_nipmc(swap_violation_dataset)
        doubled = type(verdict)(
            passed=False,
            system=verdict.system,
            certificate={k: 2 * v for k, v in verdict.certificate.items()},
        )
        base = explain_violation(verdict, swap_violation_dataset)
        scaled = explain_violation(doubled, swap_violation_dataset)
        assert base.count("traded against") == scaled.count("traded against")

    def test_zero_certificate_rejected(self, swap_violation_dataset):
        verdict = check_nipmc(swap_violation_dataset)
        zeroed = type(verdict)(
            passed=False,
            system=verdict.system,
            certificate={k: F(0) for k in verdict.certificate},
        )
        with pytest.raises(ValueError):
            explain_violation(zeroed, swap_violation_dataset)


class TestMultiPrior:
    def test_per_observation_priors_flow_through(self):
        """Same menu faced under two priors, each played optimally for a
        common concave cost, must stay jointly rationalizable."""
        from infocost import generate_dataset, PiecewiseScalarFunction

        space = StateSpace(states=(F(0), F(1, 2), F(1)))
        p1 = Prior(state_space=space, weights=(F(1, 3), F(1, 3), F(1, 3)))
        p2 = Prior(state_space=space, weights=(F(1, 2), F(1, 4), F(1, 4)))
        menu = Menu(id="m", acts=(Act("a", F(1, 2), F(0)), Act("b", F(0), F(1, 2))))
        cost = PiecewiseScalarFunction.from_points(
            [(F(0), F(-1, 4)), (F(1, 2), F(0)), (F(1), F(-1, 4))]
        )
        ds1 = generate_dataset(p1, [menu], cost)
        ds2 = generate_dataset(p2, [menu], cost)
        merged = Dataset(
            state_space=space,
            observations=ds1.observations + ds2.observations,
        )
        assert not merged.single_prior
        assert check_nias(merged).passed
        assert check_nipmc(merged).passed
