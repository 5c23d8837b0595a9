"""Action-switch and posterior-mean-cycle checks with their certificates."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from infocost import io, lp
from infocost import (
    Act,
    Dataset,
    Menu,
    Observation,
    PiecewiseScalarFunction,
    Prior,
    SDSC,
    StateSpace,
    build_farkas_system,
    check_nias,
    check_nipmc,
    explain_violation,
    generate_dataset,
    price_function,
    utility,
)
from infocost.axioms import _alternative_program
from infocost.revealed import binding_set, prior_cdf, revealed_summary
from test_acceptance import _swap_fixture

GOLDEN = Path(__file__).parent / "golden"

def singleton_observation(prior, act=None, label="solo"):
    act = act or Act("only", F(0), F(0))
    menu = Menu(id=label, acts=(act,))
    rows = ((F(1),) * len(prior.state_space.states),)
    return Observation(prior=prior, menu=menu, sdsc=SDSC(rows=rows))


def forged_flattest_solve(ds):
    """``lp.solve`` with the answer to ``check_nipmc(ds, flattest=True)``'s
    program forged: beta = 0, the plain (not flattest) multipliers as
    duals, and an objective value of minus their interior mass, which
    beta = 0 does not attain. Returns the forgery and that mass."""
    system = build_farkas_system(ds)
    relaxed = _alternative_program(system.to_linear_program(), F(-1), False)
    plain = check_nipmc(ds).multipliers
    duals = tuple(plain[c] for c in system.columns)
    mass = sum(v for v, free in zip(duals, system.free_columns) if not free)
    real_solve = lp.solve

    def forged(program, **kwargs):
        if program != relaxed:
            return real_solve(program, **kwargs)
        return lp.LPOutcome(
            status=lp.OPTIMAL,
            x=(F(0),) * relaxed.num_vars,
            objective_value=-mass,
            duals=duals,
        )

    return forged, mass


def example3_twice():
    """The bundled example-3 dataset observed twice, so its cycle system
    has rows to solve."""
    doc = json.loads(
        resources.files("infocost.fixtures").joinpath("example3_dataset.json").read_text()
    )
    ds = io.parse_dataset(doc)
    return replace(ds, observations=ds.observations * 2)


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
        # rows = sum over ordered pairs of |supp sigma_A|
        solo = singleton_observation(four_state_uniform_prior)
        ds = Dataset(
            state_space=four_state_uniform_prior.state_space,
            observations=three_act_dataset.observations + (solo,),
        )
        system = build_farkas_system(ds)
        assert len(system.rows) == 2 * 1 + 1 * 1

    def test_entries_carry_the_choice_probability(self, swap_violation_dataset):
        system = build_farkas_system(swap_violation_dataset)
        # row for (obs 0, obs 1, act L, act l); column (0, z*=0) entry +sigma(L)
        row_idx = system.rows.index((0, 1, 0, 0))
        col_idx = system.columns.index((0, F(0)))
        assert dict(system.terms[row_idx])[col_idx] == F(1, 2)
        col_idx_b = system.columns.index((1, F(0)))
        assert dict(system.terms[row_idx])[col_idx_b] == F(-1, 2)

    def test_hinge_entries_respect_the_mean(self, swap_violation_dataset):
        system = build_farkas_system(swap_violation_dataset)
        row_idx = system.rows.index((0, 1, 0, 0))  # revealed mean 1/4
        col_one = system.columns.index((0, F(1)))
        assert dict(system.terms[row_idx])[col_one] == (1 - F(1, 4)) * F(1, 2)

    def test_rows_are_price_differences_at_the_mean(self):
        """Row (oa, ob, ai, bi) times any lam is the act's probability times
        the difference of the two observations' prices at its mean."""
        rng = random.Random(37)
        batch = [random_generated_dataset(rng) for _ in range(4)]
        batch += [_swap_fixture(*p) for p in SWAP_PARAMS[:2]]
        for ds in batch:
            system = build_farkas_system(ds)
            assert system.rows
            lam = {key: F(rng.randint(-6, 6), rng.randint(1, 4)) for key in system.columns}
            values = [lam[key] for key in system.columns]
            for (oa, ob, ai, _), row in zip(system.rows, system.terms):
                summary = system.summaries[oa]
                mean = summary.act_means[ai]
                expected = summary.act_probabilities[ai] * (
                    price_function(lam, oa)(mean) - price_function(lam, ob)(mean)
                )
                assert sum(v * values[j] for j, v in row) == expected

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
        for row, rhs in zip(system.terms, system.rhs):
            assert sum(a * lam[j] for j, a in row) <= rhs

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
            s = sum(vec[i] * dict(system.terms[i]).get(j, 0) for i in range(len(vec)))
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
            beta = list(outcome.x)
            i = next(i for i, y in enumerate(beta) if y != 0)
            beta[i] = -beta[i]
            return replace(outcome, x=tuple(beta))

        monkeypatch.setattr(lp, "solve", corrupted)
        with pytest.raises(RuntimeError, match="direct verification"):
            check_nipmc(swap_violation_dataset)

    def test_corrupted_multipliers_are_rejected(self, monkeypatch):
        ds = example3_twice()
        assert check_nipmc(ds).passed
        real_solve = lp.solve

        def shifted(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            return replace(
                outcome,
                x=tuple(v - 1000 for v in outcome.x),
                duals=tuple(v - 1000 for v in outcome.duals),
            )

        monkeypatch.setattr(lp, "solve", shifted)
        with pytest.raises(RuntimeError, match="multipliers"):
            check_nipmc(ds)

    def test_flattest_optimality_is_rechecked(self, monkeypatch):
        ds = example3_twice()
        assert check_nipmc(ds, flattest=True).passed
        relaxed = _alternative_program(
            build_farkas_system(ds).to_linear_program(), F(-1), False
        )
        real_solve = lp.solve
        corrupted = []

        def relaxed_value_off(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            if program == relaxed:
                corrupted.append(program)
                return replace(outcome, objective_value=outcome.objective_value + 1)
            return outcome

        monkeypatch.setattr(lp, "solve", relaxed_value_off)
        with pytest.raises(RuntimeError, match="duality check"):
            check_nipmc(ds, flattest=True)
        assert corrupted

    def test_flattest_value_is_recomputed_from_beta(self, monkeypatch):
        """A solver that reports the plain multipliers' interior mass as
        the minimum, with beta = 0, is caught: b . beta is 0, not -mass."""
        ds = io.parse_dataset(json.loads((GOLDEN / "generated_s0.json").read_text()))
        forged, mass = forged_flattest_solve(ds)
        assert mass > sum(
            v for (_, z), v in check_nipmc(ds, flattest=True).multipliers.items()
            if 0 < z < 1
        )
        monkeypatch.setattr(lp, "solve", forged)
        with pytest.raises(RuntimeError, match="duality check"):
            check_nipmc(ds, flattest=True)

    def test_flattest_solves_one_program_on_passing_data(self, monkeypatch):
        real_solve = lp.solve
        calls = []

        def counted(program, **kwargs):
            calls.append(program)
            return real_solve(program, **kwargs)

        monkeypatch.setattr(lp, "solve", counted)
        verdict = check_nipmc(example3_twice(), flattest=True)
        assert verdict.passed
        assert len(calls) == 1

    def test_flattest_on_failing_data_solves_two_programs(
        self, swap_violation_dataset, monkeypatch
    ):
        plain = check_nipmc(swap_violation_dataset)
        real_solve = lp.solve
        outcomes = []

        def counted(program, **kwargs):
            outcomes.append(real_solve(program, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(lp, "solve", counted)
        verdict = check_nipmc(swap_violation_dataset, flattest=True)
        assert not verdict.passed
        assert [o.status for o in outcomes] == [lp.UNBOUNDED, lp.OPTIMAL]
        assert verdict.certificate == plain.certificate

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
        assert merged.observations[0].prior.weights != merged.observations[-1].prior.weights
        assert check_nias(merged).passed
        assert check_nipmc(merged).passed


def full_cycle_program(dataset):
    """The cycle system with one row per deviation act, built from scratch.

    Rows are keyed (obs_a, obs_b, act_a, act_b) for every act of obs_b's
    menu; columns are those of ``build_farkas_system``.
    """
    summaries = [revealed_summary(obs) for obs in dataset.observations]
    columns = [
        (oi, z)
        for oi, obs in enumerate(dataset.observations)
        for z in binding_set(prior_cdf(obs.prior), summaries[oi].cdf, dataset.state_space)
    ]
    keys, cons = [], []
    n = len(dataset.observations)
    for oa in range(n):
        for ob in range(n):
            if ob == oa:
                continue
            for ai, act_a in enumerate(dataset.observations[oa].menu.acts):
                prob = summaries[oa].act_probabilities[ai]
                mean = summaries[oa].act_means[ai]
                if prob == 0:
                    continue
                coeffs = {}
                for j, (oi, z) in enumerate(columns):
                    sgn = 1 if oi == oa else -1 if oi == ob else 0
                    hinge = 1 if z == 0 else max(z - mean, F(0))
                    coeffs[j] = sgn * hinge * prob
                for bi, act_b in enumerate(dataset.observations[ob].menu.acts):
                    keys.append((oa, ob, ai, bi))
                    rhs = (utility(act_a, mean) - utility(act_b, mean)) * prob
                    cons.append(lp.constraint(coeffs, lp.LE, rhs))
    program = lp.LinearProgram(
        num_vars=len(columns),
        nonnegative=tuple(not (z == 0 or z == 1) for _, z in columns),
        constraints=tuple(cons),
    )
    return keys, columns, program


def random_generated_dataset(rng):
    """Optimal choice data: 5 states, 3 menus of 3 acts, a concave cost."""
    interior = set()
    while len(interior) < 3:
        interior.add(F(rng.randint(1, 23), 24))
    space = StateSpace(states=(F(0), *sorted(interior), F(1)))
    weights = [F(rng.randint(1, 6)) for _ in space.states]
    prior = Prior(state_space=space, weights=tuple(w / sum(weights) for w in weights))
    kink = F(rng.randint(2, 10), 12)
    y0, left, right = F(-1, 2), F(rng.randint(0, 8), 4), F(-rng.randint(0, 8), 4)
    cost = PiecewiseScalarFunction.from_points(
        [(F(0), y0), (kink, y0 + left * kink), (F(1), y0 + left * kink + right * (1 - kink))]
    )
    menus = [
        Menu(
            id=f"m{mi}",
            acts=tuple(
                Act(f"m{mi}a{j}", F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8))
                for j in range(3)
            ),
        )
        for mi in range(3)
    ]
    return generate_dataset(prior, menus, cost)


SWAP_PARAMS = [
    (F(1, 2), F(3, 4), F(1), F(1, 10)),
    (F(1, 2), F(2, 3), F(1), F(1, 4)),
    (F(1, 3), F(3, 4), F(2), F(1, 5)),
    (F(1, 2), F(9, 10), F(1), F(1, 2)),
    (F(2, 5), F(4, 5), F(3), F(1, 3)),
    (F(1, 2), F(3, 5), F(5), F(1)),
]


class TestReducedSystemEquivalence:
    """One row per chosen act decides exactly what one row per deviation did."""

    @pytest.fixture(scope="class")
    def batch(self):
        rng = random.Random(31)
        generated = [random_generated_dataset(rng) for _ in range(20)]
        return generated + [_swap_fixture(*p) for p in SWAP_PARAMS]

    def test_keeps_one_row_per_chosen_act(self, batch):
        for ds in batch:
            keys, _, _ = full_cycle_program(ds)
            system = build_farkas_system(ds)
            assert {k[:3] for k in system.rows} == {k[:3] for k in keys}
            assert len(system.rows) == len({k[:3] for k in keys})

    def test_verdicts_and_results_hold_on_the_full_system(self, batch):
        passed = failed = 0
        for ds in batch:
            keys, columns, full = full_cycle_program(ds)
            verdict = check_nipmc(ds)
            assert verdict.system.columns == tuple(columns)
            assert verdict.passed == (lp.solve(full).status == lp.FEASIBLE)
            if verdict.passed:
                passed += 1
                lam = [verdict.multipliers[key] for key in columns]
                assert lp.satisfies(full, lam)
            else:
                failed += 1
                beta = [verdict.certificate.get(key, F(0)) for key in keys]
                assert lp.verify_certificate(full, beta)
        assert (passed, failed) == (20, 6)

    def test_flattest_mass_matches_the_full_minimum(self, batch):
        for ds in batch:
            verdict = check_nipmc(ds, flattest=True)
            if not verdict.passed:
                continue
            keys, columns, full = full_cycle_program(ds)
            interior = {j: F(1) for j, nonneg in enumerate(full.nonnegative) if nonneg}
            best = lp.solve(replace(full, objective=tuple(interior.items()), sense=lp.MIN))
            lam = [verdict.multipliers[key] for key in columns]
            assert lp.satisfies(full, lam)
            assert sum(lam[j] for j in interior) == best.objective_value
