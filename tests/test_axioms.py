"""Action-switch and posterior-mean-cycle checks with their certificates."""

import importlib.util
import json
import random
import sys
from dataclasses import fields, replace
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from infocost import io, lp
from infocost import (
    Act,
    Dataset,
    DiscreteCDF,
    FarkasSystem,
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
from infocost.revealed import RevealedSummary, binding_set, prior_cdf, revealed_summary
from test_acceptance import _swap_fixture
from test_revealed import _bayes_reference

GOLDEN = Path(__file__).parent / "golden"

def singleton_observation(prior, act=None, label="solo"):
    act = act or Act("only", F(0), F(0))
    menu = Menu(id=label, acts=(act,))
    rows = ((F(1),) * len(prior.state_space.states),)
    return Observation(prior=prior, menu=menu, sdsc=SDSC(rows=rows))


def forged_flattest_solve(ds):
    """``lp.solve`` with the answer to ``check_nipmc(ds)``'s relaxed
    alternative forged: beta = 0, feasible multipliers that need not be
    the flattest as duals, and an objective value of minus their interior
    mass, which beta = 0 does not attain. The multipliers are the duals
    of the alternative with interior rows >= 0 and sum(beta) <= 1, which
    prices no mass. Returns the forgery and that mass."""
    system = build_farkas_system(ds)
    program = system.to_linear_program()
    relaxed = _alternative_program(program)
    plain = lp.dual(replace(program, sense=lp.MAX))
    total = lp.constraint(dict.fromkeys(range(plain.num_vars), F(1)), lp.LE, F(1))
    normalized = replace(plain, constraints=plain.constraints + (total,))
    duals = lp.solve(normalized).duals[: len(system.columns)]
    assert lp.satisfies(program, duals)
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


def negated_least_entry(ray):
    """``ray`` with its least nonzero entry negated. The cycle rays here
    have more than one positive entry, so the sum stays positive and the
    scaled ray is a corrupted certificate, not a refused one; a one-entry
    ray negated sums below 0, and dividing by that sum gives it back."""
    i = min((i for i, v in enumerate(ray) if v), key=lambda i: ray[i])
    return ray[:i] + (-ray[i],) + ray[i + 1:]


def zeroed(ray):
    return tuple(F(0) for _ in ray)


def negated(ray):
    return tuple(-v for v in ray)


def forged_ray_solve(ds, corrupt):
    """``lp.solve`` with the ray of ``check_nipmc(ds)``'s relaxed
    alternative, which must be unbounded, replaced by ``corrupt(ray)``.
    Returns the forgery, the forged ray and the cycle system's program."""
    program = build_farkas_system(ds).to_linear_program()
    relaxed = _alternative_program(program)
    real_solve = lp.solve
    outcome = real_solve(relaxed)
    assert outcome.status == lp.UNBOUNDED
    ray = corrupt(outcome.ray)

    def forged(program, **kwargs):
        if program != relaxed:
            return real_solve(program, **kwargs)
        return replace(outcome, ray=ray)

    return forged, ray, program


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

    def test_each_gain_is_the_difference_of_the_two_utilities(self):
        """On seeded choice data over menus with duplicate acts, the
        violations are, in order, every (chosen, better) pair of a chosen
        act and an act of higher utility at its revealed mean, and each
        gain is utility(better) - utility(chosen) there."""
        rng = random.Random(53)
        space = StateSpace(states=(F(0), F(1, 3), F(2, 3), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 6), F(1, 3), F(1, 4), F(1, 4)))
        found = 0
        for _ in range(60):
            acts = [
                Act(f"a{j}", F(rng.randint(-4, 4), 4), F(rng.randint(-4, 4), 4))
                for j in range(rng.randint(1, 3))
            ]
            twin = rng.choice(acts)
            acts.append(Act("twin", twin.u0, twin.u1))
            menu = Menu(id="m", acts=tuple(acts))
            columns = []
            for _ in space.states:
                cuts = sorted(F(rng.randint(0, 3), 3) for _ in acts[1:])
                columns.append([b - a for a, b in zip([F(0), *cuts], [*cuts, F(1)])])
            sdsc = SDSC(rows=tuple(tuple(col[ai] for col in columns) for ai in range(len(acts))))
            obs = Observation(prior=prior, menu=menu, sdsc=sdsc)
            summary = revealed_summary(obs)
            expected = [
                (act.id, alt.id, utility(alt, mean) - utility(act, mean))
                for act, prob, mean in zip(acts, summary.act_probabilities, summary.act_means)
                if prob > 0
                for alt in acts
                if utility(alt, mean) > utility(act, mean)
            ]
            report = check_nias(Dataset(state_space=space, observations=(obs,)))
            assert [(v.chosen, v.better, v.gain) for v in report.violations] == expected
            assert report.passed == (not expected)
            found += len(expected)
        assert found >= 30


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
        assert dict(system.program.constraints[row_idx].terms)[col_idx] == F(1, 2)
        col_idx_b = system.columns.index((1, F(0)))
        assert dict(system.program.constraints[row_idx].terms)[col_idx_b] == F(-1, 2)

    def test_hinge_entries_respect_the_mean(self, swap_violation_dataset):
        system = build_farkas_system(swap_violation_dataset)
        row_idx = system.rows.index((0, 1, 0, 0))  # revealed mean 1/4
        col_one = system.columns.index((0, F(1)))
        assert dict(system.program.constraints[row_idx].terms)[col_one] == (1 - F(1, 4)) * F(1, 2)

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
            for (oa, ob, ai, _), con in zip(system.rows, system.program.constraints):
                summary = ds.observations[oa].summary
                mean = summary.act_means[ai]
                expected = summary.act_probabilities[ai] * (
                    price_function(lam, oa)(mean) - price_function(lam, ob)(mean)
                )
                assert sum(v * values[j] for j, v in con.terms) == expected

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
        for con in system.program.constraints:
            assert sum(a * lam[j] for j, a in con.terms) <= con.rhs

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
            s = sum(
                vec[i] * dict(system.program.constraints[i].terms).get(j, 0)
                for i in range(len(vec))
            )
            if free:
                assert s == 0
            else:
                assert s >= 0
        # strict improvement
        assert sum(b * con.rhs for b, con in zip(vec, system.program.constraints)) < 0

    def test_one_program_per_system(self, swap_violation_dataset, count_builds):
        """``to_linear_program`` gives one program per system, so the check
        and the explanation verify the certificate on the same rows, and
        each row object is scaled to integers once."""
        built = count_builds(lp.Constraint, "scaled")
        verdict = check_nipmc(swap_violation_dataset)
        program = verdict.system.to_linear_program()
        assert program is verdict.system.to_linear_program()
        assert explain_violation(verdict, swap_violation_dataset)
        ids = [id(con) for con in built]
        assert len(ids) == len(set(ids))
        weighted = [
            con for con, key in zip(program.constraints, verdict.system.rows)
            if verdict.certificate[key]
        ]
        assert weighted and {id(con) for con in weighted} <= set(ids)

    def test_corrupted_certificate_is_rejected(self, swap_violation_dataset, monkeypatch):
        forged, ray, program = forged_ray_solve(swap_violation_dataset, negated_least_entry)
        assert sum(ray) > 0
        assert not lp.verify_certificate(program, [v / sum(ray) for v in ray])
        monkeypatch.setattr(lp, "solve", forged)
        with pytest.raises(RuntimeError, match="direct verification"):
            check_nipmc(swap_violation_dataset)

    @pytest.mark.parametrize("corrupt, sign", [(zeroed, 0), (negated, -1)])
    def test_ray_without_positive_sum_is_rejected(
        self, swap_violation_dataset, monkeypatch, corrupt, sign
    ):
        """A ray that sums to 0 or below cannot be scaled to a certificate:
        the check raises, rather than dividing by its sum."""
        forged, ray, _ = forged_ray_solve(swap_violation_dataset, corrupt)
        assert (sum(ray) > 0) - (sum(ray) < 0) == sign
        monkeypatch.setattr(lp, "solve", forged)
        with pytest.raises(RuntimeError, match="no certificate"):
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
        assert check_nipmc(ds).passed
        relaxed = _alternative_program(build_farkas_system(ds).to_linear_program())
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
            check_nipmc(ds)
        assert corrupted

    def test_flattest_value_is_recomputed_from_beta(self, monkeypatch):
        """A solver that reports the plain multipliers' interior mass as
        the minimum, with beta = 0, is caught: b . beta is 0, not -mass."""
        ds = io.parse_dataset(json.loads((GOLDEN / "generated_s0.json").read_text()))
        forged, mass = forged_flattest_solve(ds)
        assert mass > sum(
            v for (_, z), v in check_nipmc(ds).multipliers.items() if 0 < z < 1
        )
        monkeypatch.setattr(lp, "solve", forged)
        with pytest.raises(RuntimeError, match="duality check"):
            check_nipmc(ds)

    def test_flattest_solves_one_program_on_passing_data(self, monkeypatch):
        real_solve = lp.solve
        calls = []

        def counted(program, **kwargs):
            calls.append(program)
            return real_solve(program, **kwargs)

        monkeypatch.setattr(lp, "solve", counted)
        verdict = check_nipmc(example3_twice())
        assert verdict.passed
        assert len(calls) == 1

    def test_every_check_solves_one_program(self, monkeypatch):
        """On every reference case with cycle rows, passing or failing, a
        check solves exactly one program, and each failing case carries a
        certificate that verifies."""
        real_solve = lp.solve
        calls = []

        def counted(program, **kwargs):
            calls.append(program)
            return real_solve(program, **kwargs)

        monkeypatch.setattr(lp, "solve", counted)
        verdicts = {True: 0, False: 0}
        for name, ds in reference_cases():
            calls.clear()
            verdict = check_nipmc(ds)
            if not verdict.system.rows:
                continue
            assert len(calls) == 1, name
            verdicts[verdict.passed] += 1
            if not verdict.passed:
                beta = [verdict.certificate[key] for key in verdict.system.rows]
                assert sum(beta) == 1, name
                assert lp.verify_certificate(verdict.system.to_linear_program(), beta), name
        assert min(verdicts.values()) > 0

    def test_relaxed_alternative_forged_unbounded_is_rejected(self, monkeypatch):
        """On passing data, a relaxed alternative reported unbounded with
        no ray leaves no certificate: the check raises instead of
        reporting."""
        ds = example3_twice()
        relaxed = _alternative_program(build_farkas_system(ds).to_linear_program())
        real_solve = lp.solve

        def forged(program, **kwargs):
            if program == relaxed:
                return lp.LPOutcome(status=lp.UNBOUNDED)
            return real_solve(program, **kwargs)

        monkeypatch.setattr(lp, "solve", forged)
        with pytest.raises(RuntimeError, match="no certificate"):
            check_nipmc(ds)

    def test_flattest_keyword_changes_nothing(self):
        """Every check reports the least-interior-mass multipliers, so
        ``flattest=True`` gives the same verdict on the golden datasets,
        the benchmark's catalog and seeded generated data."""
        for name, ds in reference_cases():
            assert check_nipmc(ds) == check_nipmc(ds, flattest=True), name

    def test_flattest_multipliers_deterministic(self, three_act_dataset):
        a = check_nipmc(three_act_dataset)
        b = check_nipmc(three_act_dataset)
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
            verdict = check_nipmc(ds)
            if not verdict.passed:
                continue
            keys, columns, full = full_cycle_program(ds)
            interior = {j: F(1) for j, nonneg in enumerate(full.nonnegative) if nonneg}
            best = lp.solve(replace(full, objective=tuple(interior.items()), sense=lp.MIN))
            lam = [verdict.multipliers[key] for key in columns]
            assert lp.satisfies(full, lam)
            assert sum(lam[j] for j in interior) == best.objective_value


class TestCycleAxiomAgainstHighs:
    """HiGHS, in floats, decides the cycle system as ``check_nipmc`` does,
    and on passing data finds the flattest interior mass it reports."""

    @staticmethod
    def highs(system, interior_cost):
        """``linprog`` over A lam <= b, free at 0 and 1 and nonnegative
        inside, minimizing ``interior_cost`` times the interior mass."""
        from scipy.optimize import linprog

        a_ub = []
        for con in system.program.constraints:
            dense = [0.0] * len(system.columns)
            for j, v in con.terms:
                dense[j] = float(v)
            a_ub.append(dense)
        free = system.free_columns
        return linprog(
            [0.0 if f else interior_cost for f in free],
            A_ub=a_ub,
            b_ub=[float(con.rhs) for con in system.program.constraints],
            bounds=[(None, None) if f else (0, None) for f in free],
            method="highs",
        )

    def test_verdict_and_flattest_mass_match_highs(self):
        pytest.importorskip("scipy")
        rng = random.Random(29)
        batch = [random_generated_dataset(rng) for _ in range(8)]
        batch += [_swap_fixture(*p) for p in SWAP_PARAMS]
        verdicts, masses = [], []
        for ds in batch:
            verdict = check_nipmc(ds)
            system = verdict.system
            assert system.rows
            ref = self.highs(system, 0.0)
            assert ref.status in (0, 2), ref.message
            assert verdict.passed == (ref.status == 0)
            verdicts.append(verdict.passed)
            if verdict.passed:
                ref = self.highs(system, 1.0)
                assert ref.status == 0, ref.message
                for checked in (verdict, check_nipmc(ds, flattest=True)):
                    mass = sum(
                        v for (_, z), v in checked.multipliers.items() if 0 < z < 1
                    )
                    assert ref.fun == pytest.approx(float(mass), rel=1e-9, abs=1e-9)
                masses.append(mass)
        assert verdicts == [True] * 8 + [False] * len(SWAP_PARAMS)
        assert any(masses)  # some passing data needs interior mass


def reference_summary(obs):
    """An observation's revealed statistics by Bayes' rule, Fraction by
    Fraction (``test_revealed._bayes_reference``)."""
    means, probs, atoms = _bayes_reference(
        obs.prior.state_space.states, obs.prior.weights, obs.sdsc.rows
    )
    return RevealedSummary(act_means=means, act_probabilities=probs, cdf=DiscreteCDF(atoms=atoms))


def reference_binding_set(prior, f, states):
    """The states where the running integral of (prior CDF - f's CDF)
    vanishes, each integral summed atom by atom."""

    def gap(z):
        below = sum((z - s) * w for s, w in zip(prior.state_space.states, prior.weights) if s < z)
        return below - sum((z - s) * p for s, p in f.atoms if s < z)

    return tuple(z for z in states if gap(z) == 0)


def reference_farkas_system(dataset):
    """The cycle system assembled Fraction by Fraction, row by row: each
    price term scans every column, and each deviation act's utility is
    evaluated as an exact fraction."""
    summaries = tuple(reference_summary(obs) for obs in dataset.observations)
    bindings = tuple(
        reference_binding_set(obs.prior, summaries[oi].cdf, dataset.state_space.states)
        for oi, obs in enumerate(dataset.observations)
    )
    columns = tuple((oi, z) for oi, zs in enumerate(bindings) for z in zs)

    def price_terms(obs_index, x):
        terms = {}
        for j, (oi, z) in enumerate(columns):
            h = F(1) if z == 0 else max(z - x, F(0))
            if oi == obs_index and h:
                terms[j] = h
        return terms

    rows, constraints = [], []
    n = len(dataset.observations)
    for oa in range(n):
        menu_a = dataset.observations[oa].menu
        summ = summaries[oa]
        for ob in range(n):
            if ob == oa:
                continue
            menu_b = dataset.observations[ob].menu
            for ai, act_a in enumerate(menu_a.acts):
                prob = summ.act_probabilities[ai]
                if prob <= 0:
                    continue
                mean = summ.act_means[ai]
                row = {j: prob * v for j, v in price_terms(oa, mean).items()}
                row.update((j, -prob * v) for j, v in price_terms(ob, mean).items())
                deviations = [utility(act_b, mean) for act_b in menu_b.acts]
                best = max(deviations)
                rows.append((oa, ob, ai, deviations.index(best)))
                constraints.append(lp.Constraint(
                    tuple(sorted(row.items())), lp.LE, (utility(act_a, mean) - best) * prob
                ))
    return FarkasSystem(
        rows=tuple(rows),
        columns=columns,
        binding_sets=bindings,
        program=lp.LinearProgram(
            num_vars=len(columns),
            nonnegative=tuple(not (z == 0 or z == 1) for _, z in columns),
            constraints=tuple(constraints),
        ),
    )


def tied_deviations_dataset():
    """Two observations under two priors whose revealed means (1/6, 1/2,
    5/6) fall where acts of the other menu tie: duplicate lines (q, q2 and
    b, b2) and lines crossing at 1/2 (all of t0; a, b, c and b2 of t1)."""
    space = StateSpace(states=(F(0), F(1, 3), F(2, 3), F(1)))
    even = Prior(state_space=space, weights=(F(1, 4),) * 4)
    peaked = Prior(state_space=space, weights=(F(1, 6), F(1, 3), F(1, 3), F(1, 6)))
    t0 = Menu(id="t0", acts=(Act("p", F(0), F(1)), Act("q", F(1), F(0)), Act("q2", F(1), F(0))))
    t1 = Menu(id="t1", acts=(
        Act("a", F(0), F(1)), Act("b", F(1), F(0)), Act("c", F(1, 2), F(1, 2)),
        Act("b2", F(1), F(0)),
    ))
    half, zero = F(1, 2), F(0)
    sdsc0 = SDSC(rows=((half,) * 4, (half, half, zero, zero), (zero, zero, half, half)))
    sdsc1 = SDSC(rows=(
        (zero, zero, half, F(1)), (F(1), half, zero, zero), (zero, half, half, zero),
        (zero,) * 4,
    ))
    return Dataset(state_space=space, observations=(
        Observation(prior=even, menu=t0, sdsc=sdsc0),
        Observation(prior=peaked, menu=t1, sdsc=sdsc1),
    ))


def two_prior_dataset():
    """One menu played optimally under two priors for one concave cost."""
    space = StateSpace(states=(F(0), F(1, 2), F(1)))
    p1 = Prior(state_space=space, weights=(F(1, 3), F(1, 3), F(1, 3)))
    p2 = Prior(state_space=space, weights=(F(1, 2), F(1, 4), F(1, 4)))
    menu = Menu(id="m", acts=(Act("a", F(1, 2), F(0)), Act("b", F(0), F(1, 2))))
    cost = PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 4)), (F(1, 2), F(0)), (F(1), F(-1, 4))]
    )
    observations = (
        generate_dataset(p1, [menu], cost).observations
        + generate_dataset(p2, [menu], cost).observations
    )
    return Dataset(state_space=space, observations=observations)


def catalog_datasets():
    """Every ``cycle`` and ``concavity`` entry of the benchmark catalog, as
    the benchmark's generators build it from the entry's seed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("catalog_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    catalog = workloads.load_catalog()
    make = {"cycle": workloads.cycle_dataset, "concavity": workloads.concavity_dataset}
    return [
        (f"{name}/{cls}/{entry['seed']}", make[name](workloads.CLASSES[name][cls], entry["seed"]))
        for name in make
        for cls, entries in catalog[name].items()
        for entry in entries
    ]


def reference_cases():
    fixtures = resources.files("infocost.fixtures")
    cases = catalog_datasets()
    cases += [
        (path.name, io.parse_dataset(json.loads(path.read_text())))
        for path in sorted(GOLDEN.glob("generated_s*.json"))
    ]
    cases += [
        (name, io.parse_dataset(json.loads(fixtures.joinpath(name).read_text())))
        for name in ("example3_dataset.json", "nipmc_violation.json")
    ]
    rng = random.Random(29)
    cases += [(f"generated/{i}", random_generated_dataset(rng)) for i in range(6)]
    cases += [(f"swap/{i}", _swap_fixture(*p)) for i, p in enumerate(SWAP_PARAMS)]
    cases += [("two priors", two_prior_dataset()), ("tied deviations", tied_deviations_dataset())]
    return cases


class TestAssemblyAgainstReference:
    """``build_farkas_system`` builds, field by field, the system that the
    Fraction-by-Fraction reference assembly builds."""

    def test_every_field_matches_the_reference(self):
        cases = reference_cases()
        sizes = {len(ds.observations) for _, ds in cases}
        assert 1 in sizes and max(sizes) >= 8
        for name, ds in cases:
            got, want = build_farkas_system(ds), reference_farkas_system(ds)
            for field in fields(FarkasSystem):
                assert getattr(got, field.name) == getattr(want, field.name), (name, field.name)
            assert got == want

    def test_ties_go_to_the_lowest_index(self):
        """Every row of the tied dataset whose deviation acts tie keeps the
        first of them, and there are such rows against both menus."""
        ds = tied_deviations_dataset()
        system = build_farkas_system(ds)
        tied = set()
        for oa, ob, ai, bi in system.rows:
            mean = ds.observations[oa].summary.act_means[ai]
            values = [utility(act, mean) for act in ds.observations[ob].menu.acts]
            best = [k for k, v in enumerate(values) if v == max(values)]
            assert bi == best[0]
            if len(best) > 1:
                tied.add(ob)
        assert tied == {0, 1}

    def test_one_prior_distribution_per_prior_object(self, count_builds):
        """One assembly builds one ``Prior.distribution`` per prior object,
        an equal prior held in a distinct object included, and one
        ``Observation.summary`` per observation object, a repeated one
        counted once; a second assembly builds neither."""
        built = count_builds(Prior, "distribution")
        summarized = count_builds(Observation, "summary")
        ds = two_prior_dataset()
        first, second = ds.observations
        copy = replace(first, prior=Prior(first.prior.state_space, tuple(first.prior.weights)))
        assert copy.prior == first.prior and copy.prior is not first.prior
        ds = replace(ds, observations=(first, second, copy, second))
        build_farkas_system(ds)
        assert [id(p) for p in built] == [id(first.prior), id(second.prior), id(copy.prior)]
        assert [id(o) for o in summarized] == [id(first), id(second), id(copy)]
        build_farkas_system(ds)
        assert (len(built), len(summarized)) == (3, 3)
