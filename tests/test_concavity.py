"""Concavity predicate and the sufficient-certificate search."""

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from infocost import (
    Act,
    Menu,
    PiecewiseScalarFunction,
    Prior,
    StateSpace,
    certify_concave,
    generate_dataset,
    is_concave,
    price_function,
    variance_cost,
    verify_rationalization,
)
from infocost import cli, concavity, io, lp
from infocost.axioms import build_farkas_system
from infocost.concavity import BUDGET_EXCEEDED, CERTIFIED, UNDETERMINED
from infocost.model import indirect_utility


def assignment_program(ds, system, assignment) -> lp.LinearProgram:
    """The search's program of a full assignment: the base system plus
    the row block of every state's generator."""
    return concavity._prefix_program(
        system.to_linear_program(),
        [concavity._state_rows(ds, system, zi, gen) for zi, gen in enumerate(assignment)],
    )


class TestIsConcave:
    def test_concave_quadratic(self):
        assert is_concave(variance_cost(F(1), F(1, 2)))

    def test_convex_quadratic(self):
        assert not is_concave(PiecewiseScalarFunction.quadratic(F(1), F(0), F(0)))

    def test_steep_trough_is_not_concave(self, steep_pooling_cost):
        # slopes run 1/6, -30, +30, -1/6
        assert not is_concave(steep_pooling_cost)

    def test_flattened_variant_is_concave(self, concavified_cost):
        # slopes run 1/6, 0, -1/6
        assert is_concave(concavified_cost)

    def test_piecewise_constant(self):
        assert is_concave(PiecewiseScalarFunction.constant(F(3)))


def two_menu_concave_dataset():
    space = StateSpace(states=(F(0), F(1, 2), F(1)))
    prior = Prior(state_space=space, weights=(F(1, 4), F(1, 2), F(1, 4)))
    m1 = Menu(id="m1", acts=(Act("a", F(1, 2), F(0)), Act("b", F(0), F(1, 2))))
    m2 = Menu(id="m2", acts=(Act("c", F(1, 4), F(0)), Act("d", F(0), F(1))))
    cost = PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 3)), (F(1, 3), F(0)), (F(2, 3), F(0)), (F(1), F(-1, 3))]
    )
    return generate_dataset(prior, [m1, m2], cost)


class TestCertifyConcave:
    def test_single_observation_certifies_immediately(self, three_act_dataset):
        verdict = certify_concave(three_act_dataset, budget=10)
        assert verdict.status == CERTIFIED
        assert verdict.programs_solved == 1
        assert verdict.assignment == (0, 0, 0, 0)
        # with flat envelopes the cost is the negated indirect utility,
        # and a convex indirect utility negates to a concave cost
        assert is_concave(verdict.cost)

    def test_two_menu_dataset_certifies_within_the_bound(self):
        ds = two_menu_concave_dataset()
        n = len(ds.observations)
        bound = n ** len(ds.state_space.states)
        verdict = certify_concave(ds, budget=bound)
        assert verdict.status == CERTIFIED
        assert verdict.programs_solved <= bound

    def test_certificates_are_sound(self):
        ds = two_menu_concave_dataset()
        verdict = certify_concave(ds)
        assert verdict.status == CERTIFIED
        assert is_concave(verdict.cost)
        from infocost import price_function

        prices = [
            price_function(verdict.multipliers, oi)
            for oi in range(len(ds.observations))
        ]
        assert verify_rationalization(ds, verdict.cost, prices).all_ok

    def test_budget_zero_exceeds_immediately(self, three_act_dataset):
        verdict = certify_concave(three_act_dataset, budget=0)
        assert verdict.status == BUDGET_EXCEEDED
        assert verdict.programs_solved == 0

    def test_budget_counts_solved_programs(self):
        ds = two_menu_concave_dataset()
        verdict = certify_concave(ds, budget=1)
        assert verdict.status in (CERTIFIED, BUDGET_EXCEEDED)
        assert verdict.programs_solved == 1

    def test_determinism(self):
        ds = two_menu_concave_dataset()
        a = certify_concave(ds)
        b = certify_concave(ds)
        assert a.assignment == b.assignment
        assert a.programs_solved == b.programs_solved
        assert a.cost.breakpoint_values() == b.cost.breakpoint_values()

    def test_batch_of_assignment_programs_agrees_with_the_search(self):
        """Solving all assignment programs in one batch finds a feasible one
        exactly when the search certifies."""
        ds = two_menu_concave_dataset()
        system = build_farkas_system(ds)
        n = len(ds.observations)
        programs = [
            assignment_program(ds, system, assignment)
            for assignment in itertools.product(
                range(n), repeat=len(ds.state_space.states)
            )
        ]
        assert len(programs) == n ** len(ds.state_space.states)
        outcomes = [lp.solve(p) for p in programs]
        assert len(outcomes) == len(programs)
        any_feasible = any(o.status == lp.FEASIBLE for o in outcomes)
        verdict = certify_concave(ds)
        assert any_feasible == (verdict.status == CERTIFIED)

    def test_generator_rows_are_price_differences(self):
        """Each generator row times any lam is the generator's price minus
        the other observation's price at the state, bounded by the gap in
        indirect utility there."""
        ds = two_menu_concave_dataset()
        system = build_farkas_system(ds)
        base = len(system.rows)
        n = len(ds.observations)
        rng = random.Random(41)
        for assignment in itertools.product(range(n), repeat=len(ds.state_space.states)):
            program = assignment_program(ds, system, assignment)
            lam = {key: F(rng.randint(-6, 6), rng.randint(1, 4)) for key in system.columns}
            values = [lam[key] for key in system.columns]
            rows = iter(program.constraints[base:])
            for zi, z in enumerate(ds.state_space.states):
                gen = assignment[zi]
                if (gen, z) in lam:
                    assert next(rows).relation == lp.EQ  # vanishing kink
                for oi, obs in enumerate(ds.observations):
                    if oi == gen:
                        continue
                    row = next(rows)
                    lhs = sum(v * values[j] for j, v in row.terms)
                    assert row.relation == lp.LE
                    assert lhs == price_function(lam, gen)(z) - price_function(lam, oi)(z)
                    assert row.rhs == indirect_utility(
                        ds.observations[gen].menu, z
                    ) - indirect_utility(obs.menu, z)
            assert next(rows, None) is None


def dip_dataset(seed, n_states, n_obs, n_acts):
    """Optimal choice data under a cost derivative with a deep convex trough."""
    rng = random.Random(seed)
    interior = set()
    while len(interior) < n_states - 2:
        interior.add(F(rng.randint(1, 23), 24))
    states = (F(0), *sorted(interior), F(1))
    weights = [F(rng.randint(1, 6)) for _ in states]
    prior = Prior(
        state_space=StateSpace(states=states),
        weights=tuple(w / sum(weights) for w in weights),
    )
    lo = F(rng.randint(1, 3), 12)
    hi = 1 - F(rng.randint(1, 3), 12)
    depth = F(rng.randint(4, 12))
    cost = PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 36)), (lo, F(0)), ((lo + hi) / 2, -depth), (hi, F(0)), (F(1), F(-1, 36))]
    )
    menus = [
        Menu(
            id=f"m{i}",
            acts=tuple(
                Act(f"m{i}a{j}", F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8))
                for j in range(n_acts)
            ),
        )
        for i in range(n_obs)
    ]
    return generate_dataset(prior, menus, cost)


def dip_batch():
    """Twenty seeded small datasets, plus three whose search ends undetermined.

    About one S4/N3/K3 draw in a hundred ends undetermined, so those seeds
    are named rather than drawn.
    """
    batch = []
    for seed in range(20):
        rng = random.Random(seed)
        shape = (rng.choice((4, 5)), rng.choice((2, 3)), rng.choice((2, 3)))
        batch.append(dip_dataset(1000 + seed, *shape))
    batch += [dip_dataset(seed, 4, 3, 3) for seed in (22, 46, 813)]
    return batch


def exhaustive_search(ds):
    """Solve every assignment program in lexicographic order; first feasible wins."""
    system = build_farkas_system(ds)
    n = len(ds.observations)
    for assignment in itertools.product(range(n), repeat=len(ds.state_space.states)):
        outcome = lp.solve(assignment_program(ds, system, assignment))
        if outcome.status == lp.FEASIBLE:
            return CERTIFIED, assignment, dict(zip(system.columns, outcome.x))
    return UNDETERMINED, None, None


class TestPrunedSearch:
    def test_same_verdicts_as_exhaustive_enumeration(self):
        statuses = set()
        pruned_undetermined = 0
        for ds in dip_batch():
            verdict = certify_concave(ds)
            expected = exhaustive_search(ds)
            assert (verdict.status, verdict.assignment, verdict.multipliers) == expected
            statuses.add(verdict.status)
            total = len(ds.observations) ** len(ds.state_space.states)
            if verdict.status == UNDETERMINED and verdict.programs_solved < total:
                pruned_undetermined += 1
        assert statuses == {CERTIFIED, UNDETERMINED}
        assert pruned_undetermined >= 1

    @pytest.mark.parametrize("seed, shape", [(1009, (5, 3, 3)), (22, (4, 3, 3))])
    def test_budget_edge(self, seed, shape):
        ds = dip_dataset(seed, *shape)
        verdict = certify_concave(ds)
        assert verdict.programs_solved > 1
        again = certify_concave(ds, budget=verdict.programs_solved)
        assert (again.status, again.assignment, again.programs_solved) == (
            verdict.status,
            verdict.assignment,
            verdict.programs_solved,
        )
        short = certify_concave(ds, budget=verdict.programs_solved - 1)
        assert short.status == BUDGET_EXCEEDED
        assert short.programs_solved == verdict.programs_solved - 1

    def test_corrupted_certificate_is_caught(self, tmp_path, monkeypatch, capsys):
        ds = dip_dataset(22, 4, 3, 3)
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(io.dataset_out(ds)))
        real_solve = lp.solve

        def corrupted(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            if outcome.status != lp.INFEASIBLE:
                return outcome
            y = list(outcome.certificate)
            i = next(i for i, w in enumerate(y) if w != 0)
            y[i] = -y[i]
            return replace(outcome, certificate=tuple(y))

        monkeypatch.setattr(lp, "solve", corrupted)
        with pytest.raises(RuntimeError):
            certify_concave(ds)
        assert cli.main(["concavity", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
