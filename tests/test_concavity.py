"""Concavity predicate and the sufficient-certificate search."""

import itertools
import random
from fractions import Fraction as F

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
from infocost import lp
from infocost.axioms import build_farkas_system
from infocost.concavity import BUDGET_EXCEEDED, CERTIFIED, _assignment_program
from infocost.model import indirect_utility


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
        import itertools

        from infocost import lp
        from infocost.axioms import build_farkas_system
        from infocost.concavity import _assignment_program

        ds = two_menu_concave_dataset()
        system = build_farkas_system(ds)
        n = len(ds.observations)
        programs = [
            _assignment_program(ds, system, assignment)
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
            program = _assignment_program(ds, system, assignment)
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
