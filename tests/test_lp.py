"""The exact simplex kernel.

The independent oracle enumerates basic solutions outright: every
subset of active constraints of full size, solved by exact Gaussian
elimination, filtered for feasibility. On bounded programs the best
vertex value must match the simplex value exactly.
"""

import itertools
import math
from dataclasses import replace
import random
from fractions import Fraction as F

import pytest

from infocost import ForwardProblem, lp, solve_forward
from infocost.lp import (
    LE,
    EQ,
    GE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    LinearProgram,
    LPResourceError,
    constraint,
    dual,
    dual_basis,
    satisfies,
    solve,
    to_lp_text,
    verify_certificate,
)


def gaussian_solve(rows, rhs):
    """Exact solve of a square system; None if singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = F(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def dense_rows(program: LinearProgram):
    rows = []
    for con in program.constraints:
        row = [F(0)] * program.num_vars
        for j, v in con.terms:
            row[j] += v
        rows.append((row, con.relation, con.rhs))
    return rows


def vertex_oracle(program: LinearProgram):
    """Best objective over all vertices; assumes all variables nonnegative.

    Candidate vertices come from choosing num_vars active conditions among
    constraint rows and variable floors. Returns (status, value) where
    status ignores unboundedness (callers use bounded programs).
    """
    n = program.num_vars
    rows = dense_rows(program)
    conditions = [(row, rhs) for row, _, rhs in rows]
    floors = []
    for j in range(n):
        row = [F(0)] * n
        row[j] = F(1)
        floors.append((row, F(0)))
    all_conditions = conditions + floors
    best = None
    feasible_found = False
    for combo in itertools.combinations(range(len(all_conditions)), n):
        mat = [all_conditions[k][0] for k in combo]
        vec = [all_conditions[k][1] for k in combo]
        x = gaussian_solve(mat, vec)
        if x is None:
            continue
        if not satisfies(program, x):
            continue
        feasible_found = True
        val = sum(v * x[j] for j, v in program.objective)
        if best is None:
            best = val
        elif program.sense == lp.MAX:
            best = max(best, val)
        else:
            best = min(best, val)
    if not feasible_found:
        return INFEASIBLE, None
    return OPTIMAL, best


def assert_optimal_with_duals(program: LinearProgram, out, value) -> None:
    """``out`` is optimal at ``value`` with feasible duals, ``b . y == value``."""
    assert out.status == OPTIMAL
    assert satisfies(program, out.x)
    assert out.objective_value == value
    y = out.duals
    flip = 1 if program.sense == lp.MIN else -1
    for yi, con in zip(y, program.constraints):
        if con.relation == LE:
            assert flip * yi <= 0
        elif con.relation == GE:
            assert flip * yi >= 0
    cost = dict(program.objective)
    for j in range(program.num_vars):
        reduced = cost.get(j, F(0)) - sum(
            yi * v for yi, con in zip(y, program.constraints) for k, v in con.terms if k == j
        )
        if program.nonnegative[j]:
            assert flip * reduced >= 0
        else:
            assert reduced == 0
    assert sum(yi * con.rhs for yi, con in zip(y, program.constraints)) == value


class TestHandCases:
    def test_one_dimensional_max(self):
        program = LinearProgram(
            num_vars=1,
            nonnegative=(True,),
            constraints=(constraint({0: F(1)}, LE, F(3)),),
            objective=((0, F(1)),),
            sense=lp.MAX,
        )
        out = solve(program)
        assert out.status == OPTIMAL
        assert out.x == (F(3),)
        assert out.objective_value == F(3)

    def test_one_dimensional_infeasible_with_certificate(self):
        program = LinearProgram(
            num_vars=1,
            nonnegative=(True,),
            constraints=(constraint({0: F(1)}, LE, F(-1)),),
        )
        out = solve(program)
        assert out.status == INFEASIBLE
        assert out.certificate is not None
        assert verify_certificate(program, out.certificate)

    def test_classic_two_variable_max(self):
        # max 3x + 2y st 2x + y <= 10, x + y <= 8, x <= 4
        program = LinearProgram(
            num_vars=2,
            nonnegative=(True, True),
            constraints=(
                constraint({0: F(2), 1: F(1)}, LE, F(10)),
                constraint({0: F(1), 1: F(1)}, LE, F(8)),
                constraint({0: F(1)}, LE, F(4)),
            ),
            objective=((0, F(3)), (1, F(2))),
            sense=lp.MAX,
        )
        out = solve(program)
        assert out.status == OPTIMAL
        assert out.x == (F(2), F(6))
        assert out.objective_value == F(18)

    def test_equality_and_free_variable(self):
        # free y: min y st x + y = 2, x <= 1  ->  y >= 1
        program = LinearProgram(
            num_vars=2,
            nonnegative=(True, False),
            constraints=(
                constraint({0: F(1), 1: F(1)}, EQ, F(2)),
                constraint({0: F(1)}, LE, F(1)),
            ),
            objective=((1, F(1)),),
            sense=lp.MIN,
        )
        out = solve(program)
        assert out.status == OPTIMAL
        assert out.objective_value == F(1)

    def test_unbounded_detected(self):
        program = LinearProgram(
            num_vars=1,
            nonnegative=(True,),
            constraints=(constraint({0: F(1)}, GE, F(1)),),
            objective=((0, F(1)),),
            sense=lp.MAX,
        )
        assert solve(program).status == UNBOUNDED

    def test_feasibility_only_returns_a_point(self):
        program = LinearProgram(
            num_vars=2,
            nonnegative=(True, True),
            constraints=(
                constraint({0: F(1), 1: F(2)}, GE, F(1)),
                constraint({0: F(1), 1: F(1)}, LE, F(3)),
            ),
        )
        out = solve(program)
        assert out.status == lp.FEASIBLE
        assert satisfies(program, out.x)

    def test_degenerate_cycling_guard(self):
        # Beale's classic cycling example; Bland's rule must terminate.
        program = LinearProgram(
            num_vars=4,
            nonnegative=(True,) * 4,
            constraints=(
                constraint({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, LE, F(0)),
                constraint({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, LE, F(0)),
                constraint({2: F(1)}, LE, F(1)),
            ),
            objective=((0, F(3, 4)), (1, F(-150)), (2, F(1, 50)), (3, F(-6))),
            sense=lp.MAX,
        )
        out = solve(program)
        assert out.status == OPTIMAL
        assert out.objective_value == F(1, 20)

    def test_redundant_equality_row_is_dropped(self):
        # The second row doubles the first: phase one ends with its
        # artificial basic at 0 in a row that is zero everywhere else.
        program = LinearProgram(
            num_vars=2,
            nonnegative=(True, True),
            constraints=(
                constraint({0: F(1), 1: F(1)}, EQ, F(2)),
                constraint({0: F(2), 1: F(2)}, EQ, F(4)),
                constraint({0: F(1)}, LE, F(3)),
            ),
            objective=((1, F(-1)),),
            sense=lp.MIN,
        )
        out = solve(program)
        assert out.x == (F(0), F(2))
        assert_optimal_with_duals(program, out, F(-2))

    def test_artificial_left_on_a_negative_entry(self):
        # y = 1 and -x + y - z = 1 tie in the ratio test, so phase one
        # ends with the second row's artificial basic at 0 in the row
        # -x - z = 0. The drive-out pivots on its entry -1, and phase two
        # must then see z's entry in that row as positive: raising z
        # along y + z <= 2 instead would make x negative.
        program = LinearProgram(
            num_vars=3,
            nonnegative=(True, True, True),
            constraints=(
                constraint({1: F(1)}, EQ, F(1)),
                constraint({0: F(-1), 1: F(1), 2: F(-1)}, EQ, F(1)),
                constraint({1: F(1), 2: F(1)}, LE, F(2)),
            ),
            objective=((2, F(-1)),),
            sense=lp.MIN,
        )
        out = solve(program)
        assert out.x == (F(0), F(1), F(0))
        assert_optimal_with_duals(program, out, F(0))


class TestRandomizedAgainstOracle:
    def random_program(self, rng: random.Random) -> LinearProgram:
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        cons = []
        for _ in range(m):
            coeffs = {
                j: F(rng.randint(-4, 4)) for j in range(n) if rng.random() < 0.8
            }
            coeffs = {j: v for j, v in coeffs.items() if v}
            if not coeffs:
                coeffs = {rng.randrange(n): F(1)}
            rel = rng.choice([LE, LE, GE, EQ])
            cons.append(constraint(coeffs, rel, F(rng.randint(-3, 6))))
        # box to keep the program bounded for the vertex oracle
        cons.append(constraint({j: F(1) for j in range(n)}, LE, F(12)))
        objective = tuple((j, F(rng.randint(-3, 3))) for j in range(n))
        return LinearProgram(
            num_vars=n,
            nonnegative=(True,) * n,
            constraints=tuple(cons),
            objective=objective,
            sense=rng.choice([lp.MAX, lp.MIN]),
        )

    def test_status_and_value_match_vertex_enumeration(self):
        rng = random.Random(101)
        infeasible_seen = 0
        for _ in range(120):
            program = self.random_program(rng)
            got = solve(program)
            want_status, want_value = vertex_oracle(program)
            assert got.status == want_status
            if want_status == OPTIMAL:
                assert got.objective_value == want_value
                assert satisfies(program, got.x)
            else:
                infeasible_seen += 1
                assert verify_certificate(program, got.certificate)
        assert infeasible_seen > 5

    def test_exactness_of_returned_points(self):
        rng = random.Random(103)
        for _ in range(40):
            program = self.random_program(rng)
            out = solve(program)
            if out.x is not None:
                assert satisfies(program, out.x)

    def test_mutual_exclusivity(self):
        rng = random.Random(107)
        for _ in range(60):
            out = solve(self.random_program(rng))
            if out.status == INFEASIBLE:
                assert out.x is None and out.certificate is not None
            else:
                assert out.certificate is None and out.x is not None

    def test_row_scaling_preserves_status(self):
        rng = random.Random(109)
        for _ in range(40):
            program = self.random_program(rng)
            scaled_cons = []
            for con in program.constraints:
                if con.relation == LE:
                    k = F(rng.randint(1, 5))
                    scaled_cons.append(
                        constraint(
                            {j: k * v for j, v in con.terms}, LE, k * con.rhs
                        )
                    )
                else:
                    scaled_cons.append(con)
            scaled = LinearProgram(
                num_vars=program.num_vars,
                nonnegative=program.nonnegative,
                constraints=tuple(scaled_cons),
                objective=program.objective,
                sense=program.sense,
            )
            assert solve(program).status == solve(scaled).status


class TestAgainstHighs:
    """Programs too large for the vertex oracle, against HiGHS in floats."""

    def random_program(self, rng: random.Random) -> LinearProgram:
        n = rng.randint(10, 30)
        nonnegative = tuple(rng.random() < 0.7 for _ in range(n))
        # Rows hold at a seeded point (tight on = rows) unless shifted, so
        # most programs are feasible and some are not.
        point = [F(rng.randint(0 if nonnegative[j] else -4, 4), rng.randint(1, 3)) for j in range(n)]
        cons = []
        for _ in range(rng.randint(10, 22)):
            coeffs = {j: F(rng.randint(-5, 5)) for j in rng.sample(range(n), rng.randint(1, 6))}
            value = sum(v * point[j] for j, v in coeffs.items())
            rel = rng.choice([LE, LE, GE, EQ])
            slack = F(rng.randint(0, 4), rng.randint(1, 2))
            if rng.random() < 0.06:
                slack = -slack - 1
            rhs = {LE: value + slack, GE: value - slack, EQ: value}[rel]
            cons.append(constraint(coeffs, rel, rhs))
        for _ in range(rng.randint(0, 3)):  # duplicated or negated rows
            con = rng.choice(cons)
            if rng.random() < 0.5:
                cons.append(con)
            else:
                negated = {LE: GE, GE: LE, EQ: EQ}[con.relation]
                cons.append(constraint({j: -v for j, v in con.terms}, negated, -con.rhs))
        if rng.random() < 0.7:  # a box keeps most programs bounded
            for j in range(n):
                cons.append(constraint({j: F(1)}, LE, F(10)))
                if not nonnegative[j]:
                    cons.append(constraint({j: F(1)}, GE, F(-10)))
        return LinearProgram(
            num_vars=n,
            nonnegative=nonnegative,
            constraints=tuple(cons),
            objective=tuple((j, F(rng.randint(-3, 3), rng.randint(1, 4))) for j in range(n)),
            sense=rng.choice([lp.MAX, lp.MIN]),
        )

    def test_status_and_optimum_match_highs(self):
        pytest.importorskip("scipy")
        from scipy.optimize import linprog

        rng = random.Random(307)
        statuses = []
        for _ in range(120):
            program = self.random_program(rng)
            out = solve(program)
            sign = 1 if program.sense == lp.MIN else -1
            c = [0.0] * program.num_vars
            for j, v in program.objective:
                c[j] += sign * float(v)
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for row, rel, rhs in dense_rows(program):
                row = [float(v) for v in row]
                if rel == EQ:
                    a_eq.append(row)
                    b_eq.append(float(rhs))
                else:
                    flip = 1 if rel == LE else -1
                    a_ub.append([flip * v for v in row])
                    b_ub.append(flip * float(rhs))
            ref = linprog(
                c,
                A_ub=a_ub or None, b_ub=b_ub or None,
                A_eq=a_eq or None, b_eq=b_eq or None,
                bounds=[(0, None) if nn else (None, None) for nn in program.nonnegative],
                method="highs",
            )
            assert ref.status in (0, 2, 3), ref.message
            assert out.status == {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
            if out.status == OPTIMAL:
                assert satisfies(program, out.x)
                assert float(out.objective_value) == pytest.approx(sign * ref.fun, rel=1e-7, abs=1e-7)
            elif out.status == INFEASIBLE:
                assert verify_certificate(program, out.certificate)
            statuses.append(out.status)
        assert min(statuses.count(s) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 5


def textbook_eliminate(row, prow, pc, support):
    """Reference elimination: ``row * piv - f * prow`` over every entry,
    the entries past the pivot row's end (the objective's scale) times
    ``piv``, divided by the gcd. ``support`` is ignored."""
    piv, f = prow[pc], row[pc]
    out = [v * piv - f * p for v, p in zip(row, prow)]
    out += [v * piv for v in row[len(prow):]]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def traced(run, eliminate):
    """``run()`` with ``eliminate`` as the kernel's elimination step, and
    the pivots ``(row, column)`` it takes, one list per objective set."""
    phases = []
    set_objective, pivot = lp._Tableau.set_objective, lp._Tableau.pivot

    def traced_set_objective(tab, costs):
        phases.append([])
        set_objective(tab, costs)

    def traced_pivot(tab, pr, pc):
        phases[-1].append((pr, pc))
        pivot(tab, pr, pc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_eliminate", eliminate)
        mp.setattr(lp._Tableau, "set_objective", traced_set_objective)
        mp.setattr(lp._Tableau, "pivot", traced_pivot)
        return run(), phases


class TestEliminationPath:
    """The kernel's elimination (gcd-reduced multipliers, the pivot row
    subtracted on its support only) must give the same integers as the
    textbook one, so every pivot and every outcome is the same."""

    def random_pair(self, rng: random.Random):
        n = rng.randint(2, 14)
        pc = rng.randrange(n)

        def entry(density):
            return rng.choice([-1, 1]) * rng.randint(1, 60) if rng.random() < density else 0

        prow = [entry(0.4) for _ in range(n)]
        prow[pc] = rng.choice([1, rng.randint(1, 40)])
        row = [entry(0.5) for _ in range(n + rng.randint(0, 1))]
        row[pc] = rng.choice([
            rng.choice([-1, 1]) * rng.randint(1, 40),
            -prow[pc] * rng.randint(1, 5),  # a pivot that divides f, f negative
            prow[pc] * rng.randint(1, 5),
        ])
        g = rng.randint(1, 6)  # a row that is not primitive
        return [g * v for v in row], prow, pc

    def test_eliminate_matches_the_textbook_step(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(2000):
            row, prow, pc = self.random_pair(rng)
            piv, f = prow[pc], row[pc]
            support = [j for j, v in enumerate(prow) if v]
            before = list(row)
            out = lp._eliminate(row, prow, pc, support)
            assert row == before
            assert out == textbook_eliminate(row, prow, pc, support)
            assert len(out) == len(row) and out[pc] == 0
            assert math.gcd(*out) in (0, 1)
            # a positive multiple of row - (f / piv) * prow
            exact = [F(v) - F(f, piv) * p for v, p in zip(row, prow)] + row[len(prow):]
            k = next((j for j, v in enumerate(out) if v), None)
            if k is not None:
                t = out[k] / exact[k]
                assert t > 0
                assert all(v == t * e for v, e in zip(out, exact))
            seen.add((f % piv == 0, f < 0, piv == 1, len(row) > len(prow)))
        assert len(seen) >= 12

    def assert_same_path(self, run):
        fast, fast_phases = traced(run, lp._eliminate)
        slow, slow_phases = traced(run, textbook_eliminate)
        assert fast == slow
        assert fast_phases == slow_phases
        return fast, fast_phases

    def test_random_programs_take_the_same_pivots(self):
        rng = random.Random(307)
        statuses = set()
        for _ in range(120):
            program = TestAgainstHighs().random_program(rng)
            outcome, _ = self.assert_same_path(lambda: solve(program))
            statuses.add(outcome.status)
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_forward_grid_solve_takes_the_same_pivots(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost
    ):
        problem = ForwardProblem.build(
            four_state_uniform_prior, three_act_menu, steep_pooling_cost, uniform_points=60
        )
        assert len(problem.grid) >= 60
        _, phases = self.assert_same_path(lambda: solve_forward(problem))
        # four programs, two phases each but the dual's: it starts from the
        # basis complementary to the program's optimal one and skips phase
        # one; its install pivots run through the same elimination
        assert len(phases) == 7
        assert sum(map(len, phases)) > 60


class TestDuals:
    """Optimal duals checked by direct multiplication against the program."""

    def random_program(self, rng: random.Random) -> LinearProgram:
        n = rng.randint(1, 4)
        nonnegative = tuple(rng.random() < 0.6 for _ in range(n))
        cons = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {
                j: F(rng.randint(-4, 4), rng.randint(1, 3))
                for j in range(n)
                if rng.random() < 0.8
            }
            rel = rng.choice([LE, GE, EQ])
            cons.append(constraint(coeffs, rel, F(rng.randint(-5, 6), rng.randint(1, 2))))
        # a box keeps every program bounded
        for j in range(n):
            cons.append(constraint({j: F(1)}, LE, F(10)))
            if not nonnegative[j]:
                cons.append(constraint({j: F(1)}, GE, F(-10)))
        return LinearProgram(
            num_vars=n,
            nonnegative=nonnegative,
            constraints=tuple(cons),
            objective=tuple(
                (j, F(rng.randint(-3, 3), rng.randint(1, 4))) for j in range(n)
            ),
            sense=rng.choice([lp.MAX, lp.MIN]),
        )

    def test_duals_are_feasible_and_match_the_optimum(self):
        rng = random.Random(211)
        seen = set()
        for _ in range(150):
            program = self.random_program(rng)
            out = solve(program)
            if out.status != OPTIMAL:
                assert out.duals is None
                continue
            y = out.duals
            assert len(y) == len(program.constraints)
            # MIN signs as documented; MAX flips them
            flip = 1 if program.sense == lp.MIN else -1
            for yi, con in zip(y, program.constraints):
                if con.relation == LE:
                    assert flip * yi <= 0
                elif con.relation == GE:
                    assert flip * yi >= 0
            cost = dict(program.objective)
            for j in range(program.num_vars):
                reduced = cost.get(j, F(0)) - sum(
                    yi * v
                    for yi, con in zip(y, program.constraints)
                    for k, v in con.terms
                    if k == j
                )
                if program.nonnegative[j]:
                    assert flip * reduced >= 0
                else:
                    assert reduced == 0
            by = sum(yi * con.rhs for yi, con in zip(y, program.constraints))
            cx = sum(v * out.x[j] for j, v in program.objective)
            assert by == cx == out.objective_value
            seen.add(program.sense)
            seen.update(con.relation for con in program.constraints)
            seen.update(program.nonnegative)
        assert seen == {lp.MIN, lp.MAX, LE, GE, EQ, True, False}

    def test_feasibility_and_infeasibility_carry_no_duals(self):
        feasible = LinearProgram(
            num_vars=1, nonnegative=(True,), constraints=(constraint({0: F(1)}, LE, F(1)),)
        )
        infeasible = LinearProgram(
            num_vars=1, nonnegative=(True,), constraints=(constraint({0: F(1)}, LE, F(-1)),)
        )
        assert solve(feasible).duals is None
        assert solve(infeasible).duals is None


class TestBatchAndLimits:
    def test_pivot_limit_raises(self):
        program = LinearProgram(
            num_vars=3,
            nonnegative=(True,) * 3,
            constraints=(
                constraint({0: F(1), 1: F(2), 2: F(1)}, LE, F(10)),
                constraint({0: F(2), 1: F(1), 2: F(3)}, LE, F(10)),
            ),
            objective=((0, F(1)), (1, F(1)), (2, F(1))),
            sense=lp.MAX,
        )
        with pytest.raises(LPResourceError):
            solve(program, pivot_limit=0)


class TestCertificateStructure:
    def test_free_column_combination_is_zero(self):
        # x free, y >= 0: x <= 0, -x <= -1 is infeasible
        program = LinearProgram(
            num_vars=2,
            nonnegative=(False, True),
            constraints=(
                constraint({0: F(1), 1: F(1)}, LE, F(0)),
                constraint({0: F(-1)}, LE, F(-1)),
                constraint({1: F(-1)}, LE, F(0)),
            ),
        )
        out = solve(program)
        assert out.status == INFEASIBLE
        y = out.certificate
        assert verify_certificate(program, y)
        # the free column's aggregated coefficient vanishes exactly
        combined = y[0] * F(1) + y[1] * F(-1)
        assert combined == 0

    def test_scaled_certificate_still_valid(self, three_act_dataset):
        program = LinearProgram(
            num_vars=1,
            nonnegative=(True,),
            constraints=(constraint({0: F(1)}, LE, F(-1)),),
        )
        out = solve(program)
        doubled = tuple(2 * v for v in out.certificate)
        assert verify_certificate(program, doubled)



class TestDual:
    """The dual of a max program over <= and = rows, built by transposition."""

    def random_program(self, rng: random.Random) -> LinearProgram:
        n = rng.randint(1, 4)
        nonnegative = tuple(rng.random() < 0.6 for _ in range(n))
        cons = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {
                j: F(rng.randint(-4, 4), rng.randint(1, 3))
                for j in range(n)
                if rng.random() < 0.8
            }
            rel = rng.choice([LE, EQ])
            cons.append(constraint(coeffs, rel, F(rng.randint(-5, 6), rng.randint(1, 2))))
        # a box in <= rows keeps every program bounded
        for j in range(n):
            cons.append(constraint({j: F(1)}, LE, F(10)))
            if not nonnegative[j]:
                cons.append(constraint({j: F(-1)}, LE, F(10)))
        return LinearProgram(
            num_vars=n,
            nonnegative=nonnegative,
            constraints=tuple(cons),
            objective=tuple(
                (j, F(rng.randint(-3, 3), rng.randint(1, 4))) for j in range(n)
            ),
            sense=lp.MAX,
        )

    def test_strong_duality_and_feasible_duals(self):
        rng = random.Random(223)
        seen = set()
        optimal = 0
        for _ in range(150):
            program = self.random_program(rng)
            out = solve(program)
            back = solve(dual(program))
            if out.status != OPTIMAL:
                assert out.status == INFEASIBLE
                assert back.status != OPTIMAL
                continue
            optimal += 1
            assert back.status == OPTIMAL
            assert back.objective_value == out.objective_value
            assert satisfies(dual(program), out.duals)
            seen.update(con.relation for con in program.constraints)
            seen.update(program.nonnegative)
        assert seen == {LE, EQ, True, False}
        assert optimal >= 50

    def test_only_max_programs_over_le_and_eq_rows(self):
        row = constraint({0: F(1)}, LE, F(1))
        program = LinearProgram(
            num_vars=1, nonnegative=(True,), constraints=(row,),
            objective=((0, F(1)),), sense=lp.MAX,
        )
        dual(program)
        for bad in (
            replace(program, sense=lp.MIN),
            replace(program, sense=None),
            replace(program, constraints=(row, constraint({0: F(1)}, GE, F(0)))),
        ):
            with pytest.raises(ValueError):
                dual(bad)


def simplex_runs(run):
    """``run()`` and the pivots of each ``run_simplex`` call it made."""
    runs = []
    run_simplex = lp._Tableau.run_simplex

    def counted(tab, banned):
        before = tab.pivots
        status = run_simplex(tab, banned)
        runs.append(tab.pivots - before)
        return status

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._Tableau, "run_simplex", counted)
        return run(), runs


class TestStartingBasis:
    """``solve(..., basis=...)``: a feasible basis skips phase one, the
    complementary basis of the dual is optimal, and any basis that cannot
    be installed gives exactly the cold outcome."""

    # max x0 + x1 over x0 + x1 <= 4, x0 - x1 <= 2: optimum (3, 1)
    square = LinearProgram(
        num_vars=2,
        nonnegative=(True, True),
        constraints=(
            constraint({0: F(1), 1: F(1)}, LE, F(4)),
            constraint({0: F(1), 1: F(-1)}, LE, F(2)),
        ),
        objective=((0, F(1)), (1, F(1))),
        sense=lp.MAX,
    )

    def test_complementary_basis_is_optimal_for_the_dual(self):
        rng = random.Random(223)
        optimal = 0
        for _ in range(300):
            program = TestDual().random_program(rng)
            out = solve(program)
            if out.status != OPTIMAL:
                continue
            optimal += 1
            back = dual(program)
            warm, runs = simplex_runs(lambda: solve(back, basis=dual_basis(program, out)))
            assert runs == [0]  # phase two only, and no pivot in it
            assert warm.status == OPTIMAL
            assert warm.objective_value == solve(back).objective_value == out.objective_value
            assert satisfies(back, warm.x)
            assert satisfies(program, warm.duals)
        assert optimal >= 100

    def test_final_basis_restarts_without_pivots(self):
        rng = random.Random(307)
        statuses = set()
        for _ in range(120):
            program = TestAgainstHighs().random_program(rng)
            for candidate in (program, replace(program, objective=(), sense=None)):
                out = solve(candidate)
                if out.basis is None:
                    assert out.status in (INFEASIBLE, UNBOUNDED)
                    continue
                again, runs = simplex_runs(lambda: solve(candidate, basis=out.basis))
                assert again == out
                assert runs == ([0] if candidate.sense else [])
                statuses.add(out.status)
        assert statuses == {OPTIMAL, lp.FEASIBLE}

    @pytest.mark.parametrize(
        "basis",
        [
            Basis(variables=((2, 1),)),  # no variable 2
            Basis(variables=((0, -1),)),  # x0 has no negative part
            Basis(variables=((0, 2),)),
            Basis(slacks=(2,)),  # no row 2
        ],
    )
    def test_unknown_columns_fall_back_to_the_cold_solve(self, basis):
        assert solve(self.square, basis=basis) == solve(self.square)

    def test_singular_basis_falls_back_to_the_cold_solve(self):
        doubled = replace(self.square, constraints=(
            constraint({0: F(1), 1: F(1)}, LE, F(4)),
            constraint({0: F(2), 1: F(2)}, LE, F(10)),
        ))
        basis = Basis(variables=((0, 1), (1, 1)))
        assert solve(doubled, basis=basis) == solve(doubled)
        free = replace(self.square, nonnegative=(True, False))
        basis = Basis(variables=((1, 1), (1, -1)))
        assert solve(free, basis=basis) == solve(free)

    def test_infeasible_basis_falls_back_to_the_cold_solve(self):
        # x1 and the first slack basic: x1 = -2
        basis = Basis(variables=((1, 1),), slacks=(0,))
        assert solve(self.square, basis=basis) == solve(self.square)
        # an = row left to its artificial, at level 3
        pinned = replace(self.square, constraints=(
            constraint({0: F(1), 1: F(1)}, EQ, F(3)),
            constraint({0: F(1), 1: F(-1)}, LE, F(2)),
        ))
        basis = Basis(slacks=(1,))
        assert solve(pinned, basis=basis) == solve(pinned)

    def test_install_pivots_count_against_the_limit(self):
        basis = Basis(variables=((0, 1), (1, 1)))
        with pytest.raises(LPResourceError):
            solve(self.square, basis=basis, pivot_limit=1)
        out, runs = simplex_runs(lambda: solve(self.square, basis=basis, pivot_limit=2))
        assert out.x == (F(3), F(1)) and runs == [0]


def test_lp_text_dump_round_readable():
    program = LinearProgram(
        num_vars=2,
        nonnegative=(True, False),
        constraints=(
            constraint({0: F(1), 1: F(-1, 2)}, LE, F(3)),
            constraint({0: F(1)}, GE, F(1)),
        ),
        objective=((0, F(2)),),
        sense=lp.MAX,
    )
    text = to_lp_text(program, name="sample")
    assert "Maximize" in text
    assert "Subject To" in text
    assert "x1 free" in text
    assert text.endswith("End\n")
