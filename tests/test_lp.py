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

from infocost import (
    ForwardProblem,
    certify_concave,
    check_nipmc,
    explain_violation,
    lp,
    numeric,
    solve_forward,
)
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
from test_axioms import catalog_datasets
from test_cli_golden import CASES, _run


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


def is_improving_ray(program: LinearProgram, d) -> bool:
    """The ray conditions by ``Fraction`` sums: one entry per variable,
    the sign constraints, ``a . d`` at most 0 on ``<=`` rows, 0 on ``=``
    rows and at least 0 on ``>=`` rows, and a strictly better objective
    along ``d``."""
    if len(d) != program.num_vars:
        return False
    if any(v < 0 for v, nonneg in zip(d, program.nonnegative) if nonneg):
        return False
    for row, rel, _ in dense_rows(program):
        s = sum(a * v for a, v in zip(row, d))
        if {LE: s > 0, EQ: s != 0, GE: s < 0}[rel]:
            return False
    gain = sum(v * d[j] for j, v in program.objective)
    return gain > 0 if program.sense == lp.MAX else gain < 0


def reference_satisfies(program: LinearProgram, x) -> bool:
    """Feasibility of a point by ``Fraction`` sums, row by row; a point
    that does not have one coordinate per variable is infeasible."""
    if len(x) != program.num_vars:
        return False
    for j in range(program.num_vars):
        if program.nonnegative[j] and x[j] < 0:
            return False
    for con in program.constraints:
        lhs = sum((v * x[j] for j, v in con.terms if x[j]), start=F(0))
        ok = {LE: lhs <= con.rhs, EQ: lhs == con.rhs, GE: lhs >= con.rhs}[con.relation]
        if not ok:
            return False
    return True


def reference_verify_certificate(program: LinearProgram, y) -> bool:
    """The Farkas conditions for ``y`` by ``Fraction`` sums: one sign-right
    multiplier per row, a combination of the rows that is 0 on every free
    column and nonnegative on every other, and ``b . y < 0``."""
    if len(y) != len(program.constraints):
        return False
    for yi, con in zip(y, program.constraints):
        if con.relation == LE and yi < 0:
            return False
        if con.relation == GE and yi > 0:
            return False
    used = [(yi, con) for yi, con in zip(y, program.constraints) if yi]
    combo = {}
    for yi, con in used:
        for j, v in con.terms:
            combo[j] = combo.get(j, F(0)) + yi * v
    for j, total in combo.items():
        if program.nonnegative[j]:
            if total < 0:
                return False
        elif total != 0:
            return False
    return sum((yi * con.rhs for yi, con in used), start=F(0)) < 0


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
            else:
                assert is_improving_ray(program, out.ray)
                # the check has teeth: the ray with its first nonzero negated fails it
                j = next(j for j, v in enumerate(out.ray) if v)
                mutant = out.ray[:j] + (-out.ray[j],) + out.ray[j + 1:]
                assert not is_improving_ray(program, mutant)
            statuses.append(out.status)
        assert min(statuses.count(s) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 5


def dense(row, width):
    """A kernel row (column -> nonzero integer) as ``width`` integers."""
    out = [0] * width
    for j, v in row.items():
        out[j] = v
    return out


def sparse(values):
    """The kernel's row for a list of integers: its nonzeros by column."""
    return {j: v for j, v in enumerate(values) if v}


def textbook_step(row, prow, pc):
    """Reference elimination on dense rows: ``row * piv - f * prow`` over
    every entry, the entries past the pivot row's end (the objective's
    scale) times ``piv``, divided by the gcd."""
    piv, f = prow[pc], row[pc]
    out = [v * piv - f * p for v, p in zip(row, prow)]
    out += [v * piv for v in row[len(prow):]]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def textbook_eliminate(row, prow, pc):
    """``textbook_step`` on the kernel's rows: both are densified over
    every column up to the last key either holds, and the result is
    given back as a kernel row."""
    width = 1 + max(max(row), max(prow))
    return sparse(textbook_step(dense(row, width), dense(prow, width), pc))


def traced(run, eliminate):
    """``run()`` with ``eliminate`` as the kernel's elimination step, the
    pivots ``(row, column)`` it takes, one list per objective set, and the
    rows and the objective row after each pivot."""
    phases, states = [], []
    set_objective, pivot = lp._Tableau.set_objective, lp._Tableau.pivot

    def traced_set_objective(tab, costs):
        phases.append([])
        set_objective(tab, costs)

    def traced_pivot(tab, pr, pc):
        phases[-1].append((pr, pc))
        pivot(tab, pr, pc)
        # an elimination returns a new row, so the dicts are not copied
        states.append((list(tab.rows), tab.obj))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_eliminate", eliminate)
        mp.setattr(lp._Tableau, "set_objective", traced_set_objective)
        mp.setattr(lp._Tableau, "pivot", traced_pivot)
        return run(), phases, states


class TestEliminationPath:
    """The kernel's elimination (on the nonzeros only, with gcd-reduced
    multipliers) must give the same integers as the dense textbook one, so
    every pivot, every row and every outcome is the same."""

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
        if rng.random() < 0.3:  # an entry that the elimination cancels
            k = rng.choice([j for j in range(n) if j != pc])
            prow[k] = prow[pc] * rng.randint(1, 3)
            row[k] = row[pc] * (prow[k] // prow[pc])
        g = rng.randint(1, 6)  # a row that is not primitive
        return [g * v for v in row], prow, pc

    def test_eliminate_matches_the_textbook_step(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(2000):
            row, prow, pc = self.random_pair(rng)
            piv, f = prow[pc], row[pc]
            before = sparse(row)
            out = lp._eliminate(sparse(row), sparse(prow), pc)
            assert 0 not in out.values() and pc not in out
            assert max(out, default=0) < len(row)
            assert dense(out, len(row)) == textbook_step(row, prow, pc)
            assert math.gcd(*out.values()) in (0, 1)
            # the input row is left as it was
            kept = sparse(row)
            lp._eliminate(kept, sparse(prow), pc)
            assert kept == before
            # a positive multiple of row - (f / piv) * prow
            exact = [F(v) - F(f, piv) * p for v, p in zip(row, prow)] + row[len(prow):]
            k = min(out, default=None)
            if k is not None:
                t = F(out[k]) / exact[k]
                assert t > 0
                assert all(v == t * e for v, e in zip(dense(out, len(row)), exact))
            cancelled = any(row[j] and j != pc and not out.get(j) for j in range(len(prow)))
            seen.add((f % piv == 0, f < 0, piv == 1, len(row) > len(prow), cancelled))
        assert len(seen) >= 24

    def assert_same_path(self, run):
        fast, fast_phases, fast_states = traced(run, lp._eliminate)
        slow, slow_phases, slow_states = traced(run, textbook_eliminate)
        assert fast == slow
        assert fast_phases == slow_phases
        assert fast_states == slow_states
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

    def test_cached_row_forms_build_the_fresh_rows(self):
        """A tableau built from rows whose integer forms an earlier solve
        cached holds the integers of one built from fresh copies of them."""
        rng = random.Random(311)
        for _ in range(120):
            program = rng.choice([TestAgainstHighs(), TestDuals()]).random_program(rng)
            solve(program)
            fresh = replace(program, constraints=tuple(replace(con) for con in program.constraints))
            assert all("scaled" in vars(con) for con in program.constraints)
            assert not any("scaled" in vars(con) for con in fresh.constraints)
            cached = lp._Tableau(program, lp.DEFAULT_PIVOT_LIMIT)
            built = lp._Tableau(fresh, lp.DEFAULT_PIVOT_LIMIT)
            assert (cached.rows, cached.row_scale) == (built.rows, built.row_scale)


class TestRowFormat:
    """After every pivot each row stores nonzeros only, with its basic
    column's entry positive and the gcd of its values 1; the objective row
    too, with no entry at a basic column and a positive scale."""

    def assert_invariants(self, tab):
        rhs, scale = tab.rhs, tab.scale
        for row, b in zip(tab.rows, tab.basis):
            assert 0 not in row.values()
            assert row[b] > 0
            assert math.gcd(*row.values()) == 1
            assert (rhs in row) == (row.get(rhs, 0) != 0)
            assert max(row) <= rhs
        obj = tab.obj
        assert 0 not in obj.values()
        assert obj[scale] > 0 and max(obj) == scale
        assert math.gcd(*obj.values()) == 1
        assert not set(tab.basis) & set(obj)

    def test_row_format_holds_after_every_pivot(self):
        pivot = lp._Tableau.pivot
        checked = 0

        def checked_pivot(tab, pr, pc):
            nonlocal checked
            pivot(tab, pr, pc)
            self.assert_invariants(tab)
            checked += 1

        rng = random.Random(307)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp._Tableau, "pivot", checked_pivot)
            for _ in range(120):
                solve(TestAgainstHighs().random_program(rng))
        assert checked > 1000


def final_tableau(run):
    """``run()`` and the last tableau it built, in its final state."""
    built = []
    init = lp._Tableau.__init__

    def recorded(tab, *args):
        init(tab, *args)
        built.append(tab)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._Tableau, "__init__", recorded)
        return run(), built[-1]


def reference_outcome(program, status, tab):
    """The numbers an outcome of ``status`` reports, by the rational
    formulas, read from the densified final tableau: each dual is
    ``(cost - obj / scale) * flip * row_scale``, then times
    ``sign / obj_scale``; the certificate is minus the phase-one duals."""
    width = tab.ncols + 1
    rows = [dense(row, width) for row in tab.rows]
    obj = dense(tab.obj, width + 1)
    scale = obj[-1]
    level = {b: F(row[-1], row[b]) for row, b in zip(rows, tab.basis)}
    x = tuple(
        level.get(pos, F(0)) - (level.get(neg, F(0)) if neg is not None else 0)
        for pos, neg in tab.var_cols
    )

    def multipliers(phase_one):
        return [
            (int(phase_one and col in tab.artificial) - F(obj[col], scale)) * flip * rs
            for col, flip, rs in zip(tab.row_unit_col, tab.flip, tab.row_scale)
        ]

    if status == INFEASIBLE:
        return {"certificate": tuple(-v for v in multipliers(phase_one=True))}
    if status == lp.FEASIBLE:
        return {"x": x}
    sign = 1 if program.sense == lp.MIN else -1
    obj_scale = math.lcm(*(v.denominator for _, v in program.objective))
    return {
        "x": x,
        "objective_value": sign * F(-obj[-2], scale) / obj_scale,
        "duals": tuple(sign * v / obj_scale for v in multipliers(phase_one=False)),
    }


class TestIntegerAssembly:
    """Each reported number is one ``Fraction`` of tableau integers, equal
    to the rational formula applied to the final tableau."""

    def test_reported_numbers_match_the_rational_formulas(self):
        rng = random.Random(401)
        seen = set()
        programs = [TestAgainstHighs().random_program(rng) for _ in range(60)]
        programs += [TestDuals().random_program(rng) for _ in range(150)]
        programs += [replace(p, objective=(), sense=None) for p in programs[:30]]
        for program in programs:
            out, tab = final_tableau(lambda: solve(program))
            if out.status == UNBOUNDED:
                continue
            want = reference_outcome(program, out.status, tab)
            for name, value in want.items():
                got = getattr(out, name)
                assert got == value
                assert all(type(v) is F for v in (got if isinstance(got, tuple) else [got]))
            seen.add(out.status)
            if out.status == OPTIMAL and not all(program.nonnegative):
                seen.add("free")
        assert seen == {OPTIMAL, INFEASIBLE, lp.FEASIBLE, "free"}


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


def pipeline_rechecks():
    """The (program, point) and (program, certificate) pairs of every
    golden CLI case and every ``cycle`` and ``concavity`` entry of the
    benchmark catalog: each point and certificate an ``lp.solve`` returns,
    and the arguments of each re-check the pipelines make, once each."""
    points, certificates = {}, {}
    real_solve, real_satisfies, real_verify = lp.solve, lp.satisfies, lp.verify_certificate

    def recorded_solve(program, **kwargs):
        out = real_solve(program, **kwargs)
        if out.x is not None:
            points[id(program), out.x] = program, out.x
        if out.certificate is not None:
            certificates[id(program), out.certificate] = program, out.certificate
        return out

    def recorded_satisfies(program, x):
        points[id(program), tuple(x)] = program, tuple(x)
        return real_satisfies(program, x)

    def recorded_verify(program, y):
        certificates[id(program), tuple(y)] = program, tuple(y)
        return real_verify(program, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recorded_solve)
        mp.setattr(lp, "satisfies", recorded_satisfies)
        mp.setattr(lp, "verify_certificate", recorded_verify)
        for argv in CASES.values():
            _run(argv)
        for name, ds in catalog_datasets():
            if name.startswith("concavity/"):
                certify_concave(ds)
                continue
            verdict = check_nipmc(ds)
            if not verdict.passed:
                explain_violation(verdict, ds)
    return list(points.values()), list(certificates.values())


def point_mutants(x, rng):
    """``x`` with one seeded coordinate moved by plus and by minus one
    over the common denominator of ``x``."""
    den = math.lcm(*(v.denominator for v in x))
    k = rng.randrange(len(x))
    return [x[:k] + (x[k] + step,) + x[k + 1:] for step in (F(1, den), F(-1, den))]


def certificate_mutants(y, rng):
    """``y`` with one seeded nonzero entry negated, and with it set to 0."""
    k = rng.choice([i for i, v in enumerate(y) if v])
    return [y[:k] + (value,) + y[k + 1:] for value in (-y[k], F(0))]


class TestIntegerRechecks:
    """``satisfies`` and ``verify_certificate`` work in integers, from each
    row's one scaled form, and give the ``Fraction`` oracles' answers."""

    def program(self):
        return LinearProgram(
            num_vars=2,
            nonnegative=(True, True),
            constraints=(constraint({0: F(1), 1: F(1)}, LE, F(1)),),
        )

    def test_a_point_with_an_extra_coordinate_is_infeasible(self):
        assert satisfies(self.program(), (F(0), F(0)))
        assert not satisfies(self.program(), (F(0), F(0), F(5)))

    def test_a_point_missing_a_coordinate_is_infeasible(self):
        assert not satisfies(self.program(), (F(0),))

    def test_rechecks_agree_with_the_fraction_oracles(self):
        """On every point and certificate of the golden and catalog solves,
        and on seeded mutants of each: a coordinate moved by one over the
        point's denominator, a certificate entry negated or zeroed, and
        one coordinate or entry too many or too few."""
        points, certificates = pipeline_rechecks()
        assert len(points) > 300 and len(certificates) > 300
        rng = random.Random(601)
        seen = set()
        for program, x in points:
            assert satisfies(program, x) and reference_satisfies(program, x)
            for moved in point_mutants(x, rng):
                got = satisfies(program, moved)
                assert got == reference_satisfies(program, moved)
                seen.add(("point", got))
            for wrong in (x + (F(0),), x[:-1]):
                assert not satisfies(program, wrong)
        for program, y in certificates:
            assert verify_certificate(program, y) and reference_verify_certificate(program, y)
            for changed in certificate_mutants(y, rng):
                got = verify_certificate(program, changed)
                assert got == reference_verify_certificate(program, changed)
                seen.add(("certificate", got))
            for wrong in (y + (F(0),), y[:-1]):
                assert not verify_certificate(program, wrong)
        assert {("point", True), ("point", False), ("certificate", False)} <= seen
        rows = {id(con): con for program, _ in points + certificates for con in program.constraints}
        for con in rows.values():
            assert con.scaled == numeric.scaled([*(v for _, v in con.terms), con.rhs])

    def test_random_programs_agree_with_the_fraction_oracles(self):
        """Fractional rows, free variables and all three relations, with a
        seeded random point beside each returned one."""
        rng = random.Random(607)
        statuses = set()
        for _ in range(200):
            program = TestDuals().random_program(rng)
            program = replace(program, sense=rng.choice([program.sense, None]))
            out = solve(program)
            statuses.add(out.status)
            if out.certificate is not None:
                assert verify_certificate(program, out.certificate)
                for changed in certificate_mutants(out.certificate, rng):
                    assert verify_certificate(program, changed) == reference_verify_certificate(
                        program, changed
                    )
            if out.x is not None:
                for x in (out.x, *point_mutants(out.x, rng)):
                    assert satisfies(program, x) == reference_satisfies(program, x)
            x = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(program.num_vars))
            assert satisfies(program, x) == reference_satisfies(program, x)
        assert statuses == {OPTIMAL, INFEASIBLE, lp.FEASIBLE}

    def test_each_row_is_scaled_once_per_concavity_search(self, count_builds):
        """Every prefix program shares the rows of the base system and of
        the row blocks before it, and each row object builds its integer
        form once, for the tableau and the certificate checks alike."""
        built = count_builds(lp.Constraint, "scaled")
        programs = []
        real_solve = lp.solve

        def recorded(program, **kwargs):
            programs.append(program)
            return real_solve(program, **kwargs)

        cases = dict(catalog_datasets())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "solve", recorded)
            for name in ("concavity/certified", "concavity/undetermined"):
                ds = next(ds for key, ds in cases.items() if key.startswith(name))
                del programs[:], built[:]
                verdict = certify_concave(ds)
                assert len(programs) == verdict.programs_solved > 10
                rows = {id(con) for program in programs for con in program.constraints}
                assert sorted(map(id, built)) == sorted(rows)
                assert len(rows) < sum(len(program.constraints) for program in programs) / 2



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


@pytest.mark.parametrize("where", ["coefficient", "rhs"])
def test_lp_text_dump_refuses_a_value_outside_float_range(where):
    """A coefficient or right-hand side beyond float range raises
    ``ValueError``, which the CLI reports as an input error."""
    huge = F(10) ** 400
    program = LinearProgram(
        num_vars=1,
        nonnegative=(True,),
        constraints=(
            constraint({0: huge if where == "coefficient" else F(1)}, LE,
                       huge if where == "rhs" else F(1)),
        ),
    )
    with pytest.raises(ValueError, match="10\\^400 lies outside float range"):
        to_lp_text(program)
