"""Forward information-acquisition solves, duality, and data generation."""

import json
import random
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from infocost import cli, forward, io, lp, model, recovery
from infocost import (
    Act,
    Dataset,
    DiscreteCDF,
    ForwardProblem,
    Menu,
    Observation,
    PiecewiseScalarFunction,
    Prior,
    SDSC,
    StateSpace,
    certify_concave,
    check_nias,
    check_nipmc,
    generate_dataset,
    indirect_utility,
    is_monotone_partitional,
    is_mpc,
    oracle_value,
    price_function,
    prior_cdf,
    recover_cost,
    revealed_summary,
    solve_forward,
    upper_envelope,
    utility,
    validate_dataset,
    variance_cost,
    verify_rationalization,
)
from test_lp import watched

ZERO_COST = PiecewiseScalarFunction.constant(F(0))


def reference_value(menu: Menu) -> PiecewiseScalarFunction:
    """The menu's indirect utility as the generic ``upper_envelope`` of its
    act payoff functions: the reference for ``Menu.value``."""
    return upper_envelope(
        [PiecewiseScalarFunction.affine(a.u1 - a.u0, a.u0) for a in menu.acts]
    )


def random_prior(rng: random.Random, n_states: int) -> Prior:
    interior = set()
    while len(interior) < n_states - 2:
        interior.add(F(rng.randint(1, 23), 24))
    states = (F(0), *sorted(interior), F(1))
    weights = [F(rng.randint(1, 6)) for _ in states]
    return Prior(
        state_space=StateSpace(states=states),
        weights=tuple(w / sum(weights) for w in weights),
    )


def concave_cost(rng: random.Random) -> PiecewiseScalarFunction:
    """Piecewise-linear cost derivative with nonincreasing slopes."""
    kinks = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(1, 4))})
    xs = [F(0), *kinks, F(1)]
    slopes = sorted(
        (F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in xs[1:]), reverse=True
    )
    y = F(rng.randint(-2, 2), 4)
    points = [(xs[0], y)]
    for x1, x2, s in zip(xs, xs[1:], slopes):
        y += s * (x2 - x1)
        points.append((x2, y))
    return PiecewiseScalarFunction.from_points(points)


def dip_cost(rng: random.Random) -> PiecewiseScalarFunction:
    """Cost derivative with a deep convex trough, like the steep pooling cost."""
    lo = F(rng.randint(1, 3), 12)
    hi = 1 - F(rng.randint(1, 3), 12)
    depth = F(rng.randint(4, 12))
    return PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 36)), (lo, F(0)), ((lo + hi) / 2, -depth), (hi, F(0)), (F(1), F(-1, 36))]
    )


def random_menu(rng: random.Random, name: str, n_acts: int) -> Menu:
    return Menu(
        id=name,
        acts=tuple(
            Act(f"{name}a{j}", F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8))
            for j in range(n_acts)
        ),
    )


def pooled_act_case():
    """Prior, menus and dip cost under which the forward optimum of menus
    m0 and m2 sends two support points to one act."""
    space = StateSpace(states=(F(0), F(13, 24), F(7, 8), F(1)))
    prior = Prior(state_space=space, weights=(F(1, 4), F(1, 6), F(1, 12), F(1, 2)))
    cost = PiecewiseScalarFunction.from_points([
        (F(0), F(-1, 36)), (F(1, 4), F(0)), (F(7, 12), F(-5)), (F(11, 12), F(0)),
        (F(1), F(-1, 36)),
    ])
    menus = [
        Menu(id="m0", acts=(
            Act("m0a0", F(7, 8), F(-5, 8)), Act("m0a1", F(3, 4), F(7, 8)),
            Act("m0a2", F(-3, 8), F(3, 4)),
        )),
        Menu(id="m1", acts=(
            Act("m1a0", F(1, 2), F(-3, 8)), Act("m1a1", F(1, 2), F(5, 8)),
            Act("m1a2", F(3, 8), F(7, 8)),
        )),
        Menu(id="m2", acts=(
            Act("m2a0", F(1, 4), F(-5, 8)), Act("m2a1", F(-3, 8), F(3, 4)),
            Act("m2a2", F(-7, 8), F(-1, 4)),
        )),
    ]
    return prior, menus, cost


def bundled_generation_spec():
    spec = resources.files("infocost.fixtures").joinpath("example3_generate.json")
    return spec, io.parse_generation_spec(json.loads(spec.read_text()))


def three_state_prior() -> Prior:
    space = StateSpace(states=(F(0), F(1, 2), F(1)))
    return Prior(state_space=space, weights=(F(1, 3), F(1, 3), F(1, 3)))


class TestGrid:
    def test_grid_contains_required_points(self, three_act_menu, four_state_uniform_prior):
        cost = PiecewiseScalarFunction.from_points(
            [(F(0), F(0)), (F(1, 5), F(1)), (F(1), F(0))]
        )
        problem = ForwardProblem.build(four_state_uniform_prior, three_act_menu, cost)
        for z in [F(0), F(1, 3), F(2, 3), F(1), F(1, 5), F(1, 4), F(3, 4), F(1, 2)]:
            assert z in problem.grid

    def test_missing_support_points_are_completed(self, three_act_menu, four_state_uniform_prior):
        """A grid without the prior's interior atoms gets them, and the
        problem then solves as the one ``build`` makes."""
        given = (F(0), F(1, 2), F(1))
        problem = ForwardProblem(four_state_uniform_prior, three_act_menu, ZERO_COST, given)
        built = ForwardProblem.build(four_state_uniform_prior, three_act_menu, ZERO_COST)
        assert {F(1, 3), F(2, 3)} <= set(problem.grid)
        assert problem == built and problem.grid == built.grid
        assert solve_forward(problem) == solve_forward(built)

    def test_a_grid_without_the_objectives_kinks_is_completed(self):
        """On the bundled problem the grid 0, 1/3, 2/3, 1 misses the cost's
        kinks and the menu's, and its program alone has the optimum
        -335/144; completed, it solves to the true optimum 1/6."""
        spec = resources.files("infocost.fixtures").joinpath("example3_forward.json")
        parsed = io.parse_forward_problem(json.loads(spec.read_text()))
        problem = ForwardProblem(
            parsed.prior, parsed.menu, parsed.cost, grid=(F(0), F(1, 3), F(2, 3), F(1))
        )
        assert problem.grid == parsed.grid
        assert solve_forward(problem).value == F(1, 6)

    def test_the_constructor_completes_the_grid_build_assembles(self):
        """Without uniform points, ``build`` is the constructor; with them,
        the grid is the set ``build`` always assembled. Completing a grid
        again leaves it as it is."""
        for prior, menu, cost, points in forward_cases():
            made = ForwardProblem(prior, menu, cost)
            built = ForwardProblem.build(prior, menu, cost)
            assert made == built and made.grid == built.grid
            problem = ForwardProblem.build(prior, menu, cost, uniform_points=points)
            expected = {F(0), F(1), prior.mean, *prior_cdf(prior).support}
            expected |= set((reference_value(menu) + cost).breakpoints)
            expected |= {F(j, points) for j in range(points + 1)} if points else set()
            assert problem.grid == tuple(sorted(expected))
            again = ForwardProblem(prior, menu, cost, problem.grid)
            assert again.grid == problem.grid and again == problem

    @pytest.mark.parametrize("point, text", [(F(3, 2), "3/2"), (F(-1, 4), "-1/4")])
    def test_a_point_outside_the_unit_interval_is_refused_when_made(self, point, text):
        """On the bundled problem a grid point outside [0, 1] raises when the
        problem is made, naming the point as p/q, not later in a solve."""
        spec = resources.files("infocost.fixtures").joinpath("example3_forward.json")
        parsed = io.parse_forward_problem(json.loads(spec.read_text()))
        with pytest.raises(ValueError, match=f"grid point {text} outside"):
            ForwardProblem(parsed.prior, parsed.menu, parsed.cost, (F(1, 3), point))

    @pytest.mark.parametrize("point", [0.3, 1, "1/2"])
    def test_a_point_that_is_not_a_fraction_is_refused_when_made(self, point):
        spec = resources.files("infocost.fixtures").joinpath("example3_forward.json")
        parsed = io.parse_forward_problem(json.loads(spec.read_text()))
        with pytest.raises(TypeError, match="not a Fraction"):
            ForwardProblem(parsed.prior, parsed.menu, parsed.cost, (point,))


class TestSolveForward:
    def test_free_information_full_revelation(self):
        """With kinks between every pair of prior atoms, spreading to the
        prior itself is the unique optimum."""
        prior = three_state_prior()
        menu = Menu(
            id="m",
            acts=(
                Act("low", F(1), F(-1)),
                Act("mid", F(1, 2), F(1, 2)),
                Act("high", F(-1), F(1)),
            ),
        )
        sol = solve_forward(ForwardProblem.build(prior, menu, ZERO_COST))
        assert sol.distribution.atoms == prior_cdf(prior).atoms
        assert sol.value == F(1, 3) * 1 + F(1, 3) * F(1, 2) + F(1, 3) * 1

    def test_affine_menu_value_is_flat_in_information(self):
        prior = three_state_prior()
        menu = Menu(id="m", acts=(Act("only", F(1, 3), F(2, 3)),))
        problem = ForwardProblem.build(prior, menu, ZERO_COST)
        sol = solve_forward(problem)
        assert sol.value == indirect_utility(menu, prior.mean)
        # least informative optimum selected deterministically
        assert sol.distribution.atoms == ((F(1, 2), F(1)),)
        assert oracle_value(problem, 40) == sol.value

    def test_pure_cost_minimization_stays_uninformed(self):
        prior = three_state_prior()
        menu = Menu(id="m", acts=(Act("only", F(0), F(0)),))
        cost = PiecewiseScalarFunction.from_points(
            [(F(0), F(-1)), (F(1, 2), F(0)), (F(1), F(-1))]
        )
        sol = solve_forward(ForwardProblem.build(prior, menu, cost))
        assert sol.distribution.atoms == ((F(1, 2), F(1)),)
        assert sol.value == 0

    def test_variance_cost_minimization_stays_uninformed(self):
        from infocost import variance_cost

        prior = three_state_prior()
        menu = Menu(id="m", acts=(Act("only", F(0), F(0)),))
        cost = variance_cost(F(1), prior.mean)
        sol = solve_forward(ForwardProblem.build(prior, menu, cost))
        assert sol.distribution.atoms == ((F(1, 2), F(1)),)
        assert sol.value == 0

    def test_solution_is_feasible_and_dominates_benchmarks(self, three_act_menu, four_state_uniform_prior, steep_pooling_cost):
        problem = ForwardProblem.build(
            four_state_uniform_prior, three_act_menu, steep_pooling_cost
        )
        sol = solve_forward(problem)
        f0 = prior_cdf(four_state_uniform_prior)
        assert is_mpc(f0, sol.distribution)
        gross = lambda f: sum(
            p * (indirect_utility(three_act_menu, z) + steep_pooling_cost(z))
            for z, p in f.atoms
        )
        assert sol.value >= gross(f0)
        assert sol.value >= gross(DiscreteCDF.point(four_state_uniform_prior.mean))

    def test_price_certificate_properties(self, three_act_menu, four_state_uniform_prior, steep_pooling_cost):
        problem = ForwardProblem.build(
            four_state_uniform_prior, three_act_menu, steep_pooling_cost
        )
        sol = solve_forward(problem)
        slopes = sol.price.slopes()
        assert all(a <= b for a, b in zip(slopes, slopes[1:]))
        for g in problem.grid:
            assert sol.price(g) >= indirect_utility(three_act_menu, g) + steep_pooling_cost(g)
        touch = sum(
            p * sol.price(z) for z, p in sol.distribution.atoms
        )
        assert touch == sol.value


def pinned_lexicographic(program, tiebreak):
    """Reference tie-break: pin the objective at its optimum as one more
    ``=`` row and minimize the tie-break over the whole program."""
    first = lp.solve(program)
    assert first.status == lp.OPTIMAL
    best = first.objective_value
    pinned = program.constraints + (lp.constraint(dict(program.objective), lp.EQ, best),)
    second = lp.solve(
        replace(program, constraints=pinned, objective=tiebreak, sense=lp.MIN)
    )
    assert second.status == lp.OPTIMAL
    return best, second.x


class TestOptimalFaceTieBreak:
    """The tie-breaks run on the optimal face read off the first solve's
    duals. Their minima must equal those over the pinned program; the
    minimizers need not be unique, so only the minima are compared."""

    def test_minima_match_the_pinned_program(self):
        rng = random.Random(8)
        for trial in range(40):
            cost = (concave_cost if trial % 2 else dip_cost)(rng)
            prior = random_prior(rng, rng.randint(4, 6))
            problem = ForwardProblem.build(
                prior, random_menu(rng, "m", 3), cost,
                uniform_points=rng.choice((6, 12, 18, 24, 32)),
            )
            sol = solve_forward(problem)

            grid = list(problem.grid)
            program = forward._grid_lp(problem)
            z0 = prior.mean
            best, f = pinned_lexicographic(
                program, tuple((j, (g - z0) ** 2) for j, g in enumerate(grid))
            )
            dual = lp.dual(program)
            interior = tuple((k, F(1)) for k, nonneg in enumerate(dual.nonnegative) if nonneg)
            dual_best, y = pinned_lexicographic(dual, interior)

            assert sol.value == best == dual_best, trial
            variance = sum(p * (z - z0) ** 2 for z, p in sol.distribution.atoms)
            assert variance == sum(f[j] * (g - z0) ** 2 for j, g in enumerate(grid)), trial
            mass = sum(v for z, v in sol.multipliers.items() if 0 < z < 1)
            assert mass == sum(y[k] for k, _ in interior), trial

    @staticmethod
    def assert_rejected(monkeypatch, capsys, call, corrupt, message):
        """``corrupt`` applied to the outcome of solve number ``call`` of
        ``example3_forward.json`` must end in a ``RuntimeError`` and, on
        the command line, in exit 1 with one line on standard error."""
        spec = resources.files("infocost.fixtures").joinpath("example3_forward.json")
        problem = io.parse_forward_problem(json.loads(spec.read_text()))
        real_solve = lp.solve
        calls = []

        def corrupted(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            calls.append(program)
            return corrupt(outcome) if len(calls) == call + 1 else outcome

        monkeypatch.setattr(lp, "solve", corrupted)
        with pytest.raises(RuntimeError, match=message):
            solve_forward(problem)
        calls.clear()
        assert cli.main(["solve", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verification error: forward {message}\n"

    @pytest.mark.parametrize(
        "call, pick, message",
        [
            (2, -1, "price integrals disagree with the objective"),
        ],
    )
    def test_corrupted_first_duals_are_rejected(self, monkeypatch, capsys, call, pick, message):
        """Zeroing one nonzero dual of the dual's first solve (call 2)
        turns one of the face's ``=`` rows back into an inequality, and
        the tie-break optimum of that larger face fails the price
        certificate."""

        def corrupt(outcome):
            duals = list(outcome.duals)
            duals[[i for i, v in enumerate(duals) if v][pick]] = F(0)
            return replace(outcome, duals=tuple(duals))

        self.assert_rejected(monkeypatch, capsys, call, corrupt, message)

    @pytest.mark.parametrize(
        "call, message",
        [
            (0, "tie-break program unexpectedly infeasible"),
            (2, "tie-break program unexpectedly infeasible"),
        ],
    )
    def test_corrupted_first_flags_are_rejected(self, monkeypatch, capsys, call, message):
        """Clearing the zero-reduced-cost flag of the first variable that
        is nonzero at the primal's (call 0) or the dual's (call 2) first
        optimum drops that column from the face, which then holds no
        optimum and no feasible point."""

        def corrupt(outcome):
            flags = list(outcome.zero_reduced)
            flags[next(j for j, v in enumerate(outcome.x) if v)] = False
            return replace(outcome, zero_reduced=tuple(flags))

        self.assert_rejected(monkeypatch, capsys, call, corrupt, message)


class TestGenerateCertificate:
    """``generate_dataset`` certifies its optimum with the first solve's
    own duals. Each forgery below must end in a ``RuntimeError`` and, on
    the command line, in exit 1 with one line on standard error. A
    nonzero dual on a row that the optimum leaves slack makes that row an
    ``=`` row of the face, and clearing the zero-reduced-cost flag of a
    column the optimum uses drops it from the face: either face holds no
    feasible point. A shifted face optimum is no contraction of the
    prior; the prior itself is one, but not optimal, so the first solve's
    price values it above the objective."""

    @pytest.mark.parametrize(
        "forgery, message",
        [
            ("tighten a slack row", "tie-break program unexpectedly infeasible"),
            ("unflag a support column", "tie-break program unexpectedly infeasible"),
            ("shift the face optimum", "optimum is not a contraction of the prior"),
            ("answer the prior", "price integrals disagree with the objective"),
        ],
    )
    def test_forgeries_are_rejected(self, monkeypatch, capsys, forgery, message):
        spec, (prior, menus, cost) = bundled_generation_spec()
        real_solve, real_lexicographic = lp.solve, forward._lexicographic
        calls = []

        def corrupted(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            calls.append(program)
            if forgery == "tighten a slack row" and len(calls) == 1:
                duals = list(outcome.duals)
                slack = next(
                    i for i, con in enumerate(program.constraints)
                    if sum(v * outcome.x[j] for j, v in con.terms) < con.rhs
                )
                duals[slack] = F(-1)
                return replace(outcome, duals=tuple(duals))
            if forgery == "unflag a support column" and len(calls) == 1:
                flags = list(outcome.zero_reduced)
                flags[next(j for j, v in enumerate(outcome.x) if v)] = False
                return replace(outcome, zero_reduced=tuple(flags))
            if forgery == "shift the face optimum" and len(calls) == 2:
                return replace(outcome, x=tuple(v + 1 for v in outcome.x))
            return outcome

        (menu,) = menus
        grid = ForwardProblem.build(prior, menu, cost).grid
        weights = dict(zip(prior.state_space.states, prior.weights))

        def answered(program, tiebreak, basis=None):
            _, first = real_lexicographic(program, tiebreak, basis)
            return tuple(weights.get(g, F(0)) for g in grid), first

        monkeypatch.setattr(lp, "solve", corrupted)
        if forgery == "answer the prior":
            monkeypatch.setattr(forward, "_lexicographic", answered)
        with pytest.raises(RuntimeError, match=message):
            generate_dataset(prior, menus, cost)
        calls.clear()
        assert cli.main(["generate", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verification error: forward {message}\n"


def forward_cases():
    """(prior, menu, cost, uniform points) of the four bundled forward
    problems, with none, and of 40 seeded S4-6/K3 draws, with 24 to 60."""
    fixtures = resources.files("infocost.fixtures")
    for name in ("example2_forward.json", "example2_twopoint_forward.json",
                 "example3_concavified_forward.json", "example3_forward.json"):
        problem = io.parse_forward_problem(json.loads(fixtures.joinpath(name).read_text()))
        yield problem.prior, problem.menu, problem.cost, 0
    rng = random.Random(14)
    for trial in range(40):
        yield (
            random_prior(rng, rng.randint(4, 6)), random_menu(rng, "m", 3),
            (concave_cost if trial % 2 else dip_cost)(rng), rng.randint(24, 60),
        )


class TestWarmDual:
    """The dual's first solve starts from the basis complementary to the
    program's optimal one. That skips its phase one and must change no
    output: a cold dual gives the same solution."""

    def problems(self):
        for prior, menu, cost, points in forward_cases():
            yield ForwardProblem.build(prior, menu, cost, uniform_points=points)

    def test_warm_and_cold_duals_give_one_solution(self, monkeypatch):
        problems = list(self.problems())
        real_solve = lp.solve
        solves = []  # per solve: whether it was given a basis, the pivot rule's choices

        def recorded(program, **kwargs):
            solves.append((kwargs.get("basis") is not None, []))
            return real_solve(program, **kwargs)

        monkeypatch.setattr(lp, "solve", recorded)
        warm = watched(
            lambda: [solve_forward(problem) for problem in problems],
            lambda tab, choice: solves[-1][1].append(choice),
        )
        # each dual's basis installs: phase two alone, stopped at once at the optimum
        assert [made for given, made in solves if given] == [[(-1, -1)]] * len(problems)

        def cold(program, *, basis=None, **kwargs):
            return recorded(program, **kwargs)

        monkeypatch.setattr(lp, "solve", cold)
        for problem, solution in zip(problems, warm):
            assert solve_forward(problem) == solution
        assert sum(given for given, _ in solves) == len(problems)

    def test_the_warm_duals_first_solve_returns_the_programs_optimum(self):
        """Started from the complementary basis, the dual's first solve
        has as its duals exactly the program's optimum: it adds nothing
        that the program's solve did not already give."""
        for problem in self.problems():
            program = forward._grid_lp(problem)
            first = lp.solve(program)
            dual = lp.solve(lp.dual(program), basis=lp.dual_basis(program, first))
            assert dual.duals == first.x


def hinge_grid_lp(problem: ForwardProblem, objective) -> lp.LinearProgram:
    """The program on the problem's grid built by evaluating the price basis
    at every (row, point) pair and letting ``lp.constraint`` drop the
    zeros, with the objective called at each point and the prior read
    from its weights: the reference for ``forward._grid_lp``."""
    grid = problem.grid
    support = list(zip(problem.prior.state_space.states, problem.prior.weights))
    cons = [
        lp.constraint(
            {j: recovery.hinge(gp, g) for j, g in enumerate(grid)},
            lp.EQ if gp in (0, 1) else lp.LE,
            sum(w * recovery.hinge(gp, s) for s, w in support),
        )
        for gp in grid
    ]
    return lp.LinearProgram(
        num_vars=len(grid),
        nonnegative=(True,) * len(grid),
        constraints=tuple(cons),
        objective=tuple((j, objective(g)) for j, g in enumerate(grid)),
        sense=lp.MAX,
    )


class TestGridProgram:
    def test_direct_rows_match_the_hinge_rows(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost, concavified_cost
    ):
        problems = list(TestWarmDual().problems())
        for cost in (steep_pooling_cost, concavified_cost, ZERO_COST):
            problems.append(ForwardProblem.build(four_state_uniform_prior, three_act_menu, cost))
        rng = random.Random(31)
        for _ in range(6):
            prior = random_prior(rng, rng.randint(3, 6))
            problems.append(ForwardProblem.build(
                prior, random_menu(rng, "m", 3), variance_cost(F(rng.randint(1, 4)), prior.mean),
                uniform_points=rng.randint(8, 30),
            ))
        for problem in problems:
            objective = reference_value(problem.menu) + problem.cost
            assert problem.objective == objective
            assert forward._grid_lp(problem) == hinge_grid_lp(problem, objective)


class TestObjectiveBuiltOnce:
    """A menu's value is built once, on first use, and kept by the menu:
    every forward problem, solve, refinement, recovered cost and audit
    that reads it afterwards reads that one."""

    @pytest.fixture
    def builds(self, count_builds):
        return count_builds(model.Menu, "value")

    def test_solves_read_the_problems_objective(self, builds):
        rng = random.Random(5)
        prior, menu, cost = random_prior(rng, 5), random_menu(rng, "m", 3), concave_cost(rng)
        assert builds == []
        problem = ForwardProblem.build(prior, menu, cost, uniform_points=12)
        direct = ForwardProblem(prior=prior, menu=menu, cost=cost, grid=problem.grid)
        assert builds == [menu]
        assert direct == problem and direct.objective == problem.objective
        assert problem.objective == reference_value(menu) + cost
        for made in (problem, direct):
            solve_forward(made)
            oracle_value(made, 2 * len(made.grid))
        assert builds == [menu]

    def test_generation_and_the_audit_build_one_per_menu(self, builds):
        rng = random.Random(6)
        prior, cost = random_prior(rng, 5), concave_cost(rng)
        menus = [random_menu(rng, f"m{i}", 3) for i in range(3)]
        dataset = generate_dataset(prior, menus, cost)
        assert builds == menus
        verdict = check_nipmc(dataset, flattest=True)
        assert verdict.passed
        prices = [price_function(verdict.multipliers, oi) for oi in range(len(menus))]
        verify_rationalization(dataset, recover_cost(dataset, verdict.multipliers), prices)
        assert builds == menus


class TestPriorCdfBuiltOnce:
    def test_one_per_problem(self, count_builds):
        """A prior's distribution is built once, on first use, and kept by
        the prior: every forward problem, solve, certificate and generated
        menu on that prior reads that one, and ``prior_cdf`` returns it."""
        priors = count_builds(model.Prior, "distribution")
        rng = random.Random(5)
        prior, cost = random_prior(rng, 5), concave_cost(rng)
        menus = [random_menu(rng, f"m{i}", 3) for i in range(3)]
        assert priors == []
        problem = ForwardProblem.build(prior, menus[0], cost, uniform_points=12)
        direct = ForwardProblem(prior=prior, menu=menus[0], cost=cost, grid=problem.grid)
        assert priors == [prior]
        assert not hasattr(problem, "prior_cdf")
        assert prior_cdf(prior) is prior.distribution
        assert prior.distribution.atoms == tuple(zip(prior.state_space.states, prior.weights))
        for made in (problem, direct):
            solve_forward(made)
            oracle_value(made, 2 * len(made.grid))
        generate_dataset(prior, menus, cost)
        assert priors == [prior]


class TestGridProgramAgainstHighs:
    @pytest.mark.parametrize("seed, points", [(1, 24), (2, 48), (6, 72)])
    def test_value_matches_highs(self, seed, points):
        """The grid program solved by HiGHS in floats has the exact
        forward value as its optimum. The seeds are the first whose optimum
        acquires information (more than one atom)."""
        pytest.importorskip("scipy")
        from scipy.optimize import linprog

        rng = random.Random(seed)
        problem = ForwardProblem.build(
            random_prior(rng, 5), random_menu(rng, "m", 3),
            (concave_cost if seed % 2 else dip_cost)(rng), uniform_points=points,
        )
        sol = solve_forward(problem)
        assert len(sol.distribution.atoms) > 1
        program = forward._grid_lp(problem)
        a_eq, b_eq, a_ub, b_ub = [], [], [], []
        for con in program.constraints:
            row = [0.0] * program.num_vars
            for j, v in con.terms:
                row[j] = float(v)
            a, b = (a_eq, b_eq) if con.relation == lp.EQ else (a_ub, b_ub)
            a.append(row)
            b.append(float(con.rhs))
        c = [0.0] * program.num_vars
        for j, v in program.objective:
            c[j] = -float(v)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
        assert ref.status == 0, ref.message
        assert -ref.fun == pytest.approx(float(sol.value), rel=1e-9, abs=1e-9)


class TestOracle:
    def test_refinement_never_moves_piecewise_linear_values(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost
    ):
        problem = ForwardProblem.build(
            four_state_uniform_prior, three_act_menu, steep_pooling_cost
        )
        base = solve_forward(problem).value
        for resolution in (13, 25, 49):
            assert oracle_value(problem, resolution) == base

    def test_resolution_floor(self, three_act_menu, four_state_uniform_prior):
        problem = ForwardProblem.build(
            four_state_uniform_prior, three_act_menu, ZERO_COST
        )
        with pytest.raises(ValueError):
            oracle_value(problem, 2)

    def test_quadratic_cost_improves_with_refinement(self):
        """A strictly concave cost is only sampled at grid points, so finer
        grids may only raise the optimum, never lower it."""
        from infocost import variance_cost

        prior = three_state_prior()
        menu = Menu(id="m", acts=(Act("a", F(1), F(-1)), Act("b", F(-1), F(1))))
        cost = variance_cost(F(1, 4), prior.mean)
        problem = ForwardProblem.build(prior, menu, cost)
        v0 = solve_forward(problem).value
        v1 = oracle_value(problem, 9)
        v2 = oracle_value(problem, 33)
        assert v0 <= v1 <= v2

    def test_corrupted_duals_are_rejected(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost, monkeypatch
    ):
        """The oracle's value is certified by the price built from its duals;
        raising the intercept breaks contact on the support."""
        problem = ForwardProblem.build(
            four_state_uniform_prior, three_act_menu, steep_pooling_cost
        )
        real_solve = lp.solve

        def corrupted(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            if outcome.status != lp.OPTIMAL:
                return outcome
            duals = (outcome.duals[0] + 1,) + outcome.duals[1:]
            return replace(outcome, duals=duals)

        monkeypatch.setattr(lp, "solve", corrupted)
        with pytest.raises(RuntimeError):
            oracle_value(problem, 13)

    @pytest.mark.parametrize(
        "answer, message",
        [
            ("point mass", "optimum is not a contraction of the prior"),
            ("interpolant", "price is not convex"),
        ],
    )
    def test_uncertified_answers_are_rejected(self, monkeypatch, capsys, answer, message):
        """Two forged answers to the oracle program of the bundled problem
        (optimum 1/6) whose prices majorize and touch the objective and
        integrate alike against the answer and the prior: a point mass at
        0 under a flat price would certify 2/9, and the prior under the
        grid interpolant of the objective (two negative interior
        multipliers) would certify -335/144."""
        spec = resources.files("infocost.fixtures").joinpath("example3_forward.json")
        problem = io.parse_forward_problem(json.loads(spec.read_text()))
        grid = sorted(set(problem.grid) | {F(j, 12) for j in range(13)})
        objective = solve_forward(problem).objective
        values = [objective(g) for g in grid]
        zeros = [F(0)] * (len(grid) - 1)
        if answer == "point mass":
            f, y = [F(1), *zeros], [values[0], *zeros]
        else:
            weights = dict(zip(problem.prior.state_space.states, problem.prior.weights))
            f = [weights.get(g, F(0)) for g in grid]
            # price basis: intercept at 0, max(z - x, 0) at every other z
            s = [(v2 - v1) / (g2 - g1)
                 for g1, g2, v1, v2 in zip(grid, grid[1:], values, values[1:])]
            y = [values[-1], *(b - a for a, b in zip(s, s[1:])), -s[-1]]
        real_solve = lp.solve

        def forged(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            if program.num_vars != len(grid):
                return outcome
            value = sum(p * v for p, v in zip(f, values))
            return replace(outcome, x=tuple(f), duals=tuple(y), objective_value=value)

        monkeypatch.setattr(lp, "solve", forged)
        with pytest.raises(RuntimeError, match=message):
            oracle_value(problem, 13)
        assert cli.main(["solve", str(spec), "--refine", "13"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verification error: forward {message}\n"


def floats_in(value) -> list[float]:
    """Every float inside ``value``, through dataclass fields, tuples,
    lists and dict keys and values."""
    if isinstance(value, float):
        return [value]
    if is_dataclass(value):
        value = [getattr(value, f.name) for f in fields(value)]
    elif isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in floats_in(v)]
    return []


class TestIntInputs:
    """Every integral value given as an ``int`` gives the results of the
    same value given as a ``Fraction``, with no float in them."""

    @staticmethod
    def twin(x):
        return int(x) if x.denominator == 1 else x

    def inputs(self, seed: int, as_int: bool):
        """Seeded prior (one interior state of weight 0), integer payoffs and
        a concave cost with integral ends; ``as_int`` gives every integral
        value as an ``int``."""
        t = self.twin if as_int else (lambda x: x)
        rng = random.Random(seed)
        states = (F(0), F(rng.randint(1, 5), 12), F(rng.randint(7, 11), 12), F(1))
        weights = [F(rng.randint(1, 4)) for _ in states]
        weights[rng.randint(1, 2)] = F(0)
        prior = Prior(
            StateSpace(tuple(t(z) for z in states)),
            tuple(t(w / sum(weights)) for w in weights),
        )
        menus = [
            Menu(f"m{i}", tuple(
                Act(f"m{i}a{j}", t(F(rng.randint(-3, 3))), t(F(rng.randint(-3, 3))))
                for j in range(rng.randint(2, 3))
            ))
            for i in range(3)
        ]
        kink = F(rng.randint(1, 11), 12)
        end = F(rng.randint(-2, 2))
        cost = PiecewiseScalarFunction.from_points(
            [(t(F(0)), t(end)), (kink, end + kink * rng.randint(1, 3)), (t(F(1)), t(end))]
        )
        return prior, menus, cost

    def results(self, prior, menus, cost) -> list:
        out = []
        for menu in menus:
            problem = ForwardProblem.build(prior, menu, cost, uniform_points=6)
            out += [problem.grid, problem.objective, solve_forward(problem)]
            out.append(oracle_value(problem, len(problem.grid) + 5))
        dataset = generate_dataset(prior, menus, cost)
        out.append(dataset)
        for flattest in (False, True):
            verdict = check_nipmc(dataset, flattest=flattest)
            out.append(verdict)
            if verdict.passed:
                cost_back = recover_cost(dataset, verdict.multipliers)
                prices = [price_function(verdict.multipliers, oi) for oi in range(len(menus))]
                out += [cost_back, verify_rationalization(dataset, cost_back, prices)]
        out.append(certify_concave(dataset, budget=200))
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_int_twins_give_equal_results_and_no_float(self, seed):
        exact = self.results(*self.inputs(seed, as_int=False))
        twin_inputs = self.inputs(seed, as_int=True)
        prior, menus, _ = twin_inputs
        assert any(type(u) is int for menu in menus for a in menu.acts for u in (a.u0, a.u1))
        assert type(prior.state_space.states[0]) is int
        twin = self.results(*twin_inputs)
        assert twin == exact
        assert floats_in(twin) == []

    def test_the_menu_of_the_report_solves_and_recovers_exactly(self):
        """A menu of ``int`` payoffs, whose value kinks at 2/3, and a cost
        from ``int`` points: the menu's value and every recovered
        breakpoint are exact."""
        menu = Menu("m", (Act("a", 2, -1), Act("b", 0, 0)))
        assert menu.value.breakpoints == (0, F(2, 3), 1)
        cost = PiecewiseScalarFunction.from_points([(0, 0), (1, -1)])
        assert cost.coefficients == ((0, -1, 0),)
        assert floats_in(cost) == floats_in(menu.value) == []
        prior = Prior(StateSpace((F(0), F(1, 2), F(1))), (F(1, 4), F(1, 2), F(1, 4)))
        solve_forward(ForwardProblem(prior, menu, cost))
        dataset = generate_dataset(prior, [menu, Menu("n", (Act("c", 1, 1),))], cost)
        verdict = check_nipmc(dataset)
        recovered = recover_cost(dataset, verdict.multipliers)
        assert floats_in(recovered) == []
        assert all(type(x) in (F, int) for x in recovered.breakpoints)


def generated_from_solve_forward(prior, menus, cost) -> Dataset:
    """Choice data built from ``solve_forward``'s distribution and acts:
    the reference that ``generate_dataset`` must equal."""
    observations = []
    for menu in menus:
        sol = solve_forward(ForwardProblem.build(prior, menu, cost))
        index = {act.id: ai for ai, act in enumerate(menu.acts)}
        rows = [[F(0)] * len(prior.weights) for _ in menu.acts]
        for (zi, ai), mass in forward._decompose(prior, sol.distribution).items():
            if mass:
                rows[index[sol.assignments[ai]]][zi] += mass / prior.weights[zi]
        for zi, (z, w) in enumerate(zip(prior.state_space.states, prior.weights)):
            if w == 0:
                # the first act of highest utility; ``max`` keeps the first
                best = max(menu.acts, key=lambda act: utility(act, z))
                rows[index[best.id]][zi] = F(1)
        observations.append(
            Observation(prior=prior, menu=menu, sdsc=SDSC(rows=tuple(map(tuple, rows))))
        )
    return Dataset(state_space=prior.state_space, observations=tuple(observations))


def generation_cases():
    """(prior, menus, cost) triples: 32 S5/N3/K3 draws under concave costs
    and 32 under dip costs, the pooled-act case, a prior with a state of
    weight 0, and the bundled generation spec."""
    rng = random.Random(41)
    for trial in range(64):
        prior = random_prior(rng, 5)
        cost = (dip_cost if trial % 2 else concave_cost)(rng)
        yield prior, [random_menu(rng, f"m{i}", 3) for i in range(3)], cost
    yield pooled_act_case()
    space = StateSpace(states=(F(0), F(1, 4), F(1, 3), F(2, 3), F(1)))
    zero_weight = Prior(state_space=space, weights=(F(1, 4), F(0), F(1, 4), F(1, 4), F(1, 4)))
    yield zero_weight, pooled_act_case()[1], dip_cost(rng)
    yield bundled_generation_spec()[1]


def reference_face(program, duals):
    """The columns of the optimal face by the duals' complementary
    slackness, in ``Fraction``s: every free column, and every nonnegative
    one whose reduced cost ``c_j - sum_i y_i a_ij`` is 0."""
    reduced = [F(0)] * program.num_vars
    for j, v in program.objective:
        reduced[j] += v
    for yi, con in zip(duals, program.constraints):
        for j, v in con.terms:
            reduced[j] -= yi * v
    return [j for j in range(program.num_vars) if not (program.nonnegative[j] and reduced[j])]


class TestFaceFlags:
    """Every tie-break keeps the columns that the kernel flags as of zero
    reduced cost (``LPOutcome.zero_reduced``): the face that the first
    solve's duals give."""

    def test_flagged_columns_are_the_face_of_the_duals(self, monkeypatch):
        real = forward._lexicographic
        narrowed = []

        def checked(program, tiebreak, basis=None):
            x, first = real(program, tiebreak, basis)
            flagged = [j for j, zero in enumerate(first.zero_reduced) if zero]
            assert flagged == reference_face(program, first.duals)
            narrowed.append(len(flagged) < program.num_vars)
            return x, first

        monkeypatch.setattr(forward, "_lexicographic", checked)
        for prior, menu, cost, points in forward_cases():
            solve_forward(ForwardProblem.build(prior, menu, cost, uniform_points=points))
        for prior, menus, cost in generation_cases():
            generate_dataset(prior, menus, cost)
        assert len(narrowed) == 2 * 44 + sum(len(menus) for _, menus, _ in generation_cases())
        assert sum(narrowed) > len(narrowed) // 2


def golden_generation_specs():
    """(prior, menus, cost) of the generation specs under ``tests/golden``."""
    for path in sorted((Path(__file__).parent / "golden").glob("generate_*.json")):
        yield io.parse_generation_spec(json.loads(path.read_text()))


def transport_program(prior: Prior, dist: DiscreteCDF) -> lp.LinearProgram:
    """The transport program whose vertex was the witness before the
    left-curtain coupling: a column per (state of positive weight, atom),
    row-major; each state's row sums to its weight, and each atom's
    column sums to its mass with first moment mass times location. Its
    feasible points are exactly the martingale couplings."""
    live = [zi for zi, w in enumerate(prior.weights) if w > 0]
    states, na = prior.state_space.states, len(dist.atoms)
    cons = [
        lp.constraint({si * na + ai: F(1) for ai in range(na)}, lp.EQ, prior.weights[zi])
        for si, zi in enumerate(live)
    ]
    for ai, (g, p) in enumerate(dist.atoms):
        cons.append(lp.constraint({si * na + ai: F(1) for si in range(len(live))}, lp.EQ, p))
        cons.append(
            lp.constraint({si * na + ai: states[zi] for si, zi in enumerate(live)}, lp.EQ, g * p)
        )
    return lp.LinearProgram(
        num_vars=len(live) * na, nonnegative=(True,) * (len(live) * na), constraints=tuple(cons)
    )


def transport_columns(prior: Prior, dist: DiscreteCDF) -> list[tuple[int, int]]:
    """The (state index, atom index) of each column of ``transport_program``."""
    live = [zi for zi, w in enumerate(prior.weights) if w > 0]
    return [(zi, ai) for zi in live for ai in range(len(dist.atoms))]


def transport_vertex(prior: Prior, dist: DiscreteCDF) -> dict:
    """The vertex of ``transport_program`` that the simplex reaches, as a
    plan of its positive entries: the witness of the earlier generator."""
    program = transport_program(prior, dist)
    outcome = lp.solve(program)
    assert outcome.status == lp.FEASIBLE and lp.satisfies(program, outcome.x)
    return {key: m for key, m in zip(transport_columns(prior, dist), outcome.x) if m}


def is_left_monotone(plan) -> bool:
    """No atoms x < x' and states y1 < y2 < y3 such that x has mass on y1
    and y3 and x' has mass on y2 (atoms and states indexed in order)."""
    support: dict[int, set[int]] = {}
    for (zi, ai), mass in plan.items():
        if mass:
            support.setdefault(ai, set()).add(zi)
    return not any(
        min(ys) < y < max(ys)
        for ai, ys in support.items()
        for aj, others in support.items()
        if aj > ai
        for y in others
    )


def right_curtain(prior: Prior, dist: DiscreteCDF) -> dict:
    """The right-curtain coupling, which takes the atoms from the right:
    the left-curtain coupling of the mirrored problem (every state and
    location z read as 1 - z), mapped back."""
    ns, na = len(prior.weights), len(dist.atoms)
    mirror = Prior(
        StateSpace(tuple(1 - z for z in reversed(prior.state_space.states))),
        tuple(reversed(prior.weights)),
    )
    mirrored = DiscreteCDF(tuple((1 - z, p) for z, p in reversed(dist.atoms)))
    return {
        (ns - 1 - zi, na - 1 - ai): mass
        for (zi, ai), mass in forward._left_curtain(mirror, mirrored).items()
    }


def shifted_shadow_end(prior: Prior, dist: DiscreteCDF, plan: dict) -> dict | None:
    """``plan`` with the highest state of the first atom's shadow that
    does not reach the last state moved one state up; None when every
    shadow reaches it."""
    for ai in range(len(dist.atoms)):
        top = max(zi for zi, aj in plan if aj == ai)
        if top + 1 < len(prior.weights):
            mutant = dict(plan)
            mutant[(top + 1, ai)] = mutant.get((top + 1, ai), F(0)) + mutant.pop((top, ai))
            return mutant
    return None


def dropped_partial_end(prior: Prior, dist: DiscreteCDF, plan: dict) -> dict | None:
    """``plan`` without the first end of a shadow that takes only part of
    its state's mass; None when no shadow has such an end."""
    for ai in range(len(dist.atoms)):
        shadow = [zi for zi, aj in plan if aj == ai]
        for zi in sorted({min(shadow), max(shadow)}):
            if plan[(zi, ai)] < prior.weights[zi]:
                return {key: m for key, m in plan.items() if key != (zi, ai)}
    return None


@pytest.fixture(scope="module")
def couplings():
    """(prior, distribution, plan) of every menu that ``generate_dataset``
    couples over ``generation_cases()`` and the golden specs."""
    seen = []
    real = forward._decompose

    def recorded(prior, dist):
        plan = real(prior, dist)
        seen.append((prior, dist, plan))
        return plan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forward, "_decompose", recorded)
        for case in (*generation_cases(), *golden_generation_specs()):
            generate_dataset(*case)
    return seen


class TestLeftCurtain:
    """The transport witness is the left-curtain coupling (Beiglböck &
    Juillet 2016), checked against the transport program it replaced."""

    def test_every_coupling_satisfies_the_transport_program(self, couplings):
        assert len(couplings) == 3 * 66 + 1 + 3 * 4
        for prior, dist, plan in couplings:
            columns = transport_columns(prior, dist)
            assert set(plan) <= set(columns)
            x = [plan.get(key, F(0)) for key in columns]
            assert lp.satisfies(transport_program(prior, dist), x)

    def test_every_coupling_is_left_monotone(self, couplings):
        assert all(is_left_monotone(plan) for _, _, plan in couplings)

    def test_a_transport_vertex_is_left_monotone_only_where_it_is_the_coupling(
        self, couplings
    ):
        """The left-curtain coupling is the only left-monotone martingale
        coupling, so left monotonicity tells it from the other witnesses."""
        differ = 0
        for prior, dist, plan in couplings:
            vertex = transport_vertex(prior, dist)
            assert is_left_monotone(vertex) == (vertex == plan)
            differ += vertex != plan
        assert differ >= 50

    @pytest.mark.parametrize("mutant", [shifted_shadow_end, dropped_partial_end])
    def test_a_broken_shadow_fails_the_recheck(self, couplings, monkeypatch, mutant):
        broken = 0
        for prior, dist, plan in couplings:
            bad = mutant(prior, dist, plan)
            if bad is None:
                continue
            broken += 1
            monkeypatch.setattr(forward, "_left_curtain", lambda prior, dist: bad)
            with pytest.raises(RuntimeError, match="failed direct verification"):
                forward._decompose(prior, dist)
        assert broken >= 100

    def test_the_right_curtain_passes_the_recheck_but_is_not_left_monotone(
        self, couplings, monkeypatch
    ):
        """Taking the atoms from the right gives another valid witness,
        the right-curtain coupling. The re-check accepts it; only left
        monotonicity rejects it where it differs from the left curtain."""
        differ = 0
        for prior, dist, plan in couplings:
            mirrored = right_curtain(prior, dist)
            with monkeypatch.context() as patch:
                patch.setattr(forward, "_left_curtain", lambda prior, dist: mirrored)
                assert forward._decompose(prior, dist) == mirrored
            assert is_left_monotone(mirrored) == (mirrored == plan)
            differ += mirrored != plan
        assert differ >= 50

    def test_a_missing_shadow_is_reported(self, four_state_uniform_prior):
        """A distribution more spread out than the prior has no coupling."""
        spread = DiscreteCDF(((F(0), F(1, 2)), (F(1), F(1, 2))))
        with pytest.raises(RuntimeError, match="infeasible for a contraction"):
            forward._decompose(four_state_uniform_prior, spread)

    def test_revealed_summaries_equal_those_of_the_transport_vertex(self, monkeypatch):
        """The coupling moves some choice probabilities but no revealed
        summary, so nothing read from generated data can move."""
        cases = [*generation_cases(), *golden_generation_specs()]
        coupled = [generate_dataset(*case) for case in cases]
        monkeypatch.setattr(forward, "_decompose", transport_vertex)
        moved = 0
        for case, ds in zip(cases, coupled):
            reference = generate_dataset(*case)
            moved += ds != reference
            for obs, ref in zip(ds.observations, reference.observations):
                a, b = revealed_summary(obs), revealed_summary(ref)
                assert (a.act_means, a.act_probabilities, a.cdf) == (
                    b.act_means, b.act_probabilities, b.cdf
                )
        assert moved >= 1


class TestGenerateDataset:
    def test_matches_the_data_of_solve_forward(self):
        """The flattest price is never shown in the data, so stopping
        before the dual changes no generated dataset."""
        cases = list(generation_cases())
        assert len(cases) >= 64
        for n, (prior, menus, cost) in enumerate(cases):
            assert generate_dataset(prior, menus, cost) == generated_from_solve_forward(
                prior, menus, cost
            ), n

    def test_solves_the_program_and_its_face_only(self, monkeypatch):
        """Per menu: the first solve and its tie-break on the optimal face;
        no dual, and no program for the transport witness, which is the
        left-curtain coupling. ``solve_forward`` still makes four solves,
        two of them on the dual."""
        counts = Counter()
        for name in ("solve", "dual", "dual_basis"):
            def counted(*args, _real=getattr(lp, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(lp, name, counted)
        prior, menus, cost = pooled_act_case()
        generate_dataset(prior, menus, cost)
        assert counts == {"solve": 2 * len(menus)}
        counts.clear()
        solve_forward(ForwardProblem.build(prior, menus[0], cost))
        assert counts == {"solve": 4, "dual": 1, "dual_basis": 1}


    def test_singleton_menu_generates_uninformative_data(self, four_state_uniform_prior):
        menu = Menu(id="solo", acts=(Act("a", F(1), F(2)),))
        ds = generate_dataset(four_state_uniform_prior, [menu], ZERO_COST)
        rows = ds.observations[0].sdsc.rows
        assert all(v == 1 for v in rows[0])
        summary = revealed_summary(ds.observations[0])
        assert summary.cdf.atoms == ((F(1, 2), F(1)),)

    def test_pooling_solution_reproduced_by_bayes(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost
    ):
        ds = generate_dataset(
            four_state_uniform_prior, [three_act_menu], steep_pooling_cost
        )
        summary = revealed_summary(ds.observations[0])
        assert summary.cdf.atoms == (
            (F(1, 6), F(1, 2)),
            (F(5, 6), F(1, 2)),
        )

    def test_monotone_partitional_mass_stays_in_its_interval(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost
    ):
        """When the optimum is monotone partitional, every state strictly
        inside a pooling interval feeds exactly one posterior mean."""
        problem = ForwardProblem.build(
            four_state_uniform_prior, three_act_menu, steep_pooling_cost
        )
        sol = solve_forward(problem)
        f0 = prior_cdf(four_state_uniform_prior)
        assert is_monotone_partitional(f0, sol.distribution)
        ds = generate_dataset(
            four_state_uniform_prior, [three_act_menu], steep_pooling_cost
        )
        rows = ds.observations[0].sdsc.rows
        # states 0, 1/3 feed the 1/6 pool served by a1; 2/3, 1 feed 5/6 by a3
        assert rows[0][0] == 1 and rows[0][1] == 1 and rows[0][2] == 0 and rows[0][3] == 0
        assert rows[2][2] == 1 and rows[2][3] == 1

    def test_generated_data_is_bayes_consistent(self):
        rng = random.Random(59)
        for _ in range(8):
            locs = [F(0)] + sorted({F(rng.randint(1, 9), 10) for _ in range(2)}) + [F(1)]
            weights = [F(rng.randint(1, 4)) for _ in locs]
            tot = sum(weights)
            space = StateSpace(states=tuple(locs))
            prior = Prior(state_space=space, weights=tuple(w / tot for w in weights))
            menu = Menu(
                id="m",
                acts=(Act("a", F(1, 2), F(-1, 2)), Act("b", F(-1, 2), F(1, 2))),
            )
            cost = PiecewiseScalarFunction.from_points(
                [(F(0), F(-1, 8)), (F(1, 2), F(0)), (F(1), F(-1, 8))]
            )
            sol = solve_forward(ForwardProblem.build(prior, menu, cost))
            ds = generate_dataset(prior, [menu], cost)
            summary = revealed_summary(ds.observations[0])
            # revealed distribution reproduces the optimal one up to merges
            # of atoms served by one act; compare as contraction both ways
            assert is_mpc(sol.distribution, summary.cdf)
            assert summary.cdf.mean == prior.mean

    def test_generated_data_passes_both_axioms(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost
    ):
        ds = generate_dataset(
            four_state_uniform_prior, [three_act_menu], steep_pooling_cost
        )
        assert check_nias(ds).passed
        assert check_nipmc(ds).passed

    def test_pooled_act_means_can_fail_the_cycle_axiom(self):
        """Choice data reveals one mean per act. Under this dip cost (a deep
        convex trough) the forward optimum of menus m0 and m2 sends two
        support points to one act, so the generated data shows their pooled
        mean, and the cycle axiom rightly rejects it."""
        prior, menus, cost = pooled_act_case()
        pooled = []
        for menu in menus:
            acts = solve_forward(ForwardProblem.build(prior, menu, cost)).assignments
            pooled.append(len(set(acts)) < len(acts))
        assert pooled == [True, False, True]
        ds = generate_dataset(prior, menus, cost)
        assert check_nias(ds).passed
        verdict = check_nipmc(ds)
        assert not verdict.passed
        beta = [verdict.certificate.get(key, F(0)) for key in verdict.system.rows]
        assert lp.verify_certificate(verdict.system.to_linear_program(), beta)

    def test_every_dip_cost_failure_has_a_pooled_act(self):
        """Data generated under a dip cost that fails ``check`` always has
        a menu whose forward optimum serves two support points by one act:
        the garbling is the only way generated data fails. Each draw takes
        a fresh seeded generator, drawing the prior, the cost and the
        menus in turn, as the benchmark's concavity datasets do."""
        failed = 0
        for seed in range(80):
            for n_states in (4, 5):
                rng = random.Random(seed)
                prior, cost = random_prior(rng, n_states), dip_cost(rng)
                menus = [random_menu(rng, f"m{i}", 3) for i in range(3)]
                ds = generate_dataset(prior, menus, cost)
                if check_nias(ds).passed and check_nipmc(ds).passed:
                    continue
                failed += 1
                served = [
                    solve_forward(ForwardProblem(prior, menu, cost)).assignments
                    for menu in menus
                ]
                assert any(len(set(acts)) < len(acts) for acts in served), (seed, n_states)
        assert failed >= 1

    def test_concave_cost_data_passes_both_axioms_and_the_audit(self):
        """A concave cost derivative makes pooling same-act posteriors weakly
        better, so generated data is optimal and rationalizable."""
        rng = random.Random(31)
        for trial in range(100):
            prior = random_prior(rng, 4)
            menus = [random_menu(rng, f"m{i}", 3) for i in range(3)]
            ds = generate_dataset(prior, menus, concave_cost(rng))
            assert check_nias(ds).passed, trial
            verdict = check_nipmc(ds)
            assert verdict.passed, trial
            prices = [price_function(verdict.multipliers, oi) for oi in range(3)]
            recovered = recover_cost(ds, verdict.multipliers)
            assert verify_rationalization(ds, recovered, prices).all_ok, trial

    def test_zero_weight_state_goes_to_its_best_act(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost
    ):
        """A state of prior weight 0 is never realized; its choice column
        puts probability 1 on the best act there. At 1/4 acts a1 and a2
        tie, and the lower menu index wins."""
        space = StateSpace(states=(F(0), F(1, 4), F(1, 3), F(2, 3), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 4), F(0), F(1, 4), F(1, 4), F(1, 4)))
        ds = generate_dataset(prior, [three_act_menu], steep_pooling_cost)
        assert validate_dataset(ds).ok
        rows = ds.observations[0].sdsc.rows
        assert [row[1] for row in rows] == [1, 0, 0]
        without = generate_dataset(
            four_state_uniform_prior, [three_act_menu], steep_pooling_cost
        )
        assert (
            revealed_summary(ds.observations[0]).act_means
            == revealed_summary(without.observations[0]).act_means
        )

    def test_corrupted_transport_witness_is_rejected(
        self, three_act_menu, four_state_uniform_prior, steep_pooling_cost, monkeypatch, capsys
    ):
        real_curtain = forward._left_curtain

        def shifted(prior, dist):
            return {key: mass + 1 for key, mass in real_curtain(prior, dist).items()}

        monkeypatch.setattr(forward, "_left_curtain", shifted)
        with pytest.raises(RuntimeError, match="failed direct verification"):
            generate_dataset(four_state_uniform_prior, [three_act_menu], steep_pooling_cost)
        spec = resources.files("infocost.fixtures").joinpath("example3_generate.json")
        assert cli.main(["generate", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
