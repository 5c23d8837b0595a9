"""Optimal information acquisition over mean-preserving contractions.

The problem of maximizing the integral of (indirect utility + cost
derivative) over Bayes-feasible distributions of posterior means reduces
to a finite linear program once every function kink and every prior atom
sits on the grid: the contraction gap is then piecewise linear with kinks
only at grid points, so checking it on the grid decides it everywhere,
and the dual over grid-kinked convex price functions is exact for the
same reason.

Three tie-breaks keep output deterministic and reproducible:

* among optimal distributions, minimum variance (the least informative
  optimum, matching how pooled solutions are conventionally reported);
* among optimal price functions, minimum total interior kink mass;
* among optimal acts at a support point, lowest menu index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp, numeric
from .model import SDSC, Dataset, Menu, Observation, Prior, utility
from .numeric import Scalar
from .piecewise import PiecewiseScalarFunction
from .recovery import menu_value_function
from .revealed import DiscreteCDF


@dataclass(frozen=True)
class ForwardProblem:
    prior: Prior
    menu: Menu
    cost: PiecewiseScalarFunction
    grid: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(_dedupe(self.grid)))
        need = {numeric.scalar(0), numeric.scalar(1)}
        need.update(
            z
            for z, w in zip(self.prior.state_space.states, self.prior.weights)
            if w > 0
        )
        if not need <= set(self.grid):
            raise ValueError("grid must contain 0, 1, and every prior support point")

    @classmethod
    def build(
        cls,
        prior: Prior,
        menu: Menu,
        cost: PiecewiseScalarFunction,
        extra: tuple[Scalar, ...] = (),
        uniform_points: int = 0,
    ) -> "ForwardProblem":
        """Assemble the canonical grid: prior support, both functions'
        breakpoints, the prior mean, plus any extra or uniform points."""
        pts = {numeric.scalar(0), numeric.scalar(1), prior.mean}
        pts.update(
            z
            for z, w in zip(prior.state_space.states, prior.weights)
            if w > 0
        )
        pts.update(menu_value_function(menu).breakpoints)
        pts.update(cost.breakpoints)
        pts.update(extra)
        if uniform_points > 0:
            for j in range(uniform_points + 1):
                pts.add(numeric.scalar(Fraction(j, uniform_points)))
        return cls(prior=prior, menu=menu, cost=cost, grid=tuple(_dedupe(pts)))


def _dedupe(points) -> list[Scalar]:
    out: list[Scalar] = []
    for p in sorted(points):
        if not out or out[-1] != p:
            out.append(p)
    return out


@dataclass(frozen=True)
class ForwardSolution:
    distribution: DiscreteCDF
    value: Scalar
    price: PiecewiseScalarFunction
    multipliers: dict[Scalar, Scalar]
    assignments: tuple[str, ...]
    objective: PiecewiseScalarFunction


def _hinge_mass(prior: Prior, z: Scalar) -> Scalar:
    """Running integral of the prior CDF up to ``z``."""
    return sum(
        w * (z - s)
        for s, w in zip(prior.state_space.states, prior.weights)
        if w > 0 and s < z
    )


def _grid_lp(problem: ForwardProblem, grid, values):
    """Primal program: maximize sum V(g) f(g) over grid contractions."""
    n = len(grid)
    one = numeric.scalar(1)
    cons = [lp.constraint({j: one for j in range(n)}, lp.EQ, one)]
    for gp in grid[1:]:
        coeffs = {
            j: gp - g for j, g in enumerate(grid) if g < gp
        }
        rel = lp.EQ if gp == 1 else lp.LE
        cons.append(lp.constraint(coeffs, rel, _hinge_mass(problem.prior, gp)))
    return lp.LinearProgram(
        num_vars=n,
        nonnegative=(True,) * n,
        constraints=tuple(cons),
        objective=tuple((j, v) for j, v in enumerate(values)),
        sense=lp.MAX,
    )


def _solve_primal(problem: ForwardProblem, grid, values):
    program = _grid_lp(problem, grid, values)
    first = lp.solve(program)
    if first.status != lp.OPTIMAL:
        raise RuntimeError(f"forward program unexpectedly {first.status}")
    best = first.objective_value
    assert best is not None

    z0 = problem.prior.mean
    pinned = program.constraints + (
        lp.constraint({j: v for j, v in enumerate(values)}, lp.EQ, best),
    )
    spread = {j: (g - z0) * (g - z0) for j, g in enumerate(grid)}
    second = lp.solve(
        lp.LinearProgram(
            num_vars=len(grid),
            nonnegative=(True,) * len(grid),
            constraints=pinned,
            objective=tuple(spread.items()),
            sense=lp.MIN,
        )
    )
    if second.status != lp.OPTIMAL:
        raise RuntimeError("variance tie-break program unexpectedly infeasible")
    assert second.x is not None
    return best, second.x


def _solve_dual(problem: ForwardProblem, grid, values, best):
    """Explicit dual: nu + hinge multipliers, flattest optimal selection.

    Variables: intercept (free), one multiplier per interior grid point
    (nonnegative), one for the terminal equality (free). Constraint per
    grid point g: price(g) >= V(g).
    """
    n = len(grid)
    interior = [j for j in range(1, n - 1)]
    nvars = 1 + len(interior) + 1
    col_of = {g_idx: 1 + k for k, g_idx in enumerate(interior)}
    last = nvars - 1
    one = numeric.scalar(1)

    cons = []
    for j, g in enumerate(grid):
        coeffs: dict[int, Scalar] = {0: one, last: 1 - g}
        for gi in interior:
            gp = grid[gi]
            if g < gp:
                coeffs[col_of[gi]] = gp - g
        cons.append(lp.constraint(coeffs, lp.GE, values[j]))

    objective = {0: one, last: _hinge_mass(problem.prior, numeric.scalar(1))}
    for gi in interior:
        objective[col_of[gi]] = _hinge_mass(problem.prior, grid[gi])
    nonneg = tuple(j not in (0, last) for j in range(nvars))

    first = lp.solve(
        lp.LinearProgram(
            num_vars=nvars,
            nonnegative=nonneg,
            constraints=tuple(cons),
            objective=tuple(objective.items()),
            sense=lp.MIN,
        )
    )
    if first.status != lp.OPTIMAL or first.objective_value != best:
        raise RuntimeError("dual value does not match the primal optimum")

    pinned = tuple(cons) + (lp.constraint(objective, lp.EQ, best),)
    flat = {col_of[gi]: one for gi in interior}
    second = lp.solve(
        lp.LinearProgram(
            num_vars=nvars,
            nonnegative=nonneg,
            constraints=pinned,
            objective=tuple(flat.items()),
            sense=lp.MIN,
        )
    )
    if second.status != lp.OPTIMAL:
        raise RuntimeError("flattest price selection failed")
    assert second.x is not None
    x = second.x
    multipliers: dict[Scalar, Scalar] = {numeric.scalar(0): x[0]}
    for gi in interior:
        multipliers[grid[gi]] = x[col_of[gi]]
    multipliers[numeric.scalar(1)] = x[last]
    return multipliers


def _price_from_multipliers(grid, multipliers) -> PiecewiseScalarFunction:
    points = []
    intercept = multipliers.get(numeric.scalar(0), numeric.scalar(0))
    for x in grid:
        val = intercept
        for z, v in multipliers.items():
            if z > 0 and z >= x:
                val += v * (z - x)
        points.append((x, val))
    return PiecewiseScalarFunction.from_points(points).simplify()


def solve_forward(problem: ForwardProblem) -> ForwardSolution:
    """Solve the grid program and certify the solution with its price.

    Raises if any certificate condition fails: the price must majorize the
    objective on the grid, touch it on the support of the optimum, and
    integrate identically against the optimum and the prior.
    """
    grid = list(problem.grid)
    objective_fn = menu_value_function(problem.menu) + problem.cost
    values = [
        problem.cost(g) + max(utility(a, g) for a in problem.menu.acts)
        for g in grid
    ]
    best, f = _solve_primal(problem, grid, values)
    multipliers = _solve_dual(problem, grid, values, best)
    price = _price_from_multipliers(grid, multipliers)

    for j, g in enumerate(grid):
        if price(g) - values[j] < 0:
            raise RuntimeError("price fails to majorize the objective on the grid")
        if f[j] > 0 and price(g) - values[j] != 0:
            raise RuntimeError("price does not touch the objective on the support")
    lhs = sum(f[j] * price(g) for j, g in enumerate(grid))
    rhs = sum(
        w * price(z)
        for z, w in zip(problem.prior.state_space.states, problem.prior.weights)
        if w > 0
    )
    if not (lhs == rhs and lhs == best):
        raise RuntimeError("price integrals disagree with the optimal value")

    dist = DiscreteCDF.from_pairs(
        (g, f[j]) for j, g in enumerate(grid) if f[j] > 0
    )
    assignments = tuple(_best_act(problem.menu, z) for z in dist.support)
    return ForwardSolution(
        distribution=dist,
        value=best,
        price=price,
        multipliers=multipliers,
        assignments=assignments,
        objective=objective_fn,
    )


def _best_act(menu: Menu, z: Scalar) -> str:
    best_id = menu.acts[0].id
    best_val = utility(menu.acts[0], z)
    for act in menu.acts[1:]:
        v = utility(act, z)
        if v > best_val:
            best_id, best_val = act.id, v
    return best_id


def oracle_value(problem: ForwardProblem, resolution: int) -> Scalar:
    """Re-solve on a uniform refinement merged into the problem grid.

    Refining can only enlarge the feasible support, so the value is
    nondecreasing in ``resolution``; for piecewise-linear objectives it is
    constant, which the acceptance suite exploits as a self-check.
    """
    if resolution < len(problem.grid):
        raise ValueError("resolution must be at least the grid size")
    pts = set(problem.grid)
    for j in range(resolution):
        pts.add(numeric.scalar(Fraction(j, resolution - 1)))
    grid = _dedupe(pts)
    values = [
        problem.cost(g) + max(utility(a, g) for a in problem.menu.acts)
        for g in grid
    ]
    outcome = lp.solve(_grid_lp(problem, grid, values))
    if outcome.status != lp.OPTIMAL:
        raise RuntimeError(f"oracle program unexpectedly {outcome.status}")
    assert outcome.objective_value is not None
    return outcome.objective_value


def _decompose(prior: Prior, dist: DiscreteCDF):
    """Transportation witness moving prior mass onto posterior means.

    Row sums match the prior, column sums match the target, and each
    column's barycenter is its location; feasibility is exactly the
    contraction property. Any witness satisfies Bayes consistency.
    """
    states = [
        (zi, z, w)
        for zi, (z, w) in enumerate(
            zip(prior.state_space.states, prior.weights)
        )
        if w > 0
    ]
    atoms = dist.atoms
    ns, na = len(states), len(atoms)

    def var(si: int, ai: int) -> int:
        return si * na + ai

    cons = []
    one = numeric.scalar(1)
    for si, (_, _, w) in enumerate(states):
        cons.append(
            lp.constraint({var(si, ai): one for ai in range(na)}, lp.EQ, w)
        )
    for ai, (g, p) in enumerate(atoms):
        cons.append(
            lp.constraint({var(si, ai): one for si in range(ns)}, lp.EQ, p)
        )
        cons.append(
            lp.constraint(
                {var(si, ai): states[si][1] for si in range(ns)},
                lp.EQ,
                g * p,
            )
        )
    outcome = lp.solve(
        lp.LinearProgram(
            num_vars=ns * na,
            nonnegative=(True,) * (ns * na),
            constraints=tuple(cons),
        )
    )
    if outcome.status != lp.FEASIBLE:
        raise RuntimeError("transportation decomposition infeasible for a contraction")
    assert outcome.x is not None
    plan = {}
    for si, (zi, _, _) in enumerate(states):
        for ai in range(na):
            plan[(zi, ai)] = outcome.x[var(si, ai)]
    return plan


def generate_dataset(
    prior: Prior,
    menus,
    cost: PiecewiseScalarFunction,
) -> Dataset:
    """Produce choice data that an optimizing agent with this cost would emit.

    Each menu is solved forward; every support point of the optimal
    distribution is served by its best act (lowest index on ties), and a
    transportation witness converts the distribution into per-state choice
    probabilities through Bayes' rule.
    """
    observations = []
    zero = numeric.scalar(0)
    nstates = len(prior.state_space.states)
    for menu in menus:
        sol = solve_forward(ForwardProblem.build(prior, menu, cost))
        plan = _decompose(prior, sol.distribution)
        rows = [[zero] * nstates for _ in menu.acts]
        for (zi, ai), mass in plan.items():
            if mass == 0:
                continue
            act_row = menu.act_index(sol.assignments[ai])
            rows[act_row][zi] += mass / prior.weights[zi]
        for zi, (z, w) in enumerate(zip(prior.state_space.states, prior.weights)):
            if w > 0:
                continue
            rows[menu.act_index(_best_act(menu, z))][zi] = numeric.scalar(1)
        observations.append(
            Observation(
                prior=prior,
                menu=menu,
                sdsc=SDSC(rows=tuple(tuple(r) for r in rows)),
            )
        )
    return Dataset(
        state_space=prior.state_space, observations=tuple(observations)
    )
