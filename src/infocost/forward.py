"""Optimal information acquisition over mean-preserving contractions.

The problem of maximizing the integral of (indirect utility + cost
derivative) over Bayes-feasible distributions of posterior means reduces
to a finite linear program once every function kink and every prior atom
sits on the grid: the contraction gap is then piecewise linear with kinks
only at grid points, so checking it on the grid decides it everywhere.
Row k of that program integrates the price basis function of grid point k
(``recovery.hinge``), so its LP dual (``lp.dual``) is the program over
grid-kinked convex price functions, exact for the same reason, and the
optimal duals of any solve of it are the multipliers of a price function
that certifies the optimum.

``solve_forward`` makes four exact solves: the program, its tie-break,
the dual, and the dual's tie-break. Each tie-break runs on the optimal
face of the solve before it (``_lexicographic``). One check then proves
the result optimal (``_certified_price``): the distribution f is a grid
contraction of the prior, the price p is convex and at least the
objective V at every grid point, and the integrals of p against f and
against the prior and of V against f are one number. For any grid
contraction f', that gives

    integral V df' <= integral p df' <= integral p dprior = integral V df,

so f is optimal and p touches V on its support. ``oracle_value``
certifies its single solve the same way.

Three tie-breaks narrow down the reported optimum:

* among optimal distributions, minimum variance (the least informative
  optimum, matching how pooled solutions are conventionally reported);
* among optimal price functions, minimum total interior kink mass;
* among optimal acts at a support point, lowest menu index.

The minimum variance and the minimum kink mass are unique values, but
the optima attaining them need not be unique: two prices can share the
least kink mass with kinks at different grid points. The distribution
and price reported are then whichever optimal vertex the simplex
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .model import SDSC, Dataset, Menu, Observation, Prior, utility
from .piecewise import PiecewiseScalarFunction, sorted_points
from .recovery import hinge, menu_value_function, price_function
from .revealed import DiscreteCDF, prior_cdf


@dataclass(frozen=True)
class ForwardProblem:
    prior: Prior
    menu: Menu
    cost: PiecewiseScalarFunction
    grid: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", sorted_points(self.grid))
        need = {Fraction(0), Fraction(1), *prior_cdf(self.prior).support}
        if not need <= set(self.grid):
            raise ValueError("grid must contain 0, 1, and every prior support point")

    @classmethod
    def build(
        cls,
        prior: Prior,
        menu: Menu,
        cost: PiecewiseScalarFunction,
        extra: tuple[Fraction, ...] = (),
        uniform_points: int = 0,
    ) -> "ForwardProblem":
        """Assemble the canonical grid: prior support, both functions'
        breakpoints, the prior mean, plus any extra or uniform points."""
        pts = {Fraction(0), Fraction(1), prior.mean}
        pts.update(prior_cdf(prior).support)
        pts.update(menu_value_function(menu).breakpoints)
        pts.update(cost.breakpoints)
        pts.update(extra)
        if uniform_points > 0:
            for j in range(uniform_points + 1):
                pts.add(Fraction(j, uniform_points))
        return cls(prior=prior, menu=menu, cost=cost, grid=sorted_points(pts))


@dataclass(frozen=True)
class ForwardSolution:
    distribution: DiscreteCDF
    value: Fraction
    price: PiecewiseScalarFunction
    multipliers: dict[Fraction, Fraction]
    assignments: tuple[str, ...]
    objective: PiecewiseScalarFunction


def _grid_lp(problem: ForwardProblem, grid, objective: PiecewiseScalarFunction):
    """Primal program: maximize sum V(g) f(g) over grid contractions,
    where V is ``objective``.

    Row k integrates the price basis function of ``grid[k]`` against f and
    bounds it by the prior's integral: row 0 (the intercept) fixes total
    mass, the row at 1 fixes the mean, and every interior row is the
    contraction constraint at that grid point.
    """
    support = prior_cdf(problem.prior).atoms
    cons = [
        lp.constraint(
            {j: hinge(gp, g) for j, g in enumerate(grid)},
            lp.EQ if gp in (0, 1) else lp.LE,
            sum(w * hinge(gp, s) for s, w in support),
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


def _lexicographic(
    program: lp.LinearProgram, tiebreak: tuple[tuple[int, Fraction], ...]
) -> tuple[Fraction, ...]:
    """An optimum of ``program`` that minimizes ``tiebreak``.

    The second solve runs on the optimal face, which complementary
    slackness reads off the first solve's duals ``y``: a feasible point is
    optimal exactly when it is 0 on every nonnegative column whose reduced
    cost ``c_j - sum_i y_i a_ij`` is nonzero and meets every inequality
    row with ``y_i != 0`` with equality. So those columns are dropped
    (their values are 0), those rows become ``=``, and no row pins the
    objective. The point is returned unchecked; ``_certified_price``
    proves the forward optimum.
    """
    first = lp.solve(program)
    if first.status != lp.OPTIMAL:
        raise RuntimeError(f"forward program unexpectedly {first.status}")
    y = first.duals
    assert y is not None
    reduced = [Fraction(0)] * program.num_vars
    for j, v in program.objective:
        reduced[j] += v
    for yi, con in zip(y, program.constraints):
        if yi:
            for j, v in con.terms:
                reduced[j] -= yi * v
    keep = [
        j for j in range(program.num_vars)
        if not (program.nonnegative[j] and reduced[j])
    ]
    column = {j: k for k, j in enumerate(keep)}
    face = lp.LinearProgram(
        num_vars=len(keep),
        nonnegative=tuple(program.nonnegative[j] for j in keep),
        constraints=tuple(
            lp.Constraint(
                terms=tuple((column[j], v) for j, v in con.terms if j in column),
                relation=lp.EQ if yi else con.relation,
                rhs=con.rhs,
            )
            for yi, con in zip(y, program.constraints)
        ),
        objective=tuple((column[j], v) for j, v in tiebreak if j in column),
        sense=lp.MIN,
    )
    second = lp.solve(face)
    if second.status != lp.OPTIMAL:
        raise RuntimeError(f"forward tie-break program unexpectedly {second.status}")
    assert second.x is not None
    x = [Fraction(0)] * program.num_vars
    for k, j in enumerate(keep):
        x[j] = second.x[k]
    return tuple(x)


def _certified_price(problem: ForwardProblem, program: lp.LinearProgram, f, multipliers):
    """Price of grid multipliers and the value it certifies for ``f``.

    ``program`` is the grid program of ``problem`` on the grid that keys
    ``multipliers``. Raises unless ``f`` satisfies ``program`` (it is a
    grid contraction of the prior), the price is convex and at least the
    objective at every grid point, and the integrals of the price against
    ``f`` and against the prior and of the objective against ``f`` are one
    number. That number, the optimal value, is returned with the price.
    """
    if not lp.satisfies(program, f):
        raise RuntimeError("forward optimum is not a contraction of the prior")
    price = price_function(
        {(0, z): v for z, v in multipliers.items() if v}, 0
    ).simplify()
    slopes = price.slopes()
    if any(s > t for s, t in zip(slopes, slopes[1:])):
        raise RuntimeError("forward price is not convex")
    grid = list(multipliers)
    if any(price(grid[j]) < v for j, v in program.objective):
        raise RuntimeError("forward price fails to majorize the objective on the grid")
    value = sum(f[j] * v for j, v in program.objective)
    on_f = sum(f[j] * price(g) for j, g in enumerate(grid))
    on_prior = sum(w * price(z) for z, w in prior_cdf(problem.prior).atoms)
    if not value == on_f == on_prior:
        raise RuntimeError("forward price integrals disagree with the objective")
    return price, value


def solve_forward(problem: ForwardProblem) -> ForwardSolution:
    """Solve the grid program and certify the solution with its price.

    Raises unless ``_certified_price`` proves the distribution optimal.
    """
    grid = list(problem.grid)
    objective_fn = menu_value_function(problem.menu) + problem.cost
    program = _grid_lp(problem, grid, objective_fn)
    # least informative optimum: minimum variance of the posterior means
    z0 = problem.prior.mean
    f = _lexicographic(
        program, tuple((j, (g - z0) * (g - z0)) for j, g in enumerate(grid))
    )
    # flattest optimal price: variable k of the dual multiplies grid point
    # k's price basis function; minimize the total interior mass
    dual = lp.dual(program)
    y = _lexicographic(
        dual, tuple((k, Fraction(1)) for k, nonneg in enumerate(dual.nonnegative) if nonneg)
    )
    multipliers = dict(zip(grid, y))
    price, value = _certified_price(problem, program, f, multipliers)

    dist = DiscreteCDF.from_pairs(
        (g, f[j]) for j, g in enumerate(grid) if f[j] > 0
    )
    assignments = tuple(_best_act(problem.menu, z) for z in dist.support)
    return ForwardSolution(
        distribution=dist,
        value=value,
        price=price,
        multipliers=multipliers,
        assignments=assignments,
        objective=objective_fn,
    )


def _best_act(menu: Menu, z: Fraction) -> str:
    """Id of the best act at ``z``; ``max`` keeps the first, lowest index."""
    return max(menu.acts, key=lambda act: utility(act, z)).id


def oracle_value(problem: ForwardProblem, resolution: int) -> Fraction:
    """Re-solve on a uniform refinement merged into the problem grid.

    Refining can only enlarge the feasible support, so the value is
    nondecreasing in ``resolution``; for piecewise-linear objectives it is
    constant, which the acceptance suite exploits as a self-check. The
    value is certified like ``solve_forward``'s (``_certified_price``), by
    the price whose multipliers are the program's duals, row k going with
    grid point k.
    """
    if resolution < len(problem.grid):
        raise ValueError("resolution must be at least the grid size")
    pts = set(problem.grid)
    for j in range(resolution):
        pts.add(Fraction(j, resolution - 1))
    grid = sorted_points(pts)
    program = _grid_lp(problem, grid, menu_value_function(problem.menu) + problem.cost)
    outcome = lp.solve(program)
    if outcome.status != lp.OPTIMAL:
        raise RuntimeError(f"oracle program unexpectedly {outcome.status}")
    assert outcome.x is not None and outcome.duals is not None
    return _certified_price(problem, program, outcome.x, dict(zip(grid, outcome.duals)))[1]


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
    one = Fraction(1)
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
    program = lp.LinearProgram(
        num_vars=ns * na,
        nonnegative=(True,) * (ns * na),
        constraints=tuple(cons),
    )
    outcome = lp.solve(program)
    if outcome.status != lp.FEASIBLE:
        raise RuntimeError("transportation decomposition infeasible for a contraction")
    assert outcome.x is not None
    if not lp.satisfies(program, outcome.x):
        raise RuntimeError("transportation witness failed direct verification")
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

    Choice data reveals one mean per act. When the optimum sends two
    support points to one act, the data shows their pooled mean, a
    garbling of what the agent learned. Pooling two points served by one
    act changes only the cost term, which a concave cost derivative
    weakly raises, so the pooled data is then optimal too; under any
    other cost the cycle axiom (``check``) may reject the result.
    """
    observations = []
    zero = Fraction(0)
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
            rows[menu.act_index(_best_act(menu, z))][zi] = Fraction(1)
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
