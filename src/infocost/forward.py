"""Optimal information acquisition over mean-preserving contractions.

The problem of maximizing the integral of (indirect utility + cost
derivative) over Bayes-feasible distributions of posterior means reduces
to a finite linear program once every function kink and every prior atom
sits on the grid: the contraction gap is then piecewise linear with kinks
only at grid points, so checking it on the grid decides it everywhere.
``ForwardProblem`` adds those points to whatever grid it is given, so
every grid program (``_grid_lp``, of a problem's own grid) is exact by
construction, ``oracle_value``'s refinement included. Row k of that
program integrates the price basis function of grid point k
(``recovery.hinge``), so its LP dual (``lp.dual``) is the program over
grid-kinked convex price functions, exact for the same reason, and the
optimal duals of any solve of it are the multipliers of a price function
that certifies the optimum.

``solve_forward`` makes four exact solves: the program, its tie-break,
the dual, and the dual's tie-break. Each tie-break runs on the optimal
face of the solve before it (``_lexicographic``). The dual starts from
the basis complementary to the program's optimal one (``lp.dual_basis``),
which is optimal, so it takes no phase one and no phase-two pivot; the
tie-breaks start from scratch. One check then proves
the result optimal (``_certified_price``): the distribution f is a grid
contraction of the prior, the price p is convex and at least the
objective V at every grid point, and the integrals of p against f and
against the prior and of V against f are one number. For any grid
contraction f', that gives

    integral V df' <= integral p df' <= integral p dprior = integral V df,

so f is optimal and p touches V on its support.

``generate_dataset`` and ``oracle_value`` emit no price, so they solve no
dual: the first solve's own optimal duals are the multipliers of a price
that certifies every point of that solve's optimal face, by complementary
slackness, and the same check proves their optimum. So
``generate_dataset`` makes two solves, the program and its tie-break (its
transport witness takes none, ``_decompose``), and ``oracle_value`` makes
one, with no tie-break.

Three tie-breaks narrow down the reported optimum:

* among optimal distributions, minimum variance (the least informative
  optimum, matching how pooled solutions are conventionally reported);
* among optimal price functions, minimum total interior kink mass;
* among optimal acts at a support point, lowest menu index (``Menu.best_act``).

The minimum variance and the minimum kink mass are unique values, but
the optima attaining them need not be unique: two prices can share the
least kink mass with kinks at different grid points. The distribution
and price reported are then whichever optimal vertex the simplex
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp, numeric
from .model import SDSC, Dataset, DiscreteCDF, Menu, Observation, Prior
from .piecewise import PiecewiseScalarFunction, sorted_points
from .recovery import price_function
from .revealed import cdf_integrals


@dataclass(frozen=True)
class ForwardProblem:
    """Maximize the integral of ``objective`` over the contractions of
    ``prior`` supported on ``grid``.

    The grid program is exact by construction: ``grid`` is the given
    points completed with 0, 1, the prior mean, the prior's support and
    every breakpoint of ``objective``, ``Menu.value`` plus the cost
    derivative. The objective is built once, here, and is not a field,
    so no caller can pass one that disagrees with ``menu`` and ``cost``.
    A given grid point that is not a ``Fraction`` raises ``TypeError``,
    and one outside [0, 1] raises ``ValueError``.
    """

    prior: Prior
    menu: Menu
    cost: PiecewiseScalarFunction
    grid: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        given = tuple(self.grid)
        for z in given:
            if not isinstance(z, Fraction):
                raise TypeError(f"grid point {z!r} is a {type(z).__name__}, not a Fraction")
            if not 0 <= z.numerator <= z.denominator:
                raise ValueError(f"grid point {numeric.format_scalar(z)} outside [0, 1]")
        objective = self.menu.value + self.cost
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "grid", sorted_points((
            Fraction(0), Fraction(1), self.prior.mean, *self.prior.distribution.support,
            *objective.breakpoints, *given,
        )))

    @classmethod
    def build(
        cls,
        prior: Prior,
        menu: Menu,
        cost: PiecewiseScalarFunction,
        uniform_points: int = 0,
    ) -> "ForwardProblem":
        """The problem with the points j / ``uniform_points`` added to its
        grid (none when ``uniform_points`` is 0)."""
        steps = range(uniform_points + 1) if uniform_points > 0 else ()
        return cls(prior, menu, cost, tuple(Fraction(j, uniform_points) for j in steps))


@dataclass(frozen=True)
class ForwardSolution:
    distribution: DiscreteCDF
    value: Fraction
    price: PiecewiseScalarFunction
    multipliers: dict[Fraction, Fraction]
    assignments: tuple[str, ...]
    objective: PiecewiseScalarFunction


def _grid_lp(problem: ForwardProblem) -> lp.LinearProgram:
    """Primal program: maximize sum V(g) f(g) over contractions of the
    prior on the problem's ``grid``, where V is the problem's objective.

    Row k integrates the price basis function of ``grid[k]``
    (``recovery.hinge``) against f and bounds it by the prior's integral;
    the rows are written directly. Row 0, the intercept, is all ones and
    fixes total mass at the prior's 1. Row k > 0 has the coefficient
    ``grid[k] - grid[j]`` at each ``j < k`` (the hinge is 0 from
    ``grid[k]`` on) and right-hand side the integral of the prior's CDF up
    to ``grid[k]``, read from one sweep over the grid
    (``revealed.cdf_integrals``). The row at 1 fixes the mean, and every
    interior row is the contraction constraint at that grid point. The
    objective is evaluated at the grid in one sweep.
    """
    grid = problem.grid
    one = Fraction(1)
    rhs = cdf_integrals(problem.prior.distribution, grid)
    cons = [lp.Constraint(tuple((j, one) for j in range(len(grid))), lp.EQ, one)]
    for k in range(1, len(grid)):
        g = grid[k]
        cons.append(
            lp.Constraint(
                tuple((j, g - grid[j]) for j in range(k)),
                lp.EQ if g == 1 else lp.LE,
                rhs[k],
            )
        )
    return lp.LinearProgram(
        num_vars=len(grid),
        nonnegative=(True,) * len(grid),
        constraints=tuple(cons),
        objective=tuple(enumerate(problem.objective.values_at(grid))),
        sense=lp.MAX,
    )


def _lexicographic(
    program: lp.LinearProgram,
    tiebreak: tuple[tuple[int, Fraction], ...],
    basis: lp.Basis | None = None,
) -> tuple[tuple[Fraction, ...], lp.LPOutcome]:
    """An optimum of ``program`` that minimizes ``tiebreak``, and the first
    solve's outcome, which starts from ``basis`` when that is given.

    The second solve runs on the optimal face, which complementary
    slackness reads off the first solve's duals ``y``: a feasible point is
    optimal exactly when it is 0 on every nonnegative column whose reduced
    cost ``c_j - sum_i y_i a_ij`` is nonzero and meets every inequality
    row with ``y_i != 0`` with equality. So those columns are dropped
    (their values are 0), those rows become ``=``, and no row pins the
    objective. The point is returned unchecked; ``_certified_price``
    proves the forward optimum.
    """
    first = lp.solve(program, basis=basis)
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
    return tuple(x), first


def _certified_price(problem: ForwardProblem, program: lp.LinearProgram, f, multipliers):
    """Price of grid multipliers and the value it certifies for ``f``.

    ``program`` is the grid program of ``problem``, and ``multipliers``
    one per grid point. Raises unless ``f`` satisfies ``program`` (it is a
    grid contraction of the prior), the price is convex and at least the
    objective at every grid point, and the integrals of the price against
    ``f`` and against the prior and of the objective against ``f`` are one
    number. That number, the optimal value, is returned with the price.
    """
    if not lp.satisfies(program, f):
        raise RuntimeError("forward optimum is not a contraction of the prior")
    grid = problem.grid
    price = price_function({(0, z): v for z, v in zip(grid, multipliers) if v}, 0)
    slopes = price.slopes()
    if any(s > t for s, t in zip(slopes, slopes[1:])):
        raise RuntimeError("forward price is not convex")
    at_grid = price.values_at(grid)
    if any(at_grid[j] < v for j, v in program.objective):
        raise RuntimeError("forward price fails to majorize the objective on the grid")
    value = sum(f[j] * v for j, v in program.objective)
    on_f = sum(f[j] * p for j, p in enumerate(at_grid))
    atoms = problem.prior.distribution.atoms
    on_prior = sum(w * p for (_, w), p in zip(atoms, price.values_at([z for z, _ in atoms])))
    if not value == on_f == on_prior:
        raise RuntimeError("forward price integrals disagree with the objective")
    return price, value


def _least_informative(problem: ForwardProblem):
    """The grid program, its optimum ``f`` of minimum variance of the
    posterior means, and the first solve's outcome, whose duals certify
    ``f`` as they do every optimum."""
    program = _grid_lp(problem)
    z0 = problem.prior.mean
    f, first = _lexicographic(
        program, tuple((j, (g - z0) * (g - z0)) for j, g in enumerate(problem.grid))
    )
    return program, f, first


def _served(problem: ForwardProblem, f) -> tuple[DiscreteCDF, tuple[int, ...]]:
    """The distribution ``f`` on the problem's grid and the index of the
    menu's best act at each of its support points."""
    dist = DiscreteCDF.from_pairs((g, f[j]) for j, g in enumerate(problem.grid) if f[j] > 0)
    return dist, tuple(problem.menu.best_act(z)[0] for z in dist.support)


def solve_forward(problem: ForwardProblem) -> ForwardSolution:
    """Solve the grid program and certify the solution with its price.

    Raises unless ``_certified_price`` proves the distribution optimal.
    """
    program, f, first = _least_informative(problem)
    # flattest optimal price: variable k of the dual multiplies grid point
    # k's price basis function; minimize the total interior mass, starting
    # from the basis complementary to the program's optimal one
    dual = lp.dual(program)
    y, _ = _lexicographic(
        dual,
        tuple((k, Fraction(1)) for k, nonneg in enumerate(dual.nonnegative) if nonneg),
        lp.dual_basis(program, first),
    )
    price, value = _certified_price(problem, program, f, y)
    dist, served = _served(problem, f)
    return ForwardSolution(
        distribution=dist,
        value=value,
        price=price,
        multipliers=dict(zip(problem.grid, y)),
        assignments=tuple(problem.menu.acts[ai].id for ai in served),
        objective=problem.objective,
    )


def oracle_value(problem: ForwardProblem, resolution: int) -> Fraction:
    """Re-solve the problem with ``resolution`` uniform points added to its grid.

    Refining can only enlarge the feasible support, so the value is
    nondecreasing in ``resolution``; for piecewise-linear objectives it is
    constant, which the acceptance suite exploits as a self-check. The
    value is certified like ``solve_forward``'s (``_certified_price``), by
    the price whose multipliers are the program's duals, row k going with
    grid point k. A ``resolution`` below the grid size raises ``ValueError``.
    """
    size = len(problem.grid)
    if resolution < size:
        raise ValueError(f"resolution {resolution} is below the grid size, {size} points")
    refined = ForwardProblem(
        problem.prior, problem.menu, problem.cost,
        problem.grid + tuple(Fraction(j, resolution - 1) for j in range(resolution)),
    )
    program = _grid_lp(refined)
    outcome = lp.solve(program)
    if outcome.status != lp.OPTIMAL:
        raise RuntimeError(f"oracle program unexpectedly {outcome.status}")
    assert outcome.x is not None and outcome.duals is not None
    return _certified_price(refined, program, outcome.x, outcome.duals)[1]


def _shadow(states, left, location: Fraction, mass: Fraction):
    """The shadow of an atom of ``mass`` at ``location`` in the mass
    ``left`` on ``states``, as ``{state index: mass}``, or None if there
    is none: the one block of ``left`` that is contiguous in state order
    (states with nothing left skipped) with the atom's mass and mean. A
    block from state i to j > i takes all of every state between them,
    so its mass and first moment fix its parts at i and j; it is the
    shadow when both are positive and within what is left there.
    """
    live = [s for s, w in enumerate(left) if w > 0]
    for n, i in enumerate(live):
        if states[i] >= location:  # no block from here on has a lower mean
            return {i: mass} if states[i] == location and left[i] >= mass else None
        full = moment = Fraction(0)
        for k, j in enumerate(live[n + 1:], n + 1):
            at_i = (states[j] * (mass - full) - mass * location + moment) / (states[j] - states[i])
            at_j = mass - full - at_i
            if 0 < at_i <= left[i] and 0 < at_j <= left[j]:
                return {i: at_i, **{s: left[s] for s in live[n + 1:k]}, j: at_j}
            full, moment = full + left[j], moment + states[j] * left[j]
            if full >= mass:
                break
    return None


def _left_curtain(prior: Prior, dist: DiscreteCDF):
    """The left-curtain coupling: ``dist``'s atoms from left to right,
    each sent its shadow in the prior mass the atoms before it left."""
    left = list(prior.weights)
    plan = {}
    for ai, (location, mass) in enumerate(dist.atoms):
        block = _shadow(prior.state_space.states, left, location, mass)
        if block is None:
            raise RuntimeError("transportation decomposition infeasible for a contraction")
        for zi, share in block.items():
            left[zi] -= share
            plan[zi, ai] = share
    return plan


def _decompose(prior: Prior, dist: DiscreteCDF):
    """Transportation witness moving prior mass onto posterior means, as
    ``{(state index, atom index): mass}`` over its positive entries.

    It exists exactly when ``dist`` is a contraction of the prior
    (Strassen 1965), and any witness makes the data Bayes consistent. The
    one reported is the left-curtain coupling (``_left_curtain``;
    Beiglböck & Juillet 2016), the unique left-monotone one. It is
    re-checked from its entries alone: all are nonnegative, each state's
    row sums to its prior weight, and each atom's column sums to its mass
    with first moment mass times location.
    """
    plan = _left_curtain(prior, dist)
    states, zero, atoms = prior.state_space.states, Fraction(0), dist.atoms
    rows, columns, moments = [zero] * len(states), [zero] * len(atoms), [zero] * len(atoms)
    for (zi, ai), mass in plan.items():
        rows[zi] += mass
        columns[ai] += mass
        moments[ai] += states[zi] * mass
    if (
        any(mass < 0 for mass in plan.values())
        or rows != list(prior.weights)
        or columns != [p for _, p in atoms]
        or moments != [z * p for z, p in atoms]
    ):
        raise RuntimeError("transportation witness failed direct verification")
    return plan


def generate_dataset(
    prior: Prior,
    menus,
    cost: PiecewiseScalarFunction,
) -> Dataset:
    """Produce choice data that an optimizing agent with this cost would emit.

    Each menu's grid program is solved for the least informative optimum,
    the distribution ``solve_forward`` reports, and certified by the first
    solve's own duals (``_certified_price``); the flattest price, which
    the data does not show, is never solved for. Every support point of
    the optimum, and each state of prior weight 0, is served by its best act
    (``Menu.best_act``), and the left-curtain coupling of the prior and
    the distribution (``_decompose``), built and re-checked without an LP,
    converts it into per-state choice probabilities through Bayes' rule.

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
        problem = ForwardProblem(prior, menu, cost)
        program, f, first = _least_informative(problem)
        _certified_price(problem, program, f, first.duals)
        dist, served = _served(problem, f)
        rows = [[zero] * nstates for _ in menu.acts]
        for (zi, atom), mass in _decompose(prior, dist).items():
            rows[served[atom]][zi] += mass / prior.weights[zi]
        for zi, (z, w) in enumerate(zip(prior.state_space.states, prior.weights)):
            if w == 0:
                rows[menu.best_act(z)[0]][zi] = Fraction(1)
        sdsc = SDSC(rows=tuple(tuple(r) for r in rows))
        observations.append(Observation(prior=prior, menu=menu, sdsc=sdsc))
    return Dataset(state_space=prior.state_space, observations=tuple(observations))
