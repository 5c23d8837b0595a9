"""Concavity of the recovered cost derivative, and a sufficient certificate.

Between binding points the recovered cost is automatically concave (it is
a minimum of affine pieces there); a convex kink can only appear at a
grid state where the generating observation's envelope itself kinks. The
certificate search therefore assigns a generating observation to every
state, forces that observation's multiplier to vanish there, and requires
it to attain the cost at that state. Any feasible assignment certifies a
concave rationalization; exhausting all assignments proves nothing, since
the condition is sufficient only, and the verdict says so honestly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import lp, numeric
from .axioms import FarkasSystem, build_farkas_system
from .model import Dataset, indirect_utility
from .numeric import Scalar
from .piecewise import PiecewiseScalarFunction
from .recovery import (
    price_function,
    price_terms,
    recover_cost,
    verify_rationalization,
)

CERTIFIED = "certified"
UNDETERMINED = "undetermined"
BUDGET_EXCEEDED = "budget_exceeded"


def is_concave(fn: PiecewiseScalarFunction) -> bool:
    """Nonincreasing derivative across segments; quadratic pieces by sign."""
    for a, _, _ in fn.coefficients:
        if a > 0:
            return False
    for i in range(1, len(fn.coefficients)):
        x = fn.breakpoints[i]
        left = fn.derivative_at(i - 1, x)
        right = fn.derivative_at(i, x)
        if right > left:
            return False
    return True


@dataclass(frozen=True)
class ConcavityVerdict:
    status: str
    programs_solved: int
    assignment: tuple[int, ...] | None = None
    multipliers: dict[tuple[int, Scalar], Scalar] | None = None
    cost: PiecewiseScalarFunction | None = None


def _assignment_program(
    dataset: Dataset, system: FarkasSystem, assignment: tuple[int, ...]
) -> lp.LinearProgram:
    """Base system plus the vanishing-kink and generator rows for one assignment.

    At state ``z`` the generator's price minus the other observation's
    price is at most the difference of their indirect utilities there.
    """
    col_index = {key: j for j, key in enumerate(system.columns)}
    base = system.to_linear_program()
    extra: list[lp.Constraint] = []
    one = numeric.scalar(1)
    for zi, z in enumerate(dataset.state_space.states):
        gen = assignment[zi]
        key = (gen, z)
        if key in col_index:
            extra.append(lp.constraint({col_index[key]: one}, lp.EQ, numeric.scalar(0)))
        gen_terms = price_terms(system.columns, gen, z)
        gen_phi = indirect_utility(dataset.observations[gen].menu, z)
        for oi, obs in enumerate(dataset.observations):
            if oi == gen:
                continue
            coeffs = dict(gen_terms)
            coeffs.update((j, -v) for j, v in price_terms(system.columns, oi, z).items())
            rhs = gen_phi - indirect_utility(obs.menu, z)
            extra.append(lp.constraint(coeffs, lp.LE, rhs))
    return lp.LinearProgram(
        num_vars=base.num_vars,
        nonnegative=base.nonnegative,
        constraints=base.constraints + tuple(extra),
    )


def certify_concave(dataset: Dataset, budget: int = 10_000) -> ConcavityVerdict:
    """Search generator assignments for a concave rationalizing cost.

    Assignments are enumerated in lexicographic order of (state index,
    observation index); the first feasible one wins, so verdicts are
    reproducible. Every certificate is re-audited: the recovered cost must
    be concave and pass the full rationalization audit.
    """
    system = build_farkas_system(dataset)
    n = len(dataset.observations)
    nstates = len(dataset.state_space.states)
    solved = 0
    for assignment in itertools.product(range(n), repeat=nstates):
        if solved >= budget:
            return ConcavityVerdict(status=BUDGET_EXCEEDED, programs_solved=solved)
        outcome = lp.solve(_assignment_program(dataset, system, assignment))
        solved += 1
        if outcome.status != lp.FEASIBLE:
            continue
        assert outcome.x is not None
        multipliers = dict(zip(system.columns, outcome.x))
        cost = recover_cost(dataset, multipliers)
        if not is_concave(cost):
            raise RuntimeError("certified multipliers produced a non-concave cost")
        prices = [
            price_function(multipliers, oi)
            for oi in range(len(dataset.observations))
        ]
        if not verify_rationalization(dataset, cost, prices).all_ok:
            raise RuntimeError("certified multipliers failed the rationalization audit")
        return ConcavityVerdict(
            status=CERTIFIED,
            programs_solved=solved,
            assignment=assignment,
            multipliers=multipliers,
            cost=cost,
        )
    return ConcavityVerdict(status=UNDETERMINED, programs_solved=solved)
