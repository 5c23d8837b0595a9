"""Concavity of the recovered cost derivative, and a sufficient certificate.

Between binding points the recovered cost is automatically concave (it is
a minimum of affine pieces there); a convex kink can only appear at a
grid state where the generating observation's envelope itself kinks. The
certificate search therefore assigns a generating observation to every
state, forces that observation's multiplier to vanish there, and requires
it to attain the cost at that state. Any feasible assignment certifies a
concave rationalization; exhausting all assignments proves nothing, since
the condition is sufficient only, and the verdict says so honestly.

Each (state, generator) pair contributes one block of rows, so the
program of an assignment prefix is contained in that of every
completion. The search solves prefix programs depth first and skips
every assignment that a checked Farkas certificate rules out; it returns
the same first feasible assignment as solving all of them in order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp
from .axioms import FarkasSystem, build_farkas_system
from .model import Dataset, indirect_utility
from .piecewise import PiecewiseScalarFunction
from .recovery import (
    _cost_from_prices,
    price_function,
    price_terms,
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
    multipliers: dict[tuple[int, Fraction], Fraction] | None = None
    cost: PiecewiseScalarFunction | None = None


def _state_rows(
    dataset: Dataset, system: FarkasSystem, zi: int, gen: int
) -> tuple[lp.Constraint, ...]:
    """The vanishing-kink and generator rows of generator ``gen`` at state ``zi``.

    If ``gen`` has a multiplier at the state it must vanish there. At the
    state, the generator's price minus each other observation's price is
    at most the difference of their indirect utilities.
    """
    z = dataset.state_space.states[zi]
    rows: list[lp.Constraint] = []
    if (gen, z) in system.columns:
        col = system.columns.index((gen, z))
        rows.append(lp.constraint({col: Fraction(1)}, lp.EQ, Fraction(0)))
    gen_terms = price_terms(system.columns, gen, z)
    gen_phi = indirect_utility(dataset.observations[gen].menu, z)
    for oi, obs in enumerate(dataset.observations):
        if oi == gen:
            continue
        coeffs = dict(gen_terms)
        coeffs.update((j, -v) for j, v in price_terms(system.columns, oi, z).items())
        rows.append(lp.constraint(coeffs, lp.LE, gen_phi - indirect_utility(obs.menu, z)))
    return tuple(rows)


def _prefix_program(
    base: lp.LinearProgram, blocks: Sequence[tuple[lp.Constraint, ...]]
) -> lp.LinearProgram:
    """The base system followed by the given row blocks, in state order."""
    return lp.LinearProgram(
        num_vars=base.num_vars,
        nonnegative=base.nonnegative,
        constraints=base.constraints + tuple(itertools.chain.from_iterable(blocks)),
    )


def _assignment_program(
    dataset: Dataset, system: FarkasSystem, assignment: tuple[int, ...]
) -> lp.LinearProgram:
    """Base system plus the row block of every state's generator."""
    return _prefix_program(
        system.to_linear_program(),
        [_state_rows(dataset, system, zi, gen) for zi, gen in enumerate(assignment)],
    )


def certify_concave(dataset: Dataset, budget: int = 10_000) -> ConcavityVerdict:
    """Search generator assignments for a concave rationalizing cost.

    The result is the lexicographically first feasible assignment of
    (state index, observation index), so verdicts are reproducible. The
    search is depth first over assignment prefixes: the program of a
    prefix (states ``0..d-1`` assigned) holds the base system and the row
    blocks of those states, and every completion of the prefix only adds
    rows. An infeasible program's Farkas certificate is checked with
    ``lp.verify_certificate``; the highest state whose rows it weights
    bounds the prefix it rules out, and the search moves past every
    assignment sharing that prefix. ``budget`` caps the number of
    programs solved, prefix and full alike. Every certificate of
    concavity is re-audited: the recovered cost must be concave and pass
    the full rationalization audit.
    """
    system = build_farkas_system(dataset)
    n = len(dataset.observations)
    nstates = len(dataset.state_space.states)
    base = system.to_linear_program()
    blocks = [
        [_state_rows(dataset, system, zi, gen) for gen in range(n)]
        for zi in range(nstates)
    ]
    assignment = [0] * nstates
    depth = nstates
    solved = 0
    while True:
        if solved >= budget:
            return ConcavityVerdict(status=BUDGET_EXCEEDED, programs_solved=solved)
        chosen = [blocks[zi][gen] for zi, gen in enumerate(assignment[:depth])]
        program = _prefix_program(base, chosen)
        outcome = lp.solve(program)
        solved += 1
        if outcome.status == lp.FEASIBLE:
            if depth < nstates:
                depth = nstates  # the positions below the prefix are all 0
                continue
            assert outcome.x is not None
            multipliers = dict(zip(system.columns, outcome.x))
            prices = [price_function(multipliers, oi) for oi in range(n)]
            cost = _cost_from_prices(dataset, prices)
            if not is_concave(cost):
                raise RuntimeError("certified multipliers produced a non-concave cost")
            if not verify_rationalization(dataset, cost, prices).all_ok:
                raise RuntimeError("certified multipliers failed the rationalization audit")
            return ConcavityVerdict(
                status=CERTIFIED,
                programs_solved=solved,
                assignment=tuple(assignment),
                multipliers=multipliers,
                cost=cost,
            )
        y = outcome.certificate
        if y is None or not lp.verify_certificate(program, y):
            raise RuntimeError("an infeasible assignment program has no valid certificate")
        # The certificate weights no row past state ``last``, so it rules
        # out every assignment that shares ``assignment[:last + 1]``.
        last = -1
        row = len(base.constraints)
        for zi, rows in enumerate(chosen):
            if any(y[row:row + len(rows)]):
                last = zi
            row += len(rows)
        pos = last
        while pos >= 0 and assignment[pos] == n - 1:
            pos -= 1
        if pos < 0:
            return ConcavityVerdict(status=UNDETERMINED, programs_solved=solved)
        assignment[pos] += 1
        assignment[pos + 1:] = [0] * (nstates - pos - 1)
        depth = pos + 1
