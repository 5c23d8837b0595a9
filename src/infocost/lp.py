"""Exact linear programming: simplex with Bland's rule and Farkas certificates.

Every pivot, every feasibility verdict, and every certificate is exact
rational arithmetic, done in integers: the tableau is built in integers
(each caller row times the lcm of its denominators), and each row is
kept as a positive integer multiple of its rational row, reduced by its
gcd once a pivot has touched it, so signs and ratio tests read the
integers directly. A row is a dict from column to nonzero integer, so
its zeros are neither stored nor touched. A pivot touches only the rows
with an entry in the pivot column; each such row has its nonzeros
multiplied once and the pivot row subtracted at the pivot row's
nonzeros, with both multipliers reduced by their gcd. Each reported
number (a coordinate of ``x``, the optimal value, a dual, a certificate
entry) is built once from tableau integers, as one ``Fraction``. Free
variables are split into differences of nonnegatives, inequalities get
slack columns, and rows that still lack a unit column get artificials;
phase one minimizes the artificial mass and, when that minimum is
positive, its multipliers are the infeasibility certificate.

Each row is put over integers once: ``Constraint.scaled``, built on
first use and kept on the row, is the lcm of the row's denominators and
its numerators over it. Its three readers are the tableau, which takes
its rows from it, and the two exact re-checks, ``satisfies`` and
``verify_certificate``, which compare integer sums against it. Programs
that share ``Constraint`` objects (the prefix programs of a concavity
search, the cycle system's one program) share that work.

A row's scale is part of the pivot path, so no caller row is rescaled
to suit the kernel. A row's artificial column is 1 in the row's integer
units, so phase one weighs rows by their scale: writing the forward grid
program over its grid's common denominator kept every golden CLI output,
but on 1 of 44 forward problems the cold dual then reached a different
flattest price than the warm one (same value and distribution).

Certificate orientation, for a program with rows ``a_i . x  rel_i  b_i``
and per-variable sign constraints: the returned ``y`` satisfies

* ``y_i >= 0`` on ``<=`` rows, ``y_i <= 0`` on ``>=`` rows, free on ``=``;
* ``sum_i y_i a_ij == 0`` for free variables, ``>= 0`` for nonnegative ones;
* ``y . b < 0``.

Any such ``y`` proves infeasibility by aggregating the rows.

An unbounded program carries the improving ray ``d`` where the simplex
stopped, one entry per variable (a free variable's negative part
subtracted): the first non-artificial column of negative reduced cost
with no positive entry is 1, each basic column is minus that column's
entry over its own in its row, the rest 0. ``d`` keeps every sign
constraint, ``a_i . d`` is ``<= 0`` on ``<=`` rows, ``>= 0`` on ``>=``
rows and 0 on ``=`` rows, and the objective strictly improves along it.
So a ray of an unbounded ``dual(program)``, whatever the objective of
``program``, is a certificate for ``program``.

Optimal programs also carry exact duals ``y``, one per caller row, with
``y . b`` equal to the optimal value; ``y_i`` is the rate at which the
optimum moves with ``b_i``. For ``min c . x``:

* ``y_i <= 0`` on ``<=`` rows, ``y_i >= 0`` on ``>=`` rows, free on ``=``;
* ``c_j - sum_i y_i a_ij >= 0`` for nonnegative variables, ``== 0`` for
  free ones.

For ``max c . x`` every one of these signs flips. For a max program
over ``<=`` and ``=`` rows those are exactly the constraints of
``dual(program)``, which callers solve instead of writing a dual out.

Optimal and feasible outcomes also carry their final ``Basis`` in the
caller's terms: the basic variables, each with its part (-1 for the
negative part of a free variable), and the rows whose slack is basic.
``solve(program, basis=...)`` starts from such a basis: it pivots the
slack columns in first, each in its own row, then the variables, and
skips phase one when every basic value is nonnegative and no artificial
is basic above 0. A basis that names an unknown column, is singular or
is infeasible is dropped, and the program is solved from scratch, as if
no basis had been given. ``dual_basis(program, outcome)`` is the basis of
``dual(program)`` complementary to an optimal basis of ``program``; it is
optimal there, so phase two starting from it takes no pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import numeric

LE = "<="
EQ = "="
GE = ">="

MAX = "max"
MIN = "min"

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_PIVOT_LIMIT = 10_000_000

_ZERO = Fraction(0)


class LPResourceError(RuntimeError):
    """Pivot budget exhausted before the solve finished."""


@dataclass(frozen=True)
class Constraint:
    terms: tuple[tuple[int, Fraction], ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "terms", tuple(self.terms))

    @cached_property
    def scaled(self) -> tuple[int, list[int]]:
        """The row in integers, built on first use: the lcm of the
        denominators of its coefficients and right-hand side, and each
        one's numerator over it, the right-hand side's last."""
        return numeric.scaled([*(v for _, v in self.terms), self.rhs])


def constraint(
    coefficients: Mapping[int, Fraction], relation: str, rhs: Fraction
) -> Constraint:
    terms = tuple(
        sorted((j, v) for j, v in coefficients.items() if v != 0)
    )
    return Constraint(terms=terms, relation=relation, rhs=rhs)


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    nonnegative: tuple[bool, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[tuple[int, Fraction], ...] = ()
    sense: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nonnegative", tuple(self.nonnegative))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "objective", tuple(self.objective))
        if len(self.nonnegative) != self.num_vars:
            raise ValueError("one sign flag per variable required")
        if self.sense not in (None, MAX, MIN):
            raise ValueError(f"unknown objective sense {self.sense!r}")
        for con in self.constraints:
            for j, _ in con.terms:
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"constraint column {j} out of range")
        for j, _ in self.objective:
            if not 0 <= j < self.num_vars:
                raise ValueError(f"objective column {j} out of range")


@dataclass(frozen=True)
class LPOutcome:
    status: str
    x: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    certificate: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None
    basis: Basis | None = None
    ray: tuple[Fraction, ...] | None = None  # UNBOUNDED only, see module docstring


@dataclass(frozen=True)
class Basis:
    """A simplex basis in the caller's terms: ``(j, part)`` for each basic
    variable ``x_j``, ``part`` 1, or -1 for the negative part of a free
    variable, and the rows whose slack is basic. An ``=`` row there is a
    redundant one, dropped from the tableau; a basis being installed keeps
    that row's artificial basic, which must then be at level 0."""

    variables: tuple[tuple[int, int], ...] = ()
    slacks: tuple[int, ...] = ()


def satisfies(lp: LinearProgram, x: Sequence[Fraction]) -> bool:
    """Exact feasibility of a point, one coordinate per variable.

    ``x`` is put over one common denominator, so each row is an integer
    dot product of its scaled form with those numerators, compared with
    its right-hand side's numerator times that denominator.
    """
    if len(x) != lp.num_vars:
        return False
    den, nums = numeric.scaled(x)
    if any(n < 0 for n, nonneg in zip(nums, lp.nonnegative) if nonneg):
        return False
    for con in lp.constraints:
        _, row = con.scaled
        gap = sum(a * nums[j] for (j, _), a in zip(con.terms, row)) - row[-1] * den
        # lhs above rhs holds only for >=, below only for <=
        if gap and con.relation != (GE if gap > 0 else LE):
            return False
    return True


def verify_certificate(lp: LinearProgram, y: Sequence[Fraction]) -> bool:
    """Check the Farkas conditions for ``y`` by direct multiplication, in
    integers: the nonzero multipliers over one common denominator, each
    row's scaled form weighted by the lcm of the used rows' scales over
    its own, so every column combination and ``b . y`` is an integer sum
    with the sign of its rational value."""
    if len(y) != len(lp.constraints):
        return False
    for yi, con in zip(y, lp.constraints):
        if con.relation == LE and yi < 0:
            return False
        if con.relation == GE and yi > 0:
            return False
    used = [(yi, con) for yi, con in zip(y, lp.constraints) if yi]
    _, nums = numeric.scaled([yi for yi, _ in used])
    common = math.lcm(*(con.scaled[0] for _, con in used))
    combo: dict[int, int] = {}
    gain = 0
    for (_, con), num in zip(used, nums):
        scale, row = con.scaled
        w = num * (common // scale)
        for (j, _), a in zip(con.terms, row):
            combo[j] = combo.get(j, 0) + w * a
        gain += w * row[-1]
    for j, s in combo.items():
        if lp.nonnegative[j]:
            if s < 0:
                return False
        elif s != 0:
            return False
    return gain < 0


def dual(program: LinearProgram) -> LinearProgram:
    """The dual of ``max c . x`` over ``<=`` and ``=`` rows.

    Row ``i`` becomes variable ``y_i``, nonnegative for a ``<=`` row and
    free for an ``=`` row; variable ``j`` becomes the row
    ``sum_i y_i a_ij >= c_j``, or ``= c_j`` when ``x_j`` is free; the
    objective is ``min b . y``. The optimal duals of ``program`` (see the
    module docstring) are feasible, and optimal, here. Anything else is a
    ``ValueError``.
    """
    if program.sense != MAX:
        raise ValueError("dual needs a max program")
    if any(con.relation == GE for con in program.constraints):
        raise ValueError("dual needs <= and = rows only")
    cost = [Fraction(0)] * program.num_vars
    for j, v in program.objective:
        cost[j] += v
    columns: list[list[tuple[int, Fraction]]] = [[] for _ in range(program.num_vars)]
    for i, con in enumerate(program.constraints):
        for j, v in con.terms:
            columns[j].append((i, v))
    return LinearProgram(
        num_vars=len(program.constraints),
        nonnegative=tuple(con.relation == LE for con in program.constraints),
        constraints=tuple(
            Constraint(terms=tuple(col), relation=GE if nonneg else EQ, rhs=c)
            for col, nonneg, c in zip(columns, program.nonnegative, cost)
        ),
        objective=tuple(
            (i, con.rhs) for i, con in enumerate(program.constraints) if con.rhs != 0
        ),
        sense=MIN,
    )


def dual_basis(program: LinearProgram, outcome: LPOutcome) -> Basis:
    """The basis of ``dual(program)`` complementary to ``outcome.basis``.

    ``outcome`` is an optimal solve of ``program``. Every row not listed
    among the basis's slacks (every ``=`` row but a redundant one, and
    every row whose slack is nonbasic) makes its dual variable basic, on
    the side given by the sign of its dual; every nonbasic nonnegative
    variable makes the surplus of its dual row basic.
    """
    assert outcome.basis is not None and outcome.duals is not None
    slacks = set(outcome.basis.slacks)
    variables = {j for j, _ in outcome.basis.variables}
    return Basis(
        variables=tuple(
            (i, 1 if yi >= 0 else -1)
            for i, yi in enumerate(outcome.duals)
            if i not in slacks
        ),
        slacks=tuple(
            j for j in range(program.num_vars)
            if program.nonnegative[j] and j not in variables
        ),
    )


def _eliminate(row: dict[int, int], prow: dict[int, int], pc: int) -> dict[int, int]:
    """``row * piv - f * prow`` with ``piv = prow[pc] > 0`` and ``f = row[pc]``,
    divided by the gcd of its values.

    Both multipliers are first reduced by ``gcd(piv, f)``, so the row's
    nonzeros are multiplied once (copied when the reduced ``piv`` is 1)
    and the pivot row is subtracted at its nonzeros only; an entry that
    becomes 0 is deleted. The result has no entry in column ``pc`` and is
    the primitive positive multiple of the rational row with the pivot
    row's multiple of ``f / piv`` removed, whatever the reduction. Keys
    that the pivot row lacks (the objective's scale) are only multiplied.
    """
    piv, f = prow[pc], row[pc]
    g = math.gcd(piv, f)
    if g > 1:
        piv //= g
        f //= g
    out = {j: v * piv for j, v in row.items()} if piv != 1 else row.copy()
    for j, p in prow.items():
        v = out.get(j, 0) - f * p
        if v:
            out[j] = v
        else:
            del out[j]
    g = math.gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


class _Tableau:
    """Simplex tableau in integers, each row with its own scale.

    Every row is a dict from column to nonzero integer, equal to a
    positive multiple of its rational row, with no entry for a zero. The
    right-hand side sits under the key ``rhs``, one past the last column,
    so the value of the row's basic variable is ``row[rhs] / row[basis]``
    (0 when the key is absent), and every sign and every ratio test reads
    the integers as they are. The rows are built in integers, with no
    rational arithmetic. The objective row holds the reduced costs, minus
    the objective value under ``rhs``, and its positive scale under
    ``scale``, one key further on. One elimination step (``_eliminate``)
    serves the pivot and the pricing of an objective; a pivot eliminates
    only in the rows with an entry in the pivot column and leaves every
    other row as it is. Each reported number is built once, as one
    ``Fraction`` of tableau integers.
    """

    def __init__(self, lp: LinearProgram, pivot_limit: int):
        self.pivot_limit = pivot_limit
        self.pivots = 0

        # Structural columns: nonnegative vars map to one column, free
        # vars to a (plus, minus) pair.
        self.var_cols: list[tuple[int, int | None]] = []
        ncols = 0
        for j in range(lp.num_vars):
            if lp.nonnegative[j]:
                self.var_cols.append((ncols, None))
                ncols += 1
            else:
                self.var_cols.append((ncols, ncols + 1))
                ncols += 2
        self.n_structural = ncols

        # Slack / surplus columns, one per inequality. A row's right-hand
        # side is made nonnegative by flipping the row; the row starts with
        # its slack basic when that slack then has coefficient +1, and with
        # an artificial column (after all slacks) otherwise.
        cons = lp.constraints
        self.slack_col = slack_col = [-1] * len(cons)
        for i, con in enumerate(cons):
            if con.relation != EQ:
                slack_col[i] = ncols
                ncols += 1
        self.flip = [-1 if con.rhs < 0 else 1 for con in cons]
        self.basis: list[int] = []
        self.artificial: set[int] = set()
        for con, sc, flip in zip(cons, slack_col, self.flip):
            if sc >= 0 and (con.relation == LE) == (flip == 1):
                self.basis.append(sc)
            else:
                self.basis.append(ncols)
                self.artificial.add(ncols)
                ncols += 1
        self.row_unit_col = list(self.basis)
        self.redundant: list[int] = []
        self.ncols = ncols
        self.rhs = rhs = ncols
        self.scale = ncols + 1

        # Each row in integers: the caller's row times its scale (the lcm
        # of its denominators, ``Constraint.scaled``) and its flip.
        self.row_scale = []
        rows = []
        for con, sc, flip, unit in zip(cons, slack_col, self.flip, self.basis):
            scale, nums = con.scaled
            self.row_scale.append(scale)
            row: dict[int, int] = {}
            for (j, _), num in zip(con.terms, nums):
                sv = flip * num
                pos, neg = self.var_cols[j]
                row[pos] = row.get(pos, 0) + sv
                if neg is not None:
                    row[neg] = row.get(neg, 0) - sv
            if sc >= 0:
                row[sc] = flip if con.relation == LE else -flip
            row[unit] = 1
            row[rhs] = flip * nums[-1]
            rows.append({j: v for j, v in row.items() if v})
        self.rows = rows
        self.obj = {self.scale: 1}

    def set_objective(self, costs: Mapping[int, int]) -> None:
        """Reduced-cost row for integer costs by column (absent ones 0),
        priced out against the current basis."""
        obj = {j: c for j, c in costs.items() if c}
        obj[self.scale] = 1
        for row, b in zip(self.rows, self.basis):
            if b in obj:
                obj = _eliminate(obj, row, b)
        self.obj = obj

    def pivot(self, pr: int, pc: int) -> None:
        self.pivots += 1
        if self.pivots > self.pivot_limit:
            raise LPResourceError(f"pivot limit {self.pivot_limit} exceeded")
        rows = self.rows
        prow = rows[pr]
        for r, row in enumerate(rows):
            if pc in row and r != pr:
                rows[r] = _eliminate(row, prow, pc)
        if pc in self.obj:
            self.obj = _eliminate(self.obj, prow, pc)
        self.basis[pr] = pc

    def run_simplex(self, banned: set[int]) -> str:
        """Minimize the current objective; Bland's rule throughout."""
        ncols, rhs = self.ncols, self.rhs
        while True:
            pc = min(
                (j for j, v in self.obj.items() if v < 0 and j < ncols and j not in banned),
                default=-1,
            )
            if pc < 0:
                return OPTIMAL
            pr = -1
            best_rhs = best_piv = 0
            for r, row in enumerate(self.rows):
                a = row.get(pc, 0)
                if a <= 0:
                    continue
                b = row.get(rhs, 0)
                if pr < 0:
                    pr, best_rhs, best_piv = r, b, a
                    continue
                # ratio comparison b/a < best by cross multiplication;
                # each row's scale cancels in its own ratio
                left = b * best_piv
                right = best_rhs * a
                if left < right or (left == right and self.basis[r] < self.basis[pr]):
                    pr, best_rhs, best_piv = r, b, a
            if pr < 0:
                return UNBOUNDED
            self.pivot(pr, pc)

    def improving_ray(self) -> tuple[Fraction, ...]:
        """The improving ray of an unbounded objective in the caller's
        variables (see the module docstring)."""
        pc = min(
            j for j, v in self.obj.items()
            if v < 0 and j < self.ncols and j not in self.artificial
            and all(row.get(j, 0) <= 0 for row in self.rows)
        )
        d = {pc: Fraction(1)}
        for row, b in zip(self.rows, self.basis):
            if pc in row:
                d[b] = Fraction(-row[pc], row[b])
        return tuple(d.get(pos, _ZERO) - d.get(neg, _ZERO) for pos, neg in self.var_cols)

    def install(self, basis: Basis) -> bool:
        """Pivot ``basis`` in, slack columns first (each is a unit column
        of its own row until a variable is pivoted in); False when it names
        an unknown column or is singular, or when a basic value ends
        negative or an artificial stays basic above 0."""
        targets = []
        for i in basis.slacks:
            if not 0 <= i < len(self.slack_col):
                return False
            sc = self.slack_col[i]
            targets.append(sc if sc >= 0 else self.row_unit_col[i])
        for j, part in basis.variables:
            if not (0 <= j < len(self.var_cols) and part in (1, -1)):
                return False
            pos, neg = self.var_cols[j]
            col = pos if part == 1 else neg
            if col is None:
                return False
            targets.append(col)
        wanted = set(targets)
        rows = self.rows
        for pc in targets:
            if pc in self.basis:
                continue
            pr = next(
                (r for r, row in enumerate(rows)
                 if pc in row and self.basis[r] not in wanted),
                -1,
            )
            if pr < 0:
                return False
            if rows[pr][pc] < 0:
                rows[pr] = {j: -v for j, v in rows[pr].items()}
            self.pivot(pr, pc)
        rhs = self.rhs
        return all(
            row.get(rhs, 0) >= 0 and not (rhs in row and b in self.artificial)
            for row, b in zip(rows, self.basis)
        )

    def final_basis(self) -> Basis:
        """The current basis in the caller's terms (see ``Basis``)."""
        basic = set(self.basis)
        return Basis(
            variables=tuple(
                (j, part)
                for j, cols in enumerate(self.var_cols)
                for col, part in zip(cols, (1, -1))
                if col in basic
            ),
            slacks=tuple(sorted(
                self.redundant + [i for i, sc in enumerate(self.slack_col) if sc in basic]
            )),
        )

    def drive_out_artificials(self, priced: bool = False) -> None:
        """Remove the artificials that are basic at level 0.

        Each leaves for the first column with a nonzero in its row or,
        when ``priced``, for the column of least reduced cost per unit of
        its entry (the dual ratio test), which keeps every nonnegative
        reduced cost nonnegative.
        """
        r = 0
        while r < len(self.rows):
            row = self.rows[r]
            if self.basis[r] not in self.artificial:
                r += 1
                continue
            cols = sorted(j for j in row if j < self.ncols and j not in self.artificial)
            if not cols:
                # Fully zero row: the original constraint was redundant.
                self.redundant.append(self.row_unit_col.index(self.basis[r]))
                del self.rows[r]
                del self.basis[r]
                continue
            pc = cols[0]
            if priced:
                pc = min(cols, key=lambda j: Fraction(self.obj.get(j, 0), abs(row[j])))
            if row[pc] < 0:
                # The artificial is at level 0, so the negated row keeps
                # its right-hand side and the pivot is positive.
                self.rows[r] = {j: -v for j, v in row.items()}
            self.pivot(r, pc)
            r += 1

    def structural_solution(self) -> tuple[Fraction, ...]:
        """The caller's variables, each one ``Fraction`` of its basic row's
        right-hand side over its pivot (negated for the negative part of a
        free variable; both parts are never basic together)."""
        rhs = self.rhs
        level = {b: row for row, b in zip(self.rows, self.basis) if rhs in row}
        out = []
        for pos, neg in self.var_cols:
            if pos in level:
                row = level[pos]
                out.append(Fraction(row[rhs], row[pos]))
            elif neg in level:
                row = level[neg]
                out.append(Fraction(-row[rhs], row[neg]))
            else:
                out.append(_ZERO)
        return tuple(out)

    def row_multipliers(self, phase_one: bool, sign: int, scale: int) -> tuple[Fraction, ...]:
        """Duals of the caller's rows for the current objective, times
        ``sign / scale``.

        Each row's initial unit column has reduced cost ``cost - dual``
        (cost 1 for an artificial in phase one, 0 otherwise); unflipping
        and unscaling maps those duals of the standardized rows to the
        caller's rows. Each is one ``Fraction`` of tableau integers.
        """
        obj = self.obj
        s = obj[self.scale]
        den = s * scale
        y = []
        for col, flip, rs in zip(self.row_unit_col, self.flip, self.row_scale):
            num = (s if phase_one and col in self.artificial else 0) - obj.get(col, 0)
            y.append(Fraction(sign * flip * rs * num, den) if num else _ZERO)
        return tuple(y)


def solve(
    lp: LinearProgram,
    *,
    pivot_limit: int = DEFAULT_PIVOT_LIMIT,
    basis: Basis | None = None,
) -> LPOutcome:
    """Solve ``lp`` exactly, from ``basis`` when that is a feasible basis;
    see the module docstring for the contract."""
    tab = _Tableau(lp, pivot_limit)
    warm = basis is not None and tab.install(basis)
    if not warm:
        if basis is not None:  # start over, the install pivots still counted
            spent = tab.pivots
            tab = _Tableau(lp, pivot_limit)
            tab.pivots = spent
        tab.set_objective(dict.fromkeys(tab.artificial, 1))
        status = tab.run_simplex(banned=set())
        if status == UNBOUNDED:  # phase-one objective is bounded below by zero
            raise AssertionError("phase one cannot be unbounded")
        if tab.obj.get(tab.rhs, 0) < 0:  # artificial mass left above 0
            # the Farkas multipliers are minus the phase-one duals
            certificate = tab.row_multipliers(phase_one=True, sign=-1, scale=1)
            return LPOutcome(status=INFEASIBLE, certificate=certificate)

    if lp.sense is None:
        tab.drive_out_artificials()
        return LPOutcome(status=FEASIBLE, x=tab.structural_solution(), basis=tab.final_basis())

    obj_scale, obj_nums = numeric.scaled([v for _, v in lp.objective])
    sign = 1 if lp.sense == MIN else -1
    costs: dict[int, int] = {}
    for (j, _), num in zip(lp.objective, obj_nums):
        sv = sign * num
        pos, neg = tab.var_cols[j]
        costs[pos] = costs.get(pos, 0) + sv
        if neg is not None:
            costs[neg] = costs.get(neg, 0) - sv
    tab.set_objective(costs)
    # from an optimal basis, the dual ratio test keeps it optimal
    tab.drive_out_artificials(priced=warm)
    status = tab.run_simplex(banned=tab.artificial)
    if status == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED, ray=tab.improving_ray())
    return LPOutcome(
        status=OPTIMAL,
        x=tab.structural_solution(),
        objective_value=Fraction(
            -sign * tab.obj.get(tab.rhs, 0), tab.obj[tab.scale] * obj_scale
        ),
        duals=tab.row_multipliers(phase_one=False, sign=sign, scale=obj_scale),
        basis=tab.final_basis(),
    )


def to_lp_text(lp: LinearProgram, name: str = "program") -> str:
    """Render in the conventional LP text format for external cross-checks.

    Coefficients are emitted as decimal approximations; the format has no
    rational literals, so this dump is for eyeballing and cross-solving,
    not for exact round-trips.
    """

    def num(x: Fraction) -> str:
        return repr(numeric.approx(x))

    def side(terms: Iterable[tuple[int, Fraction]]) -> str:
        parts = []
        for j, v in terms:
            fv = numeric.approx(v)
            op = "+" if fv >= 0 else "-"
            parts.append(f"{op} {repr(abs(fv))} x{j}")
        return " ".join(parts) if parts else "0 x0"

    lines = [f"\\ {name}"]
    if lp.sense == MAX:
        lines.append("Maximize")
    else:
        lines.append("Minimize")
    lines.append(f" obj: {side(lp.objective)}")
    lines.append("Subject To")
    for i, con in enumerate(lp.constraints):
        lines.append(f" c{i}: {side(con.terms)} {con.relation} {num(con.rhs)}")
    lines.append("Bounds")
    for j in range(lp.num_vars):
        if not lp.nonnegative[j]:
            lines.append(f" x{j} free")
    lines.append("End")
    return "\n".join(lines) + "\n"
