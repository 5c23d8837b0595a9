"""Exact linear programming: simplex with Bland's rule and Farkas certificates.

Every pivot, every feasibility verdict, and every certificate is exact
rational arithmetic, done in integers: the tableau is built in integers
(each caller row times the lcm of its denominators), and each row is
kept as a positive integer multiple of its rational row, reduced by its
gcd once a pivot has touched it, so signs and ratio tests read the
integers directly. A pivot touches only the rows with a nonzero in the
pivot column; each such row is multiplied once and the pivot row is
subtracted only at its nonzeros, with both multipliers reduced by their
gcd. Free variables are
split into differences of nonnegatives, inequalities get slack columns,
and rows that still lack a unit column get artificials; phase one
minimizes the artificial mass and, when that minimum is positive, its
multipliers are the infeasibility certificate.

Certificate orientation, for a program with rows ``a_i . x  rel_i  b_i``
and per-variable sign constraints: the returned ``y`` satisfies

* ``y_i >= 0`` on ``<=`` rows, ``y_i <= 0`` on ``>=`` rows, free on ``=``;
* ``sum_i y_i a_ij == 0`` for free variables, ``>= 0`` for nonnegative ones;
* ``y . b < 0``.

Any such ``y`` proves infeasibility by aggregating the rows.

Optimal programs also carry exact duals ``y``, one per caller row, with
``y . b`` equal to the optimal value; ``y_i`` is the rate at which the
optimum moves with ``b_i``. For ``min c . x``:

* ``y_i <= 0`` on ``<=`` rows, ``y_i >= 0`` on ``>=`` rows, free on ``=``;
* ``c_j - sum_i y_i a_ij >= 0`` for nonnegative variables, ``== 0`` for
  free ones.

For ``max c . x`` every one of these signs flips. For a max program
over ``<=`` and ``=`` rows those are exactly the constraints of
``dual(program)``, which callers solve instead of writing a dual out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def _row_value(con: Constraint, x: Sequence[Fraction]) -> Fraction:
    return sum((v * x[j] for j, v in con.terms), start=Fraction(0))


def satisfies(lp: LinearProgram, x: Sequence[Fraction]) -> bool:
    """Exact feasibility of a point."""
    for j in range(lp.num_vars):
        if lp.nonnegative[j] and x[j] < 0:
            return False
    for con in lp.constraints:
        lhs = _row_value(con, x)
        ok = {
            LE: lhs <= con.rhs,
            EQ: lhs == con.rhs,
            GE: lhs >= con.rhs,
        }[con.relation]
        if not ok:
            return False
    return True


def verify_certificate(lp: LinearProgram, y: Sequence[Fraction]) -> bool:
    """Check the Farkas conditions for ``y`` by direct multiplication."""
    if len(y) != len(lp.constraints):
        return False
    for yi, con in zip(y, lp.constraints):
        if con.relation == LE and yi < 0:
            return False
        if con.relation == GE and yi > 0:
            return False
    combo: dict[int, Fraction] = {}
    for yi, con in zip(y, lp.constraints):
        for j, v in con.terms:
            combo[j] = combo.get(j, Fraction(0)) + yi * v
    for j in range(lp.num_vars):
        s = combo.get(j, Fraction(0))
        if lp.nonnegative[j]:
            if s < 0:
                return False
        elif s != 0:
            return False
    yb = sum((yi * con.rhs for yi, con in zip(y, lp.constraints)), start=Fraction(0))
    return yb < 0


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


def _row_scale(values: Iterable[Fraction]) -> int:
    """Positive multiplier turning the row into integers."""
    return math.lcm(*(v.denominator for v in values))


def _eliminate(
    row: list[int], prow: list[int], pc: int, support: Sequence[int]
) -> list[int]:
    """``row * piv - f * prow`` with ``piv = prow[pc] > 0`` and ``f = row[pc]``,
    divided by its gcd.

    ``support`` lists the columns where ``prow`` is nonzero. Both
    multipliers are first reduced by ``gcd(piv, f)``, so the row is
    multiplied once (copied when the reduced ``piv`` is 1) and the pivot
    row is subtracted only on its support. The result has 0 in column
    ``pc`` and is the primitive positive multiple of the rational row with
    the pivot row's multiple of ``f / piv`` removed, whatever the
    reduction. Entries of ``row`` beyond the pivot row's end (the
    objective's scale) are only multiplied.
    """
    piv, f = prow[pc], row[pc]
    g = math.gcd(piv, f)
    if g > 1:
        piv //= g
        f //= g
    out = [v * piv for v in row] if piv != 1 else row.copy()
    for j in support:
        out[j] -= f * prow[j]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _support(row: list[int]) -> list[int]:
    """The columns where ``row`` is nonzero."""
    return [j for j, v in enumerate(row) if v]


class _Tableau:
    """Simplex tableau in integers, each row with its own scale.

    Every row is a list of integers at full width, the right-hand side
    last, equal to a positive multiple of its rational row: the value of
    the row's basic variable is ``row[-1] / row[basis]``, and every sign
    and every ratio test reads the integers as they are. The rows are
    built in integers, with no rational arithmetic. The objective row
    holds the reduced costs, then minus the objective value, then its
    scale. One elimination step (``_eliminate``) serves the pivot and the
    pricing of an objective; a pivot lists the pivot row's nonzero columns
    once, eliminates only in the rows with a nonzero in the pivot column
    and leaves every other row as it is.
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
        slack_col = [-1] * len(cons)
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

        # Each row in integers at its full width: the caller's row times
        # its scale (the lcm of its denominators) and its flip.
        self.row_scale = []
        rows = []
        for con, sc, flip, unit in zip(cons, slack_col, self.flip, self.basis):
            scale = _row_scale([v for _, v in con.terms] + [con.rhs])
            self.row_scale.append(scale)
            row = [0] * (ncols + 1)
            for j, v in con.terms:
                sv = flip * v.numerator * (scale // v.denominator)
                pos, neg = self.var_cols[j]
                row[pos] += sv
                if neg is not None:
                    row[neg] -= sv
            if sc >= 0:
                row[sc] = flip if con.relation == LE else -flip
            row[unit] = 1
            row[-1] = flip * con.rhs.numerator * (scale // con.rhs.denominator)
            rows.append(row)
        self.rows = rows
        self.ncols = ncols
        self.obj = [0] * (ncols + 1) + [1]

    @property
    def obj_scale(self) -> int:
        return self.obj[-1]

    @property
    def objective_value(self) -> Fraction:
        return Fraction(-self.obj[-2], self.obj_scale)

    def set_objective(self, costs: Sequence[int]) -> None:
        """Reduced-cost row for integer costs, one per column (zeros past
        the end), priced out against the current basis."""
        obj = list(costs) + [0] * (self.ncols + 1 - len(costs)) + [1]
        for row, b in zip(self.rows, self.basis):
            if obj[b]:
                obj = _eliminate(obj, row, b, _support(row))
        self.obj = obj

    def pivot(self, pr: int, pc: int) -> None:
        self.pivots += 1
        if self.pivots > self.pivot_limit:
            raise LPResourceError(f"pivot limit {self.pivot_limit} exceeded")
        rows = self.rows
        prow = rows[pr]
        support = _support(prow)
        for r, row in enumerate(rows):
            if r != pr and row[pc]:
                rows[r] = _eliminate(row, prow, pc, support)
        if self.obj[pc]:
            self.obj = _eliminate(self.obj, prow, pc, support)
        self.basis[pr] = pc

    def run_simplex(self, banned: set[int]) -> str:
        """Minimize the current objective; Bland's rule throughout."""
        while True:
            pc = -1
            obj = self.obj
            for j in range(self.ncols):
                if obj[j] < 0 and j not in banned:
                    pc = j
                    break
            if pc < 0:
                return OPTIMAL
            pr = -1
            best_rhs = best_piv = None
            for r, row in enumerate(self.rows):
                a = row[pc]
                if a <= 0:
                    continue
                if pr < 0:
                    pr, best_rhs, best_piv = r, row[-1], a
                    continue
                # ratio comparison rhs/a < best by cross multiplication;
                # each row's scale cancels in its own ratio
                left = row[-1] * best_piv
                right = best_rhs * a
                if left < right or (left == right and self.basis[r] < self.basis[pr]):
                    pr, best_rhs, best_piv = r, row[-1], a
            if pr < 0:
                return UNBOUNDED
            self.pivot(pr, pc)

    def drive_out_artificials(self) -> None:
        """After a zero-mass phase one, remove artificials from the basis."""
        r = 0
        while r < len(self.rows):
            row = self.rows[r]
            if self.basis[r] not in self.artificial:
                r += 1
                continue
            pc = next(
                (j for j in range(self.ncols) if row[j] and j not in self.artificial), -1
            )
            if pc < 0:
                # Fully zero row: the original constraint was redundant.
                del self.rows[r]
                del self.basis[r]
                continue
            if row[pc] < 0:
                # The artificial is at level 0, so the negated row keeps
                # its right-hand side and the pivot is positive.
                self.rows[r] = [-v for v in row]
            self.pivot(r, pc)
            r += 1

    def structural_solution(self) -> tuple[Fraction, ...]:
        col_val = {b: Fraction(row[-1], row[b]) for row, b in zip(self.rows, self.basis)}
        zero = Fraction(0)
        out = []
        for pos, neg in self.var_cols:
            v = col_val.get(pos, zero)
            if neg is not None:
                v = v - col_val.get(neg, zero)
            out.append(v)
        return tuple(out)

    def row_multipliers(self, phase_one: bool) -> tuple[Fraction, ...]:
        """Duals of the caller's rows for the current objective.

        Each row's initial unit column has reduced cost ``cost - dual``
        (cost 1 for an artificial in phase one, 0 otherwise); unflipping
        and unscaling maps those duals of the standardized rows to the
        caller's rows.
        """
        y = []
        for i, col in enumerate(self.row_unit_col):
            cost = 1 if phase_one and col in self.artificial else 0
            reduced = Fraction(self.obj[col], self.obj_scale)
            y.append((cost - reduced) * self.flip[i] * self.row_scale[i])
        return tuple(y)

    def farkas_certificate(self) -> tuple[Fraction, ...]:
        """Multipliers for the original rows from phase-one reduced costs."""
        return tuple(-v for v in self.row_multipliers(phase_one=True))


def solve(lp: LinearProgram, *, pivot_limit: int = DEFAULT_PIVOT_LIMIT) -> LPOutcome:
    """Solve ``lp`` exactly; see the module docstring for the contract."""
    tab = _Tableau(lp, pivot_limit)

    tab.set_objective([int(j in tab.artificial) for j in range(tab.ncols)])
    status = tab.run_simplex(banned=set())
    if status == UNBOUNDED:  # phase-one objective is bounded below by zero
        raise AssertionError("phase one cannot be unbounded")
    if tab.objective_value > 0:
        return LPOutcome(status=INFEASIBLE, certificate=tab.farkas_certificate())
    tab.drive_out_artificials()

    if lp.sense is None:
        return LPOutcome(status=FEASIBLE, x=tab.structural_solution())

    obj_scale = _row_scale([v for _, v in lp.objective])
    costs = [0] * tab.n_structural
    sign = 1 if lp.sense == MIN else -1
    for j, v in lp.objective:
        sv = int(v * obj_scale)
        pos, neg = tab.var_cols[j]
        costs[pos] += sign * sv
        if neg is not None:
            costs[neg] -= sign * sv
    tab.set_objective(costs)
    status = tab.run_simplex(banned=tab.artificial)
    if status == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED)
    value = sign * tab.objective_value / obj_scale
    duals = tuple(sign * v / obj_scale for v in tab.row_multipliers(phase_one=False))
    return LPOutcome(
        status=OPTIMAL,
        x=tab.structural_solution(),
        objective_value=value,
        duals=duals,
    )


def to_lp_text(lp: LinearProgram, name: str = "program") -> str:
    """Render in the conventional LP text format for external cross-checks.

    Coefficients are emitted as decimal approximations; the format has no
    rational literals, so this dump is for eyeballing and cross-solving,
    not for exact round-trips.
    """

    def num(x: Fraction) -> str:
        return repr(float(x))

    def side(terms: Iterable[tuple[int, Fraction]]) -> str:
        parts = []
        for j, v in terms:
            fv = float(v)
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
