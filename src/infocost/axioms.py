"""Rationalizability axioms: action switches and posterior-mean cycles.

The cycle axiom is decided through a finite inequality system over
multipliers indexed by (binding point, observation), with one row per
ordered pair of observations and chosen act; each row is a difference of
two price functions in the basis of ``recovery.price_terms``. The system
is solved on its short side, as its LP dual (``lp.dual``) over
nonnegative row weights: a negative optimum yields weights on ordered act
pairs that spell out a payoff-improving reallocation of posterior means,
and otherwise the optimal duals are the multipliers that later build the
cost derivative and price functions. Both are verified here by direct
multiplication before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import lp, numeric
from .model import Dataset, utility
from .recovery import price_terms
from .revealed import RevealedSummary, binding_set, prior_cdf, revealed_summary

RowKey = tuple[int, int, int, int]  # (obs_a, obs_b, act_a, act_b) indices
ColKey = tuple[int, Fraction]  # (obs, binding point)


@dataclass(frozen=True)
class NiasViolation:
    observation: int
    chosen: str
    better: str
    gain: Fraction


@dataclass(frozen=True)
class NiasReport:
    passed: bool
    violations: tuple[NiasViolation, ...]


def check_nias(dataset: Dataset) -> NiasReport:
    """Every chosen act must be optimal at its own revealed mean."""
    violations: list[NiasViolation] = []
    for oi, obs in enumerate(dataset.observations):
        summary = revealed_summary(obs)
        for ai, act in enumerate(obs.menu.acts):
            if summary.act_probabilities[ai] <= 0:
                continue
            mean = summary.act_means[ai]
            base = utility(act, mean)
            for alt in obs.menu.acts:
                if alt.id == act.id:
                    continue
                gain = utility(alt, mean) - base
                if gain > 0:
                    violations.append(
                        NiasViolation(
                            observation=oi, chosen=act.id, better=alt.id, gain=gain
                        )
                    )
    return NiasReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class FarkasSystem:
    """The inequality system deciding posterior-mean-cycle rationalizability.

    One row per ordered pair of distinct observations and per chosen act;
    one column per binding point of each observation's revealed
    distribution. Columns at 0 and 1 carry free multipliers, the interior
    ones are sign-constrained. A row's left-hand side is the act's
    probability times the difference of the two observations' prices at
    the act's revealed mean, so its sparse ``terms`` are
    ``recovery.price_terms`` of the first minus those of the second, as
    (column, coefficient) pairs in column order. Every deviation act of
    the second observation's menu gives the same left-hand side, so only
    the tightest one is kept: the act with the highest utility at the
    revealed mean (lowest index on ties). Its index is the last entry of
    the row key.
    """

    rows: tuple[RowKey, ...]
    columns: tuple[ColKey, ...]
    terms: tuple[tuple[tuple[int, Fraction], ...], ...]
    rhs: tuple[Fraction, ...]
    free_columns: tuple[bool, ...]
    binding_sets: tuple[tuple[Fraction, ...], ...]
    summaries: tuple[RevealedSummary, ...]

    def to_linear_program(self) -> lp.LinearProgram:
        return lp.LinearProgram(
            num_vars=len(self.columns),
            nonnegative=tuple(not f for f in self.free_columns),
            constraints=tuple(
                lp.Constraint(terms=row, relation=lp.LE, rhs=b)
                for row, b in zip(self.terms, self.rhs)
            ),
        )


def build_farkas_system(dataset: Dataset) -> FarkasSystem:
    """Assemble the multiplier system from revealed statistics.

    Each observation contributes its own binding set, computed against its
    own prior, so single- and multi-prior datasets go through the same
    construction.
    """
    summaries = tuple(revealed_summary(obs) for obs in dataset.observations)
    bindings = tuple(
        binding_set(prior_cdf(obs.prior), summaries[oi].cdf, dataset.state_space)
        for oi, obs in enumerate(dataset.observations)
    )
    columns = tuple((oi, z) for oi, zs in enumerate(bindings) for z in zs)

    rows: list[RowKey] = []
    terms: list[tuple[tuple[int, Fraction], ...]] = []
    rhs: list[Fraction] = []
    n = len(dataset.observations)
    for oa in range(n):
        menu_a = dataset.observations[oa].menu
        summ = summaries[oa]
        for ob in range(n):
            if ob == oa:
                continue
            menu_b = dataset.observations[ob].menu
            for ai, act_a in enumerate(menu_a.acts):
                prob = summ.act_probabilities[ai]
                if prob <= 0:
                    continue
                mean = summ.act_means[ai]
                row = {j: prob * v for j, v in price_terms(columns, oa, mean).items()}
                row.update(
                    (j, -prob * v) for j, v in price_terms(columns, ob, mean).items()
                )
                deviations = [utility(act_b, mean) for act_b in menu_b.acts]
                best = max(deviations)
                rows.append((oa, ob, ai, deviations.index(best)))
                terms.append(tuple(sorted(row.items())))
                rhs.append((utility(act_a, mean) - best) * prob)
    return FarkasSystem(
        rows=tuple(rows),
        columns=columns,
        terms=tuple(terms),
        rhs=tuple(rhs),
        free_columns=tuple(z == 0 or z == 1 for _, z in columns),
        binding_sets=bindings,
        summaries=summaries,
    )


@dataclass(frozen=True)
class NipmcVerdict:
    passed: bool
    system: FarkasSystem
    multipliers: dict[ColKey, Fraction] | None = None
    certificate: dict[RowKey, Fraction] | None = None


def _alternative_program(
    program: lp.LinearProgram, interior_floor: Fraction, normalized: bool
) -> lp.LinearProgram:
    """The dual of max ``interior_floor`` * (interior mass) over the
    system ``program``: min b . beta over beta >= 0 with A^T beta = 0 on
    free columns and >= ``interior_floor`` on interior ones. With
    ``normalized`` the row sum(beta) <= 1 is appended, which bounds it."""
    alternative = lp.dual(
        replace(
            program,
            objective=tuple(
                (j, interior_floor) for j, nonneg in enumerate(program.nonnegative) if nonneg
            ),
            sense=lp.MAX,
        )
    )
    if not normalized:
        return alternative
    one = Fraction(1)
    total = lp.constraint({i: one for i in range(alternative.num_vars)}, lp.LE, one)
    return replace(alternative, constraints=alternative.constraints + (total,))


def _flattest_multipliers(
    program: lp.LinearProgram, free_columns: tuple[bool, ...]
) -> tuple[Fraction, ...] | None:
    """Multipliers of ``program`` with minimal interior mass, or None when
    the relaxed alternative is unbounded, which is exactly when
    ``program`` is infeasible (beta = 0 is always feasible there)."""
    relaxed = _alternative_program(program, Fraction(-1), False)
    outcome = lp.solve(relaxed)
    if outcome.status == lp.UNBOUNDED:
        return None
    if outcome.status != lp.OPTIMAL:
        raise RuntimeError("flattest-multiplier selection failed")
    assert outcome.x is not None and outcome.duals is not None
    # weak duality: a feasible beta of value -mass proves the minimum; the
    # value is b . beta of the beta checked, not the solver's report
    mass = sum(v for v, f in zip(outcome.duals, free_columns) if not f)
    value = sum(v * outcome.x[i] for i, v in relaxed.objective)
    if not -mass == value == outcome.objective_value or not lp.satisfies(relaxed, outcome.x):
        raise RuntimeError("flattest multipliers failed the duality check")
    return outcome.duals


def check_nipmc(dataset: Dataset, *, flattest: bool = False) -> NipmcVerdict:
    """Decide the posterior-mean-cycle axiom via the multiplier system.

    Assumes the action-switch axiom already passed. The system A lam <= b
    is feasible exactly when min b . beta over the normalized alternative
    is zero; a negative optimum's beta is the violation certificate, and
    otherwise the duals of the alternative's column rows are multipliers.

    With ``flattest`` the multipliers additionally have minimal total
    interior mass: they are the duals of the alternative with interior
    rows relaxed to >= -1 and no normalization, which is solved first.
    beta = 0 is feasible there, so it is unbounded exactly when the system
    is infeasible, and only then is the normalized alternative solved for
    the certificate: one program when the data passes, two when it fails.
    That objective prices only interior columns, so the free multipliers
    at 0 and 1, and interior ones wherever the minimum is not unique, are
    whichever optimal vertex the simplex reaches.
    """
    system = build_farkas_system(dataset)
    program = system.to_linear_program()
    n = len(system.columns)
    lam: tuple[Fraction, ...] | None = (Fraction(0),) * n
    if system.rows:
        lam = _flattest_multipliers(program, system.free_columns) if flattest else None
        if lam is None:
            outcome = lp.solve(_alternative_program(program, Fraction(0), True))
            if outcome.status != lp.OPTIMAL:
                raise RuntimeError("cycle alternative has no optimum")
            assert outcome.x is not None and outcome.duals is not None
            if outcome.objective_value < 0:
                if not lp.verify_certificate(program, outcome.x):
                    raise RuntimeError(
                        "infeasibility certificate failed direct verification"
                    )
                cert = dict(zip(system.rows, outcome.x))
                return NipmcVerdict(passed=False, system=system, certificate=cert)
            if flattest:
                raise RuntimeError("flattest-multiplier selection failed")
            lam = outcome.duals[:n]
    if not lp.satisfies(program, lam):
        raise RuntimeError("multipliers failed direct verification")
    return NipmcVerdict(
        passed=True,
        system=system,
        multipliers=dict(zip(system.columns, lam)),
    )


def explain_violation(verdict: NipmcVerdict, dataset: Dataset) -> str:
    """Render a failing verdict as the weighted improving reallocation."""
    if verdict.passed:
        raise ValueError("verdict passed; nothing to explain")
    assert verdict.certificate is not None
    system = verdict.system
    beta = tuple(
        verdict.certificate.get(key, Fraction(0)) for key in system.rows
    )
    if not lp.verify_certificate(system.to_linear_program(), beta):
        raise ValueError("certificate fails the reallocation conditions")

    gain = sum(
        (b * r for b, r in zip(beta, system.rhs)), start=Fraction(0)
    )
    lines = [
        "improving posterior-mean reallocation found:",
    ]
    for key, weight in zip(system.rows, beta):
        if weight == 0:
            continue
        oa, ob, ai, bi = key
        menu_a = dataset.observations[oa].menu
        menu_b = dataset.observations[ob].menu
        mean = system.summaries[oa].act_means[ai]
        lines.append(
            f"  weight {numeric.format_scalar(weight)}: observation {oa} "
            f"(menu {menu_a.id!r}) act {menu_a.acts[ai].id!r} at revealed mean "
            f"{numeric.format_scalar(mean)} traded against act "
            f"{menu_b.acts[bi].id!r} of observation {ob} (menu {menu_b.id!r})"
        )
    lines.append(
        f"  aggregate payoff change {numeric.format_scalar(gain)} < 0 while "
        "preserving the weighted distribution of posterior means"
    )
    lines.append(
        "  balance holds exactly at the boundary points 0 and 1 and the "
        "contraction conditions hold at every interior binding point"
    )
    return "\n".join(lines)
