"""Rationalizability axioms: action switches and posterior-mean cycles.

The cycle axiom is decided through a finite inequality system over
multipliers indexed by (binding point, observation), with one row per
ordered pair of observations and chosen act; each row is a difference of
two price functions in the basis of ``recovery.price_terms``. The system
is solved on its short side, as its LP dual (``lp.dual``) over
nonnegative row weights, and every check costs that one program. The
dual of minimizing the multipliers' interior mass is bounded exactly
when the system is feasible, and its optimal duals are then the
multipliers of least interior mass that later build the cost derivative
and price functions. Otherwise its improving ray, scaled to sum 1,
gives weights on ordered act pairs that spell out a payoff-improving
reallocation of posterior means. Both are verified here by direct
multiplication before being reported.
Acts are compared by their menu (``Menu.values_at``, ``Menu.best_act``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from . import lp, numeric
from .model import Dataset, RevealedSummary
from .recovery import price_terms
from .revealed import binding_set

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
    """Every chosen act must be optimal at its own revealed mean: each act
    of higher utility there (``Menu.values_at``) is a violation, with the
    difference of the two utilities as its gain."""
    violations: list[NiasViolation] = []
    for oi, obs in enumerate(dataset.observations):
        summary = obs.summary
        acts = obs.menu.acts
        for ai, (prob, mean) in enumerate(zip(summary.act_probabilities, summary.act_means)):
            if prob > 0:
                den, values = obs.menu.values_at(mean)
                violations += [
                    NiasViolation(oi, acts[ai].id, acts[bi].id, Fraction(v - values[ai], den))
                    for bi, v in enumerate(values)
                    if v > values[ai]
                ]
    return NiasReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class FarkasSystem:
    """The inequality system deciding posterior-mean-cycle rationalizability.

    One row per ordered pair of distinct observations and per chosen act;
    one column per binding point of each observation's revealed
    distribution, observation by observation (``own_columns`` is one
    observation's slice). Columns at 0 and 1 carry free multipliers, the
    interior ones are sign-constrained. A row's left-hand side is the
    act's probability times the difference of the two observations'
    prices at the act's revealed mean, so its sparse ``terms`` are
    ``recovery.price_terms`` of the first observation's slice weighted by
    the probability and of the second's weighted by its negation, as
    (column, coefficient) pairs in column order. Every deviation act of
    the second observation's menu gives the same left-hand side, so only
    the tightest one is kept: that menu's best act at the revealed mean
    (``Menu.best_act``, lowest index on ties). Its index is the last
    entry of the row key.
    """

    rows: tuple[RowKey, ...]
    columns: tuple[ColKey, ...]
    terms: tuple[tuple[tuple[int, Fraction], ...], ...]
    rhs: tuple[Fraction, ...]
    free_columns: tuple[bool, ...]
    binding_sets: tuple[tuple[Fraction, ...], ...]
    summaries: tuple[RevealedSummary, ...]

    def own_columns(self, oi: int) -> tuple[tuple[int, Fraction], ...]:
        """Observation ``oi``'s (column index, binding point) pairs."""
        return _own_columns(self.binding_sets, oi)

    def to_linear_program(self) -> lp.LinearProgram:
        """The system as one program, built on the first call and shared
        by every later one, so its rows are scaled to integers once."""
        return self._program

    @cached_property
    def _program(self) -> lp.LinearProgram:
        return lp.LinearProgram(
            num_vars=len(self.columns),
            nonnegative=tuple(not f for f in self.free_columns),
            constraints=tuple(
                lp.Constraint(terms=row, relation=lp.LE, rhs=b)
                for row, b in zip(self.terms, self.rhs)
            ),
        )


def _own_columns(
    bindings: tuple[tuple[Fraction, ...], ...], oi: int
) -> tuple[tuple[int, Fraction], ...]:
    """The columns of observation ``oi``: they follow those of every
    earlier observation, one per binding point."""
    start = sum(len(zs) for zs in bindings[:oi])
    return tuple(enumerate(bindings[oi], start))


def build_farkas_system(dataset: Dataset) -> FarkasSystem:
    """Assemble the multiplier system from revealed statistics.

    Each observation contributes its own binding set, computed against its
    own prior's distribution (``Prior.distribution``), so single- and
    multi-prior datasets go through the same construction. Each chosen
    act's probability, mean, payoff and own price terms are built once and
    shared by its rows against every other observation, whose slice of
    the columns alone gives the other terms.
    """
    observations = dataset.observations
    summaries = tuple(obs.summary for obs in observations)
    bindings = tuple(
        binding_set(obs.prior.distribution, summ.cdf, dataset.state_space)
        for obs, summ in zip(observations, summaries)
    )
    columns = tuple((oi, z) for oi, zs in enumerate(bindings) for z in zs)
    slices = [_own_columns(bindings, oi) for oi in range(len(observations))]

    rows: list[RowKey] = []
    terms: list[tuple[tuple[int, Fraction], ...]] = []
    rhs: list[Fraction] = []
    for oa, (obs_a, summ) in enumerate(zip(observations, summaries)):
        chosen = [
            (ai, prob, mean, obs_a.menu.values_at(mean), price_terms(slices[oa], mean, prob))
            for ai, (prob, mean) in enumerate(zip(summ.act_probabilities, summ.act_means))
            if prob > 0
        ]
        for ob, obs_b in enumerate(observations):
            if ob == oa:
                continue
            for ai, prob, mean, (pay_den, pays), own in chosen:
                other = price_terms(slices[ob], mean, -prob)
                bi, best, den = obs_b.menu.best_act(mean)
                rows.append((oa, ob, ai, bi))
                terms.append(own + other if oa < ob else other + own)
                # (payoff - best) * prob, as one fraction
                rhs.append(Fraction(
                    (pays[ai] * den - best * pay_den) * prob.numerator,
                    pay_den * den * prob.denominator,
                ))
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


def _alternative_program(program: lp.LinearProgram) -> lp.LinearProgram:
    """The relaxed alternative: the dual of max minus the interior mass
    over the system ``program``, min b . beta over beta >= 0 with
    A^T beta = 0 on free columns and >= -1 on interior ones."""
    interior = tuple((j, Fraction(-1)) for j, nonneg in enumerate(program.nonnegative) if nonneg)
    return lp.dual(replace(program, objective=interior, sense=lp.MAX))


def check_nipmc(dataset: Dataset, *, flattest: bool = False) -> NipmcVerdict:
    """Decide the posterior-mean-cycle axiom with one program, the relaxed
    alternative, assuming the action-switch axiom passed.

    beta = 0 is feasible there, so it has an optimum exactly when the
    system is feasible: its duals are then the multipliers of least
    interior mass, proved minimal by its value recomputed as b . beta
    from a beta checked feasible. Otherwise its improving ray
    (``LPOutcome.ray``), scaled to sum 1, is the violation certificate.
    The objective prices only interior columns, so the free multipliers
    at 0 and 1, interior ones the minimum leaves tied, and the
    certificate are whichever vertex or ray the simplex reaches.
    ``flattest`` is accepted and ignored.
    """
    system = build_farkas_system(dataset)
    program = system.to_linear_program()
    lam = (Fraction(0),) * len(system.columns)
    if system.rows:
        relaxed = _alternative_program(program)
        outcome = lp.solve(relaxed)
        if outcome.status == lp.UNBOUNDED:
            total = sum(outcome.ray or ())
            if not total > 0:
                raise RuntimeError("relaxed cycle alternative unbounded, but no certificate found")
            beta = tuple(v / total for v in outcome.ray)
            if not lp.verify_certificate(program, beta):
                raise RuntimeError("infeasibility certificate failed direct verification")
            cert = dict(zip(system.rows, beta))
            return NipmcVerdict(passed=False, system=system, certificate=cert)
        if outcome.status != lp.OPTIMAL:
            raise RuntimeError("flattest-multiplier selection failed")
        assert outcome.x is not None and outcome.duals is not None
        lam = outcome.duals
        # weak duality: a feasible beta of value -mass proves the minimum;
        # the value is b . beta of the beta checked, not the solver's report
        mass = sum(v for v, f in zip(lam, system.free_columns) if not f)
        value = sum(v * outcome.x[i] for i, v in relaxed.objective)
        if not -mass == value == outcome.objective_value or not lp.satisfies(relaxed, outcome.x):
            raise RuntimeError("flattest multipliers failed the duality check")
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
