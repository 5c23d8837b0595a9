"""Domain types for states, priors, acts, menus, and choice data.

Construction performs only structural checks (things that would break
indexing, or a menu's act lines). Semantic invariants, probability sums,
prior support at the endpoints, dimension agreement, are collected by
:func:`validate_dataset` into a report so a CLI can name every problem
instead of dying on the first one. Pipeline operations assume a dataset
that validates cleanly.

All types are immutable after construction and safe to share across
concurrent tasks. ``Menu.value``, ``Prior.distribution`` and
``Observation.summary`` are built on first use and kept, not as fields
(two tasks may each build one, equally).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import numeric
from .piecewise import PiecewiseScalarFunction, line_envelope

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Act:
    """A payoff profile, affine in the posterior mean.

    ``u0`` and ``u1`` are the payoffs at posterior means 0 and 1; the
    payoff at any interior mean is the affine interpolation.
    """

    id: str
    u0: Fraction
    u1: Fraction


def utility(act: Act, z: Fraction) -> Fraction:
    """Expected payoff of ``act`` at posterior mean ``z`` in [0, 1]."""
    if z < 0 or z > 1:
        raise ValueError(f"posterior mean {numeric.format_scalar(z)} outside [0, 1]")
    return z * act.u1 + (1 - z) * act.u0


@dataclass(frozen=True)
class Menu:
    """Acts offered together. Their payoffs go over one common denominator
    when the menu is made, so ``values_at``, ``best_act`` and ``value``
    compare the acts' lines in integers. A payoff that is not a
    ``Fraction`` or an ``int`` raises ``TypeError``."""

    id: str
    acts: tuple[Act, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "acts", tuple(self.acts))
        if not self.acts:
            raise ValueError(f"menu {self.id!r} has no acts")
        ids = [a.id for a in self.acts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"menu {self.id!r} has duplicate act ids")
        payoffs = [u for act in self.acts for u in (act.u0, act.u1)]
        for u in payoffs:
            if type(u) not in (Fraction, int):
                raise TypeError(f"payoff {u!r} is a {type(u).__name__}, not a Fraction or an int")
        den, nums = numeric.scaled(payoffs)
        lines = tuple((u0, u1 - u0) for u0, u1 in zip(nums[::2], nums[1::2]))
        object.__setattr__(self, "_lines", (den, lines))

    def values_at(self, z: Fraction) -> tuple[int, list[int]]:
        """Every act's utility at posterior mean ``z`` in [0, 1], as one
        positive denominator and the acts' integer numerators over it."""
        zn, zd = z.numerator, z.denominator
        if not 0 <= zn <= zd:
            raise ValueError(f"posterior mean {numeric.format_scalar(z)} outside [0, 1]")
        den, lines = self._lines
        return den * zd, [u0 * zd + zn * slope for u0, slope in lines]

    def best_act(self, z: Fraction) -> tuple[int, int, int]:
        """The act of highest utility at ``z``, lowest index on ties: its
        index, and its utility as a numerator and a denominator."""
        den, values = self.values_at(z)
        best = max(values)
        return values.index(best), best, den

    @cached_property
    def value(self) -> PiecewiseScalarFunction:
        """The indirect utility: the upper envelope of the act lines, the
        ``line_envelope`` of their negated integer lines, so every crossing
        is one exact ``Fraction``."""
        den, lines = self._lines
        pieces = line_envelope([(-slope, -u0) for u0, slope in lines], _ZERO, _ONE)
        coefficients = [(_ZERO, Fraction(-m, den), Fraction(-c, den)) for _, (m, c) in pieces]
        return PiecewiseScalarFunction((*(x for x, _ in pieces), _ONE), coefficients)


def indirect_utility(menu: Menu, z: Fraction) -> Fraction:
    """Best payoff available from ``menu`` at posterior mean ``z``."""
    _, num, den = menu.best_act(z)
    return Fraction(num, den)


@dataclass(frozen=True)
class DiscreteCDF:
    """Finite-support distribution on [0, 1] as (location, mass) atoms."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple((z, p) for z, p in self.atoms))
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        for z, p in self.atoms:
            if z < 0 or z > 1:
                raise ValueError(f"atom location {numeric.format_scalar(z)} outside [0, 1]")
            if p <= 0:
                raise ValueError(
                    f"atom at {numeric.format_scalar(z)} has non-positive mass "
                    f"{numeric.format_scalar(p)}"
                )
        for (a, _), (b, _) in zip(self.atoms, self.atoms[1:]):
            if a >= b:
                raise ValueError("atom locations must be strictly increasing")
        total = sum(p for _, p in self.atoms)
        if total != 1:
            raise ValueError(f"masses sum to {numeric.format_scalar(total)}, not 1")

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteCDF":
        """Build from unsorted pairs, merging equal locations, dropping zeros."""
        merged: list[list[Fraction]] = []
        for z, p in sorted(pairs, key=lambda t: t[0]):
            if p == 0:
                continue
            if merged and merged[-1][0] == z:
                merged[-1][1] += p
            else:
                merged.append([z, p])
        return cls(atoms=tuple((z, p) for z, p in merged))

    @classmethod
    def point(cls, z: Fraction) -> "DiscreteCDF":
        return cls(atoms=((z, Fraction(1)),))

    @property
    def mean(self) -> Fraction:
        return sum(z * p for z, p in self.atoms)

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(z for z, _ in self.atoms)


@dataclass(frozen=True)
class StateSpace:
    """Finite grid of states in [0, 1], normalized to run from 0 to 1."""

    states: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))

    def problems(self) -> list[str]:
        out: list[str] = []
        zs = self.states
        if len(zs) < 2:
            out.append("state space needs at least two states")
            return out
        if zs[0] != 0:
            out.append("lowest state must be 0")
        if zs[-1] != 1:
            out.append("highest state must be 1")
        for a, b in zip(zs, zs[1:]):
            if a >= b:
                out.append(f"states not strictly increasing at {a}, {b}")
        return out


@dataclass(frozen=True)
class Prior:
    """Distribution over a state grid, with its mean."""

    state_space: StateSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def mean(self) -> Fraction:
        return sum(z * w for z, w in zip(self.state_space.states, self.weights))

    @cached_property
    def distribution(self) -> DiscreteCDF:
        """An atom at each state of positive weight. A negative weight raises
        ``ValueError`` here, naming its state, not when the prior is made."""
        return DiscreteCDF.from_pairs(zip(self.state_space.states, self.weights))

    def problems(self) -> list[str]:
        out: list[str] = []
        zs = self.state_space.states
        if len(self.weights) != len(zs):
            out.append(
                f"prior has {len(self.weights)} weights for {len(zs)} states"
            )
            return out
        for z, w in zip(zs, self.weights):
            if w < 0:
                out.append(f"prior weight at state {numeric.format_scalar(z)} is negative")
        total = sum(self.weights)
        if total != 1:
            out.append(f"prior weights sum to {numeric.format_scalar(total)}, not 1")
        return out


def endpoint_mass_problems(prior: Prior) -> list[str]:
    """Rules a prior of choice data adds to ``Prior.problems``: mass on
    both endpoint states. A forward problem's prior need not meet them."""
    weights = prior.weights
    if not weights or len(weights) != len(prior.state_space.states):
        return []
    out: list[str] = []
    if weights[0] <= 0:
        out.append("prior must put mass on state 0")
    if weights[-1] <= 0:
        out.append("prior must put mass on state 1")
    return out


@dataclass(frozen=True)
class SDSC:
    """State-dependent stochastic choice matrix: rows per act, columns per state."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))


@dataclass(frozen=True)
class RevealedSummary:
    """Per-act revealed means and probabilities, and the revealed CDF."""

    act_means: tuple[Fraction, ...]
    act_probabilities: tuple[Fraction, ...]
    cdf: DiscreteCDF


@dataclass(frozen=True)
class Observation:
    """One decision problem: a prior, a menu, and the observed choice data."""

    prior: Prior
    menu: Menu
    sdsc: SDSC

    @cached_property
    def summary(self) -> RevealedSummary:
        """Each act's probability and Bayes posterior mean, in one pass per act.

        An act's joint mass at state z is sigma(act | z) * prior(z); its
        probability is the total mass and its mean the mass-weighted average
        state. An act never chosen reveals nothing, so it is assigned the
        prior mean. The states, the prior weights and the choice
        probabilities are each put over one common denominator, so every
        mass is an integer over one scale and every sum is an integer sum;
        each reported number is then built once, as one exact fraction.
        """
        z_den, zs = numeric.scaled(self.prior.state_space.states)
        w_den, ws = numeric.scaled(self.prior.weights)
        p_den, ps = numeric.scaled([p for row in self.sdsc.rows for p in row])
        flat = iter(ps)
        scale = p_den * w_den
        prior_mean = Fraction(sum(z * w for z, w in zip(zs, ws)), z_den * w_den)
        totals: list[int] = []
        means: list[Fraction] = []
        for row in self.sdsc.rows:
            masses = [p * w for p, w in zip([next(flat) for _ in row], ws)]
            total = sum(masses)
            totals.append(total)
            if total == 0:
                means.append(prior_mean)
            else:
                means.append(Fraction(sum(z * m for z, m in zip(zs, masses)), z_den * total))
        pooled: dict[Fraction, int] = {}
        for mean, total in zip(means, totals):
            if total > 0:
                pooled[mean] = pooled.get(mean, 0) + total
        return RevealedSummary(
            act_means=tuple(means),
            act_probabilities=tuple(Fraction(t, scale) for t in totals),
            cdf=DiscreteCDF(
                atoms=tuple((z, Fraction(t, scale)) for z, t in sorted(pooled.items()))
            ),
        )


@dataclass(frozen=True)
class Dataset:
    state_space: StateSpace
    observations: tuple[Observation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "observations", tuple(self.observations))


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Collect every violated invariant of ``dataset`` into one report."""
    problems: list[str] = []
    problems.extend(dataset.state_space.problems())
    zs = dataset.state_space.states
    if not dataset.observations:
        problems.append("dataset has no observations")
    for oi, obs in enumerate(dataset.observations):
        where = f"observation {oi} (menu {obs.menu.id!r})"
        if obs.prior.state_space.states != zs:
            problems.append(f"{where}: prior states differ from dataset state space")
        problems.extend(
            f"{where}: {p}"
            for p in [*obs.prior.problems(), *endpoint_mass_problems(obs.prior)]
        )
        nacts = len(obs.menu.acts)
        if len(obs.sdsc.rows) != nacts:
            problems.append(
                f"{where}: sdsc has {len(obs.sdsc.rows)} rows for {nacts} acts"
            )
            continue
        widths = {len(r) for r in obs.sdsc.rows}
        if widths != {len(zs)}:
            problems.append(f"{where}: sdsc row lengths {sorted(widths)} != {len(zs)} states")
            continue
        for ai, row in enumerate(obs.sdsc.rows):
            for zi, p in enumerate(row):
                if p < 0:
                    problems.append(
                        f"{where}: sigma({obs.menu.acts[ai].id!r} | state "
                        f"{numeric.format_scalar(zs[zi])}) is negative"
                    )
        if len(obs.prior.weights) == len(zs):
            for zi, z in enumerate(zs):
                if obs.prior.weights[zi] <= 0:
                    continue
                col = sum(obs.sdsc.rows[ai][zi] for ai in range(nacts))
                if col != 1:
                    problems.append(
                        f"{where}: sigma column at state {numeric.format_scalar(z)} "
                        f"sums to {numeric.format_scalar(col)}, not 1"
                    )
    return ValidationReport(problems=tuple(problems))
