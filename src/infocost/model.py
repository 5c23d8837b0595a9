"""Domain types for states, priors, acts, menus, and choice data.

Construction performs only structural checks (things that would break
indexing). Semantic invariants, probability sums, prior support at the
endpoints, dimension agreement, are collected by :func:`validate_dataset`
into a report so a CLI can name every problem instead of dying on the
first one. Pipeline operations assume a dataset that validates cleanly.

All types are immutable after construction and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import numeric
from .numeric import Scalar


@dataclass(frozen=True)
class Act:
    """A payoff profile, affine in the posterior mean.

    ``u0`` and ``u1`` are the payoffs at posterior means 0 and 1; the
    payoff at any interior mean is the affine interpolation.
    """

    id: str
    u0: Scalar
    u1: Scalar


def utility(act: Act, z: Scalar) -> Scalar:
    """Expected payoff of ``act`` at posterior mean ``z`` in [0, 1]."""
    if z < 0 or z > 1:
        raise ValueError(f"posterior mean {z!r} outside [0, 1]")
    return z * act.u1 + (1 - z) * act.u0


@dataclass(frozen=True)
class Menu:
    id: str
    acts: tuple[Act, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "acts", tuple(self.acts))
        if not self.acts:
            raise ValueError(f"menu {self.id!r} has no acts")
        ids = [a.id for a in self.acts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"menu {self.id!r} has duplicate act ids")

    def act_index(self, act_id: str) -> int:
        for i, act in enumerate(self.acts):
            if act.id == act_id:
                return i
        raise KeyError(f"act {act_id!r} not in menu {self.id!r}")


def indirect_utility(menu: Menu, z: Scalar) -> Scalar:
    """Best payoff available from ``menu`` at posterior mean ``z``."""
    return max(utility(act, z) for act in menu.acts)


@dataclass(frozen=True)
class StateSpace:
    """Finite grid of states in [0, 1], normalized to run from 0 to 1."""

    states: tuple[Scalar, ...]

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
    weights: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def mean(self) -> Scalar:
        return sum(z * w for z, w in zip(self.state_space.states, self.weights))

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
        if self.weights[0] <= 0:
            out.append("prior must put mass on state 0")
        if self.weights[-1] <= 0:
            out.append("prior must put mass on state 1")
        return out


@dataclass(frozen=True)
class SDSC:
    """State-dependent stochastic choice matrix: rows per act, columns per state."""

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))


@dataclass(frozen=True)
class Observation:
    """One decision problem: a prior, a menu, and the observed choice data."""

    prior: Prior
    menu: Menu
    sdsc: SDSC


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


def _finite(x: Scalar) -> bool:
    if isinstance(x, Fraction):
        return True
    return math.isfinite(x)


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
        problems.extend(f"{where}: {p}" for p in obs.prior.problems())
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
        for act in obs.menu.acts:
            if not (_finite(act.u0) and _finite(act.u1)):
                problems.append(f"{where}: act {act.id!r} has non-finite payoff")
        if not all(_finite(w) for w in obs.prior.weights):
            problems.append(f"{where}: prior has non-finite weight")
    return ValidationReport(problems=tuple(problems))
