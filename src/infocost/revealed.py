"""Revealed posterior means and the mean-preserving-contraction gap.

A distribution of posterior means is Bayes-feasible exactly when it is a
mean-preserving contraction (MPC) of the prior: the running integral of
(prior CDF - candidate CDF) stays nonnegative and closes to zero at 1.
That running integral, the "gap", is piecewise linear with kinks only at
atom locations, so every predicate here reads one table of exact
evaluations at the kinks (``_gap_table``). ``positive_gap_intervals``,
``binding_set`` and ``is_monotone_partitional`` require an MPC pair and
raise ``ValueError`` on any other.

An observation's revealed statistics come from one pass over its choice
data: each act's joint mass with every state gives both its probability
and its posterior mean. Everything in this module is a pure function
over immutable inputs; nothing is cached, so each caller that needs a
summary computes its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import numeric
from .model import Observation, Prior, StateSpace


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

    def value_at(self, z: Fraction) -> Fraction:
        """CDF value P(X <= z)."""
        return sum(p for loc, p in self.atoms if loc <= z)


def prior_cdf(prior: Prior) -> DiscreteCDF:
    """The prior as a distribution: an atom at each state of positive
    weight. A negative weight raises ``ValueError``, naming its state."""
    return DiscreteCDF.from_pairs(zip(prior.state_space.states, prior.weights))


def mpc_gap(prior_cdf: DiscreteCDF, f: DiscreteCDF, z: Fraction) -> Fraction:
    """Integral of (prior CDF - f CDF) from 0 to ``z``, exactly.

    Each atom (loc, p) contributes p * max(0, z - loc) to the integral of
    its own CDF, so the gap is a finite sum of hinge terms.
    """
    acc = Fraction(0)
    for loc, p in prior_cdf.atoms:
        if loc < z:
            acc += p * (z - loc)
    for loc, p in f.atoms:
        if loc < z:
            acc -= p * (z - loc)
    return acc


def _gap_table(
    prior_cdf: DiscreteCDF, f: DiscreteCDF, extra=()
) -> dict[Fraction, Fraction]:
    """The gap at 0, 1, both supports and ``extra``, in increasing order."""
    points = {Fraction(0), Fraction(1), *prior_cdf.support, *f.support, *extra}
    return {z: mpc_gap(prior_cdf, f, z) for z in sorted(points)}


def _contracts(gaps: dict[Fraction, Fraction]) -> bool:
    """The MPC condition from gap values at every kink, 1 included.

    The gap is piecewise linear between kinks, so nonnegativity at every
    kink plus a zero at 1 decides the whole continuum; extra points
    change nothing.
    """
    return all(v >= 0 for v in gaps.values()) and gaps[1] == 0


def _mpc_gaps(
    prior_cdf: DiscreteCDF, f: DiscreteCDF, caller: str, extra=()
) -> dict[Fraction, Fraction]:
    """``_gap_table``, or a ``ValueError`` naming ``caller`` when the pair
    is not an MPC."""
    gaps = _gap_table(prior_cdf, f, extra)
    if not _contracts(gaps):
        raise ValueError(f"{caller} requires a mean-preserving contraction")
    return gaps


def is_mpc(prior_cdf: DiscreteCDF, f: DiscreteCDF) -> bool:
    """True iff ``f`` is a mean-preserving contraction of the prior."""
    return _contracts(_gap_table(prior_cdf, f))


def positive_gap_intervals(
    prior_cdf: DiscreteCDF, f: DiscreteCDF
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Maximal open intervals of [0, 1] where the gap is positive: the
    regions where the contraction constraint is slack.

    Requires an MPC pair (a ``ValueError`` otherwise). Its gap is
    nonnegative and linear between kinks, so it is positive exactly
    between two consecutive zero kinks with a kink between them.
    """
    gaps = _mpc_gaps(prior_cdf, f, "positive_gap_intervals")
    kinks = list(gaps)
    zeros = [i for i, z in enumerate(kinks) if gaps[z] == 0]
    return tuple((kinks[i], kinks[j]) for i, j in zip(zeros, zeros[1:]) if j > i + 1)


def binding_set(
    prior_cdf: DiscreteCDF, f: DiscreteCDF, state_space: StateSpace
) -> tuple[Fraction, ...]:
    """Grid states where the contraction constraint binds (gap = 0).

    The gap is evaluated once at each kink and state, and those values
    also decide that the pair is an MPC; a ``ValueError`` otherwise.
    """
    gaps = _mpc_gaps(prior_cdf, f, "binding_set", state_space.states)
    return tuple(z for z in state_space.states if gaps[z] == 0)


def is_monotone_partitional(prior_cdf: DiscreteCDF, f: DiscreteCDF) -> bool:
    """True iff the gap vanishes somewhere between consecutive support points.

    Requires an MPC pair (a ``ValueError`` otherwise). Its zeros are kinks
    or whole segments between zero kinks, and support points are kinks,
    so a zero kink in each closed gap between support points decides it.
    """
    gaps = _mpc_gaps(prior_cdf, f, "is_monotone_partitional")
    zeros = [z for z, v in gaps.items() if v == 0]
    supp = f.support
    return all(any(z1 <= z <= z2 for z in zeros) for z1, z2 in zip(supp, supp[1:]))


@dataclass(frozen=True)
class RevealedSummary:
    """Per-act revealed means and probabilities, and the revealed CDF."""

    act_means: tuple[Fraction, ...]
    act_probabilities: tuple[Fraction, ...]
    cdf: DiscreteCDF


def revealed_summary(obs: Observation) -> RevealedSummary:
    """Each act's probability and Bayes posterior mean, in one pass per act.

    An act's joint mass at state z is sigma(act | z) * prior(z); its
    probability is the total mass and its mean the mass-weighted average
    state. An act never chosen reveals nothing, so it is assigned the
    prior mean.
    """
    states = obs.prior.state_space.states
    probs: list[Fraction] = []
    means: list[Fraction] = []
    for row in obs.sdsc.rows:
        masses = [p * w for p, w in zip(row, obs.prior.weights)]
        prob = sum(masses)
        probs.append(prob)
        if prob == 0:
            means.append(obs.prior.mean)
        else:
            means.append(sum(z * m for z, m in zip(states, masses)) / prob)
    return RevealedSummary(
        act_means=tuple(means),
        act_probabilities=tuple(probs),
        cdf=DiscreteCDF.from_pairs(
            (mean, prob) for mean, prob in zip(means, probs) if prob > 0
        ),
    )
