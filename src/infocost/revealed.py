"""Revealed posterior means and the mean-preserving-contraction gap.

A distribution of posterior means is Bayes-feasible exactly when it is a
mean-preserving contraction (MPC) of the prior: the running integral of
(prior CDF - candidate CDF) stays nonnegative and closes to zero at 1.
That running integral, the "gap", is piecewise linear with kinks only at
atom locations, so every predicate here reduces to finitely many exact
evaluations.

An observation's revealed statistics come from one pass over its choice
data: each act's joint mass with every state gives both its probability
and its posterior mean. Everything in this module is a pure function
over immutable inputs; nothing is cached, so each caller that needs a
summary computes its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import numeric
from .model import Observation, Prior, StateSpace
from .numeric import Scalar


@dataclass(frozen=True)
class DiscreteCDF:
    """Finite-support distribution on [0, 1] as (location, mass) atoms."""

    atoms: tuple[tuple[Scalar, Scalar], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple((z, p) for z, p in self.atoms))
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        for z, p in self.atoms:
            if z < 0 or z > 1:
                raise ValueError(f"atom location {z!r} outside [0, 1]")
            if p <= 0:
                raise ValueError(f"atom at {z!r} has non-positive mass {p!r}")
        for (a, _), (b, _) in zip(self.atoms, self.atoms[1:]):
            if a >= b:
                raise ValueError("atom locations must be strictly increasing")
        total = sum(p for _, p in self.atoms)
        if total != 1:
            raise ValueError(f"masses sum to {total!r}, not 1")

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteCDF":
        """Build from unsorted pairs, merging equal locations, dropping zeros."""
        merged: list[list[Scalar]] = []
        for z, p in sorted(pairs, key=lambda t: t[0]):
            if p == 0:
                continue
            if merged and merged[-1][0] == z:
                merged[-1][1] += p
            else:
                merged.append([z, p])
        return cls(atoms=tuple((z, p) for z, p in merged))

    @classmethod
    def point(cls, z: Scalar) -> "DiscreteCDF":
        one = numeric.scalar(1)
        return cls(atoms=((z, one),))

    @property
    def mean(self) -> Scalar:
        return sum(z * p for z, p in self.atoms)

    @property
    def support(self) -> tuple[Scalar, ...]:
        return tuple(z for z, _ in self.atoms)

    def value_at(self, z: Scalar) -> Scalar:
        """CDF value P(X <= z)."""
        return sum(p for loc, p in self.atoms if loc <= z)


def prior_cdf(prior: Prior) -> DiscreteCDF:
    return DiscreteCDF.from_pairs(
        (z, w)
        for z, w in zip(prior.state_space.states, prior.weights)
        if w > 0
    )


def mpc_gap(prior_cdf: DiscreteCDF, f: DiscreteCDF, z: Scalar) -> Scalar:
    """Integral of (prior CDF - f CDF) from 0 to ``z``, exactly.

    Each atom (loc, p) contributes p * max(0, z - loc) to the integral of
    its own CDF, so the gap is a finite sum of hinge terms.
    """
    acc = numeric.scalar(0)
    for loc, p in prior_cdf.atoms:
        if loc < z:
            acc += p * (z - loc)
    for loc, p in f.atoms:
        if loc < z:
            acc -= p * (z - loc)
    return acc


def _kinks(prior_cdf: DiscreteCDF, f: DiscreteCDF) -> list[Scalar]:
    pts = {numeric.scalar(0), numeric.scalar(1)}
    pts.update(prior_cdf.support)
    pts.update(f.support)
    return sorted(pts)


def _contracts(gaps: dict[Scalar, Scalar]) -> bool:
    """The MPC condition from gap values at every kink, 1 included.

    The gap is piecewise linear between kinks, so nonnegativity at every
    kink plus a zero at 1 decides the whole continuum; extra points
    change nothing.
    """
    return all(v >= 0 for v in gaps.values()) and gaps[1] == 0


def is_mpc(prior_cdf: DiscreteCDF, f: DiscreteCDF) -> bool:
    """True iff ``f`` is a mean-preserving contraction of the prior."""
    return _contracts({k: mpc_gap(prior_cdf, f, k) for k in _kinks(prior_cdf, f)})


def gap_zero_intervals(
    prior_cdf: DiscreteCDF, f: DiscreteCDF
) -> tuple[tuple[Scalar, Scalar], ...]:
    """Exact zero set of the gap as maximal closed intervals.

    Point zeros come out as degenerate intervals. Interior zeros of a
    linear piece (possible only when the pair is not an MPC) are solved by
    linear interpolation.
    """
    ks = _kinks(prior_cdf, f)
    vals = [mpc_gap(prior_cdf, f, k) for k in ks]
    pieces: list[tuple[Scalar, Scalar]] = []

    def add(lo: Scalar, hi: Scalar) -> None:
        if pieces and pieces[-1][1] >= lo:
            pieces[-1] = (pieces[-1][0], max(pieces[-1][1], hi))
        else:
            pieces.append((lo, hi))

    for i in range(len(ks) - 1):
        a, b = ks[i], ks[i + 1]
        va, vb = vals[i], vals[i + 1]
        za, zb = va == 0, vb == 0
        if za and zb:
            add(a, b)
            continue
        if za:
            add(a, a)
        if zb:
            add(b, b)
        if not za and not zb and (va > 0) != (vb > 0):
            t = va / (va - vb)
            x = a + t * (b - a)
            add(x, x)
    return tuple(pieces)


def positive_gap_intervals(
    prior_cdf: DiscreteCDF, f: DiscreteCDF
) -> tuple[tuple[Scalar, Scalar], ...]:
    """Maximal intervals of [0, 1] with nonzero gap strictly inside.

    For an MPC pair these are exactly the regions where the contraction
    constraint is slack.
    """
    zeros = gap_zero_intervals(prior_cdf, f)
    out: list[tuple[Scalar, Scalar]] = []
    edge = numeric.scalar(0)
    for lo, hi in zeros:
        if edge < lo:
            out.append((edge, lo))
        edge = max(edge, hi)
    if edge < 1:
        out.append((edge, numeric.scalar(1)))
    return tuple(out)


def binding_set(
    prior_cdf: DiscreteCDF, f: DiscreteCDF, state_space: StateSpace
) -> tuple[Scalar, ...]:
    """Grid states where the contraction constraint binds (gap = 0).

    The gap is evaluated once at each kink and state, and those values
    also decide that the pair is an MPC; a ``ValueError`` otherwise.
    """
    points = {*_kinks(prior_cdf, f), *state_space.states}
    gaps = {z: mpc_gap(prior_cdf, f, z) for z in points}
    if not _contracts(gaps):
        raise ValueError("binding_set requires a mean-preserving contraction")
    return tuple(z for z in state_space.states if gaps[z] == 0)


def is_monotone_partitional(prior_cdf: DiscreteCDF, f: DiscreteCDF) -> bool:
    """True iff the gap vanishes somewhere between consecutive support points."""
    if not is_mpc(prior_cdf, f):
        raise ValueError("is_monotone_partitional requires a mean-preserving contraction")
    zeros = gap_zero_intervals(prior_cdf, f)
    supp = f.support
    for z1, z2 in zip(supp, supp[1:]):
        hit = any(lo <= z2 and hi >= z1 for lo, hi in zeros)
        if not hit:
            return False
    return True


@dataclass(frozen=True)
class RevealedSummary:
    """Per-act revealed means and probabilities, and the revealed CDF."""

    act_means: tuple[Scalar, ...]
    act_probabilities: tuple[Scalar, ...]
    cdf: DiscreteCDF


def revealed_summary(obs: Observation) -> RevealedSummary:
    """Each act's probability and Bayes posterior mean, in one pass per act.

    An act's joint mass at state z is sigma(act | z) * prior(z); its
    probability is the total mass and its mean the mass-weighted average
    state. An act never chosen reveals nothing, so it is assigned the
    prior mean.
    """
    states = obs.prior.state_space.states
    probs: list[Scalar] = []
    means: list[Scalar] = []
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
