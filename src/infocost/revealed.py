"""Revealed posterior means and the mean-preserving-contraction gap.

A distribution of posterior means is Bayes-feasible exactly when it is a
mean-preserving contraction (MPC) of the prior: the running integral of
(prior CDF - candidate CDF) stays nonnegative and closes to zero at 1.
That running integral, the "gap", is piecewise linear with kinks only at
atom locations, so every predicate here reads one table of exact
evaluations at the kinks (``_gap_table``). ``positive_gap_intervals``,
``binding_set`` and ``is_monotone_partitional`` require an MPC pair and
raise ``ValueError`` on any other.

Integrals of step CDFs are one integer sweep (``_integral_sweep``):
locations go over one common denominator and masses over another, and
each result is built once, as one exact fraction. ``cdf_integrals``
sweeps one CDF at increasing points, and the forward grid program reads
its right-hand sides from the prior's sweep. The gap table merges the
points of both supports as integers and sweeps the prior's atoms
against the candidate's negated ones.

Everything in this module is a pure function over immutable inputs;
nothing is cached here. The prior keeps its own distribution
(``Prior.distribution``) and an observation its revealed statistics
(``Observation.summary``).
"""

from __future__ import annotations

from fractions import Fraction

from . import numeric
from .model import DiscreteCDF, Observation, Prior, RevealedSummary, StateSpace

_ZERO = Fraction(0)
_ONE = Fraction(1)


def prior_cdf(prior: Prior) -> DiscreteCDF:
    """The prior as a distribution: its own, ``Prior.distribution``."""
    return prior.distribution


def _integral_sweep(keys, atoms, scale: int) -> list[Fraction]:
    """The integral of a signed step CDF from 0 to each of the increasing
    integer ``keys``, each over ``scale``.

    ``atoms`` are (location, mass) integer pairs in increasing location,
    on the keys' scale. At g the integral is g * (mass below g) -
    (first moment below g), and both sums are swept up with g, so the
    keys and the atoms are walked once.
    """
    out = []
    mass = moment = below = 0
    for g in keys:
        while below < len(atoms) and atoms[below][0] < g:
            s, w = atoms[below]
            mass += w
            moment += w * s
            below += 1
        out.append(Fraction(g * mass - moment, scale))
    return out


def cdf_integrals(cdf: DiscreteCDF, points) -> list[Fraction]:
    """Integral of ``cdf``'s CDF from 0 to each of the increasing ``points``:
    one integer sweep (``_integral_sweep``), the points and atom locations
    over one common denominator and the masses over another."""
    z_den, keys = numeric.scaled([*points, *cdf.support])
    m_den, masses = numeric.scaled([p for _, p in cdf.atoms])
    k = len(keys) - len(masses)
    return _integral_sweep(keys[:k], list(zip(keys[k:], masses)), z_den * m_den)


def _gap_table(
    prior_cdf: DiscreteCDF, f: DiscreteCDF, extra=()
) -> dict[Fraction, Fraction]:
    """The gap at 0, 1, both supports and ``extra``, in increasing order.

    Every point and atom is put over common denominators, so the points
    are merged and ordered as integers, and the gap is one integer sweep
    over the prior's atoms and the negated atoms of ``f``.
    """
    points = [_ZERO, _ONE, *extra, *prior_cdf.support, *f.support]
    z_den, keys = numeric.scaled(points)
    m_den, masses = numeric.scaled([p for _, p in prior_cdf.atoms + f.atoms])
    n0 = len(prior_cdf.atoms)
    signed = masses[:n0] + [-m for m in masses[n0:]]
    atoms = sorted(zip(keys[len(points) - len(signed):], signed))
    at = dict(zip(keys, points))
    order = sorted(at)
    gaps = _integral_sweep(order, atoms, z_den * m_den)
    return {at[key]: gap for key, gap in zip(order, gaps)}


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


def revealed_summary(obs: Observation) -> RevealedSummary:
    """The observation's revealed statistics: its own, ``Observation.summary``."""
    return obs.summary
