"""Revealed statistics and the contraction-gap machinery.

The gap function has an independent oracle here: direct midpoint-rule
integration of the two step CDFs over the partition induced by their
atoms, which is exact for piecewise-constant integrands and shares no
code with the hinge-sum implementation.
"""

import random
from fractions import Fraction as F

import pytest

from infocost import (
    Act,
    DiscreteCDF,
    Menu,
    Observation,
    PiecewiseScalarFunction,
    Prior,
    SDSC,
    StateSpace,
    binding_set,
    is_monotone_partitional,
    is_mpc,
    mpc_gap,
    positive_gap_intervals,
    prior_cdf,
    revealed_summary,
    utility,
)


def gap_oracle(f0: DiscreteCDF, f: DiscreteCDF, z: F) -> F:
    """Midpoint-rule integral of (F0 - F) on [0, z]; exact for step CDFs."""
    cuts = sorted({F(0), z, *(x for x in f0.support if x < z), *(x for x in f.support if x < z)})
    total = F(0)
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        total += (b - a) * (f0.value_at(mid) - f.value_at(mid))
    return total


def random_cdf(rng: random.Random) -> DiscreteCDF:
    n = rng.randint(1, 5)
    locs = sorted({F(rng.randint(0, 24), 24) for _ in range(n)})
    masses = [F(rng.randint(1, 5)) for _ in locs]
    tot = sum(masses)
    return DiscreteCDF(atoms=tuple((z, m / tot) for z, m in zip(locs, masses)))


class TestDiscreteCDF:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteCDF(atoms=((F(0), F(1, 2)),))

    def test_from_pairs_merges_and_drops(self):
        cdf = DiscreteCDF.from_pairs(
            [(F(1, 2), F(1, 4)), (F(1, 2), F(1, 4)), (F(0), F(1, 2)), (F(1), F(0))]
        )
        assert cdf.atoms == ((F(0), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_mean(self):
        cdf = DiscreteCDF(atoms=((F(1, 6), F(1, 2)), (F(5, 6), F(1, 2))))
        assert cdf.mean == F(1, 2)


    def test_negative_prior_weight_is_named(self):
        space = StateSpace(states=(F(0), F(1, 3), F(2, 3), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(-1, 4), F(1, 2), F(1, 4)))
        with pytest.raises(ValueError, match="^atom at 1/3 has non-positive mass -1/4$"):
            prior_cdf(prior)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DiscreteCDF(atoms=((F(5, 4), F(1)),)), "atom location 5/4 outside [0, 1]"),
        (
            lambda: DiscreteCDF(atoms=((F(1, 3), F(-1, 4)), (F(1, 2), F(5, 4)))),
            "atom at 1/3 has non-positive mass -1/4",
        ),
        (
            lambda: DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(3, 4)))),
            "masses sum to 5/4, not 1",
        ),
        (lambda: utility(Act("a", F(0), F(1)), F(3, 2)), "posterior mean 3/2 outside [0, 1]"),
        (
            lambda: PiecewiseScalarFunction(
                breakpoints=(F(0), F(1, 2), F(1)),
                coefficients=((F(0), F(0), F(0)), (F(0), F(0), F(1, 3))),
            ),
            "discontinuity at breakpoint 1/2",
        ),
        (
            lambda: PiecewiseScalarFunction.constant(F(0))(F(-1, 2)),
            "argument -1/2 outside [0, 1]",
        ),
    ],
    ids=["atom-location", "atom-mass", "mass-total", "utility-mean", "discontinuity", "argument"],
)
def test_messages_render_scalars_as_p_over_q(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
    assert "Fraction(" not in str(info.value)


class TestMpcGap:
    def test_identical_cdfs_zero_everywhere(self):
        rng = random.Random(3)
        for _ in range(10):
            f0 = random_cdf(rng)
            for z in [F(0), F(1, 3), F(1, 2), F(1)]:
                assert mpc_gap(f0, f0, z) == 0

    def test_point_at_mean_closes_at_one(self):
        f0 = DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(1, 2))))
        f = DiscreteCDF.point(F(1, 2))
        assert mpc_gap(f0, f, F(1)) == 0

    def test_pooling_example_values(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        f = DiscreteCDF(atoms=((F(1, 6), F(1, 2)), (F(5, 6), F(1, 2))))
        assert mpc_gap(f0, f, F(1, 6)) == F(1, 24)
        assert mpc_gap(f0, f, F(1, 3)) == 0

    def test_against_midpoint_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            f0 = random_cdf(rng)
            f = random_cdf(rng)
            z = F(rng.randint(0, 16), 16)
            assert mpc_gap(f0, f, z) == gap_oracle(f0, f, z)

    def test_bayes_plausible_gap_closes(self):
        # equal means force a zero at both ends regardless of shape
        rng = random.Random(23)
        for _ in range(20):
            f0 = random_cdf(rng)
            f = DiscreteCDF.point(f0.mean)
            assert mpc_gap(f0, f, F(0)) == 0
            assert mpc_gap(f0, f, F(1)) == 0


class TestIsMpc:
    def test_no_information(self):
        f0 = DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(1, 2))))
        assert is_mpc(f0, DiscreteCDF.point(F(1, 2)))

    def test_full_revelation(self):
        f0 = DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(1, 2))))
        assert is_mpc(f0, f0)

    def test_mean_mismatch_fails(self):
        f0 = DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(1, 2))))
        assert not is_mpc(f0, DiscreteCDF.point(F(7, 10)))

    def test_spread_fails(self):
        f0 = DiscreteCDF.point(F(1, 2))
        spread = DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(1, 2))))
        assert not is_mpc(f0, spread)


class TestBindingSet:
    def test_full_revelation_binds_everywhere(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        got = binding_set(f0, f0, four_state_uniform_prior.state_space)
        assert got == four_state_uniform_prior.state_space.states

    def test_no_information_binds_at_ends(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        got = binding_set(
            f0, DiscreteCDF.point(F(1, 2)), four_state_uniform_prior.state_space
        )
        assert got == (F(0), F(1))

    def test_pooling_binds_at_all_grid_states(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        f = DiscreteCDF(atoms=((F(1, 6), F(1, 2)), (F(5, 6), F(1, 2))))
        got = binding_set(f0, f, four_state_uniform_prior.state_space)
        assert got == (F(0), F(1, 3), F(2, 3), F(1))

    def test_requires_contraction(self):
        f0 = DiscreteCDF.point(F(1, 2))
        spread = DiscreteCDF(atoms=((F(0), F(1, 2)), (F(1), F(1, 2))))
        with pytest.raises(ValueError):
            binding_set(f0, spread, StateSpace(states=(F(0), F(1))))

    def test_matches_gap_oracle(self):
        """On random pairs the binding set is the states where the oracle
        gap is zero, and a pair is rejected exactly when the oracle gap is
        negative at a kink or nonzero at 1. A garbling is an MPC of its
        source; the source is a spread of its garbling, with the same mean."""
        rng = random.Random(47)
        rejected = 0
        for trial in range(120):
            source = random_cdf(rng)
            garbled = _random_revealed(rng, source)
            f0, f = [(source, garbled), (garbled, source), (source, random_cdf(rng))][trial % 3]
            states = sorted({F(0), F(1), *(F(rng.randint(0, 12), 12) for _ in range(4))})
            kinks = {F(0), F(1), *f0.support, *f.support}
            contracts = all(gap_oracle(f0, f, k) >= 0 for k in kinks) and (
                gap_oracle(f0, f, F(1)) == 0
            )
            space = StateSpace(states=tuple(states))
            if not contracts:
                rejected += 1
                with pytest.raises(ValueError):
                    binding_set(f0, f, space)
                continue
            expected = tuple(z for z in states if gap_oracle(f0, f, z) == 0)
            assert binding_set(f0, f, space) == expected
        assert 0 < rejected < 120


class TestZeroIntervals:
    def test_identical_is_one_big_interval(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        assert positive_gap_intervals(f0, f0) == ()

    def test_pooled_zero_set_and_complement(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        f = DiscreteCDF(atoms=((F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4))))
        assert positive_gap_intervals(f0, f) == ((F(1, 3), F(2, 3)),)

    def test_matches_gap_oracle(self):
        """On random pairs the slack intervals are the maximal runs of
        kink-to-kink pieces whose oracle gap is positive at the midpoint,
        split at zero kinks, and a pair is monotone partitional exactly
        when a kink or midpoint with zero oracle gap lies between each two
        consecutive support points. Both raise on a pair that is not an
        MPC."""
        rng = random.Random(53)
        rejected = 0
        partitional = set()
        for trial in range(150):
            source = random_cdf(rng)
            garbled = _random_revealed(rng, source)
            f0, f = [(source, garbled), (garbled, source), (source, random_cdf(rng))][trial % 3]
            kinks = sorted({F(0), F(1), *f0.support, *f.support})
            mids = [(a + b) / 2 for a, b in zip(kinks, kinks[1:])]
            contracts = all(gap_oracle(f0, f, k) >= 0 for k in kinks) and (
                gap_oracle(f0, f, F(1)) == 0
            )
            if not contracts:
                rejected += 1
                with pytest.raises(ValueError):
                    positive_gap_intervals(f0, f)
                with pytest.raises(ValueError):
                    is_monotone_partitional(f0, f)
                continue
            slack: list[tuple[F, F]] = []
            for (a, b), mid in zip(zip(kinks, kinks[1:]), mids):
                if gap_oracle(f0, f, mid) == 0:
                    continue
                if slack and slack[-1][1] == a and gap_oracle(f0, f, a) > 0:
                    slack[-1] = (slack[-1][0], b)
                else:
                    slack.append((a, b))
            assert positive_gap_intervals(f0, f) == tuple(slack)
            zeros = [x for x in (*kinks, *mids) if gap_oracle(f0, f, x) == 0]
            expected = all(
                any(z1 <= x <= z2 for x in zeros)
                for z1, z2 in zip(f.support, f.support[1:])
            )
            assert is_monotone_partitional(f0, f) == expected
            partitional.add(expected)
        assert 0 < rejected < 150
        assert partitional == {True, False}


class TestMonotonePartitional:
    def test_point_is_trivially_partitional(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        assert is_monotone_partitional(f0, DiscreteCDF.point(F(1, 2)))

    def test_full_revelation(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        assert is_monotone_partitional(f0, f0)

    def test_pooled_optimum(self, four_state_uniform_prior):
        f0 = prior_cdf(four_state_uniform_prior)
        f = DiscreteCDF(atoms=((F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4))))
        assert is_monotone_partitional(f0, f)

    def test_non_partitional_structure(self):
        # uniform prior on 4 states; mix state 0 into both posterior means
        space = StateSpace(states=(F(0), F(1, 3), F(2, 3), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 4),) * 4)
        menu = Menu(id="m", acts=(Act("a", F(1), F(0)), Act("b", F(0), F(1))))
        sdsc = SDSC(
            rows=(
                (F(1, 2), F(1), F(1, 2), F(0)),
                (F(1, 2), F(0), F(1, 2), F(1)),
            )
        )
        obs = Observation(prior=prior, menu=menu, sdsc=sdsc)
        summary = revealed_summary(obs)
        f0 = prior_cdf(prior)
        assert is_mpc(f0, summary.cdf)
        assert not is_monotone_partitional(f0, summary.cdf)


class TestRevealedMeans:
    def test_uninformative_reveals_prior_mean(self, four_state_uniform_prior):
        menu = Menu(id="m", acts=(Act("a", F(0), F(1)), Act("b", F(1), F(0))))
        sdsc = SDSC(rows=((F(1, 3),) * 4, (F(2, 3),) * 4))
        obs = Observation(prior=four_state_uniform_prior, menu=menu, sdsc=sdsc)
        assert revealed_summary(obs).act_means == (F(1, 2), F(1, 2))

    def test_hand_computed_ratio(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)), Act("b", F(0), F(0))))
        sdsc = SDSC(rows=((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))))
        obs = Observation(prior=prior, menu=menu, sdsc=sdsc)
        assert revealed_summary(obs).act_means == (F(1, 4), F(3, 4))

    def test_unchosen_act_gets_prior_mean(self, three_act_dataset):
        obs = three_act_dataset.observations[0]
        assert revealed_summary(obs).act_means[1] == F(1, 2)


class TestRevealedSummary:
    def test_matches_bayes_rule_reference(self):
        rng = random.Random(53)
        zero_prob = zero_weight = 0
        for _ in range(80):
            obs = _random_observation(rng)
            summary = revealed_summary(obs)
            means, probs, atoms = _bayes_reference(
                obs.prior.state_space.states, obs.prior.weights, obs.sdsc.rows
            )
            assert summary.act_means == means
            assert summary.act_probabilities == probs
            assert summary.cdf.atoms == atoms
            zero_prob += 0 in probs
            zero_weight += 0 in obs.prior.weights
        assert zero_prob and zero_weight

    def test_perfect_separation(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 3), F(2, 3)))
        menu = Menu(id="m", acts=(Act("a", F(1), F(0)), Act("b", F(0), F(1))))
        sdsc = SDSC(rows=((F(1), F(0)), (F(0), F(1))))
        obs = Observation(prior=prior, menu=menu, sdsc=sdsc)
        summary = revealed_summary(obs)
        assert summary.cdf.atoms == ((F(0), F(1, 3)), (F(1), F(2, 3)))

    def test_uninformative_single_atom(self, four_state_uniform_prior):
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)), Act("b", F(0), F(0))))
        sdsc = SDSC(rows=((F(1, 2),) * 4, (F(1, 2),) * 4))
        obs = Observation(prior=four_state_uniform_prior, menu=menu, sdsc=sdsc)
        summary = revealed_summary(obs)
        assert summary.cdf.atoms == ((F(1, 2), F(1)),)

    def test_equal_means_merge_into_one_atom(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)), Act("b", F(0), F(0))))
        # both acts chosen uninformatively: same revealed mean 1/2
        sdsc = SDSC(rows=((F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))))
        obs = Observation(prior=prior, menu=menu, sdsc=sdsc)
        summary = revealed_summary(obs)
        assert summary.cdf.atoms == ((F(1, 2), F(1)),)

    def test_bayes_plausibility(self):
        rng = random.Random(5)
        for _ in range(25):
            nz = rng.randint(2, 4)
            locs = [F(0)] + sorted(
                {F(rng.randint(1, 11), 12) for _ in range(nz - 2)}
            ) + [F(1)]
            weights = [F(rng.randint(1, 5)) for _ in locs]
            tot = sum(weights)
            space = StateSpace(states=tuple(locs))
            prior = Prior(state_space=space, weights=tuple(w / tot for w in weights))
            nacts = rng.randint(1, 3)
            rows = []
            for _ in range(nacts - 1):
                rows.append([F(rng.randint(0, 3), 10) for _ in locs])
            rows.append([1 - sum(r[i] for r in rows) for i in range(len(locs))])
            menu = Menu(
                id="m", acts=tuple(Act(f"a{k}", F(0), F(0)) for k in range(nacts))
            )
            obs = Observation(prior=prior, menu=menu, sdsc=SDSC(rows=tuple(tuple(r) for r in rows)))
            summary = revealed_summary(obs)
            assert summary.cdf.mean == prior.mean
            assert sum(summary.act_probabilities) == 1
            # revealed cdf is always a contraction of the prior
            assert is_mpc(prior_cdf(prior), summary.cdf)


def _random_revealed(rng: random.Random, f0: DiscreteCDF) -> DiscreteCDF:
    """A random garbling of ``f0``: its atoms pooled by a random signal."""
    signals = rng.randint(1, 3)
    pooled = [[F(0), F(0)] for _ in range(signals)]
    for z, p in f0.atoms:
        s = rng.randrange(signals)
        pooled[s][0] += z * p
        pooled[s][1] += p
    return DiscreteCDF.from_pairs((zp / p, p) for zp, p in pooled if p)


def _bayes_reference(states, weights, rows):
    """Per-act probability and posterior mean by Bayes' rule, and the
    distribution of means of chosen acts, straight from the choice data."""
    prior_mean = sum(z * w for z, w in zip(states, weights))
    probs, means = [], []
    for row in rows:
        prob = sum(row[i] * weights[i] for i in range(len(states)))
        probs.append(prob)
        if prob == 0:
            means.append(prior_mean)
        else:
            means.append(sum(states[i] * row[i] * weights[i] for i in range(len(states))) / prob)
    atoms = {}
    for mean, prob in zip(means, probs):
        if prob:
            atoms[mean] = atoms.get(mean, F(0)) + prob
    return tuple(means), tuple(probs), tuple(sorted(atoms.items()))


def _random_observation(rng: random.Random) -> Observation:
    """Random prior with some zero interior weights and random choice
    data in which some acts are never chosen where the prior has mass."""
    states = [F(0)] + sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(1, 4))}) + [F(1)]
    weights = [F(rng.randint(1, 5)) if i in (0, len(states) - 1) or rng.random() < 0.7 else F(0)
               for i in range(len(states))]
    weights = [w / sum(weights) for w in weights]
    nacts = rng.randint(1, 4)
    unchosen = {a for a in range(nacts) if nacts > 1 and rng.random() < 0.3}
    if len(unchosen) == nacts:
        unchosen.pop()
    columns = []
    for w in weights:
        # zero-weight states may send mass to any act, even an unchosen one
        live = [a for a in range(nacts) if w == 0 or a not in unchosen]
        shares = [F(rng.randint(0, 4)) if a in live else F(0) for a in range(nacts)]
        if sum(shares) == 0:
            shares[rng.choice(live)] = F(1)
        columns.append([v / sum(shares) for v in shares])
    rows = tuple(tuple(col[a] for col in columns) for a in range(nacts))
    space = StateSpace(states=tuple(states))
    menu = Menu(id="m", acts=tuple(Act(f"a{k}", F(0), F(0)) for k in range(nacts)))
    return Observation(
        prior=Prior(state_space=space, weights=tuple(weights)), menu=menu, sdsc=SDSC(rows=rows)
    )


def _random_coupling(rng: random.Random, prior: Prior):
    """Split each state's mass across random signals; return the signal
    distribution over posterior means and the per-state split."""
    signals = rng.randint(1, 4)
    split = {}
    for zi, w in enumerate(prior.weights):
        if w == 0:
            continue
        shares = [F(rng.randint(0, 4)) for _ in range(signals)]
        if sum(shares) == 0:
            shares[rng.randrange(signals)] = F(1)
        tot = sum(shares)
        for s, share in enumerate(shares):
            if share:
                split[(zi, s)] = w * share / tot
    means = {}
    for s in range(signals):
        mass = sum(v for (zi, s2), v in split.items() if s2 == s)
        if mass == 0:
            continue
        mean = (
            sum(
                prior.state_space.states[zi] * v
                for (zi, s2), v in split.items()
                if s2 == s
            )
            / mass
        )
        means[s] = (mean, mass)
    return split, means


class TestGarblingBound:
    def test_revealed_cdf_is_least_informative(self):
        """Any (means distribution, decision rule) pair generating the data
        must be a mean-preserving spread of the revealed distribution."""
        rng = random.Random(41)
        for _ in range(25):
            locs = [F(0)] + sorted({F(rng.randint(1, 7), 8) for _ in range(2)}) + [F(1)]
            weights = [F(rng.randint(1, 4)) for _ in locs]
            tot = sum(weights)
            space = StateSpace(states=tuple(locs))
            prior = Prior(state_space=space, weights=tuple(w / tot for w in weights))
            split, means = _random_coupling(rng, prior)
            f = DiscreteCDF.from_pairs(means.values())
            nacts = rng.randint(1, 3)
            menu = Menu(
                id="m", acts=tuple(Act(f"a{k}", F(0), F(0)) for k in range(nacts))
            )
            decision = {
                s: [F(rng.randint(0, 3)) for _ in range(nacts)] for s in means
            }
            for s, row in decision.items():
                if sum(row) == 0:
                    row[rng.randrange(nacts)] = F(1)
                t = sum(row)
                decision[s] = [v / t for v in row]
            rows = [[F(0)] * len(locs) for _ in range(nacts)]
            for (zi, s), mass in split.items():
                if s not in means:
                    continue
                for k in range(nacts):
                    rows[k][zi] += decision[s][k] * mass / prior.weights[zi]
            obs = Observation(
                prior=prior, menu=menu, sdsc=SDSC(rows=tuple(tuple(r) for r in rows))
            )
            summary = revealed_summary(obs)
            # f spreads the revealed cdf: gap of (f, revealed) stays >= 0
            assert is_mpc(f, summary.cdf)

    def test_injective_decision_recovers_the_distribution(self):
        """One act per posterior mean reproduces the distribution exactly."""
        rng = random.Random(43)
        for _ in range(25):
            locs = [F(0)] + sorted({F(rng.randint(1, 7), 8) for _ in range(2)}) + [F(1)]
            weights = [F(rng.randint(1, 4)) for _ in locs]
            tot = sum(weights)
            space = StateSpace(states=tuple(locs))
            prior = Prior(state_space=space, weights=tuple(w / tot for w in weights))
            split, means = _random_coupling(rng, prior)
            f = DiscreteCDF.from_pairs(means.values())
            # one dedicated act per distinct posterior mean
            atom_index = {z: k for k, (z, _) in enumerate(f.atoms)}
            menu = Menu(
                id="m",
                acts=tuple(Act(f"a{k}", F(0), F(0)) for k in range(len(f.atoms))),
            )
            rows = [[F(0)] * len(locs) for _ in range(len(f.atoms))]
            for (zi, s), mass in split.items():
                mean = means[s][0]
                k = next(k for z, k in atom_index.items() if z == mean)
                rows[k][zi] += mass / prior.weights[zi]
            obs = Observation(
                prior=prior, menu=menu, sdsc=SDSC(rows=tuple(tuple(r) for r in rows))
            )
            summary = revealed_summary(obs)
            assert summary.cdf.atoms == f.atoms
