"""Domain types, payoff evaluation, and dataset validation."""

import random
from fractions import Fraction as F

import pytest

from infocost import (
    Act,
    Dataset,
    Menu,
    Observation,
    Prior,
    SDSC,
    StateSpace,
    indirect_utility,
    utility,
    validate_dataset,
)


class TestUtility:
    def test_endpoint_low(self):
        assert utility(Act("a", F(1, 4), F(-1, 4)), F(0)) == F(1, 4)

    def test_interior_value(self):
        # u(z) = -z/2 + 1/4 evaluated at 1/6
        assert utility(Act("a", F(1, 4), F(-1, 4)), F(1, 6)) == F(1, 6)

    def test_endpoint_high(self):
        assert utility(Act("a", F(-3), F(7)), F(1)) == F(7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            utility(Act("a", F(0), F(1)), F(3, 2))
        with pytest.raises(ValueError):
            utility(Act("a", F(0), F(1)), F(-1, 10))

    def test_affine_in_the_mean(self):
        rng = random.Random(11)
        for _ in range(50):
            act = Act("a", F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4))
            x = F(rng.randint(0, 12), 12)
            y = F(rng.randint(0, 12), 12)
            mid = (x + y) / 2
            assert utility(act, mid) == (utility(act, x) + utility(act, y)) / 2


class TestIndirectUtility:
    def test_center_value(self, three_act_menu):
        assert indirect_utility(three_act_menu, F(1, 2)) == F(1, 8)

    def test_left_endpoint(self, three_act_menu):
        # max of {1/4, 1/8, -1/4}
        assert indirect_utility(three_act_menu, F(0)) == F(1, 4)

    def test_singleton_menu(self):
        menu = Menu(id="m", acts=(Act("only", F(2), F(-1)),))
        assert indirect_utility(menu, F(1, 3)) == utility(menu.acts[0], F(1, 3))

    def test_pointwise_max_and_convexity(self, three_act_menu):
        rng = random.Random(13)
        for _ in range(60):
            x = F(rng.randint(0, 24), 24)
            y = F(rng.randint(0, 24), 24)
            alpha = F(rng.randint(0, 8), 8)
            m = alpha * x + (1 - alpha) * y
            phi_m = indirect_utility(three_act_menu, m)
            bound = alpha * indirect_utility(three_act_menu, x) + (
                1 - alpha
            ) * indirect_utility(three_act_menu, y)
            assert phi_m <= bound
            assert any(
                utility(a, m) == phi_m for a in three_act_menu.acts
            )
            assert all(
                utility(a, m) <= phi_m for a in three_act_menu.acts
            )


class TestMenuConstruction:
    def test_empty_menu_rejected(self):
        with pytest.raises(ValueError):
            Menu(id="empty", acts=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Menu(id="m", acts=(Act("x", F(0), F(0)), Act("x", F(1), F(1))))

    def test_duplicate_payoffs_allowed(self):
        menu = Menu(id="m", acts=(Act("x", F(1), F(0)), Act("y", F(1), F(0))))
        assert len(menu.acts) == 2


    @pytest.mark.parametrize("bad", [0.5, "1/2", True, None])
    def test_payoff_that_is_not_a_fraction_or_int_raises_type_error(self, bad):
        with pytest.raises(TypeError, match="not a Fraction or an int"):
            Menu(id="m", acts=(Act("x", F(1), F(0)), Act("y", F(0), bad)))

    def test_int_payoffs_accepted(self):
        menu = Menu(id="m", acts=(Act("x", 1, 0), Act("y", F(1, 2), 2)))
        assert indirect_utility(menu, F(1, 3)) == F(1)


def tied_menus() -> list[tuple[Menu, list[F]]]:
    """Seeded menus with the points to ask them at: every menu has a
    duplicate act line, and every point is one where two of its lines
    cross, so the best act is tied at many of them."""
    rng = random.Random(17)
    cases = []
    for _ in range(150):
        lines = [
            (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
        menu = Menu(id="m", acts=tuple(Act(f"a{j}", u0, u1) for j, (u0, u1) in enumerate(lines)))
        crossings = {F(0), F(1), F(rng.randint(0, 12), 12)}
        for a0, a1 in lines:
            for b0, b1 in lines:
                slope = (a1 - a0) - (b1 - b0)
                if slope and 0 <= (b0 - a0) / slope <= 1:
                    crossings.add((b0 - a0) / slope)
        cases.append((menu, sorted(crossings)))
    return cases


class TestMenuComparesActs:
    """``Menu.values_at`` and ``Menu.best_act`` against a brute force over
    ``utility``."""

    def test_values_at_is_every_utility_over_one_denominator(self):
        for menu, points in tied_menus():
            for z in points:
                den, values = menu.values_at(z)
                assert den > 0
                assert [F(v, den) for v in values] == [utility(a, z) for a in menu.acts]

    def test_best_act_is_the_first_of_highest_utility(self):
        ties = 0
        for menu, points in tied_menus():
            for z in points:
                utilities = [utility(a, z) for a in menu.acts]
                best = max(utilities)
                ai, num, den = menu.best_act(z)
                assert ai == utilities.index(best)
                assert F(num, den) == best
                ties += utilities.count(best) > 1
        assert ties >= 100

    def test_indirect_utility_is_the_highest_utility(self):
        for menu, points in tied_menus():
            for z in points:
                assert indirect_utility(menu, z) == max(utility(a, z) for a in menu.acts)

    def test_mean_outside_the_unit_interval_raises(self, three_act_menu):
        for z in (F(-1, 10), F(3, 2)):
            with pytest.raises(ValueError, match="outside"):
                three_act_menu.values_at(z)
            with pytest.raises(ValueError, match="outside"):
                indirect_utility(three_act_menu, z)


class TestValidation:
    def test_well_formed_dataset(self, three_act_dataset):
        report = validate_dataset(three_act_dataset)
        assert report.ok
        assert report.problems == ()

    def test_missing_mass_at_one(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1), F(0)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)),))
        ds = Dataset(
            state_space=space,
            observations=(
                Observation(prior=prior, menu=menu, sdsc=SDSC(rows=((F(1), F(1)),))),
            ),
        )
        report = validate_dataset(ds)
        assert not report.ok
        assert any("mass on state 1" in p for p in report.problems)

    def test_column_sum_violation_names_menu_and_state(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)),))
        ds = Dataset(
            state_space=space,
            observations=(
                Observation(
                    prior=prior, menu=menu, sdsc=SDSC(rows=((F(9, 10), F(1)),))
                ),
            ),
        )
        report = validate_dataset(ds)
        assert not report.ok
        assert any("'m'" in p and "state 0" in p and "9/10" in p for p in report.problems)

    def test_dimension_mismatch_reported(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)), Act("b", F(1), F(1))))
        ds = Dataset(
            state_space=space,
            observations=(
                Observation(prior=prior, menu=menu, sdsc=SDSC(rows=((F(1), F(1)),))),
            ),
        )
        report = validate_dataset(ds)
        assert any("rows for 2 acts" in p for p in report.problems)

    def test_unsorted_states_reported(self):
        space = StateSpace(states=(F(0), F(2, 3), F(1, 3), F(1)))
        assert any("strictly increasing" in p for p in space.problems())

    def test_negative_sigma_entry(self):
        space = StateSpace(states=(F(0), F(1)))
        prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)),))
        ds = Dataset(
            state_space=space,
            observations=(
                Observation(
                    prior=prior, menu=menu, sdsc=SDSC(rows=((F(-1, 10), F(11, 10)),))
                ),
            ),
        )
        assert any("negative" in p for p in validate_dataset(ds).problems)

    def test_empty_state_space_is_reported_not_raised(self):
        space = StateSpace(states=())
        menu = Menu(id="m", acts=(Act("a", F(0), F(0)),))
        prior = Prior(state_space=space, weights=())
        ds = Dataset(
            state_space=space,
            observations=(Observation(prior=prior, menu=menu, sdsc=SDSC(rows=((),))),),
        )
        assert validate_dataset(ds).problems == (
            "state space needs at least two states",
            "observation 0 (menu 'm'): prior weights sum to 0, not 1",
        )


def test_package_exports_no_submodules():
    import types

    import infocost

    assert infocost.__all__
    for name in infocost.__all__:
        assert not isinstance(getattr(infocost, name), types.ModuleType), name
