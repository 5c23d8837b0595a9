"""Shared fixtures: the running three-act example and its variants, and a
counter of derived-object builds."""

import functools
from fractions import Fraction as F

import pytest

from infocost import (
    Act,
    Dataset,
    Menu,
    Observation,
    PiecewiseScalarFunction,
    Prior,
    SDSC,
    StateSpace,
)


@pytest.fixture
def three_act_menu() -> Menu:
    return Menu(
        id="A",
        acts=(
            Act("a1", F(1, 4), F(-1, 4)),
            Act("a2", F(1, 8), F(1, 8)),
            Act("a3", F(-1, 4), F(1, 4)),
        ),
    )


@pytest.fixture
def four_state_uniform_prior() -> Prior:
    space = StateSpace(states=(F(0), F(1, 3), F(2, 3), F(1)))
    return Prior(state_space=space, weights=(F(1, 4),) * 4)


@pytest.fixture
def steep_pooling_cost() -> PiecewiseScalarFunction:
    """Piecewise-linear cost derivative with a deep interior trough."""
    return PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 36)), (F(1, 6), F(0)), (F(1, 2), F(-10)), (F(5, 6), F(0)), (F(1), F(-1, 36))]
    )


@pytest.fixture
def concavified_cost() -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 36)), (F(1, 6), F(0)), (F(5, 6), F(0)), (F(1), F(-1, 36))]
    )


@pytest.fixture
def three_act_dataset(three_act_menu, four_state_uniform_prior) -> Dataset:
    """Choice data from optimal pooling: low pair to 1/6, high pair to 5/6."""
    sdsc = SDSC(
        rows=(
            (F(1), F(1), F(0), F(0)),
            (F(0), F(0), F(0), F(0)),
            (F(0), F(0), F(1), F(1)),
        )
    )
    obs = Observation(prior=four_state_uniform_prior, menu=three_act_menu, sdsc=sdsc)
    return Dataset(state_space=four_state_uniform_prior.state_space, observations=(obs,))


@pytest.fixture
def swap_violation_dataset() -> Dataset:
    """Two observations where swapping their information loads improves payoffs.

    The high-stakes menu gets weak information while the near-flat menu
    gets full information; trading the two allocations raises total value,
    so the cycle axiom must fail while the action-switch axiom holds.
    """
    space = StateSpace(states=(F(0), F(1)))
    prior = Prior(state_space=space, weights=(F(1, 2), F(1, 2)))
    stakes = Menu(id="stakes", acts=(Act("L", F(1), F(0)), Act("R", F(0), F(1))))
    flat = Menu(id="flat", acts=(Act("l", F(1, 10), F(0)), Act("r", F(0), F(1, 10))))
    weak = SDSC(rows=((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))))
    full = SDSC(rows=((F(1), F(0)), (F(0), F(1))))
    return Dataset(
        state_space=space,
        observations=(
            Observation(prior=prior, menu=stakes, sdsc=weak),
            Observation(prior=prior, menu=flat, sdsc=full),
        ),
    )


@pytest.fixture
def count_builds(monkeypatch):
    """``count_builds(cls, name)`` swaps a counting copy of the cached
    property ``cls.name`` in for the test and returns the list of objects
    it is built for, in order."""

    def count(cls, name: str) -> list:
        real = getattr(cls, name).func
        built = []

        def counted(obj):
            built.append(obj)
            return real(obj)

        prop = functools.cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
        return built

    return count
