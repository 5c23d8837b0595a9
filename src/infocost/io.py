"""JSON file formats: datasets, forward problems, and result reports.

Scalars serialize as objects carrying both an exact ``p/q`` rendering and
a decimal approximation; only the exact field is ever parsed back, so
decimals never leak into downstream computation. Dataset files may give
act payoffs either as (u0, u1) endpoints or as a per-state table, which
is accepted only when it is affine-consistent in the state.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Mapping, Sequence

from . import numeric
from .forward import ForwardProblem
from .model import (
    SDSC,
    Act,
    Dataset,
    Menu,
    Observation,
    Prior,
    StateSpace,
    endpoint_mass_problems,
)
from .piecewise import PiecewiseScalarFunction
from .recovery import variance_cost


class InputError(ValueError):
    """Malformed input document."""


def _document(what: str):
    """Report a ``TypeError`` or ``AttributeError`` raised while parsing a
    ``what``, a JSON value of the wrong type, as an ``InputError``."""

    def wrap(parse):
        @functools.wraps(parse)
        def parse_document(doc):
            try:
                return parse(doc)
            except (TypeError, AttributeError) as err:
                raise InputError(f"malformed {what}: {err}") from None

        return parse_document

    return wrap


def scalar_out(x: Fraction) -> dict[str, Any]:
    return {"exact": numeric.format_scalar(x), "approx": float(x)}


def scalar_in(obj: Any) -> Fraction:
    if isinstance(obj, Mapping):
        if "exact" not in obj:
            raise InputError("scalar object without an 'exact' field")
        obj = obj["exact"]
    return numeric.scalar(obj)


def _parse_act(obj: Mapping[str, Any], states: Sequence[Fraction]) -> Act:
    if "id" not in obj:
        raise InputError("act without an 'id'")
    act_id = str(obj["id"])
    if "payoffs" in obj:
        table = [scalar_in(v) for v in obj["payoffs"]]
        if len(table) != len(states):
            raise InputError(f"act {act_id!r}: payoff table length mismatch")
        u0, u1 = table[0], table[-1]
        for z, v in zip(states, table):
            if v != z * u1 + (1 - z) * u0:
                raise InputError(
                    f"act {act_id!r}: payoff table is not affine in the state"
                )
        return Act(id=act_id, u0=u0, u1=u1)
    try:
        return Act(id=act_id, u0=scalar_in(obj["u0"]), u1=scalar_in(obj["u1"]))
    except KeyError as missing:
        raise InputError(f"act {act_id!r}: missing field {missing}") from None


def _parse_menu(menu_id: str, acts: Sequence[Any], states) -> Menu:
    return Menu(id=menu_id, acts=tuple(_parse_act(a, states) for a in acts))


@_document("dataset")
def parse_dataset(doc: Mapping[str, Any]) -> Dataset:
    try:
        states = tuple(scalar_in(z) for z in doc["states"])
    except KeyError:
        raise InputError("dataset needs a 'states' array") from None
    space = StateSpace(states=states)

    priors_doc = doc.get("priors")
    priors: dict[str, Prior] = {}
    if isinstance(priors_doc, Mapping):
        for name, weights in priors_doc.items():
            priors[name] = Prior(
                state_space=space, weights=tuple(scalar_in(w) for w in weights)
            )
    elif isinstance(priors_doc, Sequence):
        priors["_default"] = Prior(
            state_space=space, weights=tuple(scalar_in(w) for w in priors_doc)
        )
    else:
        raise InputError("dataset needs 'priors' as a mapping or an array")

    menus_doc = doc.get("menus")
    if not isinstance(menus_doc, Mapping):
        raise InputError("dataset needs a 'menus' mapping")
    menus = {
        name: _parse_menu(name, acts, states) for name, acts in menus_doc.items()
    }

    observations = []
    for i, obs in enumerate(doc.get("observations", ())):
        menu_ref = obs.get("menu_ref")
        if menu_ref not in menus:
            raise InputError(f"observation {i}: unknown menu_ref {menu_ref!r}")
        prior_ref = obs.get("prior_ref", "_default")
        if prior_ref not in priors:
            raise InputError(f"observation {i}: unknown prior_ref {prior_ref!r}")
        sigma = obs.get("sigma")
        if not isinstance(sigma, Sequence):
            raise InputError(f"observation {i}: missing 'sigma' matrix")
        rows = tuple(tuple(scalar_in(v) for v in row) for row in sigma)
        observations.append(
            Observation(prior=priors[prior_ref], menu=menus[menu_ref], sdsc=SDSC(rows=rows))
        )
    if not observations:
        raise InputError("dataset has no observations")
    return Dataset(state_space=space, observations=tuple(observations))


def dataset_out(dataset: Dataset) -> dict[str, Any]:
    states = dataset.state_space.states
    prior_names: list[str] = []
    priors: dict[str, Any] = {}
    menus: dict[str, Any] = {}
    for oi, obs in enumerate(dataset.observations):
        name = None
        for existing, p in priors.items():
            if p is obs.prior or p.weights == obs.prior.weights:
                name = existing
                break
        if name is None:
            name = f"prior_{len(priors)}"
            priors[name] = obs.prior
        prior_names.append(name)
        if obs.menu.id not in menus:
            menus[obs.menu.id] = obs.menu
    return {
        "states": [numeric.format_scalar(z) for z in states],
        "priors": {
            name: [numeric.format_scalar(w) for w in p.weights]
            for name, p in priors.items()
        },
        "menus": {
            mid: [
                {
                    "id": a.id,
                    "u0": numeric.format_scalar(a.u0),
                    "u1": numeric.format_scalar(a.u1),
                }
                for a in menu.acts
            ]
            for mid, menu in menus.items()
        },
        "observations": [
            {
                "prior_ref": prior_names[oi],
                "menu_ref": obs.menu.id,
                "sigma": [
                    [numeric.format_scalar(v) for v in row]
                    for row in obs.sdsc.rows
                ],
            }
            for oi, obs in enumerate(dataset.observations)
        ],
    }


def parse_cost(doc: Mapping[str, Any], z0: Fraction) -> PiecewiseScalarFunction:
    if "breakpoints" in doc:
        points = [(scalar_in(x), scalar_in(y)) for x, y in doc["breakpoints"]]
        return PiecewiseScalarFunction.from_points(points)
    if "variance_kappa" in doc:
        return variance_cost(scalar_in(doc["variance_kappa"]), z0)
    raise InputError("cost needs 'breakpoints' or 'variance_kappa'")


def _prior_menus_cost(doc: Mapping[str, Any], what: str, parse_menus):
    """Prior, ``parse_menus(states)`` and cost of a forward problem or a
    generation spec, with errors named after ``what``."""
    try:
        states = tuple(scalar_in(z) for z in doc["states"])
        prior = Prior(
            state_space=StateSpace(states=states),
            weights=tuple(scalar_in(w) for w in doc["prior"]),
        )
        menus = parse_menus(states)
    except KeyError as missing:
        raise InputError(f"{what} missing field {missing}") from None
    cost_doc = doc.get("cost")
    if not isinstance(cost_doc, Mapping):
        raise InputError(f"{what} needs a 'cost' object")
    return prior, menus, parse_cost(cost_doc, prior.mean)


@_document("forward problem")
def parse_forward_problem(doc: Mapping[str, Any]) -> ForwardProblem:
    prior, menu, cost = _prior_menus_cost(
        doc,
        "forward problem",
        lambda states: _parse_menu(str(doc.get("menu_id", "menu")), doc["menu"], states),
    )
    # unlike a generation spec's, a forward prior may leave an endpoint
    # state without mass
    problems = [*prior.state_space.problems(), *prior.problems()]
    if problems:
        raise InputError("forward problem is invalid: " + "; ".join(problems))
    return ForwardProblem.build(prior, menu, cost)


@_document("generation spec")
def parse_generation_spec(doc: Mapping[str, Any]):
    def parse_menus(states):
        menus_doc = doc.get("menus")
        if not isinstance(menus_doc, Mapping) or not menus_doc:
            raise InputError("generation spec needs a nonempty 'menus' mapping")
        return [_parse_menu(name, acts, states) for name, acts in menus_doc.items()]

    prior, menus, cost = _prior_menus_cost(doc, "generation spec", parse_menus)
    # the generated dataset carries these states and prior, so a spec that
    # ``validate`` would reject is rejected here
    problems = [
        *prior.state_space.problems(),
        *prior.problems(),
        *endpoint_mass_problems(prior),
    ]
    if problems:
        raise InputError("generation spec is invalid: " + "; ".join(problems))
    return prior, menus, cost


def function_out(fn: PiecewiseScalarFunction) -> dict[str, Any]:
    """Breakpoints of a piecewise-affine function (every cost and price
    the CLI reports); ``function_in`` reads them back."""
    return {
        "breakpoints": [
            [scalar_out(x), scalar_out(y)] for x, y in fn.breakpoint_values()
        ]
    }


@_document("function")
def function_in(doc: Mapping[str, Any]) -> PiecewiseScalarFunction:
    points = [(scalar_in(x), scalar_in(y)) for x, y in doc["breakpoints"]]
    return PiecewiseScalarFunction.from_points(points)


def figure_series(fn: PiecewiseScalarFunction, name: str) -> dict[str, Any]:
    """Plot-ready (x, y) pairs at breakpoints and segment midpoints."""
    xs: list[Fraction] = []
    for x1, x2 in zip(fn.breakpoints, fn.breakpoints[1:]):
        xs.append(x1)
        xs.append((x1 + x2) / 2)
    xs.append(fn.breakpoints[-1])
    return {
        "name": name,
        "points": [[float(x), float(fn(x))] for x in xs],
    }


def figures_to_csv(figures: Sequence[Mapping[str, Any]]) -> dict[str, str]:
    """One CSV body per figure, keyed by figure name."""
    out = {}
    for fig in figures:
        lines = ["x,y"]
        lines.extend(f"{x},{y}" for x, y in fig["points"])
        out[str(fig["name"])] = "\n".join(lines) + "\n"
    return out
