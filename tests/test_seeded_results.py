"""Two digests over the exact results of the seeded cases.

The cases are the passing datasets of ``test_axioms.reference_cases()``
(recovered cost, every price and every audit), every forward problem of
``test_forward.forward_cases()`` (the solution's distribution, value,
price, multipliers and objective) and every generation of
``test_forward.generation_cases()`` (each observation's choice matrix).
Each result is written out with the type of every scalar in it, so a
change that keeps the values but returns an ``int`` for a ``Fraction``
moves the digest too.

The second digest covers the verdicts: every ``check_nipmc`` verdict on
``reference_cases()`` (its binding sets and its multipliers or its
certificate) and every ``certify_concave`` verdict on the benchmark
catalog's concavity entries among them (status, programs solved,
assignment, multipliers and cost).

The expected digests are in ``tests/golden/seeded_results.sha256`` and
``tests/golden/seeded_verdicts.sha256``. A change that is meant to move
no result must leave them as they are; run
``PYTHONPATH=src python tests/test_seeded_results.py`` to print the
current digests and the number of results behind each.
"""

import hashlib
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from infocost import (
    DiscreteCDF,
    ForwardProblem,
    PiecewiseScalarFunction,
    certify_concave,
    check_nipmc,
    generate_dataset,
    price_function,
    solve_forward,
    verify_rationalization,
)
from infocost.recovery import cost_from_prices
from test_axioms import reference_cases
from test_forward import forward_cases, generation_cases

EXPECTED = Path(__file__).parent / "golden" / "seeded_results.sha256"
EXPECTED_VERDICTS = Path(__file__).parent / "golden" / "seeded_verdicts.sha256"


def _text(value) -> str:
    """``value`` written out with the type of every scalar in it."""
    if value is None:
        return "None"
    if type(value) in (Fraction, int, bool, str):
        return f"{type(value).__name__}:{value}"
    if isinstance(value, PiecewiseScalarFunction):
        return f"pwf({_text(value.breakpoints)};{_text(value.coefficients)})"
    if isinstance(value, DiscreteCDF):
        return f"cdf{_text(value.atoms)}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_text, value)) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_text(k)}={_text(v)}" for k, v in value.items()) + "}"
    if is_dataclass(value):
        return type(value).__name__ + _text({f.name: getattr(value, f.name) for f in fields(value)})
    raise TypeError(f"no digest text for a {type(value).__name__}")


def seeded_results() -> list[str]:
    results = []
    for name, ds in reference_cases():
        verdict = check_nipmc(ds)
        if not verdict.passed:
            continue
        prices = [price_function(verdict.multipliers, oi) for oi in range(len(ds.observations))]
        cost = cost_from_prices(ds, prices)
        report = verify_rationalization(ds, cost, prices)
        results.append(f"recover {name}: {_text((cost, prices, report.audits))}")
    for k, (prior, menu, cost, points) in enumerate(forward_cases()):
        s = solve_forward(ForwardProblem.build(prior, menu, cost, uniform_points=points))
        solution = (s.distribution, s.value, s.price, s.multipliers, s.objective)
        results.append(f"forward {k}: {_text(solution)}")
    for k, (prior, menus, cost) in enumerate(generation_cases()):
        ds = generate_dataset(prior, menus, cost)
        results.append(f"generate {k}: {_text([obs.sdsc.rows for obs in ds.observations])}")
    return results


def seeded_verdicts() -> list[str]:
    results = []
    cases = reference_cases()
    for name, ds in cases:
        v = check_nipmc(ds)
        verdict = (v.passed, v.system.binding_sets, v.multipliers, v.certificate)
        results.append(f"check {name}: {_text(verdict)}")
    for name, ds in cases:
        if name.startswith("concavity/"):
            results.append(f"concavity {name}: {_text(certify_concave(ds))}")
    return results


def digest(results: list[str]) -> str:
    return hashlib.sha256("\n".join(results).encode()).hexdigest()


def test_seeded_results_are_unchanged():
    results = seeded_results()
    assert len(results) == 147
    assert digest(results) == EXPECTED.read_text().strip()


def test_seeded_verdicts_are_unchanged():
    results = seeded_verdicts()
    assert len(results) == 68
    assert digest(results) == EXPECTED_VERDICTS.read_text().strip()


if __name__ == "__main__":
    for results in (seeded_results(), seeded_verdicts()):
        print(f"{digest(results)}  ({len(results)} results)")
