"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything here runs in exact rational arithmetic; "exact" below means literal
equality of Fractions, no tolerances anywhere. Run with ``-s`` to see the
per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction as F
from importlib import resources

from infocost import cli
from infocost import (
    Act,
    Dataset,
    DiscreteCDF,
    ForwardProblem,
    Menu,
    Observation,
    PiecewiseScalarFunction,
    Prior,
    SDSC,
    StateSpace,
    certify_concave,
    check_nias,
    check_nipmc,
    generate_dataset,
    indirect_utility,
    information_cost,
    is_concave,
    is_mpc,
    price_function,
    recover_cost,
    revealed_summary,
    solve_forward,
    validate_dataset,
    variance_cost,
    verify_rationalization,
)
from infocost.concavity import CERTIFIED


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def fixture_path(name: str) -> str:
    return str(resources.files("infocost.fixtures").joinpath(name))


def run_solve_cli(capsys, fixture: str, *flags: str) -> dict:
    code = cli.main(["solve", fixture_path(fixture), *flags])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    return out


def atoms_of(doc: dict) -> list[tuple[F, F]]:
    return [
        (F(d["location"]["exact"]), F(d["mass"]["exact"]))
        for d in doc["distribution"]
    ]


def three_act_menu() -> Menu:
    return Menu(
        id="A",
        acts=(
            Act("a1", F(1, 4), F(-1, 4)),
            Act("a2", F(1, 8), F(1, 8)),
            Act("a3", F(-1, 4), F(1, 4)),
        ),
    )


def uniform_four_prior() -> Prior:
    space = StateSpace(states=(F(0), F(1, 3), F(2, 3), F(1)))
    return Prior(state_space=space, weights=(F(1, 4),) * 4)


def steep_cost() -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 36)), (F(1, 6), F(0)), (F(1, 2), F(-10)), (F(5, 6), F(0)), (F(1), F(-1, 36))]
    )


def flattened_cost() -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction.from_points(
        [(F(0), F(-1, 36)), (F(1, 6), F(0)), (F(5, 6), F(0)), (F(1), F(-1, 36))]
    )


def test_criterion_1_steep_cost_forward_optimum(capsys):
    start = time.perf_counter()
    doc = run_solve_cli(capsys, "example3_forward.json", "--refine", "100")
    elapsed = time.perf_counter() - start
    atoms_ok = atoms_of(doc) == [(F(1, 6), F(1, 2)), (F(5, 6), F(1, 2))]
    oracle_ok = (
        doc["oracle"]["matches"] is True
        and F(doc["oracle"]["value"]["exact"]) == F(doc["value"]["exact"])
    )
    report(
        1,
        atoms_ok and oracle_ok and elapsed < 1.0,
        f"pooled optimum at 1/6 and 5/6, oracle agrees at resolution 100,"
        f" {elapsed:.3f}s",
    )


def test_criterion_2_flattened_cost_and_exact_price(capsys):
    start = time.perf_counter()
    doc = run_solve_cli(capsys, "example3_concavified_forward.json")
    elapsed = time.perf_counter() - start
    atoms_ok = atoms_of(doc) == [
        (F(0), F(1, 4)),
        (F(1, 2), F(1, 2)),
        (F(1), F(1, 4)),
    ]
    price = PiecewiseScalarFunction.from_points(
        [(F(x["exact"]), F(y["exact"])) for x, y in doc["price"]["breakpoints"]]
    )
    price_ok = (
        price.breakpoints == (F(0), F(1, 3), F(2, 3), F(1))
        and price.breakpoint_values()
        == ((F(0), F(2, 9)), (F(1, 3), F(1, 8)), (F(2, 3), F(1, 8)), (F(1), F(2, 9)))
        and price.slopes() == (F(-7, 24), F(0), F(7, 24))
    )
    cost = flattened_cost()
    a1 = three_act_menu().acts[0]
    strict = price(F(1, 6)) > F(1, 6) * a1.u1 + (1 - F(1, 6)) * a1.u0 + cost(F(1, 6))
    report(
        2,
        atoms_ok and price_ok and strict and elapsed < 1.0,
        f"pooled middle optimum, exact price 2/9 - 7z/24 | 1/8 | -5/72 + 7z/24,"
        f" strict dominance at 1/6, {elapsed:.3f}s",
    )


def test_criterion_3_four_atom_prior_and_counterfactual(capsys):
    start = time.perf_counter()
    doc = run_solve_cli(capsys, "example2_forward.json")
    atoms_ok = atoms_of(doc) == [
        (F(0), F(49, 100)),
        (F(1, 2), F(1, 50)),
        (F(1), F(49, 100)),
    ]
    counter = run_solve_cli(capsys, "example2_twopoint_forward.json")
    full_revelation = atoms_of(counter) == [(F(0), F(1, 2)), (F(1), F(1, 2))]
    composite = PiecewiseScalarFunction.from_points(
        [(F(0), F(2)), (F(3, 10), F(1)), (F(1, 2), F(51, 50)), (F(7, 10), F(1)), (F(1), F(2))]
    )
    pooled_value = composite(F(1, 2))  # the reallocated point mass at 1/2
    strictly_worse = pooled_value < F(counter["value"]["exact"])
    elapsed = time.perf_counter() - start
    report(
        3,
        atoms_ok and full_revelation and strictly_worse and elapsed < 1.0,
        f"middle pair pools to 1/2 with mass 1/50; under the two-point prior "
        f"the pooled point is strictly below the full-revelation value,"
        f" {elapsed:.3f}s",
    )


def _random_roundtrip_instance(rng: random.Random):
    n_interior = rng.randint(0, 3)
    interior = sorted({F(rng.randint(1, 23), 24) for _ in range(n_interior)})
    states = [F(0)] + [z for z in interior if 0 < z < 1] + [F(1)]
    weights = [F(rng.randint(1, 6)) for _ in states]
    total = sum(weights)
    space = StateSpace(states=tuple(states))
    prior = Prior(state_space=space, weights=tuple(w / total for w in weights))

    kinks = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 4))})
    xs = [F(0)] + [k for k in kinks if 0 < k < 1] + [F(1)]
    slopes = sorted(
        (F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(len(xs) - 1)),
        reverse=True,
    )
    y = F(rng.randint(-2, 2), 4)
    points = [(xs[0], y)]
    for (x1, x2), s in zip(zip(xs, xs[1:]), slopes):
        y = y + s * (x2 - x1)
        points.append((x2, y))
    cost = PiecewiseScalarFunction.from_points(points)

    menus = []
    for mi in range(rng.randint(1, 3)):
        acts = tuple(
            Act(f"m{mi}a{j}", F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8))
            for j in range(rng.randint(1, 4))
        )
        menus.append(Menu(id=f"menu{mi}", acts=acts))
    return prior, menus, cost


def test_criterion_4_roundtrip_property_suite():
    rng = random.Random(2024)
    start = time.perf_counter()
    trials = 50
    for trial in range(trials):
        prior, menus, cost = _random_roundtrip_instance(rng)
        dataset = generate_dataset(prior, menus, cost)
        assert validate_dataset(dataset).ok, trial
        assert check_nias(dataset).passed, trial
        verdict = check_nipmc(dataset)
        assert verdict.passed, trial
        recovered = recover_cost(dataset, verdict.multipliers)
        prices = [
            price_function(verdict.multipliers, oi)
            for oi in range(len(dataset.observations))
        ]
        assert verify_rationalization(dataset, recovered, prices).all_ok, trial
        for obs in dataset.observations:
            summary = revealed_summary(obs)
            problem = ForwardProblem(prior, obs.menu, recovered, summary.cdf.support)
            solution = solve_forward(problem)
            attained = sum(
                p * (indirect_utility(obs.menu, z) + recovered(z))
                for z, p in summary.cdf.atoms
            )
            assert solution.value == attained, trial
    elapsed = time.perf_counter() - start
    report(
        4,
        elapsed < 60.0,
        f"{trials} randomized instances: generated data passes both axioms, "
        f"the audit is all-true, and the revealed distribution attains the "
        f"forward optimum exactly, {elapsed:.1f}s",
    )


def _swap_fixture(q, alpha, big, small) -> Dataset:
    space = StateSpace(states=(F(0), F(1)))
    prior = Prior(state_space=space, weights=(q, 1 - q))
    stakes = Menu(id="stakes", acts=(Act("L", big, F(0)), Act("R", F(0), big)))
    flat = Menu(id="flat", acts=(Act("l", small, F(0)), Act("r", F(0), small)))
    weak = SDSC(rows=((alpha, 1 - alpha), (1 - alpha, alpha)))
    full = SDSC(rows=((F(1), F(0)), (F(0), F(1))))
    return Dataset(
        state_space=space,
        observations=(
            Observation(prior=prior, menu=stakes, sdsc=weak),
            Observation(prior=prior, menu=flat, sdsc=full),
        ),
    )


def test_criterion_5_violation_certificates():
    params = [
        (F(1, 2), F(3, 4), F(1), F(1, 10)),
        (F(1, 2), F(2, 3), F(1), F(1, 4)),
        (F(1, 3), F(3, 4), F(2), F(1, 5)),
        (F(1, 2), F(9, 10), F(1), F(1, 2)),
        (F(2, 5), F(4, 5), F(3), F(1, 3)),
        (F(1, 2), F(3, 5), F(5), F(1)),
    ]
    for q, alpha, big, small in params:
        dataset = _swap_fixture(q, alpha, big, small)
        assert check_nias(dataset).passed
        verdict = check_nipmc(dataset)
        assert not verdict.passed
        system = verdict.system
        beta = [verdict.certificate[key] for key in system.rows]
        # direct multiplication of the certificate conditions
        assert all(b >= 0 for b in beta)
        for j, free in enumerate(system.free_columns):
            combined = sum(
                beta[i] * dict(system.program.constraints[i].terms).get(j, 0)
                for i in range(len(beta))
            )
            if free:
                assert combined == 0
            else:
                assert combined >= 0
        assert sum(b * con.rhs for b, con in zip(beta, system.program.constraints)) < 0
    report(
        5,
        True,
        f"{len(params)} constructed violating datasets all reject with "
        "exactly verified reallocation certificates",
    )


def test_criterion_6_variance_cost_identity():
    rng = random.Random(77)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 5)
        locs = [F(0)] + sorted({F(rng.randint(1, 15), 16) for _ in range(n - 2)}) + [F(1)]
        weights = [F(rng.randint(1, 5)) for _ in locs]
        total = sum(weights)
        f0 = DiscreteCDF(atoms=tuple((z, w / total) for z, w in zip(locs, weights)))
        z0 = f0.mean
        # random contraction: pool a random prefix/suffix split of the atoms
        cut = rng.randint(1, len(locs))
        left, right = f0.atoms[:cut], f0.atoms[cut:]
        pairs = []
        for group in (left, right):
            if not group:
                continue
            mass = sum(p for _, p in group)
            mean = sum(z * p for z, p in group) / mass
            pairs.append((mean, mass))
        f = DiscreteCDF.from_pairs(pairs)
        assert is_mpc(f0, f)
        kappa = F(rng.randint(1, 9), rng.randint(1, 3))
        cost = variance_cost(kappa, z0)
        got = information_cost(cost, z0, f)
        want = kappa * sum(p * (z - z0) ** 2 for z, p in f.atoms)
        assert got == want
        checked += 1
    report(
        6,
        True,
        "20 random contraction pairs: separable cost equals kappa times the "
        "variance of posterior means, exactly",
    )


def test_criterion_7_concavity_algorithm_soundness():
    assert not is_concave(steep_cost())
    assert is_concave(flattened_cost())

    rng = random.Random(99)
    certified_runs = 0
    for _ in range(6):
        n_interior = rng.randint(0, 2)
        interior = sorted({F(rng.randint(1, 11), 12) for _ in range(n_interior)})
        states = [F(0)] + [z for z in interior if 0 < z < 1] + [F(1)]
        weights = [F(rng.randint(1, 4)) for _ in states]
        total = sum(weights)
        space = StateSpace(states=tuple(states))
        prior = Prior(state_space=space, weights=tuple(w / total for w in weights))
        kink = F(rng.randint(3, 9), 12)
        left = F(rng.randint(0, 4), 4)
        right = F(-rng.randint(0, 4), 4)
        y0 = F(-1, 2)
        cost = PiecewiseScalarFunction.from_points(
            [(F(0), y0), (kink, y0 + left * kink), (F(1), y0 + left * kink + right * (1 - kink))]
        )
        assert is_concave(cost)
        menus = []
        for mi in range(rng.randint(1, 2)):
            acts = tuple(
                Act(f"m{mi}a{j}", F(rng.randint(-4, 4), 4), F(rng.randint(-4, 4), 4))
                for j in range(rng.randint(1, 3))
            )
            menus.append(Menu(id=f"menu{mi}", acts=acts))
        dataset = generate_dataset(prior, menus, cost)
        bound = len(dataset.observations) ** len(states)
        assert bound <= 16
        verdict = certify_concave(dataset, budget=bound)
        assert verdict.status == CERTIFIED
        assert verdict.programs_solved <= bound
        # soundness: certificate cost is concave and fully audited
        assert is_concave(verdict.cost)
        prices = [
            price_function(verdict.multipliers, oi)
            for oi in range(len(dataset.observations))
        ]
        assert verify_rationalization(dataset, verdict.cost, prices).all_ok
        certified_runs += 1
    report(
        7,
        certified_runs == 6,
        "all certificates sound (concave cost, all-true audit) and found "
        "within the assignment bound; steep cost not concave, flattened is",
    )


def test_criterion_8_equivalence_coverage():
    """Necessity via generation, sufficiency via construction plus audit."""
    rng = random.Random(4242)
    for _ in range(5):
        prior, menus, cost = _random_roundtrip_instance(rng)
        dataset = generate_dataset(prior, menus, cost)
        assert check_nias(dataset).passed
        verdict = check_nipmc(dataset)
        assert verdict.passed
        recovered = recover_cost(dataset, verdict.multipliers)
        prices = [
            price_function(verdict.multipliers, oi)
            for oi in range(len(dataset.observations))
        ]
        assert verify_rationalization(dataset, recovered, prices).all_ok
        # the recovered cost rationalizes: every observation's revealed
        # distribution solves its own forward problem
        for obs in dataset.observations:
            summary = revealed_summary(obs)
            problem = ForwardProblem(prior, obs.menu, recovered, summary.cdf.support)
            assert solve_forward(problem).value == sum(
                p * (indirect_utility(obs.menu, z) + recovered(z))
                for z, p in summary.cdf.atoms
            )
    report(
        8,
        True,
        "optimal behavior always passes both axioms, and passing data always "
        "yields an audited rationalizing cost: both directions exercised",
    )
