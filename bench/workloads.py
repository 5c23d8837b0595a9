"""Seeded workloads for the infocost benchmark.

A workload is a list of operations. An operation runs one pipeline through
infocost's public entry points (the timed part) and then re-checks its
result outside the timed span. Entry points are looked up on their module
at call time (``axioms.check_nipmc``, never a bound name), so the tracer in
``tracing.py`` sees every call it wraps.

Cycle, forward and concavity instances are expensive to vet, so their
generator parameters live in ``catalog.json`` with each instance's
recorded verdict and exact optimal value (``make_catalog.py`` rebuilds
it). The benchmark seed picks which catalog entries of each class a run
uses. Round-trip instances are drawn from the seed directly: generated
data always passes both axioms, so every command must exit 0.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

from infocost import axioms, cli, concavity, forward, io, lp, model, recovery, revealed
from infocost.model import Act, Dataset, Menu, Prior, StateSpace
from infocost.piecewise import PiecewiseScalarFunction

CATALOG_PATH = Path(__file__).with_name("catalog.json")

# Instance classes: generator parameters shared by every entry of a class.
# "S" states, "N" observations (menus), "K" acts per menu.
CLASSES: dict[str, dict[str, dict[str, Any]]] = {
    "cycle": {
        "pass-n6": {"construction": "generated", "S": 9, "N": 6, "K": 4},
        "pass-n7": {"construction": "generated", "S": 9, "N": 7, "K": 4},
        "fail-n6": {"construction": "swap", "S": 9, "N": 6, "K": 4},
        "fail-n8": {"construction": "swap", "S": 9, "N": 8, "K": 4},
        "pass-tiny": {"construction": "generated", "S": 4, "N": 2, "K": 2},
        "fail-tiny": {"construction": "swap", "S": 3, "N": 2, "K": 2},
    },
    "forward": {
        "solve-g24": {"kind": "solve", "S": 5, "K": 3, "grid": 24},
        "solve-g48": {"kind": "solve", "S": 5, "K": 3, "grid": 48},
        "solve-g72": {"kind": "solve", "S": 5, "K": 3, "grid": 72},
        "solve-g90": {"kind": "solve", "S": 5, "K": 3, "grid": 90},
        "refine-g30": {"kind": "refine", "S": 5, "K": 3, "grid": 30, "resolution": 64},
        "generate-n3": {"kind": "generate", "S": 5, "N": 3, "K": 3},
        "solve-tiny": {"kind": "solve", "S": 3, "K": 2, "grid": 4},
        "refine-tiny": {"kind": "refine", "S": 3, "K": 2, "grid": 4, "resolution": 12},
        "generate-tiny": {"kind": "generate", "S": 3, "N": 1, "K": 2},
    },
    "concavity": {
        # An exhaustive S6 search (729 programs) takes over half a run, so
        # only the certified searches are S6; the undetermined one is S5.
        "certified": {"S": 6, "N": 3, "K": 3},
        "undetermined": {"S": 5, "N": 3, "K": 3},
        "tiny": {"S": 3, "N": 2, "K": 2},
    },
    "roundtrip": {
        "rt": {"S": 5, "N": 3, "K": 3},
        "rt-tiny": {"S": 3, "N": 2, "K": 2},
    },
}

# How many instances of each class one pass runs, per scale. The full
# scale is sized so that a pass takes a few seconds on today's code.
COMPOSITION: dict[str, dict[str, dict[str, int]]] = {
    "cycle": {
        "full": {"pass-n6": 1, "pass-n7": 1, "fail-n6": 1, "fail-n8": 1},
        "tiny": {"pass-tiny": 1, "fail-tiny": 1},
    },
    "forward": {
        "full": {"solve-g24": 2, "solve-g48": 1, "solve-g72": 1, "solve-g90": 1,
                 "refine-g30": 1, "generate-n3": 2},
        "tiny": {"solve-tiny": 1, "refine-tiny": 1, "generate-tiny": 1},
    },
    "concavity": {
        "full": {"certified": 1, "undetermined": 1},
        "tiny": {"tiny": 1},
    },
    "roundtrip": {
        "full": {"rt": 64},
        "tiny": {"rt-tiny": 1},
    },
}

CONCAVITY_BUDGET = 10_000
PICK_DRAWS = 64
PICK_TOLERANCE = 0.02


@dataclass
class Op:
    """One timed call chain and the re-check of its result.

    ``check`` returns a list of problems; an empty list means the result is
    correct. ``before`` prepares input files and is not timed.
    """

    name: str
    pipeline: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    before: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    instances: list[dict[str, Any]]


# -- seeded generators ------------------------------------------------------


def random_prior(rng: random.Random, n_states: int) -> Prior:
    interior: set[F] = set()
    while len(interior) < n_states - 2:
        interior.add(F(rng.randint(1, 23), 24))
    states = (F(0), *sorted(interior), F(1))
    weights = [F(rng.randint(1, 6)) for _ in states]
    total = sum(weights)
    return Prior(
        state_space=StateSpace(states=states),
        weights=tuple(w / total for w in weights),
    )


def concave_cost(rng: random.Random) -> PiecewiseScalarFunction:
    """Piecewise-linear cost derivative with nonincreasing slopes."""
    kinks = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(1, 4))})
    xs = [F(0), *kinks, F(1)]
    slopes = sorted(
        (F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in xs[1:]), reverse=True
    )
    y = F(rng.randint(-2, 2), 4)
    points = [(xs[0], y)]
    for x1, x2, s in zip(xs, xs[1:], slopes):
        y += s * (x2 - x1)
        points.append((x2, y))
    return PiecewiseScalarFunction.from_points(points)


def dip_cost(rng: random.Random) -> PiecewiseScalarFunction:
    """Cost derivative with a deep convex trough, like the steep pooling cost."""
    lo = F(rng.randint(1, 3), 12)
    hi = 1 - F(rng.randint(1, 3), 12)
    edge = F(-1, 36)
    depth = F(rng.randint(4, 12))
    return PiecewiseScalarFunction.from_points(
        [(F(0), edge), (lo, F(0)), ((lo + hi) / 2, -depth), (hi, F(0)), (F(1), edge)]
    )


def random_menu(rng: random.Random, name: str, n_acts: int) -> Menu:
    return Menu(
        id=name,
        acts=tuple(
            Act(f"{name}a{j}", F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8))
            for j in range(n_acts)
        ),
    )


def scaled_menu(menu: Menu, factor: int) -> Menu:
    suffix = f"x{factor}"
    return Menu(
        id=menu.id + suffix,
        acts=tuple(
            Act(a.id + suffix, a.u0 * factor, a.u1 * factor) for a in menu.acts
        ),
    )


def cycle_dataset(spec: dict[str, Any], seed: int) -> Dataset:
    """Optimal choice data from one cost, or the swap construction.

    The swap construction observes every menu under the cost and a
    four-times-payoff copy of it under sixteen times the cost, so the
    high-stakes copies get less information than the originals.
    """
    rng = random.Random(seed)
    prior = random_prior(rng, spec["S"])
    cost = concave_cost(rng)
    if spec["construction"] == "generated":
        menus = [random_menu(rng, f"m{i}", spec["K"]) for i in range(spec["N"])]
        return forward.generate_dataset(prior, menus, cost)
    menus = [random_menu(rng, f"m{i}", spec["K"]) for i in range(spec["N"] // 2)]
    low = forward.generate_dataset(prior, menus, cost)
    high = forward.generate_dataset(prior, [scaled_menu(m, 4) for m in menus], cost * 16)
    return Dataset(
        state_space=low.state_space, observations=low.observations + high.observations
    )


def forward_instance(spec: dict[str, Any], seed: int):
    """A forward problem on a uniform grid, or a (prior, menus, cost) triple."""
    rng = random.Random(seed)
    prior = random_prior(rng, spec["S"])
    cost = dip_cost(rng)
    if spec["kind"] == "generate":
        menus = [random_menu(rng, f"m{i}", spec["K"]) for i in range(spec["N"])]
        return prior, menus, cost
    menu = random_menu(rng, "m0", spec["K"])
    return forward.ForwardProblem.build(prior, menu, cost, uniform_points=spec["grid"])


def concavity_dataset(spec: dict[str, Any], seed: int) -> Dataset:
    rng = random.Random(seed)
    prior = random_prior(rng, spec["S"])
    cost = dip_cost(rng)
    menus = [random_menu(rng, f"m{i}", spec["K"]) for i in range(spec["N"])]
    return forward.generate_dataset(prior, menus, cost)


def roundtrip_spec(spec: dict[str, Any], rng: random.Random) -> dict[str, Any]:
    """A generation-spec document for ``infocost generate``."""
    prior = random_prior(rng, spec["S"])
    cost = concave_cost(rng)
    menus = [random_menu(rng, f"m{i}", spec["K"]) for i in range(spec["N"])]
    return {
        "states": [str(z) for z in prior.state_space.states],
        "prior": [str(w) for w in prior.weights],
        "menus": {
            m.id: [{"id": a.id, "u0": str(a.u0), "u1": str(a.u1)} for a in m.acts]
            for m in menus
        },
        "cost": {"breakpoints": [[str(x), str(y)] for x, y in cost.breakpoint_values()]},
    }


# -- pipelines (the timed parts) ---------------------------------------------


def check_pipeline(ds: Dataset):
    """What ``infocost check`` does: validate, action switches, cycles."""
    report = model.validate_dataset(ds)
    nias = axioms.check_nias(ds)
    verdict = axioms.check_nipmc(ds) if report.ok and nias.passed else None
    return report, nias, verdict


def recover_pipeline(ds: Dataset):
    """Flattest multipliers, cost, one price per observation, and the audit."""
    verdict = axioms.check_nipmc(ds, flattest=True)
    if not verdict.passed:
        return verdict, None
    cost = recovery.recover_cost(ds, verdict.multipliers)
    prices = [
        recovery.price_function(verdict.multipliers, oi)
        for oi in range(len(ds.observations))
    ]
    return verdict, recovery.verify_rationalization(ds, cost, prices)


def reject_pipeline(ds: Dataset):
    verdict = axioms.check_nipmc(ds)
    if verdict.passed:
        return verdict, None
    return verdict, axioms.explain_violation(verdict, ds)


# -- re-checks (outside the timed spans) -------------------------------------


def multipliers_feasible(verdict) -> bool:
    program = verdict.system.to_linear_program()
    x = [verdict.multipliers[key] for key in verdict.system.columns]
    return lp.satisfies(program, x)


def interior_mass(verdict) -> F:
    return sum(
        (
            verdict.multipliers[key]
            for key, free in zip(verdict.system.columns, verdict.system.free_columns)
            if not free
        ),
        F(0),
    )


def problems_check(result) -> list[str]:
    report, nias, verdict = result
    if not report.ok:
        return ["dataset failed validation"]
    if not nias.passed:
        return ["action-switch axiom failed"]
    if not verdict.passed:
        return ["cycle verdict is fail, recorded pass"]
    if not multipliers_feasible(verdict):
        return ["multipliers violate the cycle system"]
    return []


def problems_recover(result, expected: dict[str, Any]) -> list[str]:
    verdict, audit = result
    if not verdict.passed:
        return ["cycle verdict is fail, recorded pass"]
    out = []
    if not multipliers_feasible(verdict):
        out.append("flattest multipliers violate the cycle system")
    mass = interior_mass(verdict)
    if mass != F(expected["flattest_mass"]):
        out.append(f"flattest interior mass {mass} != recorded {expected['flattest_mass']}")
    if not audit.all_ok:
        out.append("rationalization audit failed")
    return out


def problems_reject(result) -> list[str]:
    verdict, explanation = result
    if verdict.passed:
        return ["cycle verdict is pass, recorded fail"]
    beta = [verdict.certificate[key] for key in verdict.system.rows]
    if not lp.verify_certificate(verdict.system.to_linear_program(), beta):
        return ["violation certificate fails direct verification"]
    if not explanation:
        return ["empty violation explanation"]
    return []


def objective_at(problem, z: F) -> F:
    return problem.cost(z) + max(model.utility(a, z) for a in problem.menu.acts)


def problems_solve(problem, solution, expected: dict[str, Any]) -> list[str]:
    """Optimality by weak duality, independent of the LP.

    A contraction of the prior attains the value, and a convex price with
    kinks only on the grid (where the objective also kinks) majorizes the
    objective and integrates to the value against the prior.
    """
    out = []
    if solution.value != F(expected["value"]):
        out.append(f"forward value {solution.value} != recorded {expected['value']}")
    prior = problem.prior
    if not revealed.is_mpc(revealed.prior_cdf(prior), solution.distribution):
        out.append("optimal distribution is not a contraction of the prior")
    attained = sum(p * objective_at(problem, z) for z, p in solution.distribution.atoms)
    if attained != solution.value:
        out.append("optimal distribution does not attain the reported value")
    price = solution.price
    slopes = price.slopes()
    if any(b < a for a, b in zip(slopes, slopes[1:])):
        out.append("price function is not convex")
    if not set(price.breakpoints) <= set(problem.grid):
        out.append("price function kinks off the grid")
    if any(price(g) < objective_at(problem, g) for g in problem.grid):
        out.append("price function does not majorize the objective on the grid")
    priced = sum(
        w * price(z) for z, w in zip(prior.state_space.states, prior.weights) if w > 0
    )
    if priced != solution.value:
        out.append("price integral against the prior differs from the value")
    return out


def problems_refine(value, expected: dict[str, Any]) -> list[str]:
    out = []
    if value != F(expected["oracle"]):
        out.append(f"oracle value {value} != recorded {expected['oracle']}")
    if value < F(expected["value"]):
        out.append("oracle value is below the forward optimum")
    return out


def problems_generate(ds: Dataset, n_menus: int) -> list[str]:
    if len(ds.observations) != n_menus:
        return [f"{len(ds.observations)} observations for {n_menus} menus"]
    if not model.validate_dataset(ds).ok:
        return ["generated dataset fails validation"]
    if not axioms.check_nias(ds).passed:
        return ["generated dataset fails the action-switch axiom"]
    for obs in ds.observations:
        summary = revealed.revealed_summary(obs)
        if not revealed.is_mpc(revealed.prior_cdf(obs.prior), summary.cdf):
            return ["revealed distribution is not a contraction of the prior"]
    return []


def problems_concavity(ds: Dataset, verdict, expected: dict[str, Any]) -> list[str]:
    if verdict.status != expected["status"]:
        return [f"concavity status {verdict.status} != recorded {expected['status']}"]
    if verdict.status != concavity.CERTIFIED:
        return []
    out = []
    if list(verdict.assignment) != expected["assignment"]:
        out.append(f"assignment {verdict.assignment} != recorded {expected['assignment']}")
    if not concavity.is_concave(verdict.cost):
        out.append("certified cost is not concave")
    system = axioms.build_farkas_system(ds)
    x = [verdict.multipliers[key] for key in system.columns]
    if not lp.satisfies(system.to_linear_program(), x):
        out.append("certified multipliers violate the cycle system")
    prices = [
        recovery.price_function(verdict.multipliers, oi)
        for oi in range(len(ds.observations))
    ]
    if not recovery.verify_rationalization(ds, verdict.cost, prices).all_ok:
        out.append("certified cost fails the rationalization audit")
    return out


# -- workload assembly --------------------------------------------------------


def load_catalog() -> dict[str, Any]:
    return json.loads(CATALOG_PATH.read_text())


def pick_entries(name: str, seed: int, scale: str, catalog: dict[str, Any]):
    """The seed's choice of catalog entries, as (class, spec, entry) triples.

    The seed keeps its first random pick whose recorded times sum to within
    ``PICK_TOLERANCE`` of the average pick (or, after ``PICK_DRAWS`` draws,
    the closest one), so that runs with different seeds time different
    instances but about the same amount of work.
    """
    rng = random.Random(seed)
    composition = COMPOSITION[name][scale]
    average = sum(
        count * statistics.mean(e["ref_s"] for e in catalog[name][cls])
        for cls, count in composition.items()
    )

    def draw():
        return [
            (cls, CLASSES[name][cls], entry)
            for cls, count in composition.items()
            for entry in rng.sample(catalog[name][cls], count)
        ]

    best = None
    for _ in range(PICK_DRAWS):
        pick = draw()
        gap = abs(sum(e["ref_s"] for _, _, e in pick) / average - 1)
        if gap <= PICK_TOLERANCE:
            return pick
        if best is None or gap < best[0]:
            best = (gap, pick)
    return best[1]


def cycle_ops(tag: str, ds: Dataset, entry: dict[str, Any]) -> list[Op]:
    if entry["verdict"] == "fail":
        return [
            Op(f"{tag}.reject", "reject", lambda: reject_pipeline(ds), problems_reject),
        ]
    return [
        Op(f"{tag}.check", "check", lambda: check_pipeline(ds), problems_check),
        Op(f"{tag}.recover", "recover", lambda: recover_pipeline(ds),
           lambda r: problems_recover(r, entry)),
    ]


def forward_ops(tag: str, spec: dict[str, Any], instance, entry) -> list[Op]:
    kind = spec["kind"]
    if kind == "generate":
        prior, menus, cost = instance
        return [
            Op(f"{tag}.generate", "generate",
               lambda: forward.generate_dataset(prior, menus, cost),
               lambda ds: problems_generate(ds, len(menus))),
        ]
    problem = instance
    if kind == "refine":
        return [
            Op(f"{tag}.refine", "refine",
               lambda: forward.oracle_value(problem, spec["resolution"]),
               lambda v: problems_refine(v, entry)),
        ]
    return [
        Op(f"{tag}.solve", "solve", lambda: forward.solve_forward(problem),
           lambda sol: problems_solve(problem, sol, entry)),
    ]


def concavity_ops(tag: str, ds: Dataset, entry) -> list[Op]:
    return [
        Op(f"{tag}.concavity", "concavity",
           lambda: concavity.certify_concave(ds, budget=CONCAVITY_BUDGET),
           lambda v: problems_concavity(ds, v, entry)),
    ]


def build(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and wrap them in ops."""
    if name == "roundtrip":
        return build_roundtrip(seed, scale, workdir)
    catalog = load_catalog()
    ops: list[Op] = []
    instances = []
    for i, (cls, spec, entry) in enumerate(pick_entries(name, seed, scale, catalog)):
        tag = f"{name}.{i}.{cls}"
        instances.append({"op": tag, "class": cls, **spec, **entry})
        if name == "cycle":
            ops += cycle_ops(tag, cycle_dataset(spec, entry["seed"]), entry)
        elif name == "forward":
            ops += forward_ops(tag, spec, forward_instance(spec, entry["seed"]), entry)
        else:
            ops += concavity_ops(tag, concavity_dataset(spec, entry["seed"]), entry)
    return Workload(ops=ops, instances=instances)


# -- round trip through the command line -------------------------------------


def read_json(path: Path) -> Any:
    return json.loads(path.read_text())


def cli_run(*argv: str) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as stop:  # argparse rejects unknown arguments this way
        return stop.code


def piecewise_linear_at(breakpoints, z: F) -> F:
    """Evaluate a breakpoint list [[x, y], ...] by linear interpolation."""
    pts = [(F(x["exact"]), F(y["exact"])) for x, y in breakpoints]
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x1 <= z <= x2:
            return y1 + (y2 - y1) * (z - x1) / (x2 - x1)
    raise ValueError(f"{z} outside the breakpoint range")


def revealed_atoms(doc: dict[str, Any], oi: int) -> list[tuple[F, F, int]]:
    """(mean, probability, act index) per chosen act, from the dataset file."""
    obs = doc["observations"][oi]
    states = [F(z) for z in doc["states"]]
    weights = [F(w) for w in doc["priors"][obs["prior_ref"]]]
    atoms = []
    for ai, row in enumerate(obs["sigma"]):
        p = sum(w * F(s) for w, s in zip(weights, row))
        if p > 0:
            mean = sum(w * F(s) * z for w, s, z in zip(weights, row, states)) / p
            atoms.append((mean, p, ai))
    return atoms


def roundtrip_ops(tag: str, files: dict[str, Path], n_menus: int) -> list[Op]:
    f = files

    def write_forward() -> None:
        ds = read_json(f["dataset"])
        obs = ds["observations"][0]
        doc = {
            "states": ds["states"],
            "prior": ds["priors"][obs["prior_ref"]],
            "menu_id": obs["menu_ref"],
            "menu": ds["menus"][obs["menu_ref"]],
            "cost": {
                "breakpoints": [
                    [x["exact"], y["exact"]]
                    for x, y in read_json(f["recover"])["cost"]["breakpoints"]
                ]
            },
        }
        f["forward"].write_text(json.dumps(doc))
        # The smallest resolution the oracle accepts: one uniform point
        # per grid point, which about doubles the grid.
        refine["resolution"] = len(io.parse_forward_problem(doc).grid)

    refine = {"resolution": 0}

    def solve_args() -> tuple[str, ...]:
        return ("solve", str(f["forward"]), "--refine", str(refine["resolution"]),
                "-o", str(f["solve"]))

    def check_generate(code: int) -> list[str]:
        if code != 0:
            return [f"generate exited {code}"]
        n = len(read_json(f["dataset"])["observations"])
        return [] if n == n_menus else [f"{n} observations for {n_menus} menus"]

    def check_validate(code: int) -> list[str]:
        if code != 0:
            return [f"validate exited {code}"]
        return [] if read_json(f["validate"])["valid"] else ["dataset reported invalid"]

    def check_check(code: int) -> list[str]:
        if code != 0:
            return [f"check exited {code}"]
        doc = read_json(f["check"])
        if not (doc["nias"]["passed"] and doc["nipmc"]["passed"]):
            return ["generated data reported not rationalizable"]
        return []

    def check_recover(code: int) -> list[str]:
        if code != 0:
            return [f"recover exited {code}"]
        if not read_json(f["recover"])["rationalization"]["all_ok"]:
            return ["recover audit not all_ok"]
        return []

    def check_solve(code: int) -> list[str]:
        if code != 0:
            return [f"solve exited {code}"]
        ds = read_json(f["dataset"])
        cost = read_json(f["recover"])["cost"]["breakpoints"]
        obs = ds["observations"][0]
        acts = ds["menus"][obs["menu_ref"]]
        attained = sum(
            p * (
                (1 - z) * F(acts[ai]["u0"]) + z * F(acts[ai]["u1"])
                + piecewise_linear_at(cost, z)
            )
            for z, p, ai in revealed_atoms(ds, 0)
        )
        doc = read_json(f["solve"])
        value = F(doc["value"]["exact"])
        out = []
        if value != attained:
            out.append(f"forward value {value} != revealed value {attained}")
        if F(doc["oracle"]["value"]["exact"]) < value:
            out.append("oracle value is below the forward optimum")
        return out

    def command(name: str, output: str, argv: Callable[[], tuple[str, ...]],
                check, prepare=None) -> Op:
        def before() -> None:
            # a command that fails to write leaves no stale report to check
            f[output].unlink(missing_ok=True)
            if prepare is not None:
                prepare()

        return Op(f"{tag}.{name}", "cli", lambda: cli_run(*argv()), check, before)

    return [
        command("generate", "dataset",
                lambda: ("generate", str(f["spec"]), "-o", str(f["dataset"])), check_generate),
        command("validate", "validate",
                lambda: ("validate", str(f["dataset"]), "-o", str(f["validate"])), check_validate),
        command("check", "check",
                lambda: ("check", str(f["dataset"]), "-o", str(f["check"])), check_check),
        command("recover", "recover",
                lambda: ("recover", str(f["dataset"]), "--flattest", "-o", str(f["recover"])),
                check_recover),
        command("solve", "solve", solve_args, check_solve, prepare=write_forward),
    ]


def build_roundtrip(seed: int, scale: str, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    instances = []
    for cls, count in COMPOSITION["roundtrip"][scale].items():
        spec = CLASSES["roundtrip"][cls]
        for i in range(count):
            tag = f"roundtrip.{i}.{cls}"
            files = {
                step: workdir / f"{tag}.{step}.json"
                for step in ("spec", "dataset", "validate", "check", "recover",
                             "forward", "solve")
            }
            files["spec"].write_text(json.dumps(roundtrip_spec(spec, rng)))
            instances.append({"op": tag, "class": cls, **spec, "seed": seed,
                              "refine": "grid size"})
            ops += roundtrip_ops(tag, files, spec["N"])
    return Workload(ops=ops, instances=instances)
