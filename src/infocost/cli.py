"""Command-line interface.

Exit codes are a stable contract: 0 for success or a passing check, 1 for
a principled rejection (invalid dataset, axiom violation) or a failed
re-check of a result (a recovery whose audit fails, a certificate or
multipliers that fail direct verification), 2 for input errors (an
output path that cannot be written among them), 3 for resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from . import io
from .axioms import check_nias, check_nipmc, explain_violation
from .concavity import BUDGET_EXCEEDED, CERTIFIED, certify_concave
from .forward import ForwardProblem, generate_dataset, oracle_value, solve_forward
from .lp import LPResourceError, to_lp_text
from .model import validate_dataset
from .recovery import _cost_from_prices, price_function, verify_rationalization
from .revealed import revealed_summary

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise io.InputError(f"cannot read {path}: {err}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise io.InputError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None


def _emit(report: dict[str, Any], output: str | None) -> None:
    text = json.dumps(report, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _write_figures(report: dict[str, Any], csv_dir: str | None) -> None:
    if not csv_dir:
        return
    directory = Path(csv_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, body in io.figures_to_csv(report.get("figures", [])).items():
        (directory / f"{name}.csv").write_text(body)


def cmd_validate(args: argparse.Namespace) -> int:
    dataset = io.parse_dataset(_load_json(args.path))
    report = validate_dataset(dataset)
    _emit({"valid": report.ok, "problems": list(report.problems)}, args.output)
    return EXIT_OK if report.ok else EXIT_REJECTED


def _checked_dataset(path: str):
    dataset = io.parse_dataset(_load_json(path))
    report = validate_dataset(dataset)
    if not report.ok:
        raise io.InputError(
            "dataset fails validation: " + "; ".join(report.problems)
        )
    return dataset


def _multipliers_out(multipliers) -> list[dict[str, Any]]:
    return [
        {"observation": oi, "z": io.scalar_out(z), "value": io.scalar_out(v)}
        for (oi, z), v in multipliers.items()
    ]


def cmd_check(args: argparse.Namespace) -> int:
    dataset = _checked_dataset(args.path)
    nias = check_nias(dataset)
    report: dict[str, Any] = {
        "command": "check",
        "nias": {
            "passed": nias.passed,
            "violations": [
                {
                    "observation": v.observation,
                    "chosen": v.chosen,
                    "better": v.better,
                    "gain": io.scalar_out(v.gain),
                }
                for v in nias.violations
            ],
        },
    }
    if not nias.passed:
        report["nipmc"] = {"skipped": "action-switch violations found"}
        _emit(report, args.output)
        return EXIT_REJECTED
    verdict = check_nipmc(dataset, flattest=args.flattest)
    if args.dump_lp:
        Path(args.dump_lp).write_text(
            to_lp_text(verdict.system.to_linear_program(), name="cycle-feasibility")
        )
    entry: dict[str, Any] = {"passed": verdict.passed}
    entry["binding_sets"] = [
        [io.scalar_out(z) for z in zs] for zs in verdict.system.binding_sets
    ]
    if verdict.passed:
        assert verdict.multipliers is not None
        entry["multipliers"] = _multipliers_out(verdict.multipliers)
    else:
        assert verdict.certificate is not None
        entry["certificate"] = [
            {
                "observation_a": oa,
                "observation_b": ob,
                "act_a": dataset.observations[oa].menu.acts[ai].id,
                "act_b": dataset.observations[ob].menu.acts[bi].id,
                "weight": io.scalar_out(w),
            }
            for (oa, ob, ai, bi), w in verdict.certificate.items()
            if w != 0
        ]
        entry["explanation"] = explain_violation(verdict, dataset)
    report["nipmc"] = entry
    _emit(report, args.output)
    return EXIT_OK if verdict.passed else EXIT_REJECTED


def cmd_recover(args: argparse.Namespace) -> int:
    dataset = _checked_dataset(args.path)
    nias = check_nias(dataset)
    if not nias.passed:
        print("dataset violates the action-switch axiom; run 'check' for details",
              file=sys.stderr)
        return EXIT_REJECTED
    verdict = check_nipmc(dataset, flattest=args.flattest)
    if not verdict.passed:
        print("dataset violates the posterior-mean-cycle axiom; run 'check' for details",
              file=sys.stderr)
        return EXIT_REJECTED
    assert verdict.multipliers is not None
    prices = [
        price_function(verdict.multipliers, oi)
        for oi in range(len(dataset.observations))
    ]
    cost = _cost_from_prices(dataset, prices)
    audit = verify_rationalization(dataset, cost, prices)
    report = {
        "command": "recover",
        "cost": io.function_out(cost),
        "prices": [
            {"observation": oi, **io.function_out(p)} for oi, p in enumerate(prices)
        ],
        "multipliers": _multipliers_out(verdict.multipliers),
        "rationalization": {
            "all_ok": audit.all_ok,
            "observations": [
                {
                    "price_convex": a.price_convex,
                    "price_majorizes": a.price_majorizes,
                    "contact_at_revealed": a.contact_at_revealed,
                    "affine_off_binding": a.affine_off_binding,
                    "integral_match": a.integral_match,
                    "worst_slacks": {
                        "convexity": io.scalar_out(a.convexity_slack),
                        "majorization": io.scalar_out(a.majorization_slack),
                        "contact": io.scalar_out(a.contact_slack),
                        "affine": io.scalar_out(a.affine_slack),
                        "integral": io.scalar_out(a.integral_slack),
                    },
                }
                for a in audit.audits
            ],
        },
        "figures": [io.figure_series(cost, "cost_derivative")]
        + [
            io.figure_series(p, f"price_observation_{oi}")
            for oi, p in enumerate(prices)
        ],
    }
    _emit(report, args.output)
    _write_figures(report, args.figures_csv)
    if not audit.all_ok:
        print("rationalization audit failed", file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    problem = io.parse_forward_problem(_load_json(args.path))
    if args.grid_add:
        problem = ForwardProblem.build(
            problem.prior, problem.menu, problem.cost,
            extra=problem.grid, uniform_points=args.grid_add,
        )
    solution = solve_forward(problem)
    report: dict[str, Any] = {
        "command": "solve",
        "distribution": [
            {"location": io.scalar_out(z), "mass": io.scalar_out(p)}
            for z, p in solution.distribution.atoms
        ],
        "value": io.scalar_out(solution.value),
        "price": io.function_out(solution.price),
        "acts": list(solution.assignments),
        "figures": [
            io.figure_series(solution.objective, "gross_objective"),
            io.figure_series(solution.price, "price"),
        ],
    }
    agrees = True
    if args.refine:
        value = oracle_value(problem, args.refine)
        report["oracle"] = {
            "resolution": args.refine,
            "value": io.scalar_out(value),
            "matches": value == solution.value,
        }
        # The refined grid contains the problem grid, which holds every
        # kink and prior atom: the refined value equals the optimum for a
        # piecewise-affine objective and can only exceed it otherwise.
        if solution.objective.is_affine:
            agrees = value == solution.value
        else:
            agrees = value >= solution.value
    _emit(report, args.output)
    _write_figures(report, args.figures_csv)
    if not agrees:
        print("oracle value disagrees with the optimum", file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


def cmd_concavity(args: argparse.Namespace) -> int:
    dataset = _checked_dataset(args.path)
    n = len(dataset.observations)
    total = n ** len(dataset.state_space.states)
    if total > args.budget:
        print(
            f"note: {total} assignments exist; budget {args.budget} programs",
            file=sys.stderr,
        )
    verdict = certify_concave(dataset, budget=args.budget)
    report: dict[str, Any] = {
        "command": "concavity",
        "status": verdict.status,
        "programs_solved": verdict.programs_solved,
    }
    if verdict.status == CERTIFIED:
        assert verdict.cost is not None and verdict.assignment is not None
        report["assignment"] = list(verdict.assignment)
        report["cost"] = io.function_out(verdict.cost)
    _emit(report, args.output)
    if verdict.status == BUDGET_EXCEEDED:
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    prior, menus, cost = io.parse_generation_spec(_load_json(args.path))
    dataset = generate_dataset(prior, menus, cost)
    doc = io.dataset_out(dataset)
    doc["revealed_means"] = [
        [io.scalar_out(m) for m in revealed_summary(obs).act_means]
        for obs in dataset.observations
    ]
    _emit(doc, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infocost",
        description=(
            "Test state-dependent stochastic choice data for rationalizability "
            "by posterior-mean-separable information costs, recover the cost, "
            "and solve forward information-acquisition problems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="input JSON file")
        p.add_argument("--output", "-o", help="write the JSON report here")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check dataset invariants")

    p = add("check", cmd_check, "run both rationalizability axioms")
    p.add_argument("--flattest", action="store_true",
                   help="multipliers with minimal interior mass")
    p.add_argument("--dump-lp", help="write the feasibility program in LP format")

    p = add("recover", cmd_recover, "construct the cost and price functions")
    p.add_argument("--flattest", action="store_true",
                   help="multipliers with minimal interior mass")
    p.add_argument("--figures-csv", help="directory for figure CSV files")

    p = add("solve", cmd_solve, "solve a forward information-acquisition problem")
    p.add_argument("--refine", type=int, default=0,
                   help="also report the oracle value at this resolution")
    p.add_argument("--grid-add", type=int, default=0,
                   help="add this many uniform grid points (stress test)")
    p.add_argument("--figures-csv", help="directory for figure CSV files")

    p = add("concavity", cmd_concavity, "search for a concave rationalizing cost")
    p.add_argument("--budget", type=int, default=10_000,
                   help="maximum number of programs solved, prefix and full")

    add("generate", cmd_generate, "generate a dataset from a cost and menus")
    return parser


# Built once per process: parsing never changes it, and each ``cmd_*``
# looks up what it calls at call time, so patching those names still works.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except io.InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except LPResourceError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except RuntimeError as err:
        print(f"verification error: {err}", file=sys.stderr)
        return EXIT_REJECTED
    except (ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
