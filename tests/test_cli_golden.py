"""Golden CLI output: exit code and SHA-256 of stdout and stderr per case.

Each case runs ``cli.main`` in process. The cases are every bundled
fixture under ``validate``, ``check``, ``check --flattest``, ``recover``,
``recover --flattest``, ``solve --refine 16``, ``concavity`` and
``generate``, four multi-observation S5/N3/K3 datasets under the
dataset commands, and four S5/N3/K3 generation specs under ``generate``.
The fixtures never give a passing cycle system with rows, so the four
datasets cover that: they were written once with
``test_axioms.random_generated_dataset(random.Random(seed))`` for seeds
0-3 and are committed under ``tests/golden/``, so a later generator
change cannot move them. Only one fixture is a generation spec with a
single menu, so the four specs cover multi-menu generation: each was
drawn once with ``test_forward``'s ``random_prior(rng, 5)``, then
``concave_cost(rng)`` or ``dip_cost(rng)``, then three
``random_menu(rng, f"m{i}", 3)``, from ``random.Random(seed)`` for seeds
0 and 1, and is committed as ``generate_<cost>_s<seed>.json``.

The expected digests are in ``tests/golden/cli.json``. After a change
that is meant to alter CLI output, regenerate them with
``PYTHONPATH=src python tests/test_cli_golden.py``, which prints each
case whose record changed, old -> new, and review those cases.

A second pivot rule, Bland's rule on the reversed column order, tells
the outputs that any optimal vertex must give (verdicts, exit codes,
the action-switch report, the least interior mass, the forward and
oracle values, the concavity status and assignment) from those that are
whichever vertex the pivots reach: the first must not move under it.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from infocost import cli, lp

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "cli.json"

FIXTURES = (
    "example2_forward.json",
    "example2_twopoint_forward.json",
    "example3_concavified_forward.json",
    "example3_dataset.json",
    "example3_forward.json",
    "example3_generate.json",
    "nipmc_violation.json",
)
FIXTURE_COMMANDS = (
    ("validate",),
    ("check",),
    ("check", "--flattest"),
    ("recover",),
    ("recover", "--flattest"),
    ("solve", "--refine", "16"),
    ("concavity",),
    ("generate",),
)
GENERATED = tuple(f"generated_s{seed}.json" for seed in range(4))
GENERATED_COMMANDS = (
    ("check",),
    ("check", "--flattest"),
    ("recover",),
    ("recover", "--flattest"),
    ("concavity",),
)
SPECS = tuple(
    f"generate_{cost}_s{seed}.json" for cost in ("concave", "dip") for seed in range(2)
)


def _cases() -> dict[str, tuple[str, ...]]:
    fixtures = resources.files("infocost.fixtures")
    cases = {}
    for name in FIXTURES:
        for command, *flags in FIXTURE_COMMANDS:
            path = str(fixtures.joinpath(name))
            cases[" ".join((command, name, *flags))] = (command, path, *flags)
    for name in GENERATED:
        for command, *flags in GENERATED_COMMANDS:
            path = str(GOLDEN / name)
            cases[" ".join((command, name, *flags))] = (command, path, *flags)
    for name in SPECS:
        cases[f"generate {name}"] = ("generate", str(GOLDEN / name))
    return cases


CASES = _cases()


def _run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(code: int, out: str, err: str) -> dict:
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_is_unchanged(case):
    expected = json.loads(DIGESTS.read_text())[case]
    code, out, err = _run(CASES[case])
    assert _record(code, out, err) == expected, (
        f"{case}: exit {code}\n--- stdout ---\n{out}--- stderr ---\n{err}"
    )


def test_every_case_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


def _reversed_bland(tab, banned: set[int]) -> tuple[int, int]:
    """``lp._bland`` with the columns in reverse order: the entering column
    is the last one of negative reduced cost, and a tie in the ratio test
    goes to the row whose basic column is last. Bland's rule under any
    fixed column order cannot cycle."""
    pc = max(
        (j for j, v in tab.obj.items() if v < 0 and j < tab.ncols and j not in banned),
        default=-1,
    )
    pr = -1
    best_rhs = best_piv = 0
    for r, row in enumerate(tab.rows):
        a = row.get(pc, 0)
        if a <= 0:
            continue
        b = row.get(tab.rhs, 0)
        left, right = b * best_piv, best_rhs * a
        if pr < 0 or left < right or (left == right and tab.basis[r] > tab.basis[pr]):
            pr, best_rhs, best_piv = r, b, a
    return pr, pc


def _interior_mass(multipliers) -> Fraction:
    return sum(
        (Fraction(m["value"]["exact"]) for m in multipliers
         if Fraction(m["z"]["exact"]) not in (0, 1)),
        Fraction(0),
    )


def _rule_free(argv: tuple[str, ...], code: int, out: str) -> dict:
    """The parts of a run's result that every optimal vertex gives."""
    facts: dict = {"exit": code}
    if not out:
        return facts
    report = json.loads(out)
    command = argv[0]
    if command == "check":
        facts["nias"] = report["nias"]
        facts["passed"] = report["nipmc"].get("passed")
        if "multipliers" in report["nipmc"]:
            facts["interior_mass"] = _interior_mass(report["nipmc"]["multipliers"])
    elif command == "recover":
        facts["all_ok"] = report["rationalization"]["all_ok"]
        facts["interior_mass"] = _interior_mass(report["multipliers"])
    elif command == "solve":
        facts["value"] = report["value"]
        facts["oracle"] = report["oracle"]["value"]
    elif command == "concavity":
        facts["status"] = report["status"]
        facts["assignment"] = report.get("assignment")
    return facts


RULE_CASES = [
    case for case, (command, *_) in CASES.items()
    if command in ("check", "recover", "solve", "concavity")
]


def test_reversed_bland_rule_moves_no_rule_free_output(monkeypatch):
    """Under Bland's rule on the reversed column order, every ``check``
    and ``recover`` case, with and without ``--flattest``, every ``solve
    --refine 16`` and every ``concavity`` case keeps its exit code and its
    rule-free outputs, the least interior mass of every passing ``check``
    and ``recover`` among them; some reports do move, at the vertices the
    rule picks, which shows that the reversed rule reaches the kernel."""
    assert len(RULE_CASES) == 62
    default = {case: _run(CASES[case])[:2] for case in RULE_CASES}
    monkeypatch.setattr(lp, "_bland", _reversed_bland)
    moved = 0
    for case in RULE_CASES:
        code, out = _run(CASES[case])[:2]
        assert _rule_free(CASES[case], code, out) == _rule_free(CASES[case], *default[case]), case
        moved += (code, out) != default[case]
    assert moved > 0


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {case: _record(*_run(argv)) for case, argv in CASES.items()}
    for case in sorted(old.keys() | digests.keys()):
        before, after = old.get(case, {}), digests.get(case, {})
        for field in ("exit", "stdout", "stderr"):
            if before.get(field) != after.get(field):
                print(f"{case}: {field} {before.get(field)} -> {after.get(field)}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
