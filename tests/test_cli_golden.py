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
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from infocost import cli

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


if __name__ == "__main__":
    digests = {case: _record(*_run(argv)) for case, argv in CASES.items()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
