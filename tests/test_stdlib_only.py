"""The package runs on the standard library alone: every import under
``src/infocost`` is package-relative or names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "infocost"


def imported_modules(path: Path) -> list[str]:
    """Top-level names of the absolute imports in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_every_import_is_relative_or_stdlib():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    outside = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sources
        for name in imported_modules(path)
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_a_third_party_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\nfrom . import lp\nimport numpy\nfrom scipy.optimize import linprog\n"
    )
    assert [n for n in imported_modules(probe) if n not in sys.stdlib_module_names] == [
        "numpy", "scipy"
    ]
