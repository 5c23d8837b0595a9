"""No module under ``src/infocost`` imports a private name from a sibling:
what one module needs from another is public there."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "infocost"


def private_imports(path: Path) -> list[str]:
    """``from <module> import <name>`` for each name starting with an
    underscore that ``path`` imports from within the package (a relative
    import)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [
                f"from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_private_name_crosses_a_module_boundary():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    crossing = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sources
        for name in private_imports(path)
    ]
    assert crossing == []


def test_a_private_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "from . import lp, _hidden\n"
        "from .revealed import binding_set, _gap_table\n"
        "from os import _exit\n"
    )
    assert private_imports(probe) == [
        "from . import _hidden", "from .revealed import _gap_table"
    ]
