"""No module under ``src/infocost`` imports a private name from a sibling:
what one module needs from another is public there. No test patches the
LP kernel's private names but its two seams: the pivot rule and the
elimination step."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "infocost"
TESTS = Path(__file__).resolve().parent
SEAMS = (["_bland"], ["_eliminate"])


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


def kernel_patches(path: Path) -> list[str]:
    """Each ``setattr`` call in ``path`` that sets an attribute of
    ``lp._Tableau`` or a private ``lp`` name other than a seam, named by
    object and string or by one dotted string."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) != "setattr":
            continue
        args = [a.value if isinstance(a, ast.Constant) else ast.unparse(a) for a in node.args]
        dotted = args[0] if isinstance(node.args[0], ast.Constant) else ".".join(args[:2])
        parts = dotted.removeprefix("infocost.").split(".")
        if parts[0] == "lp" and parts[1:] and parts[1].startswith("_") and parts[1:] not in SEAMS:
            found.append(ast.unparse(node))
    return found


def test_tests_patch_the_kernel_only_at_its_seams():
    tests = sorted(TESTS.glob("*.py"))
    assert len(tests) >= 10
    assert [f"{path.name}: {call}" for path in tests for call in kernel_patches(path)] == []


def test_a_kernel_patch_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "mp.setattr(lp._Tableau, 'pivot', traced)\n"
        "setattr(infocost.lp, '_Tableau', Stub)\n"
        "mp.setattr('infocost.lp._Tableau.install', recorded)\n"
        "mp.setattr(lp, '_bland', seam)\n"
        "mp.setattr(lp, '_eliminate', eliminate)\n"
        "mp.setattr(lp, name, counted)\n"
    )
    assert kernel_patches(probe) == [
        "mp.setattr(lp._Tableau, 'pivot', traced)",
        "setattr(infocost.lp, '_Tableau', Stub)",
        "mp.setattr('infocost.lp._Tableau.install', recorded)",
    ]
