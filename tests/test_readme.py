"""The README's Python examples run against the package as documented."""

import builtins
import pkgutil
import re
from pathlib import Path

import pytest

import infocost

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
KEY_OBJECTS = re.search(r"^Key objects:.*?(?=\n\n|\Z)", README, re.M | re.S).group()


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


def _resolves(name: str) -> bool:
    """``name`` is an attribute of ``infocost`` or a builtin; a dotted
    name is looked up from its module (``fractions.Fraction``)."""
    if "." in name:
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError, ValueError):
            return False
        return True
    return hasattr(infocost, name) or hasattr(builtins, name)


@pytest.mark.parametrize("name", re.findall(r"`([A-Za-z_][\w.]*)`", KEY_OBJECTS))
def test_key_objects_name_the_api(name):
    assert _resolves(name), f"README names `{name}`, which infocost does not export"
