"""The package metadata points only at code that exists, and declares what
the code imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


def test_every_script_entry_point_imports_to_a_callable():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _declared():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}


def _imported():
    """Top-level names of the third-party modules imported under src/."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    local = {p.name for p in SRC.iterdir() if p.is_dir()}
    return names - local - set(sys.stdlib_module_names)


def test_every_third_party_import_is_declared():
    assert _imported() - _declared() == set()


def test_every_declared_dependency_is_imported():
    assert _declared() - _imported() == set()
