"""The package metadata points only at code that exists, and declares what
the code imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


def _pyproject():
    """The parsed pyproject.toml; skips the test where tomllib (Python 3.11+)
    is missing."""
    return pytest.importorskip("tomllib").loads(PYPROJECT.read_text())


def test_every_script_entry_point_imports_to_a_callable():
    project = _pyproject()["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _declared():
    deps = _pyproject()["project"]["dependencies"]
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


BENCH = PYPROJECT.parent / "bench"

# public names that no src/ or bench/ code reaches yet, each with its reason
UNCALLED_ALLOWED = {
    "metrics.evaluate_series": "the paper's error tables; the eval driver will call it",
    "metrics.write_pose_csv": "the per-frame pose CSV; the eval driver will write it",
    "metrics.read_pose_csv": "reads the eval driver's pose CSV back",
}


def _silgrad_aliases(tree: ast.Module):
    """Local names bound to silgrad modules (``from silgrad import m as x``,
    ``from . import m``) and to their members (``from .m import f``)."""
    modules, members = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            if package == "silgrad" or (node.level == 1 and not package):
                modules[local] = alias.name
            elif package.startswith("silgrad.") or node.level == 1:
                members[local] = (package.rpartition(".")[2], alias.name)
    return modules, members


def _uses(nodes, module, own, modules, members):
    """(module, name) of each silgrad definition that ``nodes`` name, as
    ``alias.name``, as an imported member, or as a name in ``own``, the
    top-level definitions of ``module`` itself. Strings do not count."""
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and node.id in members:
            found.add(members[node.id])
        elif isinstance(node, ast.Name) and node.id in own:
            found.add((module, node.id))
    return found


def _reached(roots, edges):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(edges.get(name, ()))
    return seen


def _private_constants(tree: ast.Module):
    """Module-level ``_NAME = ...`` assignments, by name."""
    return {target.id: node for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.startswith("_")
            and not target.id.startswith("__")}


def test_every_public_name_has_a_caller():
    """Every module-level function or class under src/silgrad, public or
    private, and every private module-level constant is reached from bench/
    or from module-level code, through the definitions that use it; tests
    alone do not keep a name alive, and neither does a definition that
    nothing reaches."""
    defined, edges, roots = set(), {}, set()
    for path in sorted((SRC / "silgrad").glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = _silgrad_aliases(tree)
        if path.parent == BENCH:
            roots |= _uses(tree.body, None, {}, *aliases)
            continue
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defs |= _private_constants(tree)
        module = path.stem
        defined |= {(module, name) for name in defs}
        for name, node in defs.items():
            edges[(module, name)] = _uses([node], module, defs, *aliases)
        top_level = [node for node in tree.body if node not in defs.values()]
        roots |= _uses(top_level, module, defs, *aliases)
    allowed = {tuple(name.split(".")) for name in UNCALLED_ALLOWED}
    uncalled = defined - _reached(roots | allowed, edges)
    assert {".".join(name) for name in uncalled} == set()
    assert allowed - defined == set(), "an allowed name no longer exists"
    called = allowed & _reached(roots, edges)
    assert {".".join(name) for name in called} == set(), "an allowed name has a caller now"
