"""Every module under src/ and tests/ uses each name it imports, and
every public name of the package resolves to its home module's object."""

import ast
import sys
from pathlib import Path

import rookgon

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_import_is_reported(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\nimport os\n"
                   "import os.path\nfrom math import pi, tau\n"
                   "print(os.sep, tau)\n")
    assert unused_imports(src) == [(4, "pi")]


def test_public_names_resolve_to_their_home_modules():
    for name in rookgon.__all__:
        obj = getattr(rookgon, name)
        home = obj.__module__
        assert home.startswith("rookgon.") and getattr(sys.modules[home], name) is obj
    assert set(rookgon.__all__) <= set(dir(rookgon))
    assert not hasattr(rookgon, "no_such_name")


def test_cut_bound_sweep_is_not_public():
    # the cut-bound sweep is the cut floor's oracle in tests/oracles.py;
    # the suite's cut-bound claims read the floor itself
    from rookgon import scrambles
    for name in ("exhaustive_cut_bound_check", "CutBoundReport"):
        assert name not in rookgon.__all__
        assert not hasattr(rookgon, name)
        assert not hasattr(scrambles, name)
