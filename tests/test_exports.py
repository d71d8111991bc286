"""Exported names stay live: every name in an htbif module's ``__all__``
resolves, some code outside the tests reads it, and the package facade
re-exports only names a module exports.

A module's exports are its ``__all__``, or, without one, its public names
(what ``from module import *`` binds).
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "htbif"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# exports that no module outside the tests reads, with the reason each stays
ALLOWED: dict[str, str] = {}


def _exports(module) -> set[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return set(names)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"htbif.{name}")
    missing = sorted(n for n in getattr(module, "__all__", ()) if not hasattr(module, n))
    assert missing == [], f"htbif.{name}.__all__ lists names the module does not define: {missing}"


def test_facade_reexports_only_exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = _exports(importlib.import_module(f"htbif.{node.module}"))
            stray += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in exported]
    assert stray == [], f"htbif re-exports names its modules do not export: {stray}"


def _references(tree) -> set[str]:
    """Every export the module reads: a bare name where the module
    from-imports or defines it, or an attribute of an htbif module alias
    (``timemap.x``), leaving out names that appear only inside annotations.
    A method or a local that shares an export's name reads nothing."""
    in_annotation = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            roots = [arg.annotation for arg in every if arg is not None and arg.annotation is not None]
            roots += [node.returns] if node.returns is not None else []
        elif isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        else:
            continue
        in_annotation.update(id(sub) for root in roots for sub in ast.walk(root))
    aliases, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name in MODULES and node.module in (None, "htbif"):
                    aliases.add(local)
                else:
                    bound[local] = alias.name
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((t.id, t.id) for t in targets if isinstance(t, ast.Name))
    read = set()
    for node in ast.walk(tree):
        if id(node) in in_annotation:
            continue
        if isinstance(node, ast.Name) and node.id in bound:
            read.add(bound[node.id])
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            read.add(node.attr)
    return read


def _unconsumed_exports() -> set[str]:
    """"module.name" for each export that no non-test module of src/htbif
    (the facade __init__ aside) or bench reads."""
    paths = [path for path in SRC.glob("*.py") if path.stem != "__init__"]
    paths += [path for path in (ROOT / "bench").glob("*.py") if not path.name.startswith("test_")]
    read = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8"))) for path in paths))
    return {
        f"{name}.{export}"
        for name in MODULES
        for export in _exports(importlib.import_module(f"htbif.{name}"))
        if export not in read
    }


def test_every_export_has_a_consumer():
    dead = sorted(_unconsumed_exports() - set(ALLOWED))
    assert dead == [], f"exports only tests reach (delete them or give them a consumer): {dead}"


def test_allow_list_names_live_unconsumed_exports():
    stale = sorted(set(ALLOWED) - _unconsumed_exports())
    assert stale == [], f"allow-list entries that are gone or now have a consumer: {stale}"


def test_an_annotation_is_not_a_consumer():
    tree = ast.parse("from .model import Hint, Local, Out, make\nfrom . import model\n"
                     "def f(x: Hint) -> Out:\n    y: Local = make(x)\n    return model.attr")
    assert _references(tree) == {"make", "attr"}


def test_a_namesake_method_or_local_is_not_a_consumer():
    # plane.companion reads a method, not a module-level companion
    tree = ast.parse("from .timemap import PhasePlane as Plane\nimport numpy as np\n"
                     "def f(p, time_map):\n    plane = Plane(p)\n"
                     "    return plane.companion(0.5), time_map, np.interp")
    assert _references(tree) == {"PhasePlane"}
