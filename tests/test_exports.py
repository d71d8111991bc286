"""Exported names stay live: every name in an htbif module's ``__all__``
resolves, and the package facade re-exports only names a module exports.

A module's exports are its ``__all__``, or, without one, its public names
(what ``from module import *`` binds).
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "htbif"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


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
