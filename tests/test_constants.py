"""Constant audit: every module-level UPPER_CASE constant of src/htbif (private
ones too) is read by some code in src/htbif.  A constant no code reads is a
leftover of a deleted route.  A read is a load of the bare name or of an
attribute by that name, in any module."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "timemap.CENTER_CUTOFF": "bench/test_inputs.py asserts timemap_scan draws stay outside it",
}

_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _trees():
    paths = sorted((ROOT / "src" / "htbif").glob("*.py"))
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _constants(trees):
    """{"module.NAME": "NAME"} over the module-level assignments."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _CONSTANT.fullmatch(name.id):
                        found[f"{module}.{name.id}"] = name.id
    return found


def _read_names(trees):
    """Every name some code in src/htbif loads, bare or as an attribute."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _unread():
    trees = _trees()
    read = _read_names(trees)
    return {key for key, name in _constants(trees).items() if name not in read}


def test_every_constant_is_read():
    unread = sorted(_unread() - set(ALLOWED))
    assert unread == [], f"module constants no code in src/htbif reads (delete them): {unread}"


def test_allow_list_names_live_unread_constants():
    stale = sorted(set(ALLOWED) - _unread())
    assert stale == [], f"allow-list entries that are gone or now read: {stale}"


def test_the_audit_sees_assignments_and_reads():
    trees = {"m": ast.parse("A = 1\n_B: int = 2\nC, d = 3, 4\nlower = 5\nx = m.A + _B\n")}
    assert _constants(trees) == {"m.A": "A", "m._B": "_B", "m.C": "C"}
    assert {"A", "_B"} <= _read_names(trees) and "C" not in _read_names(trees)
