"""The benchmark's view of the library stays live: every name that bench/*.py
takes from htbif resolves.  That is each ``from htbif[.module] import name``
and each attribute read on a name bound to an htbif module (``nodal.nodal_pair``
after ``from htbif import nodal``).  A change that deletes or renames one of
them fails here rather than in a benchmark run.  String tables of traced
names (bench/layertrace.py) are not reads and are left out."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _is_htbif(module: str | None) -> bool:
    return module is not None and (module == "htbif" or module.startswith("htbif."))


def _reads(tree) -> set[tuple[str, str]]:
    """(module, name) for every name the source takes from an htbif module."""
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_htbif(alias.name):
                    aliases[alias.asname or "htbif"] = alias.name if alias.asname else "htbif"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_htbif(node.module):
            for alias in node.names:
                reads.add((node.module, alias.name))
                if node.module == "htbif":
                    aliases[alias.asname or alias.name] = f"htbif.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def _resolves(module: str, name: str) -> bool:
    try:
        target = importlib.import_module(module)
    except ImportError:
        return False
    if hasattr(target, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("path", BENCH, ids=lambda path: path.name)
def test_every_bench_read_resolves(path):
    reads = _reads(ast.parse(path.read_text(encoding="utf-8")))
    missing = sorted(f"{module}.{name}" for module, name in reads if not _resolves(module, name))
    assert missing == [], f"{path.name} reads names htbif does not define: {missing}"


def test_the_bench_reads_the_library():
    reads = set().union(*(_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in BENCH))
    assert ("htbif.nodal", "nodal_pair") in reads
    assert ("htbif.timemap", "time_map") in reads


def test_a_missing_read_is_flagged():
    tree = ast.parse(
        "import htbif\nfrom htbif import nodal as nd\nfrom htbif.model import ModelParams, gone\n"
        "def f(p):\n    return nd.nodal_pair(1, p), nd.vanished, htbif.__file__, p.nodal_pair"
    )
    reads = _reads(tree)
    assert reads == {
        ("htbif", "nodal"), ("htbif.model", "ModelParams"), ("htbif.model", "gone"),
        ("htbif.nodal", "nodal_pair"), ("htbif.nodal", "vanished"), ("htbif", "__file__"),
    }
    assert sorted(f"{m}.{n}" for m, n in reads if not _resolves(m, n)) == ["htbif.model.gone", "htbif.nodal.vanished"]
