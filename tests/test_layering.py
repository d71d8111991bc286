"""The package's import graph is a straight line of layers.

Each module may import only from layers strictly below its own, imports sit
at module level, no module takes another module's ``_private`` name, and
the only third-party imports are ``numpy`` and ``scipy.linalg``.  The
checker parses the sources with ``ast``; it is exercised on the real
package and on small snippets that break each rule.  A fresh interpreter
checks what ``import htbif`` loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "htbif"

# lowest first; the package facade ``__init__`` sits above every layer
LAYERS = (
    "errors", "model", "quadrature", "spectral", "timemap",
    "nodal", "linstab", "perturbed", "acceptance", "cli",
)
RANK = {name: i for i, name in enumerate(LAYERS)}
RANK["__init__"] = len(LAYERS)
# third-party packages the modules may import, each with its submodules
THIRD_PARTY = ("numpy", "scipy.linalg")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def layering_findings(module: str, source: str) -> list[str]:
    """Every rule break in one module's source, as 'module:line: message'."""
    findings: list[str] = []
    rank = RANK[module]
    tree = ast.parse(source)
    module_aliases: set[str] = set()  # names bound to package modules by `from . import x`

    def report(node, message):
        findings.append(f"{module}:{node.lineno}: {message}")

    def check_target(node, target):
        if target not in RANK:
            report(node, f"imports unknown module .{target}; place it in LAYERS")
        elif RANK[target] >= rank:
            report(node, f"imports same-rank or later layer .{target}")

    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    report(node, "import inside a function")

    for node in ast.walk(tree):
        absolute = [alias.name for alias in node.names] if isinstance(node, ast.Import) else (
            [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
        )
        for name in absolute:
            top = name.split(".")[0]
            allowed = any(name == ok or name.startswith(ok + ".") for ok in THIRD_PARTY)
            if top not in sys.stdlib_module_names and top != "__future__" and not allowed:
                report(node, f"imports third-party {name} outside {', '.join(THIRD_PARTY)}")
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import x, y
                for alias in node.names:
                    check_target(node, alias.name)
                    module_aliases.add(alias.asname or alias.name)
            else:
                check_target(node, node.module.split(".")[0])
                for alias in node.names:
                    if _is_private(alias.name):
                        report(node, f"takes private {alias.name} from .{node.module}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and _is_private(node.attr)
        ):
            report(node, f"reaches into {node.value.id}.{node.attr}")
    return findings


def test_every_module_has_a_layer():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert modules == set(RANK)


def test_package_import_graph_is_layered():
    findings = []
    for path in sorted(SRC.glob("*.py")):
        findings += layering_findings(path.stem, path.read_text(encoding="utf-8"))
    assert findings == []


@pytest.mark.parametrize(
    "module, source, expected",
    [
        ("nodal", "from .linstab import eta2_closed_form\n", "later layer .linstab"),
        ("nodal", "from .nodal import solve_amplitude\n", "same-rank or later layer .nodal"),
        ("cli", "from . import acceptance, shiny\n", "unknown module .shiny"),
        ("cli", "def f():\n    from .model import Profile\n", "import inside a function"),
        ("cli", "def f():\n    import json\n", "import inside a function"),
        ("perturbed", "from .linstab import _neumann\n", "takes private _neumann"),
        ("acceptance", "from . import perturbed\nperturbed._interleave(1, 2)\n",
         "reaches into perturbed._interleave"),
        ("nodal", "from scipy.optimize import brentq\n", "third-party scipy.optimize"),
        ("linstab", "import scipy.integrate\n", "third-party scipy.integrate"),
        ("linstab", "import scipy\n", "third-party scipy outside"),
    ],
)
def test_checker_reports_each_rule(module, source, expected):
    findings = layering_findings(module, source)
    assert len(findings) == 1 and expected in findings[0]


def test_checker_accepts_earlier_layers_and_dunders():
    source = "from . import spectral, nodal\nfrom .model import Profile\nprint(nodal.__name__)\n"
    assert layering_findings("linstab", source) == []


def test_checker_accepts_the_standard_library_and_the_allowed_packages():
    source = (
        "from __future__ import annotations\nimport math, sys\nfrom dataclasses import dataclass\n"
        "import numpy as np\nfrom numpy.polynomial import legendre\nfrom scipy.linalg import get_lapack_funcs\n"
    )
    assert layering_findings("quadrature", source) == []


def test_import_loads_no_scipy_optimize_or_integrate():
    probe = "import sys, htbif; print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.split(".")[1] in ("optimize", "integrate", "sparse")]
