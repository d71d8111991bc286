"""Process environment of a benchmark run: thread pins, the source tree under
test, and the machine fingerprint stored with every result.

Import this module before numpy: the BLAS and OpenMP pools read their thread
counts once, when numpy loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process, set before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_src() -> None:
    """Put this checkout's ``src`` first on the import path.

    Raises SystemExit when the checkout carries no ``src/htbif``: the
    benchmark measures the source next to it, never an installed copy.
    """
    if not (SRC / "htbif" / "__init__.py").is_file():
        raise SystemExit(f"no htbif source tree at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_htbif():
    use_checkout_src()
    import htbif

    where = Path(htbif.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"htbif was imported from {where}, not from {SRC}")
    return htbif


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        affinity = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "cores_usable": affinity,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
