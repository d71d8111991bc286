"""Adaptive panel Gauss-Legendre quadrature.

Panels are bisected until the 16-point estimate of a panel agrees with the
sum over its two halves.  Acceptance uses the panel-relative tolerance with a
small floor tied to the first whole-interval estimate so that rounding noise
in nearly converged panels cannot force unbounded splitting.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_gauss", "gauss_panel"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_REL_TOL = 1e-10
_MAX_PANELS = 2 ** 14


def gauss_panel(f, a: float, b: float) -> float:
    """16-point Gauss-Legendre estimate of the integral of f over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(_WEIGHTS, f(mid + half * _NODES)))


def adaptive_gauss(f, a: float, b: float) -> float:
    """Integrate the vectorized integrand f over [a, b] to relative tolerance 1e-10.

    Raises QuadratureError if the budget of 2^14 panels is exhausted before
    every panel meets tolerance.
    """
    whole = gauss_panel(f, a, b)
    floor = abs(whole) * _REL_TOL / 256.0
    stack = [(a, b, whole)]
    total = 0.0
    used = 1
    while stack:
        a0, b0, coarse = stack.pop()
        mid = 0.5 * (a0 + b0)
        left = gauss_panel(f, a0, mid)
        right = gauss_panel(f, mid, b0)
        refined = left + right
        if abs(refined - coarse) <= max(_REL_TOL * abs(refined), floor):
            total += refined
        else:
            used += 2
            if used > _MAX_PANELS:
                raise QuadratureError(
                    f"adaptive quadrature exceeded {_MAX_PANELS} panels on [{a:g}, {b:g}]"
                )
            stack.append((a0, mid, left))
            stack.append((mid, b0, right))
    return total
