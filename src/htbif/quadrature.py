"""Adaptive panel Gauss-Legendre quadrature.

Panels are bisected until the 16-point estimate of a panel agrees with the
sum over its two halves.  Acceptance uses the panel-relative tolerance with a
small floor tied to the first whole-interval estimate so that rounding noise
in nearly converged panels cannot force unbounded splitting.

Whether a panel is accepted depends on that panel alone, so the panels are
refined level by level: every panel of a level that fails the test is bisected,
and all the children of the level are evaluated in one integrand call, one row
of nodes per panel.  The result is bit-identical to depth-first refinement
because each child estimate is its own dot product of the weights with its own
row (a matrix-vector product sums in another order), and because the accepted
panels are summed in the order a depth-first stack pops them, which is
descending panel start (ascending when a > b).
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_gauss", "gauss_panel"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_REL_TOL = 1e-10
_MAX_PANELS = 2 ** 14


def gauss_panel(f, a, b):
    """16-point Gauss-Legendre estimate of the integral of f over [a, b].

    a and b are scalars, giving one float, or equal-length arrays of panel
    ends, giving a list of floats, one per panel.  Either way f is called once,
    on an array with one row of 16 nodes per panel.
    """
    lo = np.array(a, dtype=float, ndmin=1)
    hi = np.array(b, dtype=float, ndmin=1)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rows = f(mid[:, None] + half[:, None] * _NODES)
    estimates = [h * float(np.dot(_WEIGHTS, row)) for h, row in zip(half.tolist(), rows)]
    return estimates if np.ndim(a) else estimates[0]


def adaptive_gauss(f, a: float, b: float) -> float:
    """Integrate the vectorized integrand f over [a, b] to relative tolerance 1e-10.

    f is called once for the whole interval and then once per refinement
    level.  Raises QuadratureError if the budget of 2^14 panels is exhausted
    before every panel meets tolerance.
    """
    whole = gauss_panel(f, a, b)
    floor = abs(whole) * _REL_TOL / 256.0
    level = [(a, b, whole)]  # panels under test: start, end, estimate
    accepted = []  # (start, sum of the halves) of every panel that passed
    used = 1
    while level:
        starts, ends, coarse = zip(*level)
        mids = tuple(0.5 * (a0 + b0) for a0, b0 in zip(starts, ends))
        halves = gauss_panel(f, starts + mids, mids + ends)
        level = []
        for a0, mid, b0, estimate, left, right in zip(starts, mids, ends, coarse, halves, halves[len(mids):]):
            refined = left + right
            if abs(refined - estimate) <= max(_REL_TOL * abs(refined), floor):
                accepted.append((a0, refined))
            else:
                level += [(a0, mid, left), (mid, b0, right)]
        used += len(level)
        if used > _MAX_PANELS:
            raise QuadratureError(
                f"adaptive quadrature exceeded {_MAX_PANELS} panels on [{a:g}, {b:g}]"
            )
    # Accepted panels are disjoint and of nonzero width (a panel too narrow
    # to bisect passes, its one real half being itself), so their starts are
    # distinct.  A depth-first stack pops the second half first: descending
    # start for a < b, ascending for a > b.
    accepted.sort(reverse=a < b)
    total = 0.0
    for _, refined in accepted:
        total += refined
    return total
