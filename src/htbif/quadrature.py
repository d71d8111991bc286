"""Adaptive panel Gauss-Legendre quadrature of a batch of integrals, and
Simpson's rule on sampled profiles.

Panels are bisected until the 16-point estimate of a panel agrees with the
sum over its two halves.  Acceptance uses the panel-relative tolerance with a
small floor tied to the integral's whole-interval estimate so that rounding
noise in nearly converged panels cannot force unbounded splitting.

Whether a panel is accepted depends on that panel alone, so the panels of
every integral in the batch are refined level by level together: the first
integrand call evaluates each interval whole and both of its halves, and each
later call evaluates the halves of every panel, of any integral, that the
level before failed, one row of nodes per panel.  Each integral's result is
bit-identical to depth-first refinement of that integral alone, because each
estimate is its own dot product of the weights with its own row (a
matrix-vector product sums in another order), and because an integral's
accepted panels are summed in the order a depth-first stack pops them, which
is descending panel start (ascending when a > b).
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_gauss", "gauss_panel", "simpson"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_REL_TOL = 1e-10
_MAX_PANELS = 2 ** 14


def gauss_panel(f, a, b, which) -> list[float]:
    """16-point Gauss-Legendre estimates over the panels [a_k, b_k], a list of floats.

    f is called once, as f(x, which): x holds one row of 16 nodes per panel,
    and the integer array which holds, per row, the index of the integral
    that panel belongs to.
    """
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rows = f(mid[:, None] + half[:, None] * _NODES, np.asarray(which))
    return [h * float(np.dot(_WEIGHTS, row)) for h, row in zip(half.tolist(), rows)]


def adaptive_gauss(f, a, b) -> list[float]:
    """Integrals of the vectorized integrand f over each [a_k, b_k], each to
    relative tolerance 1e-10, as a list of floats.

    f is called as in gauss_panel: once for every interval whole and halved,
    and then once per refinement level.  Raises QuadratureError, naming the
    interval, if an integral exhausts its budget of 2^14 panels before every
    one of its panels meets tolerance.
    """
    m = len(a)
    mids = [0.5 * (a0 + b0) for a0, b0 in zip(a, b)]
    estimates = gauss_panel(f, [*a, *a, *mids], [*b, *mids, *b], list(range(m)) * 3)
    floors = [abs(whole) * _REL_TOL / 256.0 for whole in estimates[:m]]
    used = [1] * m
    accepted = [[] for _ in range(m)]  # (start, sum of the halves) of every panel that passed
    level = list(zip(range(m), a, mids, b, estimates))  # panels under test: integral, start, mid, end, estimate
    halves = estimates[m:]  # the left halves of the level's panels, then the right halves
    while level:
        tested, level = level, []
        for (k, a0, mid, b0, estimate), left, right in zip(tested, halves, halves[len(tested):]):
            refined = left + right
            if abs(refined - estimate) <= max(_REL_TOL * abs(refined), floors[k]):
                accepted[k].append((a0, refined))
                continue
            used[k] += 2
            if used[k] > _MAX_PANELS:
                raise QuadratureError(
                    f"adaptive quadrature exceeded {_MAX_PANELS} panels on [{a[k]:g}, {b[k]:g}]"
                )
            level += [(k, a0, 0.5 * (a0 + mid), mid, left), (k, mid, 0.5 * (mid + b0), b0, right)]
        if level:
            ks, starts, mids, ends, _ = zip(*level)
            halves = gauss_panel(f, starts + mids, mids + ends, ks + ks)
    # An integral's accepted panels are disjoint and of nonzero width (a panel
    # too narrow to bisect passes, its one real half being itself), so their
    # starts are distinct.  A depth-first stack pops the second half first:
    # descending start for a < b, ascending for a > b.
    totals = []
    for a0, b0, panels in zip(a, b, accepted):
        panels.sort(reverse=a0 < b0)
        total = 0.0
        for _, refined in panels:
            total += refined
        totals.append(total)
    return totals


def simpson(y, x) -> float:
    """Composite Simpson's rule for the samples y at the strictly ascending
    nodes x, an odd number of them (as on every Profile grid).

    The rule for unequal spacings h0, h1 of each pair of cells, summed as
    scipy.integrate.simpson sums it, so the two agree bit for bit.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float))
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    terms = hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / ratio) + y[1::2] * (hsum * (hsum / hprod)) + y[2::2] * (2.0 - ratio)
    )
    return float(np.sum(terms))
