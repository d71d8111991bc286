"""Eigencurves of the linearization at the constant state, their real roots,
mode thresholds in mu, the mode windows, the Morse index of the constant
state, and the closed forms of the branch expansion at the window ends.

The linearization at w0 has the explicit eigenvalue curves

    tau0(ell, lam) = (d/(b*mu)) lam^2 - lam + (ell*pi)^2,

quadratics in lam whose real roots lam_ell^- <= lam_ell^+ open the existence
windows of ell-crossing solutions.  Roots are real exactly when mu reaches
the threshold mu_ell = (d/b)(2 ell pi)^2; the window is open once mu exceeds
it.  This module is the one place that decides, through model.whole,
whether n is a crossing count; it also decides which windows are open
(mode_windows), whether a window holds a lam (window_holds) and how a
window is swept (window_lambdas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, NoSolutionError
from .model import ModelParams, Profile, grid_points, whole

__all__ = [
    "EigencurveRoot",
    "eigencurve_table",
    "eta2_closed_form",
    "lambda_roots",
    "mode_windows",
    "morse_index_w0",
    "mu_threshold",
    "tau0",
    "window_holds",
    "window_lambdas",
    "y1_closed_form",
]

MAX_MODES = 100_000  # most modes a table or a Morse count runs over


@dataclass(frozen=True)
class EigencurveRoot:
    """Real roots of one eigencurve; NaN lambdas when the pair is complex."""

    ell: int
    mu: float
    lambda_minus: float
    lambda_plus: float
    is_real: bool


def _require_mu(p: ModelParams) -> None:
    if not p.mu > 0.0:
        raise DomainError(f"eigencurves require mu > 0, got mu = {p.mu!r}")


def tau0(ell: int, lam: float, p: ModelParams) -> float:
    """Eigencurve value (d/(b*mu)) lam^2 - lam + (ell*pi)^2."""
    ell = whole(ell, 0, "mode number")
    _require_mu(p)
    return (p.d / (p.b * p.mu)) * lam * lam - lam + (ell * math.pi) ** 2


def mu_threshold(kappa: int, p: ModelParams) -> float:
    """Threshold mu_kappa = (d/b)(2 kappa pi)^2 where the kappa-th root pair turns real."""
    kappa = whole(kappa, 0, "mode number")
    return (p.d / p.b) * (2.0 * kappa * math.pi) ** 2


def _disc(ell: int, p: ModelParams) -> float:
    """Scaled discriminant 1 - 4 (ell pi)^2 / (b mu/d) of tau0(ell, .), the one
    spelling that both the roots and the transversality at them read."""
    return 1.0 - 4.0 * (ell * math.pi) ** 2 / p.bmu_over_d


def lambda_roots(ell: int, p: ModelParams) -> EigencurveRoot:
    """Real roots of tau0(ell, .), or is_real=False when they are complex.

    The minus root is computed in conjugate form 2(ell*pi)^2 / (1 + sqrt(disc))
    to avoid cancellation for large mu; Vieta then gives
    sum = b*mu/d and product = (b*mu/d)(ell*pi)^2.
    """
    ell = whole(ell, 0, "mode number")
    _require_mu(p)
    bmu_d = p.bmu_over_d
    disc = _disc(ell, p)
    if disc < 0.0:
        return EigencurveRoot(ell, p.mu, math.nan, math.nan, False)
    if disc == 0.0:
        double = 0.5 * bmu_d
        return EigencurveRoot(ell, p.mu, double, double, True)
    s = math.sqrt(disc)
    lam_plus = 0.5 * bmu_d * (1.0 + s)
    lam_minus = 2.0 * (ell * math.pi) ** 2 / (1.0 + s)
    return EigencurveRoot(ell, p.mu, lam_minus, lam_plus, True)


def _open_window(ell: int, p: ModelParams) -> EigencurveRoot | None:
    """The mode-ell root pair if its window is open: mu exceeds mu_ell and the
    pair is simple (at mu = mu_ell it is a double root and holds no lam)."""
    if not p.mu > mu_threshold(ell, p):
        return None
    root = lambda_roots(ell, p)
    if not root.is_real or root.lambda_minus == root.lambda_plus:
        return None
    return root


def mode_windows(p: ModelParams) -> list[EigencurveRoot]:
    """Open root windows (lam_n^-, lam_n^+) of modes n = 1, 2, ... at p.mu.

    The thresholds mu_n grow with n, so the windows open in order; more than
    MAX_MODES of them (mu > mu_{MAX_MODES + 1}) is a DomainError, raised
    before the walk, with the closed-form count sqrt(b mu/d)/(2 pi)."""
    if _open_window(MAX_MODES + 1, p) is not None:
        count = math.sqrt(p.bmu_over_d) / (2.0 * math.pi)
        raise DomainError(
            f"about {count:g} open mode windows at mu = {p.mu:g} exceed the cap of {MAX_MODES} modes"
        )
    windows: list[EigencurveRoot] = []
    root = _open_window(1, p)
    while root is not None:
        windows.append(root)
        root = _open_window(root.ell + 1, p)
    return windows


def window_holds(n: int, p: ModelParams) -> bool:
    """True when the open mode-n window holds p.lam: lam_n^- < lam < lam_n^+
    on a window that mode_windows lists.  DomainError unless n is a
    crossing count, an integer >= 1."""
    root = _open_window(whole(n, 1, "crossing count"), p)
    return root is not None and root.lambda_minus < p.lam < root.lambda_plus


def window_lambdas(n: int, p: ModelParams, count: int) -> list[float]:
    """count interior points lam_j = lo + (j+1)(hi-lo)/(count+1) of the mode-n
    window (lo, hi); DomainError unless n and count are integers >= 1,
    NoSolutionError when that window is closed."""
    n = whole(n, 1, "crossing count")
    count = whole(count, 1, "lam sample count")
    root = _open_window(n, p)
    if root is None:
        raise NoSolutionError(f"mode {n} has no real root window at mu = {p.mu:g}")
    lo, hi = root.lambda_minus, root.lambda_plus
    return [lo + (j + 1) * (hi - lo) / (count + 1) for j in range(count)]


def default_ell_max(p: ModelParams) -> int:
    """Smallest safe mode cutoff: tau0 is positive for all modes beyond it."""
    _require_mu(p)
    return int(math.ceil(math.sqrt(p.bmu_over_d) / math.pi)) + 2


def _modes(ell_max: int) -> range:
    """Modes 0..ell_max; DomainError when they are more than MAX_MODES."""
    if ell_max + 1 > MAX_MODES:
        raise DomainError(f"{ell_max + 1:g} modes (0..ell_max) exceed the cap of {MAX_MODES} modes")
    return range(ell_max + 1)


def morse_index_w0(lam: float, p: ModelParams) -> int:
    """Number of negative eigenvalues of the linearization at the constant state."""
    _require_mu(p)
    hi = p.bmu_over_d
    if not 0.0 < lam < hi:
        raise DomainError(f"Morse index of w0 needs lam in (0, {hi:g}); got lam = {lam!r}")
    return sum(1 for ell in _modes(default_ell_max(p)) if tau0(ell, lam, p) < 0.0)


def eigencurve_table(p: ModelParams, ell_max: int | None = None) -> list[EigencurveRoot]:
    """Root pairs for modes 0..ell_max (export helper), at most MAX_MODES of them."""
    if ell_max is None:
        ell_max = default_ell_max(p)
    return [lambda_roots(ell, p) for ell in _modes(whole(ell_max, 0, "mode number"))]


def _side_root(n: int, side: str, p: ModelParams) -> tuple[int, float, float]:
    """(n, lam_n^side, d tau/d lam there); the derivative is +/- sqrt(disc),
    zero exactly where lambda_roots returns a double root."""
    if side not in ("minus", "plus"):
        raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")
    n = whole(n, 1, "crossing count")
    root = lambda_roots(n, p)
    if not root.is_real:
        raise DomainError(f"mode {n} roots are complex at mu = {p.mu:g} (below the threshold)")
    s = math.sqrt(_disc(n, p))
    if side == "minus":
        return n, root.lambda_minus, -s
    return n, root.lambda_plus, s


def y1_closed_form(n: int, side: str, p: ModelParams, n_points: int = 2001) -> Profile:
    """First profile correction of the branch expansion,
    (lam/2) (d lam/(n pi b mu))^2 [cos(2 n pi x)/3 - 1] at lam = lam_n^side.

    Orthogonal to the kernel mode cos(n pi x) by construction.
    """
    n, lam, _ = _side_root(n, side, p)
    x = np.linspace(0.0, 1.0, grid_points(n_points))
    coef = 0.5 * lam * (p.d * lam / (n * math.pi * p.b * p.mu)) ** 2
    return Profile(coef * (np.cos(2.0 * n * math.pi * x) / 3.0 - 1.0))


def eta2_closed_form(n: int, side: str, p: ModelParams) -> float:
    """Quadratic coefficient of lam(s) at lam_n^side, from the kernel projection.

    With r = d lam/(b mu) and the two exact integrals
    int cos^2(n pi x) y1 = -(5 lam/24)(r/(n pi))^2 and int cos^4 = 3/8,

        eta2 = 2 [2 lam r^2 int(cos^2 y1) - (3/8) lam r^3] / (d tau0/d lam).

    The sign is opposite to the side: positive at the minus root, negative at
    the plus root (branches open into the window).  Degenerate exactly where
    lambda_roots returns a double root (the mode threshold, up to rounding) and
    the derivative vanishes, a window that mode_windows never lists.
    """
    n, lam, taudot = _side_root(n, side, p)
    if taudot == 0.0:
        raise DegenerateError(
            f"eta2 undefined at mu = mu_{n} = {mu_threshold(n, p):g}: double root, zero transversality"
        )
    r = p.d * lam / (p.b * p.mu)
    int_phi2_y1 = -(5.0 * lam / 24.0) * (r / (n * math.pi)) ** 2
    rhs = 2.0 * lam * r * r * int_phi2_y1 - lam * r ** 3 * (3.0 / 8.0)
    return 2.0 * rhs / taudot
