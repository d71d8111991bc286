"""Sturm-Liouville spectra of the linearizations at constant and nodal
solutions, Morse indices, detection of degenerate parameter values, and
verification of the local branch expansion at the bifurcation points.

The linearization at a solution w of the limit problem is the Neumann
operator -D^2 + V with potential V(x) = -lam + (b mu/d)/(1 + w(x))^2.  It is
discretized by centered second differences with mirror ghost nodes; a
half-weight diagonal similarity restores symmetry, so the discrete operator
is a symmetric tridiagonal matrix.  Its O(h^2) eigenvalue error grows like
(k pi)^4 h^2/12 with the mode k; sturm_spectrum adds back the V-free part
(Paine, de Hoog & Anderssen), so Morse counts hold near window ends.

Near a bifurcation point lam_n^(+/-) the branch admits the expansion

    lam(s) = lam_n +/- eta1 s + eta2 s^2 + O(s^3),
    u(s)   = s [cos(n pi x) + y1 s + O(s^2)],

with eta1 = 0, closed-form y1, and eta2 from projecting the second-order
terms onto the kernel mode (both closed forms live in spectral).
fit_expansion recovers eta1, eta2 and y1 from computed solutions and
compares them against the closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ConvergenceError,
    DegeneracyWarning,
    DomainError,
    InsufficientDataError,
    IntegrationError,
    NoSolutionError,
)
from .model import ModelParams, Profile, w0_const
from .nodal import NodalSolution, integrate_cauchy, nodal_pair, solve_amplitude
from .spectral import eta2_closed_form, lambda_roots, window_lambdas, y1_closed_form

__all__ = [
    "ExpansionCheck",
    "Spectrum",
    "degeneracy_tolerance",
    "detect_singular_set",
    "fit_expansion",
    "morse_index_nodal",
    "neumann_tridiagonal",
    "nodal_potential",
    "sturm_count_below",
    "sturm_spectrum",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Lowest eigenvalues of -D^2 + V(x) with no-flux conditions.

    ``eigenvalues`` carry the asymptotic correction of sturm_spectrum;
    ``eigenfunctions`` holds the corresponding discrete eigenvectors
    (columns, sup-normalized); ``morse_index`` counts every negative
    corrected eigenvalue, not only the computed ones.
    """

    eigenvalues: np.ndarray
    potential: Profile
    n_points: int
    morse_index: int
    eigenfunctions: np.ndarray


@dataclass(frozen=True)
class ExpansionCheck:
    """Fitted branch expansion near lam_n^(side) against the closed forms."""

    n: int
    side: str
    eta1_estimate: float
    eta2_estimate: float
    eta2_closed_form: float
    y1_l2_error: float


def degeneracy_tolerance(lam: float) -> float:
    return 1e-6 * (1.0 + abs(lam))


def neumann_tridiagonal(V: Profile):
    """Symmetric tridiagonal (diag, offdiag) for -D^2 + V with mirror ghosts.

    The ghost closure doubles the boundary off-diagonal entries; the diagonal
    similarity with weights (1/sqrt 2, 1, ..., 1, 1/sqrt 2) symmetrizes them
    to -sqrt(2)/h^2 without changing the spectrum.  A ghost-closure system
    A x = r is therefore solved by scaling the end entries of r by 1/sqrt 2,
    solving with this matrix, and scaling the end entries back by sqrt 2.
    """
    n = V.n_points
    inv_h2 = 1.0 / (V.h * V.h)
    diag = 2.0 * inv_h2 + V.values
    off = np.full(n - 1, -inv_h2)
    off[0] = -math.sqrt(2.0) * inv_h2
    off[-1] = -math.sqrt(2.0) * inv_h2
    return diag, off


def sturm_count_below(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below sigma.

    Classic Sturm sequence: the count of negative pivots of the shifted
    LDL^T factorization equals the count of eigenvalues < sigma.  An exactly
    zero pivot is nudged negative, so eigenvalues equal to sigma count as
    below it.
    """
    count = 0
    n = diag.size
    q = diag[0] - sigma
    for i in range(n):
        if q == 0.0:
            q = -1e-300
        if q < 0.0:
            count += 1
        if i + 1 < n:
            q = (diag[i + 1] - sigma) - off[i] * off[i] / q
    return count


def sturm_spectrum(V: Profile, m: int) -> Spectrum:
    """Lowest m corrected eigenvalues and eigenfunctions of -D^2 + V(x), Neumann.

    The k-th (0-based) eigenvalue gains (k pi)^2 - (4/h^2) sin^2(k pi h/2),
    its exact-minus-discrete value at V = 0 (Paine, de Hoog & Anderssen).  The
    correction is never negative, so the Morse index counts the negative
    values among the lowest (raw Sturm count) corrected eigenvalues.
    """
    if int(m) != m or m < 1:
        raise DomainError(f"need m >= 1 eigenvalues, got {m!r}")
    m = int(m)
    if m > V.n_points:
        raise DomainError(f"m = {m} exceeds the {V.n_points}-point discretization size")
    diag, off = neumann_tridiagonal(V)
    raw = sturm_count_below(diag, off, 0.0)
    try:
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, max(m, raw) - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - symmetric tridiagonal
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    k_pi = math.pi * np.arange(vals.size)
    vals = vals + (k_pi ** 2 - (4.0 / V.h ** 2) * np.sin(0.5 * V.h * k_pi) ** 2)
    morse = int(np.count_nonzero(vals[:raw] < 0.0))
    # undo the symmetrizing similarity, then sup-normalize with positive start
    vecs = vecs[:, :m].copy()
    vecs[0, :] *= math.sqrt(2.0)
    vecs[-1, :] *= math.sqrt(2.0)
    peaks = np.max(np.abs(vecs), axis=0)
    signs = np.where(vecs[0, :] >= 0.0, 1.0, -1.0)
    vecs = vecs * (signs / peaks)
    return Spectrum(vals[:m], V, V.n_points, morse, vecs)


def nodal_potential(w: Profile, p: ModelParams) -> Profile:
    """Linearization potential V(x) = -lam + (b mu/d)/(1 + w(x))^2."""
    return Profile(-p.lam + p.bmu_over_d / (1.0 + w.values) ** 2)


def morse_index_nodal(sol: NodalSolution, p: ModelParams, m: int | None = None) -> int:
    """Negative-eigenvalue count of the linearization at an n-crossing solution.

    Warns (DegeneracyWarning) when either of the eigenvalues flanking zero,
    tau_{n,n-1} or tau_{n,n}, sits within the degeneracy tolerance: such lam
    are candidates for the finite singular set inside the window.
    """
    if m is None:
        m = sol.n + 3
    spec = sturm_spectrum(nodal_potential(sol.profile, p), m)
    tol = degeneracy_tolerance(p.lam)
    lo = float(spec.eigenvalues[sol.n - 1])
    hi = float(spec.eigenvalues[sol.n])
    if abs(lo) < tol or abs(hi) < tol:
        warnings.warn(
            f"near-zero linearization eigenvalue at lam = {p.lam:g} "
            f"(tau_low = {lo:g}, tau_high = {hi:g})",
            DegeneracyWarning,
            stacklevel=2,
        )
    return spec.morse_index


def detect_singular_set(n: int, p: ModelParams, n_lambda: int = 80, n_points: int = 2001) -> list[float]:
    """lam values in the open window where tau_{n,n-1} or tau_{n,n} crosses
    or touches zero along the branch, within grid resolution.

    Scanned on the lower branch; the shifted companion has the same spectrum
    because its potential is the same even periodic extension sampled with a
    phase shift.  An empty list is a valid (and expected) outcome.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"crossing count must be an integer >= 1, got {n!r}")
    n = int(n)
    lams: list[float] = []
    tau_pair: list[tuple[float, float]] = []
    for lam in window_lambdas(n, p, n_lambda):
        q = p.with_lam(lam)
        try:
            w = integrate_cauchy(solve_amplitude(n, q), q, n_points)
            spec = sturm_spectrum(nodal_potential(w, q), n + 1)
        except (NoSolutionError, ConvergenceError, IntegrationError):
            continue
        lams.append(lam)
        tau_pair.append((float(spec.eigenvalues[n - 1]), float(spec.eigenvalues[n])))

    found: list[float] = []
    for k in range(2):
        taus = np.asarray([t[k] for t in tau_pair])
        grid = np.asarray(lams)
        flips = np.nonzero(np.sign(taus[:-1]) * np.sign(taus[1:]) < 0.0)[0]
        found.extend(0.5 * (grid[i] + grid[i + 1]) for i in flips)
        tol = np.asarray([degeneracy_tolerance(l) for l in grid])
        small = np.abs(taus) < tol
        for i in np.nonzero(small)[0]:
            left = taus[i - 1] if i > 0 else None
            right = taus[i + 1] if i + 1 < taus.size else None
            is_local_min = (left is None or abs(taus[i]) <= abs(left)) and (
                right is None or abs(taus[i]) <= abs(right)
            )
            if is_local_min:
                found.append(float(grid[i]))
    if not found:
        return []
    found.sort()
    root = lambda_roots(n, p)
    resolution = (root.lambda_plus - root.lambda_minus) / (n_lambda + 1)
    merged = [found[0]]
    for lam in found[1:]:
        if lam - merged[-1] > resolution:
            merged.append(lam)
    return merged


_DEFAULT_LADDER = tuple(0.005 * k for k in range(1, 11))


def fit_expansion(
    n: int,
    side: str,
    p: ModelParams,
    n_points: int = 2001,
    s_ladder: tuple = _DEFAULT_LADDER,
) -> ExpansionCheck:
    """Recover eta1, eta2 and y1 from computed solutions near lam_n^side.

    For each target amplitude s the window point lam = lam_side + eta2 s^2 is
    solved for its solution pair; the signed amplitude is then re-estimated
    by projection, s_est = 2 int (w - w0) cos(n pi x) dx, which is exact to
    O(s^4) because every correction term is orthogonal to the kernel mode.
    A least-squares fit of lam(s_est) (intercept pinned at lam_side, cubic
    term as nuisance) yields the eta estimates; the y1 mismatch is the
    relative L2 error of the second-order remainder at the ladder point
    nearest s = 0.02, averaged over the two signed branches so the O(s)
    remainder cancels.
    """
    n = int(n)
    eta2_cf = eta2_closed_form(n, side, p)  # validates n and side
    root = lambda_roots(n, p)
    lam_side = root.lambda_minus if side == "minus" else root.lambda_plus

    x = np.linspace(0.0, 1.0, int(n_points))
    phi = np.cos(n * math.pi * x)
    y1_ref = y1_closed_form(n, side, p, n_points).values

    s_values: list[float] = []
    lam_values: list[float] = []
    remainders: dict[float, np.ndarray] = {}
    converged_points = 0
    for s in s_ladder:
        lam = lam_side + eta2_cf * s * s
        if not root.lambda_minus < lam < root.lambda_plus:
            continue
        q = p.with_lam(lam)
        try:
            lower, upper = nodal_pair(n, q, int(n_points))
        except (NoSolutionError, ConvergenceError, IntegrationError):
            continue
        converged_points += 1
        w0 = w0_const(q)
        rem_pair = []
        for sol in (lower, upper):
            u = sol.profile.values - w0
            s_est = 2.0 * float(simpson(u * phi, x=x))
            s_values.append(s_est)
            lam_values.append(lam)
            rem_pair.append((u - s_est * phi) / (s_est * s_est))
        remainders[s] = 0.5 * (rem_pair[0] + rem_pair[1])

    if converged_points < 5:
        raise InsufficientDataError(
            f"only {converged_points} ladder points converged near lam_{n}^{side}; need 5"
        )

    s_arr = np.asarray(s_values)
    dl = np.asarray(lam_values) - lam_side
    design = np.column_stack([s_arr, s_arr ** 2, s_arr ** 3])
    coef, *_ = np.linalg.lstsq(design, dl, rcond=None)
    eta1_est, eta2_est = float(coef[0]), float(coef[1])

    s_probe = min(remainders, key=lambda s: abs(s - 0.02))
    diff = remainders[s_probe] - y1_ref
    l2 = math.sqrt(float(simpson(diff * diff, x=x)))
    l2_ref = math.sqrt(float(simpson(y1_ref * y1_ref, x=x)))
    return ExpansionCheck(n, side, eta1_est, eta2_est, eta2_cf, l2 / l2_ref)
