"""Sturm-Liouville spectra of the linearizations at constant and nodal
solutions, Morse indices, the degeneracy test, and verification of the
local branch expansion at the bifurcation points.

The linearization at a solution w of the limit problem is the Neumann
operator -D^2 + V with potential V(x) = -lam + (b mu/d)/(1 + w(x))^2.  It is
discretized by centered second differences with mirror ghost nodes; a
half-weight diagonal similarity restores symmetry, so the discrete operator
is a symmetric tridiagonal matrix.  Its O(h^2) eigenvalue error grows like
(k pi)^4 h^2/12 with the mode k; every eigenvalue here, from LAPACK alone,
gets back the V-free part (Paine, de Hoog & Anderssen), so Morse counts and
the degeneracy test hold near window ends.

A potential that reads the same reversed, such as both members of an
even-n pair and every constant state, makes the tridiagonal commute with the
reversal of the grid.  Its eigenvectors are then even or odd about x = 1/2,
and the matrix splits exactly into an even and an odd block of half size
whose values interlace; both are solved in place of the whole matrix.

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
from scipy.linalg import eigvalsh_tridiagonal

from .errors import (
    ConvergenceError,
    DegenerateError,
    DegeneracyWarning,
    DomainError,
    InsufficientDataError,
    IntegrationError,
    NoSolutionError,
)
from .model import ModelParams, Profile, grid_points, w0_const, whole
from .nodal import NodalSolution, nodal_pair
from .quadrature import simpson
from .spectral import eta2_closed_form, lambda_roots, window_holds, y1_closed_form

__all__ = [
    "ExpansionCheck",
    "Spectrum",
    "assert_nondegenerate",
    "degeneracy_tolerance",
    "fit_expansion",
    "morse_index_nodal",
    "neumann_tridiagonal",
    "nodal_potential",
    "sturm_spectrum",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Lowest eigenvalues of -D^2 + V(x) with no-flux conditions.

    ``eigenvalues`` ascend strictly and carry the asymptotic correction of
    sturm_spectrum; ``morse_index`` counts every negative corrected
    eigenvalue, not only the returned ones.
    """

    eigenvalues: np.ndarray
    morse_index: int


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


def assert_nondegenerate(w: Profile, p: ModelParams, label: str = "state") -> None:
    """Raise DegenerateError when the linearization at w has a corrected
    eigenvalue within the degeneracy tolerance of zero; the correction is never
    negative, so only eigenvalues whose raw value lies below +tol can qualify."""
    tol = degeneracy_tolerance(p.lam)
    vals = _corrected_eigenvalues(nodal_potential(w, p), select="v", select_range=(-np.inf, tol))
    if np.any(np.abs(vals) < tol):
        raise DegenerateError(
            f"{label}: linearization has an eigenvalue within {tol:g} of zero at lam = {p.lam:g}"
        )


def neumann_tridiagonal(V: Profile):
    """Symmetric tridiagonal (diag, offdiag) for -D^2 + V with mirror ghosts.

    The ghost closure doubles the boundary off-diagonal entries; the diagonal
    similarity with weights (1/sqrt 2, 1, ..., 1, 1/sqrt 2) symmetrizes them
    to -sqrt(2)/h^2 without changing the spectrum.
    """
    n = V.n_points
    inv_h2 = (n - 1.0) ** 2
    diag = 2.0 * inv_h2 + V.values
    off = np.full(n - 1, -inv_h2)
    off[0] = -math.sqrt(2.0) * inv_h2
    off[-1] = -math.sqrt(2.0) * inv_h2
    return diag, off


def _eigenvalues(diag, off, select="a", select_range=None) -> np.ndarray:
    try:
        return eigvalsh_tridiagonal(diag, off, select=select, select_range=select_range)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - symmetric tridiagonal
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc


def _corrected_eigenvalues(V: Profile, select="a", select_range=None) -> np.ndarray:
    """Corrected eigenvalues of -D^2 + V, lowest first: all of them, the lowest
    m for select="i" over (0, m - 1), or those in a value range for select="v".

    A palindromic V (V[i] == V[N-1-i]; N = 2c + 1 is odd for every Profile)
    makes the tridiagonal T commute with the reversal, so T splits exactly
    into its even part, nodes 0..c with the coupling to the center node scaled
    by sqrt 2, and its odd part, nodes 0..c-1 with Dirichlet at the center
    (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  The odd block is the
    even block's leading principal submatrix, so their values interlace
    strictly and the k-th of T is the (k // 2)-th of the even block for even k
    and of the odd block for odd k: the lowest m are the lowest ceil(m/2) even
    and floor(m/2) odd values.  Both blocks are half the size of T; any other
    V takes one call on T.

    The k-th (0-based) gains (k pi)^2 - (4/h^2) sin^2(k pi h/2), the exact
    minus the discrete value at V = 0 (Paine, de Hoog & Anderssen); that never
    falls with k, so the corrected values ascend strictly like the raw ones.
    """
    diag, off = neumann_tridiagonal(V)
    if not np.array_equal(V.values, V.values[::-1]):
        vals = _eigenvalues(diag, off, select, select_range)
    else:
        c = V.n_points // 2
        even_off = off[:c].copy()
        even_off[-1] *= math.sqrt(2.0)
        even_range = odd_range = select_range
        if select == "i":
            m = select_range[1] + 1
            even_range, odd_range = (0, (m - 1) // 2), (0, m // 2 - 1)
        parts = [_eigenvalues(diag[: c + 1], even_off, select, even_range)]
        if select != "i" or m > 1:
            parts.append(_eigenvalues(diag[:c], off[: c - 1], select, odd_range))
        vals = np.sort(np.concatenate(parts))
    k_pi = math.pi * np.arange(vals.size)
    return vals + (k_pi ** 2 - 4.0 * (V.n_points - 1.0) ** 2 * np.sin(0.5 * V.h * k_pi) ** 2)


def sturm_spectrum(V: Profile, m: int) -> Spectrum:
    """Lowest m corrected eigenvalues of -D^2 + V(x), Neumann, and the Morse index.

    When the m-th is negative the count runs past m, and values and count come
    from one whole-spectrum call: LAPACK values are good to about ulp ||T||
    by bisection and to a few ulp ||T|| over the whole spectrum, ||T|| the
    largest absolute row sum of the whole tridiagonal (about 4.4/h^2 + max |V|,
    so ulp ||T|| is 4e-9 at 2001 points); two calls never share one decision
    near zero.  The blocks of a palindromic V are T restricted to
    invariant subspaces, so their norms are no larger than ||T||.
    """
    m = whole(m, 1, "eigenvalue count m")
    if m > V.n_points:
        raise DomainError(f"m = {m} exceeds the {V.n_points}-point discretization size")
    vals = _corrected_eigenvalues(V, select="i", select_range=(0, m - 1))
    if vals[-1] < 0.0:
        vals = _corrected_eigenvalues(V)
    return Spectrum(vals[:m], int(np.count_nonzero(vals < 0.0)))


def nodal_potential(w: Profile, p: ModelParams) -> Profile:
    """Linearization potential V(x) = -lam + (b mu/d)/(1 + w(x))^2."""
    return Profile(-p.lam + p.bmu_over_d / (1.0 + w.values) ** 2)


def morse_index_nodal(sol: NodalSolution, p: ModelParams) -> int:
    """Negative-eigenvalue count of the linearization at an n-crossing solution.

    Warns (DegeneracyWarning) when either of the eigenvalues flanking zero,
    tau_{n,n-1} or tau_{n,n}, sits within the degeneracy tolerance: such lam
    are candidates for the finite singular set inside the window.
    """
    spec = sturm_spectrum(nodal_potential(sol.profile, p), sol.n + 1)
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


def fit_expansion(n: int, side: str, p: ModelParams, n_points: int = 2001) -> ExpansionCheck:
    """Recover eta1, eta2 and y1 from computed solutions near lam_n^side.

    For each target amplitude s = 0.005, 0.010, ..., 0.050 the window point
    lam = lam_side + eta2 s^2 is solved for its solution pair; the signed
    amplitude is then re-estimated by projection,
    s_est = 2 int (w - w0) cos(n pi x) dx, which is exact to O(s^4) because
    every correction term is orthogonal to the kernel mode.
    A least-squares fit of lam(s_est) (intercept pinned at lam_side, cubic
    term as nuisance) yields the eta estimates; the y1 mismatch is the
    relative L2 error of the second-order remainder at the ladder point
    nearest s = 0.02, averaged over the two signed branches so the O(s)
    remainder cancels.
    """
    eta2_cf = eta2_closed_form(n, side, p)  # validates n and side
    n = int(n)
    root = lambda_roots(n, p)
    lam_side = root.lambda_minus if side == "minus" else root.lambda_plus

    n_points = grid_points(n_points)
    x = np.linspace(0.0, 1.0, n_points)
    phi = np.cos(n * math.pi * x)
    y1_ref = y1_closed_form(n, side, p, n_points).values

    ladder = [(s, lam_side + eta2_cf * s * s) for s in (0.005 * k for k in range(1, 11))]
    if not all(math.isfinite(lam) and lam != lam_side for _, lam in ladder):
        raise DomainError(
            f"eta2 = {eta2_cf:g} at mu = {p.mu:g}: the ladder offsets eta2 s^2, s = 0.005 .. 0.05, "
            f"must be finite and move lam off lam_{n}^{side} = {lam_side:g}"
        )

    s_values: list[float] = []
    lam_values: list[float] = []
    remainders: dict[float, np.ndarray] = {}
    converged_points = 0
    for s, lam in ladder:
        q = p.with_lam(lam)
        if not window_holds(n, q):
            continue
        try:
            lower, upper = nodal_pair(n, q, n_points)
        except (NoSolutionError, ConvergenceError, IntegrationError):
            continue
        converged_points += 1
        w0 = w0_const(q)
        rem_pair = []
        for sol in (lower, upper):
            u = sol.profile.values - w0
            s_est = 2.0 * simpson(u * phi, x)
            s_values.append(s_est)
            lam_values.append(q.lam)
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
    l2 = math.sqrt(simpson(diff * diff, x))
    l2_ref = math.sqrt(simpson(y1_ref * y1_ref, x))
    return ExpansionCheck(n, side, eta1_est, eta2_est, eta2_cf, l2 / l2_ref)
