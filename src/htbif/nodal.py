"""Construction of the exact pairs of n-crossing positive solutions of the
limit problem by time-map inversion, an eighth-order Stormer/Adams march of
the half-period piece (one force evaluation per node), the shifted companion
solution, and the closed solution loops over the lam window.

An n-crossing solution exists iff n * T(w0) < 1; its starting amplitude is
the unique w_- in (0, w0) with n * T(w_-) = 1 (the time map is strictly
decreasing), solved in ln w_- on a bracket that the saddle law guarantees.
The orbit from (w_-, 0) is even about each turning time x = k/n, so one
half-period piece on [0, 1/n] carries the pair for every n: the lower
solution is its even periodic extension, the upper one (from the companion
turning point w_+) the same extension shifted by 1/n.  The piece is marched
once; one that closes too steeply for the joined profiles is refused.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError, IntegrationError, NoSolutionError
from .model import ModelParams, Profile, grid_points, kinetic_f, potential_F, w0_const
from .spectral import eta2_closed_form, lambda_roots, mode_windows, mu_threshold, window_holds, window_lambdas
from .timemap import PhasePlane

__all__ = [
    "LoopPoint",
    "NodalSolution",
    "SolutionSet",
    "bvp_residual",
    "crossing_count",
    "enumerate_solutions",
    "nodal_pair",
    "solve_amplitude",
    "trace_loop",
]

_N_POINTS = 2001  # default grid of the profiles this module returns
_RK_SUBSTEPS = 8  # Nystrom substeps per grid cell in the march's start-up intervals
# ordinate weights of the explicit 8-step rules for w'' = a(w), newest force
# first: Stormer's for the second difference of w (from the generating
# function t^2/((1-t) log^2(1-t))) and Adams-Bashforth's for the increment of
# z = w' (from t/((1-t)(-log(1-t)))); each row sums to its denominator
_STORMER = (88324, -121797, 245598, -300227, 236568, -117051, 33190, -4125)
_STORMER_DENOMINATOR = 60480
_ADAMS = (434241, -1152169, 2183877, -2664477, 2102243, -1041723, 295767, -36799)
_ADAMS_DENOMINATOR = 120960
_ENERGY_DRIFT_TOL = 1e-9
_NEUMANN_TOL = 1e-8
_ODE_RESIDUAL_TOL = 1e-7
_AMPLITUDE_TOL = 1e-10  # |n T(w_-) - 1| bound of the amplitude solve
_LOG_TINY = math.log(sys.float_info.min)  # lowest ln w_- the amplitude solve tries


@dataclass(frozen=True, eq=False)
class NodalSolution:
    """One n-crossing positive solution with its construction diagnostics."""

    n: int
    branch: str  # "lower" (profile(0) < w0) or "upper" (profile(0) > w0)
    w_minus: float
    profile: Profile
    lam: float
    mu: float
    boundary_residual: float
    crossings: int


@dataclass(frozen=True)
class LoopPoint:
    """One lam sample of the closed loop of n-crossing solutions."""

    lam: float
    w_minus_lower: float
    sup_norm_lower: float
    sup_norm_upper: float


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """All positive solutions at one (lam, mu): the constant plus nodal pairs."""

    constant: Profile
    pairs: tuple

    @property
    def count(self) -> int:
        return 1 + 2 * len(self.pairs)

    def profiles(self) -> list[Profile]:
        out = [self.constant]
        for lower, upper in self.pairs:
            out.extend([lower.profile, upper.profile])
        return out


def solve_amplitude(n: int, p: ModelParams) -> float:
    """Unique starting value w_- in (0, w0) with n * T(w_-) = 1 to within
    1e-10, found by Brent's method in ln w_- against one PhasePlane context of p.

    Raises NoSolutionError outside the existence window, reporting which
    precondition failed (mu at or below the mode threshold, lam outside the
    open root window, or a window too thin for the time map to resolve).
    """
    plane = PhasePlane(p)  # validates the phase-plane domain first
    return _invert_time_map(_existing_mode(n, p), plane)


def _existing_mode(n, p: ModelParams) -> int:
    """n as an int, once the n-crossing existence window is known to hold lam."""
    holds = window_holds(n, p)  # validates n
    n = int(n)
    if not holds:
        mu_n = mu_threshold(n, p)
        if p.mu <= mu_n:
            raise NoSolutionError(
                f"no {n}-crossing solution: mu = {p.mu:g} <= mu_{n} = {mu_n:g} (mode threshold not reached)"
            )
        root = lambda_roots(n, p)
        raise NoSolutionError(
            f"no {n}-crossing solution: lam = {p.lam:g} outside the window "
            f"({root.lambda_minus:g}, {root.lambda_plus:g})"
        )
    return n


def _invert_time_map(n: int, plane: PhasePlane) -> float:
    """Brent's method for n T(e^s) = 1 in s = ln w_- on the bracket
    [ln w0 - k/n - 1, ln w0 + log1p(-1e-10)], k = sqrt(b mu/d - lam).

    Inside the window n T_c < 1 at the center, and T at the top is within
    rounding of T_c; a window too thin for that (n T >= 1 at the top, which
    Brent's method would return as the root) is refused as below numerical
    resolution.  The floor cannot miss: w - log1p(w) <= w^2/2 on (0, w0)
    gives F(w) >= -k^2 w^2/2, and F(w_-) < 0, so T(w_-) > ln(w0/w_-)/k and
    n T > 1 + n/k there.  Near the saddle T is almost linear in s (slope
    -1/k), so the root keeps full relative precision however small w_- is.
    The law is loose for large w0 (root e^-286, floor e^-765 at lam = 25,
    mu = 6e5), so the floor is raised to the smallest normal double at most.
    """
    p = plane.p
    k = math.sqrt(plane.bmu_d - p.lam)
    log_w0 = math.log(plane.w0)
    lo, hi = max(log_w0 - k / n - 1.0, _LOG_TINY), log_w0 + math.log1p(-1e-10)
    values = {}

    def h(s: float) -> float:
        if s not in values:
            values[s] = n * plane.time_map(math.exp(s)).T - 1.0
        return values[s]

    h_lo = h(lo)
    if h_lo <= 0.0 and lo == _LOG_TINY:
        raise DomainError(
            f"the {n}-crossing amplitude at lam = {p.lam:g}, mu = {p.mu:g} lies below the smallest positive "
            f"normal double {sys.float_info.min:g}: n*T = {h_lo + 1.0:g} <= 1 there already"
        )
    if h_lo <= 0.0:
        raise ConvergenceError(f"amplitude bracket failed: n*T = {h_lo + 1.0:g} <= 1 at the saddle-law floor")
    if h(hi) >= 0.0:
        raise NoSolutionError(
            f"no {n}-crossing solution: amplitude window is below numerical resolution at lam = {p.lam:g}"
        )
    root, info = brentq(
        h, lo, hi, xtol=2.0 * np.finfo(float).eps, rtol=4.0 * np.finfo(float).eps,
        maxiter=200, full_output=True, disp=False,
    )
    residual = abs(h(root))
    if not info.converged or residual >= _AMPLITUDE_TOL:
        raise ConvergenceError(f"amplitude solve stalled with |n*T - 1| = {residual:g} >= {_AMPLITUDE_TOL:g}")
    return math.exp(root)


def _integrate_wz(w_start: float, p: ModelParams, cells: int, n: int):
    """Fixed-step march of w'' = -f(w) from (w_start, 0) over [0, 1/n], the
    half-period piece of a grid of `cells` cells; returns node arrays
    (w, z = w') and g, the piece's node spacing in units of 1/(n cells).

    With g = gcd(n, cells), reflecting the grid's nodes onto [0, 1/n] lands
    on multiples of H = g/(n cells), so the piece has m = cells/g intervals
    of H.  Each interval past the seventh is one step of the explicit
    8-step Stormer rule for w and the 8-step Adams-Bashforth rule for z,
    both of order 8 (Hairer, Norsett & Wanner, Solving ODEs I, III.10 and
    III.1), at one evaluation of f.  The first min(m, 7) intervals start the
    march with the classical 3-stage, 4th-order Runge-Kutta-Nystrom step
    (II.14), ceil(8 g/n) substeps each, so no substep exceeds the grid's
    1/(8 cells).  The Stormer step carries the difference
    d = w_{i+1} - w_i (d += H^2 sum sigma_j a_j, w += d), starting from the
    last start-up interval's increments summed apart from w: a d re-formed
    from rounded nodes, as in w_{i+1} = 2 w_i - w_{i-1} + ..., is a velocity
    error of ulp(w)/H that z never sees.  When n divides the cells (g = n)
    the piece repeats the first cells/n + 1 nodes of the n = 1 run over
    [0, 1] bit for bit.  Plain-float inner loops."""
    g = math.gcd(n, cells)
    m = cells // g
    big_h = 1.0 / (n // g * cells)
    substeps = -(-_RK_SUBSTEPS * g // n)
    h = 1.0 / (n // g * cells * substeps)
    lam = p.lam
    bmu_d = p.bmu_over_d
    half_h, h_6 = 0.5 * h, h / 6.0
    hh_8, hh_2, hh_6 = h * h / 8.0, h * h / 2.0, h * h / 6.0
    w = float(w_start)
    z = 0.0
    ws = [w]
    zs = [z]
    start = min(m, len(_STORMER) - 1)
    for _ in range(start):
        d = 0.0  # the interval's w increment, summed without w's rounding
        for _ in range(substeps):
            hz = h * z
            k1 = bmu_d * w / (1.0 + w) - lam * w
            w2 = w + half_h * z + hh_8 * k1
            k2 = bmu_d * w2 / (1.0 + w2) - lam * w2
            w3 = w + hz + hh_2 * k2
            k3 = bmu_d * w3 / (1.0 + w3) - lam * w3
            dw = hz + hh_6 * (k1 + 2.0 * k2)
            d += dw
            w += dw
            z += h_6 * (k1 + 4.0 * k2 + k3)
        ws.append(w)
        zs.append(z)
    if start == m:
        return np.array(ws), np.array(zs), g
    hh = big_h * big_h / _STORMER_DENOMINATOR
    s0, s1, s2, s3, s4, s5, s6, s7 = (hh * c for c in _STORMER)
    hb = big_h / _ADAMS_DENOMINATOR
    b0, b1, b2, b3, b4, b5, b6, b7 = (hb * c for c in _ADAMS)
    # forces at nodes 6, 5, ..., 0, newest first
    a1, a2, a3, a4, a5, a6, a7 = (bmu_d * u / (1.0 + u) - lam * u for u in ws[start - 1::-1])
    put_w, put_z = ws.append, zs.append
    for _ in range(start, m):
        a0 = bmu_d * w / (1.0 + w) - lam * w
        d += s0 * a0 + s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4 + s5 * a5 + s6 * a6 + s7 * a7
        z += b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3 + b4 * a4 + b5 * a5 + b6 * a6 + b7 * a7
        w += d
        put_w(w)
        put_z(z)
        a7, a6, a5, a4, a3, a2, a1 = a6, a5, a4, a3, a2, a1, a0
    return np.array(ws), np.array(zs), g


def _check_energy_drift(ws, zs, w_start, p):
    e0 = float(potential_F(w_start, p))
    drift = float(np.max(np.abs(0.5 * zs * zs + potential_F(ws, p) - e0)))
    if drift >= _ENERGY_DRIFT_TOL:
        raise IntegrationError(f"energy drift {drift:g} exceeds {_ENERGY_DRIFT_TOL:g}")


def crossing_count(values: np.ndarray, level: float) -> int:
    """Sign changes of values - level; exact-zero nodes attach to the following interval."""
    signs = np.sign(np.asarray(values, dtype=float) - level)
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(signs)))


def bvp_residual(profile: Profile, p: ModelParams) -> float:
    """Sup norm of -w'' - f(w) over the grid, with w'' from the 5-point
    fourth-order stencil.

    Ghost nodes come from even reflection across the endpoints, which is
    exact for Neumann solutions of the autonomous equation, so the stencil
    applies at every node without order loss.
    """
    w = profile.values
    h = profile.h
    ext = np.concatenate(([w[2], w[1]], w, [w[-2], w[-3]]))
    # group as paired differences so the stencil cancellation costs no digits
    d1 = (ext[1:-3] - ext[2:-2]) + (ext[3:-1] - ext[2:-2])    # +/- 1 neighbors
    d2 = (ext[:-4] - ext[2:-2]) + (ext[4:] - ext[2:-2])       # +/- 2 neighbors
    second = (16.0 * d1 - d2) / (12.0 * h * h)
    res = -second - kinetic_f(w, p)
    return float(np.max(np.abs(res)))


def _derivative4(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative; one-sided stencils at the two edge nodes.

    First-derivative stencils amplify per-node rounding by O(1/h) only, so
    this stays three orders below the same check built on second
    differences.
    """
    du = np.empty_like(u)
    du[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    for i in (0, 1):
        du[i] = (-25.0 * u[i] + 48.0 * u[i + 1] - 36.0 * u[i + 2] + 16.0 * u[i + 3] - 3.0 * u[i + 4]) / (12.0 * h)
    for i in (-1, -2):
        du[i] = (25.0 * u[i] - 48.0 * u[i - 1] + 36.0 * u[i - 2] - 16.0 * u[i - 3] + 3.0 * u[i - 4]) / (12.0 * h)
    return du


def _ode_residual(ws: np.ndarray, zs: np.ndarray, h: float, p: ModelParams) -> float:
    """Sup residual of w' = z, z' = -f(w) at node spacing h: the second-order
    equation's residual, read from the (w, z) pair so no second difference is formed."""
    r1 = _derivative4(ws, h) - zs
    r2 = _derivative4(zs, h) + kinetic_f(ws, p)
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


def _junction_tol(cells: int) -> float:
    """Largest slope a piece may leave at its closing turning point: a profile
    reflected there (by the pair's construction or bvp_residual's ghosts)
    jumps by 2z in z, an ODE residual 14|z|/(12h) that must stay below the
    piece's own bound (bvp_residual reads twice that).  At most _NEUMANN_TOL."""
    return min(_NEUMANN_TOL, _ODE_RESIDUAL_TOL * 6.0 / (7.0 * cells))


def nodal_pair(n: int, p: ModelParams, n_points: int = _N_POINTS) -> tuple[NodalSolution, NodalSolution]:
    """The two n-crossing positive solutions at (lam, mu).

    One march of the piece [0, 1/n] from (w_-, 0), ending at w_+, builds both.  Its
    nodes are spaced g/(n cells), g = gcd(n, cells) for the n_points - 1
    cells, so lower node i reads the even periodic extension at piece index
    (cells - |n i mod 2 cells - cells|)/g and upper node i the same at
    n i + cells.  The piece is certified by energy drift and by its ODE
    residual read at the output grid's step 1/cells (every (n/g)-th node,
    the lower member's first nodes); its closing slope is both solutions'
    Neumann residual, refused at or above _junction_tol.
    """
    n_points = grid_points(n_points)
    cells = n_points - 1
    plane = PhasePlane(p)
    n = _existing_mode(n, p)
    w_minus = _invert_time_map(n, plane)
    ws, zs, g = _integrate_wz(w_minus, p, cells, n)
    _check_energy_drift(ws, zs, w_minus, p)
    stride = n // g
    residual = _ode_residual(ws[::stride], zs[::stride], 1.0 / cells, p)
    if residual >= _ODE_RESIDUAL_TOL:
        raise IntegrationError(f"piece ODE residual {residual:g} exceeds {_ODE_RESIDUAL_TOL:g}")
    z_end = abs(float(zs[-1]))
    tol = _junction_tol(cells)
    if z_end >= tol:
        raise IntegrationError(f"pair's Neumann residual {z_end:g} exceeds {tol:g}")
    phase = n * np.arange(n_points)
    lower, upper = (
        _finalize(n, branch, w_minus, ws[(cells - np.abs(t % (2 * cells) - cells)) // g], z_end, p, plane.w0)
        for branch, t in (("lower", phase), ("upper", phase + cells))
    )
    w_plus = plane.companion(w_minus)
    if abs(upper.profile.values[0] - w_plus) > 1e-8 * max(1.0, w_plus):
        raise IntegrationError("upper profile does not start at the companion turning point")
    return lower, upper


def _finalize(n, branch, w_minus, ws, residual, p, w0) -> NodalSolution:
    if float(np.min(ws)) <= 0.0:
        raise IntegrationError(f"{branch} profile lost positivity")
    crossings = crossing_count(ws, w0)
    if crossings != n:
        raise IntegrationError(f"{branch} profile crosses w0 {crossings} times, expected {n}")
    return NodalSolution(n, branch, w_minus, Profile(ws), p.lam, p.mu, residual, crossings)


def max_crossing_number(p: ModelParams) -> int:
    """Largest n whose existence window contains lam (0 when only w0 exists).
    The open windows nest (lam_n^- rises and lam_n^+ falls with n), so this
    counts those that window_holds finds holding lam."""
    w0_const(p)  # validates the window
    return sum(window_holds(root.ell, p) for root in mode_windows(p))


def enumerate_solutions(p: ModelParams) -> SolutionSet:
    """Every positive solution of the limit problem at (lam, mu), on the _N_POINTS grid."""
    w0 = w0_const(p)
    pairs = [nodal_pair(n, p) for n in range(1, max_crossing_number(p) + 1)]
    return SolutionSet(Profile.constant(w0, _N_POINTS), tuple(pairs))


def trace_loop(n: int, p: ModelParams, n_lambda: int = 41) -> list[LoopPoint]:
    """Sample the closed loop of n-crossing solutions over its lam window.

    Near the window ends, where the predicted branch amplitude
    sqrt(|lam - lam_n^(+/-)| / |eta2|) falls below 1e-6, the analytic limit
    point (lam, w0) is reported instead of running the ill-conditioned
    solve.  Failures at individual points are warned about and skipped.
    """
    lams = window_lambdas(n, p, n_lambda)  # validates n
    eta2 = {side: eta2_closed_form(n, side, p) for side in ("minus", "plus")}
    root = lambda_roots(n, p)
    lam_lo, lam_hi = root.lambda_minus, root.lambda_plus
    points: list[LoopPoint] = []
    for lam in lams:
        q = p.with_lam(lam)
        w0 = w0_const(q)
        s_pred = min(
            math.sqrt(max(lam - lam_lo, 0.0) / abs(eta2["minus"])),
            math.sqrt(max(lam_hi - lam, 0.0) / abs(eta2["plus"])),
        )
        if s_pred < 1e-6:
            points.append(LoopPoint(lam, w0, w0, w0))
            continue
        try:
            lower, upper = nodal_pair(n, q)
        except (NoSolutionError, ConvergenceError, IntegrationError) as exc:
            warnings.warn(f"trace_loop skipped lam = {lam:g}: {exc}", stacklevel=2)
            continue
        points.append(
            LoopPoint(lam, lower.w_minus, lower.profile.sup_norm(), upper.profile.sup_norm())
        )
    return points
