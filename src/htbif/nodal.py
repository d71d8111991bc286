"""Construction of the exact pairs of n-crossing positive solutions of the
limit problem by time-map inversion, Cauchy integration of profiles, the
shifted companion solution, and the closed solution loops over the lam
window.

An n-crossing solution exists iff n * T(w0) < 1; its starting amplitude is
the unique w_- in (0, w0) with n * T(w_-) = 1 (the time map is strictly
decreasing), solved in ln w_- on a bracket that the saddle law guarantees.
Integrating the Cauchy problem from (w_-, 0) over [0, 1] then satisfies the
right Neumann condition because x = 1 is the n-th turning time; one Newton
step on the time map's own slope polishes what the solve leaves.  The second
solution of the pair is the half-period shift of the first: extend the
profile evenly about x = 1 and shift by 1/n, which is the same function as
the Cauchy solution started at the companion turning point (w_+, 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, IntegrationError, NoSolutionError, ConvergenceError
from .model import ModelParams, Profile, grid_points, kinetic_f, potential_F, w0_const
from .spectral import eta2_closed_form, lambda_roots, mu_threshold, window_holds, window_lambdas
from .timemap import PhasePlane, homoclinic_extent

__all__ = [
    "LoopPoint",
    "NodalSolution",
    "SolutionSet",
    "bvp_residual",
    "crossing_count",
    "enumerate_solutions",
    "integrate_cauchy",
    "nodal_pair",
    "solve_amplitude",
    "trace_loop",
]

_RK_SUBSTEPS = 8  # RK4 substeps per grid cell; keeps output exactly grid-aligned
_ENERGY_DRIFT_TOL = 1e-9
_NEUMANN_TOL = 1e-8
_SHIFT_BVP_TOL = 1e-7
_SHOOT_TOL = 2e-13  # terminal-slope target of the shooting polish
_AMPLITUDE_TOL = 1e-10  # |n T(w_-) - 1| bound of the amplitude solve


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
    precondition failed (mu at or below the mode threshold, or lam outside
    the open root window).
    """
    plane = PhasePlane(p)
    return _invert_time_map(_existing_mode(n, plane), plane)


def _existing_mode(n, plane: PhasePlane) -> int:
    """n as an int, once the n-crossing existence window is known to hold lam."""
    p = plane.p
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
    if n * plane.T_c >= 1.0:
        raise NoSolutionError(
            f"no {n}-crossing solution: amplitude window is below numerical resolution at lam = {p.lam:g}"
        )
    return n


def _invert_time_map(n: int, plane: PhasePlane) -> float:
    """Brent's method for n T(e^s) = 1 in s = ln w_- on the bracket
    [ln w0 - k/n - 1, ln w0 + log1p(-1e-10)], k = sqrt(b mu/d - lam).

    The top lies inside the center cutoff, where n T = n T_c < 1.  The floor
    cannot miss: w - log1p(w) <= w^2/2 on (0, w0) gives F(w) >= -k^2 w^2/2,
    and F(w_-) < 0, so T(w_-) > ln(w0/w_-)/k and n T > 1 + n/k there.  Near
    the saddle T is almost linear in s (slope -1/k), so the root keeps full
    relative precision however small w_- is.
    """
    k = math.sqrt(plane.bmu_d - plane.p.lam)
    log_w0 = math.log(plane.w0)
    lo, hi = log_w0 - k / n - 1.0, log_w0 + math.log1p(-1e-10)
    values = {}

    def h(s: float) -> float:
        if s not in values:
            values[s] = n * plane.time_map(math.exp(s)).T - 1.0
        return values[s]

    h_lo = h(lo)
    if h_lo <= 0.0:
        raise ConvergenceError(f"amplitude bracket failed: n*T = {h_lo + 1.0:g} <= 1 at the saddle-law floor")
    root, info = brentq(
        h, lo, hi, xtol=2.0 * np.finfo(float).eps, rtol=4.0 * np.finfo(float).eps,
        maxiter=200, full_output=True, disp=False,
    )
    residual = abs(h(root))
    if not info.converged or residual >= _AMPLITUDE_TOL:
        raise ConvergenceError(f"amplitude solve stalled with |n*T - 1| = {residual:g} >= {_AMPLITUDE_TOL:g}")
    return math.exp(root)


def _integrate_wz(w_start: float, p: ModelParams, n_points: int):
    """Fixed-step RK4 for w'' = -f(w) from (w_start, 0); returns node arrays (w, z).

    Plain-float inner loop; the substep count keeps every output sample on
    the closed uniform grid.
    """
    n_cells = n_points - 1
    h = 1.0 / (n_cells * _RK_SUBSTEPS)
    lam = p.lam
    bmu_d = p.bmu_over_d
    ws = np.empty(n_points)
    zs = np.empty(n_points)
    w = float(w_start)
    z = 0.0
    ws[0] = w
    zs[0] = z
    for i in range(n_cells):
        for _ in range(_RK_SUBSTEPS):
            k1w = z
            k1z = bmu_d * w / (1.0 + w) - lam * w
            w2 = w + 0.5 * h * k1w
            k2w = z + 0.5 * h * k1z
            k2z = bmu_d * w2 / (1.0 + w2) - lam * w2
            w3 = w + 0.5 * h * k2w
            k3w = z + 0.5 * h * k2z
            k3z = bmu_d * w3 / (1.0 + w3) - lam * w3
            w4 = w + h * k3w
            k4w = z + h * k3z
            k4z = bmu_d * w4 / (1.0 + w4) - lam * w4
            w += h * (k1w + 2.0 * (k2w + k3w) + k4w) / 6.0
            z += h * (k1z + 2.0 * (k2z + k3z) + k4z) / 6.0
        ws[i + 1] = w
        zs[i + 1] = z
    return ws, zs


def integrate_cauchy(w_start: float, p: ModelParams, n_points: int = 2001) -> Profile:
    """Solution of the Cauchy problem w'' = -f(w), w(0) = w_start, w'(0) = 0,
    sampled on the closed uniform grid of [0, 1].

    The energy z^2/2 + F(w) is conserved along exact orbits; its drift is the
    integration accuracy watchdog.
    """
    n_points = grid_points(n_points)
    w_h = homoclinic_extent(p)
    if not 0.0 < w_start < w_h:
        raise DomainError(f"w_start must lie in (0, w_h) = (0, {w_h:g}); got {w_start!r}")
    ws, zs = _integrate_wz(w_start, p, n_points)
    _check_energy_drift(ws, zs, w_start, p)
    return Profile(ws)


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


def _ode_residual(ws: np.ndarray, zs: np.ndarray, p: ModelParams) -> float:
    """Sup residual of the first-order system (w' = z, z' = -f(w)) on the grid.

    Equivalent to the second-order equation residual, but evaluated from the
    (w, z) pair so no second difference is formed.
    """
    h = 1.0 / (ws.size - 1)
    r1 = _derivative4(ws, h) - zs
    r2 = _derivative4(zs, h) + kinetic_f(ws, p)
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


def _shift_upper(ws: np.ndarray, zs: np.ndarray, n: int):
    """Half-period shift via the even extension about x = 1 (grid-aligned case)."""
    n_points = ws.size
    step = (n_points - 1) // n
    idx = np.arange(n_points) + step
    mirrored = idx > n_points - 1
    idx[mirrored] = 2 * (n_points - 1) - idx[mirrored]
    w_up = ws[idx]
    z_up = np.where(mirrored, -zs[idx], zs[idx])
    return w_up, z_up


def nodal_pair(n: int, p: ModelParams, n_points: int = 2001) -> tuple[NodalSolution, NodalSolution]:
    """The two n-crossing positive solutions at (lam, mu).

    The lower solution starts at (w_-, 0).  The upper one is its even
    extension shifted by 1/n; when 1/n is not a whole number of grid cells
    the equivalent Cauchy integration from (w_+, 0) produces the same
    function on the grid.  The shifted profile is verified independently
    against the second-order equation before being returned.
    """
    n_points = grid_points(n_points)
    plane = PhasePlane(p)
    n = _existing_mode(n, plane)
    w_minus = _invert_time_map(n, plane)
    w0 = plane.w0
    ws, zs = _integrate_wz(w_minus, p, n_points)

    # shooting polish: z(1) = -f(w_end) (1 - n T(w_-)) to first order, w_end being
    # w_+ for odd n and w_- for even n, so one Newton step on the time map's
    # central-difference slope takes z(1) to the integrator floor
    z1 = float(zs[-1])
    if abs(z1) > _SHOOT_TOL:
        step = 1e-4 * min(w_minus, w0 - w_minus)
        dT = (plane.time_map(w_minus + step).T - plane.time_map(w_minus - step).T) / (2.0 * step)
        slope = float(kinetic_f(plane.companion(w_minus) if n % 2 else w_minus, p)) * n * dT
        if slope != 0.0:
            w_minus -= z1 / slope
            ws, zs = _integrate_wz(w_minus, p, n_points)
    _check_energy_drift(ws, zs, w_minus, p)

    w_plus = plane.companion(w_minus)
    if (n_points - 1) % n == 0:
        w_up, z_up = _shift_upper(ws, zs, n)
    else:
        w_up, z_up = _integrate_wz(w_plus, p, n_points)
        _check_energy_drift(w_up, z_up, w_plus, p)

    lower = _finalize(n, "lower", w_minus, ws, zs, p, w0)
    upper = _finalize(n, "upper", w_minus, w_up, z_up, p, w0)

    res_upper = _ode_residual(w_up, z_up, p)
    if res_upper >= _SHIFT_BVP_TOL:
        raise IntegrationError(f"shifted solution residual {res_upper:g} exceeds {_SHIFT_BVP_TOL:g}")
    if abs(upper.profile.values[0] - w_plus) > 1e-8 * max(1.0, w_plus):
        raise IntegrationError("shifted solution does not start at the companion turning point")
    return lower, upper


def _finalize(n, branch, w_minus, ws, zs, p, w0) -> NodalSolution:
    residual = abs(float(zs[-1]))
    if residual >= _NEUMANN_TOL:
        raise IntegrationError(f"{branch} profile Neumann residual {residual:g} exceeds {_NEUMANN_TOL:g}")
    if float(np.min(ws)) <= 0.0:
        raise IntegrationError(f"{branch} profile lost positivity")
    crossings = crossing_count(ws, w0)
    if crossings != n:
        raise IntegrationError(f"{branch} profile crosses w0 {crossings} times, expected {n}")
    return NodalSolution(n, branch, w_minus, Profile(ws), p.lam, p.mu, residual, crossings)


def max_crossing_number(p: ModelParams) -> int:
    """Largest n whose existence window contains lam (0 when only w0 exists)."""
    w0_const(p)  # validates the window
    n = 0
    while window_holds(n + 1, p):
        n += 1
    return n


def enumerate_solutions(p: ModelParams, n_points: int = 2001) -> SolutionSet:
    """Every positive solution of the limit problem at (lam, mu)."""
    w0 = w0_const(p)
    pairs = [nodal_pair(n, p, n_points) for n in range(1, max_crossing_number(p) + 1)]
    return SolutionSet(Profile.constant(w0, n_points), tuple(pairs))


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
