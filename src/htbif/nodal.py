"""Construction of the exact pairs of n-crossing positive solutions of the
limit problem by time-map inversion, an eighth-order Stormer/Adams march of
the half-period piece (one force evaluation per node), the shifted companion
solution, the labelled limit states (the constant and every pair) and the
closed solution loops over the lam window.

An n-crossing solution exists iff n * T(w0) < 1; its starting amplitude is
the unique w_- in (0, w0) with n * T(w_-) = 1 (the time map is strictly
decreasing), solved in ln w_- on a bracket that the saddle law guarantees.
The orbit from (w_-, 0) is even about each turning time x = k/n, so one
half-period piece on [0, 1/n] carries the pair for every n: the lower
solution is its even periodic extension, the upper one (from the companion
turning point w_+) the same extension shifted by 1/n.  The piece is marched
once and certified by one ODE residual read across its own reflections, so
a piece that closes too steeply for the joined profiles is refused by it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, IntegrationError, NoSolutionError
from .model import ModelParams, Profile, grid_points, kinetic_f, potential_F, w0_const
from .spectral import lambda_roots, mode_windows, mu_threshold, window_holds, window_lambdas
from .timemap import PhasePlane

__all__ = [
    "LoopPoint",
    "NodalSolution",
    "bvp_residual",
    "crossing_count",
    "enumerate_solutions",
    "limit_seeds",
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
_ODE_RESIDUAL_TOL = 1e-7
# weights of the central 8th-order first derivative at offsets 1..4
# (Fornberg, Math. Comp. 51 (1988)); twice their sum is 1.269
_CENTRAL8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
_AMPLITUDE_TOL = 1e-10  # |n T(w_-) - 1| bound of the amplitude solve
_LOG_TINY = math.log(sys.float_info.min)  # lowest ln w_- the amplitude solve tries
_BRENT_XTOL = 2.0 * sys.float_info.epsilon  # Brent's absolute and relative tolerances in ln w_-
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_STEPS = 200


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

    def h(s: float) -> float:
        return n * plane.time_map(math.exp(s)).T - 1.0

    h_lo = h(lo)
    if h_lo <= 0.0 and lo == _LOG_TINY:
        raise DomainError(
            f"the {n}-crossing amplitude at lam = {p.lam:g}, mu = {p.mu:g} lies below the smallest positive "
            f"normal double {sys.float_info.min:g}: n*T = {h_lo + 1.0:g} <= 1 there already"
        )
    if h_lo <= 0.0:
        raise ConvergenceError(f"amplitude bracket failed: n*T = {h_lo + 1.0:g} <= 1 at the saddle-law floor")
    h_hi = h(hi)
    if h_hi >= 0.0:
        raise NoSolutionError(
            f"no {n}-crossing solution: amplitude window is below numerical resolution at lam = {p.lam:g}"
        )
    root, h_root = _brent(h, lo, hi, h_lo, h_hi)
    if not abs(h_root) < _AMPLITUDE_TOL:
        raise ConvergenceError(f"amplitude solve stalled with |n*T - 1| = {abs(h_root):g} >= {_AMPLITUDE_TOL:g}")
    return math.exp(root)


def _brent(f, a: float, b: float, fa: float, fb: float) -> tuple[float, float]:
    """Root of f on [a, b] by Brent's method, given fa = f(a) and fb = f(b),
    nonzero and of opposite signs, as (root, f(root)); f is called only
    inside the bracket.

    A transcription of scipy's brentq.c (inverse quadratic or secant steps,
    bisection when a step is not short enough) with xtol = 2 eps,
    rtol = 4 eps and at most 200 steps, which returns the same root bit for
    bit.  Raises ConvergenceError when the steps run out.
    """
    x_pre, x_cur, f_pre, f_cur = a, b, fa, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_STEPS):
        if f_cur == 0.0:
            return x_cur, f_cur
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur, f_cur
        short = False
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            short = 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, s_try) if short else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = f(x_cur)
    raise ConvergenceError(f"Brent's method did not converge in {_BRENT_STEPS} steps: |f| = {abs(f_cur):g} at the last")


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
    error of ulp(w)/H that z never sees.  The Stormer loop never reads z, so
    it marches w alone and records each force; z then follows from the
    recorded forces, the same sums in the same order, one array pass per
    weight.  When n divides the cells (g = n) the piece repeats the first
    cells/n + 1 nodes of the n = 1 run over [0, 1] bit for bit.  Plain-float
    inner loops."""
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
    # forces at nodes 0, ..., m - 1; the march reads the newest eight
    forces = [bmu_d * u / (1.0 + u) - lam * u for u in ws[:start]]
    a7, a6, a5, a4, a3, a2, a1 = forces
    put_w, put_a = ws.append, forces.append
    for _ in range(start, m):
        a0 = bmu_d * w / (1.0 + w) - lam * w
        d += s0 * a0 + s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4 + s5 * a5 + s6 * a6 + s7 * a7
        w += d
        put_w(w)
        put_a(a0)
        a7, a6, a5, a4, a3, a2, a1 = a6, a5, a4, a3, a2, a1, a0
    # z's Adams-Bashforth increments, each summed left to right as
    # b0 a_i + b1 a_{i-1} + ..., then added in sequence from z_7
    f = np.array(forces)
    inc = b0 * f[start:]
    for k, b in enumerate((b1, b2, b3, b4, b5, b6, b7), 1):
        inc = inc + b * f[start - k:m - k]
    inc[0] += z
    return np.array(ws), np.concatenate((zs, np.add.accumulate(inc))), g


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


def _fold(t, m: int):
    """Index in [0, m] that integer t reads in the even extension of nodes
    0..m, periodic with period 2m: m - |t mod 2m - m|."""
    return m - np.abs(t % (2 * m) - m)


def bvp_residual(profile: Profile, p: ModelParams) -> float:
    """Sup norm of -w'' - f(w) over the grid, with w'' from the 5-point
    fourth-order stencil.

    Ghost nodes come from even reflection across the endpoints, which is
    exact for Neumann solutions of the autonomous equation, so the stencil
    applies at every node without order loss.
    """
    w = profile.values
    h = profile.h
    ext = w[_fold(np.arange(-2, w.size + 2), w.size - 1)]
    # group as paired differences so the stencil cancellation costs no digits
    d1 = (ext[1:-3] - ext[2:-2]) + (ext[3:-1] - ext[2:-2])    # +/- 1 neighbors
    d2 = (ext[:-4] - ext[2:-2]) + (ext[4:] - ext[2:-2])       # +/- 2 neighbors
    second = (16.0 * d1 - d2) / (12.0 * h * h)
    res = -second - kinetic_f(w, p)
    return float(np.max(np.abs(res)))


def _ode_residual(ws: np.ndarray, zs: np.ndarray, stride: int, h: float, p: ModelParams) -> float:
    """Sup residual of w' = z, z' = -f(w) at every node of the piece, each
    derivative the central 8th-order stencil on every stride-th node at step h.

    Ghosts come from the piece's own reflection about both turning points (w
    even, z odd), as the profiles are built, so no row is one-sided.  A
    closing slope z_end makes the odd ghosts jump by 2 z_end, which the
    closing node reads as 1.269 |z_end|/h, so this also refuses a piece too
    steep for the joined profiles."""
    m = ws.size - 1
    reach = len(_CENTRAL8) * stride
    t = np.arange(-reach, m + reach + 1)
    i = _fold(t, m)
    w_ext, z_ext = ws[i], np.where(t % (2 * m) > m, -zs[i], zs[i])

    def slope(u):
        return sum(c * (u[reach + k * stride:][:m + 1] - u[reach - k * stride:][:m + 1])
                   for k, c in enumerate(_CENTRAL8, 1)) / h

    r1 = slope(w_ext) - zs
    r2 = slope(z_ext) + kinetic_f(ws, p)
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


def nodal_pair(n: int, p: ModelParams, n_points: int = _N_POINTS) -> tuple[NodalSolution, NodalSolution]:
    """The two n-crossing positive solutions at (lam, mu).

    One march of the piece [0, 1/n] from (w_-, 0), ending at w_+, builds both.  Its
    m = cells/g intervals are g/(n cells) long, g = gcd(n, cells) for the
    n_points - 1 cells, so with s = n/g lower node i reads the piece's even
    periodic extension at _fold(s i, m) and upper node i at s i + m.  The
    piece is certified by energy drift and by its ODE residual, read on
    every s-th node at the output grid's step 1/cells across the same
    reflections, which also bounds the closing slope: both solutions'
    Neumann residual.
    """
    n_points = grid_points(n_points)
    cells = n_points - 1
    plane = PhasePlane(p)
    n = _existing_mode(n, p)
    w_minus = _invert_time_map(n, plane)
    ws, zs, g = _integrate_wz(w_minus, p, cells, n)
    _check_energy_drift(ws, zs, w_minus, p)
    stride, m = n // g, cells // g
    residual = _ode_residual(ws, zs, stride, 1.0 / cells, p)
    if residual >= _ODE_RESIDUAL_TOL:
        raise IntegrationError(f"piece ODE residual {residual:g} exceeds {_ODE_RESIDUAL_TOL:g}")
    z_end = abs(float(zs[-1]))
    phase = stride * np.arange(n_points)
    lower, upper = (
        _finalize(n, branch, w_minus, ws[_fold(t, m)], z_end, p, plane.w0)
        for branch, t in (("lower", phase), ("upper", phase + m))
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


def limit_seeds(n: int, p: ModelParams, n_points: int) -> list[tuple[str, Profile]]:
    """The 2n+1 limit states with their origin labels, which seed the census:
    the constant w0, then the lower and upper member of every j-crossing pair,
    j = 1..n.  DomainError unless n is an integer >= 1."""
    window_holds(n, p)  # validates n
    seeds = [("constant", Profile.constant(w0_const(p), n_points))]
    for j in range(1, int(n) + 1):
        lower, upper = nodal_pair(j, p, n_points)
        seeds.append((f"nodal({j},lower)", lower.profile))
        seeds.append((f"nodal({j},upper)", upper.profile))
    return seeds


def max_crossing_number(p: ModelParams) -> int:
    """Largest n whose existence window contains lam (0 when only w0 exists).
    The open windows nest (lam_n^- rises and lam_n^+ falls with n), so this
    counts those that window_holds finds holding lam."""
    w0_const(p)  # validates the window
    return sum(window_holds(root.ell, p) for root in mode_windows(p))


def enumerate_solutions(p: ModelParams) -> list[tuple[str, Profile]]:
    """Every positive solution of the limit problem at (lam, mu), labelled, on the
    _N_POINTS grid: limit_seeds over the windows holding lam, or the constant alone."""
    n = max_crossing_number(p)
    return limit_seeds(n, p, _N_POINTS) if n else [("constant", Profile.constant(w0_const(p), _N_POINTS))]


def trace_loop(n: int, p: ModelParams, n_lambda: int = 41) -> list[LoopPoint]:
    """Sample the closed loop of n-crossing solutions over its lam window.

    Every point is a pair that nodal_pair certifies at one of window_lambdas'
    samples.  A sample it refuses is one warning and no point.
    """
    points: list[LoopPoint] = []
    for lam in window_lambdas(n, p, n_lambda):  # validates n
        try:
            lower, upper = nodal_pair(n, p.with_lam(lam))
        except (NoSolutionError, ConvergenceError, IntegrationError) as exc:
            warnings.warn(f"trace_loop skipped lam = {lam!r}: {exc}", stacklevel=2)
            continue
        points.append(
            LoopPoint(lam, lower.w_minus, lower.profile.sup_norm(), upper.profile.sup_norm())
        )
    return points
