"""The full coupled steady-state system at saturation parameter eps > 0:
finite-difference residual, damped Newton with banded Jacobian, first-order
corrections in eps, the coexistence-state census seeded from the limit
states, and natural continuation in eps.

The residual of a pair (w, v) is

    G1 = -w'' - lam w + eps a(x) w^2 + b w v/(1+w)
    G2 = -v'' - mu v + d v^2 - eps c(x) w v/(1+w)

discretized exactly like the linearization module (centered differences,
mirror ghost nodes), so at eps = 0 and v = mu/d the Newton Jacobian's
w-block is literally the linearized Sturm-Liouville operator.  Unknowns are
interleaved (w_i, v_i), giving a narrow banded Jacobian solved by LU with
partial pivoting.

One ulp of a nodal value moves the discrete Laplacian by 2 u0 |w|/h^2 with
u0 the unit roundoff (about 2.4e-9 at the default 2001-point grid), which
sits above the 1e-9 residual contract, so a plain float64 nodal vector
cannot converge that far.
Newton therefore carries each unknown as an unevaluated sum base + fine: the
frozen base absorbs the bulk, the fine part accumulates the updates, the
Laplacian acts on the two parts separately, and reaction terms use the
collapsed value (their ulp sensitivity is harmless).  Converged states store
the collapsed profiles plus the exact collapse leftovers, so the certified
residual can be re-evaluated from the state alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    GridMismatchError,
    PositivityError,
)
from .linstab import degeneracy_tolerance, neumann_tridiagonal, nodal_potential, sturm_count_below, sturm_spectrum
from .model import ModelParams, Profile, w0_const
from .nodal import NodalSolution, nodal_pair
from .spectral import lambda_roots, mode_windows, mu_threshold

__all__ = [
    "CensusResult",
    "CoexistenceState",
    "ContinuationResult",
    "census",
    "constant_states",
    "continue_in_eps",
    "first_order_corrections",
    "jacobian_banded",
    "limit_seeds",
    "newton_solve",
    "residual",
    "residual_fine",
]

NEWTON_TOL = 1e-9
MAX_NEWTON_ITERS = 50
MAX_BACKTRACKS = 20
DISTINCT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CoexistenceState:
    """A componentwise positive solution of the coupled system.

    ``w_fine`` and ``v_fine`` are the exact leftovers of rounding the
    converged two-part Newton iterate into the stored profiles;
    ``residual_sup`` is certified for the pair (values + fine), which
    ``residual_fine`` re-evaluates.
    """

    w: Profile
    v: Profile
    lam: float
    mu: float
    eps: float
    residual_sup: float
    newton_iters: int
    origin: str  # "constant", "nodal(n,branch)", or "continued"
    w_fine: np.ndarray | None = None
    v_fine: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CensusResult:
    """Outcome of Newton solves from all seed states at one (eps, lam, mu)."""

    lam: float
    mu: float
    eps: float
    states: tuple
    distinct_count: int
    shortfall: bool


@dataclass(frozen=True, eq=False)
class ContinuationResult:
    """States accepted along an eps ladder, plus the breakdown record if any."""

    states: tuple
    breakdown: str | None

    @property
    def last_good_eps(self) -> float:
        return self.states[-1].eps


def _coeff_samples(p: ModelParams, n_points: int):
    x = np.linspace(0.0, 1.0, n_points)
    return p.coeff_a(x), p.coeff_c(x)


def _second_difference(u: np.ndarray) -> np.ndarray:
    """(u_{i-1} - u_i) + (u_{i+1} - u_i) with mirror ghosts; paired
    differences keep the stencil cancellation exact at the Newton floor."""
    out = np.empty_like(u)
    out[1:-1] = (u[:-2] - u[1:-1]) + (u[2:] - u[1:-1])
    out[0] = 2.0 * (u[1] - u[0])
    out[-1] = 2.0 * (u[-2] - u[-1])
    return out


def residual(w: Profile, v: Profile, p: ModelParams) -> tuple[Profile, Profile]:
    """Both components of the coupled residual on the shared grid."""
    if w.n_points != v.n_points:
        raise GridMismatchError(f"grids differ: {w.n_points} vs {v.n_points} points")
    if np.any(w.values <= -1.0):
        raise DomainError("w must satisfy w > -1 at every node")
    a_vals, c_vals = _coeff_samples(p, w.n_points)
    inv_h2 = 1.0 / (w.h * w.h)
    zero = np.zeros(w.n_points)
    g1, g2, _, _ = _two_part_residual(w.values, zero, v.values, zero, p, a_vals, c_vals, inv_h2)
    return Profile(g1), Profile(g2)


def jacobian_banded(w: np.ndarray, v: np.ndarray, p: ModelParams, a_vals, c_vals, inv_h2):
    """Banded (l=u=2) Jacobian in solve_banded layout for interleaved unknowns.

    Row 2i is the w-equation at node i, row 2i+1 the v-equation.  The only
    couplings are w_i <-> v_i (offset 1) and same-field neighbors (offset 2);
    the mirror ghost closure doubles the boundary neighbor entries.
    """
    n = w.size
    m = 2 * n
    ab = np.zeros((5, m))  # rows: offsets +2, +1, 0, -1, -2
    one_w = 1.0 + w
    dg1_dw = 2.0 * inv_h2 - p.lam + 2.0 * p.eps * a_vals * w + p.b * v / one_w ** 2
    dg1_dv = p.b * w / one_w
    dg2_dv = 2.0 * inv_h2 - p.mu + 2.0 * p.d * v - p.eps * c_vals * w / one_w
    dg2_dw = -p.eps * c_vals * v / one_w ** 2

    ab[2, 0::2] = dg1_dw
    ab[2, 1::2] = dg2_dv
    # superdiagonal +1: A[2i, 2i+1] = dG1_i/dv_i
    ab[1, 1::2] = dg1_dv
    # subdiagonal -1: A[2i+1, 2i] = dG2_i/dw_i
    ab[3, 0::2] = dg2_dw
    # +/-2: same-field neighbor couplings
    neighbor = np.full(n - 1, -inv_h2)
    up = np.empty(n - 1)
    up[:] = neighbor
    up[0] = -2.0 * inv_h2  # row 0 ghost doubling: A[0, 2]
    lo = np.empty(n - 1)
    lo[:] = neighbor
    lo[-1] = -2.0 * inv_h2  # last row ghost doubling: A[2n-2, 2n-4]
    ab[0, 2::2] = up
    ab[0, 3::2] = up
    ab[4, 0:-2:2] = lo
    ab[4, 1:-2:2] = lo
    return ab


def _interleave(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    out = np.empty(g1.size * 2)
    out[0::2] = g1
    out[1::2] = g2
    return out


def _two_sum(base: np.ndarray, add: np.ndarray):
    """Elementwise exact sum: returns (fl(base + add), exact leftover)."""
    s = base + add
    bb = s - base
    err = (base - (s - bb)) + (add - bb)
    return s, err


def _two_part_residual(wb, wf, vb, vf, p, a_vals, c_vals, inv_h2):
    """Residual of the pair carried as base + fine, plus collapsed values.

    The Laplacian is applied to base and fine separately (differences of the
    frozen base are exact, the fine part is far below one ulp of the base);
    reaction terms see only the collapsed values, whose ulp-level error is
    orders below the residual contract.
    """
    w = wb + wf
    v = vb + vf
    lap_w = -inv_h2 * (_second_difference(wb) + _second_difference(wf))
    lap_v = -inv_h2 * (_second_difference(vb) + _second_difference(vf))
    g1 = lap_w - p.lam * w + p.eps * a_vals * w * w + p.b * w * v / (1.0 + w)
    g2 = lap_v - p.mu * v + p.d * v * v - p.eps * c_vals * w * v / (1.0 + w)
    return g1, g2, w, v


def newton_solve(
    w0: Profile,
    v0: Profile,
    p: ModelParams,
    origin: str = "continued",
    w_fine: np.ndarray | None = None,
    v_fine: np.ndarray | None = None,
    residual_history: list | None = None,
) -> CoexistenceState:
    """Damped Newton for the coupled system from the given initial pair.

    Full steps are accepted whenever the squared residual norm decreases;
    otherwise the step is halved (at most 20 times).  Convergence means
    discrete sup-norm residual below 1e-9, evaluated on the two-part
    iterate.  A converged limit outside the open positive cone raises
    PositivityError carrying the limit.  When a list is passed as
    ``residual_history`` the sup residual of every iterate is appended to it.
    """
    if w0.n_points != v0.n_points:
        raise GridMismatchError(f"grids differ: {w0.n_points} vs {v0.n_points} points")
    if np.any(w0.values <= -1.0):
        raise DomainError("initial w must satisfy w > -1 nodewise")
    n_points = w0.n_points
    a_vals, c_vals = _coeff_samples(p, n_points)
    inv_h2 = (n_points - 1.0) ** 2

    wb = w0.values.copy()
    vb = v0.values.copy()
    wf = np.zeros(n_points) if w_fine is None else w_fine.copy()
    vf = np.zeros(n_points) if v_fine is None else v_fine.copy()

    g1, g2, w, v = _two_part_residual(wb, wf, vb, vf, p, a_vals, c_vals, inv_h2)
    res_sup = max(float(np.max(np.abs(g1))), float(np.max(np.abs(g2))))
    res_sq = float(np.dot(g1, g1) + np.dot(g2, g2))
    if residual_history is not None:
        residual_history.append(res_sup)

    for iteration in range(MAX_NEWTON_ITERS + 1):
        if res_sup < NEWTON_TOL:
            if float(np.min(w)) <= 0.0 or float(np.min(v)) <= 0.0:
                raise PositivityError(
                    "Newton converged to a limit outside the positive cone",
                    w=Profile(w), v=Profile(v), residual_sup=res_sup, iterations=iteration,
                )
            w_out, w_left = _two_sum(wb, wf)
            v_out, v_left = _two_sum(vb, vf)
            return CoexistenceState(
                Profile(w_out), Profile(v_out), p.lam, p.mu, p.eps,
                res_sup, iteration, origin, w_left, v_left,
            )
        if iteration == MAX_NEWTON_ITERS:
            break
        ab = jacobian_banded(w, v, p, a_vals, c_vals, inv_h2)
        step = solve_banded((2, 2), ab, -_interleave(g1, g2))
        dw = step[0::2]
        dv = step[1::2]
        t = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            wf_new = wf + t * dw
            vf_new = vf + t * dv
            if float(np.min(wb + wf_new)) > -1.0:
                g1_new, g2_new, w_new, v_new = _two_part_residual(
                    wb, wf_new, vb, vf_new, p, a_vals, c_vals, inv_h2
                )
                sq_new = float(np.dot(g1_new, g1_new) + np.dot(g2_new, g2_new))
                if sq_new < res_sq:
                    break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"Newton line search failed at iteration {iteration} (residual {res_sup:g}); "
                "the guess is outside the contraction neighborhood"
            )
        wf, vf, w, v = wf_new, vf_new, w_new, v_new
        g1, g2, res_sq = g1_new, g2_new, sq_new
        res_sup = max(float(np.max(np.abs(g1))), float(np.max(np.abs(g2))))
        if residual_history is not None:
            residual_history.append(res_sup)
        if float(np.max(np.abs(wf))) > 0.25 or float(np.max(np.abs(vf))) > 0.25:
            # renormalize so the fine parts keep their precision headroom
            wb, wf = _two_sum(wb, wf)
            vb, vf = _two_sum(vb, vf)
    raise ConvergenceError(
        f"Newton did not reach residual {NEWTON_TOL:g} in {MAX_NEWTON_ITERS} iterations "
        f"(final residual {res_sup:g})"
    )


def residual_fine(state: CoexistenceState, p: ModelParams) -> float:
    """Re-evaluate the certified sup-norm residual of a stored state."""
    n_points = state.w.n_points
    a_vals, c_vals = _coeff_samples(p, n_points)
    inv_h2 = (n_points - 1.0) ** 2
    wf = state.w_fine if state.w_fine is not None else np.zeros(n_points)
    vf = state.v_fine if state.v_fine is not None else np.zeros(n_points)
    g1, g2, _, _ = _two_part_residual(state.w.values, wf, state.v.values, vf, p, a_vals, c_vals, inv_h2)
    return max(float(np.max(np.abs(g1))), float(np.max(np.abs(g2))))


def assert_nondegenerate(w: Profile, p: ModelParams, label: str = "state") -> None:
    """Raise DegenerateError when the limit w-block has a corrected eigenvalue
    within the degeneracy tolerance of zero; the correction is never negative,
    so only eigenvalues whose raw value lies below +tol can qualify."""
    V = nodal_potential(w, p)
    tol = degeneracy_tolerance(p.lam)
    below = sturm_count_below(*neumann_tridiagonal(V), tol)
    if below and np.any(np.abs(sturm_spectrum(V, below).eigenvalues) < tol):
        raise DegenerateError(
            f"{label}: linearization has an eigenvalue within {tol:g} of zero at lam = {p.lam:g}"
        )


def _solve_neumann(V: Profile, rhs: np.ndarray) -> np.ndarray:
    """Solve (-D^2 + V) x = rhs with mirror ghosts through the symmetrized
    tridiagonal: the end entries are scaled by 1/sqrt 2 going in and by
    sqrt 2 coming out."""
    diag, off = neumann_tridiagonal(V)
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    scaled = np.array(rhs, dtype=float)
    scaled[[0, -1]] /= math.sqrt(2.0)
    x = solve_banded((1, 1), ab, scaled)
    x[[0, -1]] *= math.sqrt(2.0)
    return x


def first_order_corrections(sol0, p: ModelParams) -> tuple[Profile, Profile]:
    """First eps-derivatives (phi, psi) of the continued state at eps = 0.

    psi solves (-D^2 + mu) psi = (mu/d) c(x) w/(1+w); it is strictly positive
    whenever c is nonzero.  phi then solves the limit w-block system with
    right side -a(x) w^2 - b w/(1+w) psi.  Refuses (DegenerateError) when the
    w-block is within the degeneracy tolerance of singular.
    """
    w = sol0.profile if isinstance(sol0, NodalSolution) else getattr(sol0, "w", sol0)
    if not isinstance(w, Profile):
        raise DomainError("sol0 must be a NodalSolution, CoexistenceState, or Profile")
    if not p.mu > 0.0:
        raise DomainError("corrections require mu > 0")
    assert_nondegenerate(w, p, label="first_order_corrections")

    n_points = w.n_points
    a_vals, c_vals = _coeff_samples(p, n_points)
    ratio = w.values / (1.0 + w.values)

    psi = _solve_neumann(Profile.constant(p.mu, n_points), (p.mu / p.d) * c_vals * ratio)
    rhs_w = -a_vals * w.values ** 2 - p.b * ratio * psi
    phi = _solve_neumann(nodal_potential(w, p), rhs_w)
    return Profile(phi), Profile(psi)


def admissible_lambda(n: int, p: ModelParams, margin: float | None = None) -> None:
    """Raise DomainError unless lam sits in the census-admissible set for n.

    Checks: inside the mode-n window, outside the mode-(n+1) window when that
    window exists, and at distance >= margin from every real root.  The
    per-seed degeneracy gate (the local singular-set test) runs in census
    itself.
    """
    if margin is None:
        margin = 1e-4 * p.bmu_over_d
    windows = mode_windows(p)
    holding = [root.ell for root in windows if root.lambda_minus < p.lam < root.lambda_plus]
    if int(n) not in holding:
        root_n = lambda_roots(int(n), p)
        raise DomainError(
            f"lam = {p.lam:g} is outside the mode-{n} window "
            f"({root_n.lambda_minus:g}, {root_n.lambda_plus:g})"
        )
    if int(n) + 1 in holding:
        raise DomainError(
            f"lam = {p.lam:g} lies inside the mode-{int(n) + 1} window; "
            "the census count claim needs lam outside it"
        )
    for root in windows:
        for lam_root in (root.lambda_minus, root.lambda_plus):
            if abs(p.lam - lam_root) < margin:
                raise DomainError(
                    f"lam = {p.lam:g} is within {margin:g} of the bifurcation value "
                    f"lam_{root.ell} = {lam_root:g}"
                )


def limit_seeds(n: int, p: ModelParams, n_points: int) -> list[tuple[str, Profile]]:
    """The 2n+1 limit seeds of the census with their origin labels: the
    constant w0, then the lower and upper member of every j-crossing pair,
    j = 1..n."""
    seeds = [("constant", Profile.constant(w0_const(p), n_points))]
    for j in range(1, n + 1):
        lower, upper = nodal_pair(j, p, n_points)
        seeds.append((f"nodal({j},lower)", lower.profile))
        seeds.append((f"nodal({j},upper)", upper.profile))
    return seeds


def census(n: int, p: ModelParams, n_points: int = 2001, margin: float | None = None) -> CensusResult:
    """Newton solves at eps = p.eps from the 2n+1 limit seeds.

    Seeds are the constant pair (w0, mu/d) and both members of every
    j-crossing pair for j = 1..n, each paired with the flat predator level.
    Pairwise-distinct converged states are returned; the shortfall flag is
    set when fewer than 2n+1 distinct states survive (the usual sign that
    eps is outside the perturbation neighborhood).
    """
    if int(n) != n or n < 1:
        raise DomainError(f"census needs an integer n >= 1, got {n!r}")
    n = int(n)
    kappa = len(mode_windows(p))
    if kappa < 1 or not p.mu < mu_threshold(kappa + 1, p):
        raise DomainError(
            f"census requires mu strictly between consecutive mode thresholds; mu = {p.mu:g}"
        )
    if n > kappa:
        raise DomainError(f"census n = {n} exceeds kappa = {kappa} at mu = {p.mu:g}")
    admissible_lambda(n, p, margin=margin)

    v_flat = Profile.constant(p.mu / p.d, n_points)
    seeds = limit_seeds(n, p, n_points)
    for origin, seed_w in seeds:
        assert_nondegenerate(seed_w, p, label=f"census seed {origin}")

    states: list[CoexistenceState] = []
    failures: list[str] = []
    for origin, seed_w in seeds:
        try:
            states.append(newton_solve(seed_w, v_flat, p, origin=origin))
        except (ConvergenceError, PositivityError) as exc:
            failures.append(f"{origin}: {exc}")
    if failures:
        warnings.warn("census failures: " + "; ".join(failures), stacklevel=2)

    distinct: list[CoexistenceState] = []
    for state in states:
        dup = any(
            state.w.sup_distance(other.w) <= DISTINCT_TOL
            and state.v.sup_distance(other.v) <= DISTINCT_TOL
            for other in distinct
        )
        if not dup:
            distinct.append(state)
    shortfall = len(distinct) < 2 * n + 1
    return CensusResult(p.lam, p.mu, p.eps, tuple(distinct), len(distinct), shortfall)


def continue_in_eps(
    start: CoexistenceState, p: ModelParams, eps_target: float, steps: int = 8
) -> ContinuationResult:
    """Natural continuation of a converged state along a linear eps ladder.

    Each rung warm-starts from the previous state.  On Newton failure or
    positivity loss the ladder stops early; the breakdown record and the
    states accepted so far give an empirical lower bound for the
    perturbation range.
    """
    if int(steps) != steps or steps < 1:
        raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
    if eps_target < 0.0:
        raise DomainError("eps_target must be >= 0")
    accepted = [start]
    if eps_target == start.eps:
        return ContinuationResult((start,), None)
    ladder = np.linspace(start.eps, eps_target, int(steps) + 1)[1:]
    breakdown = None
    for eps in ladder:
        q = p.with_eps(float(eps))
        prev = accepted[-1]
        try:
            accepted.append(
                newton_solve(
                    prev.w, prev.v, q, origin="continued",
                    w_fine=prev.w_fine, v_fine=prev.v_fine,
                )
            )
        except (ConvergenceError, PositivityError) as exc:
            breakdown = f"eps = {eps:g}: {type(exc).__name__}: {exc} (last good eps = {prev.eps:g})"
            break
    return ContinuationResult(tuple(accepted), breakdown)


def constant_states(p: ModelParams, polish_tol: float = 1e-12) -> list[tuple[float, float]]:
    """All spatially constant coexistence pairs for constant coefficients.

    Eliminating v reduces the algebraic system to a cubic in w (quadratic at
    eps = 0); real positive roots are polished in the original 2x2 system
    and verified to the stated tolerance.
    """
    if not (p.coeff_a.is_constant and p.coeff_c.is_constant):
        raise DomainError("constant_states requires constant coefficients")
    a = p.coeff_a.value
    c = p.coeff_c.value
    b, d, lam, mu, eps = p.b, p.d, p.lam, p.mu, p.eps

    coeffs = [
        -eps * a * d,
        d * lam - 2.0 * eps * a * d,
        2.0 * d * lam - b * mu - eps * a * d - b * eps * c,
        d * lam - b * mu,
    ]
    roots = np.roots(coeffs)

    def system(w: float, v: float) -> tuple[float, float]:
        return (
            lam - eps * a * w - b * v / (1.0 + w),
            mu - d * v + eps * c * w / (1.0 + w),
        )

    out: list[tuple[float, float]] = []
    for root in roots:
        if abs(root.imag) > 1e-9 * (1.0 + abs(root)):
            continue
        w = float(root.real)
        if w <= 0.0:
            continue
        v = (mu + eps * c * w / (1.0 + w)) / d
        if v <= 0.0:
            continue
        # polish in the 2x2 system
        for _ in range(40):
            r1, r2 = system(w, v)
            if max(abs(r1), abs(r2)) < polish_tol:
                break
            j11 = -eps * a + b * v / (1.0 + w) ** 2
            j12 = -b / (1.0 + w)
            j21 = eps * c / (1.0 + w) ** 2
            j22 = -d
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                break
            w -= (r1 * j22 - r2 * j12) / det
            v -= (j11 * r2 - j21 * r1) / det
        r1, r2 = system(w, v)
        if max(abs(r1), abs(r2)) >= polish_tol or w <= 0.0 or v <= 0.0:
            continue
        if any(abs(w - wo) <= 1e-9 * (1.0 + abs(w)) for wo, _ in out):
            continue
        out.append((w, v))
    out.sort()
    return out
