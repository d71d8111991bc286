"""The full coupled steady-state system at saturation parameter eps > 0:
finite-difference residual, damped Newton with banded Jacobian, first-order
corrections in eps, the coexistence-state census seeded from the limit
states, and continuation in eps on one held LU per ladder.

The residual of a pair (w, v) is

    G1 = -w'' - lam w + eps a(x) w^2 + b w v/(1+w)
    G2 = -v'' - mu v + d v^2 - eps c(x) w v/(1+w)

discretized exactly like the linearization module (centered differences,
mirror ghost nodes), so at eps = 0 and v = mu/d the Newton Jacobian's
w-block is literally the linearized Sturm-Liouville operator.  Unknowns are
interleaved (w_i, v_i), giving a narrow banded Jacobian solved by LU with
partial pivoting (LAPACK dgbtrf, then dgbtrs).  A cold solve factors at every
Newton step, and its state keeps the last LU when that one was formed past
the initial guess.  An eps ladder takes that LU over (or factors at its
start), keeps it across rungs and takes chord steps against it, re-factoring
only when a chord step contracts too little.  Each rung starts from the
quadratic extrapolation in eps of the accepted states, with the start's
tangent standing in for a second node at the start.

With a(x), c(x) and every input profile exact palindromes on the
n_points = 2c + 1 grid (the constant seed and every even-n limit member at
constant coefficients), the system is fixed by the reflection x -> 1 - x, and
Newton and the ladder run on nodes 0..c alone: the full grid's 1/h^2, and the
mirror ghost at node c, which there is the reflection at x = 1/2.  At every
node the half residual is formed from the same operands as the full residual
of the mirrored state (node N-1-i only swaps them), so the two agree bit for
bit and the certificate is the full grid's.  States come back mirrored onto
the full grid.

One ulp of a nodal value moves the discrete Laplacian by 2 u0 |w|/h^2 with
u0 the unit roundoff (about 2.4e-9 at the default 2001-point grid), which
sits above the 1e-9 residual contract, so a plain float64 nodal vector
cannot converge that far.
Newton therefore carries each unknown as an unevaluated sum base + fine: the
frozen base absorbs the bulk, the fine part accumulates the updates, the
Laplacian acts on the two parts separately (the base's second differences
are formed once per base), and reaction terms use the collapsed value (their
ulp sensitivity is harmless).  Converged states store the collapsed
profiles plus the exact collapse leftovers, so the certified residual can be
re-evaluated from the state alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .errors import (
    ConvergenceError,
    DomainError,
    GridMismatchError,
    PositivityError,
)
from .linstab import assert_nondegenerate
from .model import ModelParams, Profile, whole
from .nodal import limit_seeds
from .spectral import mode_windows, mu_threshold, window_holds

__all__ = [
    "CensusResult",
    "CoexistenceState",
    "ContinuationResult",
    "census",
    "continue_in_eps",
    "first_order_corrections",
    "jacobian_banded",
    "newton_solve",
    "residual",
    "residual_fine",
]

NEWTON_TOL = 1e-9
MAX_NEWTON_ITERS = 50
MAX_BACKTRACKS = 20
DISTINCT_TOL = 1e-6

CHORD_THETA = 0.1  # a kept chord step leaves at most this share of the residual norm

_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


@dataclass(frozen=True, eq=False)
class CoexistenceState:
    """A componentwise positive solution of the coupled system.

    ``w_fine`` and ``v_fine`` are the exact leftovers of rounding the
    converged two-part Newton iterate into the stored profiles;
    ``residual_sup`` is certified for the pair (values + fine), which
    ``residual_fine`` re-evaluates.

    ``factored`` is (parameters, LU factors) of the last Jacobian a cold
    ``newton_solve`` factored, when it factored one past the initial guess
    (Newton iteration 1 or later), and None otherwise; ladder rungs carry
    None.  ``continue_in_eps`` takes those factors over instead of factoring
    at the start, when its ladder runs on as many nodes.  Nothing writes to
    them.  At 2001 points they hold about 240 KB (a 7 x 4002 band plus
    pivots); a solve on the half grid (see newton_solve) keeps the half
    band, 7 x 2(c + 1) on 2c + 1 points.  Left out of repr.
    """

    w: Profile
    v: Profile
    lam: float
    mu: float
    eps: float
    residual_sup: float
    newton_iters: int
    origin: str  # "constant", "nodal(n,branch)", or "continued"
    w_fine: np.ndarray
    v_fine: np.ndarray
    factored: tuple | None = field(default=None, repr=False)


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


def _grid_terms(p: ModelParams, n_points: int):
    """(a(x), c(x), 1/h^2) on the closed n_points grid, 1/h^2 = (n_points - 1)^2."""
    x = np.linspace(0.0, 1.0, n_points)
    return p.coeff_a(x), p.coeff_c(x), (n_points - 1.0) ** 2


def _fold(terms, *arrays):
    """(terms, m): the solve runs on nodes 0..m-1 with the returned terms.

    When a(x), c(x) and every array read the same reversed, bit for bit, on
    the n_points = 2c + 1 grid, the reflection x -> 1 - x fixes the problem
    and m = c + 1: the terms are cut to nodes 0..c, 1/h^2 stays the full
    grid's, and the mirror ghost at node c is the reflection at x = 1/2.
    Otherwise m = n_points and the terms are returned as they are.
    """
    a_vals, c_vals, inv_h2 = terms
    # the end nodes first: they refuse an odd-n member or a sampled
    # coefficient without a pass over the array
    if not all(u[0] == u[-1] and np.array_equal(u, u[::-1]) for u in (*arrays, a_vals, c_vals)):
        return terms, a_vals.size
    m = a_vals.size // 2 + 1
    return (a_vals[:m], c_vals[:m], inv_h2), m


def _unfold(arrays: tuple, n_points: int) -> tuple:
    """The arrays on the n_points grid: as they are, or nodes 0..c mirrored
    about node c."""
    if arrays[0].size == n_points:
        return arrays
    return tuple(np.concatenate((u, u[-2::-1])) for u in arrays)


def _check_pair(w: Profile, v: Profile, w_fine: np.ndarray | None = None, v_fine: np.ndarray | None = None) -> None:
    """Same grid for both components and both fine parts, finite fine parts,
    and w > -1 at every node of the pair carried as w + w_fine."""
    if w.n_points != v.n_points:
        raise GridMismatchError(f"grids differ: {w.n_points} vs {v.n_points} points")
    for name, fine in (("w_fine", w_fine), ("v_fine", v_fine)):
        if fine is None:
            continue
        if np.shape(fine) != (w.n_points,):
            raise GridMismatchError(f"{name} has shape {np.shape(fine)}, the grid has {w.n_points} points")
        if not np.isfinite(fine).all():
            raise DomainError(f"{name} must be finite at every node")
    if np.any((w.values if w_fine is None else w.values + w_fine) <= -1.0):
        raise DomainError("w must satisfy w > -1 at every node")


def _sup(g1: np.ndarray, g2: np.ndarray) -> float:
    return max(float(np.max(np.abs(g1))), float(np.max(np.abs(g2))))


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
    _check_pair(w, v)
    zero = np.zeros(w.n_points)
    g1, g2, _, _ = _two_part_residual(_base(w.values, v.values), zero, zero, p, _grid_terms(p, w.n_points))
    return Profile(g1), Profile(g2)


def jacobian_banded(w: np.ndarray, v: np.ndarray, p: ModelParams, a_vals, c_vals, inv_h2):
    """Banded (l=u=2) Jacobian for interleaved unknowns, in the storage LAPACK
    dgbtrf factors: a Fortran-order 7 x 2n array whose rows 2..6 hold the
    diagonals +2..-2 (A[i, j] at row 4 + i - j, column j) and whose rows 0-1
    are zero, left for the pivoting fill-in.  ``ab[2:]`` is the layout of
    solve_banded((2, 2), ...).

    Row 2i is the w-equation at node i, row 2i+1 the v-equation.  The only
    couplings are w_i <-> v_i (offset 1) and same-field neighbors (offset 2);
    the mirror ghost closure doubles the boundary neighbor entries.
    """
    ab = np.zeros((7, 2 * w.size), order="F")
    one_w = 1.0 + w
    ab[4, 0::2] = 2.0 * inv_h2 - p.lam + 2.0 * p.eps * a_vals * w + p.b * v / one_w ** 2  # dG1_i/dw_i
    ab[4, 1::2] = 2.0 * inv_h2 - p.mu + 2.0 * p.d * v - p.eps * c_vals * w / one_w  # dG2_i/dv_i
    ab[3, 1::2] = p.b * w / one_w  # +1: A[2i, 2i+1] = dG1_i/dv_i
    ab[5, 0::2] = -p.eps * c_vals * v / one_w ** 2  # -1: A[2i+1, 2i] = dG2_i/dw_i
    # +/-2: same-field neighbor couplings, doubled by the ghost nodes at
    # A[0, 2], A[1, 3] and A[2n-2, 2n-4], A[2n-1, 2n-3]
    ab[2, 2:] = -inv_h2
    ab[2, 2:4] = -2.0 * inv_h2
    ab[6, :-2] = -inv_h2
    ab[6, -4:-2] = -2.0 * inv_h2
    return ab


def _factor(ab: np.ndarray):
    """LU factors of ``jacobian_banded``'s band by one LAPACK dgbtrf call on a
    copy, so ``ab`` is left unchanged.  dgbsv is dgbtrf followed by dgbtrs, so
    ``_solve(_factor(ab), rhs)`` is bit-identical to
    solve_banded((2, 2), ab[2:], rhs) and keeps its errors."""
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = _GBTRF(ab, 2, 2)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbtrf")
    return lu, piv


def _solve(factors, rhs: np.ndarray) -> np.ndarray:
    """Solve against ``_factor``'s LU by one LAPACK dgbtrs call."""
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv = factors
    x, info = _GBTRS(lu, 2, 2, rhs, piv)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbtrs")
    return x


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


def _base(wb: np.ndarray, vb: np.ndarray):
    """The frozen base pair with its second differences, formed once per base."""
    return wb, vb, _second_difference(wb), _second_difference(vb)


def _two_part_residual(base, wf, vf, p, terms):
    """Residual of the pair carried as base + fine, plus collapsed values.

    The Laplacian is applied to base and fine separately (differences of the
    frozen base are exact, the fine part is far below one ulp of the base);
    reaction terms see only the collapsed values, whose ulp-level error is
    orders below the residual contract.  base is _base's quadruple, terms
    _grid_terms' triple.
    The predator's -mu v + d v^2 is formed as d v ((v_b - mu/d) + v_f): near
    the limit v = mu/d its two terms, each about mu^2/d, would cancel to a
    rounding error of eps mu^2/d (3.6e-9 at mu = 4000), while v_b - mu/d is
    exact wherever v_b lies within a factor 2 of mu/d.  The prey's terms are
    about lam w and need no such care.
    """
    wb, vb, d2_wb, d2_vb = base
    a_vals, c_vals, inv_h2 = terms
    w = wb + wf
    v = vb + vf
    lap_w = -inv_h2 * (d2_wb + _second_difference(wf))
    lap_v = -inv_h2 * (d2_vb + _second_difference(vf))
    g1 = lap_w - p.lam * w + p.eps * a_vals * w * w + p.b * w * v / (1.0 + w)
    g2 = lap_v + p.d * v * ((vb - p.mu / p.d) + vf) - p.eps * c_vals * w * v / (1.0 + w)
    return g1, g2, w, v


def newton_solve(w0: Profile, v0: Profile, p: ModelParams, origin: str = "continued") -> CoexistenceState:
    """Damped Newton for the coupled system from the given initial pair.

    Full steps are accepted whenever the squared residual norm decreases;
    otherwise the step is halved (at most 20 times).  Convergence means
    discrete sup-norm residual below 1e-9, evaluated on the two-part
    iterate.  A converged limit outside the open positive cone raises
    PositivityError carrying the limit.  The state keeps the LU factors of
    the last Jacobian the solve factored, when that was past the initial
    guess (see CoexistenceState.factored).

    When a(x), c(x), w0 and v0 all read the same reversed, bit for bit, on
    the 2c + 1 grid, the solve runs on nodes 0..c with the mirror ghost at
    node c, and the state (or the PositivityError's limit) is that half
    mirrored onto the full grid.  Each half residual is the full residual of
    the mirrored iterate, operands swapped at the mirrored node, so
    ``residual_sup`` is the full grid's certificate and residual_fine
    recomputes it exactly.  Any other input takes the full grid.
    """
    _check_pair(w0, v0)
    terms, m = _fold(_grid_terms(p, w0.n_points), w0.values, v0.values)
    zero = np.zeros(m)
    state, _ = _newton(w0.values[:m], zero, v0.values[:m], zero, p, terms, origin, w0.n_points)
    return state


def _newton(wb, wf, vb, vf, p, terms, origin, n_points, held=None):
    """Newton iteration on the pair carried as base + fine; returns the
    converged state and the LU factors held at the end.  The arrays hold
    the nodes _fold kept; the state and a PositivityError carry them
    unfolded onto the n_points grid.

    With ``held`` None every step factors the Jacobian at the iterate
    (damped Newton).  With held factors each step is first tried as a chord
    step against them, kept only when the squared residual norm falls below
    CHORD_THETA^2 times its old value and w stays > -1; otherwise the
    Jacobian is factored at the iterate, those factors become the held
    ones, and the damped Newton step is taken.  ``newton_iters`` counts the
    accepted steps of either kind.  Without held factors the state keeps the
    last factors formed at iteration 1 or later as its ``factored``.
    """
    factored = None
    base = _base(wb, vb)
    g1, g2, w, v = _two_part_residual(base, wf, vf, p, terms)
    res_sup = _sup(g1, g2)
    res_sq = float(np.dot(g1, g1) + np.dot(g2, g2))

    for iteration in range(MAX_NEWTON_ITERS + 1):
        if res_sup < NEWTON_TOL:
            if float(np.min(w)) <= 0.0 or float(np.min(v)) <= 0.0:
                w, v = _unfold((w, v), n_points)
                raise PositivityError(
                    "Newton converged to a limit outside the positive cone",
                    w=Profile(w), v=Profile(v), residual_sup=res_sup, iterations=iteration,
                )
            w_out, w_left, v_out, v_left = _unfold((*_two_sum(wb, wf), *_two_sum(vb, vf)), n_points)
            return CoexistenceState(
                Profile(w_out), Profile(v_out), p.lam, p.mu, p.eps,
                res_sup, iteration, origin, w_left, v_left, factored,
            ), held
        if iteration == MAX_NEWTON_ITERS:
            break
        rhs = -_interleave(g1, g2)
        trial = None
        if held is not None:
            trial = _try_step(base, wf, vf, _solve(held, rhs), p, terms, CHORD_THETA ** 2 * res_sq, 1)
        if trial is None:
            factors = _factor(jacobian_banded(w, v, p, *terms))
            if held is not None:
                held = factors
            elif iteration > 0:
                factored = (p, factors)
            trial = _try_step(base, wf, vf, _solve(factors, rhs), p, terms, res_sq, MAX_BACKTRACKS + 1)
            if trial is None:
                raise ConvergenceError(
                    f"Newton line search failed at iteration {iteration} (residual {res_sup:g}); "
                    "the guess is outside the contraction neighborhood"
                )
        wf, vf, g1, g2, w, v, res_sq = trial
        res_sup = _sup(g1, g2)
        if float(np.max(np.abs(wf))) > 0.25 or float(np.max(np.abs(vf))) > 0.25:
            # renormalize so the fine parts keep their precision headroom
            wb, wf = _two_sum(wb, wf)
            vb, vf = _two_sum(vb, vf)
            base = _base(wb, vb)
    raise ConvergenceError(
        f"Newton did not reach residual {NEWTON_TOL:g} in {MAX_NEWTON_ITERS} iterations "
        f"(final residual {res_sup:g})"
    )


def _try_step(base, wf, vf, step, p, terms, bound, tries):
    """The first of the steps t * step, t = 1, 1/2, ... (``tries`` of them)
    that keeps w > -1 and brings the squared residual norm below ``bound``,
    as (wf, vf, g1, g2, w, v, squared norm) of the new iterate; None when
    none does."""
    wb = base[0]
    dw = step[0::2]
    dv = step[1::2]
    t = 1.0
    for _ in range(tries):
        wf_new = wf + t * dw
        vf_new = vf + t * dv
        if float(np.min(wb + wf_new)) > -1.0:
            g1, g2, w, v = _two_part_residual(base, wf_new, vf_new, p, terms)
            sq = float(np.dot(g1, g1) + np.dot(g2, g2))
            if sq < bound:
                return wf_new, vf_new, g1, g2, w, v, sq
        t *= 0.5
    return None


def residual_fine(state: CoexistenceState, p: ModelParams) -> float:
    """Re-evaluate the certified sup-norm residual of a stored state."""
    g1, g2, _, _ = _two_part_residual(
        _base(state.w.values, state.v.values), state.w_fine, state.v_fine, p, _grid_terms(p, state.w.n_points)
    )
    return _sup(g1, g2)


def first_order_corrections(w: Profile, p: ModelParams) -> tuple[Profile, Profile]:
    """First eps-derivatives (phi, psi) of the continued state at eps = 0.

    By the implicit function theorem they solve J (phi, psi) = -dG/deps with
    J the Newton Jacobian at (w, mu/d) and eps = 0.  Its v-block decouples:
    psi solves (-D^2 + mu) psi = (mu/d) c(x) w/(1+w) and is strictly positive
    whenever c is nonzero; phi solves the limit w-block system with right
    side -a(x) w^2 - b w/(1+w) psi.  Refuses (DegenerateError) when the
    w-block is within the degeneracy tolerance of singular.
    """
    if not isinstance(w, Profile):
        raise DomainError(f"w must be a Profile, got {type(w).__name__}")
    if not p.mu > 0.0:
        raise DomainError("corrections require mu > 0")
    assert_nondegenerate(w, p, label="first_order_corrections")

    terms = _grid_terms(p, w.n_points)
    a_vals, c_vals, _ = terms
    v = np.full(w.n_points, p.mu / p.d)
    rhs = _interleave(-a_vals * w.values ** 2, (p.mu / p.d) * c_vals * (w.values / (1.0 + w.values)))
    step = _solve(_factor(jacobian_banded(w.values, v, p.with_eps(0.0), *terms)), rhs)
    return Profile(step[0::2]), Profile(step[1::2])


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
    holds = window_holds(n, p)  # validates n
    n = int(n)
    if not holds:
        if n > len(windows):
            raise DomainError(f"the mode-{n} window is closed at mu = {p.mu:g} (kappa = {len(windows)})")
        raise DomainError(
            f"lam = {p.lam:g} is outside the mode-{n} window "
            f"({windows[n - 1].lambda_minus:g}, {windows[n - 1].lambda_plus:g})"
        )
    if window_holds(n + 1, p):
        raise DomainError(
            f"lam = {p.lam:g} lies inside the mode-{n + 1} window; "
            "the census count claim needs lam outside it"
        )
    for root in windows:
        for lam_root in (root.lambda_minus, root.lambda_plus):
            if abs(p.lam - lam_root) < margin:
                raise DomainError(
                    f"lam = {p.lam:g} is within {margin:g} of the bifurcation value "
                    f"lam_{root.ell} = {lam_root:g}"
                )


def census(n: int, p: ModelParams, n_points: int = 2001) -> CensusResult:
    """Newton solves at eps = p.eps from the 2n+1 limit seeds.

    Seeds are the constant pair (w0, mu/d) and both members of every
    j-crossing pair for j = 1..n, each paired with the flat predator level.
    Pairwise-distinct converged states are returned; the shortfall flag is
    set when fewer than 2n+1 distinct states survive (the usual sign that
    eps is outside the perturbation neighborhood).
    """
    kappa = len(mode_windows(p))
    if kappa < 1 or not p.mu < mu_threshold(kappa + 1, p):
        raise DomainError(
            f"census requires mu strictly between consecutive mode thresholds; mu = {p.mu:g}"
        )
    admissible_lambda(n, p)  # validates n; the mode-n window holds lam, so n <= kappa
    n = int(n)

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


def _factored_at(state: CoexistenceState, p: ModelParams, m: int):
    """The state's kept LU factors when they were formed at p (equal b, d,
    lam, mu and eps, and the same coefficient objects) on m nodes; None
    otherwise."""
    if state.factored is None:
        return None
    q, factors = state.factored
    same = (q.b, q.d, q.lam, q.mu, q.eps) == (p.b, p.d, p.lam, p.mu, p.eps)
    same = same and q.coeff_a is p.coeff_a and q.coeff_c is p.coeff_c
    return factors if same and factors[0].shape[1] == 2 * m else None


def continue_in_eps(
    start: CoexistenceState, p: ModelParams, eps_target: float, steps: int = 8
) -> ContinuationResult:
    """Natural continuation of a converged state along a linear eps ladder.

    Predictor-corrector continuation (Allgower & Georg, *Numerical
    Continuation Methods*, 1990) on one held LU per ladder.
    ``start`` must be solved at p's lam and mu.  The held LU is the one
    ``start`` kept from its cold solve (``CoexistenceState.factored``) when
    that was formed at p.with_eps(start.eps); otherwise the Jacobian is
    factored once at ``start``.  The tangent t, J t = -dG/deps =
    (-a w^2, c w v/(1+w)), is solved against the held LU.  Each rung starts from
    Newton's divided-difference extrapolation, of degree at most 2, of the
    accepted states, with the start counted twice and t as its first divided
    difference: the first rung from the tangent prediction
    start + (eps - start.eps) t, the second from the Hermite quadratic
    through start, t and the first rung, and every later rung from the
    quadratic through the last three states.  Differences are formed from values and fine parts.  A
    rung whose two newest accepted states share an eps starts from prev;
    when only the second and third newest share one, it starts from the
    secant through the newest two.  The predicted step goes into the fine
    parts of the two-part carrier; a prediction that would leave w > -1
    falls back to prev.  Each rung corrects by chord steps against the held
    factors (simplified Newton, Deuflhard, *Newton Methods for Nonlinear
    Problems*, 2004, sec. 2.1); a chord step that leaves more than
    CHORD_THETA of the residual norm re-factors at the iterate and takes the
    damped Newton step, and the ladder keeps the new factors.  The
    certificate is newton_solve's: sup residual below 1e-9 on the two-part
    iterate.  On Newton failure or positivity loss the ladder stops early;
    the breakdown record and the states accepted so far give an empirical
    lower bound for the perturbation range.

    When a(x), c(x) and start's w, v, w_fine and v_fine all read the same
    reversed, the whole ladder (tangent, predictions, chord and Newton
    steps) runs on nodes 0..c as newton_solve does, and takes start's
    factors over only when they are half-grid ones too; the certificate is
    still the full grid's.
    """
    steps = whole(steps, 1, "steps")
    eps_target = p.with_eps(eps_target).eps  # validates eps_target
    _check_pair(start.w, start.v, start.w_fine, start.v_fine)
    if start.lam != p.lam or start.mu != p.mu:
        raise DomainError(
            f"start was solved at lam = {start.lam:g}, mu = {start.mu:g}, "
            f"but the ladder runs at lam = {p.lam:g}, mu = {p.mu:g}"
        )
    if eps_target == start.eps:
        return ContinuationResult((start,), None)
    n_points = start.w.n_points
    terms, m = _fold(_grid_terms(p, n_points), start.w.values, start.v.values, start.w_fine, start.v_fine)
    a_vals, c_vals, _ = terms

    def nodes(state):
        arrays = state.w.values, state.w_fine, state.v.values, state.v_fine
        return arrays if m == n_points else tuple(u[:m] for u in arrays)

    prev_nodes = nodes(start)
    w, _, v, _ = prev_nodes
    at_start = p.with_eps(start.eps)
    held = _factored_at(start, at_start, m)
    if held is None:
        held = _factor(jacobian_banded(w, v, at_start, *terms))
    tangent = _solve(held, _interleave(-a_vals * w * w, c_vals * w * v / (1.0 + w)))
    # (spacing, first divided difference in w, in v) of the newest pair of
    # nodes and of the pair before it; None where a pair shares its eps
    newest, before = (0.0, tangent[0::2], tangent[1::2]), None
    accepted = [start]
    breakdown = None
    for eps in np.linspace(start.eps, eps_target, steps + 1)[1:]:
        q = p.with_eps(float(eps))
        prev = accepted[-1]
        prev_w, prev_wf, prev_v, prev_vf = prev_nodes
        dw = dv = 0.0
        if newest is not None:
            gap, slope_w, slope_v = newest
            s = q.eps - prev.eps
            dw, dv = s * slope_w, s * slope_v
            if before is not None:
                # second divided difference over the last three nodes
                r = s * (s + gap) / (gap + before[0])
                dw = dw + r * (slope_w - before[1])
                dv = dv + r * (slope_v - before[2])
        w_fine, v_fine = prev_wf + dw, prev_vf + dv
        if not float(np.min(prev_w + w_fine)) > -1.0:
            w_fine, v_fine = prev_wf, prev_vf
        try:
            state, held = _newton(prev_w, w_fine, prev_v, v_fine, q, terms, "continued", n_points, held)
        except (ConvergenceError, PositivityError) as exc:
            breakdown = f"eps = {eps:g}: {type(exc).__name__}: {exc} (last good eps = {prev.eps:g})"
            break
        gap = state.eps - prev.eps
        before, newest = newest, None
        prev_nodes = w, wf, v, vf = nodes(state)
        if gap != 0.0:
            newest = (gap, ((w - prev_w) + (wf - prev_wf)) / gap, ((v - prev_v) + (vf - prev_vf)) / gap)
        accepted.append(state)
    return ContinuationResult(tuple(accepted), breakdown)
