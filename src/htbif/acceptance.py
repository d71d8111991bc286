"""The acceptance suite: one function per criterion, shared by the test
module and the command-line ``--seed-check``.

Every criterion runs at the desk-scale configuration (b = d = 1, a = c = 1,
mu = 50, lam = 25, 2001 grid points unless stated) with its tolerance pinned
here.  Functions return a CriterionResult instead of raising so the runner
can always print a full pass/fail table; detail strings are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from . import linstab, nodal, perturbed, spectral, timemap
from .errors import NoSolutionError
from .model import ModelParams, Profile, w0_const

__all__ = ["CriterionResult", "run_all", "format_report", "CRITERIA"]

DESK = ModelParams()  # b = d = 1, lam = 25, mu = 50, a = c = 1


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _result(index: int, name: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(index, name, bool(passed), detail)


def criterion_01_spectral_exactness() -> CriterionResult:
    p = DESK
    root = spectral.lambda_roots(1, p)
    tau_minus = spectral.tau0(1, root.lambda_minus, p)
    tau_plus = spectral.tau0(1, root.lambda_plus, p)
    vieta_sum = root.lambda_minus + root.lambda_plus
    vieta_prod = root.lambda_minus * root.lambda_plus
    sum_err = abs(vieta_sum - 50.0) / 50.0
    prod_ref = 50.0 * math.pi ** 2
    prod_err = abs(vieta_prod - prod_ref) / prod_ref
    ok = abs(tau_minus) < 1e-12 and abs(tau_plus) < 1e-12 and sum_err < 1e-12 and prod_err < 1e-12
    return _result(
        1, "spectral exactness", ok,
        f"|tau(lam-)|={abs(tau_minus):.3e} |tau(lam+)|={abs(tau_plus):.3e} "
        f"Vieta sum err={sum_err:.3e} prod err={prod_err:.3e}",
    )


def criterion_02_threshold_coincidence() -> CriterionResult:
    p = DESK
    worst = 0.0
    for kappa in (1, 2, 3):
        mu_k = spectral.mu_threshold(kappa, p)
        q = ModelParams(b=p.b, d=p.d, lam=p.lam, mu=mu_k)
        root = spectral.lambda_roots(kappa, q)
        target = 0.5 * q.b * q.mu / q.d
        if not root.is_real:
            return _result(2, "threshold coincidence", False, f"kappa={kappa}: roots not real at mu_kappa")
        worst = max(
            worst,
            abs(root.lambda_minus - target) / target,
            abs(root.lambda_plus - target) / target,
        )
    return _result(2, "threshold coincidence", worst < 1e-12, f"worst double-root rel err={worst:.3e}")


def criterion_03_center_limit() -> CriterionResult:
    p = DESK
    w0 = w0_const(p)
    t = timemap.time_map(w0 * (1.0 - 1e-6), p).T
    tc = timemap.time_map_center(p)
    rel = abs(t - tc) / t
    return _result(3, "time-map center limit", rel < 1e-5, f"|T - Tc|/T = {rel:.3e}")


def criterion_04_monotone_divergence() -> CriterionResult:
    """T strictly decreases on a 200-point grid and diverges by the saddle law.

    Linearising the flow at the saddle w = 0 gives
    T(w_-) = ln(1/w_-)/k + C + O(w_-) with k = sqrt(b mu/d - lam), so the
    divergence is logarithmic.  The clause asserts that law: over
    w_- in {1e-8, 1e-9, 1e-10} w0 both slopes of T against ln(1/w_-) equal
    1/k (k from the closed form) to 1e-6 relative, T keeps growing, and
    T(1e-10 w0) exceeds every grid value.  An earlier form demanded
    T(1e-6 w0) > 5 T_c; that factor first appears near w_- ~ 8e-9 w0 (the
    true ratio at 1e-6 w0 is 3.905, confirmed by a 60-digit quadrature), so
    it asserted something false about the dynamics.  The ratio is still
    reported.  The constant C is not checked: its estimate T - ln(1/w_-)/k
    still moves by 1.2e-9 and 1.2e-10 over the two decades (the O(w_-)
    term), while T itself is within 4e-16 of 50-digit references there.
    """
    p = DESK
    plane = timemap.PhasePlane(p)
    w0 = plane.w0
    grid = w0 * (np.arange(1, 201) / 201.0)
    decreasing = timemap.monotone_check(p, grid)
    k = math.sqrt(p.b * p.mu / p.d - p.lam)
    scales = (1e-8, 1e-9, 1e-10)
    near = [plane.time_map(s * w0).T for s in scales]
    slope_errs = [
        abs(k * (near[i + 1] - near[i]) / math.log(scales[i] / scales[i + 1]) - 1.0)
        for i in range(len(scales) - 1)
    ]
    law_ok = all(err < 1e-6 for err in slope_errs)
    growing = all(a < b for a, b in zip(near, near[1:]))
    # with the grid decreasing (which `ok` also requires) its largest T is at grid[0]
    t_grid_max = plane.time_map(float(grid[0])).T
    above_grid = near[-1] > t_grid_max
    ratio = plane.time_map(1e-6 * w0).T / timemap.time_map_center(p)
    ok = decreasing and law_ok and growing and above_grid
    return _result(
        4, "time-map monotonicity and divergence", ok,
        f"strictly decreasing={decreasing}; |k*slope-1| over 1e-8..1e-10 w0 = "
        f"{slope_errs[0]:.1e},{slope_errs[1]:.1e} (k={k:g}); growing={growing}; "
        f"T(1e-10 w0)={near[-1]:.6f} vs grid max {t_grid_max:.6f}; "
        f"T(1e-6 w0)/Tc={ratio:.4f}",
    )


def criterion_05_ab_certification() -> CriterionResult:
    report = timemap.ab_certify(DESK)
    ok = report.a_condition_ok and report.b_condition_ok and report.worst_margin < 0.0
    return _result(
        5, "A-B certification", ok,
        f"alpha={report.alpha:.6f} worst margin={report.worst_margin:.6e} "
        f"simple zero={report.fprime_simple_zero_ok}",
    )


def criterion_06_exact_multiplicity() -> CriterionResult:
    p = DESK
    sols = nodal.enumerate_solutions(p)
    residuals = [nodal.bvp_residual(prof, p) for prof in sols.profiles()]
    lower, upper = sols.pairs[0] if sols.pairs else (None, None)
    count_ok = sols.count == 3 and len(sols.pairs) == 1
    res_ok = max(residuals) < 1e-6
    crossings_ok = lower is not None and lower.crossings == 1 and upper.crossings == 1
    outside_ok = True
    for lam_out in (10.0, 40.0):
        try:
            nodal.solve_amplitude(1, p.with_lam(lam_out))
            outside_ok = False
        except NoSolutionError:
            pass
    ok = count_ok and res_ok and crossings_ok and outside_ok
    return _result(
        6, "exact multiplicity at kappa=1", ok,
        f"count={sols.count} max bvp residual={max(residuals):.3e} "
        f"crossings=({lower.crossings if lower else '-'},{upper.crossings if upper else '-'}) "
        f"no-solution outside window={outside_ok}",
    )


def _rk4_march(w_start: float, p: ModelParams, duration: float, n_steps: int):
    """March the phase flow from (w_start, 0) for the given time (oracle)."""
    h = duration / n_steps
    lam, bmu_d = p.lam, p.bmu_over_d
    w, z = float(w_start), 0.0
    for _ in range(n_steps):
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
    return w, z


def criterion_07_cross_oracle() -> CriterionResult:
    p = DESK
    plane = timemap.PhasePlane(p)
    w0 = plane.w0
    worst = 0.0
    for frac in np.linspace(0.05, 0.95, 20):
        sample = plane.time_map(w0 * float(frac))
        n_steps = max(2000, int(math.ceil(sample.T / 2e-4)))
        w_end, z_end = _rk4_march(sample.w_minus, p, sample.T, n_steps)
        worst = max(worst, abs(w_end - sample.w_plus), abs(z_end))
    return _result(
        7, "quadrature/ODE cross-oracle", worst < 1e-6,
        f"worst landing error over 20 orbits = {worst:.3e}",
    )


def criterion_08_morse_indices() -> CriterionResult:
    p = DESK
    lower, upper = nodal.nodal_pair(1, p)
    m_const = spectral.morse_index_w0(p.lam, p)
    m_lower = linstab.morse_index_nodal(lower, p)
    m_upper = linstab.morse_index_nodal(upper, p)
    point_ok = m_const == 2 and m_lower == 1 and m_upper == 1

    staircase_ok = True
    for lam in np.linspace(0.5, 49.5, 50):
        expected = 2 if spectral.window_holds(1, p.with_lam(float(lam))) else 1
        if spectral.morse_index_w0(float(lam), p) != expected:
            staircase_ok = False
            break

    # Richardson ratios for the lowest 3 eigenvalues at three nested meshes
    meshes = (501, 1001, 2001)
    eigs = []
    for n_pts in meshes:
        low, _ = nodal.nodal_pair(1, p, n_pts)
        spec = linstab.sturm_spectrum(linstab.nodal_potential(low.profile, p), 3)
        eigs.append(spec.eigenvalues[:3])
    eigs = np.asarray(eigs)
    ratios = (eigs[0] - eigs[1]) / (eigs[1] - eigs[2])
    ratio_ok = bool(np.all((ratios >= 3.5) & (ratios <= 4.5)))
    ok = point_ok and staircase_ok and ratio_ok
    return _result(
        8, "Morse indices", ok,
        f"indices const/lower/upper = {m_const}/{m_lower}/{m_upper}; staircase ok={staircase_ok}; "
        f"Richardson ratios = {ratios[0]:.3f},{ratios[1]:.3f},{ratios[2]:.3f}",
    )


def criterion_09_sign_sandwich() -> CriterionResult:
    p = DESK
    worst_low = -math.inf
    worst_high = math.inf
    for lam in spectral.window_lambdas(1, p, 50):
        q = p.with_lam(lam)
        lower, _ = nodal.nodal_pair(1, q)
        spec = linstab.sturm_spectrum(linstab.nodal_potential(lower.profile, q), 2)
        worst_low = max(worst_low, float(spec.eigenvalues[0]))
        worst_high = min(worst_high, float(spec.eigenvalues[1]))
    ok = worst_low <= 1e-6 and worst_high >= -1e-6
    return _result(
        9, "sign sandwich", ok,
        f"max tau_(1,0) = {worst_low:.6e} (<= 1e-6), min tau_(1,1) = {worst_high:.6e} (>= -1e-6)",
    )


def criterion_10_bifurcation_direction() -> CriterionResult:
    p = DESK
    details = []
    ok = True
    for side, sign in (("minus", 1.0), ("plus", -1.0)):
        check = linstab.fit_expansion(1, side, p)
        eta1_ok = abs(check.eta1_estimate) < 1e-3 * abs(check.eta2_estimate) * 0.05
        sign_ok = math.copysign(1.0, check.eta2_estimate) == sign == math.copysign(
            1.0, check.eta2_closed_form
        )
        y1_ok = check.y1_l2_error < 0.05
        ok = ok and eta1_ok and sign_ok and y1_ok
        details.append(
            f"{side}: eta1={check.eta1_estimate:.3e} eta2={check.eta2_estimate:.5f} "
            f"(closed {check.eta2_closed_form:.5f}) y1 L2 err={check.y1_l2_error:.4f}"
        )
    return _result(10, "bifurcation direction", ok, "; ".join(details))


def criterion_11_integral_identity() -> CriterionResult:
    p = DESK
    side = "minus"
    lam = spectral.lambda_roots(1, p).lambda_minus
    y1 = spectral.y1_closed_form(1, side, p, 2001)
    x = y1.x
    val = float(simpson(np.cos(math.pi * x) ** 2 * y1.values, x=x))
    ref = -(5.0 * lam / 24.0) * (p.d * lam / (math.pi * p.b * p.mu)) ** 2
    rel = abs(val - ref) / abs(ref)
    return _result(11, "closed-form integral identity", rel < 1e-8, f"rel err = {rel:.3e}")


def criterion_12_perturbed_census() -> CriterionResult:
    p0 = ModelParams(eps=0.0)
    result = perturbed.census(1, p0.with_eps(1e-3))
    w0 = w0_const(p0)
    census_ok = result.distinct_count == 3 and not result.shortfall
    res_ok = all(s.residual_sup < 1e-9 for s in result.states)
    pos_ok = all(
        float(np.min(s.w.values)) > 0.0 and float(np.min(s.v.values)) > 0.0 for s in result.states
    )
    crossing_expect = {"constant": 0, "nodal(1,lower)": 1, "nodal(1,upper)": 1}
    crossings_ok = all(
        nodal.crossing_count(s.w.values, w0) == crossing_expect[s.origin] for s in result.states
    )

    # first-order consistency against the discrete eps = 0 state
    lower, _ = nodal.nodal_pair(1, p0)
    v_flat = Profile.constant(p0.mu / p0.d, 2001)
    base = perturbed.newton_solve(lower.profile, v_flat, p0, origin="nodal(1,lower)")
    phi, _ = perturbed.first_order_corrections(base.w, p0)
    rates = []
    gaps = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        st = perturbed.newton_solve(base.w, v_flat, p0.with_eps(eps))
        diff = st.w.values - base.w.values
        rates.append(float(np.max(np.abs(diff))) / eps)
        gaps.append(float(np.max(np.abs(diff / eps - phi.values))))
    rate_ok = abs(rates[0] - rates[-1]) < 0.05 * rates[-1]
    linear_ok = gaps[0] > gaps[1] > gaps[2] and 1.6 < gaps[0] / gaps[1] < 2.4 and 1.6 < gaps[1] / gaps[2] < 2.4
    ok = census_ok and res_ok and pos_ok and crossings_ok and rate_ok and linear_ok
    return _result(
        12, "perturbed census", ok,
        f"distinct={result.distinct_count} max res={max(s.residual_sup for s in result.states):.2e} "
        f"positivity={pos_ok} crossings={crossings_ok} |W-w1|/eps={rates[0]:.5f}->{rates[-1]:.5f} "
        f"phi gaps={gaps[0]:.3e}/{gaps[1]:.3e}/{gaps[2]:.3e}",
    )


def criterion_13_correction_positivity() -> CriterionResult:
    p = ModelParams(eps=0.0)
    lower, _ = nodal.nodal_pair(1, p)
    _, psi = perturbed.first_order_corrections(lower.profile, p)
    m = float(np.min(psi.values))
    return _result(13, "correction positivity", m > 0.0, f"min psi = {m:.6e}")


def criterion_14_jacobian_check() -> CriterionResult:
    p = ModelParams(eps=1e-3)
    n_points = 501
    x = np.linspace(0.0, 1.0, n_points)
    rng = np.random.default_rng(0)
    a_vals = p.coeff_a(x)
    c_vals = p.coeff_c(x)
    inv_h2 = (n_points - 1.0) ** 2
    worst = 0.0
    for _ in range(10):
        w = 0.8 + 0.5 * np.sin(2.0 * math.pi * rng.uniform() * x + rng.uniform()) + 0.1 * rng.standard_normal(n_points)
        v = 50.0 + 2.0 * np.cos(2.0 * math.pi * rng.uniform() * x) + 0.1 * rng.standard_normal(n_points)
        ab = perturbed.jacobian_banded(w, v, p, a_vals, c_vals, inv_h2)
        direction = rng.standard_normal(2 * n_points)
        direction /= float(np.linalg.norm(direction))
        t = 1e-7
        wp, vp = w + t * direction[0::2], v + t * direction[1::2]
        wm, vm = w - t * direction[0::2], v - t * direction[1::2]
        g1p, g2p = perturbed.residual(Profile(wp), Profile(vp), p)
        g1m, g2m = perturbed.residual(Profile(wm), Profile(vm), p)
        fd = np.column_stack((g1p.values - g1m.values, g2p.values - g2m.values)).ravel() / (2.0 * t)
        analytic = _apply_banded(ab, direction)
        worst = max(worst, float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)))
    return _result(14, "Jacobian check", worst < 1e-5, f"worst directional rel err = {worst:.3e}")


def _apply_banded(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = x.size
    out = np.zeros(n)
    for off in range(-2, 3):
        row = 2 - off
        if off == 0:
            out += ab[row, :] * x
        elif off > 0:
            out[: n - off] += ab[row, off:] * x[off:]
        else:
            out[-off:] += ab[row, :off] * x[:off]
    return out


def criterion_15_determinism() -> CriterionResult:
    """Two in-process runs of the reporting pipeline must agree byte for byte.

    The command-line determinism (two ``htbif --seed-check`` invocations)
    is asserted by the test suite; here the report formatter is exercised on
    the fast criteria twice.
    """
    fast = [criterion_01_spectral_exactness, criterion_02_threshold_coincidence,
            criterion_03_center_limit, criterion_05_ab_certification,
            criterion_11_integral_identity]
    first = format_report([f() for f in fast])
    second = format_report([f() for f in fast])
    return _result(15, "determinism", first == second, f"report bytes identical={first == second}")


CRITERIA = (
    criterion_01_spectral_exactness,
    criterion_02_threshold_coincidence,
    criterion_03_center_limit,
    criterion_04_monotone_divergence,
    criterion_05_ab_certification,
    criterion_06_exact_multiplicity,
    criterion_07_cross_oracle,
    criterion_08_morse_indices,
    criterion_09_sign_sandwich,
    criterion_10_bifurcation_direction,
    criterion_11_integral_identity,
    criterion_12_perturbed_census,
    criterion_13_correction_positivity,
    criterion_14_jacobian_check,
    criterion_15_determinism,
)


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in CRITERIA]


def format_report(results) -> str:
    lines = ["criterion  status  name"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.index:9d}  {status:6s}{r.name}: {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"passed {passed}/{len(results)}")
    return "\n".join(lines) + "\n"
