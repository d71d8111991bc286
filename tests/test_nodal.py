import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from htbif import nodal
from htbif.acceptance import _rk4_march
from htbif.errors import ConvergenceError, DomainError, IntegrationError, NoSolutionError
from htbif.model import ModelParams, Profile, kinetic_f, potential_F, w0_const
from htbif.nodal import (
    bvp_residual,
    crossing_count,
    enumerate_solutions,
    max_crossing_number,
    nodal_pair,
    solve_amplitude,
    trace_loop,
)
from htbif.spectral import eta2_closed_form, lambda_roots, mode_windows, mu_threshold, window_lambdas
from htbif.timemap import PhasePlane, TimeMapSample, time_map, time_map_center

# 60-digit reference for the 1-crossing amplitude at desk scale
W_MINUS_REF = 0.3038014537941711793078
W_PLUS_REF = 1.536889570703870077344

# 1-crossing roots within 1e-8 w0 of the saddle (about 6.4e-9, 5.5e-9,
# 7.9e-10, 1.7e-11 and 2.7e-11 w0); a solve in w_- with an absolute width
# loses their relative precision
NEAR_SADDLE = [(800.0, 88.0), (800.0, 244.0), (1200.0, 600.0), (1200.0, 128.0), (1200.0, 364.0)]


def integrate_cauchy(w_start, p, n_points):
    """Reference: the Cauchy problem w'' = -f(w), w(0) = w_start, w'(0) = 0,
    marched over all of [0, 1] in one run and sampled on the n_points grid,
    which nodal_pair's reflected half-period members must reproduce.  Its
    energy drift is checked as nodal_pair checks its piece."""
    w_h = PhasePlane(p).w_h
    if not 0.0 < w_start < w_h:
        raise DomainError(f"w_start must lie in (0, w_h) = (0, {w_h:g}); got {w_start!r}")
    ws, zs, _ = nodal._integrate_wz(w_start, p, n_points - 1, 1)
    nodal._check_energy_drift(ws, zs, w_start, p)
    return Profile(ws)


def _nystrom_march(w_start, p, n_steps):
    """Reference: the classical 3-stage, 4th-order Runge-Kutta-Nystrom march
    of w'' = -f(w) from (w_start, 0) over [0, 1] in n_steps steps."""
    h = 1.0 / n_steps
    lam, bmu_d = p.lam, p.bmu_over_d
    w, z = float(w_start), 0.0
    for _ in range(n_steps):
        k1 = bmu_d * w / (1.0 + w) - lam * w
        w2 = w + 0.5 * h * z + h * h / 8.0 * k1
        k2 = bmu_d * w2 / (1.0 + w2) - lam * w2
        w3 = w + h * z + h * h / 2.0 * k2
        k3 = bmu_d * w3 / (1.0 + w3) - lam * w3
        w += h * z + h * h / 6.0 * (k1 + 2.0 * k2)
        z += h / 6.0 * (k1 + 4.0 * k2 + k3)
    return w, z


def _series_inverse(c, terms):
    """The first `terms` coefficients of 1/c(t), for a power series with c[0] != 0."""
    out = [Fraction(1) / c[0]]
    for k in range(1, terms):
        out.append(-sum(c[j] * out[k - j] for j in range(1, min(k, len(c) - 1) + 1)) / c[0])
    return out


def _series_product(a, b, terms):
    return [sum(a[j] * b[k - j] for j in range(k + 1) if j < len(a) and k - j < len(b)) for k in range(terms)]


def _ordinate_weights(gen, steps):
    """Ordinate weights of sum_{j < steps} gen[j] nabla^j f_i, newest first."""
    return [
        (-1) ** i * sum(gen[j] * math.comb(j, i) for j in range(i, steps))
        for i in range(steps)
    ]


def test_weights_come_from_the_generating_functions():
    # with L(t) = -log(1-t)/t, Stormer's t^2/((1-t) log^2(1-t)) is
    # 1/((1-t) L^2) and Adams-Bashforth's t/((1-t)(-log(1-t))) is
    # 1/((1-t) L); their backward-difference coefficients turned into
    # ordinate weights are the march's integer rows over their denominators
    steps = len(nodal._STORMER)
    one_minus_t = [Fraction(1), Fraction(-1)]
    log_ratio = [Fraction(1, j + 1) for j in range(steps)]
    adams = _series_inverse(_series_product(one_minus_t, log_ratio, steps), steps)
    stormer = _series_inverse(
        _series_product(one_minus_t, _series_product(log_ratio, log_ratio, steps), steps), steps
    )
    for gen, row, den in (
        (stormer, nodal._STORMER, nodal._STORMER_DENOMINATOR),
        (adams, nodal._ADAMS, nodal._ADAMS_DENOMINATOR),
    ):
        assert _ordinate_weights(gen, steps) == [Fraction(c, den) for c in row]
        assert sum(row) == den
    assert adams[:3] == [1, Fraction(1, 2), Fraction(5, 12)]
    assert stormer[:4] == [1, 0, Fraction(1, 12), Fraction(1, 12)]


class TestSolveAmplitude:
    def test_frozen_value_and_defining_equation(self, desk):
        wm = solve_amplitude(1, desk)
        assert wm == pytest.approx(W_MINUS_REF, abs=1e-9)
        assert abs(time_map(wm, desk).T - 1.0) < 1e-10

    def test_collapses_at_window_ends(self, desk):
        root = lambda_roots(1, desk)
        for lam, side in ((root.lambda_minus + 1e-5, "-"), (root.lambda_plus - 1e-5, "+")):
            q = desk.with_lam(lam)
            wm = solve_amplitude(1, q)
            assert abs(wm - w0_const(q)) < 0.05 * w0_const(q)

    def test_no_solution_above_center_period(self, desk):
        # two crossings need 2 T(w0) < 1, but 2 T(w0) ~ 1.78 here
        assert 2.0 * time_map_center(desk) > 1.0
        with pytest.raises(NoSolutionError, match="mu"):
            solve_amplitude(2, desk)

    def test_no_solution_outside_window_names_window(self, desk):
        with pytest.raises(NoSolutionError, match="window"):
            solve_amplitude(1, desk.with_lam(10.0))

    def test_rejects_bad_mode(self, desk):
        with pytest.raises(DomainError):
            solve_amplitude(0, desk)

    @pytest.mark.parametrize("n", [1, 2])
    def test_work_per_solve(self, n, monkeypatch):
        # one phase-plane context per solve, which never solves for w_h, and
        # Brent needs far fewer time maps than the ~37 of a bisection
        counts = Counter()
        original_time_map, original_w_h = PhasePlane.time_map, PhasePlane.w_h.func

        def time_map_counted(self, w_minus):
            counts["time_map"] += 1
            return original_time_map(self, w_minus)

        def w_h_counted(self):
            counts["w_h"] += 1
            return original_w_h(self)

        monkeypatch.setattr(PhasePlane, "time_map", time_map_counted)
        monkeypatch.setattr(PhasePlane, "w_h", property(w_h_counted))
        p = ModelParams(mu=170.0)
        root = lambda_roots(n, p)
        for j in range(8):
            q = p.with_lam(root.lambda_minus + (j + 0.5) * (root.lambda_plus - root.lambda_minus) / 8)
            counts.clear()
            wm = solve_amplitude(n, q)
            assert counts["w_h"] == 0
            assert counts["time_map"] <= 25
            assert abs(n * time_map(wm, q).T - 1.0) <= 1e-12

    def test_window_below_resolution_is_refused(self, desk, monkeypatch):
        # n T = 1 exactly at the bracket top w0 (1 - 1e-10), where Brent's
        # method would return the top itself as the root: the solve refuses
        original = PhasePlane.time_map

        def flat_at_the_top(self, w_minus):
            s = original(self, w_minus)
            return TimeMapSample(s.w_minus, s.w_plus, 1.0) if w_minus > (1.0 - 1e-9) * self.w0 else s

        monkeypatch.setattr(PhasePlane, "time_map", flat_at_the_top)
        for solve in (solve_amplitude, nodal_pair):
            with pytest.raises(NoSolutionError, match="below numerical resolution"):
                solve(1, desk)

    def test_floor_below_the_double_range_is_raised(self):
        # the saddle-law floor w0 exp(-k - 1) is about e^-765 here, but the
        # root is near e^-286: the solve starts from the smallest normal double
        p = ModelParams(mu=6e5, lam=25.0)
        wm = solve_amplitude(1, p)
        assert 1e-300 < wm < 1e-100
        assert abs(time_map(wm, p).T - 1.0) <= 1e-10

    @pytest.mark.parametrize("mu", [1e7, 1e100])
    def test_amplitude_below_the_double_range_is_refused(self, mu, monkeypatch):
        # n T <= 1 already at the smallest normal double: one time map, at
        # that floor, decides, and the refusal names the amplitude
        calls = []
        original = PhasePlane.time_map

        def counted(self, w_minus):
            calls.append(w_minus)
            return original(self, w_minus)

        monkeypatch.setattr(PhasePlane, "time_map", counted)
        with pytest.raises(DomainError, match="1-crossing amplitude .* below the smallest positive normal double"):
            solve_amplitude(1, ModelParams(mu=mu, lam=25.0))
        assert calls == [pytest.approx(2.2250738585072014e-308, rel=1e-12)]

    @pytest.mark.parametrize("mu, lam", NEAR_SADDLE)
    def test_near_saddle_root_keeps_precision(self, mu, lam):
        p = ModelParams(mu=mu, lam=lam)
        wm = solve_amplitude(1, p)
        assert wm < 1e-8 * w0_const(p)
        assert abs(time_map(wm, p).T - 1.0) <= 1e-12


def _scipy_brent(f, a, b):
    """The oracle: scipy's brentq at the tolerances of nodal._brent."""
    eps = np.finfo(float).eps
    return brentq(f, a, b, xtol=2.0 * eps, rtol=4.0 * eps, maxiter=200)


def _brackets():
    """(f, a, b): smooth, flat, steep, multiple and nearly discontinuous roots."""
    rng = np.random.default_rng(26)
    for _ in range(80):
        r = rng.uniform(-5.0, 5.0)
        a, b = r - 10.0 ** rng.uniform(-12.0, 1.0), r + 10.0 ** rng.uniform(-12.0, 1.0)
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        yield lambda x, r=r, c=c: c * (x - r) + (x - r) ** 3, a, b
        yield lambda x, r=r: math.tanh(50.0 * (x - r)), a, b
        yield lambda x, r=r: (x - r) ** 3, a, b
        yield lambda x, r=r, c=c: math.exp(min(c, 30.0) * (x - r)) - 1.0, a, b
        yield lambda x, r=r: math.atan(1e8 * (x - r)) - 0.3, a, b
        yield lambda x, r=r: math.sin(x - r) - 1e-3 * (x - r) ** 2, b, a


class TestBrent:
    def test_bit_identical_to_scipy(self):
        cases = 0
        for f, a, b in _brackets():
            fa, fb = f(a), f(b)
            if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
                continue
            calls = []
            root, f_root = nodal._brent(lambda x: calls.append(x) or f(x), a, b, fa, fb)
            oracle_calls = []
            oracle = _scipy_brent(lambda x: oracle_calls.append(x) or f(x), a, b)
            assert root == oracle
            assert f_root == f(root)
            # the same steps, less the two end values passed in
            assert oracle_calls == [a, b] + calls
            cases += 1
        assert cases > 400

    @pytest.mark.parametrize("mu, n", [(170.0, 1), (170.0, 2), (360.0, 3), (1200.0, 1)])
    def test_amplitude_root_bit_identical_to_scipy(self, mu, n):
        p = ModelParams(mu=mu)
        root = lambda_roots(n, p)
        for lam in np.linspace(root.lambda_minus, root.lambda_plus, 5)[1:-1]:
            plane = PhasePlane(p.with_lam(lam))

            def h(s):
                return n * plane.time_map(math.exp(s)).T - 1.0

            k = math.sqrt(plane.bmu_d - plane.p.lam)
            lo, hi = math.log(plane.w0) - k / n - 1.0, math.log(plane.w0) + math.log1p(-1e-10)
            assert nodal._brent(h, lo, hi, h(lo), h(hi))[0] == _scipy_brent(h, lo, hi)
            assert solve_amplitude(n, plane.p) == math.exp(_scipy_brent(h, lo, hi))

    def test_runs_out_of_steps_by_name(self, monkeypatch):
        monkeypatch.setattr(nodal, "_BRENT_STEPS", 3)
        with pytest.raises(ConvergenceError, match="did not converge in 3 steps"):
            nodal._brent(lambda x: (x - 0.3) ** 3, 0.0, 1.0, -0.3 ** 3, 0.7 ** 3)


class TestIntegrateCauchy:
    def test_equilibrium_stays_constant(self, desk):
        prof = integrate_cauchy(w0_const(desk), desk, 501)
        assert np.allclose(prof.values, w0_const(desk), atol=1e-12)

    def test_energy_drift_small(self, desk):
        wm = solve_amplitude(1, desk)
        prof = integrate_cauchy(wm, desk, 2001)
        e0 = potential_F(wm, desk)
        # drift checked internally at 1e-9; re-check a loose bound here
        assert abs(float(potential_F(prof.values[-1], desk)) - e0) < 1e-9

    def test_half_period_lands_on_companion(self, desk):
        # n = 1: the half period is the whole interval, monotone w_- to w_+
        wm = solve_amplitude(1, desk)
        prof = integrate_cauchy(wm, desk, 2001)
        vals = prof.values
        assert abs(vals[-1] - PhasePlane(desk).companion(wm)) < 1e-8
        assert np.all(np.diff(vals) > 0.0)

    def test_reflection_symmetry_about_turning_time(self):
        # the orbit is symmetric about its turning times x = k/n; for n = 2
        # the interior turning time is x = 1/2 (grid node 1000)
        p = ModelParams(mu=170.0, lam=85.0)
        wm = solve_amplitude(2, p)
        prof = integrate_cauchy(wm, p, 2001)
        vals = prof.values
        k = 1000
        for off in (10, 100, 500, 900):
            assert vals[k - off] == pytest.approx(vals[k + off], abs=1e-8)

    def test_domain(self, desk):
        with pytest.raises(DomainError):
            integrate_cauchy(5.0, desk, 101)  # beyond the homoclinic extent


class TestNodalPair:
    def test_desk_pair(self, desk):
        lower, upper = nodal_pair(1, desk)
        assert lower.w_minus == pytest.approx(W_MINUS_REF, abs=1e-11)
        assert lower.profile.values[0] == pytest.approx(W_MINUS_REF, abs=1e-11)
        assert upper.profile.values[0] == pytest.approx(W_PLUS_REF, abs=1e-10)
        assert upper.profile.values[0] == pytest.approx(PhasePlane(desk).companion(lower.w_minus), abs=1e-8)
        assert lower.crossings == upper.crossings == 1
        assert lower.boundary_residual < 1e-8 and upper.boundary_residual < 1e-8
        assert float(np.min(lower.profile.values)) > 0.0
        assert float(np.min(upper.profile.values)) > 0.0
        assert bvp_residual(lower.profile, desk) < 1e-6
        assert bvp_residual(upper.profile, desk) < 1e-6

    def test_shift_matches_direct_integration(self, desk):
        # dual route: the even-extension shift against a fresh Cauchy run
        lower, upper = nodal_pair(1, desk)
        direct = integrate_cauchy(float(upper.profile.values[0]), desk, 2001)
        assert float(np.max(np.abs(direct.values - upper.profile.values))) < 1e-7

    def test_lower_minimum_at_left_end(self, desk):
        lower, _ = nodal_pair(1, desk)
        assert float(np.min(lower.profile.values)) == pytest.approx(lower.w_minus, abs=1e-12)

    def test_even_mode_is_periodic(self):
        # even crossing counts give 1-periodic profiles of minimal period 2/n
        p = ModelParams(mu=170.0, lam=85.0)
        lower, upper = nodal_pair(2, p, 2001)
        assert lower.profile.values[0] == pytest.approx(lower.profile.values[-1], abs=1e-8)
        assert upper.profile.values[0] == pytest.approx(upper.profile.values[-1], abs=1e-8)

        p4 = ModelParams(mu=700.0, lam=350.0)
        lower4, _ = nodal_pair(4, p4, 2001)
        vals = lower4.profile.values
        shift = 2000 // 2  # 2/n = 1/2 is 1000 grid cells
        assert np.max(np.abs(vals[:-shift] - vals[shift:])) < 1e-8

    @pytest.mark.parametrize(
        "mu, lam, n, n_points", [(360.0, 100.0, 1, 2001), (360.0, 180.0, 3, 2001), (1200.0, 840.2, 5, 4001)]
    )
    def test_odd_mode_upper_is_the_reversed_lower(self, mu, lam, n, n_points):
        # for odd n the shift by 1/n maps x to 1 - x, so both members read
        # the same piece nodes in reverse order (3 does not divide 2000)
        lower, upper = nodal_pair(n, ModelParams(mu=mu, lam=lam), n_points)
        assert np.array_equal(upper.profile.values, lower.profile.values[::-1])

    @pytest.mark.parametrize("mu, lam, n", [(170.0, 85.0, 2), (360.0, 100.0, 2), (700.0, 350.0, 4)])
    def test_even_mode_members_are_symmetric(self, mu, lam, n):
        # for even n each member is even about x = 1/2, bit for bit
        for member in nodal_pair(n, ModelParams(mu=mu, lam=lam), 2001):
            assert np.array_equal(member.profile.values, member.profile.values[::-1])

    def test_window_top_with_w0_below_1e6(self):
        # at mu = 1e7 the mode-1 window ends at w0 = 9.87e-7, so its top 0.13
        # of lam has w0 below 1e-6; across that sliver the pair solves and
        # certifies, with n T(w_-) = 1
        # (BVP residuals at most 1.4e-13 measured)
        p = ModelParams(mu=1e7)
        top = lambda_roots(1, p).lambda_plus
        lam_1e6 = p.mu / (1.0 + 1e-6)
        assert w0_const(p.with_lam(top)) < 1e-6 and lam_1e6 < top
        for lam in (lam_1e6 - 1.0, 0.5 * (lam_1e6 + top), top - 1e-4):
            q = p.with_lam(lam)
            lower, upper = nodal_pair(1, q)
            assert lower.crossings == upper.crossings == 1
            assert time_map(lower.w_minus, q).T == pytest.approx(1.0, rel=1e-10)
            assert max(bvp_residual(lower.profile, q), bvp_residual(upper.profile, q)) < 1e-12

    def test_misaligned_grid_reflects_one_piece(self):
        # 3 does not divide 2000: the piece has 2000 intervals of 1/6000, and
        # both members read it at every third node
        p = ModelParams(mu=360.0, lam=180.0)
        assert max_crossing_number(p) >= 3
        lower, upper = nodal_pair(3, p, 2001)
        assert lower.crossings == upper.crossings == 3
        assert upper.profile.values[0] > w0_const(p) > lower.profile.values[0]
        piece, _, g = nodal._integrate_wz(lower.w_minus, p, 2000, 3)
        assert g == 1
        assert np.array_equal(lower.profile.values[:667], piece[::3])
        assert np.array_equal(upper.profile.values[:667], piece[::-3])

    @pytest.mark.parametrize(
        "n, mu, lam, n_points", [(3, 360.0, 180.0, 2001), (3, 1200.0, 600.0, 4001), (7, 2000.0, 1000.0, 4001)]
    )
    def test_off_grid_pair_matches_cauchy_runs(self, n, mu, lam, n_points):
        # dual route: n does not divide the grid cells, and each member of the
        # reflected piece matches a whole-interval run from its start
        p = ModelParams(mu=mu, lam=lam)
        lower, upper = nodal_pair(n, p, n_points)
        for member, w_start in ((lower, lower.w_minus), (upper, PhasePlane(p).companion(lower.w_minus))):
            direct = integrate_cauchy(w_start, p, n_points)
            assert float(np.max(np.abs(direct.values - member.profile.values))) < 1e-10
            assert bvp_residual(member.profile, p) < 1e-6

    @pytest.mark.parametrize("mu", [640.0, 800.0, 1200.0])
    def test_three_modes_across_the_window(self, mu):
        # many-mode regime on 4001 points: 3 does not divide the 4000 cells,
        # and every point's piece meets the 1e-7 residual at the grid step,
        # which also bounds its closing slope by 1e-7/(1.269 cells) = 2.0e-11
        p = ModelParams(mu=mu)
        for lam in window_lambdas(3, p, 9):
            q = p.with_lam(lam)
            for member in nodal_pair(3, q, 4001):
                assert member.crossings == 3
                assert bvp_residual(member.profile, q) < 1e-6

    def test_off_grid_residual_reads_the_grid_step(self, monkeypatch):
        # the piece's nodes are 1/6000 apart, but its residual is read at the
        # profiles' step h = 1/2000 (2.9e-11 here).  A march defect of d in z
        # at node 1, off the output grid, reads there as 0.8 d/h: 4.8e-8 for
        # d = 3e-11, which the piece's own step would read as 2.9e-7, and
        # 1.6e-7 for d = 1e-10
        original = nodal._integrate_wz
        p = ModelParams(mu=1200.0, lam=600.0)

        def with_defect(d):
            def march(w_start, q, cells, n):
                ws, zs, g = original(w_start, q, cells, n)
                zs = zs.copy()
                zs[1] += d
                return ws, zs, g

            monkeypatch.setattr(nodal, "_integrate_wz", march)

        with_defect(3e-11)
        nodal_pair(3, p, 2001)
        ws, zs, _ = nodal._integrate_wz(solve_amplitude(3, p), p, 2000, 3)
        assert nodal._ode_residual(ws, zs, 1, 1.0 / 6000.0, p) >= 1e-7
        with_defect(1e-10)
        with pytest.raises(IntegrationError, match="piece ODE residual"):
            nodal_pair(3, p, 2001)

    def test_near_saddle_pair(self):
        # the closing slope is the first-order shooting error
        # |z(1/n)| = |f(w_+)| |1/n - T_RK(w_-)|: the Brent root's |1 - n T(w_-)|/n
        # plus a 2e-13 allowance in time for the gap between the march's half
        # period and the quadrature one (3.9e-14 here, no shooting step); it
        # also stays under the bound 1e-7/(1.269 cells) that the piece's
        # residual puts on it, which keeps the joined profiles within
        # criterion 6
        n, p = 1, ModelParams(mu=800.0, lam=88.0)
        wm = solve_amplitude(n, p)
        lower, upper = nodal_pair(n, p)
        gap = abs(1.0 - n * time_map(wm, p).T) / n
        bound = abs(float(kinetic_f(PhasePlane(p).companion(wm), p))) * (gap + 2e-13)
        for member in (lower, upper):
            assert member.boundary_residual <= bound
            assert member.boundary_residual < 1e-7 / (1.269 * 2000)
            assert bvp_residual(member.profile, p) < 1e-6

    @pytest.mark.parametrize("lam", [209.11904448882018, 44.09085826361496])
    def test_near_saddle_piece_meets_criterion_6(self, lam):
        # near-saddle amplitudes: a time map 1e-11 off here closes the piece
        # with slopes of 4.6e-10 and 1.6e-9, which bvp_residual's even ghosts
        # at x = 1 read as 2.2e-6 and 7.3e-6 against criterion 6's 1e-6.  The
        # piece closes at the integrator floor (1.7e-14 and 1.2e-13 measured;
        # bvp_residual 1.8e-9 and 8.7e-9)
        p = ModelParams(mu=360.0, lam=lam)
        for member in nodal_pair(1, p):
            assert member.boundary_residual < 1e-12
            assert bvp_residual(member.profile, p) < 1e-6

    def test_fixed_integration_count(self, monkeypatch):
        # one piece of cells/gcd(n, cells) intervals per pair, near the
        # saddle too
        pieces = []
        original = nodal._integrate_wz

        def counted(w_start, p, cells, n):
            ws, zs, g = original(w_start, p, cells, n)
            pieces.append(ws.size - 1)
            return ws, zs, g

        monkeypatch.setattr(nodal, "_integrate_wz", counted)
        p = ModelParams(mu=170.0)
        cases = [
            (3, ModelParams(mu=360.0, lam=180.0), 2000),
            (4, ModelParams(mu=700.0, lam=350.0), 2000),
            (6, ModelParams(mu=2000.0, lam=1000.0), 8000),
            (1, ModelParams(mu=360.0, lam=209.11904448882018), 2000),
            (1, ModelParams(mu=360.0, lam=44.09085826361496), 2000),
        ]
        for n in (1, 2):
            root = lambda_roots(n, p)
            for j in range(8):
                lam = root.lambda_minus + (j + 0.5) * (root.lambda_plus - root.lambda_minus) / 8
                cases.append((n, p.with_lam(lam), 2000))
        for n, q, cells in cases:
            pieces.clear()
            nodal_pair(n, q, cells + 1)
            assert pieces == [cells // math.gcd(n, cells)]

    def test_march_is_eighth_order(self):
        # one orbit (n = 2 at (170, 85)): halving the node spacing to the same
        # end point x = 1/2 shrinks the end state's gap to a 3200-cell
        # reference about 2^8-fold, approached from above (547.97 and 522.48
        # measured over 50, 100 and 200 cells; a 4th-order rule gives 16)
        p = ModelParams(mu=170.0, lam=85.0)
        wm = solve_amplitude(2, p)
        ws, zs, _ = nodal._integrate_wz(wm, p, 3200, 2)
        ref = (ws[-1], zs[-1])
        gaps = []
        for cells in (50, 100, 200):
            ws, zs, _ = nodal._integrate_wz(wm, p, cells, 2)
            gaps.append(max(abs(ws[-1] - ref[0]), abs(zs[-1] - ref[1])))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 400.0 < coarse / fine < 700.0
        # criterion 7's RK4 march is an independent route to the same state
        w_end, z_end = _rk4_march(wm, p, 0.5, 16000)
        assert abs(w_end - ref[0]) < 1e-12 and abs(z_end - ref[1]) < 1e-12

    @pytest.mark.parametrize("mu, lam", [(50.0, 25.0), (360.0, 180.0), (800.0, 88.0)])
    def test_march_rounding_stays_linear(self, mu, lam):
        # 16000 node steps over [0, 1] against a Nystrom run of eight
        # substeps a node: the end state agrees to 1e-12 (at most 1.6e-13
        # measured).  Rounding that grows with the square of the step count,
        # as in the form w_{i+1} = 2 w_i - w_{i-1} + ..., fails this
        p = ModelParams(mu=mu, lam=lam)
        wm = solve_amplitude(1, p)
        ws, zs, _ = nodal._integrate_wz(wm, p, 16000, 1)
        w_end, z_end = _nystrom_march(wm, p, 16000 * 8)
        assert abs(ws[-1] - w_end) < 1e-12 and abs(zs[-1] - z_end) < 1e-12

    def test_short_piece_is_all_start_up(self):
        # fewer than eight intervals: the Nystrom start-up runs the whole
        # piece, the same nodes as the start of a longer run
        p = ModelParams(mu=170.0, lam=85.0)
        wm = solve_amplitude(2, p)
        short = nodal._integrate_wz(wm, p, 12, 2)[:2]
        whole = nodal._integrate_wz(wm, p, 12, 1)[:2]
        for part, full in zip(short, whole):
            assert part.size == 7
            assert np.array_equal(part, full[:7])

    @pytest.mark.parametrize("mu", [170.0, 360.0, 640.0])
    def test_window_sweep_needs_no_shooting_step(self, mu, monkeypatch):
        # every open mode over window_lambdas(j, p, 7) on 2001 points: one
        # piece per point, and every pair solves (at mu = 640 the 8th-order
        # residual reads at most 8.9e-10 against its 1e-7 bound)
        pieces = []
        original = nodal._integrate_wz

        def counted(w_start, p, cells, n):
            pieces.append(n)
            return original(w_start, p, cells, n)

        monkeypatch.setattr(nodal, "_integrate_wz", counted)
        p = ModelParams(mu=mu)
        points = 0
        for j in range(1, len(mode_windows(p)) + 1):
            for lam in window_lambdas(j, p, 7):
                points += 1
                lower, upper = nodal_pair(j, p.with_lam(lam), 2001)
                assert lower.crossings == upper.crossings == j
        assert len(pieces) == points

    def test_piece_repeats_the_whole_integration(self):
        # when n divides the cells the piece is the first 2000/n + 1 nodes of
        # the integration over [0, 1], bit for bit, and both members read it
        # from their first node on
        p = ModelParams(mu=170.0, lam=85.0)
        lower, upper = nodal_pair(2, p)
        piece = nodal._integrate_wz(lower.w_minus, p, 2000, 2)[:2]
        whole = nodal._integrate_wz(lower.w_minus, p, 2000, 1)[:2]
        for part, full in zip(piece, whole):
            assert part.size == 1001
            assert np.array_equal(part, full[:1001])
        assert np.array_equal(lower.profile.values[:1001], piece[0])
        assert np.array_equal(upper.profile.values[:1001], piece[0][::-1])

    @pytest.mark.parametrize(
        "n, mu, lam", [(1, 50.0, 25.0), (2, 170.0, 85.0), (4, 700.0, 350.0), (5, 1000.0, 500.0)]
    )
    def test_reflected_members_cross_n_times(self, n, mu, lam):
        p = ModelParams(mu=mu, lam=lam)
        lower, upper = nodal_pair(n, p, 2001)
        w0 = w0_const(p)
        for member in (lower, upper):
            assert crossing_count(member.profile.values, w0) == member.crossings == n
            assert float(np.min(member.profile.values)) > 0.0
            assert member.boundary_residual < 1e-8
        assert upper.profile.values[0] == pytest.approx(PhasePlane(p).companion(lower.w_minus), abs=1e-8)

    def test_junction_kink_is_refused(self, monkeypatch):
        # a piece that starts 1e-10 relative off the root closes at x = 1 with
        # a slope of about 2.1e-9, where a joined profile would fail
        # criterion 6; the odd ghosts jump by twice that, which the residual
        # at the closing node reads as 1.269 |z|/h = 5.25e-6
        original = nodal._integrate_wz

        def off_root(w_start, p, cells, n):
            return original(w_start * (1.0 + 1e-10), p, cells, n)

        monkeypatch.setattr(nodal, "_integrate_wz", off_root)
        with pytest.raises(IntegrationError, match="piece ODE residual"):
            nodal_pair(1, ModelParams(mu=800.0, lam=88.0))

    @pytest.mark.parametrize("mu", [170.0, 360.0, 640.0, 800.0, 1200.0])
    def test_window_sweep_closes_below_the_junction_bound(self, mu, monkeypatch):
        # every open mode over window_lambdas(j, p, 9) on 2001 points, into
        # the many-states regime (36, 36 and 45 points at mu = 640, 800 and
        # 1200): every pair solves, and its one piece closes below the bound
        # 1e-7/(1.269 cells) = 3.9e-11 that its residual implies (at most
        # 3.4e-2 of it measured)
        slopes = []
        original = nodal._integrate_wz

        def closing(w_start, p, cells, n):
            ws, zs, g = original(w_start, p, cells, n)
            slopes.append(abs(float(zs[-1])))
            return ws, zs, g

        monkeypatch.setattr(nodal, "_integrate_wz", closing)
        p = ModelParams(mu=mu)
        points = 0
        for j in range(1, len(mode_windows(p)) + 1):
            for lam in window_lambdas(j, p, 9):
                points += 1
                lower, upper = nodal_pair(j, p.with_lam(lam), 2001)
                assert lower.crossings == upper.crossings == j
        assert len(slopes) == points
        assert max(slopes) < 1e-7 / (1.269 * 2000)

    def test_window_exactness_both_ways(self, desk):
        root = lambda_roots(1, desk)
        for lam in (root.lambda_minus - 0.5, root.lambda_plus + 0.5):
            with pytest.raises(NoSolutionError):
                nodal_pair(1, desk.with_lam(lam))
        for lam in (root.lambda_minus + 0.5, root.lambda_plus - 0.5):
            lower, upper = nodal_pair(1, desk.with_lam(lam))
            assert lower.crossings == 1

    @pytest.mark.parametrize("n_points", [2001, 2401])
    def test_pairs_across_windows(self, n_points):
        # 3 does not divide the 2000 cells of 2001 points and every mode
        # divides 2400, so both kinds of piece run; lam keeps to the inner
        # 96% of its window and to trace_loop's predicted amplitude >= 1e-6
        rng = np.random.default_rng(n_points)
        cells = n_points - 1
        misaligned = 0
        for _ in range(60):
            n = int(rng.integers(1, 4))
            p = ModelParams(mu=rng.uniform(max(50.0, mu_threshold(n, ModelParams())), 360.0))
            root = mode_windows(p)[n - 1]
            lo, hi = root.lambda_minus, root.lambda_plus
            while True:
                q = p.with_lam(lo + (0.02 + 0.96 * rng.random()) * (hi - lo))
                s_pred = min(
                    math.sqrt((q.lam - lo) / abs(eta2_closed_form(n, "minus", q))),
                    math.sqrt((hi - q.lam) / abs(eta2_closed_form(n, "plus", q))),
                )
                if s_pred >= 1e-6:
                    break
            misaligned += cells % n != 0
            w0 = w0_const(q)
            for member in nodal_pair(n, q, n_points):
                values = member.profile.values
                assert crossing_count(values, w0) == member.crossings == n
                assert member.boundary_residual < 1e-7 / (1.269 * cells)
                assert float(np.min(values)) > 0.0
                assert bvp_residual(member.profile, q) < 1e-6
        assert misaligned > 0 if n_points == 2001 else misaligned == 0


CENTRAL8 = (Fraction(4, 5), Fraction(-1, 5), Fraction(4, 105), Fraction(-1, 280))


def _reflected_residual(ws, zs, stride, h, p):
    """Reference for nodal._ode_residual: the same central stencil on one
    explicit period 2m of the piece's even (w) and odd (z) extension."""
    m = ws.size - 1
    even = np.concatenate((ws, ws[-2:0:-1]))
    odd = np.concatenate((zs, -zs[-2:0:-1]))
    t = np.arange(m + 1)

    def slope(u):
        return sum(
            float(c) * (np.take(u, t + k * stride, mode="wrap") - np.take(u, t - k * stride, mode="wrap"))
            for k, c in enumerate(CENTRAL8, 1)
        ) / h

    r1 = slope(even) - zs
    r2 = slope(odd) + kinetic_f(ws, p)
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


class TestPieceResidual:
    def test_central_weights_are_eighth_order(self):
        # sum_k c_k (k^j - (-k)^j) is the derivative of x^j at 0 for j <= 8,
        # and twice the weights' sum is the 1.269 that reads a closing slope
        for j in range(1, 9):
            assert sum(c * (k ** j - (-k) ** j) for k, c in enumerate(CENTRAL8, 1)) == (j == 1)
        assert nodal._CENTRAL8 == tuple(float(c) for c in CENTRAL8)
        assert round(float(2 * sum(CENTRAL8)), 3) == 1.269

    def test_fold_is_the_even_periodic_extension(self):
        for m in range(1, 8):
            period = list(range(m + 1)) + list(range(m - 1, 0, -1))
            t = np.arange(-5 * m - 3, 5 * m + 4)
            assert nodal._fold(t, m).tolist() == [period[i % (2 * m)] for i in t]

    def test_bvp_residual_ghosts_are_the_fold(self, desk):
        # the two ghost nodes at each end are w[2], w[1] and w[-2], w[-3],
        # bit for bit as written out
        lower, upper = nodal_pair(1, desk, 2001)
        for w in (lower.profile, upper.profile, Profile(1.0 + 0.1 * np.cos(np.linspace(0.0, 3.0, 9)))):
            v = w.values
            ext = np.concatenate(([v[2], v[1]], v, [v[-2], v[-3]]))
            d1 = (ext[1:-3] - ext[2:-2]) + (ext[3:-1] - ext[2:-2])
            d2 = (ext[:-4] - ext[2:-2]) + (ext[4:] - ext[2:-2])
            ref = float(np.max(np.abs(-(16.0 * d1 - d2) / (12.0 * w.h * w.h) - kinetic_f(v, desk))))
            assert bvp_residual(w, desk) == ref

    @pytest.mark.parametrize(
        "n, mu, lam, n_points", [(1, 170.0, 85.0, 2001), (1, 170.0, 85.0, 4001), (3, 360.0, 180.0, 2001)]
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_closing_slope_at_the_old_junction_bound_is_refused(self, n, mu, lam, n_points, sign, monkeypatch):
        # a good piece bent by a linear ramp in z so that it closes with the
        # slope 6e-7/(7 cells): the odd ghosts jump by twice that, and the
        # residual alone reads it as 1.269 * 6e-7/7 = 1.09e-7, also for n = 3
        # on 2001 points, where the piece's end is no output node
        original = nodal._integrate_wz
        cells = n_points - 1
        z_end = sign * 6e-7 / (7.0 * cells)

        def bent(w_start, p, cells, n):
            ws, zs, g = original(w_start, p, cells, n)
            return ws, zs + (z_end - zs[-1]) * np.linspace(0.0, 1.0, zs.size), g

        monkeypatch.setattr(nodal, "_integrate_wz", bent)
        with pytest.raises(IntegrationError, match="piece ODE residual"):
            nodal_pair(n, ModelParams(mu=mu, lam=lam), n_points)

    @pytest.mark.parametrize("n, mu, lam", [(1, 170.0, 85.0), (3, 1200.0, 600.0)])
    def test_piece_marched_at_another_lam_is_refused(self, n, mu, lam):
        # marched at lam (1 + 1e-9) and read at lam: the piece misses its
        # turning time and closes with a slope of about 2.6e-9, read as
        # 7.3e-6 and 7.5e-6; the same piece marched at lam passes
        p = ModelParams(mu=mu, lam=lam)
        wm = solve_amplitude(n, p)
        for q, refused in ((p, False), (p.with_lam(lam * (1.0 + 1e-9)), True)):
            ws, zs, g = nodal._integrate_wz(wm, q, 2000, n)
            assert (nodal._ode_residual(ws, zs, n // g, 1.0 / 2000, p) >= 1e-7) == refused

    @pytest.mark.parametrize("cells, n", [(2, 1), (2, 2), (6, 4), (4, 3), (10, 3), (2, 5)])
    def test_piece_shorter_than_the_stencil_reach(self, cells, n):
        # m < 4 n/g: the ghosts fold more than once across the piece, down
        # to a one-interval piece, and no index runs off it
        p = ModelParams(mu=170.0, lam=85.0)
        ws, zs, g = nodal._integrate_wz(solve_amplitude(1, p), p, cells, n)
        assert ws.size - 1 < 4 * (n // g)
        got = nodal._ode_residual(ws, zs, n // g, 1.0 / cells, p)
        assert got == pytest.approx(_reflected_residual(ws, zs, n // g, 1.0 / cells, p), rel=1e-12)

    def test_grids_below_nine_points_are_refused_by_energy_drift(self):
        # below 9 points the slope bound 1e-7/(1.269 cells) implied by the
        # residual exceeds 1e-8; every pair there is refused by the march's
        # energy drift first
        for n_points in (3, 5, 7):
            assert 1e-7 / (1.269 * (n_points - 1)) > 1e-8
            for mu, lam in ((50.0, 25.0), (170.0, 85.0), (360.0, 180.0)):
                p = ModelParams(mu=mu, lam=lam)
                for n in range(1, max_crossing_number(p) + 1):
                    with pytest.raises(IntegrationError, match="energy drift"):
                        nodal_pair(n, p, n_points)


class TestCrossingCount:
    def test_basic(self):
        vals = np.array([0.5, 1.5, 0.5, 1.5, 0.5])
        assert crossing_count(vals, 1.0) == 4

    def test_exact_zero_attaches_forward(self):
        vals = np.array([0.5, 1.0, 1.5])
        assert crossing_count(vals, 1.0) == 1
        vals = np.array([0.5, 1.0, 0.5])
        assert crossing_count(vals, 1.0) == 0


class TestEnumerateSolutions:
    def test_exact_count_at_desk(self, desk):
        sols = enumerate_solutions(desk)
        assert [origin for origin, _ in sols] == ["constant", "nodal(1,lower)", "nodal(1,upper)"]
        w0 = w0_const(desk)
        assert [crossing_count(prof.values, w0) for _, prof in sols] == [0, 1, 1]
        assert all(prof.n_points == 2001 for _, prof in sols)

    def test_five_solutions_in_overlap(self):
        # mu above the second threshold, lam inside both windows
        p = ModelParams(mu=170.0, lam=85.0)
        sols = enumerate_solutions(p)
        assert [origin for origin, _ in sols] == [
            "constant", "nodal(1,lower)", "nodal(1,upper)", "nodal(2,lower)", "nodal(2,upper)",
        ]
        w0 = w0_const(p)
        assert [crossing_count(prof.values, w0) for _, prof in sols] == [0, 1, 1, 2, 2]

    def test_constant_alone_outside_every_window(self):
        p = ModelParams(mu=50.0, lam=5.0)
        assert max_crossing_number(p) == 0
        [(origin, constant)] = enumerate_solutions(p)
        assert origin == "constant"
        assert constant.n_points == 2001
        assert np.all(constant.values == w0_const(p))


class TestTraceLoop:
    def test_fields_and_ordering(self, desk):
        pts = trace_loop(1, desk, n_lambda=21)
        assert len(pts) == 21
        assert all(a.lam < b.lam for a, b in zip(pts, pts[1:]))
        for pt in pts:
            w0 = w0_const(desk.with_lam(pt.lam))
            assert pt.w_minus_lower < w0 < pt.sup_norm_upper

    def test_loop_closes_onto_constant_branch(self, desk):
        # amplitude w0 - w_- vanishes like sqrt(dist) at both window ends
        root = lambda_roots(1, desk)
        span = root.lambda_plus - root.lambda_minus
        for side_lam, sgn in ((root.lambda_minus, 1.0), (root.lambda_plus, -1.0)):
            amps = []
            for delta in (1e-3, 1e-5):
                q = desk.with_lam(side_lam + sgn * delta * span)
                amps.append(abs(solve_amplitude(1, q) - w0_const(q)))
            assert amps[1] < 0.2 * amps[0]

    def test_endpoint_amplitude_collapse(self, desk):
        root = lambda_roots(1, desk)
        lam = root.lambda_minus + 1e-4 * (root.lambda_plus - root.lambda_minus)
        q = desk.with_lam(lam)
        wm = solve_amplitude(1, q)
        mid = desk.with_lam(0.5 * (root.lambda_minus + root.lambda_plus))
        wm_mid = solve_amplitude(1, mid)
        assert abs(wm - w0_const(q)) < 0.10 * abs(wm_mid - w0_const(mid))

    def test_nesting(self):
        p = ModelParams(mu=170.0, lam=85.0)
        pt1 = trace_loop(1, p, n_lambda=3)[1]
        pt2 = trace_loop(2, p, n_lambda=3)[1]
        # inner loop has smaller amplitude at the shared mid-window lam
        w0_1 = w0_const(p.with_lam(pt1.lam))
        w0_2 = w0_const(p.with_lam(pt2.lam))
        assert abs(pt2.w_minus_lower - w0_2) < abs(pt1.w_minus_lower - w0_1)

    def test_sup_norm_fields_match_profiles(self, desk):
        pts = trace_loop(1, desk, n_lambda=5)
        mid = pts[2]
        lower, upper = nodal_pair(1, desk.with_lam(mid.lam))
        assert mid.sup_norm_lower == pytest.approx(lower.profile.sup_norm(), abs=1e-9)
        assert mid.sup_norm_upper == pytest.approx(upper.profile.sup_norm(), abs=1e-9)

    def test_requires_real_window(self, desk):
        with pytest.raises(NoSolutionError):
            trace_loop(2, desk)
