from collections import Counter

import numpy as np
import pytest

from htbif import nodal
from htbif.errors import DomainError, NoSolutionError
from htbif.model import ModelParams, PhaseState, energy, w0_const
from htbif.nodal import (
    bvp_residual,
    crossing_count,
    enumerate_solutions,
    integrate_cauchy,
    max_crossing_number,
    nodal_pair,
    solve_amplitude,
    trace_loop,
)
from htbif.spectral import lambda_roots
from htbif.timemap import PhasePlane, companion, time_map, time_map_center

# 60-digit reference for the 1-crossing amplitude at desk scale
W_MINUS_REF = 0.3038014537941711793078
W_PLUS_REF = 1.536889570703870077344

# 1-crossing roots within 1e-8 w0 of the saddle (about 6.4e-9, 5.5e-9,
# 7.9e-10, 1.7e-11 and 2.7e-11 w0); a solve in w_- with an absolute width
# loses their relative precision
NEAR_SADDLE = [(800.0, 88.0), (800.0, 244.0), (1200.0, 600.0), (1200.0, 128.0), (1200.0, 364.0)]


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
        # one phase-plane context per solve: w_h is found once, and Brent
        # needs far fewer time maps than the ~37 of a bisection
        counts = Counter()
        for name in ("_homoclinic_offset", "time_map"):
            original = getattr(PhasePlane, name)

            def counted(self, *args, _original=original, _name=name):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(PhasePlane, name, counted)
        p = ModelParams(mu=170.0)
        root = lambda_roots(n, p)
        for j in range(8):
            q = p.with_lam(root.lambda_minus + (j + 0.5) * (root.lambda_plus - root.lambda_minus) / 8)
            counts.clear()
            wm = solve_amplitude(n, q)
            assert counts["_homoclinic_offset"] == 1
            assert counts["time_map"] <= 25
            assert abs(n * time_map(wm, q).T - 1.0) <= 1e-12

    @pytest.mark.parametrize("mu, lam", NEAR_SADDLE)
    def test_near_saddle_root_keeps_precision(self, mu, lam):
        p = ModelParams(mu=mu, lam=lam)
        wm = solve_amplitude(1, p)
        assert wm < 1e-8 * w0_const(p)
        assert abs(time_map(wm, p).T - 1.0) <= 1e-12


class TestIntegrateCauchy:
    def test_equilibrium_stays_constant(self, desk):
        prof = integrate_cauchy(w0_const(desk), desk, 501)
        assert np.allclose(prof.values, w0_const(desk), atol=1e-12)

    def test_energy_drift_small(self, desk):
        wm = solve_amplitude(1, desk)
        prof = integrate_cauchy(wm, desk, 2001)
        e0 = energy(PhaseState(wm, 0.0), desk)
        # drift checked internally at 1e-9; re-check a loose bound here
        from htbif.model import potential_F

        assert abs(float(potential_F(prof.values[-1], desk)) - e0) < 1e-9

    def test_half_period_lands_on_companion(self, desk):
        # n = 1: the half period is the whole interval, monotone w_- to w_+
        wm = solve_amplitude(1, desk)
        prof = integrate_cauchy(wm, desk, 2001)
        vals = prof.values
        assert abs(vals[-1] - companion(wm, desk)) < 1e-8
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
        assert upper.profile.values[0] == pytest.approx(companion(lower.w_minus, desk), abs=1e-8)
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

    def test_misaligned_grid_falls_back_to_integration(self):
        # 3 does not divide 2000, so the upper branch is built by integration
        p = ModelParams(mu=360.0, lam=180.0)
        assert max_crossing_number(p) >= 3
        lower, upper = nodal_pair(3, p, 2001)
        assert lower.crossings == upper.crossings == 3
        assert upper.profile.values[0] > w0_const(p) > lower.profile.values[0]

    def test_near_saddle_pair(self):
        p = ModelParams(mu=800.0, lam=88.0)
        lower, upper = nodal_pair(1, p)
        assert lower.boundary_residual <= 2e-13 and upper.boundary_residual <= 2e-13

    def test_fixed_integration_count(self, monkeypatch):
        # one RK4 integration per pair, one more only when the polish fires
        # (|z(1)| > 2e-13) and one more only when 1/n is not a whole number of
        # grid cells
        terminal_slopes = []
        original = nodal._integrate_wz

        def counted(w_start, p, n_points):
            ws, zs = original(w_start, p, n_points)
            terminal_slopes.append(float(zs[-1]))
            return ws, zs

        monkeypatch.setattr(nodal, "_integrate_wz", counted)
        p = ModelParams(mu=170.0)
        cases = [(3, ModelParams(mu=360.0, lam=180.0))]
        for n in (1, 2):
            root = lambda_roots(n, p)
            for j in range(8):
                lam = root.lambda_minus + (j + 0.5) * (root.lambda_plus - root.lambda_minus) / 8
                cases.append((n, p.with_lam(lam)))
        polished = 0
        for n, q in cases:
            terminal_slopes.clear()
            nodal_pair(n, q)
            polish = abs(terminal_slopes[0]) > 2e-13
            polished += polish
            assert len(terminal_slopes) == 1 + polish + (2000 % n != 0)
        assert 0 < polished < len(cases)

    def test_window_exactness_both_ways(self, desk):
        root = lambda_roots(1, desk)
        for lam in (root.lambda_minus - 0.5, root.lambda_plus + 0.5):
            with pytest.raises(NoSolutionError):
                nodal_pair(1, desk.with_lam(lam))
        for lam in (root.lambda_minus + 0.5, root.lambda_plus - 0.5):
            lower, upper = nodal_pair(1, desk.with_lam(lam))
            assert lower.crossings == 1


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
        assert sols.count == 3
        assert len(sols.profiles()) == 3

    def test_five_solutions_in_overlap(self):
        # mu above the second threshold, lam inside both windows
        p = ModelParams(mu=170.0, lam=85.0)
        sols = enumerate_solutions(p)
        assert sols.count == 5


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
