import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from htbif.errors import DomainError
from htbif.model import ModelParams, potential_F, w0_const
from htbif.timemap import (
    PhasePlane,
    ab_certify,
    companion,
    homoclinic_extent,
    monotone_check,
    time_map,
    time_map_center,
)

# frozen against a 60-digit arbitrary-precision evaluation of the defining
# integrals at the desk-scale parameters
WH_REF = 1.623772756106343957465
COMPANION_HALF_REF = 1.420790962927205862814
T_HALF_REF = 0.9359726363463402455249
T_NEAR_SADDLE_REF = 3.470272059056227603526
T_SADDLE_1E8_REF = 4.39130596425137433
T_SADDLE_1E10_REF = 5.31234000012899227


class TestHomoclinicExtent:
    def test_defining_property(self, desk):
        wh = homoclinic_extent(desk)
        assert wh > w0_const(desk)
        assert abs(potential_F(wh, desk)) < 1e-12 * (1.0 + abs(potential_F(w0_const(desk), desk)))

    def test_against_independent_root_finder(self, desk):
        wh = homoclinic_extent(desk)
        oracle = brentq(lambda w: float(potential_F(w, desk)), 1.0001, 10.0, xtol=1e-15, rtol=8.9e-16)
        assert wh == pytest.approx(oracle, rel=1e-13)
        assert wh == pytest.approx(WH_REF, rel=1e-14)

    def test_shrinks_toward_window_end(self, desk):
        values = [homoclinic_extent(desk.with_lam(lam)) for lam in (25.0, 35.0, 45.0, 49.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_window_required(self, desk):
        with pytest.raises(DomainError):
            homoclinic_extent(desk.with_lam(60.0))


class TestCompanion:
    def test_collapses_to_center(self, desk):
        w0 = w0_const(desk)
        assert companion(w0 * (1.0 - 1e-10), desk) == pytest.approx(w0, rel=1e-9)

    def test_approaches_homoclinic(self, desk):
        assert companion(1e-9, desk) == pytest.approx(homoclinic_extent(desk), rel=1e-9)

    def test_against_independent_root_finder(self, desk):
        wp = companion(0.5, desk)
        target = float(potential_F(0.5, desk))
        oracle = brentq(
            lambda w: float(potential_F(w, desk)) - target, 1.0 + 1e-12, WH_REF,
            xtol=1e-15, rtol=8.9e-16,
        )
        assert wp == pytest.approx(oracle, rel=1e-13)
        assert wp == pytest.approx(COMPANION_HALF_REF, rel=1e-14)

    def test_energy_level_match(self, desk):
        for wm in (0.05, 0.2, 0.5, 0.9, 0.999):
            wp = companion(wm, desk)
            fm = float(potential_F(wm, desk))
            assert abs(float(potential_F(wp, desk)) - fm) <= 1e-12 * (1.0 + abs(fm))

    def test_domain(self, desk):
        with pytest.raises(DomainError):
            companion(1.5, desk)
        with pytest.raises(DomainError):
            companion(0.0, desk)


class TestTimeMapCenter:
    def test_direct_value(self, desk):
        assert time_map_center(desk) == pytest.approx(math.pi / math.sqrt(12.5), rel=1e-15)

    def test_exact_inverse_mode_at_roots(self):
        # at mu = mu_1 and lam = b mu/(2d) the center period is exactly 1
        mu1 = 4.0 * math.pi ** 2
        p = ModelParams(lam=2.0 * math.pi ** 2, mu=mu1)
        assert time_map_center(p) == pytest.approx(1.0, rel=1e-14)

    def test_diverges_at_window_ends(self, desk):
        assert time_map_center(desk.with_lam(1e-8)) > 1e3
        assert time_map_center(desk.with_lam(50.0 - 1e-8)) > 1e3


class TestTimeMap:
    def test_frozen_half_orbit(self, desk):
        s = time_map(0.5, desk)
        assert s.T == pytest.approx(T_HALF_REF, rel=1e-12)
        assert s.w_plus == pytest.approx(COMPANION_HALF_REF, rel=1e-13)
        assert s.energy_level == pytest.approx(float(potential_F(0.5, desk)), rel=1e-15)
        assert s.energy_level < 0.0
        assert abs(float(potential_F(s.w_plus, desk)) - s.energy_level) < 1e-12 * (1 + abs(s.energy_level))

    def test_near_saddle_frozen(self, desk):
        assert time_map(1e-6, desk).T == pytest.approx(T_NEAR_SADDLE_REF, rel=1e-9)

    def test_saddle_law_points_frozen(self, desk):
        # criterion 4 fits the saddle slope 1/k to 1e-6 over these points;
        # its slope differences need the map this accurate there.  Rebuilding
        # the left turning point as w0 + (w_- - w0) would miss by 2e-10..3e-9
        assert time_map(1e-8, desk).T == pytest.approx(T_SADDLE_1E8_REF, rel=1e-12)
        assert time_map(1e-10, desk).T == pytest.approx(T_SADDLE_1E10_REF, rel=1e-12)

    def test_center_limit(self, desk):
        w0 = w0_const(desk)
        tc = time_map_center(desk)
        assert abs(time_map(w0 * (1.0 - 1e-6), desk).T - tc) / tc < 1e-5

    def test_center_limit_convergence_trend(self, desk):
        # |T(w0 (1 - 10^-k)) - Tc| decays like 10^-2k (quadratic in amplitude)
        w0 = w0_const(desk)
        tc = time_map_center(desk)
        gaps = [abs(time_map(w0 * (1.0 - 10.0 ** -k), desk).T - tc) for k in range(2, 7)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] / gaps[2] == pytest.approx(1e4, rel=0.05)

    def test_exceeds_center_value_everywhere(self, desk):
        tc = time_map_center(desk)
        for wm in (0.01, 0.1, 0.4, 0.8, 0.99):
            assert time_map(wm, desk).T > tc

    def test_regularized_region_returns_center(self, desk):
        w0 = w0_const(desk)
        assert time_map(w0 * (1.0 - 1e-9), desk).T == time_map_center(desk)

    def test_energy_conservation_against_orbit(self, desk):
        # marching the Cauchy problem for time T must land on (w_plus, 0)
        from htbif.acceptance import _rk4_march

        for wm in (0.1, 0.5, 0.9):
            s = time_map(wm, desk)
            w_end, z_end = _rk4_march(wm, desk, s.T, max(4000, int(s.T / 1e-4)))
            assert abs(w_end - s.w_plus) < 1e-6
            assert abs(z_end) < 1e-6


class TestPhasePlane:
    def test_wrappers_agree_with_context(self, desk):
        plane = PhasePlane(desk)
        assert plane.w_h == homoclinic_extent(desk)
        assert plane.T_c == time_map_center(desk)
        assert plane.companion(0.5) == companion(0.5, desk)
        assert plane.time_map(0.5) == time_map(0.5, desk)

    def test_window_required(self, desk):
        with pytest.raises(DomainError):
            PhasePlane(desk.with_lam(60.0))

    def test_no_reference_cycles(self, desk):
        # benchmarks pause the collector while operations run, so garbage
        # cycles per call would show up as peak memory
        gc.collect()
        gc.disable()
        try:
            for _ in range(1000):
                time_map(0.5, desk)
                companion(0.5, desk)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTimeMapAcrossParameters:
    @settings(max_examples=25, deadline=None)
    @given(
        log_b=st.floats(-1.0, 1.0),
        log_d=st.floats(-1.0, 1.0),
        log_mu=st.floats(0.0, 3.0),
        lam_frac=st.floats(0.05, 0.95),
    )
    def test_decreasing_and_above_center(self, log_b, log_d, log_mu, lam_frac):
        b, d, mu = 10.0 ** log_b, 10.0 ** log_d, 10.0 ** log_mu
        p = ModelParams(b=b, d=d, mu=mu, lam=lam_frac * b * mu / d)
        plane = PhasePlane(p)
        times = [plane.time_map(s * plane.w0).T for s in (1e-8, 1e-4, 0.1, 0.5, 0.9)]
        assert all(t1 > t2 for t1, t2 in zip(times, times[1:])), times
        assert times[-1] > time_map_center(p)

    @settings(max_examples=25, deadline=None)
    @given(
        log_b=st.floats(-1.0, 1.0),
        log_d=st.floats(-1.0, 1.0),
        log_mu=st.floats(0.0, math.log10(1500.0)),
        lam_frac=st.floats(0.05, 0.95),
        log_ratio=st.floats(-12.0, math.log10(0.9)),
    )
    def test_above_saddle_law_floor(self, log_b, log_d, log_mu, lam_frac, log_ratio):
        # the amplitude solve's bracket floor rests on T(w_-) > ln(w0/w_-)/k,
        # k = sqrt(b mu/d - lam), from F(w) >= -k^2 w^2/2 on (0, w0)
        b, d, mu = 10.0 ** log_b, 10.0 ** log_d, 10.0 ** log_mu
        p = ModelParams(b=b, d=d, mu=mu, lam=lam_frac * b * mu / d)
        plane = PhasePlane(p)
        wm = 10.0 ** log_ratio * plane.w0
        k = math.sqrt(p.bmu_over_d - p.lam)
        assert plane.time_map(wm).T > math.log(plane.w0 / wm) / k


class TestABCertify:
    def test_desk_certificate(self, desk):
        report = ab_certify(desk, n_samples=10_000)
        assert report.alpha == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        assert report.a_condition_ok and report.b_condition_ok
        assert report.worst_margin < 0.0
        assert report.fprime_simple_zero_ok

    def test_a_expression_termwise(self, desk):
        # f' f''' - (5/3) f''^2 collapses to two negative terms
        from htbif.model import kinetic_d2f, kinetic_d3f, kinetic_df

        w = np.linspace(0.0, 1.6, 500)
        expr = kinetic_df(w, desk) * kinetic_d3f(w, desk) - (5.0 / 3.0) * kinetic_d2f(w, desk) ** 2
        bmu_d = desk.bmu_over_d
        closed = (
            -6.0 * bmu_d * desk.lam / (1.0 + w) ** 4
            - (2.0 / 3.0) * bmu_d ** 2 / (1.0 + w) ** 6
        )
        assert np.allclose(expr, closed, rtol=1e-12)
        assert np.all(closed < 0.0)

    def test_second_derivative_positive_at_alpha(self, desk):
        from htbif.model import kinetic_d2f

        report = ab_certify(desk, n_samples=100)
        assert float(kinetic_d2f(report.alpha, desk)) > 0.0


class TestMonotoneCheck:
    def test_strictly_decreasing_on_dense_grid(self, desk):
        w0 = w0_const(desk)
        grid = w0 * np.arange(1, 201) / 201.0
        assert monotone_check(desk, grid)

    def test_two_point_grid_near_center(self, desk):
        w0 = w0_const(desk)
        grid = np.array([w0 * (1.0 - 2e-5), w0 * (1.0 - 1e-5)])
        ts = [time_map(w, desk).T for w in grid]
        tc = time_map_center(desk)
        assert ts[0] == pytest.approx(tc, rel=1e-8)
        assert ts[1] == pytest.approx(tc, rel=1e-8)
        assert monotone_check(desk, grid)

    def test_early_values_dominate(self, desk):
        w0 = w0_const(desk)
        grid = np.array([1e-6, 0.2 * w0, 0.6 * w0, 0.95 * w0])
        ts = [time_map(float(w), desk).T for w in grid]
        assert ts[0] == max(ts)

    @pytest.mark.parametrize(
        "fracs, verdict",
        [((1e-8, 0.3, 0.7, 0.99), True), ((1.0 - 1e-9, 1.0 - 5e-10), False)],  # 2nd: both at T_c
    )
    def test_verdict_matches_wrapper_calls(self, desk, fracs, verdict):
        grid = w0_const(desk) * np.asarray(fracs)
        times = [time_map(w, desk).T for w in grid]
        assert all(a > b for a, b in zip(times, times[1:])) == verdict
        assert monotone_check(desk, grid) == verdict

    def test_grid_validation(self, desk):
        with pytest.raises(DomainError):
            monotone_check(desk, [0.5, 0.4])
        with pytest.raises(DomainError):
            monotone_check(desk, [0.5, 1.5])
