import gc
import math
import sys
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from htbif import model, quadrature, timemap
from htbif.errors import DomainError
from htbif.model import ModelParams, potential_F, w0_const
from htbif.timemap import (
    PhasePlane,
    ab_certify,
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
        assert PhasePlane(desk).companion(w0 * (1.0 - 1e-10)) == pytest.approx(w0, rel=1e-9)

    def test_approaches_homoclinic(self, desk):
        assert PhasePlane(desk).companion(1e-9) == pytest.approx(homoclinic_extent(desk), rel=1e-9)

    def test_against_independent_root_finder(self, desk):
        wp = PhasePlane(desk).companion(0.5)
        target = float(potential_F(0.5, desk))
        oracle = brentq(
            lambda w: float(potential_F(w, desk)) - target, 1.0 + 1e-12, WH_REF,
            xtol=1e-15, rtol=8.9e-16,
        )
        assert wp == pytest.approx(oracle, rel=1e-13)
        assert wp == pytest.approx(COMPANION_HALF_REF, rel=1e-14)

    def test_energy_level_match(self, desk):
        for wm in (0.05, 0.2, 0.5, 0.9, 0.999):
            wp = PhasePlane(desk).companion(wm)
            fm = float(potential_F(wm, desk))
            assert abs(float(potential_F(wp, desk)) - fm) <= 1e-12 * (1.0 + abs(fm))

    @pytest.mark.parametrize("ratio", [1e-8, 0.3, 0.9, 1.0 - 1e-6])
    @pytest.mark.parametrize("w0", [1e-3, 1e-4, 1e-6])
    def test_offset_against_100_digit_references(self, w0, ratio):
        # lam near b mu/d: the offset w_+ - w0 stays within 1e-9 (at most
        # 2.6e-10 measured, at w_-/w0 = 1 - 1e-6, where the rounding of w0
        # itself is that large against the offset; 2.7e-15 elsewhere)
        plane = PhasePlane(ModelParams(mu=200.0, lam=200.0 / (1.0 + w0)))
        w_minus = ratio * plane.w0
        center, ref = _companion_reference(plane, w_minus)
        assert abs((plane.companion(w_minus) - center) / (ref - center) - 1) < 1e-9

    def test_gap_evaluations_per_companion(self, monkeypatch):
        # 200 companions drawn from the timemap_scan ranges (mu log-uniform on
        # [20, 400], lam/mu on [0.05, 0.95], w_-/w0 near the saddle, mid-orbit
        # and near the center): Newton takes at most 6 gap evaluations (5
        # measured), where a bisection took 50 to 73; building
        # the plane takes none, since w_h is solved for only when read
        calls = Counter()
        original = model.TurningGap.over_x

        def counted(gap, x):
            calls["gap"] += 1
            return original(gap, x)

        monkeypatch.setattr(model.TurningGap, "over_x", counted)
        rng = np.random.default_rng(21)
        worst = 0
        for i in range(200):
            mu = math.exp(rng.uniform(math.log(20.0), math.log(400.0)))
            calls.clear()
            plane = PhasePlane(ModelParams(mu=mu, lam=rng.uniform(0.05, 0.95) * mu))
            assert calls["gap"] == 0
            ratio = (
                10.0 ** rng.uniform(-10.0, -1.0),
                rng.uniform(0.1, 0.9),
                1.0 - 10.0 ** rng.uniform(-7.0, -1.0),
            )[i % 3]
            plane.companion(ratio * plane.w0)
            worst = max(worst, calls["gap"] - 1)  # less the target's one
        assert worst <= 6

    def test_domain(self, desk):
        with pytest.raises(DomainError):
            PhasePlane(desk).companion(1.5)
        with pytest.raises(DomainError):
            PhasePlane(desk).companion(0.0)


class TestTimeMapCenter:
    def test_direct_value(self, desk):
        assert time_map_center(desk) == pytest.approx(math.pi / math.sqrt(12.5), rel=1e-15)

    def test_exact_inverse_mode_at_roots(self):
        # at mu = mu_1 and lam = b mu/(2d) the center period is exactly 1
        mu1 = 4.0 * math.pi ** 2
        p = ModelParams(lam=2.0 * math.pi ** 2, mu=mu1)
        assert time_map_center(p) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("w0", [1e-3, 1e-6, 1e-8])
    def test_closed_forms_within_two_ulp_near_the_window_end(self, w0):
        # w0, T_c and ab_certify's alpha against 50-digit values from the same
        # doubles; b mu/(d lam) - 1, lam (1 - d lam/(b mu)) and
        # sqrt(b mu/(d lam)) - 1 cancel to errors of eps/w0 (6.6e-10 at 1e-8)
        p = ModelParams(mu=200.0, lam=200.0 / (1.0 + w0))
        with mpmath.workdps(50):
            center = mpmath.mpf(p.mu) / mpmath.mpf(p.lam) - 1
            for value, exact in (
                (w0_const(p), center),
                (time_map_center(p), mpmath.pi / mpmath.sqrt(mpmath.mpf(p.lam) * center / (1 + center))),
                (ab_certify(p).alpha, mpmath.sqrt(1 + center) - 1),
            ):
                assert abs(value - exact) <= 2 * math.ulp(float(exact))

    def test_diverges_at_window_ends(self, desk):
        assert time_map_center(desk.with_lam(1e-8)) > 1e3
        assert time_map_center(desk.with_lam(50.0 - 1e-8)) > 1e3


class TestTimeMap:
    def test_frozen_half_orbit(self, desk):
        s = time_map(0.5, desk)
        assert s.T == pytest.approx(T_HALF_REF, rel=1e-12)
        assert s.w_plus == pytest.approx(COMPANION_HALF_REF, rel=1e-13)
        level = float(potential_F(s.w_minus, desk))
        assert level < 0.0
        assert abs(float(potential_F(s.w_plus, desk)) - level) < 1e-12 * (1 + abs(level))

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
        # the quadrature itself, 1e-9 w0 below the center, rounds to T_c
        w0 = w0_const(desk)
        assert time_map(w0 * (1.0 - 1e-9), desk).T == time_map_center(desk)

    def test_companion_one_ulp_below_the_center(self, desk):
        # the offset is below half an ulp of w0 = 1, so w0 + offset would
        # round onto the center; the companion keeps to (w0, w_h)
        assert w0_const(desk) == 1.0
        assert PhasePlane(desk).companion(math.nextafter(1.0, 0.0)) > 1.0

    def test_one_ulp_below_the_center_takes_the_quadrature(self, desk, monkeypatch):
        calls = []
        original = timemap.adaptive_gauss

        def counted(f, a, b):
            calls.append((a, b))
            return original(f, a, b)

        monkeypatch.setattr(timemap, "adaptive_gauss", counted)
        t = time_map(math.nextafter(1.0, 0.0), desk).T
        # one batched call: both half orbits
        assert [len(a) for a, _ in calls] == [2]
        assert abs(t - time_map_center(desk)) <= 1e-14

    def test_meets_the_center_limit_from_one_ulp_to_1e8_w0_below(self, monkeypatch):
        # the quadrature, two integrals per time map, keeps |T/T_c - 1| <=
        # 1e-12 in the last 1e-8 w0 below the center, on random planes (mu
        # 5..2000, lam 0.02..0.999 mu, so w0 >= 1e-3), on power-of-two
        # centers, whose ulp below is half the ulp above, and on the plane at
        # the edge of the double range (w0 = 1.5e155); at most 6.7e-16,
        # 8.5e-15 and 2.2e-16 measured
        calls = Counter()
        original = timemap.adaptive_gauss

        def counted(f, a, b):
            calls["batches"] += 1
            calls["integrals"] += len(a)
            return original(f, a, b)

        monkeypatch.setattr(timemap, "adaptive_gauss", counted)
        rng = np.random.default_rng(23)
        planes = []
        for _ in range(40):
            mu = math.exp(rng.uniform(math.log(5.0), math.log(2000.0)))
            planes.append(ModelParams(mu=mu, lam=rng.uniform(0.02, 0.999) * mu))
        planes += [ModelParams(mu=lam * (1.0 + 2.0 ** k), lam=lam) for k in range(-9, 40, 4) for lam in (0.25, 3.0)]
        lam = 1e-3
        w0_max = math.sqrt(sys.float_info.max / 8.0) / math.sqrt(lam) - 1.0
        planes.append(ModelParams(mu=lam * (1.0 + 0.999 * w0_max), lam=lam))
        worst = 0.0
        for p in planes:
            plane = PhasePlane(p)
            w0, tc = plane.w0, time_map_center(p)
            below = math.nextafter(w0, 0.0)
            for w_minus in (below, *(min(w0 * (1.0 - 10.0 ** rng.uniform(-16.0, -8.0)), below) for _ in range(4))):
                worst = max(worst, abs(plane.time_map(w_minus).T / tc - 1.0))
                calls["maps"] += 1
        assert planes[-1].mu / planes[-1].lam > 1e155
        assert calls["batches"] == calls["maps"]
        assert calls["integrals"] == 2 * calls["maps"]
        assert worst <= 1e-12

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
        assert plane.time_map(0.5) == time_map(0.5, desk)

    def test_window_required(self, desk):
        with pytest.raises(DomainError):
            PhasePlane(desk.with_lam(60.0))

    def test_refuses_a_plane_beyond_double_range(self):
        # at mu = 1e300 the center is 4e298 and the potential lam w^2/2 would
        # overflow on the way to the homoclinic extent; the refusal comes
        # first, and just inside the bound the plane builds with no
        # floating-point warning
        lam = 25.0
        w0_max = math.sqrt(sys.float_info.max / (8.0 * lam)) - 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu in (1e300, lam * (1.0 + 1.001 * w0_max)):
                with pytest.raises(DomainError, match="leaves the double range"):
                    PhasePlane(ModelParams(mu=mu, lam=lam))
            plane = PhasePlane(ModelParams(mu=lam * (1.0 + 0.999 * w0_max), lam=lam))
            assert plane.w0 < plane.w_h < math.inf
            assert math.isfinite(plane.time_map(0.5 * plane.w0).T)

    @pytest.mark.parametrize("lam, rel", [(1e-300, 1e-15), (1e-250, 1e-12)])
    def test_refuses_a_plane_whose_gaps_underflow(self, lam, rel):
        # at mu = lam (1 + rel) the well's depth, about lam w0^3/6, underflows
        # (lam = 1e-300) or lies within 1/eps^2 of the smallest normal double
        # (lam = 1e-250); companion(0.5 w0) raised a bare ZeroDivisionError at
        # the first and time_map a QuadratureError at the second
        p = ModelParams(mu=lam * (1.0 + rel), lam=lam)
        for call in (lambda: PhasePlane(p), lambda: time_map(0.5 * w0_const(p), p)):
            with pytest.raises(DomainError, match="leaves the double range: the gap one ulp from the center"):
                call()

    def test_builds_just_above_the_underflow_bound(self):
        # at w0 = 1e-3 the bound lam w0 (eps w0)^2/(2 (1 + w0)) >= the smallest
        # normal double puts lam at 9.0e-268; just above it the companion one
        # ulp below the center is finite and right of it
        w0 = 1e-3
        lam_min = 2.0 * sys.float_info.min * (1.0 + w0) / (w0 * (sys.float_info.epsilon * w0) ** 2)
        with pytest.raises(DomainError, match="leaves the double range"):
            PhasePlane(ModelParams(mu=0.99 * lam_min * (1.0 + w0), lam=0.99 * lam_min))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane = PhasePlane(ModelParams(mu=1.01 * lam_min * (1.0 + w0), lam=1.01 * lam_min))
            assert plane.w0 < plane.companion(math.nextafter(plane.w0, 0.0)) < plane.w_h

    def test_time_map_at_the_edge_of_the_double_range(self):
        # small lam lets w0 reach 1.5e155, where |Delta| A and the square of
        # 1 + w_end overflow; at that size the orbit is harmonic and T is
        # the center limit pi/sqrt(lam) to within 1/w0
        lam = 1e-3
        w0_max = math.sqrt(sys.float_info.max / 8.0) / math.sqrt(lam) - 1.0
        plane = PhasePlane(ModelParams(mu=lam * (1.0 + 0.999 * w0_max), lam=lam))
        for ratio in (1e-100, 1e-8, 0.5):
            assert plane.time_map(ratio * plane.w0).T == pytest.approx(time_map_center(plane.p), rel=1e-10)

    @pytest.mark.parametrize("lam, mu", [(25.0, 2.37e154), (1e-8, 1e-8 * (1.0 + 4.7e149))])
    def test_saddle_far_below_a_huge_center(self, lam, mu):
        # w0 = 9.5e152 and 4.7e149: the gap is formed from w_- itself, so no
        # q delta rounds to -1 (a math.log1p(-1) domain error once), and the
        # harmonic orbit's T is the center limit
        plane = PhasePlane(ModelParams(mu=mu, lam=lam))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ratio in (1e-100, 1e-300):
                assert plane.time_map(ratio * plane.w0).T == pytest.approx(time_map_center(plane.p), rel=1e-10)

    def test_no_reference_cycles(self, desk):
        # benchmarks pause the collector while operations run, so garbage
        # cycles per call would show up as peak memory
        gc.collect()
        gc.disable()
        try:
            for _ in range(1000):
                time_map(0.5, desk)
                PhasePlane(desk).companion(0.5)
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

    def test_saddle_law_slope_across_parameters(self):
        # criterion 4's law T = ln(1/w_-)/k + C + O(w_-) away from the desk
        # point: both slopes over {1e-8, 1e-9, 1e-10} w0 equal 1/k to 1e-6
        rng = np.random.default_rng(2014)
        scales = (1e-8, 1e-9, 1e-10)
        worst = 0.0
        for _ in range(40):
            b, d, mu = np.exp(rng.uniform(np.log([0.3, 0.3, 20.0]), np.log([3.0, 3.0, 400.0]))).tolist()
            p = ModelParams(b=b, d=d, mu=mu, lam=rng.uniform(0.05, 0.95) * b * mu / d)
            plane = PhasePlane(p)
            k = math.sqrt(p.bmu_over_d - p.lam)
            times = [plane.time_map(s * plane.w0).T for s in scales]
            for i in range(len(scales) - 1):
                slope = (times[i + 1] - times[i]) / math.log(scales[i] / scales[i + 1])
                worst = max(worst, abs(k * slope - 1.0))
        assert worst < 1e-6


# T(w_-) at mu = 200, lam = mu/(1 + w0), b = d = 1, for (w0, w_-/w0), from
# the parameters as doubles (lam = 200.0 / (1.0 + w0), w_- = ratio * w0, with
# w0 = w0_const in doubles).  From w0 = 1e-3 on, at 80 working digits:
#     F = lambda w: L/2 w^2 - B (w - log1p(w)), B = 200, L = mpf(lam),
#     center W0 = B/L - 1 (exact), companion w_+ by 400 bisections of
#     F(w) = F(w_-) on (W0, 3 W0 + 1), and for each w_end in (w_-, w_+),
#     D = w_end - W0, the integral over psi of
#     |D| sin(psi) / sqrt(2 (F(w_end) - F(w_end - 2 D sin^2(psi/2))))
#     by mpmath.quad(..., [0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, pi/2],
#     method="gauss-legendre"); tanh-sinh at 70 digits agrees to 1e-27.
# Below w0 = 1e-3, down to w0 = 1e-12, both halves from
# _half_orbit_reference, with w_+ from _companion_reference.
T_STRESS_REF = (
    (1e-12, 1e-8, 1478235.0708550713025),
    (1e-12, 0.3, 271561.13578358956147),
    (1e-12, 0.9, 223019.23759817771497),
    (1e-12, 1.0 - 1e-6, 222142.16470813509659),
    (1e-9, 1e-8, 46746.312598311182228),
    (1e-9, 0.3, 8587.5934057977992779),
    (1e-9, 0.9, 7052.5501703278796413),
    (1e-9, 1.0 - 1e-6, 7024.8144439381903794),
    (1e-7, 1e-8, 4674.6317126577196177),
    (1e-7, 0.3, 858.75944925467968005),
    (1e-7, 0.9, 705.25511579998726575),
    (1e-7, 1.0 - 1e-6, 702.48154305697141808),
    (1e-6, 1e-8, 1478.2490889226307900),
    (1e-6, 0.3, 271.56379240483471449),
    (1e-6, 0.9, 223.02144974780043185),
    (1e-6, 1.0 - 1e-6, 222.14436906634816182),
    (1e-5, 1e-8, 467.46576211087142383),
    (1e-5, 0.3, 85.876675758704237751),
    (1e-5, 0.9, 70.526206956795562064),
    (1e-5, 1.0 - 1e-6, 70.248849791539782927),
    (1e-4, 1e-8, 147.83310109542719601),
    (1e-4, 0.3, 27.158690217601208161),
    (1e-4, 0.9, 22.304343855236052008),
    (1e-4, 1.0 - 1e-6, 22.216636132264376613),
    (1e-3, 1e-8, 46.772477685611634951),
    (1e-3, 0.3, 8.5949753451084551203),
    (1e-3, 0.9, 7.0595741717183940501),
    (1e-3, 1.0 - 1e-6, 7.0318395457752967952),
    (1e-1, 1e-8, 4.9314664848950613507),
    (1e-1, 0.3, 0.93238101018432446537),
    (1e-1, 0.9, 0.77549311631442623293),
    (1e-1, 1.0 - 1e-6, 0.77272962041476984394),
    (10.0, 1e-8, 2.0070487133916034996),
    (10.0, 0.3, 0.79388845741691492301),
    (10.0, 0.9, 0.77299639114965040924),
    (10.0, 1.0 - 1e-6, 0.77272962041450648151),
    (1e3, 1e-8, 7.9516248590296717485),
    (1e3, 0.3, 7.0340643586882511133),
    (1e3, 0.9, 7.0318661115347749048),
    (1e3, 1.0 - 1e-6, 7.0318395457717696352),
)


class TestTimeMapStress:
    @pytest.mark.parametrize("w0, ratio, ref", T_STRESS_REF)
    def test_frozen_across_the_window(self, w0, ratio, ref):
        # lam near b mu/d (w0 -> 0) and small lam (large w0) keep the 1e-10
        # time-map contract; the error is at most 1.3e-14 (at w0 = 1e-3) and
        # 6.7e-16 elsewhere
        plane = PhasePlane(ModelParams(mu=200.0, lam=200.0 / (1.0 + w0)))
        assert plane.time_map(ratio * plane.w0).T == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("mu", [20.0, 200.0, 2e5])
    def test_just_below_w0_1e6(self, mu):
        # w0 = 9.99e-7 over four decades of mu: T at w_- = w0/2 against
        # 50-digit references from the same doubles
        # (both halves from _half_orbit_reference, w_+ from
        # _companion_reference), 3.3e-16 off at most
        ref = {20.0: 772.01402914533787225, 200.0: 244.13227177462920281, 2e5: 7.7201402916829016121}[mu]
        plane = PhasePlane(ModelParams(mu=mu, lam=mu / (1.0 + 0.999e-6)))
        assert plane.time_map(0.5 * plane.w0).T == pytest.approx(ref, rel=1e-10)
        assert time_map(0.5 * plane.w0, plane.p) == plane.time_map(0.5 * plane.w0)


def _mp_potential(plane):
    """F(w) = L/2 w^2 - B (w - log1p(w)) with L = lam and B = b mu/d from the
    double parameters, and the exact center W0 = B/L - 1, at the working
    precision."""
    L, B = mpmath.mpf(plane.p.lam), mpmath.mpf(plane.bmu_d)

    def F(w):
        return L / 2 * w * w - B * (w - mpmath.log1p(w))

    return F, B / L - 1


def _companion_reference(plane, w_minus):
    """(W0, w_+) at 100 digits: the exact center and the turning point on the
    level of w_minus, by 330 bisections of F(w) = F(w_minus) on
    (W0, 3 W0 + 1), which leave a width below 1e-99 (3 W0 + 1)."""
    with mpmath.workdps(100):
        F, W0 = _mp_potential(plane)
        level = F(mpmath.mpf(w_minus))
        lo, hi = W0, 3 * W0 + 1
        for _ in range(330):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if F(mid) < level else (lo, mid)
        return W0, (lo + hi) / 2


def _half_orbit_reference(plane, w_end):
    """Time from the center to the turning point w_end at 50 digits, from the
    double parameters: F and the exact center W0 from _mp_potential,
    D = w_end - W0, and the integral over psi of
    |D| sin(psi)/sqrt(2 (F(w_end) - F(w))),
    w = w_end - 2 D sin^2(psi/2), by mpmath.quad(..., method="gauss-legendre")
    at 60 digits (the gap at 100), split at 10^k psi*, k = -4..4, where
    x = |w - w_end| = 2 |D| sin^2(psi*/2) = min(|A/C|, |D|),
    A = w_end D/(1 + w_end), C = ((1 + W0)/(1 + w_end)^2 - 1)/2: the width
    of the near-saddle spike.  A run at 80 digits (the gap at 130) agrees
    to 1e-60."""
    with mpmath.workdps(100):
        F, W0 = _mp_potential(plane)
        we = mpmath.mpf(w_end)
        D = we - W0
        top = F(we)

        def integrand(psi):
            with mpmath.workdps(100):
                s = mpmath.sin(psi / 2)
                return abs(D) * mpmath.sin(psi) / mpmath.sqrt(2 * (top - F(we - 2 * D * s * s)))

        A = we * D / (1 + we)
        C = ((1 + W0) / (1 + we) ** 2 - 1) / 2
        x = min(abs(A / C), abs(D)) if C else abs(D)
        spike = 2 * mpmath.asin(mpmath.sqrt(x / (2 * abs(D))))
        cuts = sorted({spike * mpmath.mpf(10) ** k for k in range(-4, 5)} | {mpmath.mpf(0)})
        cuts = [c for c in cuts if c < mpmath.pi / 2 * 0.999] + [mpmath.pi / 2]
        with mpmath.workdps(60):
            return mpmath.quad(integrand, cuts, method="gauss-legendre")


# Left half-orbit times, from _half_orbit_reference, at (mu, lam, w_-/w0)
# with b = d = 1 and w_- = ratio * w0 in doubles: three near-saddle
# amplitudes of nodal pairs, where the march needs T to about 1e-13, and
# w0 = 1e-5, 1e-4 and 3e-4 (lam = 200/(1 + w0)), where the gap's terms are
# about 1/w0 times larger than the gap.  All twelve within 1e-13 (3.3e-15
# measured).
HALF_ORBIT_REF = (
    (360.0, 44.09085826361496, 3.055582374498613e-5, 0.7538114035385475920205, 1e-13),
    (360.0, 209.11904448882018, 1.2226791893357272e-4, 0.8493959910425666229019, 1e-13),
    (170.0, 43.21892503787035, 1.9595350012396413e-3, 0.7369544895877300979537, 1e-13),
    (200.0, 200.0 / (1.0 + 1e-5), 1e-6, 335.0421040802942301898, 1e-13),
    (200.0, 200.0 / (1.0 + 1e-5), 0.3, 55.96865046571039296073, 1e-13),
    (200.0, 200.0 / (1.0 + 1e-5), 0.49, 46.83022143335883819186, 1e-13),
    (200.0, 200.0 / (1.0 + 1e-4), 1e-6, 105.954628042115282208, 1e-13),
    (200.0, 200.0 / (1.0 + 1e-4), 0.3, 17.69996616514190128033, 1e-13),
    (200.0, 200.0 / (1.0 + 1e-4), 0.49, 14.81006280275631875778, 1e-13),
    (200.0, 200.0 / (1.0 + 3e-4), 1e-6, 61.179362943003002822, 1e-13),
    (200.0, 200.0 / (1.0 + 3e-4), 0.3, 10.22052339938642746972, 1e-13),
    (200.0, 200.0 / (1.0 + 3e-4), 0.49, 8.55193638910371084267, 1e-13),
)


class TestRoutes:
    """One saddle-regular route for both half orbits, saddle to center."""

    @pytest.mark.parametrize("mu, lam, ratio, ref, rel", HALF_ORBIT_REF)
    def test_frozen_left_halves(self, mu, lam, ratio, ref, rel):
        plane = PhasePlane(ModelParams(mu=mu, lam=lam))
        w_minus = ratio * plane.w0
        left, _ = plane._half_orbit_times(w_minus, plane.companion(w_minus))
        assert left == pytest.approx(ref, rel=rel)

    @pytest.mark.parametrize("w0_range, rel", [((0.1, 50.0), 1e-13), ((1e-5, 0.1), 1e-13)])
    def test_both_halves_match_50_digit_references(self, w0_range, rel):
        # at the code's own turning points, saddle to center (at most 2.2e-16
        # and 4.4e-16 measured on these 24 points each)
        rng = np.random.default_rng(20)
        lo, hi = np.log(w0_range)
        worst = 0.0
        for i in range(12):
            w0 = math.exp(rng.uniform(lo, hi))
            mu = math.exp(rng.uniform(math.log(20.0), math.log(400.0)))
            plane = PhasePlane(ModelParams(mu=mu, lam=mu / (1.0 + w0)))
            ratio = (
                10.0 ** rng.uniform(-10.0, -1.0),  # saddle
                rng.uniform(0.1, 0.9),  # mid
                1.0 - 10.0 ** rng.uniform(-7.0, -1.0),  # center
            )[i % 3]
            w_ends = (ratio * plane.w0, plane.companion(ratio * plane.w0))
            for w_end, value in zip(w_ends, plane._half_orbit_times(*w_ends)):
                worst = max(worst, float(abs(value / _half_orbit_reference(plane, w_end) - 1)))
        assert worst < rel

    def test_near_saddle_work(self, monkeypatch):
        # 200 near-saddle time maps drawn as timemap_scan draws them: the
        # quadrature's panels and integrand calls (one per gauss_panel call)
        # stay at most the 2748 and 587 the sinh map takes with both half
        # orbits in one batch (1187 calls with one integral per call)
        work = Counter()
        original = quadrature.gauss_panel

        def counted(f, a, b, which):
            work["calls"] += 1
            work["panels"] += len(a)
            return original(f, a, b, which)

        monkeypatch.setattr(quadrature, "gauss_panel", counted)
        rng = np.random.default_rng(11)
        for _ in range(200):
            mu = math.exp(rng.uniform(math.log(20.0), math.log(400.0)))
            plane = PhasePlane(ModelParams(mu=mu, lam=rng.uniform(0.05, 0.95) * mu))
            plane.time_map(10.0 ** rng.uniform(-10.0, -1.0) * plane.w0)
        assert work["panels"] <= 2748
        assert work["calls"] <= 587

    def test_timemap_scan_work(self, monkeypatch):
        # 300 time maps drawn as timemap_scan draws them, a near-saddle, a
        # mid-orbit and a near-center amplitude per plane: one integrand call
        # per map holds both half orbits whole and halved, so a map takes
        # 1 + (levels past the first) calls; 2532 panels and 483 calls
        # measured (1383 calls with one integral per call)
        work = Counter()
        original = quadrature.gauss_panel

        def counted(f, a, b, which):
            work["calls"] += 1
            work["panels"] += len(a)
            return original(f, a, b, which)

        monkeypatch.setattr(quadrature, "gauss_panel", counted)
        rng = np.random.default_rng(26)
        for _ in range(100):
            mu = math.exp(rng.uniform(math.log(20.0), math.log(400.0)))
            plane = PhasePlane(ModelParams(mu=mu, lam=rng.uniform(0.05, 0.95) * mu))
            saddle, mid, center = 10.0 ** rng.uniform(-10.0, -1.0), rng.uniform(0.1, 0.9), 10.0 ** rng.uniform(-7.0, -1.0)
            for ratio in (saddle, mid, 1.0 - center):
                plane.time_map(ratio * plane.w0)
        assert work["panels"] <= 2532
        assert work["calls"] <= 483

    def test_saddle_law_down_to_the_smallest_normal_double(self):
        # at mu = 1e7, lam = 25 (k = 3162.3) the amplitude solve reaches the
        # floor of the double range; x = (sqrt(sigma) sinh(t))^2 and the
        # kernel m(y)/y keep every step finite and the gap positive, so T
        # steps by ln(w1/w2)/k (0.0728142 per 100 decades) to 1e-10
        p = ModelParams(mu=1e7, lam=25.0)
        plane = PhasePlane(p)
        k = math.sqrt(p.bmu_over_d - p.lam)
        points = (1e-100, 1e-200, sys.float_info.min)
        times = [plane.time_map(w).T for w in points]
        assert all(map(math.isfinite, times))
        for w1, w2, t1, t2 in zip(points, points[1:], times, times[1:]):
            assert t2 - t1 == pytest.approx(math.log(w1 / w2) / k, rel=1e-10)
        with pytest.raises(DomainError, match="normal double"):
            plane.time_map(5e-324)

    def test_companion_off_the_center(self):
        # at w0 = 1e-5 and w_-/w0 = 1 - 1e-6 the offset w_+ - w0 is 1e-6 w0;
        # the companion keeps it (2.9e-11 measured), so the right half orbit
        # never starts at the center itself
        plane = PhasePlane(ModelParams(mu=200.0, lam=200.0 / (1.0 + 1e-5)))
        w_minus = (1.0 - 1e-6) * plane.w0
        w_plus = plane.companion(w_minus)
        center, ref = _companion_reference(plane, w_minus)
        assert w_plus > plane.w0
        assert abs((w_plus - center) / (ref - center) - 1) < 1e-9


def _termwise(w, p):
    """f, f', f'' and f''' of the kinetics term by term, B = b mu/d."""
    bmu_d, y = p.bmu_over_d, 1.0 + w
    return p.lam * w - bmu_d * w / y, p.lam - bmu_d / y ** 2, 2.0 * bmu_d / y ** 3, -6.0 * bmu_d / y ** 4


def _ab_planes():
    """200 seeded planes: b, d in [0.3, 3], mu log-uniform up to 1.6e5, lam in (0.02, 0.98) b mu/d."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        b, d, mu = np.exp(rng.uniform(np.log([0.3, 0.3, 5.0]), np.log([3.0, 3.0, 1.6e5]))).tolist()
        yield ModelParams(b=b, d=d, mu=mu, lam=rng.uniform(0.02, 0.98) * b * mu / d)


class TestABCertify:
    def test_desk_certificate(self, desk):
        report = ab_certify(desk)
        assert report.alpha == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        assert report.a_condition_ok and report.b_condition_ok
        # -2 lam^2 alpha^2/(1 + alpha) at lam = 25, alpha = sqrt(2) - 1
        assert report.worst_margin == pytest.approx(-1250.0 * (3.0 / math.sqrt(2.0) - 2.0), rel=1e-14)
        assert report.fprime_simple_zero_ok

    def test_a_expression_termwise(self):
        # f' f''' - (5/3) f''^2 collapses to -6 B lam/y^4 - (2/3) B^2/y^6,
        # which rises with y = 1 + w (2.9e-15 apart at most)
        for p in _ab_planes():
            w = np.linspace(0.0, homoclinic_extent(p), 400)
            _, f1, f2, f3 = _termwise(w, p)
            y, bmu_d = 1.0 + w, p.bmu_over_d
            closed = -6.0 * bmu_d * p.lam / y ** 4 - (2.0 / 3.0) * bmu_d ** 2 / y ** 6
            assert np.allclose(f1 * f3 - (5.0 / 3.0) * f2 ** 2, closed, rtol=1e-13, atol=0.0)
            assert np.all(np.diff(closed) > 0.0)

    def test_b_expression_termwise(self):
        # f f'' - 3 f'^2 = lam^2 N(y)/y^4, N = 2 (y - 1) y0 (y - y0) - 3 (y^2 - y0)^2,
        # which rises on [0, alpha] (2.4e-14 apart at most: both forms cancel)
        for p in _ab_planes():
            alpha = ab_certify(p).alpha
            w = np.linspace(0.0, alpha, 400)
            f, f1, f2, _ = _termwise(w, p)
            y, y0 = 1.0 + w, 1.0 + w0_const(p)
            closed = p.lam ** 2 * (2.0 * (y - 1.0) * y0 * (y - y0) - 3.0 * (y * y - y0) ** 2) / y ** 4
            assert np.allclose(f * f2 - 3.0 * f1 * f1, closed, rtol=1e-12, atol=0.0)
            assert np.all(np.diff(closed) > 0.0)

    def test_margins_are_the_termwise_suprema(self):
        # the suprema sit at w_h and at alpha, so the worst margin is the
        # larger termwise value there (6.4e-15 apart at most)
        for p in _ab_planes():
            report = ab_certify(p)
            f, f1, f2, f3 = _termwise(np.array([homoclinic_extent(p), report.alpha]), p)
            a_expr, b_expr = f1 * f3 - (5.0 / 3.0) * f2 ** 2, f * f2 - 3.0 * f1 * f1
            assert report.worst_margin == pytest.approx(max(a_expr[0], b_expr[1]), rel=1e-12)
            assert report.a_condition_ok and report.b_condition_ok

    @pytest.mark.parametrize("edge", [False, True])
    def test_margin_below_the_double_range_still_certifies(self, edge):
        # at lam = 1e-3 the A expression at w_h, -(6 B lam + (2/3) B^2/y^2)/y^4,
        # lies below the smallest double from w0 = 1e106 up to the plane of
        # test_time_map_at_the_edge_of_the_double_range: the margin reads
        # -0.0, and the closed form's sign keeps the A condition true
        lam = 1e-3
        w0 = 0.999 * (math.sqrt(sys.float_info.max / 8.0) / math.sqrt(lam) - 1.0) if edge else 1e106
        report = ab_certify(ModelParams(mu=lam * (1.0 + w0), lam=lam))
        assert report.a_condition_ok and report.b_condition_ok and report.fprime_simple_zero_ok
        assert report.worst_margin == 0.0 and math.copysign(1.0, report.worst_margin) == -1.0

    def test_second_derivative_positive_at_alpha(self):
        # alpha is the zero of f' to rounding (1.5 eps B at most), and
        # f'' > 0 there: the zero is simple
        for p in _ab_planes():
            report = ab_certify(p)
            _, f1, f2, _ = _termwise(report.alpha, p)
            assert abs(f1) <= 4.0 * sys.float_info.epsilon * p.bmu_over_d
            assert f2 > 0.0
            assert report.fprime_simple_zero_ok


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
        # 2nd: T = T_c at 1 - 1e-9 and one ulp above T_c at 1 - 5e-10, a
        # rounding-level rise next to the center that the verdict refuses
        [((1e-8, 0.3, 0.7, 0.99), True), ((1.0 - 1e-9, 1.0 - 5e-10), False)],
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
