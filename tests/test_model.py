import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htbif.errors import DomainError
from htbif.model import (
    CoeffFn,
    ModelParams,
    Profile,
    TurningGap,
    kinetic_f,
    potential_F,
    potential_gap,
    w0_const,
)


class TestCoeffFn:
    def test_constant(self):
        c = CoeffFn.constant(2.5)
        assert c.is_constant
        assert c(0.3) == 2.5
        assert np.all(c(np.linspace(0, 1, 5)) == 2.5)

    def test_sampled_interpolates(self):
        c = CoeffFn.sampled([0.0, 0.5, 1.0], [1.0, 3.0, 1.0])
        assert c(0.25) == pytest.approx(2.0)
        assert c(1.0) == 1.0

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([0.0, 1.0], [0.0, 0.0]),      # identically zero
            ([0.0, 1.0], [1.0, -0.5]),     # negative value
            ([0.1, 1.0], [1.0, 1.0]),      # does not start at 0
            ([0.0, 0.5], [1.0, 1.0]),      # does not end at 1
            ([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0]),  # not strictly ascending
        ],
    )
    def test_sampled_rejects(self, xs, ys):
        with pytest.raises(DomainError):
            CoeffFn.sampled(xs, ys)

    def test_constant_rejects_negative(self):
        with pytest.raises(DomainError):
            CoeffFn.constant(-1.0)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "coeff.csv"
        path.write_text("x,value\r\n0,1.0\r\n0.5,2.0\r\n1,1.5\r\n", encoding="utf-8")
        c = CoeffFn.from_csv(path)
        assert c(0.25) == pytest.approx(1.5)

    def test_from_spec(self, tmp_path):
        assert CoeffFn.from_spec("const:3").value == 3.0
        path = tmp_path / "c.csv"
        path.write_text("0,1\n1,1\n")
        assert not CoeffFn.from_spec(f"csv:{path}").is_constant
        with pytest.raises(DomainError):
            CoeffFn.from_spec("nope:1")

    def test_unparsable_constant_names_the_spec(self):
        with pytest.raises(DomainError, match="'const:abc'"):
            CoeffFn.from_spec("const:abc")

    @pytest.mark.parametrize("name, reason", [
        ("missing.csv", "No such file or directory"),
        (".", "Is a directory"),
        ("binary.csv", "not UTF-8 text"),
    ])
    def test_unreadable_file_names_the_path(self, tmp_path, name, reason):
        (tmp_path / "binary.csv").write_bytes(b"0,1\n\xff\xfe,1\n")
        path = tmp_path / name
        for load in (CoeffFn.from_csv, lambda path: CoeffFn.from_spec(f"csv:{path}")):
            with pytest.raises(DomainError, match=reason) as err:
                load(path)
            assert str(path) in str(err.value)


class TestModelParams:
    def test_defaults_are_desk_scale(self, desk):
        assert (desk.b, desk.d, desk.lam, desk.mu, desk.eps) == (1.0, 1.0, 25.0, 50.0, 0.0)

    @pytest.mark.parametrize("kwargs", [dict(b=0.0), dict(d=-1.0), dict(eps=-1e-9), dict(b=math.nan)])
    def test_rejects_bad_scalars(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)

    def test_with_lam_and_eps(self, desk):
        q = desk.with_lam(10.0).with_eps(0.5)
        assert (q.lam, q.eps) == (10.0, 0.5)
        assert (desk.lam, desk.eps) == (25.0, 0.0)


class TestProfile:
    def test_grid(self):
        prof = Profile([1.0, 2.0, 3.0])
        assert prof.n_points == 3
        assert prof.h == 0.5
        assert np.allclose(prof.x, [0.0, 0.5, 1.0])

    def test_rejects_even_and_short(self):
        with pytest.raises(DomainError):
            Profile([1.0, 2.0])
        with pytest.raises(DomainError):
            Profile([1.0, 2.0, 3.0, 4.0])

    def test_values_read_only(self):
        prof = Profile.constant(1.0, 5)
        with pytest.raises(ValueError):
            prof.values[0] = 2.0


class TestW0Const:
    def test_midpoint_value(self):
        # lam = b*mu/(2d) forces the constant state to equal 1
        assert w0_const(ModelParams(lam=25.0, mu=50.0)) == 1.0

    def test_direct_evaluation(self):
        assert w0_const(ModelParams(lam=10.0, mu=50.0)) == 4.0

    def test_window_boundary_raises(self):
        with pytest.raises(DomainError):
            w0_const(ModelParams(lam=50.0, mu=50.0))
        with pytest.raises(DomainError):
            w0_const(ModelParams(lam=-1.0, mu=50.0))


class TestKinetics:
    def test_zeros_of_f(self, desk):
        assert kinetic_f(0.0, desk) == 0.0
        assert kinetic_f(w0_const(desk), desk) == pytest.approx(0.0, abs=1e-14)

    def test_df_at_zero(self, desk):
        # the saddle's slope f'(0) = lam - b mu/d
        h = 1e-6
        fd = (kinetic_f(h, desk) - kinetic_f(-h, desk)) / (2 * h)
        assert fd == pytest.approx(-25.0, rel=1e-9)

    def test_domain(self, desk):
        with pytest.raises(DomainError):
            kinetic_f(-1.0, desk)
        with pytest.raises(DomainError):
            potential_F(np.array([0.5, -2.0]), desk)

    def test_derivatives_match_finite_differences(self, desk):
        # the closed forms ab_certify's certificate rests on, with y = 1 + w,
        # y0 = 1 + w0 and B = b mu/d = lam y0: f' = lam (y^2 - y0)/y^2,
        # f'' = 2 B/y^3 and f''' = -6 B/y^4, against differences of kinetic_f
        rng = np.random.default_rng(7)
        w = rng.uniform(-0.5, 5.0, size=40)
        h = 1e-6
        lam, bmu_d, y0 = desk.lam, desk.bmu_over_d, 1.0 + w0_const(desk)
        closed = (
            lambda w: kinetic_f(w, desk),
            lambda w: lam * ((1.0 + w) ** 2 - y0) / (1.0 + w) ** 2,
            lambda w: 2.0 * bmu_d / (1.0 + w) ** 3,
            lambda w: -6.0 * bmu_d / (1.0 + w) ** 4,
        )
        for f, df in zip(closed, closed[1:]):
            fd = (f(w + h) - f(w - h)) / (2 * h)
            assert np.allclose(fd, df(w), rtol=1e-6, atol=1e-6)


class TestPotential:
    def test_values(self, desk):
        assert potential_F(0.0, desk) == 0.0
        # 12.5 - 50 (1 - ln 2), negative below the homoclinic level
        assert potential_F(1.0, desk) == pytest.approx(12.5 - 50.0 * (1.0 - math.log(2.0)), rel=1e-15)
        assert potential_F(1.0, desk) == pytest.approx(-2.8426409720027345, rel=1e-14)
        assert potential_F(1e3, desk) > 1e5  # grows without bound

    @pytest.mark.parametrize("w0", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_near_the_saddle_at_80_digits(self, w0):
        # on (0, 1.4 w0), where (lam/2) w^2 and (b mu/d)(w - log1p(w)) cancel
        # like w0, F is the gap below the saddle and keeps every digit
        # (4.3e-15 at most; the two-term form was 5e-3 off at w0 = 1e-12)
        p = ModelParams(mu=50.0, lam=50.0 / (1.0 + w0))
        w = w0_const(p) * np.concatenate([np.geomspace(1e-8, 1.0, 120), np.linspace(0.01, 1.4, 140)])
        with mpmath.workdps(80):
            lam, bmu_d = mpmath.mpf(p.lam), mpmath.mpf(p.mu)
            for x, v in zip(w.tolist(), potential_F(w, p).tolist()):
                exact = lam / 2 * mpmath.mpf(x) ** 2 - bmu_d * (x - mpmath.log1p(x))
                assert abs(mpmath.mpf(v) / exact - 1) <= 1e-14, x

    @pytest.mark.parametrize("lam", [50.0, 60.0, 0.0, -1.0])
    def test_refuses_a_plane_without_a_center(self, lam):
        # like potential_gap, F needs lam in (0, b mu/d)
        with pytest.raises(DomainError):
            potential_F(0.5, ModelParams(mu=50.0, lam=lam))

    def test_gradient_is_kinetic_f(self, desk):
        rng = np.random.default_rng(11)
        w = rng.uniform(-0.9, 8.0, size=60)
        h = 1e-6
        fd = (potential_F(w + h, desk) - potential_F(w - h, desk)) / (2 * h)
        assert np.allclose(fd, kinetic_f(w, desk), rtol=1e-6, atol=1e-6)

    def test_critical_points_are_exactly_zero_and_w0(self, desk):
        w0 = w0_const(desk)
        grid = np.linspace(-0.999, 10.0 * w0, 20001)
        f_vals = kinetic_f(grid, desk)
        signs = np.sign(f_vals)
        changes = np.nonzero(np.diff(signs[signs != 0.0]))[0]
        assert changes.size == 2  # only the saddle at 0 and the center at w0

    def test_curvature_signs(self, desk):
        # F'' = f' is lam - b mu/d < 0 at the saddle and lam w0/(1 + w0) > 0 at the center
        w0, h = w0_const(desk), 1e-6
        slope = [(kinetic_f(w + h, desk) - kinetic_f(w - h, desk)) / (2 * h) for w in (0.0, w0)]
        assert slope[0] < 0.0 < slope[1]
        exact = desk.lam * (1.0 - desk.d * desk.lam / (desk.b * desk.mu))
        assert slope[1] == pytest.approx(exact, rel=1e-9)

    def test_gap_matches_direct_difference(self, desk):
        w0 = w0_const(desk)
        for delta in (-0.9, -1e-3, 1e-4, 0.3):
            direct = float(potential_F(w0 + delta, desk) - potential_F(w0, desk))
            assert float(potential_gap(delta, desk)) == pytest.approx(direct, rel=1e-9, abs=1e-13)

    def test_gap_is_stable_near_zero(self, desk):
        # a direct difference of potentials, or of -lam delta against the
        # log, loses digits as delta shrinks; the gap form must not.  The
        # reference is the difference about the exact center b mu/(d lam) - 1
        # (w0 = 1 at the desk point), at 80 digits: 50 after the 18 that
        # cancel at |delta| = 1e-9, with a margin.
        with mpmath.workdps(80):
            lam, bmu_d = mpmath.mpf(desk.lam), mpmath.mpf(desk.bmu_over_d)
            w0 = bmu_d / lam - 1

            def F(w):
                return lam / 2 * w * w - bmu_d * (w - mpmath.log1p(w))

            for delta in (1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.3, -0.9):
                exact = F(w0 + mpmath.mpf(delta)) - F(w0)
                err = abs(mpmath.mpf(float(potential_gap(delta, desk))) / exact - 1)
                assert err <= 1e-14, delta


class TestTurningGap:
    """F(w_end) - F(w) = lam x G(x) at the distance x from a turning point."""

    @settings(max_examples=300, deadline=None)
    @given(
        log_w0=st.floats(-12.0, 100.0),
        log_ratio=st.floats(-8.0, math.log10(1.0 - 1e-6)),
        right=st.booleans(),
        near_quarter=st.booleans(),
        log_x=st.floats(-12.0, 0.0),
    )
    def test_matches_the_potential_at_60_digits(self, log_w0, log_ratio, right, near_quarter, log_x):
        # a left turning point w_- = ratio w0, or its mirror w0 + (w0 - w_-)
        # on the right; x log-uniform in (0, |Delta|], or within a factor 3.2
        # of |y| = 1/4, where the branches meet.  The potential's terms reach
        # about 1e36 times the gap here, so 160 working digits leave more than
        # 60.  The float path equals the array path bit for bit
        w0 = 10.0 ** log_w0
        w_minus = 10.0 ** log_ratio * w0
        w_end = w0 + (w0 - w_minus) if right else w_minus
        span = abs(w_end - w0)
        x = span * 10.0 ** log_x
        if near_quarter:
            x = min(span, 0.25 * (1.0 + w_end) * 10.0 ** (log_x / 12.0 + 0.5))
        gap = TurningGap.at(w0, w_end)
        value = gap.over_x(x)
        assert np.array_equal(np.array([value]).view(np.int64), gap.over_x(np.array([x])).view(np.int64))
        with mpmath.workdps(160):
            y0, we = 1 + mpmath.mpf(w0), mpmath.mpf(w_end)

            def F(w):  # lam = 1, b mu/d = 1 + w0
                return w * w / 2 - y0 * (w - mpmath.log1p(w))

            exact = (F(we) - F(we + (-x if right else x))) / x
            assert abs(mpmath.mpf(value) / exact - 1) <= 1e-14


class TestEnergy:
    """Phase-plane energy z^2/2 + F(w) at a turning point, where z = 0."""

    def test_homoclinic_level_is_zero(self, desk):
        assert potential_F(0.0, desk) == 0.0

    def test_center_sits_below(self, desk):
        assert potential_F(w0_const(desk), desk) < 0.0

    def test_direct_value(self, desk):
        assert potential_F(1.0, desk) == pytest.approx(-2.8426409720027345, rel=1e-13)


def _digits_lost(w: float) -> int:
    """Extra working digits for w - log1p(w) ~ w^2/2: the subtraction cancels
    about log10(1/|w|) digits, and twice that leaves a margin."""
    return 2 * max(0, -math.floor(math.log10(abs(w)))) if w else 0


def _w_minus_log1p_ref(w: float):
    """w - log1p(w) to 50 significant digits."""
    with mpmath.workdps(50 + _digits_lost(w)):
        W = mpmath.mpf(w)
        return +(W - mpmath.log1p(W))


def _small_w():
    # w^2/2 leaves the normal range near |w| = 2e-154, where an ulp stops
    # being a relative measure, so the draws stop at 1e-150
    uniform = st.floats(-0.25, 0.25).filter(lambda w: w == 0.0 or abs(w) >= 1e-150)
    tiny = st.builds(
        lambda e, sign: sign * 10.0 ** e,
        st.floats(-150.0, math.log10(0.25)),
        st.sampled_from((-1.0, 1.0)),
    )
    return st.one_of(uniform, tiny)


class TestPotentialKernel:
    """potential_F read through TurningGap.over_x's two branches."""

    @settings(max_examples=300, deadline=None)
    @given(w=_small_w())
    def test_matches_50_digit_reference(self, w):
        p = ModelParams()
        g = _w_minus_log1p_ref(w)
        with mpmath.workdps(60 + _digits_lost(w)):
            exact = mpmath.mpf(p.lam) / 2 * mpmath.mpf(w) ** 2 - mpmath.mpf(p.bmu_over_d) * g
            err = abs(mpmath.mpf(float(potential_F(w, p))) - exact)
        assert err <= 4.0 * np.spacing(float(p.bmu_over_d * g))

    def test_branches_agree_across_quarter(self, desk):
        # |w| <= 1/4 takes the atanh form, |w| > 1/4 takes log1p, where F's
        # two terms cancel about 3 bits; on 200 ulp either side of each edge
        # both stay within 8 ulp of the reference (1.6 and 7.4 measured), so
        # they agree to 16 ulp
        for edge in (0.25, -0.25):
            pts = [edge]
            for toward in (0.0, 2.0 * edge):
                w = edge
                for _ in range(200):
                    w = np.nextafter(w, toward)
                    pts.append(w)
            pts = np.array(pts)
            assert np.count_nonzero(np.abs(pts) <= 0.25) == 201
            with mpmath.workdps(50):
                lam, bmu_d = mpmath.mpf(desk.lam), mpmath.mpf(desk.bmu_over_d)
                for w, v in zip(pts.tolist(), potential_F(pts, desk).tolist()):
                    ref = lam / 2 * mpmath.mpf(w) ** 2 - bmu_d * (w - mpmath.log1p(w))
                    assert abs(mpmath.mpf(v) - ref) <= 8.0 * np.spacing(abs(float(ref)))

    def test_pointwise(self, desk):
        rng = np.random.default_rng(3)
        w = np.concatenate([rng.uniform(-0.25, 0.25, 9), rng.uniform(-0.9, 6.0, 8), [0.25, -0.25, 1e-200]])
        rng.shuffle(w)
        whole = potential_F(w, desk)
        for x, v in zip(w, whole):
            assert potential_F(float(x), desk) == v
        assert np.array_equal(potential_F(w[:5], desk), whole[:5])

    @pytest.mark.parametrize("bad", [-1.0, -1.5, math.nan, math.inf, -math.inf])
    def test_domain_rejects(self, desk, bad):
        with pytest.raises(DomainError):
            potential_F(bad, desk)
        with pytest.raises(DomainError):
            kinetic_f(np.array([0.5, bad, 2.0]), desk)

    def test_empty_array_accepted(self, desk):
        assert potential_F(np.array([]), desk).shape == (0,)
        assert kinetic_f(np.empty((0, 3)), desk).shape == (0, 3)

    def test_float_path_equals_array_path_bit_for_bit(self, desk):
        # a Python float takes one branch by a plain test; on seeded points
        # across |w| = 1/4, negative w down to near -1, w near 1e-300 and large
        # w, it returns a float equal to the array's element.  Past w ~ 1e154
        # F leaves the double range, and both paths read inf
        rng = np.random.default_rng(22)
        quarter = 0.25 * (1.0 + rng.uniform(-1e-12, 1e-12, 2000))
        w = np.concatenate([
            rng.uniform(-0.3, 0.3, 4000),
            quarter,
            -quarter,
            [0.25, -0.25, 0.0],
            -1.0 + 10.0 ** rng.uniform(-15.0, 0.0, 2000),
            10.0 ** rng.uniform(-300.0, -1.0, 2000),
            -(10.0 ** rng.uniform(-300.0, -1.0, 2000)),
            [1e-300, -1e-300, 5e-324],
            10.0 ** rng.uniform(-1.0, 300.0, 2000),
        ])
        with np.errstate(over="ignore"):
            singles = [potential_F(x, desk) for x in w.tolist()]
            whole = potential_F(w, desk)
        assert all(type(v) is float for v in singles)
        assert np.array_equal(np.array(singles).view(np.int64), whole.view(np.int64))
