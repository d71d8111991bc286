import math

import numpy as np
import pytest

from htbif.errors import DomainError, NoSolutionError
from htbif.model import ModelParams
from htbif.spectral import (
    MAX_MODES,
    eigencurve_table,
    lambda_roots,
    mode_windows,
    morse_index_w0,
    mu_threshold,
    tau0,
    window_lambdas,
)


class TestTau0:
    def test_window_endpoints(self, desk):
        # both window ends sit at (ell pi)^2
        for ell in range(4):
            assert tau0(ell, 0.0, desk) == pytest.approx((ell * math.pi) ** 2, rel=1e-15)
            assert tau0(ell, desk.bmu_over_d, desk) == pytest.approx((ell * math.pi) ** 2, rel=1e-13)

    def test_direct_value(self, desk):
        assert tau0(1, 25.0, desk) == pytest.approx(12.5 - 25.0 + math.pi ** 2, rel=1e-15)

    def test_ground_mode_negative_inside_window(self, desk):
        assert tau0(0, 0.5 * desk.bmu_over_d, desk) < 0.0

    def test_identity_with_curvature(self, desk):
        # lam (1 - d lam/(b mu)) + tau0 = (ell pi)^2 up to roundoff
        for lam in np.linspace(0.5, 49.5, 23):
            for ell in range(3):
                lhs = lam * (1.0 - desk.d * lam / (desk.b * desk.mu)) + tau0(ell, lam, desk)
                assert lhs == pytest.approx((ell * math.pi) ** 2, abs=1e-12, rel=1e-13)

    def test_rejects(self, desk):
        with pytest.raises(DomainError):
            tau0(-1, 25.0, desk)
        with pytest.raises(DomainError):
            tau0(1, 25.0, ModelParams(mu=-1.0))


def test_mu_threshold_values(desk):
    assert mu_threshold(0, desk) == 0.0
    assert mu_threshold(1, desk) == pytest.approx(4.0 * math.pi ** 2, rel=1e-15)
    assert mu_threshold(2, desk) == pytest.approx(16.0 * math.pi ** 2, rel=1e-15)


class TestLambdaRoots:
    def test_double_root_at_threshold(self, desk):
        q = ModelParams(mu=mu_threshold(1, desk))
        root = lambda_roots(1, q)
        assert root.is_real
        assert root.lambda_minus == root.lambda_plus == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)

    def test_desk_values(self, desk):
        root = lambda_roots(1, desk)
        assert root.is_real
        assert root.lambda_minus == pytest.approx(13.531792644640047, rel=1e-14)
        assert root.lambda_plus == pytest.approx(36.46820735535996, rel=1e-14)

    def test_complex_below_threshold(self, desk):
        root = lambda_roots(2, desk)  # mu_2 ~ 157.9 > 50
        assert not root.is_real
        assert math.isnan(root.lambda_minus) and math.isnan(root.lambda_plus)

    def test_vieta(self):
        for mu in (45.0, 50.0, 200.0, 1e4, 1e8):
            p = ModelParams(mu=mu)
            for ell in range(1, 6):
                root = lambda_roots(ell, p)
                if not root.is_real:
                    continue
                s = root.lambda_minus + root.lambda_plus
                prod = root.lambda_minus * root.lambda_plus
                assert abs(s - p.bmu_over_d) <= 1e-12 * p.bmu_over_d
                ref = p.bmu_over_d * (ell * math.pi) ** 2
                assert abs(prod - ref) <= 1e-12 * ref

    def test_ordering_chain(self):
        p = ModelParams(mu=1.05 * mu_threshold(5, ModelParams()))
        roots = [lambda_roots(ell, p) for ell in range(1, 6)]
        minus = [r.lambda_minus for r in roots]
        plus = [r.lambda_plus for r in roots]
        mid = 0.5 * p.bmu_over_d
        chain = minus + [mid] + plus[::-1] + [p.bmu_over_d]
        assert all(a < b for a, b in zip(chain, chain[1:]))
        assert minus[0] > 0.0

    def test_derivative_signs_match_finite_differences(self, desk):
        root = lambda_roots(1, desk)
        disc = math.sqrt(1.0 - 4.0 * desk.d * math.pi ** 2 / (desk.b * desk.mu))
        h = 1e-6
        for lam, sign in ((root.lambda_minus, -1.0), (root.lambda_plus, 1.0)):
            fd = (tau0(1, lam + h, desk) - tau0(1, lam - h, desk)) / (2 * h)
            assert fd == pytest.approx(sign * disc, rel=1e-7)

    def test_monotone_in_mu(self):
        mus = np.linspace(45.0, 400.0, 24)
        minus = []
        plus = []
        for mu in mus:
            root = lambda_roots(1, ModelParams(mu=float(mu)))
            minus.append(root.lambda_minus)
            plus.append(root.lambda_plus)
        assert np.all(np.diff(minus) < 0.0)
        assert np.all(np.diff(plus) > 0.0)

    def test_large_mu_limit(self):
        for kappa in (1, 2, 3):
            mu = 1e4 * mu_threshold(kappa, ModelParams())
            root = lambda_roots(kappa, ModelParams(mu=mu))
            ref = (kappa * math.pi) ** 2
            assert abs(root.lambda_minus - ref) / ref < 0.01


class TestMorseIndex:
    def test_always_one_below_first_threshold(self):
        p = ModelParams(mu=30.0)
        for lam in np.linspace(0.5, 29.5, 19):
            assert morse_index_w0(float(lam), p) == 1

    def test_desk_values(self, desk):
        assert morse_index_w0(25.0, desk) == 2
        assert morse_index_w0(5.0, desk) == 1

    def test_window_required(self, desk):
        with pytest.raises(DomainError):
            morse_index_w0(50.0, desk)

    def test_table_staircase(self):
        p = ModelParams(mu=170.0)  # two real windows
        r1, r2 = lambda_roots(1, p), lambda_roots(2, p)
        edges = [0.0, r1.lambda_minus, r2.lambda_minus, r2.lambda_plus, r1.lambda_plus, p.bmu_over_d]
        assert all(a < b for a, b in zip(edges, edges[1:]))
        mids = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
        assert [morse_index_w0(m, p) for m in mids] == [1, 2, 3, 2, 1]
        # boundary attribution: at an exact root the zero mode is not negative
        assert morse_index_w0(r1.lambda_minus, p) == 1


def test_eigencurve_table_covers_modes(desk):
    table = eigencurve_table(desk)
    assert table[0].lambda_minus == 0.0
    assert table[0].lambda_plus == pytest.approx(desk.bmu_over_d)
    assert table[1].is_real and not table[2].is_real


class TestModeWindows:
    @pytest.mark.parametrize("mu", [170.0, 360.0])
    def test_window_lambdas_match_the_inline_sweep(self, mu):
        p = ModelParams(mu=mu)
        for root in mode_windows(p):
            lo, hi = root.lambda_minus, root.lambda_plus
            inline = [lo + (j + 1) * (hi - lo) / (61 + 1) for j in range(61)]
            assert window_lambdas(root.ell, p, 61) == inline

    def test_window_count_across_thresholds(self, desk):
        mu_1 = mu_threshold(1, desk)
        mu_2 = mu_threshold(2, desk)
        assert mode_windows(ModelParams(mu=0.5 * mu_1)) == []
        assert mode_windows(ModelParams(mu=mu_1)) == []
        above = mode_windows(ModelParams(mu=mu_2 * (1.0 + 1e-9)))
        assert [root.ell for root in above] == [1, 2]
        assert above[1].lambda_minus < above[1].lambda_plus
        assert [root.ell for root in mode_windows(ModelParams(mu=mu_2))] == [1]

    def test_window_lambdas_refuses_a_closed_window(self, desk):
        with pytest.raises(NoSolutionError, match="mode 2 has no real root window"):
            window_lambdas(2, desk, 5)
        with pytest.raises(NoSolutionError, match="mode 1 has no real root window"):
            window_lambdas(1, ModelParams(mu=mu_threshold(1, desk)), 5)

    def test_threshold_is_closed_even_when_rounding_splits_the_root(self):
        # at mu = mu_2 for these b, d the float roots differ by about 2e-6
        base = ModelParams(b=1.7, d=1.3)
        p = ModelParams(b=1.7, d=1.3, mu=mu_threshold(2, base))
        root = lambda_roots(2, p)
        assert root.is_real and root.lambda_minus < root.lambda_plus
        assert [w.ell for w in mode_windows(p)] == [1]
        with pytest.raises(NoSolutionError):
            window_lambdas(2, p, 5)

    def test_more_windows_than_the_cap_are_refused_before_the_walk(self):
        # the windows open in order of their thresholds, so mu above
        # mu_{MAX_MODES + 1} opens more than the cap; at mu = 1e300 about
        # 1.6e149 would be walked one by one
        base = ModelParams()
        cap_mu = mu_threshold(MAX_MODES + 1, base)
        assert len(mode_windows(ModelParams(mu=cap_mu))) == MAX_MODES
        for mu in (cap_mu * (1.0 + 1e-12), 1e300):
            with pytest.raises(DomainError, match=f"open mode windows at mu = .* exceed the cap of {MAX_MODES} modes"):
                mode_windows(ModelParams(mu=mu))
