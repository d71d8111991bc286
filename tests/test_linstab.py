import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from htbif import linstab
from htbif.errors import DegenerateError, DegeneracyWarning, DomainError
from htbif.linstab import (
    assert_nondegenerate,
    degeneracy_tolerance,
    eta2_closed_form,
    fit_expansion,
    morse_index_nodal,
    neumann_tridiagonal,
    nodal_potential,
    sturm_spectrum,
    y1_closed_form,
)
from htbif.model import ModelParams, Profile
from htbif.nodal import nodal_pair
from htbif.spectral import lambda_roots, mu_threshold, tau0


class TestSturmSpectrum:
    def test_flat_potential_gives_neumann_modes(self):
        spec = sturm_spectrum(Profile.constant(0.0, 2001), 4)
        for ell in range(4):
            ref = (ell * math.pi) ** 2
            if ell == 0:
                assert abs(spec.eigenvalues[0]) < 1e-8
            else:
                assert abs(spec.eigenvalues[ell] - ref) / ref < 1e-4

    def test_morse_count_with_separated_spectrum(self):
        # V = -1 shifts the flat spectrum down: exactly one negative eigenvalue
        spec = sturm_spectrum(Profile.constant(-1.0, 801), 3)
        assert spec.morse_index == 1
        spec = sturm_spectrum(Profile.constant(-11.0, 801), 3)
        assert spec.morse_index == 2  # -11 and pi^2 - 11 < 0

    def test_constant_shift_is_exact(self):
        base = sturm_spectrum(Profile.constant(0.0, 801), 4).eigenvalues
        shifted = sturm_spectrum(Profile.constant(-7.25, 801), 4).eigenvalues
        assert np.allclose(shifted, base - 7.25, rtol=0, atol=1e-9)

    def test_matches_algebraic_eigencurves_at_constant_state(self, desk):
        # potential from the constant state: full spectrum equals tau0(ell, lam)
        from htbif.model import w0_const

        v = nodal_potential(Profile.constant(w0_const(desk), 2001), desk)
        spec = sturm_spectrum(v, 4)
        for ell in range(4):
            ref = tau0(ell, desk.lam, desk)
            assert abs(spec.eigenvalues[ell] - ref) <= 1e-4 * max(1.0, abs(ref))

    def test_eigenfunction_nodal_counts(self, desk):
        lower, _ = nodal_pair(1, desk)
        diag, off = neumann_tridiagonal(nodal_potential(lower.profile, desk))
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 4))
        for ell in range(5):
            vec = vecs[:, ell]
            signs = np.sign(vec[np.abs(vec) > 1e-8 * np.max(np.abs(vec))])
            changes = int(np.count_nonzero(np.diff(signs)))
            assert changes == ell

    def test_eigenvalues_strictly_ascending(self, desk):
        lower, _ = nodal_pair(1, desk)
        spec = sturm_spectrum(nodal_potential(lower.profile, desk), 6)
        assert np.all(np.diff(spec.eigenvalues) > 0.0)

    def test_transversality_proxy_at_root(self, desk):
        # the discrete constant-state spectrum reproduces the root crossing:
        # tau_1 vanishes at lam_1^- and crosses with slope -sqrt(disc)
        from htbif.model import w0_const

        root = lambda_roots(1, desk)
        lam0 = root.lambda_minus
        disc = math.sqrt(1.0 - 4.0 * desk.d * math.pi ** 2 / (desk.b * desk.mu))

        def tau1(lam):
            q = desk.with_lam(lam)
            v = nodal_potential(Profile.constant(w0_const(q), 2001), q)
            return float(sturm_spectrum(v, 2).eigenvalues[1])

        assert abs(tau1(lam0)) < 1e-4
        h = 1e-3
        slope = (tau1(lam0 + h) - tau1(lam0 - h)) / (2.0 * h)
        assert slope == pytest.approx(-disc, abs=1e-3)

    def test_mesh_convergence_richardson(self, desk):
        eigs = []
        for n_pts in (501, 1001, 2001):
            lower, _ = nodal_pair(1, desk, n_pts)
            spec = sturm_spectrum(nodal_potential(lower.profile, desk), 3)
            eigs.append(spec.eigenvalues[:3])
        eigs = np.asarray(eigs)
        ratios = (eigs[0] - eigs[1]) / (eigs[1] - eigs[2])
        assert np.all((ratios > 3.5) & (ratios < 4.5))

    def test_rejects_bad_m(self, desk):
        with pytest.raises(DomainError):
            sturm_spectrum(Profile.constant(0.0, 101), 0)


def _whole_corrected_spectrum(V: Profile) -> np.ndarray:
    """Oracle: every eigenvalue of the library's operator from one LAPACK
    call, each with its V = 0 exact-minus-discrete gap added."""
    raw = eigvalsh_tridiagonal(*neumann_tridiagonal(V))
    k_pi = math.pi * np.arange(raw.size)
    return raw + k_pi ** 2 - (2.0 / V.h * np.sin(0.5 * V.h * k_pi)) ** 2


class TestSpectrumOracle:
    """sturm_spectrum and assert_nondegenerate against the whole corrected
    spectrum on smooth random profiles.  lam is chosen so that tau_k sits a
    few degeneracy tolerances from zero, which puts the degeneracy test on
    both sides and the Morse count on both of sturm_spectrum's paths."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_points=st.sampled_from([101, 401]),
        level=st.floats(0.2, 5.0),
        modes=st.lists(st.floats(-0.18, 0.18), min_size=5, max_size=5),
        mu=st.floats(20.0, 400.0),
        k=st.integers(0, 5),
        offset=st.floats(-3.0, 3.0),
        m=st.integers(1, 8),
    )
    # tau_0 = +tol/2: degenerate though its raw value, uncorrected at k = 0, is positive
    @example(n_points=101, level=1.0, modes=[0.1, 0.0, 0.0, 0.0, 0.0], mu=100.0, k=0, offset=0.5, m=1)
    # tau_3 = -2 tol: Morse index 4, counted past the m = 2 returned values
    @example(n_points=401, level=1.0, modes=[0.1, 0.0, 0.0, 0.0, 0.0], mu=100.0, k=3, offset=-2.0, m=2)
    def test_matches_whole_spectrum(self, n_points, level, modes, mu, k, offset, m):
        x = np.linspace(0.0, 1.0, n_points)
        w = Profile(level * (1.0 + sum(a * np.cos(j * math.pi * x) for j, a in enumerate(modes, 1))))
        tau_k = _whole_corrected_spectrum(nodal_potential(w, ModelParams(mu=mu, lam=0.0)))[k]
        q = ModelParams(mu=mu, lam=tau_k - offset * degeneracy_tolerance(tau_k))
        V = nodal_potential(w, q)
        oracle = _whole_corrected_spectrum(V)
        tol = degeneracy_tolerance(q.lam)
        assume(np.all(np.abs(oracle) > 1e-6) and np.all(np.abs(np.abs(oracle) - tol) > 1e-6))

        assert np.all(np.diff(oracle) > 0.0)
        spec = sturm_spectrum(V, m)
        assert np.all(np.diff(spec.eigenvalues) > 0.0)
        assert spec.morse_index == np.count_nonzero(oracle < 0.0)
        np.testing.assert_allclose(spec.eigenvalues, oracle[:m], rtol=0.0, atol=1e-7)
        if np.any(np.abs(oracle) < tol):
            with pytest.raises(DegenerateError):
                assert_nondegenerate(w, q)
        else:
            assert_nondegenerate(w, q)


def _full_call(V: Profile, **select) -> np.ndarray:
    """Oracle: the library's corrected values from one LAPACK call on the
    whole tridiagonal, with its correction formula and rounding order."""
    vals = eigvalsh_tridiagonal(*neumann_tridiagonal(V), **select)
    k_pi = math.pi * np.arange(vals.size)
    return vals + (k_pi ** 2 - 4.0 * (V.n_points - 1.0) ** 2 * np.sin(0.5 * V.h * k_pi) ** 2)


def _ulp_norm(V: Profile) -> float:
    """ulp of ||T||, the largest absolute row sum of the whole tridiagonal."""
    diag, off = neumann_tridiagonal(V)
    rows = np.abs(diag) + np.append(np.abs(off), 0.0) + np.insert(np.abs(off), 0, 0.0)
    return float(np.spacing(rows.max()))


@pytest.fixture(scope="module")
def palindromes():
    """Both members' potentials at n = 2 (mu = 170, 360) and n = 4 (mu = 640),
    each a palindrome on 2001 points, by (mu, branch)."""
    out = {}
    for mu, lam, n in ((170.0, 85.0, 2), (360.0, 180.0, 2), (640.0, 300.0, 4)):
        p = ModelParams(mu=mu, lam=lam)
        for sol in nodal_pair(n, p):
            out[mu, sol.branch] = (nodal_potential(sol.profile, p), n, degeneracy_tolerance(lam))
    return out


@pytest.fixture(scope="module")
def non_palindromes():
    """Potentials that do not read the same reversed: both members at n = 1
    and n = 3, and a constant one with one end node a single ulp off."""
    out = []
    for mu, lam, n in ((170.0, 85.0, 1), (360.0, 180.0, 3)):
        p = ModelParams(mu=mu, lam=lam)
        out += [nodal_potential(sol.profile, p) for sol in nodal_pair(n, p)]
    flat = np.full(2001, -30.0)
    flat[0] = np.nextafter(flat[0], 0.0)
    return out + [Profile(flat)]


@pytest.fixture
def solver_calls(monkeypatch):
    """(size, values) of every eigvalsh_tridiagonal call linstab makes."""
    calls = []

    def spy(diag, off, **select):
        vals = eigvalsh_tridiagonal(diag, off, **select)
        calls.append((diag.size, vals))
        return vals

    monkeypatch.setattr(linstab, "eigvalsh_tridiagonal", spy)
    return calls


class TestPalindromeSplit:
    """A palindromic potential is solved as an even block of c + 1 and an
    odd block of c nodes (N = 2c + 1); any other takes one full call."""

    def test_block_sizes(self, palindromes, non_palindromes, solver_calls):
        V, n, _ = palindromes[360.0, "lower"]
        sturm_spectrum(V, n + 2)
        assert [size for size, _ in solver_calls] == [1001, 1000]
        for V in non_palindromes:
            solver_calls.clear()
            sturm_spectrum(V, 4)
            assert [size for size, _ in solver_calls] == [2001]

    @pytest.mark.parametrize("key", [(mu, b) for mu in (170.0, 360.0, 640.0) for b in ("lower", "upper")])
    def test_matches_one_full_call(self, palindromes, key):
        # by index and by value, bisection on the blocks and on T agree to
        # ulp ||T||; the whole spectrum (MRRR), which sturm_spectrum takes
        # for m <= n, scatters by up to 3.1 ulp ||T|| around bisection on T
        # and on the blocks alike
        V, n, tol = palindromes[key]
        ulp = _ulp_norm(V)
        full_whole = _full_call(V)
        assert np.count_nonzero(full_whole < 0.0) == n
        for m in range(1, 2 * n + 3):
            spec = sturm_spectrum(V, m)
            full = _full_call(V, select="i", select_range=(0, m - 1))
            bound = ulp if m > n else 4.0 * ulp
            np.testing.assert_allclose(spec.eigenvalues, full, rtol=0.0, atol=bound)
            assert spec.morse_index == n
        by_value = linstab._corrected_eigenvalues(V, select="v", select_range=(-np.inf, tol))
        full = _full_call(V, select="v", select_range=(-np.inf, tol))
        assert by_value.size == full.size == n
        np.testing.assert_allclose(by_value, full, rtol=0.0, atol=ulp)
        whole = linstab._corrected_eigenvalues(V)
        bisection = _full_call(V, select="i", select_range=(0, 39))
        np.testing.assert_allclose(whole[:40], bisection, rtol=0.0, atol=4.0 * ulp)
        np.testing.assert_allclose(full_whole[:40], bisection, rtol=0.0, atol=4.0 * ulp)
        assert whole.size == V.n_points
        assert np.count_nonzero(whole < 0.0) == n

    @pytest.mark.parametrize("select", [{"select": "i", "select_range": (0, 5)}, {}])
    def test_merged_values_alternate_between_blocks(self, palindromes, solver_calls, select):
        # the odd block is the even block's leading principal submatrix, so
        # the values interlace strictly: even, odd, even, ...
        for V, _, _ in palindromes.values():
            solver_calls.clear()
            vals = linstab._corrected_eigenvalues(V, **select)
            (even_size, even), (odd_size, odd) = solver_calls
            assert (even_size, odd_size) == (1001, 1000)
            merged = np.sort(np.concatenate([even, odd]))
            assert np.array_equal(merged[0::2], even) and np.array_equal(merged[1::2], odd)
            assert np.all(np.diff(vals) > 0.0)

    def test_one_value_takes_no_odd_block(self, solver_calls):
        V = Profile.constant(5.0, 2001)
        spec = sturm_spectrum(V, 1)
        assert [size for size, _ in solver_calls] == [1001]
        assert spec.morse_index == 0
        assert spec.eigenvalues[0] == pytest.approx(5.0, rel=0.0, abs=_ulp_norm(V))

    def test_other_potentials_are_bit_identical_to_one_full_call(self, non_palindromes):
        for V in non_palindromes:
            for select in ({"select": "i", "select_range": (0, 4)},
                           {"select": "v", "select_range": (-np.inf, 1e-3)}, {}):
                assert np.array_equal(linstab._corrected_eigenvalues(V, **select), _full_call(V, **select))


class TestMorseIndexNodal:
    def test_near_window_ends_equals_mode(self, desk):
        root = lambda_roots(1, desk)
        q = desk.with_lam(root.lambda_minus + 0.01)
        lower, upper = nodal_pair(1, q)
        assert morse_index_nodal(lower, q) == 1
        assert morse_index_nodal(upper, q) == 1

    def test_mode_three_next_to_window_end(self):
        # 7.0e-6 above lam_3^-: the 3-point operator's (3 pi)^4 h^2/12 bias
        # (1.6e-4) exceeds the true near-zero eigenvalue of about +1.6e-6
        p = ModelParams(mu=360.0, lam=159.445646369774)
        for sol in nodal_pair(3, p):
            spec = sturm_spectrum(nodal_potential(sol.profile, p), 5)
            assert spec.morse_index == 3
            assert 1.55e-6 <= spec.eigenvalues[3] <= 1.65e-6

    @pytest.mark.parametrize("mu, kappa", [(800.0, 4), (1200.0, 5), (1700.0, 6)])
    def test_top_mode_next_to_window_end(self, mu, kappa):
        # the raw Sturm count reads kappa + 1 here
        p = ModelParams(mu=mu)
        root = lambda_roots(kappa, p)
        q = p.with_lam(root.lambda_minus + 1e-6 * (root.lambda_plus - root.lambda_minus))
        for sol in nodal_pair(kappa, q):
            assert morse_index_nodal(sol, q) == kappa

    def test_one_below_constant_index(self, desk):
        from htbif.spectral import morse_index_w0

        lower, _ = nodal_pair(1, desk)
        assert morse_index_nodal(lower, desk) == morse_index_w0(desk.lam, desk) - 1 == 1

    def test_sign_sandwich_interior_sample(self, desk):
        root = lambda_roots(1, desk)
        for frac in (0.2, 0.5, 0.8):
            lam = root.lambda_minus + frac * (root.lambda_plus - root.lambda_minus)
            q = desk.with_lam(lam)
            lower, _ = nodal_pair(1, q)
            spec = sturm_spectrum(nodal_potential(lower.profile, q), 2)
            assert spec.eigenvalues[0] <= 1e-6
            assert spec.eigenvalues[1] >= -1e-6


class TestY1ClosedForm:
    def test_orthogonal_to_kernel_mode(self, desk):
        y1 = y1_closed_form(1, "minus", desk, 2001)
        x = y1.x
        val = float(simpson(np.cos(math.pi * x) * y1.values, x=x))
        assert abs(val) < 1e-10

    def test_mean_value(self, desk):
        lam = lambda_roots(1, desk).lambda_minus
        y1 = y1_closed_form(1, "minus", desk, 2001)
        mean = float(simpson(y1.values, x=y1.x))
        ref = -0.5 * lam * (desk.d * lam / (math.pi * desk.b * desk.mu)) ** 2
        assert mean == pytest.approx(ref, rel=1e-10)

    def test_weighted_integral(self, desk):
        lam = lambda_roots(1, desk).lambda_plus
        y1 = y1_closed_form(1, "plus", desk, 2001)
        x = y1.x
        val = float(simpson(np.cos(math.pi * x) ** 2 * y1.values, x=x))
        ref = -(5.0 * lam / 24.0) * (desk.d * lam / (math.pi * desk.b * desk.mu)) ** 2
        assert val == pytest.approx(ref, rel=1e-10)

    def test_solves_its_equation(self, desk):
        # [-D^2 - (n pi)^2] y1 = lam (d lam/(b mu))^2 cos^2(n pi x)
        lam = lambda_roots(1, desk).lambda_minus
        y1 = y1_closed_form(1, "minus", desk, 2001)
        vals = y1.values
        h = y1.h
        ext = np.concatenate(([vals[2], vals[1]], vals, [vals[-2], vals[-3]]))
        d1 = (ext[1:-3] - ext[2:-2]) + (ext[3:-1] - ext[2:-2])
        d2 = (ext[:-4] - ext[2:-2]) + (ext[4:] - ext[2:-2])
        second = (16.0 * d1 - d2) / (12.0 * h * h)
        x = y1.x
        rhs = lam * (desk.d * lam / (desk.b * desk.mu)) ** 2 * np.cos(math.pi * x) ** 2
        residual = -second - math.pi ** 2 * vals - rhs
        assert float(np.max(np.abs(residual))) < 1e-6

    def test_requires_real_window(self, desk):
        with pytest.raises(DomainError):
            y1_closed_form(2, "minus", desk)


class TestEta2ClosedForm:
    def test_sign_pattern(self, desk):
        assert eta2_closed_form(1, "minus", desk) > 0.0 > eta2_closed_form(1, "plus", desk)

    def test_frozen_values(self, desk):
        assert eta2_closed_form(1, "minus", desk) == pytest.approx(0.6193550186825095, rel=1e-12)
        assert eta2_closed_form(1, "plus", desk) == pytest.approx(-92.40809200797567, rel=1e-12)

    def test_blows_up_toward_threshold(self):
        mu1 = mu_threshold(1, ModelParams())
        values = [abs(eta2_closed_form(1, "minus", ModelParams(mu=mu1 * (1.0 + s))))
                  for s in (0.3, 0.1, 0.03, 0.01)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_degenerate_at_threshold(self):
        mu1 = mu_threshold(1, ModelParams())
        with pytest.raises(DegenerateError):
            eta2_closed_form(1, "minus", ModelParams(mu=mu1))


class TestFitExpansion:
    @pytest.mark.parametrize("side, sign", [("minus", 1.0), ("plus", -1.0)])
    def test_recovers_closed_forms(self, desk, side, sign):
        check = fit_expansion(1, side, desk)
        assert abs(check.eta1_estimate) < 1e-3 * abs(check.eta2_estimate) * 0.05
        assert math.copysign(1.0, check.eta2_estimate) == sign
        assert math.copysign(1.0, check.eta2_closed_form) == sign
        assert check.eta2_estimate == pytest.approx(check.eta2_closed_form, rel=0.05)
        assert check.y1_l2_error < 0.05


def test_fit_expansion_insufficient_data():
    # barely above the threshold the window is too narrow for the ladder
    from htbif.errors import InsufficientDataError

    p = ModelParams(mu=mu_threshold(1, ModelParams()) * (1.0 + 1e-7))
    with pytest.raises(InsufficientDataError):
        fit_expansion(1, "minus", p, n_points=501)


@pytest.mark.parametrize("mu, side, eta2", [(1e300, "plus", "-inf"), (1e150, "minus", "0"), (1e120, "minus", "0")])
def test_fit_expansion_refuses_a_ladder_that_cannot_move_lam(mu, side, eta2, monkeypatch):
    # eta2 overflows on the plus side and underflows on the minus side, so the
    # ladder lam_side + eta2 s^2 is infinite or stays at lam_side; the refusal
    # names eta2 and mu before any pair is solved
    def no_pairs(*args):
        raise AssertionError("nodal_pair called")

    monkeypatch.setattr(linstab, "nodal_pair", no_pairs)
    with pytest.raises(DomainError, match="^" + re.escape(f"eta2 = {eta2} at mu = {mu:g}: the ladder offsets")):
        fit_expansion(1, side, ModelParams(mu=mu))


def test_degeneracy_warning_fires():
    # tau_{1,1} crosses zero with the branch amplitude, so a solution taken
    # extremely close to the window end sits within the degeneracy tolerance
    desk = ModelParams()
    root = lambda_roots(1, desk)
    q = desk.with_lam(root.lambda_minus + 2e-7)
    lower, _ = nodal_pair(1, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)
        with pytest.raises(DegeneracyWarning):
            morse_index_nodal(lower, q)
