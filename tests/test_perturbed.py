import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from htbif import nodal, perturbed
from htbif.errors import (
    DegenerateError,
    DomainError,
    GridMismatchError,
    PositivityError,
)
from htbif.linstab import neumann_tridiagonal, nodal_potential
from htbif.model import CoeffFn, ModelParams, Profile, w0_const
from htbif.nodal import crossing_count, nodal_pair
from htbif.perturbed import (
    CoexistenceState,
    ContinuationResult,
    _factor,
    _solve,
    census,
    continue_in_eps,
    first_order_corrections,
    jacobian_banded,
    newton_solve,
    residual,
    residual_fine,
)
from htbif.spectral import lambda_roots, mode_windows

POLISH_TOL = 1e-12  # residual of the polished constant states


def constant_states(p: ModelParams) -> list[tuple[float, float]]:
    """All spatially constant coexistence pairs for constant coefficients:
    the independent algebraic oracle for first_order_corrections.

    Eliminating v reduces the algebraic system to a cubic in w (quadratic at
    eps = 0); real positive roots are polished in the original 2x2 system
    and verified to residual 1e-12.
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
            if max(abs(r1), abs(r2)) < POLISH_TOL:
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
        if max(abs(r1), abs(r2)) >= POLISH_TOL or w <= 0.0 or v <= 0.0:
            continue
        if any(abs(w - wo) <= 1e-9 * (1.0 + abs(w)) for wo, _ in out):
            continue
        out.append((w, v))
    out.sort()
    return out


@pytest.fixture
def flat_v(desk):
    return Profile.constant(desk.mu / desk.d, 2001)


@pytest.fixture
def factors(monkeypatch):
    """Counts the LAPACK dgbtrf calls (banded LU factorizations) in ``count``
    and records the unknowns of each factored band in ``sizes``."""
    spy = type("FactorSpy", (), {"count": 0})()
    spy.sizes = []
    gbtrf = perturbed._GBTRF

    def counted(*args, **kwargs):
        spy.count += 1
        spy.sizes.append(args[0].shape[1])
        return gbtrf(*args, **kwargs)

    monkeypatch.setattr(perturbed, "_GBTRF", counted)
    return spy


@pytest.fixture
def solves(monkeypatch):
    """Counts the LAPACK dgbtrs calls (solves against a banded LU) in ``count``."""
    spy = type("SolveSpy", (), {"count": 0})()
    gbtrs = perturbed._GBTRS

    def counted(*args, **kwargs):
        spy.count += 1
        return gbtrs(*args, **kwargs)

    monkeypatch.setattr(perturbed, "_GBTRS", counted)
    return spy


class TestResidual:
    def test_constant_state_is_exact_zero(self, desk, flat_v):
        g1, g2 = residual(Profile.constant(w0_const(desk), 2001), flat_v, desk)
        assert float(np.max(np.abs(g1.values))) < 1e-10
        assert float(np.max(np.abs(g2.values))) < 1e-10

    def test_nodal_seed_truncation_refines_at_second_order(self, desk):
        sups = []
        for n_pts in (1001, 2001, 4001):
            lower, _ = nodal_pair(1, desk, n_pts)
            g1, _ = residual(lower.profile, Profile.constant(50.0, n_pts), desk)
            sups.append(float(np.max(np.abs(g1.values))))
        assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.2)
        assert sups[1] / sups[2] == pytest.approx(4.0, rel=0.2)

    def test_nodal_seed_residual_on_fine_grid(self, desk):
        # consistency of the discretization: the integrated profile plugged
        # into the discrete operator leaves truncation plus the float64
        # quantization floor 2 eps |w| / h^2 (so refining beyond the optimal
        # grid makes the sup grow again; 4001 points stays truncation-bound)
        lower, _ = nodal_pair(1, desk, 4001)
        g1, _ = residual(lower.profile, Profile.constant(50.0, 4001), desk)
        assert float(np.max(np.abs(g1.values))) < 1e-6

    def test_zero_predator_is_invariant(self, desk):
        w = Profile.constant(0.7, 501)
        v = Profile.constant(0.0, 501)
        _, g2 = residual(w, v, desk.with_eps(1e-2))
        assert float(np.max(np.abs(g2.values))) == 0.0

    def test_grid_mismatch(self, desk):
        with pytest.raises(GridMismatchError):
            residual(Profile.constant(1.0, 501), Profile.constant(1.0, 1001), desk)


class TestNewtonSolve:
    def test_exact_constant_fixed_point(self, desk, flat_v):
        state = newton_solve(Profile.constant(w0_const(desk), 2001), flat_v, desk, origin="constant")
        assert state.newton_iters <= 1
        assert state.residual_sup < 1e-9
        assert np.allclose(state.w.values, w0_const(desk), atol=1e-12)

    def test_perturbation_distance_scales_with_eps(self, desk, flat_v):
        lower, _ = nodal_pair(1, desk)
        state = newton_solve(lower.profile, flat_v, desk.with_eps(1e-3), origin="nodal(1,lower)")
        gap = float(np.max(np.abs(state.w.values - lower.profile.values)))
        assert state.residual_sup < 1e-9
        assert 1e-5 < gap < 1e-3  # O(eps) with a moderate constant

    def test_predator_becomes_inhomogeneous_from_nodal_seed(self, desk, flat_v):
        lower, _ = nodal_pair(1, desk)
        state = newton_solve(lower.profile, flat_v, desk.with_eps(1e-3))
        assert float(np.ptp(state.v.values)) > 1e-5

    def test_constant_seed_stays_constant_at_positive_eps(self, desk, flat_v):
        # with constant coefficients the continued ground state is constant
        state = newton_solve(Profile.constant(w0_const(desk), 2001), flat_v, desk.with_eps(1e-3))
        assert float(np.ptp(state.w.values)) < 1e-12
        assert float(np.ptp(state.v.values)) < 1e-12

    def test_residual_fine_reproduces_certificate(self, desk, flat_v):
        lower, _ = nodal_pair(1, desk)
        q = desk.with_eps(1e-3)
        state = newton_solve(lower.profile, flat_v, q)
        assert residual_fine(state, q) == pytest.approx(state.residual_sup, rel=1e-6)
        assert residual_fine(state, q) < 1e-9

    def test_semitrivial_state_is_preserved(self, desk, flat_v):
        q = desk.with_eps(1e-3)
        with pytest.raises(PositivityError) as err:
            newton_solve(Profile.constant(0.0, 2001), flat_v, q)
        assert float(np.max(np.abs(err.value.w.values))) == 0.0
        assert err.value.residual_sup < 1e-9

    def test_quadratic_contraction(self, desk, flat_v, monkeypatch):
        # push the seed far enough that several iterations happen, then the
        # residual sequence must contract at least quadratically at the end;
        # newton_solve takes the sup residual of every iterate through _sup
        lower, _ = nodal_pair(1, desk)
        q = desk.with_eps(5e-2)
        history = []

        def recorded_sup(g1, g2):
            history.append(sup(g1, g2))
            return history[-1]

        sup = perturbed._sup
        monkeypatch.setattr(perturbed, "_sup", recorded_sup)
        state = newton_solve(lower.profile, flat_v, q)
        assert state.residual_sup < 1e-9
        assert state.newton_iters >= 3
        assert len(history) == state.newton_iters + 1
        tail = [r for r in history if r > 1e-13]
        for prev, nxt in zip(tail[-3:], tail[-2:]):
            # quadratic decay until the banded-solve floor below tolerance
            assert nxt <= max(10.0 * prev * prev, 1e-10)

    def test_every_limit_seed_converges_past_the_predator_cancellation(self):
        # at mu = 3000 the predator's -mu v and d v^2 are each about 9e6 at
        # the limit v = mu/d and cancel to a rounding error of about 2e-9;
        # formed as d v ((v_b - mu/d) + v_f), every one of the 17 limit seeds
        # reaches the 1e-9 certificate (7.9e-10 at worst measured; with the
        # two terms apart, 16 of them stopped at 2.2e-9 to 4.3e-9)
        p = ModelParams(mu=3000.0, lam=1500.0)
        seeds = nodal.limit_seeds(nodal.max_crossing_number(p), p, 8001)
        v_flat = Profile.constant(p.mu / p.d, 8001)
        q = p.with_eps(1e-3)
        assert len(seeds) == 17
        for origin, seed in seeds:
            state = newton_solve(seed, v_flat, q, origin=origin)
            assert state.residual_sup < 1e-9
            assert residual_fine(state, q) < 1e-9

    @pytest.mark.parametrize("j", [1, 2])
    def test_low_mode_seeds_converge_far_past_the_predator_cancellation(self, j):
        # at (8000, 4000) on 4001 points both members of the j <= 2 pairs
        # reach a residual below 1e-10 (2.7e-12 to 7.4e-11 measured, in two
        # iterations)
        p = ModelParams(mu=8000.0, lam=4000.0)
        q = p.with_eps(1e-4)
        v_flat = Profile.constant(p.mu / p.d, 4001)
        for member in nodal_pair(j, p, 4001):
            state = newton_solve(member.profile, v_flat, q, origin=member.branch)
            assert state.residual_sup < 1e-10
            assert residual_fine(state, q) < 1e-10

    # a pair carried as base + fine enters Newton through a ladder's start state

    def test_domain_check_reads_the_two_part_iterate(self, desk, flat_v):
        # base 0.5 alone is inside w > -1; base + fine = -1.5 is not
        start = _start_state(desk, flat_v, w_fine=np.full(2001, -2.0))
        with pytest.raises(DomainError, match="w > -1"):
            continue_in_eps(start, desk, 1e-3)

    @pytest.mark.parametrize("field", ["w_fine", "v_fine"])
    def test_fine_part_off_the_grid_is_a_grid_mismatch(self, desk, flat_v, field):
        with pytest.raises(GridMismatchError, match=f"{field}.*2001 points"):
            continue_in_eps(_start_state(desk, flat_v, **{field: np.zeros(501)}), desk, 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["w_fine", "v_fine"])
    def test_non_finite_fine_part_is_a_domain_error(self, desk, flat_v, field, bad):
        fine = np.zeros(2001)
        fine[17] = bad
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            continue_in_eps(_start_state(desk, flat_v, **{field: fine}), desk, 1e-3)


def _start_state(p, v, w_fine=None, v_fine=None):
    """A ladder start at eps = p.eps on w = 0.5 with the given fine parts
    (zero when not given); nothing about it is checked on construction."""
    zero = np.zeros(v.n_points)
    return CoexistenceState(
        Profile.constant(0.5, v.n_points), v, p.lam, p.mu, p.eps, 0.0, 0, "constant",
        zero if w_fine is None else w_fine, zero if v_fine is None else v_fine,
    )


def _random_jacobian(n_points: int, rng) -> np.ndarray:
    # the random states of acceptance criterion 14
    p = ModelParams(eps=1e-3)
    x = np.linspace(0.0, 1.0, n_points)
    w = 0.8 + 0.5 * np.sin(2.0 * math.pi * rng.uniform() * x + rng.uniform()) + 0.1 * rng.standard_normal(n_points)
    v = 50.0 + 2.0 * np.cos(2.0 * math.pi * rng.uniform() * x) + 0.1 * rng.standard_normal(n_points)
    return jacobian_banded(w, v, p, p.coeff_a(x), p.coeff_c(x), (n_points - 1.0) ** 2)


class TestBandedStep:
    @pytest.mark.parametrize("n_points", [501, 2001])
    def test_bit_identical_to_solve_banded(self, n_points):
        rng = np.random.default_rng(n_points)
        for _ in range(5):
            ab = _random_jacobian(n_points, rng)
            rhs = rng.standard_normal(2 * n_points)
            ab_in, rhs_in = ab.copy(), rhs.copy()
            step = _solve(_factor(ab), rhs)
            assert np.array_equal(step, solve_banded((2, 2), ab[2:], rhs))
            assert np.array_equal(ab, ab_in) and np.array_equal(rhs, rhs_in)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["ab", "rhs"])
    def test_rejects_non_finite_input(self, bad, where):
        rng = np.random.default_rng(0)
        ab = _random_jacobian(501, rng)
        rhs = rng.standard_normal(1002)
        (ab[2] if where == "ab" else rhs)[17] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve(_factor(ab), rhs)

    def test_singular_band_raises(self):
        ab = _random_jacobian(501, np.random.default_rng(0))
        ab[:, 40] = 0.0  # column 40 of the matrix is zero
        with pytest.raises(LinAlgError, match="singular"):
            _solve(_factor(ab), np.ones(1002))


class TestFirstOrderCorrections:
    def test_predator_correction_positive(self, desk):
        lower, _ = nodal_pair(1, desk)
        phi, psi = first_order_corrections(lower.profile, desk)
        assert float(np.min(psi.values)) > 0.0
        assert phi.n_points == 2001

    def test_zero_conversion_kills_psi(self, desk):
        p = ModelParams(coeff_c=CoeffFn.constant(0.0))
        lower, _ = nodal_pair(1, p)
        phi, psi = first_order_corrections(lower.profile, p)
        assert float(np.max(np.abs(psi.values))) == 0.0
        assert float(np.max(np.abs(phi.values))) > 0.0

    def test_refuses_near_degenerate_point(self, desk):
        root = lambda_roots(1, desk)
        q = desk.with_lam(root.lambda_minus + 2e-7)
        lower, _ = nodal_pair(1, q)
        with pytest.raises(DegenerateError):
            first_order_corrections(lower.profile, q)

    def test_constant_state_corrections_match_algebraic_path(self, desk):
        # dual route: at the constant state the corrections have closed forms
        # psi = c w0/(d (1+w0)) and phi from the 2x2 algebraic system, whose
        # eps-derivative constant_states exposes by finite differences
        w0 = w0_const(desk)
        phi, psi = first_order_corrections(Profile.constant(w0, 2001), desk)
        psi_exact = w0 / (desk.d * (1.0 + w0))
        assert np.allclose(psi.values, psi_exact, atol=1e-10)
        eps = 1e-7
        (w_eps, v_eps), = [s for s in constant_states(desk.with_eps(eps)) if abs(s[0] - w0) < 0.1]
        assert np.allclose(phi.values, (w_eps - w0) / eps, atol=1e-5)
        assert np.allclose(psi.values, (v_eps - desk.mu / desk.d) / eps, atol=1e-5)

    def test_rejects_a_non_profile(self, desk, flat_v):
        lower, _ = nodal_pair(1, desk)
        state = newton_solve(lower.profile, flat_v, desk)
        for not_a_profile in (lower, state, lower.profile.values):
            with pytest.raises(DomainError, match="Profile"):
                first_order_corrections(not_a_profile, desk)

    @pytest.mark.parametrize("where", ["desk", "sampled", "mu170"])
    def test_matches_the_tridiagonal_oracle(self, where):
        # the corrections' former route: each block solved on its own through
        # the symmetrized Neumann tridiagonal, ends scaled by 1/sqrt 2 going
        # in and by sqrt 2 coming out
        x = np.linspace(0.0, 1.0, 33)
        p = {
            "desk": ModelParams(),
            "sampled": ModelParams(
                coeff_a=CoeffFn.sampled(x, 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
                coeff_c=CoeffFn.sampled(x, 1.0 + 0.5 * np.cos(3.0 * np.pi * x)),
            ),
            "mu170": ModelParams(mu=170.0, lam=60.0),
        }[where]

        def solve_neumann(V, rhs):
            diag, off = neumann_tridiagonal(V)
            ab = np.zeros((3, diag.size))
            ab[0, 1:] = off
            ab[1, :] = diag
            ab[2, :-1] = off
            scaled = np.array(rhs, dtype=float)
            scaled[[0, -1]] /= math.sqrt(2.0)
            out = solve_banded((1, 1), ab, scaled)
            out[[0, -1]] *= math.sqrt(2.0)
            return out

        grid = np.linspace(0.0, 1.0, 2001)
        for sol in nodal_pair(1, p):
            w = sol.profile
            ratio = w.values / (1.0 + w.values)
            psi = solve_neumann(Profile.constant(p.mu, 2001), (p.mu / p.d) * p.coeff_c(grid) * ratio)
            phi = solve_neumann(nodal_potential(w, p), -p.coeff_a(grid) * w.values ** 2 - p.b * ratio * psi)
            got_phi, got_psi = first_order_corrections(w, p)
            for got, ref in ((got_phi, phi), (got_psi, psi)):
                assert np.max(np.abs(got.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_richardson_first_order(self, desk, flat_v):
        lower, _ = nodal_pair(1, desk)
        base = newton_solve(lower.profile, flat_v, desk, origin="nodal(1,lower)")
        phi, _ = first_order_corrections(base.w, desk)
        gaps = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            st = newton_solve(base.w, flat_v, desk.with_eps(eps))
            gaps.append(float(np.max(np.abs((st.w.values - base.w.values) / eps - phi.values))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)


class TestCensus:
    def test_unperturbed_census_matches_seeds(self, desk):
        result = census(1, desk)
        assert result.distinct_count == 3
        assert not result.shortfall
        assert {s.origin for s in result.states} == {"constant", "nodal(1,lower)", "nodal(1,upper)"}
        assert all(s.newton_iters <= 1 for s in result.states)

    def test_perturbed_census(self, desk):
        q = desk.with_eps(1e-3)
        result = census(1, q)
        assert result.distinct_count == 3 and not result.shortfall
        w0 = w0_const(desk)
        expected = {"constant": 0, "nodal(1,lower)": 1, "nodal(1,upper)": 1}
        for s in result.states:
            assert s.residual_sup < 1e-9
            assert float(np.min(s.w.values)) > 0.0 and float(np.min(s.v.values)) > 0.0
            assert crossing_count(s.w.values, w0) == expected[s.origin]

    def test_rejects_mode_above_kappa(self, desk):
        with pytest.raises(DomainError):
            census(2, desk)

    def test_rejects_lambda_outside_window(self, desk):
        with pytest.raises(DomainError):
            census(1, desk.with_lam(5.0))

    def test_rejects_lambda_in_next_window(self):
        p = ModelParams(mu=170.0, lam=85.0)  # inside both windows
        with pytest.raises(DomainError, match="mode-2"):
            census(1, p)

    def test_census_in_two_mode_regime(self):
        p = ModelParams(mu=170.0, lam=30.0)  # inside window 1, outside window 2
        result = census(1, p)
        assert result.distinct_count == 3

    def test_full_census_at_kappa_two(self):
        # lam inside the mode-2 window is admissible for the n = 2 census
        p = ModelParams(mu=170.0, lam=85.0, eps=1e-4)
        result = census(2, p, n_points=1001)
        assert result.distinct_count == 5
        assert not result.shortfall

    def test_seeds_come_from_the_one_limit_state_builder(self, monkeypatch):
        # census builds its seeds with nodal.limit_seeds, one nodal_pair per
        # crossing count, in the order and with the labels enumerate_solutions gives
        assert perturbed.limit_seeds is nodal.limit_seeds
        calls = []
        real = nodal.nodal_pair

        def spy(n, p, n_points):
            calls.append(n)
            return real(n, p, n_points)

        monkeypatch.setattr(nodal, "nodal_pair", spy)
        p = ModelParams(mu=170.0, lam=85.0, eps=1e-3)
        result = census(2, p)
        assert calls == [1, 2]
        assert [s.origin for s in result.states] == [origin for origin, _ in nodal.enumerate_solutions(p)]

    @pytest.mark.parametrize("n_points", [2001, 4001])
    @pytest.mark.parametrize("mu, lam, kappa", [(700.0, 350.0, 4), (800.0, 400.0, 4), (1200.0, 840.2, 5)])
    def test_many_states_regime(self, mu, lam, kappa, n_points):
        # the 2 kappa + 1 states of the paper's many-states regime, certified
        # on the default grid as on 4001 points
        p = ModelParams(mu=mu, lam=lam, eps=1e-3)
        assert len(mode_windows(p)) == kappa
        result = census(kappa, p, n_points)
        assert result.distinct_count == 2 * kappa + 1 and not result.shortfall
        assert all(s.residual_sup < 1e-9 for s in result.states)

    def test_window_count_above_the_cap_is_refused(self):
        # about 1.6e149 mode windows are open at mu = 1e300; both refuse
        # before walking them
        p = ModelParams(mu=1e300, lam=25.0, eps=1e-3)
        for call in (lambda: perturbed.admissible_lambda(1, p), lambda: perturbed.census(1, p)):
            with pytest.raises(DomainError, match="exceed the cap of 100000 modes"):
                call()


class TestContinueInEps:
    def test_same_target_is_identity(self, desk, flat_v):
        state = newton_solve(Profile.constant(w0_const(desk), 2001), flat_v, desk, origin="constant")
        out = continue_in_eps(state, desk, 0.0)
        assert len(out.states) == 1 and out.states[0] is state
        assert out.breakdown is None

    def test_small_ladder_converges(self, desk, flat_v, factors):
        lower, _ = nodal_pair(1, desk)
        start = newton_solve(lower.profile, flat_v, desk, origin="nodal(1,lower)")
        before = factors.count
        out = continue_in_eps(start, desk, 1e-3, steps=4)
        assert out.breakdown is None
        assert len(out.states) == 5
        assert all(s.residual_sup < 1e-9 for s in out.states)
        assert out.last_good_eps == pytest.approx(1e-3)
        # one factorization for the whole ladder; the tangent puts the first
        # rung one chord step away, and the quadratic predictions through the
        # accepted states certify every later rung without a step
        assert factors.count - before == 1
        assert [s.newton_iters for s in out.states[1:]] == [1, 0, 0, 0]

    def test_start_solved_at_other_parameters_is_refused(self, desk, flat_v):
        # a start at lam = 25 is no node of the ladder at lam = 26: its
        # residual there is about 1.5
        start = newton_solve(Profile.constant(w0_const(desk), 2001), flat_v, desk, origin="constant")
        with pytest.raises(DomainError, match=r"lam = 25\b.*lam = 26\b"):
            continue_in_eps(start, desk.with_lam(26.0), 1e-3)
        other_mu = ModelParams(lam=desk.lam, mu=60.0)
        with pytest.raises(DomainError, match=r"mu = 50\b.*mu = 60\b"):
            continue_in_eps(start, other_mu, 1e-3)

    def test_work_per_ladder(self, factors, solves):
        # one operation shaped like an eps_continuation benchmark one: a
        # census state with sampled a(x), c(x) solved cold at eps = 5e-4,
        # then 8 rungs to 1e-2.  The ladder holds the LU the cold solve
        # formed at its second step and factors nothing; one solve gives the
        # tangent, and each chord step is one more
        x = np.linspace(0.0, 1.0, 33)
        p = ModelParams(
            eps=5e-4,
            coeff_a=CoeffFn.sampled(x, 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
            coeff_c=CoeffFn.sampled(x, 1.0 + 0.5 * np.cos(3.0 * np.pi * x)),
        )
        start = census(1, p).states[-1]
        assert start.origin == "nodal(1,upper)"
        factors.count = solves.count = 0
        out = continue_in_eps(start, p, 1e-2, steps=8)
        assert out.breakdown is None
        assert factors.count == 0
        assert solves.count == 10
        assert [s.newton_iters for s in out.states[1:]] == [2, 1, 1, 1, 1, 1, 1, 1]

    def test_ladder_takes_over_the_cold_solves_last_factors(self, desk, flat_v, factors):
        # a 2-step cold solve kept the LU of its second step; the ladder
        # solves against it and factors nothing
        lower, _ = nodal_pair(1, desk)
        p = desk.with_eps(1e-3)
        start = newton_solve(lower.profile, flat_v, p, origin="nodal(1,lower)")
        assert start.newton_iters == 2 and start.factored[0] is p
        before = factors.count
        out = continue_in_eps(start, desk, 1e-2, steps=4)
        assert factors.count - before == 0
        assert out.breakdown is None and len(out.states) == 5
        for s in out.states[1:]:
            assert s.factored is None
            assert residual_fine(s, desk.with_eps(s.eps)) < 1e-9

    def test_one_step_solve_keeps_no_factors(self, desk, flat_v):
        # its only LU is the seed's, which may sit far from the solution
        lower, _ = nodal_pair(1, desk)
        start = newton_solve(lower.profile, flat_v, desk, origin="nodal(1,lower)")
        assert start.newton_iters == 1 and start.factored is None

    @pytest.mark.parametrize(
        "change",
        [
            {"coeff_a": CoeffFn.constant(1.0)},
            {"coeff_c": CoeffFn.constant(1.0)},
            {"b": math.nextafter(1.0, 2.0)},
            {"d": math.nextafter(1.0, 2.0)},
        ],
    )
    def test_factors_from_other_parameters_are_not_taken_over(self, desk, flat_v, factors, change):
        # the start is solved at equal lam and mu but other coefficient
        # objects (equal values) or a b or d one ulp off: the ladder factors
        # at the start instead
        lower, _ = nodal_pair(1, desk)
        solved_at = ModelParams(**{**dict(lam=desk.lam, mu=desk.mu, eps=1e-3), **change})
        start = newton_solve(lower.profile, flat_v, solved_at, origin="nodal(1,lower)")
        assert start.factored is not None
        before = factors.count
        out = continue_in_eps(start, desk, 1e-2, steps=4)
        assert factors.count - before == 1
        assert out.breakdown is None and len(out.states) == 5
        for s in out.states[1:]:
            assert residual_fine(s, desk.with_eps(s.eps)) < 1e-9

    def test_kept_factors_are_never_written(self, desk, flat_v):
        # two ladders from one start give the same bits, and the start's
        # factors are the same bits after both
        lower, _ = nodal_pair(1, desk)
        start = newton_solve(lower.profile, flat_v, desk.with_eps(1e-3), origin="nodal(1,lower)")
        lu, piv = (a.copy() for a in start.factored[1])
        first, second = (continue_in_eps(start, desk, 0.2, steps=6) for _ in range(2))
        assert first.breakdown is None and second.breakdown is None
        for a, b in zip(first.states, second.states):
            assert a.eps == b.eps and a.newton_iters == b.newton_iters
            for name in ("w_fine", "v_fine"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert np.array_equal(a.w.values, b.w.values) and np.array_equal(a.v.values, b.v.values)
        assert np.array_equal(start.factored[1][0], lu) and np.array_equal(start.factored[1][1], piv)

    def test_repr_leaves_the_factors_out(self, desk, flat_v):
        state = newton_solve(Profile.constant(0.5, 2001), flat_v, desk.with_eps(1e-3))
        assert state.factored is not None
        assert "factored" not in repr(state)

    @pytest.mark.parametrize(
        "frac, origin, last_good_eps, error",
        [
            (0.04, "nodal(1,upper)", 0.5, None),
            (0.04, "nodal(2,upper)", 0.213075, "ConvergenceError"),
            (0.048, "constant", 0.2505, "ConvergenceError"),
            (0.048, "nodal(2,lower)", 0.5, None),
            (0.985, "constant", 0.4002, "ConvergenceError"),
            (0.985, "nodal(2,upper)", 0.4002, "ConvergenceError"),
            (0.99, "nodal(1,lower)", 0.5, None),
            (0.99, "nodal(2,upper)", 0.27545, "ConvergenceError"),
        ],
    )
    def test_ladders_near_a_window_end_stop_where_secant_ones_did(self, frac, origin, last_good_eps, error):
        # lam within 5% of an end of the mode-2 window at mu = 170: 40 rungs
        # to eps = 0.5 from a cold solve at 1e-3.  The last good eps and the
        # breakdown type were frozen from a first-order (secant) predictor:
        # a better prediction must not move where a ladder stops
        x = np.linspace(0.0, 1.0, 33)
        window = mode_windows(ModelParams(mu=170.0))[1]
        p = ModelParams(
            lam=window.lambda_minus + frac * (window.lambda_plus - window.lambda_minus),
            mu=170.0,
            coeff_a=CoeffFn.sampled(x, 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
            coeff_c=CoeffFn.sampled(x, 1.0 + 0.5 * np.cos(3.0 * np.pi * x)),
        )
        seed = dict(nodal.limit_seeds(2, p, 2001))[origin]
        start = newton_solve(seed, Profile.constant(p.mu / p.d, 2001), p.with_eps(1e-3), origin=origin)
        out = continue_in_eps(start, p, 0.5, steps=40)
        assert out.last_good_eps == pytest.approx(last_good_eps, rel=1e-12)
        if error is None:
            assert out.breakdown is None
        else:
            assert f": {error}: " in out.breakdown

    def test_failed_chord_step_refactors_and_certifies(self, desk, flat_v, factors):
        # one rung from eps = 0 to 0.5: the first chord step against the start
        # state's factors does not cut the residual by CHORD_THETA, so the
        # rung re-factors once, takes the damped Newton step, and finishes
        # with chord steps against the new factors
        lower, _ = nodal_pair(1, desk)
        start = newton_solve(lower.profile, flat_v, desk, origin="nodal(1,lower)")
        before = factors.count
        out = continue_in_eps(start, desk, 0.5, steps=1)
        assert factors.count - before == 2
        assert out.breakdown is None and out.last_good_eps == 0.5
        state = out.states[-1]
        assert residual_fine(state, desk.with_eps(0.5)) < 1e-9
        assert float(np.min(state.w.values)) > 0.0 and float(np.min(state.v.values)) > 0.0
        assert crossing_count(state.w.values, w0_const(desk)) == 1

    def test_predicted_rungs_match_plain_warm_starts(self, desk, flat_v):
        # the predictor and the chord steps change the path to each rung's
        # solution, not the solution: measured agreement with plain Newton
        # from the previous rung's rounded profiles 1.3e-12 here and 1.1e-11
        # on the sampled ladder below
        lower, _ = nodal_pair(1, desk)
        start = newton_solve(lower.profile, flat_v, desk, origin="nodal(1,lower)")
        x = np.linspace(0.0, 1.0, 33)
        sampled = ModelParams(
            eps=1e-3,
            coeff_a=CoeffFn.sampled(x, 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
            coeff_c=CoeffFn.sampled(x, 1.0 + 0.5 * np.cos(3.0 * np.pi * x)),
        )
        upper = census(1, sampled).states[-1]
        for first, p, target in ((start, desk, 1e-3), (upper, sampled, 1e-2)):
            out = continue_in_eps(first, p, target, steps=4)
            for prev, state in zip(out.states[1:-1], out.states[2:]):
                plain = newton_solve(prev.w, prev.v, p.with_eps(state.eps))
                for mine, ref in ((state.w, plain.w), (state.v, plain.v)):
                    assert mine.sup_distance(ref) <= 2e-11 * float(np.max(np.abs(ref.values)))

    def test_ladder_finer_than_float_spacing(self):
        # a target one ulp away repeats eps along the ladder; the quadratic
        # predictor must not divide by the zero spacing
        p = ModelParams(eps=1e-3)
        start = newton_solve(Profile.constant(w0_const(p), 501), Profile.constant(50.0, 501), p)
        out = continue_in_eps(start, p, math.nextafter(1e-3, 1.0), steps=8)
        assert out.breakdown is None and len(out.states) == 9

    @pytest.mark.parametrize("eps_target", [math.nan, math.inf, -1.0])
    def test_invalid_target_raises_without_warning(self, desk, flat_v, eps_target):
        state = newton_solve(Profile.constant(w0_const(desk), 2001), flat_v, desk, origin="constant")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="eps"):
                continue_in_eps(state, desk, eps_target)

    def test_breakdown_reported_not_raised(self, desk, flat_v):
        # far beyond the perturbation range the prey state collapses and
        # Newton loses the nodal structure; the ladder must stop gracefully
        lower, _ = nodal_pair(1, desk)
        start = newton_solve(lower.profile, flat_v, desk, origin="nodal(1,lower)")
        out = continue_in_eps(start, desk, 50.0, steps=10)
        if out.breakdown is not None:
            assert "eps" in out.breakdown
            assert out.last_good_eps < 50.0
        else:  # if every rung converged the end state must be a true solution
            assert out.states[-1].residual_sup < 1e-9


    def test_census_and_continuation_with_sampled_coefficients(self, factors):
        x = np.linspace(0.0, 1.0, 33)
        p = ModelParams(
            eps=1e-3,
            coeff_a=CoeffFn.sampled(x, 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
            coeff_c=CoeffFn.sampled(x, 1.0 + 0.5 * np.cos(3.0 * np.pi * x)),
        )
        result = census(1, p)
        assert result.distinct_count == 3 and not result.shortfall
        for state in result.states:
            assert residual_fine(state, p) < 1e-9
            before = factors.count
            out = continue_in_eps(state, p, 1e-2, steps=4)
            assert out.breakdown is None and len(out.states) == 5
            assert out.last_good_eps == pytest.approx(1e-2)
            # no factorization for the whole ladder: chord steps against the
            # LU each census state kept from its cold solve
            assert factors.count - before == 0
            assert all(s.newton_iters <= 3 for s in out.states[2:])
            for s in out.states[1:]:
                assert residual_fine(s, p.with_eps(s.eps)) < 1e-9
                assert float(np.min(s.w.values)) > 0.0 and float(np.min(s.v.values)) > 0.0


class TestCertificate:
    """residual_fine re-evaluates the stored certificate of every state kind."""

    @pytest.mark.parametrize("where", ["desk", "sampled"])
    def test_residual_fine_reproduces_the_stored_certificate(self, where):
        x = np.linspace(0.0, 1.0, 33)
        p = {
            "desk": ModelParams(eps=1e-3),
            "sampled": ModelParams(
                eps=1e-3,
                coeff_a=CoeffFn.sampled(x, 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
                coeff_c=CoeffFn.sampled(x, 1.0 + 0.5 * np.cos(3.0 * np.pi * x)),
            ),
        }[where]
        lower, _ = nodal_pair(1, p)
        states = [newton_solve(lower.profile, Profile.constant(p.mu / p.d, 2001), p.with_eps(4e-3))]
        for state in census(1, p).states:
            states.append(state)
            states += continue_in_eps(state, p, 1e-2, steps=3).states[1:]
        assert len(states) == 13
        for state in states:
            certificate = residual_fine(state, p.with_eps(state.eps))
            assert certificate == state.residual_sup
            assert certificate < 1e-9


def _sampled(eps: float) -> ModelParams:
    x = np.linspace(0.0, 1.0, 33)
    return ModelParams(
        eps=eps,
        coeff_a=CoeffFn.sampled(x, 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
        coeff_c=CoeffFn.sampled(x, 1.0 + 0.5 * np.cos(3.0 * np.pi * x)),
    )


def _assert_palindromic(state: CoexistenceState) -> None:
    for u in (state.w.values, state.v.values, state.w_fine, state.v_fine):
        assert np.array_equal(u, u[::-1])


def _assert_same_ladder(out: ContinuationResult, ref: ContinuationResult) -> None:
    """Both ladders accepted the same states, bit for bit."""
    assert len(out.states) == len(ref.states)
    for a, b in zip(out.states, ref.states):
        for name in ("w", "v"):
            assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
        for name in ("w_fine", "v_fine"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestReflectionFold:
    """Inputs fixed by x -> 1 - x are solved on nodes 0..c of the 2c + 1 grid."""

    def _seed(self, origin: str, n_points: int) -> tuple[ModelParams, Profile]:
        p = ModelParams(mu=170.0, lam=85.0)
        return p, dict(nodal.limit_seeds(2, p, n_points))[origin]

    @pytest.mark.parametrize("origin", ["constant", "nodal(2,lower)", "nodal(2,upper)"])
    def test_symmetric_seeds_factor_half_bands(self, origin, factors):
        p, seed = self._seed(origin, 2001)
        q = p.with_eps(1e-3)
        state = newton_solve(seed, Profile.constant(p.mu / p.d, 2001), q, origin=origin)
        out = continue_in_eps(state, p, 2e-2, steps=4)
        assert out.breakdown is None
        assert factors.count >= 1 and set(factors.sizes) == {2 * 1001}
        for s in out.states:
            assert s.w.n_points == 2001
            _assert_palindromic(s)
            assert residual_fine(s, p.with_eps(s.eps)) == s.residual_sup < 1e-9

    @pytest.mark.parametrize("case", ["nodal(1,lower)", "nodal(1,upper)", "sampled", "one ulp"])
    def test_other_inputs_factor_full_bands(self, case, factors):
        p, seed = self._seed("constant" if case in ("sampled", "one ulp") else case, 2001)
        if case == "sampled":
            sampled = _sampled(0.0)
            p = ModelParams(mu=p.mu, lam=p.lam, coeff_a=sampled.coeff_a, coeff_c=sampled.coeff_c)
        if case == "one ulp":
            values = seed.values.copy()
            values[700] = math.nextafter(values[700], 2.0)
            seed = Profile(values)
        q = p.with_eps(1e-3)
        state = newton_solve(seed, Profile.constant(p.mu / p.d, 2001), q)
        out = continue_in_eps(state, p, 2e-2, steps=4)
        assert out.breakdown is None
        assert factors.count >= 1 and set(factors.sizes) == {2 * 2001}
        assert all(residual_fine(s, p.with_eps(s.eps)) == s.residual_sup < 1e-9 for s in out.states)

    def test_half_grid_with_an_even_node_count(self, factors):
        # 203 = 4 * 50 + 3 points: nodes 0..101 are 102, an even count no
        # Profile takes; the solves still return certified 203-point states
        p, seed = self._seed("constant", 203)
        q = p.with_eps(1e-3)
        start = newton_solve(seed, Profile.constant(p.mu / p.d, 203), q, origin="constant")
        out = continue_in_eps(start, p, 1e-2, steps=3)
        assert out.breakdown is None and len(out.states) == 4
        assert set(factors.sizes) == {2 * 102}
        for s in out.states:
            assert s.w.n_points == s.v.n_points == 203
            _assert_palindromic(s)
            assert residual_fine(s, p.with_eps(s.eps)) == s.residual_sup < 1e-9
        factors.sizes.clear()
        result = census(2, q, n_points=203)
        assert result.distinct_count == 5 and not result.shortfall
        # the constant and both 2-crossing seeds solve on the half grid
        assert factors.sizes.count(2 * 102) >= 3 and set(factors.sizes) <= {2 * 102, 2 * 203}
        for s in result.states:
            assert s.w.n_points == 203
            assert residual_fine(s, q) == s.residual_sup < 1e-9
            if not s.origin.startswith("nodal(1,"):
                _assert_palindromic(s)

    def test_half_size_factors_are_not_taken_over_by_a_full_ladder(self, factors):
        # a start on sampled coefficients whose kept factors were swapped for
        # a half-grid solve's: the ladder runs on all nodes and factors once
        p = _sampled(1e-3)
        sampled_start = census(1, p).states[-1]
        desk = ModelParams(eps=1e-3)
        half = newton_solve(Profile.constant(0.5, 2001), Profile.constant(50.0, 2001), desk)
        assert half.factored[1][0].shape[1] == 2 * 1001
        start = replace(sampled_start, factored=(sampled_start.factored[0], half.factored[1]))
        factors.sizes.clear()
        out = continue_in_eps(start, p, 1e-2, steps=4)
        assert out.breakdown is None
        assert factors.sizes == [2 * 2001]
        _assert_same_ladder(out, continue_in_eps(replace(start, factored=None), p, 1e-2, steps=4))

    def test_full_size_factors_are_not_taken_over_by_a_half_ladder(self, factors):
        # a half-grid state whose kept factors were swapped for the LU of its
        # full-grid Jacobian: the ladder runs on nodes 0..c and factors once
        desk = ModelParams(eps=1e-3)
        half = newton_solve(Profile.constant(0.5, 2001), Profile.constant(50.0, 2001), desk)
        x = np.linspace(0.0, 1.0, 2001)
        full = _factor(jacobian_banded(half.w.values, half.v.values, desk, desk.coeff_a(x), desk.coeff_c(x), 2000.0 ** 2))
        start = replace(half, factored=(desk, full))
        factors.sizes.clear()
        out = continue_in_eps(start, desk, 1e-2, steps=4)
        assert out.breakdown is None
        assert factors.sizes == [2 * 1001]
        _assert_same_ladder(out, continue_in_eps(replace(start, factored=None), desk, 1e-2, steps=4))
        assert all(residual_fine(s, desk.with_eps(s.eps)) == s.residual_sup < 1e-9 for s in out.states)

    def test_positivity_error_carries_full_grid_profiles(self, factors):
        # from w = -0.01 Newton falls onto the semitrivial state w = 0 in
        # three half-grid steps; the error carries the limit on 203 points
        q = ModelParams(eps=1e-3)
        with pytest.raises(PositivityError) as err:
            newton_solve(Profile.constant(-0.01, 203), Profile.constant(50.0, 203), q)
        assert factors.count >= 1 and set(factors.sizes) == {2 * 102}
        assert err.value.w.n_points == err.value.v.n_points == 203
        assert float(np.max(np.abs(err.value.w.values))) < 1e-9


class TestConstantStates:
    def test_limit_case(self, desk):
        states = constant_states(desk)
        assert len(states) == 1
        w, v = states[0]
        assert w == pytest.approx(w0_const(desk), abs=1e-12)
        assert v == pytest.approx(desk.mu / desk.d, abs=1e-12)

    def test_empty_outside_window(self, desk):
        assert constant_states(desk.with_lam(60.0)) == []

    def test_small_eps_perturbs_at_first_order(self, desk):
        states = constant_states(desk.with_eps(1e-4))
        near = [s for s in states if abs(s[0] - 1.0) < 0.1]
        assert len(near) == 1
        w, v = near[0]
        assert abs(w - 1.0) < 5e-4
        assert abs(v - 50.0) < 5e-3

    def test_requires_constant_coefficients(self, desk):
        p = ModelParams(coeff_a=CoeffFn.sampled([0.0, 1.0], [1.0, 2.0]))
        with pytest.raises(DomainError):
            constant_states(p)
