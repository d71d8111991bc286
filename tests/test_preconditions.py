"""Every public entry point that takes a crossing count n rejects a non-count
with DomainError, and accepts an integral float as the integer it equals.
The profile builders reject a grid size that is not an odd integer >= 3 the
same way, before any solve or integration; sturm_spectrum's eigenvalue
count, the window sweeps' lam sample counts and continue_in_eps's steps
must be integers >= 1.  Every one of these goes through model.whole.
The other input checks of the entry points each refuse one bad input with a
DomainError whose message names it."""

import math
import re

import numpy as np
import pytest

from htbif.cli import main
from htbif.errors import DomainError
from htbif.linstab import fit_expansion, sturm_spectrum
from htbif.model import CoeffFn, ModelParams, Profile, potential_gap, w0_const
from htbif.nodal import limit_seeds, nodal_pair, solve_amplitude, trace_loop
from htbif.perturbed import admissible_lambda, census, continue_in_eps, first_order_corrections, newton_solve
from htbif.spectral import eta2_closed_form, lambda_roots, window_lambdas, y1_closed_form
from htbif.timemap import monotone_check

DESK = ModelParams()
TWO_MODES = ModelParams(mu=170.0, lam=30.0)

CALLS = {
    "solve_amplitude": lambda n: solve_amplitude(n, DESK),
    "nodal_pair": lambda n: nodal_pair(n, DESK),
    "trace_loop": lambda n: trace_loop(n, DESK, n_lambda=5),
    "window_lambdas": lambda n: window_lambdas(n, TWO_MODES, 3),
    "fit_expansion": lambda n: fit_expansion(n, "minus", DESK, n_points=501),
    "census": lambda n: census(n, DESK.with_eps(1e-3), n_points=501),
    "limit_seeds": lambda n: limit_seeds(n, DESK, 501),
    "admissible_lambda": lambda n: admissible_lambda(n, DESK),
    "eta2_closed_form": lambda n: eta2_closed_form(n, "minus", DESK),
    "y1_closed_form": lambda n: y1_closed_form(n, "minus", DESK),
}


@pytest.mark.parametrize("n", [0, -1, 1.5])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_count_is_a_domain_error(name, n):
    with pytest.raises(DomainError):
        CALLS[name](n)


def _same(a, b):
    """Equal results, comparing profiles and arrays by value."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "values"):  # Profile
        return np.array_equal(a.values, b.values)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            _same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    return a == b and type(a) is type(b)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_integral_float_is_the_integer(name):
    assert _same(CALLS[name](1.0), CALLS[name](1))


GRID_CALLS = {
    "nodal_pair": lambda n_points: nodal_pair(1, DESK, n_points),
    "y1_closed_form": lambda n_points: y1_closed_form(1, "minus", DESK, n_points),
    "fit_expansion": lambda n_points: fit_expansion(1, "minus", DESK, n_points),
}


@pytest.mark.parametrize("n_points", [1, 2, 4, 2001.5])
@pytest.mark.parametrize("name", sorted(GRID_CALLS))
def test_bad_grid_is_a_domain_error(name, n_points):
    with pytest.raises(DomainError, match="n_points"):
        GRID_CALLS[name](n_points)


@pytest.mark.parametrize("m", [1.5, float("nan"), float("inf")])
def test_bad_eigenvalue_count_is_a_domain_error(m):
    with pytest.raises(DomainError, match="eigenvalue count m must be an integer >= 1"):
        sturm_spectrum(Profile(np.full(101, -DESK.lam)), m)


def _constant_state():
    return newton_solve(Profile.constant(w0_const(DESK), 501), Profile.constant(DESK.mu, 501), DESK)


COUNT_CALLS = {
    "continue_in_eps.steps": lambda k: continue_in_eps(_constant_state(), DESK, 1e-3, steps=k),
    "window_lambdas.count": lambda k: window_lambdas(1, TWO_MODES, k),
    "trace_loop.n_lambda": lambda k: trace_loop(1, DESK, n_lambda=k),
}


@pytest.mark.parametrize("k", [0, -1, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_bad_step_or_sample_count_is_a_domain_error(name, k):
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        COUNT_CALLS[name](k)


def test_cli_reports_a_bad_grid(tmp_path, capsys):
    out = tmp_path / "nodal.csv"
    args = ["nodal", "--mu", "50", "--lambda", "25", "--n", "1", "--n-points", "2", "-o", str(out)]
    assert main(args) == 1
    assert "DomainError" in capsys.readouterr().err
    assert not out.exists()


def _csv(path, text):
    path.write_text(text)
    return CoeffFn.from_csv(path)


REFUSALS = {
    "census at mu = mu_2": (
        lambda tmp: census(1, ModelParams(mu=16.0 * math.pi ** 2, lam=79.0, eps=1e-3), n_points=501),
        "census requires mu strictly between consecutive mode thresholds; mu = 157.914",
    ),
    "admissible_lambda near lam_1^-": (
        lambda tmp: admissible_lambda(1, DESK.with_lam(lambda_roots(1, DESK).lambda_minus + 1e-3)),
        "lam = 13.5328 is within 0.005 of the bifurcation value lam_1 = 13.5318",
    ),
    "first_order_corrections at mu = -1": (
        lambda tmp: first_order_corrections(Profile.constant(1.0, 5), ModelParams(mu=-1.0)),
        "corrections require mu > 0",
    ),
    "sturm_spectrum with m above the grid": (
        lambda tmp: sturm_spectrum(Profile(np.zeros(5)), 6),
        "m = 6 exceeds the 5-point discretization size",
    ),
    "monotone_check on a 2-d grid": (
        lambda tmp: monotone_check(DESK, [[0.2, 0.4], [0.6, 0.8]]),
        "grid must be a 1-d array with at least two points",
    ),
    "monotone_check on one point": (
        lambda tmp: monotone_check(DESK, [0.5]),
        "grid must be a 1-d array with at least two points",
    ),
    "CoeffFn with neither form": (
        lambda tmp: CoeffFn(),
        "CoeffFn must be either constant or sampled",
    ),
    "CoeffFn with both forms": (
        lambda tmp: CoeffFn(value=1.0, xs=[0.0, 1.0], ys=[1.0, 1.0]),
        "CoeffFn must be either constant or sampled",
    ),
    "CoeffFn.sampled with mismatched shapes": (
        lambda tmp: CoeffFn.sampled([0.0, 0.5, 1.0], [1.0, 1.0]),
        "sampled coefficient needs matching 1-d xs, ys with >= 2 samples",
    ),
    "CoeffFn.sampled with a NaN sample": (
        lambda tmp: CoeffFn.sampled([0.0, 1.0], [1.0, math.nan]),
        "coefficient samples must be finite",
    ),
    "from_csv with a text row after data": (
        lambda tmp: _csv(tmp / "a.csv", "x,a\n0,1\nhalf,2\n1,1\n"),
        "malformed coefficient row ['half', '2'] in ",
    ),
    "from_csv with one sample": (
        lambda tmp: _csv(tmp / "a.csv", "x,a\n0,1\n"),
        "has fewer than 2 samples",
    ),
    "ModelParams with lam = nan": (
        lambda tmp: ModelParams(lam=math.nan),
        "lam and mu must be finite",
    ),
    "ModelParams with a float coefficient": (
        lambda tmp: ModelParams(coeff_a=1.0),
        "coeff_a must be a CoeffFn",
    ),
    "Profile of a 2-d array": (
        lambda tmp: Profile(np.zeros((3, 3))),
        "Profile needs a 1-d array, got 2 dimensions",
    ),
    "Profile with a NaN value": (
        lambda tmp: Profile(np.array([0.0, math.nan, 0.0])),
        "Profile values must be finite",
    ),
    "sup_distance across grids": (
        lambda tmp: Profile(np.zeros(3)).sup_distance(Profile(np.zeros(5))),
        "profiles live on different grids",
    ),
    "w0_const at mu = 0": (
        lambda tmp: w0_const(ModelParams(mu=0.0)),
        "constant state requires mu > 0, got mu = 0.0",
    ),
    "potential_gap below w = -1": (
        lambda tmp: potential_gap(-2.0, DESK),
        "delta must keep w0 + delta > -1",
    ),
    "eta2_closed_form on a middle side": (
        lambda tmp: eta2_closed_form(1, "middle", DESK),
        "side must be 'minus' or 'plus', got 'middle'",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_bad_input_is_refused_by_name(name, tmp_path):
    call, message = REFUSALS[name]
    with pytest.raises(DomainError, match=re.escape(message)):
        call(tmp_path)
