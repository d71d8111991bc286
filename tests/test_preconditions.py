"""Every public entry point that takes a crossing count n rejects a non-count
with DomainError, and accepts an integral float as the integer it equals.
The profile builders reject a grid size that is not an odd integer >= 3 the
same way, before any solve or integration; sturm_spectrum's eigenvalue
count, the window sweeps' lam sample counts and continue_in_eps's steps
must be integers >= 1.  Every one of these goes through model.whole."""

import math

import numpy as np
import pytest

from htbif.cli import main
from htbif.errors import DomainError
from htbif.linstab import fit_expansion, sturm_spectrum
from htbif.model import ModelParams, Profile, w0_const
from htbif.nodal import limit_seeds, nodal_pair, solve_amplitude, trace_loop
from htbif.perturbed import admissible_lambda, census, continue_in_eps, newton_solve
from htbif.spectral import eta2_closed_form, window_lambdas, y1_closed_form

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
