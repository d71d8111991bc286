import math

import numpy as np
import pytest

import htbif.timemap as timemap
from htbif.errors import QuadratureError
from htbif.model import ModelParams
from htbif.quadrature import adaptive_gauss, gauss_panel

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def _scalar_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(_WEIGHTS, f(mid + half * _NODES)))


def depth_first_gauss(f, a, b, popped=None):
    """Reference: the depth-first panel stack with one integrand call per
    panel, which level-by-level refinement must reproduce bit for bit.
    popped, when given, counts the panels bisected at each depth."""
    whole = _scalar_panel(f, a, b)
    floor = abs(whole) * 1e-10 / 256.0
    stack = [(a, b, whole, 0)]
    total = 0.0
    used = 1
    while stack:
        a0, b0, coarse, depth = stack.pop()
        if popped is not None:
            popped[depth] = popped.get(depth, 0) + 1
        mid = 0.5 * (a0 + b0)
        left = _scalar_panel(f, a0, mid)
        right = _scalar_panel(f, mid, b0)
        refined = left + right
        if abs(refined - coarse) <= max(1e-10 * abs(refined), floor):
            total += refined
        else:
            used += 2
            if used > 2 ** 14:
                raise QuadratureError(f"adaptive quadrature exceeded {2 ** 14} panels on [{a:g}, {b:g}]")
            stack.append((a0, mid, left, depth + 1))
            stack.append((mid, b0, right, depth + 1))
    return total


def _bump(x):
    return 1.0 / (1e-4 + x * x)


INTEGRANDS = [
    (lambda x: x ** 7 - 2.0 * x, -1.0, 2.0),
    (np.sin, 0.0, math.pi),
    (lambda x: np.exp(-x * x), 0.0, 10.0),
    (_bump, -1.0, 1.0),
    # a kink refined one panel deeper at each of 24 levels
    (lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0),
    # oscillation that doubles the level width six times
    (lambda x: np.sin(200.0 * x) * np.exp(-x), 0.0, 3.0),
    # reversed interval: depth-first pops panels in ascending start
    (lambda x: np.sin(200.0 * x) * np.exp(-x), 3.0, 0.0),
]


def test_polynomial_is_exact():
    assert gauss_panel(lambda x: x ** 2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert adaptive_gauss(lambda x: x ** 7 - 2.0 * x, -1.0, 2.0) == pytest.approx(
        (2.0 ** 8 - 1.0) / 8.0 - (4.0 - 1.0), rel=1e-14
    )


def test_smooth_transcendental():
    assert adaptive_gauss(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-13)
    assert adaptive_gauss(lambda x: np.exp(-x * x), 0.0, 10.0) == pytest.approx(
        0.5 * math.sqrt(math.pi), rel=1e-12
    )


def test_needs_panels_for_sharp_feature():
    # narrow bump: one panel is not enough, adaptivity resolves it
    val = adaptive_gauss(_bump, -1.0, 1.0)
    ref = 2.0 / math.sqrt(1e-4) * math.atan(1.0 / math.sqrt(1e-4))
    assert val == pytest.approx(ref, rel=1e-10)


def test_panel_budget_enforced():
    # about 3,200 jumps on [0, 1]: bisecting toward every one of them needs
    # more than the 2^14-panel budget
    with pytest.raises(QuadratureError, match="16384 panels"):
        adaptive_gauss(lambda x: np.sign(np.sin(1e4 * x)), 0.0, 1.0)


@pytest.mark.parametrize("f, a, b", INTEGRANDS)
def test_bit_identical_to_depth_first(f, a, b):
    assert adaptive_gauss(f, a, b) == depth_first_gauss(f, a, b)


def test_array_panels_match_scalar_panels():
    starts = (0.0, 0.25, 0.5, 0.9)
    ends = (0.25, 0.5, 0.9, 1.0)
    assert gauss_panel(np.exp, starts, ends) == [_scalar_panel(np.exp, a, b) for a, b in zip(starts, ends)]
    assert gauss_panel(np.exp, 0.0, 0.25) == _scalar_panel(np.exp, 0.0, 0.25)


def test_one_integrand_call_per_level():
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return _bump(x)

    popped = {}
    assert adaptive_gauss(counted, -1.0, 1.0) == depth_first_gauss(_bump, -1.0, 1.0, popped)
    # the whole interval, then one call per level holding both halves of
    # every panel the level bisects
    levels = len(popped)
    assert levels > 4
    assert sizes == [16] + [32 * popped[depth] for depth in range(levels)]


def _time_map_cases():
    rng = np.random.default_rng(14)
    for _ in range(12):
        mu = math.exp(rng.uniform(math.log(20.0), math.log(400.0)))
        p = ModelParams(mu=mu, lam=rng.uniform(0.05, 0.95) * mu)
        w0 = timemap.PhasePlane(p).w0
        yield p, [
            10.0 ** rng.uniform(-10.0, -1.0) * w0,  # saddle
            rng.uniform(0.1, 0.9) * w0,  # mid
            (1.0 - 10.0 ** rng.uniform(-7.0, -1.0)) * w0,  # near center
        ]


def test_time_map_bit_identical_to_depth_first(monkeypatch):
    for p, amplitudes in _time_map_cases():
        plane = timemap.PhasePlane(p)
        for w_minus in amplitudes:
            monkeypatch.setattr(timemap, "adaptive_gauss", adaptive_gauss)
            level_by_level = plane.time_map(w_minus)
            monkeypatch.setattr(timemap, "adaptive_gauss", depth_first_gauss)
            depth_first = plane.time_map(w_minus)
            assert level_by_level.T == depth_first.T
            assert level_by_level.w_plus == depth_first.w_plus
