import math

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

import htbif.timemap as timemap
from htbif.errors import QuadratureError
from htbif.model import ModelParams
from htbif.quadrature import adaptive_gauss, gauss_panel, simpson

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


def _one(f):
    """f as a batch integrand of one integral."""
    return lambda x, which: f(x)


def _stacked(fs):
    """One batch integrand that evaluates each row with its own integral's f."""

    def integrand(x, which):
        out = np.empty_like(x)
        for k, f in enumerate(fs):
            rows = which == k
            out[rows] = f(x[rows])
        return out

    return integrand


def test_polynomial_is_exact():
    assert gauss_panel(_one(lambda x: x ** 2), [0.0], [1.0], [0]) == [pytest.approx(1.0 / 3.0, rel=1e-15)]
    assert adaptive_gauss(_one(lambda x: x ** 7 - 2.0 * x), [-1.0], [2.0]) == [pytest.approx(
        (2.0 ** 8 - 1.0) / 8.0 - (4.0 - 1.0), rel=1e-14
    )]


def test_smooth_transcendental():
    assert adaptive_gauss(_one(np.sin), [0.0], [math.pi]) == [pytest.approx(2.0, rel=1e-13)]
    assert adaptive_gauss(_one(lambda x: np.exp(-x * x)), [0.0], [10.0]) == [pytest.approx(
        0.5 * math.sqrt(math.pi), rel=1e-12
    )]


def test_needs_panels_for_sharp_feature():
    # narrow bump: one panel is not enough, adaptivity resolves it
    [val] = adaptive_gauss(_one(_bump), [-1.0], [1.0])
    ref = 2.0 / math.sqrt(1e-4) * math.atan(1.0 / math.sqrt(1e-4))
    assert val == pytest.approx(ref, rel=1e-10)


def _jumps(x):
    return np.sign(np.sin(1e4 * x))


def test_panel_budget_enforced():
    # about 3,200 jumps on [0, 1]: bisecting toward every one of them needs
    # more than the 2^14-panel budget
    with pytest.raises(QuadratureError, match="16384 panels"):
        adaptive_gauss(_one(_jumps), [0.0], [1.0])


def test_budget_is_per_integral_and_names_its_interval():
    # the smooth integrals of the batch converge; the one that exhausts its
    # own budget is named
    fs = [np.sin, _jumps, np.exp]
    with pytest.raises(QuadratureError, match=r"16384 panels on \[0.5, 1.5\]$"):
        adaptive_gauss(_stacked(fs), [0.0, 0.5, 0.0], [math.pi, 1.5, 1.0])


@pytest.mark.parametrize("f, a, b", INTEGRANDS)
def test_bit_identical_to_depth_first(f, a, b):
    assert adaptive_gauss(_one(f), [a], [b]) == [depth_first_gauss(f, a, b)]


def test_batch_bit_identical_to_depth_first():
    # all seven integrals, the reversed interval among them, in one batch
    fs, starts, ends = zip(*INTEGRANDS)
    assert adaptive_gauss(_stacked(fs), starts, ends) == [depth_first_gauss(*case) for case in INTEGRANDS]


def test_array_panels_match_scalar_panels():
    starts = (0.0, 0.25, 0.5, 0.9)
    ends = (0.25, 0.5, 0.9, 1.0)
    assert gauss_panel(_one(np.exp), starts, ends, [0] * 4) == [
        _scalar_panel(np.exp, a, b) for a, b in zip(starts, ends)
    ]
    # each row is evaluated with the integral its index names
    fs = (np.exp, np.sin)
    assert gauss_panel(_stacked(fs), starts, ends, [1, 0, 0, 1]) == [
        _scalar_panel(fs[k], a, b) for k, a, b in zip((1, 0, 0, 1), starts, ends)
    ]


def test_one_integrand_call_per_level():
    sizes = []
    fs, starts, ends = zip(*INTEGRANDS[3:])
    stacked = _stacked(fs)

    def counted(x, which):
        sizes.append(x.size)
        return stacked(x, which)

    popped = [{} for _ in fs]
    expected = [depth_first_gauss(*case, seen) for case, seen in zip(INTEGRANDS[3:], popped)]
    assert adaptive_gauss(counted, starts, ends) == expected
    # every interval whole and both its halves, then one call per level
    # holding both halves of every panel, of any integral, the level bisects
    levels = max(map(len, popped))
    assert levels > 20
    assert sizes == [48 * len(fs)] + [
        32 * sum(seen.get(depth, 0) for seen in popped) for depth in range(1, levels)
    ]


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


def depth_first_batch(f, a, b):
    """Each integral of a batch by depth_first_gauss alone."""
    return [
        depth_first_gauss(lambda x, k=k: f(x[None, :], np.array([k]))[0], a0, b0)
        for k, (a0, b0) in enumerate(zip(a, b))
    ]


def test_time_map_bit_identical_to_depth_first(monkeypatch):
    maps = 0
    for p, amplitudes in _time_map_cases():
        plane = timemap.PhasePlane(p)
        for w_minus in amplitudes:
            batched = plane.time_map(w_minus)
            halves = plane._half_orbit_times(w_minus, batched.w_plus)
            monkeypatch.setattr(timemap, "adaptive_gauss", depth_first_batch)
            depth_first = plane.time_map(w_minus)
            assert plane._half_orbit_times(w_minus, batched.w_plus) == halves
            monkeypatch.undo()
            assert batched == depth_first
            maps += 1
    assert maps == 36


@pytest.mark.parametrize("grid", ["uniform", "random"])
def test_simpson_bit_identical_to_scipy(grid):
    rng = np.random.default_rng(26)
    sizes = [3, 5, 7, 9, 11, 101, 2001, 4001, 8001] + [2 * int(k) + 1 for k in rng.integers(1, 4000, 20)]
    for n in sizes:
        x = np.linspace(0.0, 1.0, n) if grid == "uniform" else np.sort(rng.uniform(-2.0, 3.0, n))
        y = np.cos(7.0 * x) * np.exp(x) + rng.normal(size=n)
        assert simpson(y, x) == float(scipy_simpson(y, x=x))
