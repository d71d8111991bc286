"""Seeded input streams of the three workloads.

Every stream is a generator driven by one ``numpy.random.Generator``: the
same seed yields the same sequence.  Draws are filtered only by the
library's own admissibility rules: the mode windows of ``spectral``,
``trace_loop``'s predicted-amplitude rule, ``time_map``'s domain,
``admissible_lambda``, and census's nondegeneracy gate and shortfall flag.

Import ``env`` and put the checkout's ``src`` on the path before importing
this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from htbif import linstab, model, nodal, perturbed, spectral
from htbif.errors import DegenerateError, DomainError
from htbif.model import CoeffFn, ModelParams, Profile

N_POINTS = 2001  # grid size of every profile, the library default

# branch_scan: lam stratified in every mode-n window at two and three modes
BRANCH_MUS = (170.0, 360.0)
BRANCH_STRATA = 8  # a power of two
MIN_PREDICTED_AMPLITUDE = 1e-6  # trace_loop solves a point only above this

# timemap_scan: one (mu, lam) per three amplitudes, saddle to center
TIMEMAP_MU = (20.0, 400.0)           # log-uniform
TIMEMAP_LAM_FRACTION = (0.05, 0.95)  # of b mu / d
SADDLE_RATIO = (1e-10, 1e-1)         # w_- / w0, log-uniform
MID_RATIO = (0.1, 0.9)               # w_- / w0, uniform
CENTER_GAP = (1e-7, 1e-1)            # 1 - w_- / w0, log-uniform
TIMEMAP_BLOCK = 64                   # parameter sets per Latin-hypercube block

# eps_continuation: census-admissible (mu, n), half with sampled a(x), c(x)
EPS_CLASSES = ((50.0, 1), (170.0, 1), (170.0, 2))
EPS_SETS = 12
COEFF_KNOTS = 33
COEFF_AMPLITUDE = (0.0, 0.5)
EPS_START = (1e-4, 1e-3)   # cold solve, log-uniform
EPS_TARGET = (2e-3, 1e-2)  # continuation target, log-uniform
RUNGS = (2, 8)             # inclusive


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return _scaled(rng.random(), lo, hi, log=True)


def mode_windows(p: ModelParams) -> list[tuple[int, float, float]]:
    """(n, lam_n^-, lam_n^+) for every mode whose root window is open at p.mu."""
    out = []
    n = 1
    while p.mu > spectral.mu_threshold(n, p):
        root = spectral.lambda_roots(n, p)
        if not root.is_real or root.lambda_minus == root.lambda_plus:
            break
        out.append((n, root.lambda_minus, root.lambda_plus))
        n += 1
    return out


def predicted_amplitude(n: int, p: ModelParams) -> float:
    """trace_loop's branch amplitude sqrt(dist / |eta2|) to the nearer window end."""
    root = spectral.lambda_roots(n, p)
    eta_minus = linstab.eta2_closed_form(n, "minus", p)
    eta_plus = linstab.eta2_closed_form(n, "plus", p)
    return min(
        math.sqrt(max(p.lam - root.lambda_minus, 0.0) / abs(eta_minus)),
        math.sqrt(max(root.lambda_plus - p.lam, 0.0) / abs(eta_plus)),
    )


@dataclass(frozen=True)
class BranchPoint:
    n: int
    params: ModelParams


def _spread_order(size: int) -> list[int]:
    """0..size-1 in bit-reversed order (size a power of two), so that every
    prefix spreads over the whole range: 0, 4, 2, 6, 1, 5, 3, 7 for 8."""
    bits = size.bit_length() - 1
    return [int(format(k, f"0{bits}b")[::-1], 2) for k in range(size)]


def branch_points(rng: np.random.Generator) -> Iterator[BranchPoint]:
    """Rounds of one lam per stratum of every mode window.  Strata come in
    bit-reversed order, every window at each stratum, so that a run cut
    short mid-round still covers the windows evenly."""
    windows = [
        (ModelParams(mu=mu), n, lo, hi)
        for mu in BRANCH_MUS
        for n, lo, hi in mode_windows(ModelParams(mu=mu))
    ]
    while True:
        for k in _spread_order(BRANCH_STRATA):
            for base, n, lo, hi in windows:
                width = (hi - lo) / BRANCH_STRATA
                while True:
                    q = base.with_lam(lo + (k + rng.random()) * width)
                    if lo < q.lam < hi and predicted_amplitude(n, q) >= MIN_PREDICTED_AMPLITUDE:
                        break
                yield BranchPoint(n, q)


@dataclass(frozen=True)
class TimeMapPoint:
    kind: str  # "saddle", "mid" or "center"
    w_minus: float
    params: ModelParams


def _strata(rng: np.random.Generator, size: int) -> np.ndarray:
    """One uniform draw in each of ``size`` equal strata of [0, 1), shuffled."""
    return (rng.permutation(size) + rng.random(size)) / size


def _scaled(u: float, lo: float, hi: float, log: bool = False) -> float:
    if log:
        return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def timemap_points(rng: np.random.Generator) -> Iterator[TimeMapPoint]:
    """A fresh (mu, lam) every three points: one near-saddle, one mid-orbit and
    one near-center amplitude, in shuffled order.  Each block of
    TIMEMAP_BLOCK parameter sets is a Latin hypercube over the five drawn
    coordinates, so every seed covers the ranges alike."""
    while True:
        u_mu, u_lam, u_saddle, u_mid, u_center = (_strata(rng, TIMEMAP_BLOCK) for _ in range(5))
        for i in range(TIMEMAP_BLOCK):
            mu = _scaled(u_mu[i], *TIMEMAP_MU, log=True)
            p = ModelParams(lam=_scaled(u_lam[i], *TIMEMAP_LAM_FRACTION) * mu, mu=mu)
            w0 = model.w0_const(p)
            batch = [
                TimeMapPoint("saddle", _scaled(u_saddle[i], *SADDLE_RATIO, log=True) * w0, p),
                TimeMapPoint("mid", _scaled(u_mid[i], *MID_RATIO) * w0, p),
                TimeMapPoint("center", (1.0 - _scaled(u_center[i], *CENTER_GAP, log=True)) * w0, p),
            ]
            for j in rng.permutation(len(batch)):
                yield batch[j]


@dataclass(frozen=True, eq=False)
class EpsSet:
    """One census-admissible parameter set with its 2n+1 limit seeds."""

    n: int
    params: ModelParams  # eps = 0
    seeds: tuple         # (origin, Profile) pairs, as census builds them
    v_flat: Profile


@dataclass(frozen=True, eq=False)
class EpsOp:
    eps_set: EpsSet
    origin: str
    seed: Profile
    start: ModelParams  # params at the cold-solve eps
    eps_target: float
    rungs: int


def _sampled_coeff(rng: np.random.Generator) -> CoeffFn:
    xs = np.linspace(0.0, 1.0, COEFF_KNOTS)
    ys = 1.0 + rng.uniform(*COEFF_AMPLITUDE) * np.cos(
        int(rng.integers(1, 4)) * math.pi * xs + rng.uniform(0.0, 2.0 * math.pi)
    )
    return CoeffFn.sampled(xs, ys)


def eps_parameters(rng: np.random.Generator, index: int, count: int) -> tuple[int, ModelParams]:
    """Draw (n, params) for set ``index`` of ``count``.

    Sets cycle through EPS_CLASSES; within a class they alternate constant
    and sampled coefficients and take successive equal strata of the mode-n
    window, where lam is redrawn until admissible_lambda accepts it.
    """
    classes = len(EPS_CLASSES)
    mu, n = EPS_CLASSES[index % classes]
    stratum, strata = index // classes, -(-count // classes)
    if stratum % 2:
        coeff_a, coeff_c = _sampled_coeff(rng), _sampled_coeff(rng)
    else:
        coeff_a = coeff_c = CoeffFn.constant(1.0)
    _, lo, hi = mode_windows(ModelParams(mu=mu))[n - 1]
    width = (hi - lo) / strata
    while True:
        lam = lo + (stratum + rng.random()) * width
        p = ModelParams(lam=lam, mu=mu, coeff_a=coeff_a, coeff_c=coeff_c)
        try:
            perturbed.admissible_lambda(n, p)
        except DomainError:
            continue
        return n, p


def limit_seeds(n: int, p: ModelParams) -> tuple:
    """The constant state and both members of every j-crossing pair, j <= n,
    each passed through census's nondegeneracy gate (raises DegenerateError)."""
    seeds = [("constant", Profile.constant(model.w0_const(p), N_POINTS))]
    for j in range(1, n + 1):
        lower, upper = nodal.nodal_pair(j, p, N_POINTS)
        seeds.append((f"nodal({j},lower)", lower.profile))
        seeds.append((f"nodal({j},upper)", upper.profile))
    for origin, w in seeds:
        perturbed.assert_nondegenerate(w, p, label=f"census seed {origin}")
    return tuple(seeds)


def census_certifies(n: int, p: ModelParams) -> bool:
    """census's own verdict that EPS_TARGET's top lies inside the perturbation
    neighbourhood: all 2n+1 seeds converge to distinct states there."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = perturbed.census(n, p.with_eps(EPS_TARGET[1]), N_POINTS)
    return not result.shortfall


def eps_sets(rng: np.random.Generator, count: int = EPS_SETS) -> list[EpsSet]:
    """``count`` census-admissible sets.  A draw is redrawn when a seed fails
    census's nondegeneracy gate or census reports a shortfall at the top of
    the continuation range."""
    out = []
    for index in range(count):
        while True:
            n, p = eps_parameters(rng, index, count)
            try:
                seeds = limit_seeds(n, p)
            except DegenerateError:
                continue
            if census_certifies(n, p):
                break
        out.append(EpsSet(n, p, seeds, Profile.constant(p.mu / p.d, N_POINTS)))
    return out


def eps_ops(rng: np.random.Generator, sets: list[EpsSet]) -> Iterator[EpsOp]:
    """Rounds over every (set, seed) pair in shuffled order, each with fresh
    cold-solve eps, target eps and rung count."""
    pairs = [(s, origin, w) for s in sets for origin, w in s.seeds]
    while True:
        for i in rng.permutation(len(pairs)):
            s, origin, w = pairs[i]
            start = s.params.with_eps(_log_uniform(rng, *EPS_START))
            target = _log_uniform(rng, *EPS_TARGET)
            rungs = int(rng.integers(RUNGS[0], RUNGS[1] + 1))
            yield EpsOp(s, origin, w, start, target, rungs)
