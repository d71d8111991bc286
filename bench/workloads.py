"""The three workloads: set-up, the timed operation, and its checks.

An operation calls the library only.  Its checks run after the clock stops,
against the library's own accuracy contracts, and return a failure reason
or None.  Library functions are looked up through their modules at call
time so a traced run sees the installed spans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import inputs
from htbif import linstab, model, nodal, perturbed, timemap

BVP_RESIDUAL_MAX = 1e-6      # criterion 6 bound on the profile residual
CERTIFIED_RESIDUAL = 1e-9    # newton_solve's certified sup residual
TIME_MAP_RTOL = 1e-10        # relative tolerance of the time-map quadrature
ULP = float(np.finfo(float).eps)


@dataclass
class Workload:
    name: str
    prefetched: list        # inputs generated during set-up
    stream: Iterator        # the same seeded stream, continued on demand
    op: Callable
    check: Callable
    warmup: int             # untimed operations before the timed phase
    trace_ops: int          # fixed operation count of a traced run

    def items(self) -> Iterator:
        return itertools.chain(self.prefetched, self.stream)


# -- branch_scan --------------------------------------------------------------

def branch_op(pt: inputs.BranchPoint):
    lower, upper = nodal.nodal_pair(pt.n, pt.params)
    spectra = tuple(
        linstab.sturm_spectrum(linstab.nodal_potential(sol.profile, pt.params), pt.n + 2)
        for sol in (lower, upper)
    )
    return lower, upper, spectra


def branch_check(pt: inputs.BranchPoint, out) -> str | None:
    lower, upper, spectra = out
    w0 = model.w0_const(pt.params)
    for sol, spec in zip((lower, upper), spectra):
        crossings = nodal.crossing_count(sol.profile.values, w0)
        if crossings != pt.n:
            return f"{sol.branch} profile crosses w0 {crossings} times, expected {pt.n}"
        if spec.morse_index != pt.n:
            return f"{sol.branch} Morse index {spec.morse_index}, expected {pt.n}"
        res = nodal.bvp_residual(sol.profile, pt.params)
        if not res < BVP_RESIDUAL_MAX:
            return f"{sol.branch} BVP residual {res:.3e} >= {BVP_RESIDUAL_MAX:g}"
    return None


# -- timemap_scan -------------------------------------------------------------

def timemap_op(pt: inputs.TimeMapPoint):
    return timemap.time_map(pt.w_minus, pt.params)


def _gap_terms(delta: float, p) -> float:
    """Sum of the magnitudes of the three terms potential_gap adds up."""
    w0 = model.w0_const(p)
    return p.lam * abs(delta) * (1.0 + 0.5 * abs(delta)) + p.bmu_over_d * abs(math.log1p(delta / (1.0 + w0)))


def timemap_check(pt: inputs.TimeMapPoint, sample) -> str | None:
    p = pt.params
    w0 = model.w0_const(p)
    if not pt.w_minus < w0 < sample.w_plus:
        return f"turning points out of order: {pt.w_minus!r} < {w0!r} < {sample.w_plus!r} fails"
    # near the center T exceeds its limit by far less than the quadrature
    # tolerance, so the bound holds to that tolerance
    t_center = timemap.time_map_center(p)
    if not sample.T >= t_center * (1.0 - TIME_MAP_RTOL):
        return f"T = {sample.T!r} below the center limit {t_center!r}"
    d_minus, d_plus = pt.w_minus - w0, sample.w_plus - w0
    mismatch = abs(model.potential_gap(d_plus, p) - model.potential_gap(d_minus, p))
    # companion's bisection stops at a width of 4 ulp of the offset; add the
    # rounding of the two gap evaluations
    tol = 4.0 * ULP * abs(d_plus) * abs(model.kinetic_f(sample.w_plus, p)) + 16.0 * ULP * (
        _gap_terms(d_minus, p) + _gap_terms(d_plus, p)
    )
    if not mismatch <= tol:
        return f"|F(w_+) - F(w_-)| = {mismatch:.3e} exceeds the bisection precision {tol:.3e}"
    return None


# -- eps_continuation ---------------------------------------------------------

def eps_op(op: inputs.EpsOp):
    start = perturbed.newton_solve(op.seed, op.eps_set.v_flat, op.start, origin=op.origin)
    return perturbed.continue_in_eps(start, op.eps_set.params, op.eps_target, steps=op.rungs)


def eps_check(op: inputs.EpsOp, result) -> str | None:
    if result.breakdown is not None:
        return f"breakdown: {result.breakdown}"
    for state in result.states:
        res = perturbed.residual_fine(state, op.eps_set.params.with_eps(state.eps))
        if not res < CERTIFIED_RESIDUAL:
            return f"recomputed residual {res:.3e} >= {CERTIFIED_RESIDUAL:g} at eps = {state.eps:g}"
        if not (float(np.min(state.w.values)) > 0.0 and float(np.min(state.v.values)) > 0.0):
            return f"state at eps = {state.eps:g} is not positive"
    return None


# -- set-up -------------------------------------------------------------------

# inputs generated in set-up, so that setup_s counts their generation: more
# than a 20 s run uses; a longer run continues the same stream on demand
PREFETCH = {"branch_scan": 400, "timemap_scan": 20_000, "eps_continuation": 4_000}


def make(name: str, seed: int) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` (and, for
    eps_continuation, compute the limit seeds)."""
    rng = np.random.default_rng(seed)
    if name == "branch_scan":
        stream, op, check, warmup, trace_ops = inputs.branch_points(rng), branch_op, branch_check, 2, 40
    elif name == "timemap_scan":
        stream, op, check, warmup, trace_ops = inputs.timemap_points(rng), timemap_op, timemap_check, 60, 3000
    elif name == "eps_continuation":
        sets = inputs.eps_sets(rng)
        stream, op, check, warmup, trace_ops = inputs.eps_ops(rng, sets), eps_op, eps_check, 20, 600
    else:
        raise ValueError(f"unknown workload {name!r}")
    prefetched = list(itertools.islice(stream, PREFETCH[name]))
    return Workload(name, prefetched, stream, op, check, warmup, trace_ops)

