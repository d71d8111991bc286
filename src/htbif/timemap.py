"""Phase-plane quantities of the limit problem: the homoclinic extent, the
companion turning point, the half-period time map and its center limit, and
the pointwise certification of the kinetic term's monotonicity conditions.

The half-period map for an orbit with turning points w_- < w0 < w_+ is

    T(w_-) = int_{w_-}^{w0} dw / sqrt(2 [F(w_-) - F(w)])
           + int_{w0}^{w_+} dw / sqrt(2 [F(w_+) - F(w)]),

a pair of integrals with square-root turning-point singularities.  Both
halves take one integrand in the distance x = |w - w_end| from the turning
point, with a cancellation-free gap F(w_end) - F(w).  Near the saddle that
gap is linear in x only over a vanishing width, and the substitution
x = sigma sinh^2(t), exact for a quadratic gap, turns the endpoint singularity
and the logarithmic spike alike into a nearly constant integrand for adaptive
Gauss-Legendre panels.  The same quadrature runs for every w_- in (0, w0),
up to one ulp below the center, where it meets the center limit
pi/sqrt(f'(w0)) to rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import (
    ModelParams,
    kinetic_d2f,
    kinetic_d3f,
    kinetic_df,
    kinetic_f,
    w0_const,
    w_minus_log1p_over_w,
)
from .quadrature import adaptive_gauss

__all__ = [
    "ABReport",
    "PhasePlane",
    "TimeMapSample",
    "ab_certify",
    "homoclinic_extent",
    "monotone_check",
    "time_map",
    "time_map_center",
]

# A width below the center, as a fraction of w0, that no code here reads:
# bench/test_inputs.py asserts that its timemap_scan draws stay outside it.
CENTER_CUTOFF = 1e-8

# The phase plane reaches |F| ~ 2 lam w0^2 at its homoclinic extent w_h ~ 2 w0;
# PhasePlane refuses parameters where four times that, 8 lam (1 + w0)^2, is
# not below the largest double.  At the bottom, the companion's smallest
# target is the gap one relative ulp from the center, lam w0 q (eps w0)^2/2
# with q = 1/(1 + w0); PhasePlane refuses parameters where that is below the
# smallest normal double, as the well's depth (lam w0^3/6 for small w0) then
# is within a factor 1/eps^2 of underflow.
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class TimeMapSample:
    """One half-period evaluation: the turning points and the time between them."""

    w_minus: float
    w_plus: float
    T: float


@dataclass(frozen=True)
class ABReport:
    """Pointwise certificate for the time-map monotonicity conditions.

    alpha is the unique critical point of f' in (0, w_h).  Margins are the
    worst (largest) values of the two defining expressions, so negative
    margins certify the strict inequalities on the sample.
    """

    alpha: float
    a_condition_ok: bool
    b_condition_ok: bool
    worst_margin: float
    fprime_simple_zero_ok: bool


@dataclass(frozen=True, eq=False)
class PhasePlane:
    """Phase-plane context of the limit problem at one parameter set.

    Built once per ModelParams, it holds the center w0, b mu/d and
    q = 1/(1 + w0), and finds the homoclinic extent w_h on first read, so
    that repeated companion and time-map evaluations at the same parameters
    re-derive none of them.
    Both turning-point solves take Newton steps on plain floats against the
    model's cancellation-free gap.  The module-level homoclinic_extent and
    time_map are thin wrappers that build a context per call.
    """

    p: ModelParams
    w0: float = field(init=False)
    bmu_d: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self):
        w0 = w0_const(self.p)
        lam = self.p.lam
        if not 8.0 * lam * (1.0 + w0) * (1.0 + w0) < _FLOAT_MAX:
            raise DomainError(
                f"the phase plane at lam = {lam:g}, w0 = {w0:g} leaves the double range: "
                f"8 lam (1 + w0)^2 must stay below {_FLOAT_MAX:g}"
            )
        q = 1.0 / (1.0 + w0)
        if not 0.5 * lam * w0 * q * (sys.float_info.epsilon * w0) ** 2 >= sys.float_info.min:
            raise DomainError(
                f"the phase plane at lam = {lam:g}, w0 = {w0:g} leaves the double range: the gap one "
                f"ulp from the center, lam w0 (eps w0)^2/(2 (1 + w0)), must be at least {sys.float_info.min:g}"
            )
        for name, value in (("w0", w0), ("bmu_d", self.p.bmu_over_d), ("q", q)):
            object.__setattr__(self, name, value)

    @cached_property
    def w_h(self) -> float:
        """Homoclinic extent: the turning point on the saddle's level F = 0."""
        return self.w0 + self._offset(0.0)

    def _offset(self, w_minus: float) -> float:
        """Offset d = w_+ - w0 of the turning point on the level of w_minus in [0, w0).

        The target F(w_minus) - F(w0) is the left half orbit's gap.  Right of
        the center, gap(d) = lam d (d/2 - r(q d)) with r = w_minus_log1p_over_w,
        and 0 < r(y) < y/2 for y > 0 brackets d by lam w0 q d^2/2 < gap < lam d^2/2.
        Newton's method on sqrt(gap), with gap' = f(w0 + d) = lam d (w0 + d)/(1 + w0 + d),
        starts from the mirror offset w0 - w_minus, bisects any step that leaves
        the bracket, and stops on a step below 4 ulp of d or not under half the
        previous one: the gap's rounding (about eps/w0 relative) is reached.
        """
        w0, q, lam = self.w0, self.q, self.p.lam
        span = w0 - w_minus
        _, left_gap_over_x = self._gap_over_x(w_minus)
        target = lam * span * float(left_gap_over_x(span))
        sqrt_target = math.sqrt(target)
        lo = sqrt_target * math.sqrt(2.0 / lam)
        hi = lo / math.sqrt(w0 * q)
        d, last = min(max(span, lo), hi), math.inf
        while True:
            gap = lam * d * (0.5 * d - float(w_minus_log1p_over_w(q * d)))
            lo, hi = (d, hi) if gap < target else (lo, d)
            slope = lam * d * ((w0 + d) / (1.0 + w0 + d))
            step = 2.0 * (math.sqrt(gap) - sqrt_target) * (math.sqrt(gap) / slope)
            if not lo <= d - step <= hi:
                step = 0.5 * (d - (lo if d - step < lo else hi))
            if abs(step) <= 4.0 * sys.float_info.epsilon * d or not abs(step) < 0.5 * last:
                return d - step
            d, last = d - step, abs(step)

    def companion(self, w_minus: float) -> float:
        """Turning point w_+ in (w0, w_h) on the same energy level as w_minus.

        Solves F(w_+) = F(w_minus) in the offset from w0 by safeguarded
        Newton steps on the model's cancellation-free gap.  One ulp below a
        power-of-two center the offset is half an ulp of w0 above it, and
        w0 + offset rounds onto w0 itself, so w_+ is at least the next double
        above w0.
        """
        w0 = self.w0
        if not sys.float_info.min <= w_minus < w0:
            raise DomainError(f"w_minus must be a normal double in (0, w0) = (0, {w0:g}); got {w_minus!r}")
        return max(w0 + self._offset(w_minus), math.nextafter(w0, math.inf))

    def time_map(self, w_minus: float) -> TimeMapSample:
        """Half-period map at the left turning point w_minus in (0, w0)."""
        w_plus = self.companion(w_minus)
        return TimeMapSample(w_minus, w_plus, self._half_orbit_time(w_minus) + self._half_orbit_time(w_plus))

    def _gap_over_x(self, w_end: float):
        """(A, G) with F(w_end) - F(w) = lam x G(x) at x = |w - w_end| from the
        turning point w_end, and A = G(0).

        With Delta = w_end - w0 and s = +1 on the left half, -1 on the right,
        G = A - x/2 + s (1 + w0)/(1 + w_end) r(s x/(1 + w_end)), with
        A = w_end |Delta|/(1 + w_end) and r = w_minus_log1p_over_w.  No term
        cancels (their sum loses about log10(1/w0) digits for small w0), and
        w_end enters itself: w0 + Delta would round a near-saddle turning
        point to an ulp of w0, which the divergent time map amplifies.
        """
        delta = w_end - self.w0
        base = 1.0 + w_end
        a = abs(delta) * (w_end / base)
        scale = (1.0 if delta < 0.0 else -1.0) / base
        weight = (1.0 + self.w0) * scale
        return a, lambda x: a - 0.5 * x + weight * w_minus_log1p_over_w(scale * x)

    def _half_orbit_time(self, w_end: float) -> float:
        """Travel time from the center ordinate to the turning point w_end.

        The gap F(w_end) - F(w) is lam x G(x) (see _gap_over_x), and
        G = A + C x + O(x^2), C = ((1 + w0)/(1 + w_end)^2 - 1)/2, so as A -> 0
        the integrand spikes over a width A/C.  The sinh map (Johnston &
        Elliott, Int. J. Numer. Meth. Eng. 62, 2005) x = sigma sinh^2(t),
        sigma = A/(A/|Delta| + max(C, 0)), exact for a quadratic x G, leaves
        sqrt(2 sigma/(lam G)) cosh(t), nearly constant on
        [0, asinh(sqrt(|Delta|/sigma))]; each step stays in the double range
        for w_end down to the smallest normal double.
        """
        span = abs(w_end - self.w0)
        base = 1.0 + w_end
        a, gap_over_x = self._gap_over_x(w_end)
        c = 0.5 * ((1.0 + self.w0) / (base * base) - 1.0)
        root = math.sqrt(a / (w_end / base + max(c, 0.0)))

        def integrand(t):
            rx = root * np.sinh(t)
            return np.cosh(t) / np.sqrt(gap_over_x(rx * rx))

        t_end = math.asinh(math.sqrt(span) / root)
        return root * math.sqrt(2.0 / self.p.lam) * adaptive_gauss(integrand, 0.0, t_end)


def homoclinic_extent(p: ModelParams) -> float:
    """Unique w_h > w0 with F(w_h) = 0, bounding the periodic family."""
    return PhasePlane(p).w_h


def time_map_center(p: ModelParams) -> float:
    """Center limit pi / sqrt(f'(w0)), f'(w0) = lam w0/(1 + w0), of the half-period map;
    lam (1 - d lam/(b mu)) would cancel to an error of eps/w0 as w0 -> 0."""
    w0 = w0_const(p)  # validates the phase-plane domain
    return math.pi / math.sqrt(p.lam * w0 / (1.0 + w0))


def time_map(w_minus: float, p: ModelParams) -> TimeMapSample:
    """Half-period map evaluated at the left turning point w_minus in (0, w0)."""
    return PhasePlane(p).time_map(w_minus)


def ab_certify(p: ModelParams) -> ABReport:
    """Check the pointwise inequalities behind the time-map monotonicity.

    On 10,000 evenly spaced points of [0, w_h]: f' f''' - (5/3) f''^2 < 0
    past the critical point alpha = sqrt(1 + w0) - 1 = w0/(1 + sqrt(1 + w0)) of
    f', and f f'' - 3 f'^2 <= 0 up to alpha; also that f' has only the simple
    zero alpha in (0, w_h).  Violations are reported, never raised.
    """
    w_h = homoclinic_extent(p)  # validates the phase-plane domain
    w0 = w0_const(p)
    alpha = w0 / (1.0 + math.sqrt(1.0 + w0))
    grid = np.linspace(0.0, w_h, 10_000)

    fp = kinetic_df(grid, p)
    a_expr = fp * kinetic_d3f(grid, p) - (5.0 / 3.0) * kinetic_d2f(grid, p) ** 2
    b_expr = kinetic_f(grid, p) * kinetic_d2f(grid, p) - 3.0 * fp * fp

    above = grid > alpha
    below = grid <= alpha
    a_margin = float(np.max(a_expr[above])) if np.any(above) else -math.inf
    b_margin = float(np.max(b_expr[below])) if np.any(below) else -math.inf
    a_ok = a_margin < 0.0
    b_ok = b_margin <= 0.0

    inner = (grid > 0.0) & (grid < w_h)
    neg_side = fp[inner & (grid < alpha)]
    pos_side = fp[inner & (grid > alpha)]
    simple = (
        bool(np.all(neg_side < 0.0))
        and bool(np.all(pos_side > 0.0))
        and float(kinetic_d2f(alpha, p)) > 0.0
    )
    return ABReport(alpha, a_ok, b_ok, max(a_margin, b_margin), simple)


def monotone_check(p: ModelParams, grid) -> bool:
    """True iff T strictly decreases along the ascending grid in (0, w0)."""
    plane = PhasePlane(p)
    w0 = plane.w0
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("grid must be a 1-d array with at least two points")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid must ascend strictly")
    if not (grid[0] > 0.0 and grid[-1] < w0):
        raise DomainError(f"grid must lie inside (0, w0) = (0, {w0:g})")
    times = np.asarray([plane.time_map(w).T for w in grid])
    return bool(np.all(np.diff(times) < 0.0))
