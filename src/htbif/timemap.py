"""Phase-plane quantities of the limit problem: the homoclinic extent, the
companion turning point, the half-period time map and its center limit, and
the closed-form certification of the kinetic term's monotonicity conditions.

The half-period map for an orbit with turning points w_- < w0 < w_+ is

    T(w_-) = int_{w_-}^{w0} dw / sqrt(2 [F(w_-) - F(w)])
           + int_{w0}^{w_+} dw / sqrt(2 [F(w_+) - F(w)]),

a pair of integrals with square-root turning-point singularities.  Both
halves take one integrand in the distance x = |w - w_end| from the turning
point, with the model's cancellation-free gap F(w_end) - F(w), TurningGap,
for every w0 in the double range.  Near the saddle that gap is linear in x
only over a vanishing width, and the substitution
x = sigma sinh^2(t), exact for a quadratic gap, turns the endpoint singularity
and the logarithmic spike alike into a nearly constant integrand for adaptive
Gauss-Legendre panels.  The two halves are one batch of the quadrature: each
half orbit's coefficients are a row of a table the integrand reads, so a time
map makes one integrand call, holding both halves whole and bisected, plus
one per further refinement level.  The same quadrature runs for every w_- in
(0, w0), up to one ulp below the center, where it meets the center limit
pi/sqrt(f'(w0)) to rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import ModelParams, TurningGap, w0_const
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
    """Certificate for the time-map monotonicity conditions.

    alpha is the unique zero of f' in (0, w_h).  Margins are the suprema of
    the two defining expressions on their ranges, so negative margins
    certify the strict inequalities.  A margin below the double range reads
    -0.0; a_condition_ok reads the sign of its closed form, so it stays True.
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
        ulp = sys.float_info.epsilon * w0  # squared as a product: past w0 ~ 6e169, ** 2 raises OverflowError
        if not 0.5 * lam * w0 * q * ulp * ulp >= sys.float_info.min:
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
        the center, gap(d) = F(w0 + d) - F(w0) = lam d G(-d) with G the
        center's TurningGap, and gap = lam d (d/2 - r(q d)), 0 < r(y) < y/2 for
        y > 0, brackets d by lam w0 q d^2/2 < gap < lam d^2/2.
        Newton's method on sqrt(gap), with gap' = f(w0 + d) = lam d (w0 + d)/(1 + w0 + d),
        starts from the mirror offset w0 - w_minus, bisects any step that leaves
        the bracket, and stops on a step below 4 ulp of d or not under half the
        previous one: the gap's rounding is reached.
        """
        w0, q, lam = self.w0, self.q, self.p.lam
        span = w0 - w_minus
        target = lam * span * TurningGap.at(w0, w_minus).over_x(span)
        right = TurningGap.at(w0, w0)
        sqrt_target = math.sqrt(target)
        lo = sqrt_target * math.sqrt(2.0 / lam)
        hi = lo / math.sqrt(w0 * q)
        d, last = min(max(span, lo), hi), math.inf
        while True:
            gap = lam * d * right.over_x(-d)
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
        left, right = self._half_orbit_times(w_minus, w_plus)
        return TimeMapSample(w_minus, w_plus, left + right)

    def _half_orbit_times(self, *w_ends: float) -> list[float]:
        """Travel times from the center ordinate to each turning point w_end,
        integrated as one batch.

        The gap F(w_end) - F(w) is lam x G(x) with G = A + C x + O(x^2) (the
        model's TurningGap), so as A -> 0 the integrand spikes over a width
        A/C.  The sinh map (Johnston & Elliott, Int. J. Numer. Meth. Eng. 62,
        2005) x = sigma sinh^2(t), sigma = A/(A/|Delta| + max(C, 0)), exact
        for a quadratic x G, leaves sqrt(2 sigma/(lam G)) cosh(t), nearly
        constant on [0, asinh(sqrt(|Delta|/sigma))]; each step stays in the
        double range for w_end down to the smallest normal double.  Each half
        orbit is one row (sqrt(sigma), A, C, weight, scale) of the table the
        integrand reads.
        """
        rows, ends = [], []
        for w_end in w_ends:
            gap = TurningGap.at(self.w0, w_end)
            root = math.sqrt(gap.a / (w_end / (1.0 + w_end) + max(gap.c, 0.0)))
            rows.append((root, *gap))
            ends.append(math.asinh(math.sqrt(abs(w_end - self.w0)) / root))
        table = np.array(rows)

        def integrand(t, which):
            root, *gap = table[which].T[:, :, None]
            rx = root * np.sinh(t)
            return np.cosh(t) / np.sqrt(TurningGap(*gap).over_x(rx * rx))

        times = adaptive_gauss(integrand, [0.0] * len(ends), ends)
        return [root * math.sqrt(2.0 / self.p.lam) * time for (root, *_), time in zip(rows, times)]


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
    """Certify the inequalities behind the time-map monotonicity (the A-B
    conditions of Schaaf, LNM 1458, 1990) from their closed forms.

    With y = 1 + w, y0 = 1 + w0, B = b mu/d = lam y0 and s = sqrt(y0):
    f' = lam (y^2 - y0)/y^2 has the one zero alpha = s - 1 = w0/(1 + s), and
    f'' = 2 B/y^3 > 0 there, so the zero is simple.  f' f''' - (5/3) f''^2
    = -6 B lam/y^4 - (2/3) B^2/y^6 rises with y, so its supremum past alpha
    is its value at w_h.  f f'' - 3 f'^2 = lam^2 N(y)/y^4 with
    N = 2 (y - 1) y0 (y - y0) - 3 (y^2 - y0)^2, and (N/y^4)' =
    2 y0 (-8 y^2 + 3 (1 + y0) y + 2 y0)/y^5, whose concave quadratic is 5 w0
    at y = 1 and 3 s (s - 1)^2 at y = s: N/y^4 rises on [1, s], so the
    supremum up to alpha is lam^2 N(s)/s^4 = -2 lam^2 alpha^2/(1 + alpha).
    The margins are the two suprema.  Both terms of the first are negative when
    lam, B > 0, so that sign, not the value that may underflow, decides the A
    condition.  Violations are reported, never raised.
    """
    w_h = homoclinic_extent(p)  # validates the phase-plane domain
    w0 = w0_const(p)
    lam, bmu_d = p.lam, p.bmu_over_d
    alpha = w0 / (1.0 + math.sqrt(1.0 + w0))
    y2 = (1.0 + w_h) * (1.0 + w_h)
    a_margin = -(bmu_d / y2) * (6.0 * lam + (2.0 / 3.0) * bmu_d / y2) / y2
    b_margin = -2.0 * (lam * alpha) * (lam * alpha) / (1.0 + alpha)
    return ABReport(alpha, lam > 0.0 and bmu_d > 0.0, b_margin <= 0.0, max(a_margin, b_margin), 0.0 < alpha < w_h)


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
