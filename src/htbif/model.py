"""Model parameters, coefficient functions, and the scalar kinetics of the
large-saturation limit problem.

The limit equation on (0, 1) with no-flux boundary conditions is

    -w'' = f(w),    f(w) = lam*w - (b*mu/d) * w/(1+w),

whose unique constant positive solution is w0 = b*mu/(d*lam) - 1.  The phase
plane carries the potential F with F' = f and total energy z^2/2 + F(w).
The integer rule every layer applies to counts (whole) and the grid-size
rule (grid_points) live here.  All operations are pure; values are
immutable after construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "CoeffFn",
    "ModelParams",
    "Profile",
    "TurningGap",
    "grid_points",
    "kinetic_f",
    "potential_F",
    "potential_gap",
    "w0_const",
    "whole",
]


@dataclass(frozen=True, eq=False)
class CoeffFn:
    """Non-negative coefficient function on [0, 1].

    Either a constant or a piecewise-linear interpolant of samples.  Sampled
    form requires strictly ascending abscissae covering [0, 1] exactly and at
    least one strictly positive value.
    """

    value: float | None = None
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    def __post_init__(self):
        if (self.value is None) == (self.xs is None):
            raise DomainError("CoeffFn must be either constant or sampled")
        if self.value is not None:
            v = float(self.value)
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"constant coefficient must be finite and >= 0, got {v!r}")
            object.__setattr__(self, "value", v)
            return
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise DomainError("sampled coefficient needs matching 1-d xs, ys with >= 2 samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DomainError("coefficient samples must be finite")
        if xs[0] != 0.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0.0):
            raise DomainError("xs must ascend strictly from 0 to 1")
        if np.any(ys < 0.0):
            raise DomainError("coefficient values must be >= 0")
        if not np.any(ys > 0.0):
            raise DomainError("coefficient must not be identically zero")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def constant(cls, value: float) -> "CoeffFn":
        return cls(value=value)

    @classmethod
    def sampled(cls, xs, ys) -> "CoeffFn":
        return cls(xs=xs, ys=ys)

    @classmethod
    def from_csv(cls, path) -> "CoeffFn":
        """Load a sampled coefficient from two-column CSV (x, value).

        A single header row is tolerated; UTF-8, LF or CRLF line endings.
        A file that cannot be read as text is a DomainError naming its path.
        """
        xs: list[float] = []
        ys: list[float] = []
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise DomainError(f"cannot read coefficient file {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise DomainError(f"coefficient file {path} is not UTF-8 text") from None
        for row in rows:
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if not xs:  # header
                    continue
                raise DomainError(f"malformed coefficient row {row!r} in {path}")
            xs.append(x)
            ys.append(y)
        if len(xs) < 2:
            raise DomainError(f"coefficient file {path} has fewer than 2 samples")
        return cls.sampled(np.asarray(xs), np.asarray(ys))

    @classmethod
    def from_spec(cls, spec: str) -> "CoeffFn":
        """Parse ``const:<v>`` or ``csv:<path>``; DomainError naming the spec
        or the path when it does not give a coefficient."""
        kind, _, rest = spec.partition(":")
        if kind == "const" and rest:
            try:
                value = float(rest)
            except ValueError:
                raise DomainError(f"coefficient spec {spec!r} needs a number after 'const:'") from None
            return cls.constant(value)
        if kind == "csv" and rest:
            return cls.from_csv(Path(rest))
        raise DomainError(f"coefficient spec must be 'const:<v>' or 'csv:<path>', got {spec!r}")

    @property
    def is_constant(self) -> bool:
        return self.value is not None

    def __call__(self, x):
        if self.value is not None:
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, self.value)
            return out if out.ndim else float(out)
        out = np.interp(np.asarray(x, dtype=float), self.xs, self.ys)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All scalar model parameters plus the two spatial coefficients.

    ``eps`` is the inverse saturation rate; eps = 0 is the limit system and
    the saturation rate 1/eps is never stored separately.  b and d must be
    positive.  lam and mu are unrestricted here; operations on the limit
    problem enforce mu > 0 and lam in (0, b*mu/d) themselves.
    """

    b: float = 1.0
    d: float = 1.0
    lam: float = 25.0
    mu: float = 50.0
    eps: float = 0.0
    coeff_a: CoeffFn = CoeffFn.constant(1.0)
    coeff_c: CoeffFn = CoeffFn.constant(1.0)

    def __post_init__(self):
        for name in ("b", "d", "lam", "mu", "eps"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise DomainError(f"b must be a positive real, got {self.b!r}")
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise DomainError(f"d must be a positive real, got {self.d!r}")
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise DomainError(f"eps must be a finite non-negative real, got {self.eps!r}")
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise DomainError("lam and mu must be finite")
        for nm, c in (("coeff_a", self.coeff_a), ("coeff_c", self.coeff_c)):
            if not isinstance(c, CoeffFn):
                raise DomainError(f"{nm} must be a CoeffFn")

    @property
    def bmu_over_d(self) -> float:
        """Upper end b*mu/d of the admissible lam window."""
        return self.b * self.mu / self.d

    def with_lam(self, lam: float) -> "ModelParams":
        return ModelParams(self.b, self.d, lam, self.mu, self.eps, self.coeff_a, self.coeff_c)

    def with_eps(self, eps: float) -> "ModelParams":
        return ModelParams(self.b, self.d, self.lam, self.mu, eps, self.coeff_a, self.coeff_c)


def whole(value, lowest: int, what: str) -> int:
    """value as an int, once it is an integer >= lowest; DomainError naming
    ``what`` otherwise.  The range test comes first, so NaN and inf fail it
    before int() can raise on them."""
    if not lowest <= value < math.inf or int(value) != value:
        raise DomainError(f"{what} must be an integer >= {lowest}, got {value!r}")
    return int(value)


def grid_points(n_points) -> int:
    """n_points as an int, once it is an odd integer >= 3: then x = 1/2 is a
    node of the closed uniform grid, so midpoint symmetry checks are exact."""
    n = whole(n_points, 3, "n_points")
    if n % 2 != 1:
        raise DomainError(f"n_points must be an odd integer >= 3, got {n_points!r}")
    return n


@dataclass(frozen=True, eq=False)
class Profile:
    """Samples of a function on the closed uniform grid of [0, 1], of a size grid_points accepts."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1:
            raise DomainError(f"Profile needs a 1-d array, got {arr.ndim} dimensions")
        grid_points(arr.size)
        if not np.all(np.isfinite(arr)):
            raise DomainError("Profile values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, value: float, n_points: int) -> "Profile":
        return cls(np.full(grid_points(n_points), float(value)))

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return 1.0 / (self.values.size - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def sup_distance(self, other: "Profile") -> float:
        if other.n_points != self.n_points:
            raise DomainError("profiles live on different grids")
        return float(np.max(np.abs(self.values - other.values)))


def _as_checked(w):
    arr = np.asarray(w, dtype=float)
    # min() and max() propagate NaN, so two reductions reject NaN, +-inf and w <= -1
    if arr.size and not (arr.min() > -1.0 and arr.max() < math.inf):
        raise DomainError("argument must satisfy w > -1")
    return arr


def _ret(arr):
    return arr if arr.ndim else float(arr)


def w0_const(p: ModelParams) -> float:
    """Constant positive steady state b*mu/(d*lam) - 1 of the limit problem, formed as
    (b*mu - d*lam)/(d*lam), which rounds only once for b = d = 1 and lam >= mu/2."""
    if not p.mu > 0.0:
        raise DomainError(f"constant state requires mu > 0, got mu = {p.mu!r}")
    hi = p.bmu_over_d
    if not 0.0 < p.lam < hi:
        raise DomainError(
            f"constant positive state exists only for lam in (0, b*mu/d) = (0, {hi:g}); got lam = {p.lam!r}"
        )
    return (p.b * p.mu - p.d * p.lam) / (p.d * p.lam)


def kinetic_f(w, p: ModelParams):
    """Kinetic term f(w) = lam*w - (b*mu/d) * w/(1+w), for w > -1."""
    w = _as_checked(w)
    return _ret(p.lam * w - p.bmu_over_d * w / (1.0 + w))


# 1/3, 1/5, ..., 1/21: P(v) = 1/3 + v/5 + ..., atanh(u) = u + u^3 P(u^2)
_ATANH_TAIL = tuple(1.0 / (2 * k + 1) for k in range(1, 11))


def _atanh_tail_term(u):
    """2 u^2 P(u^2) = (2 atanh(u) - 2u)/u, with the ten terms of P: below 1e-19
    relative truncation for |u| <= 1/7, which u = y/(2 + y) keeps at |y| <= 1/4."""
    v = u * u
    tail = _ATANH_TAIL[-1]
    for c in _ATANH_TAIL[-2::-1]:
        tail = tail * v + c
    return 2.0 * v * tail


def potential_F(w, p: ModelParams):
    """Potential energy F(w) = (lam/2) w^2 - (b*mu/d) [w - ln(1+w)], F' = f, for w > -1, as
    the gap below the saddle -lam w G(w), G = TurningGap.at(w0, 0).over_x: near the
    saddle its two terms, which cancel like w0, are not formed.  Requires lam in (0, b*mu/d)."""
    w = _as_checked(w)
    return _ret(-p.lam * w * TurningGap.at(w0_const(p), 0.0).over_x(w))


def potential_gap(delta, p: ModelParams):
    """Shifted potential F(w0 + delta) - F(w0), without cancellation as delta -> 0:
    the gap below the center taken as a turning point, lam delta G(-delta) with
    G = TurningGap.at(w0, w0).over_x.  Requires lam in (0, b*mu/d).
    """
    w0 = w0_const(p)
    delta = np.asarray(delta, dtype=float)
    if np.any(delta <= -(1.0 + w0)):
        raise DomainError("delta must keep w0 + delta > -1")
    return _ret(p.lam * delta * TurningGap.at(w0, w0).over_x(-delta))


class TurningGap(NamedTuple):
    """The potential below a turning point w_end of the plane with center w0:
    F(w_end) - F(w) = lam x G(x) at the distance x = |w - w_end|, for w on
    the center's side of w_end (x < 0 reaches the other side).

    With Delta = w_end - w0 and s = +1 left of the center, -1 otherwise,
    A = G(0) = w_end |Delta|/(1 + w_end), C = G'(0) =
    (-Delta/(1 + w_end) - w_end)/(2 (1 + w_end)), scale = s/(1 + w_end) and
    weight = (1 + w0) scale.  w_end enters itself: w0 + Delta would round a
    near-saddle turning point to an ulp of w0, which the divergent time map
    amplifies.  The fields are floats, or arrays that broadcast against x.
    """

    a: float
    c: float
    weight: float
    scale: float

    @classmethod
    def at(cls, w0: float, w_end: float) -> "TurningGap":
        delta = w_end - w0
        base = 1.0 + w_end
        scale = (1.0 if delta < 0.0 else -1.0) / base
        return cls(abs(delta) * (w_end / base), (-delta / base - w_end) / (2.0 * base), (1.0 + w0) * scale, scale)

    def over_x(self, x):
        """G(x) = A - x/2 + weight r(y), r(y) = (y - log1p(y))/y at y = scale x.

        For |y| <= 1/4 it is A + C x - weight y^2 k(y), from r(y) = y/2 - y^2 k(y)
        with y^2 k(y) = (y^2/2 + 2u^2 P(u^2))/(2 + y), u = y/(2 + y) and the
        ten terms of P in _ATANH_TAIL: the terms -x/2 and weight y/2, each
        about 1/w0 times G for small w0, are not formed.  Larger |y| keep the
        first form, where C x and weight y/2 would cancel like w0 near the
        saddle.  A Python float takes one branch by a plain test, with the
        array branch's terms (negated where the array's are), bit for bit.
        """
        a, c, weight, scale = self
        y = scale * x
        if isinstance(y, float):
            if abs(y) <= 0.25:
                t = 2.0 + y
                return a + c * x - weight * ((0.5 * y * y + _atanh_tail_term(y / t)) / t)
            return a - 0.5 * x - weight * float((np.log1p(y) - y) / y)
        small = np.abs(y) <= 0.25
        t = 2.0 + y
        num = np.where(small, 0.5 * y * y + _atanh_tail_term(y / t), np.log1p(y) - y)
        return a + np.where(small, c, -0.5) * x - weight * (num / np.where(small, t, y))
