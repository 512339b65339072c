"""Single-point motions over a finite horizon.

A trajectory maps time t in [0, T] to a point in R^d. Three kinds are
supported:

* ``polynomial`` -- one power-basis coefficient list per coordinate,
* ``rational`` -- per coordinate, a sum of numerator/denominator pairs
  (kept as separate additive terms so bump-shaped motions evaluate
  without catastrophic cancellation),
* ``scripted`` -- an ordered list of linear or circular-arc segments
  that tile [0, T].

All arithmetic is plain binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedKindError

_CONTINUITY_TOL = 1e-9


def polyval(coeffs, t):
    """Horner evaluation of ascending power-basis coefficients.

    A float t (Python float or np.float64) takes the scalar path, which
    skips numpy's dimension dispatch: it is the hot path of single-instant
    evaluation. Anything else is evaluated elementwise as an array. Both
    paths run the same multiply-then-add steps in the same order, so an
    array entry equals the scalar result for that t bit for bit.
    """
    acc = 0.0
    if not isinstance(t, float) and np.ndim(t) > 0:
        acc = np.zeros_like(np.asarray(t, dtype=float))
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def polyder(coeffs):
    """Coefficients of the derivative (ascending power basis)."""
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


@dataclass(frozen=True)
class LinearSegment:
    t0: float
    t1: float
    start: tuple[float, ...]
    end: tuple[float, ...]

    def at(self, t):
        u = 0.0 if self.t1 == self.t0 else (t - self.t0) / (self.t1 - self.t0)
        s = np.asarray(self.start, dtype=float)
        e = np.asarray(self.end, dtype=float)
        return s + u * (e - s)

    def position(self, which):
        return np.asarray(self.start if which == 0 else self.end, dtype=float)


@dataclass(frozen=True)
class ArcSegment:
    """Constant-angular-rate motion on a circle (2-D only)."""

    t0: float
    t1: float
    center: tuple[float, float]
    radius: float
    angle0: float
    angle1: float

    def at(self, t):
        u = 0.0 if self.t1 == self.t0 else (t - self.t0) / (self.t1 - self.t0)
        a = self.angle0 + u * (self.angle1 - self.angle0)
        cx, cy = self.center
        return np.array([cx + self.radius * math.cos(a), cy + self.radius * math.sin(a)])

    def position(self, which):
        a = self.angle0 if which == 0 else self.angle1
        cx, cy = self.center
        return np.array([cx + self.radius * math.cos(a), cy + self.radius * math.sin(a)])


@dataclass(frozen=True)
class Trajectory:
    """One point's motion over [0, horizon] in R^dim."""

    kind: str
    dim: int
    horizon: float
    coeffs: tuple[tuple[float, ...], ...] = ()
    terms: tuple[tuple[tuple[tuple[float, ...], tuple[float, ...]], ...], ...] = ()
    segments: tuple = ()
    clamp_unit: bool = field(default=False)

    def __post_init__(self):
        if self.horizon <= 0:
            raise ParameterError("horizon must be positive")
        if self.kind == "polynomial":
            if len(self.coeffs) != self.dim:
                raise ParameterError("need one coefficient list per coordinate")
        elif self.kind == "rational":
            if len(self.terms) != self.dim:
                raise ParameterError("need one term list per coordinate")
            self._check_denominators()
        elif self.kind == "scripted":
            self._check_segments()
        else:
            raise ParameterError(f"unknown trajectory kind {self.kind!r}")

    def _check_denominators(self):
        # Denominators must stay bounded away from zero on [0, T]; a dense
        # sign/magnitude scan is enough for the families built here.
        ts = np.linspace(0.0, self.horizon, 2049)
        for coord_terms in self.terms:
            for _num, den in coord_terms:
                vals = polyval(den, ts)
                if np.any(np.abs(vals) < 1e-12) or np.min(vals) * np.max(vals) < 0:
                    raise ParameterError("rational denominator vanishes on the horizon")

    def _check_segments(self):
        if not self.segments:
            raise ParameterError("scripted trajectory needs at least one segment")
        if abs(self.segments[0].t0) > _CONTINUITY_TOL:
            raise ParameterError("segments must start at t=0")
        if abs(self.segments[-1].t1 - self.horizon) > _CONTINUITY_TOL:
            raise ParameterError("segments must end at the horizon")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.t1 - b.t0) > _CONTINUITY_TOL:
                raise ParameterError("segments must tile the horizon without gaps")
            if np.linalg.norm(a.position(1) - b.position(0)) > 1e-7:
                raise ParameterError("scripted segments must be continuous")

    def at(self, t: float) -> np.ndarray:
        """Position at time t; raises DomainError outside [0, horizon].

        The single-instant path, for searches where each instant depends
        on the previous answer; a known list of instants goes to `sample`.
        """
        if not -1e-12 <= t <= self.horizon + 1e-12:
            raise DomainError(f"t={t} outside [0, {self.horizon}]")
        t = min(max(t, 0.0), self.horizon)
        if self.kind == "scripted":
            out = self._segment_for(t).at(t)
        else:
            out = np.array(self._columns(t), dtype=float)
        return np.clip(out, 0.0, 1.0) if self.clamp_unit else out

    def _columns(self, t):
        """Per-coordinate values of a polynomial or rational motion at t, a
        float or an array of instants already checked and clamped. The
        rational terms are summed in order from 0."""
        if self.kind == "polynomial":
            return [polyval(c, t) for c in self.coeffs]
        return [
            sum(polyval(num, t) / polyval(den, t) for num, den in coord_terms)
            for coord_terms in self.terms
        ]

    def _segment_for(self, t):
        # Segments are few (tens at most); linear scan is fine.
        for seg in self.segments:
            if t <= seg.t1 + _CONTINUITY_TOL:
                return seg
        return self.segments[-1]

    def sample(self, ts) -> np.ndarray:
        """Positions at a known list of times, shape (len(ts), dim).

        Polynomial and rational kinds are evaluated in one array pass
        (domain check, clamp to [0, horizon], array Horner, `clamp_unit`),
        which runs per entry the same operations as `at`, so row i equals
        `at(ts[i])` bit for bit. Scripted kinds call `at` per instant:
        their arcs use `math.cos`/`math.sin`, which numpy's vectorised
        versions need not match to the last bit.
        """
        ts = np.asarray(ts, dtype=float)
        if self.kind == "scripted":
            return np.array([self.at(float(t)) for t in ts]).reshape(len(ts), self.dim)
        inside = (-1e-12 <= ts) & (ts <= self.horizon + 1e-12)
        if not inside.all():
            t = float(ts[np.argmin(inside)])
            raise DomainError(f"t={t} outside [0, {self.horizon}]")
        # min(max(t, 0.0), horizon) per entry, keeping its choice on ties
        ts = np.where(0.0 > ts, 0.0, ts)
        ts = np.where(self.horizon < ts, self.horizon, ts)
        out = np.stack(self._columns(ts), axis=1)
        return np.clip(out, 0.0, 1.0) if self.clamp_unit else out


def constant(values, horizon: float) -> Trajectory:
    """A stationary point."""
    vals = tuple(float(v) for v in np.atleast_1d(values))
    return Trajectory(
        kind="polynomial",
        dim=len(vals),
        horizon=horizon,
        coeffs=tuple((v,) for v in vals),
    )


def linear(start, end, horizon: float) -> Trajectory:
    """Constant-velocity motion from start to end over [0, horizon]."""
    s = np.atleast_1d(np.asarray(start, dtype=float))
    e = np.atleast_1d(np.asarray(end, dtype=float))
    return Trajectory(
        kind="polynomial",
        dim=len(s),
        horizon=horizon,
        coeffs=tuple((si, (ei - si) / horizon) for si, ei in zip(s, e)),
    )


def unit_chebyshev_coeffs(s: int, horizon: float) -> tuple[float, ...]:
    """Degree-s Chebyshev motion mapped to range [0,1] and domain [0,horizon].

    The affine time map sends t=0 to the polynomial's argument 1, so the
    motion starts at 1.0 and sweeps the full unit range exactly s times.
    """
    if s < 1:
        raise ParameterError("degree must be >= 1")
    sub = np.array([1.0, -2.0 / horizon])  # argument 1 - 2t/T
    prev = np.array([1.0])
    cur = sub.copy()
    for _ in range(s - 1):
        nxt = np.convolve(cur, sub) * 2.0
        nxt[: len(prev)] -= prev
        prev, cur = cur, nxt
    mapped = cur if s >= 1 else prev
    mapped = mapped.copy()
    mapped[0] += 1.0
    return tuple(mapped / 2.0)


def max_speed(traj: Trajectory) -> float:
    """Largest per-coordinate |h'(t)| over the horizon, polynomial kind only.

    Exact up to rounding: each coordinate's derivative is extremised by
    `poly_extrema` (the horizon's ends and the real roots of the second
    derivative), and the larger magnitude of its min and max is taken.
    """
    if traj.kind != "polynomial":
        raise UnsupportedKindError("max_speed is defined for polynomial trajectories")
    best = 0.0
    for coord in traj.coeffs:
        lo, hi = poly_extrema(polyder(coord), traj.horizon)
        best = max(best, float(-lo), float(hi))
    return best


def poly_extrema(coeffs, horizon: float) -> tuple[float, float]:
    """Exact min/max of a univariate polynomial on [0, horizon].

    Critical points via companion-matrix roots of the derivative.
    """
    der = polyder(coeffs)
    candidates = [0.0, horizon]
    trimmed = np.trim_zeros(np.asarray(der, dtype=float), "b")
    if len(trimmed) > 1:
        roots = np.roots(trimmed[::-1])
        for r in roots:
            if abs(r.imag) < 1e-9 and -1e-12 <= r.real <= horizon + 1e-12:
                candidates.append(min(max(r.real, 0.0), horizon))
    vals = [polyval(coeffs, t) for t in candidates]
    return min(vals), max(vals)


def normalize_unit_range(coeffs, horizon: float) -> tuple[float, ...]:
    """Affinely rescale a polynomial so its range on [0, horizon] is [0, 1]."""
    lo, hi = poly_extrema(coeffs, horizon)
    if hi - lo < 1e-12:
        return (0.5,) + (0.0,) * (len(coeffs) - 1)
    scaled = tuple(c / (hi - lo) for c in coeffs)
    return (scaled[0] - lo / (hi - lo),) + scaled[1:]
