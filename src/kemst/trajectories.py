"""Single-point motions over a finite horizon.

A trajectory maps time t in [0, T] to a point in R^d. Three kinds are
supported:

* ``polynomial`` -- one power-basis coefficient list per coordinate,
* ``rational`` -- per coordinate, a sum of numerator/denominator pairs
  (kept as separate additive terms so bump-shaped motions evaluate
  without catastrophic cancellation),
* ``scripted`` -- an ordered list of linear or circular-arc segments
  that tile [0, T].

`Trajectory.at` is the one evaluator: a float t gives one position, an
array of instants one row per instant, each row the float answer bit for
bit. All arithmetic is plain binary64.
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
    array entry equals the scalar result for that t bit for bit. A scenario's
    compiled tensor passes arrays as coefficients; they broadcast against t.
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


def _clamp_times(ts, horizon: float):
    """`Trajectory.at`'s domain check (DomainError, NaN included) and clamp
    min(max(t, 0.0), horizon) for a float or, entry by entry, a 1-D array;
    ParameterError for an array of more than one dimension."""
    if isinstance(ts, float):
        if not -1e-12 <= ts <= horizon + 1e-12:
            raise DomainError(f"t={ts} outside [0, {horizon}]")
        return min(max(ts, 0.0), horizon)
    if ts.ndim != 1:
        raise ParameterError(f"instants must be a float or a 1-D array, got shape {ts.shape}")
    inside = (-1e-12 <= ts) & (ts <= horizon + 1e-12)
    if not inside.all():
        raise DomainError(f"t={float(ts[np.argmin(inside)])} outside [0, {horizon}]")
    ts = np.where(0.0 > ts, 0.0, ts)
    return np.where(horizon < ts, horizon, ts)


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
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError("horizon must be positive and finite")
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
            if np.linalg.norm(a.at(a.t1) - b.at(b.t0)) > 1e-7:
                raise ParameterError("scripted segments must be continuous")

    def at(self, t) -> np.ndarray:
        """Position at a float t, shape (dim,), or at a 1-D array of instants,
        shape (len(t), dim), row i equal to `at(float(t[i]))` bit for bit.
        DomainError if an instant lies outside [0, horizon], ParameterError
        for an array of more than one dimension.

        Polynomial and rational kinds run the same Horner steps on either
        input, an array in one pass; rational terms are added left to right
        from 0.0, not by `sum`, which compensates float sums from Python
        3.12. Scripted kinds clamp an array once and then evaluate it instant
        by instant: numpy's vectorised cos/sin need not match `math`'s.
        """
        many = not isinstance(t, float) and np.ndim(t) > 0
        t = _clamp_times(np.asarray(t, dtype=float) if many else float(t), self.horizon)
        if self.kind == "scripted":
            if many:
                rows = [self._segment_for(s).at(s) for s in t.tolist()]
                out = np.array(rows).reshape(len(t), self.dim)
            else:
                out = self._segment_for(t).at(t)
        else:
            if self.kind == "polynomial":
                cols = [polyval(c, t) for c in self.coeffs]
            else:
                cols = []
                for coord_terms in self.terms:
                    acc = 0.0
                    for num, den in coord_terms:
                        acc = acc + polyval(num, t) / polyval(den, t)
                    cols.append(acc)
            out = np.stack(cols, axis=1) if many else np.array(cols, dtype=float)
        return np.clip(out, 0.0, 1.0) if self.clamp_unit else out

    def _segment_for(self, t):
        # Segments are few (tens at most); linear scan is fine.
        for seg in self.segments:
            if t <= seg.t1 + _CONTINUITY_TOL:
                return seg
        return self.segments[-1]


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
    cur[0] += 1.0
    return tuple(cur / 2.0)


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
