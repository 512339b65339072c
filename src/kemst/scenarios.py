"""Kinetic point sets: the input metric, displacement events, and the
construction-scenario generators (Chebyshev sweeps, rational bump relays,
circle spread/converge, diamond flow, vertical split).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError
from .spanning import PointConfig
from .trajectories import (
    ArcSegment,
    LinearSegment,
    Trajectory,
    _clamp_times,
    constant,
    polyval,
    unit_chebyshev_coeffs,
)

EVENT_GRID = 2048
EVENT_TIME_TOL = 1e-9


@dataclass(frozen=True)
class KineticScenario:
    """n trajectories sharing a horizon, plus regime parameters."""

    points: tuple[Trajectory, ...]
    k: float | None = None
    K: float | None = None
    morph_mode: str = "slide"
    label: str = "scenario"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.points) < 2:
            raise ParameterError("scenario needs at least 2 points")
        dims = {p.dim for p in self.points}
        horizons = {p.horizon for p in self.points}
        if len(dims) != 1 or len(horizons) != 1:
            raise ParameterError("all trajectories must share dimension and horizon")
        if self.morph_mode not in ("slide", "rotation"):
            raise ParameterError("morph_mode must be 'slide' or 'rotation'")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    @property
    def horizon(self) -> float:
        return self.points[0].horizon

    def positions(self, t: float) -> np.ndarray:
        """Positions at a float t, shape (n, d), from one float call of
        `Trajectory.at` per point; an array of instants goes to
        `positions_many`. `positions_many`, `input_distance` and the swap
        bisection read the same bits from the compiled tensor; this stays per
        point while `perfbench/tracer.py` requires per-point `at` and
        `polyval` calls on the cubic workloads, which come from here."""
        return np.array([p.at(t) for p in self.points])

    def positions_many(self, ts) -> np.ndarray:
        """Positions at a known list of instants, shape (len(ts), n, d), from
        `_compiled_positions`; entry i equals `positions(ts[i])` bit for bit."""
        return self._compiled_positions(np.asarray(ts, dtype=float))

    @functools.cached_property
    def _tensor(self):
        """Polynomial points compiled once: (rows, coef, clamp, others). coef
        is (D+1, len(rows), d), ascending, zero-padded to the top degree D; a
        padded Horner step keeps the accumulator at its start value +0.0, so
        `polyval` over coef is each point's own Horner bit for bit. clamp
        masks the `clamp_unit` rows (None if none), `others` the rest."""
        rows = [i for i, p in enumerate(self.points) if p.kind == "polynomial"]
        size = max([len(c) for i in rows for c in self.points[i].coeffs] + [1])
        coef = np.zeros((size, len(rows), self.dim))
        for r, i in enumerate(rows):
            for c, cs in enumerate(self.points[i].coeffs):
                coef[: len(cs), r, c] = cs
        coef.setflags(write=False)
        clamp = np.array([self.points[i].clamp_unit for i in rows], dtype=bool)
        others = [i for i, p in enumerate(self.points) if p.kind != "polynomial"]
        return np.array(rows, dtype=int), coef, clamp if clamp.any() else None, others

    def _compiled_positions(self, ts) -> np.ndarray:
        """`positions` at a float t, shape (n, d), or at an array of instants,
        shape (len(ts), n, d), bit for bit: polynomial points from one
        `polyval` over the compiled tensor, each other point from one
        `Trajectory.at` call on the same float or array. An instant outside
        the horizon raises DomainError."""
        ts = _clamp_times(ts, self.horizon)
        rows, coef, clamp, others = self._tensor
        vals = polyval(coef, ts if isinstance(ts, float) else ts[:, None, None])
        if clamp is not None:
            vals[..., clamp, :] = np.clip(vals[..., clamp, :], 0.0, 1.0)
        if not others:
            return vals
        out = np.empty(vals.shape[:-2] + (self.n, self.dim))
        out[..., rows, :] = vals
        for i in others:
            out[..., i, :] = self.points[i].at(ts)
        return out

    def config(self, t: float) -> PointConfig:
        return PointConfig(self.positions(t))

    def with_colors(self, colors) -> "KineticScenario":
        """Rebuild a split scenario around a different red/blue bipartition."""
        if self.meta.get("generator") != "split":
            raise ParameterError("color reassignment only applies to split scenarios")
        return gen_split(self.n, colors=colors, k=self.k, K=self.K)

    def is_unit_normalized(self) -> bool:
        """Every coordinate within [0, 1], to 1e-9, at 257 instants."""
        pos = self.positions_many(np.linspace(0.0, self.horizon, 257))
        return pos.size == 0 or not (pos.min() < -1e-9 or pos.max() > 1.0 + 1e-9)


def input_distance(sc: KineticScenario, t: float, t_other: float) -> float:
    """Largest single-point displacement between the two instants, from one
    `positions_many` call; DomainError from `_clamp_times` outside the horizon."""
    pos, pos_other = sc.positions_many([t, t_other])
    return float(np.max(np.linalg.norm(pos - pos_other, axis=1)))


def _displacement_sq_fn(traj: Trajectory, t_ref: float, k_sq: float):
    """||x(t) - x(t_ref)||^2 - k^2 as a function of a float t or of an array
    of instants (one value per instant); an array entry equals the float
    value at that instant bit for bit.

    Unclamped polynomial coordinates are evaluated in factored form (Horner
    per coordinate through `polyval`, then square and sum in coordinate
    order), the same steps on a float and on an array: expanding the
    squared-displacement polynomial would inflate coefficient magnitudes and
    cost ~6 digits of absolute accuracy near the horizon. Every other point
    takes its positions from `Trajectory.at` on the same float or array and
    sums the squared coordinate differences along the last axis.
    """
    if traj.kind == "polynomial" and not traj.clamp_unit:
        refs = [polyval(c, t_ref) for c in traj.coeffs]

        def fn(ts):
            acc = 0.0
            for coeffs, r in zip(traj.coeffs, refs):
                d = polyval(coeffs, ts) - r
                acc = acc + d * d
            return acc - k_sq

        return fn

    ref = traj.at(t_ref)
    return lambda ts: np.sum((traj.at(ts) - ref) ** 2, axis=-1) - k_sq


def _refine_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Ternary refinement of a bracketed local maximum of fn."""
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if fn(m1) < fn(m2):
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    return mid, float(fn(mid))


def _first_crossing(
    fn, lo: float, hi: float, tangent_tol: float, refine_cutoff: float
) -> float | None:
    """Earliest t in (lo, hi] with fn(t) >= 0.

    Sign-change scan on an EVENT_GRID-interval grid plus bisection for
    transversal crossings; local maxima above `refine_cutoff` are
    ternary-refined and count as events when they reach -tangent_tol, so
    touch events (the displacement grazing the budget sphere at a trajectory
    turn) are not missed. fn takes the grid as one array and the bisection
    and refinement points as floats; fn(lo) is assumed negative.
    """
    ts = np.linspace(lo, hi, EVENT_GRID + 1)
    vals = np.asarray(fn(ts))
    hits = np.flatnonzero(vals[1:] >= 0.0)
    stop = int(hits[0]) + 1 if len(hits) else len(vals) - 1

    best = None
    if tangent_tol > 0.0 and stop > 2:
        inner = vals[:stop]  # fn(lo) is a neighbour, so vals[1] is a candidate
        cand = (
            np.flatnonzero(
                (inner[1:-1] >= inner[:-2])
                & (inner[1:-1] >= inner[2:])
                & (inner[1:-1] >= refine_cutoff)
            )
            + 1
        )
        for j in cand:
            t_max, v_max = _refine_max(fn, ts[j - 1], ts[j + 1])
            if v_max >= -tangent_tol:
                best = t_max
                break

    if len(hits):
        a, b = ts[stop - 1], ts[stop]
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            if fn(m) >= 0.0:
                b = m
            else:
                a = m
        sharp = 0.5 * (a + b)
        if best is None or sharp < best:
            best = sharp
    if best is None and tangent_tol > 0.0 and vals[-1] >= -tangent_tol:
        best = hi  # crossing lands exactly on the window end
    return best


def _window_bound_fn(sc: KineticScenario, t_ref: float):
    """Certified reach bounds, for the displacement scan and for the swap
    bisection's cells (`morph._cell_radii`). Returns bound(upper), an array
    with one entry per point: at least the sum of squared coordinate
    displacements that `_displacement_sq_fn`'s fn computes in binary64,
    before subtracting k^2, at every float t in [t_ref, upper]; those
    displacements are differences of the floats `_compiled_positions` gives.
    Unclamped polynomial points get a finite bound, every other point +inf.
    Precondition: -1e-12 <= t_ref <= upper <= H for the horizon H >= 2e-12.
    The scan calls it with t_ref within 1e-12 of [0, H - 1e-9] and
    upper <= H, a swap cell with grid instants 0 <= t_ref < upper <= H.

    Coordinate c moves by sum_{j>=1} b_j u^j at t = t_ref + u, where b_j
    are the coefficients of its Taylor shift to t_ref, so over a window of
    width w = upper - t_ref it moves at most sum_{j>=1} |b_j| w^j, and the
    bound is sum_c (sum_{j>=1} |b_j| w^j + margin_c)^2.

    The coefficients are the unclamped rows of `sc._tensor`, built once.

    margin_c covers rounding. Let u = 2^-53, gamma_m = m u / (1 - m u),
    D the tensor's padded degree, d the dimension, H the horizon and
    P_c = sum_j |c_j| (2H)^j. By the precondition |t|, |t_ref| and
    |t_ref| + w are at most 2H.
    - fn's Horner at t and at t_ref: 2D roundings each, each value off by
      at most gamma_2D P_c (Higham, Accuracy and Stability, 5.1).
    - The synthetic division takes each term of b_j through at most 3D
      roundings, so sum_j |b_j - exact b_j| w^j <= gamma_3D P_c, since
      sum_j sum_i C(i,j) |c_i| |t_ref|^(i-j) w^j = sum_i |c_i| (|t_ref| + w)^i.
      The same identity keeps the reach sum_j |b_j| w^j below 2 P_c.
    - Relative errors on quantities below 2 P_c: fn's subtraction (1),
      w = fl(upper - t_ref) (D), the reach's Horner (2D), and fn's sum of
      squares against the bound's own squares, sum and margin (4d + 1):
      at most gamma_(2(3D + 4d + 2)) P_c.
    In all gamma_(13D + 8d + 4) P_c; m = 16 (D + d + 1) covers it and the
    shortfall of the computed P_c (2D + 2 roundings).
    """
    n, horizon = sc.n, sc.horizon
    idx, coef, clamp, _others = sc._tensor
    if clamp is not None:
        idx, coef = idx[~clamp], coef[:, ~clamp]
    if not len(idx):
        return lambda upper: np.full(n, np.inf)
    deg, dim = len(coef) - 1, sc.dim
    shifted = coef.copy()
    for i in range(deg):  # repeated synthetic division by (t - t_ref)
        for j in range(deg - 1, i - 1, -1):
            shifted[j] += t_ref * shifted[j + 1]
    steps = np.abs(shifted)
    size = np.zeros(coef.shape[1:])
    for j in range(deg, -1, -1):
        size = size * (2.0 * horizon) + np.abs(coef[j])
    m = 16 * (deg + dim + 1)
    margin = m * 2.0**-53 / (1.0 - m * 2.0**-53) * size

    def bound(upper: float) -> np.ndarray:
        w = upper - t_ref
        reach = np.zeros(coef.shape[1:])
        for j in range(deg, 0, -1):
            reach = (reach + steps[j]) * w
        out = np.full(n, np.inf)
        out[idx] = np.sum((reach + margin) ** 2, axis=1)
        return out

    return bound


def _budget_square(k: float) -> float:
    """k * k for a positive, finite budget k whose square is finite and whose
    touch tolerance 1e-9 * k * k is nonzero (k in about [5e-158, 1.34e154])."""
    if not math.isfinite(k) or k <= 0:
        raise ParameterError("displacement budget k must be positive and finite")
    k_sq = k * k
    if math.isinf(k_sq) or 1e-9 * k_sq == 0.0:
        raise ParameterError(f"displacement budget k={k!r} is out of range for k * k")
    return k_sq


def next_displacement_event(
    sc: KineticScenario, t_ref: float, k: float
) -> float | None:
    """Earliest t > t_ref at which some point has moved distance k since t_ref.

    An event landing exactly on the horizon counts, and so does a
    tangential touch of the budget sphere (the displacement reaching k
    with zero derivative, as happens at trajectory turning points).
    Every kind is searched the same way, point by point: the squared
    displacement minus k^2 is sampled on an EVENT_GRID-interval grid over
    (t_ref, earliest hit so far], the first sign change is bisected, and
    grid-local maxima are ternary-refined to catch touches. Polynomial
    coordinates are evaluated in factored (Horner) form; there is no root
    isolation, so a crossing is found only where a grid sample or a refined
    local maximum reaches it.

    Unclamped polynomial points whose certified bound (`_window_bound_fn`)
    keeps the computed squared displacement minus k^2 below the touch
    tolerance over the whole window are skipped without a scan. Every
    value the scan would compute (grid samples, bisection and refinement
    points, the window end) is then below that tolerance, so the scan
    would return nothing and the result is the same bit for bit. The
    bounds are recomputed each time the earliest hit shrinks the window.
    Rational, scripted and clamped points are always scanned.
    """
    k_sq = _budget_square(k)
    if not -1e-12 <= t_ref <= sc.horizon + 1e-12:
        raise DomainError(f"t_ref={t_ref} outside [0, {sc.horizon}]")
    hi = sc.horizon
    if hi - t_ref <= EVENT_TIME_TOL:
        return None
    best = None
    tangent_tol = 1e-9 * k_sq
    refine_cutoff = -0.5 * k_sq
    window_bound = _window_bound_fn(sc, t_ref)
    # fl(x - k_sq) is monotone in x, so bound - k_sq < -tangent_tol as
    # computed implies fn(t) < -tangent_tol as computed.
    silent = window_bound(hi) - k_sq < -tangent_tol
    for i, traj in enumerate(sc.points):
        if silent[i]:
            continue
        fn = _displacement_sq_fn(traj, t_ref, k_sq)
        upper = best if best is not None else hi
        t_hit = _first_crossing(fn, t_ref, upper, tangent_tol, refine_cutoff)
        if t_hit is not None and (best is None or t_hit < best):
            best = t_hit
            silent = window_bound(best) - k_sq < -tangent_tol
    return best


# ---------------------------------------------------------------------------
# construction scenarios
# ---------------------------------------------------------------------------

# Generator registry: name -> generator function. Each function's `params`
# maps the scenario parameters that files and the command line pass to it
# onto (type, required); a parameter left None takes the generator's own
# default. Split's `colors` is a list and so comes from files only.
GENERATORS: dict = {}


def _generator(name: str, **params):
    def register(fn):
        fn.params = params
        GENERATORS[name] = fn
        return fn

    return register


@_generator("chebyshev", s=(int, True), n=(int, True), T=(float, False))
def gen_chebyshev(s: int, n: int, T: float = 1.0, k: float | None = None) -> KineticScenario:
    """One degree-s Chebyshev mover sweeping [0,1] s times past n-1
    stationary points placed at j/n (1-D)."""
    if s < 1:
        raise ParameterError("degree must be >= 1")
    if n < 2:
        raise ParameterError("need at least 2 points")
    mover = Trajectory(
        kind="polynomial", dim=1, horizon=T, coeffs=(unit_chebyshev_coeffs(s, T),)
    )
    others = [constant([j / n], T) for j in range(1, n)]
    return KineticScenario(
        points=(mover, *others),
        k=k,
        label=f"chebyshev_s{s}_n{n}",
        meta={"generator": "chebyshev", "s": s},
    )


def _bump_denominator(center: float) -> tuple[float, ...]:
    # (t - c)^4 + 1, expanded in the power basis
    base = np.array([-center, 1.0])
    den = np.array([1.0])
    for _ in range(4):
        den = np.convolve(den, base)
    den[0] += 1.0
    return tuple(den)


@_generator("rational-bumps", s=(int, True), n=(int, True))
def gen_rational_bumps(s: int, n: int, k: float | None = None) -> KineticScenario:
    """Half the points stationary, half sweeping through them one after the
    other along sums of quartic bumps (1-D, rational trajectories).

    Mover i peaks at times 10*j + 10*i*(s/4) for j = 0..s/4; every mover
    finishes all of its sweeps before the next one starts.
    """
    if s % 4 != 0 or s <= 0:
        raise ParameterError("degree must be a positive multiple of 4")
    if n % 2 != 0 or n < 4:
        raise ParameterError("need an even number of points (>= 4)")
    m = n // 2
    sweeps = s // 4
    horizon = 10.0 * sweeps * (m + 1) + 10.0
    movers = []
    for i in range(1, m + 1):
        terms = tuple(
            ((1.0,), _bump_denominator(10.0 * j + 10.0 * i * sweeps))
            for j in range(sweeps + 1)
        )
        movers.append(
            Trajectory(
                kind="rational",
                dim=1,
                horizon=horizon,
                terms=(terms,),
                clamp_unit=True,
            )
        )
    stationary = [constant([j / (m + 1)], horizon) for j in range(1, m + 1)]
    return KineticScenario(
        points=(*movers, *stationary),
        k=k,
        label=f"rational_bumps_s{s}_n{n}",
        meta={"generator": "rational-bumps", "s": s, "sweeps": sweeps},
    )


@_generator("circle", n=(int, True), e_len=(float, False))
def gen_circle(n: int, e_len: float = 0.05) -> KineticScenario:
    """Points start bunched at a short chord of the unit circle, spread to an
    even configuration at t=1/2 (half clockwise, half counterclockwise), then
    converge onto the antipodal short chord.
    """
    if n < 4:
        raise ParameterError("need at least 4 points")
    if not 0 < e_len < 1.0:
        raise ParameterError("e_len must be a short chord")
    alpha = 2.0 * math.asin(e_len / 2.0)
    top = math.pi / 2.0
    start_ccw = top + alpha / 2.0
    start_cw = top - alpha / 2.0
    end_ccw = top + math.pi - alpha / 2.0
    end_cw = top - math.pi + alpha / 2.0
    n_ccw = n // 2
    trajs = []
    for j in range(n_ccw):
        spread = top + math.pi * (2 * j + 1) / n
        trajs.append(_two_phase_arc(start_ccw, spread, end_ccw))
    for j in range(n - n_ccw):
        spread = top - math.pi * (2 * j + 1) / n
        trajs.append(_two_phase_arc(start_cw, spread, end_cw))
    return KineticScenario(
        points=tuple(trajs),
        label=f"circle_n{n}",
        morph_mode="slide",
        meta={
            "generator": "circle",
            "t_mid": 0.5,
            "radius": 1.0,
            "e_len": e_len,
            "e": (0, n_ccw),
        },
    )


def _two_phase_arc(a0: float, a_mid: float, a1: float) -> Trajectory:
    segs = (
        ArcSegment(0.0, 0.5, (0.0, 0.0), 1.0, a0, a_mid),
        ArcSegment(0.5, 1.0, (0.0, 0.0), 1.0, a_mid, a1),
    )
    return Trajectory(kind="scripted", dim=2, horizon=1.0, segments=segs)


_SQRT2 = math.sqrt(2.0)


def diamond_geometry(points_per_side: int = 6) -> dict:
    """Fixed geometry of the diamond construction: side length 2, connector
    chords of length 1 straddling the top and bottom corners."""
    q = points_per_side
    if q < 4:
        raise ParameterError("need at least 4 points per side")
    corners = {
        "top": np.array([0.0, _SQRT2]),
        "right": np.array([_SQRT2, 0.0]),
        "bottom": np.array([0.0, -_SQRT2]),
        "left": np.array([-_SQRT2, 0.0]),
    }
    e_left = np.array([-0.5, _SQRT2 - 0.5])
    e_right = np.array([0.5, _SQRT2 - 0.5])
    f_left = np.array([-0.5, -_SQRT2 + 0.5])
    f_right = np.array([0.5, -_SQRT2 + 0.5])
    chain_len = 4.0 - _SQRT2
    return {
        "corners": corners,
        "e_endpoints": (e_left, e_right),
        "e_prime_endpoints": (f_left, f_right),
        "chain_len": chain_len,
        "per_side": q,
        "chain_count": 2 * q + 1,
        "spacing": chain_len / (2 * q),
    }


def _polyline_point(vertices, cum, arc):
    arc = min(max(arc, 0.0), cum[-1])
    for i in range(len(cum) - 1):
        if arc <= cum[i + 1] + 1e-12:
            seg_len = cum[i + 1] - cum[i]
            u = 0.0 if seg_len == 0 else (arc - cum[i]) / seg_len
            return vertices[i] + u * (vertices[i + 1] - vertices[i])
    return vertices[-1]


def _polyline_motion(vertices, arc_from, arc_to, t0, t1):
    """Constant-speed travel along a polyline, split at interior vertices."""
    verts = [np.asarray(v, dtype=float) for v in vertices]
    cum = [0.0]
    for a, b in zip(verts, verts[1:]):
        cum.append(cum[-1] + float(np.linalg.norm(b - a)))
    if abs(arc_to - arc_from) < 1e-15:
        p = _polyline_point(verts, cum, arc_from)
        return [LinearSegment(t0, t1, tuple(p), tuple(p))]
    breaks = [arc_from]
    for c in cum:
        if arc_from < c < arc_to:
            breaks.append(c)
    breaks.append(arc_to)
    segs = []
    total = arc_to - arc_from
    for a, b in zip(breaks, breaks[1:]):
        ta = t0 + (t1 - t0) * (a - arc_from) / total
        tb = t0 + (t1 - t0) * (b - arc_from) / total
        pa = _polyline_point(verts, cum, a)
        pb = _polyline_point(verts, cum, b)
        segs.append(LinearSegment(ta, tb, tuple(pa), tuple(pb)))
    return segs


@_generator("diamond", per_side=(int, False))
def gen_diamond(per_side: int = 6) -> KineticScenario:
    """Points flow from the top connector chord around the left/right corners
    of a diamond to the bottom connector chord, evenly spread at t=1/2.

    Chain discretization keeps the left/right corners exactly on the point
    grid, so the spread chains realize their full polyline length.
    """
    geo = diamond_geometry(per_side)
    e_left, e_right = geo["e_endpoints"]
    f_left, f_right = geo["e_prime_endpoints"]
    m = geo["chain_count"]
    chain_len = geo["chain_len"]
    left_path = [e_left, geo["corners"]["left"], f_left]
    right_path = [e_right, geo["corners"]["right"], f_right]
    trajs = []
    for path in (left_path, right_path):
        for i in range(m):
            slot = chain_len * i / (m - 1)
            segs = _polyline_motion(path, 0.0, slot, 0.0, 0.5)
            segs += _polyline_motion(path, slot, chain_len, 0.5, 1.0)
            trajs.append(
                Trajectory(kind="scripted", dim=2, horizon=1.0, segments=tuple(segs))
            )
    meta = {
        "generator": "diamond",
        "t_mid": 0.5,
        "per_side": per_side,
        "e": (0, m),
        "e_prime": (m - 1, 2 * m - 1),
        "left_chain": tuple(range(m)),
        "right_chain": tuple(range(m, 2 * m)),
    }
    return KineticScenario(
        points=tuple(trajs),
        label=f"diamond_q{per_side}",
        morph_mode="rotation",
        meta=meta,
    )


@_generator("split", n=(int, True), colors=(list, False))
def gen_split(
    n: int,
    colors=None,
    k: float | None = None,
    K: float | None = None,
) -> KineticScenario:
    """n points stacked 1/n apart; red points drift left by 1/2 and blue
    points right by 1/2 over [0, 1]. Default coloring alternates up the
    stack (the 2-coloring of the initial path EMST)."""
    if n < 4:
        raise ParameterError("need at least 4 points")
    if colors is None:
        colors = [i % 2 for i in range(n)]
    colors = [int(c) for c in colors]
    if len(colors) != n or any(c not in (0, 1) for c in colors):
        raise ParameterError("colors must assign 0 (red) or 1 (blue) per point")
    trajs = []
    for i, c in enumerate(colors):
        vx = -0.5 if c == 0 else 0.5
        trajs.append(
            Trajectory(
                kind="polynomial",
                dim=2,
                horizon=1.0,
                coeffs=((0.0, vx), (i / n,)),
            )
        )
    return KineticScenario(
        points=tuple(trajs),
        k=k,
        K=K,
        label=f"split_n{n}",
        meta={"generator": "split", "colors": tuple(colors), "gap": 1.0 / n},
    )


def gen_stationary(positions, T: float = 1.0, k: float | None = None) -> KineticScenario:
    """All points fixed; handy as a degenerate baseline."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    return KineticScenario(
        points=tuple(constant(p, T) for p in pos),
        k=k,
        label="stationary",
        meta={"generator": "stationary"},
    )
