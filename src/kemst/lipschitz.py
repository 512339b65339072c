"""Speed-budgeted edge slides.

A slide's endpoint advances along its carrier edge at relative rate at
most K / L(t), where L(t) is the carrier's current length, so a slide
started at t0 completes at the smallest t* with
K * integral_{t0}^{t*} dt / L(t) = 1. For the split construction every
carrier has L(t) = sqrt(x^2 + t^2) (opposite colors) or L(t) = x (same
colors), so completion times close to arcsinh expressions; a hand-rolled
adaptive quadrature provides the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AuditFailure, ParameterError, UnsupportedKindError
from .scenarios import KineticScenario
from .spanning import (
    PointConfig,
    SpanningTree,
    _edge_lengths,
    _norm_edge,
    _ratio,
    emst,
    tree_length,
    two_coloring,
)

QUAD_TOL = 1e-10


def adaptive_simpson(f, a: float, b: float) -> float:
    """Adaptive Simpson quadrature with Richardson acceptance, to QUAD_TOL."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(lm), f(rm)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, eps / 2.0, depth - 1) + recurse(
            xm, x2, f1, fr, f2, right, eps / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, QUAD_TOL, 48)


def stretch_budget(x: float, K: float, t0: float, t1: float) -> float:
    """K * integral_{t0}^{t1} dt / sqrt(x^2 + t^2), in closed form."""
    if x <= 0 or K <= 0:
        raise ParameterError("x and K must be positive")
    return K * (math.asinh(t1 / x) - math.asinh(t0 / x))


def completion_time(
    x: float, K: float, t0: float = 0.0, horizon: float | None = None
) -> float | None:
    """Smallest t* with K * integral_{t0}^{t*} dt / sqrt(x^2 + t^2) = 1.

    None when the slide cannot complete by the horizon.
    """
    if x <= 0 or K <= 0:
        raise ParameterError("x and K must be positive")
    t_star = x * math.sinh(math.asinh(t0 / x) + 1.0 / K)
    if horizon is not None and t_star > horizon + 1e-12:
        return None
    return t_star


def completion_time_quadrature(
    x: float, K: float, t0: float = 0.0, horizon: float = 1.0
) -> float | None:
    """Independent completion solver: adaptive quadrature + bisection."""
    if x <= 0 or K <= 0:
        raise ParameterError("x and K must be positive")
    f = lambda t: 1.0 / math.sqrt(x * x + t * t)
    if K * adaptive_simpson(f, t0, horizon) < 1.0:
        return None
    lo, hi = t0, horizon
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if K * adaptive_simpson(f, t0, mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass
class SlideSchedule:
    """One budgeted slide: edge (fixed, moving) with carrier (moving, target).

    The carrier length is L(t) = sqrt(x_span^2 + (drift * t)^2), which covers
    both split-construction cases (drift 1 for opposite colors, 0 for same).
    """

    fixed: int
    moving: int
    target: int
    x_span: float
    drift: float
    K: float
    t0: float
    t_end: float | None = None  # completion, None if never within horizon

    def progress(self, t: float) -> float:
        if t <= self.t0:
            return 0.0
        if self.t_end is not None:
            t = min(t, self.t_end)
        if self.drift == 0.0:
            p = self.K * (t - self.t0) / self.x_span
        else:
            p = stretch_budget(self.x_span, self.K, self.t0, t)
        return min(p, 1.0)


def schedule_completion(sched: SlideSchedule, horizon: float) -> float | None:
    if sched.drift == 0.0:
        t_star = sched.t0 + sched.x_span / sched.K
        return t_star if t_star <= horizon + 1e-12 else None
    return completion_time(sched.x_span, sched.K, sched.t0, horizon)


def no_completion_certificate(n: int, K: float) -> tuple[bool, float]:
    """Closed-form check that no split-construction slide can finish by t=1.

    Every carrier has x >= 1/n, and the budget through t=1 is largest for
    the smallest x, so it suffices to check x = 1/n. Returns (certified,
    worst budget)."""
    x = 1.0 / n
    worst = K * math.log(1.0 / x + math.sqrt(1.0 + 1.0 / (x * x)))
    return worst < 1.0, worst


@dataclass(frozen=True)
class LipschitzRecord:
    time: float
    active_slides: int
    completed_slides: int
    tree_length: float
    opt_length: float
    ratio: float


@dataclass
class LipschitzRunResult:
    final_tree: SpanningTree
    final_length: float
    opt_length: float
    ratio: float
    completed: int
    records: list[LipschitzRecord]
    schedules: list[SlideSchedule] = field(default_factory=list)


def run_lipschitz_regime(
    sc: KineticScenario,
    K: float | None = None,
    trace_samples: int = 65,
) -> LipschitzRunResult:
    """Greedy budgeted-slide run on the split construction over [0, 1].

    The greedy adversary repeatedly starts, on edges not already involved
    in an active slide, the slide that would most reduce the tree length
    at the final configuration; slides on disjoint edge pairs run
    concurrently, each with its own budget K.
    """
    if sc.meta.get("generator") != "split":
        raise UnsupportedKindError("the budgeted regime is tied to the split construction")
    K = K if K is not None else sc.K
    if K is None or not math.isfinite(K) or K <= 0:
        raise ParameterError("needs a positive, finite speed budget K")
    if trace_samples < 0:
        raise ParameterError("trace_samples must be >= 0")
    tree = emst(sc.config(0.0))
    colors = two_coloring(tree).tolist()
    if tuple(colors) != sc.meta["colors"]:
        sc = sc.with_colors(colors)
    heights = sc.positions(0.0)[:, 1]

    t_now = 0.0
    active: list[SlideSchedule] = []
    done: list[SlideSchedule] = []
    cfg_end = PointConfig(sc.positions(sc.horizon))

    def final_len_of(edges) -> float:
        # Summed as `tree_length` sums, so tied gains stay tied.
        return float(sum(_edge_lengths(cfg_end, edges).tolist()))

    def start_greedy_slides():
        reserved = set()
        for s in active:
            reserved.add(_norm_edge((s.fixed, s.moving)))
            reserved.add(_norm_edge((s.moving, s.target)))
        adj = tree.adjacency()
        candidates = []
        base_final = final_len_of(tree.edges)
        for u, v in tree.edges:
            for fixed, moving in ((u, v), (v, u)):
                if _norm_edge((fixed, moving)) in reserved:
                    continue
                for w in adj[moving]:
                    if w == fixed:
                        continue
                    if _norm_edge((moving, w)) in reserved:
                        continue
                    new_edges = (tree.edges - {_norm_edge((u, v))}) | {
                        _norm_edge((fixed, w))
                    }
                    gain = base_final - final_len_of(new_edges)
                    if gain > 1e-12:
                        candidates.append((gain, fixed, moving, w))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
        for gain, fixed, moving, w in candidates:
            slider = _norm_edge((fixed, moving))
            carrier = _norm_edge((moving, w))
            if slider in reserved or carrier in reserved:
                continue
            sched = SlideSchedule(
                fixed=fixed,
                moving=moving,
                target=w,
                x_span=abs(heights[moving] - heights[w]),
                drift=0.0 if colors[moving] == colors[w] else 1.0,
                K=K,
                t0=t_now,
            )
            sched.t_end = schedule_completion(sched, sc.horizon)
            active.append(sched)
            reserved.add(slider)
            reserved.add(carrier)

    def geometric_length(t: float, cfg: PointConfig) -> float:
        # A slider's moving end is off the configuration: same axis norm.
        pos = cfg.positions
        edges = list(tree.edges)
        lengths = _edge_lengths(cfg, edges).tolist()
        where = {e: i for i, e in enumerate(edges)}
        for s in active:
            end = pos[s.moving] + s.progress(t) * (pos[s.target] - pos[s.moving])
            slider = where[_norm_edge((s.fixed, s.moving))]
            lengths[slider] = float(np.linalg.norm(pos[s.fixed] - end, axis=-1))
        return float(sum(lengths))

    start_greedy_slides()
    sample_ts = np.linspace(0.0, sc.horizon, trace_samples)
    sample_pos = sc.positions_many(sample_ts)
    records: list[LipschitzRecord] = []
    sample_idx = 0

    def emit_samples(up_to: float):
        nonlocal sample_idx
        while sample_idx < len(sample_ts) and sample_ts[sample_idx] <= up_to + 1e-12:
            t = float(sample_ts[sample_idx])
            cfg = PointConfig(sample_pos[sample_idx])
            g_len = geometric_length(t, cfg)
            opt = tree_length(cfg, emst(cfg))
            records.append(
                LipschitzRecord(t, len(active), len(done), g_len, opt, _ratio(g_len, opt))
            )
            sample_idx += 1

    while True:
        upcoming = [s for s in active if s.t_end is not None]
        if not upcoming:
            break
        nxt = min(upcoming, key=lambda s: s.t_end)
        emit_samples(nxt.t_end)
        t_now = nxt.t_end
        tree = tree.replace((nxt.fixed, nxt.moving), (nxt.fixed, nxt.target))
        active.remove(nxt)
        done.append(nxt)
        start_greedy_slides()
    emit_samples(sc.horizon)

    final_length = geometric_length(sc.horizon, cfg_end)
    opt_end = tree_length(cfg_end, emst(cfg_end))
    return LipschitzRunResult(
        final_tree=tree,
        final_length=final_length,
        opt_length=opt_end,
        ratio=_ratio(final_length, opt_end),
        completed=len(done),
        records=records,
        schedules=done + active,
    )


@dataclass
class AnyTreeAudit:
    max_edge: float
    total: float
    opt_length: float
    ratio: float


def any_tree_bound_audit(cfg: PointConfig, tree: SpanningTree) -> AnyTreeAudit:
    """Every tree edge is at most OPT long, and the whole tree at most
    (n-1) * OPT; violations would indicate an EMST bug."""
    opt = tree_length(cfg, emst(cfg))
    total = tree_length(cfg, tree)
    max_edge = float(_edge_lengths(cfg, tree.edges).max())
    if max_edge > opt + 1e-9:
        raise AuditFailure(
            f"edge length {max_edge} exceeds OPT {opt}", record=(max_edge, opt)
        )
    if total > (tree.n - 1) * opt + 1e-9:
        raise AuditFailure(
            f"tree length {total} exceeds (n-1)*OPT", record=(total, opt)
        )
    return AnyTreeAudit(max_edge, total, opt, _ratio(total, opt))
