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
from functools import reduce
from operator import add, attrgetter

import numpy as np

from .errors import AuditFailure, ParameterError, UnsupportedKindError, check_count
from .morph import apply_slide
from .scenarios import KineticScenario
from .spanning import (
    PointConfig,
    SpanningTree,
    _edge_lengths,
    _lengths,
    _lr_sum,
    _norm_edge,
    _pair_index,
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


def _check_span_and_budget(x: float, K: float) -> None:
    """Raise ParameterError unless x > 0 and K > 0; NaN fails both."""
    if not (x > 0 and K > 0):
        raise ParameterError("x and K must be positive")


def stretch_budget(x: float, K: float, t0: float, t1: float) -> float:
    """K * integral_{t0}^{t1} dt / sqrt(x^2 + t^2), in closed form; t0 and
    t1 must be finite."""
    _check_span_and_budget(x, K)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParameterError("t0 and t1 must be finite")
    return K * (math.asinh(t1 / x) - math.asinh(t0 / x))


def completion_time(
    x: float, K: float, t0: float = 0.0, horizon: float | None = None
) -> float | None:
    """Smallest t* with K * integral_{t0}^{t*} dt / sqrt(x^2 + t^2) = 1.

    None when the slide cannot complete by the horizon. t0, and the horizon
    when given, must be finite: past a NaN horizon every completion would
    pass as in time.
    """
    _check_span_and_budget(x, K)
    if not (math.isfinite(t0) and (horizon is None or math.isfinite(horizon))):
        raise ParameterError("t0 and horizon must be finite")
    t_star = x * math.sinh(math.asinh(t0 / x) + 1.0 / K)
    if horizon is not None and t_star > horizon + 1e-12:
        return None
    return t_star


def completion_time_quadrature(
    x: float, K: float, t0: float = 0.0, horizon: float = 1.0
) -> float | None:
    """Independent completion solver: adaptive quadrature + bisection.

    t0 and horizon must be finite: adaptive Simpson never settles on an
    infinite interval."""
    _check_span_and_budget(x, K)
    if not (math.isfinite(t0) and math.isfinite(horizon)):
        raise ParameterError("t0 and horizon must be finite")
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
        """Share of the slide done at t, in [0, 1]; ParameterError for a NaN
        or +inf t, which `min` with t_end would otherwise hide."""
        if t <= self.t0:
            return 0.0
        if not math.isfinite(t):
            raise ParameterError("t must be finite")
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
    worst budget). n must be an integer >= 1 and K positive."""
    check_count(n, "n", 1)
    if not K > 0:
        raise ParameterError("K must be positive")
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


def _greedy_starts(
    tree: SpanningTree, active: list[SlideSchedule], cfg_end: PointConfig
) -> list[tuple[int, int, int]]:
    """The (fixed, moving, target) slides the greedy starts, in start order.

    A candidate slides tree edge (fixed, moving) along tree edge (moving,
    target) to (fixed, target); neither edge may be an `active` slide's.
    Its gain is the drop in tree length at `cfg_end` once it completes.
    Gains > 1e-12 rank by (-gain, fixed, moving, target), so equal gains go
    to the smallest triple, and each is taken unless an earlier one took
    one of its edges.

    A candidate tree is the set `rest | {new}`, `rest` being `tree.edges`
    less the slider, made once per tree edge. Its gain sums it in its
    iteration order, which depends on how the set was built, so the gains
    of two equal trees can differ in the last bits and rank by those bits;
    a set built another way would move them. The sum is a left fold from
    +0.0 over one table of edge lengths (`cfg_end.pair_lengths` entries as
    Python floats): `_lr_sum`'s order and bits, without an array per
    candidate. `sum` would not do, as it compensates from Python 3.12.
    """
    reserved = {_norm_edge(e) for s in active for e in ((s.fixed, s.moving), (s.moving, s.target))}
    adj = tree.adjacency()
    tree_lengths = _edge_lengths(cfg_end, tree.edges)
    base = _lr_sum(tree_lengths)
    length = dict(zip(tree.edges, tree_lengths.tolist()))
    candidates = []
    for u, v in tree.edges:
        if (u, v) in reserved:
            continue
        rest = tree.edges - {(u, v)}
        for fixed, moving in ((u, v), (v, u)):
            for w in adj[moving]:
                if w == fixed or _norm_edge((moving, w)) in reserved:
                    continue
                new = _norm_edge((fixed, w))
                if new not in length:
                    length[new] = float(cfg_end.pair_lengths[_pair_index(cfg_end.n, *new)])
                gain = base - reduce(add, map(length.__getitem__, rest | {new}), 0.0)
                if gain > 1e-12:
                    candidates.append((gain, fixed, moving, w))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    starts = []
    for _gain, fixed, moving, w in candidates:
        slider, carrier = _norm_edge((fixed, moving)), _norm_edge((moving, w))
        if slider not in reserved and carrier not in reserved:
            starts.append((fixed, moving, w))
            reserved.update((slider, carrier))
    return starts


def _geometric_length(
    tree: SpanningTree, active: list[SlideSchedule], t: float, cfg: PointConfig
) -> float:
    """Length of `tree` at time t, `cfg` its configuration: an active
    slider's moving end is `progress(t)` of the way along its carrier, off
    the configuration, so its edge takes the same axis norm to that point.
    Every slider is a tree edge. One array pass over the active slides
    finds their lengths (`_lengths`, which are `np.linalg.norm`'s bits for
    d <= 7) and writes them over their `pair_lengths` entries, and the
    lengths are summed (`_lr_sum`) in `tree.edges` order."""
    lengths = _edge_lengths(cfg, tree.edges)
    if active:
        pos = cfg.positions
        at = {e: i for i, e in enumerate(tree.edges)}
        f, m, w = np.array([(s.fixed, s.moving, s.target) for s in active]).T
        p = np.array([s.progress(t) for s in active])
        end = pos[m] + p[:, None] * (pos[w] - pos[m])
        sliders = [at[_norm_edge((s.fixed, s.moving))] for s in active]
        lengths[sliders] = _lengths(pos[f] - end)
    return _lr_sum(lengths)


def run_lipschitz_regime(sc: KineticScenario, trace_samples: int = 65) -> LipschitzRunResult:
    """Greedy budgeted-slide run on the split construction over [0, 1].

    The greedy adversary repeatedly starts, on edges not already involved
    in an active slide, the slide that would most reduce the tree length
    at the final configuration; slides on disjoint edge pairs run
    concurrently, each with its own budget `sc.K`, the scenario's only
    budget. A slide completes through `apply_slide`: its slider and
    carrier are reserved while it is active, so both are still tree edges.
    """
    if sc.meta.get("generator") != "split":
        raise UnsupportedKindError("the budgeted regime is tied to the split construction")
    K = sc.K
    if K is None or not math.isfinite(K) or K <= 0:
        raise ParameterError("needs a positive, finite speed budget K")
    check_count(trace_samples, "trace_samples", 0)
    pos_start = sc.positions(0.0)
    tree = emst(PointConfig(pos_start))
    colors = two_coloring(tree).tolist()
    if tuple(colors) != sc.meta["colors"]:
        sc = sc.with_colors(colors)
    # A recoloured split starts where the old one did: every point i is at
    # x = +0.0, y = i/n at t = 0, whatever its colour. The positions are
    # kept, not the configuration with its n(n - 1)/2 pair lengths.
    heights = pos_start[:, 1]

    t_now = 0.0
    active: list[SlideSchedule] = []
    done: list[SlideSchedule] = []
    cfg_end = sc.config(sc.horizon)
    sample_ts = np.linspace(0.0, sc.horizon, trace_samples)
    sample_pos = sc.positions(sample_ts)
    records: list[LipschitzRecord] = []
    i = 0
    while True:
        for fixed, moving, w in _greedy_starts(tree, active, cfg_end):
            x_span = abs(heights[moving] - heights[w])
            drift = 0.0 if colors[moving] == colors[w] else 1.0
            sched = SlideSchedule(fixed, moving, w, x_span, drift, K, t_now)
            sched.t_end = schedule_completion(sched, sc.horizon)
            active.append(sched)
        timed = [s for s in active if s.t_end is not None]
        nxt = min(timed, key=attrgetter("t_end"), default=None)
        # Samples up to the next completion see the tree before it.
        up_to = sc.horizon if nxt is None else nxt.t_end
        while i < trace_samples and sample_ts[i] <= up_to + 1e-12:
            t, cfg = float(sample_ts[i]), PointConfig(sample_pos[i])
            g_len = _geometric_length(tree, active, t, cfg)
            opt = tree_length(cfg, emst(cfg))
            records.append(
                LipschitzRecord(t, len(active), len(done), g_len, opt, _ratio(g_len, opt))
            )
            i += 1
        if nxt is None:
            break
        t_now = nxt.t_end
        tree = apply_slide(tree, (nxt.fixed, nxt.moving), nxt.target)
        active.remove(nxt)
        done.append(nxt)

    final_length = _geometric_length(tree, active, sc.horizon, cfg_end)
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
