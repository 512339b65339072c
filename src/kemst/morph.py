"""Edge slides, edge rotations, and swap morph planning.

When the maintained EMST must exchange an edge e for an edge e', the
planners express that exchange as a sequence of single slides or single
rotations, chosen to keep the longest intermediate tree short:

* slides: at most 3/2 times the old tree length (when |e'| <= |e|),
* rotations: at most 4/3 times the old tree length (when e is longest on
  the cycle).

Also houses swap detection along a scenario, the topological regime
runner, and the diamond construction's connector machinery (edge
classification and the reachability certificate).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AuditFailure, ParameterError, check_count
from .flip_oracle import bottleneck_closure
from .scenarios import _SQRT2, KineticScenario, _window_bound_fn
from .spanning import (
    PointConfig,
    SpanningTree,
    _cut_certificate,
    _cuts_hold,
    _is_vertex,
    _kruskal,
    _length_grid,
    _lr_sum,
    _norm_edge,
    _pair_lengths,
    _pairs,
    _ratio,
    emst,
    fundamental_cycle,
    tree_from_prufer,
    tree_length,
)

_EDGE_TOL = 1e-6
_SWAP_TIME_TOL = 1e-9
# `detect_swaps` adds cells to a round while their open (uncertified) entries
# sum to fewer than `_WINDOW_ENTRIES`; a cell without a certificate adds none.
# `_cuts_hold` then forms at most about 72 bytes of temporaries an entry at
# d = 2 (1.1 MB for a full round, at any n). The cap counts a tree's whole
# certificate, not the entries its cell leaves open: over `_CERT_ENTRIES` a
# tree has none and gets a Kruskal per midpoint's row. With against without
# it (grid 257, 2-core Xeon, numpy 2.4.6), random cubics, where most entries
# close, took 6.32/13.59/37.2 s against 2.31/6.27/26.1 s at n = 48/64/96;
# `gen_circle`, all scripted so none close, 0.29/0.58/1.43 s against
# 0.42/3.13/25.4 s at n = 64/128/256 (peak RSS 42 against 313 MB).
_WINDOW_ENTRIES = 1 << 14
_CERT_ENTRIES = 1 << 12
_NO_ENTRIES = (np.empty(0, np.int32), np.empty(0, np.int32))  # a Kruskal cell's round check
# Relative and absolute slack of the cell enclosure (`_pair_length_bounds`).
_CELL_SLACK = 2.0**-40
_CELL_FLOOR = 2.0**-500


def apply_slide(tree: SpanningTree, e, w: int) -> SpanningTree:
    """Slide edge e=(u,v): the endpoint at v moves along tree edge (v,w).

    Result is tree - (u,v) + (u,w); raises if u, v or w is not an int or a
    numpy integer, (v,w) is not a tree edge, (u,v) is not one, or w == u.
    Those checks are enough: (v,w) is then not (u,v), so it keeps w on v's
    side of the cut tree - (u,v) leaves, and (u,w) crosses that cut. So the
    result is a tree, built unchecked.
    """
    u, v = e
    if not all(map(_is_vertex, (u, v, w))):
        raise ParameterError("slide vertices must be integers")
    if not tree.has_edge((v, w)):
        raise ParameterError("slide carrier (v,w) is not a tree edge")
    old, new = _norm_edge((u, v)), _norm_edge((u, w))
    if old not in tree.edges:
        raise ParameterError("edge to remove is not in the tree")
    return _exchanged(tree, old, new)


def apply_rotation(tree: SpanningTree, e, w: int) -> SpanningTree:
    """Rotate edge e=(u,v): the endpoint at v moves to any vertex w != u.

    Result is tree - (u,v) + (u,w), the same edges when w == v; raises if
    (u,v) is not a tree edge, w == u, or on disconnection or cycle.
    """
    u, v = e
    return tree.replace((u, v), (u, w))


def _exchanged(tree: SpanningTree, old, new) -> SpanningTree:
    """Unchecked tree - old + new, of normalized edges: the caller knows
    that `old` is a tree edge and `new` crosses the cut tree - old leaves."""
    return SpanningTree._trusted(tree.n, (tree.edges - {old}) | {new})


@dataclass(frozen=True)
class SwapEvent:
    """An EMST update: remove `removed`, insert `inserted`, at `time`.
    `cycle` is `fundamental_cycle(old_tree, inserted)`, and `removed` its
    edge (cycle[removed_at], cycle[removed_at + 1]), normalized."""

    time: float
    old_tree: SpanningTree
    removed: tuple[int, int]
    inserted: tuple[int, int]
    cycle: tuple[int, ...]
    removed_at: int


def make_swap_event(
    old_tree: SpanningTree, removed, inserted, time: float, cfg: PointConfig
) -> SwapEvent:
    """The checked SwapEvent of a caller's swap: raises ParameterError unless
    both edges join `_is_vertex` endpoints in 0..n-1 (`fundamental_cycle`
    checks `inserted`'s), `inserted` is not a tree edge, `removed` lies on
    its fundamental cycle, so is one, and `inserted` is no longer at `cfg`."""
    if not all(_is_vertex(x) and 0 <= x < old_tree.n for x in removed):
        raise ParameterError(f"swap vertices must be integers in 0..{old_tree.n - 1}")
    cycle = fundamental_cycle(old_tree, inserted)
    removed = _norm_edge(removed)
    inserted = _norm_edge(inserted)
    cyc_edges = [_norm_edge(p) for p in zip(cycle, cycle[1:])]
    if removed not in cyc_edges:
        raise ParameterError("removed edge does not lie on the fundamental cycle")
    return _swap_event(old_tree, cyc_edges.index(removed), inserted, time, cfg, cycle)


def _swap_event(old_tree, i, inserted, time, cfg, cycle) -> SwapEvent:
    """SwapEvent removing edge (cycle[i], cycle[i + 1]) of `cycle =
    fundamental_cycle(old_tree, inserted)`, `inserted` normalized; raises
    ParameterError if `inserted` is longer than that edge at `cfg`."""
    cycle = tuple(cycle)
    removed = _norm_edge((cycle[i], cycle[i + 1]))
    if cfg.distance(*inserted) > cfg.distance(*removed) + _EDGE_TOL:
        raise ParameterError("swap is not weight-improving at the event time")
    return SwapEvent(time, old_tree, removed, inserted, cycle, i)


@dataclass(frozen=True)
class MorphStep:
    op: str  # "slide" | "rotate"
    edge: tuple[int, int]  # (fixed endpoint, moving endpoint) before the step
    target: int


@dataclass
class MorphPlan:
    steps: list[MorphStep]
    trees: list[SpanningTree]  # len(steps)+1; first=old, last=old-e+e'
    lengths: list[float]  # tree lengths at the event configuration
    max_intermediate: float
    fallback: bool = False


def _materialize(ev: SwapEvent, cfg: PointConfig, steps, base: float) -> MorphPlan:
    """Map cycle-index steps (op, (fixed, moving), target) onto `ev.cycle` as
    given and apply them; raise ParameterError unless the last tree is
    old - e + e'. No slide step is a no-op (moving == target), and the
    rotation planner drops its own. `base`, the planner's `tree_length(cfg,
    ev.old_tree)`, is the plan's first length.

    No intermediate tree is checked as a whole. A slide step goes through
    `apply_slide`, whose O(1) checks make its tree valid and reject a step
    that is not a slide. A rotation step is built unchecked: the cut
    argument in `plan_rotation_morph`'s docstring shows that each step of
    its candidates removes a tree edge and inserts one across its cut."""
    c = ev.cycle
    steps = [MorphStep(op, (c[f], c[m]), c[t]) for op, (f, m), t in steps]
    trees = [ev.old_tree]
    for step in steps:
        if step.op == "slide":
            trees.append(apply_slide(trees[-1], step.edge, step.target))
        else:
            new = _norm_edge((step.edge[0], step.target))
            trees.append(_exchanged(trees[-1], _norm_edge(step.edge), new))
    want = (ev.old_tree.edges - {ev.removed}) | {ev.inserted}
    if trees[-1].edges != want:
        raise ParameterError("morph plan does not realize the swap")
    lengths = [base] + [tree_length(cfg, t) for t in trees[1:]]
    return MorphPlan(
        steps=steps,
        trees=trees,
        lengths=lengths,
        max_intermediate=max(lengths),
    )


def _slide_grid_plan(dmat, i, L):
    """Minimax interleaving of the two slide directions along the cycle.

    States are slider edges (a, b) with a <= i < b; moves decrement a or
    increment b; value-to-go is the largest chord visited. Returns the
    optimal value and its cycle-index steps from (i, i+1) to (0, L): moving
    a down slides (b, a) to a - 1, moving b up slides (a, b) to b + 1.
    """
    INF = math.inf
    f = np.full((i + 1, L + 1), INF)
    f[0, L] = dmat[0, L]
    for a in range(0, i + 1):
        for b in range(L, i, -1):
            if a == 0 and b == L:
                continue
            best = INF
            if a > 0:
                best = min(best, f[a - 1, b])
            if b < L:
                best = min(best, f[a, b + 1])
            f[a, b] = max(dmat[a, b], best)
    # reconstruct
    a, b = i, i + 1
    steps = []
    while (a, b) != (0, L):
        go_a = f[a - 1, b] if a > 0 else INF
        go_b = f[a, b + 1] if b < L else INF
        if go_a <= go_b:
            steps.append(("slide", (b, a), a - 1))
            a -= 1
        else:
            steps.append(("slide", (a, b), b + 1))
            b += 1
    return f[i, i + 1], steps


def _chord_plan(i, L, g, h):
    """Single-chord shortcut plan on the low side, in cycle-index space:
    stretch cycle edges g..h into the chord (g, h), let the slider's
    moving endpoint walk i -> h and jump the chord to g, restore the
    stretched edge, then finish the slide at (0, L)."""
    steps = [("slide", (g, j), j + 1) for j in range(g + 1, h)]
    steps += [("slide", (i + 1, a), a - 1) for a in range(i, h, -1)]
    steps.append(("slide", (i + 1, h), g))  # jump the chord
    steps += [("slide", (g, j), j - 1) for j in range(h, g + 1, -1)]
    steps += [("slide", (i + 1, a), a - 1) for a in range(g, 0, -1)]
    steps += [("slide", (0, b), b + 1) for b in range(i + 1, L)]
    return steps


def _chord_step_lists(i, L):
    """Every single-chord shortcut plan, the low side's (g, h) first. A
    high-side plan is the low-side plan of the reversed cycle (index
    x -> L - x), mapped back."""
    plans = [_chord_plan(i, L, g, h) for g in range(i - 1) for h in range(g + 2, i + 1)]
    for g in range(i + 1, L - 1):
        for h in range(g + 2, L + 1):
            mirrored = _chord_plan(L - 1 - i, L, L - h, L - g)
            plans.append([(op, (L - f, L - m), L - t) for op, (f, m), t in mirrored])
    return plans


def _eval_index_steps(base, dmat, steps):
    """Max tree length over an index-space step list.

    Each step replaces (fixed, moving) with (fixed, target) in cycle-index
    space; lengths update incrementally.
    """
    worst = base
    delta = 0.0
    for _op, (fixed, moving), target in steps:
        delta += dmat[fixed, target] - dmat[fixed, moving]
        worst = max(worst, base + delta)
    return worst


def plan_slide_morph(ev: SwapEvent, cfg: PointConfig) -> MorphPlan:
    """Slide-based morph from the old tree to old - e + e'.

    Plans are cycle-index step lists for `_materialize`: the best monotone
    interleaving of the two cycle directions (exact minimax over slider
    chords), or a single-chord shortcut plan that stretches another cycle
    edge for the slider to jump, if its largest tree is shorter by > 1e-12.

    Guarantee: max intermediate <= 1.5 * old tree length when
    |e'| <= |e|; a violation raises AuditFailure.
    """
    cycle, i = ev.cycle, ev.removed_at
    L = len(cycle) - 1
    dmat = _length_grid(cfg, cycle, cycle)
    base = tree_length(cfg, ev.old_tree)
    removed_len = dmat[i, i + 1]

    best_value, best_steps = _slide_grid_plan(dmat, i, L)
    best_worst = max(base, base - removed_len + best_value)
    for idx_steps in _chord_step_lists(i, L):
        worst = _eval_index_steps(base, dmat, idx_steps)
        if worst < best_worst - 1e-12:
            best_worst, best_steps = worst, idx_steps
    plan = _materialize(ev, cfg, best_steps, base)
    limit = 1.5 * base
    if cfg.distance(*ev.inserted) <= cfg.distance(*ev.removed) + _EDGE_TOL:
        if plan.max_intermediate > limit + 1e-9:
            raise AuditFailure(
                f"slide morph exceeded 3/2 bound: {plan.max_intermediate} > {limit}",
                record=(plan.max_intermediate, limit),
            )
    return plan


class RotationPreconditionError(ParameterError):
    """The swap fails a precondition of `plan_rotation_morph`: e is not the
    longest edge on the cycle, or e' is longer than e."""


def _midpoint_edge(dmat, idxs):
    """Edge of the path `idxs` containing the path's length midpoint."""
    total = sum(dmat[a, b] for a, b in zip(idxs, idxs[1:]))
    acc = 0.0
    for a, b in zip(idxs, idxs[1:]):
        acc += dmat[a, b]
        if acc >= total / 2.0 - 1e-15:
            return a, b
    return idxs[-2], idxs[-1]


def plan_rotation_morph(ev: SwapEvent, cfg: PointConfig) -> MorphPlan:
    """Rotation-based morph from the old tree to old - e + e'.

    Requires e to be the longest edge on the cycle. The candidates are the
    two detours through an endpoint of e' and the four three-step detours
    through the midpoint edges of the two cycle parts, in cycle indices with
    e at (i, i + 1) and e' at (0, L). Their no-op steps (moving == target)
    and repeated plans go first, `_materialize` builds each once, and the
    first smallest maximum intermediate wins. Every step gives a tree, so
    `_materialize` builds them unchecked: each step removes e or the edge
    the step before inserted, so it is valid iff its new edge crosses the
    cut 0..i | i+1..L of old - e; `via_u(w)` needs w in i+1..L, `via_v(w)`
    needs w in 0..i, and all six choices of w meet that.

    Guarantee: max intermediate <= (4/3) * old tree length; a violation
    raises AuditFailure, a failed precondition RotationPreconditionError.
    """
    cycle, i = ev.cycle, ev.removed_at
    L = len(cycle) - 1
    dmat = _length_grid(cfg, cycle, cycle)
    rem_len = dmat[i, i + 1]
    for a in range(L):
        if dmat[a, a + 1] > rem_len + _EDGE_TOL:
            raise RotationPreconditionError("removed edge must be the longest on the cycle")
    ins_len = dmat[0, L]
    if ins_len > rem_len + _EDGE_TOL:
        raise RotationPreconditionError("inserted edge exceeds the removed edge")

    u, v, u_p, v_p = i, i + 1, 0, L  # cycle-index aliases

    def via_u(w):  # (u,v) -> (u,w), (w,u) -> (w,u'), (u',w) -> (u',v')
        return [("rotate", (u, v), w), ("rotate", (w, u), u_p), ("rotate", (u_p, w), v_p)]

    def via_v(w):  # the mirror image, rotating from v's side
        return [("rotate", (v, u), w), ("rotate", (w, v), v_p), ("rotate", (v_p, w), u_p)]

    # two-step detours via an endpoint of e' (their third step is a no-op)
    candidates = [via_u(v_p), via_v(u_p)]
    # three-step detours via the midpoint edges of both parts
    if i >= 1 and L - i >= 2:
        lg, lh = _midpoint_edge(dmat, list(range(0, i + 1)))  # u' .. u
        u_l, v_l = max(lg, lh), min(lg, lh)  # u_L nearest e
        rg, rh = _midpoint_edge(dmat, list(range(i + 1, L + 1)))  # v .. v'
        u_r, v_r = min(rg, rh), max(rg, rh)  # u_R nearest e
        candidates += [via_u(v_r), via_v(v_l), via_u(u_r), via_v(u_l)]
    distinct = dict.fromkeys(tuple((op, e, w) for op, e, w in c if e[1] != w) for c in candidates)
    base = tree_length(cfg, ev.old_tree)
    plans = [_materialize(ev, cfg, steps, base) for steps in distinct]
    best_plan = min(plans, key=lambda plan: plan.max_intermediate)
    limit = (4.0 / 3.0) * base
    if best_plan.max_intermediate > limit + 1e-9:
        raise AuditFailure(
            f"rotation morph exceeded 4/3 bound: {best_plan.max_intermediate} > {limit}",
            record=(best_plan.max_intermediate, limit),
        )
    return best_plan


# ---------------------------------------------------------------------------
# swap detection and the topological regime
# ---------------------------------------------------------------------------


def detect_swaps(sc: KineticScenario, grid: int = 257):
    """Combinatorial EMST change times, bisected to 1e-9.

    The EMST is built at `grid` instants from one `positions` call on all of
    them. Cells whose end trees differ are bisected together: a round
    evaluates all their midpoints in one more `positions` call (each row the
    float answer bit for bit) and checks the `_cut_certificate` of the tree
    each swap leaves, which holds iff it is the midpoint's Kruskal tree.
    Times and trees are a Kruskal per midpoint's; a certified swap runs one
    Kruskal, on the round's row of its last failing midpoint.

    A certificate is built with its cell's enclosure (`_pair_length_bounds`)
    and leaves out the entries (P, E) whose order no float instant of the
    cell can flip: the lowest length P can take stays above the highest E
    can. Midpoints check the other, open entries. Entries that touch a
    rational, scripted or clamped point are never left out, and neither are
    near ties: pairs whose lengths come within the enclosure's width of each
    other somewhere in the cell. A tree whose whole certificate would have
    over `_CERT_ENTRIES` entries has none; its midpoints' Kruskal trees decide.

    Returns a list of (time, old_tree, new_tree); simultaneous multi-edge
    changes are reported as one entry and decomposed by the regime runner.
    """
    check_count(grid, "grid", 2)
    ts = np.linspace(0.0, sc.horizon, grid)
    grid_pos = sc.positions(ts)
    trees = [emst(PointConfig(pos)) for pos in grid_pos]
    cells = zip(ts.tolist(), ts[1:].tolist(), grid_pos, trees, trees[1:])
    cells = (cell for cell in cells if cell[3].edges != cell[4].edges)  # changed
    found, window = [], []  # window: (bisection, its (midpoint, entries or None))
    while True:
        entries = sum(len((cert or _NO_ENTRIES)[0]) for _b, (_m, cert) in window)
        while entries < _WINDOW_ENTRIES and (cell := next(cells, None)):
            found.append([])
            bisection = _bisect_cell(*cell, _cell_radii(sc, *cell[:2]), found[-1])
            if step := next(bisection, None):
                window.append((bisection, step))
                entries += len((step[1] or _NO_ENTRIES)[0])
        if not window:
            return [ev for events in found for ev in events]
        pos = sc.positions([m for _b, (m, _cert) in window])
        if not np.all(np.isfinite(pos)):
            raise ParameterError("positions must be finite")
        holds = _cuts_hold(pos, [cert or _NO_ENTRIES for _b, (_m, cert) in window])
        advancing, window = window, []
        for (bisection, _step), keep, row in zip(advancing, holds.tolist(), pos):
            with contextlib.suppress(StopIteration):
                window.append((bisection, bisection.send((keep, row.copy()))))


def _cell_radii(sc: KineticScenario, a_t: float, t: float) -> np.ndarray:
    """Per point, a radius rho_i = sqrt(b_i) (1 + g) + f bounding how far its
    computed position moves from a_t over the cell [a_t, t],
    0 <= a_t <= t <= horizon, where b = `_window_bound_fn(sc, a_t)(t)`:
    +inf for every point that is not an unclamped polynomial. g is
    `_CELL_SLACK` and f `_CELL_FLOOR`; `_pair_length_bounds` says why they
    suffice."""
    return np.sqrt(_window_bound_fn(sc, a_t)(t)) * (1.0 + _CELL_SLACK) + _CELL_FLOOR


def _pair_length_bounds(a_pos: np.ndarray, rho: np.ndarray):
    """(lower, upper): bounds, in `_pairs(n)` order, on every pair length
    `_pair_lengths` computes from `positions(s)` at any float s of a cell,
    given the positions a_pos at its start a_t and its `_cell_radii`. A
    pair (u, v) of length L at a_t gets L (1 - g) - r and L (1 + g) + r,
    r = rho_u + rho_v; one whose length overflowed at a_t gets no lower
    bound.

    Proof. Let x_i(s) be the computed position, l(s) = |x_u(s) - x_v(s)| the
    exact distance of the computed positions and L(s) its computed length,
    u = 2^-53. b_i bounds the sum of squares `_window_bound_fn` describes,
    formed from the same floats x_i(s) and x_i(a_t) (the compiled Horner
    rows equal `polyval`'s) by a rounded difference, square and sum per
    coordinate, so |x_i(s) - x_i(a_t)| <= sqrt(b_i) (1 + 2 d u) + e with
    e = 2^-537 sqrt(d) for squares that underflow. By the triangle
    inequality |l(s) - l(a_t)| <= |x_u(s) - x_u(a_t)| + |x_v(s) - x_v(a_t)|.
    `_lengths` rounds a difference, d squares, their sum and a root, so
    |L(s) - l(s)| <= (d + 3) u l(s) + e. Forming rho, r and the bounds adds
    4 more relative roundings. g = 2^-40 = 8192 u covers all of them, twice
    over, for any d below 1000, and f = 2^-500 every e; so
    lower <= L(s) <= upper. An entry (P, E) with lower[P] > upper[E] has
    L_P(s) > L_E(s), so it holds at s whatever the pair indices are.
    """
    iu, ju = _pairs(len(a_pos))
    r = rho[iu] + rho[ju]
    lengths = _pair_lengths(a_pos)
    lower = np.where(lengths < np.inf, lengths * (1.0 - _CELL_SLACK) - r, -np.inf)
    return lower, lengths * (1.0 + _CELL_SLACK) + r


def _bisect_cell(a_t: float, t: float, a_pos, a_tree, cur_tree, rho, events: list):
    """Append the swaps of grid cell [a_t, t], whose end trees differ, in
    order, to `events`; a_pos is the positions at a_t, rho its `_cell_radii`.
    Yields (midpoint, open entries of the certificate of the tree the swap
    leaves, or None if over `_CERT_ENTRIES`) and is sent (whether they hold,
    the midpoint's row in its round); without a certificate the row's Kruskal
    tree decides. A swap reaches the Kruskal tree of its last failing row,
    built unchecked: `_kruskal`'s n - 1 merges each join two components, so
    its edges (u < v) form a spanning tree.

    `_cut_certificate` forms only the entries the cell enclosure
    (`_pair_length_bounds`) leaves open. Each is checked at every midpoint
    and every other entry holds at every float instant of the grid cell, so
    `holds(m)` is the whole certificate's boolean at m: times and trees are
    bit for bit those of checking every entry. A tree with no open entry is
    the EMST at every instant of the cell, t included, so it cannot differ
    from the tree at t; such a cell raises AuditFailure.
    """
    n, start = a_tree.n, a_t
    while a_tree.edges != cur_tree.edges:
        lo, hi = a_t, t
        cert = _cut_certificate(a_tree, _CERT_ENTRIES, *_pair_length_bounds(a_pos, rho))
        if cert is not None and not len(cert[0]):
            raise AuditFailure(
                f"a tree certified over [{start}, {t}] differs from the tree at {t}",
                record=(start, t),
            )
        while hi - lo > _SWAP_TIME_TOL:
            m = 0.5 * (lo + hi)
            holds, m_seen = yield m, cert  # its row
            if cert is None:
                m_seen = _kruskal(PointConfig(m_seen))  # its edges
                holds = frozenset(m_seen) == a_tree.edges
            if holds:
                lo = m
            else:
                hi, hi_seen = m, m_seen
        if hi < t and cert is not None:  # the last failing midpoint's row
            hi_seen = _kruskal(PointConfig(hi_seen))
        hi_tree = cur_tree if hi == t else SpanningTree._trusted(n, hi_seen)
        events.append((0.5 * (lo + hi), a_tree, hi_tree))
        a_t, a_tree = hi, hi_tree
        if len(events) > 4 * n:
            raise ParameterError("EMST combinatorics churn too fast for the grid")


def decompose_swap(old_tree: SpanningTree, new_tree: SpanningTree, t: float, cfg: PointConfig):
    """Split a multi-edge EMST change into single (e, e') swap events,
    processing inserted edges in lexicographic order. Each intermediate tree
    is built unchecked: its removed edge lies on the fundamental cycle of
    its inserted edge, so the exchange is a tree."""
    inserted = sorted(new_tree.edges - old_tree.edges)
    removed_pool = set(old_tree.edges - new_tree.edges)
    current = old_tree
    events = []
    for e_new in inserted:
        cycle = fundamental_cycle(current, e_new)
        cyc_edges = [_norm_edge(p) for p in zip(cycle, cycle[1:])]
        options = [i for i, e in enumerate(cyc_edges) if e in removed_pool]
        if not options:
            raise ParameterError("cannot pair inserted edge with a removed edge")
        i = min(options, key=lambda i: (-cfg.distance(*cyc_edges[i]), cyc_edges[i]))
        e_old = cyc_edges[i]
        events.append(_swap_event(current, i, e_new, t, cfg, cycle))
        current = _exchanged(current, e_old, e_new)
        removed_pool.discard(e_old)
    if current.edges != new_tree.edges:
        raise ParameterError("swap decomposition did not reach the new tree")
    return events


@dataclass(frozen=True)
class TopoRecord:
    time: float
    tree_length: float
    opt_length: float
    ratio: float


@dataclass
class TopoRunResult:
    records: list[TopoRecord]
    max_ratio: float
    swap_count: int
    fallback_count: int
    plans: list[MorphPlan] = field(default_factory=list)


def run_topo_regime(
    sc: KineticScenario,
    mode: str | None = None,
    samples: int = 64,
    grid: int = 257,
) -> TopoRunResult:
    """Follow the EMST, expressing each swap as a slide or rotation morph;
    every intermediate tree is charged at the swap time. In rotation mode a
    swap whose rotation preconditions fail (RotationPreconditionError) falls
    back to slides; any other error from the planner propagates, and a
    violated 3/2 or 4/3 bound raises AuditFailure."""
    mode = mode or sc.morph_mode
    if mode not in ("slide", "rotation"):
        raise ParameterError("mode must be 'slide' or 'rotation'")
    check_count(samples, "samples", 0)
    raw = detect_swaps(sc, grid)
    records, plans = [], []

    def add_record(t, tree_len, opt_len):
        records.append(TopoRecord(t, tree_len, opt_len, _ratio(tree_len, opt_len)))

    for t_star, old_tree, new_tree in raw:
        cfg = sc.config(t_star)
        opt_len = tree_length(cfg, emst(cfg))
        for ev in decompose_swap(old_tree, new_tree, t_star, cfg):
            if mode == "rotation":
                try:
                    plan = plan_rotation_morph(ev, cfg)
                except RotationPreconditionError:
                    plan = plan_slide_morph(ev, cfg)
                    plan.fallback = True
            else:
                plan = plan_slide_morph(ev, cfg)
            plans.append(plan)
            for length in plan.lengths:
                add_record(t_star, length, opt_len)
    sample_ts = np.linspace(0.0, sc.horizon, samples)
    for t, pos in zip(sample_ts, sc.positions(sample_ts)):
        cfg = PointConfig(pos)
        opt = tree_length(cfg, emst(cfg))
        add_record(float(t), opt, opt)
    records.sort(key=lambda r: r.time)
    max_ratio = max((r.ratio for r in records), default=1.0)
    return TopoRunResult(records, max_ratio, len(plans), sum(p.fallback for p in plans), plans)


# ---------------------------------------------------------------------------
# diamond connector machinery
# ---------------------------------------------------------------------------

_GEOM_TOL = 1e-9


def _touches_axis_segment(p, q, axis: int, lim: float) -> bool:
    """Does segment p-q touch the axis-aligned segment |other| <= lim?

    axis=0: the segment x=0, |y| <= lim (vertical); axis=1: y=0, |x| <= lim.
    """
    a, b = (p[axis], q[axis])
    if min(a, b) > _GEOM_TOL or max(a, b) < -_GEOM_TOL:
        return False
    if abs(b - a) < 1e-15:
        other = [p[1 - axis], q[1 - axis]]
        return min(other) <= lim + _GEOM_TOL and max(other) >= -lim - _GEOM_TOL
    t = (0.0 - a) / (b - a)
    if t < -1e-12 or t > 1.0 + 1e-12:
        return False
    cross = p[1 - axis] + t * (q[1 - axis] - p[1 - axis])
    return abs(cross) <= lim + _GEOM_TOL


def classify_connector(p, q) -> str:
    """Classify an edge of the diamond construction.

    top: touches the vertical diagonal, strictly above the horizontal one;
    bottom: the mirror case; cross: touches both diagonals; none: otherwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    tv = _touches_axis_segment(p, q, 0, _SQRT2)
    th = _touches_axis_segment(p, q, 1, _SQRT2)
    if tv and th:
        return "cross"
    if tv and min(p[1], q[1]) > _GEOM_TOL:
        return "top"
    if tv and max(p[1], q[1]) < -_GEOM_TOL:
        return "bottom"
    return "none"


@dataclass
class DiamondCertificate:
    per_side: int
    emst_length: float
    blocking_length: float  # min over bottom states of the path minimax
    min_cross_tree: float
    ratio: float


def diamond_rotation_certificate(sc: KineticScenario) -> DiamondCertificate:
    """Reachability certificate at the diamond's critical configuration.

    The spread chains are the discrete stand-ins for the construction's
    continuum of boundary points, so states are the trees "both chains +
    one connector edge" (a, b), a on the left chain and b on the right, and
    a rotation moves one connector endpoint along its chain side, to any
    (a2, b) or (a, b2). The certificate reports the smallest possible maximum
    tree length over any rotation path from the starting top-connector tree
    (0, 0) to a bottom-connector tree: `_grid_minimax` runs the flip
    oracle's `bottleneck_closure` over the m x m grid of tree lengths.
    """
    meta = sc.meta
    if meta.get("generator") != "diamond":
        raise ParameterError("certificate applies to diamond scenarios")
    cfg = sc.config(meta["t_mid"])
    left = list(meta["left_chain"])
    right = list(meta["right_chain"])
    pos = cfg.positions
    chains_len = _lr_sum([cfg.distance(a, b) for c in (left, right) for a, b in zip(c, c[1:])])
    cost = chains_len + _length_grid(cfg, left, right)
    kinds = np.array([[classify_connector(pos[a], pos[b]) for b in right] for a in left])
    if kinds[0, 0] != "top":
        raise ParameterError("start connector is not a top-connector")
    bottom = kinds == "bottom"
    if not bottom.any():
        raise ParameterError("no bottom-connector states")
    blocking = float(_grid_minimax(cost)[bottom].min())
    crosses = cost[kinds == "cross"]
    emst_len = tree_length(cfg, emst(cfg))
    return DiamondCertificate(
        per_side=meta["per_side"],
        emst_length=emst_len,
        blocking_length=blocking,
        min_cross_tree=float(crosses.min()) if crosses.size else math.inf,
        ratio=blocking / emst_len,
    )


def _grid_minimax(cost: np.ndarray) -> np.ndarray:
    """dist[a, b] = min over paths from (0, 0) to (a, b) that change one index
    per step of the largest cost on the path, endpoints included: the flip
    oracle's `bottleneck_closure` over the row-major grid's move CSR, which
    enters (a, b) from its column, then its row, less (a, b): r + c - 2 moves."""
    r, c = cost.shape
    ids = np.arange(cost.size)
    a, b = np.divmod(ids, c)
    moves = np.hstack([np.arange(r) * c + b[:, None], a[:, None] * c + np.arange(c)])
    src = moves[moves != ids[:, None]]
    indptr = np.arange(cost.size + 1) * (r + c - 2)
    start = np.where(ids == 0, cost.flat[0], np.inf)
    return bottleneck_closure(start, cost.ravel(), indptr, src).reshape(cost.shape)


# ---------------------------------------------------------------------------
# randomized swap instances (audit support)
# ---------------------------------------------------------------------------


def random_swap_instance(
    rng: np.random.Generator, n: int, longest_removed: bool = False
):
    """Random configuration, tree, and weight-sane swap for planner audits
    (n >= 3: a tree on two vertices has no edge to swap in)."""
    if n < 3:
        raise ParameterError("a swap needs n >= 3")
    while True:
        pos = rng.uniform(0.0, 1.0, size=(n, 2))
        cfg = PointConfig(pos)
        tree = tree_from_prufer(rng.integers(0, n, size=n - 2), n)
        candidates = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not tree.has_edge((u, v))
        ]
        e_new = candidates[int(rng.integers(0, len(candidates)))]
        cycle = fundamental_cycle(tree, e_new)
        lengths = [cfg.distance(*p) for p in zip(cycle, cycle[1:])]
        new_len = cfg.distance(*e_new)
        if longest_removed:
            i = max(range(len(lengths)), key=lengths.__getitem__)
            if lengths[i] < new_len:
                continue
        else:
            heavier = [i for i, length in enumerate(lengths) if length >= new_len]
            if not heavier:
                continue
            i = heavier[int(rng.integers(0, len(heavier)))]
        return cfg, _swap_event(tree, i, e_new, 0.0, cfg, cycle)
