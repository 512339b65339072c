"""Exhaustive flip-graph machinery for small point counts.

Enumerates every labeled spanning tree, connects them by single slides or
single rotations, and answers two questions:

* the best worst-case quality ratio any flip-continuous strategy can
  achieve along a scenario (a dynamic program over time steps, with the
  within-step reachability closed by bottleneck relaxation), and
* slide distances between trees (hop counts in the slide flip graph).

A tree's id is its row in `labeled_tree_pids`, the batch Prüfer decoder
over every sequence in lexicographic order; each row holds the tree's sorted
`_pairs(n)` edge ids. Its edges are also held as an int64 bitmask
over the n(n-1)/2 vertex pairs (21 bits at n = 7); a flip clears one bit
and sets another, so the tree it reaches is found by searching the sorted
masks. The moves are held as CSR over targets: src[indptr[x]:indptr[x+1]]
are the trees that flip into x, ascending, each once with no repeat filter
(a target t - e + f fixes the removed edge e and the added edge f, and the
build emits each (e, f) of a tree once). Tables are cached per (n, mode);
n is capped because the tree count is n^(n-2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError
from .scenarios import KineticScenario
from .spanning import PointConfig, SpanningTree, _pair_index, _pairs, labeled_tree_pids

_GRAPH_CACHE: dict = {}
_BFS_CACHE: dict = {}

N_LIMIT = 7  # the tree count n^(n-2) is 16,807 at n = 7


@dataclass
class FlipGraph:
    n: int
    edge_pids: np.ndarray  # (N, n-1) int32 `_pairs(n)` indices of each tree's sorted edges
    masks: np.ndarray  # (N,) int64 edge bitmasks (bit = pair id), ascending
    mask_ids: np.ndarray  # tree id of each entry of `masks`
    src: np.ndarray  # source tree of each move, moves ordered by (target, source)
    indptr: np.ndarray  # CSR over targets: src[indptr[x]:indptr[x+1]] flip into x

    def tree_lengths(self, positions: np.ndarray) -> np.ndarray:
        """Every tree's length, summed from `PointConfig.pair_lengths`: the
        oracle's ratios read the floats that order the EMST."""
        return PointConfig(positions).pair_lengths[self.edge_pids].sum(axis=1)

    def as_spanning_tree(self, tid: int) -> SpanningTree:
        iu, ju = (a[self.edge_pids[tid]].tolist() for a in _pairs(self.n))
        return SpanningTree(self.n, zip(iu, ju))


def flip_graph(n: int, mode: str) -> FlipGraph:
    """Cached flip graph over all labeled trees on n vertices."""
    if mode not in ("slide", "rotation"):
        raise ParameterError("mode must be 'slide' or 'rotation'")
    if n > N_LIMIT:
        raise SizeError(f"flip graph capped at n={N_LIMIT}, got n={n}")
    if n < 3:
        raise ParameterError("flip graph needs n >= 3")
    key = (n, mode)
    if key in _GRAPH_CACHE:
        return _GRAPH_CACHE[key]

    pids = labeled_tree_pids(n)
    num = pids.shape[0]
    rows = np.arange(num)
    eu, ev = (a[pids] for a in _pairs(n))  # u < v
    bits = np.int64(1) << pids
    tree_masks = bits.sum(axis=1)
    order = np.argsort(tree_masks)
    sorted_masks = tree_masks[order]
    # hops[t, x, w]: path length from x to w in tree t (Floyd-Warshall)
    hops = np.full((num, n, n), n, dtype=np.int8)
    hops[:, range(n), range(n)] = 0
    hops[rows[:, None], eu, ev] = 1
    hops[rows[:, None], ev, eu] = 1
    for k in range(n):
        np.minimum(hops, hops[:, :, k, None] + hops[:, None, k, :], out=hops)

    src_parts = []
    dst_parts = []
    for j in range(n - 1):
        u, v = eu[:, j], ev[:, j]
        from_u, from_v = hops[rows, u], hops[rows, v]
        kept = tree_masks - bits[:, j]
        for fixed, near, far in ((u, from_v, from_u), (v, from_u, from_v)):
            # Edge (u, v) becomes (fixed, w): w must not be fixed or one of
            # its neighbours (far > 1), and must be a neighbour of the
            # moving endpoint (slide) or on its side of (u, v) (rotation).
            on_side = near == 1 if mode == "slide" else near < far
            tid, w = np.nonzero(on_side & (far > 1))
            f = fixed[tid]
            new_pid = _pair_index(n, np.minimum(f, w), np.maximum(f, w))
            src_parts.append(tid)
            dst_parts.append(
                order[np.searchsorted(sorted_masks, kept[tid] + (np.int64(1) << new_pid))]
            )

    moves = np.sort(np.concatenate(dst_parts) * num + np.concatenate(src_parts))
    src = (moves % num).astype(np.int32)
    counts = np.bincount(moves // num, minlength=num)
    if np.any(counts == 0):
        raise ParameterError("flip graph has an isolated tree")
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    fg = FlipGraph(
        n=n,
        edge_pids=pids.astype(np.int32),
        masks=sorted_masks,
        mask_ids=order,
        src=src,
        indptr=indptr,
    )
    _GRAPH_CACHE[key] = fg
    return fg


def bottleneck_closure(start_vals: np.ndarray, cost: np.ndarray, indptr, src):
    """Minimax closure over a move graph held as CSR over targets (`indptr`, `src`).

    dist[b] = min over states a and move paths a->b of
              max(start_vals[a], cost of every path vertex after a).
    Computed by Jacobi relaxation sweeps until fixpoint. Every move into b
    is charged the same cost[b], so a sweep takes min_a max(dist[a], cost[b])
    as max(min_a dist[a], cost[b]): min and max only select among their
    arguments and max(., c) is monotone, so the two are the same float.

    A sweep visits only the unsettled states, those with dist > cost. Every
    candidate for b is max(., cost[b]) and dist never rises, so a state with
    dist <= cost cannot drop, and once settled it stays settled: a sweep
    over all states leaves each settled one unchanged. Every new value is
    read from the previous sweep's dist before any is assigned (Jacobi, not
    Gauss-Seidel), so each sweep yields the same array as a full sweep, and
    the loop stops at the same sweep, the first in which no state drops (or
    when none is left unsettled, where a full sweep would drop none). Only
    in-moves are read, so the graph need not be symmetric. No unsettled state
    has an empty segment: `flip_graph` rejects an isolated tree, an r x c grid
    state of `morph._grid_minimax` has r + c - 2 in-moves; a 1 x 1 grid is all settled.
    """
    dist = start_vals.copy()
    active = np.flatnonzero(dist > cost)
    while active.size:
        lo = indptr[active]
        cnt = indptr[active + 1] - lo
        offs = np.cumsum(cnt) - cnt  # each active state's segment in `moves`
        moves = np.repeat(lo - offs, cnt) + np.arange(offs[-1] + cnt[-1])
        old, own_cost = dist[active], cost[active]
        group_min = np.maximum(np.minimum.reduceat(dist[src[moves]], offs), own_cost)
        new = np.minimum(old, group_min)
        if not np.any(new < old):
            break
        dist[active] = new
        active = active[new > own_cost]
    return dist


@dataclass
class OracleResult:
    ratio: float
    times: np.ndarray
    schedule: list[SpanningTree]
    per_step_value: np.ndarray


def minimax_flip_oracle(
    sc: KineticScenario,
    mode: str | None = None,
    time_steps: int = 64,
) -> OracleResult:
    """Optimal worst-case ratio over all flip strategies on a time grid.

    At each grid time a strategy may perform any number of flips; every
    tree visited is charged at the current positions (linear interpolation
    of the cost over a flip attains its maximum at an endpoint, so vertex
    charging is exact). Returns the minimax ratio and a witnessing
    schedule of held trees.
    """
    n = sc.n
    if n > N_LIMIT:
        raise SizeError(f"oracle capped at n={N_LIMIT}")
    if time_steps < 0:
        raise ParameterError("time_steps must be >= 0")
    fg = flip_graph(n, mode or sc.morph_mode)
    ts = np.linspace(0.0, sc.horizon, time_steps + 1)
    costs = []
    for pos in sc.positions_many(ts):
        lengths = fg.tree_lengths(pos)
        opt = lengths.min()
        if opt <= 0:
            costs.append(np.where(lengths <= 0, 1.0, np.inf))
        else:
            costs.append(lengths / opt)
    values = [costs[0].copy()]
    for i in range(1, len(ts)):
        held = np.maximum(values[-1], costs[i])
        values.append(bottleneck_closure(held, costs[i], fg.indptr, fg.src))

    final = values[-1]
    b = int(np.argmin(final))
    ratio = float(final[b])
    held_ids = [b]
    for i in range(len(ts) - 1, 0, -1):
        stay_val = max(values[i - 1][b], costs[i][b])
        if stay_val <= values[i][b] + 1e-15:
            held_ids.append(b)
            continue
        b = _walk_source(fg, values[i - 1], costs[i], b, values[i][b])
        held_ids.append(b)
    held_ids.reverse()
    schedule = [fg.as_spanning_tree(t) for t in held_ids]
    per_step = np.array(
        [float(values[i][held_ids[i]]) for i in range(len(ts))]
    )
    return OracleResult(ratio=ratio, times=ts, schedule=schedule, per_step_value=per_step)


def _walk_source(fg: FlipGraph, prev_vals, cost, target, budget):
    """A tree from which `target` is flip-reachable within the budget."""
    eps = 1e-12
    allowed = cost <= budget + eps
    seen = {target}
    queue = [target]
    while queue:
        x = queue.pop()
        if max(prev_vals[x], cost[x]) <= budget + eps:
            return x
        lo, hi = fg.indptr[x], fg.indptr[x + 1]
        for y in fg.src[lo:hi]:
            y = int(y)
            if y not in seen and allowed[y]:
                seen.add(y)
                queue.append(y)
    raise ParameterError("oracle backtrack failed to find a walk source")


def tree_id(fg: FlipGraph, tree: SpanningTree) -> int:
    if tree.n != fg.n:
        raise ParameterError("tree is not on the expected vertex count")
    mask = sum(1 << _pair_index(fg.n, u, v) for u, v in tree.edges)
    return int(fg.mask_ids[np.searchsorted(fg.masks, mask)])


def slide_distance(a: SpanningTree, b: SpanningTree) -> int:
    """Fewest single slides turning tree a into tree b: an exact BFS from a,
    cached, each level adding the trees with an in-move from the last. Undoing
    a slide is again one, so in-moves and out-moves give the same hop counts."""
    if a.n != b.n:
        raise ParameterError("trees must share a vertex count")
    if a.edges == b.edges:
        return 0
    fg = flip_graph(a.n, "slide")
    sid = tree_id(fg, a)
    key = (a.n, sid)
    if key not in _BFS_CACHE:
        starts = fg.indptr[:-1]
        dist = np.full(starts.size, -1, dtype=np.int32)
        frontier = np.arange(starts.size) == sid
        d = 0
        while frontier.any():
            dist[frontier] = d
            d += 1
            frontier = np.logical_or.reduceat(frontier[fg.src], starts) & (dist < 0)
        _BFS_CACHE[key] = dist
    return int(_BFS_CACHE[key][tree_id(fg, b)])
