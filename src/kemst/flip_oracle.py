"""Exhaustive flip-graph machinery for small point counts.

Enumerates every labeled spanning tree, connects them by single slides or
single rotations, and answers two questions:

* the best worst-case quality ratio any flip-continuous strategy can
  achieve along a scenario (a dynamic program over time steps, with the
  within-step reachability closed by bottleneck relaxation), and
* slide distances between trees (hop counts in the slide flip graph).

Tables are cached per (n, mode); n is capped because the tree count is
n^(n-2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError
from .scenarios import KineticScenario
from .spanning import SpanningTree, labeled_tree_edges

_GRAPH_CACHE: dict = {}
_BFS_CACHE: dict = {}

DEFAULT_N_LIMIT = 7


@dataclass
class FlipGraph:
    n: int
    mode: str
    trees: list  # canonical sorted edge tuples
    index: dict  # edge tuple -> tree id
    edge_pids: np.ndarray  # (N, n-1) indices into the pair list
    pair_iu: np.ndarray
    pair_ju: np.ndarray
    src: np.ndarray  # directed flip edges, sorted by dst
    dst: np.ndarray
    indptr: np.ndarray  # CSR over dst-sorted edges: src[indptr[x]:indptr[x+1]] flip into x

    def tree_lengths(self, positions: np.ndarray) -> np.ndarray:
        seg = positions[self.pair_iu] - positions[self.pair_ju]
        pair_len = np.linalg.norm(seg, axis=1)
        return pair_len[self.edge_pids].sum(axis=1)

    def as_spanning_tree(self, tid: int) -> SpanningTree:
        return SpanningTree(self.n, self.trees[tid])


def _adjacency(edges, n):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _component_without(adj, start, banned_u, banned_v, n):
    """Vertices reachable from `start` skipping the edge (banned_u, banned_v)."""
    seen = [False] * n
    seen[start] = True
    stack = [start]
    out = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if (x == banned_u and y == banned_v) or (x == banned_v and y == banned_u):
                continue
            if not seen[y]:
                seen[y] = True
                stack.append(y)
                out.append(y)
    return out


def flip_graph(n: int, mode: str, n_limit: int = DEFAULT_N_LIMIT) -> FlipGraph:
    """Cached flip graph over all labeled trees on n vertices."""
    if mode not in ("slide", "rotation"):
        raise ParameterError("mode must be 'slide' or 'rotation'")
    if n > n_limit:
        raise SizeError(f"flip graph capped at n={n_limit}, got n={n}")
    if n < 3:
        raise ParameterError("flip graph needs n >= 3")
    key = (n, mode)
    if key in _GRAPH_CACHE:
        return _GRAPH_CACHE[key]

    trees = labeled_tree_edges(n)
    index = {t: i for i, t in enumerate(trees)}
    pair_id = {}
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            pair_id[(u, v)] = len(pairs)
            pairs.append((u, v))
    edge_pids = np.array(
        [[pair_id[e] for e in t] for t in trees], dtype=np.int32
    )

    src_list = []
    dst_list = []
    for tid, edges in enumerate(trees):
        adj = _adjacency(edges, n)
        edge_set = set(edges)
        seen_moves = set()
        for u, v in edges:
            for fixed, moving in ((u, v), (v, u)):
                if mode == "slide":
                    targets = [w for w in adj[moving] if w != fixed]
                else:
                    comp = _component_without(adj, moving, u, v, n)
                    targets = [w for w in comp if w != moving and w != fixed]
                for w in targets:
                    # spanning._norm_edge inlined: 0.2M-0.5M calls per graph at n = 7
                    new_edge = (fixed, w) if fixed < w else (w, fixed)
                    if new_edge in edge_set:
                        continue
                    new_tree = tuple(
                        sorted((edge_set - {(u, v)}) | {new_edge})
                    )
                    nid = index[new_tree]
                    if nid not in seen_moves:
                        seen_moves.add(nid)
                        src_list.append(tid)
                        dst_list.append(nid)

    src = np.asarray(src_list, dtype=np.int32)
    dst = np.asarray(dst_list, dtype=np.int32)
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(dst, minlength=len(trees))
    if np.any(counts == 0):
        raise ParameterError("flip graph has an isolated tree")
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    iu, ju = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    fg = FlipGraph(
        n=n,
        mode=mode,
        trees=trees,
        index=index,
        edge_pids=edge_pids,
        pair_iu=iu,
        pair_ju=ju,
        src=src,
        dst=dst,
        indptr=indptr,
    )
    _GRAPH_CACHE[key] = fg
    return fg


def bottleneck_closure(start_vals: np.ndarray, cost: np.ndarray, fg: FlipGraph):
    """Minimax closure over the flip graph.

    dist[b] = min over trees a and flip paths a->b of
              max(start_vals[a], cost of every path vertex after a).
    Computed by Jacobi relaxation sweeps until fixpoint.
    """
    dist = start_vals.copy()
    cost_dst = cost[fg.dst]
    while True:
        cand = np.maximum(dist[fg.src], cost_dst)
        group_min = np.minimum.reduceat(cand, fg.indptr[:-1])
        new_dist = np.minimum(dist, group_min)
        if not np.any(new_dist < dist):
            return new_dist
        dist = new_dist


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
    n_limit: int = DEFAULT_N_LIMIT,
) -> OracleResult:
    """Optimal worst-case ratio over all flip strategies on a time grid.

    At each grid time a strategy may perform any number of flips; every
    tree visited is charged at the current positions (linear interpolation
    of the cost over a flip attains its maximum at an endpoint, so vertex
    charging is exact). Returns the minimax ratio and a witnessing
    schedule of held trees.
    """
    n = sc.n
    if n > n_limit:
        raise SizeError(f"oracle capped at n={n_limit}")
    fg = flip_graph(n, mode or sc.morph_mode, n_limit)
    ts = np.linspace(0.0, sc.horizon, time_steps + 1)
    costs = []
    for t in ts:
        lengths = fg.tree_lengths(sc.positions(float(t)))
        opt = lengths.min()
        if opt <= 0:
            costs.append(np.where(lengths <= 0, 1.0, np.inf))
        else:
            costs.append(lengths / opt)
    values = [costs[0].copy()]
    for i in range(1, len(ts)):
        held = np.maximum(values[-1], costs[i])
        values.append(bottleneck_closure(held, costs[i], fg))

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
    key = tuple(sorted(tree.edges))
    if key not in fg.index:
        raise ParameterError("tree is not on the expected vertex count")
    return fg.index[key]


def slide_distance(a: SpanningTree, b: SpanningTree, n_limit: int = DEFAULT_N_LIMIT) -> int:
    """Fewest single slides turning tree a into tree b (exact BFS)."""
    if a.n != b.n:
        raise ParameterError("trees must share a vertex count")
    if a.edges == b.edges:
        return 0
    fg = flip_graph(a.n, "slide", n_limit)
    sid = tree_id(fg, a)
    key = (a.n, sid)
    if key not in _BFS_CACHE:
        dist = np.full(len(fg.trees), -1, dtype=np.int32)
        dist[sid] = 0
        frontier = [sid]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                lo, hi = fg.indptr[x], fg.indptr[x + 1]
                for y in fg.src[lo:hi]:
                    y = int(y)
                    if dist[y] < 0:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        _BFS_CACHE[key] = dist
    return int(_BFS_CACHE[key][tree_id(fg, b)])
