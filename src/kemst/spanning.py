"""Combinatorial spanning trees over point indices and exact EMSTs.

Trees are edge sets over vertex indices 0..n-1; geometry enters only
through a PointConfig (positions at one instant). The EMST uses a
Kruskal sweep ordered by (length, u, v), which pins a deterministic
tie-break: among equal-weight choices the lexicographically smallest
sorted edge list wins. The order is a stable sort of
`PointConfig.pair_lengths` over the pairs in `np.triu_indices` order ((u, v)
lexicographic), so equal lengths keep that order. `distance` and
`tree_length` read the same vector: a quality ratio's tree and EMST lengths
are summed from the floats that chose the EMST, not from a second norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParameterError, SizeError


def _parents(adj, root: int = 0) -> dict:
    """Parent of every vertex reached from `root` (the root's is itself),
    keyed in breadth-first order."""
    parent, order = {root: root}, [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent


def _norm_edge(e):
    u, v = e
    if u == v:
        raise ParameterError("self-loop edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree on n vertices: exactly n-1 edges, connected."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        norm = frozenset(_norm_edge(e) for e in edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", norm)
        if len(norm) != n - 1:
            raise ParameterError(f"spanning tree on {n} vertices needs {n - 1} edges")
        if any(u < 0 or v >= n for u, v in norm):
            raise ParameterError("edge endpoint out of range")
        if len(_parents(self.adjacency())) != n:
            raise ParameterError("edge set does not connect all vertices")

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def has_edge(self, e) -> bool:
        return _norm_edge(e) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def replace(self, old, new) -> "SpanningTree":
        """Tree with `old` removed and `new` inserted (validated)."""
        old = _norm_edge(old)
        new = _norm_edge(new)
        if old not in self.edges:
            raise ParameterError("edge to remove is not in the tree")
        return SpanningTree(self.n, (self.edges - {old}) | {new})


@dataclass(frozen=True)
class PointConfig:
    """Positions of n points in R^d at a fixed time."""

    positions: np.ndarray

    def __init__(self, positions):
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if not np.all(np.isfinite(pos)):
            raise ParameterError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @functools.cached_property
    def pair_lengths(self) -> np.ndarray:
        """Read-only length of every pair u < v in `_pairs(n)` order."""
        lengths = _pair_lengths(self.positions)
        lengths.setflags(write=False)
        return lengths

    def distance(self, u: int, v: int) -> float:
        """Length of pair (u, v): its `pair_lengths` entry, 0.0 if u == v."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError("vertex out of range")
        if u == v:
            return 0.0
        return float(self.pair_lengths[_pair_index(self.n, min(u, v), max(u, v))])


# Cached per point count: `np.triu_indices` is a large share of a small
# EMST, and a run rebuilds many EMSTs at the same n (the topological regime
# at n = 20 about 16k of them). Above 16n pairs `_kruskal` reads both
# arrays whole, once per block, to find the pairs still between two
# components. A run uses few point counts (one to three in each benchmark
# workload), so eight entries hold them all.
@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (iu, ju) of all pairs u < v, lexicographic in (u, v)."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _pair_lengths(pos: np.ndarray) -> np.ndarray:
    """Every pair's length in `_pairs(n)` order, of positions (..., n, d), by
    `_lengths`, so a batch row equals its configuration's."""
    iu, ju = _pairs(pos.shape[-2])
    return _lengths(pos.take(iu, axis=-2) - pos.take(ju, axis=-2))


def _lengths(diff: np.ndarray) -> np.ndarray:
    """The one length rule: the Euclidean norm of coordinate differences
    along the last axis, their squares summed in coordinate order and then
    rooted, element by element, so a length does not depend on the batch it
    is computed in. Up to d = 7 these are `np.linalg.norm`'s bits (numpy
    2.4.6 sums a short last axis in order, and pairwise from 8 terms), at
    about a fifth of its time on (pairs, 2) arrays."""
    acc = diff[..., 0] * diff[..., 0]
    for c in range(1, diff.shape[-1]):
        acc += diff[..., c] * diff[..., c]
    return np.sqrt(acc, out=acc)


def _pair_index(n: int, u, v):
    """Unchecked index of pair (u, v), 0 <= u < v < n, in `_pairs(n)` order."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


def _edge_lengths(cfg: PointConfig, edges) -> np.ndarray:
    """`cfg.pair_lengths` of normalized edges (u < v), in iteration order."""
    uv = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2)
    return cfg.pair_lengths[_pair_index(cfg.n, uv[:, 0], uv[:, 1])]


def _length_grid(cfg: PointConfig, rows, cols) -> np.ndarray:
    """`cfg.pair_lengths` of every pair (rows[i], cols[j]) as a matrix, 0.0
    where the two are one point."""
    r, c = np.asarray(rows)[:, None], np.asarray(cols)[None, :]
    lo, hi = np.minimum(r, c), np.maximum(r, c)
    return np.where(lo == hi, 0.0, cfg.pair_lengths[_pair_index(cfg.n, lo, hi)])


def emst(cfg: PointConfig) -> SpanningTree:
    """Euclidean minimum spanning tree with the deterministic tie rule."""
    return SpanningTree(cfg.n, _kruskal(cfg))


# Up to this many candidate pairs per point `_kruskal` stable-sorts them
# all at once; above it, it takes a block of the 4n shortest. A block costs
# a partition and a filter: on random 2-D points (2-core Xeon, numpy 2.4.6)
# the block path took 35.9 us a call at n = 20 against 34.0 us for the one
# sort, 46.9 against 69.7 us at n = 34 and 67 against 204 us at n = 64.
# 16n < n(n - 1) / 2 means n >= 34: topo-cubic (n = 20), the diamond
# (n = 26) and the flip-graph sizes (n <= 7) keep the one sort.
_SORT_ALL_PER_POINT = 16


def _kruskal(cfg: PointConfig) -> list[tuple[int, int]]:
    """The EMST's edges as (u, v) pairs with u < v, in Kruskal order.

    Not validated; `emst` wraps them in a SpanningTree. Pairs are swept in
    the strict order (length, pair index), so this is the unique MST under
    it; `_cut_certificate` tells whether a given tree is that MST.

    The sweep reads blocks of the candidates C, every pair at first, kept
    in pair-index order. Up to `_SORT_ALL_PER_POINT * n` candidates the
    block is all of C. Above, it is the filter step of Filter-Kruskal: the
    block B is every candidate with length <= top, the (4n + 1)-th smallest
    length in C. A stable sort of B by length, as B is in index order, is B
    in the strict order, and every pair of B precedes every pair of C - B
    (its length is <= top < theirs). After the sweep of B, C becomes the
    pairs of C whose endpoints lie in two components, which leaves out all
    of B. A dropped pair of C - B would be rejected when reached, since
    components only merge. So the blocks make the same decisions, in the
    same order, as one sweep over a stable sort of all pairs, and the list
    equals that sweep's element by element. C keeps every pair between two
    components, so a block of all of C ends at n - 1 merges.
    """
    n = cfg.n
    if n < 2:
        raise ParameterError("EMST needs at least 2 points")
    iu, ju = _pairs(n)
    # Kruskal with component labels; a rejection is two list lookups and a
    # merge relabels the smaller component. The filter keeps most rejections
    # out of Python: on the split construction at n = 384 the sweep sees 383
    # to 1,670 of the 73,536 pairs, where one sort of every pair would feed
    # it up to 37k.
    comp = list(range(n))
    members = [[v] for v in range(n)]
    edges = []
    cand, ls = None, cfg.pair_lengths  # C is `cand`, None for every pair, of lengths `ls`
    while True:
        whole = len(ls) <= _SORT_ALL_PER_POINT * n
        if whole:
            block = np.argsort(ls, kind="stable")
        else:
            block = np.flatnonzero(ls <= np.partition(ls, 4 * n)[4 * n])
            block = block[np.argsort(ls[block], kind="stable")]
        if cand is not None:
            block = cand[block]
        for u, v in zip(iu[block].tolist(), ju[block].tolist()):
            cu, cv = comp[u], comp[v]
            if cu == cv:
                continue
            if len(members[cu]) < len(members[cv]):
                cu, cv = cv, cu
            for w in members[cv]:
                comp[w] = cu
            members[cu] += members[cv]
            edges.append((u, v))
            if len(edges) == n - 1:
                return edges
        if whole:
            return edges
        # Two label gathers per candidate are this loop's largest arrays; the
        # smallest label type halves them at n = 384 (uint16), and indexing,
        # unlike `take`, does not copy the read-only iu and ju first.
        labels = np.array(comp, dtype=np.min_scalar_type(n - 1))
        pu, pv = (iu, ju) if cand is None else (iu[cand], ju[cand])
        keep = labels[pu] != labels[pv]
        cand = np.flatnonzero(keep) if cand is None else cand[keep]
        ls = ls[keep]


def _cut_certificate(tree: SpanningTree, limit: int, lower: np.ndarray, upper: np.ndarray):
    """Flat int32 pair indices (P, E), by edge and then pair: each tree edge
    E with each non-tree pair P crossing its fundamental cut but those with
    lower[P] > upper[E] (per-pair bounds; a NaN keeps the entry), formed
    only for pairs not above every tree edge's upper bound. None if over
    `limit` entries in all, counted before any is built: (n - 1)(n - 2) (a
    star) to ~n^3 / 6 (a path).

    Rank pairs in `_kruskal`'s strict order (length, pair index): the MST is
    unique and `_kruskal` returns it. T is that tree iff each tree edge e is
    its cut's minimum: the cut property puts every such e in the MST, and a
    crossing p below e would make T - e + p lighter. So, L being
    `cfg.pair_lengths`, `frozenset(_kruskal(cfg)) == tree.edges` iff every
    entry has (L[P], P) > (L[E], E) (`_cuts_hold`), as those left out do.
    """
    n, parent = tree.n, _parents(tree.adjacency())
    kids = list(parent)[1:]
    below = np.eye(n, dtype=bool)
    for v in reversed(kids):
        below[parent[v]] |= below[v]
    below = below[kids]  # row k: the vertices below edge (kids[k], its parent)
    outside = n - np.count_nonzero(below, axis=1)
    if int((n - outside) @ outside) - (n - 1) > limit:
        return None
    kv, pv = np.array(kids), np.array([parent[v] for v in kids])
    edge = _pair_index(n, np.minimum(kv, pv), np.maximum(kv, pv))
    iu, ju = _pairs(n)
    cand = np.flatnonzero(~(lower > upper[edge].max()))
    k, c = np.nonzero(below[:, iu[cand]] != below[:, ju[cand]])  # cand[c] crosses edge k's cut
    p, e = cand[c], edge[k]
    keep = (p != e) & ~(lower[p] > upper[e])  # an edge does not certify itself
    return p[keep].astype(np.int32), e[keep].astype(np.int32)


def _entry_lengths(pos: np.ndarray, row: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """`_pair_lengths(pos)[row, pair]` of positions (rows, n, d), formed for
    those entries only: `_lengths` on the same coordinates, so bit for bit."""
    n = pos.shape[1]
    flat = pos.reshape(-1, pos.shape[2])
    iu, ju = _pairs(n)
    at = row * n
    return _lengths(flat.take(at + iu[pair], axis=0) - flat.take(at + ju[pair], axis=0))


def _cuts_hold(pos: np.ndarray, certs) -> np.ndarray:
    """Per row r of positions `pos` (rows, n, d), whether every entry (P, E)
    of certs[r] has (L[P], P) > (L[E], E), L being the row's `_pair_lengths`;
    for a whole `_cut_certificate`, whether its tree is that row's EMST.

    Only the entries' lengths are formed (`_entry_lengths`), none of the
    other pairs', so the work follows the entries left open by a cell
    enclosure.
    """
    row = np.repeat(np.arange(len(certs)), [len(p) for p, _e in certs])
    p, e = (np.concatenate(c) for c in zip(*certs))
    lp, le = _entry_lengths(pos, row, p), _entry_lengths(pos, row, e)
    broken = row[(lp < le) | ((lp == le) & (p < e))]
    return np.bincount(broken, minlength=len(certs)) == 0


def _lr_sum(lengths) -> float:
    """Lengths (>= 0) added left to right from the first, the order of
    Python's `sum` up to 3.11; from 3.12 `sum` compensates Python floats,
    which would move a length's last bits between supported versions."""
    return float(np.cumsum(lengths)[-1]) if len(lengths) else 0.0


def tree_length(cfg: PointConfig, tree: SpanningTree) -> float:
    """Total length of the tree: its edges' `pair_lengths` entries, the
    floats that ordered the EMST, summed in `tree.edges` order."""
    if tree.n != cfg.n:
        raise ParameterError("tree and configuration vertex counts differ")
    return _lr_sum(_edge_lengths(cfg, tree.edges))


def _ratio(tree_len: float, opt_len: float) -> float:
    """tree/OPT; 0/0 (every point coincides) is 1.0 and x/0 is inf."""
    if opt_len <= 0.0:
        return 1.0 if tree_len <= 0.0 else math.inf
    return tree_len / opt_len


def fundamental_cycle(tree: SpanningTree, new_edge) -> list[int]:
    """Vertices of the unique cycle of tree + new_edge.

    Returned as the tree path from one endpoint of new_edge to the other,
    so the list starts and ends at the inserted edge's endpoints.
    """
    a, b = _norm_edge(new_edge)
    if tree.has_edge((a, b)):
        raise ParameterError("edge already in tree")
    parent = _parents(tree.adjacency(), a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def two_coloring(tree: SpanningTree) -> np.ndarray:
    """Proper 2-coloring; color 0 ('red') at vertex 0."""
    colors = np.zeros(tree.n, dtype=int)
    for v, u in list(_parents(tree.adjacency()).items())[1:]:
        colors[v] = 1 - colors[u]
    return colors


def _prufer_pair_ids(seqs: np.ndarray, n: int) -> np.ndarray:
    """Sorted `_pairs(n)` ids of the edges of each labeled tree whose Prüfer
    sequence is a row of `seqs` (shape (N, n-2), entries in 0..n-1); shape
    (N, n-1).

    One decode runs on every row at once. degree[v] is one plus the count
    of v in the rest of the sequence, so the leaves are the columns with
    degree 1. Step j joins the smallest leaf, the first such column, to
    seqs[:, j] and decrements both; the leaf drops to 0 and never returns.
    The last two degree-1 columns form the final edge. Pair ids order
    edges as (u, v) does, so a sorted row lists the edges lexicographically.
    """
    num = seqs.shape[0]
    rows = np.arange(num)
    degree = np.ones((num, n), dtype=np.intp)
    np.add.at(degree, (rows[:, None], seqs), 1)
    ends = np.empty((num, n - 1, 2), dtype=np.intp)
    for j in range(n - 2):
        leaf = np.argmax(degree == 1, axis=1)
        ends[:, j, 0], ends[:, j, 1] = leaf, seqs[:, j]
        degree[rows, leaf] -= 1
        degree[rows, seqs[:, j]] -= 1
    ends[:, -1] = np.nonzero(degree == 1)[1].reshape(num, 2)
    lo, hi = ends.min(axis=2), ends.max(axis=2)
    return np.sort(_pair_index(n, lo, hi), axis=1)


def labeled_tree_pids(n: int) -> np.ndarray:
    """`_prufer_pair_ids` of all n^(n-2) labeled trees on n >= 2 vertices,
    in the lexicographic order of their Prüfer sequences."""
    return _prufer_pair_ids(np.indices((n,) * (n - 2)).reshape(n - 2, n ** (n - 2)).T, n)


def tree_from_prufer(seq, n: int) -> SpanningTree:
    """Labeled tree for a Prüfer sequence over vertices 0..n-1."""
    arr = np.asarray(seq)
    if n < 2 or arr.shape != (n - 2,):
        raise ParameterError(f"Prüfer sequence on {n} vertices needs {n - 2} entries")
    if arr.size and not (
        np.issubdtype(arr.dtype, np.integer) and arr.min() >= 0 and arr.max() < n
    ):
        raise ParameterError(f"Prüfer sequence entries must be integers in 0..{n - 1}")
    pids = _prufer_pair_ids(arr.astype(np.intp).reshape(1, n - 2), n)[0]
    iu, ju = (a[pids].tolist() for a in _pairs(n))
    return SpanningTree(n, zip(iu, ju))


def labeled_tree_edges(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Sorted edge tuples of all n^(n-2) labeled trees on n >= 2 vertices,
    in the lexicographic order of their Prüfer sequences."""
    iu, ju = (a[labeled_tree_pids(n)].tolist() for a in _pairs(n))
    return [tuple(zip(u, v)) for u, v in zip(iu, ju)]


def enumerate_spanning_trees(n: int):
    """All n^(n-2) labeled trees on n vertices (n <= 8)."""
    if n > 8:
        raise SizeError("exhaustive tree enumeration capped at n=8")
    if n < 2:
        raise ParameterError("need at least 2 vertices")
    return [SpanningTree(n, edges) for edges in labeled_tree_edges(n)]
