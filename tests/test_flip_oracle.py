import hashlib
import math

import numpy as np
import pytest

from kemst.errors import ParameterError, SizeError
from kemst.flip_oracle import (
    _BFS_CACHE,
    bottleneck_closure,
    flip_graph,
    minimax_flip_oracle,
    slide_distance,
    tree_id,
)
from kemst.scenarios import KineticScenario, gen_circle, gen_stationary
from kemst.spanning import SpanningTree, labeled_tree_edges, tree_from_prufer
from kemst.trajectories import linear


def _targets(fg):
    """The target tree of each move, which the CSR holds as `indptr`."""
    size = fg.edge_pids.shape[0]
    return np.repeat(np.arange(size, dtype=np.int32), np.diff(fg.indptr))


def test_flip_graph_counts_small():
    assert flip_graph(4, "slide").edge_pids.shape[0] == 16
    # moves are symmetric: undoing a slide or a rotation is again one
    for n in range(3, 8):
        for mode in ("slide", "rotation"):
            fg = flip_graph(n, mode)
            src, dst = fg.src.astype(np.int64), _targets(fg).astype(np.int64)
            size = fg.edge_pids.shape[0]
            assert np.array_equal(np.sort(src * size + dst), np.sort(dst * size + src))


def _reference_flip_graph(n, mode):
    """The tuple-and-dict loop builder: (edge_pids, src, dst, indptr)."""
    trees = labeled_tree_edges(n)
    index = {t: i for i, t in enumerate(trees)}
    pair_id = {}
    for u in range(n):
        for v in range(u + 1, n):
            pair_id[(u, v)] = len(pair_id)
    edge_pids = np.array([[pair_id[e] for e in t] for t in trees], dtype=np.int32)

    def component_without(adj, start, banned_u, banned_v):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if {x, y} == {banned_u, banned_v} or y in seen:
                    continue
                seen.add(y)
                stack.append(y)
        return seen

    src_list, dst_list = [], []
    for tid, edges in enumerate(trees):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        edge_set = set(edges)
        seen_moves = set()
        for u, v in edges:
            for fixed, moving in ((u, v), (v, u)):
                if mode == "slide":
                    targets = [w for w in adj[moving] if w != fixed]
                else:
                    comp = component_without(adj, moving, u, v)
                    targets = [w for w in comp if w != moving and w != fixed]
                for w in targets:
                    new_edge = (min(fixed, w), max(fixed, w))
                    if new_edge in edge_set:
                        continue
                    nid = index[tuple(sorted((edge_set - {(u, v)}) | {new_edge}))]
                    if nid not in seen_moves:
                        seen_moves.add(nid)
                        src_list.append(tid)
                        dst_list.append(nid)
    src = np.asarray(src_list, dtype=np.int32)
    dst = np.asarray(dst_list, dtype=np.int32)
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(dst, minlength=len(trees))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return edge_pids, src, dst, indptr


@pytest.mark.parametrize("mode", ["slide", "rotation"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_flip_graph_matches_reference_builder(n, mode):
    fg = flip_graph(n, mode)
    want = _reference_flip_graph(n, mode)
    # The reference drops repeated moves (`seen_moves`), so equal targets
    # also show that the builder emits none.
    for got, ref, name in zip(
        (fg.edge_pids, fg.src, _targets(fg), fg.indptr), want, ("edge_pids", "src", "dst", "indptr")
    ):
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


def test_tree_id_round_trip_every_tree():
    fg = flip_graph(6, "slide")
    trees = labeled_tree_edges(6)
    assert fg.edge_pids.shape[0] == len(trees)
    for t, edges in enumerate(trees):
        tree = fg.as_spanning_tree(t)
        assert tree_id(fg, tree) == t
        assert list(tree.edges) == list(SpanningTree(6, edges).edges)
    with pytest.raises(ParameterError):
        tree_id(fg, SpanningTree(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))


def test_rotation_graph_contains_slide_graph():
    fs = flip_graph(5, "slide")
    fr = flip_graph(5, "rotation")
    slide_moves = set(zip(fs.src.tolist(), _targets(fs).tolist()))
    rot_moves = set(zip(fr.src.tolist(), _targets(fr).tolist()))
    assert slide_moves <= rot_moves


def test_oracle_size_cap():
    sc = gen_stationary(np.random.default_rng(0).uniform(0, 1, (8, 2)))
    with pytest.raises(SizeError):
        minimax_flip_oracle(sc, "slide")


def test_oracle_stationary_is_one():
    sc = gen_stationary([[0, 0], [1, 0], [0.3, 0.8], [0.9, 0.9]])
    res = minimax_flip_oracle(sc, "slide", time_steps=8)
    assert res.ratio == pytest.approx(1.0)
    # witnessing schedule holds one tree throughout
    assert len({tuple(t.sorted_edges()) for t in res.schedule}) == 1


def test_oracle_no_forced_swap_is_one():
    # one point drifts a little; the EMST stays combinatorially constant
    from kemst.scenarios import KineticScenario
    from kemst.trajectories import Trajectory, constant

    sc = KineticScenario(
        points=(
            constant([0.0, 0.0], 1.0),
            Trajectory("polynomial", 2, 1.0, coeffs=((0.45, 0.02), (0.0,))),
            constant([1.0, 0.0], 1.0),
        )
    )
    res = minimax_flip_oracle(sc, "slide", time_steps=16)
    assert res.ratio == pytest.approx(1.0, abs=1e-12)


def test_oracle_circle_values_pinned(pinned):
    settings = pinned["settings"]
    got = {}
    for n in (5, 6, 7):
        sc = gen_circle(n, e_len=settings["oracle_e_len"])
        res = minimax_flip_oracle(
            sc, "slide", time_steps=settings["oracle_time_steps"]
        )
        got[n] = res.ratio
        assert res.ratio == pytest.approx(
            pinned["circle_oracle_slide"][str(n)], rel=1e-9
        )
    assert got[5] <= got[6] <= got[7]
    assert all(v > 1.10 for v in got.values())
    assert all(v < (math.pi + 1) / math.pi + 1e-6 for v in got.values())


def test_oracle_circle_exceeds_115_at_7(pinned):
    assert pinned["circle_oracle_slide"]["7"] > 1.15


def test_oracle_witness_schedule_consistent():
    sc = gen_circle(5)
    res = minimax_flip_oracle(sc, "slide", time_steps=32)
    fg = flip_graph(5, "slide")
    for i, tree in enumerate(res.schedule):
        t = float(res.times[i])
        lengths = fg.tree_lengths(sc.positions(t))
        ratio = lengths[tree_id(fg, tree)] / lengths.min()
        assert ratio <= res.ratio + 1e-9


def test_bottleneck_closure_small_chain():
    fg = flip_graph(4, "slide")
    cost = np.full(fg.edge_pids.shape[0], 5.0)
    start = np.full(fg.edge_pids.shape[0], 9.0)
    start[0] = 1.0
    dist = bottleneck_closure(start, cost, fg.indptr, fg.src)
    # everything reachable from tree 0 pays max(1, 5) = 5
    assert dist[0] == 1.0
    assert np.all(dist[1:] == 5.0)


def _reference_closure(start_vals, cost, fg):
    """Closure sweep charging cost[dst] on every move before the group min."""
    dist = start_vals.copy()
    cost_dst = cost[_targets(fg)]
    while True:
        cand = np.maximum(dist[fg.src], cost_dst)
        group_min = np.minimum.reduceat(cand, fg.indptr[:-1])
        new_dist = np.minimum(dist, group_min)
        if not np.any(new_dist < dist):
            return new_dist
        dist = new_dist


@pytest.mark.parametrize("mode", ["slide", "rotation"])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_bottleneck_closure_matches_reference(n, mode):
    fg = flip_graph(n, mode)
    size = fg.edge_pids.shape[0]
    rng = np.random.default_rng(n)
    # few distinct levels, so ties between dist and cost are common
    levels = np.array([1.0, 1.0 + 2**-52, 1.25, 1.5, 2.0, np.inf])
    for _ in range(6):
        start = levels[rng.integers(0, len(levels), size)]
        cost = levels[rng.integers(0, len(levels), size)]
        start[rng.integers(0, size, 3)] = 1.0
        cost[rng.integers(0, size, size // 10)] = rng.uniform(1.0, 2.0, size // 10)
        got = bottleneck_closure(start, cost, fg.indptr, fg.src)
        assert np.array_equal(got, _reference_closure(start, cost, fg))
    # The two shapes the oracle's closures take: nearly every tree above
    # its cost (start = max(previous values, cost)), and a handful of them.
    cost = 1.0 + rng.uniform(0.0, 0.5, size) ** 2
    nearly_all = np.maximum(cost * rng.uniform(1.0, 1.3, size), cost)
    nearly_all[rng.integers(0, size, 5)] = 1.0
    few = cost.copy()
    few[rng.choice(size, int(rng.integers(1, 21)), replace=False)] += 0.5
    for start in (nearly_all, few):
        got = bottleneck_closure(start, cost, fg.indptr, fg.src)
        assert np.array_equal(got, _reference_closure(start, cost, fg))


@pytest.mark.parametrize("mode,digest", [
    ("slide", "5f0668735ca106f4a4ed81f72b5f12da8223cd8cea767d9ec7c407d612e477f8"),
    ("rotation", "e713a7e9e69296ac29a85d837aa24a3111ec0a37928e365bbddd5ed0fb330ab8"),
], ids=["slide", "rotation"])
def test_oracle_circle_n7_bits(pinned, mode, digest):
    # sha256 of every grid value's float.hex and every held tree's id.
    settings = pinned["settings"]
    sc = gen_circle(7, e_len=settings["oracle_e_len"])
    res = minimax_flip_oracle(sc, mode, time_steps=settings["oracle_time_steps"])
    fg = flip_graph(7, mode)
    text = " ".join(float(v).hex() for v in res.per_step_value)
    text += "|" + " ".join(str(tree_id(fg, tree)) for tree in res.schedule)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_oracle_rejects_negative_time_steps():
    sc = gen_circle(5)
    with pytest.raises(ParameterError):
        minimax_flip_oracle(sc, "slide", time_steps=-1)
    res = minimax_flip_oracle(sc, "slide", time_steps=0)
    assert res.times.tolist() == [0.0]
    assert len(res.schedule) == 1 and res.per_step_value.shape == (1,)


def test_oracle_when_every_point_coincides():
    # The corners swap diagonally and all meet at the centre at t = 0.5,
    # where every tree has length 0 and is charged ratio 1.
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    sc = KineticScenario(points=tuple(linear([x, y], [1 - x, 1 - y], 1.0) for x, y in corners))
    res = minimax_flip_oracle(sc, "slide", time_steps=4)
    assert res.ratio == 1.0
    assert res.per_step_value.tolist() == [1.0] * 5


def test_slide_distance_basics():
    a = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    b = SpanningTree(4, [(0, 2), (1, 2), (2, 3)])
    assert slide_distance(a, a) == 0
    assert slide_distance(a, b) == 1
    assert slide_distance(b, a) == 1


def _reference_slide_bfs(fg, sid):
    """Hop counts to tree sid, by a Python BFS over each tree's in-moves."""
    dist = np.full(fg.edge_pids.shape[0], -1, dtype=np.int32)
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
    return dist


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_slide_distance_matches_reference_bfs(n):
    fg = flip_graph(n, "slide")
    size = fg.edge_pids.shape[0]
    rng = np.random.default_rng(100 + n)
    picks = rng.integers(0, size, 2 if n == 7 else 4).tolist()
    for sid in sorted({0, size - 1, *picks}):
        a = fg.as_spanning_tree(sid)
        b = fg.as_spanning_tree((sid + 1) % size)
        assert slide_distance(a, b) == slide_distance(b, a) >= 1
        got = _BFS_CACHE[(n, sid)]
        want = _reference_slide_bfs(fg, sid)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.min() == 0 and np.flatnonzero(got == 0).tolist() == [sid]


def test_slide_distance_lower_bounded_by_symmetric_difference():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 6
        t1 = tree_from_prufer([int(x) for x in rng.integers(0, n, n - 2)], n)
        t2 = tree_from_prufer([int(x) for x in rng.integers(0, n, n - 2)], n)
        d = slide_distance(t1, t2)
        assert d >= len(t1.edges ^ t2.edges) // 2
