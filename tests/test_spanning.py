import builtins
import heapq
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemst import lipschitz, morph, spanning, trajectories
from kemst.errors import ParameterError, SizeError
from kemst.flip_oracle import flip_graph
from kemst.scenarios import gen_diamond, gen_rational_bumps, gen_split
from kemst.spanning import (
    PointConfig,
    SpanningTree,
    _cut_certificate,
    _cuts_hold,
    _entry_lengths,
    _kruskal,
    _length_grid,
    _lr_sum,
    _pair_index,
    _pair_lengths,
    _pairs,
    emst,
    enumerate_spanning_trees,
    fundamental_cycle,
    labeled_tree_edges,
    tree_from_prufer,
    tree_length,
    two_coloring,
)
from kemst.trajectories import polyval

from helpers import full_certificate, left_to_right


def test_tree_invariants_enforced():
    with pytest.raises(ParameterError):
        SpanningTree(4, [(0, 1), (1, 2)])  # too few edges
    with pytest.raises(ParameterError):
        SpanningTree(4, [(0, 1), (1, 2), (0, 2)])  # cycle, disconnected 3
    with pytest.raises(ParameterError):
        SpanningTree(3, [(0, 1), (1, 1)])  # self loop
    with pytest.raises(ParameterError, match="out of range"):
        SpanningTree(3, [(0, 1), (1, 5)])
    with pytest.raises(ParameterError, match="not in the tree"):
        SpanningTree(3, [(0, 1), (1, 2)]).replace((0, 2), (0, 1))
    with pytest.raises(ParameterError, match="finite"):
        PointConfig([[0.0, 0.0], [np.nan, 1.0]])


def test_emst_collinear():
    cfg = PointConfig([[0.0], [0.5], [1.0]])
    tree = emst(cfg)
    assert tree.edges == frozenset({(0, 1), (1, 2)})
    assert tree_length(cfg, tree) == pytest.approx(1.0, abs=1e-15)


def test_emst_unit_square_tie_break():
    cfg = PointConfig([[0, 0], [1, 0], [1, 1], [0, 1]])
    tree = emst(cfg)
    assert tree.sorted_edges() == [(0, 1), (0, 3), (1, 2)]
    assert tree_length(cfg, tree) == pytest.approx(3.0, abs=1e-15)


def test_emst_needs_two_points():
    with pytest.raises(ParameterError):
        emst(PointConfig([[0.0, 0.0]]))


def min_tree_by_enumeration(cfg: PointConfig) -> tuple[float, SpanningTree]:
    """Brute-force EMST reference: scan every labeled tree (n <= 8); `min`
    keeps the first shortest tree."""
    best = min(enumerate_spanning_trees(cfg.n), key=lambda tree: tree_length(cfg, tree))
    return tree_length(cfg, best), best


def test_emst_matches_enumeration_on_random_configs():
    rng = np.random.default_rng(3)
    for _ in range(25):
        cfg = PointConfig(rng.uniform(0, 1, size=(6, 2)))
        best_len, _best = min_tree_by_enumeration(cfg)
        assert tree_length(cfg, emst(cfg)) == pytest.approx(best_len, abs=1e-12)


def test_emst_relabel_invariant_length():
    rng = np.random.default_rng(4)
    pos = rng.uniform(0, 1, size=(7, 2))
    perm = rng.permutation(7)
    l1 = tree_length(PointConfig(pos), emst(PointConfig(pos)))
    l2 = tree_length(PointConfig(pos[perm]), emst(PointConfig(pos[perm])))
    assert l1 == pytest.approx(l2, abs=1e-12)


def _kruskal_lexsort(cfg):
    """Reference EMST: Kruskal over a lexsort by (length, u, v) with a
    union-find class, the implementation the optimised `emst` replaced."""

    class DSU:
        def __init__(self, n):
            self.parent = list(range(n))

        def find(self, x):
            while self.parent[x] != x:
                self.parent[x] = self.parent[self.parent[x]]
                x = self.parent[x]
            return x

        def union(self, a, b):
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                return False
            self.parent[ra] = rb
            return True

    n = cfg.n
    pos = cfg.positions
    iu, ju = np.triu_indices(n, k=1)
    lengths = np.linalg.norm(pos[iu] - pos[ju], axis=1)
    dsu = DSU(n)
    edges = []
    for idx in np.lexsort((ju, iu, lengths)):
        u, v = int(iu[idx]), int(ju[idx])
        if dsu.union(u, v):
            edges.append((u, v))
            if len(edges) == n - 1:
                break
    return SpanningTree(n, edges)


def _tie_heavy_configs(n, rng):
    """Lattice, collinear, half-coincident, 3-D, split and random 2-D
    configurations."""
    side = max(2, int(np.ceil(np.sqrt(n))))
    yield rng.integers(0, side, size=(n, 2)).astype(float)
    yield 0.25 * rng.integers(0, 3, size=(n, 2)) + 0.5
    yield np.column_stack([np.zeros(n), rng.integers(0, n, size=n) / n])
    stack = np.arange(n, dtype=float)[:, None] * np.array([[0.3, 0.4]])
    yield stack[rng.permutation(n)]
    cloud = rng.uniform(0, 1, size=(n, 2))
    cloud[rng.permutation(n)[: n // 2]] = cloud[0]
    yield cloud
    yield rng.integers(0, 3, size=(n, 3)).astype(float)
    yield rng.uniform(0, 1, size=(n, 3))
    if n >= 4:
        sc = gen_split(n)
        for t in (0.0, float(rng.uniform(0, 1)), 1.0):
            yield sc.positions(t)
    yield rng.uniform(0, 1, size=(n, 2))


@pytest.mark.parametrize("n", range(2, 61))
def test_emst_matches_lexsort_kruskal_reference(n):
    # Also: every pair length in the library is the reference's axis=1
    # norm bit for bit, so a tree's length is summed from the floats that
    # ordered the EMST.
    rng = np.random.default_rng(1000 + n)
    iu, ju = np.triu_indices(n, k=1)
    assert np.array_equal(_pair_index(n, *_pairs(n)), np.arange(len(iu)))
    fg = flip_graph(n, "slide") if 3 <= n <= 6 else None
    by_dim = {}
    for pos in _tie_heavy_configs(n, rng):
        by_dim.setdefault(pos.shape[1], []).append(pos)
        cfg = PointConfig(pos)
        got, want = emst(cfg), _kruskal_lexsort(cfg)
        assert got.edges == want.edges
        assert list(got.edges) == list(want.edges)
        assert tree_length(cfg, got) == tree_length(cfg, want)

        ref = np.linalg.norm(pos[iu] - pos[ju], axis=1)
        assert np.array_equal(cfg.pair_lengths, ref)
        with pytest.raises(ValueError):
            cfg.pair_lengths[0] = 1.0
        by_pair = dict(zip(zip(iu.tolist(), ju.tolist()), ref.tolist()))
        for (u, v), d in by_pair.items():
            assert cfg.distance(u, v) == d == cfg.distance(v, u)
        assert tree_length(cfg, got) == left_to_right(by_pair[e] for e in got.edges)
        dmat = _length_grid(cfg, range(n), range(n))
        assert np.array_equal(dmat[iu, ju], ref) and np.array_equal(dmat[ju, iu], ref)
        if fg is not None:
            want_lengths = [left_to_right(ref[p].tolist()) for p in fg.edge_pids]
            assert fg.tree_lengths(pos).tolist() == want_lengths
    # A batch of configurations, as the swap bisection measures its
    # midpoints, gives each row its own configuration's floats bit for bit.
    for rows in by_dim.values():
        batch = np.stack(rows)
        for lengths in (_pair_lengths(batch), _pair_lengths(batch[None])[0]):
            for row, got_row in zip(rows, lengths):
                assert got_row.tobytes() == PointConfig(row).pair_lengths.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_entry_lengths_match_pair_lengths_rows(d):
    # The per-entry lengths of the cut check are the batch's `_pair_lengths`
    # entries bit for bit, ties, coincident points and a 1e150 scale
    # included, and up to d = 7 both are numpy's norm bit for bit.
    rng = np.random.default_rng(40 + d)
    n, rows = 11, 6
    pos = rng.uniform(0, 1, size=(rows, n, d))
    pos[1] = rng.integers(0, 3, size=(n, d))
    pos[2, 4:] = pos[2, 0]
    pos[3] *= 1e150
    row = rng.integers(0, rows, 500)
    pair = rng.integers(0, n * (n - 1) // 2, 500).astype(np.int32)
    iu, ju = _pairs(n)
    lengths = _pair_lengths(pos)
    assert lengths.tobytes() == np.linalg.norm(pos[:, iu] - pos[:, ju], axis=-1).tobytes()
    want = lengths[row, pair]
    assert _entry_lengths(pos, row, pair).tobytes() == want.tobytes()


def test_cuts_hold_sparse_and_dense_rounds():
    # `_cuts_hold` decides each row by (L[P], P) > (L[E], E), zero-length
    # ties included, whether a round holds one entry a row or three times
    # the row's pairs.
    rng = np.random.default_rng(8)
    n, rows = 12, 40
    npairs = n * (n - 1) // 2
    pos = rng.uniform(0, 1, size=(rows, n, 2))
    pos[::3, 5] = pos[::3, 2]
    lengths = _pair_lengths(pos)
    for size in (1, 4, npairs, 3 * npairs):
        certs = [
            tuple(rng.integers(0, npairs, size).astype(np.int32) for _ in "pe")
            for _ in range(rows)
        ]
        want = [
            bool(np.all((lengths[r, p] > lengths[r, e]) | ((lengths[r, p] == lengths[r, e]) & (p > e))))
            for r, (p, e) in enumerate(certs)
        ]
        assert _cuts_hold(pos, certs).tolist() == want
        if size == 1:
            assert 0 < sum(want) < rows


ANY_SIZE = 1 << 30  # a certificate size limit no test tree reaches


def _one_swap_neighbours(tree):
    """Every tree T - e + f for a non-tree pair f and an edge e on its cycle."""
    for f in zip(*(a.tolist() for a in _pairs(tree.n))):
        if not tree.has_edge(f):
            cycle = fundamental_cycle(tree, f)
            for e in zip(cycle, cycle[1:]):
                yield tree.replace(e, f)


def _certificate_configs():
    rng = np.random.default_rng(77)
    for n in (2, 3, 8, 20):
        for _ in range(3):
            yield rng.uniform(0, 1, size=(n, 2))
    yield np.array([[x, y] for y in range(4) for x in range(4)], dtype=float)  # 4x4 ties
    cloud = rng.uniform(0, 1, size=(10, 2))
    cloud[[2, 5, 7]] = cloud[0]  # coincident points: zero-length ties
    yield cloud
    yield np.arange(9, dtype=float)[rng.permutation(9), None] * np.array([[0.3, 0.4]])


def test_cut_certificate_holds_iff_kruskal_tree():
    # The certificate of T holds at cfg exactly when Kruskal returns T: for
    # the EMST and every one-swap neighbour, with ties and coincident points.
    cases = []
    for pos in _certificate_configs():
        cfg = PointConfig(pos)
        mst = emst(cfg)
        want = frozenset(_kruskal(cfg))
        assert mst.edges == want
        for tree in [mst, *_one_swap_neighbours(mst)]:
            p, e = cert = full_certificate(tree)
            assert p.dtype == e.dtype == np.int32
            holds = _cuts_hold(cfg.positions[None], [cert])
            assert holds.tolist() == [tree.edges == want]
            cases.append((cfg.positions, cert, tree.edges == want))
    # Batched: rows of different configurations, certificates of different
    # sizes, in one call.
    for n in (2, 3, 8, 9, 10, 16, 20):
        same_n = [c for c in cases if len(c[0]) == n]
        for i in range(0, len(same_n), 16):
            chunk = same_n[i : i + 16]
            holds = _cuts_hold(np.stack([c[0] for c in chunk]), [c[1] for c in chunk])
            assert holds.tolist() == [c[2] for c in chunk]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cut_certificate_over_every_labeled_tree(n):
    rng = np.random.default_rng(90 + n)
    trees = enumerate_spanning_trees(n)
    for pos in _tie_heavy_configs(n, rng):
        cfg = PointConfig(pos)
        want = frozenset(_kruskal(cfg))
        certs = [full_certificate(t) for t in trees]
        holds = _cuts_hold(np.tile(cfg.positions, (len(trees), 1, 1)), certs)
        assert holds.tolist() == [t.edges == want for t in trees]
        assert sum(holds.tolist()) == 1


def test_cut_certificate_entries_cross_the_cut():
    rng = np.random.default_rng(5)
    tree = emst(PointConfig(rng.uniform(0, 1, size=(12, 2))))
    iu, ju = _pairs(12)
    p, e = full_certificate(tree)
    got = set(zip(p.tolist(), e.tolist()))
    want = set()
    for f in range(len(iu)):
        pair = (int(iu[f]), int(ju[f]))
        if not tree.has_edge(pair):
            cycle = fundamental_cycle(tree, pair)
            for u, v in zip(cycle, cycle[1:]):
                want.add((f, int(_pair_index(12, min(u, v), max(u, v)))))
    assert got == want


def test_cut_certificate_size_limit():
    # The entry count is known before the entries are built: a certificate
    # over the limit is None, at the limit it is built in full.
    rng = np.random.default_rng(8)
    star = SpanningTree(30, [(0, v) for v in range(1, 30)])
    path = SpanningTree(30, [(v, v + 1) for v in range(29)])
    random_tree = emst(PointConfig(rng.uniform(0, 1, size=(30, 2))))
    for tree, size in ((star, 2 * (435 - 29)), (path, sum(s * (30 - s) for s in range(30)) - 29),
                       (random_tree, None)):
        p, e = full_certificate(tree)
        assert size is None or len(p) == size
        assert full_certificate(tree, len(p) - 1) is None
        got = full_certificate(tree, len(p))
        assert got[0].tobytes() == p.tobytes() and got[1].tobytes() == e.tobytes()
    # A path at n = 2,000 would have about 1.3e9 entries; none is built.
    assert full_certificate(SpanningTree(2000, [(v, v + 1) for v in range(1999)]), 4096) is None


@pytest.mark.parametrize("nan", [None, "lower", "upper"])
def test_cut_certificate_leaves_out_entries_the_bounds_order(nan):
    # With bounds, the certificate is the whole one less each entry with
    # lower[P] > upper[E], entry for entry and in order. A NaN bound leaves
    # its entries open; one on a tree edge's upper bound keeps every pair a
    # candidate. The size limit still counts the whole certificate.
    rng = np.random.default_rng(14)
    kept = left_out = 0
    for pos in _certificate_configs():
        cfg = PointConfig(pos)
        mst = emst(cfg)
        for tree in [mst, *list(_one_swap_neighbours(mst))[:4]]:
            p, e = full_certificate(tree)
            lengths = cfg.pair_lengths
            for width in (0.0, 0.02, 0.2):
                r = rng.uniform(0, width, len(lengths))
                lower, upper = lengths - r, lengths + r
                if nan == "lower":
                    lower[rng.random(len(lower)) < 0.2] = np.nan
                elif nan == "upper" and len(e):
                    upper[e[rng.integers(len(e))]] = np.nan
                    upper[rng.random(len(upper)) < 0.2] = np.nan
                keep = ~(lower[p] > upper[e])
                got = _cut_certificate(tree, ANY_SIZE, lower, upper)
                assert got[0].dtype == got[1].dtype == np.int32
                assert got[0].tobytes() == p[keep].tobytes()
                assert got[1].tobytes() == e[keep].tobytes()
                kept += int(keep.sum())
                left_out += int((~keep).sum())
                if len(p):
                    assert _cut_certificate(tree, len(p) - 1, lower, upper) is None
    assert kept > 0 and left_out > 0


def _block_sweep_configs():
    """Configurations above 16n pairs, where `_kruskal` sweeps blocks of
    the 4n shortest pairs and filters the rest between blocks."""
    rng = np.random.default_rng(14)
    for n in (34, 48, 64, 96, 128, 200):
        yield from _tie_heavy_configs(n, rng)
    # 9 lattice sites with 10 coincident points each: the first cut falls
    # inside the 405 zero lengths, the second inside the 1,200 unit ones.
    sites = np.array([[x, y] for x in range(3) for y in range(3)], dtype=float)
    yield np.repeat(sites, 10, axis=0)[rng.permutation(90)]
    # With 45 points a site the first block is the 8,910 zero lengths, more
    # pairs than one block of the other cases, and leaves 9 components.
    yield np.repeat(sites, 45, axis=0)[rng.permutation(405)]
    yield np.zeros((100, 2))  # every length is 0: one block holds all
    far = rng.uniform(0, 1, size=(200, 2))
    far += 10.0 * rng.integers(0, 5, size=(200, 1))  # five far clusters
    yield far
    # Two far clusters of 92 and 90 points: the bridge is the longest edge.
    clusters = np.random.default_rng(7).uniform(0, 1, size=(182, 2))
    clusters[:92] += 10.0
    yield clusters
    for t in (0.0, 0.5, 1.0):
        yield gen_split(384).positions(t)
    # Lengths overflow to inf: with 36 far points in threes the 4n-th
    # smallest length is inf; with 30 near points it is finite and every
    # later round sweeps inf lengths.
    for near in (12, 30):
        pos = 1e200 * rng.uniform(-1, 1, size=(48, 2))
        pos[near:] = np.repeat(pos[near::3], 3, axis=0)[: 48 - near]
        pos[:near] = rng.uniform(0, 1, size=(near, 2))
        yield pos


def test_block_sweep_matches_reference(monkeypatch):
    # The block sweep returns the one-sort sweep's list element by element,
    # and the tree of the lexsort reference.
    seen = {"tied cut": 0, "spans late": 0, "inf top": 0, "block over 8192 pairs": 0}
    with np.errstate(over="ignore"):
        for pos in _block_sweep_configs():
            cfg = PointConfig(pos)
            n, lengths = cfg.n, cfg.pair_lengths
            assert len(lengths) > 16 * n
            got = _kruskal(cfg)
            assert list(emst(cfg).edges) == list(_kruskal_lexsort(cfg).edges)
            with monkeypatch.context() as m:
                m.setattr(spanning, "_SORT_ALL_PER_POINT", len(lengths))
                assert _kruskal(cfg) == got
            low = np.sort(lengths)[4 * n - 1 : 4 * n + 2]
            top = low[1]
            seen["tied cut"] += bool(low[0] == top == low[2])
            seen["spans late"] += sum(cfg.distance(*e) > top for e in got) >= 4
            seen["inf top"] += bool(top == np.inf)
            seen["block over 8192 pairs"] += bool(
                np.count_nonzero(lengths <= top) > 8192 and cfg.distance(*got[-1]) > top
            )
    assert all(seen.values()), seen


def test_tree_length_345():
    cfg = PointConfig([[0, 0], [3, 4]])
    assert tree_length(cfg, SpanningTree(2, [(0, 1)])) == pytest.approx(5.0)


def test_tree_length_coincident_zero():
    cfg = PointConfig([[0.5, 0.5]] * 4)
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    assert tree_length(cfg, tree) == 0.0
    assert cfg.distance(3, 0) == 0.0
    assert cfg.pair_lengths.tolist() == [0.0] * 6


def test_tree_length_one_point_tree_zero():
    assert tree_length(PointConfig([[0.3, 0.4]]), SpanningTree(1, [])) == 0.0


def _no_float_sum(items, start=0):
    items = list(items)
    assert not any(type(x) is float for x in items), "Python floats summed by `sum`"
    return builtins.sum(items, start)


def test_float_sums_run_left_to_right(monkeypatch):
    # From Python 3.12 `sum` compensates sums of Python floats, so a length
    # summed by it would move in its last bits between supported versions.
    # No library module may sum floats with it (shadowed here by a guard),
    # and each summing site equals the explicit loop.
    for mod in (spanning, trajectories, lipschitz, morph):
        monkeypatch.setattr(mod, "sum", _no_float_sum, raising=False)
    tenths = [0.1] * 10
    assert _lr_sum(tenths) == left_to_right(tenths) == 0.9999999999999999
    assert _lr_sum([]) == 0.0
    rng = np.random.default_rng(23)
    for _ in range(300):
        vals = rng.uniform(0, 1, int(rng.integers(1, 200))) * 10.0 ** int(rng.integers(-30, 30))
        assert _lr_sum(vals) == left_to_right(vals.tolist())

    cfg = PointConfig(rng.uniform(0, 1, size=(40, 2)))
    tree = emst(cfg)
    assert tree_length(cfg, tree) == left_to_right(cfg.distance(u, v) for u, v in tree.edges)

    tenth_terms = (((0.1,), (1.0,)),) * 10
    traj = trajectories.Trajectory("rational", 1, 1.0, terms=(tenth_terms,))
    assert traj.at(0.5).tolist() == traj.at(np.array([0.5]))[0].tolist() == [0.9999999999999999]
    bumps = gen_rational_bumps(4, 6)
    for t in (0.0, 13.7, bumps.horizon):
        for p in bumps.points[:3]:
            want = [
                left_to_right(polyval(num, t) / polyval(den, t) for num, den in terms)
                for terms in p.terms
            ]
            assert p.at(t).tolist() == np.clip(want, 0.0, 1.0).tolist()
        assert bumps.positions(t).tobytes() == bumps.positions([t])[0].tobytes()

    # The chain lengths' loop reference is in
    # tests/test_morph.py::test_diamond_certificate_matches_reference_minimax.
    morph.diamond_rotation_certificate(gen_diamond(6))

    split = gen_split(24, K=80.0)
    run = lipschitz.run_lipschitz_regime(split)
    assert run.completed == len(run.schedules) > 0
    cfg0, cfg1 = PointConfig(split.positions(0.0)), split.config(split.horizon)
    tree0 = emst(cfg0)
    assert run.records[0].tree_length == left_to_right(
        cfg0.distance(u, v) for u, v in tree0.edges
    )
    assert run.final_length == left_to_right(
        cfg1.distance(u, v) for u, v in run.final_tree.edges
    )


def test_distance_to_itself_zero():
    cfg = PointConfig([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert [cfg.distance(u, u) for u in range(3)] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "u, v",
    [(0, 3), (3, 0), (3, 3), (-1, 0), (0, -1), (-1, -1), (2, 7), (0.5, 1), (True, 2)],
)
def test_distance_vertex_out_of_range(u, v):
    # The pair-index formula maps (0, 3) at n = 3 onto pair (1, 2), and
    # numpy indexing wraps -1 to the last point: both must raise. So must
    # endpoints that are not `_is_vertex`: a float index fails in numpy, and
    # True would count as vertex 1.
    cfg = PointConfig([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    with pytest.raises(ParameterError):
        cfg.distance(u, v)


def test_tree_length_vertex_mismatch():
    cfg = PointConfig([[0, 0], [1, 0]])
    with pytest.raises(ParameterError):
        tree_length(cfg, SpanningTree(3, [(0, 1), (1, 2)]))


def test_fundamental_cycle_path():
    tree = SpanningTree(3, [(0, 1), (1, 2)])
    assert fundamental_cycle(tree, (0, 2)) == [0, 1, 2]


def test_fundamental_cycle_star():
    tree = SpanningTree(4, [(0, 1), (0, 2), (0, 3)])
    assert fundamental_cycle(tree, (1, 2)) == [1, 0, 2]


def test_fundamental_cycle_rejects_tree_edge():
    tree = SpanningTree(3, [(0, 1), (1, 2)])
    with pytest.raises(ParameterError):
        fundamental_cycle(tree, (0, 1))


def test_fundamental_cycle_checks_its_edge():
    # (0, 7) raised KeyError, (-1, 2) returned [-1, 2] through the wrap of
    # adjacency index -1, and (0.0, 3) raised TypeError.
    path = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    for e in [(0, 7), (-1, 2), (0.0, 3), (True, 3)]:
        with pytest.raises(ParameterError, match="must be integers in 0..3"):
            fundamental_cycle(path, e)
    assert fundamental_cycle(path, (np.int64(3), 0)) == [0, 1, 2, 3]


def _dfs_path(tree, a, b):
    adj = tree.adjacency()
    stack = [(a, [a])]
    seen = {a}
    while stack:
        v, path = stack.pop()
        if v == b:
            return path
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append((w, path + [w]))
    raise AssertionError("disconnected")


def test_fundamental_cycle_matches_dfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        seq = [int(x) for x in rng.integers(0, 8, size=6)]
        tree = tree_from_prufer(seq, 8)
        non_tree = [
            (u, v)
            for u in range(8)
            for v in range(u + 1, 8)
            if not tree.has_edge((u, v))
        ]
        e = non_tree[int(rng.integers(0, len(non_tree)))]
        assert fundamental_cycle(tree, e) == _dfs_path(tree, e[0], e[1])


def test_two_coloring_edge():
    colors = two_coloring(SpanningTree(2, [(0, 1)]))
    assert colors[0] == 0 and colors[1] == 1


def test_two_coloring_path_alternates():
    colors = two_coloring(SpanningTree(4, [(0, 1), (1, 2), (2, 3)]))
    assert list(colors) == [0, 1, 0, 1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 19), min_size=18, max_size=18))
def test_two_coloring_proper_on_random_trees(seq):
    tree = tree_from_prufer(seq, 20)
    colors = two_coloring(tree)
    assert all(colors[u] != colors[v] for u, v in tree.edges)
    assert colors[0] == 0


def _heap_prufer_edges(seq, n):
    """Reference decoder: pop the smallest leaf from a heap, join it to the
    next entry; the last two leaves form the final edge."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tuple(sorted(edges))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_labeled_tree_edges_match_heap_decoder(n):
    want = [_heap_prufer_edges(seq, n) for seq in product(range(n), repeat=n - 2)]
    assert labeled_tree_edges(n) == want


def test_tree_from_prufer_matches_heap_decoder():
    rng = np.random.default_rng(19)
    for i in range(200):
        n = 8 + i % 13
        seq = [int(x) for x in rng.integers(0, n, n - 2)]
        want = _heap_prufer_edges(seq, n)
        tree = tree_from_prufer(seq, n)
        assert tuple(tree.sorted_edges()) == want
        # same insertion order, so the edge set iterates the same way
        assert list(tree.edges) == list(SpanningTree(n, want).edges)


def test_tree_from_prufer_n2_is_one_edge():
    assert tree_from_prufer([], 2).edges == {(0, 1)}


@pytest.mark.parametrize("seq,n", [
    ([4, 0], 4), ([-1, 0], 4), ([0.5, 1], 4), (["a", 1], 4),
    ([0, 0, 0], 4), ([0], 4), ([0], 2), ([], 1),
])
def test_tree_from_prufer_rejects_bad_sequences(seq, n):
    with pytest.raises(ParameterError, match="Prüfer"):
        tree_from_prufer(seq, n)


@pytest.mark.parametrize("n,count", [(3, 3), (4, 16)])
def test_enumeration_counts(n, count):
    assert len(enumerate_spanning_trees(n)) == count


def test_enumeration_n6_count_and_validity():
    trees = enumerate_spanning_trees(6)
    assert len(trees) == 6**4
    assert len({tuple(t.sorted_edges()) for t in trees}) == 6**4


def test_enumeration_size_cap():
    with pytest.raises(SizeError):
        enumerate_spanning_trees(9)


def test_edge_length_below_opt_on_random_configs():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cfg = PointConfig(rng.uniform(0, 1, size=(9, 2)))
        opt = tree_length(cfg, emst(cfg))
        seq = [int(x) for x in rng.integers(0, 9, size=7)]
        tree = tree_from_prufer(seq, 9)
        assert max(cfg.distance(u, v) for u, v in tree.edges) <= opt + 1e-9


def _serialize(tree):
    """Edge-list text, one 'u v' line per edge, lexicographic order."""
    return "\n".join(f"{u} {v}" for u, v in tree.sorted_edges())


def _deserialize(text, n):
    edges = []
    for line in text.strip().splitlines():
        u, v = line.split()
        edges.append((int(u), int(v)))
    return SpanningTree(n, edges)


def test_serialize_round_trip():
    tree = SpanningTree(4, [(2, 3), (0, 2), (1, 2)])
    text = _serialize(tree)
    assert text.splitlines() == ["0 2", "1 2", "2 3"]
    assert _deserialize(text, 4).edges == tree.edges
