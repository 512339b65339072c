"""Scenario builders, reference sums and reference copies of optimised
helpers, shared by several test modules."""

import numpy as np

from kemst.scenarios import KineticScenario
from kemst.spanning import _cut_certificate, _edge_lengths, _lr_sum, _norm_edge
from kemst.trajectories import Trajectory, normalize_unit_range


def random_cubic_scenario(seed, n: int, k: float | None = None) -> KineticScenario:
    """n random 2-D cubics on [0, 1], each coordinate rescaled to range [0, 1]
    (the construction of acceptance criterion 04 at degree 3). seed is an
    int or a Generator, which draws on from where it is."""
    rng = np.random.default_rng(seed)
    return KineticScenario(
        points=tuple(
            Trajectory(
                "polynomial",
                2,
                1.0,
                coeffs=tuple(
                    normalize_unit_range(tuple(rng.normal(0, 1, 4)), 1.0) for _ in range(2)
                ),
            )
            for _ in range(n)
        ),
        k=k,
    )


def clamped_cubic_scenario(seed, n: int, clamped: int) -> KineticScenario:
    """n random unclamped cubics (`random_cubic_scenario`) and `clamped`
    clamped cubics, one first and the rest between the two halves of the
    n. A clamped cubic's x is a cubic with range [-0.25, 1.25], which
    `clamp_unit` holds at 0 or 1 where it overshoots; its y has range
    [0, 1]."""
    rng = np.random.default_rng(seed)
    cubics = random_cubic_scenario(rng, n).points
    over = []
    for _ in range(clamped):
        x, y = (normalize_unit_range(tuple(rng.normal(0, 1, 4)), 1.0) for _ in range(2))
        x = (1.5 * x[0] - 0.25, *(1.5 * c for c in x[1:]))
        over.append(Trajectory("polynomial", 2, 1.0, coeffs=(x, y), clamp_unit=True))
    half = n // 2
    return KineticScenario(points=(over[0], *cubics[:half], *over[1:], *cubics[half:]))


def left_to_right(values) -> float:
    """values added one at a time from 0.0: the reference order of every
    float sum in the library, spelled out, as Python's `sum` compensates
    float sums from 3.12."""
    acc = 0.0
    for x in values:
        acc = acc + x
    return acc


def full_certificate(tree, limit: int = 1 << 30):
    """`_cut_certificate` of tree under infinite bounds, which leave every
    entry open: the whole certificate, or None over `limit` entries."""
    pairs = tree.n * (tree.n - 1) // 2
    return _cut_certificate(tree, limit, np.full(pairs, -np.inf), np.full(pairs, np.inf))


def reference_greedy_starts(tree, active, cfg_end):
    """The greedy's starts as first written: every candidate tree
    `rest | {new}` gathered from `cfg_end.pair_lengths` and summed by
    `_lr_sum` in its edge-set iteration order. The reference for
    `lipschitz._greedy_starts`, which must give the same starts."""
    reserved = {_norm_edge(e) for s in active for e in ((s.fixed, s.moving), (s.moving, s.target))}
    adj = tree.adjacency()
    base = _lr_sum(_edge_lengths(cfg_end, tree.edges))
    candidates = []
    for u, v in tree.edges:
        if (u, v) in reserved:
            continue
        rest = tree.edges - {(u, v)}
        for fixed, moving in ((u, v), (v, u)):
            for w in adj[moving]:
                if w == fixed or _norm_edge((moving, w)) in reserved:
                    continue
                new = rest | {_norm_edge((fixed, w))}
                gain = base - _lr_sum(_edge_lengths(cfg_end, new))
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


def reference_geometric_length(tree, active, t, cfg) -> float:
    """A tree's length at time t as first written: one `progress` and one
    `np.linalg.norm` per active slide, over a dict of the tree's edge
    lengths. The reference for `lipschitz._geometric_length`, which must
    give the same bits."""
    pos = cfg.positions
    lengths = dict(zip(tree.edges, _edge_lengths(cfg, tree.edges).tolist()))
    for s in active:
        end = pos[s.moving] + s.progress(t) * (pos[s.target] - pos[s.moving])
        slider = _norm_edge((s.fixed, s.moving))
        lengths[slider] = float(np.linalg.norm(pos[s.fixed] - end, axis=-1))
    return _lr_sum(list(lengths.values()))
