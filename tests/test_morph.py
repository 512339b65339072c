import hashlib
import math

import numpy as np
import pytest

from kemst import morph
from kemst.errors import AuditFailure, ParameterError
from kemst.flip_oracle import minimax_flip_oracle
from kemst.morph import (
    apply_rotation,
    apply_slide,
    classify_connector,
    decompose_swap,
    detect_swaps,
    diamond_rotation_certificate,
    make_swap_event,
    plan_rotation_morph,
    plan_slide_morph,
    random_swap_instance,
    run_topo_regime,
)
from kemst.scenarios import KineticScenario, gen_circle, gen_diamond, gen_split, gen_stationary
from kemst.spanning import PointConfig, SpanningTree, emst, tree_from_prufer, tree_length
from kemst.trajectories import (
    ArcSegment,
    LinearSegment,
    Trajectory,
    constant,
    linear,
    normalize_unit_range,
)

SQRT2 = math.sqrt(2.0)


# --- slides and rotations ---------------------------------------------------


def test_slide_path():
    tree = SpanningTree(3, [(0, 1), (1, 2)])
    out = apply_slide(tree, (0, 1), 2)  # endpoint at 1 moves along (1,2)
    assert out.edges == frozenset({(0, 2), (1, 2)})


def test_slide_star_leaf():
    tree = SpanningTree(4, [(0, 1), (0, 2), (0, 3)])
    out = apply_slide(tree, (1, 0), 2)
    assert out.edges == frozenset({(1, 2), (0, 2), (0, 3)})


def test_slide_requires_carrier():
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ParameterError):
        apply_slide(tree, (0, 1), 3)  # 3 is not a tree-neighbor of 1


def test_rotation_to_far_vertex():
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    out = apply_rotation(tree, (0, 1), 3)
    assert out.edges == frozenset({(0, 3), (1, 2), (2, 3)})


def test_rotation_identity():
    tree = SpanningTree(3, [(0, 1), (1, 2)])
    assert apply_rotation(tree, (0, 1), 1).edges == tree.edges


def test_rotation_rejects_cycle():
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    # moving endpoint 3 of (2,3) to 1 leaves vertex 3 disconnected
    with pytest.raises(ParameterError):
        apply_rotation(tree, (2, 3), 1)


def test_every_slide_is_a_rotation():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(4, 10))
        tree = tree_from_prufer([int(x) for x in rng.integers(0, n, size=n - 2)], n)
        adj = tree.adjacency()
        for u, v in tree.edges:
            for fixed, moving in ((u, v), (v, u)):
                for w in adj[moving]:
                    if w == fixed:
                        continue
                    slid = apply_slide(tree, (fixed, moving), w)
                    rotated = apply_rotation(tree, (fixed, moving), w)
                    assert slid.edges == rotated.edges


# --- swap events and planners ------------------------------------------------


def unit_square_swap():
    cfg = PointConfig([[0, 0], [1, 0], [1, 1], [0, 1]])
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    return cfg, make_swap_event(tree, (0, 1), (0, 3), 0.0, cfg)


def test_swap_event_validation():
    cfg = PointConfig([[0, 0], [1, 0], [1, 1], [0, 1]])
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ParameterError):
        make_swap_event(tree, (0, 3), (0, 3), 0.0, cfg)  # removed not in tree
    with pytest.raises(ParameterError):
        make_swap_event(tree, (0, 1), (1, 2), 0.0, cfg)  # inserted already there
    with pytest.raises(ParameterError):
        # (0,1) not on the cycle of (1,3): path 1-2-3
        make_swap_event(tree, (0, 1), (1, 3), 0.0, cfg)


def test_plan_slide_unit_square():
    cfg, ev = unit_square_swap()
    plan = plan_slide_morph(ev, cfg)
    assert len(plan.steps) == 2
    assert plan.max_intermediate == pytest.approx(2 + SQRT2, abs=1e-12)
    assert plan.trees[0].edges == ev.old_tree.edges
    assert plan.trees[-1].edges == frozenset({(0, 3), (1, 2), (2, 3)})


def test_plan_slide_triangle_single_step():
    cfg = PointConfig([[0, 0], [1, 0], [0.5, 0.8]])
    tree = SpanningTree(3, [(0, 1), (1, 2)])
    ev = make_swap_event(tree, (0, 1), (0, 2), 0.0, cfg)
    plan = plan_slide_morph(ev, cfg)
    assert len(plan.steps) == 1
    assert plan.max_intermediate == pytest.approx(
        max(tree_length(cfg, tree), tree_length(cfg, plan.trees[-1]))
    )


def _line(step):
    return f"{step.op} {step.edge[0]} {step.edge[1]} -> {step.target}"


def _serialize(plan):
    lines = [_line(s) for s in plan.steps]
    lines.append(f"max_intermediate {plan.max_intermediate:.12g}")
    return "\n".join(lines)


def test_plan_serialization_format():
    cfg, ev = unit_square_swap()
    plan = plan_slide_morph(ev, cfg)
    lines = _serialize(plan).splitlines()
    assert lines[0].startswith("slide ")
    assert "->" in lines[0]
    assert lines[-1].startswith("max_intermediate ")


def test_slide_bound_random_audit():
    rng = np.random.default_rng(1)
    for _ in range(120):
        n = int(rng.integers(5, 21))
        cfg, ev = random_swap_instance(rng, n)
        plan = plan_slide_morph(ev, cfg)
        base = tree_length(cfg, ev.old_tree)
        assert plan.max_intermediate <= 1.5 * base + 1e-9
        for t in plan.trees:
            assert len(t.edges) == n - 1  # SpanningTree revalidated each step


def test_rotation_small_side_two_steps():
    pos = [(0, 1), (-0.7, 0.5), (0, 0), (1.4, 0), (1.2, 1)]
    cfg = PointConfig(pos)
    tree = SpanningTree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    ev = make_swap_event(tree, (2, 3), (0, 4), 0.0, cfg)
    plan = plan_rotation_morph(ev, cfg)
    assert [_line(s) for s in plan.steps] == ["rotate 2 3 -> 4", "rotate 4 2 -> 0"]


def test_rotation_symmetric_three_step_detour():
    pos = [
        (0.0, 4.0), (-0.8, 3.4), (-0.8, 2.4), (-0.8, 1.4), (-0.8, 0.6),
        (0.0, 0.0), (1.0, 0.0), (1.8, 0.6), (1.8, 1.4), (1.8, 2.4),
        (1.8, 3.4), (1.0, 4.0),
    ]
    cfg = PointConfig(pos)
    tree = SpanningTree(12, [(i, i + 1) for i in range(11)])
    ev = make_swap_event(tree, (5, 6), (0, 11), 0.0, cfg)
    plan = plan_rotation_morph(ev, cfg)
    # detour through the far endpoint of the right part's midpoint edge
    assert [_line(s) for s in plan.steps] == [
        "rotate 5 6 -> 9",
        "rotate 9 5 -> 0",
        "rotate 0 9 -> 11",
    ]
    base = tree_length(cfg, tree)
    assert plan.max_intermediate <= (4.0 / 3.0) * base + 1e-9


def test_rotation_requires_longest_edge():
    # (2,3) is slightly longer than the removed edge (0,1); the rotation
    # planner's precondition fails even though the swap itself is valid
    cfg = PointConfig([[0, 0], [1, 0], [1, 1], [0, 0.9]])
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    ev = make_swap_event(tree, (0, 1), (0, 3), 0.0, cfg)
    with pytest.raises(ParameterError):
        plan_rotation_morph(ev, cfg)


def test_rotation_bound_random_audit():
    rng = np.random.default_rng(2)
    for _ in range(120):
        n = int(rng.integers(5, 21))
        cfg, ev = random_swap_instance(rng, n, longest_removed=True)
        plan = plan_rotation_morph(ev, cfg)
        base = tree_length(cfg, ev.old_tree)
        assert plan.max_intermediate <= (4.0 / 3.0) * base + 1e-9



def reference_chord_step_lists(i, L):
    """The chord shortcut plans written out for both sides of the cycle."""
    plans = []
    for g in range(0, i - 1):
        for h in range(g + 2, i + 1):
            steps = []
            for j in range(g + 1, h):
                steps.append(("slide", (g, j), j + 1))
            a = i
            while a > h:
                steps.append(("slide", (i + 1, a), a - 1))
                a -= 1
            steps.append(("slide", (i + 1, h), g))
            for j in range(h, g + 1, -1):
                steps.append(("slide", (g, j), j - 1))
            a = g
            while a > 0:
                steps.append(("slide", (i + 1, a), a - 1))
                a -= 1
            b = i + 1
            while b < L:
                steps.append(("slide", (0, b), b + 1))
                b += 1
            plans.append(steps)
    for g in range(i + 1, L - 1):
        for h in range(g + 2, L + 1):
            steps = []
            for j in range(h - 1, g, -1):
                steps.append(("slide", (h, j), j - 1))
            b = i + 1
            while b < g:
                steps.append(("slide", (i, b), b + 1))
                b += 1
            steps.append(("slide", (i, g), h))
            for j in range(g, h - 1):
                steps.append(("slide", (h, j), j + 1))
            b = h
            while b < L:
                steps.append(("slide", (i, b), b + 1))
                b += 1
            a = i
            while a > 0:
                steps.append(("slide", (L, a), a - 1))
                a -= 1
            plans.append(steps)
    return plans


def test_chord_step_lists_match_reference():
    # order matters: the slide planner keeps the first plan within 1e-12
    for L in range(1, 17):
        for i in range(L):
            assert morph._chord_step_lists(i, L) == reference_chord_step_lists(i, L)


def _plan_digest(h, plan):
    for s in plan.steps:
        h.update(repr((s.op, s.edge, s.target)).encode())
    lengths = " ".join(float.hex(x) for x in plan.lengths)
    h.update(f"{lengths} {plan.fallback}|".encode())


def test_morph_plans_pinned():
    # Steps and float.hex lengths of 600 random planner calls and of four
    # topological runs, hashed; a reordered candidate list or a changed
    # tie-break moves them.
    h = hashlib.sha256()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 17))
        cfg, ev = random_swap_instance(rng, n)
        _plan_digest(h, plan_slide_morph(ev, cfg))
        cfg, ev = random_swap_instance(rng, n, longest_removed=True)
        _plan_digest(h, plan_rotation_morph(ev, cfg))
    assert h.hexdigest() == (
        "a93880fff019c1fa86069a750ec78cd45e76614153874782e80721bd3b484969"
    )
    h = hashlib.sha256()
    for sc in (gen_diamond(6), gen_circle(9)):
        for mode in ("slide", "rotation"):
            for plan in run_topo_regime(sc, mode=mode, samples=8).plans:
                _plan_digest(h, plan)
    assert h.hexdigest() == (
        "acfbcdca966c71800880ec81db0eccae4ded9f7a496ef643d12e2dc2edd836ad"
    )


@pytest.mark.parametrize(
    "planner, bound",
    [(plan_slide_morph, "3/2"), (plan_rotation_morph, "4/3")],
)
def test_planner_bound_violation_is_audit_failure(inflated_plans, planner, bound):
    cfg, ev = unit_square_swap()
    with pytest.raises(AuditFailure, match=bound):
        planner(ev, cfg)


def test_topo_rotation_bound_violation_is_not_a_fallback(inflated_plans):
    with pytest.raises(AuditFailure, match="4/3"):
        run_topo_regime(gen_diamond(4), mode="rotation", samples=4)


# --- swap detection and the topological regime -------------------------------


def square_swap_scenario():
    return KineticScenario(
        points=(
            constant([0.0, 0.0], 1.0),
            Trajectory("polynomial", 2, 1.0, coeffs=((0.5, 1.0), (0.0,))),
            constant([1.0, 1.0], 1.0),
            constant([0.0, 1.0], 1.0),
        ),
        label="square_swap",
    )


def test_detect_swaps_square():
    events = detect_swaps(square_swap_scenario(), grid=65)
    assert events
    assert all(abs(t - 0.5) < 1e-3 for t, _a, _b in events)


def reference_detect_swaps(sc, grid=257):
    """Swap bisection that builds a validated EMST at every midpoint."""
    ts = np.linspace(0.0, sc.horizon, grid)
    events = []
    prev_t = float(ts[0])
    prev_tree = emst(sc.config(prev_t))
    for t in ts[1:]:
        t = float(t)
        cur_tree = emst(sc.config(t))
        a_t, a_tree = prev_t, prev_tree
        while a_tree.edges != cur_tree.edges:
            lo, hi = a_t, t
            hi_tree = cur_tree
            while hi - lo > 1e-9:
                m = 0.5 * (lo + hi)
                m_tree = emst(sc.config(m))
                if m_tree.edges == a_tree.edges:
                    lo = m
                else:
                    hi = m
                    hi_tree = m_tree
            events.append((0.5 * (lo + hi), a_tree, hi_tree))
            a_t, a_tree = hi, hi_tree
        prev_t, prev_tree = t, cur_tree
    return events


def random_cubic_scenario(seed, n):
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
        )
    )


def lattice_scenario():
    """A 4x4 unit lattice whose rows slide at +-1 and 0 lattice steps: equal
    edge lengths and simultaneous swaps throughout."""
    points = []
    for row in range(4):
        dx = (1.0, -1.0, 0.0, 1.0)[row]
        for col in range(4):
            points.append(linear([col, row], [col + dx, row], 1.0))
    return KineticScenario(points=tuple(points), label="lattice")


def mixed_scripted_scenario():
    """Ten random cubic movers plus a scripted arc and a scripted polyline,
    so the bisection's midpoints mix tensor rows with per-point rows."""
    cubics = random_cubic_scenario(24, 10).points
    arc = (
        ArcSegment(0.0, 0.5, (0.5, 0.5), 0.3, 0.0, 3.0),
        ArcSegment(0.5, 1.0, (0.5, 0.5), 0.3, 3.0, 1.0),
    )
    path = (
        LinearSegment(0.0, 0.4, (0.0, 0.0), (1.0, 0.5)),
        LinearSegment(0.4, 1.0, (1.0, 0.5), (0.2, 1.0)),
    )
    scripted = tuple(Trajectory("scripted", 2, 1.0, segments=s) for s in (arc, path))
    return KineticScenario(points=cubics[:5] + scripted[:1] + cubics[5:] + scripted[1:])


@pytest.mark.parametrize(
    "sc",
    [random_cubic_scenario(seed, n) for seed, n in ((21, 8), (22, 20), (23, 32))]
    + [lattice_scenario(), gen_split(6), mixed_scripted_scenario()],
    ids=["cubic8", "cubic20", "cubic32", "lattice", "split6", "mixed_scripted"],
)
def test_detect_swaps_matches_reference_bisection(sc):
    got = detect_swaps(sc)
    want = reference_detect_swaps(sc)
    assert got
    assert [t.hex() for t, _a, _b in got] == [t.hex() for t, _a, _b in want]
    for (_t, a, b), (_u, ra, rb) in zip(got, want):
        assert list(a.edges) == list(ra.edges)
        assert list(b.edges) == list(rb.edges)


@pytest.mark.parametrize("grid", [-1, 0, 1])
def test_detect_swaps_rejects_short_grid(grid):
    with pytest.raises(ParameterError, match="grid must be >= 2"):
        detect_swaps(square_swap_scenario(), grid=grid)


def test_decompose_multi_swap_reaches_target():
    sc = square_swap_scenario()
    events = detect_swaps(sc, grid=65)
    for t, old, new in events:
        evs = decompose_swap(old, new, t, sc.config(t))
        cur = old
        for ev in evs:
            cur = cur.replace(ev.removed, ev.inserted)
        assert cur.edges == new.edges


def test_topo_stationary_ratio_one():
    sc = gen_stationary([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]])
    res = run_topo_regime(sc, mode="slide", samples=8)
    assert res.max_ratio == pytest.approx(1.0)
    assert res.swap_count == 0


def test_topo_square_slide_ratio():
    res = run_topo_regime(square_swap_scenario(), mode="slide", samples=16)
    assert res.max_ratio == pytest.approx((2 + SQRT2) / 3, abs=1e-6)


def test_topo_diamond_rotation_ratio():
    sc = gen_diamond(6)
    res = run_topo_regime(sc, mode="rotation", samples=16, grid=129)
    bound = (10 - 2 * SQRT2) / (9 - 2 * SQRT2)
    assert res.max_ratio >= bound - 1e-6


def test_topo_plans_cannot_beat_oracle():
    sc = gen_circle(6)
    topo = run_topo_regime(sc, mode="slide", samples=16, grid=129)
    oracle = minimax_flip_oracle(sc, "slide", time_steps=64)
    assert topo.max_ratio >= oracle.ratio - 1e-9


# --- diamond connector machinery ---------------------------------------------


def test_classify_start_edge_is_top():
    assert classify_connector([-0.5, SQRT2 - 0.5], [0.5, SQRT2 - 0.5]) == "top"


def test_classify_end_edge_is_bottom():
    assert classify_connector([-0.5, -SQRT2 + 0.5], [0.5, -SQRT2 + 0.5]) == "bottom"


def test_classify_corner_to_corner_is_cross():
    p, q = [-SQRT2, 0.0], [SQRT2, 0.0]
    assert classify_connector(p, q) == "cross"
    # lies on the horizontal diagonal and touches the vertical one; the
    # paper's floor of 2 applies to every cross-connector
    assert math.dist(p, q) == pytest.approx(2 * SQRT2)
    assert math.dist(p, q) >= 2.0


def test_classify_chain_edge_is_none():
    assert classify_connector([-0.5, SQRT2 - 0.5], [-0.8, SQRT2 - 0.9]) == "none"


def test_diamond_certificate_blocking_value(pinned):
    cert = diamond_rotation_certificate(gen_diamond(6))
    floor = 10 - 2 * SQRT2
    assert cert.blocking_length >= floor - 1e-9
    assert cert.emst_length == pytest.approx(9 - 2 * SQRT2, abs=1e-9)
    assert cert.ratio >= (10 - 2 * SQRT2) / (9 - 2 * SQRT2) - 1e-9
    assert cert.blocking_length == pytest.approx(
        pinned["diamond_certificate_q6"]["blocking"], abs=1e-9
    )


@pytest.mark.parametrize("per_side", [4, 5, 6, 8, 12])
def test_diamond_certificate_any_density(per_side):
    cert = diamond_rotation_certificate(gen_diamond(per_side))
    assert cert.blocking_length >= 10 - 2 * SQRT2 - 1e-9


def test_diamond_blocking_tree_is_realizable():
    # the blocking value is attained by an actual spanning tree: both chains
    # plus the shortest cross-connector
    sc = gen_diamond(6)
    cert = diamond_rotation_certificate(sc)
    cfg = sc.config(0.5)
    left = sc.meta["left_chain"]
    right = sc.meta["right_chain"]
    pos = cfg.positions
    best = None
    for a in left:
        for b in right:
            if classify_connector(pos[a], pos[b]) == "cross":
                d = cfg.distance(a, b)
                if best is None or d < best[0]:
                    best = (d, a, b)
    edges = [(i, i + 1) for i in left[:-1]] + [(i, i + 1) for i in right[:-1]]
    edges.append((best[1], best[2]))
    tree = SpanningTree(sc.n, edges)
    assert tree_length(cfg, tree) == pytest.approx(cert.min_cross_tree, abs=1e-9)
    assert tree_length(cfg, tree) >= 10 - 2 * SQRT2 - 1e-9


def test_diamond_blocking_converges_from_above():
    coarse = diamond_rotation_certificate(gen_diamond(6)).blocking_length
    fine = diamond_rotation_certificate(gen_diamond(16)).blocking_length
    floor = 10 - 2 * SQRT2
    assert coarse >= fine >= floor - 1e-9
    assert fine - floor < coarse - floor + 1e-12
    assert fine - floor < 5e-3
