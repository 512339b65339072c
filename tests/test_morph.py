import functools
import hashlib
import heapq
import json
import math

import numpy as np
import pytest

from kemst import morph
from kemst.cli import main
from kemst.errors import AuditFailure, ParameterError
from kemst.flip_oracle import minimax_flip_oracle
from kemst.morph import (
    RotationPreconditionError,
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
from kemst.scenarios import (
    KineticScenario,
    gen_chebyshev,
    gen_circle,
    gen_diamond,
    gen_rational_bumps,
    gen_split,
    gen_stationary,
)
from kemst.spanning import (
    PointConfig,
    SpanningTree,
    _cut_certificate,
    _norm_edge,
    _pair_lengths,
    _pairs,
    emst,
    tree_from_prufer,
    tree_length,
)
from kemst.trajectories import (
    ArcSegment,
    LinearSegment,
    Trajectory,
    constant,
    linear,
)

from helpers import (
    clamped_cubic_scenario,
    full_certificate,
    left_to_right,
    random_cubic_scenario,
)

SQRT2 = math.sqrt(2.0)


def assert_valid_trees(trees):
    """Each tree equals its rebuild by the validating constructor, which
    normalises the edges and raises unless they form a spanning tree: the
    check the planners and swap detection skip for trees they know valid."""
    for tree in trees:
        assert SpanningTree(tree.n, tree.edges) == tree


def assert_removed_at(ev):
    """The swap's removed edge is the cycle edge at `removed_at`."""
    i = ev.removed_at
    assert _norm_edge((ev.cycle[i], ev.cycle[i + 1])) == ev.removed


@pytest.fixture
def validated_plans(monkeypatch):
    """Run `assert_valid_trees` on every plan `_materialize` builds, each
    rotation candidate included, not only the plans that win, and
    `assert_removed_at` on its swap."""
    real = morph._materialize

    def checked(ev, cfg, steps, base):
        assert_removed_at(ev)
        plan = real(ev, cfg, steps, base)
        assert_valid_trees(plan.trees)
        return plan

    monkeypatch.setattr(morph, "_materialize", checked)


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


def test_vertices_must_be_integers():
    # A float vertex compares and hashes as its int does, so only a type
    # check keeps it out of a tree's edges and adjacency lists.
    with pytest.raises(ParameterError, match="not an integer"):
        SpanningTree(3, [(0, 1.0), (1, 2)])
    with pytest.raises(ParameterError, match="not an integer"):
        SpanningTree(2, [(False, 1)])
    with pytest.raises(ParameterError, match="integer vertices"):
        SpanningTree(3, [("0", 1), (1, 2)])
    tree = SpanningTree(3, [(0, 1), (1, 2)])
    for e, w in [((0, 1), 2.0), ((0.0, 1), 2), ((0, True), 2)]:
        with pytest.raises(ParameterError, match="must be integers"):
            apply_slide(tree, e, w)
    path = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    cfg = PointConfig([[0, 0], [1, 0], [1, 1], [0, 1]])
    for removed, inserted in [((0, 1), (0, 3.0)), ((0.0, 1), (0, 3)), ((0, 1), (0, 7))]:
        with pytest.raises(ParameterError, match="must be integers"):
            make_swap_event(path, removed, inserted, 0.0, cfg)
    assert SpanningTree(3, [(np.int64(0), 1), (1, np.uint8(2))]).edges == tree.edges
    ev = make_swap_event(path, (np.int64(0), 1), (0, np.int32(3)), 0.0, cfg)
    assert (ev.removed, ev.inserted) == ((0, 1), (0, 3))
    assert apply_slide(tree, (0, np.intp(1)), np.int32(2)).edges == {(0, 2), (1, 2)}


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
    with pytest.raises(ParameterError, match="not weight-improving"):
        # (0,2), a diagonal, is longer than the side (0,1) it would replace
        make_swap_event(tree, (0, 1), (0, 2), 0.0, cfg)


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


def test_random_swap_instance_needs_three_points():
    with pytest.raises(ParameterError, match="n >= 3"):
        random_swap_instance(np.random.default_rng(0), 2)
    cfg, ev = random_swap_instance(np.random.default_rng(0), 3)
    assert cfg.n == 3 and not ev.old_tree.has_edge(ev.inserted)


def test_slide_bound_random_audit():
    rng = np.random.default_rng(1)
    for _ in range(120):
        n = int(rng.integers(5, 21))
        cfg, ev = random_swap_instance(rng, n)
        plan = plan_slide_morph(ev, cfg)
        base = tree_length(cfg, ev.old_tree)
        assert plan.max_intermediate <= 1.5 * base + 1e-9
        assert_valid_trees(plan.trees)


def test_rotation_small_side_two_steps():
    pos = [(0, 1), (-0.7, 0.5), (0, 0), (1.4, 0), (1.2, 1)]
    cfg = PointConfig(pos)
    tree = SpanningTree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    ev = make_swap_event(tree, (2, 3), (0, 4), 0.0, cfg)
    plan = plan_rotation_morph(ev, cfg)
    assert [_line(s) for s in plan.steps] == ["rotate 2 3 -> 4", "rotate 4 2 -> 0"]


def rotation_detour_swap():
    """A 12-cycle swap with all six rotation candidates distinct."""
    pos = [
        (0.0, 4.0), (-0.8, 3.4), (-0.8, 2.4), (-0.8, 1.4), (-0.8, 0.6),
        (0.0, 0.0), (1.0, 0.0), (1.8, 0.6), (1.8, 1.4), (1.8, 2.4),
        (1.8, 3.4), (1.0, 4.0),
    ]
    cfg = PointConfig(pos)
    tree = SpanningTree(12, [(i, i + 1) for i in range(11)])
    return cfg, make_swap_event(tree, (5, 6), (0, 11), 0.0, cfg)


def test_rotation_symmetric_three_step_detour():
    cfg, ev = rotation_detour_swap()
    plan = plan_rotation_morph(ev, cfg)
    # detour through the far endpoint of the right part's midpoint edge
    assert [_line(s) for s in plan.steps] == [
        "rotate 5 6 -> 9",
        "rotate 9 5 -> 0",
        "rotate 0 9 -> 11",
    ]
    base = tree_length(cfg, ev.old_tree)
    assert plan.max_intermediate <= (4.0 / 3.0) * base + 1e-9


def test_swap_events_record_their_removed_edge():
    _cfg, ev = unit_square_swap()
    assert (ev.cycle, ev.removed_at) == ((0, 1, 2, 3), 0)
    _cfg, ev = rotation_detour_swap()
    assert (ev.cycle[5:7], ev.removed_at) == ((5, 6), 5)
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    for removed in [(0, 1), (1, 0), (1, 2), (3, 2)]:
        ev = make_swap_event(tree, removed, (3, 0), 0.0, PointConfig(np.eye(4)))
        assert_removed_at(ev)
    rng = np.random.default_rng(28)
    for k in range(500):
        _cfg, ev = random_swap_instance(rng, int(rng.integers(3, 13)), longest_removed=k % 2 == 1)
        assert_removed_at(ev)


@pytest.mark.parametrize("swap, planner", [
    (rotation_detour_swap, plan_rotation_morph),
    (unit_square_swap, plan_slide_morph),
])
def test_planners_measure_the_old_tree_once(swap, planner, monkeypatch):
    # Every candidate plan's first length, and the bound, are that one sum.
    cfg, ev = swap()
    old_tree_calls = []
    real = morph.tree_length

    def counting(cfg, tree):
        old_tree_calls.append(tree is ev.old_tree)
        return real(cfg, tree)

    monkeypatch.setattr(morph, "tree_length", counting)
    plan = planner(ev, cfg)
    assert sum(old_tree_calls) == 1
    assert plan.lengths[0] == real(cfg, ev.old_tree)


def test_rotation_requires_longest_edge():
    # (2,3) is slightly longer than the removed edge (0,1); the rotation
    # planner's precondition fails even though the swap itself is valid
    cfg = PointConfig([[0, 0], [1, 0], [1, 1], [0, 0.9]])
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    ev = make_swap_event(tree, (0, 1), (0, 3), 0.0, cfg)
    with pytest.raises(ParameterError):
        plan_rotation_morph(ev, cfg)


def _counted_materialize(monkeypatch, fail_first=False):
    """Wrap `morph._materialize`; return the list of step lists it gets.
    With `fail_first`, its first call raises ParameterError."""
    seen = []
    real = morph._materialize

    def counted(ev, cfg, steps, base):
        seen.append(steps)
        if fail_first and len(seen) == 1:
            raise ParameterError("first candidate refused")
        return real(ev, cfg, steps, base)

    monkeypatch.setattr(morph, "_materialize", counted)
    return seen


def test_rotation_builds_each_distinct_candidate_once(monkeypatch):
    # e = (0, 1) touches u' = 0 (cycle index i = 0): both endpoint detours
    # reduce to the one rotation (0, 1) -> (0, 3) once no-ops are dropped.
    cfg = PointConfig([[0, 0], [1, 0], [0.9, 0.8], [0, 0.9]])
    tree = SpanningTree(4, [(0, 1), (1, 2), (2, 3)])
    ev = make_swap_event(tree, (0, 1), (0, 3), 0.0, cfg)
    assert ev.cycle == (0, 1, 2, 3)
    seen = _counted_materialize(monkeypatch)
    plan = plan_rotation_morph(ev, cfg)
    assert seen == [(("rotate", (0, 1), 3),)]
    assert [_line(s) for s in plan.steps] == ["rotate 0 1 -> 3"]


def test_rotation_candidate_failure_raises(monkeypatch):
    # A candidate that fails to build is a planner defect, so it surfaces
    # instead of leaving the comparison to the other candidates.
    cfg, ev = rotation_detour_swap()
    seen = _counted_materialize(monkeypatch, fail_first=True)
    with pytest.raises(ParameterError, match="first candidate refused"):
        plan_rotation_morph(ev, cfg)
    assert len(seen) == 1


def test_rotation_candidates_are_distinct_and_free_of_no_ops(monkeypatch):
    cfg, ev = rotation_detour_swap()
    seen = _counted_materialize(monkeypatch)
    plan_rotation_morph(ev, cfg)
    assert len(seen) == len(set(seen)) == 6
    rng = np.random.default_rng(26)
    for _ in range(200):
        cfg, ev = random_swap_instance(rng, int(rng.integers(3, 13)), longest_removed=True)
        seen.clear()
        plan_rotation_morph(ev, cfg)
        assert len(seen) == len(set(seen))
        assert all(moving != target for steps in seen for _op, (_f, moving), target in steps)


def test_random_plan_trees_are_valid(validated_plans):
    rng = np.random.default_rng(27)
    for _ in range(500):
        n = int(rng.integers(3, 21))
        cfg, ev = random_swap_instance(rng, n)
        plan_slide_morph(ev, cfg)
        cfg, ev = random_swap_instance(rng, n, longest_removed=True)
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
    # tie-break moves them. Re-pinned once when lengths came to be read
    # from `PointConfig.pair_lengths`: 130 of 1,884 planner lengths and 1
    # of 403 topological-run lengths moved, by at most 2 ulps; no step or
    # fallback changed.
    h = hashlib.sha256()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 17))
        cfg, ev = random_swap_instance(rng, n)
        _plan_digest(h, plan_slide_morph(ev, cfg))
        cfg, ev = random_swap_instance(rng, n, longest_removed=True)
        _plan_digest(h, plan_rotation_morph(ev, cfg))
    assert h.hexdigest() == (
        "1ce32d5030e295428317490d7b9dc080ca490f57248c830715548489aafa4bad"
    )
    h = hashlib.sha256()
    for sc in (gen_diamond(6), gen_circle(9)):
        for mode in ("slide", "rotation"):
            for plan in run_topo_regime(sc, mode=mode, samples=8).plans:
                _plan_digest(h, plan)
    assert h.hexdigest() == (
        "ce97e92c33dd53a761d982f20641bdcdf64a96c44b019ffb96d9c7f2705bc48e"
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


def test_rotation_falls_back_to_slides(tmp_path, monkeypatch, capsys):
    seen = []

    def refuse(ev, cfg):
        seen.append((ev, cfg))
        raise RotationPreconditionError("no rotation")

    monkeypatch.setattr(morph, "plan_rotation_morph", refuse)
    res = run_topo_regime(gen_diamond(4), mode="rotation")
    assert res.swap_count >= 1
    assert res.fallback_count == res.swap_count == len(seen)
    assert all(plan.fallback for plan in res.plans)
    assert [plan.lengths for plan in res.plans] == [
        plan_slide_morph(ev, cfg).lengths for ev, cfg in seen
    ]
    assert main(["run-topo", "diamond", "--per-side", "4", "--mode", "rotation",
                 "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(f" fallbacks={res.swap_count}\n")


def test_rotation_build_failure_is_not_a_fallback(monkeypatch):
    # Only a failed precondition falls back to slides; a rotation candidate
    # that fails to build is a planner defect and surfaces.
    real = morph._materialize

    def refuse_rotations(ev, cfg, steps, base):
        if steps[0][0] == "rotate":
            raise ParameterError("rotation candidate refused")
        return real(ev, cfg, steps, base)

    monkeypatch.setattr(morph, "_materialize", refuse_rotations)
    with pytest.raises(ParameterError, match="rotation candidate refused"):
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


def reference_detect_swaps(sc, grid=257, moved=None, midpoints=None, checks=None):
    """Swap bisection that builds a validated EMST at every midpoint; appends
    to `moved`, if given, whether the bisection moved each swap's upper end,
    to `midpoints` each midpoint, and to `checks` (grid cell start, grid
    cell end, tree checked, midpoint) per midpoint."""
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
                if midpoints is not None:
                    midpoints.append(m)
                if checks is not None:
                    checks.append((prev_t, t, a_tree, m))
                m_tree = emst(sc.config(m))
                if m_tree.edges == a_tree.edges:
                    lo = m
                else:
                    hi = m
                    hi_tree = m_tree
            if moved is not None:
                moved.append(hi != t)
            events.append((0.5 * (lo + hi), a_tree, hi_tree))
            a_t, a_tree = hi, hi_tree
        prev_t, prev_tree = t, cur_tree
    return events


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


def fast_sweep_scenario():
    """A point sweeping past a row of eight fixed ones: with grid 5 one
    cell holds up to five swaps."""
    row = [constant([0.1 * (i + 1), 0.0], 1.0) for i in range(8)]
    return KineticScenario(points=(linear([0.0, 0.05], [0.95, 0.08], 1.0), *row))


SWAP_CASES = {
    "cubic8": (random_cubic_scenario(21, 8), 257),
    "cubic20": (random_cubic_scenario(22, 20), 257),
    "cubic32": (random_cubic_scenario(23, 32), 257),
    "lattice": (lattice_scenario(), 257),
    "split6": (gen_split(6), 257),
    "mixed_scripted": (mixed_scripted_scenario(), 257),
    "clamped_cubic": (clamped_cubic_scenario(24, 8, 4), 257),
    # 72 changed cells, more than one bisection round holds, and 163 swaps.
    "rational_bumps": (gen_rational_bumps(4, 12), 257),
    "fast_sweep": (fast_sweep_scenario(), 5),
}


def assert_same_swaps(got, want):
    assert got
    assert [t.hex() for t, _a, _b in got] == [t.hex() for t, _a, _b in want]
    for (_t, a, b), (_u, ra, rb) in zip(got, want):
        assert list(a.edges) == list(ra.edges)
        assert list(b.edges) == list(rb.edges)


@functools.lru_cache(maxsize=None)
def reference_swaps(case):
    """`reference_detect_swaps` of a `SWAP_CASES` case and its `checks`."""
    sc, grid = SWAP_CASES[case]
    checks = []
    return reference_detect_swaps(sc, grid, checks=checks), checks


@pytest.mark.parametrize("case", SWAP_CASES)
def test_detect_swaps_matches_reference_bisection(case):
    sc, grid = SWAP_CASES[case]
    got = detect_swaps(sc, grid)
    assert_same_swaps(got, reference_swaps(case)[0])
    assert_valid_trees(tree for _t, a, b in got for tree in (a, b))
    if case == "fast_sweep":
        cells = [math.floor(t * (grid - 1) / sc.horizon) for t, _a, _b in got]
        assert max(cells.count(c) for c in cells) >= 3


@pytest.mark.parametrize("mode", ["slide", "rotation"])
@pytest.mark.parametrize("case", SWAP_CASES)
def test_topo_plan_trees_are_valid(case, mode, validated_plans):
    sc, grid = SWAP_CASES[case]
    assert run_topo_regime(sc, mode=mode, samples=2, grid=grid).plans


@pytest.mark.parametrize("case", ["cubic20", "lattice", "rational_bumps", "fast_sweep"])
def test_detect_swaps_one_kruskal_per_moved_swap(case, monkeypatch):
    sc, grid = SWAP_CASES[case]
    moved = []
    want = reference_detect_swaps(sc, grid, moved)
    calls = []
    real = morph._kruskal

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(morph, "_kruskal", counting)
    assert len(detect_swaps(sc, grid)) == len(want)
    assert len(calls) == sum(moved)


@pytest.mark.parametrize(
    "case, entries",
    [("cubic20", -1), ("cubic20", 963), ("lattice", 473), ("rational_bumps", 260),
     ("fast_sweep", 106)],
)
def test_detect_swaps_over_large_certificates(case, entries, monkeypatch):
    # A tree whose certificate has more than `_CERT_ENTRIES` entries is
    # bisected by a Kruskal per midpoint, with no extra Kruskal per swap:
    # every tree at -1, and at the other caps (between the smallest and
    # largest certificate of the case's swaps) some swaps are certified and
    # some are not. Times and trees stay the reference's.
    sc, grid = SWAP_CASES[case]
    moved, midpoints = [], []
    want = reference_detect_swaps(sc, grid, moved, midpoints)
    calls = []
    real = morph._kruskal

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(morph, "_kruskal", counting)
    monkeypatch.setattr(morph, "_CERT_ENTRIES", entries)
    assert_same_swaps(detect_swaps(sc, grid), want)
    if entries < 0:
        assert len(calls) == len(midpoints)
    else:
        assert sum(moved) < len(calls) < len(midpoints)


@pytest.mark.parametrize("budget", [1, 600, None])
def test_detect_swaps_round_entry_budget(budget, monkeypatch):
    # Cells join a round while their open (uncertified) entries sum to under
    # `_WINDOW_ENTRIES`. Here each open set has 215 to 260 entries (the
    # movers are rational, so only entries among the fixed points close):
    # a budget of 1 bisects one cell at a time, and 600 at most three, since
    # two sum to at most 520 < 600 and three to at least 645. A round holds
    # under the budget plus the largest open set. Any budget gives the
    # reference's swaps.
    sc, grid = SWAP_CASES["rational_bumps"]
    rounds = []
    real = morph._cuts_hold

    def recording(pos, certs):
        assert pos.shape == (len(certs), sc.n, sc.dim)
        rounds.append([len(p) for p, _e in certs])
        return real(pos, certs)

    monkeypatch.setattr(morph, "_cuts_hold", recording)
    if budget is not None:
        monkeypatch.setattr(morph, "_WINDOW_ENTRIES", budget)
    assert_same_swaps(detect_swaps(sc, grid), reference_swaps("rational_bumps")[0])
    sizes = [size for r in rounds for size in r]
    assert (min(sizes), max(sizes)) == (215, 260)
    cells = max(len(r) for r in rounds)
    if budget is None:
        assert 16 < cells < len(rounds)
        assert max(sum(r) for r in rounds) < morph._WINDOW_ENTRIES + max(sizes)
    else:
        assert cells == {1: 1, 600: 3}[budget]


def test_detect_swaps_evaluates_each_instant_once(monkeypatch):
    # topo-cubic's four 20-point cubics (seed 2300) keep every certificate
    # under `_CERT_ENTRIES`. `gen_circle(32)` certifies its first swap, and
    # its next four trees have no certificate; at `_CERT_ENTRIES = -1` no
    # tree of `cubic20` has one. Either way every midpoint is a row of its
    # round: after the grid, every `positions` call is one round's
    # midpoints, one row per certificate `_cuts_hold` checks, and no instant
    # is evaluated twice.
    rng = np.random.default_rng(2300)
    cases = [(random_cubic_scenario(rng, 20), None) for _ in range(4)]
    cases += [(gen_circle(32), None), (SWAP_CASES["cubic20"][0], -1)]
    real_positions, real_cuts_hold = KineticScenario.positions, morph._cuts_hold
    calls, rounds = [], []

    def positions(self, t):
        calls.append(np.atleast_1d(t).tolist())
        return real_positions(self, t)

    def cuts_hold(pos, certs):
        rounds.append(len(certs))
        return real_cuts_hold(pos, certs)

    monkeypatch.setattr(KineticScenario, "positions", positions)
    monkeypatch.setattr(morph, "_cuts_hold", cuts_hold)
    for sc, entries in cases:
        if entries is not None:
            monkeypatch.setattr(morph, "_CERT_ENTRIES", entries)
        calls.clear()
        rounds.clear()
        assert detect_swaps(sc, 257)
        assert [len(c) for c in calls] == [257, *rounds]
        instants = [m for c in calls for m in c]
        assert len(set(instants)) == len(instants)


def test_detect_swaps_certificate_and_kruskal_paths_on_a_circle():
    # `gen_circle(32)` is all scripted, so no entry closes. Its first swap's
    # certificate has 1,155 entries and is checked in rounds; the next four
    # have 5,425, over `_CERT_ENTRIES`, and take a Kruskal per midpoint.
    sc = gen_circle(32)
    want = reference_detect_swaps(sc, 257)
    assert [len(full_certificate(a)[0]) for _t, a, _b in want] == [1155] + [5425] * 4
    assert 1155 <= morph._CERT_ENTRIES < 5425
    assert_same_swaps(detect_swaps(sc, 257), want)


PINNED_SWAP_SCENARIOS = {
    "circle_n7": lambda: gen_circle(7),
    "circle_n16": lambda: gen_circle(16),
    "circle_n32": lambda: gen_circle(32),
    "diamond_q6": lambda: gen_diamond(6),
    "diamond_q9": lambda: gen_diamond(9),
    "split_n64": lambda: gen_split(64),
    "rational_bumps_s8_n12": lambda: gen_rational_bumps(8, 12),
    "chebyshev_s5_n9": lambda: gen_chebyshev(5, 9),
}


@pytest.mark.parametrize("key", PINNED_SWAP_SCENARIOS)
def test_detect_swaps_pinned_fingerprints(key, pinned):
    # Swap count and sha256 of every time's `float.hex` and both trees'
    # sorted edges at grid 257, as `scripts/pin_fixtures.py` writes them:
    # any moved bit of a swap time or tree fails.
    swaps = detect_swaps(PINNED_SWAP_SCENARIOS[key](), 257)
    text = json.dumps([[t.hex(), sorted(a.edges), sorted(b.edges)] for t, a, b in swaps])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert {"swaps": len(swaps), "sha256": digest} == pinned["detect_swaps_grid257"][key]


def assert_open_entries(tree, lower, upper, p, e):
    """`_cut_certificate` with bounds is the whole certificate (p, e) less
    each entry with lower[p] > upper[e], entry for entry and in order."""
    got = _cut_certificate(tree, 1 << 30, lower, upper)
    keep = ~(lower[p] > upper[e])
    assert got[0].tobytes() == p[keep].tobytes() and got[1].tobytes() == e[keep].tobytes()


def _unclamped_polynomial(sc):
    return np.array([p.kind == "polynomial" and not p.clamp_unit for p in sc.points])


@pytest.mark.parametrize("case", SWAP_CASES)
def test_cell_enclosure_is_sound(case):
    # At every midpoint the reference bisection visits, every pair length
    # lies inside its grid cell's enclosure, and every entry the enclosure
    # certifies holds under the full certificate check. Entries touching a
    # rational, scripted or clamped point are never certified. The
    # certificate built with the cell's bounds is the full one less the
    # certified entries, in order, also with a NaN bound on a pair and on a
    # tree edge, which leave their entries open.
    sc, grid = SWAP_CASES[case]
    checks = {}
    for a_t, t, tree, m in reference_swaps(case)[1]:
        checks.setdefault((a_t, t, tree), []).append(m)
    iu, ju = _pairs(sc.n)
    fixed = _unclamped_polynomial(sc)
    certified = touching = 0
    for (a_t, t, tree), ms in checks.items():
        rho = morph._cell_radii(sc, a_t, t)
        assert np.array_equal(np.isinf(rho), ~fixed)
        lower, upper = morph._pair_length_bounds(sc.positions(a_t), rho)
        pos = sc.positions(ms)
        lengths = _pair_lengths(pos)
        assert np.all(lower <= lengths) and np.all(lengths <= upper)
        p, e = full_certificate(tree)
        done = lower[p] > upper[e]
        assert_open_entries(tree, lower, upper, p, e)
        lp, le = lengths[:, p[done]], lengths[:, e[done]]
        assert np.all((lp > le) | ((lp == le) & (p[done] > e[done])))
        touch = ~(fixed[iu[p]] & fixed[ju[p]] & fixed[iu[e]] & fixed[ju[e]])
        assert not (done & touch).any()
        certified += int(done.sum())
        touching += int(touch.sum())
        lower[p[0]], upper[e[-1]] = np.nan, np.nan
        assert_open_entries(tree, lower, upper, p, e)
    assert certified > 0
    if case in ("mixed_scripted", "rational_bumps"):
        assert touching > 0


def test_cell_enclosure_leaves_near_ties_open():
    # Two fixed pairs 2^-50 (about 9e-16) apart in length, and a mover that
    # crosses the bisector of two fixed points at the middle of a grid cell,
    # so its two distances there agree to about 1e-16: neither order of
    # either pair is certified over that cell, and the swap the crossing
    # makes is the reference's.
    h = 0.5 / 256  # half a cell of the 257-instant grid
    mover = Trajectory("polynomial", 2, 1.0, coeffs=((0.25 - 0.3 * (0.5 + h), 0.3), (0.6,)))
    sc = KineticScenario(
        points=(
            constant([0.0, 0.0], 1.0),
            constant([0.5, 0.0], 1.0),
            constant([0.0, -(0.5 + 2.0**-50)], 1.0),
            mover,
        )
    )
    a_t, t = 0.5, 0.5 + 2 * h
    rho = morph._cell_radii(sc, a_t, t)
    lower, upper = morph._pair_length_bounds(sc.positions(a_t), rho)
    pair = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 3): 4}
    mid = PointConfig(sc.positions(0.5 + h)).pair_lengths
    assert 0 < mid[pair[0, 2]] - mid[pair[0, 1]] < 1e-15
    assert abs(mid[pair[0, 3]] - mid[pair[1, 3]]) < 1e-15
    for p, e in [((0, 2), (0, 1)), ((0, 3), (1, 3))]:
        for a, b in [(p, e), (e, p)]:
            assert not lower[pair[a]] > upper[pair[b]]
    swaps = detect_swaps(sc, 257)
    assert_same_swaps(swaps, reference_detect_swaps(sc, 257))
    assert [abs(t_s - (0.5 + h)) < 1e-8 for t_s, _a, _b in swaps] == [True]


def test_detect_swaps_raises_on_a_certified_changing_cell(monkeypatch):
    # With zero radii every entry of a tree far from a tie is "certified",
    # which contradicts the swap its cell holds: the bisection raises
    # instead of reporting no swap.
    sc = square_swap_scenario()
    monkeypatch.setattr(morph, "_cell_radii", lambda sc, a_t, t: np.zeros(sc.n))
    with pytest.raises(AuditFailure, match="certified"):
        detect_swaps(sc, grid=4)


@pytest.mark.parametrize("seed", range(31, 39))
def test_detect_swaps_matches_reference_on_random_cubics(seed):
    sc = random_cubic_scenario(seed, 20)
    assert_same_swaps(detect_swaps(sc, 257), reference_detect_swaps(sc, 257))


def test_detect_swaps_rejects_non_finite_midpoints(monkeypatch):
    # The 257 grid instants are one `positions` call; a midpoint batch that
    # is not finite raises ParameterError, as a midpoint PointConfig did.
    # At `_CERT_ENTRIES = -1` no tree has a certificate, and the round's
    # check covers those midpoints too.
    sc = random_cubic_scenario(21, 8)
    real = KineticScenario.positions

    def poisoned(self, t):
        out = real(self, t)
        if np.ndim(t) and len(t) != 257:
            out[..., 0, 0] = np.nan
        return out

    monkeypatch.setattr(KineticScenario, "positions", poisoned)
    with pytest.raises(ParameterError, match="finite"):
        detect_swaps(sc)
    monkeypatch.setattr(morph, "_CERT_ENTRIES", -1)
    with pytest.raises(ParameterError, match="finite"):
        detect_swaps(sc)


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


def test_decompose_swap_one_fundamental_cycle_per_inserted_edge(monkeypatch):
    # Five points on a line: the EMST is the path; the old tree differs from
    # it in two edges, (0, 2) -> (1, 2) and (2, 4) -> (3, 4).
    cfg = PointConfig([[float(x), 0.0] for x in range(5)])
    old = SpanningTree(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    new = emst(cfg)
    calls = []
    real = morph.fundamental_cycle

    def counting(tree, edge):
        calls.append((tree, edge))
        return real(tree, edge)

    monkeypatch.setattr(morph, "fundamental_cycle", counting)
    evs = decompose_swap(old, new, 0.5, cfg)
    assert [(ev.removed, ev.inserted) for ev in evs] == [((0, 2), (1, 2)), ((2, 4), (3, 4))]
    assert [edge for _tree, edge in calls] == [(1, 2), (3, 4)]
    for ev, (tree, edge) in zip(evs, calls):
        assert ev.old_tree is tree and ev.cycle == tuple(real(tree, edge))


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


def reference_grid_minimax(cost):
    """Heap Dijkstra over the connector grid: (a, b) flips to any (a2, b) or
    (a, b2), a path charged its largest cost."""
    m = cost.shape[0]
    dist = {(0, 0): cost[0, 0]}
    heap = [(cost[0, 0], (0, 0))]
    seen = set()
    while heap:
        d, (a, b) = heapq.heappop(heap)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        for nxt in [(a2, b) for a2 in range(m)] + [(a, b2) for b2 in range(m)]:
            value = max(d, cost[nxt])
            if value < dist.get(nxt, math.inf):
                dist[nxt] = value
                heapq.heappush(heap, (value, nxt))
    return np.array([[dist[a, b] for b in range(m)] for a in range(m)])


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
def test_grid_minimax_matches_reference(m):
    rng = np.random.default_rng(m)
    for levels in (2, 4, 1000):  # few levels: many exact ties
        cost = rng.integers(0, levels, size=(m, m)).astype(float) / 7.0
        assert np.array_equal(morph._grid_minimax(cost), reference_grid_minimax(cost))


@pytest.mark.parametrize("per_side", range(4, 13))
def test_diamond_certificate_matches_reference_minimax(per_side):
    sc = gen_diamond(per_side)
    cert = diamond_rotation_certificate(sc)
    cfg = sc.config(sc.meta["t_mid"])
    left, right = sc.meta["left_chain"], sc.meta["right_chain"]
    chains = left_to_right(cfg.distance(a, b) for c in (left, right) for a, b in zip(c, c[1:]))
    cost = np.array([[chains + cfg.distance(a, b) for b in right] for a in left])
    dist = reference_grid_minimax(cost)
    pos = cfg.positions
    kinds = [[classify_connector(pos[a], pos[b]) for b in right] for a in left]
    m = len(left)
    want = min(dist[a, b] for a in range(m) for b in range(m) if kinds[a][b] == "bottom")
    assert cert.blocking_length.hex() == float(want).hex()
    assert cert.ratio.hex() == (float(want) / cert.emst_length).hex()


def test_diamond_blocking_converges_from_above():
    coarse = diamond_rotation_certificate(gen_diamond(6)).blocking_length
    fine = diamond_rotation_certificate(gen_diamond(16)).blocking_length
    floor = 10 - 2 * SQRT2
    assert coarse >= fine >= floor - 1e-9
    assert fine - floor < coarse - floor + 1e-12
    assert fine - floor < 5e-3
