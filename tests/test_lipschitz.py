import hashlib
import math

import numpy as np
import pytest

from kemst.errors import ParameterError, UnsupportedKindError
from kemst.lipschitz import (
    SlideSchedule,
    _geometric_length,
    _greedy_starts,
    adaptive_simpson,
    any_tree_bound_audit,
    completion_time,
    completion_time_quadrature,
    no_completion_certificate,
    run_lipschitz_regime,
    schedule_completion,
    stretch_budget,
)
from kemst.scenarios import gen_chebyshev, gen_split
from kemst.spanning import PointConfig, SpanningTree, _norm_edge, emst, tree_from_prufer

from helpers import reference_geometric_length, reference_greedy_starts


def carrier_length(s: SlideSchedule, t: float) -> float:
    """Reference carrier length L(t) = sqrt(x_span^2 + (drift * t)^2)."""
    return math.hypot(s.x_span, s.drift * t)


def test_arcsinh_integral_against_quadrature():
    got = adaptive_simpson(lambda t: 1.0 / math.sqrt(1 + t * t), 0.0, 1.0)
    assert got == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-10)


def test_completion_closed_form():
    assert completion_time(1.0, 2.0) == pytest.approx(math.sinh(0.5), abs=1e-12)


def test_completion_closed_form_vs_quadrature():
    for x, K in [(1.0, 2.0), (0.25, 1.5), (0.015625, 8.0)]:
        t_cf = completion_time(x, K, horizon=2.0)
        t_q = completion_time_quadrature(x, K, horizon=2.0)
        assert t_cf == pytest.approx(t_q, abs=1e-8)


def test_completion_none_when_budget_too_small():
    n = 64
    x = 1.0 / n
    K = 0.1 / math.log(n)
    assert K * math.log(1 / x + math.sqrt(1 + 1 / x**2)) < 1.0
    assert completion_time(x, K, horizon=1.0) is None
    assert completion_time_quadrature(x, K, horizon=1.0) is None


def test_completion_parameter_errors():
    with pytest.raises(ParameterError):
        completion_time(0.0, 1.0)
    with pytest.raises(ParameterError):
        completion_time(1.0, -2.0)


@pytest.mark.parametrize(
    "fn, args",
    [
        (completion_time, (math.nan, 1.0)),
        (completion_time, (1.0, math.nan)),
        (completion_time_quadrature, (math.nan, 1.0)),
        (completion_time_quadrature, (1.0, math.nan)),
        (completion_time_quadrature, (1.0, 1.0, 0.0, math.nan)),
        (completion_time_quadrature, (1.0, 1.0, 0.0, math.inf)),
        (completion_time_quadrature, (1.0, 1.0, -math.inf, 1.0)),
        (stretch_budget, (math.nan, 1.0, 0.0, 1.0)),
        (stretch_budget, (1.0, math.nan, 0.0, 1.0)),
        (no_completion_certificate, (0, 1.0)),
        (no_completion_certificate, (5, -1.0)),
        (no_completion_certificate, (5, 0.0)),
        (no_completion_certificate, (5, math.nan)),
        (no_completion_certificate, (5.0, 1.0)),
    ],
    ids=lambda v: v.__name__ if callable(v) else ",".join(map(str, v)),
)
def test_closed_forms_reject_what_they_cannot_answer(fn, args):
    # NaN spans and budgets, infinite quadrature intervals (adaptive Simpson
    # would recurse to its depth limit on every branch), and certificates for
    # no points or a budget that is not positive.
    with pytest.raises(ParameterError):
        fn(*args)


def test_closed_forms_keep_their_infinite_answers():
    # An infinite span never completes and an infinite budget at once.
    assert completion_time(math.inf, 1.0) == math.inf
    assert completion_time(math.inf, 1.0, horizon=1.0) is None
    assert completion_time(1.0, math.inf) == 0.0
    assert completion_time_quadrature(math.inf, 1.0) is None
    assert completion_time_quadrature(1.0, math.inf) == pytest.approx(0.0, abs=1e-12)
    assert stretch_budget(1.0, math.inf, 0.0, 1.0) == math.inf
    assert no_completion_certificate(1, 0.5) == (True, 0.5 * math.log(1.0 + math.sqrt(2.0)))


def test_completion_monotone_in_budget_and_span():
    ts = [completion_time(0.5, K) for K in (0.5, 1.0, 2.0, 4.0)]
    assert all(b <= a + 1e-12 for a, b in zip(ts, ts[1:]))
    xs = [completion_time(x, 2.0) for x in (0.1, 0.2, 0.4, 0.8)]
    assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
@pytest.mark.parametrize("c", [0.1, 0.5])
def test_no_completion_certificate_small_c(n, c):
    ok, worst = no_completion_certificate(n, c / math.log(n))
    assert ok and worst < 1.0


def test_schedule_feasibility_budget_integral():
    # every completed slide spends exactly a unit budget
    res = run_lipschitz_regime(gen_split(8), K=80.0)
    assert res.completed >= 1
    for s in res.schedules:
        if s.t_end is not None:
            spent = adaptive_simpson(lambda t: s.K / carrier_length(s, t), s.t0, s.t_end)
            assert spent == pytest.approx(1.0, abs=1e-6)


def test_same_color_slide_has_a_fixed_carrier():
    # drift 0: the carrier keeps length x_span, so progress is linear in t
    s = SlideSchedule(0, 1, 2, x_span=0.25, drift=0.0, K=2.0, t0=0.1)
    s.t_end = schedule_completion(s, 1.0)
    assert s.t_end == pytest.approx(0.225, abs=1e-15)
    assert s.progress(0.2) == pytest.approx(0.8, abs=1e-15)
    assert s.progress(1.0) == 1.0
    spent = adaptive_simpson(lambda t: s.K / carrier_length(s, t), s.t0, s.t_end)
    assert spent == pytest.approx(1.0, abs=1e-12)
    slow = SlideSchedule(0, 1, 2, x_span=0.25, drift=0.0, K=0.1, t0=0.1)
    assert schedule_completion(slow, 1.0) is None


def test_run_tiny_budget_no_completions(pinned):
    n = 64
    want = pinned["split_n64_tinyK"]
    res = run_lipschitz_regime(gen_split(n), K=want["K"])
    assert res.completed == 0
    assert res.ratio == pytest.approx(want["ratio"], rel=1e-9)
    assert res.ratio >= n / 8


def test_run_generous_budget_completes(pinned):
    want = pinned["split_n8_K80"]
    res = run_lipschitz_regime(gen_split(8), K=80.0)
    assert res.completed == want["completed"]
    assert res.ratio == pytest.approx(want["ratio"], rel=1e-9)
    assert res.completed >= 1


def test_run_recolours_to_the_initial_tree(pinned):
    # Colours that are not the 2-colouring of the t = 0 EMST are replaced by
    # it, so the run is the default colouring's run bit for bit.
    want = pinned["split_n8_K80"]
    res = run_lipschitz_regime(gen_split(8, colors=[1, 0] * 4, K=80.0))
    assert res.completed == want["completed"] == 4
    assert res.final_length == want["final_length"]
    assert res.ratio == want["ratio"]


# Greedy schedule of gen_split(40, K=5.0) as (fixed, moving, target, t0,
# t_end): its many exactly tied gains pin the candidate order bit for bit.
_T1 = 0.005033400063527332
_T2 = 0.0050334000635273435
_T3 = 0.0050334000635273496
_T4 = 0.00503340006352735
_T5 = 0.005033400063527352
_T6 = 0.005033400063527355
SPLIT40_K5_SCHEDULES = [
    (26, 27, 28, 0.0, _T1), (36, 37, 38, 0.0, _T1), (10, 11, 12, 0.0, _T2),
    (12, 13, 14, 0.0, _T2), (4, 5, 6, 0.0, _T3), (8, 9, 10, 0.0, _T3),
    (0, 1, 2, 0.0, _T4), (2, 3, 4, 0.0, _T5), (6, 7, 8, 0.0, _T6),
    (14, 15, 16, 0.0, _T6), (16, 17, 18, 0.0, _T6), (18, 19, 20, 0.0, _T6),
    (20, 21, 22, 0.0, _T6), (22, 23, 24, 0.0, _T6), (24, 25, 26, 0.0, _T6),
    (28, 29, 30, 0.0, _T6), (30, 31, 32, 0.0, _T6), (32, 33, 34, 0.0, _T6),
    (34, 35, 36, 0.0, _T6), (37, 38, 39, _T1, 0.010268808145070373),
]


def test_run_greedy_schedule_pinned():
    res = run_lipschitz_regime(gen_split(40, K=5.0))
    assert res.completed == 20
    got = [(s.fixed, s.moving, s.target, s.t0, s.t_end) for s in res.schedules]
    assert got == SPLIT40_K5_SCHEDULES
    assert res.final_length == 20.005936572555434
    assert res.opt_length == 2.9003124511871254


def _hex(x) -> str:
    return "None" if x is None else float.hex(float(x))


def _lipschitz_run_digest(res) -> str:
    """sha256 over every schedule's fields and every record's fields, then
    the final tree's sorted edges and the final and OPT lengths; floats
    written with float.hex."""
    h = hashlib.sha256()
    for s in res.schedules:
        floats = (s.x_span, s.drift, s.K, s.t0, s.t_end)
        h.update(f"{s.fixed} {s.moving} {s.target} {' '.join(map(_hex, floats))}\n".encode())
    for r in res.records:
        floats = (r.time, r.tree_length, r.opt_length, r.ratio)
        counts = f"{r.active_slides} {r.completed_slides}"
        h.update(f"{counts} {' '.join(map(_hex, floats))}\n".encode())
    lengths = f"{_hex(res.final_length)} {_hex(res.opt_length)}"
    h.update(f"{sorted(res.final_tree.edges)} {lengths}".encode())
    return h.hexdigest()


# Every record and schedule bit of four greedy runs at 65 samples: split
# n = 40 at K = 5 (20 completions) and split n = 8 at K = 80 (4 completions),
# then the two below.
LIPSCHITZ_RUN_DIGESTS = {
    (40, 5.0): "1f1e4f1a0b416eef220269049fa96ce584fb9cfe2add30dc3581877c2a62444c",
    (8, 80.0): "3ad6646ef917bf553604a08a03f55aa3a03bfa19ef285bf110c278e5c16095ca",
    # The benchmark's two runs: split n = 96 at K = 80 (53 completions) and
    # split n = 384 at K = 0.1 / ln 384 (none complete, and 173 slides are
    # active at every sample).
    (96, 80.0): "aa9bd5958ae7168a8aeceac9769882ebd445c66b7ff8dd243547d1958dacb2b5",
    (384, 0.1 / math.log(384)): "c7cb55fcfdfb7e79477daa9e66bed801fa50ce4f8127a93d23af53cd26f95bdb",
}


@pytest.mark.parametrize("n, K", sorted(LIPSCHITZ_RUN_DIGESTS))
def test_run_records_pinned(n, K):
    res = run_lipschitz_regime(gen_split(n, K=K), trace_samples=65)
    assert len(res.records) == 65
    assert _lipschitz_run_digest(res) == LIPSCHITZ_RUN_DIGESTS[n, K]
    bare = run_lipschitz_regime(gen_split(n, K=K), trace_samples=0)
    assert bare.records == []
    assert bare.schedules == res.schedules
    assert (bare.final_length, bare.opt_length) == (res.final_length, res.opt_length)


def _random_slides(rng, tree, most: int) -> list[SlideSchedule]:
    """Up to `most` slides on disjoint pairs of tree edges (fixed, moving),
    (moving, target), with random budgets and start times in [0, 0.6]."""
    adj = tree.adjacency()
    used, slides = set(), []
    for moving in rng.permutation(tree.n).tolist():
        if len(slides) == most:
            break
        if len(adj[moving]) < 2:
            continue
        fixed, target = rng.choice(sorted(adj[moving]), 2, replace=False).tolist()
        edges = {_norm_edge((fixed, moving)), _norm_edge((moving, target))}
        if edges & used:
            continue
        used |= edges
        s = SlideSchedule(
            fixed, moving, target, x_span=float(rng.uniform(0.05, 1.0)),
            drift=float(rng.integers(0, 2)), K=float(rng.uniform(0.5, 20.0)),
            t0=float(rng.uniform(0.0, 0.6)),
        )
        s.t_end = schedule_completion(s, 1.0)
        slides.append(s)
    return slides


def _random_points(rng, n: int, lattice: bool) -> np.ndarray:
    """n random 2-D points, on a 4 x 4 lattice (exact ties, coincident
    points) or uniform on the unit square."""
    if lattice:
        return rng.integers(0, 4, (n, 2)) / 4.0
    return rng.uniform(0.0, 1.0, (n, 2))


def test_greedy_helpers_match_their_references():
    # Random Prüfer trees over random and lattice configurations, with random
    # disjoint active slides: the same starts, and the same bits for every
    # length at the slides' start and end times and at random times.
    rng = np.random.default_rng(30)
    for trial in range(120):
        n = int(rng.integers(4, 41))
        lattice = trial % 2 == 1
        tree = tree_from_prufer(rng.integers(0, n, n - 2).tolist(), n)
        active = _random_slides(rng, tree, int(rng.integers(0, n // 3 + 1)))
        cfg_end = PointConfig(_random_points(rng, n, lattice))
        assert _greedy_starts(tree, active, cfg_end) == reference_greedy_starts(
            tree, active, cfg_end
        )
        cfg = PointConfig(_random_points(rng, n, lattice))
        times = [0.0, 1.0, *rng.uniform(0.0, 1.0, 3).tolist()]
        times += [t for s in active for t in (s.t0, s.t_end) if t is not None]
        for t in times:
            got = _geometric_length(tree, active, t, cfg)
            assert float.hex(got) == float.hex(
                reference_geometric_length(tree, active, t, cfg)
            )


def test_run_initial_snapshot_ratio_one():
    res = run_lipschitz_regime(gen_split(8), K=1.0, trace_samples=9)
    first = res.records[0]
    assert first.time == 0.0
    assert first.ratio == pytest.approx(1.0, abs=1e-9)


def test_run_rejects_non_split():
    with pytest.raises(UnsupportedKindError):
        run_lipschitz_regime(gen_chebyshev(3, 6, k=0.1), K=1.0)


def test_run_trace_monotone_times():
    res = run_lipschitz_regime(gen_split(8), K=80.0, trace_samples=17)
    times = [r.time for r in res.records]
    assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))


def test_any_tree_audit_emst_ratio_one():
    rng = np.random.default_rng(6)
    cfg = PointConfig(rng.uniform(0, 1, (8, 2)))
    audit = any_tree_bound_audit(cfg, emst(cfg))
    assert audit.ratio == pytest.approx(1.0, abs=1e-12)


def test_any_tree_audit_star_on_collinear():
    cfg = PointConfig([[0.0, 0], [0.25, 0], [0.5, 0], [0.75, 0], [1.0, 0]])
    star = SpanningTree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    audit = any_tree_bound_audit(cfg, star)
    assert audit.total == pytest.approx(2.5)
    assert audit.total <= 4 * audit.opt_length


def test_any_tree_audit_coincident_points_ratio_one():
    # OPT = 0 and tree = 0: the 0/0 = 1 convention of every other regime
    cfg = PointConfig([[0.3, 0.3]] * 4)
    audit = any_tree_bound_audit(cfg, SpanningTree(4, [(0, 1), (1, 2), (2, 3)]))
    assert (audit.total, audit.opt_length, audit.ratio) == (0.0, 0.0, 1.0)


def test_any_tree_audit_random():
    from kemst.spanning import tree_from_prufer

    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        cfg = PointConfig(rng.uniform(0, 1, (n, 2)))
        tree = tree_from_prufer([int(x) for x in rng.integers(0, n, n - 2)], n)
        audit = any_tree_bound_audit(cfg, tree)
        assert audit.max_edge <= audit.opt_length + 1e-9
        assert audit.total <= (n - 1) * audit.opt_length + 1e-9
