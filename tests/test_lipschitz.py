import math

import numpy as np
import pytest

from kemst.errors import ParameterError, UnsupportedKindError
from kemst.lipschitz import (
    SlideSchedule,
    adaptive_simpson,
    any_tree_bound_audit,
    completion_time,
    completion_time_quadrature,
    no_completion_certificate,
    run_lipschitz_regime,
    schedule_completion,
)
from kemst.scenarios import gen_chebyshev, gen_split
from kemst.spanning import PointConfig, SpanningTree, emst


def carrier_length(s: SlideSchedule, t: float) -> float:
    """Reference carrier length L(t) = sqrt(x_span^2 + (drift * t)^2)."""
    return math.hypot(s.x_span, s.drift * t)


def rate(s: SlideSchedule, t: float) -> float:
    """Reference progress rate K / L(t) inside [t0, t_end], 0 outside."""
    if t < s.t0 or (s.t_end is not None and t > s.t_end):
        return 0.0
    return s.K / carrier_length(s, t)


def cost(s: SlideSchedule, t: float, length_fn=None) -> float:
    """Reference slide-metric distance accumulated by time t: the integral
    of rate * length; with the schedule's own carrier the integrand is K."""
    upper = min(t, s.t_end) if s.t_end is not None else t
    if upper <= s.t0:
        return 0.0
    length = length_fn or (lambda u: carrier_length(s, u))
    return adaptive_simpson(lambda u: rate(s, u) * length(u), s.t0, upper)


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


def test_schedule_cost_scales_with_length():
    s = SlideSchedule(
        fixed=0, moving=1, target=2, x_span=0.25, drift=1.0, K=2.0, t0=0.0
    )
    s.t_end = completion_time(0.25, 2.0)
    base = cost(s, 1.0)
    doubled = cost(s, 1.0, length_fn=lambda t: 2.0 * carrier_length(s, t))
    assert doubled == pytest.approx(2.0 * base, rel=1e-9)


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


def test_input_and_slide_metric_scale_together():
    # doubling all coordinates doubles the input metric and the slide cost
    # of a fixed schedule
    sc = gen_split(8)
    from kemst.scenarios import input_distance

    d1 = input_distance(sc, 0.0, 1.0)
    pos0 = sc.positions(0.0) * 2.0
    pos1 = sc.positions(1.0) * 2.0
    d2 = float(np.max(np.linalg.norm(pos1 - pos0, axis=1)))
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    s = SlideSchedule(fixed=0, moving=1, target=2, x_span=1 / 8, drift=1.0, K=1.0, t0=0.0)
    s.t_end = 1.0
    assert cost(s, 1.0, lambda t: 2 * carrier_length(s, t)) == pytest.approx(
        2 * cost(s, 1.0), rel=1e-9
    )


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
