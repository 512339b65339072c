import hashlib
import math

import numpy as np
import pytest

from kemst.errors import AuditFailure, ParameterError
from kemst.event_stability import (
    _active,
    approximation_audit,
    estimate_stability_ratio,
    recompute_always_schedule,
    run_event_regime,
)
from kemst.lipschitz import run_lipschitz_regime
from kemst.scenarios import (
    KineticScenario,
    gen_chebyshev,
    gen_split,
    gen_stationary,
    next_displacement_event,
)
from kemst.spanning import PointConfig, _length_grid, emst, tree_length
from kemst.trajectories import Trajectory, constant, linear, normalize_unit_range

from helpers import random_cubic_scenario


def test_stationary_run_has_no_events():
    sc = gen_stationary([[0.2, 0.2], [0.8, 0.8], [0.2, 0.8]], k=0.1)
    result = run_event_regime(sc, samples=8)
    assert result.event_count == 0
    assert result.trace.max_ratio() == pytest.approx(1.0)


def test_linear_mover_event_times():
    sc = KineticScenario(
        points=(linear([0.0], [1.0], 1.0), constant([0.5], 1.0)), k=0.25
    )
    result = run_event_regime(sc, samples=0)
    assert result.event_count == 4
    times = [t for t, _tree in result.schedule[1:]]
    np.testing.assert_allclose(times, [0.25, 0.5, 0.75, 1.0], atol=1e-8)


def test_run_requires_budget_and_normalization():
    sc = gen_stationary([[0.2], [0.8]])
    with pytest.raises(ParameterError):
        run_event_regime(sc, samples=4)
    wild = KineticScenario(points=(linear([0.0], [3.0], 1.0), constant([0.5], 1.0)), k=0.1)
    with pytest.raises(ParameterError):
        run_event_regime(wild, samples=4)


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_non_finite_budgets_rejected(k):
    with pytest.raises(ParameterError):
        next_displacement_event(gen_chebyshev(3, 5), 0.0, k)
    with pytest.raises(ParameterError):
        run_event_regime(gen_chebyshev(3, 5, k=k), samples=4)
    with pytest.raises(ParameterError):
        run_lipschitz_regime(gen_split(8), K=k)


@pytest.mark.parametrize("k", [1e200, 1.4e154, 4.9e-158, 1e-200])
def test_budget_past_float_range_rejected(k):
    # k * k is inf, or the touch tolerance 1e-9 * k * k is 0: the scan then
    # reported events for points that never move (t = 2.4e-7 at k = 1e200,
    # t = 1.1e-16 at k = 1e-200).
    still = gen_stationary([[0.1, 0.1], [0.5, 0.5]], k=k)
    with pytest.raises(ParameterError, match="out of range"):
        next_displacement_event(still, 0.0, k)
    with pytest.raises(ParameterError, match="out of range"):
        run_event_regime(still, samples=4)


@pytest.mark.parametrize("k", [1e154, 1e-157])
def test_budget_inside_float_range_runs(k):
    still = gen_stationary([[0.1, 0.1], [0.5, 0.5]], k=k)
    assert next_displacement_event(still, 0.0, k) is None
    assert run_event_regime(still, samples=4).event_count == 0


def test_chebyshev_event_count_bound_and_pin(pinned):
    sc = gen_chebyshev(3, 11, k=0.1)
    result = run_event_regime(sc, samples=0)
    assert result.event_count <= math.ceil(9 / 0.1)
    assert result.event_count == pinned["chebyshev_event_counts_n11"]["s3_k0.1"]


def test_trace_invariants():
    sc = gen_chebyshev(3, 5, k=0.2)
    result = run_event_regime(sc, samples=32)
    times = [r.time for r in result.trace.records]
    assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))
    assert all(r.ratio >= 1.0 - 1e-12 for r in result.trace.records)


# --- audit -----------------------------------------------------------------


def test_audit_stationary_zero_slack():
    sc = gen_stationary([[0.2, 0.2], [0.8, 0.8], [0.5, 0.1]], k=0.05)
    result = run_event_regime(sc, samples=8)
    report = approximation_audit(result, sc)
    assert report.max_slack == pytest.approx(0.0, abs=1e-12)


def test_audit_zero_slack_at_recompute_records():
    sc = gen_chebyshev(2, 6, k=0.2)
    result = run_event_regime(sc, samples=16)
    for rec in result.trace.records:
        if rec.event_type == "recompute":
            assert rec.tree_length - rec.opt_length == pytest.approx(0.0, abs=1e-12)


def test_event_records_match_recomputation():
    # Each record's lengths equal a recomputation from `positions` at its
    # time. In the fast scenario every next event starts within the 1e-12
    # lookup tolerance, so each recompute record's active tree is a later
    # event's, not its own; at x = 0.1 the EMST changes between two events.
    T = 1.2e-9
    fast = KineticScenario(
        points=(
            linear([0.0, 0.0], [1.0, 0.0], T),
            constant([0.5, 0.5], T),
            constant([0.0, math.sqrt(0.4)], T),
        ),
        k=5e-4,
    )
    for sc in (gen_chebyshev(3, 11, k=0.1), fast):
        result = run_event_regime(sc, samples=8)
        later = 0
        for rec in result.trace.records:
            cfg = PointConfig(sc.positions(rec.time))
            start, tree = _active(result.schedule, rec.time)
            assert rec.tree_length == tree_length(cfg, tree)
            assert rec.opt_length == tree_length(cfg, emst(cfg))
            later += rec.event_type == "recompute" and start > rec.time
        assert later > 0 if sc is fast else later == 0


def test_audit_chebyshev_pinned(pinned):
    sc = gen_chebyshev(3, 11, k=0.1)
    result = run_event_regime(sc, samples=64)
    report = approximation_audit(result, sc)
    want = pinned["chebyshev_s3_n11_k0.1"]
    assert report.max_slack == pytest.approx(want["max_slack"], abs=1e-9)
    assert report.max_ratio == pytest.approx(want["max_ratio"], abs=1e-9)
    assert report.max_slack <= report.bound_4kn


def test_audit_failure_reports_record():
    sc = gen_chebyshev(2, 6, k=0.2)
    result = run_event_regime(sc, samples=4)
    # sabotage one record far beyond the additive bound
    bad = result.trace.records[0].__class__(
        time=0.5,
        event_type="sample",
        tree_length=99.0,
        opt_length=0.5,
        ratio=198.0,
        displacement_since_ref=0.0,
    )
    result.trace.records.append(bad)
    with pytest.raises(AuditFailure) as exc:
        approximation_audit(result, sc)
    assert exc.value.record is bad


def test_event_count_upper_bound_random_polynomials():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        s = int(rng.integers(1, 5))
        k = float(rng.uniform(0.05, 0.3))
        pts = tuple(
            Trajectory(
                "polynomial",
                1,
                1.0,
                coeffs=(normalize_unit_range(tuple(rng.normal(0, 1, s + 1)), 1.0),),
            )
            for _ in range(n)
        )
        sc = KineticScenario(points=pts, k=k)
        result = run_event_regime(sc, samples=0)
        assert result.event_count <= math.ceil(s * s / k) + 1


def test_event_count_halving_growth():
    counts = {}
    for k in (0.1, 0.2):
        counts[k] = run_event_regime(gen_chebyshev(4, 11, k=k), samples=0).event_count
    assert 1.8 <= counts[0.1] / counts[0.2] <= 2.2


def test_thinning_lower_bound():
    # Greedy thinning at the smallest l-th nearest-neighbour distance d_l
    # keeps at least n/l - 1 points at least d_l apart, so the EMST is at
    # least (n/l - 1) d_l long.
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(8, 24))
        cfg = PointConfig(rng.uniform(0, 1, size=(n, 2)))
        l = int(rng.integers(1, 4))
        d = _length_grid(cfg, range(n), range(n))
        np.fill_diagonal(d, np.inf)
        mindist_l = float(np.sort(d, axis=1)[:, l - 1].min())
        assert tree_length(cfg, emst(cfg)) >= (n / l - 1) * mindist_l - 1e-9


def test_thinning_threshold_reads_pair_lengths():
    # `pair_lengths` gives a pair the same length, to the bit, in a larger
    # configuration, so a threshold radius - 1e-12 set from one is met by the
    # other. The pair is picked where the 1-D dot-form norm rounds above the
    # pair length if this host has such a pair, so a second length rule
    # would miss the threshold.
    rng = np.random.default_rng(31)
    for _ in range(2000):
        pos = rng.uniform(0, 1, size=(2, 2))
        dist = PointConfig(pos).pair_lengths[0]
        if np.linalg.norm(pos[1] - pos[0]) > dist:
            break
    radius = dist + 1e-12
    while radius - 1e-12 != dist:
        radius = np.nextafter(radius, np.inf if radius - 1e-12 < dist else -np.inf)
    far = pos[0] + (pos[1] - pos[0]) * 3.0
    cfg = PointConfig(np.vstack([pos, far]))
    assert cfg.pair_lengths[0] == radius - 1e-12


# --- stability-ratio estimator ----------------------------------------------


def test_estimator_zero_for_stationary():
    sc = gen_stationary([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9]], k=0.1)
    schedule = recompute_always_schedule(sc, samples=8)
    assert estimate_stability_ratio(schedule, sc, pair_samples=50) == 0.0


def test_estimator_zero_for_constant_tree():
    sc = gen_chebyshev(2, 4, k=0.2)
    tree = emst(sc.config(0.0))
    schedule = [(0.0, tree)]
    assert estimate_stability_ratio(schedule, sc, pair_samples=50) == 0.0


def test_estimator_infinite_on_zero_input_distance():
    from kemst.spanning import SpanningTree

    sc = gen_stationary([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9]], k=0.1)
    schedule = [
        (0.0, SpanningTree(3, [(0, 2), (1, 2)])),
        (0.5, SpanningTree(3, [(0, 1), (1, 2)])),
    ]
    assert estimate_stability_ratio(schedule, sc, pair_samples=100) == math.inf


def test_estimator_flip_limit_past_flip_graph_cap():
    # n = 8 is past the flip graph's cap of 7: the estimate must fall back
    # to the symmetric difference instead of raising SizeError.
    sc = gen_chebyshev(3, 8, k=0.1)
    schedule = recompute_always_schedule(sc, samples=16)
    est = estimate_stability_ratio(schedule, sc, pair_samples=50)
    assert 0.0 < est < math.inf


@pytest.mark.parametrize("samples", [-1, 0])
def test_recompute_schedule_rejects_fewer_than_one_sample(samples):
    # -1 raised numpy's ValueError, and 0 gave an empty schedule that the
    # estimator then failed on with IndexError.
    sc = gen_stationary([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9]], k=0.1)
    with pytest.raises(ParameterError, match="samples must be >= 1"):
        recompute_always_schedule(sc, samples=samples)


def test_estimator_rejects_an_empty_schedule():
    sc = gen_stationary([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9]], k=0.1)
    with pytest.raises(ParameterError, match="schedule must not be empty"):
        estimate_stability_ratio([], sc)


def test_estimator_rejects_negative_pair_samples():
    # A negative count used to report 0.0, as if no pair had moved.
    sc = gen_chebyshev(2, 4, k=0.2)
    schedule = recompute_always_schedule(sc, samples=8)
    with pytest.raises(ParameterError, match="pair_samples must be >= 0"):
        estimate_stability_ratio(schedule, sc, pair_samples=-5)
    assert estimate_stability_ratio(schedule, sc, pair_samples=0) == 0.0


def test_estimator_split_pinned(pinned):
    want = pinned["split_n6_stability_estimate"]
    sc = gen_split(6)
    schedule = recompute_always_schedule(sc, samples=want["samples"])
    est = estimate_stability_ratio(
        schedule, sc, pair_samples=want["pair_samples"], seed=want["seed"]
    )
    assert est == pytest.approx(want["value"], rel=1e-9)
    assert est > 0.0


# --- active-tree lookup -------------------------------------------------------


def _three_trees():
    from kemst.spanning import SpanningTree

    return (
        SpanningTree(3, [(0, 1), (1, 2)]),
        SpanningTree(3, [(0, 2), (1, 2)]),
        SpanningTree(3, [(0, 1), (0, 2)]),
    )


def test_tree_at_event_time_and_clamping():
    from kemst.event_stability import EventRunResult, EventTrace, _active

    a, b, c = _three_trees()
    result = EventRunResult(EventTrace(), 2, [(0.25, a), (0.5, b), (0.75, c)], 0.1)

    def tree_at(t):
        return _active(result.schedule, t)[1]

    assert tree_at(0.5) is b  # exactly at the event
    assert tree_at(0.5 - 1e-13) is b  # within the 1e-12 tolerance
    assert tree_at(0.5 - 1e-11) is a  # outside it
    assert tree_at(0.75) is c
    assert tree_at(2.0) is c
    assert tree_at(0.0) is a  # before the first start: clamp
    assert tree_at(-1.0) is a


def test_estimator_tree_lookup_at_event_times():
    # one sampled pair; point 0 moves at unit speed, so d_I = |t1 - t2|
    sc = KineticScenario(
        points=(
            linear([0.0, 0.0], [1.0, 0.0], 1.0),
            constant([0.5, 0.5], 1.0),
            constant([0.0, 1.0], 1.0),
        ),
        k=0.1,
    )
    lo, hi = sorted(float(t) for t in np.random.default_rng(0).uniform(0.0, 1.0, size=2))
    a, b, _c = _three_trees()

    def est(schedule):
        return estimate_stability_ratio(schedule, sc, pair_samples=1)

    want = 1.0 / (hi - lo)  # a and b are one slide apart
    assert est([(lo, a), (hi, b)]) == pytest.approx(want, rel=1e-12)
    assert est([(lo, a), (hi + 1e-13, b)]) == pytest.approx(want, rel=1e-12)
    assert est([(lo, a), (hi + 1e-11, b)]) == 0.0
    assert est([(lo + 1e-11, a), (hi, b)]) == pytest.approx(want, rel=1e-12)
    assert est([(hi + 1e-11, b), (hi + 2e-11, a)]) == 0.0  # both clamp to b


def _event_run_digest(result) -> str:
    """sha256 over the schedule (start times, sorted tree edges) and every
    trace record, floats written with float.hex."""
    h = hashlib.sha256()
    for start, tree in result.schedule:
        h.update(f"{float.hex(float(start))} {sorted(tree.edges)}\n".encode())
    for r in result.trace.records:
        fields = (r.time, r.tree_length, r.opt_length, r.ratio, r.displacement_since_ref)
        h.update(f"{r.event_type} {' '.join(float.hex(float(x)) for x in fields)}\n".encode())
    return h.hexdigest()


# Any speed-up of the 2-D event path must reproduce these bit for bit.
# Re-pinned once when every length came to be read from
# `PointConfig.pair_lengths` (the axis norm that orders the EMST): 61 of
# the 1,850 record floats moved, by at most 2 ulps; schedules, event types
# and times did not.
CUBIC_EVENT_DIGESTS = {
    0: "da71d609dfb4b2df064d8162be2d6d7c9b0417a91551878fe82e60e5427b890f",
    1: "10178bf1c646027ff4455218742350609d1a403a341f09094e69c02861c9eda3",
    2: "be7aae24f203d453d17ffcb349220451e4870ed7f9ec1af953dd87d9c54518cf",
}


@pytest.mark.parametrize("seed", sorted(CUBIC_EVENT_DIGESTS))
def test_event_regime_cubic_records_pinned(seed):
    result = run_event_regime(random_cubic_scenario(seed, 32, 0.05), samples=64)
    assert _event_run_digest(result) == CUBIC_EVENT_DIGESTS[seed]
