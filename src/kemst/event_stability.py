"""Displacement-budgeted EMST maintenance.

The maintained tree is recomputed exactly when some point has moved
distance k since the last recomputation; between events the old tree is
kept. That sufficient condition drives the event count, and the audit
checks the additive guarantee tree_length <= opt_length + 4kn that the
scheme inherits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import AuditFailure, ParameterError, check_count
from .flip_oracle import N_LIMIT, slide_distance
from .scenarios import KineticScenario, _budget_square, input_distance, next_displacement_event
from .spanning import (
    PointConfig,
    SpanningTree,
    _ratio,
    emst,
    tree_length,
)

@dataclass(frozen=True)
class TraceRecord:
    time: float
    event_type: str  # "recompute" | "sample"
    tree_length: float
    opt_length: float
    ratio: float
    displacement_since_ref: float


@dataclass
class EventTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, rec: TraceRecord):
        if self.records and rec.time < self.records[-1].time - 1e-12:
            raise ParameterError("trace times must be nondecreasing")
        self.records.append(rec)

    def max_ratio(self) -> float:
        return max((r.ratio for r in self.records), default=1.0)


@dataclass
class EventRunResult:
    trace: EventTrace
    event_count: int
    schedule: list[tuple[float, SpanningTree]]
    k: float


def _active(schedule, t: float) -> tuple[float, SpanningTree]:
    """The (start, tree) entry of a start-sorted schedule in force at time t:
    the last one starting at or before t + 1e-12, else the first."""
    i = bisect_right([start for start, _tree in schedule], t + 1e-12)
    return schedule[max(i - 1, 0)]


def run_event_regime(sc: KineticScenario, samples: int = 64) -> EventRunResult:
    """Simulate the k-budget maintenance scheme over the whole horizon.

    The initial EMST at t=0 is not counted as an event; an event landing
    exactly on the horizon is.
    """
    if sc.k is None or not math.isfinite(sc.k) or sc.k <= 0:
        raise ParameterError("scenario needs a positive, finite displacement budget k")
    _budget_square(sc.k)  # before any scan: a k past the float range raises
    check_count(samples, "samples", 0)
    if not sc.is_unit_normalized():
        raise ParameterError("event regime requires coordinates inside the unit box")
    k = sc.k
    # Each event's positions are row 0 of an array call, which `positions`
    # gives bit for bit as the float call would, from the compiled tensor
    # in one pass instead of one `Trajectory.at` per point. The records
    # below reuse each event's tree and its length: `emst` is deterministic,
    # so recomputing either would give the same floats. Only the length is
    # kept, not the configuration, whose pair lengths would hold n(n - 1)/2
    # floats per event until the records are built. The trigger's
    # displacement still comes from `input_distance`, the input metric the
    # budget k is stated in, so each event is measured by the same function
    # that `estimate_stability_ratio` and callers use.
    ref_pos = {0.0: sc.positions(0.0)}
    schedule = [(0.0, emst(PointConfig(ref_pos[0.0])))]
    events = []
    while (t_ev := next_displacement_event(sc, schedule[-1][0], k)) is not None:
        trigger_disp = input_distance(sc, schedule[-1][0], t_ev)
        ref_pos[t_ev] = sc.positions([t_ev])[0]
        cfg = PointConfig(ref_pos[t_ev])
        tree = emst(cfg)
        schedule.append((t_ev, tree))
        events.append((t_ev, (trigger_disp, tree, tree_length(cfg, tree))))

    trace = EventTrace()
    sample_times = np.linspace(0.0, sc.horizon, samples)
    merged = [(float(t), "sample", None) for t in sample_times]
    merged += [(t, "recompute", event) for t, event in events]
    merged.sort(key=lambda item: (item[0], item[1] != "recompute"))
    all_pos = sc.positions([t for t, _kind, _event in merged])
    for (t, kind, event), pos in zip(merged, all_pos):
        ref_time, tree = _active(schedule, t)
        if kind == "sample":
            cfg = PointConfig(pos)
            t_len, o_len = tree_length(cfg, tree), tree_length(cfg, emst(cfg))
            disp = float(np.max(np.linalg.norm(pos - ref_pos[ref_time], axis=1)))
        else:  # the active tree is the event's, unless one starts within 1e-12
            disp, ev_tree, o_len = event
            t_len = o_len if tree is ev_tree else tree_length(PointConfig(pos), tree)
        trace.append(
            TraceRecord(t, kind, t_len, o_len, _ratio(t_len, o_len), disp)
        )
    return EventRunResult(trace, len(events), schedule, k)


@dataclass
class AuditReport:
    max_slack: float
    max_ratio: float
    bound_4kn: float


def approximation_audit(result: EventRunResult, sc: KineticScenario) -> AuditReport:
    """Check tree_length <= opt_length + 4kn on every trace record; the first
    violation raises AuditFailure carrying that record."""
    bound = 4.0 * result.k * sc.n
    max_slack = 0.0
    max_ratio = 1.0
    for rec in result.trace.records:
        slack = rec.tree_length - rec.opt_length
        if slack > bound + 1e-9:
            raise AuditFailure(
                f"additive bound violated at t={rec.time}: slack {slack} > {bound}",
                record=rec,
            )
        max_slack = max(max_slack, slack)
        max_ratio = max(max_ratio, rec.ratio)
    return AuditReport(max_slack, max_ratio, bound)


def recompute_always_schedule(
    sc: KineticScenario, samples: int
) -> list[tuple[float, SpanningTree]]:
    """Schedule of the plain EMST re-evaluated at `samples` uniform instants."""
    check_count(samples, "samples", 1)
    ts = np.linspace(0.0, sc.horizon, samples)
    return [(float(t), emst(PointConfig(pos))) for t, pos in zip(ts, sc.positions(ts))]


def estimate_stability_ratio(
    schedule: list[tuple[float, SpanningTree]],
    sc: KineticScenario,
    pair_samples: int = 200,
    seed: int = 0,
) -> float:
    """Sampled lower estimate of sup d_S(A(t), A(t')) / d_I(t, t').

    For n <= flip_oracle.N_LIMIT the solution metric is the slide distance
    in the flip graph, which is not built past N_LIMIT; beyond that, the
    edge-set symmetric difference size.
    A zero input distance with differing trees reports an infinite ratio.
    """
    if not schedule:
        raise ParameterError("schedule must not be empty")
    check_count(pair_samples, "pair_samples", 0)

    def d_s(a, b):
        if sc.n <= N_LIMIT:
            return float(slide_distance(a, b))
        return float(len(a.edges ^ b.edges))

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(pair_samples):
        t1, t2 = rng.uniform(0.0, sc.horizon, size=2)
        ds = d_s(_active(schedule, t1)[1], _active(schedule, t2)[1])
        if ds == 0.0:
            continue
        di = input_distance(sc, float(t1), float(t2))
        if di == 0.0:
            return math.inf
        best = max(best, ds / di)
    return best
