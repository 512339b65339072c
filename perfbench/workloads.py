"""Seeded workload builder and the operations each workload runs.

A workload is a fixed list of operations. ``build`` imports ``kemst`` and
makes every scenario the workload needs from the seed; that is the set-up
phase. Each operation is then run and timed on its own. Its result is
reduced to a fingerprint (counts, ratios, CLI stdout lines, file hashes)
and to invariant checks that hold for every seed, such as the theorem
bounds the audits and planners promise.

Random motions follow acceptance criterion 04 at degree 3: 2-D, one cubic
per coordinate, coefficients ``rng.normal(0, 1, 4)`` passed through
``normalize_unit_range`` on [0, 1].
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("event-cubic", "topo-cubic", "split-lipschitz", "paper-cli")

# Workloads whose inputs do not depend on the seed keep one reference entry.
SEEDLESS = ("split-lipschitz", "paper-cli")

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "fixtures" / "pinned.json"

# The seeded workloads run several independent scenarios, so that a run's
# total work depends less on the seed (one draw's swap or event count varies
# by about 7% between seeds, interquartile range over median).
EVENT_SCENARIOS, EVENT_N, EVENT_K, EVENT_SAMPLES = 3, 128, 0.05, 64
TOPO_PAIRS, TOPO_N, TOPO_GRID, TOPO_SAMPLES = 2, 20, 257, 64
SPLIT_GREEDY = (96, 80.0)
SPLIT_STUCK_N = 384
RATIO_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's result broke an invariant or differs from its reference."""


@dataclass
class Op:
    name: str  # unique within the workload; keys the reference fingerprint
    kind: str
    run: Callable[[], object]
    # Maps the result to its fingerprint; raises CheckFailed on a broken invariant.
    check: Callable[[object], dict]


def random_cubic_scenario(rng, n: int, label: str, k: float | None = None):
    from kemst import KineticScenario, Trajectory, normalize_unit_range

    points = tuple(
        Trajectory(
            "polynomial",
            2,
            1.0,
            coeffs=tuple(
                normalize_unit_range(tuple(rng.normal(0, 1, 4)), 1.0)
                for _ in range(2)
            ),
        )
        for _ in range(n)
    )
    return KineticScenario(points=points, k=k, label=label)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _event_ops(seed: int) -> list[Op]:
    import numpy as np

    import kemst

    rng = np.random.default_rng(seed)
    ops = []
    for i in range(EVENT_SCENARIOS):
        sc = random_cubic_scenario(rng, EVENT_N, f"cubic_s{seed}_{i}", k=EVENT_K)
        state = {}

        def run(sc=sc, state=state):
            state["run"] = kemst.run_event_regime(sc, samples=EVENT_SAMPLES)
            return state["run"]

        def check_run(res):
            ratios = [r.ratio for r in res.trace.records]
            _require(res.event_count >= 1, "no displacement event on a unit-range cubic")
            _require(
                len(res.schedule) == res.event_count + 1, "schedule does not match events"
            )
            _require(
                min(ratios) >= 1.0 - RATIO_TOL, "maintained tree shorter than the EMST"
            )
            return {
                "events": res.event_count,
                "records": len(res.trace.records),
                "max_ratio": res.trace.max_ratio(),
            }

        def audit(sc=sc, state=state):
            return kemst.approximation_audit(state["run"], sc)

        def check_audit(rep):
            _require(rep.max_slack <= rep.bound_4kn + 1e-9, "slack above 4kn")
            return {"max_slack": rep.max_slack, "max_ratio": rep.max_ratio}

        ops += [
            Op(f"event_run_{i}", "event_run", run, check_run),
            Op(f"event_audit_{i}", "event_audit", audit, check_audit),
        ]
    return ops


def _topo_ops(seed: int) -> list[Op]:
    import numpy as np

    import kemst

    rng = np.random.default_rng(seed)

    def make(i, mode):
        sc = random_cubic_scenario(rng, TOPO_N, f"cubic_{mode}_s{seed}_{i}")

        def run():
            return kemst.run_topo_regime(
                sc, mode=mode, samples=TOPO_SAMPLES, grid=TOPO_GRID
            )

        def check(res):
            _require(res.swap_count == len(res.plans), "one plan per swap expected")
            _require(
                res.fallback_count == sum(p.fallback for p in res.plans),
                "fallback count does not match the plans",
            )
            for p in res.plans:
                # EMST swaps are weight-improving, so the planners' bounds apply.
                limit = 1.5 if (mode == "slide" or p.fallback) else 4.0 / 3.0
                _require(
                    p.max_intermediate <= limit * p.lengths[0] + 1e-9,
                    f"{mode} morph above {limit:.4g} times the old tree",
                )
            _require(
                min(r.ratio for r in res.records) >= 1.0 - RATIO_TOL,
                "a charged tree is shorter than the EMST",
            )
            return {
                "swaps": res.swap_count,
                "fallbacks": res.fallback_count,
                "records": len(res.records),
                "max_ratio": res.max_ratio,
            }

        return Op(f"topo_{mode}_{i}", f"topo_{mode}", run, check)

    return [make(i, mode) for i in range(TOPO_PAIRS) for mode in ("slide", "rotation")]


def _split_ops() -> list[Op]:
    import kemst

    n_greedy, k_greedy = SPLIT_GREEDY
    cases = {
        f"split{n_greedy}": kemst.gen_split(n_greedy, K=k_greedy),
        f"split{SPLIT_STUCK_N}": kemst.gen_split(
            SPLIT_STUCK_N, K=0.1 / math.log(SPLIT_STUCK_N)
        ),
    }
    state = {}
    ops = []
    for name, sc in cases.items():

        def run(name=name, sc=sc):
            state[name] = kemst.run_lipschitz_regime(sc)
            return state[name]

        def check_run(res, sc=sc):
            _require(res.final_length >= res.opt_length - 1e-9, "tree shorter than OPT")
            _require(
                res.completed == sum(s.t_end is not None for s in res.schedules),
                "completed count does not match the schedules",
            )
            certified, _ = kemst.no_completion_certificate(sc.n, sc.K)
            _require(not certified or res.completed == 0, "a certified slide completed")
            return {
                "completed": res.completed,
                "started": len(res.schedules),
                "final_length": res.final_length,
                "ratio": res.ratio,
            }

        def audit(name=name, sc=sc):
            return kemst.any_tree_bound_audit(
                sc.config(sc.horizon), state[name].final_tree
            )

        def check_audit(rep):
            return {"max_edge": rep.max_edge, "ratio": rep.ratio}

        ops += [
            Op(f"{name}_run", f"{name}_run", run, check_run),
            Op(f"{name}_audit", f"{name}_audit", audit, check_audit),
        ]
    return ops


def _cli_ops(workdir: Path) -> list[Op]:
    from kemst import cli

    pinned = json.loads(PINNED.read_text())
    cheb = pinned["chebyshev_s3_n11_k0.1"]
    split = pinned["split_n64_tinyK"]
    circle = pinned["circle_oracle_slide"]["7"]
    diamond = pinned["diamond_certificate_q6"]
    cheb_file = "chebyshev_s3_n11.json"
    # Expected stdout lines built from the pinned values, as the CLI formats them.
    expect = {
        "cli_run_event": [
            f"chebyshev_s3_n11 events={cheb['event_count']} "
            f"max_ratio={cheb['max_ratio']:.6g}"
        ],
        "cli_audit": [
            f"chebyshev_s3_n11 events={cheb['event_count']} "
            f"max_ratio={cheb['max_ratio']:.6g} max_slack={cheb['max_slack']:.6g} "
            f"bound={4 * 0.1 * 11:.6g}"
        ],
        "cli_run_lipschitz": [
            f"split_n64 events={split['completed']} max_ratio={split['ratio']:.6g}"
        ],
        "cli_oracle_slide": [f"circle_n7 oracle_ratio={circle:.9g}"],
        "cli_certify_diamond": [
            f"diamond_q6 blocking={diamond['blocking']:.9g} "
            f"emst={diamond['emst']:.9g} ratio={diamond['ratio']:.9g}"
        ],
    }
    run_flags = ["--out-dir", ".", "--jobs", "1"]
    commands = {
        "cli_gen": ["gen", "chebyshev", "--s", "3", "--n", "11", "--k", "0.1",
                    "--out", cheb_file],
        "cli_run_event": ["run-event", cheb_file, "--svg", *run_flags],
        "cli_audit": ["audit", cheb_file],
        "cli_run_topo": ["run-topo", "diamond", "--per-side", "6", "--mode",
                         "rotation", *run_flags],
        "cli_run_lipschitz": ["run-lipschitz", "split", "--n", "64", "--K",
                              repr(split["K"]), *run_flags],
        "cli_oracle_slide": ["oracle", "--scenario", "circle", "--n", "7",
                             "--mode", "slide"],
        "cli_oracle_rotation": ["oracle", "--scenario", "circle", "--n", "7",
                                "--mode", "rotation"],
        "cli_certify_diamond": ["certify-diamond", "--per-side", "6"],
    }

    def make(name, argv):
        def run():
            before = {p.name: p.stat().st_mtime_ns for p in workdir.iterdir()}
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code
            written = sorted(
                p for p in workdir.iterdir()
                if before.get(p.name) != p.stat().st_mtime_ns
            )
            return rc, out.getvalue().splitlines(), written

        def check(res):
            rc, lines, written = res
            _require(rc == 0, f"exit code {rc}")
            if name in expect:
                _require(lines == expect[name], f"stdout {lines} != pinned {expect[name]}")
            return {
                "stdout": lines,
                "files": {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written
                },
            }

        return Op(name, name, run, check)

    return [make(name, argv) for name, argv in commands.items()]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Import kemst and make the workload's inputs; this is the set-up phase."""
    if workload == "event-cubic":
        return _event_ops(seed)
    if workload == "topo-cubic":
        return _topo_ops(seed)
    if workload == "split-lipschitz":
        return _split_ops()
    if workload == "paper-cli":
        return _cli_ops(workdir)
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(workload: str, seed: int) -> str:
    return "any" if workload in SEEDLESS else str(seed)


def same_fingerprint(got, want) -> bool:
    """Exact for ints, strings and hashes; floats to a relative 1e-9."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same_fingerprint(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(same_fingerprint(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isinf(want) or math.isinf(got):
            return got == want
        return math.isclose(got, want, rel_tol=RATIO_TOL, abs_tol=1e-12)
    return type(got) is type(want) and got == want
