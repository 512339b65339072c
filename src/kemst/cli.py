"""Batch front end: generate scenarios, run the three regimes, query the
flip oracle, and audit runs. Each run writes a CSV trace (and optionally
an SVG plot) named after the scenario label and prints a one-line
summary."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .errors import (
    AuditFailure,
    DomainError,
    ParameterError,
    SizeError,
    UnsupportedKindError,
)
from .event_stability import TraceRecord, approximation_audit, run_event_regime
from .flip_oracle import N_LIMIT, minimax_flip_oracle
from .lipschitz import LipschitzRecord, run_lipschitz_regime
from .morph import TopoRecord, diamond_rotation_certificate, run_topo_regime
from .scenario_io import build_generator, load_scenario, save_scenario
from .scenarios import GENERATORS, KineticScenario, gen_diamond
from .traces import svg_plot, write_csv

OUT_DIR_ENV = "KEMST_OUT_DIR"

# Generator parameters settable by flag: the scalar ones of the registry
# (split's colors list stays file-only).
_GENERATOR_FLAGS = {
    key: cast
    for fn in GENERATORS.values()
    for key, (cast, _required) in fn.params.items()
    if cast is not list
}

# Per run command: trace record type, trace-file suffix, series --svg draws.
_RUNS = {
    "run-event": (TraceRecord, "event", ("ratio", "tree_length")),
    "run-topo": (TopoRecord, "topo", ("ratio",)),
    "run-lipschitz": (LipschitzRecord, "lipschitz", ("ratio",)),
}


def _out_dir(value: str | None) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _generate(name: str, args) -> KineticScenario:
    return build_generator(name, **{key: getattr(args, key) for key in _GENERATOR_FLAGS})


def _override(sc: KineticScenario, args) -> KineticScenario:
    """Apply whichever of --k, --K, --label and --morph-mode were given, and
    check that the label is a plain file name: it names the output files."""
    updates = {
        key: getattr(args, key)
        for key in ("k", "K", "label", "morph_mode")
        if getattr(args, key, None) not in (None, "")
    }
    sc = dataclasses.replace(sc, **updates)
    if os.path.basename(sc.label) != sc.label or "\0" in sc.label:
        raise ParameterError(f"label must be a plain file name, got {sc.label!r}")
    return sc


def _load(path_or_name: str, args) -> KineticScenario:
    if Path(path_or_name).exists():
        sc = load_scenario(path_or_name)
    elif path_or_name in GENERATORS:
        sc = _generate(path_or_name, args)
    else:
        raise ParameterError(f"no such scenario file or generator: {path_or_name}")
    return _override(sc, args)


def _run_job(sc: KineticScenario, ns: argparse.Namespace) -> tuple[str, int]:
    """Run one loaded scenario; return its summary line and exit code. A run
    command writes its trace (and plot). `audit` writes nothing and reports
    a violated OPT + 4kn as an `AUDIT FAIL` line with code 1."""
    if ns.cmd == "audit":
        res = run_event_regime(sc, samples=ns.samples)
        try:
            rep = approximation_audit(res, sc)
        except AuditFailure as exc:
            return f"{sc.label} AUDIT FAIL: {exc} record={exc.record}", 1
        return (
            f"{sc.label} events={res.event_count} max_ratio={rep.max_ratio:.6g} "
            f"max_slack={rep.max_slack:.6g} bound={rep.bound_4kn:.6g}"
        ), 0
    note = ""
    if ns.cmd == "run-event":
        res = run_event_regime(sc, samples=ns.samples)
        records, events, ratio = res.trace.records, res.event_count, res.trace.max_ratio()
    elif ns.cmd == "run-topo":
        res = run_topo_regime(sc, mode=ns.mode, samples=ns.samples, grid=ns.grid)
        records, events, ratio = res.records, res.swap_count, res.max_ratio
        if res.fallback_count:
            note = f" fallbacks={res.fallback_count}"
    else:
        res = run_lipschitz_regime(sc, K=ns.K, trace_samples=ns.samples)
        records, events, ratio = res.records, res.completed, res.ratio
    record_type, suffix, series = _RUNS[ns.cmd]
    out = _out_dir(ns.out_dir)
    write_csv(out / f"{sc.label}_{suffix}.csv", record_type, records)
    if ns.svg and records:
        times = [r.time for r in records]
        svg_plot(
            out / f"{sc.label}_{suffix}.svg",
            [(name, times, [getattr(r, name) for r in records]) for name in series],
            title=sc.label,
        )
    return f"{sc.label} events={events} max_ratio={ratio:.6g}{note}", 0


def _run_many(args) -> int:
    """Load and check every scenario, so a rejected one (say, a label that is
    not a plain file name) exits before any run prints or writes. Then run
    each through `_run_job`, print the lines in scenario order and return
    the largest exit code."""
    scenarios = [_load(s, args) for s in args.scenario]
    if args.jobs > 1 and len(scenarios) > 1:
        # Imported here: multiprocessing would add to every cold CLI start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_job, scenarios, [args] * len(scenarios)))
    else:
        results = [_run_job(sc, args) for sc in scenarios]
    for line, _code in results:
        print(line)
    return max(code for _line, code in results)


def _add_scenario_flags(p):
    for key, cast in _GENERATOR_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=cast)
    p.add_argument("--k", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--label")


def _add_common_run_flags(p, samples_default=64, writes=True):
    """Flags of the run commands; `audit` (writes=False) writes no files."""
    p.add_argument("scenario", nargs="+", help="scenario file(s) or generator name")
    p.add_argument("--samples", type=int, default=samples_default)
    if writes:
        p.add_argument("--out-dir", default=None, help=f"default ${OUT_DIR_ENV} or cwd")
        p.add_argument("--svg", action="store_true", help="also emit an SVG plot")
        p.add_argument("--jobs", type=int, default=1)
    _add_scenario_flags(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kemst",
        description="kinetic EMST stability experiments",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="write a scenario file from a generator")
    g.add_argument("generator", choices=sorted(GENERATORS))
    _add_scenario_flags(g)
    g.add_argument("--morph-mode", dest="morph_mode", default=None)
    g.add_argument("--out", default=None, help="default <label>.json")

    e = sub.add_parser("run-event", help="displacement-budget maintenance run")
    _add_common_run_flags(e)

    t = sub.add_parser("run-topo", help="EMST morph run (slides/rotations)")
    _add_common_run_flags(t)
    t.add_argument("--mode", choices=["slide", "rotation"], default=None)
    t.add_argument("--grid", type=int, default=257)

    l = sub.add_parser("run-lipschitz", help="budgeted-slide run on the split scenario")
    _add_common_run_flags(l, samples_default=65)

    o = sub.add_parser("oracle", help=f"minimax flip-strategy ratio (n <= {N_LIMIT})")
    o.add_argument("--scenario", required=True, help="file or generator name")
    o.add_argument("--mode", choices=["slide", "rotation"], default=None)
    o.add_argument("--time-steps", dest="time_steps", type=int, default=64)
    _add_scenario_flags(o)

    a = sub.add_parser("audit", help="event run plus approximation audit")
    _add_common_run_flags(a, writes=False)
    a.set_defaults(jobs=1)

    c = sub.add_parser("certify-diamond", help="rotation lower-bound certificate")
    c.add_argument("--per-side", dest="per_side", type=int, default=6)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "gen":
            sc = _override(_generate(args.generator, args), args)
            out = Path(args.out) if args.out else Path(f"{sc.label}.json")
            save_scenario(out, sc)
            print(f"{sc.label} wrote {out}")
            return 0
        if args.cmd in _RUNS or args.cmd == "audit":
            return _run_many(args)
        if args.cmd == "oracle":
            sc = _load(args.scenario, args)
            res = minimax_flip_oracle(sc, mode=args.mode, time_steps=args.time_steps)
            print(f"{sc.label} oracle_ratio={res.ratio:.9g}")
            return 0
        if args.cmd == "certify-diamond":
            cert = diamond_rotation_certificate(gen_diamond(args.per_side))
            print(
                f"diamond_q{args.per_side} blocking={cert.blocking_length:.9g} "
                f"emst={cert.emst_length:.9g} ratio={cert.ratio:.9g}"
            )
            return 0
    except AuditFailure as exc:
        print(f"AUDIT FAIL: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, SizeError, UnsupportedKindError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
