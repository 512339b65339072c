"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the working directory set to an empty temporary directory. Prints one
JSON line: set-up time, the timed phase's wall and CPU time, peak RSS, and
per operation its time, fingerprint and verdict. With ``--trace 1`` the
tracer is installed after set-up and the line also carries the per-layer
metrics and the tracer's coverage findings.

Set-up, and the timed phase of an untraced run, run under a
``SpeedProbe``; the line also carries their times rescaled to its
reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Duration of one probe loop at the reference speed: about its median on
# the shared 2-core Xeon VM the benchmark was tuned on.
PROBE_REF_S = 0.0005


def probe_loop() -> None:
    """A fixed slice of interpreter work; only its duration matters."""
    d = {}
    x = 0.0
    for i in range(5000):
        d[i & 63] = i
        x += i * 0.5


class SpeedProbe:
    """Measures how fast the machine runs while a phase is timed.

    The host lends its cores to other tenants, and how fast a core runs
    Python swings by up to about 1.7 times within seconds. Every
    ``interval`` seconds a SIGALRM handler times ``probe_loop``. A phase's
    time at the reference speed weights each stretch of work between two
    probes by ``PROBE_REF_S`` over the probe that ends it, so work that
    ran in a slow stretch counts at the speed it would have had at the
    reference. The probes' own time is left out of both sums.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.work_s = 0.0  # wall time between probes
        self.ref_s = 0.0  # the same at the reference speed
        self.probe_s = 0.0  # wall time spent in probes

    def _probe(self, *_):
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        stretch = t0 - self.last
        self.work_s += stretch
        self.ref_s += stretch * PROBE_REF_S / (t1 - t0)
        self.probe_s += t1 - t0
        self.last = t1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()  # the stretch since the last probe
        return False

    def scale(self) -> float:
        """Reference time per wall second of work."""
        return self.ref_s / self.work_s


def describe(exc: Exception) -> str:
    """Exception type, message and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def run_ops(ops, tracer=None, probe=None) -> list[dict]:
    """Run each operation once; time it, then fingerprint and check its result.

    An operation's times leave out the probes that fired inside it.
    """
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = fingerprint = None
        p0 = probe.probe_s if probe else 0.0
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:  # AuditFailure included: every failure is counted
            error = describe(exc)
        w1, c1 = time.perf_counter(), time.process_time()
        probed = (probe.probe_s if probe else 0.0) - p0
        if error is None:
            try:
                fingerprint = op.check(res)
            except Exception as exc:
                error = describe(exc)
        results.append(
            {
                "name": op.name,
                "kind": op.kind,
                "wall_s": w1 - w0 - probed,
                "cpu_s": c1 - c0 - probed,
                "error": error,
                "fingerprint": fingerprint,
            }
        )
    if tracer is not None:
        tracer.op = None
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    with SpeedProbe(0.01) as setup_probe:
        ops = workloads.build(args.workload, args.seed, Path.cwd())
    setup = {"setup_s": setup_probe.work_s, "setup_ref_s": setup_probe.ref_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if tracer is None:
        with SpeedProbe(0.05) as probe:
            results = run_ops(ops, probe=probe)
    else:
        results = run_ops(ops, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reference = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(
        workloads.reference_key(args.workload, args.seed)
    )
    for r in results:
        if r["error"] is None and reference is not None:
            want = reference.get(r["name"])
            if want is None or not workloads.same_fingerprint(r["fingerprint"], want):
                r["error"] = f"fingerprint {r['fingerprint']} != reference {want}"

    import numpy

    out = {
        **setup,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": rss_kb / 1024.0,
        "ops": results,
        "reference": "pinned" if reference is not None else "invariants",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is None:
        out["wall_ref_s"] = out["wall_s"] * probe.scale()
        out["cpu_ref_s"] = out["cpu_s"] * probe.scale()
        out["probe_s"] = probe.probe_s
    else:
        out["layers"] = tracer.metrics()
        out["silent"] = tracer.silent(args.workload)
        out["leftover_aliases"] = tracer.leftover_aliases()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
