"""kemst benchmark: run one workload, check every result, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each repetition runs the workload's whole
operation list in a fresh, single-threaded interpreter (``worker.py``), so
``flip_oracle``'s caches start cold as they do for a CLI user.
Repetitions run one after another for about ``--seconds`` (at least
``MIN_REPS``); timings are medians over them, at the reference speed of
``worker.SpeedProbe``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` each repetition is an untraced run followed by a traced
one; the last line carries the per-layer metrics, per-operation wall time
and the tracing overhead, and the run fails if the two runs' fingerprints
differ or the tracer missed a layer. Earlier lines give a readable summary,
the failure share, the sample counts and the platform.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kemst"
STATE = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"

MIN_REPS = 3
# Set-up is short and noisy; each repetition adds this many set-up-only samples.
SETUP_EXTRA = 4
RUN_LIMIT_S = 160.0  # no repetition starts that could end past this

# (metric, unit, the worker's field it takes its samples from)
END_TO_END = (
    ("wall_s", "s", "wall_ref_s"),
    ("cpu_s", "s", "cpu_ref_s"),
    ("setup_s", "s", "setup_ref_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
)
# Times as the clock read them, before rescaling; printed, not bounded.
RAW = ("wall_s", "cpu_s", "setup_s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    """One fresh interpreter in an empty temporary directory."""
    workdir = tempfile.mkdtemp(prefix="rep-", dir=STATE)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(workload: str, seed: int, seconds: float, trace: int):
    """Repetitions until `seconds` have passed.

    Returns the repetitions, each [untraced] or [untraced, traced], and
    the set-up samples of the untraced and the set-up-only runs.
    """
    start = time.perf_counter()

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    reps, setups = [], []
    while True:
        t0 = time.perf_counter()
        rep = [run_worker(workload, seed, left())]
        if trace:
            rep.append(run_worker(
                workload, seed, left(), "--trace", "1",
                "--spans", str(STATE / f"spans-{workload}.json"),
            ))
        reps.append(rep)
        setups.append(rep[0])
        for _ in range(0 if trace else SETUP_EXTRA):
            setups.append(run_worker(workload, seed, left(), "--setup-only"))
        now = time.perf_counter()
        step = now - t0
        # Stop where the next repetition would end more than half a step
        # past `seconds`. Traced runs only feed per-layer metrics, which
        # carry no bound, so they need no minimum count.
        if now - start + step / 2 >= seconds and (trace or len(reps) >= MIN_REPS):
            return reps, setups
        if now - start + 1.5 * step > RUN_LIMIT_S:
            return reps, setups


def op_failures(rep: list[dict]) -> list[str]:
    """Failed operations of one repetition, including traced/untraced mismatches."""
    plain = rep[0]["ops"]
    bad = [f"{op['name']}: {op['error']}" for op in plain if op["error"]]
    for a, b in zip(plain, rep[1]["ops"] if len(rep) > 1 else []):
        if a["error"]:
            continue
        if b["error"]:
            bad.append(f"{b['name']} (traced): {b['error']}")
        elif a["fingerprint"] != b["fingerprint"]:
            bad.append(f"{a['name']}: traced fingerprint differs from untraced")
    return bad


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "__init__.py").is_file() or not workloads.PINNED.is_file():
        print(f"perfbench: no kemst sources or pinned fixtures under {ROOT}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    # Byte-compile once so no repetition pays for it; users do not either.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(WORKER.parent)],
        check=True, env=child_env(),
    )

    try:
        reps, setups = repeat(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [rep[0] for rep in reps]
    failures = [f for rep in reps for f in op_failures(rep)]
    attempted = sum(len(p["ops"]) for p in plain)
    samples = {
        name: [s[field] for s in (setups if name == "setup_s" else plain)]
        for name, _, field in END_TO_END
    }
    med = {name: statistics.median(v) for name, v in samples.items()}
    raw = {
        name: statistics.median(s[name] for s in (setups if name == "setup_s" else plain))
        for name in RAW
    }
    correct = not failures

    print(f"perfbench {args.workload} seed={args.seed} reps={len(reps)} "
          f"reference={plain[0]['reference']}")
    for name, unit, _ in END_TO_END:
        shown = " ".join(f"{v:.4f}" for v in samples[name])
        clock = f" (clock {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<12} {med[name]:.4f} {unit}{clock}  median of "
              f"{len(samples[name])}: {shown}")
    print(f"  failed_frac  {len(failures) / attempted:.4f}  ({len(failures)}/{attempted} operations)")
    for f, count in Counter(failures).items():
        print(f"  FAILED x{count}: {f}")

    if args.trace:
        traced = [rep[1] for rep in reps]
        coverage = sorted({m for t in traced for m in t["silent"] + t["leftover_aliases"]})
        for m in coverage:
            print(f"  TRACER never fired or missed an alias: {m}")
        correct = correct and not coverage
        units = {m: u for m, u, _w in tracer.LAYER_METRICS}
        metrics = {
            m: {"value": statistics.median(t["layers"][m] for t in traced), "unit": units[m]}
            for m in units
        }
        for kind in dict.fromkeys(o["kind"] for o in plain[0]["ops"]):
            walls = [sum(o["wall_s"] for o in p["ops"] if o["kind"] == kind) for p in plain]
            metrics[f"op.{kind}.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        # The other workloads' operations read 0, so the result carries
        # every per-operation metric BENCHMARK.json lists.
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            if m["name"].startswith("op."):
                metrics.setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t["wall_s"] for t in traced) - raw["wall_s"],
            "unit": "s",
        }
    else:
        metrics = {name: {"value": med[name], "unit": unit} for name, unit, _ in END_TO_END}

    info = {
        "python": plain[0]["python"],
        "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "failed_frac": len(failures) / attempted,
        "reps": len(reps),
        "clock": raw,
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
