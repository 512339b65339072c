"""Pin the fingerprints the benchmark compares every operation against.

    python3 perfbench/pin_reference.py

Runs every workload once per seed 0-63 (seedless workloads once) with the
current sources and writes the fingerprints to ``reference.json``. An
operation that fails its invariant checks is not pinned; the script exits
nonzero instead. Re-pin only with a stated reason, as for
``tests/fixtures/pinned.json``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import REFERENCE, run_ops  # noqa: E402


SEEDS = range(64)


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        for seed in [0] if name in workloads.SEEDLESS else SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                ops = workloads.build(name, seed, Path(tmp))
                # CLI commands write relative to the working directory.
                cwd = Path.cwd()
                try:
                    os.chdir(tmp)
                    results = run_ops(ops)
                finally:
                    os.chdir(cwd)
            errors = [f"{r['name']}: {r['error']}" for r in results if r["error"]]
            if errors:
                print(f"{name} seed {seed} failed: {errors}", file=sys.stderr)
                return 1
            key = workloads.reference_key(name, seed)
            reference.setdefault(name, {})[key] = {
                r["name"]: r["fingerprint"] for r in results
            }
            print(f"{name} {key} pinned", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
