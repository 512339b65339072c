#!/usr/bin/env python3
"""Regenerate tests/fixtures/pinned.json.

Freezes the oracle and simulation values that the test suite asserts
exactly: circle minimax ratios, Chebyshev event counts, split-run
outcomes, the sampled stability estimate, the diamond certificate, and
a fingerprint of the swaps `detect_swaps` finds on eight scenarios.
Run from the repository root after any change that is supposed to move
these numbers, and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kemst.event_stability import (
    approximation_audit,
    estimate_stability_ratio,
    recompute_always_schedule,
    run_event_regime,
)
from kemst.flip_oracle import minimax_flip_oracle
from kemst.lipschitz import run_lipschitz_regime
from kemst.morph import detect_swaps, diamond_rotation_certificate
from kemst.scenarios import (
    gen_chebyshev,
    gen_circle,
    gen_diamond,
    gen_rational_bumps,
    gen_split,
)

ORACLE_TIME_STEPS = 64
ORACLE_E_LEN = 0.05
SWAP_SCENARIOS = {
    "circle_n7": lambda: gen_circle(7),
    "circle_n16": lambda: gen_circle(16),
    "circle_n32": lambda: gen_circle(32),
    "diamond_q6": lambda: gen_diamond(6),
    "diamond_q9": lambda: gen_diamond(9),
    "split_n64": lambda: gen_split(64),
    "rational_bumps_s8_n12": lambda: gen_rational_bumps(8, 12),
    "chebyshev_s5_n9": lambda: gen_chebyshev(5, 9),
}


def swap_fingerprint(swaps) -> dict:
    """Swap count and the sha256 of every swap's time (`float.hex`) and the
    sorted edges of its two trees, so any change of a bit shows."""
    text = json.dumps([[t.hex(), sorted(a.edges), sorted(b.edges)] for t, a, b in swaps])
    return {"swaps": len(swaps), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main() -> None:
    pinned: dict = {
        "settings": {
            "oracle_time_steps": ORACLE_TIME_STEPS,
            "oracle_e_len": ORACLE_E_LEN,
            "event_samples": 64,
        }
    }

    circle = {}
    for n in (5, 6, 7):
        res = minimax_flip_oracle(
            gen_circle(n, e_len=ORACLE_E_LEN), "slide", time_steps=ORACLE_TIME_STEPS
        )
        circle[str(n)] = res.ratio
        print(f"circle n={n}: {res.ratio!r}")
    pinned["circle_oracle_slide"] = circle

    events = {}
    for s in (3, 4, 5):
        for k in (0.05, 0.1, 0.2):
            sc = gen_chebyshev(s, 11, k=k)
            result = run_event_regime(sc, samples=0)
            events[f"s{s}_k{k}"] = result.event_count
            print(f"chebyshev s={s} k={k}: {result.event_count} events")
    pinned["chebyshev_event_counts_n11"] = events

    sc = gen_chebyshev(3, 11, k=0.1)
    result = run_event_regime(sc, samples=64)
    report = approximation_audit(result, sc)
    pinned["chebyshev_s3_n11_k0.1"] = {
        "event_count": result.event_count,
        "max_slack": report.max_slack,
        "max_ratio": report.max_ratio,
    }
    print("cheb s3 audit:", pinned["chebyshev_s3_n11_k0.1"])

    n = 64
    tiny = run_lipschitz_regime(gen_split(n, K=0.1 / math.log(n)))
    pinned["split_n64_tinyK"] = {
        "K": 0.1 / math.log(n),
        "completed": tiny.completed,
        "final_length": tiny.final_length,
        "ratio": tiny.ratio,
    }
    print("split tiny:", pinned["split_n64_tinyK"])

    roomy = run_lipschitz_regime(gen_split(8, K=80.0))
    pinned["split_n8_K80"] = {
        "completed": roomy.completed,
        "final_length": roomy.final_length,
        "ratio": roomy.ratio,
    }
    print("split roomy:", pinned["split_n8_K80"])

    sc6 = gen_split(6)
    schedule = recompute_always_schedule(sc6, samples=48)
    est = estimate_stability_ratio(schedule, sc6, pair_samples=200, seed=0)
    pinned["split_n6_stability_estimate"] = {
        "samples": 48,
        "pair_samples": 200,
        "seed": 0,
        "value": est,
    }
    print("stability estimate:", est)

    cert = diamond_rotation_certificate(gen_diamond(6))
    pinned["diamond_certificate_q6"] = {
        "blocking": cert.blocking_length,
        "emst": cert.emst_length,
        "ratio": cert.ratio,
    }
    print("diamond certificate:", pinned["diamond_certificate_q6"])

    swaps = {}
    for key, build in SWAP_SCENARIOS.items():
        swaps[key] = swap_fingerprint(detect_swaps(build(), grid=257))
        print(f"swaps {key}: {swaps[key]['swaps']}")
    pinned["detect_swaps_grid257"] = swaps

    out = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "pinned.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
