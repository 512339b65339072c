#!/usr/bin/env python3
"""Run every construction end to end and print a summary table.

Covers the displacement-budget event counts on Chebyshev sweeps, the
slide/rotation morph bounds on random swaps, the circle oracle trend, the
diamond certificate and rotation run, and the split-construction budget
runs. Traces and plots land in --out-dir (default ./out).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from kemst.event_stability import TraceRecord, approximation_audit, run_event_regime
from kemst.flip_oracle import minimax_flip_oracle
from kemst.lipschitz import (
    LipschitzRecord,
    no_completion_certificate,
    run_lipschitz_regime,
)
from kemst.morph import (
    TopoRecord,
    diamond_rotation_certificate,
    plan_rotation_morph,
    plan_slide_morph,
    random_swap_instance,
    run_topo_regime,
)
from kemst.scenarios import gen_chebyshev, gen_circle, gen_diamond, gen_split
from kemst.spanning import tree_length
from kemst.traces import svg_plot, write_csv


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    print("== event stability: Chebyshev sweeps (n=11) ==")
    for s in (3, 4, 5):
        for k in (0.05, 0.1, 0.2):
            sc = gen_chebyshev(s, 11, k=k)
            res = run_event_regime(sc, samples=64)
            rep = approximation_audit(res, sc)
            bound = math.ceil(s * s / k) + 1
            print(
                f"  s={s} k={k:<5} events={res.event_count:<4} "
                f"(<= {bound})  max_slack={rep.max_slack:.4f} "
                f"(<= {rep.bound_4kn:.2f})"
            )
            if s == 3 and k == 0.1:
                write_csv(
                    out / "chebyshev_s3_k0.1_event.csv", TraceRecord, res.trace.records
                )
                recs = res.trace.records
                svg_plot(
                    out / "chebyshev_s3_k0.1_event.svg",
                    [("ratio", [r.time for r in recs], [r.ratio for r in recs])],
                    title="chebyshev s=3 k=0.1",
                )

    print("== morph bounds on random swaps ==")
    rng = np.random.default_rng(args.seed)
    worst_slide = worst_rot = 0.0
    for _ in range(500):
        n = int(rng.integers(5, 21))
        cfg, ev = random_swap_instance(rng, n)
        plan = plan_slide_morph(ev, cfg)
        worst_slide = max(worst_slide, plan.max_intermediate / tree_length(cfg, ev.old_tree))
        cfg, ev = random_swap_instance(rng, n, longest_removed=True)
        plan = plan_rotation_morph(ev, cfg)
        worst_rot = max(worst_rot, plan.max_intermediate / tree_length(cfg, ev.old_tree))
    print(f"  slide   : worst ratio {worst_slide:.4f}  (bound 1.5)")
    print(f"  rotation: worst ratio {worst_rot:.4f}  (bound {4 / 3:.4f})")

    print("== circle: minimax slide oracle ==")
    for n in (5, 6, 7):
        res = minimax_flip_oracle(gen_circle(n), "slide", time_steps=64)
        print(f"  n={n}: ratio {res.ratio:.6f}  (< (pi+1)/pi = {(math.pi + 1) / math.pi:.6f})")

    print("== diamond: rotation lower bound ==")
    cert = diamond_rotation_certificate(gen_diamond(6))
    print(
        f"  certificate: blocking {cert.blocking_length:.6f} "
        f">= {10 - 2 * math.sqrt(2):.6f}, ratio {cert.ratio:.4f}"
    )
    topo = run_topo_regime(gen_diamond(6), mode="rotation", samples=32, grid=257)
    print(f"  rotation run: max ratio {topo.max_ratio:.4f} over {topo.swap_count} swaps")
    write_csv(out / "diamond_topo.csv", TopoRecord, topo.records)

    print("== split: budgeted slides ==")
    n = 64
    K = 0.1 / math.log(n)
    certified, budget = no_completion_certificate(n, K)
    res = run_lipschitz_regime(gen_split(n, K=K))
    print(
        f"  n=64 K=0.1/ln(64): certificate budget {budget:.4f} < 1 ({certified}), "
        f"completed={res.completed}, ratio={res.ratio:.2f} (>= {n // 8})"
    )
    write_csv(out / "split_n64_lipschitz.csv", LipschitzRecord, res.records)
    res8 = run_lipschitz_regime(gen_split(8, K=80.0))
    print(f"  n=8 K=80: completed={res8.completed}, ratio={res8.ratio:.4f}")
    print(f"traces in {out}/")


if __name__ == "__main__":
    main()
