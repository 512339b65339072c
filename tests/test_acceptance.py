"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from kemst.cli import main as cli_main
from kemst.event_stability import approximation_audit, run_event_regime
from kemst.flip_oracle import minimax_flip_oracle
from kemst.lipschitz import (
    completion_time,
    completion_time_quadrature,
    no_completion_certificate,
    run_lipschitz_regime,
)
from kemst.morph import (
    diamond_rotation_certificate,
    plan_rotation_morph,
    plan_slide_morph,
    random_swap_instance,
)
from kemst.scenarios import KineticScenario, gen_chebyshev, gen_circle, gen_diamond, gen_split
from kemst.spanning import (
    PointConfig,
    emst,
    enumerate_spanning_trees,
    tree_from_prufer,
    tree_length,
)
from kemst.trajectories import Trajectory, max_speed, normalize_unit_range, unit_chebyshev_coeffs

SQRT2 = math.sqrt(2.0)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_markov_brothers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_excess = -math.inf
    for _ in range(100):
        s = int(rng.integers(1, 7))
        T = float(rng.uniform(0.5, 2.0))
        coeffs = normalize_unit_range(tuple(rng.normal(0, 1, size=s + 1)), T)
        traj = Trajectory("polynomial", 1, T, coeffs=(coeffs,))
        worst_excess = max(worst_excess, max_speed(traj) - s * s / T)
    cheb_ok = all(
        max_speed(
            Trajectory("polynomial", 1, 1.0, coeffs=(unit_chebyshev_coeffs(s, 1.0),))
        )
        >= 0.999 * s * s
        for s in range(1, 7)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-6 and cheb_ok and elapsed < 5.0
    report(
        1,
        ok,
        f"max |h'| excess {worst_excess:.2e} <= 1e-6, Chebyshev attains bound, "
        f"{elapsed:.2f}s < 5s",
    )


def _chebyshev_counts():
    counts = {}
    for s in (3, 4, 5):
        for k in (0.05, 0.1, 0.2):
            sc = gen_chebyshev(s, 11, k=k)
            counts[(s, k)] = run_event_regime(sc, samples=0).event_count
    return counts


COUNTS = None


def test_criterion_02_event_upper_bound():
    global COUNTS
    t0 = time.perf_counter()
    COUNTS = _chebyshev_counts()
    bad = [
        (s, k, c)
        for (s, k), c in COUNTS.items()
        if c > math.ceil(s * s / k) + 1
    ]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    report(2, ok, f"counts {sorted(COUNTS.items())} within ceil(s^2/k)+1, {elapsed:.2f}s < 10s")


def test_criterion_03_event_growth():
    counts = COUNTS or _chebyshev_counts()
    factors = {}
    for s in (3, 4, 5):
        # halving from k=0.2 to k=0.1 keeps 1/k <= n = 11 on both sides
        factors[s] = counts[(s, 0.1)] / counts[(s, 0.2)]
    ok = all(1.8 <= f <= 2.2 for f in factors.values())
    report(3, ok, f"halving factors {factors} within [1.8, 2.2]")


def test_criterion_04_approximation_audit():
    rng = np.random.default_rng(7)
    worst_frac = 0.0
    for i in range(50):
        n = int(rng.integers(4, 31))
        s = int(rng.integers(1, 5))
        k = float(rng.uniform(0.02, 0.2))
        pts = tuple(
            Trajectory(
                "polynomial",
                2,
                1.0,
                coeffs=tuple(
                    normalize_unit_range(tuple(rng.normal(0, 1, size=s + 1)), 1.0)
                    for _ in range(2)
                ),
            )
            for _ in range(n)
        )
        sc = KineticScenario(points=pts, k=k, label=f"rand{i}")
        result = run_event_regime(sc, samples=16)
        rep = approximation_audit(result, sc)  # raises at tolerance 1e-9
        worst_frac = max(worst_frac, rep.max_slack / rep.bound_4kn)
    report(4, True, f"50 scenarios, worst slack fraction of 4kn: {worst_frac:.3f}")


def test_criterion_05_slide_morph_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(5, 21))
        cfg, ev = random_swap_instance(rng, n)
        plan = plan_slide_morph(ev, cfg)
        worst = max(worst, plan.max_intermediate / tree_length(cfg, ev.old_tree))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.5 and elapsed < 30.0
    report(5, ok, f"500 swaps, worst ratio {worst:.4f} <= 1.5, {elapsed:.1f}s < 30s")


def test_criterion_06_rotation_morph_bound():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(5, 21))
        cfg, ev = random_swap_instance(rng, n, longest_removed=True)
        plan = plan_rotation_morph(ev, cfg)
        worst = max(
            worst,
            plan.max_intermediate / tree_length(cfg, ev.old_tree),
        )
    ok = worst <= 4.0 / 3.0 + 1e-9
    report(6, ok, f"500 swaps, worst ratio {worst:.4f} <= 4/3")


def test_criterion_07_diamond_lower_bound():
    t0 = time.perf_counter()
    cert = diamond_rotation_certificate(gen_diamond(6))
    floor = 10 - 2 * SQRT2
    ratio_floor = (10 - 2 * SQRT2) / (9 - 2 * SQRT2)
    elapsed = time.perf_counter() - t0
    ok = (
        cert.blocking_length >= floor - 1e-9
        and cert.ratio >= ratio_floor - 1e-9
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"blocking {cert.blocking_length:.9f} >= 10-2*sqrt(2) = {floor:.9f}, "
        f"ratio {cert.ratio:.4f} >= {ratio_floor:.4f}, {elapsed:.2f}s < 60s",
    )


def test_criterion_08_circle_oracle_trend(pinned):
    settings = pinned["settings"]
    ratios = {}
    for n in (5, 6, 7):
        sc = gen_circle(n, e_len=settings["oracle_e_len"])
        ratios[n] = minimax_flip_oracle(
            sc, "slide", time_steps=settings["oracle_time_steps"]
        ).ratio
    pins_ok = all(
        ratios[n] == pytest.approx(pinned["circle_oracle_slide"][str(n)], rel=1e-9)
        for n in (5, 6, 7)
    )
    ceiling = (math.pi + 1) / math.pi + 1e-6
    ok = (
        pins_ok
        and ratios[5] <= ratios[6] <= ratios[7]
        and all(v > 1.10 for v in ratios.values())
        and all(v < ceiling for v in ratios.values())
    )
    report(
        8,
        ok,
        f"ratios {[f'{ratios[n]:.6f}' for n in (5, 6, 7)]} monotone, > 1.10, "
        f"< (pi+1)/pi, matching frozen fixtures",
    )


def test_criterion_09_lipschitz_no_completion(pinned):
    n = 64
    K = 0.1 / math.log(n)
    certified, worst_budget = no_completion_certificate(n, K)
    res = run_lipschitz_regime(gen_split(n, K=K))
    # closed form vs quadrature on the worst carrier
    agree = True
    for x in (1.0 / n, 2.0 / n, 0.5):
        cf = completion_time(x, 8.0, horizon=4.0)
        quad = completion_time_quadrature(x, 8.0, horizon=4.0)
        agree &= abs(cf - quad) <= 1e-8
    want = pinned["split_n64_tinyK"]
    ok = (
        certified
        and res.completed == 0
        and res.ratio >= n / 8
        and res.ratio == pytest.approx(want["ratio"], rel=1e-9)
        and agree
    )
    report(
        9,
        ok,
        f"certificate budget {worst_budget:.4f} < 1, zero completions, "
        f"ratio {res.ratio:.2f} >= {n // 8}, closed form vs quadrature <= 1e-8",
    )


def test_criterion_10_any_tree_bound():
    rng = np.random.default_rng(19)
    worst_edge = 0.0
    worst_total = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 51))
        cfg = PointConfig(rng.uniform(0, 1, size=(n, 2)))
        tree = tree_from_prufer([int(x) for x in rng.integers(0, n, size=n - 2)], n)
        opt = tree_length(cfg, emst(cfg))
        worst_edge = max(
            worst_edge, max(cfg.distance(u, v) for u, v in tree.edges) / opt
        )
        worst_total = max(worst_total, tree_length(cfg, tree) / ((n - 1) * opt))
    ok = worst_edge <= 1.0 + 1e-9 and worst_total <= 1.0 + 1e-9
    report(
        10,
        ok,
        f"200 trees: max edge/OPT {worst_edge:.4f} <= 1, "
        f"max total/((n-1)OPT) {worst_total:.4f} <= 1",
    )


def test_criterion_11_emst_oracle_equivalence():
    trees = enumerate_spanning_trees(6)
    pair_id = {}
    pairs = []
    for u in range(6):
        for v in range(u + 1, 6):
            pair_id[(u, v)] = len(pairs)
            pairs.append((u, v))
    edge_ids = np.array(
        [[pair_id[e] for e in t.sorted_edges()] for t in trees], dtype=np.int64
    )
    iu = np.array([p[0] for p in pairs])
    ju = np.array([p[1] for p in pairs])
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        pos = rng.uniform(0, 1, size=(6, 2))
        pair_len = np.linalg.norm(pos[iu] - pos[ju], axis=1)
        brute = float(pair_len[edge_ids].sum(axis=1).min())
        cfg = PointConfig(pos)
        worst = max(worst, abs(tree_length(cfg, emst(cfg)) - brute))
    ok = worst <= 1e-12
    report(11, ok, f"200 configs, max |kruskal - enumeration| = {worst:.2e} <= 1e-12")


def test_criterion_12_determinism(tmp_path):
    sc_path = tmp_path / "sc.json"
    assert (
        cli_main(
            ["gen", "chebyshev", "--s", "3", "--n", "7", "--k", "0.1",
             "--out", str(sc_path)]
        )
        == 0
    )
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert (
            cli_main(
                ["run-event", str(sc_path), "--out-dir", str(out_dir),
                 "--samples", "32"]
            )
            == 0
        )
        assert (
            cli_main(
                ["run-lipschitz", "split", "--n", "8", "--K", "2.0",
                 "--out-dir", str(out_dir)]
            )
            == 0
        )
        outs.append(
            [
                (out_dir / "chebyshev_s3_n7_event.csv").read_bytes(),
                (out_dir / "split_n8_lipschitz.csv").read_bytes(),
            ]
        )
    ok = outs[0] == outs[1]
    report(12, ok, "fixed-seed reruns produce byte-identical traces")
