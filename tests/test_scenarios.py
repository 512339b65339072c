import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemst.errors import DomainError, ParameterError
from kemst.scenarios import (
    EVENT_GRID,
    EVENT_TIME_TOL,
    GENERATORS,
    KineticScenario,
    gen_chebyshev,
    gen_circle,
    gen_diamond,
    gen_rational_bumps,
    gen_split,
    gen_stationary,
    input_distance,
    _displacement_sq_fn,
    _first_crossing,
    _window_bound_fn,
    next_displacement_event,
)
from kemst.spanning import emst, tree_length
from kemst.trajectories import (
    ArcSegment,
    LinearSegment,
    Trajectory,
    constant,
    linear,
    normalize_unit_range,
    polyval,
)


def two_point_scenario():
    return KineticScenario(points=(linear([0.0], [1.0], 1.0), constant([0.5], 1.0)))


# --- input metric ---------------------------------------------------------


def test_input_distance_stationary_zero():
    sc = gen_stationary([[0.1], [0.9]])
    assert input_distance(sc, 0.0, 0.7) == 0.0


def test_input_distance_identity():
    sc = two_point_scenario()
    assert input_distance(sc, 0.42, 0.42) == 0.0


def test_input_distance_single_mover():
    sc = two_point_scenario()
    assert input_distance(sc, 0.0, 0.3) == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda sc: sc.positions(math.nan),
        lambda sc: sc.positions_many([0.1, math.nan]),
        lambda sc: input_distance(sc, math.nan, 0.5),
        lambda sc: next_displacement_event(sc, math.nan, 0.1),
    ],
    ids=["positions", "positions_many", "input_distance", "next_displacement_event"],
)
def test_nan_time_is_outside_the_horizon(call):
    with pytest.raises(DomainError):
        call(gen_chebyshev(3, 5))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_input_distance_pseudometric(t1, t2, t3):
    sc = gen_chebyshev(3, 4)
    d12 = input_distance(sc, t1, t2)
    d21 = input_distance(sc, t2, t1)
    d13 = input_distance(sc, t1, t3)
    d32 = input_distance(sc, t3, t2)
    assert d12 == pytest.approx(d21, abs=1e-12)
    assert input_distance(sc, t1, t1) == 0.0
    assert d12 <= d13 + d32 + 1e-12


# --- batched positions ----------------------------------------------------


def random_cubic_scenario(seed: int, n: int) -> KineticScenario:
    rng = np.random.default_rng(seed)
    return KineticScenario(
        points=tuple(
            Trajectory(
                "polynomial",
                2,
                1.0,
                coeffs=tuple(
                    normalize_unit_range(tuple(rng.normal(0, 1, 4)), 1.0) for _ in range(2)
                ),
            )
            for _ in range(n)
        )
    )


@pytest.mark.parametrize(
    "sc",
    [
        GENERATORS["chebyshev"](s=3, n=11),
        GENERATORS["rational-bumps"](s=8, n=8),
        GENERATORS["circle"](n=7),
        GENERATORS["diamond"](per_side=4),
        GENERATORS["split"](n=16),
        gen_stationary([[0.1, 0.2], [0.7, 0.4], [0.3, 0.9]]),
        random_cubic_scenario(11, 20),
    ],
    ids=lambda sc: sc.label,
)
def test_positions_many_matches_positions(sc):
    rng = np.random.default_rng(3)
    ts = np.concatenate([[0.0, sc.horizon], rng.uniform(0.0, sc.horizon, 200)])
    batched = sc.positions_many(ts)
    single = np.array([sc.positions(float(t)) for t in ts])
    assert batched.shape == (len(ts), sc.n, sc.dim)
    assert np.array_equal(batched.view(np.int64), single.view(np.int64))
    assert sc.positions_many([]).shape == (0, sc.n, sc.dim)
    # input_distance reads one positions_many pair: the per-point metric.
    for i, (t1, t2) in enumerate(zip(ts[:100].tolist(), ts[100:].tolist())):
        want = float(np.max(np.linalg.norm(single[i] - single[100 + i], axis=1)))
        assert input_distance(sc, t1, t2).hex() == want.hex()
    for t in (-1e-6, sc.horizon * (1 + 1e-6)):
        with pytest.raises(DomainError):
            sc.positions(t)
        with pytest.raises(DomainError):
            sc.positions_many([0.0, t])
        with pytest.raises(DomainError):
            input_distance(sc, 0.0, t)
        with pytest.raises(DomainError):
            input_distance(sc, t, 0.0)


def mixed_kind_scenario():
    """Polynomial (one clamped), rational and scripted points in 2-D."""
    arc = (
        ArcSegment(0.0, 0.5, (0.5, 0.5), 0.25, 0.0, 2.0),
        ArcSegment(0.5, 1.0, (0.5, 0.5), 0.25, 2.0, 0.5),
    )
    line = (LinearSegment(0.0, 1.0, (0.1, 0.9), (0.8, 0.2)),)
    bump = (((0.0, 1.0), (1.0, 0.0, 1.0)), ((0.3,), (1.0, 0.5)))
    cubic = ((0.1, 0.7, -0.4, 0.2), (0.9, -0.5))
    overshoot = ((-0.2, 2.5), (0.5, 0.0, 0.0, 0.0, 1.0))
    return KineticScenario(
        points=(
            Trajectory("polynomial", 2, 1.0, coeffs=cubic),
            Trajectory("scripted", 2, 1.0, segments=arc),
            Trajectory("polynomial", 2, 1.0, coeffs=overshoot, clamp_unit=True),
            Trajectory("rational", 2, 1.0, terms=(bump[:1], bump), clamp_unit=True),
            Trajectory("scripted", 2, 1.0, segments=line),
            constant([0.4, 0.6], 1.0),
        ),
        label="mixed",
    )


@pytest.mark.parametrize(
    "sc",
    [
        random_cubic_scenario(12, 20),
        gen_split(8),
        gen_chebyshev(3, 11, T=2.5),
        KineticScenario(
            points=(
                Trajectory("polynomial", 1, 1.0, coeffs=((-0.3, 1.6, 0.2),), clamp_unit=True),
                Trajectory("polynomial", 1, 1.0, coeffs=((1.2, -1.5),), clamp_unit=True),
                linear([0.2], [0.7], 1.0),
            ),
            label="clamped",
        ),
        KineticScenario(
            points=(
                Trajectory("polynomial", 2, 1.0, coeffs=((-0.0,), (0.25, -0.0, 0.5))),
                Trajectory("polynomial", 2, 1.0, coeffs=((0.5, 0.0, -0.0), (-0.0, -0.0))),
                constant([0.0, -0.0], 1.0),
            ),
            label="negative_zero",
        ),
        mixed_kind_scenario(),
    ],
    ids=lambda sc: sc.label,
)
def test_compiled_positions_match_positions(sc):
    rng = np.random.default_rng(4)
    H = sc.horizon
    ends = [0.0, H, -1e-12, 1e-12, H - 1e-12, H + 1e-12]
    ts = np.concatenate([ends, rng.uniform(0.0, H, 200)])
    single = np.array([sc.positions(float(t)) for t in ts])
    compiled = np.array([sc._compiled_positions(float(t)) for t in ts])
    assert np.array_equal(compiled.view(np.int64), single.view(np.int64))
    assert np.array_equal(sc.positions_many(ts).view(np.int64), single.view(np.int64))
    rows = [i for i, p in enumerate(sc.points) if p.kind == "polynomial"]
    assert list(sc._tensor[0]) == rows
    for t in (math.nan, -1e-6, H * (1 + 1e-6)):
        with pytest.raises(DomainError):
            sc.points[0].at(t)
        with pytest.raises(DomainError):
            sc._compiled_positions(t)
        with pytest.raises(DomainError):
            sc.positions_many([0.0, t])


def test_displacement_array_matches_float():
    # The grid scan of `_first_crossing` passes an array, its bisection and
    # refinement pass floats: both must evaluate the same function.
    ts = np.linspace(0.2, 1.0, 200)
    for traj in mixed_kind_scenario().points:
        fn = _displacement_sq_fn(traj, 0.2, 0.01)
        single = np.array([fn(float(t)) for t in ts])
        assert np.array_equal(fn(ts).view(np.int64), single.view(np.int64))


# --- displacement events --------------------------------------------------


def test_event_stationary_none():
    sc = gen_stationary([[0.2], [0.8]])
    assert next_displacement_event(sc, 0.0, 0.3) is None


def test_event_linear_quarter():
    sc = two_point_scenario()
    t = next_displacement_event(sc, 0.0, 0.25)
    assert t == pytest.approx(0.25, abs=1e-9)


def test_event_requires_positive_budget():
    with pytest.raises(ParameterError):
        next_displacement_event(two_point_scenario(), 0.0, 0.0)


def _dense_oracle(sc, t_ref, k, grid=200_001):
    """Independent event finder: fine uniform scan plus bisection."""
    ts = np.linspace(t_ref, sc.horizon, grid)
    ref = sc.positions(t_ref)
    best = None
    for traj, r in zip(sc.points, ref):
        if traj.kind == "polynomial":
            disp_sq = sum(
                (polyval(c, ts) - rc) ** 2 for c, rc in zip(traj.coeffs, r)
            )
            vals = np.sqrt(disp_sq) - k
            dist_at = lambda t, tr=traj, rr=r: math.sqrt(
                sum((polyval(c, t) - rc) ** 2 for c, rc in zip(tr.coeffs, rr))
            )
        else:
            vals = np.array(
                [np.linalg.norm(traj.at(float(t)) - r) for t in ts]
            ) - k
            dist_at = lambda t, tr=traj, rr=r: float(np.linalg.norm(tr.at(t) - rr))
        hit = np.flatnonzero(vals >= 0)
        if len(hit) == 0:
            continue
        if hit[0] == 0:
            cand = float(ts[0])
        else:
            lo, hi = float(ts[hit[0] - 1]), float(ts[hit[0]])
            while hi - lo > 1e-12:
                m = 0.5 * (lo + hi)
                if dist_at(m) >= k:
                    hi = m
                else:
                    lo = m
            cand = 0.5 * (lo + hi)
        if best is None or cand < best:
            best = cand
    return best


def test_event_chebyshev_matches_dense_oracle():
    sc = gen_chebyshev(3, 4)
    got = next_displacement_event(sc, 0.0, 0.1)
    want = _dense_oracle(sc, 0.0, 0.1)
    assert got == pytest.approx(want, abs=1e-8)


def test_event_random_polynomials_match_dense_oracle():
    rng = np.random.default_rng(5)
    from kemst.trajectories import Trajectory, normalize_unit_range

    for _ in range(100):
        s = int(rng.integers(1, 5))
        pts = tuple(
            Trajectory(
                "polynomial",
                1,
                1.0,
                coeffs=(normalize_unit_range(tuple(rng.normal(0, 1, s + 1)), 1.0),),
            )
            for _ in range(3)
        )
        sc = KineticScenario(points=pts)
        k = float(rng.uniform(0.05, 0.3))
        t_ref = float(rng.uniform(0.0, 0.5))
        got = next_displacement_event(sc, t_ref, k)
        want = _dense_oracle(sc, t_ref, k)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-8)


def _reference_scan(sc, t_ref, k):
    """The event search without the certified skip: every point's
    displacement goes through the grid scan."""
    hi = sc.horizon
    if hi - t_ref <= EVENT_TIME_TOL:
        return None
    best = None
    k_sq = k * k
    for traj in sc.points:
        fn = _displacement_sq_fn(traj, t_ref, k_sq)
        upper = best if best is not None else hi
        t_hit = _first_crossing(fn, t_ref, upper, 1e-9 * k_sq, -0.5 * k_sq)
        if t_hit is not None and (best is None or t_hit < best):
            best = t_hit
    return best


def _event_chain(find, sc, k, steps, t_ref=0.0):
    """float.hex of up to `steps` successive events from t_ref."""
    out = []
    for _ in range(steps):
        t_ref = find(sc, t_ref, k)
        if t_ref is None:
            break
        out.append(float.hex(float(t_ref)))
    return out


def _mixed_scenario():
    cubic = random_cubic_scenario(4, 6)
    return KineticScenario(points=gen_circle(6).points + cubic.points)


@pytest.mark.parametrize(
    "sc, ks, steps, last",
    [
        (random_cubic_scenario(0, 8), (0.02, 0.05, 0.1), 40, None),
        (random_cubic_scenario(1, 32), (0.02, 0.05, 0.1), 10, None),
        (random_cubic_scenario(2, 128), (0.02, 0.05, 0.1), 3, None),
        (gen_chebyshev(3, 11), (0.1,), 200, None),
        (gen_chebyshev(7, 11), (0.1,), 200, None),
        (gen_rational_bumps(8, 8), (0.1,), 30, None),
        (_mixed_scenario(), (0.05,), 6, None),
        # the fourth event of the linear mover lands exactly on the horizon
        (two_point_scenario(), (0.25,), 10, 1.0),
    ],
    ids=["cubic_n8", "cubic_n32", "cubic_n128", "cheb_s3", "cheb_s7", "bumps", "mixed", "linear"],
)
def test_next_displacement_event_matches_reference_scan(sc, ks, steps, last):
    for k in ks:
        want = _event_chain(_reference_scan, sc, k, steps)
        assert want
        assert _event_chain(next_displacement_event, sc, k, steps) == want
    if last is not None:
        assert float.fromhex(want[-1]) == pytest.approx(last, abs=1e-9)
    for t_ref in (sc.horizon - 5e-13, sc.horizon):
        assert next_displacement_event(sc, t_ref, ks[0]) is None
        assert _reference_scan(sc, t_ref, ks[0]) is None


@pytest.mark.parametrize("deg", [1, 2, 3, 4, 5])
def test_window_bound_covers_computed_displacement(deg):
    # Random Chebyshev-series motions have a small range for their power
    # coefficients, so after normalize_unit_range these reach magnitudes of
    # about 4^deg / 2 (over 400 at degree 5). With k = 0, fn(t) is exactly
    # the accumulated sum of squared coordinate displacements that the
    # bound must cover.
    rng = np.random.default_rng(100 + deg)

    def motion():
        cheb = np.polynomial.Chebyshev(rng.normal(0, 1, deg + 1), domain=[0.0, 1.0])
        power = cheb.convert(kind=np.polynomial.Polynomial).coef
        return normalize_unit_range(tuple(power), 1.0)

    points = tuple(
        Trajectory("polynomial", 2, 1.0, coeffs=(motion(), motion())) for _ in range(60)
    )
    for t_ref in (0.0, 0.5, 1.0 - 1e-6):
        window_bound = _window_bound_fn(KineticScenario(points), t_ref)
        for upper in (1.0, t_ref + (1.0 - t_ref) / 3.0):
            bound = window_bound(upper)
            ts = np.linspace(t_ref, upper, 4097)
            for traj, b in zip(points, bound):
                assert b >= np.max(_displacement_sq_fn(traj, t_ref, 0.0)(ts))
    assert np.all(np.isinf(_window_bound_fn(gen_circle(5), 0.0)(1.0)))


def touch_after_t_ref_scenario(cells, k=0.1, w=None):
    """A rational bump x(t) = 0.3 + A / (((t - c) / w)^4 + 1), c = cells grid
    cells of the event scan after t_ref = 0 and w = c / 10 unless given,
    whose displacement from t = 0 peaks at k (1 - 1e-11): inside the touch
    tolerance 1e-9 k^2 and below k, so only a refined local maximum finds
    it. A fixed ratio c / w keeps the expanded denominator's rounding (about
    1e-11 of the peak) inside that tolerance. A stationary point sits at 0.9."""
    c = cells / EVENT_GRID
    w = c / 10.0 if w is None else w
    den = np.polynomial.polynomial.polypow([-c, 1.0], 4) / w**4
    den[0] += 1.0
    amp = k * (1.0 - 1e-11) / (1.0 - 1.0 / ((c / w) ** 4 + 1.0))
    bump = Trajectory("rational", 1, 1.0, terms=((((0.3,), (1.0,)), ((amp,), tuple(den))),))
    return KineticScenario(points=(bump, constant([0.9], 1.0))), c, w


@pytest.mark.parametrize(
    "cells, w",
    [
        (1.0, None),
        (2.0, None),
        (3.0, None),
        (10.0, None),
        *(
            pytest.param(c, w, marks=pytest.mark.xfail(strict=True, reason=reason))
            for c, w, reason in [
                (0.5, None, "the peak lies inside the first scan cell: no sample is a local maximum"),
                (1.5, None, "no scan sample reaches refine_cutoff = -k^2 / 2 near the narrow peak"),
                (
                    10.0,
                    5e-5,
                    "c / w is about 98, so the expanded denominator rounds by about 1.6e-7 of "
                    "the peak, more than the touch tolerance 1e-9 k^2",
                ),
            ]
        ),
    ],
)
def test_touch_right_after_t_ref(cells, w):
    # The displacement grazes the budget sphere `cells` scan cells after
    # t_ref. At 1.0 cell the peak is the scan's first sample after t_ref,
    # which the local-maximum search must take as a candidate.
    sc, c, w = touch_after_t_ref_scenario(cells, w=w)
    got = next_displacement_event(sc, 0.0, 0.1)
    assert got is not None and abs(got - c) < w / 100


# --- generators -----------------------------------------------------------


def _sweep_count(coeffs, T):
    ts = np.linspace(0.0, T, 4097)
    vals = polyval(coeffs, ts)
    dsign = np.sign(np.diff(vals))
    dsign = dsign[dsign != 0]
    return 1 + int(np.count_nonzero(dsign[1:] != dsign[:-1]))


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_chebyshev_sweep_count(s):
    sc = gen_chebyshev(s, 2)
    assert _sweep_count(sc.points[0].coeffs[0], 1.0) == s


def test_chebyshev_single_stationary_point_at_half():
    sc = gen_chebyshev(1, 2)
    assert sc.n == 2
    assert sc.points[1].at(0.5)[0] == pytest.approx(0.5)
    vals = [sc.points[0].at(t)[0] for t in np.linspace(0, 1, 101)]
    assert min(vals) == pytest.approx(0.0, abs=1e-12)
    assert max(vals) == pytest.approx(1.0, abs=1e-12)


def test_chebyshev_is_unit_normalized():
    assert gen_chebyshev(4, 7).is_unit_normalized()


def test_rational_bumps_peak_value():
    sc = gen_rational_bumps(8, 4)
    # mover i=1 has sweeps centered at 20, 30, 40
    assert sc.points[0].at(20.0)[0] == pytest.approx(1.0, abs=1e-3)


def test_rational_bumps_far_field_bound():
    sc = gen_rational_bumps(8, 4)
    # at t=0 every bump center of mover 1 is >= 10*j+20 >= 20 away... t far
    # from all centers by >= 10 keeps each term below 1/10^4
    val = sc.points[0].at(0.0)[0]
    assert val <= (8 / 4 + 1) / 10**4


def test_rational_bumps_first_sweep_center():
    sc = gen_rational_bumps(8, 6)
    mover = sc.points[0]  # i = 1
    ts = np.linspace(15.0, 25.0, 2001)
    vals = np.array([mover.at(float(t))[0] for t in ts])
    # the clamped peak is a small plateau; its center sits at t = 20
    plateau = ts[vals >= vals.max() - 1e-9]
    assert 0.5 * (plateau[0] + plateau[-1]) == pytest.approx(20.0, abs=0.01)


def test_rational_bumps_parameter_errors():
    with pytest.raises(ParameterError):
        gen_rational_bumps(6, 4)  # degree not divisible by 4
    with pytest.raises(ParameterError):
        gen_rational_bumps(8, 5)  # odd count


def test_circle_even_spread_at_mid():
    sc = gen_circle(16)
    pos = sc.positions(sc.meta["t_mid"])
    angles = np.sort(np.arctan2(pos[:, 1], pos[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    np.testing.assert_allclose(gaps, 2 * math.pi / 16, atol=1e-9)


def test_circle_farthest_pair_near_diameter():
    sc = gen_circle(16)
    pos = sc.positions(0.5)
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    assert d.max() == pytest.approx(2.0, rel=0.02)


def test_circle_emst_at_mid_pinned():
    sc = gen_circle(16)
    cfg = sc.config(0.5)
    expected = 15 * 2 * math.sin(math.pi / 16)
    assert tree_length(cfg, emst(cfg)) == pytest.approx(expected, abs=1e-9)


def test_circle_starts_at_short_edge():
    sc = gen_circle(8, e_len=0.05)
    pos = sc.positions(0.0)
    assert len(np.unique(np.round(pos, 9), axis=0)) == 2
    assert input_distance(sc, 0.0, 0.0) == 0.0


def test_diamond_counts_and_corners_on_grid():
    sc = gen_diamond(6)
    assert sc.n == 4 * 6 + 2
    pos = sc.positions(0.5)
    # both side corners are occupied exactly at the critical time
    left = any(np.allclose(p, [-math.sqrt(2), 0.0], atol=1e-9) for p in pos)
    right = any(np.allclose(p, [math.sqrt(2), 0.0], atol=1e-9) for p in pos)
    assert left and right


def test_diamond_connector_endpoint_to_corner_distance():
    sc = gen_diamond(4)
    p0 = sc.positions(0.0)
    e_left = p0[sc.meta["e"][0]]
    left_corner = np.array([-math.sqrt(2), 0.0])
    assert np.linalg.norm(e_left - left_corner) == pytest.approx(
        2 - math.sqrt(2) / 2, abs=1e-12
    )


def test_rational_bumps_event_detection_smoke():
    sc = gen_rational_bumps(4, 4, k=0.45)
    t1 = next_displacement_event(sc, 0.0, 0.45)
    assert t1 is not None and 0.0 < t1 <= sc.horizon
    # the first mover's first sweep is centered at t=10; displacement from
    # t=0 first reaches 0.45 on the rising flank
    assert t1 < 10.0


def test_diamond_emst_at_critical_time():
    sc = gen_diamond(6)
    cfg = sc.config(0.5)
    assert tree_length(cfg, emst(cfg)) == pytest.approx(9 - 2 * math.sqrt(2), abs=1e-9)


def test_diamond_endpoints_travel_to_bottom():
    sc = gen_diamond(4)
    e = sc.meta["e"]
    ep = sc.meta["e_prime"]
    p0 = sc.positions(0.0)
    p1 = sc.positions(1.0)
    np.testing.assert_allclose(p0[e[0]], [-0.5, math.sqrt(2) - 0.5], atol=1e-9)
    np.testing.assert_allclose(p1[ep[1]], [0.5, -math.sqrt(2) + 0.5], atol=1e-9)


def test_split_vertical_gap():
    sc = gen_split(8)
    pos = sc.positions(0.0)
    np.testing.assert_allclose(np.diff(pos[:, 1]), 1.0 / 8, atol=1e-12)


def test_split_edge_stretch_law():
    sc = gen_split(8)
    # adjacent points have opposite colors; their distance is sqrt(x^2+t^2)
    for t in (0.0, 0.3, 1.0):
        pos = sc.positions(t)
        d = np.linalg.norm(pos[0] - pos[1])
        assert d == pytest.approx(math.hypot(1.0 / 8, t), abs=1e-12)


def test_split_final_separation():
    sc = gen_split(8)
    pos = sc.positions(1.0)
    assert pos[1, 0] - pos[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_split_recolor_hook():
    sc = gen_split(6)
    sc2 = sc.with_colors([0, 0, 0, 1, 1, 1])
    pos = sc2.positions(1.0)
    assert np.all(pos[:3, 0] == -0.5) and np.all(pos[3:, 0] == 0.5)
    with pytest.raises(ParameterError):
        gen_chebyshev(2, 4).with_colors([0, 1, 0, 1])
