import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemst.errors import DomainError, ParameterError, UnsupportedKindError
from kemst.trajectories import (
    ArcSegment,
    LinearSegment,
    Trajectory,
    constant,
    linear,
    max_speed,
    normalize_unit_range,
    poly_extrema,
    polyder,
    polyval,
    unit_chebyshev_coeffs,
)


def test_constant_evaluates_everywhere():
    traj = constant([0.5], 1.0)
    for t in (0.0, 0.3, 1.0):
        assert traj.at(t)[0] == 0.5


def test_linear_midpoint():
    traj = linear([0.0], [1.0], 1.0)
    assert traj.at(0.25)[0] == pytest.approx(0.25, abs=1e-15)


def test_chebyshev_degree3_starts_at_one():
    # direct polynomial expansion of the mapped degree-3 polynomial
    coeffs = unit_chebyshev_coeffs(3, 1.0)
    assert polyval(coeffs, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert polyval(coeffs, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_chebyshev_degree2_midpoint_extremum():
    coeffs = unit_chebyshev_coeffs(2, 1.0)
    val = polyval(coeffs, 0.5)
    assert val == pytest.approx(0.0, abs=1e-12) or val == pytest.approx(1.0, abs=1e-12)


def test_evaluate_outside_horizon_raises():
    traj = constant([0.5], 1.0)
    with pytest.raises(DomainError):
        traj.at(1.5)
    with pytest.raises(DomainError):
        traj.at(-0.1)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_positive_or_non_finite_horizon_rejected(horizon):
    with pytest.raises(ParameterError, match="horizon must be positive and finite"):
        Trajectory("polynomial", 1, horizon, coeffs=((0.5,),))


def test_max_speed_constant_zero():
    assert max_speed(constant([0.3, 0.7], 2.0)) == 0.0


def test_max_speed_linear_unit():
    assert max_speed(linear([0.0], [1.0], 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_max_speed_chebyshev4_square():
    c4 = unit_chebyshev_coeffs(4, 1.0)
    traj = Trajectory("polynomial", 2, 1.0, coeffs=(c4, c4))
    assert max_speed(traj) == pytest.approx(16.0, abs=1e-6)


def test_max_speed_bounds_dense_grid():
    # exact maximum: never below any sampled |h'|, and attained up to rounding
    rng = np.random.default_rng(8)
    for _ in range(50):
        T = float(rng.uniform(0.5, 2.0))
        coeffs = tuple(tuple(rng.normal(0, 1, size=int(rng.integers(1, 8)))) for _ in "xy")
        speed = max_speed(Trajectory("polynomial", 2, T, coeffs=coeffs))
        ts = np.linspace(0.0, T, 20_001)
        dense = max(float(np.abs(polyval(polyder(c), ts)).max()) for c in coeffs)
        assert dense <= speed * (1 + 1e-12) + 1e-300
        assert speed <= dense * (1 + 1e-6) + 1e-12


def test_max_speed_rejects_scripted():
    seg = LinearSegment(0.0, 1.0, (0.0, 0.0), (1.0, 0.0))
    traj = Trajectory("scripted", 2, 1.0, segments=(seg,))
    with pytest.raises(UnsupportedKindError):
        max_speed(traj)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_markov_bound_on_random_normalized_polynomials(s, seed):
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.5, 2.0))
    coeffs = normalize_unit_range(tuple(rng.normal(0.0, 1.0, size=s + 1)), T)
    lo, hi = poly_extrema(coeffs, T)
    assert lo >= -1e-9 and hi <= 1.0 + 1e-9
    traj = Trajectory("polynomial", 1, T, coeffs=(coeffs,))
    assert max_speed(traj) <= s * s / T + 1e-6


@pytest.mark.parametrize("s", range(1, 7))
def test_chebyshev_attains_markov_bound(s):
    traj = Trajectory("polynomial", 1, 1.0, coeffs=(unit_chebyshev_coeffs(s, 1.0),))
    assert max_speed(traj) >= 0.999 * s * s


def test_scripted_segments_must_tile():
    good = (
        LinearSegment(0.0, 0.5, (0.0,), (1.0,)),
        LinearSegment(0.5, 1.0, (1.0,), (0.0,)),
    )
    Trajectory("scripted", 1, 1.0, segments=good)
    gap = (
        LinearSegment(0.0, 0.4, (0.0,), (1.0,)),
        LinearSegment(0.5, 1.0, (1.0,), (0.0,)),
    )
    with pytest.raises(ParameterError):
        Trajectory("scripted", 1, 1.0, segments=gap)
    jump = (
        LinearSegment(0.0, 0.5, (0.0,), (1.0,)),
        LinearSegment(0.5, 1.0, (0.5,), (0.0,)),
    )
    with pytest.raises(ParameterError):
        Trajectory("scripted", 1, 1.0, segments=jump)
    # a zero-duration segment evaluates to its start, so it jumps to its end
    zero_jump = (
        LinearSegment(0.0, 0.5, (0.0,), (0.5,)),
        LinearSegment(0.5, 0.5, (0.5,), (0.9,)),
        LinearSegment(0.5, 1.0, (0.9,), (0.0,)),
    )
    with pytest.raises(ParameterError):
        Trajectory("scripted", 1, 1.0, segments=zero_jump)


_LINE = LinearSegment(0.0, 1.0, (0.1, 0.2), (0.7, 0.4))


@pytest.mark.parametrize("dim,segments,message", [
    (2, (LinearSegment(0.0, 1.0, (0.1, 0.2, 0.3), (0.7, 0.4, 0.5)),), "2 numbers each"),
    (2, (LinearSegment(0.0, 1.0, (0.5,), (0.7, 0.4)),), "2 numbers each"),
    (2, (LinearSegment(0.0, 1.0, (0.1, 0.2), ((0.7, 0.4),)),), "2 numbers each"),
    (1, (ArcSegment(0.0, 1.0, (0.5, 0.5), 0.25, 0.0, 2.0),), "arc segments need dim 2"),
    (3, (ArcSegment(0.0, 1.0, (0.5, 0.5), 0.25, 0.0, 2.0),), "arc segments need dim 2"),
    (2, (ArcSegment(0.0, 1.0, (0.5,), 0.25, 0.0, 2.0),), "2 numbers each"),
    (2, (LinearSegment(0.0, "1", (0.1, 0.2), (0.7, 0.4)),), "times, radius and angles"),
    (2, (LinearSegment(0.0, (1.0,), (0.1, 0.2), (0.7, 0.4)),), "times, radius and angles"),
    (2, ((0.0, 1.0, (0.1, 0.2), (0.7, 0.4)),), "unknown segment type tuple"),
    (2, (LinearSegment(0.0, math.nan, (0.1, 0.2), (0.7, 0.4)),
         LinearSegment(math.nan, 1.0, (0.7, 0.4), (0.7, 0.4))), "finite"),
    (2, (LinearSegment(0.0, 1.0, (math.inf, 0.2), (0.7, 0.4)),), "finite"),
    (2, (LinearSegment(0.0, 1.0, (0.1, 0.2), (0.7, math.nan)),), "finite"),
    (2, (ArcSegment(0.0, 1.0, (0.5, 0.5), math.nan, 0.0, 2.0),), "finite"),
    (2, (ArcSegment(0.0, 1.0, (0.5, 0.5), 0.25, 0.0, math.inf),), "finite"),
    (2, (ArcSegment(0.0, 1.0, (math.inf, 0.5), 0.25, 0.0, 2.0),), "finite"),
    (2, (LinearSegment(0.0, 0.6, (0.1, 0.2), (0.7, 0.4)),
         LinearSegment(0.6, 0.4, (0.7, 0.4), (0.5, 0.5)),
         LinearSegment(0.4, 1.0, (0.7, 0.4), (0.5, 0.5))), "backwards"),
    # each segment runs forward and tiles within the tolerance, but the
    # zero-width middle one ends 5e-10 before the first
    (2, (LinearSegment(0.0, 0.5, (0.1, 0.2), (0.7, 0.4)),
         LinearSegment(0.5 - 5e-10, 0.5 - 5e-10, (0.7, 0.4), (0.5, 0.5)),
         LinearSegment(0.5 - 5e-10, 1.0, (0.7, 0.4), (0.5, 0.5))), "must not decrease"),
], ids=["3d-in-2d", "short-start", "nested-end", "arc-in-1d", "arc-in-3d", "short-center",
        "string-time", "tuple-time", "not-a-segment", "nan-times", "inf-start",
        "nan-end", "nan-radius", "inf-angle", "inf-center", "backwards", "end-decreases"])
def test_scripted_segments_are_validated(dim, segments, message):
    with pytest.raises(ParameterError, match=message):
        Trajectory("scripted", dim, 1.0, segments=segments)


def test_scripted_segments_validation_keeps_good_inputs():
    # Integer fields, a zero-width segment and ends within the continuity
    # tolerance of the next start all still load.
    Trajectory("scripted", 2, 1.0, segments=(_LINE,))
    Trajectory("scripted", 1, 1.0, segments=(LinearSegment(0, 1, (0,), (1,)),))
    segs = (
        LinearSegment(0.0, 0.0, (0.1, 0.2), (0.9, 0.9)),
        LinearSegment(0.0, 0.5, (0.1, 0.2), (0.7, 0.4)),
        LinearSegment(0.5 + 5e-10, 1.0, (0.7, 0.4), (0.5, 0.5)),
    )
    traj = Trajectory("scripted", 2, 1.0, segments=segs)
    assert traj.at(0.5 + 2e-10).shape == (2,)


def test_at_array_rows_are_float_answers():
    arc = (
        ArcSegment(0.0, 0.5, (0.5, 0.5), 0.25, 0.0, 2.0),
        ArcSegment(0.5, 1.0, (0.5, 0.5), 0.25, 2.0, 0.5),
    )
    bump = (((0.0, 1.0), (1.0, 0.0, 1.0)), ((0.3,), (1.0, 0.5)))
    trajs = (
        Trajectory("polynomial", 2, 1.0, coeffs=((-0.2, 2.5), (0.5, 0.0, 1.0)), clamp_unit=True),
        Trajectory("rational", 2, 1.0, terms=(bump[:1], bump)),
        Trajectory("scripted", 2, 1.0, segments=arc),
    )
    ts = np.concatenate([[-1e-12, 0.0, 0.5, 1.0, 1.0 + 1e-12], np.linspace(0.0, 1.0, 97)])
    for traj in trajs:
        rows = traj.at(ts)
        assert rows.shape == (len(ts), 2) and rows.flags.c_contiguous
        single = np.array([traj.at(float(t)) for t in ts])
        assert np.array_equal(rows.view(np.int64), single.view(np.int64))
        assert traj.at(np.array([])).shape == (0, 2)
        with pytest.raises(DomainError):
            traj.at(np.array([0.5, 1.0 + 1e-6]))


def test_arc_segment_positions():
    seg = ArcSegment(0.0, 1.0, (0.0, 0.0), 1.0, 0.0, math.pi / 2)
    traj = Trajectory("scripted", 2, 1.0, segments=(seg,))
    np.testing.assert_allclose(traj.at(0.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(traj.at(1.0), [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(traj.at(0.5), [math.sqrt(2) / 2] * 2, atol=1e-12)


def test_rational_denominator_root_rejected():
    # denominator t - 0.5 vanishes inside the horizon
    with pytest.raises(ParameterError):
        Trajectory(
            "rational", 1, 1.0, terms=((((1.0,), (-0.5, 1.0)),),)
        )
