"""Scenario builders and reference sums shared by several test modules."""

import numpy as np

from kemst.scenarios import KineticScenario
from kemst.trajectories import Trajectory, normalize_unit_range


def random_cubic_scenario(seed: int, n: int, k: float | None = None) -> KineticScenario:
    """n random 2-D cubics on [0, 1], each coordinate rescaled to range [0, 1]
    (the construction of acceptance criterion 04 at degree 3)."""
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
        ),
        k=k,
    )


def left_to_right(values) -> float:
    """values added one at a time from 0.0: the reference order of every
    float sum in the library, spelled out, as Python's `sum` compensates
    float sums from 3.12."""
    acc = 0.0
    for x in values:
        acc = acc + x
    return acc
