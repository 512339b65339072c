"""Kinetic Euclidean minimum spanning trees and their stability regimes."""

from .errors import (
    AuditFailure,
    DomainError,
    ParameterError,
    SizeError,
    UnsupportedKindError,
)
from .event_stability import (
    EventRunResult,
    EventTrace,
    approximation_audit,
    estimate_stability_ratio,
    recompute_always_schedule,
    run_event_regime,
)
from .flip_oracle import (
    OracleResult,
    flip_graph,
    minimax_flip_oracle,
    slide_distance,
)
from .lipschitz import (
    SlideSchedule,
    adaptive_simpson,
    any_tree_bound_audit,
    completion_time,
    completion_time_quadrature,
    no_completion_certificate,
    run_lipschitz_regime,
)
from .morph import (
    MorphPlan,
    MorphStep,
    SwapEvent,
    apply_rotation,
    apply_slide,
    classify_connector,
    decompose_swap,
    detect_swaps,
    diamond_rotation_certificate,
    make_swap_event,
    plan_rotation_morph,
    plan_slide_morph,
    random_swap_instance,
    run_topo_regime,
)
from .scenarios import (
    GENERATORS,
    KineticScenario,
    gen_chebyshev,
    gen_circle,
    gen_diamond,
    gen_rational_bumps,
    gen_split,
    gen_stationary,
    input_distance,
    next_displacement_event,
)
from .scenario_io import load_scenario, save_scenario
from .spanning import (
    PointConfig,
    SpanningTree,
    emst,
    enumerate_spanning_trees,
    fundamental_cycle,
    tree_length,
    two_coloring,
)
from .trajectories import (
    Trajectory,
    constant,
    linear,
    max_speed,
    normalize_unit_range,
    unit_chebyshev_coeffs,
)

__version__ = "0.1.0"
