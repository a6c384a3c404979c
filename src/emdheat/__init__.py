"""Private aggregation of grid distributions under Earth Mover's Distance.

The library aggregates per-user probability distributions on a
power-of-two grid with differential privacy, measuring a noisy
multi-resolution pyramid of the user sum and recovering a sparse
estimate whose EMD error scales with the sqrt of the support size
rather than the grid size.  Heatmap rendering, evaluation metrics, a
dense-regime variant, a per-cell Laplace baseline, a shuffle-model
realization, and k-median coreset checks round out the toolkit.
"""

from .aggregate import (
    AggregateResult,
    AggregationConfig,
    aggregate_central,
    aggregate_dense,
    baseline_laplace,
    coreset,
    normalize,
)
from .clustering import CenterSet, brute_kmedian, coreset_check, cost_points, cost_vec
from .datagen import (
    CheckinRecord,
    MixtureSpec,
    build_cells,
    parse_checkins,
    random_mixture_spec,
    synth_users,
)
from .emd import CapacityError, TransportPlan, emd, emd_norm
from .grid import CellId, GridPoint, SparseDist, children, containing_cell, parent, snap
from .heatmap import HeatmapGrid, heatmap, heatmap_padded, metrics
from .noise import (
    NoiseSchedule,
    budget_schedule,
    discrete_laplace_share,
    laplace,
    make_rng,
    pivot_level,
    polya,
)
from .pyramid import PyramidVec, apply_pyramid, partition_sums, pyramid_l1
from .recovery import SupportSelection, l1_fit, reconstruct, restrict, select_support
from .shuffle import (
    ShuffleParams,
    analyze,
    communication,
    compute_r,
    simulate_round,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "AggregationConfig",
    "CapacityError",
    "CellId",
    "CenterSet",
    "CheckinRecord",
    "GridPoint",
    "HeatmapGrid",
    "MixtureSpec",
    "NoiseSchedule",
    "PyramidVec",
    "ShuffleParams",
    "SparseDist",
    "SupportSelection",
    "TransportPlan",
    "aggregate_central",
    "aggregate_dense",
    "analyze",
    "apply_pyramid",
    "baseline_laplace",
    "brute_kmedian",
    "budget_schedule",
    "build_cells",
    "children",
    "communication",
    "compute_r",
    "containing_cell",
    "coreset",
    "coreset_check",
    "cost_points",
    "cost_vec",
    "discrete_laplace_share",
    "emd",
    "emd_norm",
    "heatmap",
    "heatmap_padded",
    "l1_fit",
    "laplace",
    "make_rng",
    "metrics",
    "normalize",
    "parent",
    "parse_checkins",
    "partition_sums",
    "pivot_level",
    "polya",
    "pyramid_l1",
    "random_mixture_spec",
    "reconstruct",
    "restrict",
    "select_support",
    "simulate_round",
    "snap",
    "synth_users",
]
