"""Differentially private continual release over online graph sequences."""

from .errors import (
    BoundViolationError,
    BudgetTooLargeError,
    GraphSequenceError,
    InfeasibleThresholdError,
    UnsupportedBaselineQueryError,
    UnsupportedQueryError,
)
from .graph_core import (
    ArrivalBatch,
    DegreeBounds,
    GraphSequence,
    ProjectionThresholds,
    build_sequence,
    canonical_ordering,
    dumps_edge_list,
    ingest_step,
    loads_edge_list,
    project_sequence,
    snapshot,
    verify_bounds,
)
from .sensitivity import (
    SensitivityReport,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from .statistics import (
    Histogram,
    StatisticQuery,
    evaluate,
    exact_values,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalBatch",
    "BoundViolationError",
    "BudgetTooLargeError",
    "DegreeBounds",
    "GraphSequence",
    "GraphSequenceError",
    "Histogram",
    "InfeasibleThresholdError",
    "ProjectionThresholds",
    "SensitivityReport",
    "StatisticQuery",
    "UnsupportedBaselineQueryError",
    "UnsupportedQueryError",
    "build_sequence",
    "canonical_ordering",
    "diff_sequence_sensitivity",
    "dumps_edge_list",
    "evaluate",
    "exact_values",
    "ingest_step",
    "loads_edge_list",
    "per_release_sensitivity",
    "project_sequence",
    "projected_sensitivity",
    "snapshot",
    "verify_bounds",
]
