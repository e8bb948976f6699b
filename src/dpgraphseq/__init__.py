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
    GraphView,
    build_sequence,
    build_view,
    dumps_edge_list,
    ingest_step,
    loads_edge_list,
    snapshot,
    verify_bounds,
)
from .projection import (
    EdgeOrdering,
    ProjectionThresholds,
    canonical_ordering,
    project_sequence,
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
    count_high_degree,
    count_subgraph,
    degree_histogram,
    evaluate,
    exact_values,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalBatch",
    "BoundViolationError",
    "BudgetTooLargeError",
    "DegreeBounds",
    "EdgeOrdering",
    "GraphSequence",
    "GraphSequenceError",
    "GraphView",
    "Histogram",
    "InfeasibleThresholdError",
    "ProjectionThresholds",
    "SensitivityReport",
    "StatisticQuery",
    "UnsupportedBaselineQueryError",
    "UnsupportedQueryError",
    "build_sequence",
    "build_view",
    "canonical_ordering",
    "count_high_degree",
    "count_subgraph",
    "degree_histogram",
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
