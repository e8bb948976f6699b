"""Greedy degree-bounding projection.

Edges are considered one by one in a fixed ordering that respects edge time
stamps; an edge is admitted only while both endpoint counters sit strictly
below the projection thresholds.  Admission state is kept across steps, so
projected edge sets are nested over time.  `check_ordering` validates an
ordering once, before any number of admissions.  Admission has two halves,
both on graph_core's one degree walk.  `admission_walk` checks the
thresholds' mode, looks up each batch's step of the ordering and walks the
sequence at the thresholds' caps: it returns the kept edges and their walk,
which is all a degree statistic's projection arm reads
(`statistics.admitted_values`).  `graph_core.admitted_sequence` builds that
walk into the admitted sequence, its walk cached.  `project_sequence` is
`check_ordering`, then that sequence's prefix (`snapshot`) at each release
step; no release reads them.  The tests check them, and the admitted
sequences, against the naive counts of `tests/bruteforce.py`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderingMismatchError
from .graph_core import (
    DegreeBounds,
    DegreeWalk,
    Edge,
    GraphSequence,
    _walk,
    admitted_sequence,
    snapshot,
)


class ProjectionThresholds(DegreeBounds):
    """Projection parameter: D-tilde, or (in, out) for directed graphs.

    It shares `DegreeBounds`' fields, validation and `caps`, but is its own
    type: a threshold is not a promise about the data.
    """


@dataclass(frozen=True)
class EdgeOrdering:
    """Per-step edge lists; concatenation is the total order Lambda.

    Within the list for one step every edge has that step's time stamp, and
    all edges of step t precede all edges of any later step.  Removing the
    edges incident to one node preserves the relative order of the rest,
    which is the stability the projection's privacy argument needs.
    """

    steps: tuple[tuple[int, tuple[Edge, ...]], ...]


def canonical_ordering(seq: GraphSequence) -> EdgeOrdering:
    """Edges sorted by (time, canonical endpoint pair); deterministic.

    A sequence stores its edges in canonical form, so each step sorts its
    batch's edges as stored.
    """
    return EdgeOrdering(
        steps=tuple((batch.time, tuple(sorted(batch.edges))) for batch in seq.batches)
    )


def check_ordering(seq: GraphSequence, ordering: EdgeOrdering) -> None:
    """Raise unless `ordering` covers each batch's edges exactly, step by step."""
    order_by_time = dict(ordering.steps)
    if set(order_by_time) != {b.time for b in seq.batches}:
        raise OrderingMismatchError("ordering steps must match the sequence's batches")
    # The canonical ordering is each batch's canonical edges, sorted.
    for t, edges in canonical_ordering(seq).steps:
        if sorted(order_by_time[t]) != list(edges):
            raise OrderingMismatchError(
                f"ordering at t={t} must cover exactly that batch's edges"
            )


def admission_walk(
    seq: GraphSequence, ordering: EdgeOrdering, th: ProjectionThresholds
) -> tuple[list[Edge], DegreeWalk]:
    """The edges the online projection keeps, in one flat list, and their walk.

    Admission state is shared across steps.  A threshold mode unlike the
    sequence's, or an ordering without a step of some batch, raises
    `OrderingMismatchError` before the walk; that an ordering covers each
    batch's edges exactly is `check_ordering`'s to validate.
    """
    if th.is_directed != seq.directed:
        raise OrderingMismatchError("threshold mode does not match the sequence")
    order_at = dict(ordering.steps).get
    steps = []
    for batch in seq.batches:
        edges = order_at(batch.time)
        if edges is None:
            raise OrderingMismatchError(f"ordering has no step t={batch.time}")
        steps.append(edges)
    return _walk(seq, steps, *th.caps)


def project_sequence(
    seq: GraphSequence, ordering: EdgeOrdering, th: ProjectionThresholds
) -> list[GraphSequence]:
    """Online projection: one projected snapshot per step, shared state.

    Returns the admitted sequence's prefixes for release steps 1..horizon; a
    time-0 batch (pre-existing nodes) is processed first and folded into
    the first.
    """
    check_ordering(seq, ordering)
    projected = admitted_sequence(seq, *admission_walk(seq, ordering, th))
    return [snapshot(projected, t) for t in range(1, projected.horizon + 1)]
