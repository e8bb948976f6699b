"""Greedy degree-bounding projection.

Edges are considered one by one in a fixed ordering, one tuple of edges per
batch in batch order (`canonical_ordering`); an edge is admitted only while
both endpoint counters sit strictly below the projection thresholds.
Admission state is kept across steps, so projected edge sets are nested over
time.  `check_ordering` validates an ordering once, before any number of
admissions.  Admission has two halves, both on graph_core's one degree walk.
`admission_walk` checks the thresholds' mode and the ordering's step count,
then walks the ordering at the thresholds' caps: it returns the kept edges
and their walk, which is all a degree statistic's projection arm reads
(`statistics.admitted_values`).  `graph_core.admitted_sequence` builds that
walk into the admitted sequence, its walk cached.  `project_sequence` is
`check_ordering`, then that sequence's prefix (`snapshot`) at each release
step; no release reads them.  The tests check them, and the admitted
sequences, against the naive counts of `tests/bruteforce.py`.
"""
from __future__ import annotations

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


Ordering = tuple[tuple[Edge, ...], ...]  # one tuple of edges per batch


class ProjectionThresholds(DegreeBounds):
    """Projection parameter: D-tilde, or (in, out) for directed graphs.

    It shares `DegreeBounds`' fields, validation and `caps`, but is its own
    type: a threshold is not a promise about the data.
    """


def canonical_ordering(seq: GraphSequence) -> Ordering:
    """The ordering Lambda: one tuple of edges per batch, in batch order.

    Steps come in time order, so every edge of step t precedes all edges of
    any later step in the concatenated total order.  Each step is its
    batch's edges sorted as stored (in canonical form), so removing the
    edges incident to one node preserves the relative order of the rest,
    which is the stability the projection's privacy argument needs.
    """
    return tuple(tuple(sorted(batch.edges)) for batch in seq.batches)


def check_ordering(seq: GraphSequence, ordering: Ordering) -> None:
    """Raise unless `ordering` covers each batch's edges exactly, step by step."""
    if [sorted(step) for step in ordering] != [sorted(b.edges) for b in seq.batches]:
        raise OrderingMismatchError("each step must cover exactly its batch's edges")


def admission_walk(
    seq: GraphSequence, ordering: Ordering, th: ProjectionThresholds
) -> tuple[list[Edge], DegreeWalk]:
    """The edges the online projection keeps, in one flat list, and their walk.

    Admission state is shared across steps.  A threshold mode unlike the
    sequence's, or an ordering without exactly one step per batch, raises
    `OrderingMismatchError` before the walk; that each step covers its
    batch's edges exactly is `check_ordering`'s to validate.
    """
    if th.is_directed != seq.directed:
        raise OrderingMismatchError("threshold mode does not match the sequence")
    if len(ordering) != len(seq.batches):
        raise OrderingMismatchError(
            f"ordering has {len(ordering)} steps for {len(seq.batches)} batches"
        )
    return _walk(seq, ordering, *th.caps)


def project_sequence(
    seq: GraphSequence, ordering: Ordering, th: ProjectionThresholds
) -> list[GraphSequence]:
    """Online projection: one projected snapshot per step, shared state.

    Returns the admitted sequence's prefixes for release steps 1..horizon; a
    time-0 batch (pre-existing nodes) is processed first and folded into
    the first.
    """
    check_ordering(seq, ordering)
    projected = admitted_sequence(seq, *admission_walk(seq, ordering, th))
    return [snapshot(projected, t) for t in range(1, projected.horizon + 1)]
