"""Greedy degree-bounding projection.

Edges are considered one by one in a fixed ordering, one tuple of edges per
batch in batch order (`canonical_ordering`); an edge is admitted only while
both endpoint counters sit strictly below the projection thresholds.
Admission state is kept across steps, so projected edge sets are nested over
time.  The projection at a set of thresholds is graph_core's one degree
walk, `_walk(seq, ordering, *th.caps)`: it returns the kept edges and their
walk.  Its two callers check the thresholds' mode (`_check_mode`) first;
`mechanisms.plan` does so for every candidate before any walk and walks the
canonical ordering, which has one step per batch by construction.
The walk runs over the parent's batches, which have the projected
sequence's times and nodes, so it is all a degree statistic's projection
arm reads (`mechanisms.plan` hands it to `statistics._degree_values`).
`project_sequence`, the one reader of the kept edges, checks that the
ordering covers each batch's edges, builds the admitted batches and
returns their prefix at each release step; no release reads them.  The
tests check them against the naive counts of `tests/bruteforce.py`.
"""
from __future__ import annotations

from .errors import OrderingMismatchError
from .graph_core import (
    ArrivalBatch,
    DegreeBounds,
    Edge,
    GraphSequence,
    _sequence,
    _walk,
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


def _check_mode(seq: GraphSequence, th: ProjectionThresholds) -> None:
    if th.is_directed != seq.directed:
        raise OrderingMismatchError("threshold mode does not match the sequence")


def project_sequence(
    seq: GraphSequence, ordering: Ordering, th: ProjectionThresholds
) -> list[GraphSequence]:
    """Online projection: one projected snapshot per step, shared state.

    Raises `OrderingMismatchError` unless each step of `ordering` covers its
    batch's edges exactly and the thresholds' mode is the sequence's, then
    walks the ordering at the thresholds' caps.  Each admitted batch keeps
    its time and nodes and the edges kept at its step.  Returns the
    admitted batches' prefixes for release steps 1..horizon; a time-0 batch
    (pre-existing nodes) is processed first and folded into the first.
    """
    if [sorted(step) for step in ordering] != [sorted(b.edges) for b in seq.batches]:
        raise OrderingMismatchError("each step must cover exactly its batch's edges")
    _check_mode(seq, th)
    kept, walk = _walk(seq, ordering, *th.caps)
    batches = tuple(
        ArrivalBatch(batch.time, batch.nodes, tuple(kept[start:end]))
        for batch, start, end in zip(seq.batches, (0,) + walk.ends, walk.ends)
    )
    return [
        _sequence(seq.directed, batches[: i + 1])
        for i, batch in enumerate(batches)
        if batch.time >= 1
    ]
