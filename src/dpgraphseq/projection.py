"""Greedy degree-bounding projection.

Edges are considered one by one in a fixed ordering, one tuple of edges per
batch in batch order (`canonical_ordering`); an edge is admitted only while
both endpoint counters sit strictly below the projection thresholds.
Admission state is kept across steps, so projected edge sets are nested over
time.  `admission_walk` checks the thresholds' mode and the ordering's step
count, then walks the ordering at the thresholds' caps on graph_core's one
degree walk: it returns the kept edges and their walk.  The walk runs over
the parent's batches, which have the projected sequence's times and nodes,
so it is all a degree statistic's projection arm reads (`mechanisms.plan`
hands it to `statistics._degree_values`).  `project_sequence`, the one
reader of the kept edges, checks that the ordering covers each batch's
edges, builds the admitted batches and returns their prefix at each
release step; no release reads them.  The tests check them against the
naive counts of `tests/bruteforce.py`.
"""
from __future__ import annotations

from .errors import OrderingMismatchError
from .graph_core import (
    ArrivalBatch,
    DegreeBounds,
    DegreeWalk,
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


def admission_walk(
    seq: GraphSequence, ordering: Ordering, th: ProjectionThresholds
) -> tuple[list[Edge], DegreeWalk]:
    """The edges the online projection keeps, in one flat list, and their walk.

    Admission state is shared across steps.  A threshold mode unlike the
    sequence's, or an ordering without exactly one step per batch, raises
    `OrderingMismatchError` before the walk; that each step covers its
    batch's edges exactly is `project_sequence`'s to validate.
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

    Raises `OrderingMismatchError` unless each step of `ordering` covers its
    batch's edges exactly, then as `admission_walk` does.  Each admitted
    batch keeps its time and nodes and the edges kept at its step.  Returns
    the admitted batches' prefixes for release steps 1..horizon; a time-0
    batch (pre-existing nodes) is processed first and folded into the first.
    """
    if [sorted(step) for step in ordering] != [sorted(b.edges) for b in seq.batches]:
        raise OrderingMismatchError("each step must cover exactly its batch's edges")
    kept, walk = admission_walk(seq, ordering, th)
    batches = tuple(
        ArrivalBatch(batch.time, batch.nodes, tuple(kept[start:end]))
        for batch, start, end in zip(seq.batches, (0,) + walk.ends, walk.ends)
    )
    return [
        _sequence(seq.directed, batches[: i + 1])
        for i, batch in enumerate(batches)
        if batch.time >= 1
    ]
