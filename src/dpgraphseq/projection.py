"""Greedy degree-bounding projection.

Edges are considered one by one in a fixed ordering that respects edge time
stamps; an edge is admitted only while both endpoint counters sit strictly
below the projection thresholds.  Admission state is kept across steps, so
projected edge sets are nested over time.  `admit` is the one admission
path: it returns the kept edges as a sequence whose degree walk it records
from the counters it reads, which the mechanisms feed to the statistics
engine.  `check_ordering` validates an ordering once, before any number of
admissions; `projected_batches` is both as a list of batches, which
`project_sequence` turns into snapshot views.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderingMismatchError
from .graph_core import (
    ArrivalBatch,
    DegreeBounds,
    DegreeWalk,
    Edge,
    GraphSequence,
    GraphView,
    build_view,
    canonical_edge,
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
    """Edges sorted by (time, canonical endpoint pair); deterministic."""
    steps = []
    for batch in seq.batches:
        edges = sorted(
            canonical_edge(u, v, seq.directed) for u, v in batch.edges
        )
        steps.append((batch.time, tuple(edges)))
    return EdgeOrdering(steps=tuple(steps))


def check_ordering(seq: GraphSequence, ordering: EdgeOrdering) -> None:
    """Raise unless `ordering` covers each batch's edges exactly, step by step."""
    order_by_time = dict(ordering.steps)
    if set(order_by_time) != {b.time for b in seq.batches}:
        raise OrderingMismatchError("ordering steps must match the sequence's batches")
    for batch in seq.batches:
        if sorted(order_by_time[batch.time]) != sorted(
            canonical_edge(u, v, seq.directed) for u, v in batch.edges
        ):
            raise OrderingMismatchError(
                f"ordering at t={batch.time} must cover exactly that batch's edges"
            )


def admit(
    seq: GraphSequence, ordering: EdgeOrdering, th: ProjectionThresholds
) -> GraphSequence:
    """Online projection as a sequence whose degree walk is already cached.

    Each batch keeps its nodes and the edges admitted at its step, with
    admission state shared across steps.  The counters an edge's admission
    reads are its pre-edge degrees in the projected sequence, so the one
    pass also records the projection's degree walk.  The ordering must have
    passed `check_ordering`.
    """
    if th.is_directed != seq.directed:
        raise OrderingMismatchError("threshold mode does not match the sequence")
    cap_in, cap_out = th.caps
    order_by_time = dict(ordering.steps)
    out: dict[str, int] = {}
    # An undirected degree is one counter, read as both the out- and in-side.
    inn: dict[str, int] = {} if seq.directed else out
    tail: list[int] = []
    head: list[int] = []
    ends = []
    batches = []
    for batch in seq.batches:
        for n in batch.nodes:
            out[n] = inn[n] = 0
        kept = []
        for u, v in order_by_time[batch.time]:
            d_tail = out[u]
            d_head = inn[v]
            if d_tail < cap_out and d_head < cap_in:
                kept.append((u, v))
                tail.append(d_tail)
                head.append(d_head)
                out[u] = d_tail + 1
                inn[v] = d_head + 1
        ends.append(len(tail))
        batches.append(ArrivalBatch(time=batch.time, nodes=batch.nodes, edges=tuple(kept)))
    projected = GraphSequence(directed=seq.directed, batches=tuple(batches))
    projected.__dict__["degree_walk"] = DegreeWalk(
        tuple(tail), tuple(head), tuple(ends), out, inn
    )
    return projected


def projected_batches(
    seq: GraphSequence, ordering: EdgeOrdering, th: ProjectionThresholds
) -> list[ArrivalBatch]:
    """`admit` after `check_ordering`, as a list of arrival batches."""
    check_ordering(seq, ordering)
    return list(admit(seq, ordering, th).batches)


def project_sequence(
    seq: GraphSequence, ordering: EdgeOrdering, th: ProjectionThresholds
) -> list[GraphView]:
    """Online projection: one projected snapshot per step, shared state.

    Returns views for release steps 1..horizon; a time-0 batch (pre-existing
    nodes) is processed first and folded into the first view.
    """
    kept: list[Edge] = []
    node_time: dict[str, int] = {}
    views = []
    for batch in projected_batches(seq, ordering, th):
        for n in batch.nodes:
            node_time[n] = batch.time
        kept.extend(batch.edges)
        if batch.time >= 1:
            views.append(build_view(seq.directed, node_time, kept))
    return views
