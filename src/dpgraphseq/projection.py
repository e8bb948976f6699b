"""Greedy degree-bounding projection.

Edges are considered one by one in a fixed ordering that respects edge time
stamps; an edge is admitted only while both endpoint counters sit strictly
below the projection thresholds.  Admission state is kept across steps, so
projected edge sets are nested over time.  `projected_batches` is the one
admission path: it returns the kept edges batch by batch, which the
mechanisms feed to the incremental statistics engine and `project_sequence`
turns into snapshot views.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderingMismatchError
from .graph_core import (
    ArrivalBatch,
    DegreeBounds,
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


def _admit(
    edges: tuple[Edge, ...],
    th: ProjectionThresholds,
    out: dict[str, int],
    inn: dict[str, int],
) -> list[Edge]:
    cap_in, cap_out = th.caps
    kept = []
    for u, v in edges:
        if out.get(u, 0) < cap_out and inn.get(v, 0) < cap_in:
            out[u] = out.get(u, 0) + 1
            inn[v] = inn.get(v, 0) + 1
            kept.append((u, v))
    return kept


def projected_batches(
    seq: GraphSequence, ordering: EdgeOrdering, th: ProjectionThresholds
) -> list[ArrivalBatch]:
    """Online projection as arrival batches: each keeps its nodes and the
    edges admitted at its step, with admission state shared across steps.
    """
    if th.is_directed != seq.directed:
        raise OrderingMismatchError("threshold mode does not match the sequence")
    order_by_time = dict(ordering.steps)
    seq_times = [b.time for b in seq.batches]
    if set(order_by_time) != set(seq_times):
        raise OrderingMismatchError("ordering steps must match the sequence's batches")
    for batch in seq.batches:
        if sorted(order_by_time[batch.time]) != sorted(
            canonical_edge(u, v, seq.directed) for u, v in batch.edges
        ):
            raise OrderingMismatchError(
                f"ordering at t={batch.time} must cover exactly that batch's edges"
            )

    out: dict[str, int] = {}
    # An undirected degree is one counter, read as both the out- and in-side.
    inn: dict[str, int] = {} if seq.directed else out
    return [
        ArrivalBatch(
            time=batch.time,
            nodes=batch.nodes,
            edges=tuple(_admit(order_by_time[batch.time], th, out, inn)),
        )
        for batch in seq.batches
    ]


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
