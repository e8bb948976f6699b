"""Online graph-sequence data model.

A sequence grows by per-time-step arrival batches: a set of new nodes plus
the edges that arrive alongside them.  Every edge must touch at least one
node of its own batch, so an edge's time equals the maximum of its endpoint
time stamps and snapshots are reconstructible for every step.

Sequences are built one batch at a time by `ingest_step`, whose cost is in
the batch's size.  Releases read the batches directly through the
incremental engine `statistics.exact_values`; `snapshot` rebuilds the whole
graph at one step and is the reference the engine is checked against (and
what parameter derivation reads at the final step).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    DanglingEdgeError,
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeToFutureNodeError,
    ModeMismatchError,
    SelfLoopError,
    TimeOutOfRangeError,
)

Edge = tuple[str, str]


def canonical_edge(u: str, v: str, directed: bool) -> Edge:
    """Canonical storage form: unordered pairs become (min, max)."""
    if directed or u <= v:
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class ArrivalBatch:
    time: int
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class DegreeBounds:
    """Public a-priori degree bound: D, or (D_in, D_out) for directed graphs."""

    d: Optional[int] = None
    d_in: Optional[int] = None
    d_out: Optional[int] = None

    def __post_init__(self):
        if self.d is not None:
            if self.d_in is not None or self.d_out is not None:
                raise ValueError("give either d or (d_in, d_out), not both")
            if self.d < 1:
                raise ValueError("degree bound must be >= 1")
        else:
            if self.d_in is None or self.d_out is None:
                raise ValueError("directed bounds need both d_in and d_out")
            if self.d_in < 1 or self.d_out < 1:
                raise ValueError("degree bounds must be >= 1")

    @classmethod
    def undirected(cls, d: int) -> "DegreeBounds":
        return cls(d=d)

    @classmethod
    def directed(cls, d_in: int, d_out: int) -> "DegreeBounds":
        return cls(d_in=d_in, d_out=d_out)

    @property
    def is_directed(self) -> bool:
        return self.d is None


@dataclass(frozen=True)
class GraphSequence:
    """Immutable timestamped sequence of arrival batches.

    Batch times are consecutive integers; the first batch may sit at time 0
    (pre-existing nodes) or 1.  Statistics releases always run over steps
    1..horizon.
    """

    directed: bool
    batches: tuple[ArrivalBatch, ...] = ()

    @classmethod
    def empty(cls, directed: bool = False) -> "GraphSequence":
        return cls(directed=directed)

    @property
    def start_time(self) -> Optional[int]:
        return self.batches[0].time if self.batches else None

    @property
    def horizon(self) -> int:
        return self.batches[-1].time if self.batches else 0

    @cached_property
    def node_time(self) -> dict[str, int]:
        times: dict[str, int] = {}
        for batch in self.batches:
            for n in batch.nodes:
                times[n] = batch.time
        return times

    def batch_at(self, t: int) -> ArrivalBatch:
        start = self.start_time
        if start is None or not start <= t <= self.horizon:
            raise TimeOutOfRangeError(f"no batch at time {t}")
        return self.batches[t - start]


def ingest_step(
    seq: GraphSequence,
    t: int,
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str]] = (),
) -> GraphSequence:
    """Append one arrival batch, returning the extended sequence.

    The batch time must be the previous horizon plus one (an empty sequence
    accepts t of 0 or 1).  Edge order within the batch is preserved; it feeds
    the canonical edge ordering used by projection.

    The checks read only this batch and the parent's node times, so a call
    does work in the batch's size (plus C-level copies of the batch tuple
    and the node-time map).  No scan of earlier edges is needed to reject a
    duplicate: an edge must touch a node of this batch, and such a node has
    no earlier edges, so only duplicates within the batch are possible.
    """
    if seq.batches:
        expected = seq.horizon + 1
        if t != expected:
            raise TimeOutOfRangeError(f"expected batch time {expected}, got {t}")
    elif t not in (0, 1):
        raise TimeOutOfRangeError(f"first batch time must be 0 or 1, got {t}")

    known = seq.node_time
    new_nodes = tuple(nodes)
    seen_new = set()
    for n in new_nodes:
        if n in known or n in seen_new:
            raise DuplicateNodeError(f"node {n!r} already declared")
        seen_new.add(n)

    batch_edges = []
    batch_seen = set()
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop on {u!r}")
        for endpoint in (u, v):
            if endpoint not in known and endpoint not in seen_new:
                raise DanglingEdgeError(f"edge endpoint {endpoint!r} never declared")
        if u not in seen_new and v not in seen_new:
            # Both endpoints predate this batch, so the edge should have
            # arrived earlier.
            raise EdgeToFutureNodeError(
                f"edge ({u!r}, {v!r}) has no endpoint in the current batch"
            )
        e = canonical_edge(u, v, seq.directed)
        if e in batch_seen:
            raise DuplicateEdgeError(f"edge {e!r} already present")
        batch_seen.add(e)
        batch_edges.append(e)

    batch = ArrivalBatch(time=t, nodes=new_nodes, edges=tuple(batch_edges))
    extended = GraphSequence(directed=seq.directed, batches=seq.batches + (batch,))
    # Seed the cached node_time from a copy of the parent's, which the
    # parent keeps unchanged; the cache is not a field, so equality holds.
    extended.__dict__["node_time"] = {**known, **dict.fromkeys(new_nodes, t)}
    return extended


def build_sequence(
    directed: bool,
    batches: Iterable[tuple[int, Iterable[str], Iterable[tuple[str, str]]]],
) -> GraphSequence:
    """Convenience constructor from (t, nodes, edges) triples."""
    seq = GraphSequence.empty(directed)
    for t, nodes, edges in batches:
        seq = ingest_step(seq, t, nodes, edges)
    return seq


@dataclass(frozen=True)
class GraphView:
    """Static snapshot of a sequence at one time step.

    Node iteration order is deterministic: sorted by (arrival time, id).
    For directed views `adjacency` holds out-neighbors and `in_adjacency`
    in-neighbors; undirected views only fill `adjacency`.
    """

    directed: bool
    nodes: tuple[str, ...]
    node_time: dict[str, int]
    adjacency: dict[str, tuple[str, ...]]
    in_adjacency: dict[str, tuple[str, ...]]
    edges: tuple[Edge, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: str) -> int:
        if self.directed:
            return len(self.adjacency[v]) + len(self.in_adjacency[v])
        return len(self.adjacency[v])

    def out_degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def in_degree(self, v: str) -> int:
        if not self.directed:
            raise ModeMismatchError("in_degree on an undirected view")
        return len(self.in_adjacency[v])


def build_view(
    directed: bool,
    node_time: dict[str, int],
    edges: Iterable[Edge],
) -> GraphView:
    nodes = tuple(sorted(node_time, key=lambda n: (node_time[n], n)))
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    in_adj: dict[str, list[str]] = {n: [] for n in nodes} if directed else {}
    edge_list = []
    for u, v in edges:
        edge_list.append((u, v))
        adj[u].append(v)
        if directed:
            in_adj[v].append(u)
        else:
            adj[v].append(u)
    return GraphView(
        directed=directed,
        nodes=nodes,
        node_time=dict(node_time),
        adjacency={n: tuple(ns) for n, ns in adj.items()},
        in_adjacency={n: tuple(ns) for n, ns in in_adj.items()},
        edges=tuple(edge_list),
    )


def snapshot(seq: GraphSequence, t: int) -> GraphView:
    """The graph formed by all batches up to and including time t."""
    start = seq.start_time
    if start is None or not start <= t <= seq.horizon:
        raise TimeOutOfRangeError(f"time {t} outside [{start}, {seq.horizon}]")
    node_time: dict[str, int] = {}
    edges: list[Edge] = []
    for batch in seq.batches[: t - start + 1]:
        for n in batch.nodes:
            node_time[n] = batch.time
        edges.extend(batch.edges)
    return build_view(seq.directed, node_time, edges)


@dataclass(frozen=True)
class BoundViolation:
    time: int
    node: str
    degree: int
    kind: str  # "degree", "in", or "out"


def verify_bounds(seq: GraphSequence, bounds: DegreeBounds) -> Optional[BoundViolation]:
    """Check the whole sequence against a degree bound.

    Returns None when every snapshot satisfies the bound, otherwise the first
    (t, node, observed degree) crossing it.  Degrees are nondecreasing, so a
    single incremental pass finds the earliest violation.
    """
    if bounds.is_directed != seq.directed:
        raise ModeMismatchError("bounds mode does not match sequence directedness")
    if seq.directed:
        indeg: dict[str, int] = {}
        outdeg: dict[str, int] = {}
        for batch in seq.batches:
            for n in batch.nodes:
                indeg[n] = 0
                outdeg[n] = 0
            for u, v in batch.edges:
                outdeg[u] += 1
                if outdeg[u] > bounds.d_out:
                    return BoundViolation(batch.time, u, outdeg[u], "out")
                indeg[v] += 1
                if indeg[v] > bounds.d_in:
                    return BoundViolation(batch.time, v, indeg[v], "in")
    else:
        deg: dict[str, int] = {}
        for batch in seq.batches:
            for n in batch.nodes:
                deg[n] = 0
            for u, v in batch.edges:
                for endpoint in (u, v):
                    deg[endpoint] += 1
                    if deg[endpoint] > bounds.d:
                        return BoundViolation(
                            batch.time, endpoint, deg[endpoint], "degree"
                        )
    return None


# --- edge-list text format ----------------------------------------------
#
# One record per line:
#   H directed|undirected      (header, required first non-comment line)
#   N <node-id> <time>         declares a node
#   E <u> <v>                  declares an edge (time = max endpoint time)
# Lines starting with '#' are ignored.


def dumps_edge_list(seq: GraphSequence) -> str:
    lines = ["H " + ("directed" if seq.directed else "undirected")]
    for batch in seq.batches:
        for n in batch.nodes:
            lines.append(f"N {n} {batch.time}")
        for u, v in batch.edges:
            lines.append(f"E {u} {v}")
    return "\n".join(lines) + "\n"


def loads_edge_list(text: str) -> GraphSequence:
    """Parse the edge-list format into a sequence.

    Raw times may be arbitrary integers (e.g. years); a 0 or 1 start is kept
    as-is and any other start is shifted to 1.  Gap years become empty
    batches.  The one header must precede every record.
    """
    directed = None
    node_time: dict[str, int] = {}
    raw_edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "H":
            if directed is not None:
                raise ValueError(f"line {lineno}: second header {line!r}")
            if len(parts) != 2 or parts[1] not in ("directed", "undirected"):
                raise ValueError(f"line {lineno}: bad header {line!r}")
            directed = parts[1] == "directed"
            continue
        if directed is None:
            raise ValueError(f"line {lineno}: header line must precede records")
        if tag == "N":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: bad node record {line!r}")
            name, t = parts[1], int(parts[2])
            if name in node_time:
                raise DuplicateNodeError(f"line {lineno}: node {name!r} re-declared")
            node_time[name] = t
        elif tag == "E":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: bad edge record {line!r}")
            raw_edges.append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: unknown record tag {tag!r}")
    if directed is None:
        raise ValueError("missing header line")
    if not node_time:
        return GraphSequence.empty(directed)

    t_min = min(node_time.values())
    t_max = max(node_time.values())
    origin = t_min if t_min in (0, 1) else 1
    shift = origin - t_min

    by_time: dict[int, list[str]] = {}
    for name, t in node_time.items():
        by_time.setdefault(t + shift, []).append(name)
    edges_by_time: dict[int, list[tuple[str, str]]] = {}
    for u, v in raw_edges:
        if u not in node_time or v not in node_time:
            missing = u if u not in node_time else v
            raise DanglingEdgeError(f"edge endpoint {missing!r} never declared")
        t = max(node_time[u], node_time[v]) + shift
        edges_by_time.setdefault(t, []).append((u, v))

    seq = GraphSequence.empty(directed)
    for t in range(origin, t_max + shift + 1):
        seq = ingest_step(
            seq, t, sorted(by_time.get(t, [])), edges_by_time.get(t, [])
        )
    return seq
