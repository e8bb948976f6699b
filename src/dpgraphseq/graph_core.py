"""Online graph-sequence data model.

A sequence grows by per-time-step arrival batches: a set of new nodes plus
the edges that arrive alongside them.  Every edge must touch at least one
node of its own batch, so an edge's time equals the maximum of its endpoint
time stamps and snapshots are reconstructible for every step.

Sequences are built by one validation pass over their batches
(`build_sequence`, `loads_edge_list`) or one batch at a time by
`ingest_step`; either way a batch costs work in its own size.

Each sequence computes its `DegreeWalk` once, on first use, and caches it
like `node_time`: every edge's endpoint degrees just before it joins, batch
ends and final counters.  `verify_bounds`, parameter derivation and the
degree statistics of `statistics.sequence_values` all read this one walk;
projection records the walk of its kept edges while admitting them.  The
triangle family keeps its own neighbour-set walk.  `snapshot` rebuilds the
whole graph at one step and is the reference all of these are checked
against.
"""
from __future__ import annotations

from bisect import bisect_right
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
        name = type(self).__name__
        if self.d is not None:
            if self.d_in is not None or self.d_out is not None:
                raise ValueError(f"{name}: give either d or (d_in, d_out), not both")
        elif self.d_in is None or self.d_out is None:
            raise ValueError(f"{name}: directed caps need both d_in and d_out")
        if min(self.caps) < 1:
            raise ValueError(f"{name}: caps must be >= 1")

    @classmethod
    def undirected(cls, d: int) -> "DegreeBounds":
        return cls(d=d)

    @classmethod
    def directed(cls, d_in: int, d_out: int) -> "DegreeBounds":
        return cls(d_in=d_in, d_out=d_out)

    @property
    def is_directed(self) -> bool:
        return self.d is None

    @property
    def caps(self) -> tuple[int, int]:
        """(cap_in, cap_out): an undirected D caps both sides of one counter."""
        if self.is_directed:
            return self.d_in, self.d_out
        return self.d, self.d


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

    @cached_property
    def degree_walk(self) -> DegreeWalk:
        """The sequence's one degree walk, computed on first use.

        Like `node_time` the cache is not a field: it takes no part in
        equality, and a sequence extended by `ingest_step` computes its own.
        """
        out: dict[str, int] = {}
        # An undirected degree is one counter, read as both the out- and in-side.
        inn: dict[str, int] = {} if self.directed else out
        tail: list[int] = []
        head: list[int] = []
        ends = []
        for batch in self.batches:
            for n in batch.nodes:
                out[n] = inn[n] = 0
            for u, v in batch.edges:
                # u != v, so in an undirected walk the two reads and the two
                # increments touch different nodes.
                d = out[u]
                tail.append(d)
                out[u] = d + 1
                d = inn[v]
                head.append(d)
                inn[v] = d + 1
            ends.append(len(tail))
        return DegreeWalk(tuple(tail), tuple(head), tuple(ends), out, inn)


@dataclass(frozen=True)
class DegreeWalk:
    """Endpoint degrees just before each edge joins, in arrival order.

    Edge i, counted through the batches in order, has `tail[i]`, the
    out-degree of its tail u, and `head[i]`, the in-degree of its head v,
    both read before it joins; an undirected degree is one counter, read as
    both sides.  Batch j holds edges ends[j-1] (0 for j = 0) to ends[j] - 1.
    `out` and `inn` are every node's final counters, zeros included, and the
    same map when undirected.

    Each degree statistic moves by an amount fixed by these pre-edge
    degrees, so the bound check, parameter derivation, the degree
    statistics and projection all read this one walk.
    """

    tail: tuple[int, ...]
    head: tuple[int, ...]
    ends: tuple[int, ...]
    out: dict[str, int]
    inn: dict[str, int]


def _extend(
    seq: GraphSequence,
    batches: Iterable[tuple[int, Iterable[str], Iterable[tuple[str, str]]]],
) -> GraphSequence:
    """Validate (t, nodes, edges) triples and append them as arrival batches.

    One pass keeps one running node-time map, so a batch costs work in its
    own size.  No scan of earlier edges is needed to reject a duplicate: an
    edge must touch a node of its batch, and such a node has no earlier
    edges, so only duplicates within the batch are possible.
    """
    # A copy: the parent keeps its map unchanged.
    times = dict(seq.node_time)
    horizon = seq.horizon if seq.batches else None
    appended = []
    for t, nodes, edges in batches:
        if horizon is not None:
            if t != horizon + 1:
                raise TimeOutOfRangeError(f"expected batch time {horizon + 1}, got {t}")
        elif t not in (0, 1):
            raise TimeOutOfRangeError(f"first batch time must be 0 or 1, got {t}")
        horizon = t

        new_nodes = tuple(nodes)
        for n in new_nodes:
            if n in times:
                raise DuplicateNodeError(f"node {n!r} already declared")
            times[n] = t

        batch_edges = []
        batch_seen = set()
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop on {u!r}")
            for endpoint in (u, v):
                if endpoint not in times:
                    raise DanglingEdgeError(f"edge endpoint {endpoint!r} never declared")
            if times[u] != t and times[v] != t:
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
        appended.append(ArrivalBatch(time=t, nodes=new_nodes, edges=tuple(batch_edges)))

    extended = GraphSequence(directed=seq.directed, batches=seq.batches + tuple(appended))
    # Seed the cached node_time; the cache is not a field, so equality holds.
    extended.__dict__["node_time"] = times
    return extended


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
    and the node-time map).  The child computes its own degree walk; it does
    not inherit the parent's.
    """
    return _extend(seq, [(t, nodes, edges)])


def build_sequence(
    directed: bool,
    batches: Iterable[tuple[int, Iterable[str], Iterable[tuple[str, str]]]],
) -> GraphSequence:
    """Convenience constructor from (t, nodes, edges) triples."""
    return _extend(GraphSequence.empty(directed), batches)


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
    (t, node, observed degree) crossing it.  Degrees are nondecreasing, so
    the final counters of the sequence's degree walk decide whether the bound
    holds, and only a violated bound scans the walk for its first crossing.
    """
    if bounds.is_directed != seq.directed:
        raise ModeMismatchError("bounds mode does not match sequence directedness")
    cap_in, cap_out = bounds.caps
    walk = seq.degree_walk
    if max(walk.out.values(), default=0) <= cap_out and max(
        walk.inn.values(), default=0
    ) <= cap_in:
        return None
    # An edge whose endpoint sits at the cap before it joins lifts that
    # endpoint over the cap; the tail's side is checked first.
    i = next(
        i
        for i, (d_tail, d_head) in enumerate(zip(walk.tail, walk.head))
        if d_tail >= cap_out or d_head >= cap_in
    )
    j = bisect_right(walk.ends, i)
    batch = seq.batches[j]
    u, v = batch.edges[i - (walk.ends[j - 1] if j else 0)]
    kind_out, kind_in = ("out", "in") if seq.directed else ("degree", "degree")
    if walk.tail[i] >= cap_out:
        return BoundViolation(batch.time, u, walk.tail[i] + 1, kind_out)
    return BoundViolation(batch.time, v, walk.head[i] + 1, kind_in)


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
            name = parts[1]
            try:
                t = int(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: bad node time {line!r}") from None
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

    return build_sequence(
        directed,
        (
            (t, sorted(by_time.get(t, [])), edges_by_time.get(t, []))
            for t in range(origin, t_max + shift + 1)
        ),
    )
