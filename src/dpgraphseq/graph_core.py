"""Online graph-sequence data model.

A sequence grows by per-time-step arrival batches: a set of new nodes plus
the edges that arrive alongside them.  Every edge must touch at least one
node of its own batch, so an edge's time equals the maximum of its endpoint
time stamps and snapshots are reconstructible for every step.

Sequences are built by one validation pass over their batches
(`build_sequence`, `loads_edge_list`) or one batch at a time by
`ingest_step`.  All three go through one validator, `_extend`, which reads
each edge endpoint's time once for all its checks and stores each edge in
canonical form, so a batch costs work in its own size.  `loads_edge_list`
splits each line once, takes the common records (edges and nodes after the
header) on its first branch and buckets nodes and edges by time, one
node-time read per endpoint, before it hands the batches to that validator.

One walk over a sequence records every edge's endpoint degrees just before
it joins (`DegreeWalk`).  It admits the edges of each step, in a given
order, while both endpoint counters sit below a pair of caps.  With no caps,
in arrival order, it is the sequence's own `degree_walk`, computed once and
cached like `node_time`; the bound check, parameter derivation and the
degree statistics of `statistics.exact_values` all read it.  At a
projection's thresholds, over its edge ordering, it is `admit_edges`: the
admitted sequence, with its walk cached.  The triangle family keeps its own
neighbour-set walk.  `snapshot` rebuilds the whole graph at one step and is
the reference all of these are checked against.
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
        """The sequence's uncapped walk in arrival order, computed on first use.

        Like `node_time` the cache is not a field: it takes no part in
        equality, and a sequence extended by `ingest_step` computes its own.
        """
        # No counter reaches the number of edges, so that cap admits all.
        edges = sum(len(batch.edges) for batch in self.batches)
        return _walk(self, [batch.edges for batch in self.batches], edges, edges)[1]


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
    degrees, so the bound check, parameter derivation and the degree
    statistics all read this one walk.
    """

    tail: tuple[int, ...]
    head: tuple[int, ...]
    ends: tuple[int, ...]
    out: dict[str, int]
    inn: dict[str, int]


def _walk(
    seq: GraphSequence, steps: Iterable[Iterable[Edge]], cap_in: int, cap_out: int
) -> tuple[list[Edge], DegreeWalk]:
    """Admit each step's edges in order while both endpoints sit below the caps.

    `steps` gives one edge order per batch of `seq`.  Returns the admitted
    edges, in one flat list, and their walk.
    """
    out: dict[str, int] = {}
    # An undirected degree is one counter, read as both the out- and in-side.
    inn: dict[str, int] = {} if seq.directed else out
    kept: list[Edge] = []
    tail: list[int] = []
    head: list[int] = []
    ends = []
    for batch, edges in zip(seq.batches, steps):
        for n in batch.nodes:
            out[n] = inn[n] = 0
        for e in edges:
            u, v = e
            # u != v, so in an undirected walk the two reads and the two
            # increments touch different nodes.
            d_tail = out[u]
            d_head = inn[v]
            if d_tail < cap_out and d_head < cap_in:
                kept.append(e)
                tail.append(d_tail)
                head.append(d_head)
                out[u] = d_tail + 1
                inn[v] = d_head + 1
        ends.append(len(tail))
    return kept, DegreeWalk(tuple(tail), tuple(head), tuple(ends), out, inn)


def admit_edges(
    seq: GraphSequence, steps: Iterable[Iterable[Edge]], caps: tuple[int, int]
) -> GraphSequence:
    """The edges `_walk` admits at `caps` (cap_in, cap_out), walk cached.

    Each batch keeps its time and nodes and the edges admitted at its step.
    """
    kept, walk = _walk(seq, steps, *caps)
    batches = tuple(
        ArrivalBatch(batch.time, batch.nodes, tuple(kept[start:end]))
        for batch, start, end in zip(seq.batches, (0,) + walk.ends, walk.ends)
    )
    admitted = GraphSequence(seq.directed, batches)
    # The cache is not a field, so equality holds.
    admitted.__dict__["degree_walk"] = walk
    return admitted


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
    time_of = times.get
    directed = seq.directed
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
            # One read of each endpoint's time serves both checks below.
            t_u = time_of(u)
            if t_u is None:
                raise DanglingEdgeError(f"edge endpoint {u!r} never declared")
            t_v = time_of(v)
            if t_v is None:
                raise DanglingEdgeError(f"edge endpoint {v!r} never declared")
            if t_u != t and t_v != t:
                # Both endpoints predate this batch, so the edge should have
                # arrived earlier.
                raise EdgeToFutureNodeError(
                    f"edge ({u!r}, {v!r}) has no endpoint in the current batch"
                )
            e = canonical_edge(u, v, directed)
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
    accepts t of 0 or 1).  Edge order within the batch is preserved; the
    sequence's degree walk reads the edges in that order.

    The checks read only this batch and the parent's node times: one
    node-time read per edge endpoint and one set probe per edge, so they do
    work in the batch's size.  On top come C-level copies of the batch tuple
    and of the node-time map; the map copy is O(nodes) per call, about 18 us
    at 3,000 nodes on a 2-vCPU Xeon VM.  The child computes its own degree
    walk; it does not inherit the parent's.
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
        """Out-degree; the degree itself in an undirected view."""
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
    edges = tuple(edges)
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    in_adj: dict[str, list[str]] = {n: [] for n in nodes} if directed else {}
    for u, v in edges:
        adj[u].append(v)
        if directed:
            in_adj[v].append(u)
        else:
            adj[v].append(u)
    return GraphView(
        directed=directed,
        nodes=nodes,
        adjacency={n: tuple(ns) for n, ns in adj.items()},
        in_adjacency={n: tuple(ns) for n, ns in in_adj.items()},
        edges=edges,
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
#   H directed|undirected [T]  (header, required first non-comment line;
#                              T, when given, is the horizon)
#   N <node-id> <time>         declares a node
#   E <u> <v>                  declares an edge (time = max endpoint time)
# Lines starting with '#' are ignored.

# Without a horizon in the header, the node times may span at most this
# many steps per N record.
_SPAN_PER_NODE = 100


def dumps_edge_list(seq: GraphSequence) -> str:
    """The edge-list text of `seq`, its horizon in the header.

    Every id loads back as a `str`, so each node id must be a `str` of one
    whitespace-free token; a batch's nodes load back sorted.  A time-0
    batch must declare a node: an empty one has no record (the loader
    starts at 0 only for a time-0 node).
    """
    mode = "directed" if seq.directed else "undirected"
    lines = [f"H {mode} {seq.horizon}"]
    if seq.start_time == 0 and not seq.batches[0].nodes:
        raise ValueError("an empty time-0 batch has no record")
    for batch in seq.batches:
        for n in batch.nodes:
            if not isinstance(n, str):
                raise ValueError(f"node id {n!r} is not a str")
            if n.split() != [n]:
                raise ValueError(f"node id {n!r} is empty or holds whitespace")
            lines.append(f"N {n} {batch.time}")
        for u, v in batch.edges:
            lines.append(f"E {u} {v}")
    return "\n".join(lines) + "\n"


def _node_line(text: str, name: str) -> int:
    """The number of the line that declares node `name`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "N" and parts[1] == name:
            return lineno
    raise KeyError(name)


def loads_edge_list(text: str) -> GraphSequence:
    """Parse the edge-list format into a sequence.

    With a horizon T in the header (``H undirected 11``), node times are the
    steps themselves: each lies in [0, T], the sequence starts at 0 if a
    node declares time 0 and at 1 otherwise, and runs to T, so steps in
    which nothing arrives, trailing ones included, are kept.

    Without one, raw times may be arbitrary integers (e.g. years): a 0 or 1
    start is kept as-is and any other start is shifted to 1, gap years
    become empty batches, and the sequence ends at the latest time.  The
    times may then span at most 100 steps per N record, so a parse never
    builds more batches than its text justifies; a wider span is an error
    that names the line of the latest time.

    The one header must precede every record.
    """
    directed = None
    horizon = None
    node_time: dict[str, int] = {}
    raw_edges: list[tuple[str, str]] = []
    add_edge = raw_edges.append
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        # The common records first: an edge or a node after the header.
        # Only an error message needs the stripped line.
        if len(parts) == 3 and directed is not None:
            tag, first, second = parts
            if tag == "E":
                add_edge((first, second))
                continue
            if tag == "N":
                try:
                    t = int(second)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad node time {raw.strip()!r}"
                    ) from None
                if first in node_time:
                    raise DuplicateNodeError(f"line {lineno}: node {first!r} re-declared")
                if horizon is not None and not 0 <= t <= horizon:
                    raise TimeOutOfRangeError(
                        f"line {lineno}: node time {t} outside [0, {horizon}]"
                    )
                node_time[first] = t
                continue
        if not parts or parts[0][0] == "#":
            continue
        tag = parts[0]
        if tag == "H":
            if directed is not None:
                raise ValueError(f"line {lineno}: second header {raw.strip()!r}")
            if len(parts) not in (2, 3) or parts[1] not in ("directed", "undirected"):
                raise ValueError(f"line {lineno}: bad header {raw.strip()!r}")
            if len(parts) == 3:
                if not parts[2].isdecimal():
                    raise ValueError(f"line {lineno}: bad header {raw.strip()!r}")
                horizon = int(parts[2])
            directed = parts[1] == "directed"
        elif directed is None:
            raise ValueError(f"line {lineno}: header line must precede records")
        elif tag in ("N", "E"):
            kind = "node" if tag == "N" else "edge"
            raise ValueError(f"line {lineno}: bad {kind} record {raw.strip()!r}")
        else:
            raise ValueError(f"line {lineno}: unknown record tag {tag!r}")
    if directed is None:
        raise ValueError("missing header line")

    if horizon is not None:
        t_min = 0 if 0 in node_time.values() else 1
        t_max = horizon
    elif not node_time:
        return GraphSequence.empty(directed)
    else:
        t_min = min(node_time.values())
        t_max = max(node_time.values())
        span = t_max - t_min + 1
        if span > _SPAN_PER_NODE * len(node_time):
            latest = max(node_time, key=node_time.get)
            raise TimeOutOfRangeError(
                f"line {_node_line(text, latest)}: node time {t_max} makes the "
                f"times span {span} steps from time {t_min}; without a horizon "
                f"in the header, {len(node_time)} node records allow a span of "
                f"at most {_SPAN_PER_NODE * len(node_time)}"
            )
    origin = t_min if t_min in (0, 1) else 1
    # Nodes and edges bucketed by raw time, at index t - t_min.
    nodes_at: list[list[str]] = [[] for _ in range(t_max - t_min + 1)]
    edges_at: list[list[tuple[str, str]]] = [[] for _ in nodes_at]
    for name, t in node_time.items():
        nodes_at[t - t_min].append(name)
    time_of = node_time.get
    for e in raw_edges:
        u, v = e
        t_u = time_of(u)
        t_v = time_of(v)
        if t_u is None or t_v is None:
            missing = u if t_u is None else v
            raise DanglingEdgeError(f"edge endpoint {missing!r} never declared")
        # An edge arrives with the later of its endpoints.
        edges_at[(t_u if t_u > t_v else t_v) - t_min].append(e)

    return build_sequence(
        directed,
        (
            (origin + i, sorted(nodes), edges)
            for i, (nodes, edges) in enumerate(zip(nodes_at, edges_at))
        ),
    )
