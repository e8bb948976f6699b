"""Online graph-sequence data model.

A sequence grows by per-time-step arrival batches: a set of new nodes plus
the edges that arrive alongside them.  Every edge must touch at least one
node of its own batch, so an edge's time equals the maximum of its endpoint
time stamps and snapshots are reconstructible for every step.  Every
`GraphSequence` holds to this: its constructor rebuilds its batches through
`build_sequence`, and what the package derives from checked batches skips
that through `_sequence`.

Sequences are built from batches in one pass (`build_sequence`) or one
batch at a time (`ingest_step`), both through one validator, `_extend`: per
edge two node-time reads, one combined test and the canonical form written
inline, and one set per batch for duplicates.  The running node-time map
moves from parent to child instead of being copied, so a step costs work
in its batch's size plus one C-level copy of the batch tuple.
`loads_edge_list` splits each line once, takes the common records (edges
and nodes after the header) on its first branch, and builds the sequence
in its one pass over the edges: an edge goes, in canonical form, to the
batch of its later endpoint, which it touches by construction.  A batch
that fails these cheap tests goes to one ordered diagnostic,
`_reject_batch`, which walks it edge by edge and raises its first fault,
so both paths name the same error.

One walk over a sequence records every edge's endpoint degrees just before
it joins (`DegreeWalk`), and each side's largest counter as it admits the
edge, so no reader rescans every node for a maximum.  It admits the edges
of each step, in a given order, while both endpoint counters sit below a
pair of caps.  With no caps, in arrival order, it is the sequence's own
`degree_walk`, computed once and cached like the node-time map; the bound
check, parameter derivation and the degree statistics of
`statistics.exact_values` all read it.  At a projection's thresholds, over
its edge ordering, it is an admission walk: a projection arm of a degree
statistic reads that walk alone, and `admitted_sequence` builds the kept
edges into a sequence with the walk cached.  The triangle family keeps its
own neighbour-set walk.

The graph at step t is the first batches of the sequence, so `snapshot`
returns that prefix, a `GraphSequence` itself: the package has one graph
type.  The tests recount a snapshot's degrees over its edges to check the
walk and the bound check.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NoReturn, Optional

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
# Iterable, but never a batch's collection of nodes or of edges.
_TEXT = (str, bytes)


def canonical_edge(u: str, v: str, directed: bool) -> Edge:
    """Canonical storage form: unordered pairs become (min, max)."""
    if directed or u <= v:
        return (u, v)
    return (v, u)


def _check_int(name: str, value) -> None:
    """Refuse a field that is not an int, bools and numpy ints included."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


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
        for field in ("d", "d_in", "d_out"):
            cap = getattr(self, field)
            if cap is not None:
                _check_int(f"{name}: {field}", cap)
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
    1..horizon.  Every sequence is one `build_sequence` stores: the
    constructor rebuilds its batches through it, raising its error, or
    `ValueError` if it would store them differently.  Sequences derived from
    checked batches come from `_sequence`, which skips that check.

    The node-time map is a private cache, `_node_times`, that `ingest_step`
    moves to the child; the parent rebuilds it from its batches if it is
    asked again, say for a sibling ingest.  `node_time` hands out a copy,
    so no caller holds a map that a later ingest changes.
    """

    directed: bool
    batches: tuple[ArrivalBatch, ...] = ()

    def __post_init__(self):
        if self.batches:
            built = build_sequence(
                self.directed, [(b.time, b.nodes, b.edges) for b in self.batches]
            )
            if built != self:
                raise ValueError("the builders would store these batches differently")
            self.__dict__["_node_times"] = built._node_times

    @classmethod
    def empty(cls, directed: bool = False) -> "GraphSequence":
        return cls(directed=directed)

    def __copy__(self) -> "GraphSequence":
        # Immutable, so itself: a shallow copy would share the node-time
        # map that `ingest_step` moves and extends.
        return self

    @property
    def start_time(self) -> Optional[int]:
        return self.batches[0].time if self.batches else None

    @property
    def horizon(self) -> int:
        return self.batches[-1].time if self.batches else 0

    @property
    def nodes(self) -> tuple[str, ...]:
        """Every node, in arrival order."""
        return tuple(n for batch in self.batches for n in batch.nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, in canonical form and arrival order."""
        return tuple(e for batch in self.batches for e in batch.edges)

    @property
    def num_nodes(self) -> int:
        return sum(len(batch.nodes) for batch in self.batches)

    @property
    def num_edges(self) -> int:
        return sum(len(batch.edges) for batch in self.batches)

    @property
    def node_time(self) -> dict[str, int]:
        """Every node's arrival time, in arrival order: a copy of its own."""
        return dict(self._node_times)

    @cached_property
    def _node_times(self) -> dict[str, int]:
        """The running node-time map, in arrival order; never handed out.

        Not a field, so it takes no part in equality.  `_extend` moves it to
        the child it builds, and this sequence rebuilds it from its batches
        if it is asked again.
        """
        times: dict[str, int] = {}
        for batch in self.batches:
            times.update(dict.fromkeys(batch.nodes, batch.time))
        return times

    @cached_property
    def _zero_counts(self) -> dict[str, int]:
        """Every node's counter at zero, in arrival order; `_walk` copies it.

        Cached like `_node_times`: not a field, and a sequence extended by
        `ingest_step` builds its own.
        """
        return dict.fromkeys(self._node_times, 0)

    @cached_property
    def degree_walk(self) -> DegreeWalk:
        """The sequence's uncapped walk in arrival order, computed on first use.

        Like `_node_times` the cache is not a field: it takes no part in
        equality, and a sequence extended by `ingest_step` computes its own.
        """
        # No counter reaches the number of edges, so that cap admits all.
        edges = self.num_edges
        return _walk(self, [batch.edges for batch in self.batches], edges, edges)[1]


def _sequence(directed: bool, batches: tuple, **caches) -> GraphSequence:
    """A sequence of already checked batches: no `__init__`, `caches` seeded.

    The caches are not fields, so they take no part in equality.
    """
    seq = object.__new__(GraphSequence)
    seq.__dict__.update(directed=directed, batches=batches, **caches)
    return seq


@dataclass(frozen=True)
class DegreeWalk:
    """Endpoint degrees just before each edge joins, in arrival order.

    Edge i, counted through the batches in order, has `tail[i]`, the
    out-degree of its tail u, and `head[i]`, the in-degree of its head v,
    both read before it joins; an undirected degree is one counter, read as
    both sides.  Batch j holds edges ends[j-1] (0 for j = 0) to ends[j] - 1.
    `out` and `inn` are every node's final counters, zeros included, and the
    same map when undirected.  `largest` is (largest in-counter, largest
    out-counter), 0 for no edge; an undirected walk reports its one
    counter's maximum on both sides.

    Each degree statistic moves by an amount fixed by these pre-edge
    degrees, so the bound check, parameter derivation and the degree
    statistics all read this one walk.
    """

    tail: tuple[int, ...]
    head: tuple[int, ...]
    ends: tuple[int, ...]
    out: dict[str, int]
    inn: dict[str, int]
    largest: tuple[int, int]


def _walk(
    seq: GraphSequence, steps: Iterable[Iterable[Edge]], cap_in: int, cap_out: int
) -> tuple[list[Edge], DegreeWalk]:
    """Admit each step's edges in order while both endpoints sit below the caps.

    `steps` gives one edge order per batch of `seq`.  Returns the admitted
    edges, in one flat list, and their walk.
    """
    # Every node's counters start at zero, in arrival order: copies of the
    # sequence's zero map.  An undirected degree is one counter, read as both
    # the out- and in-side.
    zeros = seq._zero_counts
    out = zeros.copy()
    inn = zeros.copy() if seq.directed else out
    kept: list[Edge] = []
    tail: list[int] = []
    head: list[int] = []
    ends = []
    # Each side's largest counter, raised as an admitted edge lifts it.
    top_in = top_out = 0
    for edges in steps:
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
                if d_tail >= top_out:
                    top_out = d_tail + 1
                if d_head >= top_in:
                    top_in = d_head + 1
        ends.append(len(tail))
    if not seq.directed:
        # One counter: a node lifted as a tail and one lifted as a head
        # count alike.
        top_in = top_out = max(top_in, top_out)
    return kept, DegreeWalk(
        tuple(tail), tuple(head), tuple(ends), out, inn, (top_in, top_out)
    )


def admitted_sequence(
    seq: GraphSequence, kept: list[Edge], walk: DegreeWalk
) -> GraphSequence:
    """The kept edges of a `_walk` over `seq` as a sequence, `walk` cached.

    Each batch keeps its time and nodes and the edges admitted at its step.
    """
    batches = tuple(
        ArrivalBatch(batch.time, batch.nodes, tuple(kept[start:end]))
        for batch, start, end in zip(seq.batches, (0,) + walk.ends, walk.ends)
    )
    return _sequence(seq.directed, batches, degree_walk=walk)


def _reject_batch(
    times: dict[str, int], t: int, edges: tuple[Edge, ...], directed: bool
) -> NoReturn:
    """Raise a faulty batch's first fault: the one place edge faults are named.

    `times` holds every node declared up to time `t`, the batch's own
    included.  Edge by edge, in order: a self-loop, an undeclared tail, an
    undeclared head, no endpoint in the batch, a repeat of an earlier edge.
    Callers run it once a cheaper test has found a fault, so it raises.
    """
    seen = set()
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop on {u!r}")
        t_u = times.get(u)
        if t_u is None:
            raise DanglingEdgeError(f"edge endpoint {u!r} never declared")
        t_v = times.get(v)
        if t_v is None:
            raise DanglingEdgeError(f"edge endpoint {v!r} never declared")
        if t_u != t and t_v != t:
            # Both endpoints predate this batch, so the edge should have
            # arrived earlier.
            raise EdgeToFutureNodeError(
                f"edge ({u!r}, {v!r}) has no endpoint in the current batch"
            )
        e = canonical_edge(u, v, directed)
        if e in seen:
            raise DuplicateEdgeError(f"edge {e!r} already present")
        seen.add(e)
    raise AssertionError(f"the batch at time {t} holds no edge fault")


def _extend(
    seq: GraphSequence,
    batches: Iterable[tuple[int, Iterable[str], Iterable[tuple[str, str]]]],
) -> GraphSequence:
    """Validate (t, nodes, edges) triples and append them as arrival batches.

    One pass extends one running node-time map, the parent's own, moved to
    the child rather than copied, so a batch costs work in its own size.
    Each batch is read once into tuples; per edge, two node-time
    reads and one test (no self-loop, both endpoints declared, the later at
    the batch's time), and the canonical form written inline.  Duplicates
    are found by set size: an edge must touch a node of its batch, and such
    a node has no earlier edges, so only duplicates within the batch are
    possible.  A batch that fails goes to `_reject_batch` for its error.
    """
    # The parent's map moves to the child: the parent drops it and rebuilds
    # it from its batches if it is asked again.  A failed batch needs no
    # undo, since the half-extended map is dropped with the rest.
    times = seq._node_times
    del seq.__dict__["_node_times"]
    time_of = times.get
    directed = seq.directed
    horizon = seq.horizon if seq.batches else None
    appended = []
    for t, nodes, edges in batches:
        _check_int("batch time", t)
        if horizon is not None:
            if t != horizon + 1:
                raise TimeOutOfRangeError(f"expected batch time {horizon + 1}, got {t}")
        elif t not in (0, 1):
            raise TimeOutOfRangeError(f"first batch time must be 0 or 1, got {t}")
        horizon = t
        # A bare str or bytes would be read as a run of one-character ids.
        if isinstance(nodes, _TEXT) or isinstance(edges, _TEXT):
            field, value = (
                ("nodes", nodes) if isinstance(nodes, _TEXT) else ("edges", edges)
            )
            raise TypeError(
                f"batch at time {t}: {field} must be a collection, "
                f"not a bare {type(value).__name__}"
            )

        new_nodes = tuple(nodes)
        for n in new_nodes:
            if n in times:
                raise DuplicateNodeError(f"node {n!r} already declared")
            times[n] = t

        edges = tuple(edges)
        # Declared times are at most t; an undeclared endpoint reads later.
        late = t + 1
        canonical = []
        keep = canonical.append
        try:
            for u, v in edges:
                t_u = time_of(u, late)
                t_v = time_of(v, late)
                if u == v or (t_u if t_u > t_v else t_v) != t:
                    break
                keep((u, v) if directed or u <= v else (v, u))
        except (TypeError, ValueError):
            # An item that is no pair of hashable, comparable ids: the
            # diagnostic below raises its error, after any fault before it.
            pass
        if len(canonical) != len(edges) or len(set(canonical)) != len(edges):
            _reject_batch(times, t, edges, directed)
        appended.append(ArrivalBatch(t, new_nodes, tuple(canonical)))

    return _sequence(directed, seq.batches + tuple(appended), _node_times=times)


def ingest_step(
    seq: GraphSequence,
    t: int,
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str]] = (),
) -> GraphSequence:
    """Append one arrival batch, returning the extended sequence.

    The batch time must be the previous horizon plus one (an empty sequence
    accepts t of 0 or 1).  Edge order within the batch is preserved; the
    sequence's degree walk reads the edges in that order.  Any iterables
    will do, one-shot ones included: the batch is read once.  A bare `str`
    or `bytes` is refused with `TypeError`, not split into characters.

    The checks read only this batch and the parent's node times (see
    `_extend`): two node-time reads and one test per edge, and one set of
    the batch's edges, so they do work in the batch's size; a faulty batch
    is walked again to name its first fault.  The parent's node-time map
    moves to the child and is extended in place, not copied; the parent
    rebuilds its own, in O(nodes), only if it is asked again.  What still
    grows with the sequence is the C-level copy of the batch tuple, about
    1.2 us at 300 batches and 15 us at 4,000 on a 2-vCPU Xeon VM.  The
    child computes its own degree walk; it does not inherit the parent's.
    """
    return _extend(seq, [(t, nodes, edges)])


def build_sequence(
    directed: bool,
    batches: Iterable[tuple[int, Iterable[str], Iterable[tuple[str, str]]]],
) -> GraphSequence:
    """Convenience constructor from (t, nodes, edges) triples."""
    return _extend(GraphSequence.empty(directed), batches)


def snapshot(seq: GraphSequence, t: int) -> GraphSequence:
    """G_t: the prefix of `seq` formed by its batches up to and including t."""
    start = seq.start_time
    if start is None or not start <= t <= seq.horizon:
        raise TimeOutOfRangeError(f"time {t} outside [{start}, {seq.horizon}]")
    return _sequence(seq.directed, seq.batches[: t - start + 1])


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
    the largest counters of the sequence's degree walk decide whether the
    bound holds, and only a violated bound scans the walk for its first
    crossing.
    """
    if bounds.is_directed != seq.directed:
        raise ModeMismatchError("bounds mode does not match sequence directedness")
    cap_in, cap_out = bounds.caps
    walk = seq.degree_walk
    largest_in, largest_out = walk.largest
    if largest_in <= cap_in and largest_out <= cap_out:
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
    whitespace-free token; a batch's nodes load back in order.  A time-0
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

    The one header must precede every record.  Each batch lists its nodes
    and edges in the order of their records, and `node_time` lists nodes in
    arrival order.  Faults within a record are reported line by line, then
    undeclared endpoints in record order; a batch with a self-loop or a
    duplicate edge raises what `build_sequence` raises on it, through the
    same `_reject_batch`.
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
        # No steps: an edge still names its undeclared endpoint below.
        t_min, t_max = 1, 0
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
    # Nodes and edges bucketed by raw time, at index t - t_min, each in
    # record order.  An edge arrives with the later of its endpoints, so it
    # touches its batch by construction; it is stored in canonical form.
    nodes_at: list[list[str]] = [[] for _ in range(t_max - t_min + 1)]
    edges_at: list[list[tuple[str, str]]] = [[] for _ in nodes_at]
    for name, t in node_time.items():
        nodes_at[t - t_min].append(name)
    # Indices of the buckets that hold a self-loop.
    looped = set()
    time_of = node_time.get
    for e in raw_edges:
        u, v = e
        t_u = time_of(u)
        t_v = time_of(v)
        if t_u is None or t_v is None:
            missing = u if t_u is None else v
            raise DanglingEdgeError(f"edge endpoint {missing!r} never declared")
        i = (t_u if t_u > t_v else t_v) - t_min
        if u == v:
            looped.add(i)
        elif not directed and v < u:
            e = (v, u)
        edges_at[i].append(e)

    # The batches in time order, node times seeded in arrival order as
    # `_extend` leaves them; a bucket with a self-loop or a duplicate edge
    # names its first fault, and the earliest such bucket wins.
    times: dict[str, int] = {}
    batches = []
    for i, (nodes, edges) in enumerate(zip(nodes_at, edges_at)):
        t = origin + i
        times.update(dict.fromkeys(nodes, t))
        edges = tuple(edges)
        if i in looped or len(set(edges)) != len(edges):
            _reject_batch(times, t, edges, directed)
        batches.append(ArrivalBatch(t, tuple(nodes), edges))
    return _sequence(directed, tuple(batches), _node_times=times)
