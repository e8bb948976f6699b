"""Exact graph statistics: one incremental engine.

Releases read their exact values from `exact_values(query, seq)`, the one
entry point of the incremental engine.  It moves f(G) only by what each new
edge (u, v) adds, read from the state just before the edge joins:

    edge          +1
    triangle      |N(u) & N(v)|
    triangle_i    |out(v) & in(u)|                      (3-cycles u->v->w->u)
    triangle_ii   |out(u) & out(v)| + |in(u) & in(v)| + |out(u) & in(v)|
                                       (u->v as source->middle, middle->sink,
                                        source->sink of a transitive triangle)
    k_star        C(d(u), k-1) + C(d(v), k-1), as C(d+1, k) - C(d, k) = C(d, k-1)
    out_k_star    C(out-degree of u, k-1)
    in_k_star     C(in-degree of v, k-1)
    high_degree   +1 for each endpoint whose (out-)degree reaches tau
    histogram     a new node enters bin 0; each edge moves its endpoint(s)
                  (the tail, if directed) up one bin

Each copy of a pattern is counted once, when the last of its edges
arrives, so the running values are the exact counts, and the difference
sequence f(G_t) - f(G_{t-1}) depends only on batch t.

Every degree statistic is f = sum over nodes of g(degree).  `_degree_table`
is the one definition of g, read by the sensitivity rule, the oracle's sweep
and this engine, which counts a histogram's bins directly.  The degree engine
reads a `DegreeWalk` plus the batches' times and nodes: increments are g's
steps g(d + 1) - g(d) at the walk's pre-edge degrees d, and the table stops
at the walk's largest counter.  `exact_values` hands it the sequence's cached
walk, which the bound check and parameter derivation read too.
`admitted_values` hands it a projection's admission walk over the parent's
batches, which have the projected sequence's times and nodes, so a degree arm
builds no sequence.  The triangle family needs neighbour sets, not just
degrees, and keeps its own walk over per-node sets, of the kept edges for a
projection.

`evaluate(query, g)` is the engine at one graph, such as a snapshot (a
prefix of a sequence): g read as a single step in which every node
arrives.  The reference the engine is tested against is not in the
package: the tests enumerate every pattern copy and recount every degree
naively (`tests/bruteforce.py`).

Scalar statistics are exact integer counts; no floating point enters until
noise is added by a mechanism.  For directed graphs, threshold counts and
histograms refer to out-degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add, sub
from typing import Optional, Union

from .errors import PatternDirectionMismatchError
from .graph_core import (
    ArrivalBatch,
    DegreeWalk,
    Edge,
    GraphSequence,
    _check_int,
    _sequence,
    admitted_sequence,
)

UNDIRECTED_PATTERNS = ("edge", "triangle", "k_star")
DIRECTED_PATTERNS = ("edge", "triangle_i", "triangle_ii", "out_k_star", "in_k_star")

# Histograms are sparse maps degree -> node count; absent keys read as zero.
Histogram = dict[int, int]
StatValue = Union[int, Histogram]


@dataclass(frozen=True)
class StatisticQuery:
    """Which f(G) to release: threshold count, histogram, or subgraph count."""

    kind: str  # "high_degree" | "degree_histogram" | "subgraph"
    tau: Optional[int] = None
    pattern: Optional[str] = None
    k: Optional[int] = None

    def __post_init__(self):
        for name in ("tau", "k"):
            if getattr(self, name) is not None:
                _check_int(f"{type(self).__name__}: {name}", getattr(self, name))
        star = self.kind == "subgraph" and str(self.pattern).endswith("k_star")
        if self.kind == "high_degree":
            if self.tau is None or self.tau < 1:
                raise ValueError("high_degree needs a threshold tau >= 1")
        elif self.kind == "subgraph":
            if self.pattern not in UNDIRECTED_PATTERNS + DIRECTED_PATTERNS:
                raise ValueError(f"unknown subgraph pattern {self.pattern!r}")
            if star and (self.k is None or self.k < 1):
                raise ValueError("star patterns need k >= 1")
        elif self.kind != "degree_histogram":
            raise ValueError(f"unknown query kind {self.kind!r}")
        # A field the statistic does not read would tell equal statistics apart.
        reads = (self.kind == "high_degree", self.kind == "subgraph", star)
        for name, read in zip(("tau", "pattern", "k"), reads):
            if getattr(self, name) is not None and not read:
                raise ValueError(f"{self.label()} does not read {name}")

    @classmethod
    def high_degree(cls, tau: int) -> "StatisticQuery":
        return cls(kind="high_degree", tau=tau)

    @classmethod
    def degree_histogram(cls) -> "StatisticQuery":
        return cls(kind="degree_histogram")

    @classmethod
    def subgraph(cls, pattern: str, k: Optional[int] = None) -> "StatisticQuery":
        return cls(kind="subgraph", pattern=pattern, k=k)

    @property
    def is_scalar(self) -> bool:
        return self.kind != "degree_histogram"

    def label(self) -> str:
        if self.kind == "high_degree":
            return f"high_degree(tau={self.tau})"
        if self.kind == "degree_histogram":
            return "degree_histogram"
        if self.k is not None:
            return f"{self.pattern}(k={self.k})"
        return self.pattern


def _check_pattern(pattern: str, directed: bool) -> None:
    allowed = DIRECTED_PATTERNS if directed else UNDIRECTED_PATTERNS
    if pattern not in allowed:
        raise PatternDirectionMismatchError(
            f"pattern {pattern!r} not valid for a "
            f"{'directed' if directed else 'undirected'} graph"
        )


def evaluate(query: StatisticQuery, g: GraphSequence) -> StatValue:
    """f(g), the graph of all of g's batches: f(G_t) for ``snapshot(seq, t)``.

    g is read as one step in which every node arrives, so its value is the
    one `exact_values` yields for that step; a time-0 snapshot has one too.
    """
    step = ArrivalBatch(1, g.nodes, g.edges)
    return exact_values(query, _sequence(g.directed, (step,)))[0]


# --- incremental engine ---------------------------------------------------


def _degree_table(query: StatisticQuery, top: int) -> list[StatValue]:
    """g(d), d = 0..top, of a degree statistic f = sum of g(degree).

    g is [d >= tau] for a threshold count, C(d, k) for a star count and the
    one-bin map {d: 1} for the histogram.  The edge count is g(d) = d read
    on the tail side only, so that each edge counts once.
    """
    if query.kind == "degree_histogram":
        return [{d: 1} for d in range(top + 1)]
    if query.kind == "high_degree":
        return [int(d >= query.tau) for d in range(top + 1)]
    if query.pattern == "edge":
        return list(range(top + 1))
    return [comb(d, query.k) for d in range(top + 1)]


def _moved_sides(
    query: StatisticQuery, directed: bool, walk: DegreeWalk
) -> list[tuple[int, ...]]:
    """Pre-edge degrees of the endpoints whose g moves when an edge joins."""
    if query.pattern == "in_k_star":
        return [walk.head]
    if query.pattern in ("edge", "out_k_star") or directed:
        return [walk.tail]
    # Undirected stars, threshold counts and histograms move at both ends.
    return [walk.tail, walk.head]


def _degree_values(
    query: StatisticQuery, seq: GraphSequence, walk: DegreeWalk
) -> list[StatValue]:
    """The degree engine over `walk`, a walk of `seq`'s batches."""
    sides = _moved_sides(query, seq.directed, walk)
    # No degree, on either side, ever exceeds the walk's largest counter.
    top = max(walk.largest)
    if query.kind == "degree_histogram":
        # A node enters bin 0 when it arrives, and each moved endpoint leaves
        # the bin of its pre-edge degree d for bin d + 1 <= top.
        count = [0] * (top + 1)
        hists: list[StatValue] = []
        for batch, start, end in zip(seq.batches, (0,) + walk.ends, walk.ends):
            count[0] += len(batch.nodes)
            for side in sides:
                for d in side[start:end]:
                    count[d] -= 1
                    count[d + 1] += 1
            if batch.time >= 1:
                hists.append({b: n for b, n in enumerate(count) if n})
        return hists
    g = _degree_table(query, top)
    steps = list(map(sub, g[1:], g))
    lifted = [map(steps.__getitem__, side) for side in sides]
    running = list(
        accumulate(lifted[0] if len(lifted) == 1 else map(add, *lifted), initial=0)
    )
    return [
        running[end] for batch, end in zip(seq.batches, walk.ends) if batch.time >= 1
    ]


def _triangle_values(pattern: str, seq: GraphSequence) -> list[StatValue]:
    # One neighbour set per node, made up front; an undirected graph keeps
    # one set per node, read as both out- and in-neighbours.
    out = {node: set() for node in seq._node_times}
    inn = {node: set() for node in out} if seq.directed else out
    value = 0
    values: list[StatValue] = []
    for batch in seq.batches:
        # Most edges close no copy; for each term `isdisjoint`, which builds
        # no set, says so before `&` builds one.
        if pattern == "triangle":
            for u, v in batch.edges:
                out_u, out_v = out[u], out[v]
                if not out_u.isdisjoint(out_v):
                    value += len(out_u & out_v)
                out_u.add(v)
                out_v.add(u)
        elif pattern == "triangle_i":
            for u, v in batch.edges:
                out_v, in_u = out[v], inn[u]
                if not out_v.isdisjoint(in_u):
                    value += len(out_v & in_u)
                out[u].add(v)
                inn[v].add(u)
        else:
            for u, v in batch.edges:
                out_u, out_v, in_u, in_v = out[u], out[v], inn[u], inn[v]
                if not out_u.isdisjoint(out_v):
                    value += len(out_u & out_v)
                if not in_u.isdisjoint(in_v):
                    value += len(in_u & in_v)
                if not out_u.isdisjoint(in_v):
                    value += len(out_u & in_v)
                out_u.add(v)
                in_v.add(u)
        if batch.time >= 1:
            values.append(value)
    return values


def exact_values(query: StatisticQuery, seq: GraphSequence) -> list[StatValue]:
    """f(G_t) after every batch of `seq` with time t >= 1.

    Degree statistics are read from the sequence's cached degree walk, by
    one table lookup g(d + 1) - g(d) per moved endpoint; the triangle family
    walks per-node neighbour sets.  Either way each batch costs time in its
    own size.  A time-0 batch (pre-existing nodes) is folded in without a
    value, as `snapshot` folds it into G_1.  Histograms are sparse maps
    degree -> node count that include degree-0 nodes.
    """
    if query.kind == "subgraph":
        _check_pattern(query.pattern, seq.directed)
        if query.pattern.startswith("triangle"):
            return _triangle_values(query.pattern, seq)
    return _degree_values(query, seq, seq.degree_walk)


def admitted_values(
    query: StatisticQuery, seq: GraphSequence, kept: list[Edge], walk: DegreeWalk
) -> list[StatValue]:
    """`exact_values` of the sequence a walk over `seq` admitted.

    ``(kept, walk)`` is an admission walk over `seq`, such as
    `projection.admission_walk`'s, so the value equals
    ``exact_values(query, admitted_sequence(seq, kept, walk))``.  The
    admitted sequence has `seq`'s batch times and nodes, so a degree
    statistic reads `seq`'s batches and the walk and builds no sequence;
    the triangle family walks the kept edges.
    """
    if query.kind == "subgraph":
        _check_pattern(query.pattern, seq.directed)
        if query.pattern.startswith("triangle"):
            return _triangle_values(query.pattern, admitted_sequence(seq, kept, walk))
    return _degree_values(query, seq, walk)
