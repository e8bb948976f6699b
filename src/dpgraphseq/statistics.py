"""Exact graph statistics: the incremental engine and the reference counters.

Releases read their exact values from `exact_values`, an engine that walks
the arrival batches once.  It keeps per-node neighbour sets and degrees and
moves f(G) only by what each new edge (u, v) adds, read from the state just
before the edge joins:

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

The snapshot counters (`count_high_degree`, `degree_histogram`,
`count_subgraph`, dispatched by `evaluate`) recount a whole `GraphView`.
They are the reference the engine is tested against, and what the oracle
evaluates.

Scalar statistics are exact integer counts; no floating point enters until
noise is added by a mechanism.  For directed graphs, threshold counts and
histograms refer to out-degree.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import PatternDirectionMismatchError, UnsupportedQueryError
from .graph_core import ArrivalBatch, GraphView

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
        if self.kind == "high_degree":
            if self.tau is None or self.tau < 1:
                raise ValueError("high_degree needs a threshold tau >= 1")
        elif self.kind == "degree_histogram":
            pass
        elif self.kind == "subgraph":
            if self.pattern is None:
                raise ValueError("subgraph query needs a pattern")
            if self.pattern.endswith("k_star") and (self.k is None or self.k < 1):
                raise ValueError("star patterns need k >= 1")
        else:
            raise ValueError(f"unknown query kind {self.kind!r}")

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


def _relevant_degree(g: GraphView, v: str) -> int:
    return g.out_degree(v) if g.directed else g.degree(v)


def count_high_degree(g: GraphView, tau: int) -> int:
    """Number of nodes with (out-)degree >= tau."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return sum(1 for v in g.nodes if _relevant_degree(g, v) >= tau)


def degree_histogram(g: GraphView) -> Histogram:
    """Sparse (out-)degree histogram; includes degree-0 nodes."""
    hist: Histogram = {}
    for v in g.nodes:
        d = _relevant_degree(g, v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def histogram_distance(a: Histogram, b: Histogram) -> int:
    """Coordinate-wise L1 distance; missing keys read as zero."""
    return sum(abs(a.get(d, 0) - b.get(d, 0)) for d in set(a) | set(b))


def _check_pattern(pattern: str, directed: bool) -> None:
    allowed = DIRECTED_PATTERNS if directed else UNDIRECTED_PATTERNS
    if pattern not in allowed:
        raise PatternDirectionMismatchError(
            f"pattern {pattern!r} not valid for a "
            f"{'directed' if directed else 'undirected'} graph"
        )


def count_subgraph(g: GraphView, pattern: str, k: Optional[int] = None) -> int:
    """Exact count of unordered copies of a fixed pattern.

    A k-star copy is a pair (center, size-k subset of the center's
    neighborhood); for undirected graphs and k=1 this counts every edge
    twice, once per choice of center.
    """
    _check_pattern(pattern, g.directed)
    if pattern == "edge":
        return g.num_edges
    if pattern == "k_star":
        return sum(comb(g.degree(v), k) for v in g.nodes)
    if pattern == "out_k_star":
        return sum(comb(g.out_degree(v), k) for v in g.nodes)
    if pattern == "in_k_star":
        return sum(comb(g.in_degree(v), k) for v in g.nodes)
    if pattern == "triangle":
        # Each triangle is seen once per edge; neighbor-set intersection.
        nbrs = {v: set(g.adjacency[v]) for v in g.nodes}
        total = sum(len(nbrs[u] & nbrs[v]) for u, v in g.edges)
        return total // 3
    if pattern == "triangle_i":
        # Directed 3-cycles; each cycle matches three rotations of its edges.
        out = {v: set(g.adjacency[v]) for v in g.nodes}
        total = 0
        for u, v in g.edges:
            total += sum(1 for w in out[v] if u in out[w])
        return total // 3
    if pattern == "triangle_ii":
        # Transitive triangles, counted once at the unique source node.
        out = {v: set(g.adjacency[v]) for v in g.nodes}
        total = 0
        for v1 in g.nodes:
            succ = g.adjacency[v1]
            for a in succ:
                total += sum(1 for b in succ if b != a and b in out[a])
        return total
    raise UnsupportedQueryError(pattern)


def evaluate(query: StatisticQuery, g: GraphView) -> StatValue:
    """Dispatch a query to the matching exact statistic."""
    if query.kind == "high_degree":
        return count_high_degree(g, query.tau)
    if query.kind == "degree_histogram":
        return degree_histogram(g)
    if query.kind == "subgraph":
        return count_subgraph(g, query.pattern, query.k)
    raise UnsupportedQueryError(query.kind)


# --- incremental engine ---------------------------------------------------


def _move_up(hist: Histogram, d: int) -> None:
    """One node's degree goes from d to d + 1; empty bins are dropped."""
    if hist[d] == 1:
        del hist[d]
    else:
        hist[d] -= 1
    hist[d + 1] = hist.get(d + 1, 0) + 1


def _edge_increment(
    query: StatisticQuery,
    directed: bool,
    out: dict[str, set[str]],
    inn: dict[str, set[str]],
    hist: Histogram,
) -> Callable[[str, str], int]:
    """The change of f when edge (u, v) joins; see the module docstring."""
    if query.kind == "high_degree":
        tau = query.tau
        if directed:
            return lambda u, v: len(out[u]) == tau - 1
        return lambda u, v: (len(out[u]) == tau - 1) + (len(out[v]) == tau - 1)
    if query.kind == "degree_histogram":
        def move(u, v):
            for x in (u,) if directed else (u, v):
                _move_up(hist, len(out[x]))
            return 0

        return move
    k = query.k
    return {
        "edge": lambda u, v: 1,
        "triangle": lambda u, v: len(out[u] & out[v]),
        "triangle_i": lambda u, v: len(out[v] & inn[u]),
        "triangle_ii": lambda u, v: (
            len(out[u] & out[v]) + len(inn[u] & inn[v]) + len(out[u] & inn[v])
        ),
        "k_star": lambda u, v: comb(len(out[u]), k - 1) + comb(len(out[v]), k - 1),
        "out_k_star": lambda u, v: comb(len(out[u]), k - 1),
        "in_k_star": lambda u, v: comb(len(inn[v]), k - 1),
    }[query.pattern]


def exact_values(
    query: StatisticQuery, directed: bool, batches: Iterable[ArrivalBatch]
) -> Iterator[StatValue]:
    """Yield f(G_t) after every batch with time t >= 1.

    Each batch costs time in its own size: one increment per edge (and, for
    histograms, one count of the arriving nodes).  A time-0 batch
    (pre-existing nodes) is folded in without a yield, as `snapshot` folds
    it into G_1.  Histograms are yielded as sparse copies, equal to
    `degree_histogram` of the snapshot.
    """
    if query.kind == "subgraph":
        _check_pattern(query.pattern, directed)
    histogram = query.kind == "degree_histogram"
    # Neighbour sets appear on a node's first edge; an undirected graph
    # keeps one set per node, read as both out- and in-neighbours.
    out: dict[str, set[str]] = defaultdict(set)
    inn: dict[str, set[str]] = defaultdict(set) if directed else out
    hist: Histogram = {}
    increment = _edge_increment(query, directed, out, inn, hist)
    value = 0
    for batch in batches:
        if histogram and batch.nodes:
            hist[0] = hist.get(0, 0) + len(batch.nodes)
        for u, v in batch.edges:
            value += increment(u, v)
            out[u].add(v)
            inn[v].add(u)
        if batch.time >= 1:
            yield dict(hist) if histogram else value
