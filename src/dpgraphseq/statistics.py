"""Exact evaluation of the released graph statistics.

Scalar statistics are exact integer counts; no floating point enters until
noise is added by a mechanism.  For directed graphs, threshold counts and
histograms refer to out-degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Union

from .errors import PatternDirectionMismatchError, UnsupportedQueryError
from .graph_core import GraphView

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


def sequence_histogram_distance(a: list[Histogram], b: list[Histogram]) -> int:
    """Generalized L1 distance: per-step histogram distances, summed."""
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    return sum(histogram_distance(x, y) for x, y in zip(a, b))


def count_subgraph(g: GraphView, pattern: str, k: Optional[int] = None) -> int:
    """Exact count of unordered copies of a fixed pattern.

    A k-star copy is a pair (center, size-k subset of the center's
    neighborhood); for undirected graphs and k=1 this counts every edge
    twice, once per choice of center.
    """
    allowed = DIRECTED_PATTERNS if g.directed else UNDIRECTED_PATTERNS
    if pattern not in allowed:
        raise PatternDirectionMismatchError(
            f"pattern {pattern!r} not valid for a "
            f"{'directed' if g.directed else 'undirected'} graph"
        )
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
