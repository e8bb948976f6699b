"""Exact statistics vs an independent subset-enumeration counter."""
import pytest
from hypothesis import given, settings, strategies as st

from dpgraphseq import (
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    build_view,
    canonical_ordering,
    count_high_degree,
    count_subgraph,
    degree_histogram,
    evaluate,
    exact_values,
    project_sequence,
    snapshot,
)
from dpgraphseq.errors import PatternDirectionMismatchError
from dpgraphseq.projection import admit

from bruteforce import count_directed, count_undirected


def make_view(directed, n, edges):
    nodes = {f"n{i}": 1 for i in range(n)}
    return build_view(directed, nodes, [(f"n{u}", f"n{v}") for u, v in edges])


TRIANGLE_VIEW = make_view(False, 4, [(0, 1), (0, 2), (1, 2), (2, 3)])
DAG_VIEW = make_view(True, 4, [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)])


def test_high_degree_count():
    assert count_high_degree(TRIANGLE_VIEW, 1) == 4
    assert count_high_degree(TRIANGLE_VIEW, 2) == 3
    assert count_high_degree(TRIANGLE_VIEW, 3) == 1
    # Directed threshold counts look at out-degree.
    assert count_high_degree(DAG_VIEW, 1) == 3
    assert count_high_degree(DAG_VIEW, 2) == 2
    with pytest.raises(ValueError):
        count_high_degree(TRIANGLE_VIEW, 0)


def test_degree_histogram_includes_isolated_nodes():
    g = make_view(False, 3, [(0, 1)])
    assert degree_histogram(g) == {1: 2, 0: 1}
    assert degree_histogram(DAG_VIEW) == {2: 2, 1: 1, 0: 1}


def test_known_pattern_counts():
    assert count_subgraph(TRIANGLE_VIEW, "edge") == 4
    assert count_subgraph(TRIANGLE_VIEW, "triangle") == 1
    assert count_subgraph(TRIANGLE_VIEW, "k_star", 1) == 8
    assert count_subgraph(TRIANGLE_VIEW, "k_star", 2) == 5
    assert count_subgraph(DAG_VIEW, "edge") == 5
    assert count_subgraph(DAG_VIEW, "triangle_i") == 1
    assert count_subgraph(DAG_VIEW, "triangle_ii") == 1
    assert count_subgraph(DAG_VIEW, "out_k_star", 2) == 2
    assert count_subgraph(DAG_VIEW, "in_k_star", 2) == 1


def test_pattern_direction_mismatch():
    with pytest.raises(PatternDirectionMismatchError):
        count_subgraph(TRIANGLE_VIEW, "triangle_i")
    with pytest.raises(PatternDirectionMismatchError):
        count_subgraph(DAG_VIEW, "triangle")
    seq = build_sequence(True, [(1, ["a", "b"], [("a", "b")])])
    with pytest.raises(PatternDirectionMismatchError):
        exact_values(StatisticQuery.subgraph("triangle"), seq)


def test_evaluate_dispatch():
    assert evaluate(StatisticQuery.high_degree(2), TRIANGLE_VIEW) == 3
    assert evaluate(StatisticQuery.degree_histogram(), TRIANGLE_VIEW) == {
        2: 2,
        3: 1,
        1: 1,
    }
    assert evaluate(StatisticQuery.subgraph("triangle"), TRIANGLE_VIEW) == 1


def test_query_validation():
    with pytest.raises(ValueError):
        StatisticQuery.high_degree(0)
    with pytest.raises(ValueError):
        StatisticQuery.subgraph("k_star")  # k missing
    with pytest.raises(ValueError):
        StatisticQuery(kind="mystery")
    assert StatisticQuery.subgraph("k_star", 2).label() == "k_star(k=2)"
    assert StatisticQuery.high_degree(3).label() == "high_degree(tau=3)"
    assert not StatisticQuery.degree_histogram().is_scalar


@pytest.mark.parametrize(
    "fields",
    [
        dict(kind="subgraph", pattern="triangle", k=3),
        dict(kind="subgraph", pattern="edge", k=1),
        dict(kind="subgraph", pattern="edge", tau=2),
        dict(kind="high_degree", tau=2, pattern="edge", k=5),
        dict(kind="high_degree", tau=2, k=2),
        dict(kind="degree_histogram", tau=1),
        dict(kind="degree_histogram", pattern="k_star", k=2),
        dict(kind="subgraph", pattern="square"),
        dict(kind="subgraph", pattern="K_STAR", k=2),
    ],
)
def test_query_rejects_fields_its_kind_does_not_read(fields):
    # A query equal in statistic must be equal as a value: no stray field
    # may tell two of them apart or select another statistic's formula.
    with pytest.raises(ValueError):
        StatisticQuery(**fields)


# --- randomized agreement with exhaustive enumeration ---------------------

def _und_edges(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))


def _dir_edges(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), _und_edges(n))))
def test_undirected_counts_match_enumeration(case):
    n, edges = case
    g = make_view(False, n, edges)
    nodes = list(g.nodes)
    named = list(g.edges)
    assert count_subgraph(g, "edge") == count_undirected("edge", nodes, named)
    assert count_subgraph(g, "triangle") == count_undirected(
        "triangle", nodes, named
    )
    for k in (1, 2, 3):
        assert count_subgraph(g, "k_star", k) == count_undirected(
            "k_star", nodes, named, k
        )
    # Histogram agrees with a per-node recount.
    hist = degree_histogram(g)
    for v in nodes:
        assert hist[g.degree(v)] >= 1
    assert sum(hist.values()) == n
    assert sum(d * c for d, c in hist.items()) == 2 * len(named)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), _dir_edges(n))))
def test_directed_counts_match_enumeration(case):
    n, edges = case
    g = make_view(True, n, edges)
    nodes = list(g.nodes)
    named = list(g.edges)
    for pattern in ("edge", "triangle_i", "triangle_ii"):
        assert count_subgraph(g, pattern) == count_directed(pattern, nodes, named)
    for k in (1, 2, 3):
        assert count_subgraph(g, "out_k_star", k) == count_directed(
            "out_k_star", nodes, named, k
        )
        assert count_subgraph(g, "in_k_star", k) == count_directed(
            "in_k_star", nodes, named, k
        )
    hist = degree_histogram(g)
    assert sum(hist.values()) == n
    assert sum(d * c for d, c in hist.items()) == len(named)


# --- the incremental engine against snapshot-by-snapshot evaluation -------


def _all_queries(directed):
    queries = [StatisticQuery.high_degree(tau) for tau in (1, 2)]
    queries.append(StatisticQuery.degree_histogram())
    if directed:
        queries += [
            StatisticQuery.subgraph(p) for p in ("edge", "triangle_i", "triangle_ii")
        ]
        stars = ("out_k_star", "in_k_star")
    else:
        queries += [StatisticQuery.subgraph(p) for p in ("edge", "triangle")]
        stars = ("k_star",)
    queries += [StatisticQuery.subgraph(p, k) for p in stars for k in (1, 2, 3)]
    return queries


@st.composite
def raw_batches(draw):
    """(directed, batches) that `build_sequence` accepts, edges as sent.

    Either mode, starting at time 0 or 1; an undirected edge may be sent in
    either orientation.
    """
    directed = draw(st.booleans())
    start = draw(st.sampled_from((0, 1)))
    names = []
    batches = []
    for t in range(start, start + draw(st.integers(1, 5))):
        new = [f"v{len(names) + i}" for i in range(draw(st.integers(0, 3)))]
        pool = names + new
        # Every edge touches this batch; either orientation may be sent.
        pairs = [(a, b) for a in pool for b in pool if a != b and (a in new or b in new)]
        edges = []
        if pairs:
            edges = draw(
                st.lists(
                    st.sampled_from(pairs),
                    max_size=8,
                    unique_by=(lambda e: e) if directed else frozenset,
                )
            )
        names += new
        batches.append((t, new, edges))
    return directed, batches


def sequences():
    """Random valid sequences, either mode, starting at time 0 or 1."""
    return raw_batches().map(lambda drawn: build_sequence(*drawn))


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_engine_matches_snapshot_evaluation(seq):
    for query in _all_queries(seq.directed):
        engine = exact_values(query, seq)
        reference = [
            evaluate(query, snapshot(seq, t)) for t in range(1, seq.horizon + 1)
        ]
        assert engine == reference, query.label()


@settings(max_examples=100, deadline=None)
@given(sequences(), st.integers(1, 3), st.integers(1, 3))
def test_engine_matches_projected_views(seq, d_in, d_out):
    th = (
        ProjectionThresholds.directed(d_in, d_out)
        if seq.directed
        else ProjectionThresholds.undirected(d_out)
    )
    ordering = canonical_ordering(seq)
    projected = admit(seq, ordering, th)
    views = project_sequence(seq, ordering, th)
    for query in _all_queries(seq.directed):
        engine = exact_values(query, projected)
        assert engine == [evaluate(query, view) for view in views], query.label()
