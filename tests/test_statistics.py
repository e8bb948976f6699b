"""Exact statistics vs an independent subset-enumeration counter."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpgraphseq import (
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    canonical_ordering,
    evaluate,
    exact_values,
    project_sequence,
    snapshot,
)
from dpgraphseq.errors import PatternDirectionMismatchError

from bruteforce import naive_series, naive_value


def make_view(directed, n, edges):
    """The graph on n0..n{n-1} and `edges`, as a one-step sequence."""
    nodes = [f"n{i}" for i in range(n)]
    return build_sequence(directed, [(1, nodes, [(f"n{u}", f"n{v}") for u, v in edges])])


TRIANGLE_VIEW = make_view(False, 4, [(0, 1), (0, 2), (1, 2), (2, 3)])
DAG_VIEW = make_view(True, 4, [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)])
HIST = StatisticQuery.degree_histogram()
Q = StatisticQuery.subgraph


def test_high_degree_count():
    def count(g, tau):
        return evaluate(StatisticQuery.high_degree(tau), g)

    assert count(TRIANGLE_VIEW, 1) == 4
    assert count(TRIANGLE_VIEW, 2) == 3
    assert count(TRIANGLE_VIEW, 3) == 1
    # Directed threshold counts look at out-degree.
    assert count(DAG_VIEW, 1) == 3
    assert count(DAG_VIEW, 2) == 2
    with pytest.raises(ValueError):
        StatisticQuery.high_degree(0)


def test_degree_histogram_includes_isolated_nodes():
    g = make_view(False, 3, [(0, 1)])
    assert evaluate(HIST, g) == {1: 2, 0: 1}
    assert evaluate(HIST, DAG_VIEW) == {2: 2, 1: 1, 0: 1}


def test_known_pattern_counts():
    assert evaluate(Q("edge"), TRIANGLE_VIEW) == 4
    assert evaluate(Q("triangle"), TRIANGLE_VIEW) == 1
    assert evaluate(Q("k_star", 1), TRIANGLE_VIEW) == 8
    assert evaluate(Q("k_star", 2), TRIANGLE_VIEW) == 5
    assert evaluate(Q("edge"), DAG_VIEW) == 5
    assert evaluate(Q("triangle_i"), DAG_VIEW) == 1
    assert evaluate(Q("triangle_ii"), DAG_VIEW) == 1
    assert evaluate(Q("out_k_star", 2), DAG_VIEW) == 2
    assert evaluate(Q("in_k_star", 2), DAG_VIEW) == 1


def test_pattern_direction_mismatch():
    with pytest.raises(PatternDirectionMismatchError):
        evaluate(Q("triangle_i"), TRIANGLE_VIEW)
    with pytest.raises(PatternDirectionMismatchError):
        evaluate(Q("triangle"), DAG_VIEW)
    seq = build_sequence(True, [(1, ["a", "b"], [("a", "b")])])
    with pytest.raises(PatternDirectionMismatchError):
        exact_values(Q("triangle"), seq)


def test_evaluate_dispatch():
    assert evaluate(StatisticQuery.high_degree(2), TRIANGLE_VIEW) == 3
    assert evaluate(HIST, TRIANGLE_VIEW) == {2: 2, 3: 1, 1: 1}
    assert evaluate(Q("triangle"), TRIANGLE_VIEW) == 1


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


@pytest.mark.parametrize("value", [2.0, 2.5, True, np.int64(2), "2"])
def test_query_integer_fields_refuse_other_types(value):
    # A float k reached math.comb, and a float or bool tau got a label.
    with pytest.raises(TypeError, match="^StatisticQuery: tau must be an int"):
        StatisticQuery.high_degree(value)
    with pytest.raises(TypeError, match="^StatisticQuery: k must be an int"):
        StatisticQuery.subgraph("k_star", value)


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


def _matches_enumeration(directed, n, edges):
    g = make_view(directed, n, edges)
    for query in _all_queries(directed):
        want = naive_value(query, directed, g.nodes, g.edges)
        assert evaluate(query, g) == want, query.label()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), _und_edges(n))))
def test_undirected_counts_match_enumeration(case):
    _matches_enumeration(False, *case)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), _dir_edges(n))))
def test_directed_counts_match_enumeration(case):
    _matches_enumeration(True, *case)


# --- the incremental engine against enumeration at every snapshot --------


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
        assert exact_values(query, seq) == naive_series(query, seq), query.label()


@settings(max_examples=100, deadline=None)
@given(sequences())
def test_evaluate_at_each_snapshot_counts_its_graph(seq):
    # A time-0 snapshot (pre-existing nodes only) has a value too.
    for query in _all_queries(seq.directed):
        for t in range(seq.start_time, seq.horizon + 1):
            g = snapshot(seq, t)
            want = naive_value(query, seq.directed, g.nodes, g.edges)
            assert evaluate(query, g) == want, (query.label(), t)
    assert evaluate(HIST, build_sequence(seq.directed, [])) == {}


@settings(max_examples=100, deadline=None)
@given(sequences(), st.integers(1, 3), st.integers(1, 3))
def test_engine_matches_projected_views(seq, d_in, d_out):
    th = (
        ProjectionThresholds.directed(d_in, d_out)
        if seq.directed
        else ProjectionThresholds.undirected(d_out)
    )
    views = project_sequence(seq, canonical_ordering(seq), th)
    if seq.horizon == 0:
        # No release step, so no view, and no projected sequence to count.
        assert views == []
        return
    # The last view is the whole projected sequence.
    for query in _all_queries(seq.directed):
        engine = exact_values(query, views[-1])
        assert engine == [
            naive_value(query, view.directed, view.nodes, view.edges) for view in views
        ], query.label()


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_exact_values_never_decrease_over_time(seq):
    # Nodes and edges only arrive and degrees only rise, so every scalar
    # statistic, and every histogram tail sum over d >= b, is nondecreasing.
    for query in _all_queries(seq.directed):
        values = exact_values(query, seq)
        if query.is_scalar:
            series = [values]
        else:
            top = max((d for hist in values for d in hist), default=0)
            series = [
                [sum(c for d, c in hist.items() if d >= b) for hist in values]
                for b in range(top + 1)
            ]
        for s in series:
            assert all(a <= b for a, b in zip(s, s[1:])), (query.label(), s)


# --- the triangle family on hand-made arrival orders ----------------------

# A time-0 batch with an edge; e (undirected) and y (directed) arrive with
# no edge and get their first one steps later; x receives an edge before it
# sends one; t = 4 is an empty step.
LATE_EDGES = {
    False: [
        (0, ["a", "b", "c"], [("a", "b"), ("b", "c")]),
        (1, ["d", "e"], [("a", "d"), ("d", "b")]),
        (2, ["f"], [("f", "e"), ("a", "f"), ("f", "b")]),
        (3, ["g"], [("e", "g"), ("g", "f")]),
        (4, [], []),
        (5, ["h"], [("h", "c"), ("b", "h")]),
    ],
    True: [
        (0, ["a", "b"], [("a", "b")]),
        (1, ["x", "y"], [("a", "x")]),
        (2, ["z"], [("x", "z"), ("z", "a"), ("b", "z")]),
        (3, ["w"], [("y", "w"), ("w", "x"), ("a", "w"), ("w", "z")]),
        (4, [], []),
        (5, ["v"], [("v", "y"), ("x", "v"), ("w", "v")]),
    ],
}
TRIANGLES = {False: ("triangle",), True: ("triangle_i", "triangle_ii")}


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_triangle_engine_matches_enumeration_on_late_edges(directed):
    seq = build_sequence(directed, LATE_EDGES[directed])
    for pattern in TRIANGLES[directed]:
        values = exact_values(Q(pattern), seq)
        assert values == naive_series(Q(pattern), seq), pattern
        # The late edges close patterns of their own.
        assert len(values) == 5 and values[-1] > values[1], pattern


# Transitive triangles s->m, m->t, s->t whose last edge (a, b) closes the
# copy through one term of its increment alone: a->b as source->middle
# (out(a) & out(b)), as middle->sink (in(a) & in(b)), as source->sink
# (out(a) & in(b)).
TRANSITIVE_TERMS = {
    "out-out": [("a", "c"), ("b", "c"), ("a", "b")],
    "in-in": [("c", "a"), ("c", "b"), ("a", "b")],
    "out-in": [("a", "c"), ("c", "b"), ("a", "b")],
}


@pytest.mark.parametrize("edges", TRANSITIVE_TERMS.values(), ids=TRANSITIVE_TERMS)
def test_each_triangle_ii_term_alone_matches_enumeration(edges):
    # One step, and again with each node in a step of its own (c, a, b).
    one_step = build_sequence(True, [(1, ["a", "b", "c"], edges)])
    late = build_sequence(True, [
        (1, ["c"], []),
        (2, ["a"], [e for e in edges if "b" not in e]),
        (3, ["b"], [e for e in edges if "b" in e]),
    ])
    for seq in (one_step, late):
        values = exact_values(Q("triangle_ii"), seq)
        assert values == naive_series(Q("triangle_ii"), seq)
        assert values[-1] == 1


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_triangle_admitted_values_match_projected_views(directed, cap):
    # Triangle counts of a projected sequence are read off its last view,
    # whose node-time map is rebuilt from its batches.
    seq = build_sequence(directed, LATE_EDGES[directed])
    th = (ProjectionThresholds.directed(cap, cap) if directed
          else ProjectionThresholds.undirected(cap))
    views = project_sequence(seq, canonical_ordering(seq), th)
    for pattern in TRIANGLES[directed]:
        want = [naive_value(Q(pattern), directed, v.nodes, v.edges) for v in views]
        assert exact_values(Q(pattern), views[-1]) == want, pattern


@settings(max_examples=100, deadline=None)
@given(sequences(), st.integers(1, 3))
def test_triangle_admitted_values_match_enumeration(seq, cap):
    th = (ProjectionThresholds.directed(cap, cap) if seq.directed
          else ProjectionThresholds.undirected(cap))
    views = project_sequence(seq, canonical_ordering(seq), th)
    if seq.horizon == 0:
        assert views == []
        return
    for pattern in TRIANGLES[seq.directed]:
        want = [naive_value(Q(pattern), seq.directed, v.nodes, v.edges) for v in views]
        assert exact_values(Q(pattern), views[-1]) == want, pattern
