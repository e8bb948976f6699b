"""Brute-force sensitivity search: engine agreement and known exact values."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dpgraphseq import DegreeBounds, StatisticQuery, oracle
from dpgraphseq.errors import BudgetTooLargeError, UnsupportedQueryError
from dpgraphseq.oracle import oracle_diff_sensitivity

from bruteforce import capped_digraphs


def und_queries(d):
    qs = [StatisticQuery.high_degree(t) for t in range(1, d + 1)]
    qs.append(StatisticQuery.degree_histogram())
    qs.append(StatisticQuery.subgraph("edge"))
    qs.append(StatisticQuery.subgraph("triangle"))
    qs += [StatisticQuery.subgraph("k_star", k) for k in (1, 2)]
    return qs


def dir_queries(d_out):
    qs = [StatisticQuery.high_degree(t) for t in range(1, d_out + 1)]
    qs.append(StatisticQuery.degree_histogram())
    qs.append(StatisticQuery.subgraph("edge"))
    qs.append(StatisticQuery.subgraph("triangle_i"))
    qs.append(StatisticQuery.subgraph("triangle_ii"))
    qs += [StatisticQuery.subgraph("out_k_star", k) for k in (1, 2)]
    qs += [StatisticQuery.subgraph("in_k_star", k) for k in (1, 2)]
    return qs


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_max,t_max", [(3, 2), (4, 2), (3, 3), (3, 4)])
def test_engines_agree_undirected(d, n_max, t_max):
    bounds = DegreeBounds.undirected(d)
    for query in und_queries(d):
        naive = oracle_diff_sensitivity(query, bounds, n_max, t_max, method="naive")
        pruned = oracle_diff_sensitivity(query, bounds, n_max, t_max)
        assert naive == pruned, query.label()


# t_max=4 on an asymmetric bound covers in-stars read from the transpose.
@pytest.mark.parametrize(
    "d_in,d_out,t_max",
    [
        pytest.param(1, 1, 2, id="1-1"),
        pytest.param(1, 2, 2, id="1-2"),
        pytest.param(2, 1, 2, id="2-1"),
        pytest.param(2, 2, 2, id="2-2"),
        pytest.param(1, 1, 4, id="1-1-t4"),
        pytest.param(2, 1, 4, id="2-1-t4"),
    ],
)
def test_engines_agree_directed(d_in, d_out, t_max):
    bounds = DegreeBounds.directed(d_in, d_out)
    for query in dir_queries(d_out):
        naive = oracle_diff_sensitivity(query, bounds, 3, t_max, method="naive")
        pruned = oracle_diff_sensitivity(query, bounds, 3, t_max)
        assert naive == pruned, query.label()


def test_engines_agree_directed_four_nodes():
    bounds = DegreeBounds.directed(1, 1)
    for query in dir_queries(1):
        naive = oracle_diff_sensitivity(query, bounds, 4, 2, method="naive")
        pruned = oracle_diff_sensitivity(query, bounds, 4, 2)
        assert naive == pruned, query.label()


def test_known_exact_maxima():
    und2 = DegreeBounds.undirected(2)
    # Threshold count at tau=1, D=2: the worst pair realizes the full 2D+1.
    assert (
        oracle_diff_sensitivity(StatisticQuery.high_degree(1), und2, 5, 3) == 5
    )
    assert oracle_diff_sensitivity(StatisticQuery.subgraph("edge"), und2, 4, 2) == 2
    assert (
        oracle_diff_sensitivity(StatisticQuery.subgraph("triangle"), und2, 5, 2) == 1
    )


def test_oracle_never_exceeds_formula_small_budget():
    from dpgraphseq import diff_sequence_sensitivity

    for d in (1, 2):
        bounds = DegreeBounds.undirected(d)
        for query in und_queries(d):
            assert oracle_diff_sensitivity(query, bounds, 4, 2) <= (
                diff_sequence_sensitivity(query, bounds).value
            )


def test_transitive_triangle_worst_case_uses_antiparallel_pairs():
    """Attaching bidirectionally to a complete 3-node digraph adds 18 copies.

    This exceeds C(Din+Dout, 2) = 15, so the catalog must use the pair-based
    bound that counts (in, in) and (out, out) edge pairs twice.
    """
    from itertools import permutations

    from dpgraphseq import build_view, count_subgraph, diff_sequence_sensitivity

    nodes = {"a": 1, "b": 1, "c": 1}
    base = [(u, v) for u, v in permutations("abc", 2)]
    extra = [(x, "vs") for x in "abc"] + [("vs", x) for x in "abc"]
    g = build_view(True, nodes, base)
    g2 = build_view(True, dict(nodes, vs=1), base + extra)
    gained = count_subgraph(g2, "triangle_ii") - count_subgraph(g, "triangle_ii")
    assert gained == 18
    bounds = DegreeBounds.directed(3, 3)
    query = StatisticQuery.subgraph("triangle_ii")
    assert diff_sequence_sensitivity(query, bounds).value == 21 >= gained


def test_budget_cap_and_bad_arguments(monkeypatch):
    bounds = DegreeBounds.undirected(1)
    query = StatisticQuery.subgraph("edge")
    with pytest.raises(BudgetTooLargeError):
        oracle_diff_sensitivity(query, bounds, 8, 2)

    # 6 arrival bits + 57 one-bit steps + 2 flags = 65 bits: no int64 code.
    def no_enumeration(*args):
        raise AssertionError("enumerated a budget the code cannot hold")

    monkeypatch.setattr(oracle, "_undirected_graphs", no_enumeration)
    with pytest.raises(BudgetTooLargeError):
        oracle_diff_sensitivity(query, bounds, 2, 57)
    with pytest.raises(ValueError):
        oracle_diff_sensitivity(query, bounds, 0, 2)
    with pytest.raises(ValueError):
        oracle_diff_sensitivity(query, bounds, 3, 2, method="magic")


def test_mismatched_triangle_pattern_is_rejected_before_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated graphs for a query the oracle rejects")

    monkeypatch.setattr(oracle, "_directed_graphs", no_enumeration)
    monkeypatch.setattr(oracle, "_undirected_graphs", no_enumeration)
    cases = [
        (StatisticQuery.subgraph("triangle"), DegreeBounds.directed(1, 1)),
        (StatisticQuery.subgraph("triangle_i"), DegreeBounds.undirected(2)),
        (StatisticQuery.subgraph("triangle_ii"), DegreeBounds.undirected(2)),
    ]
    for query, bounds in cases:
        with pytest.raises(UnsupportedQueryError, match="oracle does not cover"):
            oracle_diff_sensitivity(query, bounds, 3, 2)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 4)),
        elements=st.integers(-3, 3),
    )
)
def test_unique_rows_matches_numpy_unique(rows):
    got = oracle._unique_rows(rows)
    expected = np.unique(rows, axis=0)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "n,cap_in,cap_out",
    [
        (n, cap_in, cap_out)
        for n in (1, 2, 3, 4)
        for cap_in in (1, 2, 3)
        for cap_out in (1, 2, 3)
    ]
    + [(5, 1, 1), (5, 1, 2)],
)
def test_directed_graphs_match_full_grid(n, cap_in, cap_out):
    out, inmask = oracle._directed_graphs(n, cap_in, cap_out)
    ref_out, ref_inmask = capped_digraphs(n, cap_in, cap_out)
    assert out.dtype == inmask.dtype == np.int64
    assert np.array_equal(out, ref_out)
    assert np.array_equal(inmask, ref_inmask)
