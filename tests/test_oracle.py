"""Brute-force sensitivity search: engine agreement and known exact values."""
import itertools
import json
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dpgraphseq import DegreeBounds, StatisticQuery, oracle
from dpgraphseq.errors import BudgetTooLargeError, UnsupportedQueryError
from dpgraphseq.oracle import oracle_diff_sensitivity

from bruteforce import (
    capped_digraphs,
    degree_maxima,
    naive_diff_sensitivity,
    signature_rows,
    triangle_maxima,
)
from test_acceptance import _catalog_queries

GOLDEN_ORACLE = Path(__file__).with_name("golden_oracle.json")


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
        naive = naive_diff_sensitivity(query, bounds, n_max, t_max)
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
        naive = naive_diff_sensitivity(query, bounds, 3, t_max)
        pruned = oracle_diff_sensitivity(query, bounds, 3, t_max)
        assert naive == pruned, query.label()


def test_engines_agree_directed_four_nodes():
    bounds = DegreeBounds.directed(1, 1)
    for query in dir_queries(1):
        naive = naive_diff_sensitivity(query, bounds, 4, 2)
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


def test_configuration_key_too_wide_is_rejected(monkeypatch):
    """Seven affected slots of 512 profiles need 70 bits: no int64 key."""
    bounds = DegreeBounds.undirected(7)
    arrival_bits, _, flag_shift = oracle._profile_layout(bounds, 7, 3)
    codes = 1 + (np.arange(512, dtype=np.int64) << arrival_bits) + (3 << flag_shift)
    rows = np.repeat(codes[:, None], 7, axis=1)
    monkeypatch.setattr(oracle, "_signature_rows", lambda *args: rows)
    with pytest.raises(BudgetTooLargeError, match="do not fit an int64 key"):
        oracle_diff_sensitivity(StatisticQuery.high_degree(1), bounds, 7, 3)


def test_mismatched_triangle_pattern_is_rejected_before_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated graphs for a query the oracle rejects")

    monkeypatch.setattr(oracle, "_directed_graphs", no_enumeration)
    monkeypatch.setattr(oracle, "_undirected_graphs", no_enumeration)
    cases = [
        (StatisticQuery.subgraph("triangle"), DegreeBounds.directed(1, 1)),
        (StatisticQuery.subgraph("triangle_i"), DegreeBounds.undirected(2)),
        (StatisticQuery.subgraph("triangle_ii"), DegreeBounds.undirected(2)),
        (StatisticQuery.subgraph("k_star", 2), DegreeBounds.directed(2, 2)),
        (StatisticQuery.subgraph("out_k_star", 2), DegreeBounds.undirected(3)),
        (StatisticQuery.subgraph("in_k_star", 2), DegreeBounds.undirected(3)),
    ]
    for query, bounds in cases:
        with pytest.raises(UnsupportedQueryError, match="oracle does not cover"):
            oracle_diff_sensitivity(query, bounds, 3, 2)


def _degree_distances(affected, peer_arrivals, tstar, t_max, cap, max_k):
    """Each degree query's distance, counted from per-step degree lists."""

    def degrees(t, added):
        degs = [
            traj[t - 1] + (added and t >= max(tstar, tv))
            for tv, traj in affected
            if tv <= t
        ]
        if added and t >= tstar:
            degs.append(sum(max(tstar, tv) <= t for tv in peer_arrivals))
        return degs

    # Each statistic as a map bin -> value; scalars use the one bin 0.
    stats = {("degree_histogram",): Counter}
    for tau in range(1, cap + 1):
        stats[("high_degree", tau)] = lambda ds, tau=tau: {0: sum(d >= tau for d in ds)}
    for k in range(1, max_k + 1):
        stats[("k_star", k)] = lambda ds, k=k: {0: sum(comb(d, k) for d in ds)}
    out = {}
    for key, f in stats.items():
        prev_a, prev_b, dist = {}, {}, 0
        for t in range(1, t_max + 1):
            a, b = f(degrees(t, True)), f(degrees(t, False))
            dist += sum(
                abs(a.get(x, 0) - prev_a.get(x, 0) - b.get(x, 0) + prev_b.get(x, 0))
                for x in set(a) | set(b) | set(prev_a) | set(prev_b)
            )
            prev_a, prev_b = a, b
        out[key] = dist
    return out


def _draw_config(data, t_max, cap):
    affected = []
    for _ in range(data.draw(st.integers(0, cap))):
        tv = data.draw(st.integers(1, t_max))
        levels = data.draw(
            st.lists(st.integers(0, cap - 1), min_size=t_max - tv + 1,
                     max_size=t_max - tv + 1)
        )
        affected.append((tv, (0,) * (tv - 1) + tuple(sorted(levels))))
    return affected, data.draw(st.lists(st.integers(1, t_max), max_size=cap))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eval_configs_matches_degree_statistics(data):
    """Each configuration of a batch scores as its own degree lists say."""
    t_max = data.draw(st.integers(1, 4))
    cap = data.draw(st.integers(1, 3))
    batch = data.draw(st.integers(1, 4))
    configs = [_draw_config(data, t_max, cap) for _ in range(batch)]
    keys, tables = oracle._degree_tables(cap, range(1, cap + 1), range(1, 4), "k_star")
    profiles = [p for affected, _ in configs for p in affected]
    deltas = oracle._profile_deltas(
        np.array([tv for tv, _ in profiles], dtype=np.int64),
        np.array([traj for _, traj in profiles], dtype=np.int64).reshape(-1, t_max),
        tables,
    )
    # Slot value 0 is empty; profile p is deltas row p + 1.
    affected = np.zeros((len(configs), cap), dtype=np.int64)
    peers = np.zeros((len(configs), cap), dtype=np.int64)
    row = 1
    for k, (aff, prs) in enumerate(configs):
        affected[k, :len(aff)] = range(row, row + len(aff))
        peers[k, :len(prs)] = prs
        row += len(aff)
    dist = oracle._eval_configs(affected, peers, deltas, tables)
    for k, (aff, prs) in enumerate(configs):
        for tstar in range(1, t_max + 1):
            got = np.add.reduceat(dist[k, tstar - 1], np.arange(len(keys)))
            expected = _degree_distances(aff, prs, tstar, t_max, cap, 3)
            assert dict(zip(keys, got.tolist())) == expected


def _degree_case(n_max, t_max, *caps):
    if len(caps) == 1:
        bounds, name = DegreeBounds.undirected(*caps), f"D{caps[0]}"
    else:
        bounds, name = DegreeBounds.directed(*caps), f"in{caps[0]}out{caps[1]}"
    return pytest.param(bounds, n_max, t_max, id=f"{name}-n{n_max}-t{t_max}")


# n_max below the caps (n_max = 1, 2 at cap 3) narrows the packed keys.
@pytest.mark.parametrize(
    "bounds,n_max,t_max",
    [
        _degree_case(n_max, t_max, *caps)
        for n_max, t_max in [(1, 2), (2, 1), (2, 5), (3, 2), (3, 4), (4, 3)]
        for caps in [(1,), (2,), (3,)] + list(itertools.product((1, 2, 3), repeat=2))
    ],
)
def test_degree_sweep_matches_configuration_walk(bounds, n_max, t_max):
    assert oracle._degree_sweep(bounds, n_max, t_max, 4) == degree_maxima(
        bounds, n_max, t_max, 4
    )


# Directed (3,3) at n_max=5 takes seconds in the reference.  At t_max=4 an
# out-cap of 2 gives 13-bit codes, so a row of five needs two int64 words.
@pytest.mark.parametrize(
    "bounds,n_max,t_max",
    [
        _degree_case(n_max, t_max, *caps)
        for n_max, t_max in [(1, 2), (2, 1), (2, 5), (3, 2), (3, 4), (4, 3), (5, 3)]
        for caps in [(1,), (2,), (3,)] + list(itertools.product((1, 2, 3), repeat=2))
        if (n_max, caps) != (5, (3, 3))
    ]
    + [_degree_case(5, 4, *caps) for caps in [(1,), (2,), (1, 1), (1, 2), (2, 1)]],
)
def test_signature_rows_match_per_tuple_loop(bounds, n_max, t_max):
    layout = oracle._profile_layout(bounds, n_max, t_max)
    got = oracle._signature_rows(bounds, n_max, t_max, layout)
    expected = signature_rows(bounds, n_max, t_max, layout)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("group_rows", [1, 7, 100])
@pytest.mark.parametrize(
    "bounds",
    [DegreeBounds.undirected(2), DegreeBounds.directed(2, 1)],
    ids=["D2", "in2out1"],
)
def test_signature_rows_do_not_depend_on_group_size(monkeypatch, bounds, group_rows):
    """Small groups split the graphs of one tuple and dedupe across groups."""
    layout = oracle._profile_layout(bounds, 4, 3)
    expected = oracle._signature_rows(bounds, 4, 3, layout)
    monkeypatch.setattr(oracle, "_GROUP_ROWS", group_rows)
    assert np.array_equal(oracle._signature_rows(bounds, 4, 3, layout), expected)


def test_six_nodes_stay_within_formula_and_reach_five_node_values():
    """At n_max=6 the small bounds neither beat a formula nor lose ground.

    A value above its n_max=5 golden value would show a budget limit of the
    five-node search; every such entry is printed.
    """
    from dpgraphseq import diff_sequence_sensitivity

    golden = json.loads(GOLDEN_ORACLE.read_text())
    all_bounds = [DegreeBounds.undirected(d) for d in (1, 2, 3)]
    all_bounds += [
        DegreeBounds.directed(*caps)
        for caps in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
    ]
    raised = []
    for bounds in all_bounds:
        if bounds.is_directed:
            name = f"in{bounds.d_in}out{bounds.d_out}"
        else:
            name = f"D{bounds.d}"
        for query in _catalog_queries(bounds):
            value = oracle_diff_sensitivity(query, bounds, n_max=6, t_max=3)
            formula = diff_sequence_sensitivity(query, bounds).value
            five = golden[name][query.label()]
            assert five <= value <= formula, (name, query.label(), value)
            if value > five:
                raised.append(f"{name} {query.label()}: {five} -> {value} of {formula}")
    print(f"\nn_max=6 raises {len(raised)} entries above their n_max=5 values")
    for line in raised:
        print(f"  {line}")


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 4))
        | st.tuples(st.integers(0, 40)),
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


def _triangle_case(n, *caps):
    if len(caps) == 1:
        return pytest.param(DegreeBounds.undirected(*caps), n, id=f"D{caps[0]}-n{n}")
    bounds = DegreeBounds.directed(*caps)
    return pytest.param(bounds, n, id=f"in{caps[0]}out{caps[1]}-n{n}")


@pytest.mark.parametrize(
    "bounds,n",
    [
        _triangle_case(n, cap_in, cap_out)
        for n in (1, 2, 3, 4)
        for cap_in in (1, 2, 3)
        for cap_out in (1, 2, 3)
    ]
    + [_triangle_case(5, 1, 1), _triangle_case(5, 1, 2)]
    + [_triangle_case(n, d) for n in (1, 2, 3, 4) for d in (1, 2, 3)]
    + [_triangle_case(5, 1), _triangle_case(5, 2)],
)
def test_triangle_sweep_matches_all_mask_pairs(bounds, n):
    if bounds.is_directed:
        expected = triangle_maxima(n, bounds.d_in, bounds.d_out)
    else:
        expected = triangle_maxima(n, bounds.d)
    assert oracle._triangle_sweep(bounds, n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_pairs_cover_every_attach_class(n):
    def pop(m):
        return bin(m).count("1")

    def orbit(si, so):
        return pop(si & ~so), pop(so & ~si), pop(si & so)

    for cap_in, cap_out in itertools.product((1, 2, 3), repeat=2):
        grid = {
            orbit(si, so)
            for si in range(1 << n)
            for so in range(1 << n)
            if pop(si) <= cap_in and pop(so) <= cap_out
        }
        pairs = list(oracle._orbit_pairs(n, cap_in, cap_out))
        assert all(si >> n == 0 and so >> n == 0 for si, so in pairs)
        assert sorted(orbit(si, so) for si, so in pairs) == sorted(grid)
