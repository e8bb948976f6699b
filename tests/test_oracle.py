"""Brute-force sensitivity search: engine agreement and known exact values."""
import functools
import itertools
import json
import tracemalloc
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
    _decode_profile,
    capped_digraphs,
    capped_graphs,
    degree_configurations,
    degree_maxima,
    naive_diff_sensitivity,
    naive_value,
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

    from dpgraphseq import diff_sequence_sensitivity

    query = StatisticQuery.subgraph("triangle_ii")
    nodes = ["a", "b", "c"]
    base = list(permutations(nodes, 2))
    extra = [(x, "vs") for x in nodes] + [("vs", x) for x in nodes]
    before = naive_value(query, True, nodes, base)
    gained = naive_value(query, True, nodes + ["vs"], base + extra) - before
    assert gained == 18
    bounds = DegreeBounds.directed(3, 3)
    assert diff_sequence_sensitivity(query, bounds).value == 21 >= gained


def test_budget_cap_and_bad_arguments(monkeypatch):
    bounds = DegreeBounds.undirected(1)
    query = StatisticQuery.subgraph("edge")
    with pytest.raises(BudgetTooLargeError):
        oracle_diff_sensitivity(query, bounds, 8, 2)

    # 6 arrival bits + 57 one-bit steps + 2 flags = 65 bits: no int64 code.
    def no_enumeration(*args):
        raise AssertionError("enumerated a budget the code cannot hold")

    monkeypatch.setattr(oracle, "_build_graphs", no_enumeration)
    with pytest.raises(BudgetTooLargeError):
        oracle_diff_sensitivity(query, bounds, 2, 57)
    with pytest.raises(ValueError):
        oracle_diff_sensitivity(query, bounds, 0, 2)


@pytest.mark.parametrize(
    "n_max,t_max,name",
    [(True, 2, "n_max"), (3.0, 2, "n_max"), (3, 2.0, "t_max"), (3, True, "t_max")],
)
def test_budgets_that_are_not_ints_are_rejected(monkeypatch, n_max, t_max, name):
    def no_enumeration(*args):
        raise AssertionError("enumerated graphs for a budget that is not an int")

    monkeypatch.setattr(oracle, "_build_graphs", no_enumeration)
    for bounds in (DegreeBounds.undirected(2), DegreeBounds.directed(2, 1)):
        for query in (StatisticQuery.high_degree(1), StatisticQuery.subgraph("edge")):
            with pytest.raises(TypeError, match=name):
                oracle_diff_sensitivity(query, bounds, n_max, t_max)


def _packed(rows, layout):
    """Sorted signature rows packed into words, as `_signature_rows` returns them."""
    column_word, column_at = oracle._word_fields(rows.shape[1], layout)
    words = np.zeros((len(rows), column_word[-1] + 1), dtype=np.int64)
    for j, (word, at) in enumerate(zip(column_word, column_at)):
        words[:, word] |= rows[:, j] << at
    return words


def test_configuration_key_too_wide_is_rejected(monkeypatch):
    """Seven affected slots of 512 profiles need 70 bits: no int64 key."""
    bounds = DegreeBounds.undirected(7)
    layout = oracle._profile_layout(bounds, 7, 3)
    codes = 3 + (np.arange(512, dtype=np.int64) << 2) + (1 << layout[2])
    rows = np.repeat(codes[:, None], 7, axis=1)
    monkeypatch.setattr(oracle, "_signature_rows", lambda *args: _packed(rows, layout))
    with pytest.raises(BudgetTooLargeError, match="do not fit an int64 key"):
        oracle_diff_sensitivity(StatisticQuery.high_degree(1), bounds, 7, 3)


def test_pair_key_too_wide_is_rejected(monkeypatch):
    """Six slots of 600 profiles and 128 receive groups need 67 bits.

    The configuration key, six 10-bit profiles and one 3-bit arrival, fits
    63 bits; a (receive group, send part) pair does not, so no pair is
    formed.
    """
    bounds = DegreeBounds.directed(6, 1)
    layout = oracle._profile_layout(bounds, 7, 7)
    _, step_bits, arrival_shift = layout
    assert step_bits == 1
    # 600 senders' rows, with no receiver: trajectories 0..127 at arrivals 1..5.
    profiles = np.arange(600, dtype=np.int64)
    codes = 1 + (profiles % 128 << 2) + (1 + profiles // 128 << arrival_shift)
    senders = np.repeat(codes[:, None], 7, axis=1)
    # A row of lone receivers for each of the 127 nonempty sets of arrivals.
    receivers = np.zeros((127, 7), dtype=np.int64)
    for s in range(1, 128):
        arrivals = [t for t in range(1, 8) if s >> t - 1 & 1]
        row = [2 + (t << arrival_shift) for t in arrivals]
        receivers[s - 1, 7 - len(row):] = row
    rows = np.concatenate([senders, receivers])
    monkeypatch.setattr(oracle, "_signature_rows", lambda *args: _packed(rows, layout))
    with pytest.raises(BudgetTooLargeError, match="128 receive groups above 60 bits"):
        oracle_diff_sensitivity(StatisticQuery.high_degree(1), bounds, 7, 7)


def test_mismatched_triangle_pattern_is_rejected_before_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated graphs for a query the oracle rejects")

    monkeypatch.setattr(oracle, "_build_graphs", no_enumeration)
    cases = [
        (StatisticQuery.subgraph("triangle"), DegreeBounds.directed(1, 1)),
        (StatisticQuery.subgraph("triangle_i"), DegreeBounds.undirected(2)),
        (StatisticQuery.subgraph("triangle_ii"), DegreeBounds.undirected(2)),
        (StatisticQuery.subgraph("k_star", 2), DegreeBounds.directed(2, 2)),
        (StatisticQuery.subgraph("out_k_star", 2), DegreeBounds.undirected(3)),
        (StatisticQuery.subgraph("in_k_star", 2), DegreeBounds.undirected(3)),
        # No threshold column above the out-cap (the degree, if undirected).
        (StatisticQuery.high_degree(3), DegreeBounds.directed(3, 2)),
        (StatisticQuery.high_degree(4), DegreeBounds.undirected(3)),
    ]
    for query, bounds in cases:
        with pytest.raises(UnsupportedQueryError, match="oracle does not cover"):
            oracle_diff_sensitivity(query, bounds, 3, 2)


def _fresh_caches(monkeypatch, *names):
    """Empty copies of the oracle's caches; monkeypatch restores the shared ones."""
    for name in names:
        cached = getattr(oracle, name)
        fresh = functools.lru_cache(cached.cache_info().maxsize)(cached.__wrapped__)
        monkeypatch.setattr(oracle, name, fresh)


@pytest.mark.parametrize(
    "family,n_max",
    [
        ([DegreeBounds.undirected(2)], 4),
        ([DegreeBounds.directed(1, 2), DegreeBounds.directed(2, 1)], 3),
    ],
    ids=["D2", "in1out2-in2out1"],
)
def test_each_graph_family_is_built_once(monkeypatch, family, n_max):
    """A bound's and its mirror's degree, in-star and triangle sweeps share a build."""
    _fresh_caches(monkeypatch, "_capped_graphs", "_degree_sweep", "_triangle_sweep")
    calls = []
    build = oracle._build_graphs

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "_build_graphs", spy)
    for bounds in family:
        if bounds.is_directed:
            queries = [
                StatisticQuery.subgraph("out_k_star", 2),
                StatisticQuery.subgraph("in_k_star", 2),
                StatisticQuery.subgraph("triangle_i"),
                StatisticQuery.subgraph("triangle_ii"),
            ]
        else:
            queries = [
                StatisticQuery.subgraph("k_star", 2),
                StatisticQuery.subgraph("triangle"),
            ]
        for query in queries:
            # Each answers as the literal enumeration does ...
            got = oracle_diff_sensitivity(query, bounds, n_max, 2)
            assert got == naive_diff_sensitivity(query, bounds, n_max, 2)
            # ... from arrays no reader can change.
            for array in oracle._capped_graphs(n_max, bounds):
                assert not array.flags.writeable
    # The family was built once, in its d_out <= d_in orientation.
    cap_in, cap_out = max(family[0].caps), min(family[0].caps)
    assert calls == [(n_max, cap_in, cap_out, family[0].is_directed)]


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


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_histogram_columns_are_one_per_bin(cap):
    keys, tables = oracle._degree_tables(cap, range(1, cap + 1), range(1, 4), "k_star")
    assert keys[-1] == ("degree_histogram",)
    assert np.array_equal(tables[:, -(cap + 1):], np.eye(cap + 1, dtype=np.int64))


def _degree_case(n_max, t_max, *caps):
    if len(caps) == 1:
        bounds, name = DegreeBounds.undirected(*caps), f"D{caps[0]}"
    else:
        bounds, name = DegreeBounds.directed(*caps), f"in{caps[0]}out{caps[1]}"
    return pytest.param(bounds, n_max, t_max, id=f"{name}-n{n_max}-t{t_max}")


# Profile codes of 19 bits (D2 and in1out2 at t_max=7) and of 34 bits (D2
# at t_max=14) run in int32 and int64 instead of int16.
WIDE_CODES = [_degree_case(3, 7, 2), _degree_case(3, 7, 1, 2), _degree_case(3, 14, 2)]

# n_max below the caps (n_max = 1, 2 at cap 3) narrows the packed keys.
# n_max=5, t_max=3 is the benchmark's and criterion 1's budget; in2out3 and
# in3out3 take seconds in the reference there, and the golden file holds them.
DEGREE_SWEEP_GRID = [
    _degree_case(n_max, t_max, *caps)
    for n_max, t_max in [(1, 2), (2, 1), (2, 5), (3, 2), (3, 4), (4, 3), (5, 3)]
    for caps in [(1,), (2,), (3,)] + list(itertools.product((1, 2, 3), repeat=2))
    if (n_max, caps) not in [(5, (2, 3)), (5, (3, 3))]
] + WIDE_CODES


@pytest.mark.parametrize("bounds,n_max,t_max", DEGREE_SWEEP_GRID)
def test_degree_sweep_matches_configuration_walk(bounds, n_max, t_max):
    assert oracle._degree_sweep(bounds, n_max, t_max, 4) == degree_maxima(
        bounds, n_max, t_max, 4
    )


@pytest.mark.parametrize("bounds,n_max,t_max", DEGREE_SWEEP_GRID)
def test_degree_sweep_scores_exactly_the_walked_configurations(
    monkeypatch, bounds, n_max, t_max
):
    """The sweep scores each configuration the reference walk visits once.

    Equal maxima alone would miss a configuration dropped or invented whose
    score ties.
    """
    profiles, scored = [], []
    profile_deltas, eval_configs = oracle._profile_deltas, oracle._eval_configs

    def record_profiles(arrivals, trajs, tables):
        profiles.extend(zip(arrivals.tolist(), map(tuple, trajs.tolist())))
        return profile_deltas(arrivals, trajs, tables)

    def record_configs(affected, peers, *args):
        for numbers, arrivals in zip(affected.tolist(), peers.tolist()):
            affected_profiles = tuple(sorted(profiles[p - 1] for p in numbers if p))
            scored.append((affected_profiles, tuple(sorted(filter(None, arrivals)))))
        return eval_configs(affected, peers, *args)

    monkeypatch.setattr(oracle, "_profile_deltas", record_profiles)
    monkeypatch.setattr(oracle, "_eval_configs", record_configs)
    oracle._degree_sweep.__wrapped__(bounds, n_max, t_max, 4)
    assert len(scored) == len(set(scored))
    assert set(scored) == degree_configurations(bounds, n_max, t_max)


@pytest.mark.parametrize("bounds,n_max,t_max", DEGREE_SWEEP_GRID)
def test_int64_configuration_keys_give_the_same_maxima(monkeypatch, bounds, n_max, t_max):
    """With the key parts packed in Python ints, which never wrap, the int64 keys agree.

    The exact weights reach the (receive group, send part) pair keys and
    the configuration keys, the sweep's last two unions.
    """
    expected = oracle._degree_sweep(bounds, n_max, t_max, 4)
    subsets, union, packed, unions = oracle._subsets, oracle._union, [], []

    def exact_subsets(*args):
        masks, weights = subsets(*args)
        packed.append(weights.astype(object))
        return masks, packed[-1]

    def record_union(parts):
        dtypes = set()
        unions.append(dtypes)
        for part in parts:
            dtypes.add(part.dtype)
            yield part

    monkeypatch.setattr(oracle, "_subsets", exact_subsets)
    monkeypatch.setattr(oracle, "_union", lambda parts: union(record_union(parts)))
    assert oracle._degree_sweep.__wrapped__(bounds, n_max, t_max, 4) == expected
    assert len(packed) == 2
    assert unions[-2:] == [{np.dtype(object)}, {np.dtype(object)}]


@pytest.mark.parametrize("bounds,n_max,t_max", DEGREE_SWEEP_GRID)
def test_signature_rows_are_arrival_major(bounds, n_max, t_max):
    """Each row ascends in arrival, its senders in (arrival, trajectory) order.

    So a set of a row's senders, taken in position order, comes in profile
    order, and a set of its receivers in arrival order, with no sort.
    """
    layout = oracle._profile_layout(bounds, n_max, t_max)
    words = oracle._signature_rows(bounds, n_max, t_max, layout)
    for row in oracle._unpack_rows(words, n_max, layout):
        profiles = [_decode_profile(c, t_max, layout) for c in row if c]
        assert all(1 <= t_v <= t_max for t_v, *_ in profiles)
        assert all(can_send or can_recv for *_, can_send, can_recv in profiles)
        arrivals = [t_v for t_v, *_ in profiles]
        assert arrivals == sorted(arrivals)
        senders = [int(c) & ~3 for c in row if c & 1]
        assert senders == sorted(senders)


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
    + [_degree_case(5, 4, *caps) for caps in [(1,), (2,), (1, 1), (1, 2), (2, 1)]]
    + WIDE_CODES,
)
def test_signature_rows_match_per_tuple_loop(bounds, n_max, t_max):
    layout = oracle._profile_layout(bounds, n_max, t_max)
    words = oracle._signature_rows(bounds, n_max, t_max, layout)
    got = oracle._unpack_rows(words, n_max, layout)
    expected = signature_rows(bounds, n_max, t_max, layout)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(words, _packed(expected, layout))


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


def _traced_peak_mb(function, *args):
    """Peak traced allocation (MB) of one call above what was held before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        function(*args)
        peak = (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()
    print(f"\ntraced peak {peak:.2f} MB")
    return peak


# Traced peaks (MB) of cold sweeps at in1out3, in1out2 and D3 (n_max=5,
# t_max=3), the benchmark's three largest: 4.93, 4.45 and 4.23 with int64
# codes and per-row arrays built for all rows at once, 1.28, 1.06 and 0.73
# with narrow codes and rows decoded in 512-row chunks, and 1.12, 1.02 and
# 1.09 with rows unpacked from their words 2048 at a time and expanded once
# per receive group (D3 reads 0.72 with 512-row chunks).
SWEEP_PEAK_MB = 3.0


@pytest.mark.parametrize(
    "bounds",
    [
        DegreeBounds.directed(1, 3),
        DegreeBounds.directed(1, 2),
        DegreeBounds.undirected(3),
    ],
    ids=["in1out3", "in1out2", "D3"],
)
def test_cold_degree_sweep_holds_a_bounded_working_set(monkeypatch, bounds):
    _fresh_caches(monkeypatch, "_capped_graphs", "_degree_sweep")
    assert _traced_peak_mb(oracle._degree_sweep, bounds, 5, 3) < SWEEP_PEAK_MB


# Traced peak (MB) of a cold in3out3 build at n=5 (592,260 digraphs): 95.3
# with int64 prefixes, masks and out-mask columns, 17.3 all in uint8.
BUILD_PEAK_MB = 40.0


def test_cold_digraph_build_holds_a_bounded_working_set():
    bounds = DegreeBounds.directed(3, 3)
    assert _traced_peak_mb(oracle._capped_graphs.__wrapped__, 5, bounds) < BUILD_PEAK_MB


# Traced peak (MB) of a cold in3out3 signature pass at n=5, t_max=3, its
# graphs built beforehand: 26.3 with the out-degree prefix table built for
# every graph key at once, 15.9 with it built per slice of graphs.
SIGNATURE_PEAK_MB = 20.0


def test_signature_pass_holds_a_bounded_working_set(monkeypatch):
    _fresh_caches(monkeypatch, "_capped_graphs")
    bounds = DegreeBounds.directed(3, 3)
    oracle._capped_graphs(5, bounds)
    layout = oracle._profile_layout(bounds, 5, 3)
    peak = _traced_peak_mb(oracle._signature_rows, bounds, 5, 3, layout)
    assert peak < SIGNATURE_PEAK_MB


def test_six_nodes_stay_within_formula_and_reach_five_node_values():
    """At n_max=6 the small bounds neither beat a formula nor lose ground.

    A value above its n_max=5 golden value would show a budget limit of the
    five-node search; every such entry is printed.  in2out2 reaches none:
    each of its values, triangle_ii's 6 of the formula's 8 included, is
    its five-node value.
    """
    from dpgraphseq import diff_sequence_sensitivity

    golden = json.loads(GOLDEN_ORACLE.read_text())
    all_bounds = [DegreeBounds.undirected(d) for d in (1, 2, 3)]
    all_bounds += [
        DegreeBounds.directed(*caps)
        for caps in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
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
                assert name != "in2out2", (query.label(), five, value)
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
    """The builder keeps the full grid's rows, in its order, in uint8."""
    out, inmask = oracle._build_graphs(n, cap_in, cap_out, True)
    ref_out, ref_inmask = capped_digraphs(n, cap_in, cap_out)
    assert out.dtype == inmask.dtype == np.uint8
    assert np.array_equal(out, ref_out)
    assert np.array_equal(inmask, ref_inmask)


def _sorted_rows(*columns):
    rows = np.column_stack(columns)
    return rows[np.lexsort(rows.T[::-1])]


def _assert_read_only(*arrays):
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cap_in,cap_out", list(itertools.product((1, 2, 3), repeat=2)))
def test_capped_digraphs_match_full_grid_up_to_row_order(n, cap_in, cap_out):
    """One cached family per mirrored pair: each side is the other's transpose."""
    out, inmask = oracle._capped_graphs(n, DegreeBounds.directed(cap_in, cap_out))
    ref_out, ref_inmask = capped_digraphs(n, cap_in, cap_out)
    assert np.array_equal(_sorted_rows(out, inmask), _sorted_rows(ref_out, ref_inmask))
    if cap_in != cap_out:
        mirror = DegreeBounds.directed(cap_out, cap_in)
        mirror_out, mirror_inmask = oracle._capped_graphs(n, mirror)
        assert mirror_out is inmask and mirror_inmask is out
    _assert_read_only(out, inmask)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_undirected_graphs_match_full_grid_up_to_row_order(n, cap):
    """The symmetric case of the builder keeps every capped graph once."""
    adj, same = oracle._build_graphs(n, cap, cap, False)
    assert adj is same and adj.dtype == np.uint8
    assert np.array_equal(_sorted_rows(adj), _sorted_rows(capped_graphs(n, cap)))
    out, inmask = oracle._capped_graphs(n, DegreeBounds.undirected(cap))
    assert out is inmask and np.array_equal(out, adj)
    _assert_read_only(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_role_patterns_match_product_table(n):
    """Every set of senders paired with every set of receivers, each packed.

    The pairs are the role table's rows (each position none, send, recv or
    both, within the budgets), and a set's weights pack the chosen
    positions' values in position order, first in the lowest field.
    """
    roles = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.int64)
    send, recv = roles & 1, roles >> 1
    values = np.arange(1, n + 1)
    chosen = [tuple(m >> v & 1 for v in range(n)) for m in range(1 << n)]
    for cap_in, budget_out in itertools.product((1, 2, 3), (0, 1, 2, 3)):
        keep = (send.sum(axis=1) <= cap_in) & (recv.sum(axis=1) <= budget_out)
        expected = sorted(zip(map(tuple, send[keep]), map(tuple, recv[keep])))
        send_masks, send_weights = oracle._subsets(n, cap_in, 3, 0)
        recv_masks, recv_weights = oracle._subsets(n, budget_out, 3, 5)
        got = sorted((chosen[s], chosen[r]) for s in send_masks for r in recv_masks)
        assert got == expected
        for masks, weights, shift in [
            (send_masks, send_weights, 0),
            (recv_masks, recv_weights, 5),
        ]:
            for m, packed in zip(masks, values @ weights):
                picked = values[np.array(chosen[m], dtype=bool)]
                assert packed == sum(int(x) << shift + 3 * i for i, x in enumerate(picked))


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
