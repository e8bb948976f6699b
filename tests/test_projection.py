"""Greedy projection: admission order, nesting, and ordering validation."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dpgraphseq import (
    GraphSequence,
    ProjectionThresholds,
    build_sequence,
    canonical_ordering,
    count_high_degree,
    project_sequence,
    snapshot,
)
from dpgraphseq.errors import OrderingMismatchError
from dpgraphseq.projection import EdgeOrdering, admit, projected_batches

from test_statistics import sequences


def test_single_graph_projection_respects_order():
    seq = build_sequence(
        False, [(1, ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])]
    )
    th = ProjectionThresholds.undirected(2)
    proj = project_sequence(seq, canonical_ordering(seq), th)[0]
    # First two edges in canonical order survive; (a, d) is dropped.
    assert proj.edges == (("a", "b"), ("a", "c"))
    assert max(proj.degree(v) for v in proj.nodes) <= 2


def test_directed_projection_tracks_both_counters():
    seq = build_sequence(
        True,
        [(1, ["a", "b", "c"], [("a", "b"), ("a", "c"), ("c", "b")])],
    )
    th = ProjectionThresholds.directed(1, 1)
    proj = project_sequence(seq, canonical_ordering(seq), th)[0]
    # (a,b) admits, (a,c) blocked by a's out counter, (c,b) by b's in counter.
    assert proj.edges == (("a", "b"),)


def test_ordering_must_cover_exactly_the_edges():
    seq = build_sequence(False, [(1, ["a", "b", "c"], [("a", "b"), ("b", "c")])])
    bad = EdgeOrdering(steps=((1, (("a", "b"),)),))
    with pytest.raises(OrderingMismatchError):
        project_sequence(seq, bad, ProjectionThresholds.undirected(1))
    with pytest.raises(OrderingMismatchError):
        project_sequence(
            seq, canonical_ordering(seq), ProjectionThresholds.directed(1, 1)
        )


def test_sequence_projection_is_nested_over_time():
    seq = build_sequence(
        False,
        [
            (1, ["a", "b", "c"], [("a", "b"), ("a", "c")]),
            (2, ["d"], [("a", "d"), ("b", "d")]),
            (3, ["e"], [("d", "e"), ("c", "e")]),
        ],
    )
    th = ProjectionThresholds.undirected(2)
    views = project_sequence(seq, canonical_ordering(seq), th)
    assert len(views) == 3
    for earlier, later in zip(views, views[1:]):
        assert set(earlier.edges) <= set(later.edges)
    for view in views:
        assert all(view.degree(v) <= th.d for v in view.nodes)
    # (a, d) is blocked at t=2 and stays blocked even though a later edge
    # involving d is admitted: admission state persists across steps.
    assert ("a", "d") not in views[-1].edges
    assert ("b", "d") in views[-1].edges


def test_sequence_ordering_must_match_batches():
    seq = build_sequence(False, [(1, ["a", "b"], [("a", "b")]), (2, ["c"], [])])
    wrong_steps = EdgeOrdering(steps=((1, (("a", "b"),)),))
    with pytest.raises(OrderingMismatchError):
        project_sequence(seq, wrong_steps, ProjectionThresholds.undirected(1))
    wrong_edges = EdgeOrdering(steps=((1, ()), (2, (("a", "b"),))))
    with pytest.raises(OrderingMismatchError):
        project_sequence(seq, wrong_edges, ProjectionThresholds.undirected(1))


def test_time_zero_batch_folds_into_first_view():
    seq = build_sequence(
        False, [(0, ["s"], []), (1, ["x"], [("s", "x")]), (2, ["y"], [("x", "y")])]
    )
    views = project_sequence(
        seq, canonical_ordering(seq), ProjectionThresholds.undirected(5)
    )
    assert len(views) == 2
    assert "s" in views[0].nodes


@settings(max_examples=100, deadline=None)
@given(sequences(), st.integers(1, 3), st.integers(1, 3))
def test_admission_records_the_walk_of_the_kept_edges(seq, d_in, d_out):
    th = (
        ProjectionThresholds.directed(d_in, d_out)
        if seq.directed
        else ProjectionThresholds.undirected(d_out)
    )
    ordering = canonical_ordering(seq)
    projected = admit(seq, ordering, th)
    kept = projected_batches(seq, ordering, th)
    assert list(projected.batches) == kept
    recomputed = GraphSequence(directed=seq.directed, batches=tuple(kept)).degree_walk
    assert projected.degree_walk == recomputed


def test_threshold_validation():
    with pytest.raises(ValueError):
        ProjectionThresholds.undirected(0)
    with pytest.raises(ValueError):
        ProjectionThresholds(d_in=1)
    with pytest.raises(ValueError):
        ProjectionThresholds.directed(0, 1)
    with pytest.raises(ValueError):
        ProjectionThresholds(d=2, d_in=1)


def test_canonical_ordering_sorts_within_each_step():
    seq = build_sequence(
        False,
        [(1, ["b", "a", "c"], [("c", "a"), ("b", "a")]), (2, ["d"], [("d", "a")])],
    )
    order = canonical_ordering(seq)
    assert order.steps == ((1, (("a", "b"), ("a", "c"))), (2, (("a", "d"),)))


# --- stability of the projected threshold count ---------------------------
#
# Exhaustive check on one-step graphs: adding a single node changes the
# projected count of nodes at degree >= tau by at most D~ + 1 when tau = D~.


def _all_small_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if bits >> i & 1]


@pytest.mark.parametrize("d_tilde", [1, 2])
def test_single_addition_shifts_projected_count_boundedly(d_tilde):
    th = ProjectionThresholds.undirected(d_tilde)
    n = 4
    for edges in _all_small_graphs(n):
        base_times = {f"n{i}": 1 for i in range(n)}
        base_seq = build_sequence(
            False, [(1, list(base_times), [(f"n{u}", f"n{v}") for u, v in edges])]
        )
        base = project_sequence(base_seq, canonical_ordering(base_seq), th)[0]
        base_count = count_high_degree(base, d_tilde)
        for extra_bits in range(2**n):
            extra = [(f"n{i}", "vs") for i in range(n) if extra_bits >> i & 1]
            times = dict(base_times, vs=1)
            named = [(f"n{u}", f"n{v}") for u, v in edges]
            seq = build_sequence(False, [(1, list(times), named + extra)])
            proj = project_sequence(seq, canonical_ordering(seq), th)[0]
            count = count_high_degree(proj, d_tilde)
            assert abs(count - base_count) <= d_tilde + 1


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_projection_is_deterministic(data):
    n = data.draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    seq = build_sequence(
        False, [(1, [f"n{i}" for i in range(n)], [(f"n{u}", f"n{v}") for u, v in edges])]
    )
    th = ProjectionThresholds.undirected(data.draw(st.integers(1, 3)))
    a = project_sequence(seq, canonical_ordering(seq), th)[0]
    b = project_sequence(seq, canonical_ordering(seq), th)[0]
    assert a.edges == b.edges


def _thresholds(directed, d_in, d_out):
    if directed:
        return ProjectionThresholds.directed(d_in, d_out)
    return ProjectionThresholds.undirected(d_out)


def _within(view, d_in, d_out):
    if view.directed:
        return all(
            view.out_degree(v) <= d_out and view.in_degree(v) <= d_in
            for v in view.nodes
        )
    return all(view.degree(v) <= d_out for v in view.nodes)


@settings(max_examples=100, deadline=None)
@given(sequences(), st.integers(1, 3), st.integers(1, 3))
def test_projected_views_respect_thresholds_and_keep_edges_at_the_maxima(
    seq, d_in, d_out
):
    order = canonical_ordering(seq)
    views = project_sequence(seq, order, _thresholds(seq.directed, d_in, d_out))
    assert all(_within(view, d_in, d_out) for view in views)
    final = snapshot(seq, seq.horizon)
    top_out = max([1] + [final.out_degree(v) for v in final.nodes])
    top_in = top_out
    if seq.directed:
        top_in = max([1] + [final.in_degree(v) for v in final.nodes])
    full = project_sequence(seq, order, _thresholds(seq.directed, top_in, top_out))
    assert [set(view.edges) for view in full] == [
        set(snapshot(seq, t).edges) for t in range(1, seq.horizon + 1)
    ]
