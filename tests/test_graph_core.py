"""Sequence ingestion, snapshots, bound checks, and the edge-list format."""
import pytest
from hypothesis import given, settings, strategies as st

from dpgraphseq import (
    DegreeBounds,
    GraphSequence,
    build_sequence,
    dumps_edge_list,
    ingest_step,
    loads_edge_list,
    snapshot,
    verify_bounds,
)
from dpgraphseq.errors import (
    DanglingEdgeError,
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeToFutureNodeError,
    ModeMismatchError,
    SelfLoopError,
    TimeOutOfRangeError,
)
from dpgraphseq.graph_core import canonical_edge

from test_statistics import sequences


def small_seq():
    return build_sequence(
        False,
        [
            (1, ["a", "b"], [("a", "b")]),
            (2, ["c"], [("b", "c"), ("a", "c")]),
            (3, ["d"], [("c", "d")]),
        ],
    )


def test_canonical_edge_orients_undirected_pairs():
    assert canonical_edge("b", "a", directed=False) == ("a", "b")
    assert canonical_edge("b", "a", directed=True) == ("b", "a")


def test_ingest_builds_consecutive_batches():
    seq = small_seq()
    assert seq.start_time == 1
    assert seq.horizon == 3
    assert seq.node_time == {"a": 1, "b": 1, "c": 2, "d": 3}
    assert seq.batch_at(2).edges == (("b", "c"), ("a", "c"))


def test_first_batch_may_sit_at_time_zero():
    seq = ingest_step(GraphSequence.empty(False), 0, ["seed"], [])
    seq = ingest_step(seq, 1, ["x"], [("seed", "x")])
    assert seq.start_time == 0
    assert seq.horizon == 1


@pytest.mark.parametrize("t", [2, -1, 5])
def test_first_batch_time_must_be_zero_or_one(t):
    with pytest.raises(TimeOutOfRangeError):
        ingest_step(GraphSequence.empty(False), t, ["a"], [])


def test_batch_times_must_be_consecutive():
    seq = ingest_step(GraphSequence.empty(False), 1, ["a"], [])
    with pytest.raises(TimeOutOfRangeError):
        ingest_step(seq, 3, ["b"], [])


def test_ingest_rejects_duplicate_node():
    seq = ingest_step(GraphSequence.empty(False), 1, ["a"], [])
    with pytest.raises(DuplicateNodeError):
        ingest_step(seq, 2, ["a"], [])
    with pytest.raises(DuplicateNodeError):
        ingest_step(GraphSequence.empty(False), 1, ["x", "x"], [])


def test_ingest_rejects_self_loop_and_dangling_edge():
    with pytest.raises(SelfLoopError):
        ingest_step(GraphSequence.empty(False), 1, ["a"], [("a", "a")])
    with pytest.raises(DanglingEdgeError):
        ingest_step(GraphSequence.empty(False), 1, ["a"], [("a", "ghost")])


def test_edge_must_touch_current_batch():
    seq = ingest_step(GraphSequence.empty(False), 1, ["a", "b"], [])
    with pytest.raises(EdgeToFutureNodeError):
        ingest_step(seq, 2, ["c"], [("a", "b")])


def test_duplicate_edge_rejected_across_batches_and_orientations():
    with pytest.raises(DuplicateEdgeError):
        ingest_step(
            GraphSequence.empty(False), 1, ["a", "b"], [("a", "b"), ("b", "a")]
        )
    # Directed mode treats the two orientations as distinct edges.
    d = ingest_step(GraphSequence.empty(True), 1, ["a", "b"], [("a", "b"), ("b", "a")])
    assert d.batch_at(1).edges == (("a", "b"), ("b", "a"))
    # An earlier edge re-sent in a later batch, in either orientation,
    # touches no node of that batch, so it is rejected without any scan of
    # earlier edges.
    u = ingest_step(GraphSequence.empty(False), 1, ["a", "b"], [("a", "b")])
    for seq in (u, d):
        for edge in (("a", "b"), ("b", "a")):
            with pytest.raises(EdgeToFutureNodeError):
                ingest_step(seq, 2, ["c"], [("a", "c"), edge])
            with pytest.raises(EdgeToFutureNodeError):
                ingest_step(seq, 2, [], [edge])


def test_ingest_carries_node_time_forward_without_touching_parent():
    parent = ingest_step(GraphSequence.empty(False), 1, ["a", "b"], [("a", "b")])
    child = ingest_step(parent, 2, ["c"], [("c", "a")])
    sibling = ingest_step(parent, 2, ["d"])
    assert parent.node_time == {"a": 1, "b": 1}
    assert child.node_time == {"a": 1, "b": 1, "c": 2}
    assert sibling.node_time == {"a": 1, "b": 1, "d": 2}
    # The carried map matches the one rebuilt from the batches.
    rebuilt = GraphSequence(directed=False, batches=child.batches)
    assert rebuilt == child
    assert rebuilt.node_time == child.node_time


def test_snapshot_accumulates_batches():
    seq = small_seq()
    g1 = snapshot(seq, 1)
    g3 = snapshot(seq, 3)
    assert g1.nodes == ("a", "b")
    assert g1.num_edges == 1
    assert g3.num_nodes == 4
    assert g3.num_edges == 4
    assert g3.degree("c") == 3
    with pytest.raises(TimeOutOfRangeError):
        snapshot(seq, 4)


def test_directed_snapshot_degrees():
    seq = build_sequence(True, [(1, ["a", "b", "c"], [("a", "b"), ("c", "b")])])
    g = snapshot(seq, 1)
    assert g.out_degree("a") == 1
    assert g.in_degree("b") == 2
    assert g.degree("b") == 2
    und = snapshot(small_seq(), 1)
    with pytest.raises(ModeMismatchError):
        und.in_degree("a")


def test_verify_bounds_finds_first_violation():
    seq = small_seq()
    assert verify_bounds(seq, DegreeBounds.undirected(3)) is None
    v = verify_bounds(seq, DegreeBounds.undirected(2))
    assert (v.time, v.node, v.degree, v.kind) == (3, "c", 3, "degree")
    # Under a bound of 1 the violation already happens at t=2.
    v1 = verify_bounds(seq, DegreeBounds.undirected(1))
    assert v1.time == 2


def test_verify_bounds_directed_modes():
    seq = build_sequence(
        True, [(1, ["a", "b", "c"], [("a", "b"), ("a", "c"), ("c", "b")])]
    )
    assert verify_bounds(seq, DegreeBounds.directed(2, 2)) is None
    v = verify_bounds(seq, DegreeBounds.directed(1, 2))
    assert v.kind == "in" and v.node == "b"
    v = verify_bounds(seq, DegreeBounds.directed(2, 1))
    assert v.kind == "out" and v.node == "a"
    with pytest.raises(ModeMismatchError):
        verify_bounds(seq, DegreeBounds.undirected(2))


def _side_degree(view, node, kind):
    if kind == "out":
        return view.out_degree(node)
    if kind == "in":
        return view.in_degree(node)
    return view.degree(node)


@settings(max_examples=200, deadline=None)
@given(sequences(), st.integers(1, 3), st.integers(1, 3))
def test_verify_bounds_matches_snapshot_degrees(seq, d_in, d_out):
    if seq.directed:
        bounds = DegreeBounds.directed(d_in, d_out)
        caps = {"out": d_out, "in": d_in}
    else:
        bounds = DegreeBounds.undirected(d_out)
        caps = {"degree": d_out}

    def over(view):
        return {
            (v, kind)
            for v in view.nodes
            for kind, cap in caps.items()
            if _side_degree(view, v, kind) > cap
        }

    for t in range(seq.start_time, seq.horizon + 1):
        crossings = over(snapshot(seq, t))
        if crossings:
            break
    violation = verify_bounds(seq, bounds)
    if not crossings:
        assert violation is None
        return
    assert violation.time == t
    assert (violation.node, violation.kind) in crossings
    # The walk stops at the edge that crosses the cap.
    assert violation.degree == caps[violation.kind] + 1


def _side_degrees(view):
    """(out-degree, in-degree) maps of a snapshot; an undirected degree is both."""
    if view.directed:
        return (
            {v: view.out_degree(v) for v in view.nodes},
            {v: view.in_degree(v) for v in view.nodes},
        )
    degree = {v: view.degree(v) for v in view.nodes}
    return degree, degree


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_degree_walk_reads_snapshot_degrees(seq):
    # An edge's pre-edge degree is its endpoint's degree in the previous
    # snapshot plus the earlier edges of its own batch on that side.
    walk = seq.degree_walk
    out, inn = {}, {}
    i = 0
    for batch, end in zip(seq.batches, walk.ends):
        for k, (u, v) in enumerate(batch.edges):
            earlier = batch.edges[:k]
            if seq.directed:
                tail = out.get(u, 0) + sum(a == u for a, _ in earlier)
                head = inn.get(v, 0) + sum(b == v for _, b in earlier)
            else:
                tail = out.get(u, 0) + sum(u in e for e in earlier)
                head = inn.get(v, 0) + sum(v in e for e in earlier)
            assert (walk.tail[i], walk.head[i]) == (tail, head)
            i += 1
        assert end == i
        out, inn = _side_degrees(snapshot(seq, batch.time))
    assert len(walk.tail) == len(walk.head) == i
    assert (walk.out, walk.inn) == (out, inn)


def test_degree_walk_cache_is_neither_compared_nor_inherited():
    parent = small_seq()
    walk = parent.degree_walk
    assert parent.degree_walk is walk
    assert walk.tail == (0, 1, 1, 2) and walk.head == (0, 0, 1, 0)
    assert walk.ends == (1, 3, 4)
    assert walk.out == {"a": 2, "b": 2, "c": 3, "d": 1}
    # The cache is not a field: a sequence without it compares equal.
    fresh = GraphSequence(directed=False, batches=parent.batches)
    assert "degree_walk" not in fresh.__dict__
    assert fresh == parent
    # A child computes its own walk; the parent's stays as it was.
    child = ingest_step(parent, 4, ["e"], [("e", "c")])
    assert "degree_walk" not in child.__dict__
    assert child.degree_walk.ends == (1, 3, 4, 5)
    assert child.degree_walk.out["c"] == 4
    assert parent.degree_walk is walk and walk.out["c"] == 3


def test_degree_bounds_validation():
    with pytest.raises(ValueError):
        DegreeBounds.undirected(0)
    with pytest.raises(ValueError):
        DegreeBounds(d=2, d_in=1, d_out=1)
    with pytest.raises(ValueError):
        DegreeBounds(d_in=2)
    assert DegreeBounds.directed(1, 2).is_directed
    assert not DegreeBounds.undirected(1).is_directed
    assert DegreeBounds.directed(1, 2).caps == (1, 2)
    assert DegreeBounds.undirected(3).caps == (3, 3)


def test_edge_list_round_trip():
    seq = small_seq()
    text = dumps_edge_list(seq)
    back = loads_edge_list(text)
    assert back == seq


def test_edge_list_shifts_raw_years_and_fills_gaps():
    text = "\n".join(
        [
            "H directed",
            "# infections by year",
            "N a 2001",
            "N b 2001",
            "N c 2004",
            "E a b",
            "E b c",
        ]
    )
    seq = loads_edge_list(text)
    assert seq.start_time == 1
    assert seq.horizon == 4
    assert seq.batch_at(2).nodes == ()
    assert seq.node_time == {"a": 1, "b": 1, "c": 4}
    # Edge time is the max endpoint time.
    assert seq.batch_at(4).edges == (("b", "c"),)


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        loads_edge_list("N a 1\n")
    with pytest.raises(ValueError):
        loads_edge_list("H sideways\n")
    with pytest.raises(DanglingEdgeError):
        loads_edge_list("H undirected\nN a 1\nE a b\n")
    with pytest.raises(DuplicateNodeError):
        loads_edge_list("H undirected\nN a 1\nN a 2\n")


def test_edge_list_names_the_line_of_a_bad_node_time():
    with pytest.raises(ValueError, match="line 3: bad node time 'N b x'"):
        loads_edge_list("H directed\nN a 1\nN b x\n")


def test_edge_list_takes_one_header_before_every_record():
    with pytest.raises(ValueError, match="line 1: header line must precede"):
        loads_edge_list("E a b\nH undirected\nN a 1\nN b 1\n")
    retyped = "H directed\nN a 1\nN b 1\nE a b\nH undirected\n"
    with pytest.raises(ValueError, match="line 5: second header"):
        loads_edge_list(retyped)
