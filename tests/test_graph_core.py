"""Sequence ingestion, snapshots, bound checks, and the edge-list format."""
import copy
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpgraphseq import (
    DegreeBounds,
    GraphSequence,
    ProjectionThresholds,
    build_sequence,
    dumps_edge_list,
    ingest_step,
    loads_edge_list,
    snapshot,
    verify_bounds,
)
from dpgraphseq.errors import (
    BoundViolationError,
    DanglingEdgeError,
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeToFutureNodeError,
    SelfLoopError,
    TimeOutOfRangeError,
)
from dpgraphseq.generators import (
    PaTransmissionParams,
    SirParams,
    generate_pa_transmission,
    generate_sir_transmission,
)
from dpgraphseq.graph_core import _walk, canonical_edge

from bruteforce import degrees
from test_statistics import raw_batches, sequences


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
    assert seq.batches[1].edges == (("b", "c"), ("a", "c"))


def test_first_batch_may_sit_at_time_zero():
    seq = ingest_step(GraphSequence.empty(False), 0, ["seed"], [])
    seq = ingest_step(seq, 1, ["x"], [("seed", "x")])
    assert seq.start_time == 0
    assert seq.horizon == 1


@pytest.mark.parametrize("t", [2, -1, 5])
def test_first_batch_time_must_be_zero_or_one(t):
    with pytest.raises(TimeOutOfRangeError):
        ingest_step(GraphSequence.empty(False), t, ["a"], [])


@pytest.mark.parametrize("t", [1.0, True, np.int64(1)])
def test_batch_times_must_be_ints(t):
    # Each would otherwise pass for time 1, and a float time would be
    # written into a header that `loads_edge_list` refuses.
    with pytest.raises(TypeError, match="^batch time must be an int"):
        build_sequence(False, [(t, ["x"], [])])
    with pytest.raises(TypeError, match="^batch time must be an int"):
        ingest_step(GraphSequence.empty(True), t, ["x"])
    seeded = ingest_step(GraphSequence.empty(False), 0, ["s"])
    with pytest.raises(TypeError, match="^batch time must be an int"):
        ingest_step(seeded, t, ["x"], [("s", "x")])


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
    assert d.batches[0].edges == (("a", "b"), ("b", "a"))
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


# Faulty batches: the first fault wins.  Batches are checked in time order:
# the batch time first, then its nodes in order, then its edges in order,
# each edge for a self-loop, an undeclared tail, an undeclared head, no
# endpoint in the batch, then a repeat of an earlier edge of the batch.
_BAD_BATCHES = {
    "self-loop": (False, [(1, ["a"], [("a", "a")])], SelfLoopError, "self-loop on 'a'"),
    "self-loop-on-undeclared-node": (
        True, [(1, ["a"], [("x", "x")])], SelfLoopError, "self-loop on 'x'"
    ),
    "undeclared-tail": (
        True,
        [(1, ["a"], [("ghost", "a")])],
        DanglingEdgeError,
        "edge endpoint 'ghost' never declared",
    ),
    "undeclared-head": (
        True,
        [(1, ["a"], [("a", "phantom")])],
        DanglingEdgeError,
        "edge endpoint 'phantom' never declared",
    ),
    "undeclared-tail-before-head": (
        False,
        [(1, ["a"], [("y", "x")])],
        DanglingEdgeError,
        "edge endpoint 'y' never declared",
    ),
    "no-endpoint-in-batch": (
        True,
        [(1, ["a", "b"], []), (2, ["c"], [("a", "b")])],
        EdgeToFutureNodeError,
        "edge ('a', 'b') has no endpoint in the current batch",
    ),
    "no-endpoint-names-the-edge-as-sent": (
        False,
        [(1, ["a", "b"], []), (2, ["c"], [("c", "a"), ("b", "a")])],
        EdgeToFutureNodeError,
        "edge ('b', 'a') has no endpoint in the current batch",
    ),
    "duplicate-edge": (
        True,
        [(1, ["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])],
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
    "undirected-reversed-pair": (
        False,
        [(1, ["a", "b"], [("b", "a"), ("a", "b")])],
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
    "node-declared-earlier": (
        False,
        [(1, ["a"], []), (2, ["b", "a"], [])],
        DuplicateNodeError,
        "node 'a' already declared",
    ),
    "node-repeated-in-batch": (
        False,
        [(1, ["x", "y", "x"], [])],
        DuplicateNodeError,
        "node 'x' already declared",
    ),
    "node-fault-before-edge-fault": (
        False,
        [(1, ["a", "a"], [("a", "a")])],
        DuplicateNodeError,
        "node 'a' already declared",
    ),
    "batch-time-before-node-fault": (
        False,
        [(2, ["a", "a"], [("a", "a")])],
        TimeOutOfRangeError,
        "first batch time must be 0 or 1, got 2",
    ),
    "duplicate-before-self-loop": (
        False,
        [(1, ["a", "b"], [("a", "b"), ("b", "a"), ("a", "a")])],
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
    "self-loop-before-duplicate": (
        False,
        [(1, ["a", "b"], [("a", "b"), ("b", "b"), ("a", "b")])],
        SelfLoopError,
        "self-loop on 'b'",
    ),
    "duplicate-before-undeclared": (
        True,
        [(1, ["a", "b"], [("a", "b"), ("a", "b"), ("a", "ghost")])],
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
    "undeclared-before-no-endpoint": (
        True,
        [(1, ["a", "b"], []), (2, ["c"], [("c", "ghost"), ("a", "b")])],
        DanglingEdgeError,
        "edge endpoint 'ghost' never declared",
    ),
    "no-endpoint-before-self-loop": (
        True,
        [(1, ["a", "b"], []), (2, ["c"], [("b", "a"), ("c", "c")])],
        EdgeToFutureNodeError,
        "edge ('b', 'a') has no endpoint in the current batch",
    ),
    "duplicate-before-malformed-edge": (
        False,
        [(1, ["a", "b"], [("a", "b"), ("a", "b"), ("a",)])],
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
    "earlier-batch-wins": (
        False,
        [
            (1, ["a", "b"], [("a", "b"), ("b", "a")]),
            (2, ["c"], [("c", "c")]),
            (4, ["d"], []),
        ],
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
    "earlier-batch-time-wins": (
        True,
        [(1, ["a"], []), (3, ["b"], [("b", "b")])],
        TimeOutOfRangeError,
        "expected batch time 2, got 3",
    ),
}


def _one_shot(batches):
    """The batches, and each batch's nodes and edges, as one-shot generators."""
    return (
        (t, (n for n in nodes), (e for e in edges)) for t, nodes, edges in batches
    )


def _streamed(directed, batches):
    seq = GraphSequence.empty(directed)
    for t, nodes, edges in batches:
        seq = ingest_step(seq, t, nodes, edges)
    return seq


@pytest.mark.parametrize("one_shot", [False, True], ids=["tuples", "generators"])
@pytest.mark.parametrize("build", [build_sequence, _streamed], ids=["build", "ingest"])
@pytest.mark.parametrize(
    "directed, batches, error, message",
    list(_BAD_BATCHES.values()),
    ids=list(_BAD_BATCHES),
)
def test_batch_fault_order(directed, batches, error, message, build, one_shot):
    if one_shot:
        batches = _one_shot(batches)
    else:
        batches = [(t, tuple(nodes), tuple(edges)) for t, nodes, edges in batches]
    with pytest.raises(error) as info:
        build(directed, batches)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("build", [build_sequence, _streamed], ids=["build", "ingest"])
def test_one_shot_batches_build_the_same_sequence(build):
    batches = [
        (0, ["s"], []),
        (1, ["a", "b"], [("b", "a"), ("s", "a")]),
        (2, [], []),
        (3, ["c"], [("c", "b"), ("a", "c")]),
    ]
    for directed in (False, True):
        want = build_sequence(directed, batches)
        got = build(directed, _one_shot(batches))
        assert got == want
        assert list(got.node_time.items()) == list(want.node_time.items())


def test_node_time_is_a_copy_that_no_ingest_changes():
    parent = small_seq()
    before = parent.node_time
    child = ingest_step(parent, 4, ["e"], [("e", "a")])
    assert before == {"a": 1, "b": 1, "c": 2, "d": 3}
    assert child.node_time == {**before, "e": 4}
    got = child.node_time
    got["ghost"] = 9
    del got["a"]
    assert child.node_time == {**before, "e": 4}
    # A node put into a handed-out map is not declared: an edge to it dangles.
    with pytest.raises(DanglingEdgeError):
        ingest_step(child, 5, ["f"], [("f", "ghost")])


def test_ingest_moves_the_node_time_map_to_the_child():
    parent = small_seq()
    times = parent._node_times
    shallow, deep = copy.copy(parent), copy.deepcopy(parent)
    child = ingest_step(parent, 4, ["e"])
    assert child.__dict__["_node_times"] is times
    assert "_node_times" not in parent.__dict__
    # Asked again, the parent rebuilds its own map from its batches.
    assert parent._node_times == {"a": 1, "b": 1, "c": 2, "d": 3}
    assert parent._node_times is not times
    assert times == {"a": 1, "b": 1, "c": 2, "d": 3, "e": 4}
    # No copy shares the map that moved.
    for other in (shallow, deep):
        assert other == parent
        assert other.node_time == {"a": 1, "b": 1, "c": 2, "d": 3}


# One fault per row, in the batch that `small_seq()` would take next.
_FAILED_INGESTS = {
    "duplicate-node": ((4, ["e", "a"], []), DuplicateNodeError),
    "self-loop": ((4, ["e", "f"], [("e", "a"), ("f", "f")]), SelfLoopError),
    "bad-batch-time": ((5, ["e"], []), TimeOutOfRangeError),
    "unhashable-node": ((4, ["e", ["f"]], []), TypeError),
    "unhashable-endpoint": ((4, ["e"], [("e", ["a"])]), TypeError),
    "bare-str-nodes": ((4, "ef", []), TypeError),
}


@pytest.mark.parametrize(
    "batch, error", list(_FAILED_INGESTS.values()), ids=list(_FAILED_INGESTS)
)
def test_failed_ingest_leaves_the_parent_unchanged(batch, error):
    parent = small_seq()
    before = list(parent.node_time.items())
    with pytest.raises(error):
        ingest_step(parent, *batch)
    assert list(parent.node_time.items()) == before
    child = ingest_step(parent, 4, ["e"], [("e", "c")])
    batches = [(b.time, b.nodes, b.edges) for b in parent.batches]
    want = build_sequence(False, batches + [(4, ["e"], [("e", "c")])])
    assert child == want
    assert list(child.node_time.items()) == list(want.node_time.items())
    assert child.degree_walk == want.degree_walk


@pytest.mark.parametrize("build", [build_sequence, _streamed], ids=["build", "ingest"])
@pytest.mark.parametrize("field", ["nodes", "edges"])
@pytest.mark.parametrize("text", ["v1", b"v1", ""], ids=["str", "bytes", "empty-str"])
def test_bare_text_is_no_batch_collection(build, field, text):
    batch = (2, text, []) if field == "nodes" else (2, ["v1", "v2"], text)
    kind = type(text).__name__
    message = f"batch at time 2: {field} must be a collection, not a bare {kind}"
    with pytest.raises(TypeError) as info:
        build(False, [(1, ["a"], []), batch])
    assert str(info.value) == message


# The faults a batch drawn below may carry, each with the error it raises.
_DRAWN_FAULTS = {
    "duplicate-node": DuplicateNodeError,
    "self-loop": SelfLoopError,
    "bad-batch-time": TimeOutOfRangeError,
    "unhashable-node": TypeError,
    "bare-str-nodes": TypeError,
}


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.data())
def test_interleaved_ingests_match_a_dict_model(directed, data):
    """Ingests on the newest sequence and on older ones, failed ingests and
    reads, in any order: each sequence matches its batches."""
    # Every sequence made so far, with the batches it was built from.
    pool = [(GraphSequence.empty(directed), [])]
    fresh = (f"n{i}" for i in itertools.count())
    for _ in range(data.draw(st.integers(1, 12), label="ops")):
        newest = len(pool) - 1
        i = data.draw(st.one_of(st.just(newest), st.integers(0, newest)), label="seq")
        seq, batches = pool[i]
        model = {n: t for t, nodes, _ in batches for n in nodes}
        op = data.draw(st.sampled_from(["ingest", "fault", "node_time", "degree_walk"]))
        if op == "node_time":
            assert list(seq.node_time.items()) == list(model.items())
            continue
        if op == "degree_walk":
            assert seq.degree_walk == build_sequence(directed, batches).degree_walk
            continue
        t = seq.horizon + 1 if batches else data.draw(st.sampled_from((0, 1)))
        new = [next(fresh) for _ in range(data.draw(st.integers(0, 2)))]
        names = list(model) + new
        pairs = [(a, b) for a in names for b in names if a != b and (a in new or b in new)]
        edges = []
        if pairs:
            unique = (lambda e: e) if directed else frozenset
            edges = data.draw(st.lists(st.sampled_from(pairs), max_size=4, unique_by=unique))
        if op == "ingest":
            pool.append((ingest_step(seq, t, new, edges), batches + [(t, new, edges)]))
            continue
        fault = data.draw(st.sampled_from(sorted(_DRAWN_FAULTS)))
        nodes = new
        if fault == "duplicate-node":
            # An earlier node declared again, or one node twice in the batch.
            dup = next(iter(model), "x")
            nodes = new + [dup, dup]
        elif fault == "self-loop":
            loop = next(fresh)
            nodes, edges = new + [loop], edges + [(loop, loop)]
        elif fault == "bad-batch-time":
            t = t + 1 if batches else 2
        elif fault == "unhashable-node":
            nodes = new + [[next(fresh)]]
        else:
            nodes = "".join(new) or "x"
        with pytest.raises(_DRAWN_FAULTS[fault]):
            ingest_step(seq, t, nodes, edges)
    for seq, batches in pool:
        want = build_sequence(directed, batches)
        assert seq == want
        assert list(seq.node_time.items()) == list(want.node_time.items())
        assert seq.degree_walk == want.degree_walk


def test_one_more_ingest_allocates_in_the_batch_size():
    """A clock-free guard: no ingest copies the node-time map.

    After 2,000 steps of 10 nodes, one more one-node step must allocate
    well under what a copy of the 20,000-node map would (over 400 KB).
    The 20,001st entry needs no resize of the map's table.
    """
    seq = GraphSequence.empty(False)
    for t in range(1, 2001):
        nodes = [f"v{t}.{i}" for i in range(10)]
        seq = ingest_step(seq, t, nodes, [(nodes[0], f"v{t - 1}.0")] if t > 1 else [])
    nodes, edges = ["last"], [("last", "v2000.0")]
    tracemalloc.start()
    try:
        ingest_step(seq, 2001, nodes, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_snapshot_accumulates_batches():
    seq = small_seq()
    g1 = snapshot(seq, 1)
    g3 = snapshot(seq, 3)
    assert g1.nodes == ("a", "b")
    assert g1.num_edges == 1
    assert g3.num_nodes == 4
    assert g3.num_edges == 4
    assert degrees(g3)[0]["c"] == 3
    with pytest.raises(TimeOutOfRangeError):
        snapshot(seq, 4)
    with pytest.raises(TimeOutOfRangeError, match=r"time 0 outside \[1, 3\]"):
        snapshot(seq, 0)
    with pytest.raises(TimeOutOfRangeError, match=r"time 1 outside \[None, 0\]"):
        snapshot(GraphSequence.empty(), 1)


def test_directed_snapshot_degrees():
    seq = build_sequence(True, [(1, ["a", "b", "c"], [("a", "b"), ("c", "b")])])
    out, inn = degrees(snapshot(seq, 1))
    assert out["a"] == 1
    assert inn["b"] == 2
    assert out["b"] + inn["b"] == 2


@settings(max_examples=200, deadline=None)
@given(raw_batches())
def test_snapshot_is_the_sequence_of_the_first_batches(drawn):
    directed, batches = drawn
    seq = build_sequence(directed, batches)
    for k, (t, _, _) in enumerate(batches):
        g = snapshot(seq, t)
        assert type(g) is GraphSequence
        assert g == build_sequence(directed, batches[: k + 1])
        assert g.nodes == tuple(n for _, nodes, _ in batches[: k + 1] for n in nodes)
        assert g.num_nodes == sum(len(nodes) for _, nodes, _ in batches[: k + 1])
        assert g.num_edges == sum(len(edges) for _, _, edges in batches[: k + 1])
        assert g.edges == tuple(
            canonical_edge(u, v, directed)
            for _, _, edges in batches[: k + 1]
            for u, v in edges
        )


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
    with pytest.raises(BoundViolationError, match="^bound mode does not match"):
        verify_bounds(seq, DegreeBounds.undirected(2))


@settings(max_examples=200, deadline=None)
@given(sequences(), st.integers(1, 3), st.integers(1, 3))
def test_verify_bounds_matches_snapshot_degrees(seq, d_in, d_out):
    if seq.directed:
        bounds = DegreeBounds.directed(d_in, d_out)
        caps = {"out": d_out, "in": d_in}
    else:
        bounds = DegreeBounds.undirected(d_out)
        caps = {"degree": d_out}

    def over(g):
        out, inn = degrees(g)
        side = {"out": out, "in": inn, "degree": out}
        return {
            (v, kind)
            for v in g.nodes
            for kind, cap in caps.items()
            if side[kind][v] > cap
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
        out, inn = degrees(snapshot(seq, batch.time))
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


def _directed_seq():
    return build_sequence(
        True,
        [
            (1, ["a", "b"], [("a", "b")]),
            (2, ["c"], [("c", "a"), ("b", "c"), ("a", "c")]),
            (3, ["d"], [("d", "c"), ("c", "d"), ("d", "a")]),
        ],
    )


@pytest.mark.parametrize("seq", [small_seq(), _directed_seq()], ids=["undirected", "directed"])
def test_walks_start_from_copies_of_a_cached_zero_map(seq):
    steps = [batch.edges for batch in seq.batches]
    walks = [seq.degree_walk] + [
        _walk(seq, steps, *caps) for caps in [(1, 1), (1, 2), (2, 1), (3, 3)]
    ]
    zeros = seq.__dict__["_zero_counts"]
    assert zeros == dict.fromkeys(seq.node_time, 0)
    assert list(zeros) == list(seq.node_time)
    for walk in walks:
        assert walk.out is not zeros and walk.inn is not zeros
        assert (walk.out is walk.inn) == (not seq.directed)
        assert list(walk.out) == list(walk.inn) == list(seq.node_time)
    # At the tightest caps each node keeps at most one edge on each side.
    assert max(walks[1].out.values()) == max(walks[1].inn.values()) == 1
    assert seq.degree_walk.out != zeros


@settings(max_examples=200, deadline=None)
@given(sequences())
@example(GraphSequence.empty(False))
@example(GraphSequence.empty(True))
@example(build_sequence(False, [(0, ["a"], []), (1, ["b", "c"], [])]))
@example(build_sequence(True, [(1, ["a", "b"], [])]))
def test_walks_record_their_largest_counters(seq):
    steps = [batch.edges for batch in seq.batches]
    if seq.directed:
        caps = list(itertools.product((1, 2, 3), repeat=2))
    else:
        caps = [(d, d) for d in (1, 2, 3)]
    walks = [seq.degree_walk] + [_walk(seq, steps, *c) for c in caps]
    # The uncapped walk admits every edge, in arrival order.
    assert seq.degree_walk.edges == seq.edges
    for walk in walks:
        assert walk.largest == (
            max(walk.inn.values(), default=0),
            max(walk.out.values(), default=0),
        )


def test_zero_map_cache_is_neither_compared_nor_inherited():
    parent = small_seq()
    zeros = parent._zero_counts
    assert parent._zero_counts is zeros
    fresh = GraphSequence(directed=False, batches=parent.batches)
    assert "_zero_counts" not in fresh.__dict__
    assert fresh == parent
    child = ingest_step(parent, 4, ["e"], [("e", "c")])
    assert "_zero_counts" not in child.__dict__
    assert child.degree_walk.out == {"a": 2, "b": 2, "c": 4, "d": 1, "e": 1}
    assert child._zero_counts == dict.fromkeys("abcde", 0)
    assert parent._zero_counts is zeros and zeros == dict.fromkeys("abcd", 0)


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


@pytest.mark.parametrize(
    "cls, caps, message",
    [
        (DegreeBounds, (2.5,), "DegreeBounds: d must be an int, not float"),
        (DegreeBounds, (True,), "DegreeBounds: d must be an int, not bool"),
        (DegreeBounds, (2, 3.0), "DegreeBounds: d_out must be an int, not float"),
        (DegreeBounds, (np.int64(2), 3), "DegreeBounds: d_in must be an int, not int64"),
        (
            ProjectionThresholds,
            (False, 2),
            "ProjectionThresholds: d_in must be an int, not bool",
        ),
    ],
)
def test_degree_bounds_refuse_caps_that_are_not_ints(cls, caps, message):
    # A cap indexes the degree tables g(0..cap) of the sensitivity rule.
    make = cls.undirected if len(caps) == 1 else cls.directed
    with pytest.raises(TypeError) as info:
        make(*caps)
    assert str(info.value) == message


def test_edge_list_round_trip():
    seq = small_seq()
    text = dumps_edge_list(seq)
    assert text.startswith("H undirected 3\n")
    back = loads_edge_list(text)
    assert back == seq


@st.composite
def gapped_sequences(draw):
    """Sequences with empty steps drawn in after each batch: interior steps
    and trailing ones.  A drawn empty time-0 batch makes the sequence start
    at 1, since the format has no record for it."""
    directed, batches = draw(raw_batches())
    start = batches[0][0]
    if start == 0 and not batches[0][1]:
        start = 1
    steps = []
    for _, nodes, edges in batches:
        steps.append((nodes, edges))
        steps += [([], [])] * draw(st.integers(0, 2))
    return build_sequence(
        directed, [(start + i, nodes, edges) for i, (nodes, edges) in enumerate(steps)]
    )


@settings(max_examples=200, deadline=None)
@given(gapped_sequences())
def test_edge_list_round_trip_keeps_empty_steps(seq):
    assert loads_edge_list(dumps_edge_list(seq)) == seq


def test_dumps_refuses_an_empty_time_zero_batch():
    seq = build_sequence(False, [(0, [], []), (1, ["a"], [])])
    with pytest.raises(ValueError, match="an empty time-0 batch has no record"):
        dumps_edge_list(seq)


def test_generated_fixtures_load_back_unchanged():
    # Criteria 5 and 8 release over these; the SIR ones end in empty steps.
    fixtures = [
        generate_pa_transmission(PaTransmissionParams(m0=50, arrivals=20, years=20), 0),
        generate_sir_transmission(SirParams(population=1000, max_steps=200), 33),
        generate_pa_transmission(PaTransmissionParams(m0=20, arrivals=10, years=8), 0),
        generate_sir_transmission(
            SirParams(population=300, initial_infected=3, max_steps=30), 0
        ),
    ]
    assert fixtures[-1].horizon == 11
    for seq in fixtures:
        assert loads_edge_list(dumps_edge_list(seq)) == seq


def test_declared_horizon_keeps_steps_as_written():
    seq = loads_edge_list("H directed 5\nN a 2\nN b 3\nE a b\n")
    assert (seq.start_time, seq.horizon) == (1, 5)
    assert seq.node_time == {"a": 2, "b": 3}
    assert [b.nodes for b in seq.batches] == [(), ("a",), ("b",), (), ()]
    assert seq.batches[2].edges == (("a", "b"),)
    seq = loads_edge_list("H undirected 2\nN a 0\n")
    assert [b.time for b in seq.batches] == [0, 1, 2]
    assert loads_edge_list("H undirected 0\n") == GraphSequence.empty(False)
    assert loads_edge_list("H undirected 2\n").horizon == 2


def test_two_field_header_keeps_its_span_rule():
    # Two node records allow a span of 200 steps; one more is refused.
    assert loads_edge_list("H undirected\nN a 1\nN b 200\n").horizon == 200
    with pytest.raises(TimeOutOfRangeError, match="line 2: node time 201 "):
        loads_edge_list("H undirected\nN b 201\nN a 1\n")


@pytest.mark.parametrize(
    "nodes, edges, bad",
    [
        pytest.param([node, "c"], [(node, "c")], node, id=node)
        for node in ("a b", "", "a\tb", " a", "a\n")
    ]
    + [
        pytest.param([1, 2], [(1, 2)], 1, id="int"),
        pytest.param(["1", 1], [], 1, id="int-beside-its-str"),
    ],
)
def test_dumps_refuses_node_ids_the_format_cannot_carry(nodes, edges, bad):
    # Records are whitespace-split and every id loads back as a str, so an
    # id with whitespace, or one that is not a str, would not load back.
    seq = build_sequence(False, [(1, nodes, edges)])
    with pytest.raises(ValueError, match=re.escape(f"node id {bad!r} ")):
        dumps_edge_list(seq)


# Lines the loader skips: blank ones and comments, indented or not.
_SKIPPED = ("", "   ", "\t", "# a comment", "   # N x 1", "\t#E a b")


@settings(max_examples=200, deadline=None)
@given(sequences(), st.randoms(use_true_random=False))
def test_edge_list_loads_back_from_any_record_order(seq, rnd):
    # The loader starts at 0 only for a time-0 node.
    assume(seq.batches[0].nodes or seq.start_time == 1)
    header, *records = dumps_edge_list(seq).splitlines()
    # dumps writes each batch's N records, then its E records.  Edge order
    # within a batch is part of the sequence, so the E records of one batch
    # keep their relative order; every other pair of records may swap.
    group = []
    for batch in seq.batches:
        group += [None] * len(batch.nodes) + [batch.time] * len(batch.edges)
    key = [rnd.random() for _ in records]
    for t in {g for g in group if g is not None}:
        slots = [i for i, g in enumerate(group) if g == t]
        for i, k in zip(slots, sorted(key[i] for i in slots)):
            key[i] = k
    lines = [rnd.choice(_SKIPPED) for _ in range(rnd.randrange(3))] + [header]
    # Each batch lists its nodes in the order of their shuffled N records.
    nodes_at = {batch.time: [] for batch in seq.batches}
    # A stable sort: records whose keys tie keep their order.
    for i in sorted(range(len(records)), key=key.__getitem__):
        tag, name, *rest = records[i].split()
        if tag == "N":
            nodes_at[int(rest[0])].append(name)
        lines += [rnd.choice(_SKIPPED) for _ in range(rnd.randrange(3))]
        lines.append(rnd.choice(("", " ", "\t")) + records[i] + rnd.choice(("", "  ")))
    want = build_sequence(
        seq.directed, [(b.time, nodes_at[b.time], b.edges) for b in seq.batches]
    )
    assert loads_edge_list("\n".join(lines)) == want


@settings(max_examples=200, deadline=None)
@given(sequences(), st.data())
def test_parse_equals_stream(seq, data):
    # The loader starts at 0 only for a time-0 node.
    assume(seq.batches[0].nodes or seq.start_time == 1)
    text = dumps_edge_list(seq)
    parsed = loads_edge_list(text)
    streamed = _streamed(seq.directed, [(b.time, b.nodes, b.edges) for b in seq.batches])
    assert parsed == streamed
    assert list(parsed.node_time.items()) == list(streamed.node_time.items())
    assert list(parsed._zero_counts) == list(streamed._zero_counts)
    assert parsed.degree_walk == streamed.degree_walk

    # One faulty line appended: a self-loop on a node, or a repeat of an
    # edge (reversed when undirected).  It joins the end of the batch of
    # its later endpoint, and the loader reports what `build_sequence` does
    # on those batches.
    edges = [(b.time, e) for b in seq.batches for e in b.edges]
    nodes = list(parsed.node_time)
    assume(nodes)
    if edges and data.draw(st.booleans()):
        t, (u, v) = data.draw(st.sampled_from(edges))
        extra = (u, v) if seq.directed else (v, u)
    else:
        u = data.draw(st.sampled_from(nodes))
        t, extra = parsed.node_time[u], (u, u)
    batches = [
        (b.time, b.nodes, b.edges + ((extra,) if b.time == t else ()))
        for b in seq.batches
    ]
    with pytest.raises((SelfLoopError, DuplicateEdgeError)) as want:
        build_sequence(seq.directed, batches)
    with pytest.raises(type(want.value)) as got:
        loads_edge_list(text + "E {} {}\n".format(*extra))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def _text(directed, batches):
    """Edge-list text of (t, nodes, edges) triples, edges as sent."""
    lines = ["H " + ("directed" if directed else "undirected")]
    for t, nodes, edges in batches:
        lines += [f"N {n} {t}" for n in nodes] + [f"E {u} {v}" for u, v in edges]
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(raw_batches())
def test_stored_edges_are_canonical(drawn):
    directed, batches = drawn
    built = build_sequence(directed, batches)
    ingested = GraphSequence.empty(directed)
    for t, nodes, edges in batches:
        ingested = ingest_step(ingested, t, nodes, edges)
    parsed = loads_edge_list(_text(directed, batches))
    for seq in (built, ingested, parsed):
        for batch in seq.batches:
            for u, v in batch.edges:
                assert canonical_edge(u, v, directed) == (u, v)


# Malformed texts: the first fault wins.  Faults within one record (a node
# time outside a declared horizon among them) are found line by line, before
# any check that reads several records: the span of undeclared times first,
# dangling endpoints next, edge by edge in file order; then the batches are
# checked in time order.
_MALFORMED = {
    "self-loop": ("H undirected\nN a 1\nE a a\n", SelfLoopError, "self-loop on 'a'"),
    "undirected-both-ways": (
        "H undirected\nN a 1\nN b 1\nE a b\nE b a\n",
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
    "two-field-edge": (
        "H undirected\nN a 1\nE a\n", ValueError, "line 3: bad edge record 'E a'"
    ),
    "four-field-edge": (
        "H undirected\nN a 1\nN b 1\nE a b c\n",
        ValueError,
        "line 4: bad edge record 'E a b c'",
    ),
    "indented-bad-edge": (
        "H undirected\nN a 1\n   E  a \t\n",
        ValueError,
        "line 3: bad edge record 'E  a'",
    ),
    "unknown-tag": ("H undirected\nX a 1\n", ValueError, "line 2: unknown record tag 'X'"),
    "lowercase-tag": (
        "H undirected\nn a 1\n", ValueError, "line 2: unknown record tag 'n'"
    ),
    "missing-header": ("# no header\n\n", ValueError, "missing header line"),
    "empty-text": ("", ValueError, "missing header line"),
    "record-before-header": (
        "N a 1\nH undirected\n",
        ValueError,
        "line 1: header line must precede records",
    ),
    "bad-header": ("H sideways\n", ValueError, "line 1: bad header 'H sideways'"),
    "header-extra-field": (
        "  H directed x\n", ValueError, "line 1: bad header 'H directed x'"
    ),
    "second-header": (
        "H directed\nN a 1\nH directed\n",
        ValueError,
        "line 3: second header 'H directed'",
    ),
    "bad-node-record": ("H directed\nN a\n", ValueError, "line 2: bad node record 'N a'"),
    "bad-node-time": (
        "H directed\nN a 1.5\n", ValueError, "line 2: bad node time 'N a 1.5'"
    ),
    "header-negative-horizon": (
        "H directed -1\n", ValueError, "line 1: bad header 'H directed -1'"
    ),
    "header-two-horizons": (
        "H directed 3 4\n", ValueError, "line 1: bad header 'H directed 3 4'"
    ),
    "time-past-horizon": (
        "H undirected 11\nN a 1\nN b 12\n",
        TimeOutOfRangeError,
        "line 3: node time 12 outside [0, 11]",
    ),
    "time-before-zero": (
        "H undirected 3\n# early\nN a -1\n",
        TimeOutOfRangeError,
        "line 3: node time -1 outside [0, 3]",
    ),
    "time-out-of-range-before-bad-tag": (
        "H directed 1\nN a 2\nQ\n",
        TimeOutOfRangeError,
        "line 2: node time 2 outside [0, 1]",
    ),
    "span-beyond-the-records": (
        "H undirected\nN a 1\nN b 100001\nE a b\n",
        TimeOutOfRangeError,
        "line 3: node time 100001 makes the times span 100001 steps from time 1; "
        "without a horizon in the header, 2 node records allow a span of at "
        "most 200",
    ),
    "redeclared-node": (
        "H directed\nN a 1\nN a 1\n",
        DuplicateNodeError,
        "line 3: node 'a' re-declared",
    ),
    "dangling-tail": (
        "H directed\nN a 1\nE ghost a\n",
        DanglingEdgeError,
        "edge endpoint 'ghost' never declared",
    ),
    "dangling-head": (
        "H directed\nN a 1\nE a phantom\n",
        DanglingEdgeError,
        "edge endpoint 'phantom' never declared",
    ),
    "dangling-tail-before-head": (
        "H directed\nN a 1\nE x y\n",
        DanglingEdgeError,
        "edge endpoint 'x' never declared",
    ),
    "first-line-fault-wins": (
        "H directed\nN a x\nN b 1\nQ\n",
        ValueError,
        "line 2: bad node time 'N a x'",
    ),
    "record-fault-before-dangling": (
        "H directed\nN a 1\nE a ghost\nE a\n",
        ValueError,
        "line 4: bad edge record 'E a'",
    ),
    "redeclared-before-bad-tag": (
        "H directed\nN a 1\nN a 2\nZ\n",
        DuplicateNodeError,
        "line 3: node 'a' re-declared",
    ),
    "first-dangling-edge-wins": (
        "H directed\nN a 1\nE a x\nE y a\n",
        DanglingEdgeError,
        "edge endpoint 'x' never declared",
    ),
    "dangling-before-self-loop": (
        "H directed\nN a 1\nE a a\nE a ghost\n",
        DanglingEdgeError,
        "edge endpoint 'ghost' never declared",
    ),
    # With no node record and no horizon there are no steps, yet an edge
    # still names its first undeclared endpoint.
    "dangling-without-nodes": (
        "H undirected\nE a b\nE c c\n",
        DanglingEdgeError,
        "edge endpoint 'a' never declared",
    ),
    "dangling-without-nodes-directed": (
        "H directed\nE c c\nE a b\n",
        DanglingEdgeError,
        "edge endpoint 'c' never declared",
    ),
    "dangling-with-horizon": (
        "H undirected 3\nE a b\n",
        DanglingEdgeError,
        "edge endpoint 'a' never declared",
    ),
    "earlier-batch-wins": (
        "H directed\nN a 1\nN b 1\nN c 2\nE c c\nE a b\nE b b\nE a b\n",
        SelfLoopError,
        "self-loop on 'b'",
    ),
    "earlier-edge-in-batch-wins": (
        "H undirected\nN a 1\nN b 1\nE a b\nE b a\nE a a\n",
        DuplicateEdgeError,
        "edge ('a', 'b') already present",
    ),
}


@pytest.mark.parametrize(
    "text, error, message", list(_MALFORMED.values()), ids=list(_MALFORMED)
)
def test_edge_list_malformed_text_error(text, error, message):
    with pytest.raises(error) as info:
        loads_edge_list(text)
    assert type(info.value) is error
    assert str(info.value) == message


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
    assert seq.batches[1].nodes == ()
    assert seq.node_time == {"a": 1, "b": 1, "c": 4}
    # Edge time is the max endpoint time.
    assert seq.batches[3].edges == (("b", "c"),)


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
