"""Sequence ingestion, snapshots, bound checks, and the edge-list format."""
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from dpgraphseq.generators import (
    PaTransmissionParams,
    SirParams,
    generate_pa_transmission,
    generate_sir_transmission,
)
from dpgraphseq.graph_core import canonical_edge

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
    assert text.startswith("H undirected 3\n")
    back = loads_edge_list(text)
    assert back == seq


@st.composite
def gapped_sequences(draw):
    """Sequences with empty steps drawn in after each batch: interior steps
    and trailing ones.  Nodes are sorted within a batch, as the loader
    stores them; a drawn empty time-0 batch makes the sequence start at 1,
    since the format has no record for it."""
    directed, batches = draw(raw_batches())
    start = batches[0][0]
    if start == 0 and not batches[0][1]:
        start = 1
    steps = []
    for _, nodes, edges in batches:
        steps.append((sorted(nodes), edges))
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
        # The loader stores each batch's nodes sorted.
        want = build_sequence(
            seq.directed, [(b.time, sorted(b.nodes), b.edges) for b in seq.batches]
        )
        assert loads_edge_list(dumps_edge_list(seq)) == want


def test_declared_horizon_keeps_steps_as_written():
    seq = loads_edge_list("H directed 5\nN a 2\nN b 3\nE a b\n")
    assert (seq.start_time, seq.horizon) == (1, 5)
    assert seq.node_time == {"a": 2, "b": 3}
    assert [b.nodes for b in seq.batches] == [(), ("a",), ("b",), (), ()]
    assert seq.batch_at(3).edges == (("a", "b"),)
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
    # The loader sorts each batch's nodes, and starts at 0 only for a
    # time-0 node.
    assume(seq.batches[0].nodes or seq.start_time == 1)
    seq = build_sequence(
        seq.directed, [(b.time, sorted(b.nodes), b.edges) for b in seq.batches]
    )
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
    # A stable sort: records whose keys tie keep their order.
    for i in sorted(range(len(records)), key=key.__getitem__):
        lines += [rnd.choice(_SKIPPED) for _ in range(rnd.randrange(3))]
        lines.append(rnd.choice(("", " ", "\t")) + records[i] + rnd.choice(("", "  ")))
    assert loads_edge_list("\n".join(lines)) == seq


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
