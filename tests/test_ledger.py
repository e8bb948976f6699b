"""The privacy-loss ledger (`tests/ledger.py`) on criterion 2's witness
pairs, which realize the difference-sequence sensitivity exactly, on the
degree histogram's witness family, on random node-neighbouring pairs
(planned directly and through `release_parameters`, as the CLI plans), and
on a pair of which one side aborts."""
import dataclasses
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
    verify_bounds,
)
from dpgraphseq.errors import InfeasibleThresholdError, UnsupportedBaselineQueryError
from dpgraphseq.harness import release_parameters
from dpgraphseq.mechanisms import plan

from bruteforce import _naive_diff_distance
from ledger import pair_loss, privacy_loss
from test_statistics import _all_queries, raw_batches
from witnesses import (
    directed_high_degree_pair,
    undirected_high_degree_pair,
    undirected_histogram_pair,
)


def _witness_pairs():
    for d in (2, 3):
        for tau in range(1, d):
            yield pytest.param(
                *undirected_high_degree_pair(d, tau), StatisticQuery.high_degree(tau),
                DegreeBounds.undirected(d), id=f"D{d}-tau{tau}",
            )
    for d_in in (2, 3):
        for d_out in (2, 3):
            yield pytest.param(
                *directed_high_degree_pair(d_in), StatisticQuery.high_degree(1),
                DegreeBounds.directed(d_in, d_out), id=f"in{d_in}out{d_out}",
            )


WITNESSES = list(_witness_pairs())


@pytest.mark.parametrize("epsilon", [1.0, 0.5])
@pytest.mark.parametrize("base, extra, query, bounds", WITNESSES)
def test_sensdiff_loses_exactly_epsilon_on_the_witnesses(base, extra, query, bounds,
                                                         epsilon):
    # One release of the difference sequence: the witness spends the whole
    # budget, no more and no less.
    loss = privacy_loss(
        plan("sensdiff", base, query, bounds), plan("sensdiff", extra, query, bounds),
        epsilon,
    )
    assert loss == epsilon


@pytest.mark.parametrize("epsilon", [1.0, 0.5])
@pytest.mark.parametrize("base, extra, query, bounds", WITNESSES)
def test_compose_bounded_loses_at_most_epsilon_on_the_witnesses(base, extra, query,
                                                                bounds, epsilon):
    loss = privacy_loss(
        plan("compose_bounded", base, query, bounds),
        plan("compose_bounded", extra, query, bounds),
        epsilon,
    )
    assert 0 < loss <= epsilon


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_the_histogram_witnesses_lose_their_distance_over_the_rule(d):
    base, extra = undirected_histogram_pair(d)
    query, bounds = StatisticQuery.degree_histogram(), DegreeBounds.undirected(d)
    assert verify_bounds(extra, bounds) is None
    distance = _naive_diff_distance(
        query, False, base.node_time, base.edges, extra.node_time, extra.edges,
        extra.horizon,
    )
    rule = diff_sequence_sensitivity(query, bounds).value
    if d == 1:
        assert distance == rule == 5
    else:
        assert distance == rule - 2 == 4 * d * d - 1
    plans = [plan("sensdiff", seq, query, bounds) for seq in (base, extra)]
    for epsilon in (1.0, 0.5):
        assert privacy_loss(*plans, epsilon) == distance / rule * epsilon


def test_a_realized_error_pick_is_not_covered():
    base, extra = undirected_high_degree_pair(3, 1)
    query = StatisticQuery.high_degree(1)
    grid = (ProjectionThresholds.undirected(2), ProjectionThresholds.undirected(3))
    picked = [plan("compose_projection", seq, query, candidates=grid)
              for seq in (base, extra)]
    assert privacy_loss(*picked, 1.0) is None
    fixed = plan("compose_projection", extra, query, thresholds=grid[1])
    assert privacy_loss(picked[0], fixed, 1.0) is None
    assert privacy_loss(fixed, picked[0], 1.0) is None


def test_unequal_scales_lose_without_bound():
    base, extra = undirected_high_degree_pair(2, 1)
    query = StatisticQuery.high_degree(1)
    loss = privacy_loss(
        plan("sensdiff", base, query, DegreeBounds.undirected(2)),
        plan("sensdiff", extra, query, DegreeBounds.undirected(3)),
        1.0,
    )
    assert loss == math.inf


def test_a_zero_scale_release_loses_nothing_on_equal_series():
    # k_star:3 cannot move under D = 1: sensitivity 0, so scale 0.
    query, bounds = StatisticQuery.subgraph("k_star", 3), DegreeBounds.undirected(1)
    base = build_sequence(False, [(1, [], [])])
    extra = build_sequence(False, [(1, ["x"], [])])
    plans = [plan("sensdiff", seq, query, bounds) for seq in (base, extra)]
    assert plans[0].arms[0].scale(1.0) == 0
    assert privacy_loss(*plans, 1.0) == 0.0
    # A deterministic release of a different series is told apart for sure.
    (arm,) = plans[1].arms
    moved = dataclasses.replace(plans[1], arms=(
        dataclasses.replace(arm, series=arm.series + 1),
    ))
    assert privacy_loss(plans[0], moved, 1.0) == math.inf


def test_an_abort_on_one_side_loses_without_bound():
    # G is the edge a-b, within D = 1; G' adds x linked to a, which crosses it.
    base = build_sequence(False, [(1, ["a", "b"], [("a", "b")])])
    extra = build_sequence(False, [(1, ["a", "b", "x"], [("a", "b"), ("x", "a")])])
    query = StatisticQuery.subgraph("edge")
    for mechanism in ("sensdiff", "compose_bounded"):
        def make(seq, d=1):
            return plan(mechanism, seq, query, DegreeBounds.undirected(d))

        assert pair_loss(make, base, extra, 1.0) == math.inf
        assert pair_loss(make, extra, base, 1.0) == math.inf
        # Two aborts are the same output; under D = 2 neither side aborts.
        assert pair_loss(make, extra, extra, 1.0) == 0.0
        within = pair_loss(lambda seq: make(seq, 2), base, extra, 1.0)
        assert within == privacy_loss(make(base, 2), make(extra, 2), 1.0) <= 1.0


def _through_release_parameters(mechanism, seq, query, bounds, thresholds):
    """`plan` of a promised bound and fixed thresholds, the CLI's way."""
    fixed = () if thresholds is None else (thresholds,)
    query, bounds, candidates = release_parameters(
        seq, query, (mechanism,), None, bounds, 5, fixed
    )
    return plan(mechanism, seq, query, bounds, candidates=candidates)


@st.composite
def node_neighbours(draw):
    """(G, G'): a random sequence, and it plus one node x with edges to up
    to four of its nodes, each edge in the batch of its later endpoint."""
    directed, batches = draw(raw_batches())
    step = draw(st.integers(0, len(batches) - 1))
    arrival = {n: i for i, (_, nodes, _) in enumerate(batches) for n in nodes}
    grown = [(t, list(nodes), list(edges)) for t, nodes, edges in batches]
    grown[step][1].append("x")
    for w in draw(st.lists(st.sampled_from(sorted(arrival)), max_size=4, unique=True)
                  if arrival else st.just([])):
        edge = ("x", w) if not directed or draw(st.booleans()) else (w, "x")
        grown[max(step, arrival[w])][2].append(edge)
    return build_sequence(directed, batches), build_sequence(directed, grown)


@settings(max_examples=100, deadline=None)
@given(node_neighbours(), st.integers(1, 3), st.integers(1, 3))
# x sends to and receives from v0: the projected edge count moves by
# Din~ + Dout~ = 2 at thresholds (1, 1), the whole budget.
@example((build_sequence(True, [(1, ["v0"], [])]),
          build_sequence(True, [(1, ["v0", "x"], [("x", "v0"), ("v0", "x")])])), 1, 1)
# x links to v0 and v1 at D~ = 2: the projected edge count moves by D~ = 2
# and high_degree(1) by D~ + 1 = 3, each the whole budget.
@example((build_sequence(False, [(1, ["v0", "v1"], [])]),
          build_sequence(False, [(1, ["v0", "v1", "x"], [("x", "v0"), ("x", "v1")])])),
         1, 2)
def test_node_neighbours_lose_at_most_epsilon(pair, th_in, th_out):
    base, extra = pair
    assume(base.horizon >= 1)
    # G' respects its own largest counters, and G, its subgraph, does too.
    cap_in, cap_out = (max(c, 1) for c in extra.degree_walk.largest)
    if base.directed:
        bounds = DegreeBounds.directed(cap_in, cap_out)
        thresholds = ProjectionThresholds.directed(th_in, th_out)
    else:
        bounds = DegreeBounds.undirected(cap_out)
        thresholds = ProjectionThresholds.undirected(th_out)
    # compose_projection at fixed thresholds, on the queries with a
    # projected formula; its loss is evidence, not a certificate.
    for mechanism, rule, fixed in (
        ("sensdiff", diff_sequence_sensitivity, None),
        ("compose_bounded", per_release_sensitivity, None),
        ("compose_projection", projected_sensitivity, thresholds),
    ):
        for query in _all_queries(base.directed):
            try:
                rule(query, fixed or bounds)
            except (UnsupportedBaselineQueryError, InfeasibleThresholdError):
                continue
            plans = [plan(mechanism, seq, query, bounds, fixed) for seq in pair]
            cli_plans = [_through_release_parameters(mechanism, seq, query, bounds, fixed)
                         for seq in pair]
            for epsilon in (1.0, 0.5):
                for label, both in (("plan", plans), ("cli", cli_plans)):
                    loss = privacy_loss(*both, epsilon)
                    assert loss <= epsilon * (1 + 1e-9), (
                        mechanism, label, query.label(), loss
                    )
