"""The privacy-loss ledger (`tests/ledger.py`) on criterion 2's witness
pairs, which realize the difference-sequence sensitivity exactly, and on
random node-neighbouring pairs."""
import dataclasses
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    diff_sequence_sensitivity,
    per_release_sensitivity,
)
from dpgraphseq.errors import InfeasibleThresholdError, UnsupportedBaselineQueryError
from dpgraphseq.mechanisms import plan

from ledger import privacy_loss
from test_statistics import _all_queries, raw_batches
from witnesses import directed_high_degree_pair, undirected_high_degree_pair


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
@given(node_neighbours())
def test_node_neighbours_lose_at_most_epsilon(pair):
    base, extra = pair
    assume(base.horizon >= 1)
    # G' respects its own largest counters, and G, its subgraph, does too.
    cap_in, cap_out = (max(c, 1) for c in extra.degree_walk.largest)
    bounds = (
        DegreeBounds.directed(cap_in, cap_out) if base.directed
        else DegreeBounds.undirected(cap_out)
    )
    for mechanism, rule in (("sensdiff", diff_sequence_sensitivity),
                            ("compose_bounded", per_release_sensitivity)):
        for query in _all_queries(base.directed):
            try:
                rule(query, bounds)
            except (UnsupportedBaselineQueryError, InfeasibleThresholdError):
                continue
            plans = [plan(mechanism, seq, query, bounds) for seq in pair]
            for epsilon in (1.0, 0.5):
                loss = privacy_loss(*plans, epsilon)
                assert loss <= epsilon * (1 + 1e-9), (mechanism, query.label(), loss)
