"""The privacy-loss ledger (`tests/ledger.py`) on criterion 2's witness
pairs, which realize the difference-sequence sensitivity exactly."""
import math

import pytest

from dpgraphseq import DegreeBounds, ProjectionThresholds, StatisticQuery
from dpgraphseq.mechanisms import plan

from ledger import privacy_loss
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
