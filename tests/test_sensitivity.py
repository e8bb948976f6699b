"""Closed-form sensitivity catalog: values, formula ids, and error paths."""
import pytest

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from dpgraphseq.errors import InfeasibleThresholdError, UnsupportedBaselineQueryError
from dpgraphseq.sensitivity import _CATALOG, binom

from test_acceptance import CRITERION_1_BOUNDS, _catalog_queries

# Rows no oracle certifies yet: the two single-release regimes.
NOT_YET_CERTIFIED = {
    "per_release/high_degree/D+1",
    "per_release/high_out_degree/Din+1",
    "per_release/edge/D",
    "per_release/edge/Din+Dout",
    "projected/high_degree/D~+1",
    "projected/high_out_degree/max(Din~+1,Dout~-1)",
    "projected/edge/D~",
    "projected/edge/Din~+Dout~",
}


def q(pattern, k=None):
    return StatisticQuery.subgraph(pattern, k)


def test_binom_is_total():
    assert binom(5, 2) == 10
    assert binom(2, 5) == 0
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0


@pytest.mark.parametrize(
    "query,d,expected",
    [
        (StatisticQuery.high_degree(1), 4, 9),  # 2D+1
        (StatisticQuery.degree_histogram(), 3, 43),  # 4D^2+2D+1
        (q("edge"), 7, 7),  # D
        (q("triangle"), 5, 10),  # C(D,2)
        (q("k_star", 2), 4, 18),  # D*C(D-1,k-1)+C(D,k)
        (q("k_star", 1), 3, 6),  # 2D when k=1
        (q("k_star", 4), 3, 0),  # star larger than the bound
    ],
)
def test_undirected_diff_values(query, d, expected):
    report = diff_sequence_sensitivity(query, DegreeBounds.undirected(d))
    assert report.value == expected
    assert report.regime == "diff_sequence"


@pytest.mark.parametrize(
    "query,din,dout,expected",
    [
        (StatisticQuery.high_degree(1), 3, 2, 7),  # 2Din+1
        (StatisticQuery.degree_histogram(), 3, 2, 29),  # 4DoutDin+2Dout+1
        (q("edge"), 3, 4, 7),  # Din+Dout
        (q("triangle_i"), 3, 4, 12),  # Din*Dout
        (q("triangle_ii"), 3, 4, 30),  # DinDout + 2C(Din,2) + 2C(Dout,2)
        (q("out_k_star", 2), 2, 3, 7),  # Din*C(Dout-1,k-1)+C(Dout,k)
        (q("in_k_star", 2), 3, 2, 7),  # Dout*C(Din-1,k-1)+C(Din,k)
        (q("out_k_star", 3), 2, 2, 0),
    ],
)
def test_directed_diff_values(query, din, dout, expected):
    report = diff_sequence_sensitivity(query, DegreeBounds.directed(din, dout))
    assert report.value == expected


def test_formula_ids_are_stable():
    und = DegreeBounds.undirected(2)
    dr = DegreeBounds.directed(2, 3)
    assert (
        diff_sequence_sensitivity(StatisticQuery.high_degree(1), und).formula_id
        == "diff/high_degree/2D+1"
    )
    assert (
        diff_sequence_sensitivity(q("triangle_ii"), dr).formula_id
        == "diff/triangle_ii/DinDout+2C(Din,2)+2C(Dout,2)"
    )
    assert (
        per_release_sensitivity(q("edge"), und).formula_id == "per_release/edge/D"
    )
    assert (
        projected_sensitivity(
            StatisticQuery.high_degree(1), ProjectionThresholds.directed(2, 3)
        ).formula_id
        == "projected/high_out_degree/max(Din~+1,Dout~-1)"
    )


def test_infeasible_threshold_rejected():
    with pytest.raises(InfeasibleThresholdError):
        diff_sequence_sensitivity(
            StatisticQuery.high_degree(4), DegreeBounds.undirected(3)
        )
    # Directed feasibility is against the out-degree bound only.
    with pytest.raises(InfeasibleThresholdError):
        diff_sequence_sensitivity(
            StatisticQuery.high_degree(3), DegreeBounds.directed(5, 2)
        )
    ok = diff_sequence_sensitivity(
        StatisticQuery.high_degree(2), DegreeBounds.directed(5, 2)
    )
    assert ok.value == 11
    with pytest.raises(InfeasibleThresholdError):
        per_release_sensitivity(
            StatisticQuery.high_degree(4), DegreeBounds.undirected(3)
        )
    with pytest.raises(InfeasibleThresholdError):
        projected_sensitivity(
            StatisticQuery.high_degree(4), ProjectionThresholds.undirected(3)
        )


def test_per_release_values_and_unsupported_queries():
    und = DegreeBounds.undirected(4)
    dr = DegreeBounds.directed(3, 2)
    assert per_release_sensitivity(StatisticQuery.high_degree(2), und).value == 5
    assert per_release_sensitivity(StatisticQuery.high_degree(1), dr).value == 4
    assert per_release_sensitivity(q("edge"), und).value == 4
    assert per_release_sensitivity(q("edge"), dr).value == 5
    for bad in (q("triangle"), q("k_star", 2), StatisticQuery.degree_histogram()):
        with pytest.raises(UnsupportedBaselineQueryError):
            per_release_sensitivity(bad, und)


def test_projected_values_and_unsupported_queries():
    und = ProjectionThresholds.undirected(4)
    dr = ProjectionThresholds.directed(2, 5)
    assert projected_sensitivity(StatisticQuery.high_degree(2), und).value == 5
    # max(Din~+1, Dout~-1) = max(3, 4)
    assert projected_sensitivity(StatisticQuery.high_degree(1), dr).value == 4
    assert projected_sensitivity(q("edge"), und).value == 4
    assert projected_sensitivity(q("edge"), dr).value == 7
    with pytest.raises(UnsupportedBaselineQueryError):
        projected_sensitivity(q("triangle"), und)


def test_pattern_incompatible_with_bounds():
    with pytest.raises(UnsupportedBaselineQueryError):
        diff_sequence_sensitivity(q("triangle"), DegreeBounds.directed(2, 2))
    with pytest.raises(UnsupportedBaselineQueryError):
        diff_sequence_sensitivity(q("triangle_i"), DegreeBounds.undirected(2))


def test_every_catalog_row_is_certified_or_listed():
    # Criterion 1 checks every formula its catalog queries reach against the
    # oracle, so each diff_sequence row must be reached there; the others
    # must be listed as not yet certified.
    reached = {
        diff_sequence_sensitivity(query, bounds).formula_id
        for bounds in CRITERION_1_BOUNDS
        for query in _catalog_queries(bounds)
    }
    ids = [formula_id for formula_id, _ in _CATALOG.values()]
    assert len(set(ids)) == len(ids) == 20
    for (regime, statistic, directed), (formula_id, _) in _CATALOG.items():
        certified = reached if regime == "diff_sequence" else NOT_YET_CERTIFIED
        assert formula_id in certified, (regime, statistic, directed)
    assert NOT_YET_CERTIFIED <= set(ids)
    assert not NOT_YET_CERTIFIED & reached
