"""Sensitivities: the degree rule and the catalog, values, ids and error paths."""
import json

import numpy as np
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
from dpgraphseq.sensitivity import _CATALOG, _degree_tv

from bruteforce import degree_maxima
from test_acceptance import CRITERION_1_BOUNDS, _catalog_queries
from test_golden import GOLDEN_ORACLE, _bound_name

# Formulas no oracle certifies yet: the two single-release regimes.
NOT_YET_CERTIFIED = {
    "per_release/degree_tv",
    "projected/high_degree/D~+1",
    "projected/high_out_degree/max(Din~+1,Dout~-1)",
    "projected/edge/D~",
    "projected/edge/Din~+Dout~",
}


def q(pattern, k=None):
    return StatisticQuery.subgraph(pattern, k)


@pytest.mark.parametrize(
    "query,d,expected",
    [
        (StatisticQuery.high_degree(1), 4, 9),  # 2D+1 below the cap
        (StatisticQuery.degree_histogram(), 3, 37),  # 4D^2+1
        (q("edge"), 7, 7),  # D
        (q("triangle"), 5, 10),  # C(D,2)
        (q("k_star", 2), 4, 18),  # D*C(D-1,k-1)+C(D,k)
        (q("k_star", 1), 3, 6),  # 2D when k=1
        (q("k_star", 4), 3, 0),  # star larger than the bound
        (StatisticQuery.high_degree(4), 4, 5),  # D+1 at the cap
    ],
)
def test_undirected_diff_values(query, d, expected):
    report = diff_sequence_sensitivity(query, DegreeBounds.undirected(d))
    assert report.value == expected
    assert report.regime == "diff_sequence"


@pytest.mark.parametrize(
    "query,din,dout,expected",
    [
        (StatisticQuery.high_degree(1), 3, 2, 7),  # 2Din+1 below the cap
        (StatisticQuery.degree_histogram(), 3, 2, 23),  # 4DoutDin+2Dout-2Din+1
        (q("edge"), 3, 4, 7),  # Din+Dout
        (q("triangle_i"), 3, 4, 12),  # Din*Dout
        (q("triangle_ii"), 3, 4, 30),  # DinDout + 2C(Din,2) + 2C(Dout,2)
        (q("out_k_star", 2), 2, 3, 7),  # Din*C(Dout-1,k-1)+C(Dout,k)
        (q("in_k_star", 2), 3, 2, 7),  # Dout*C(Din-1,k-1)+C(Din,k)
        (q("out_k_star", 3), 2, 2, 0),
        (StatisticQuery.high_degree(2), 3, 2, 4),  # Din+1 at the cap
    ],
)
def test_directed_diff_values(query, din, dout, expected):
    report = diff_sequence_sensitivity(query, DegreeBounds.directed(din, dout))
    assert report.value == expected


def test_formula_ids_are_stable():
    und = DegreeBounds.undirected(2)
    dr = DegreeBounds.directed(2, 3)
    for query in (StatisticQuery.high_degree(1), q("k_star", 2)):
        assert diff_sequence_sensitivity(query, und).formula_id == "diff/degree_tv"
    for query in (StatisticQuery.degree_histogram(), q("in_k_star", 2)):
        assert diff_sequence_sensitivity(query, dr).formula_id == "diff/degree_tv"
    assert (
        diff_sequence_sensitivity(q("triangle_ii"), dr).formula_id
        == "diff/triangle_ii/DinDout+2C(Din,2)+2C(Dout,2)"
    )
    assert (
        per_release_sensitivity(q("edge"), und).formula_id == "per_release/degree_tv"
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
    assert ok.value == 6  # D_in + 1 at tau = d_out
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
    assert len(set(ids)) == len(ids) == 7
    # The degree rule's ids, one per regime it answers.
    ids += ["diff/degree_tv", "per_release/degree_tv"]
    for formula_id in ids:
        certified = reached if formula_id.startswith("diff/") else NOT_YET_CERTIFIED
        assert formula_id in certified, formula_id
    assert NOT_YET_CERTIFIED <= set(ids)
    assert not NOT_YET_CERTIFIED & reached


# The rule's only gaps to the oracle on criterion 1's catalog (n=5, t=3):
# histograms, whose oracle values still rise with the step budget.
HISTOGRAM_GAPS = {
    ("D2", "degree_histogram"): (15, 17),
    ("D3", "degree_histogram"): (31, 37),
    ("in1out3", "degree_histogram"): (15, 17),
    ("in2out3", "degree_histogram"): (23, 27),
    ("in3out3", "degree_histogram"): (31, 37),
}


def test_degree_rule_meets_the_recorded_oracle_except_five_histograms():
    oracle = json.loads(GOLDEN_ORACLE.read_text())
    gaps = {}
    for bounds in CRITERION_1_BOUNDS:
        for query in _catalog_queries(bounds):
            report = diff_sequence_sensitivity(query, bounds)
            if report.formula_id != "diff/degree_tv":
                continue
            key = (_bound_name(bounds), query.label())
            value = oracle[key[0]][key[1]]
            assert report.value >= value, key
            if report.value != value:
                gaps[key] = (value, report.value)
    assert gaps == HISTOGRAM_GAPS


# ~3 s in all, ~1.8 s of it the directed (3, 3) configuration walk.
@pytest.mark.parametrize("bounds", CRITERION_1_BOUNDS, ids=_bound_name)
def test_degree_rule_holds_for_arbitrary_tables(bounds):
    # The proof uses no property of g: score 300 random integer tables on
    # 0..cap_out as columns of one configuration walk, and the brute-force
    # maximum stays within the rule for each.
    cap_in, cap_out = bounds.caps
    tables = np.random.default_rng(cap_in * 10 + cap_out).integers(
        -3, 4, size=(cap_out + 1, 300)
    )
    maxima = degree_maxima(bounds, 4, 3, tables=tables)
    for j, column in enumerate(tables.T):
        assert maxima[j] <= _degree_tv("diff_sequence", column.tolist(), cap_in), column
