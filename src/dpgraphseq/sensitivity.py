"""Closed-form global sensitivities, as one catalog.

Three regimes:
  * diff_sequence  — L1 sensitivity of the whole difference sequence under a
    public degree bound (what the single-budget mechanism uses);
  * per_release    — bounded sensitivity of one release f(G_t) (composition
    baseline);
  * per_release_projected — sensitivity of one release computed on the
    greedily projected graph.

`_CATALOG` maps (regime, statistic, directed) to a formula id and a value
function of the caps (cap_in, cap_out) and star size k.  At an undirected
bound's caps (D, D) every directed formula but the edge count's gives the
undirected one, so such twins share it.  Binomials use C(n, r) = 0 for
r > n, which makes the star formulas total (a star larger than the degree
bound cannot occur).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import InfeasibleThresholdError, UnsupportedBaselineQueryError
from .graph_core import DegreeBounds
from .projection import ProjectionThresholds
from .statistics import StatisticQuery


def binom(n: int, r: int) -> int:
    """C(n, r), zero when r > n or either argument is negative."""
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


@dataclass(frozen=True)
class SensitivityReport:
    value: int
    formula_id: str
    regime: str  # "diff_sequence" | "per_release" | "per_release_projected"
    query: StatisticQuery
    bounds: Union[DegreeBounds, ProjectionThresholds]


def _out_star(i, o, k):
    """New out-k-stars of an added node: its own, and one per in-neighbour."""
    return i * binom(o - 1, k - 1) + binom(o, k)


# Value functions of the caps (i, o) = (cap_in, cap_out) and the star size k
# that several rows share: the edge count's D and D_in + D_out in every
# regime, and the formulas an undirected row shares with its directed twin.
_CAP = lambda i, o, k: o
_CAP_SUM = lambda i, o, k: i + o
_DIFF_HIGH = lambda i, o, k: 2 * i + 1
_HISTOGRAM = lambda i, o, k: 4 * o * i + 2 * o + 1
_RELEASE_HIGH = lambda i, o, k: i + 1
_PROJECTED_HIGH = lambda i, o, k: max(i + 1, o - 1)

_DIFF, _RELEASE, _PROJECTED = "diff_sequence", "per_release", "per_release_projected"

# (regime, statistic, directed) -> (formula id, value function).  Subgraph
# counts in the diff_sequence regime are the most new copies one extra
# bound-respecting node can create.
_CATALOG = {
    (_DIFF, "high_degree", False): ("diff/high_degree/2D+1", _DIFF_HIGH),
    (_DIFF, "high_degree", True): ("diff/high_out_degree/2Din+1", _DIFF_HIGH),
    (_DIFF, "degree_histogram", False): ("diff/degree_histogram/4D^2+2D+1", _HISTOGRAM),
    (_DIFF, "degree_histogram", True): (
        "diff/out_degree_histogram/4DoutDin+2Dout+1",
        _HISTOGRAM,
    ),
    (_DIFF, "edge", False): ("diff/edge/D", _CAP),
    (_DIFF, "edge", True): ("diff/edge/Din+Dout", _CAP_SUM),
    (_DIFF, "triangle", False): ("diff/triangle/C(D,2)", lambda i, o, k: binom(o, 2)),
    (_DIFF, "triangle_i", True): ("diff/triangle_i/DinDout", lambda i, o, k: i * o),
    # Every new transitive triangle uses two of the added node's incident
    # edges and one forced base edge -- except that a pair of two in-edges (or
    # two out-edges) admits both base-edge directions, so those pairs count
    # twice.  C(Din+Dout, 2) alone undercounts exactly there.
    (_DIFF, "triangle_ii", True): (
        "diff/triangle_ii/DinDout+2C(Din,2)+2C(Dout,2)",
        lambda i, o, k: i * o + 2 * binom(i, 2) + 2 * binom(o, 2),
    ),
    (_DIFF, "k_star", False): ("diff/k_star/DC(D-1,k-1)+C(D,k)", _out_star),
    (_DIFF, "out_k_star", True): (
        "diff/out_k_star/DinC(Dout-1,k-1)+C(Dout,k)",
        _out_star,
    ),
    # An in-star is an out-star of the transposed digraph: caps swapped.
    (_DIFF, "in_k_star", True): (
        "diff/in_k_star/DoutC(Din-1,k-1)+C(Din,k)",
        lambda i, o, k: _out_star(o, i, k),
    ),
    (_RELEASE, "high_degree", False): ("per_release/high_degree/D+1", _RELEASE_HIGH),
    (_RELEASE, "high_degree", True): (
        "per_release/high_out_degree/Din+1",
        _RELEASE_HIGH,
    ),
    (_RELEASE, "edge", False): ("per_release/edge/D", _CAP),
    (_RELEASE, "edge", True): ("per_release/edge/Din+Dout", _CAP_SUM),
    (_PROJECTED, "high_degree", False): ("projected/high_degree/D~+1", _PROJECTED_HIGH),
    (_PROJECTED, "high_degree", True): (
        "projected/high_out_degree/max(Din~+1,Dout~-1)",
        _PROJECTED_HIGH,
    ),
    (_PROJECTED, "edge", False): ("projected/edge/D~", _CAP),
    (_PROJECTED, "edge", True): ("projected/edge/Din~+Dout~", _CAP_SUM),
}

# Per regime: what its caps bound, and its message for a query it lacks.
_REGIMES = {
    _DIFF: ("", "pattern {pattern!r} incompatible with the given bounds"),
    _RELEASE: ("", "no per-release sensitivity for {label}"),
    _PROJECTED: ("projected ", "no projected sensitivity for {label}"),
}


def _lookup(regime: str, query: StatisticQuery, bounds: DegreeBounds):
    """The catalog row for `query` under `bounds`, evaluated at their caps."""
    capped, missing = _REGIMES[regime]
    row = _CATALOG.get((regime, query.pattern or query.kind, bounds.is_directed))
    if row is None:
        raise UnsupportedBaselineQueryError(
            missing.format(pattern=query.pattern, label=query.label())
        )
    cap_in, cap_out = bounds.caps
    if query.kind == "high_degree" and query.tau > cap_out:
        side = "out-degree" if bounds.is_directed else "degree"
        raise InfeasibleThresholdError(
            f"threshold tau={query.tau} exceeds the {capped}{side} bound "
            f"{cap_out}: no node can reach it"
        )
    formula_id, value = row
    return SensitivityReport(
        value(cap_in, cap_out, query.k), formula_id, regime, query, bounds
    )


def diff_sequence_sensitivity(
    query: StatisticQuery, bounds: DegreeBounds
) -> SensitivityReport:
    """Global sensitivity of the difference sequence under `bounds`."""
    return _lookup(_DIFF, query, bounds)


def per_release_sensitivity(
    query: StatisticQuery, bounds: DegreeBounds
) -> SensitivityReport:
    """Bounded global sensitivity of a single release f(G_t)."""
    return _lookup(_RELEASE, query, bounds)


def projected_sensitivity(
    query: StatisticQuery, thresholds: ProjectionThresholds
) -> SensitivityReport:
    """Global sensitivity of a single release computed on the projection."""
    return _lookup(_PROJECTED, query, thresholds)
