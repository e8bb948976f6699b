"""Global sensitivities: one rule for the degree statistics, a catalog for the rest.

Three regimes:
  * diff_sequence  — L1 sensitivity of the whole difference sequence under a
    public degree bound (what the single-budget mechanism uses);
  * per_release    — bounded sensitivity of one release f(G_t) (composition
    baseline);
  * per_release_projected — sensitivity of one release computed on the
    greedily projected graph.

A degree statistic is f = sum over nodes of g(degree), g defined once in
`statistics._degree_table` (the histogram's g is the one-bin map {d: 1}).
In the first two regimes one total-variation rule, `_degree_tv`, gives its
sensitivity from g.  `_CATALOG` holds formulas for the rest: the triangle
patterns and the projected regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add, sub
from typing import Union

from .errors import InfeasibleThresholdError, UnsupportedBaselineQueryError
from .graph_core import DegreeBounds, ProjectionThresholds
from .statistics import StatisticQuery, _degree_table


@dataclass(frozen=True)
class SensitivityReport:
    value: int
    formula_id: str
    regime: str  # "diff_sequence" | "per_release" | "per_release_projected"
    query: StatisticQuery
    bounds: Union[DegreeBounds, ProjectionThresholds]


_PROJECTED_HIGH = lambda i, o: max(i + 1, o - 1)

_DIFF, _RELEASE, _PROJECTED = "diff_sequence", "per_release", "per_release_projected"

# (regime, statistic, directed) -> (formula id, value function of the caps
# (i, o) = (cap_in, cap_out)).  Subgraph counts in the diff_sequence regime
# are the most new copies one extra bound-respecting node can create.  Caps
# are >= 1 (`DegreeBounds` refuses less), so `comb` sees no negative.
_CATALOG = {
    (_DIFF, "triangle", False): ("diff/triangle/C(D,2)", lambda i, o: comb(o, 2)),
    (_DIFF, "triangle_i", True): ("diff/triangle_i/DinDout", lambda i, o: i * o),
    # Every new transitive triangle uses two of the added node's incident
    # edges and one forced base edge -- except that a pair of two in-edges (or
    # two out-edges) admits both base-edge directions, so those pairs count
    # twice.  C(Din+Dout, 2) alone undercounts exactly there.
    (_DIFF, "triangle_ii", True): (
        "diff/triangle_ii/DinDout+2C(Din,2)+2C(Dout,2)",
        lambda i, o: i * o + 2 * comb(i, 2) + 2 * comb(o, 2),
    ),
    (_PROJECTED, "high_degree", False): ("projected/high_degree/D~+1", _PROJECTED_HIGH),
    (_PROJECTED, "high_degree", True): (
        "projected/high_out_degree/max(Din~+1,Dout~-1)",
        _PROJECTED_HIGH,
    ),
    (_PROJECTED, "edge", False): ("projected/edge/D~", lambda i, o: o),
    (_PROJECTED, "edge", True): ("projected/edge/Din~+Dout~", lambda i, o: i + o),
}

# Per regime: its formula-id prefix, what its caps bound, and its message
# for a query it lacks.
_REGIMES = {
    _DIFF: ("diff", "", "pattern {pattern!r} incompatible with the given bounds"),
    _RELEASE: ("per_release", "", "no per-release sensitivity for {label}"),
    _PROJECTED: ("projected", "projected ", "no projected sensitivity for {label}"),
}
# (regime, directed) -> the degree statistics `_degree_tv` answers there;
# per_release takes no stars or histograms until an oracle certifies it.
_RULE_COVERS = {
    (_DIFF, False): {"high_degree", "degree_histogram", "edge", "k_star"},
    (_DIFF, True): {"high_degree", "degree_histogram", "edge", "out_k_star", "in_k_star"},
    (_RELEASE, False): {"high_degree", "edge"},
    (_RELEASE, True): {"high_degree", "edge"},
}

# Difference and L1 norm of sparse histogram bin maps.
_bins_minus = lambda x, y: {b: x.get(b, 0) - y.get(b, 0) for b in x.keys() | y.keys()}
_bins_norm = lambda x: sum(map(abs, x.values()))


def _reach(norms: list[int], steps: list[int]) -> int:
    """max over a of norms[a] + steps[a] + ... + steps[-1]."""
    return max(map(add, reversed(norms), accumulate(reversed(steps), initial=0)))


def _degree_tv(regime: str, g: list, cap_in: int) -> int:
    """Sensitivity of f = sum over nodes of g(degree), for g on 0..cap_out.

    g(d) is an int, or a sparse bin map measured in L1 (the histogram).
    Proof sketch: with v the added node, h(t) = f(G'_t) - f(G_t) is v's
    term g(d_v(t)) from v's arrival on, plus, for each of the <= cap_in
    nodes w whose counted degree v raises, Δg(d_w(t)) = g(d_w + 1) - g(d_w)
    from their edge's step on.  d_v stays in [0, cap_out], d_w (without v)
    in [0, cap_out - 1], and both only rise.  So one release moves by at
    most max |g| + cap_in * max |Δg| (per_release).  The L1 distance of the
    difference sequences is h's total variation from h = 0; a term entering
    at a varies by at most its entry plus its variation over [a, top], so

        GS <= max_a (|g(a)| + TV_[a, cap_out] g)
              + cap_in * max_a (|Δg(a)| + TV_[a, cap_out - 1] Δg).

    Neither bound uses a property of g.
    """
    minus, norm = (_bins_minus, _bins_norm) if isinstance(g[0], dict) else (sub, abs)
    dg = list(map(minus, g[1:], g))
    g_norms, dg_norms = list(map(norm, g)), list(map(norm, dg))
    if regime == _RELEASE:
        return max(g_norms) + cap_in * max(dg_norms)
    ddg_norms = list(map(norm, map(minus, dg[1:], dg)))
    return _reach(g_norms, dg_norms) + cap_in * _reach(dg_norms, ddg_norms)


def _lookup(regime: str, query: StatisticQuery, bounds: DegreeBounds):
    """The rule's or the catalog's answer for `query` at the bound's caps."""
    prefix, capped, missing = _REGIMES[regime]
    statistic, directed = query.pattern or query.kind, bounds.is_directed
    row = _CATALOG.get((regime, statistic, directed))
    if row is None and statistic not in _RULE_COVERS.get((regime, directed), ()):
        raise UnsupportedBaselineQueryError(
            missing.format(pattern=query.pattern, label=query.label())
        )
    # An in-star is an out-star of the transposed digraph: caps swapped.
    cap_in, cap_out = bounds.caps[::-1] if statistic == "in_k_star" else bounds.caps
    if query.kind == "high_degree" and query.tau > cap_out:
        side = "out-degree" if directed else "degree"
        raise InfeasibleThresholdError(
            f"threshold tau={query.tau} exceeds the {capped}{side} bound "
            f"{cap_out}: no node can reach it"
        )
    if row is not None:
        formula_id, value = row
        return SensitivityReport(value(cap_in, cap_out), formula_id, regime, query, bounds)
    value = _degree_tv(regime, _degree_table(query, cap_out), cap_in)
    # The undirected edge count is half the degree sum.
    if statistic == "edge" and not directed:
        value //= 2
    return SensitivityReport(value, f"{prefix}/degree_tv", regime, query, bounds)


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
