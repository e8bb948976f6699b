"""Acceptance suite: eight end-to-end checks, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
The quantitative checks use fixed seeds, so the suite is deterministic.
"""
import itertools
import time

import numpy as np

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    build_view,
    canonical_ordering,
    count_high_degree,
    count_subgraph,
    degree_histogram,
    diff_sequence_sensitivity,
    evaluate,
    project_sequence,
    snapshot,
)
from dpgraphseq.generators import (
    PaTransmissionParams,
    SirParams,
    generate_pa_transmission,
    generate_sir_transmission,
)
from dpgraphseq.harness import ExperimentConfig, derive_bounds, run_experiment
from dpgraphseq.mechanisms import MechanismConfig, release
from dpgraphseq.oracle import oracle_diff_sensitivity

from bruteforce import count_directed, count_undirected
from witnesses import (
    chained_star_pair,
    directed_high_degree_pair,
    undirected_high_degree_pair,
)


def _verdict(label: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _diff_sequence(seq, query):
    values = [
        evaluate(query, snapshot(seq, t)) for t in range(1, seq.horizon + 1)
    ]
    return [values[0]] + [b - a for a, b in zip(values, values[1:])]


def _l1(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


# --- 1. closed-form catalog is never beaten by brute force ----------------


def _catalog_queries(bounds):
    d_out = bounds.d_out if bounds.is_directed else bounds.d
    queries = [StatisticQuery.high_degree(t) for t in range(1, d_out + 1)]
    queries.append(StatisticQuery.degree_histogram())
    patterns = (
        ("edge", "triangle_i", "triangle_ii")
        if bounds.is_directed
        else ("edge", "triangle")
    )
    queries += [StatisticQuery.subgraph(p) for p in patterns]
    stars = ("out_k_star", "in_k_star") if bounds.is_directed else ("k_star",)
    queries += [
        StatisticQuery.subgraph(p, k) for p in stars for k in (1, 2, 3)
    ]
    return queries


def test_criterion_1_sensitivity_catalog_upper_bounds_oracle():
    all_bounds = [DegreeBounds.undirected(d) for d in (1, 2, 3)]
    all_bounds += [
        DegreeBounds.directed(din, dout)
        for din, dout in itertools.product((1, 2, 3), repeat=2)
    ]
    start = time.perf_counter()
    entries = []
    for bounds in all_bounds:
        for query in _catalog_queries(bounds):
            oracle = oracle_diff_sensitivity(query, bounds, n_max=5, t_max=3)
            formula = diff_sequence_sensitivity(query, bounds).value
            entries.append((bounds, query.label(), oracle, formula))
    elapsed = time.perf_counter() - start
    violations = [e for e in entries if e[2] > e[3]]
    _verdict(
        f"criterion 1: oracle <= catalog for all bounds in {{1,2,3}} "
        f"(n<=5, t<=3), {elapsed:.0f}s <= 600s budget",
        not violations and elapsed <= 600,
    )
    # Entries the oracle does not reach are loose formulas or budget limits.
    below = [e for e in entries if e[2] < e[3]]
    reached = len(entries) - len(below)
    print(f"  oracle reaches {reached} of {len(entries)} catalog entries")
    for bounds, label, oracle, formula in below:
        if bounds.is_directed:
            name = f"in{bounds.d_in}out{bounds.d_out}"
        else:
            name = f"D{bounds.d}"
        print(f"  below: {name} {label}: oracle {oracle} vs catalog {formula}")


# --- 2. high-degree worst cases are achieved exactly -----------------------


def test_criterion_2_threshold_count_tightness_fixtures():
    ok = True
    for d in (2, 3):
        for tau in range(1, d):
            base, extra = undirected_high_degree_pair(d, tau)
            query = StatisticQuery.high_degree(tau)
            da, db = _diff_sequence(base, query), _diff_sequence(extra, query)
            ok &= da == [tau - 1, d + 1]
            ok &= db == [d + tau, 1]
            ok &= _l1(da, db) == 2 * d + 1
    for d_in in (2, 3):
        base, extra = directed_high_degree_pair(d_in)
        query = StatisticQuery.high_degree(1)
        da, db = _diff_sequence(base, query), _diff_sequence(extra, query)
        ok &= da == [0, d_in, 0]
        ok &= db == [d_in, 0, 1]
        ok &= _l1(da, db) == 2 * d_in + 1
    _verdict(
        "criterion 2: threshold-count fixtures realize 2D+1 and 2Din+1 "
        "for D, Din in {2,3}",
        ok,
    )


# --- 3. projection makes the difference sequence unstable ------------------


def test_criterion_3_projected_difference_sequence_instability():
    base, extra = chained_star_pair(releases=6, d_tilde=3)
    th = ProjectionThresholds.undirected(3)
    query = StatisticQuery.high_degree(3)

    def projected_diffs(seq):
        views = project_sequence(seq, canonical_ordering(seq), th)
        values = [count_high_degree(v, query.tau) for v in views]
        return [values[0]] + [b - a for a, b in zip(values, values[1:])]

    da, db = projected_diffs(base), projected_diffs(extra)
    ok = (
        da == [0, 2, 0, 2, 0, 2]
        and db == [1, 0, 2, 0, 2, 0]
        and _l1(da, db) == 11
    )
    _verdict(
        "criterion 3: chained-star projection flips every step "
        "(distance 2T-1 = 11 at T=6)",
        ok,
    )


# --- 4. released noise follows the advertised law ---------------------------


def test_criterion_4_partial_sum_noise_std():
    # 9-step chain, D=3 threshold count: GS = 2*3+1 = 7 at epsilon 1.
    from dpgraphseq import build_sequence

    batches = [(1, ["n1"], [])]
    for t in range(2, 10):
        batches.append((t, [f"n{t}"], [(f"n{t-1}", f"n{t}")]))
    seq = build_sequence(False, batches)
    bounds = DegreeBounds.undirected(3)
    query = StatisticQuery.high_degree(1)
    gs = diff_sequence_sensitivity(query, bounds).value
    assert gs == 7
    truth = float(evaluate(query, snapshot(seq, 9)))
    start = time.perf_counter()
    errors = np.empty(100_000)
    for trial in range(errors.size):
        series = release(
            "sensdiff",
            seq,
            query,
            MechanismConfig(epsilon=1.0, seed=0, trial_id=trial),
            bounds=bounds,
        )
        errors[trial] = series.estimates[-1] - truth
    elapsed = time.perf_counter() - start
    expected = np.sqrt(2) * gs * np.sqrt(9)  # 29.698
    std = errors.std()
    ok = abs(std - expected) / expected <= 0.02 and elapsed <= 60
    _verdict(
        f"criterion 4: sensdiff error std at t=9 is {std:.3f} vs "
        f"sqrt(2)*7*3 = {expected:.3f} (within 2%), {elapsed:.0f}s <= 60s",
        ok,
    )


# --- 5. utility ordering on the synthetic datasets --------------------------


def _synthetic_one():
    params = PaTransmissionParams(m0=50, arrivals=20, years=20)
    return generate_pa_transmission(params, seed=0)


def _synthetic_two():
    # Fixed seed picked so the epidemic survives long enough to release over.
    params = SirParams(population=1000, max_steps=200)
    return generate_sir_transmission(params, seed=33)


def _mean_errors(seq, dataset, epsilons, releases=20, trials=100):
    cfg = ExperimentConfig(
        dataset=dataset,
        seq=seq,
        query=StatisticQuery.subgraph("edge"),
        epsilons=epsilons,
        trials=trials,
        releases=releases,
    )
    _, summaries = run_experiment(cfg)
    return {(s.mechanism, s.epsilon): s.mean_error for s in summaries}


def test_criterion_5_utility_ordering():
    epsilons = (1.0, 2.0, 5.0, 10.0)
    start = time.perf_counter()
    ok = True
    lines = []
    for name, seq in (("synthetic-pa", _synthetic_one()), ("synthetic-sir", _synthetic_two())):
        means = _mean_errors(seq, name, epsilons)
        for eps in epsilons:
            sens = means[("sensdiff", eps)]
            comp = means[("compose_bounded", eps)]
            proj = means[("compose_projection", eps)]
            ok &= sens < comp
            lines.append(
                f"  {name} eps={eps:g}: sensdiff={sens:.2f} "
                f"compose_bounded={comp:.2f} compose_projection={proj:.2f}"
            )
    elapsed = time.perf_counter() - start
    print()
    for line in lines:
        print(line)
    _verdict(
        f"criterion 5: mean error sensdiff < compose_bounded at every "
        f"epsilon on both datasets ({elapsed:.0f}s <= 300s)",
        ok and elapsed <= 300,
    )


# --- 6. error growth with the number of releases ----------------------------


def test_criterion_6_error_growth_slopes():
    params = PaTransmissionParams(m0=50, arrivals=20, years=40)
    seq = generate_pa_transmission(params, seed=0)
    horizons = (5, 10, 20, 40)
    means = {"sensdiff": [], "compose_bounded": []}
    for releases in horizons:
        cfg = ExperimentConfig(
            dataset="growth",
            seq=seq,
            query=StatisticQuery.subgraph("edge"),
            epsilons=(5.0,),
            mechanisms=("sensdiff", "compose_bounded"),
            trials=100,
            releases=releases,
        )
        _, summaries = run_experiment(cfg)
        for s in summaries:
            means[s.mechanism].append(s.mean_error)
    slopes = {
        m: float(np.polyfit(np.log(horizons), np.log(v), 1)[0])
        for m, v in means.items()
    }
    # Bands calibrated once from reference runs of this fixture, then frozen:
    # the cumulative-noise argument puts sensdiff near T^1.5 and uniform
    # budget splitting near T^2 when the data span is held fixed.
    ok = (
        1.2 <= slopes["sensdiff"] <= 1.8
        and 1.7 <= slopes["compose_bounded"] <= 2.3
        and slopes["sensdiff"] < slopes["compose_bounded"]
    )
    _verdict(
        f"criterion 6: log-log error slopes vs T: sensdiff "
        f"{slopes['sensdiff']:.2f} in [1.2, 1.8], compose_bounded "
        f"{slopes['compose_bounded']:.2f} in [1.7, 2.3], ordered",
        ok,
    )


# --- 7. exact statistics agree with exhaustive enumeration ------------------


def test_criterion_7_statistics_vs_enumeration():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        directed = bool(rng.integers(2))
        if directed:
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        else:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = rng.random(len(pairs)) < 0.4
        edges = [p for p, keep in zip(pairs, mask) if keep]
        g = build_view(
            directed,
            {f"n{i}": 1 for i in range(n)},
            [(f"n{u}", f"n{v}") for u, v in edges],
        )
        nodes, named = list(g.nodes), list(g.edges)
        if directed:
            for p in ("edge", "triangle_i", "triangle_ii"):
                ok &= count_subgraph(g, p) == count_directed(p, nodes, named)
            for k in (1, 2, 3):
                ok &= count_subgraph(g, "out_k_star", k) == count_directed(
                    "out_k_star", nodes, named, k
                )
                ok &= count_subgraph(g, "in_k_star", k) == count_directed(
                    "in_k_star", nodes, named, k
                )
        else:
            for p in ("edge", "triangle"):
                ok &= count_subgraph(g, p) == count_undirected(p, nodes, named)
            for k in (1, 2, 3):
                ok &= count_subgraph(g, "k_star", k) == count_undirected(
                    "k_star", nodes, named, k
                )
        hist = degree_histogram(g)
        recount = {}
        for v in nodes:
            d = g.out_degree(v) if directed else g.degree(v)
            recount[d] = recount.get(d, 0) + 1
        ok &= hist == recount
    _verdict(
        "criterion 7: counts match exhaustive enumeration on 200 random "
        "graphs (<= 6 nodes, every pattern, histogram recount)",
        ok,
    )


# --- 8. zero-noise runs are exact end to end --------------------------------


def test_criterion_8_zero_noise_exactness():
    pa = generate_pa_transmission(
        PaTransmissionParams(m0=20, arrivals=10, years=8), seed=0
    )
    sir = generate_sir_transmission(
        SirParams(population=300, initial_infected=3, max_steps=30), seed=0
    )
    ok = True
    for seq in (pa, sir):
        bounds = derive_bounds(seq)
        exact_max = derive_bounds(seq, granularity=1)
        thresholds = ProjectionThresholds.directed(exact_max.d_in, exact_max.d_out)
        scalars = [
            StatisticQuery.high_degree(1),
            StatisticQuery.subgraph("edge"),
            StatisticQuery.subgraph("triangle_i"),
            StatisticQuery.subgraph("triangle_ii"),
            StatisticQuery.subgraph("out_k_star", 2),
            StatisticQuery.subgraph("in_k_star", 2),
        ]
        config = MechanismConfig(epsilon=1.0, zero_noise=True)
        for query in scalars + [StatisticQuery.degree_histogram()]:
            series = release("sensdiff", seq, query, config, bounds=bounds)
            for t, est in enumerate(series.estimates, start=1):
                exact = evaluate(query, snapshot(seq, t))
                if query.is_scalar:
                    ok &= est == exact
                else:
                    dense = np.zeros(bounds.d_out + 1)
                    for d, c in exact.items():
                        dense[d] = c
                    ok &= bool(np.allclose(est, dense))
        for query in (StatisticQuery.high_degree(1), StatisticQuery.subgraph("edge")):
            truth = [
                float(evaluate(query, snapshot(seq, t)))
                for t in range(1, seq.horizon + 1)
            ]
            c = release("compose_bounded", seq, query, config, bounds=bounds)
            ok &= list(c.estimates) == truth
            # Thresholds at the measured maxima drop nothing, so the
            # projected release is exact too.
            p = release(
                "compose_projection", seq, query, config, thresholds=thresholds
            )
            ok &= list(p.estimates) == truth
    _verdict(
        "criterion 8: zero-noise releases are exact for every supported "
        "mechanism/statistic pair on both generators",
        ok,
    )
