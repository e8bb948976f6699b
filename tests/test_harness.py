"""Experiment harness: metrics, parameter derivation, sweeps, CSV output."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    mechanisms,
    snapshot,
)
from dpgraphseq.errors import EmptyGraphError, LengthMismatchError
from dpgraphseq.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    default_projection_grid,
    derive_bounds,
    derive_tau,
    rebatch,
    relative_l1_error,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)

from test_statistics import sequences


def star_seq(leaves, extra_steps=0):
    batches = [(1, ["hub"] + [f"l{i}" for i in range(leaves)],
                [("hub", f"l{i}") for i in range(leaves)])]
    for t in range(2, extra_steps + 2):
        batches.append((t, [f"m{t}"], [(f"m{t}", "hub")]))
    return build_sequence(False, batches)


def test_relative_l1_error_skips_zero_truth():
    err, skipped = relative_l1_error([1.0, 5.0], [2.0, 4.0])
    assert err == pytest.approx(0.5 + 0.25)
    assert skipped == 0
    err, skipped = relative_l1_error([3.0, 5.0], [0.0, 5.0])
    assert (err, skipped) == (0.0, 1)
    with pytest.raises(LengthMismatchError):
        relative_l1_error([1.0], [1.0, 2.0])


def test_derive_tau_nearest_rank():
    # Nine degree-1 nodes and one degree-9 hub: the 90th percentile is the
    # hub's degree under nearest-rank semantics.
    seq = star_seq(9)
    assert derive_tau(seq, 90.0) == 9
    seq3 = build_sequence(
        False,
        [(1, ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])],
    )
    # Degrees 3,2,2,1: the median under nearest-rank is 2.
    assert derive_tau(seq3, 50.0) == 2
    # All-equal degrees give that degree at any percentile.
    pair = build_sequence(False, [(1, ["x", "y"], [("x", "y")])])
    assert derive_tau(pair, 25.0) == 1
    assert derive_tau(pair, 99.0) == 1
    with pytest.raises(ValueError):
        derive_tau(seq, 0.0)
    with pytest.raises(ValueError):
        derive_tau(seq, 100.0)


def test_derive_tau_floors_at_one():
    lonely = build_sequence(False, [(1, ["a", "b"], [])])
    assert derive_tau(lonely, 90.0) == 1


def test_derive_bounds_rounds_up_to_granularity():
    assert derive_bounds(star_seq(13)).d == 15
    assert derive_bounds(star_seq(10)).d == 10
    assert derive_bounds(star_seq(2)).d == 5  # minimum is one granule
    assert derive_bounds(star_seq(13), granularity=4).d == 16
    directed = build_sequence(
        True,
        [(1, [f"n{i}" for i in range(14)],
          [(f"n{i}", "n0") for i in range(1, 13)] + [("n0", "n13")])],
    )
    b = derive_bounds(directed)
    assert (b.d_in, b.d_out) == (15, 5)
    with pytest.raises(ValueError):
        derive_bounds(star_seq(3), granularity=0)
    with pytest.raises(EmptyGraphError):
        derive_bounds(build_sequence(False, [(1, [], [])]))
    # A sequence with no batches at all has no step to read degrees at.
    with pytest.raises(EmptyGraphError):
        derive_bounds(build_sequence(True, []))
    with pytest.raises(EmptyGraphError):
        derive_tau(build_sequence(False, []), 90.0)


@settings(max_examples=200, deadline=None)
@given(sequences(), st.integers(1, 3), st.floats(1, 99))
def test_parameter_derivation_reads_final_snapshot_degrees(seq, granularity, percentile):
    if not seq.node_time:
        with pytest.raises(EmptyGraphError):
            derive_bounds(seq, granularity)
        return
    final = snapshot(seq, seq.horizon)
    out = [final.out_degree(v) for v in final.nodes]

    def up(d):
        return max(granularity, -(-d // granularity) * granularity)

    if seq.directed:
        d_in = max(final.in_degree(v) for v in final.nodes)
        expected = DegreeBounds.directed(up(d_in), up(max(out)))
    else:
        expected = DegreeBounds.undirected(up(max(out)))
    assert derive_bounds(seq, granularity) == expected
    # tau reads the (out-)degree of every node, isolated ones included.
    nearest_rank = np.percentile(out, percentile, method="higher")
    assert derive_tau(seq, percentile) == max(1, int(nearest_rank))


def test_rebatch_merges_into_even_windows():
    seq = build_sequence(
        False,
        [(t, [f"n{t}"], [(f"n{t-1}", f"n{t}")] if t > 1 else []) for t in range(1, 9)],
    )
    merged = rebatch(seq, 4)
    assert merged.horizon == 4
    assert [len(b.nodes) for b in merged.batches] == [2, 2, 2, 2]
    assert sum(len(b.edges) for b in merged.batches) == 7
    # A time-0 batch survives rebatching untouched.
    with_zero = build_sequence(
        False, [(0, ["s"], [])] + [(t, [f"n{t}"], []) for t in range(1, 5)]
    )
    merged0 = rebatch(with_zero, 2)
    assert merged0.batches[0].time == 0
    assert merged0.batches[0].nodes == ("s",)
    assert merged0.horizon == 2
    with pytest.raises(ValueError):
        rebatch(seq, 0)


def test_default_projection_grid():
    grid = default_projection_grid(star_seq(13))
    assert [th.d for th in grid] == [5, 10, 15]
    directed = build_sequence(
        True, [(1, [f"n{i}" for i in range(8)], [(f"n{i}", "n0") for i in range(1, 7)])]
    )
    dgrid = default_projection_grid(directed)
    assert {(th.d_in, th.d_out) for th in dgrid} == {(5, 5), (10, 5)}


def experiment_config(**kw):
    defaults = dict(
        dataset="toy",
        seq=star_seq(3, extra_steps=3),
        query=StatisticQuery.subgraph("edge"),
        epsilons=(1.0, 5.0),
        trials=3,
        bounds=DegreeBounds.undirected(10),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        experiment_config(trials=0)
    with pytest.raises(ValueError):
        experiment_config(epsilons=())
    with pytest.raises(ValueError):
        experiment_config(epsilons=(1.0, -1.0))
    with pytest.raises(ValueError):
        experiment_config(mechanisms=("sensdiff", "oracle"))


def test_experiment_config_rejects_histogram_queries():
    # Relative L1 error scores scalar series only.
    with pytest.raises(ValueError, match="degree_histogram"):
        experiment_config(query=StatisticQuery.degree_histogram())


def test_run_experiment_row_grid_and_summaries():
    cfg = experiment_config()
    rows, summaries = run_experiment(cfg)
    assert len(rows) == 2 * 3 * 3  # epsilons x mechanisms x trials
    assert len(summaries) == 2 * 3
    assert {r.mechanism for r in rows} == {
        "sensdiff",
        "compose_bounded",
        "compose_projection",
    }
    assert all(r.T == 4 for r in rows)
    for s in summaries:
        trial_errors = [
            r.rel_l1_error
            for r in rows
            if (r.mechanism, r.epsilon) == (s.mechanism, s.epsilon)
        ]
        assert s.mean_error == pytest.approx(sum(trial_errors) / len(trial_errors))


def test_run_experiment_zero_noise_scores_zero():
    cfg = experiment_config(zero_noise=True, trials=2)
    rows, _ = run_experiment(cfg)
    assert all(r.rel_l1_error == 0.0 for r in rows)


def test_run_experiment_derives_tau_for_threshold_queries():
    cfg = experiment_config(
        query=StatisticQuery.high_degree(1),
        mechanisms=("sensdiff",),
        tau_percentile=90.0,
    )
    rows, _ = run_experiment(cfg)
    assert rows[0].query == "high_degree(tau=6)"  # hub ends at degree 6
    fixed = experiment_config(
        query=StatisticQuery.high_degree(1), mechanisms=("sensdiff",), tau=2
    )
    rows, _ = run_experiment(fixed)
    assert rows[0].query == "high_degree(tau=2)"


def test_run_experiment_rebatches_when_asked():
    cfg = experiment_config(releases=2, mechanisms=("sensdiff",))
    rows, _ = run_experiment(cfg)
    assert all(r.T == 2 for r in rows)


def test_csv_reproducible_modulo_wall_time():
    def strip_wall(text):
        return re.sub(r"[^,]*$", "", text, flags=re.M)

    cfg = experiment_config()
    a = rows_to_csv(run_experiment(cfg)[0])
    b = rows_to_csv(run_experiment(cfg)[0])
    assert strip_wall(a) == strip_wall(b)
    assert a.splitlines()[0] == ",".join(CSV_COLUMNS)
    # Error values round-trip exactly through repr.
    first = a.splitlines()[1].split(",")
    assert float(first[6]) == run_experiment(cfg)[0][0].rel_l1_error


def test_rows_to_json_round_trip():
    rows, _ = run_experiment(experiment_config(trials=1, epsilons=(1.0,)))
    records = json.loads(rows_to_json(rows))
    assert len(records) == len(rows)
    assert set(records[0]) == set(CSV_COLUMNS)


def test_run_experiment_projects_each_candidate_once(monkeypatch):
    # Projection draws no noise, so its kept edges serve every trial and
    # every budget: one projection per candidate, not one per trial.
    calls = []
    real = mechanisms.admit

    def counting(seq, ordering, th):
        calls.append(th)
        return real(seq, ordering, th)

    monkeypatch.setattr(mechanisms, "admit", counting)
    candidates = (ProjectionThresholds.undirected(2), ProjectionThresholds.undirected(5))
    cfg = experiment_config(
        mechanisms=("compose_projection",), trials=5, candidates=candidates
    )
    rows, _ = run_experiment(cfg)
    assert len(rows) == 2 * 5
    assert calls == list(candidates)
