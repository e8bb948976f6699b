"""Experiment harness: metrics, parameter derivation, sweeps, CSV output."""
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    graph_core,
    mechanisms,
    snapshot,
    verify_bounds,
)
from dpgraphseq.errors import EmptyGraphError, LengthMismatchError
from dpgraphseq.mechanisms import MECHANISMS
from dpgraphseq.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    default_projection_grid,
    derive_bounds,
    derive_tau,
    rebatch,
    relative_l1_error,
    release_parameters,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)

from bruteforce import degrees
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


@pytest.mark.parametrize(
    "percentile, error",
    [(True, TypeError), (False, TypeError), (0.0, ValueError), (100, ValueError),
     (250.0, ValueError), (-5, ValueError), (float("nan"), ValueError)],
    ids=["true", "false", "zero", "hundred", "above", "negative", "nan"],
)
def test_tau_percentile_is_refused_where_it_is_given(percentile, error):
    seq = star_seq(9)
    with pytest.raises(error, match="percentile"):
        derive_tau(seq, percentile)
    with pytest.raises(error, match="percentile"):
        ExperimentConfig(dataset="star", seq=seq, query=StatisticQuery.subgraph("edge"),
                         epsilons=(1.0,), tau_percentile=percentile)


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
    final_out, final_in = degrees(snapshot(seq, seq.horizon))
    out = list(final_out.values())

    def up(d):
        return max(granularity, -(-d // granularity) * granularity)

    if seq.directed:
        d_in = max(final_in.values())
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


def _rebuilt(seq):
    return build_sequence(seq.directed, [(b.time, b.nodes, b.edges) for b in seq.batches])


@pytest.mark.parametrize("start", [0, 1], ids=["time-0", "time-1"])
@pytest.mark.parametrize("releases", [2, 5, 8], ids=["fewer", "equal", "more"])
def test_rebatch_of_a_built_sequence_is_marked_built(start, releases):
    # Five steps, merged into fewer windows, as many, and more (with empty
    # windows); a time-0 batch holds its own nodes and edge.
    batches = [(0, ["s0", "s1"], [("s0", "s1")])] if start == 0 else []
    batches += [(t, [f"n{t}", f"m{t}"], [(f"n{t}", "s0" if start == 0 else f"m{t}")])
                for t in range(1, 6)]
    seq = build_sequence(False, batches)
    merged = rebatch(seq, releases)
    assert merged.horizon == releases
    assert _rebuilt(merged) == merged
    # A hand-built copy is rebatched alike.
    assert rebatch(dataclasses.replace(seq), releases) == merged


@settings(max_examples=100, deadline=None)
@given(sequences(), st.integers(1, 8))
def test_rebatch_output_is_what_the_builders_store(seq, releases):
    assume(seq.horizon >= 1)
    merged = rebatch(seq, releases)
    assert _rebuilt(merged) == merged


def test_plan_of_a_rebatched_built_sequence_rebuilds_nothing(monkeypatch):
    calls = []
    build = graph_core.build_sequence

    def counted(*args):
        calls.append(args)
        return build(*args)

    seq = build_sequence(
        False, [(t, [f"n{t}"], [(f"n{t-1}", f"n{t}")] if t > 1 else []) for t in range(1, 9)]
    )
    monkeypatch.setattr(graph_core, "build_sequence", counted)
    bounds = DegreeBounds.undirected(2)
    mechanisms.plan("sensdiff", rebatch(seq, 3), StatisticQuery.subgraph("edge"),
                    bounds=bounds)
    assert calls == []
    # The counter sees the check a hand-built copy takes when it is made.
    by_hand = dataclasses.replace(rebatch(seq, 3))
    assert len(calls) == 1
    mechanisms.plan("sensdiff", by_hand, StatisticQuery.subgraph("edge"), bounds=bounds)
    assert len(calls) == 1


def test_default_projection_grid():
    grid = default_projection_grid(star_seq(13))
    assert [th.d for th in grid] == [5, 10, 15]
    directed = build_sequence(
        True, [(1, [f"n{i}" for i in range(8)], [(f"n{i}", "n0") for i in range(1, 7)])]
    )
    dgrid = default_projection_grid(directed)
    assert {(th.d_in, th.d_out) for th in dgrid} == {(5, 5), (10, 5)}


@pytest.mark.parametrize("value", [True, 2.5, np.int64(2)])
def test_window_and_granularity_counts_must_be_ints(value):
    seq = star_seq(13)
    with pytest.raises(TypeError, match="^releases must be an int"):
        rebatch(seq, value)
    for derive in (derive_bounds, default_projection_grid):
        with pytest.raises(TypeError, match="^granularity must be an int"):
            derive(seq, value)
    with pytest.raises(TypeError, match="^granularity must be an int"):
        release_parameters(
            seq, StatisticQuery.subgraph("edge"), MECHANISMS, granularity=value
        )


@settings(max_examples=200, deadline=None)
@given(sequences(), st.integers(1, 3), st.floats(1, 99), st.integers(1, 8))
def test_release_parameters_fill_in_only_what_is_missing(
    seq, granularity, percentile, tau
):
    assume(seq.node_time)
    query = StatisticQuery.high_degree(tau)
    grid = default_projection_grid(seq, granularity)
    derived, bounds, candidates = release_parameters(
        seq, query, MECHANISMS, percentile, None, granularity
    )
    assert derived == StatisticQuery.high_degree(derive_tau(seq, percentile))
    assert bounds == derive_bounds(seq, granularity)
    assert verify_bounds(seq, bounds) is None
    # A derived tau is at most the top out-cap, so some entry admits it.
    assert candidates == tuple(th for th in grid if th.caps[1] >= derived.tau)
    # No percentile keeps the query's tau; a tau above every entry keeps the
    # whole grid, for the release to report.
    kept, _, candidates = release_parameters(
        seq, query, MECHANISMS, None, None, granularity
    )
    assert kept == query
    admits = tuple(th for th in grid if th.caps[1] >= tau)
    assert candidates == (admits or tuple(grid))
    # Other queries take the whole grid; without compose_projection, none.
    edge = StatisticQuery.subgraph("edge")
    assert release_parameters(
        seq, edge, MECHANISMS, percentile, None, granularity
    ) == (edge, bounds, tuple(grid))
    assert release_parameters(seq, query, ("sensdiff",), None, bounds) == (
        query, bounds, ()
    )
    # Given values pass through unchanged, even where they rule tau out.
    given_bounds, given_th = (
        cls.directed(1, 1) if seq.directed else cls.undirected(1)
        for cls in (DegreeBounds, ProjectionThresholds)
    )
    assert release_parameters(
        seq, query, MECHANISMS, None, given_bounds, granularity, (given_th,)
    ) == (query, given_bounds, (given_th,))


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
        experiment_config(epsilons=(1.0, float("nan")))
    with pytest.raises(ValueError):
        experiment_config(epsilons=(float("inf"),))
    with pytest.raises(ValueError):
        experiment_config(mechanisms=("sensdiff", "oracle"))


@pytest.mark.parametrize("field", ["trials", "releases", "bound_granularity"])
@pytest.mark.parametrize("value", [True, 2.5, 3.0, np.int64(3), "3"])
def test_experiment_config_integer_fields_refuse_other_types(field, value):
    # A bool would run one trial and a float would fail deep in the sweep.
    with pytest.raises(TypeError, match=f"^{field} must be an int, not"):
        experiment_config(**{field: value})
    experiment_config(**{field: 3})


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
        query=StatisticQuery.high_degree(2), mechanisms=("sensdiff",),
        tau_percentile=None,
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
    # `admission_walk` is the one admission call `plan` makes per candidate.
    calls = []
    real = mechanisms.admission_walk

    def counting(seq, ordering, th):
        calls.append(th)
        return real(seq, ordering, th)

    monkeypatch.setattr(mechanisms, "admission_walk", counting)
    candidates = (ProjectionThresholds.undirected(2), ProjectionThresholds.undirected(5))
    cfg = experiment_config(
        mechanisms=("compose_projection",), trials=5, candidates=candidates
    )
    rows, _ = run_experiment(cfg)
    assert len(rows) == 2 * 5
    assert calls == list(candidates)
