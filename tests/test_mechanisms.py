"""Release mechanisms: noise law, determinism, exactness at zero noise, and
the batch draw bit for bit against a per-trial reference."""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpgraphseq import (
    ArrivalBatch,
    DegreeBounds,
    GraphSequence,
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
)
from dpgraphseq.errors import (
    BoundViolationError,
    DuplicateEdgeError,
    EdgeToFutureNodeError,
    InfeasibleThresholdError,
    NonPositiveScaleError,
    OrderingMismatchError,
    PatternDirectionMismatchError,
    UnsupportedBaselineQueryError,
)
from dpgraphseq import graph_core, mechanisms, projection, sensitivity, statistics
from dpgraphseq.generators import PaTransmissionParams, generate_pa_transmission
from dpgraphseq.harness import (
    ExperimentConfig,
    default_projection_grid,
    derive_bounds,
    rebatch,
    run_experiment,
)
from dpgraphseq.mechanisms import (
    MECHANISMS,
    MechanismConfig,
    plan,
    relative_l1_error,
    release,
    seed_words,
)
from dpgraphseq.projection import admission_walk, canonical_ordering, project_sequence
from dpgraphseq.statistics import (
    _degree_table,
    _degree_values,
    evaluate,
    exact_values,
)

from bruteforce import naive_series
from test_statistics import _all_queries, sequences


def chain_seq(steps=5):
    batches = [(1, ["n1"], [])]
    for t in range(2, steps + 1):
        batches.append((t, [f"n{t}"], [(f"n{t-1}", f"n{t}")]))
    return build_sequence(False, batches)


SEQ = chain_seq()
BOUNDS = DegreeBounds.undirected(2)
EDGE = StatisticQuery.subgraph("edge")
HD = StatisticQuery.high_degree(1)


def test_laplace_sample_moments():
    # The kernel's 200,000 draws: 200 seeded keys of 1,000 values each.
    keys = [seed_words(7, i) for i in range(200)]
    draws = mechanisms._laplace(keys, [2.0] * len(keys), 1_000)
    assert draws.shape == (200, 1_000)
    assert abs(draws.mean()) < 0.05
    assert np.isclose(draws.std(), 2.0 * np.sqrt(2), rtol=0.02)
    # Scale 0 draws +0.0 only, as a zero-noise release relies on.
    zero = mechanisms._laplace(keys[:2], [0.0, 0.0], 3)
    assert not zero.any() and not np.signbit(zero).any()
    with pytest.raises(NonPositiveScaleError):
        mechanisms._laplace(keys[:1], [-1.0], 3)


def test_config_validation():
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=-2.0)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=float("nan"))
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=float("inf"))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("seed", -1, ValueError),
        ("seed", 2.0, TypeError),
        ("seed", True, TypeError),
        ("seed", np.int64(3), TypeError),
        ("trial_id", -1, ValueError),
        ("trial_id", True, TypeError),
        ("trial_id", "4", TypeError),
        ("trial_id", np.int64(0), TypeError),
        ("epsilon", True, TypeError),
    ],
)
def test_config_rejects_seeds_and_trials_that_are_not_non_negative_ints(
    field, value, error
):
    with pytest.raises(error, match=f"^{field} must be"):
        MechanismConfig(**{"epsilon": 1.0, field: value})
    if field == "trial_id":
        # The batch draw's trial ids follow the same rule.
        with pytest.raises(error, match="^expected"):
            plan("sensdiff", SEQ, EDGE, BOUNDS).draw_trials([value], 1.0)
    else:
        # The experiment grid and the batch draw hold seed and epsilon to the
        # same rule.
        grid = {"epsilons": (value,)} if field == "epsilon" else {field: value}
        with pytest.raises(error, match=f"^{field} must be"):
            ExperimentConfig(dataset="chain", seq=SEQ, query=EDGE,
                             **{"epsilons": (1.0,), **grid})
        with pytest.raises(error, match=f"^{field} must be"):
            plan("sensdiff", SEQ, EDGE, BOUNDS).draw_trials(
                [0], **{"epsilon": 1.0, field: value}
            )
    # Any size of non-negative int seeds a draw.
    MechanismConfig(**{"epsilon": 1.0, field: 2**64 + 3})


def test_noise_scales_follow_the_budgets():
    config = MechanismConfig(epsilon=2.0)
    s = release("sensdiff", SEQ, EDGE, config, bounds=BOUNDS)
    assert s.noise_scale == BOUNDS.d / 2.0  # GS / epsilon
    c = release("compose_bounded", SEQ, EDGE, config, bounds=BOUNDS)
    assert c.noise_scale == BOUNDS.d * SEQ.horizon / 2.0  # GS_per * T / epsilon
    p = release(
        "compose_projection",
        SEQ,
        EDGE,
        config,
        thresholds=ProjectionThresholds.undirected(2),
    )
    assert p.noise_scale == 2 * SEQ.horizon / 2.0


def test_runs_are_reproducible_per_seed_and_trial():
    for mech in MECHANISMS:
        kwargs = (
            {"thresholds": ProjectionThresholds.undirected(2)}
            if mech == "compose_projection"
            else {"bounds": BOUNDS}
        )
        a = release(mech, SEQ, EDGE, MechanismConfig(epsilon=1, seed=3, trial_id=5), **kwargs)
        b = release(mech, SEQ, EDGE, MechanismConfig(epsilon=1, seed=3, trial_id=5), **kwargs)
        c = release(mech, SEQ, EDGE, MechanismConfig(epsilon=1, seed=3, trial_id=6), **kwargs)
        assert a.estimates == b.estimates
        assert a.estimates != c.estimates, mech


def test_zero_noise_sensdiff_telescopes_exactly():
    config = MechanismConfig(epsilon=1.0, zero_noise=True)
    series = release("sensdiff", SEQ, EDGE, config, bounds=BOUNDS)
    truth = naive_series(EDGE, SEQ)
    assert list(series.estimates) == [float(v) for v in truth]
    assert series.noise_scale == 0.0


def test_zero_noise_histogram_release_is_exact():
    config = MechanismConfig(epsilon=1.0, zero_noise=True)
    hist_q = StatisticQuery.degree_histogram()
    series = release("sensdiff", SEQ, hist_q, config, bounds=BOUNDS)
    for est, exact in zip(series.estimates, naive_series(hist_q, SEQ), strict=True):
        dense = np.zeros(BOUNDS.d + 1)
        for d, cnt in exact.items():
            dense[d] = cnt
        assert np.allclose(est, dense)


def test_zero_noise_compose_baselines_are_exact():
    config = MechanismConfig(epsilon=1.0, zero_noise=True)
    truth = [float(v) for v in naive_series(EDGE, SEQ)]
    c = release("compose_bounded", SEQ, EDGE, config, bounds=BOUNDS)
    assert list(c.estimates) == truth
    # Projection with thresholds at the true max degree drops nothing.
    p = release(
        "compose_projection",
        SEQ,
        EDGE,
        config,
        thresholds=ProjectionThresholds.undirected(2),
    )
    assert list(p.estimates) == truth
    # Tighter thresholds bias the projected count downward.
    biased = release(
        "compose_projection",
        SEQ,
        EDGE,
        config,
        thresholds=ProjectionThresholds.undirected(1),
    )
    assert biased.estimates[-1] < truth[-1]


def test_projection_candidate_pick_reports_chosen_thresholds():
    config = MechanismConfig(epsilon=1.0, zero_noise=True)
    series = release(
        "compose_projection",
        SEQ,
        EDGE,
        config,
        candidates=[
            ProjectionThresholds.undirected(1),
            ProjectionThresholds.undirected(2),
        ],
    )
    assert series.thresholds == ProjectionThresholds.undirected(2)


@pytest.mark.parametrize("d", [1, 2])
def test_fixed_thresholds_release_as_a_one_entry_candidate_list(d):
    th = ProjectionThresholds.undirected(d)
    for trial in range(5):
        config = MechanismConfig(epsilon=1.0, seed=3, trial_id=trial)
        fixed = release("compose_projection", SEQ, EDGE, config, thresholds=th)
        assert fixed == release(
            "compose_projection", SEQ, EDGE, config, candidates=(th,)
        )


def test_projection_requires_exactly_one_threshold_source():
    config = MechanismConfig(epsilon=1.0)
    with pytest.raises(ValueError, match="either"):
        release("compose_projection", SEQ, EDGE, config)
    with pytest.raises(ValueError, match="either"):
        release(
            "compose_projection",
            SEQ,
            EDGE,
            config,
            thresholds=ProjectionThresholds.undirected(1),
            candidates=[ProjectionThresholds.undirected(2)],
        )


def _threshold_grid(directed):
    if directed:
        return [
            ProjectionThresholds.directed(i, o) for i in (1, 2, 3) for o in (1, 2, 3)
        ]
    return [ProjectionThresholds.undirected(d) for d in (1, 2, 3)]


@settings(max_examples=100, deadline=None)
@given(sequences())
def test_projection_arms_equal_the_admitted_sequences_values(seq):
    assume(seq.horizon >= 1)
    ordering = canonical_ordering(seq)
    grid = _threshold_grid(seq.directed)
    # The last view of a projection is the whole admitted sequence.
    admitted = {th: project_sequence(seq, ordering, th)[-1] for th in grid}
    # Every degree query the engine answers: the admission walk over the
    # parent's batches alone gives the admitted sequence's values.
    for query in _all_queries(seq.directed):
        if str(query.pattern).startswith("triangle"):
            continue
        for th in grid:
            _, walk = admission_walk(seq, ordering, th)
            assert _degree_values(query, seq, walk) == exact_values(
                query, admitted[th]
            ), (query.label(), th)
    # The queries with a projected sensitivity, through `plan`: a grid of
    # candidates and each one fixed.
    for query in [EDGE, StatisticQuery.high_degree(1), StatisticQuery.high_degree(2)]:
        feasible = [th for th in grid if query.tau is None or th.caps[1] >= query.tau]
        expected = [exact_values(query, admitted[th]) for th in feasible]
        arms = plan("compose_projection", seq, query, candidates=feasible).arms
        assert [arm.thresholds for arm in arms] == feasible
        assert [arm.series.tolist() for arm in arms] == expected, query.label()
        for th, values in zip(feasible, expected):
            (arm,) = plan("compose_projection", seq, query, thresholds=th).arms
            assert arm.series.tolist() == values, (query.label(), th)


@pytest.mark.parametrize("query", [EDGE, HD], ids=["edge", "high_degree"])
def test_wrong_mode_thresholds_are_refused_before_any_walk(monkeypatch, query):
    walks = []
    monkeypatch.setattr(projection, "_walk", lambda *args: walks.append(args))
    directed = build_sequence(True, [(1, ["a", "b"], [("a", "b")])])
    for seq, th in [
        (SEQ, ProjectionThresholds.directed(1, 2)),
        (directed, ProjectionThresholds.undirected(2)),
    ]:
        with pytest.raises(OrderingMismatchError, match="threshold mode"):
            plan("compose_projection", seq, query, thresholds=th)
        with pytest.raises(OrderingMismatchError, match="threshold mode"):
            plan("compose_projection", seq, query, candidates=[th, th])
    assert walks == []


# A sequence of each mode with stars, triangles and degrees above 2.
MODE_SEQS = {
    False: build_sequence(False, [
        (1, ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
        (2, ["d"], [("d", "a"), ("d", "b"), ("d", "c")]),
    ]),
    True: build_sequence(True, [
        (1, ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]),
        (2, ["d"], [("d", "a"), ("d", "b"), ("d", "c"), ("b", "d")]),
    ]),
}


def _query_named(statistic):
    if statistic == "high_degree":
        return StatisticQuery.high_degree(1)
    if statistic == "degree_histogram":
        return StatisticQuery.degree_histogram()
    return StatisticQuery.subgraph(statistic, 2 if statistic.endswith("k_star") else None)


def test_every_projected_formula_is_for_a_degree_statistic():
    # A projection arm is the degree engine read off its admission walk, so
    # a projected formula for any other statistic would noise wrong values.
    keys = [key for key in sensitivity._CATALOG if key[0] == "per_release_projected"]
    assert keys
    for _, statistic, directed in keys:
        query = _query_named(statistic)
        seq = MODE_SEQS[directed]
        assert len(_degree_table(query, 3)) == 4, statistic
        assert _degree_values(query, seq, seq.degree_walk) == naive_series(
            query, seq
        ), statistic


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_plan_refuses_every_query_without_a_projected_formula_before_any_walk(
    monkeypatch, directed
):
    # A copy whose degree walk is not cached: the truth's walk would show too.
    seq = MODE_SEQS[directed]
    seq = GraphSequence(seq.directed, seq.batches)
    assert "degree_walk" not in vars(seq)
    calls = []

    def spy(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    for module in (graph_core, projection):
        monkeypatch.setattr(module, "_walk", spy(graph_core._walk))
    monkeypatch.setattr(mechanisms, "exact_values", spy(exact_values))
    th, wrong = (
        (ProjectionThresholds.directed(2, 2), ProjectionThresholds.undirected(2))
        if directed
        else (ProjectionThresholds.undirected(2), ProjectionThresholds.directed(2, 2))
    )
    names = ("triangle", "triangle_i", "triangle_ii", "k_star", "out_k_star",
             "in_k_star", "degree_histogram")
    refused = [(_query_named(name), th) for name in names]
    refused += [(EDGE, wrong), (HD, wrong), (StatisticQuery.high_degree(3), th)]
    for query, thresholds in refused:
        for kwargs in ({"thresholds": thresholds}, {"candidates": [thresholds] * 2}):
            with pytest.raises((
                UnsupportedBaselineQueryError,
                PatternDirectionMismatchError,
                OrderingMismatchError,
                InfeasibleThresholdError,
            )):
                plan("compose_projection", seq, query, **kwargs)
    # Candidates of mixed modes are refused before the right-mode one walks.
    for query in (EDGE, HD):
        with pytest.raises(OrderingMismatchError, match="threshold mode"):
            plan("compose_projection", seq, query, candidates=[th, wrong])
    assert calls == []


def test_projection_rejects_histogram_queries():
    config = MechanismConfig(epsilon=1.0)
    with pytest.raises(UnsupportedBaselineQueryError):
        release(
            "compose_projection",
            SEQ,
            StatisticQuery.degree_histogram(),
            config,
            thresholds=ProjectionThresholds.undirected(2),
        )


def test_bound_violation_is_rejected_up_front():
    star = build_sequence(
        False, [(1, ["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")])]
    )
    config = MechanismConfig(epsilon=1.0)
    with pytest.raises(BoundViolationError):
        release("sensdiff", star, EDGE, config, bounds=DegreeBounds.undirected(2))
    with pytest.raises(BoundViolationError):
        release("sensdiff", star, EDGE, config, bounds=DegreeBounds.directed(1, 1))
    # Mechanisms that scale noise to a degree bound refuse to run without one.
    for mech in ("sensdiff", "compose_bounded"):
        with pytest.raises(ValueError, match=f"{mech} needs degree bounds"):
            release(mech, SEQ, EDGE, config, bounds=None)


def test_unknown_mechanism():
    with pytest.raises(ValueError):
        release("midpoint", SEQ, EDGE, MechanismConfig(epsilon=1.0), bounds=BOUNDS)


@pytest.mark.parametrize(
    "seq",
    [build_sequence(False, [(0, ["a", "b"], [("a", "b")])]), GraphSequence.empty()],
    ids=["time-0-only", "empty"],
)
def test_a_sequence_without_release_steps_is_refused(seq):
    # Nothing arrives at t >= 1, so there is no f(G_t) to release.
    th = ProjectionThresholds.undirected(1)
    config = MechanismConfig(epsilon=1.0)
    for mech in MECHANISMS:
        with pytest.raises(ValueError, match="no release step"):
            release(mech, seq, EDGE, config, bounds=BOUNDS, candidates=[th])
    cfg = ExperimentConfig(dataset="none", seq=seq, query=EDGE, epsilons=(1.0,),
                           bounds=BOUNDS, candidates=(th,))
    with pytest.raises(ValueError, match="no release step"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "batches, error, match",
    [
        # A float time and a gap: the horizon reads 5 with two batches.
        ([(1.0, ("x",), ()), (5, ("y",), ())], TypeError, "batch time"),
        ([(1, ("a", "b"), ()), (2, ("c",), (("a", "b"),))],
         EdgeToFutureNodeError, "no endpoint in the current batch"),
        ([(1, ("a", "b"), (("a", "b"), ("a", "b")))], DuplicateEdgeError, "already"),
        # An undirected edge the builders would store as ("a", "b").
        ([(1, ("a", "b"), (("b", "a"),))], ValueError, "store these batches"),
    ],
    ids=["float-time-gap", "edge-between-earlier-nodes", "duplicate-edge",
         "non-canonical-edge"],
)
def test_a_hand_built_sequence_the_builders_refuse_is_refused(batches, error, match):
    # Such a sequence cannot be made, so no release, bound check or dump
    # ever reads one.
    hand_built = tuple(ArrivalBatch(*b) for b in batches)
    with pytest.raises(error, match=match):
        GraphSequence(False, hand_built)
    valid = build_sequence(False, [(1, ["a"], [])])
    with pytest.raises(error, match=match):
        dataclasses.replace(valid, batches=hand_built)


@pytest.mark.parametrize(
    "directed, batches, match",
    [
        ("no", (ArrivalBatch(1, ("a", "b"), (("b", "a"),)),),
         "directed must be a bool, not str"),
        (1, (), "directed must be a bool, not int"),
        (np.bool_(False), (), "directed must be a bool"),
        (False, ((1, ("a",), ()),), r"batches\[0\] must be an ArrivalBatch, not tuple"),
        (False, [ArrivalBatch(1, ("a",), ())], "batches must be a tuple, not list"),
    ],
    ids=["str-directed", "int-directed", "numpy-bool-directed", "raw-triple",
         "list-of-batches"],
)
def test_a_sequence_with_fields_of_the_wrong_type_is_refused(directed, batches, match):
    with pytest.raises(TypeError, match=match):
        GraphSequence(directed, batches)
    valid = build_sequence(False, [(1, ["a"], [])])
    with pytest.raises(TypeError, match=match):
        dataclasses.replace(valid, directed=directed, batches=batches)
    if not batches:
        # An empty sequence is checked too.
        with pytest.raises(TypeError, match=match):
            GraphSequence.empty(directed)


def test_a_projection_plan_builds_no_sequence(monkeypatch):
    # A degree arm reads its admission walk over the parent's batches.
    built = []
    real = graph_core._sequence

    def spy(*args, **caches):
        built.append(args)
        return real(*args, **caches)

    for module in (graph_core, projection, statistics):
        monkeypatch.setattr(module, "_sequence", spy)
    for directed, seq in MODE_SEQS.items():
        grid = _threshold_grid(directed)
        plan("compose_projection", seq, EDGE, candidates=grid)
        plan("compose_projection", seq, HD, thresholds=grid[-1])
    assert built == []


def test_only_a_sequence_no_builder_made_is_rebuilt(monkeypatch):
    rebuilt = []
    real = graph_core.build_sequence

    def spy(directed, batches):
        rebuilt.append(batches)
        return real(directed, batches)

    monkeypatch.setattr(graph_core, "build_sequence", spy)
    text = "H undirected 3\nN a 1\nN b 1\nE a b\nN c 2\nE b c\nN d 3\nE c d\n"
    parsed = graph_core.loads_edge_list(text)
    built = build_sequence(False, [(1, ["a", "b"], [("a", "b")]), (2, ["c"], [])])
    ingested = graph_core.ingest_step(built, 3, ["d"], [("c", "d")])
    th = ProjectionThresholds.undirected(1)
    ordering = canonical_ordering(parsed)
    derived = [
        rebatch(parsed, 2),
        graph_core.snapshot(parsed, 2),
        *projection.project_sequence(parsed, ordering, th),
        pickle.loads(pickle.dumps(parsed)),
        copy.deepcopy(parsed),
    ]
    config = MechanismConfig(epsilon=1.0)
    for seq in (parsed, built, ingested, *derived):
        evaluate(EDGE, seq)
        for mech in MECHANISMS:
            release(mech, seq, EDGE, config, bounds=BOUNDS, candidates=[th])
    assert rebuilt == []
    # A valid hand-built sequence is rebuilt once, when it is made, and
    # never by a plan.
    by_hand = GraphSequence(False, parsed.batches)
    assert len(rebuilt) == 1
    for _ in range(2):
        assert release("sensdiff", by_hand, EDGE, config, bounds=BOUNDS) == release(
            "sensdiff", parsed, EDGE, config, bounds=BOUNDS
        )
    assert len(rebuilt) == 1


def test_sensdiff_partial_sum_noise_grows_with_sqrt_t():
    """Error std at step t is sqrt(2) * (GS/eps) * sqrt(t) for sensdiff."""
    seq = chain_seq(9)
    truth = [float(v) for v in naive_series(EDGE, seq)]
    errs = []
    for trial in range(4000):
        series = release(
            "sensdiff",
            seq,
            EDGE,
            MechanismConfig(epsilon=1.0, trial_id=trial),
            bounds=BOUNDS,
        )
        errs.append(series.estimates[-1] - truth[-1])
    expected = np.sqrt(2) * BOUNDS.d * np.sqrt(9)
    assert np.isclose(np.std(errs), expected, rtol=0.05)


# --- the batch draw against a per-trial reference ---------------------------


def laplace_sample(rng: np.random.Generator, scale: float, size=None):
    """Laplace(0, scale) draw from a numpy Generator; scale 0 means no noise."""
    if scale < 0:
        raise NonPositiveScaleError(f"noise scale must be >= 0, got {scale}")
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
    return rng.laplace(0.0, scale, size)


def _reference_draw(p, config):
    """One trial drawn the way a release drew it before the batch draw: a
    generator seeded from the list [seed, trial_id, *stream] per arm, a
    prefix sum for sensdiff, and the arm pick by a Python loop over the
    relative L1 errors.  Returns (estimates, arm index, noise scale)."""
    releases = 1 if p.mechanism == "sensdiff" else len(p.truth)
    drawn = []
    for arm in p.arms:
        scale = 0.0 if config.zero_noise else (
            arm.sensitivity.value * releases / config.epsilon
        )
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, config.trial_id, *arm.stream])
        )
        noisy = arm.series + laplace_sample(rng, scale, arm.series.shape)
        if p.mechanism == "sensdiff":
            noisy = np.cumsum(noisy, axis=0)
        drawn.append((noisy, scale))
    pick = 0
    if len(drawn) > 1:
        truth = p.truth.tolist()
        errors = [_loop_rel_l1(noisy.tolist(), truth) for noisy, _ in drawn]
        pick = errors.index(min(errors))
    return drawn[pick][0], pick, drawn[pick][1]


def _loop_rel_l1(estimates, truth):
    err = 0.0
    for est, tru in zip(estimates, truth):
        if tru != 0:
            err += abs(est - tru) / tru
    return err


def _pa_fixture():
    return generate_pa_transmission(
        PaTransmissionParams(m0=20, arrivals=10, years=8), seed=0
    )


def _plans():
    """Every mechanism, compose_projection over a grid of candidates, and
    sensdiff on the degree histogram."""
    seq = _pa_fixture()
    bounds = derive_bounds(seq)
    grid = default_projection_grid(seq)
    assert len(grid) > 1
    plans = {
        mech: plan(mech, seq, EDGE, bounds, candidates=grid) for mech in MECHANISMS
    }
    plans["sensdiff/histogram"] = plan(
        "sensdiff", SEQ, StatisticQuery.degree_histogram(), BOUNDS
    )
    return plans


@pytest.mark.parametrize(
    "seed, trials",
    [
        (0, range(6)),
        (2**32 - 1, [0, 7, 2**32 - 1]),
        (2**32, [2**32, 5]),
        (2**64 + 3, [2**40 + 1, 0, 3]),
    ],
)
def test_seed_words_match_numpy_seeding(seed, trials):
    for trial in trials:
        for stream in [(), (0,), (2, 11)]:
            want = np.random.SeedSequence([seed, trial, *stream]).generate_state(8)
            words = np.array(seed_words(seed, trial, *stream), dtype=np.uint32)
            assert (np.random.SeedSequence(words).generate_state(8) == want).all()
    with pytest.raises(ValueError, match="non-negative"):
        seed_words(0, -1)


_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


def _as_int(high, low):
    return int(high) << 64 | int(low)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda width: st.lists(st.lists(_WORD, min_size=width, max_size=width),
                           min_size=1, max_size=50)
))
@example([[2**32 - 1] * 9])
@example([[0]])
def test_pcg64_states_match_numpy_seeding(rows):
    # Widths above 4 take SeedSequence's extra mixing of words past the pool.
    entropy = np.array(rows, dtype=np.uint32)
    want = [np.random.PCG64(np.random.SeedSequence(row)).state["state"]
            for row in entropy]
    states = mechanisms._pcg64_states(entropy)
    assert states.dtype == np.uint64 and states.shape == (len(rows), 4)
    assert [{"state": _as_int(*row[:2]), "inc": _as_int(*row[2:])}
            for row in states.tolist()] == want
    # The Python-int seeding of small draws, row by row.
    assert [{"state": _as_int(*row[:2]), "inc": _as_int(*row[2:])}
            for row in map(mechanisms._seed_ints, rows)] == want


@settings(max_examples=200, deadline=None)
@given(_WORD, _WORD, _WORD, st.lists(_WORD, min_size=1, max_size=6))
@example(2**32 - 1, 2**32 - 1, 2**32 - 1, [2**32 - 1] * 6)
@example(5, 7, 2**31 + 3, [0])
def test_seeding_steps_agree_on_python_ints_and_uint32_arrays(x, y, z, words):
    # The one hash and mix serve both seeding paths, and both give a state
    # row in one layout.
    def one(value):
        return np.array([value], dtype=np.uint32)

    assert [mechanisms._hash(x, y, z)] == mechanisms._hash(one(x), one(y), one(z)).tolist()
    assert [mechanisms._mix(x, y)] == mechanisms._mix(one(x), one(y)).tolist()
    row = mechanisms._pcg64_states(np.array([words], dtype=np.uint32))[0]
    assert list(mechanisms._seed_ints(words)) == row.tolist()


_MASK_64 = 2**64 - 1


def _numpy_pcg64(state, inc):
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return bit_generator


def _numpy_laplace(state, inc, scale, size):
    """numpy's own Laplace draws from a PCG64 at (state, inc)."""
    return np.random.Generator(_numpy_pcg64(state, inc)).laplace(0.0, scale, size)


def _kernel_paths(pairs, scales, size):
    """Each kernel path's draws from the (state, inc) pairs, as uint64 bits:
    the array pass over all rows, and each row on Python ints."""
    states = np.array(
        [[s >> 64, s & _MASK_64, i >> 64, i & _MASK_64] for s, i in pairs],
        dtype=np.uint64,
    )
    rows = mechanisms._laplace_rows(states, np.array(scales), size)
    ints = np.array([mechanisms._laplace_ints(row, scale, size)
                     for row, scale in zip(states.tolist(), scales)])
    return {"array": rows.view(np.uint64), "ints": ints.view(np.uint64)}


_U128 = st.integers(0, 2**128 - 1)
# Seeding makes inc odd, which gives the LCG its full period; at an even inc
# a state can repeat word 0 forever, and numpy's sampler would not return.
_INC = _U128.map(lambda inc: inc | 1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_U128, _INC), min_size=1, max_size=4),
    st.sampled_from([1, 9, 300, 300 * 9]),
    st.floats(1e-3, 1e6) | st.just(0.0),
)
@example([(0, 1)], 9, 1.0)
@example([(2**128 - 1, 2**128 - 1)], 300, 7.0)
def test_kernel_paths_equal_numpy_laplace_bit_for_bit(pairs, size, scale):
    scales = [scale * (k + 1) for k in range(len(pairs))]
    want = np.array([_numpy_laplace(s, i, b, size) for (s, i), b in zip(pairs, scales)])
    for path, got in _kernel_paths(pairs, scales, size).items():
        assert np.array_equal(got, want.view(np.uint64)), path


def _state_before(word_state, inc):
    """The state one PCG64 step before `word_state`."""
    return (word_state - inc) * pow(mechanisms._PCG_MULT, -1, 2**128) % 2**128


@pytest.mark.parametrize("size", [1, 5, 300])
def test_kernel_rejects_a_zero_uniform_and_keeps_a_half_positive(size):
    inc = 0x9E3779B97F4A7C15F39CC0605CEDC835
    # Equal 64-bit halves give output word 0, so U == 0: numpy draws again.
    half = 0x0123456789ABCDEF
    zero = _state_before(half << 64 | half, inc)
    # Word 2**63 (high half 0, no rotation) gives U == 0.5 and a draw of +0.0.
    middle = _state_before(1 << 63, inc)
    assert _numpy_pcg64(zero, inc).random_raw(1).tolist() == [0]
    assert np.signbit(_numpy_laplace(middle, inc, 3.0, 1)).tolist() == [False]
    pairs = [(zero, inc), (middle, inc), (12345, 67891)]
    scales = [2.0, 3.0, 4.0]
    want = np.array([_numpy_laplace(s, i, b, size) for (s, i), b in zip(pairs, scales)])
    for path, got in _kernel_paths(pairs, scales, size).items():
        assert np.array_equal(got, want.view(np.uint64)), path


def _assert_numpy_seeded(got, keys, scales, size):
    assert got.shape == (len(keys), size)
    for row, words, scale in zip(got, keys, scales):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        assert np.array_equal(row, rng.laplace(0.0, scale, size))


# Array draws seeded in one array pass, array draws seeded on Python ints,
# and draws seeded and drawn on Python ints.
@pytest.mark.parametrize(
    "small_draw, few_keys", [(0, 0), (0, 10**9), (10**9, 0)],
    ids=["array", "few-keys", "ints"],
)
def test_kernel_draws_equal_numpy_seeded_generators(monkeypatch, small_draw, few_keys):
    monkeypatch.setattr(mechanisms, "_SMALL_DRAW", small_draw)
    monkeypatch.setattr(mechanisms, "_FEW_KEYS", few_keys)
    keys = [seed_words(0, 5, 0), seed_words(2**32, 1, 2, 3), seed_words(2**70, 2**40, 9),
            seed_words(1), seed_words(2**32 - 1, 7)]
    scales = [0.5, 1.0, 7.0, 2.0, 3.5]
    _assert_numpy_seeded(mechanisms._laplace(keys, scales, 9), keys, scales, 9)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_kernel_draws_around_the_few_key_threshold_equal_numpy(offset):
    # Key counts either side of the threshold, each call mixing keys of 1 to
    # 12 words, in draws too long for the Python-int path.
    n = mechanisms._FEW_KEYS + offset
    keys = [seed_words(*[2**(32 * (i % 4)) + i] * (1 + i % 3)) for i in range(n)]
    scales = [1.0 + i for i in range(n)]
    size = mechanisms._SMALL_DRAW // n + 1
    assert n * size > mechanisms._SMALL_DRAW
    _assert_numpy_seeded(mechanisms._laplace(keys, scales, size), keys, scales, size)


@pytest.mark.parametrize("bits", range(mechanisms._BLOCK_BITS + 1))
def test_jump_table_matches_repeated_multiplication(bits):
    # Column k - 1 holds M**k and B(k) = 1 + M + ... + M**(k-1), mod 2**128,
    # each as four 32-bit limbs, low first.
    def limbs(value):
        return [value >> shift & 0xFFFFFFFF for shift in (0, 32, 64, 96)]

    power, partial, columns = 1, 0, []
    for _ in range(2**bits):
        partial = (partial + power) % 2**128
        power = power * mechanisms._PCG_MULT % 2**128
        columns.append(limbs(power) + limbs(partial))
    table = mechanisms._jump_table(bits)
    assert table.dtype == np.uint64 and not table.flags.writeable
    assert table.T.tolist() == columns


def test_one_trial_releases_seed_without_the_array_pass(monkeypatch):
    # A one-trial release longer than a small draw seeds its one key on
    # Python ints; a 100-trial draw still seeds in one array pass.
    seq = chain_seq(mechanisms._SMALL_DRAW + 20)
    sensdiff = plan("sensdiff", seq, EDGE, bounds=BOUNDS)
    want = sensdiff.draw_trials(range(100), 1.0, seed=3).estimates[4]

    def refuse(entropy):
        raise AssertionError("_pcg64_states called")

    monkeypatch.setattr(mechanisms, "_pcg64_states", refuse)
    config = MechanismConfig(1.0, seed=3, trial_id=4)
    got = release("sensdiff", seq, EDGE, config, bounds=BOUNDS).estimates
    assert got == tuple(want.tolist())
    with pytest.raises(AssertionError, match="_pcg64_states called"):
        sensdiff.draw_trials(range(100), 1.0, seed=3)


def test_kernel_rows_longer_than_a_block_equal_numpy():
    # Rows run on past a block of jump-ahead steps; the second row's zero
    # uniform falls in the second block.
    block = 1 << mechanisms._BLOCK_BITS
    size = 2 * block + 3
    inc = 0x9E3779B97F4A7C15F39CC0605CEDC835
    half = 0x0123456789ABCDEF
    zero = half << 64 | half
    for _ in range(block + 7):
        zero = _state_before(zero, inc)
    pairs = [(12345, 67891), (zero, inc)]
    scales = [2.0, 3.0]
    want = np.array([_numpy_laplace(s, i, b, size) for (s, i), b in zip(pairs, scales)])
    for path, got in _kernel_paths(pairs, scales, size).items():
        assert np.array_equal(got, want.view(np.uint64)), path


def test_releases_never_import_numpy_random():
    # numpy.random's import costs a fresh process ~12 ms and ~5 MB.
    code = """
import sys
import numpy
if "numpy.random" in sys.modules:
    print("numpy imports numpy.random itself")
    sys.exit()
from dpgraphseq import DegreeBounds, StatisticQuery, build_sequence
from dpgraphseq.harness import ExperimentConfig, run_experiment
from dpgraphseq.mechanisms import MechanismConfig, release
seq = build_sequence(False, [(t, [f"n{t}"], [(f"n{t - 1}", f"n{t}")] if t > 1 else [])
                             for t in range(1, 6)])
edge = StatisticQuery.subgraph("edge")
release("sensdiff", seq, edge, MechanismConfig(1.0), bounds=DegreeBounds.undirected(2))
run_experiment(ExperimentConfig(dataset="chain", seq=seq, query=edge, epsilons=(1.0,),
                                trials=60))
print("numpy.random" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(mechanisms.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    if run.stdout.startswith("numpy imports"):
        pytest.skip("this numpy imports numpy.random on `import numpy`")
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 3])
@pytest.mark.parametrize("zero_noise", [False, True])
def test_batch_rows_equal_single_draws_bit_for_bit(seed, zero_noise):
    trial_ids = [0, 1, 2, 5, 2**32 + 1]
    for name, p in _plans().items():
        drawn = p.draw_trials(trial_ids, 0.5, seed, zero_noise)
        assert drawn.estimates.shape == (len(trial_ids), *p.truth.shape)
        for i, trial in enumerate(trial_ids):
            config = MechanismConfig(0.5, seed, trial, zero_noise)
            want, pick, scale = _reference_draw(p, config)
            assert np.array_equal(drawn.estimates[i], want), (name, trial)
            assert drawn.picks[i] == pick, name
            assert drawn.arm_scales[pick] == scale, name
            series = p.draw(config)
            assert np.array_equal(np.array(series.estimates), want), (name, trial)
            assert series.noise_scale == scale
            assert series.thresholds == p.arms[pick].thresholds


def test_draws_read_the_arms_not_the_mechanism_name():
    # The arms carry the noise law; the plan's mechanism is only a label.
    trial_ids = [0, 3, 2**32 + 1]
    for name, p in _plans().items():
        renamed = dataclasses.replace(p, mechanism="renamed")
        for zero_noise in (False, True):
            want = p.draw_trials(trial_ids, 0.5, 7, zero_noise)
            got = renamed.draw_trials(trial_ids, 0.5, 7, zero_noise)
            assert np.array_equal(
                got.estimates.view(np.uint64), want.estimates.view(np.uint64)
            ), name
            assert np.array_equal(got.picks, want.picks), name
            assert got.arm_scales == want.arm_scales, name


def test_chunk_boundaries_never_show(monkeypatch):
    # At the module's budget: a sensdiff cell a few trials past one chunk.
    p = plan("sensdiff", SEQ, EDGE, BOUNDS)
    chunk = mechanisms._CHUNK_ELEMENTS // SEQ.horizon
    drawn = p.draw_trials(range(chunk + 3), 1.0, seed=2)
    for trial in (0, chunk - 2, chunk - 1, chunk, chunk + 1, chunk + 2):
        want, _, _ = _reference_draw(p, MechanismConfig(1.0, 2, trial))
        assert np.array_equal(drawn.estimates[trial], want), trial
    plans = _plans()
    trial_ids = list(range(23))
    whole = {
        name: p.draw_trials(trial_ids, 1.0, seed=4) for name, p in plans.items()
    }
    # Budgets that cut the cells into chunks of one, a few, or uneven sizes.
    for budget in (1, 50, 333):
        monkeypatch.setattr(mechanisms, "_CHUNK_ELEMENTS", budget)
        for name, p in plans.items():
            chunked = p.draw_trials(trial_ids, 1.0, seed=4)
            assert np.array_equal(chunked.estimates, whole[name].estimates), name
            assert np.array_equal(chunked.picks, whole[name].picks), name
            for i, trial in enumerate(trial_ids):
                want, pick, _ = _reference_draw(p, MechanismConfig(1.0, 4, trial))
                assert np.array_equal(chunked.estimates[i], want), (name, budget)
                assert chunked.picks[i] == pick


def test_batch_draw_checks_epsilon():
    p = plan("sensdiff", SEQ, EDGE, BOUNDS)
    for epsilon in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            p.draw_trials([0], epsilon)
    assert p.draw_trials([], 1.0).estimates.shape == (0, SEQ.horizon)


def test_experiment_scores_equal_per_trial_scores_exactly():
    seq = _pa_fixture()
    cfg = ExperimentConfig(dataset="pa", seq=seq, query=EDGE, epsilons=(0.5, 4.0),
                           trials=7, seed=9, tau_percentile=None)
    rows, summaries = run_experiment(cfg)
    plans = {
        mech: plan(mech, seq, EDGE, derive_bounds(seq),
                   candidates=default_projection_grid(seq))
        for mech in MECHANISMS
    }
    for row in rows:
        p = plans[row.mechanism]
        series = p.draw(MechanismConfig(row.epsilon, 9, row.trial))
        truth = p.truth.tolist()
        assert (row.rel_l1_error, row.skipped_terms) == relative_l1_error(
            series.estimates, truth
        )
        assert row.rel_l1_error == _loop_rel_l1(series.estimates, truth)
        assert type(row.rel_l1_error) is float and type(row.skipped_terms) is int
    for s in summaries:
        errors = [r.rel_l1_error for r in rows
                  if (r.mechanism, r.epsilon) == (s.mechanism, s.epsilon)]
        assert (s.mean_error, s.std_error) == (
            float(np.mean(errors)), float(np.std(errors))
        )
