"""Release mechanisms: noise law, determinism, exactness at zero noise, and
the batch draw bit for bit against a per-trial reference."""
import numpy as np
import pytest

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    snapshot,
    evaluate,
)
from dpgraphseq.errors import (
    BoundViolationError,
    NonPositiveScaleError,
    UnsupportedBaselineQueryError,
)
from dpgraphseq import mechanisms
from dpgraphseq.generators import PaTransmissionParams, generate_pa_transmission
from dpgraphseq.harness import (
    ExperimentConfig,
    default_projection_grid,
    derive_bounds,
    run_experiment,
)
from dpgraphseq.mechanisms import (
    MECHANISMS,
    MechanismConfig,
    laplace_sample,
    plan,
    relative_l1_error,
    release,
    seed_words,
)


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
    rng = np.random.default_rng(7)
    draws = laplace_sample(rng, 2.0, size=200_000)
    assert abs(draws.mean()) < 0.05
    assert np.isclose(draws.std(), 2.0 * np.sqrt(2), rtol=0.02)
    assert laplace_sample(rng, 0.0) == 0.0
    assert not laplace_sample(rng, 0.0, size=3).any()
    with pytest.raises(NonPositiveScaleError):
        laplace_sample(rng, -1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=-2.0)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=float("nan"))
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=float("inf"))


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
    truth = [evaluate(EDGE, snapshot(SEQ, t)) for t in range(1, SEQ.horizon + 1)]
    assert list(series.estimates) == [float(v) for v in truth]
    assert series.noise_scale == 0.0


def test_zero_noise_histogram_release_is_exact():
    config = MechanismConfig(epsilon=1.0, zero_noise=True)
    hist_q = StatisticQuery.degree_histogram()
    series = release("sensdiff", SEQ, hist_q, config, bounds=BOUNDS)
    for t, est in enumerate(series.estimates, start=1):
        exact = evaluate(hist_q, snapshot(SEQ, t))
        dense = np.zeros(BOUNDS.d + 1)
        for d, cnt in exact.items():
            dense[d] = cnt
        assert np.allclose(est, dense)


def test_zero_noise_compose_baselines_are_exact():
    config = MechanismConfig(epsilon=1.0, zero_noise=True)
    truth = [
        float(evaluate(EDGE, snapshot(SEQ, t))) for t in range(1, SEQ.horizon + 1)
    ]
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


def test_sensdiff_partial_sum_noise_grows_with_sqrt_t():
    """Error std at step t is sqrt(2) * (GS/eps) * sqrt(t) for sensdiff."""
    seq = chain_seq(9)
    truth = [
        float(evaluate(EDGE, snapshot(seq, t))) for t in range(1, seq.horizon + 1)
    ]
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
            config = MechanismConfig(epsilon=1.0, seed=seed, trial_id=trial)
            reference = np.random.default_rng(
                np.random.SeedSequence([seed, trial, *stream])
            )
            assert (config.rng(*stream).random(4) == reference.random(4)).all()
    with pytest.raises(ValueError, match="non-negative"):
        seed_words(0, -1)


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
