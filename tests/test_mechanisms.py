"""Release mechanisms: noise law, determinism, exactness at zero noise."""
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
from dpgraphseq.mechanisms import (
    MECHANISMS,
    MechanismConfig,
    laplace_sample,
    release,
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
