"""Private continual-release mechanisms.

Three mechanisms share one interface and return a ReleaseSeries:

* ``sensdiff``            — noise the difference sequence once with the
  single L1 sensitivity of the whole sequence, release prefix sums.
* ``compose_bounded``     — noise every release f(G_t) independently at
  budget epsilon/T using the bounded per-release sensitivity.
* ``compose_projection``  — like compose_bounded but the sequence is
  greedily projected online to smaller degree thresholds first, trading
  projection bias for less noise.  Thresholds may be fixed or picked from a
  candidate list by realized error (the pick spends no extra budget;
  callers who need end-to-end privacy must fix the thresholds up front).

A release has two halves.  `plan` draws no noise: it checks the inputs and
reads every exact series from the incremental engine
`statistics.sequence_values`: the truth f(G_1..G_T) and one *arm* per series
to noise, i.e. sensdiff's difference sequence, compose_bounded's f, or each
compose_projection candidate's projected f.  The bound check and every
degree statistic read the sequence's one cached degree walk; each candidate
projection records its own walk while admitting edges, after one check of
the edge ordering per plan.  `ReleasePlan.draw` is the only noise code.
`release` is ``plan(...).draw(config)``; the harness plans once and draws
once per trial.  `snapshot` and `evaluate` are not on this path; they are
the reference the engine is tested against.

Determinism: all noise comes from numpy Generators seeded with
SeedSequence([seed, trial_id, ...]), so a (seed, trial_id) pair fully
reproduces a run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    LengthMismatchError,
    NonPositiveScaleError,
    UnsupportedBaselineQueryError,
)
from .graph_core import DegreeBounds, GraphSequence, verify_bounds
from .projection import ProjectionThresholds, admit, canonical_ordering, check_ordering
from .sensitivity import (
    SensitivityReport,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from .statistics import StatisticQuery, sequence_values

MECHANISMS = ("sensdiff", "compose_bounded", "compose_projection")


@dataclass(frozen=True)
class MechanismConfig:
    """Privacy budget and randomness for one mechanism run."""

    epsilon: float
    seed: int = 0
    trial_id: int = 0
    zero_noise: bool = False  # debugging aid: Laplace scale forced to zero

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, self.trial_id, *stream])
        )


@dataclass(frozen=True)
class ReleaseSeries:
    """One mechanism run: estimates of f(G_1..G_T) plus bookkeeping.

    `estimates` are the released values.  For histogram queries they are
    per-step dense arrays over bins 0..degree bound.
    """

    mechanism: str
    estimates: tuple
    noise_scale: float
    sensitivity: SensitivityReport
    thresholds: Optional[ProjectionThresholds] = None


def laplace_sample(rng: np.random.Generator, scale: float, size=None):
    """Laplace(0, scale) draw; scale 0 means no noise."""
    if scale < 0:
        raise NonPositiveScaleError(f"noise scale must be >= 0, got {scale}")
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
    return rng.laplace(0.0, scale, size)


def relative_l1_error(estimates: Sequence[float], truth: Sequence[float]):
    """Sum of |estimate - truth| / truth; zero-truth steps are skipped.

    Returns (error, skipped_terms).  The metric is undefined where the exact
    value is zero, so those steps are omitted and counted instead.
    """
    if len(estimates) != len(truth):
        raise LengthMismatchError(
            f"{len(estimates)} estimates for {len(truth)} exact values"
        )
    err = 0.0
    skipped = 0
    for est, tru in zip(estimates, truth):
        if tru == 0:
            skipped += 1
        else:
            err += abs(est - tru) / tru
    return err, skipped


def _check_bounds(seq: GraphSequence, bounds: DegreeBounds) -> None:
    if bounds.is_directed != seq.directed:
        raise BoundViolationError("bound mode does not match the sequence")
    violation = verify_bounds(seq, bounds)
    if violation is not None:
        raise BoundViolationError(
            f"node {violation.node} reaches {violation.kind} "
            f"{violation.degree} at t={violation.time}, above the stated bound"
        )


@dataclass(frozen=True)
class ReleaseArm:
    """One exact series to noise, shape (T,) or (T, bins), and its noise law."""

    sensitivity: SensitivityReport
    series: np.ndarray
    stream: tuple[int, ...]  # seed stream of its Laplace draw
    thresholds: Optional[ProjectionThresholds] = None


@dataclass(frozen=True)
class ReleasePlan:
    """The noise-free half of a release; `draw` adds the noise of one trial.

    `truth` is the exact f(G_1..G_T): a float per step, or for histograms a
    dense row per step over bins 0..degree bound.
    """

    mechanism: str
    truth: np.ndarray
    arms: tuple[ReleaseArm, ...]

    def draw(self, config: MechanismConfig) -> ReleaseSeries:
        """Noise every arm once; of several arms keep the lowest realized
        relative L1 error against the truth (zero-truth steps skipped)."""
        # sensdiff spends epsilon once on Delta; composition spends epsilon/T
        # on each of the T releases.
        releases = 1 if self.mechanism == "sensdiff" else len(self.truth)
        drawn = []
        for arm in self.arms:
            scale = (
                0.0
                if config.zero_noise
                else arm.sensitivity.value * releases / config.epsilon
            )
            rng = config.rng(*arm.stream)
            noisy = arm.series + laplace_sample(rng, scale, arm.series.shape)
            if self.mechanism == "sensdiff":
                noisy = np.cumsum(noisy, axis=0)
            # Scalar estimates stay Python floats, as the CSV writer expects.
            drawn.append((scale, tuple(noisy.tolist() if noisy.ndim == 1 else noisy)))
        pick = 0
        if len(drawn) > 1:
            truth = self.truth.tolist()
            errors = [relative_l1_error(estimates, truth)[0] for _, estimates in drawn]
            pick = errors.index(min(errors))
        arm = self.arms[pick]
        scale, estimates = drawn[pick]
        return ReleaseSeries(
            mechanism=self.mechanism,
            estimates=estimates,
            noise_scale=scale,
            sensitivity=arm.sensitivity,
            thresholds=arm.thresholds,
        )


def _exact_scalars(query: StatisticQuery, seq: GraphSequence) -> np.ndarray:
    return np.fromiter(sequence_values(query, seq), dtype=float)


def plan(
    mechanism: str,
    seq: GraphSequence,
    query: StatisticQuery,
    bounds: Optional[DegreeBounds] = None,
    thresholds: Optional[ProjectionThresholds] = None,
    candidates: Sequence[ProjectionThresholds] = (),
) -> ReleasePlan:
    """Check the inputs and compute every exact series a release noises.

    sensdiff and compose_bounded need degree bounds, which the sequence must
    respect.  compose_projection needs exactly one of `thresholds` (fixed)
    or `candidates` (one arm each, picked per trial by realized error
    against the exact unprojected statistic), and a scalar query.
    """
    if mechanism == "compose_projection":
        if (thresholds is None) == (not candidates):
            raise ValueError("give either fixed thresholds or a candidate list")
        if not query.is_scalar:
            raise UnsupportedBaselineQueryError(
                "projection baseline releases scalar statistics only"
            )
        truth = _exact_scalars(query, seq)
        ordering = canonical_ordering(seq)
        check_ordering(seq, ordering)
        arms = tuple(
            ReleaseArm(
                sensitivity=projected_sensitivity(query, th),
                series=_exact_scalars(query, admit(seq, ordering, th)),
                stream=(2, i),
                thresholds=th,
            )
            for i, th in enumerate(candidates or (thresholds,))
        )
        return ReleasePlan(mechanism, truth, arms)
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if bounds is None:
        raise ValueError(f"{mechanism} needs degree bounds")
    _check_bounds(seq, bounds)
    if mechanism == "compose_bounded":
        report = per_release_sensitivity(query, bounds)
        truth = _exact_scalars(query, seq)
        return ReleasePlan(mechanism, truth, (ReleaseArm(report, truth, (1,)),))
    report = diff_sequence_sensitivity(query, bounds)
    if query.is_scalar:
        truth = _exact_scalars(query, seq)
    else:
        hists = sequence_values(query, seq)
        _, cap_out = bounds.caps
        truth = np.zeros((len(hists), cap_out + 1))
        for t, hist in enumerate(hists):
            for d, count in hist.items():
                truth[t, d] = count
    delta = np.diff(truth, axis=0, prepend=0.0)
    return ReleasePlan(mechanism, truth, (ReleaseArm(report, delta, (0,)),))


def release(
    mechanism: str,
    seq: GraphSequence,
    query: StatisticQuery,
    config: MechanismConfig,
    bounds: Optional[DegreeBounds] = None,
    thresholds: Optional[ProjectionThresholds] = None,
    candidates: Sequence[ProjectionThresholds] = (),
) -> ReleaseSeries:
    """One run of a mechanism (see MECHANISMS): ``plan(...).draw(config)``."""
    return plan(mechanism, seq, query, bounds, thresholds, candidates).draw(config)
