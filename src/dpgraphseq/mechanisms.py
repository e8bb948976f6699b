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

Every exact value comes from the incremental engine
`statistics.exact_values`, which walks the arrival batches once, so a
release costs time linear in the sequence: the difference sequence entry
Delta_t is read from batch t alone.  For ``compose_projection`` the engine
reads the projection's kept edges batch by batch.  `snapshot` and
`evaluate` are not on this path; they are the reference the engine is
tested against.

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
    NonPositiveScaleError,
    UnsupportedBaselineQueryError,
)
from .graph_core import DegreeBounds, GraphSequence, verify_bounds
from .projection import ProjectionThresholds, canonical_ordering, projected_batches
from .sensitivity import (
    SensitivityReport,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from .statistics import StatisticQuery, exact_values

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

    @property
    def horizon(self) -> int:
        return len(self.estimates)


def laplace_sample(rng: np.random.Generator, scale: float, size=None):
    """Laplace(0, scale) draw; scale 0 means no noise."""
    if scale < 0:
        raise NonPositiveScaleError(f"noise scale must be >= 0, got {scale}")
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
    return rng.laplace(0.0, scale, size)


def _check_bounds(seq: GraphSequence, bounds: DegreeBounds) -> None:
    if bounds.is_directed != seq.directed:
        raise BoundViolationError("bound mode does not match the sequence")
    violation = verify_bounds(seq, bounds)
    if violation is not None:
        raise BoundViolationError(
            f"node {violation.node} reaches {violation.kind} "
            f"{violation.degree} at t={violation.time}, above the stated bound"
        )


def _bin_count(bounds) -> int:
    limit = bounds.d_out if bounds.is_directed else bounds.d
    return limit + 1


def _true_values(seq: GraphSequence, query: StatisticQuery, bins: int = 0):
    """Exact f(G_1..G_T); histograms as dense arrays over bins 0..limit."""
    values = []
    for val in exact_values(query, seq.directed, seq.batches):
        if query.is_scalar:
            values.append(float(val))
        else:
            dense = np.zeros(bins)
            for d, c in val.items():
                dense[d] += c
            values.append(dense)
    return values


def sensdiff_release(
    seq: GraphSequence,
    query: StatisticQuery,
    bounds: DegreeBounds,
    config: MechanismConfig,
) -> ReleaseSeries:
    """Noise each difference-sequence entry at the full budget, then sum.

    One Laplace scale, the whole-sequence L1 sensitivity over epsilon,
    covers every step: difference sequences of neighboring inputs differ by
    at most that much in L1 over all steps combined.
    """
    _check_bounds(seq, bounds)
    report = diff_sequence_sensitivity(query, bounds)
    scale = 0.0 if config.zero_noise else report.value / config.epsilon
    rng = config.rng(0)
    truth = _true_values(seq, query, _bin_count(bounds))
    increments = []
    prev = 0.0 if query.is_scalar else np.zeros(_bin_count(bounds))
    for val in truth:
        diff = val - prev
        size = None if query.is_scalar else diff.shape
        increments.append(diff + laplace_sample(rng, scale, size))
        prev = val
    estimates = []
    acc = 0.0 if query.is_scalar else np.zeros(_bin_count(bounds))
    for inc in increments:
        acc = acc + inc
        estimates.append(acc)
    return ReleaseSeries(
        mechanism="sensdiff",
        estimates=tuple(estimates),
        noise_scale=scale,
        sensitivity=report,
    )


def compose_bounded_release(
    seq: GraphSequence,
    query: StatisticQuery,
    bounds: DegreeBounds,
    config: MechanismConfig,
) -> ReleaseSeries:
    """Independent releases at epsilon/T with bounded per-release sensitivity."""
    _check_bounds(seq, bounds)
    report = per_release_sensitivity(query, bounds)
    horizon = seq.horizon
    scale = 0.0 if config.zero_noise else report.value * horizon / config.epsilon
    rng = config.rng(1)
    truth = _true_values(seq, query)
    estimates = tuple(val + laplace_sample(rng, scale) for val in truth)
    return ReleaseSeries(
        mechanism="compose_bounded",
        estimates=estimates,
        noise_scale=scale,
        sensitivity=report,
    )


def _projection_run(seq, ordering, query, thresholds, scale, rng):
    kept = projected_batches(seq, ordering, thresholds)
    return tuple(
        val + laplace_sample(rng, scale)
        for val in exact_values(query, seq.directed, kept)
    )


def compose_projection_release(
    seq: GraphSequence,
    query: StatisticQuery,
    config: MechanismConfig,
    thresholds: Optional[ProjectionThresholds] = None,
    candidates: Sequence[ProjectionThresholds] = (),
) -> ReleaseSeries:
    """Project online to smaller thresholds, then release at epsilon/T.

    Exactly one of `thresholds` (fixed) or `candidates` (picked by realized
    relative error against the exact unprojected statistic) must be given.
    """
    if (thresholds is None) == (not candidates):
        raise ValueError("give either fixed thresholds or a candidate list")
    if not query.is_scalar:
        raise UnsupportedBaselineQueryError(
            "projection baseline releases scalar statistics only"
        )
    horizon = seq.horizon
    truth = _true_values(seq, query)
    if thresholds is not None:
        candidates = [thresholds]
    ordering = canonical_ordering(seq)
    best = None
    for i, cand in enumerate(candidates):
        report = projected_sensitivity(query, cand)
        scale = 0.0 if config.zero_noise else report.value * horizon / config.epsilon
        released = _projection_run(seq, ordering, query, cand, scale, config.rng(2, i))
        err = sum(
            abs(est - tru) / tru for est, tru in zip(released, truth) if tru != 0
        )
        if best is None or err < best[0]:
            best = (err, cand, report, scale, released)
    _, cand, report, scale, released = best
    return ReleaseSeries(
        mechanism="compose_projection",
        estimates=released,
        noise_scale=scale,
        sensitivity=report,
        thresholds=cand,
    )


def release(
    mechanism: str,
    seq: GraphSequence,
    query: StatisticQuery,
    config: MechanismConfig,
    bounds: Optional[DegreeBounds] = None,
    thresholds: Optional[ProjectionThresholds] = None,
    candidates: Sequence[ProjectionThresholds] = (),
) -> ReleaseSeries:
    """Dispatch by mechanism name; see MECHANISMS."""
    if mechanism in ("sensdiff", "compose_bounded") and bounds is None:
        raise ValueError(f"{mechanism} needs degree bounds")
    if mechanism == "sensdiff":
        return sensdiff_release(seq, query, bounds, config)
    if mechanism == "compose_bounded":
        return compose_bounded_release(seq, query, bounds, config)
    if mechanism == "compose_projection":
        return compose_projection_release(
            seq, query, config, thresholds=thresholds, candidates=candidates
        )
    raise ValueError(f"unknown mechanism {mechanism!r}")
