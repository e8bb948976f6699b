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
reads every exact series from `statistics.exact_values(query, seq)`: the
truth f(G_1..G_T) and one *arm* per series to noise, i.e. sensdiff's
difference sequence, compose_bounded's f, or each compose_projection
candidate's projected f.  The bound check and every degree statistic read
a sequence's cached degree walk; each candidate is `projection.admit`, the
same walk at the candidate's caps, which leaves the projected sequence's
walk cached.  `ReleasePlan.draw_trials` is the only noise code: it draws
many trials at one epsilon and seed in array passes.  Each arm fills a
(trials, T[, bins]) noise block, one row per trial from that trial's own
generator; sensdiff takes one prefix sum along the step axis; several arms
are scored against the truth at once (`relative_l1_errors`) and each trial
keeps its lowest-error arm.  Blocks are filled a chunk of trials at a time
(`_CHUNK_ELEMENTS`), so memory does not grow with trials x T x arms.
`ReleasePlan.draw` is its one-trial case and `release` is
``plan(...).draw(config)``; the harness plans once and draws once per
sweep cell.  `snapshot` and `evaluate` are not on this path; they are the
reference the engine is tested against.

Determinism: a trial's noise for the arm with seed stream ``s`` comes from
``Generator(PCG64(SeedSequence(seed_words(seed, trial_id, *s))))``, which
draws exactly the bits of ``SeedSequence([seed, trial_id, *s])``, so a
(seed, trial_id) pair fully reproduces a run.  `seed_words` is the one
seeding definition; the words of the seed and of each stream are built
once per draw, not once per trial.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    LengthMismatchError,
    NonPositiveScaleError,
    UnsupportedBaselineQueryError,
)
from .graph_core import DegreeBounds, GraphSequence, verify_bounds
from .projection import ProjectionThresholds, admit, canonical_ordering
from .sensitivity import (
    SensitivityReport,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from .statistics import StatisticQuery, exact_values

MECHANISMS = ("sensdiff", "compose_bounded", "compose_projection")

# The noise blocks of one chunk of trials hold at most this many elements
# over all arms (at least one trial per chunk).
_CHUNK_ELEMENTS = 1 << 16


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def seed_words(*values: int) -> list[int]:
    """The uint32 entropy numpy builds for ``SeedSequence(list(values))``.

    Each int becomes its 32-bit words, low word first, and 0 becomes [0],
    so ``SeedSequence(np.array(seed_words(*v), dtype=np.uint32))`` has the
    state of ``SeedSequence(list(v))`` without numpy's per-call coercion.
    """
    words = []
    for n in values:
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    return words


def _generator(words: list[int]) -> np.random.Generator:
    random = np.random
    return random.Generator(random.PCG64(random.SeedSequence(
        np.array(words, dtype=np.uint32))))


@dataclass(frozen=True)
class MechanismConfig:
    """Privacy budget and randomness for one mechanism run."""

    epsilon: float
    seed: int = 0
    trial_id: int = 0
    zero_noise: bool = False  # debugging aid: Laplace scale forced to zero

    def __post_init__(self):
        _check_epsilon(self.epsilon)

    def rng(self, *stream: int) -> np.random.Generator:
        return _generator(seed_words(self.seed, self.trial_id, *stream))


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


def relative_l1_errors(estimates, truth):
    """`relative_l1_error` of every series along the last axis of `estimates`.

    Returns (errors, skipped_terms): an array over the leading axes, and the
    number of zero-truth steps.  Each error is accumulated step by step in
    order, as a loop would add it (np.sum's pairwise order would move the
    last bits).
    """
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape[-1] != len(truth):
        raise LengthMismatchError(
            f"{estimates.shape[-1]} estimates for {len(truth)} exact values"
        )
    kept = truth != 0
    terms = np.abs(estimates[..., kept] - truth[kept]) / truth[kept]
    if terms.shape[-1]:
        errors = np.cumsum(terms, axis=-1)[..., -1]
    else:
        errors = np.zeros(estimates.shape[:-1])
    return errors, len(truth) - int(np.count_nonzero(kept))


def relative_l1_error(estimates: Sequence[float], truth: Sequence[float]):
    """Sum of |estimate - truth| / truth; zero-truth steps are skipped.

    Returns (error, skipped_terms).  The metric is undefined where the exact
    value is zero, so those steps are omitted and counted instead.
    """
    error, skipped = relative_l1_errors(estimates, truth)
    return float(error), skipped


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


class TrialDraws(NamedTuple):
    """Many trials of one plan at one epsilon and seed.

    `estimates[i]` is trial i's released series, shape (T,) or (T, bins),
    and `picks[i]` the index of the plan arm it came from, so its noise
    scale is ``arm_scales[picks[i]]``.
    """

    estimates: np.ndarray
    picks: np.ndarray
    arm_scales: tuple[float, ...]


@dataclass(frozen=True)
class ReleasePlan:
    """The noise-free half of a release; `draw_trials` adds the noise.

    `truth` is the exact f(G_1..G_T): a float per step, or for histograms a
    dense row per step over bins 0..degree bound.
    """

    mechanism: str
    truth: np.ndarray
    arms: tuple[ReleaseArm, ...]

    def draw_trials(
        self, trial_ids: Sequence[int], epsilon: float, seed: int = 0,
        zero_noise: bool = False,
    ) -> TrialDraws:
        """Noise every arm once per trial; of several arms each trial keeps
        the lowest realized relative L1 error against the truth (zero-truth
        steps skipped, the first arm on a tie).

        Trial i equals ``draw(MechanismConfig(epsilon, seed, trial_ids[i],
        zero_noise))`` bit for bit.
        """
        _check_epsilon(epsilon)
        arms = self.arms
        # sensdiff spends epsilon once on Delta; composition spends epsilon/T
        # on each of the T releases.
        releases = 1 if self.mechanism == "sensdiff" else len(self.truth)
        scales = tuple(
            0.0 if zero_noise else arm.sensitivity.value * releases / epsilon
            for arm in arms
        )
        shape = self.truth.shape
        head = seed_words(seed)
        tails = [seed_words(*arm.stream) for arm in arms]
        chunk = max(1, _CHUNK_ELEMENTS // (len(arms) * self.truth.size))
        estimates = np.empty((len(trial_ids), *shape))
        picks = np.zeros(len(trial_ids), dtype=np.intp)
        for lo in range(0, len(trial_ids), chunk):
            words = [seed_words(t) for t in trial_ids[lo:lo + chunk]]
            out = estimates[lo:lo + len(words)]
            # One (trials, T[, bins]) block per arm; a lone arm fills `out`.
            noisy = out[None] if len(arms) == 1 else np.empty((len(arms), *out.shape))
            for block, arm, scale, tail in zip(noisy, arms, scales, tails):
                if scale == 0:
                    block.fill(0.0)
                else:
                    for i, trial in enumerate(words):
                        rng = _generator(head + trial + tail)
                        block[i] = laplace_sample(rng, scale, shape)
                block += arm.series
            if self.mechanism == "sensdiff":
                # np.cumsum's loop, in place, without its wrapper's cost.
                np.add.accumulate(noisy, axis=2, out=noisy)
            if len(arms) > 1:
                pick = np.argmin(relative_l1_errors(noisy, self.truth)[0], axis=0)
                picks[lo:lo + len(words)] = pick
                out[...] = noisy[pick, np.arange(len(words))]
        return TrialDraws(estimates, picks, scales)

    def draw(self, config: MechanismConfig) -> ReleaseSeries:
        """One trial of `draw_trials`, as a ReleaseSeries."""
        drawn = self.draw_trials(
            (config.trial_id,), config.epsilon, config.seed, config.zero_noise
        )
        noisy = drawn.estimates[0]
        pick = int(drawn.picks[0])
        arm = self.arms[pick]
        return ReleaseSeries(
            mechanism=self.mechanism,
            # Scalar estimates stay Python floats, as the CSV writer expects.
            estimates=tuple(noisy.tolist() if noisy.ndim == 1 else noisy),
            noise_scale=drawn.arm_scales[pick],
            sensitivity=arm.sensitivity,
            thresholds=arm.thresholds,
        )


def _exact_scalars(query: StatisticQuery, seq: GraphSequence) -> np.ndarray:
    return np.fromiter(exact_values(query, seq), dtype=float)


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
        # The canonical ordering covers every batch by construction.
        ordering = canonical_ordering(seq)
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
        hists = exact_values(query, seq)
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
