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
reads every exact series from the statistics engine: the truth f(G_1..G_T)
and one *arm* per series to noise, i.e. sensdiff's difference sequence,
compose_bounded's f, or each compose_projection candidate's projected f.
The bound check and every degree statistic read a sequence's cached degree
walk.  Each candidate is one `projection.admission_walk`, the same walk at
the candidate's caps, and its arm is `statistics.admitted_values` of that
walk: a degree statistic reads the walk over the parent's batches, and
only the triangle family builds the projected sequence.
`ReleasePlan.draw_trials` is the only noise code: it draws many trials at
one epsilon and seed in array passes.  Each arm fills a
(trials, T[, bins]) noise block, one row per trial from that trial's own
generator; sensdiff takes one prefix sum along the step axis; several
arms are scored against the truth at once (`relative_l1_errors`) and each
trial keeps its lowest-error arm.  Blocks are filled a chunk of trials at a
time (`_CHUNK_ELEMENTS`), so memory does not grow with trials x T x arms.
`ReleasePlan.draw` is its one-trial case and `release` is
``plan(...).draw(config)``; the harness plans once and draws once per
sweep cell.  `snapshot` and `evaluate` (the engine at one snapshot) are
not on this path; the tests check every release against the naive counts
of `tests/bruteforce.py`.

Determinism: a trial's noise for the arm with seed stream ``s`` comes from
``Generator(PCG64(SeedSequence(seed_words(seed, trial_id, *s))))``, which
draws exactly the bits of ``SeedSequence([seed, trial_id, *s])``, so a
(seed, trial_id) pair fully reproduces a run.  `seed_words` is the one
seeding definition; the words of the seed and of each stream are built
once per draw, not once per trial.  numpy builds a draw's first generator;
every later (arm, trial) key reseeds it through ``bit_generator.state``
with the state `_pcg64_states` computes for all keys of a chunk in one
array pass of SeedSequence's hashing and PCG64's seeding, bit for bit the
state numpy would build (the tests check it against numpy).
"""
from __future__ import annotations

import functools
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
from .projection import ProjectionThresholds, admission_walk, canonical_ordering
from .sensitivity import (
    SensitivityReport,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from .statistics import StatisticQuery, admitted_values, exact_values

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


def _check_seed(name: str, value) -> None:
    """`seed_words`' input rule, checked where a config names the field."""
    if type(value) is not int:  # refuses bools and numpy ints too
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def _generator(words: list[int]) -> np.random.Generator:
    random = np.random
    return random.Generator(random.PCG64(random.SeedSequence(
        np.array(words, dtype=np.uint32))))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, calls: int):
    """The (xor, multiply) uint32 constants of `calls` successive hashes.

    Hash k xors with init * mult**k and multiplies by init * mult**(k+1),
    whatever the data, so a run of hashes is tabled once (read-only).
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


def _hash(values, xor, mul):
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _mix(x, y):
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


def _pcg64_states(entropy: np.ndarray) -> list[dict]:
    """``PCG64(SeedSequence(row)).state`` for every row of a uint32 matrix.

    SeedSequence's 4-word pool and ``generate_state(4, uint64)`` run as
    uint32 array passes over all rows (each step of numpy's loops reads
    columns the same step does not write); PCG64's two seeding steps run
    on Python ints.
    """
    rows, width = entropy.shape
    # Four init hashes, 12 cross-mix hashes, four per word beyond the pool.
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(width - 4, 0))
    pool = np.zeros((rows, 4), dtype=np.uint32)
    pool[:, :width] = entropy[:, :4]
    pool = _hash(pool, xor[:4], mul[:4])
    at = 4
    for src in range(4):
        # Column src, hashed once per other column, mixes into each of them.
        dst = [d for d in range(4) if d != src]
        hashed = _hash(pool[:, src, None], xor[at:at + 3], mul[at:at + 3])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        at += 3
    for src in range(4, width):
        hashed = _hash(entropy[:, src, None], xor[at:at + 4], mul[at:at + 4])
        pool = _mix(pool, hashed)
        at += 4
    # generate_state cycles the pool twice; uint64 word j is words 2j, 2j+1.
    words = _hash(pool[:, [0, 1, 2, 3] * 2], *_hash_constants(_INIT_B, _MULT_B, 8))
    words = words.astype(np.uint64)
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in (
        words[:, 0::2] | words[:, 1::2] << np.uint64(32)
    ).tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK_128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK_128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _reseed_states(keys: list[list[int]]) -> list[dict]:
    """`_pcg64_states` of each key's entropy, in order: one pass per width."""
    states: list = [None] * len(keys)
    for width in {len(entropy) for entropy in keys}:
        at = [j for j, entropy in enumerate(keys) if len(entropy) == width]
        rows = np.array([keys[j] for j in at], dtype=np.uint32)
        for j, state in zip(at, _pcg64_states(rows)):
            states[j] = state
    return states


@dataclass(frozen=True)
class MechanismConfig:
    """Privacy budget and randomness for one mechanism run."""

    epsilon: float
    seed: int = 0
    trial_id: int = 0
    zero_noise: bool = False  # debugging aid: Laplace scale forced to zero

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        _check_seed("seed", self.seed)
        _check_seed("trial_id", self.trial_id)


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
        scales = tuple([
            0.0 if zero_noise else arm.sensitivity.value * releases / epsilon
            for arm in arms
        ])
        shape = self.truth.shape
        head = seed_words(seed)
        tails = [seed_words(*arm.stream) for arm in arms]
        noised_arms = len(scales) - scales.count(0.0)
        chunk = max(1, _CHUNK_ELEMENTS // (len(arms) * self.truth.size))
        estimates = np.empty((len(trial_ids), *shape))
        picks = np.zeros(len(trial_ids), dtype=np.intp)
        rng = None
        for lo in range(0, len(trial_ids), chunk):
            words = [seed_words(t) for t in trial_ids[lo:lo + chunk]]
            out = estimates[lo:lo + len(words)]
            # One (trials, T[, bins]) block per arm; a lone arm fills `out`.
            noisy = out[None] if len(arms) == 1 else np.empty((len(arms), *out.shape))
            # Every (arm, trial) key drawn but the call's first reseeds one
            # generator: their states come from one array pass, in draw order.
            states = None
            if noised_arms * len(words) > (rng is None):
                keys = [head + trial + tail
                        for tail, scale in zip(tails, scales) if scale for trial in words]
                states = iter(_reseed_states(keys[rng is None:]))
            for block, arm, scale, tail in zip(noisy, arms, scales, tails):
                if scale == 0:
                    block.fill(0.0)
                else:
                    for i, trial in enumerate(words):
                        if rng is None:
                            # The call's first key gets numpy's own seeding.
                            rng = _generator(head + trial + tail)
                        else:
                            rng.bit_generator.state = next(states)
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
    against the exact unprojected statistic), and a scalar query.  The
    sequence needs at least one release step, a batch at t >= 1.
    """
    if seq.horizon < 1:
        raise ValueError("the sequence has no release step (no batch at t >= 1)")
    if mechanism == "compose_projection":
        if (thresholds is None) == (not candidates):
            raise ValueError("give either fixed thresholds or a candidate list")
        if not query.is_scalar:
            raise UnsupportedBaselineQueryError(
                "projection baseline releases scalar statistics only"
            )
        truth = _exact_scalars(query, seq)
        # The canonical ordering covers every batch by construction.  Each
        # arm's sensitivity is computed before its walk, so an infeasible
        # threshold is reported first.
        ordering = canonical_ordering(seq)
        arms = tuple(
            ReleaseArm(
                sensitivity=projected_sensitivity(query, th),
                series=np.fromiter(
                    admitted_values(query, seq, *admission_walk(seq, ordering, th)),
                    dtype=float,
                ),
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
