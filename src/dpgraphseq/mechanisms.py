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

A release has two halves.  `plan` draws no noise and is the one place a
mechanism is named.  It checks the inputs and reads every exact series from
the statistics engine: the truth f(G_1..G_T), one `statistics._series` call
(dense bin counts for a histogram), and one *arm* per series to noise
(sensdiff's difference sequence, compose_bounded's f, or each
compose_projection candidate's projected f) with its sensitivity, whose
regime fixes the noise law (`ReleaseArm.prefix_summed`): a diff_sequence arm
is one release, prefix-summed; a per-release arm is T releases at epsilon/T
each, released as is.  The bound check and every degree statistic read a
sequence's cached degree walk.  Each candidate is one `graph_core._walk` of
`graph_core.canonical_ordering` at its caps (the greedy projection), and its
arm is `statistics._degree_values` of that walk over the parent's batches,
the engine `_series` runs on the cached walk: every query with a projected
sensitivity is a degree statistic, and none builds the projected sequence.
Every candidate's sensitivity and threshold mode is checked before the
truth or any walk is computed.
`ReleasePlan.draw_trials` is the only noise code and reads only
arms.  It draws many trials at one epsilon and seed in array passes: each
arm fills a (trials, T[, bins]) noise block, a row per trial from its own
PCG64 stream, prefix-summed along the steps by the arm's law; several arms are
scored against the truth at once (`relative_l1_errors`) and each trial
keeps its lowest-error arm.  Chunks of trials (`_CHUNK_ELEMENTS`) bound its
memory.  `ReleasePlan.draw` is its one-trial case and `release` is
``plan(...).draw(config)``; the harness plans once and draws once per sweep
cell.  `snapshot` and `evaluate` (the engine at one snapshot) are not on
this path; the tests check every release against the naive counts of
`tests/bruteforce.py`.

Determinism: a trial's noise for the arm with seed stream ``s`` is, bit for
bit, ``Generator(PCG64(SeedSequence([seed, trial_id, *s]))).laplace(0.0,
scale, shape)``, so a (seed, trial_id) pair fully reproduces a run.  The
module never imports ``numpy.random``; the tests check every path against
numpy's own Generator.  `seed_words` is the one seeding definition; the
words of the seed and of each stream are built once per draw, not once per
trial.  `_laplace` draws every (arm, trial) key of a chunk in one call,
zero-noise arms included (scale 0 draws +0.0).  `_pcg64_states` runs
SeedSequence's hashing and PCG64's seeding as one array pass over all
keys; a draw of only a few keys (`_FEW_KEYS`, such as a one-trial release)
seeds each on Python ints instead (`_seed_ints`), below the array pass's
fixed cost.  Both call one `_hash` and one `_mix`, masked to 32 bits so
they run on Python ints and uint32 arrays alike, read one constant table
(`_hash_constants`), and give a state as the same four uint64 words (state
high, state low, inc high, inc low).  `_laplace_rows` finds every key's
k-th state by jump-ahead (`_jump_table`, built per size from a few
Python-int products in two array passes), a bounded block of steps at a
time, then applies PCG64's output function and numpy's inverse-CDF
sampler.  Its log is `math.log`, the libm function numpy's C sampler calls
(numpy's SIMD `np.log` can differ in the last bit), so releases also
depend on the platform's libm.
A draw of only a few values (`_SMALL_DRAW`) runs the same steps on Python
ints, which skips numpy's per-call cost; so does a row whose uniform is
exactly 0, which numpy rejects for the next word.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    LengthMismatchError,
    NonPositiveScaleError,
)
from .graph_core import (
    DegreeBounds,
    GraphSequence,
    ProjectionThresholds,
    _check_int,
    _check_mode,
    _walk,
    canonical_ordering,
    verify_bounds,
)
from .sensitivity import (
    SensitivityReport,
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from .statistics import StatisticQuery, _check_pattern, _degree_values, _series

MECHANISMS = ("sensdiff", "compose_bounded", "compose_projection")

# The noise blocks of one chunk of trials hold at most this many elements
# over all arms (at least one trial per chunk).
_CHUNK_ELEMENTS = 1 << 16


def _check_epsilon(epsilon: float) -> None:
    if isinstance(epsilon, bool):
        raise TypeError("epsilon must be a number, not bool")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def seed_words(*values: int) -> list[int]:
    """The uint32 entropy numpy builds for ``SeedSequence(list(values))``.

    Each int becomes its 32-bit words, low word first, and 0 becomes [0],
    so ``SeedSequence(np.array(seed_words(*v), dtype=np.uint32))`` has the
    state of ``SeedSequence(list(v))`` without numpy's per-call coercion.
    Bools and numpy ints raise `TypeError`, as in `_check_seed`.
    """
    words = []
    for n in values:
        if type(n) is not int:
            raise TypeError(f"expected an int, got {type(n).__name__}")
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
    _check_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_32 = 0xFFFFFFFF
_MASK_64 = (1 << 64) - 1
_MASK_128 = (1 << 128) - 1
# A draw of at most _SMALL_DRAW values over all its keys is seeded and drawn
# on Python ints: the array path's fixed ~0.2 ms per call would make a
# one-trial release several times slower.
_SMALL_DRAW = 128
# A longer draw of at most _FEW_KEYS keys still seeds them on Python ints
# (~15 us a key), below the array pass's fixed ~0.2 ms.
_FEW_KEYS = 12
# The array path draws each row in blocks of 2**_BLOCK_BITS steps, so its jump
# tables and temporaries stay bounded however long the draw.
_BLOCK_BITS = 12

# Every operand of the uint64 kernel is np.uint64: numpy 1.x turns a Python
# int mixed with an np.uint64 scalar into float64.  SeedSequence's hashing
# takes Python-int constants below 2**32, against Python ints or uint32
# arrays, which keep their type under numpy 1.x's value-based casting and
# numpy 2's rules alike.
_U1, _U11, _U32 = np.uint64(1), np.uint64(11), np.uint64(32)
_U58, _U63, _U64 = np.uint64(58), np.uint64(63), np.uint64(64)
_LOW = np.uint64(_MASK_32)


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, calls: int):
    """The (xor, multiply) uint32 constants of `calls` successive hashes.

    Hash k xors with init * mult**k and multiplies by init * mult**(k+1),
    whatever the data, so a run of hashes is tabled once.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK_32)
    return tuple(consts[:-1]), tuple(consts[1:])


# SeedSequence's hash and mix, masked to 32 bits, so each runs on Python ints
# and on uint32 arrays alike.
def _hash(values, xor, mul):
    values = (values ^ xor) * mul & _MASK_32
    return values ^ values >> 16


def _mix(x, y):
    mixed = (_MIX_L * x - _MIX_R * y) & _MASK_32
    return mixed ^ mixed >> 16


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """``PCG64(SeedSequence(row)).state`` for every row of a uint32 matrix.

    Returns a (rows, 4) uint64 array of the 128-bit state and increment as
    columns (state high, state low, inc high, inc low).  SeedSequence's
    4-word pool and ``generate_state(4, uint64)`` run as uint32 array passes
    over all rows (each step of numpy's loops reads columns the same step
    does not write); PCG64's seeding is one `_affine` pass.
    """
    rows, width = entropy.shape
    # Four init hashes, 12 cross-mix hashes, four per word beyond the pool.
    calls = 16 + 4 * max(width - 4, 0)
    xor, mul = np.array(_hash_constants(_INIT_A, _MULT_A, calls), dtype=np.uint32)
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
    xor, mul = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)
    words = _hash(pool[:, [0, 1, 2, 3] * 2], xor, mul).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (words[:, 0::2] | words[:, 1::2] << _U32).T
    # pcg64_srandom_r: inc = seq << 1 | 1, state = M * (seed + inc) + inc.
    inc_hi = seq_hi << _U1 | seq_lo >> _U63
    inc_lo = seq_lo << _U1 | _U1
    inc = _limbs(inc_hi, inc_lo)
    states = np.empty((rows, 4), dtype=np.uint64)
    states[:, 0], states[:, 1] = _affine(
        _int_limbs(_PCG_MULT), _limbs(seed_hi, seed_lo), _int_limbs(_PCG_MULT + 1), inc
    )
    states[:, 2], states[:, 3] = inc_hi, inc_lo
    return states


def _seed_ints(words: list[int]) -> tuple[int, int, int, int]:
    """`_pcg64_states` of one entropy row on Python ints: the row's four words."""
    width = len(words)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(width - 4, 0))
    pool = list(map(_hash, words[:4] + [0] * (4 - width), xor, mul))
    at = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hash(pool[src], xor[at], mul[at]))
                at += 1
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, xor[at], mul[at]))
            at += 1
    out = list(map(_hash, pool * 2, *_hash_constants(_INIT_B, _MULT_B, 8)))
    # uint64 word j is out[2j] | out[2j+1] << 32; seed and sequence take
    # two words each, the first high.
    seed = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = ((out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 | 1) & _MASK_128
    state = ((seed + inc) * _PCG_MULT + inc) & _MASK_128
    return state >> 64, state & _MASK_64, inc >> 64, inc & _MASK_64


def _limbs(hi, lo):
    """The four 32-bit limbs, low first, of 128-bit values split in uint64."""
    return lo & _LOW, lo >> _U32, hi & _LOW, hi >> _U32


def _int_limbs(*values: int) -> np.ndarray:
    """The four 32-bit limbs, low first, of 128-bit ints: (4, len(values))."""
    raw = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(raw, dtype="<u4").reshape(-1, 4).T.astype(np.uint64)


def _affine(a, x, b, y):
    """``(a * x + b * y) mod 2**128`` as (high, low) uint64 arrays.

    Each operand is four 32-bit limbs, low first (`_limbs`), in uint64 arrays
    that broadcast.  A limb product at 2**64 or 2**96 is summed whole and
    wraps, since only its bits below 2**128 count; the products below 2**64
    are split in 32-bit halves so the low word's carry is exact.
    """
    a0, a1, a2, a3 = a
    x0, x1, x2, x3 = x
    b0, b1, b2, b3 = b
    y0, y1, y2, y3 = y
    p00, q00 = a0 * x0, b0 * y0
    p01, p10, q01, q10 = a0 * x1, a1 * x0, b0 * y1, b1 * y0
    low = (p00 & _LOW) + (q00 & _LOW)
    mid = ((low >> _U32) + (p00 >> _U32) + (q00 >> _U32)
           + (p01 & _LOW) + (p10 & _LOW) + (q01 & _LOW) + (q10 & _LOW))
    top = a0 * x3 + a1 * x2 + a2 * x1 + a3 * x0 + b0 * y3 + b1 * y2 + b2 * y1 + b3 * y0
    high = ((mid >> _U32) + (p01 >> _U32) + (p10 >> _U32) + (q01 >> _U32)
            + (q10 >> _U32) + a0 * x2 + a1 * x1 + a2 * x0 + b0 * y2 + b1 * y1
            + b2 * y0 + (top << _U32))
    return high, (low & _LOW) | (mid << _U32)


@functools.lru_cache(maxsize=None)
def _jump_table(bits: int) -> np.ndarray:
    """Limbs of M**k and of B(k) = sum_{j<k} M**j mod 2**128, k = 1..2**bits.

    Rows 0-3 and 4-7 of an (8, 2**bits) read-only uint64 array: k steps of
    PCG64's LCG take a state s to M**k * s + B(k) * inc.  Column k - 1 holds
    k = a + b, with a a multiple of the stride 2**ceil(bits/2) and b in
    1..stride: b steps then a steps give M**k = M**a * M**b and B(k) =
    M**a * B(b) + B(a).  So the a-rows and b-columns are a few Python-int
    pairs, and two `_affine` passes over their grid fill the table.  Each
    draw asks for the smallest table that covers it, at most `_BLOCK_BITS`,
    so the cache holds under 2**(_BLOCK_BITS + 1) columns in all.
    """
    stride = 1 << (bits + 1) // 2
    cols = [(_PCG_MULT, 1)]
    while len(cols) < stride:
        m, b = cols[-1]
        cols.append((m * _PCG_MULT & _MASK_128, (b * _PCG_MULT + 1) & _MASK_128))
    m_stride, b_stride = cols[-1]
    rows = [(1, 0)]
    while len(rows) * stride < 1 << bits:
        m, b = rows[-1]
        rows.append((m * m_stride & _MASK_128, (m * b_stride + b) & _MASK_128))
    m_a, b_a = (_int_limbs(*side)[:, :, None] for side in zip(*rows))
    m_b, b_b = (_int_limbs(*side)[:, None, :] for side in zip(*cols))
    table = np.empty((8, len(rows), stride), dtype=np.uint64)
    table[:4] = _limbs(*_affine(m_a, m_b, b_a, _int_limbs(0)))
    table[4:] = _limbs(*_affine(m_a, b_b, b_a, _int_limbs(1)))
    table = table.reshape(8, -1)
    table.flags.writeable = False
    return table


def _xsl_rr(high, low):
    """PCG64's 64-bit output of 128-bit states: (high ^ low) rotated right
    by the top six bits."""
    x = high ^ low
    r = high >> _U58
    return x >> r | x << ((_U64 - r) & _U63)


def _laplace_rows(states: np.ndarray, scales: np.ndarray, size: int) -> np.ndarray:
    """`size` Laplace draws from each row's PCG64 state, as numpy draws them.

    `states` is `_pcg64_states`' (rows, 4) form and `scales` one scale per
    row.  Row i equals ``Generator(PCG64)`` at that state calling
    ``.laplace(0.0, scales[i], size)``, bit for bit: draw k reads the word of
    the state k + 1 steps on, found by `_jump_table` for every row at once, a
    block of 2**_BLOCK_BITS draws at a time.
    """
    state = _limbs(states[:, 0, None], states[:, 1, None])
    inc = _limbs(states[:, 2, None], states[:, 3, None])
    scales = scales[:, None]
    draws = np.empty((len(states), size))
    zero = np.zeros(len(states), dtype=bool)
    block = 1 << _BLOCK_BITS
    for lo in range(0, size, block):
        out = draws[:, lo:lo + block]
        width = out.shape[1]
        table = _jump_table((width - 1).bit_length())[:, :width]
        words = _xsl_rr(*_affine(table[:4], state, table[4:], inc))
        u = (words >> _U11).astype(np.float64) * 2.0 ** -53
        if not u.all():
            # numpy rejects U == 0 and takes the next word, which shifts the
            # row: such rows are redrawn below (odds 2**-53 per draw).
            zero |= (u == 0).any(axis=1)
            u[u == 0] = 0.5
        high = u >= 0.5
        # numpy's sampler calls libm's log, as math.log does; np.log's SIMD
        # loops can differ from it in the last bit.
        logs = np.fromiter(
            map(math.log, np.where(high, (2.0 - u) - u, u + u).ravel().tolist()),
            dtype=np.float64, count=u.size,
        ).reshape(u.shape)
        logs *= scales
        # loc - b * log on the upper half, loc + b * log below, with loc 0.0
        # kept: it makes a zero draw (U = 0.5, or scale 0) positive.
        np.copyto(out, np.where(high, 0.0 - logs, 0.0 + logs))
        if lo + block < size:
            # The next block starts from the state `block` steps on, the last
            # column of this full block's table.
            state = _limbs(*_affine(table[:4, -1:], state, table[4:, -1:], inc))
    for row in np.flatnonzero(zero):
        draws[row] = _laplace_ints(states[row].tolist(), float(scales[row, 0]), size)
    return draws


def _laplace_ints(row: Sequence[int], scale: float, size: int) -> list[float]:
    """`_laplace_rows` of one state row's four words on Python ints, one word
    at a time."""
    state_hi, state_lo, inc_hi, inc_lo = row
    state, inc = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
    log = math.log
    draws = []
    while len(draws) < size:
        state = (state * _PCG_MULT + inc) & _MASK_128
        x = (state ^ state >> 64) & _MASK_64
        u = ((x << 64 | x) >> (state >> 122) & _MASK_64) >> 11
        if u:  # numpy rejects U == 0 and takes the next word
            u *= 2.0 ** -53
            if u >= 0.5:
                draws.append(0.0 - scale * log((2.0 - u) - u))
            else:
                draws.append(0.0 + scale * log(u + u))
    return draws


def _laplace(keys: list[list[int]], scales: list[float], size: int) -> np.ndarray:
    """Laplace(0, scales[i]) draws of shape (len(keys), size), row i from
    ``Generator(PCG64(SeedSequence(keys[i])))``, bit for bit."""
    if min(scales) < 0:
        raise NonPositiveScaleError(f"noise scale must be >= 0, got {min(scales)}")
    if len(keys) * size <= _SMALL_DRAW:
        return np.array([_laplace_ints(_seed_ints(words), scale, size)
                         for words, scale in zip(keys, scales)])
    if len(keys) <= _FEW_KEYS:
        states = np.array(list(map(_seed_ints, keys)), dtype=np.uint64)
    else:
        states = np.empty((len(keys), 4), dtype=np.uint64)
        for width in {len(words) for words in keys}:
            at = [j for j, words in enumerate(keys) if len(words) == width]
            states[at] = _pcg64_states(np.array([keys[j] for j in at], dtype=np.uint32))
    return _laplace_rows(states, np.array(scales), size)


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

    `estimates` are the released values, one numpy value per step: a
    float64, or for histogram queries a dense float row over bins 0..degree
    bound.  So ``np.asarray(estimates)`` has the plan truth's shape, and
    every estimate has ``.tolist()``.  Its caps are ``sensitivity.bounds``:
    the picked arm's projection thresholds if its regime is projected.
    """

    mechanism: str
    estimates: tuple
    noise_scale: float
    sensitivity: SensitivityReport


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


@dataclass(frozen=True)
class ReleaseArm:
    """One exact series to noise, shape (T,) or (T, bins); its sensitivity
    regime fixes its noise law (`prefix_summed`)."""

    sensitivity: SensitivityReport
    series: np.ndarray
    stream: tuple[int, ...]  # seed stream of its Laplace draw

    @property
    def prefix_summed(self) -> bool:
        """The noise law: a diff_sequence arm is one release, at the L1
        sensitivity of the whole series, whose prefix sums are released;
        every other regime's arm is len(series) releases that share
        epsilon, each released as is."""
        return self.sensitivity.regime == "diff_sequence"

    def scale(self, epsilon: float) -> float:
        releases = 1 if self.prefix_summed else len(self.series)
        return self.sensitivity.value * releases / epsilon


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

    mechanism: str  # the label `draw` gives its ReleaseSeries
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
        _check_seed("seed", seed)
        arms = self.arms
        scales = tuple([0.0 if zero_noise else arm.scale(epsilon) for arm in arms])
        head = seed_words(seed)
        tails = [seed_words(*arm.stream) for arm in arms]
        chunk = max(1, _CHUNK_ELEMENTS // (len(arms) * self.truth.size))
        estimates = np.empty((len(trial_ids), *self.truth.shape))
        picks = np.zeros(len(trial_ids), dtype=np.intp)
        for lo in range(0, len(trial_ids), chunk):
            words = [seed_words(t) for t in trial_ids[lo:lo + chunk]]
            out = estimates[lo:lo + len(words)]
            # Every (arm, trial) key of the chunk in one kernel call, one
            # (trials, T[, bins]) block per arm; scale 0 draws only +0.0.
            noisy = _laplace(
                [head + trial + tail for tail in tails for trial in words],
                [scale for scale in scales for _ in words],
                self.truth.size,
            ).reshape(len(arms), *out.shape)
            for block, arm in zip(noisy, arms):
                block += arm.series
                if arm.prefix_summed:
                    # np.cumsum's loop, in place, without its wrapper's cost.
                    np.add.accumulate(block, axis=1, out=block)
            if len(arms) > 1:
                pick = np.argmin(relative_l1_errors(noisy, self.truth)[0], axis=0)
                picks[lo:lo + len(words)] = pick
                out[...] = noisy[pick, np.arange(len(words))]
            else:
                out[...] = noisy[0]
        return TrialDraws(estimates, picks, scales)

    def draw(self, config: MechanismConfig) -> ReleaseSeries:
        """One trial of `draw_trials`, as a ReleaseSeries."""
        drawn = self.draw_trials(
            (config.trial_id,), config.epsilon, config.seed, config.zero_noise
        )
        pick = int(drawn.picks[0])
        return ReleaseSeries(
            mechanism=self.mechanism,
            estimates=tuple(drawn.estimates[0]),
            noise_scale=drawn.arm_scales[pick],
            sensitivity=self.arms[pick].sensitivity,
        )


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
    respect (`verify_bounds`).  compose_projection needs exactly one of
    `thresholds` (fixed) or `candidates` (one arm each, picked per trial by
    realized error against the exact unprojected statistic).  A parameter
    the mechanism does not read is ignored, since `run_experiment` hands
    every plan the same resolved ones; `ExperimentConfig` and the CLI refuse
    one that no selected mechanism reads.  A regime's sensitivity lookup
    refuses a query it lacks, such as a histogram under compose_projection.
    Every truth is one `_series` call; sensdiff widens histogram rows to
    bins 0..cap_out.  The sequence needs at least one release step, a batch
    at t >= 1; it is a node-arrival sequence by construction (`GraphSequence`).
    """
    if seq.horizon < 1:
        raise ValueError("the sequence has no release step (no batch at t >= 1)")
    if mechanism == "compose_projection":
        if (thresholds is None) == (not candidates):
            raise ValueError("give either fixed thresholds or a candidate list")
        # Every check precedes the engine: the pattern's mode, then each
        # candidate's sensitivity (an infeasible threshold, or a query with
        # no projected formula; every query that has one is a degree
        # statistic), then each candidate's mode.
        if query.kind == "subgraph":
            _check_pattern(query.pattern, seq.directed)
        candidates = candidates or (thresholds,)
        reports = [projected_sensitivity(query, th) for th in candidates]
        for th in candidates:
            _check_mode(seq, th)
        truth = np.array(_series(query, seq), dtype=float)
        # The canonical ordering covers every batch by construction.
        ordering = canonical_ordering(seq)
        arms = []
        for i, (th, report) in enumerate(zip(candidates, reports)):
            walk = _walk(seq, ordering, *th.caps)
            series = np.array(_degree_values(query, seq, walk), dtype=float)
            arms.append(ReleaseArm(report, series, (2, i)))
        return ReleasePlan(mechanism, truth, tuple(arms))
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if bounds is None:
        raise ValueError(f"{mechanism} needs degree bounds")
    violation = verify_bounds(seq, bounds)
    if violation is not None:
        raise BoundViolationError(
            f"node {violation.node} reaches {violation.kind} "
            f"{violation.degree} at t={violation.time}, above the stated bound"
        )
    bounded = mechanism == "compose_bounded"
    rule = per_release_sensitivity if bounded else diff_sequence_sensitivity
    report, truth = rule(query, bounds), np.array(_series(query, seq), dtype=float)
    if bounded:
        return ReleasePlan(mechanism, truth, (ReleaseArm(report, truth, (1,)),))
    if truth.ndim == 2:
        # Histogram rows stop at the largest degree, a release at the out-cap.
        rows, truth = truth, np.zeros((len(truth), bounds.caps[1] + 1))
        truth[:, :rows.shape[1]] = rows
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
