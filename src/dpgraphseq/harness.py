"""Experiment harness: error sweeps over mechanisms, budgets, and datasets.

The protocol mirrors a typical utility evaluation: fill in the public
parameters (tau, degree bounds, projection candidates) the caller left out
with `release_parameters`, run each mechanism over a grid of privacy budgets
for many trials, and score each run by relative L1 error.  Output is
deterministic: identical config and seed give byte-identical CSV.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyGraphError
from .graph_core import (
    ArrivalBatch,
    DegreeBounds,
    GraphSequence,
    ProjectionThresholds,
    _check_int,
    _sequence,
)
# relative_l1_error is imported for the callers that import it from here.
from .mechanisms import (
    MECHANISMS,
    _check_epsilon,
    _check_seed,
    plan,
    relative_l1_error,
    relative_l1_errors,
)
from .statistics import StatisticQuery


def _node_walk(seq: GraphSequence):
    """The sequence's degree walk; a sequence without nodes has no degrees."""
    if not seq._node_times:
        raise EmptyGraphError("sequence has no nodes")
    return seq.degree_walk


def _check_percentile(percentile: float) -> None:
    if isinstance(percentile, bool):
        raise TypeError("percentile must be a number, not bool")
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")


def derive_tau(seq: GraphSequence, percentile: float) -> int:
    """numpy's "higher" percentile of the final (out-)degree multiset, >= 1.

    Not nearest-rank: p90 of degrees 1..10 is 10, where nearest-rank gives 9.
    """
    _check_percentile(percentile)
    # The walk's final out-counters, zeros included (one counter if undirected).
    degrees = list(_node_walk(seq).out.values())
    value = int(np.percentile(degrees, percentile, method="higher"))
    return max(value, 1)


def derive_bounds(seq: GraphSequence, granularity: int = 5) -> DegreeBounds:
    """Measured max degree rounded up to the next multiple of granularity."""
    _check_int("granularity", granularity)
    if granularity < 1:
        raise ValueError("granularity must be >= 1")

    def up(d):
        return max(granularity, -(-d // granularity) * granularity)

    d_in, d_out = (up(d) for d in _node_walk(seq).largest)
    if seq.directed:
        return DegreeBounds.directed(d_in, d_out)
    return DegreeBounds.undirected(d_out)


def rebatch(seq: GraphSequence, releases: int) -> GraphSequence:
    """Merge arrival batches into `releases` evenly spaced release windows.

    Window i (1-based) covers original times in ((i-1)*H/R, i*H/R]; a time-0
    batch stays at time 0.  Use this to study how error scales with the
    number of releases over a fixed data span.
    """
    _check_int("releases", releases)
    horizon = seq.horizon
    if releases < 1 or horizon < 1:
        raise ValueError("need at least one release and one step")
    merged: dict[int, tuple[list, list]] = {}
    zero: Optional[ArrivalBatch] = None
    for batch in seq.batches:
        if batch.time == 0:
            zero = batch
            continue
        window = max(1, -(-batch.time * releases // horizon))
        window = min(window, releases)
        nodes, edges = merged.setdefault(window, ([], []))
        nodes.extend(batch.nodes)
        edges.extend(batch.edges)
    batches = [] if zero is None else [zero]
    for w in range(1, releases + 1):
        nodes, edges = merged.get(w, ([], []))
        batches.append(ArrivalBatch(time=w, nodes=tuple(nodes), edges=tuple(edges)))
    # Each edge keeps the batch of the node it brought, and the nodes keep
    # their order, so `build_sequence` would store these batches as they are.
    return _sequence(seq.directed, tuple(batches))


def default_projection_grid(seq: GraphSequence, granularity: int = 5):
    """Candidate thresholds: multiples of `granularity` up to measured max."""
    steps = [range(granularity, cap + 1, granularity)
             for cap in derive_bounds(seq, granularity).caps]
    if seq.directed:
        return [ProjectionThresholds.directed(i, o) for i in steps[0] for o in steps[1]]
    return [ProjectionThresholds.undirected(d) for d in steps[1]]


def release_parameters(
    seq: GraphSequence, query: StatisticQuery, mechanisms: Sequence[str],
    tau_percentile: Optional[float] = None, bounds: Optional[DegreeBounds] = None,
    granularity: int = 5, candidates: Sequence[ProjectionThresholds] = (),
):
    """(query, bounds, candidates) for a release; given values pass through.

    What the caller leaves out is read off the data, spending no privacy
    budget: a high_degree tau at `tau_percentile` (None keeps the query's;
    without --tau the CLI's `experiment` uses p90 and `release` tau = 1
    unless --tau-percentile is given, which both refuse beside --tau or for
    another statistic, where it would be dropped), the bounds by
    `derive_bounds` (no --degree-bound) and, for compose_projection without
    --projection-thresholds, the `default_projection_grid` entries whose
    out-cap admits tau (all of them if none does, so the release reports
    the tau), of which each trial keeps the one with the lowest realized
    error.  A release that relies on any of these defaults is therefore not
    epsilon-DP end to end.
    """
    if query.kind == "high_degree" and tau_percentile is not None:
        query = StatisticQuery.high_degree(derive_tau(seq, tau_percentile))
    if "compose_projection" in mechanisms and not candidates:
        candidates = default_projection_grid(seq, granularity)
        if query.kind == "high_degree":
            admits = [th for th in candidates if th.caps[1] >= query.tau]
            candidates = admits or candidates
    return query, bounds or derive_bounds(seq, granularity), tuple(candidates)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    seq: GraphSequence
    query: StatisticQuery
    epsilons: tuple[float, ...]
    mechanisms: tuple[str, ...] = MECHANISMS
    trials: int = 100
    seed: int = 0
    zero_noise: bool = False
    releases: Optional[int] = None  # rebatch to this horizon when set
    tau_percentile: Optional[float] = 90.0  # None keeps query.tau
    bounds: Optional[DegreeBounds] = None
    bound_granularity: int = 5
    candidates: tuple = ()  # fixed thresholds are a one-entry tuple

    def __post_init__(self):
        for name in ("trials", "releases", "bound_granularity"):
            value = getattr(self, name)
            if name == "releases" and value is None:
                continue
            _check_int(name, value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        _check_seed("seed", self.seed)
        if not self.epsilons:
            raise ValueError("epsilon grid is empty")
        if not self.mechanisms:
            raise ValueError("mechanisms is empty")
        for epsilon in self.epsilons:
            _check_epsilon(epsilon)
        if self.tau_percentile is not None:
            _check_percentile(self.tau_percentile)
        unknown = set(self.mechanisms) - set(MECHANISMS)
        if unknown:
            raise ValueError(f"unknown mechanisms: {sorted(unknown)}")
        # A repeated value would run, and report, its sweep cells twice.
        for name, values in (("epsilon", self.epsilons), ("mechanism", self.mechanisms)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} {value!r} is given more than once")
        if not self.query.is_scalar:
            # relative_l1_error scores scalar series only.
            raise ValueError(
                f"experiments score scalar statistics only, not {self.query.label()}"
            )


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    query: str
    mechanism: str
    epsilon: float
    T: int
    trial: int
    rel_l1_error: float
    skipped_terms: int
    wall_ms: float  # the sweep cell's draw time divided by its trials

    def as_record(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    query: str
    mechanism: str
    epsilon: float
    T: int
    trials: int
    mean_error: float
    std_error: float


def run_experiment(cfg: ExperimentConfig):
    """Run the sweep; returns (rows, summaries) in deterministic order."""
    seq = cfg.seq
    if cfg.releases is not None and cfg.releases != seq.horizon:
        seq = rebatch(seq, cfg.releases)
    horizon = seq.horizon
    query, bounds, candidates = release_parameters(
        seq, cfg.query, cfg.mechanisms, cfg.tau_percentile, cfg.bounds,
        cfg.bound_granularity, cfg.candidates,
    )
    # Plans hold everything that draws no noise; each sweep cell draws all
    # of its trials in one call.
    plans = {
        mechanism: plan(mechanism, seq, query, bounds, candidates=candidates)
        for mechanism in cfg.mechanisms
    }

    rows = []
    summaries = []
    for epsilon in cfg.epsilons:
        for mechanism in cfg.mechanisms:
            # The columns a sweep cell's trial rows and summary share.
            cell = dict(dataset=cfg.dataset, query=query.label(),
                        mechanism=mechanism, epsilon=epsilon, T=horizon)
            start = time.perf_counter()
            drawn = plans[mechanism].draw_trials(
                range(cfg.trials), epsilon, cfg.seed, cfg.zero_noise
            )
            wall_ms = (time.perf_counter() - start) * 1000.0 / cfg.trials
            errors, skipped = relative_l1_errors(drawn.estimates, plans[mechanism].truth)
            rows.extend(
                ResultRow(**cell, trial=trial, rel_l1_error=err,
                          skipped_terms=skipped, wall_ms=wall_ms)
                for trial, err in enumerate(errors.tolist())
            )
            summaries.append(SummaryRow(**cell, trials=cfg.trials,
                                        mean_error=float(np.mean(errors)),
                                        std_error=float(np.std(errors))))
    return rows, summaries


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        rec = row.as_record()
        rec["epsilon"] = repr(row.epsilon)
        rec["rel_l1_error"] = repr(row.rel_l1_error)
        rec["wall_ms"] = f"{row.wall_ms:.3f}"
        writer.writerow(rec)
    return buf.getvalue()


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    return json.dumps([row.as_record() for row in rows], indent=2) + "\n"
