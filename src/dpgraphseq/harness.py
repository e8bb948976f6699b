"""Experiment harness: error sweeps over mechanisms, budgets, and datasets.

The protocol mirrors a typical utility evaluation: derive public parameters
(degree bounds, thresholds) from the data, run each mechanism over a grid of
privacy budgets for many trials, and score each run by relative L1 error.
Output is deterministic: identical config and seed give byte-identical CSV.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyGraphError
from .graph_core import ArrivalBatch, DegreeBounds, GraphSequence
from .mechanisms import MECHANISMS, MechanismConfig, plan, relative_l1_error
from .projection import ProjectionThresholds
from .statistics import StatisticQuery

CSV_COLUMNS = (
    "dataset",
    "query",
    "mechanism",
    "epsilon",
    "T",
    "trial",
    "rel_l1_error",
    "skipped_terms",
    "wall_ms",
)


def _final_degrees(seq: GraphSequence):
    """(in-degrees, out-degrees) of every node at the horizon, zeros included.

    They are the final counters of the sequence's degree walk; an undirected
    degree is one counter, read as both sides.
    """
    if not seq.node_time:
        raise EmptyGraphError("sequence has no nodes")
    walk = seq.degree_walk
    return list(walk.inn.values()), list(walk.out.values())


def derive_tau(seq: GraphSequence, percentile: float) -> int:
    """Nearest-rank percentile of the final (out-)degree multiset, >= 1."""
    if not 0 < percentile < 100:
        raise ValueError("percentile must be in (0, 100)")
    degrees = _final_degrees(seq)[-1]
    value = int(np.percentile(degrees, percentile, method="higher"))
    return max(value, 1)


def derive_bounds(seq: GraphSequence, granularity: int = 5) -> DegreeBounds:
    """Measured max degree rounded up to the next multiple of granularity."""
    if granularity < 1:
        raise ValueError("granularity must be >= 1")

    def up(d):
        return max(granularity, -(-d // granularity) * granularity)

    d_in, d_out = (up(max(degrees)) for degrees in _final_degrees(seq))
    if seq.directed:
        return DegreeBounds.directed(d_in, d_out)
    return DegreeBounds.undirected(d_out)


def rebatch(seq: GraphSequence, releases: int) -> GraphSequence:
    """Merge arrival batches into `releases` evenly spaced release windows.

    Window i (1-based) covers original times in ((i-1)*H/R, i*H/R]; a time-0
    batch stays at time 0.  Use this to study how error scales with the
    number of releases over a fixed data span.
    """
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
    return GraphSequence(directed=seq.directed, batches=tuple(batches))


def default_projection_grid(seq: GraphSequence, granularity: int = 5):
    """Candidate thresholds: multiples of `granularity` up to measured max."""
    top = derive_bounds(seq, granularity)
    if seq.directed:
        return [
            ProjectionThresholds.directed(i, o)
            for i in range(granularity, top.d_in + 1, granularity)
            for o in range(granularity, top.d_out + 1, granularity)
        ]
    return [
        ProjectionThresholds.undirected(d)
        for d in range(granularity, top.d + 1, granularity)
    ]


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
    tau: Optional[int] = None
    tau_percentile: float = 90.0
    bounds: Optional[DegreeBounds] = None
    bound_granularity: int = 5
    thresholds: Optional[ProjectionThresholds] = None
    candidates: tuple = ()

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilon grid must be positive")
        unknown = set(self.mechanisms) - set(MECHANISMS)
        if unknown:
            raise ValueError(f"unknown mechanisms: {sorted(unknown)}")
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
    wall_ms: float

    def as_record(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


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
    bounds = cfg.bounds or derive_bounds(seq, cfg.bound_granularity)
    query = cfg.query
    if query.kind == "high_degree" and cfg.tau is None:
        query = StatisticQuery.high_degree(derive_tau(seq, cfg.tau_percentile))
    elif query.kind == "high_degree":
        query = StatisticQuery.high_degree(cfg.tau)
    candidates = cfg.candidates
    if (
        "compose_projection" in cfg.mechanisms
        and cfg.thresholds is None
        and not candidates
    ):
        candidates = tuple(default_projection_grid(seq, cfg.bound_granularity))
    # Plans hold everything that draws no noise, so each trial only draws.
    plans = {
        mechanism: plan(mechanism, seq, query, bounds, cfg.thresholds, candidates)
        for mechanism in cfg.mechanisms
    }

    rows = []
    summaries = []
    for epsilon in cfg.epsilons:
        for mechanism in cfg.mechanisms:
            truth = plans[mechanism].truth.tolist()
            errors = []
            for trial in range(cfg.trials):
                mc = MechanismConfig(
                    epsilon=epsilon,
                    seed=cfg.seed,
                    trial_id=trial,
                    zero_noise=cfg.zero_noise,
                )
                start = time.perf_counter()
                series = plans[mechanism].draw(mc)
                wall_ms = (time.perf_counter() - start) * 1000.0
                err, skipped = relative_l1_error(series.estimates, truth)
                errors.append(err)
                rows.append(
                    ResultRow(
                        dataset=cfg.dataset,
                        query=query.label(),
                        mechanism=mechanism,
                        epsilon=epsilon,
                        T=horizon,
                        trial=trial,
                        rel_l1_error=err,
                        skipped_terms=skipped,
                        wall_ms=wall_ms,
                    )
                )
            summaries.append(
                SummaryRow(
                    dataset=cfg.dataset,
                    query=query.label(),
                    mechanism=mechanism,
                    epsilon=epsilon,
                    T=horizon,
                    trials=cfg.trials,
                    mean_error=float(np.mean(errors)),
                    std_error=float(np.std(errors)),
                )
            )
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
