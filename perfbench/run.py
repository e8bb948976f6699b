"""dpgraphseq benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; the package is imported from `src/`.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.

Workloads (inputs come from `gen.py`, seeded by --seed):
  growth-release  undirected growth family, T=300 steps of 10 arrivals,
                  degree bound 8: streamed ingest, edge-list parse, bound
                  check, sensdiff for five statistics, scoring.
  pa-sweep        criterion-5 PA transmission fixture: run_experiment with
                  sensdiff + compose_bounded (100 trials) and
                  compose_projection (5 trials, 44-candidate grid) at
                  epsilon 1 and 10.
  oracle-certify  criterion 1's catalog through the oracle at n_max=5,
                  t_max=3 for eight bounds, cold: every pass runs in a
                  fresh interpreter, so the oracle's module cache starts
                  empty.

Every pass runs in its own interpreter (`worker.py pass`) and is repeated
until --seconds have gone by.  Set-up runs in a fresh interpreter before
each pass, so its samples spread over the run like the passes do.  After
the timed passes each run checks zero-noise releases against the
generator's reference counts (`worker.py check`); every failed check or
raised exception counts in "failed".

Timings are scaled to a reference core speed.  The machines this runs on
share cores, and their speed switches between levels up to 1.6x apart
every 5-20 s; a median of raw pass times spread by 20-30% from run to run.
So each pass is split into steps of at most about two seconds, and a fixed
pure-Python calibration loop (worker.calibrate) runs before and after every
step and after set-up.  A step's time is multiplied by CAL_REF_S over the
mean of its two calibrations, which reads as seconds on the reference
machine and follows the momentary speed of this one; raw times are printed
alongside.

End-to-end metrics (untraced passes, medians over the run):
  setup_s      import plus input generation in a fresh interpreter;
  wall_s       one pass, from inputs in to scored releases out;
  peak_rss_mb  peak resident memory of a pass's interpreter.

Per-layer metrics (--trace 1): half the passes are traced with spans
around each call into the program (see spans.py), and a traced probe times
what a pass cannot separate from outside: per-step snapshots and
evaluations, harness helpers, projection, single release calls.  Times of
whole pass steps (parse, bound check, one sensdiff, run_experiment, oracle
sweeps) are scaled and the median over traced passes; times of single
calls (ingest_step, release, project_sequence, scoring) are raw medians of
all calls.  A metric whose layer a workload does not run reads 0.  Derived
values:
  mechanisms.sensdiff_self_ms.<q>  sensdiff's time outside its truth loop:
      the probe times sensdiff for q, then right after the same loop of
      per-step snapshots and evaluations of q that sensdiff runs, both
      scaled to reference speed, and subtracts the loop.  A small, noisy
      difference that can read < 0;
  *_exponent  log-log slope of cumulative cost over the prefixes T/4, T/2
      and T of the growth sequence (ingest, per-step snapshot, per-step
      triangle evaluation);
  trace.overhead_frac  traced wall_s over untraced wall_s, minus 1.
Spans of traced runs are written to .perfbench/ when the run ends.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import CAL_REF_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("growth-release", "pa-sweep", "oracle-certify")
GROWTH_QUERIES = ("edge", "triangle", "k_star2", "high_degree4", "degree_histogram")
ORACLE_BOUNDS = ("D1", "D2", "D3", "in1out1", "in1out2", "in2out1", "in1out3", "in3out1")
MECHANISMS = ("sensdiff", "compose_bounded", "compose_projection")
SETUP_REPEATS = 5
MIN_PASSES = 3
WORKER_TIMEOUT_S = 60
MIN_SCALING_STEPS = 100
RUN_BUDGET_S = 100  # no new pass starts after this, so a run ends in 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {
        "graph_core.ingest_step_ms": "ms",
        "graph_core.ingest_exponent": "1",
        "ingest_ms.p50": "ms",
        "ingest_ms.p99": "ms",
        "ingest_ms.n": "count",
        "graph_core.loads_edge_list_ms": "ms",
        "graph_core.snapshot_ms": "ms",
        "graph_core.snapshot_exponent": "1",
        "graph_core.verify_bounds_ms": "ms",
        "graph_core.batches": "count",
        "graph_core.nodes": "count",
        "graph_core.edges": "count",
        "statistics.evaluate_exponent.triangle": "1",
        "projection.canonical_ordering_ms": "ms",
        "projection.project_sequence_ms": "ms",
        "projection.candidates": "count",
        "projection.kept_edge_ratio": "ratio",
        "harness.rebatch_ms": "ms",
        "harness.derive_bounds_ms": "ms",
        "harness.projection_grid_ms": "ms",
        "harness.truth_ms": "ms",
        "harness.relative_l1_error_ms": "ms",
        "harness.run_experiment_s": "s",
        "oracle.cached_call_us": "us",
        "trace.overhead_frac": "ratio",
    }
    for q in GROWTH_QUERIES:
        units[f"statistics.evaluate_ms.{q}"] = "ms"
        units[f"mechanisms.sensdiff_ms.{q}"] = "ms"
        units[f"mechanisms.sensdiff_self_ms.{q}"] = "ms"
    for m in MECHANISMS:
        units[f"mechanisms.release_ms.{m}"] = "ms"
        units[f"mean_rel_l1.{m}"] = "ratio"
    for b in ORACLE_BOUNDS:
        units[f"oracle.sweep_s.{b}"] = "s"
        units[f"oracle.triangle_s.{b}"] = "s"
    return units


# --- workers ----------------------------------------------------------------


class Runner:
    """Starts workers in fresh interpreters and tallies their operations."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, mode: str, traced: bool = False):
        """(result dict or None on failure, wall seconds of the interpreter).

        For set-up the seconds are those until the inputs were ready, scaled
        to reference speed.
        """
        cmd = [sys.executable, str(HERE / "worker.py"), mode, self.workload,
               str(self.seed), "1" if traced else "0"]
        spawned = time.time()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, text=True,
                                  capture_output=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode}: timed out after {WORKER_TIMEOUT_S} s"), 0.0
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            return self._fail(f"{mode}: exit {proc.returncode}: {proc.stderr[-2000:]}"), wall
        result = json.loads(proc.stdout.splitlines()[-1])
        if mode == "setup":
            setup = (result["ready"] - spawned) * CAL_REF_S / result["cal_s"]
            return result, setup
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]
        return result, wall

    def _fail(self, message: str):
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)
        return None


# --- aggregation --------------------------------------------------------------


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def span_durations(records, name):
    return [r["end"] - r["start"] for r in records if r["name"] == name]


def per_call(workers, name):
    """Median duration of one call to `name`, pooled over workers."""
    return median(d for w in workers for d in span_durations(w["spans"], name))


def scaled_step(passes, name):
    """Median over passes of the scaled time of every step `name` or `name.*`."""
    return median(
        sum(t for step, t in p["steps_ref"].items()
            if step == name or step.startswith(name + "."))
        for p in passes
    )


def ref_wall(passes):
    """Median over passes of the pass time scaled to reference speed."""
    return median(sum(p["steps_ref"].values()) for p in passes)


def scaling_exponent(step_costs: list[float]) -> float:
    """Log-log slope of cumulative cost over the prefixes T/4, T/2 and T.

    Only long horizons (growth-release) give a slope; shorter ones read 0.
    """
    n = len(step_costs)
    if n < MIN_SCALING_STEPS:
        return 0.0
    xs = [n // 4, n // 2, n]
    ys = [sum(step_costs[:x]) for x in xs]
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / 3, sum(ly) / 3
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def truth_loops(records):
    """Per query, the direct children of each truth-loop span, by name.

    The growth probe runs one loop per query (`probe.truth.<q>`), the PA
    probe one for the edge count (`harness.truth`).
    """
    loops = {}
    for i, r in enumerate(records):
        if r["name"].startswith("probe.truth."):
            loops[i] = r["name"][len("probe.truth."):]
        elif r["name"] == "harness.truth":
            loops[i] = "edge"
    kids = {q: {} for q in loops.values()}
    for r in records:
        if r["parent"] in loops:
            kids[loops[r["parent"]]].setdefault(r["name"], []).append(r["end"] - r["start"])
    return kids


def end_to_end_metrics(setup_walls, plain):
    return {
        "setup_s": median(setup_walls),
        "wall_s": ref_wall(plain),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
    }


def per_layer_metrics(plain, traced, probe):
    m = dict.fromkeys(per_layer_units(), 0.0)
    probe = probe or {"spans": [], "steps": {}, "steps_ref": {}}
    ms = 1e3

    # graph_core
    # Ingest latencies are timed inside any span, so traced passes add
    # samples too: 6+ growth passes give 1800+, over 10 beyond p99.
    samples = [x for p in plain + traced for x in p.get("ingest_s", ())]
    if samples:
        m["ingest_ms.p50"] = median(samples) * ms
        m["ingest_ms.p99"] = (
            statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else samples[0]
        ) * ms
        m["ingest_ms.n"] = len(samples)
    m["graph_core.ingest_exponent"] = median(
        scaling_exponent(p["ingest_s"]) for p in plain + traced if "ingest_s" in p)
    m["graph_core.ingest_step_ms"] = per_call(traced, "graph_core.ingest_step") * ms
    m["graph_core.loads_edge_list_ms"] = scaled_step(traced, "loads_edge_list") * ms
    m["graph_core.verify_bounds_ms"] = scaled_step(traced, "verify_bounds") * ms
    for key in ("batches", "nodes", "edges"):
        m[f"graph_core.{key}"] = median(p["sizes"][key] for p in traced if "sizes" in p)

    # graph_core and statistics inside the truth loops.  The growth probe
    # ran its loops as calibrated steps, so they are scaled like the
    # releases they are compared to.
    loops = truth_loops(probe["spans"])
    raw, ref = probe.get("steps", {}), probe.get("steps_ref", {})
    speed = {q: ref[f"truth.{q}"] / raw[f"truth.{q}"] if f"truth.{q}" in raw else 1.0
             for q in loops}
    m["graph_core.snapshot_ms"] = median(
        sum(kids["graph_core.snapshot"]) * speed[q] for q, kids in loops.items()) * ms
    m["graph_core.snapshot_exponent"] = median(
        scaling_exponent(kids["graph_core.snapshot"]) for kids in loops.values())
    for q, kids in loops.items():
        evaluate = kids[f"statistics.evaluate.{q}"]
        m[f"statistics.evaluate_ms.{q}"] = sum(evaluate) * speed[q] * ms
        if q == "triangle":
            m["statistics.evaluate_exponent.triangle"] = scaling_exponent(evaluate)
        if f"sensdiff.{q}" in ref:
            m[f"mechanisms.sensdiff_self_ms.{q}"] = (
                ref[f"sensdiff.{q}"] - ref[f"truth.{q}"]) * ms

    # mechanisms
    for q in GROWTH_QUERIES:
        m[f"mechanisms.sensdiff_ms.{q}"] = scaled_step(traced, f"sensdiff.{q}") * ms
    for mech in MECHANISMS:
        m[f"mechanisms.release_ms.{mech}"] = per_call([probe], f"mechanisms.release.{mech}") * ms
        m[f"mean_rel_l1.{mech}"] = median(
            p["mean_rel_l1"][mech] for p in traced if "mean_rel_l1" in p)

    # projection
    m["projection.canonical_ordering_ms"] = per_call([probe], "projection.canonical_ordering") * ms
    m["projection.project_sequence_ms"] = per_call([probe], "projection.project_sequence") * ms
    m["projection.candidates"] = probe.get("candidates", 0)
    m["projection.kept_edge_ratio"] = probe.get("kept_edge_ratio", 0.0)

    # harness
    for name in ("rebatch", "derive_bounds", "projection_grid", "truth"):
        m[f"harness.{name}_ms"] = per_call([probe], f"harness.{name}") * ms
    m["harness.relative_l1_error_ms"] = per_call(
        traced + [probe], "harness.relative_l1_error") * ms
    m["harness.run_experiment_s"] = scaled_step(traced, "run_experiment")

    # oracle: each call scaled by the speed of the bound's step
    calls = [
        (c["bound"], c["kind"], c["s"] * p["steps_ref"][c["bound"]] / p["steps"][c["bound"]])
        for p in traced for c in p.get("oracle_calls", ())
    ]
    for b in ORACLE_BOUNDS:
        m[f"oracle.sweep_s.{b}"] = median(s for cb, k, s in calls if cb == b and k == "sweep")
        m[f"oracle.triangle_s.{b}"] = median(
            s for cb, k, s in calls if cb == b and k == "triangle")
    m["oracle.cached_call_us"] = median(s for _, k, s in calls if k == "cached") * 1e6

    if plain and traced:
        m["trace.overhead_frac"] = ref_wall(traced) / ref_wall(plain) - 1
    return m


# --- run metadata -------------------------------------------------------------


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_metadata(root: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": _commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py")
        ),
    }


# --- main ---------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dpgraphseq" / "__init__.py").is_file():
        print(f"no dpgraphseq sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    run_start = time.perf_counter()

    setup_walls = []

    def set_up():
        result, wall = runner.run("setup")
        if result is not None:
            setup_walls.append(wall)

    plain, traced = [], []
    failed_passes = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if (elapsed >= args.seconds and (enough or failed_passes >= MIN_PASSES)) or (
            time.perf_counter() - run_start > RUN_BUDGET_S
        ):
            break
        use_trace = bool(args.trace) and len(traced) < len(plain)
        set_up()
        result, _ = runner.run("pass", traced=use_trace)
        if result is None:
            failed_passes += 1
        else:
            (traced if use_trace else plain).append(result)

    for _ in range(SETUP_REPEATS - len(setup_walls)):
        set_up()
    probe = runner.run("probe", traced=True)[0] if args.trace else None
    runner.run("check")

    if not plain or not setup_walls or (args.trace and not traced):
        print("no pass completed:\n" + "\n".join(runner.errors), file=sys.stderr)
        return 1

    meta = run_metadata(root)
    if args.trace:
        metrics = per_layer_metrics(plain, traced, probe)
        units = per_layer_units()
        out = root / ".perfbench"
        out.mkdir(exist_ok=True)
        # One span list per worker; a span's parent indexes its own list.
        spans = [p["spans"] for p in traced + ([probe] if probe else [])]
        (out / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"meta": meta, "workers": spans}))
    else:
        metrics = end_to_end_metrics(setup_walls, plain)
        units = END_TO_END

    print("# meta " + json.dumps(meta))
    walls = sorted(round(sum(p["steps"].values()), 3) for p in plain)
    print(f"# raw untraced pass walls (s): {walls}")
    print(f"# scaled set-up times (s): {sorted(round(w, 4) for w in setup_walls)}")
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; "
          f"failed_frac {runner.failed / max(runner.attempted, 1):.6g}")
    for err in runner.errors[:20]:
        print("# FAILED " + err.replace("\n", " | "))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
