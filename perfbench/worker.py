"""One benchmark step in a fresh interpreter.

    python3 perfbench/worker.py <mode> <workload> <seed> <trace>

Modes:
  setup  import the package and generate the inputs, nothing else;
  pass   one timed pass of the workload (traced when <trace> is 1),
         followed by cheap checks of that pass's outputs;
  probe  traced per-layer probes that the pass cannot see from outside;
  check  zero-noise exactness checks against the reference counts.

Every mode prints one JSON object as its last stdout line; setup reports
when the inputs were ready and a calibration taken right after.
Operations that raise or fail a check are counted in "failed"; a mode that
cannot continue reports the traceback and exits with status 1.
"""
from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import gen
from spans import Tracer

perf_counter = time.perf_counter

EPSILON = 1.0


class Ledger:
    """Attempted and failed operations of one worker."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, passed: bool, what: str) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.errors.append(what)

    def count(self, n: int) -> None:
        self.attempted += n


def _queries(dg):
    """The five growth statistics, keyed by their metric names."""
    Q = dg.StatisticQuery
    return {
        "edge": Q.subgraph("edge"),
        "triangle": Q.subgraph("triangle"),
        "k_star2": Q.subgraph("k_star", 2),
        "high_degree4": Q.high_degree(gen.GROWTH_TAU),
        "degree_histogram": Q.degree_histogram(),
    }


def _flat(values):
    """Scalar series as floats; histogram series flattened bin by bin."""
    out = []
    for v in values:
        if isinstance(v, (int, float)):
            out.append(float(v))
        else:
            out.extend(float(x) for x in v)
    return out


def _independent_rel_l1(est, truth):
    return sum(abs(e - t) / t for e, t in zip(est, truth) if t != 0)


def _bounds(dg, inp):
    if inp.directed:
        return dg.DegreeBounds.directed(*inp.bound)
    return dg.DegreeBounds.undirected(*inp.bound)


def _stream(dg, inp, tr):
    """Ingest the batches one at a time; returns (sequence, latencies in s)."""
    seq = dg.GraphSequence.empty(inp.directed)
    lat = []
    for t, nodes, edges in inp.batches:
        with tr.span("graph_core.ingest_step"):
            t0 = perf_counter()
            seq = dg.ingest_step(seq, t, nodes, edges)
            lat.append(perf_counter() - t0)
    return seq, lat


def _check_parsed(dg, inp, streamed, parsed, violation, led):
    led.ok(streamed == parsed, "streamed sequence differs from the parsed one")
    led.ok(violation is None, f"verify_bounds reported {violation}")
    last = dg.snapshot(parsed, parsed.horizon)
    led.ok(
        (last.num_nodes, last.num_edges) == (inp.nodes, inp.edges),
        f"parsed graph has {last.num_nodes} nodes, {last.num_edges} edges",
    )
    return {"batches": len(parsed.batches), "nodes": last.num_nodes,
            "edges": last.num_edges}


# --- passes ----------------------------------------------------------------
#
# A pass is a sequence of steps of at most about two seconds.  A fixed
# calibration loop runs before the first step and after every step; it
# measures how fast the core runs at that moment, and each step's wall time
# is also reported scaled to the reference speed (see run.py for why).

# Calibration time on an uncontended core of the reference machine, a
# 2.0 GHz Xeon virtual machine.
CAL_REF_S = 0.0135


def calibrate(rounds: int = 120) -> float:
    """Seconds taken by fixed dict, set and sort work like the program's."""
    t0 = perf_counter()
    acc = 0
    for r in range(rounds):
        d = {}
        for i in range(250):
            k = (i * 7919 + r) % 211
            d[k] = d.get(k, 0) + 1
        acc += len(set(d) & {x for x in range(0, 211, 3)})
        acc += len(sorted(((v, k) for k, v in d.items()), reverse=True))
    return perf_counter() - t0


class Steps:
    """Wall time of each step of a pass, raw and scaled to reference speed."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.raw: dict[str, float] = {}
        self.ref: dict[str, float] = {}
        self.cal = [calibrate()]

    def run(self, name, fn, *args, span=None, **kwargs):
        """Time fn as step `name`, inside a span called `span` if given."""
        with self.tr.span(span):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
        self.cal.append(calibrate())
        speed = CAL_REF_S / ((self.cal[-2] + self.cal[-1]) / 2)
        self.raw[name] = self.raw.get(name, 0.0) + elapsed
        self.ref[name] = self.ref.get(name, 0.0) + elapsed * speed
        return out

    def result(self) -> dict:
        return {"steps": self.raw, "steps_ref": self.ref, "cal_s": self.cal}


def growth_pass(dg, inp, tr, led):
    from dpgraphseq.harness import relative_l1_error
    from dpgraphseq.mechanisms import MechanismConfig, release

    bounds = _bounds(dg, inp)
    queries = _queries(dg)
    truth = {name: _flat(inp.reference[name]) for name in queries}
    config = MechanismConfig(epsilon=EPSILON)
    outputs = {}
    steps = Steps(tr)

    def score(series, name):
        est = _flat(series.estimates)
        with tr.span("harness.relative_l1_error"):
            err, _ = relative_l1_error(est, truth[name])
        return est, err

    with tr.span("pass"):
        streamed, lat = steps.run("ingest", _stream, dg, inp, tr)
        parsed = steps.run("loads_edge_list", dg.loads_edge_list, inp.text,
                           span="graph_core.loads_edge_list")
        violation = steps.run("verify_bounds", dg.verify_bounds, parsed, bounds,
                              span="graph_core.verify_bounds")
        for name, query in queries.items():
            series = steps.run(f"sensdiff.{name}", release, "sensdiff", parsed, query,
                               config, bounds=bounds, span=f"mechanisms.sensdiff.{name}")
            outputs[name] = steps.run(f"score.{name}", score, series, name)

    led.count(len(lat) + 2 + 2 * len(queries))
    sizes = _check_parsed(dg, inp, streamed, parsed, violation, led)
    for name, (est, err) in outputs.items():
        expect = _independent_rel_l1(est, truth[name])
        led.ok(
            len(est) == len(truth[name])
            and math.isfinite(err)
            and math.isclose(err, expect, rel_tol=1e-9),
            f"sensdiff {name}: score {err} vs independent {expect}",
        )
    return {**steps.result(), "ingest_s": lat, "sizes": sizes}


# run_experiment once per (mechanism, epsilon): the same releases as one
# call over both epsilons, in steps short enough to time one by one.
PA_EXPERIMENTS = (("sensdiff", 100), ("compose_bounded", 100),
                  ("compose_projection", 5))
PA_EPSILONS = (1.0, 10.0)


def pa_pass(dg, inp, tr, led):
    from dpgraphseq.harness import ExperimentConfig, run_experiment

    bounds = _bounds(dg, inp)
    query = dg.StatisticQuery.subgraph("edge")
    summaries = []
    rows = 0
    steps = Steps(tr)
    with tr.span("pass"):
        streamed, lat = steps.run("ingest", _stream, dg, inp, tr)
        parsed = steps.run("loads_edge_list", dg.loads_edge_list, inp.text,
                           span="graph_core.loads_edge_list")
        violation = steps.run("verify_bounds", dg.verify_bounds, parsed, bounds,
                              span="graph_core.verify_bounds")
        for mechanism, trials in PA_EXPERIMENTS:
            for epsilon in PA_EPSILONS:
                cfg = ExperimentConfig(
                    dataset="pa-sweep", seq=parsed, query=query, epsilons=(epsilon,),
                    mechanisms=(mechanism,), trials=trials, releases=gen.PA_YEARS,
                )
                r, s = steps.run(f"run_experiment.{mechanism}.eps{epsilon:g}",
                                 run_experiment, cfg, span="harness.run_experiment")
                rows += len(r)
                summaries.extend(s)

    expected_rows = len(PA_EPSILONS) * sum(trials for _, trials in PA_EXPERIMENTS)
    led.count(len(lat) + 2 + rows)
    sizes = _check_parsed(dg, inp, streamed, parsed, violation, led)
    led.ok(rows == expected_rows, f"{rows} result rows, expected {expected_rows}")
    utility = {}
    for s in summaries:
        led.ok(
            math.isfinite(s.mean_error) and s.mean_error > 0 and s.T == gen.PA_YEARS,
            f"{s.mechanism} eps={s.epsilon}: mean error {s.mean_error}, T={s.T}",
        )
        if s.epsilon == EPSILON:
            utility[s.mechanism] = s.mean_error
    return {**steps.result(), "ingest_s": lat, "sizes": sizes,
            "mean_rel_l1": utility}


def _oracle_query(dg, spec):
    kind, arg, k = spec
    Q = dg.StatisticQuery
    if kind == "high_degree":
        return Q.high_degree(arg)
    if kind == "degree_histogram":
        return Q.degree_histogram()
    return Q.subgraph(arg, k)


def _oracle_bounds(dg, bound):
    if len(bound) == 2:
        return dg.DegreeBounds.directed(*bound)
    return dg.DegreeBounds.undirected(*bound)


def expected_oracle_values() -> dict:
    path = Path(__file__).with_name("oracle_expected.json")
    return json.loads(path.read_text())


def oracle_pass(dg, order, tr, led):
    from dpgraphseq.oracle import oracle_diff_sensitivity

    bound_of = dict(gen.ORACLE_BOUNDS)

    def certify(name):
        """Every catalog query at one bound: (name, query, bounds, value, s)."""
        bounds = _oracle_bounds(dg, bound_of[name])
        out = []
        for spec in gen.catalog_queries(bound_of[name]):
            query = _oracle_query(dg, spec)
            with tr.span("oracle.oracle_diff_sensitivity"):
                t0 = perf_counter()
                value = oracle_diff_sensitivity(
                    query, bounds, n_max=gen.ORACLE_N_MAX, t_max=gen.ORACLE_T_MAX)
                out.append((name, query, bounds, value, perf_counter() - t0))
        return out

    steps = Steps(tr)
    calls = []
    with tr.span("pass"):
        for name in order:
            calls += steps.run(name, certify, name)

    expected = expected_oracle_values()
    records = []
    seen = set()
    for name, query, bounds, value, elapsed in calls:
        formula = dg.diff_sequence_sensitivity(query, bounds).value
        recorded = expected[name].get(query.label())
        led.ok(
            value <= formula and value == recorded,
            f"oracle {name} {query.label()}: {value} vs catalog {formula}, "
            f"recorded {recorded}",
        )
        # The first degree-determined and the first triangle call of a bound
        # run its cold sweeps; every later call reads the module cache.
        kind = "triangle" if (query.pattern or "").startswith("triangle") else "sweep"
        first = (name, kind) not in seen
        seen.add((name, kind))
        records.append({"bound": name, "kind": kind if first else "cached",
                        "s": elapsed})
    return {**steps.result(), "oracle_calls": records}


PASSES = {"growth-release": growth_pass, "pa-sweep": pa_pass,
          "oracle-certify": oracle_pass}


# --- probes (traced runs only) --------------------------------------------


def growth_probe(dg, inp, tr, led):
    """Each query's sensdiff next to the truth loop it runs inside.

    sensdiff computes f(G_t) by a snapshot and an evaluation per step.  The
    probe times the release, then the same loop on its own, both as
    calibrated steps, so that the runner can subtract the loop and report
    sensdiff's own time.
    """
    from dpgraphseq.mechanisms import MechanismConfig, release

    seq = dg.loads_edge_list(inp.text)
    bounds = _bounds(dg, inp)
    config = MechanismConfig(epsilon=EPSILON)
    queries = _queries(dg)

    def truth_loop(name, query):
        for t in range(1, seq.horizon + 1):
            with tr.span("graph_core.snapshot"):
                view = dg.snapshot(seq, t)
            with tr.span(f"statistics.evaluate.{name}"):
                dg.evaluate(query, view)
            # Free the view before the next snapshot, as sensdiff does;
            # holding two at once measured 10-20% slower.
            del view

    steps = Steps(tr)
    with tr.span("probe"):
        for name, query in queries.items():
            steps.run(f"sensdiff.{name}", release, "sensdiff", seq, query, config,
                      bounds=bounds, span=f"probe.sensdiff.{name}")
            steps.run(f"truth.{name}", truth_loop, name, query,
                      span=f"probe.truth.{name}")
    led.count(len(queries) * (1 + 2 * seq.horizon))
    return steps.result()


def pa_probe(dg, inp, tr, led):
    from dpgraphseq.harness import (
        default_projection_grid,
        derive_bounds,
        rebatch,
        relative_l1_error,
    )
    from dpgraphseq.mechanisms import MechanismConfig, release

    seq = dg.loads_edge_list(inp.text)
    query = dg.StatisticQuery.subgraph("edge")
    kept = offered = 0
    with tr.span("probe"):
        with tr.span("harness.rebatch"):
            seq = rebatch(seq, gen.PA_YEARS)
        with tr.span("harness.derive_bounds"):
            bounds = derive_bounds(seq)
        with tr.span("harness.projection_grid"):
            candidates = default_projection_grid(seq)
        with tr.span("harness.truth"):
            truth = []
            for t in range(1, seq.horizon + 1):
                with tr.span("graph_core.snapshot"):
                    view = dg.snapshot(seq, t)
                with tr.span("statistics.evaluate.edge"):
                    truth.append(float(dg.evaluate(query, view)))
                del view
        with tr.span("projection.canonical_ordering"):
            ordering = dg.canonical_ordering(seq)
        for th in candidates:
            with tr.span("projection.project_sequence"):
                views = dg.project_sequence(seq, ordering, th)
            kept += views[-1].num_edges
            offered += inp.edges
        for mechanism, trials in (("sensdiff", 20), ("compose_bounded", 20),
                                  ("compose_projection", 2)):
            for trial in range(trials):
                config = MechanismConfig(epsilon=EPSILON, trial_id=trial)
                with tr.span(f"mechanisms.release.{mechanism}"):
                    series = release(mechanism, seq, query, config, bounds=bounds,
                                     candidates=candidates)
                with tr.span("harness.relative_l1_error"):
                    relative_l1_error(series.estimates, truth)
    led.count(4 + 2 * seq.horizon + len(candidates) + 2 * 42)
    led.ok(truth == [float(x) for x in inp.reference["edge"]],
           "harness truth differs from the reference edge counts")
    return {"candidates": len(candidates), "kept_edge_ratio": kept / offered}


PROBES = {"growth-release": growth_probe, "pa-sweep": pa_probe,
          "oracle-certify": lambda dg, inp, tr, led: {}}


# --- exactness checks -------------------------------------------------------


def _dense(values, bins):
    return [[float(x) for x in v] + [0.0] * (bins - len(v)) for v in values]


def growth_check(dg, inp, led):
    from dpgraphseq.mechanisms import MechanismConfig, release

    seq = dg.loads_edge_list(inp.text)
    bounds = _bounds(dg, inp)
    zero = MechanismConfig(epsilon=EPSILON, zero_noise=True)
    bins = gen.GROWTH_BOUND + 1
    for name, query in _queries(dg).items():
        ref = inp.reference[name]
        series = release("sensdiff", seq, query, zero, bounds=bounds)
        if query.is_scalar:
            got, want = [float(x) for x in series.estimates], [float(x) for x in ref]
        else:
            got = _dense([e.tolist() for e in series.estimates], bins)
            want = _dense(ref, bins)
        led.ok(got == want, f"zero-noise sensdiff {name} differs from the reference")
    for name in ("edge", "high_degree4"):
        series = release("compose_bounded", seq, _queries(dg)[name], zero, bounds=bounds)
        led.ok(
            list(series.estimates) == [float(x) for x in inp.reference[name]],
            f"zero-noise compose_bounded {name} differs from the reference",
        )


def pa_check(dg, inp, led):
    from dpgraphseq.harness import (
        ExperimentConfig,
        default_projection_grid,
        derive_bounds,
        run_experiment,
    )
    from dpgraphseq.mechanisms import MechanismConfig, release

    seq = dg.loads_edge_list(inp.text)
    bounds = _bounds(dg, inp)
    query = dg.StatisticQuery.subgraph("edge")
    zero = MechanismConfig(epsilon=EPSILON, zero_noise=True)
    want = [float(x) for x in inp.reference["edge"]]
    for mechanism in ("sensdiff", "compose_bounded"):
        series = release(mechanism, seq, query, zero, bounds=bounds)
        led.ok(list(map(float, series.estimates)) == want,
               f"zero-noise {mechanism} differs from the reference")
    # Thresholds at the measured maxima drop no edge, so projection is exact.
    th = dg.ProjectionThresholds.directed(*inp.max_degree)
    series = release("compose_projection", seq, query, zero, thresholds=th)
    led.ok(list(map(float, series.estimates)) == want,
           "zero-noise compose_projection at the measured maxima is not exact")
    # The experiment's score of trial 0 must match the same release scored
    # independently against the reference.
    for mechanism, _ in PA_EXPERIMENTS:
        cfg = ExperimentConfig(dataset="check", seq=seq, query=query,
                               epsilons=(EPSILON,), mechanisms=(mechanism,), trials=1)
        (row,), _ = run_experiment(cfg)
        series = release(mechanism, seq, query, MechanismConfig(epsilon=EPSILON),
                         bounds=derive_bounds(seq),
                         candidates=default_projection_grid(seq))
        expect = _independent_rel_l1(_flat(series.estimates), want)
        led.ok(math.isclose(row.rel_l1_error, expect, rel_tol=1e-9),
               f"{mechanism}: experiment score {row.rel_l1_error} vs independent {expect}")


CHECKS = {"growth-release": growth_check, "pa-sweep": pa_check,
          "oracle-certify": lambda dg, inp, led: None}


def main(argv: list[str]) -> int:
    mode, workload, seed, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    import dpgraphseq as dg

    inputs = gen.make_inputs(workload, seed)
    if mode == "setup":
        print(json.dumps({"ready": time.time(), "cal_s": calibrate(),
                          "attempted": 0, "failed": 0, "errors": []}))
        return 0
    led = Ledger()
    tr = Tracer(trace, pass_id=f"{mode}-{os.getpid()}")
    try:
        if mode == "pass":
            result = PASSES[workload](dg, inputs, tr, led)
        elif mode == "probe":
            result = PROBES[workload](dg, inputs, tr, led)
        elif mode == "check":
            CHECKS[workload](dg, inputs, led)
            result = {}
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except Exception:
        print(traceback.format_exc(), file=sys.stderr)
        return 1
    result.update(
        attempted=led.attempted,
        failed=led.failed,
        errors=led.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        spans=tr.records(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
