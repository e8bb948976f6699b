"""Tests of the benchmark's own code: generators, references, names, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import worker
from spans import Tracer

import dpgraphseq as dg

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_generators_are_deterministic_per_seed():
    assert gen.growth_family(5, steps=40) == gen.growth_family(5, steps=40)
    assert gen.growth_family(5, steps=40).text != gen.growth_family(6, steps=40).text
    assert gen.pa_transmission(5) == gen.pa_transmission(5)
    assert gen.pa_transmission(5).text != gen.pa_transmission(6).text
    assert gen.oracle_order(5) == gen.oracle_order(5)


@pytest.mark.parametrize("seed", range(5))
def test_generators_keep_their_public_bounds(seed):
    growth = gen.growth_family(seed)
    assert growth.max_degree[0] <= gen.GROWTH_BOUND
    seq = dg.loads_edge_list(growth.text)
    assert dg.verify_bounds(seq, dg.DegreeBounds.undirected(gen.GROWTH_BOUND)) is None
    pa = gen.pa_transmission(seed)
    assert pa.edges == gen.PA_INFECTED
    seq = dg.loads_edge_list(pa.text)
    assert dg.verify_bounds(seq, dg.DegreeBounds.directed(*pa.bound)) is None


def test_growth_reference_matches_program_on_small_input():
    inp = gen.growth_family(11, steps=12)
    seq = dg.loads_edge_list(inp.text)
    for name, query in worker._queries(dg).items():
        for t in range(1, seq.horizon + 1):
            value = dg.evaluate(query, dg.snapshot(seq, t))
            if not query.is_scalar:
                value = [value.get(d, 0) for d in range(gen.GROWTH_BOUND + 1)]
            assert value == inp.reference[name][t - 1], (name, t)


def test_pa_reference_and_grid_match_program():
    from dpgraphseq.harness import default_projection_grid

    inp = gen.pa_transmission(2)
    seq = dg.loads_edge_list(inp.text)
    edge = dg.StatisticQuery.subgraph("edge")
    assert [
        dg.evaluate(edge, dg.snapshot(seq, t)) for t in range(1, seq.horizon + 1)
    ] == inp.reference["edge"]
    assert len(default_projection_grid(seq)) == 44


def test_streamed_and_parsed_sequences_agree():
    inp = gen.growth_family(3, steps=10)
    seq = dg.GraphSequence.empty(False)
    for t, nodes, edges in inp.batches:
        seq = dg.ingest_step(seq, t, nodes, edges)
    assert seq == dg.loads_edge_list(inp.text)


def test_recorded_oracle_values_cover_the_catalog():
    expected = worker.expected_oracle_values()
    for name, bound in gen.ORACLE_BOUNDS:
        bounds = worker._oracle_bounds(dg, bound)
        labels = set()
        for spec in gen.catalog_queries(bound):
            query = worker._oracle_query(dg, spec)
            labels.add(query.label())
            assert expected[name][query.label()] <= (
                dg.diff_sequence_sensitivity(query, bounds).value
            )
        assert labels == set(expected[name])


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    assert e2e["setup_s"] == "s"
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(layers)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(e2e.values()) + list(layers.values()):
        assert UNIT.match(unit), unit
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def test_tracer_self_time_subtracts_children():
    tr = Tracer(True, "p")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, a, b = tr.records()
    assert (a["parent"], b["parent"], outer["parent"]) == (0, 0, None)
    children = (a["end"] - a["start"]) + (b["end"] - b["start"])
    assert outer["self"] == pytest.approx(outer["end"] - outer["start"] - children)
    assert Tracer(False).span("x") is Tracer(True).span(None)


def test_scaling_exponent_reads_quadratic_and_linear_growth():
    assert run.scaling_exponent([float(t) for t in range(1, 301)]) == pytest.approx(2, abs=0.02)
    assert run.scaling_exponent([1.0] * 300) == pytest.approx(1)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "pa-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
