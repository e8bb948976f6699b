"""Seeded releases stay bit-identical across refactors.

`golden_releases.json` holds the exact estimates of a small grid: every
mechanism on the edge count and a threshold count, and sensdiff on the
directed patterns and the degree histogram, over the two criterion-8
fixtures, two trials each.  A change that moves any of these floats must
say why and regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
from pathlib import Path

from dpgraphseq import StatisticQuery
from dpgraphseq.generators import (
    PaTransmissionParams,
    SirParams,
    generate_pa_transmission,
    generate_sir_transmission,
)
from dpgraphseq.harness import default_projection_grid, derive_bounds
from dpgraphseq.mechanisms import MECHANISMS, MechanismConfig, release

GOLDEN = Path(__file__).with_name("golden_releases.json")
TRIALS = (0, 1)
ALL_MECHANISMS = {
    "edge": StatisticQuery.subgraph("edge"),
    "high_degree:1": StatisticQuery.high_degree(1),
}
SENSDIFF_ONLY = {
    "triangle_i": StatisticQuery.subgraph("triangle_i"),
    "triangle_ii": StatisticQuery.subgraph("triangle_ii"),
    "out_k_star:2": StatisticQuery.subgraph("out_k_star", 2),
    "in_k_star:2": StatisticQuery.subgraph("in_k_star", 2),
    "degree_histogram": StatisticQuery.degree_histogram(),
}


def _fixtures():
    """The criterion-8 generator outputs."""
    pa = generate_pa_transmission(
        PaTransmissionParams(m0=20, arrivals=10, years=8), seed=0
    )
    sir = generate_sir_transmission(
        SirParams(population=300, initial_infected=3, max_steps=30), seed=0
    )
    return {"pa": pa, "sir": sir}


def _plain(estimates):
    return [e.tolist() if hasattr(e, "tolist") else e for e in estimates]


def golden_grid() -> dict:
    """Exact estimates keyed by fixture, then 'mechanism/query/trial'."""
    grid = {}
    for name, seq in _fixtures().items():
        bounds = derive_bounds(seq)
        candidates = default_projection_grid(seq)
        runs = [(m, q) for m in MECHANISMS for q in ALL_MECHANISMS]
        runs += [("sensdiff", q) for q in SENSDIFF_ONLY]
        out = {}
        for mechanism, label in runs:
            query = {**ALL_MECHANISMS, **SENSDIFF_ONLY}[label]
            for trial in TRIALS:
                series = release(
                    mechanism,
                    seq,
                    query,
                    MechanismConfig(epsilon=1.0, seed=0, trial_id=trial),
                    bounds=bounds,
                    candidates=candidates,
                )
                out[f"{mechanism}/{label}/{trial}"] = _plain(series.estimates)
        grid[name] = out
    return grid


def test_seeded_releases_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    got = golden_grid()
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name].keys() == expected[name].keys()
        for key, values in expected[name].items():
            assert got[name][key] == values, f"{name} {key}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_grid(), indent=1) + "\n")
