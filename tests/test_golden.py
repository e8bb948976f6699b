"""Seeded releases stay bit-identical across refactors.

`golden_releases.json` holds the exact estimates of a small grid: every
mechanism on the edge count and a threshold count, and sensdiff on the
directed patterns and the degree histogram, over the two criterion-8
fixtures, two trials each.  `golden_harness.json` holds the
`rel_l1_error` and `skipped_terms` columns that `run_experiment` scores
for every mechanism on the same fixtures and queries (tau derived from
the data), two trials each.  `golden_oracle.json` holds the pruned
oracle's value for every query of criterion 1's catalog (n_max=5,
t_max=3; D in {1,2,3} and directed {1,2,3}^2).  `golden_sensitivity.json`
holds what each of the three closed-form regimes answers, value, formula
id and regime or error class and message, for every threshold tau up to
one past the out-cap, the histogram, all seven patterns and stars k <= 4,
at D in 1..5 and directed caps {1..4}^2.  `golden_cli.json` holds what the
`release` and `experiment` commands print (JSON, and CSV without the
`wall_ms` column) on the two criterion-8 fixtures and an undirected
Barabasi-Albert sequence, for the default flags and for each of `--tau`,
`--tau-percentile`, `--degree-bound`, `--projection-thresholds` and
`--releases`, across the mechanisms; a derived tau above some default grid
entry's out-cap is left to `tests/test_cli.py`.  A change that moves any of
these numbers must say why and regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

which prints each moved entry as ``file key/path: old -> new`` and rewrites
only the files whose contents changed.
"""
import itertools
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner

from dpgraphseq import (
    DegreeBounds,
    ProjectionThresholds,
    StatisticQuery,
    build_sequence,
    diff_sequence_sensitivity,
    dumps_edge_list,
    per_release_sensitivity,
    projected_sensitivity,
)
from dpgraphseq.cli import main
from dpgraphseq.errors import GraphSequenceError
from dpgraphseq.generators import (
    PaTransmissionParams,
    SirParams,
    barabasi_albert_graph,
    generate_pa_transmission,
    generate_sir_transmission,
)
from dpgraphseq.harness import (
    ExperimentConfig,
    default_projection_grid,
    derive_bounds,
    run_experiment,
)
from dpgraphseq.mechanisms import MECHANISMS, MechanismConfig, release
from dpgraphseq.oracle import oracle_diff_sensitivity

from test_acceptance import CRITERION_1_BOUNDS, _catalog_queries

GOLDEN = Path(__file__).with_name("golden_releases.json")
GOLDEN_HARNESS = Path(__file__).with_name("golden_harness.json")
GOLDEN_ORACLE = Path(__file__).with_name("golden_oracle.json")
GOLDEN_SENSITIVITY = Path(__file__).with_name("golden_sensitivity.json")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")
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
    return [e.tolist() for e in estimates]


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


def harness_grid() -> dict:
    """Scores keyed by fixture, then 'mechanism/query/trial'."""
    grid = {}
    for name, seq in _fixtures().items():
        out = {}
        for query in (StatisticQuery.subgraph("edge"), StatisticQuery.high_degree(1)):
            cfg = ExperimentConfig(
                dataset=name, seq=seq, query=query, epsilons=(1.0,),
                trials=len(TRIALS), seed=0,
            )
            rows, _ = run_experiment(cfg)
            for row in rows:
                key = f"{row.mechanism}/{row.query}/{row.trial}"
                out[key] = [row.rel_l1_error, row.skipped_terms]
        grid[name] = out
    return grid


def _bound_name(bounds) -> str:
    if bounds.is_directed:
        return f"in{bounds.d_in}out{bounds.d_out}"
    return f"D{bounds.d}"


def oracle_grid() -> dict:
    """Oracle values keyed by bound ('D2', 'in1out3'), then query label."""
    return {
        _bound_name(bounds): {
            q.label(): oracle_diff_sensitivity(q, bounds, n_max=5, t_max=3)
            for q in _catalog_queries(bounds)
        }
        for bounds in CRITERION_1_BOUNDS
    }


def _answer(regime, query, bounds) -> dict:
    try:
        report = regime(query, bounds)
    except GraphSequenceError as err:
        return {"error": type(err).__name__, "message": str(err)}
    return {
        "value": report.value,
        "formula_id": report.formula_id,
        "regime": report.regime,
    }


def sensitivity_grid() -> dict:
    """Closed-form answers keyed by regime, bound, then query label."""
    regimes = {
        "diff_sequence": (diff_sequence_sensitivity, DegreeBounds),
        "per_release": (per_release_sensitivity, DegreeBounds),
        "per_release_projected": (projected_sensitivity, ProjectionThresholds),
    }
    patterns = ("edge", "triangle", "triangle_i", "triangle_ii")
    stars = ("k_star", "out_k_star", "in_k_star")
    caps = range(1, 5)
    grid = {}
    for name, (regime, kind) in regimes.items():
        grid[name] = {}
        all_bounds = [kind.undirected(d) for d in range(1, 6)]
        all_bounds += [kind.directed(*pair) for pair in itertools.product(caps, caps)]
        for bounds in all_bounds:
            cap_out = bounds.caps[1]
            queries = [StatisticQuery.high_degree(t) for t in range(1, cap_out + 2)]
            queries.append(StatisticQuery.degree_histogram())
            queries += [StatisticQuery.subgraph(p) for p in patterns]
            queries += [
                StatisticQuery.subgraph(p, k) for p in stars for k in range(1, 5)
            ]
            grid[name][_bound_name(bounds)] = {
                q.label(): _answer(regime, q, bounds) for q in queries
            }
    return grid


def _ba_sequence():
    """An undirected Barabasi-Albert graph on 40 nodes, five arriving per step."""
    adjacency = barabasi_albert_graph(40, 2, seed=0)
    batches = [
        (t, [str(u) for u in range(5 * t - 5, 5 * t)],
         [(str(u), str(v))
          for u in range(5 * t - 5, 5 * t) for v in adjacency[u] if v < u])
        for t in range(1, 9)
    ]
    return build_sequence(False, batches)


# Per fixture: a --degree-bound the data respect, and --projection-thresholds.
CLI_PAIRS = {"pa": ("10,50", "3,3"), "sir": ("10,10", "3,3"), "ba": ("20", "3")}


def _cli_flags(name: str) -> dict:
    bound, thresholds = CLI_PAIRS[name]
    return {
        "defaults": ["--statistic", "edge"],
        "tau": ["--statistic", "high_degree", "--tau", "2"],
        "tau-percentile": ["--statistic", "high_degree", "--tau-percentile", "50"],
        "degree-bound": ["--statistic", "edge", "--degree-bound", bound],
        "projection-thresholds": [
            "--statistic", "edge", "--projection-thresholds", thresholds,
        ],
    }


def cli_grid() -> dict:
    """CLI output keyed by command, fixture, then flag set (and mechanism)."""
    runner = CliRunner()

    def run(args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        return result.output

    grid = {"release": {}, "experiment": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, seq in {**_fixtures(), "ba": _ba_sequence()}.items():
            path = Path(tmp) / f"{name}.edges"
            path.write_text(dumps_edge_list(seq))
            flags = _cli_flags(name)
            grid["release"][name] = {
                f"{label}/{mechanism}": json.loads(run(
                    ["release", "--input", str(path), "--mechanism", mechanism,
                     "--epsilon", "1", "--trial", "1"] + args
                ))
                for label, args in {
                    **flags, "high-degree": ["--statistic", "high_degree"],
                }.items()
                for mechanism in MECHANISMS
            }
            grid["experiment"][name] = {
                label: [
                    line.rsplit(",", 1)[0]
                    for line in run(
                        ["experiment", "--input", str(path), "--dataset", name,
                         "--epsilon", "1", "--trials", "2"] + args
                    ).splitlines()
                ]
                for label, args in {
                    **flags,
                    # The default p90 tau tops the undirected grid's first entry.
                    "high-degree": ["--statistic", "high_degree", "--mechanism",
                                    "sensdiff", "--mechanism", "compose_bounded"],
                    "releases": ["--statistic", "edge", "--releases", "3"],
                }.items()
            }
    return grid


def test_seeded_releases_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    got = golden_grid()
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name].keys() == expected[name].keys()
        for key, values in expected[name].items():
            assert got[name][key] == values, f"{name} {key}"


def test_harness_scores_match_golden_file():
    assert harness_grid() == json.loads(GOLDEN_HARNESS.read_text())


def test_oracle_values_match_golden_file():
    assert oracle_grid() == json.loads(GOLDEN_ORACLE.read_text())


def test_closed_form_sensitivities_match_golden_file():
    assert sensitivity_grid() == json.loads(GOLDEN_SENSITIVITY.read_text())


def test_cli_output_matches_golden_file():
    assert cli_grid() == json.loads(GOLDEN_CLI.read_text())


_ABSENT = "<absent>"


def moved_entries(old, new, path=""):
    """(key path, old, new) of every leaf that differs; lists are leaves."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        if old != new:
            yield path, old, new
        return
    for key in {**old, **new}:
        where = f"{path}/{key}" if path else key
        yield from moved_entries(old.get(key, _ABSENT), new.get(key, _ABSENT), where)


if __name__ == "__main__":
    for path, grid in (
        (GOLDEN, golden_grid),
        (GOLDEN_HARNESS, harness_grid),
        (GOLDEN_ORACLE, oracle_grid),
        (GOLDEN_SENSITIVITY, sensitivity_grid),
        (GOLDEN_CLI, cli_grid),
    ):
        new = grid()
        text = json.dumps(new, indent=1) + "\n"
        old = json.loads(path.read_text()) if path.exists() else {}
        for key, before, after in moved_entries(old, new):
            print(f"{path.name} {key}: {json.dumps(before)} -> {json.dumps(after)}")
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
