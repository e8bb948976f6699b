"""Command-line interface smoke and contract tests."""
import dataclasses
import itertools
import json

import pytest
from click.testing import CliRunner

from dpgraphseq import (
    StatisticQuery,
    build_sequence,
    dumps_edge_list,
    exact_values,
    loads_edge_list,
)
from dpgraphseq.cli import generate, main
from dpgraphseq.generators import PaTransmissionParams, SirParams
from dpgraphseq.harness import CSV_COLUMNS, derive_bounds
from dpgraphseq.mechanisms import MECHANISMS


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pa_file(tmp_path, runner):
    path = tmp_path / "pa.txt"
    result = runner.invoke(
        main,
        [
            "generate", "--model", "pa", "--m0", "10", "--arrivals", "5",
            "--years", "4", "--seed", "1", "--output", str(path),
        ],
    )
    assert result.exit_code == 0, result.output
    return path


def test_generate_writes_parseable_edge_list(pa_file):
    text = pa_file.read_text()
    # The header carries the horizon: four years of arrivals.
    assert text.startswith("H directed 4\n")
    assert sum(1 for line in text.splitlines() if line.startswith("N ")) == 30


def test_generate_sir(runner):
    result = runner.invoke(
        main,
        ["generate", "--model", "sir", "--population", "100",
         "--initial-infected", "2", "--max-steps", "10", "--seed", "0"],
    )
    assert result.exit_code == 0, result.output
    # Steps 8, 9 and 10 bring no case, but the header keeps them.
    assert result.output.startswith("H directed 10\n")


def test_generated_sir_releases_every_step(runner, tmp_path):
    # The criterion-8 SIR fixture: steps 3-11 bring no case.
    path = tmp_path / "sir.txt"
    result = runner.invoke(
        main,
        ["generate", "--model", "sir", "--population", "300",
         "--initial-infected", "3", "--max-steps", "30", "--seed", "0",
         "--output", str(path)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["release", "--input", str(path), "--statistic", "edge",
         "--epsilon", "1", "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)["estimates"]) == 11


def test_generate_options_are_the_models_fields():
    fields = [
        f for params in (PaTransmissionParams, SirParams)
        for f in dataclasses.fields(params)
    ]
    # A name two models shared would register one flag twice.
    assert len({f.name for f in fields}) == len(fields)
    options = [
        (p.name, p.default) for p in generate.params
        if p.name not in ("model", "seed", "output")
    ]
    assert options == [(f.name, f.default) for f in fields]


def test_sensitivity_reports_json(runner):
    result = runner.invoke(
        main,
        ["sensitivity", "--statistic", "triangle", "--degree-bound", "4"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["value"] == 6
    assert payload["formula_id"] == "diff/triangle/C(D,2)"
    assert payload["regime"] == "diff_sequence"


def test_sensitivity_directed_and_projected(runner):
    result = runner.invoke(
        main,
        ["sensitivity", "--statistic", "out_k_star:2", "--degree-bound", "2,3"],
    )
    assert json.loads(result.output)["value"] == 7
    result = runner.invoke(
        main,
        ["sensitivity", "--statistic", "high_degree", "--tau", "1",
         "--regime", "projected", "--projection-thresholds", "2,5"],
    )
    assert json.loads(result.output)["value"] == 4
    # Missing parameters are CLI usage errors, not tracebacks.
    result = runner.invoke(main, ["sensitivity", "--statistic", "edge"])
    assert result.exit_code != 0


def test_release_outputs_estimates(runner, pa_file):
    result = runner.invoke(
        main,
        ["release", "--input", str(pa_file), "--statistic", "edge",
         "--epsilon", "2.0", "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["mechanism"] == "sensdiff"
    assert payload["query"] == "edge"
    assert len(payload["estimates"]) == 4
    assert payload["noise_scale"] == 0.0


def test_release_histogram_and_tau_derivation(runner, pa_file):
    result = runner.invoke(
        main,
        ["release", "--input", str(pa_file), "--statistic", "degree_histogram",
         "--epsilon", "1.0", "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    # Zero noise releases the exact histogram over bins 0..cap_out of the
    # derived bound.
    seq = loads_edge_list(pa_file.read_text())
    _, cap_out = derive_bounds(seq).caps
    hists = exact_values(StatisticQuery.degree_histogram(), seq)
    assert payload["estimates"] == [
        [hist.get(d, 0) for d in range(cap_out + 1)] for hist in hists
    ]
    result = runner.invoke(
        main,
        ["release", "--input", str(pa_file), "--statistic", "high_degree",
         "--tau-percentile", "95", "--epsilon", "1.0", "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["query"].startswith("high_degree(tau=")


@pytest.mark.parametrize("command", ["release", "experiment"])
@pytest.mark.parametrize(
    "statistic", [["edge"], ["high_degree", "--tau", "2"]], ids=["edge", "tau"]
)
def test_tau_percentile_it_would_drop_is_usage_error(runner, pa_file, command, statistic):
    args = [command, "--input", str(pa_file), "--epsilon", "1", "--statistic",
            *statistic, "--tau-percentile", "50"]
    if command == "experiment":
        args += ["--trials", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "'--tau-percentile'" in result.output
    assert "Traceback" not in result.output


def test_release_projection_mechanism(runner, pa_file):
    result = runner.invoke(
        main,
        ["release", "--input", str(pa_file), "--mechanism", "compose_projection",
         "--statistic", "edge", "--epsilon", "5.0",
         "--projection-thresholds", "5,5", "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["mechanism"] == "compose_projection"


def test_experiment_csv_header_and_grid(runner, pa_file, tmp_path):
    out = tmp_path / "rows.csv"
    result = runner.invoke(
        main,
        ["experiment", "--input", str(pa_file), "--dataset", "pa-small",
         "--statistic", "edge", "--epsilon", "1", "--epsilon", "5",
         "--trials", "2", "--zero-noise", "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 3 * 2  # epsilons x mechanisms x trials
    assert all(line.split(",")[0] == "pa-small" for line in lines[1:])
    assert {line.split(",")[6] for line in lines[1:]} == {"0.0"}


def test_experiment_json_format_and_rebatch(runner, pa_file):
    result = runner.invoke(
        main,
        ["experiment", "--input", str(pa_file), "--statistic", "edge",
         "--epsilon", "1", "--mechanism", "sensdiff", "--trials", "1",
         "--releases", "2", "--format", "json", "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    records = json.loads(result.output)
    assert all(r["T"] == 2 for r in records)


@pytest.mark.parametrize(
    "flag, value, message",
    [("--epsilon", "1", "epsilon 1.0"), ("--mechanism", "sensdiff", "'sensdiff'")],
    ids=["epsilon", "mechanism"],
)
def test_repeated_sweep_value_is_usage_error(runner, pa_file, flag, value, message):
    args = ["experiment", "--input", str(pa_file), "--statistic", "edge",
            "--epsilon", "1", "--mechanism", "sensdiff", "--trials", "2"]
    result = runner.invoke(main, args + [flag, value])
    assert result.exit_code == 2, result.output
    assert f"{message} is given more than once" in result.output
    assert "Traceback" not in result.output


def test_experiment_rejects_histogram_as_usage_error(runner, pa_file):
    result = runner.invoke(
        main,
        ["experiment", "--input", str(pa_file), "--statistic",
         "degree_histogram", "--epsilon", "1", "--trials", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "degree_histogram" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flag", ["--degree-bound", "--projection-thresholds"])
@pytest.mark.parametrize("value", ["abc", "0", "1,2,3"])
def test_malformed_bounds_are_usage_errors(runner, pa_file, flag, value):
    commands = {
        "sensitivity": ["sensitivity", "--statistic", "edge"],
        "release": ["release", "--input", str(pa_file), "--statistic", "edge",
                    "--epsilon", "1"],
        "experiment": ["experiment", "--input", str(pa_file), "--statistic",
                       "edge", "--epsilon", "1", "--trials", "1"],
    }
    for name, args in commands.items():
        result = runner.invoke(main, args + [flag, value])
        assert result.exit_code == 2, (name, result.output)
        assert flag in result.output, (name, result.output)
        assert "Traceback" not in result.output


@pytest.mark.parametrize("value", ["k_star:x", "foo", "k_star:0", "edge:2"])
def test_malformed_statistic_is_usage_error(runner, pa_file, value):
    commands = {
        "sensitivity": ["sensitivity", "--degree-bound", "3"],
        "release": ["release", "--input", str(pa_file), "--epsilon", "1"],
        "experiment": ["experiment", "--input", str(pa_file), "--epsilon", "1",
                       "--trials", "1"],
    }
    for name, args in commands.items():
        result = runner.invoke(main, args + ["--statistic", value])
        assert result.exit_code == 2, (name, result.output)
        assert "--statistic" in result.output, (name, result.output)
        assert "Traceback" not in result.output
        if value == "foo":
            assert "triangle_ii" in result.output and "k_star" in result.output


@pytest.mark.parametrize(
    "args,message",
    [
        (["sensitivity", "--statistic", "out_k_star:3", "--degree-bound", "3"],
         "'out_k_star' incompatible"),
        (["sensitivity", "--statistic", "high_degree", "--tau", "5",
          "--degree-bound", "3"], "tau=5 exceeds"),
        (["sensitivity", "--statistic", "triangle", "--degree-bound", "3",
          "--regime", "per_release"], "no per-release sensitivity"),
        (["sensitivity", "--statistic", "edge", "--regime", "projected"],
         "projected regime needs --projection-thresholds"),
        (["sensitivity", "--statistic", "edge", "--degree-bound", "3",
          "--projection-thresholds", "2"],
         "'--projection-thresholds': the diff_sequence regime reads --degree-bound"),
        (["sensitivity", "--statistic", "edge", "--regime", "per_release",
          "--degree-bound", "3", "--projection-thresholds", "2"],
         "'--projection-thresholds': the per_release regime reads --degree-bound"),
        (["sensitivity", "--statistic", "edge", "--regime", "projected",
          "--degree-bound", "9", "--projection-thresholds", "2"],
         "'--degree-bound': the projected regime reads --projection-thresholds"),
        (["release", "--statistic", "triangle", "--epsilon", "1"],
         "'triangle' incompatible"),
        (["release", "--statistic", "high_degree", "--tau", "50",
          "--epsilon", "1"], "tau=50 exceeds"),
        (["experiment", "--statistic", "triangle", "--epsilon", "1",
          "--trials", "1"], "'triangle' incompatible"),
        (["release", "--mechanism", "compose_projection", "--statistic",
          "triangle", "--epsilon", "1"], "'triangle' not valid for a directed"),
        (["experiment", "--mechanism", "compose_projection", "--statistic",
          "triangle", "--epsilon", "1", "--trials", "1"],
         "'triangle' not valid for a directed"),
        (["release", "--mechanism", "compose_projection", "--statistic",
          "high_degree", "--tau", "7", "--projection-thresholds", "5,5",
          "--epsilon", "1"], "tau=7 exceeds"),
        (["release", "--mechanism", "compose_projection", "--statistic",
          "high_degree", "--tau", "50", "--epsilon", "1"], "tau=50 exceeds"),
        (["experiment", "--mechanism", "compose_projection", "--statistic",
          "high_degree", "--tau", "50", "--epsilon", "1", "--trials", "1"],
         "tau=50 exceeds"),
    ],
    ids=["sens-star", "sens-tau", "sens-regime", "sens-projected-no-thresholds",
         "sens-diff-unread-thresholds", "sens-per-release-unread-thresholds",
         "sens-projected-unread-bound", "release-triangle",
         "release-tau", "experiment-triangle", "release-projection-triangle",
         "experiment-projection-triangle", "release-fixed-thresholds-tau",
         "release-grid-tau", "experiment-grid-tau"],
)
def test_query_the_bounds_rule_out_is_usage_error(runner, pa_file, args, message):
    if args[0] != "sensitivity":
        args = args[:1] + ["--input", str(pa_file)] + args[1:]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output


def test_default_grid_keeps_the_entries_that_admit_tau(runner, pa_file, tmp_path):
    # pa_file's grid is (5,5), (5,10): tau=7 rules out the first entry only.
    result = runner.invoke(
        main,
        ["release", "--input", str(pa_file), "--mechanism", "compose_projection",
         "--statistic", "high_degree", "--tau", "7", "--epsilon", "1",
         "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["query"] == "high_degree(tau=7)"
    # Every node of K14 has degree 13, so the p90 tau is 13 and the grid
    # 5/10/15; only 15 admits it, and it keeps every edge.
    names = [f"v{i}" for i in range(14)]
    path = tmp_path / "k14.txt"
    path.write_text(dumps_edge_list(
        build_sequence(False, [(1, names, list(itertools.combinations(names, 2)))])
    ))
    result = runner.invoke(
        main,
        ["experiment", "--input", str(path), "--statistic", "high_degree",
         "--epsilon", "1", "--trials", "1", "--zero-noise"],
    )
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in result.output.splitlines()[1:]]
    assert [row[2] for row in rows] == list(MECHANISMS)
    assert {(row[1], row[6]) for row in rows} == {("high_degree(tau=13)", "0.0")}


@pytest.mark.parametrize("command", ["release", "experiment"])
def test_bound_the_data_exceed_is_usage_error(runner, pa_file, command):
    args = [command, "--input", str(pa_file), "--statistic", "edge",
            "--epsilon", "1", "--degree-bound", "3,3"]
    if command == "experiment":
        args += ["--trials", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "reaches out 4 at t=2, above the stated bound" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["release", "experiment"])
def test_threshold_mode_mismatch_is_usage_error(runner, pa_file, command):
    args = [command, "--input", str(pa_file), "--statistic", "edge",
            "--epsilon", "1", "--mechanism", "compose_projection",
            "--projection-thresholds", "3"]
    if command == "experiment":
        args += ["--trials", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "threshold mode does not match the sequence" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["release", "experiment"])
@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_is_usage_error(runner, pa_file, command, epsilon):
    args = [command, "--input", str(pa_file), "--statistic", "edge",
            "--epsilon", epsilon]
    if command == "experiment":
        args += ["--trials", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "finite and positive" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["release", "experiment"])
def test_degree_bound_of_the_wrong_mode_is_usage_error(runner, pa_file, command):
    # The PA file is directed, and a lone D is an undirected bound.
    args = [command, "--input", str(pa_file), "--statistic", "edge",
            "--epsilon", "1", "--degree-bound", "3"]
    if command == "experiment":
        args += ["--trials", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "bound mode does not match the sequence" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args,flag",
    [
        (["release", "--statistic", "edge", "--epsilon", "0"], "--epsilon"),
        (["release", "--statistic", "edge", "--epsilon", "-1"], "--epsilon"),
        (["release", "--statistic", "high_degree", "--tau", "0",
          "--epsilon", "1"], "--tau"),
        (["sensitivity", "--statistic", "high_degree", "--tau", "0",
          "--degree-bound", "3"], "--tau"),
        (["release", "--statistic", "high_degree", "--tau-percentile", "150",
          "--epsilon", "1"], "--tau-percentile"),
        (["experiment", "--statistic", "high_degree", "--tau-percentile", "-5",
          "--epsilon", "1", "--trials", "1"], "--tau-percentile"),
        (["experiment", "--statistic", "edge", "--releases", "0",
          "--epsilon", "1", "--trials", "1"], "--releases"),
        (["release", "--statistic", "edge", "--bound-granularity", "0",
          "--epsilon", "1"], "--bound-granularity"),
        (["release", "--statistic", "edge", "--epsilon", "1", "--seed", "-1"],
         "--seed"),
        (["release", "--statistic", "edge", "--epsilon", "1", "--trial", "-1"],
         "--trial"),
        (["experiment", "--statistic", "edge", "--epsilon", "1", "--trials",
          "1", "--seed", "-1"], "--seed"),
        (["generate", "--model", "pa", "--m0", "3", "--seed", "-1"], "--seed"),
        (["experiment", "--statistic", "edge", "--epsilon", "1", "--trials",
          "0"], "--trials"),
    ],
    ids=["release-epsilon-0", "release-epsilon-neg", "release-tau",
         "sens-tau", "release-percentile", "experiment-percentile",
         "experiment-releases", "release-granularity", "release-seed",
         "release-trial", "experiment-seed", "generate-seed",
         "experiment-trials"],
)
def test_out_of_range_number_is_usage_error(runner, pa_file, args, flag):
    if args[0] in ("release", "experiment"):
        args = args[:1] + ["--input", str(pa_file)] + args[1:]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert flag in result.output and "range" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["release", "--epsilon", "1"],
        ["experiment", "--epsilon", "1", "--trials", "1"],
        ["sensitivity", "--degree-bound", "3"],
    ],
    ids=["release", "experiment", "sensitivity"],
)
def test_tau_for_a_statistic_that_reads_none_is_usage_error(runner, pa_file, args):
    if args[0] != "sensitivity":
        args = args[:1] + ["--input", str(pa_file)] + args[1:]
    result = runner.invoke(main, args + ["--statistic", "edge", "--tau", "3"])
    assert result.exit_code == 2, result.output
    assert "--tau" in result.output and "only high_degree" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args,message",
    [
        (["--model", "pa", "--m0", "0"], "population parameters must be positive"),
        (["--model", "pa", "--p-isolated", "2"], "p_isolated must be a probability"),
        (["--model", "sir", "--p-infect", "1.5"], "rates must be probabilities"),
        (["--model", "sir", "--population", "50", "--max-steps", "-1"],
         "max_steps must be >= 1"),
        (["--model", "sir", "--population", "5", "--contacts", "5"],
         "contacts must be below population"),
    ],
    ids=["pa-m0", "pa-p-isolated", "sir-p-infect", "sir-max-steps",
         "sir-contacts"],
)
def test_invalid_model_parameters_are_usage_errors(runner, args, message):
    result = runner.invoke(main, ["generate"] + args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["release", "experiment"])
@pytest.mark.parametrize(
    "text,message",
    [
        ("H sideways\n", "bad header"),
        ("H undirected\nN a 1\nE a b\n", "'b' never declared"),
        ("N a 1\nH undirected\n", "header line must precede"),
        ("H directed\n", "sequence has no nodes"),
        ("H directed\nN a x\n", "line 2: bad node time"),
        ("H undirected\nN a 0\nN b 0\nE a b\n", "sequence has no release step"),
    ],
    ids=["bad-header", "dangling-edge", "late-header", "no-nodes", "bad-node-time",
         "no-release-step"],
)
def test_bad_input_file_is_usage_error(runner, tmp_path, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    args = [command, "--input", str(path), "--statistic", "edge", "--epsilon", "1"]
    if command == "experiment":
        args += ["--trials", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "--input" in result.output and message in result.output
    assert "Traceback" not in result.output
