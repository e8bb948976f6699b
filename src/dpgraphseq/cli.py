"""Command-line front end: generate data, inspect sensitivities, run releases."""
from __future__ import annotations

import contextlib
import dataclasses
import json
import sys

import click
import numpy as np

from .errors import (
    BoundViolationError,
    GraphSequenceError,
    InfeasibleThresholdError,
    OrderingMismatchError,
    PatternDirectionMismatchError,
    UnsupportedBaselineQueryError,
)
from .generators import (
    PaTransmissionParams,
    SirParams,
    generate_pa_transmission,
    generate_sir_transmission,
)
from .graph_core import (
    DegreeBounds,
    ProjectionThresholds,
    dumps_edge_list,
    loads_edge_list,
)
from .harness import (
    ExperimentConfig,
    release_parameters,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from .mechanisms import MECHANISMS, MechanismConfig, release as run_release
from .sensitivity import (
    diff_sequence_sensitivity,
    per_release_sensitivity,
    projected_sensitivity,
)
from .statistics import DIRECTED_PATTERNS, UNDIRECTED_PATTERNS, StatisticQuery

# Numeric option ranges: click reports a value outside them as a usage error.
_POSITIVE = click.FloatRange(min=0, min_open=True)
_AT_LEAST_ONE = click.IntRange(min=1)
_NON_NEGATIVE = click.IntRange(min=0)
_PERCENTILE = click.FloatRange(0, 100, min_open=True, max_open=True)


def _parse_statistic(spec: str, tau) -> StatisticQuery:
    """Parse 'high_degree', 'degree_histogram', or a pattern like 'k_star:2'.

    Malformed specs are usage errors naming --statistic, and a tau or a
    typed --tau-percentile the query would drop is one naming its option.
    """
    source = click.get_current_context().get_parameter_source("tau_percentile")
    typed = source not in (None, click.core.ParameterSource.DEFAULT)
    if typed and (tau is not None or spec != "high_degree"):
        raise click.BadParameter(
            "only high_degree without --tau reads it", param_hint="'--tau-percentile'"
        )
    if spec == "high_degree":
        return StatisticQuery.high_degree(tau if tau is not None else 1)
    if tau is not None:
        raise click.BadParameter(
            f"only high_degree reads a threshold, not {spec!r}", param_hint="'--tau'"
        )
    if spec == "degree_histogram":
        return StatisticQuery.degree_histogram()
    pattern, sep, k = spec.partition(":")

    def bad(message):
        return click.BadParameter(message, param_hint="'--statistic'")

    if pattern not in UNDIRECTED_PATTERNS + DIRECTED_PATTERNS:
        raise bad(
            f"unknown statistic {spec!r}: expected high_degree, "
            "degree_histogram, an undirected pattern "
            f"({', '.join(UNDIRECTED_PATTERNS)}) or a directed pattern "
            f"({', '.join(DIRECTED_PATTERNS)}), stars as 'pattern:k'"
        )
    if not pattern.endswith("k_star"):
        if sep:
            raise bad(f"pattern {pattern!r} takes no ':k'")
        return StatisticQuery.subgraph(pattern)
    try:
        return StatisticQuery.subgraph(pattern, int(k))
    except ValueError as exc:
        raise bad(f"{pattern} needs ':k' with an integer k >= 1") from exc


def _parse_pair(value, cls):
    """'D' -> cls.undirected(D), 'Din,Dout' -> cls.directed(Din, Dout); None stays."""
    if value is None:
        return None
    try:
        parts = [int(p) for p in value.split(",")]
        if len(parts) == 1:
            return cls.undirected(*parts)
        if len(parts) == 2:
            return cls.directed(*parts)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    raise click.BadParameter("expected D or Din,Dout")


def _bounds_option(ctx, param, value):
    return _parse_pair(value, DegreeBounds)


def _thresholds_option(ctx, param, value):
    return _parse_pair(value, ProjectionThresholds)


@contextlib.contextmanager
def _usage_errors():
    """Report bounds the data exceed, thresholds of the wrong mode, or a query
    they or the data's direction rule out, as a usage error."""
    try:
        yield
    except (
        UnsupportedBaselineQueryError,
        InfeasibleThresholdError,
        BoundViolationError,
        OrderingMismatchError,
        PatternDirectionMismatchError,
    ) as exc:
        raise click.UsageError(str(exc)) from exc


def _read_sequence(path: str):
    """Parse --input; a malformed, node-free or step-free file is a usage error."""
    with click.open_file(path) as fh:
        text = fh.read()
    try:
        seq = loads_edge_list(text)
    except (ValueError, GraphSequenceError) as exc:
        raise click.BadParameter(str(exc), param_hint="'--input'") from exc
    if not seq._node_times:
        raise click.BadParameter("sequence has no nodes", param_hint="'--input'")
    if seq.horizon < 1:
        raise click.BadParameter(
            "sequence has no release step: every node arrives at time 0",
            param_hint="'--input'",
        )
    return seq


def _emit(text: str, output):
    if output:
        with click.open_file(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@click.group()
def main():
    """Differentially private continual release over graph sequences."""


_MODELS = {
    "pa": (PaTransmissionParams, generate_pa_transmission),
    "sir": (SirParams, generate_sir_transmission),
}


def _model_options(command):
    """One --field-name option per field of each model's params, with its default."""
    fields = [f for cls, _ in _MODELS.values() for f in dataclasses.fields(cls)]
    # Decorators apply bottom-up, so the last field goes on first.
    for field in reversed(fields):
        name = "--" + field.name.replace("_", "-")
        command = click.option(name, default=field.default, show_default=True)(command)
    return command


@main.command()
@click.option("--model", type=click.Choice(list(_MODELS)), required=True)
@_model_options
@click.option("--seed", type=_NON_NEGATIVE, default=0, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def generate(model, seed, output, **options):
    """Generate a synthetic transmission sequence as an edge list."""
    cls, make = _MODELS[model]
    try:
        params = cls(**{f.name: options[f.name] for f in dataclasses.fields(cls)})
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _emit(dumps_edge_list(make(params, seed=seed)), output)


@main.command()
@click.option("--statistic", required=True)
@click.option("--tau", type=_AT_LEAST_ONE, default=None)
@click.option("--degree-bound", default=None, callback=_bounds_option,
              help="D or Din,Dout")
@click.option("--projection-thresholds", default=None,
              callback=_thresholds_option, help="D or Din,Dout")
@click.option(
    "--regime",
    type=click.Choice(["diff_sequence", "per_release", "projected"]),
    default="diff_sequence",
    show_default=True,
)
def sensitivity(statistic, tau, degree_bound, projection_thresholds, regime):
    """Print the closed-form sensitivity for a query as JSON.

    The projected regime reads --projection-thresholds and the others
    --degree-bound; the option a regime does not read is refused.
    """
    query = _parse_statistic(statistic, tau)
    options = [("--degree-bound", degree_bound),
               ("--projection-thresholds", projection_thresholds)]
    if regime == "projected":
        options.reverse()
    (option, bounds), (unread, value) = options
    if value is not None:
        raise click.BadParameter(
            f"the {regime} regime reads {option} instead", param_hint=f"'{unread}'"
        )
    if bounds is None:
        raise click.BadParameter(f"{regime} regime needs {option}")
    fn = {"diff_sequence": diff_sequence_sensitivity, "per_release": per_release_sensitivity,
          "projected": projected_sensitivity}[regime]
    with _usage_errors():
        report = fn(query, bounds)
    click.echo(
        json.dumps(
            {
                "value": report.value,
                "formula_id": report.formula_id,
                "regime": report.regime,
                "query": query.label(),
                "bounds": dataclasses.asdict(report.bounds),
            }
        )
    )


@main.command("release")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--mechanism", type=click.Choice(MECHANISMS), default="sensdiff",
              show_default=True)
@click.option("--statistic", required=True)
@click.option("--epsilon", type=_POSITIVE, required=True)
@click.option("--tau", type=_AT_LEAST_ONE, default=None)
@click.option("--tau-percentile", type=_PERCENTILE, default=None,
              help="high_degree only: its tau at this degree percentile; not with --tau")
@click.option("--degree-bound", default=None, callback=_bounds_option)
@click.option("--bound-granularity", type=_AT_LEAST_ONE, default=5, show_default=True)
@click.option("--projection-thresholds", default=None, callback=_thresholds_option)
@click.option("--seed", type=_NON_NEGATIVE, default=0, show_default=True)
@click.option("--trial", type=_NON_NEGATIVE, default=0, show_default=True)
@click.option("--zero-noise", is_flag=True)
@click.option("--output", type=click.Path(), default=None)
def release_cmd(input_path, mechanism, statistic, epsilon, tau, tau_percentile,
                degree_bound, bound_granularity, projection_thresholds, seed,
                trial, zero_noise, output):
    """One private release run; prints per-step estimates as JSON."""
    seq = _read_sequence(input_path)
    query, bounds, candidates = release_parameters(
        seq, _parse_statistic(statistic, tau), (mechanism,),
        tau_percentile, degree_bound, bound_granularity,
        () if projection_thresholds is None else (projection_thresholds,),
    )
    try:
        config = MechanismConfig(
            epsilon=epsilon, seed=seed, trial_id=trial, zero_noise=zero_noise
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--epsilon'") from exc
    with _usage_errors():
        series = run_release(
            mechanism, seq, query, config, bounds=bounds, candidates=candidates
        )
    _emit(
        json.dumps(
            {
                "mechanism": mechanism,
                "query": query.label(),
                "epsilon": epsilon,
                "noise_scale": series.noise_scale,
                "estimates": np.asarray(series.estimates).tolist(),
            },
            indent=2,
        )
        + "\n",
        output,
    )


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--dataset", default=None, help="label in output rows")
@click.option("--statistic", required=True)
@click.option("--epsilon", "epsilons", type=_POSITIVE, multiple=True, required=True)
@click.option("--mechanism", "mechanisms", type=click.Choice(MECHANISMS),
              multiple=True, default=MECHANISMS, show_default=True)
@click.option("--releases", type=_AT_LEAST_ONE, default=None,
              help="merge batches into this many release windows")
@click.option("--trials", type=_AT_LEAST_ONE, default=100, show_default=True)
@click.option("--tau", type=_AT_LEAST_ONE, default=None)
@click.option("--tau-percentile", type=_PERCENTILE, default=90.0, show_default=True,
              help="tau at this degree percentile; if typed, high_degree only, not with --tau")
@click.option("--degree-bound", default=None, callback=_bounds_option)
@click.option("--bound-granularity", type=_AT_LEAST_ONE, default=5, show_default=True)
@click.option("--projection-thresholds", default=None, callback=_thresholds_option)
@click.option("--seed", type=_NON_NEGATIVE, default=0, show_default=True)
@click.option("--zero-noise", is_flag=True)
@click.option("--output", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def experiment(input_path, dataset, statistic, epsilons, mechanisms, releases,
               trials, tau, tau_percentile, degree_bound, bound_granularity,
               projection_thresholds, seed, zero_noise, output, fmt):
    """Error sweep over budgets and mechanisms; emits one row per trial."""
    seq = _read_sequence(input_path)
    query = _parse_statistic(statistic, tau)
    try:
        cfg = ExperimentConfig(
            dataset=dataset or input_path,
            seq=seq,
            query=query,
            epsilons=tuple(epsilons),
            mechanisms=tuple(mechanisms),
            trials=trials,
            seed=seed,
            zero_noise=zero_noise,
            releases=releases,
            tau_percentile=tau_percentile if tau is None else None,
            bounds=degree_bound,
            bound_granularity=bound_granularity,
            candidates=(
                () if projection_thresholds is None else (projection_thresholds,)
            ),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    with _usage_errors():
        rows, _ = run_experiment(cfg)
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    _emit(text, output)


if __name__ == "__main__":
    main()
