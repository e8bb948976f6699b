"""The package's public export list and import cost."""
import os
import subprocess
import sys
from pathlib import Path

import dpgraphseq


def _fresh_stdout(probe: str) -> str:
    """What `probe` prints in a fresh interpreter that imports this source tree."""
    src = str(Path(dpgraphseq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


# The public API, written out: adding or removing a name changes this list.
PUBLIC_NAMES = [
    "ArrivalBatch",
    "BoundViolationError",
    "BudgetTooLargeError",
    "DegreeBounds",
    "GraphSequence",
    "GraphSequenceError",
    "Histogram",
    "InfeasibleThresholdError",
    "ProjectionThresholds",
    "SensitivityReport",
    "StatisticQuery",
    "UnsupportedBaselineQueryError",
    "UnsupportedQueryError",
    "build_sequence",
    "canonical_ordering",
    "diff_sequence_sensitivity",
    "dumps_edge_list",
    "evaluate",
    "exact_values",
    "ingest_step",
    "loads_edge_list",
    "per_release_sensitivity",
    "project_sequence",
    "projected_sensitivity",
    "snapshot",
    "verify_bounds",
]


def test_all_names_resolve_once_in_sorted_order():
    names = dpgraphseq.__all__
    assert [name for name in names if not hasattr(dpgraphseq, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_all_is_the_pinned_public_api():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert dpgraphseq.__all__ == PUBLIC_NAMES


def test_import_does_not_load_numpy():
    # numpy's import dominates start-up time; only the mechanisms, harness
    # and oracle modules need it, so the package itself loads without it.
    probe = "import sys, dpgraphseq; print('numpy' in sys.modules)"
    assert _fresh_stdout(probe) == "False"


def test_generators_run_without_networkx():
    # networkx is a test dependency only: the SIR contact graph is built by
    # the package's own Barabasi-Albert port.
    probe = (
        "import sys\n"
        "from dpgraphseq.generators import SirParams, generate_sir_transmission\n"
        "generate_sir_transmission(SirParams(population=30, max_steps=5))\n"
        "print('networkx' in sys.modules)"
    )
    assert _fresh_stdout(probe) == "False"


def test_parse_ingest_and_exact_values_run_without_numpy():
    # Turning edge-list text into a validated sequence, reading its exact
    # statistics, over the sequence or at one snapshot, and projecting it
    # need no numpy either, so neither a bench's set-up nor a CLI command
    # that releases nothing pays numpy's import.
    probe = (
        "import sys\n"
        "import dpgraphseq as dg\n"
        "text = 'H undirected\\nN a 1\\nN b 1\\nN c 2\\nE a b\\nE c a\\n'\n"
        "seq = dg.loads_edge_list(text)\n"
        "seq = dg.ingest_step(seq, 3, ['d'], [('d', 'c')])\n"
        "dg.verify_bounds(seq, dg.DegreeBounds.undirected(2))\n"
        "for query in (dg.StatisticQuery.degree_histogram(),\n"
        "              dg.StatisticQuery.subgraph('triangle')):\n"
        "    dg.exact_values(query, seq)\n"
        "    dg.evaluate(query, dg.snapshot(seq, 3))\n"
        "th = dg.ProjectionThresholds.undirected(1)\n"
        "dg.project_sequence(seq, dg.canonical_ordering(seq), th)\n"
        "print('numpy' in sys.modules)"
    )
    assert _fresh_stdout(probe) == "False"
