"""The package's public export list and import cost."""
import os
import subprocess
import sys
from pathlib import Path

import dpgraphseq


def test_all_names_resolve_once_in_sorted_order():
    names = dpgraphseq.__all__
    assert [name for name in names if not hasattr(dpgraphseq, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_import_does_not_load_numpy():
    # numpy's import dominates start-up time; only the mechanisms, harness
    # and oracle modules need it, so the package itself loads without it.
    src = str(Path(dpgraphseq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, dpgraphseq; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_generators_run_without_networkx():
    # networkx is a test dependency only: the SIR contact graph is built by
    # the package's own Barabasi-Albert port.
    src = str(Path(dpgraphseq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys\n"
        "from dpgraphseq.generators import SirParams, generate_sir_transmission\n"
        "generate_sir_transmission(SirParams(population=30, max_steps=5))\n"
        "print('networkx' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
