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
