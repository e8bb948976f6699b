"""Cost of the oracle's degree sweep at budgets past criterion 1's.

Runs the degree histogram through the oracle at each budget below, each in
a fresh interpreter so that it starts with empty caches and its own peak
memory, and prints the value, the wall seconds of the call and the peak
resident memory of its process (``ru_maxrss``, which Linux reports in KiB).
The budgets are the ones the histogram gap, the triangle catalog and a
release oracle need, directed ones at six nodes included.

    PYTHONPATH=src python tests/oracle_budget.py

On a 2-vCPU VM, D3 at n_max=7, t_max=5 takes about ten seconds and 146
MB, and in2out3 at n_max=6, t_max=3 about fourteen seconds and 650 MB; in
both most of the time is the degree sweep's signature pass.  in2out3 at
n_max=5, t_max=3, which the golden file certifies and the degree-sweep
tests leave out, takes about 0.2 s.  The rest take a few seconds
together.  Pytest does not collect this file.
"""
import resource
import subprocess
import sys
import time

from dpgraphseq import DegreeBounds, StatisticQuery
from dpgraphseq.oracle import oracle_diff_sensitivity

# (caps, n_max, t_max): one cap is an undirected D, two are (d_in, d_out).
BUDGETS = [
    ((3,), 7, 5),
    ((2,), 7, 4),
    ((2, 2), 5, 3),
    ((3, 3), 5, 3),
    ((1, 3), 5, 3),
    ((2, 3), 5, 3),
    ((2, 2), 6, 3),
    ((2, 3), 6, 3),
]


def measure(caps, n_max, t_max):
    if len(caps) == 1:
        bounds, name = DegreeBounds.undirected(*caps), f"D{caps[0]}"
    else:
        bounds, name = DegreeBounds.directed(*caps), f"in{caps[0]}out{caps[1]}"
    start = time.perf_counter()
    value = oracle_diff_sensitivity(
        StatisticQuery.degree_histogram(), bounds, n_max, t_max
    )
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{name} n_max={n_max} t_max={t_max}: histogram {value}, "
        f"{wall:.2f} s, ru_maxrss {peak:.0f} MB",
        flush=True,
    )


def main():
    for caps, n_max, t_max in BUDGETS:
        caps_arg = ",".join(map(str, caps))
        subprocess.run(
            [sys.executable, __file__, caps_arg, str(n_max), str(t_max)],
            check=True,
        )


if __name__ == "__main__":
    if len(sys.argv) == 4:
        caps_arg, n_max, t_max = sys.argv[1:]
        measure(tuple(map(int, caps_arg.split(","))), int(n_max), int(t_max))
    else:
        main()
