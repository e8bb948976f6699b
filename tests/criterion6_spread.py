"""Spread of acceptance criterion 6's slopes over the experiment seed.

Criterion 6 fits each mechanism's log-log slope of mean error against the
number of releases T at seed 0 and checks it against a frozen band.  This
script runs the same experiment at seeds 0..N-1 and prints, per mechanism,
the slopes' mean, standard deviation, range and the share of seeds whose
slope falls outside the band: the chance that a correct noise stream other
than today's fails the criterion.

    PYTHONPATH=src python tests/criterion6_spread.py [N]   # N defaults to 40

Each seed takes about a tenth of a second.  Pytest does not collect this
file.
"""
import statistics
import sys

from test_acceptance import CRITERION_6_BANDS, criterion_6_slopes


def main(seeds: int) -> None:
    slopes = {m: [] for m in CRITERION_6_BANDS}
    for seed in range(seeds):
        for m, slope in criterion_6_slopes(seed).items():
            slopes[m].append(slope)
        print(f"seed {seed}: " + "  ".join(f"{m} {slopes[m][-1]:.3f}" for m in slopes),
              flush=True)
    for m, values in slopes.items():
        lo, hi = CRITERION_6_BANDS[m]
        outside = sum(not lo <= v <= hi for v in values)
        sd = statistics.stdev(values) if len(values) > 1 else 0.0
        print(
            f"{m}: slope {statistics.fmean(values):.3f} +- {sd:.3f} "
            f"(range {min(values):.3f}-{max(values):.3f}), "
            f"{outside}/{len(values)} seeds outside [{lo}, {hi}]"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
