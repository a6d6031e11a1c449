"""Run the calibrated Monte-Carlo tracking study and print the summary table.

The study is `sonartkbd.study.calibrated_study`, the one acceptance criteria
06-08 run: build the synthetic environment, refit the whitening models on an
observed (target-free) recording, back each variant's sensitivity off until
the calibration datasets stay clean, then score every variant on paired
target and target-free runs. Every count must be at least 1.

Example:
    python3 scripts/run_sim_study.py --runs 20 --seed 42 --out study.csv
"""

import argparse
import csv
import sys
from time import perf_counter

from sonartkbd import study
from sonartkbd.config import default_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=study.N_RUNS,
                        help=f"Monte-Carlo runs per variant (default {study.N_RUNS})")
    parser.add_argument("--cal-runs", type=int, default=study.N_CAL_RUNS,
                        help="target-free datasets for calibration "
                             f"(default {study.N_CAL_RUNS})")
    parser.add_argument("--seed", type=int, default=study.MASTER_SEED, help="master seed")
    parser.add_argument("--free-seed", type=int, default=study.TARGET_FREE_SEED,
                        help="separate seed for the target-free verification")
    parser.add_argument("--workers", type=int, default=study.N_WORKERS,
                        help="process count for calibration and the run loop "
                             f"(default min(2, cpu count) = {study.N_WORKERS})")
    parser.add_argument("--out", help="write the per-variant summary CSV here")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    print(f"calibrating on {args.cal_runs} target-free datasets, then "
          f"{args.runs} target and {args.runs} target-free runs per variant ...")
    try:
        result = study.calibrated_study(default_config("sim"), args.seed, args.free_seed,
                                        args.runs, args.cal_runs, args.workers)
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for variant, cal in result.calibrations.items():
        print(f"  {variant}: setting {cal.setting:+.3g} after trace {cal.trace}")

    header = ("variant", "detected", "median_eta_db", "median_range_m",
              "median_flips", "false_tracks")
    rows = [(variant, f"{s['n_detected']}/{s['n_runs']}", f"{s['median_eta_db']:.2f}",
             f"{s['median_range_m']:.0f}" if s["median_range_m"] else "-",
             f"{s['median_flips']:.1f}", s["false_tracks"])
            for variant, s in result.summaries.items()]

    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(6)]
    for r in [header] + rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    print(f"total wall time {perf_counter() - t0:.0f} s")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
