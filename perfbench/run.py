"""sonartkbd benchmark: one workload per invocation, or all three in turn.

    python3 perfbench/run.py --workload track --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, repeats its unit of work for up
to --seconds (at least once), checks every unit's outputs and
prints, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones
in BENCHMARK.json; with --trace 1 the run sets up once under the tracer,
does one untraced and one traced unit, and the metrics are the per-layer
ones. Lines before the last give the environment, every unit, the track-log
and output digests, and the workload's own figures. A full record goes to
.perfbench_out/ in the checkout.

The package is imported from src/ of the checkout this file sits in; the
BLAS thread variables are recorded as found and never set here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("track", "study", "prepare")
# set up at least this many times and for at least this long, report the median
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# a seed kept out of tuning, for confirming a result on inputs nobody tuned on
HOLDOUT_SEED = 9001


def log(msg: str) -> None:
    print(msg, flush=True)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_untraced(wl, seconds: float, ops) -> tuple[dict, dict, dict]:
    """Set up repeatedly, then time units for up to `seconds` (at least one)."""
    import report
    from workloads import cpu_seconds

    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    log(f"setup: {len(setups)} times, " + ", ".join(f"{s:.4f}" for s in setups) + " s")
    units = []
    start = perf_counter()
    while True:
        cpu0, t0 = cpu_seconds(), perf_counter()
        result = wl.unit()
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        digests = wl.check(result)
        log(f"unit {len(units) + 1}: wall {wall:.4f} s, cpu {cpu:.4f} s, "
            f"{result.batches} batches")
        if result.nominal is not None:
            wall, cpu = result.nominal
            log(f"unit {len(units) + 1} at nominal work: wall {wall:.4f} s, "
                f"cpu {cpu:.4f} s")
        units.append((result, wall, cpu))
        if len(units) == 1:
            # later units add nothing new to the peak but heap fragmentation
            peak_mb = report.peak_rss_mb()
            first_digests = digests
            for key, value in digests.items():
                log(f"digest {wl.name} {key} {value}")
        else:
            ops.check(f"unit {len(units)} digests repeat", digests == first_digests)
        # stop before a unit like the last one would overrun `seconds`
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "batches_per_s": statistics.median(r.batches / w for r, w, _ in units),
        "cpu_us_per_batch": statistics.median(1e6 * c / r.batches for r, _, c in units),
        "peak_rss_mb": peak_mb,
    }
    stage_names = sorted({k for r, _, _ in units for k in r.stages})
    stages = {k: statistics.median(r.stages[k] for r, _, _ in units if k in r.stages)
              for k in stage_names}
    stages.update({
        "setup_s": metrics["setup_s"],
        "wall_s": statistics.median(w for _, w, _ in units),
        "cpu_s": statistics.median(c for _, _, c in units),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": ops.failed / max(ops.attempted, 1),
        "units": len(units),
    })
    return metrics, stages, first_digests


def run_traced(wl, ops, spans_path: Path) -> tuple[dict, dict, dict]:
    """Traced set-up, one untraced unit, one traced unit; per-layer figures."""
    import numpy as np
    import report
    import tracing
    from workloads import STUDY_WORKERS

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    t0 = perf_counter()
    plain = wl.unit()
    plain_wall = perf_counter() - t0
    plain_digests = wl.check(plain)
    tracer.install()
    try:
        t0 = perf_counter()
        traced = wl.unit()
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    digests = wl.check(traced)
    for key, value in plain_digests.items():
        log(f"digest {wl.name} {key} {value} untraced, {digests.get(key)} traced")
    ops.check("traced digests equal untraced", digests == plain_digests)
    spans = tracer.export()
    np.savez(spans_path, **spans)
    log(f"wrote {spans['name'].size} spans to {spans_path.relative_to(ROOT)}")
    metrics = report.layer_metrics(spans, wl.cfg, STUDY_WORKERS)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    })
    stages = dict(plain.stages, wall_s=plain_wall)
    return metrics, stages, plain_digests


def run_one(args) -> int:
    if not (SRC / "sonartkbd" / "__init__.py").is_file():
        print(f"error: no sonartkbd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sonartkbd
    if Path(sonartkbd.__file__).resolve().parent != SRC / "sonartkbd":
        print(f"error: imported sonartkbd from {sonartkbd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import report
    from workloads import WORKLOADS, Ops

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = report.environment(ROOT, args.seed, HOLDOUT_SEED)
    log("env " + json.dumps(env))
    ops = Ops(log)
    wl = WORKLOADS[args.workload](args.seed, ops, OUT)
    if args.trace:
        metrics, stages, digests = run_traced(wl, ops, OUT / f"spans-{tag}.npz")
    else:
        metrics, stages, digests = run_untraced(wl, args.seconds, ops)
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metric names disagree with BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for key, value in stages.items():
        log(f"figure {args.workload} {key} = {_fmt(value)}")
    for m in wanted:
        log(f"metric {m['name']} = {_fmt(metrics[m['name']])} {m['unit']}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=args.workload, env=env, figures=stages,
                  digests=digests)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so CPU time and peak RSS stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep repeating units (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
