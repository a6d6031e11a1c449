"""Command line interface.

Subcommands:
    simulate         generate a scenario dataset directory
    fit-noise        fit a VAR noise model to a dataset (optionally pick the order)
    track            run one tracker variant over a dataset, write a track log
    eval             score track logs against ground truth, write metrics
    calibrate-prior  sweep the SNR prior (or clutter rate) on target-free data
    btr              write a (normalised) bearing-time record as CSV
    detect           run the CFAR detector, write the detected bearings as CSV

Every command takes `--config` (INI, strict schema) and `--seed` where
randomness is involved; identical inputs and seeds reproduce outputs byte
for byte. Errors print one `error: ...` line and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, default_config, load_config, save_config
from .detect import cfar_detections
from .evaluate import AGGREGATE_QUANTILES, aggregate_quantiles, make_run_report
from .noise import fit_var, load_var, save_var, select_order
from .pipeline import (VARIANT_TABLE, beam_energies, bearing_beamformer, load_track_log,
                       run_tracker, save_detections, save_track_log, spawn_rng)
from .sim import generate_dataset, load_dataset, save_dataset
from .study import (SEED_SIMULATE, SEED_TRACK, VAR_ORDER, calibrate_variant,
                    default_ambient_model, default_geometry, scenario_from_config)


def _load_cfg(args):
    return load_config(args.config) if args.config else default_config(args.profile)


def _load_model(args):
    """The `--model` of `--variant`, checked for before the dataset is read."""
    if not args.model and VARIANT_TABLE[args.variant].model is not None:
        raise ValueError(f"variant {args.variant} needs --model")
    return load_var(args.model) if args.model else None


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    geom = default_geometry(cfg)
    if args.ambient:
        ambient = load_var(args.ambient)
    else:
        ambient, _ = default_ambient_model(geom)
    scenario = scenario_from_config(cfg, geom, ambient)
    rng = spawn_rng(args.seed, SEED_SIMULATE, args.run_index)
    ds = generate_dataset(scenario, rng, target_free=args.target_free, seed=args.seed)
    save_dataset(ds, args.out)
    save_config(cfg, Path(args.out) / "config.ini")
    print(f"wrote {ds.n_batches} batches ({ds.samples.shape[0]} samples, "
          f"{geom.n_channels} channels) to {args.out}")
    return 0


def cmd_fit_noise(args) -> int:
    if args.max_samples < 0:
        raise ValueError(f"--max-samples must be >= 0, got {args.max_samples}")
    ds = load_dataset(args.data)
    data = ds.samples
    if args.max_samples and data.shape[0] > args.max_samples:
        data = data[:args.max_samples]
    if args.auto_order is not None:
        order, scores = select_order(data, args.auto_order)
        print(f"selected order {order} by AIC "
              f"(scores {', '.join(f'{s:.1f}' for s in scores)})")
    else:
        order = args.order
    model = fit_var(data, order)
    save_var(model, args.out)
    radius = model.spectral_radius()
    print(f"fit VAR({order}) on {data.shape[0]} samples, "
          f"companion spectral radius {radius:.4f}, wrote {args.out}")
    if radius >= 1.0:
        print("warning: model is unstable; simulation will refuse it", file=sys.stderr)
    return 0


def cmd_track(args) -> int:
    cfg = _load_cfg(args)
    model = _load_model(args)
    ds = load_dataset(args.data)
    rng = spawn_rng(args.seed, SEED_TRACK, args.run_index)
    track = run_tracker(ds, args.variant, cfg, model, rng)
    save_track_log(track, args.out)
    n_conf = int(track.confirmed.sum())
    print(f"tracked {track.batch_index.size} batches with {args.variant}, "
          f"{n_conf} confirmed, wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    ds = load_dataset(args.truth)
    if ds.truth is None:
        raise ValueError(f"{args.truth}: dataset has no truth.csv")
    reports = [make_run_report(load_track_log(path), ds.truth, cfg) for path in args.tracks]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("track", "first_confirm_batch", "detection_range_m",
                         "detection_eta_db", "flips_after_detect", "mean_ospa"))
        for path, rep in zip(args.tracks, reports):
            writer.writerow([
                path,
                rep.first_confirm if rep.first_confirm is not None else "",
                f"{rep.detection_range_m:.3f}" if rep.detection_range_m is not None else "",
                f"{rep.detection_eta_db:.3f}" if rep.detection_eta_db is not None else "",
                rep.flips_after_detect,
                f"{rep.ospa.mean():.6f}",
            ])
    if args.aggregate:
        stack = np.vstack([rep.ospa for rep in reports])
        quants = aggregate_quantiles(stack)
        with open(args.aggregate, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["batch_index"] + [f"ospa_q{round(100 * q)}"
                                               for q in AGGREGATE_QUANTILES])
            for k in range(stack.shape[1]):
                writer.writerow([k] + [f"{v:.6f}" for v in quants[:, k]])
    print(f"evaluated {len(reports)} track log(s), wrote {args.out}")
    return 0


def cmd_calibrate_prior(args) -> int:
    cfg = _load_cfg(args)
    model = _load_model(args)
    ds = load_dataset(args.data)
    result = calibrate_variant(args.variant, cfg, [ds], model, model,
                               args.seed, step_db=args.step_db,
                               margin_steps=args.margin_steps)
    for setting, dirty in result.trace:
        print(f"  setting {setting:+.2f}: {dirty} false track(s)")
    if VARIANT_TABLE[args.variant].ratio == "detections":
        print(f"calibrated clutter rate lambda = {result.setting:.6g}")
    else:
        lo, hi = result.config.filter_snr_lo_db, result.config.filter_snr_hi_db
        print(f"calibrated SNR prior = [{lo:.1f}, {hi:.1f}] dB")
    if args.out:
        save_config(result.config, args.out)
        print(f"wrote calibrated config to {args.out}")
    return 0


def cmd_btr(args) -> int:
    cfg = _load_cfg(args)
    ds = load_dataset(args.data)
    model = load_var(args.model) if args.model else None
    grid = bearing_beamformer(ds, cfg)
    rows, _, _ = beam_energies(ds, grid, model)
    peak = rows.max(initial=0.0)
    if not args.raw and peak > 0:
        rows = rows / peak
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch_index"] + [f"{b:.3f}" for b in grid.bearings_deg])
        for k in range(rows.shape[0]):
            writer.writerow([k] + [f"{v:.8g}" for v in rows[k]])
    print(f"wrote {rows.shape[0]} x {rows.shape[1]} bearing-time record to {args.out}")
    return 0


def cmd_detect(args) -> int:
    """Standalone CFAR pass, mostly for inspecting the detector."""
    cfg = _load_cfg(args)
    ds = load_dataset(args.data)
    grid = bearing_beamformer(ds, cfg)
    energies, _, _ = beam_energies(ds, grid)
    found = cfar_detections(energies, cfg, grid.bearings_deg)
    rows = [(k, float(bearing)) for k, bearings in enumerate(found) for bearing in bearings]
    save_detections(rows, args.out)
    print(f"wrote {len(rows)} detections to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonartkbd",
        description="Broadband passive-sonar track-before-detect pipeline")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, run_index=True):
        p.add_argument("--config", help="INI config file (strict schema)")
        p.add_argument("--profile", default="sim", choices=("real", "sim"),
                       help="default profile when --config is omitted")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed")
        if seed and run_index:
            p.add_argument("--run-index", type=int, default=0,
                           help="run index inside the seed-splitting scheme")

    p = sub.add_parser("simulate", help="generate a scenario dataset")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--ambient", help="VAR model file for the ambient noise "
                                     "(default: built-in synthetic model)")
    p.add_argument("--target-free", action="store_true", help="omit the target")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fit-noise", help="fit a VAR noise model")
    common(p, seed=False)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--order", type=int, default=VAR_ORDER, help="VAR order p")
    p.add_argument("--auto-order", type=int, default=None, metavar="PMAX",
                   help="pick the order in [0, PMAX] by AIC instead")
    p.add_argument("--max-samples", type=int, default=0,
                   help="cap the training samples (0 = all)")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(fn=cmd_fit_noise)

    p = sub.add_parser("track", help="run a tracker variant")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--variant", required=True, choices=VARIANT_TABLE)
    p.add_argument("--model", help="VAR model file the variant whitens with")
    p.add_argument("--out", required=True, help="output track log CSV")
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("eval", help="score track logs against truth")
    common(p, seed=False)
    p.add_argument("--truth", required=True, help="dataset directory with truth.csv")
    p.add_argument("--tracks", required=True, nargs="+", help="track log CSVs")
    p.add_argument("--out", required=True, help="per-track metrics CSV")
    p.add_argument("--aggregate", help="optional per-batch OSPA quantile CSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("calibrate-prior", help="sweep sensitivity on target-free data")
    common(p, run_index=False)
    p.add_argument("--data", required=True, help="target-free dataset directory")
    p.add_argument("--variant", required=True, choices=VARIANT_TABLE)
    p.add_argument("--model", help="VAR model file the variant whitens with")
    p.add_argument("--step-db", type=float, default=2.0, help="sweep granularity")
    p.add_argument("--margin-steps", type=int, default=1,
                   help="extra back-off steps beyond the first clean setting")
    p.add_argument("--out", help="write the calibrated config here")
    p.set_defaults(fn=cmd_calibrate_prior)

    p = sub.add_parser("btr", help="write a bearing-time record CSV")
    common(p, seed=False)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", help="whiten with this VAR model first")
    p.add_argument("--raw", action="store_true", help="skip max-to-1 normalisation")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(fn=cmd_btr)

    p = sub.add_parser("detect", help="run the CFAR detector, write detections")
    common(p, seed=False)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output detections CSV")
    p.set_defaults(fn=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, ConfigError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
