"""Metric definitions: the environment record and the per-layer figures.

Per-layer figures come from one traced set-up plus one traced unit of work,
so every count in them repeats exactly for a fixed seed. "Per batch" means
per tracker batch (one `tkbd.extract` call each) unless the name says
otherwise; `noise.whiten.us_per_batch` is per 64-sample batch whitened by
any caller, so it also covers one bulk call over a whole recording. A layer
that a workload never calls reads 0 there.
"""

from __future__ import annotations

import os
import platform
import resource
from pathlib import Path

import numpy as np
import scipy

from tracing import PASS_SPAN, WORKER_SPAN, count_nested, span_table

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, cfg, n_workers: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced set-up and unit."""
    table = span_table(spans)
    empty = dict.fromkeys(("calls", "total_s", "self_s", "work", "pass_calls",
                           "pass_work"), 0.0)

    def span(name):
        return table.get(name, empty)

    batches = span("tkbd.extract")["calls"]
    cfar_batches = span("detect.cfar_detect")["calls"]
    energy_batches = span("noise.whiten")["pass_calls"]

    def us_per_batch(name):
        return _ratio(1e6 * span(name)["total_s"], batches)

    def per_call(name, scale):
        s = span(name)
        return _ratio(scale * s["total_s"], s["calls"])

    whiten, tracker = span("noise.whiten"), span(PASS_SPAN)
    ratios = span("stats.t_log_lr")["pass_work"] + span("stats.gauss_log_lr")["pass_work"]
    workers = span(WORKER_SPAN)["total_s"]
    n_eta = np.arange(cfg.filter_snr_lo_db, cfg.filter_snr_hi_db + 1e-9,
                      cfg.filter_eta_step_db).size
    n_grid = np.arange(-90.0, 90.0 + 0.5 * cfg.grid_bearing_step_deg,
                       cfg.grid_bearing_step_deg).size
    cmacs = n_grid * cfg.array_elements * cfg.batch_samples
    return {
        "noise.whiten.us_per_batch": _ratio(1e6 * whiten["total_s"],
                                            whiten["work"] / cfg.batch_samples),
        "noise.whiten.calls": whiten["calls"],
        "noise.fit_var.ms_per_call": per_call("noise.fit_var", 1e3),
        "noise.select_order.s": per_call("noise.select_order", 1.0),
        "noise.NoiseStream.take.us_per_sample": _ratio(
            1e6 * span("noise.NoiseStream.take")["total_s"],
            span("noise.NoiseStream.take")["work"]),
        "noise.VarModel.stationary_cov.calls": span("noise.VarModel.stationary_cov")["calls"],
        "array.BeamformGrid.energies.us_per_batch": per_call("array.BeamformGrid.energies", 1e6),
        "array.make_steering.calls": span("array.make_steering")["calls"],
        "array.apply_steering.us_per_call": per_call("array.apply_steering", 1e6),
        "stats.t_log_lr.us_per_call": per_call("stats.t_log_lr", 1e6),
        "stats.gauss_log_lr.us_per_call": per_call("stats.gauss_log_lr", 1e6),
        "stats.values_per_batch": _ratio(ratios, energy_batches),
        "tkbd.predict.us_per_batch": us_per_batch("tkbd.predict"),
        "tkbd.motion_step.us_per_batch": us_per_batch("tkbd.motion_step"),
        "tkbd.sample_birth.us_per_batch": us_per_batch("tkbd.sample_birth"),
        "tkbd.LikelihoodField.grid.us_per_batch": us_per_batch("tkbd.LikelihoodField.grid"),
        "tkbd.update.us_per_batch": us_per_batch("tkbd.update"),
        "tkbd.systematic_resample.us_per_batch": us_per_batch("tkbd.systematic_resample"),
        "tkbd.extract.us_per_batch": us_per_batch("tkbd.extract"),
        "tkbd.resample_ratio": _ratio(span("tkbd.systematic_resample")["calls"],
                                      span("tkbd.update")["calls"]),
        "detect.cfar_detect.us_per_batch": _ratio(
            1e6 * span("detect.cfar_detect")["total_s"], cfar_batches),
        "detect.detection_log_lr.us_per_call": per_call("detect.detection_log_lr", 1e6),
        "detect.detections_per_batch": _ratio(span("detect.cfar_detect")["work"],
                                              cfar_batches),
        "sim.generate_dataset.s_per_dataset": per_call("sim.generate_dataset", 1.0),
        "sim.generate_batch.us_per_batch": per_call("sim.generate_batch", 1e6),
        "sim.channel_noise_power.calls": span("sim.channel_noise_power")["calls"],
        "sim.save_dataset.ms": per_call("sim.save_dataset", 1e3),
        "sim.load_dataset.ms": per_call("sim.load_dataset", 1e3),
        "evaluate.make_run_report.ms_per_call": per_call("evaluate.make_run_report", 1e3),
        "pipeline.run_tracker.us_per_batch": _ratio(1e6 * tracker["total_s"], batches),
        "pipeline.run_tracker.self_us_per_batch": _ratio(1e6 * tracker["self_s"], batches),
        "pipeline.run_tracker.passes": tracker["calls"],
        "pipeline.run_tracker.batches_per_pass": _ratio(tracker["work"], tracker["calls"]),
        "pipeline.make_likelihood.ms_per_call": per_call("pipeline.make_likelihood", 1e3),
        "study.calibrate.passes": float(count_nested(spans, PASS_SPAN,
                                                     "study.calibrate_variant")),
        "study.calibrate_variant.s": span("study.calibrate_variant")["total_s"],
        "study.run_study.s": span("study.run_study")["total_s"],
        "study.pool_busy_frac": _ratio(workers,
                                       n_workers * span("study.run_study")["total_s"]),
        "computed.values_per_batch": float(cfg.filter_n_persist + cfg.filter_n_birth
                                           + n_grid * n_eta),
        "computed.beamform_cmacs_per_batch": float(cmacs),
        "computed.steering_bytes_per_batch": float(16 * cmacs),
        "trace.spans": float(spans["name"].size),
    }


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _openblas_version() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from its .git directory, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int, holdout_seed: int) -> dict:
    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
    env.update({var: os.environ.get(var, "unset") for var in BLAS_VARS})
    env.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "commit": git_commit(root),
        "seed": seed,
        "holdout_seed": holdout_seed,
    })
    return env
