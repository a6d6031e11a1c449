"""Tracking metrics: single-target OSPA, detection statistics, aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig


def sustained_confirmation(confirmed: np.ndarray, min_run: int) -> int | None:
    """Index of the first batch opening >= `min_run` consecutive confirmations."""
    conf = np.asarray(confirmed, dtype=bool)
    run = 0
    for i, c in enumerate(conf):
        run = run + 1 if c else 0
        if run >= min_run:
            return i - min_run + 1
    return None


def flip_count(confirmed: np.ndarray, start: int | None = None) -> int:
    """Number of confirmed-status changes from `start` onward."""
    conf = np.asarray(confirmed, dtype=bool)
    if start is None or start >= conf.size:
        return 0
    seg = conf[start:]
    return int(np.count_nonzero(np.diff(seg)))


@dataclass
class RunReport:
    """Per-run evaluation: per-batch OSPA plus detection summary.

    `first_confirm` is the start of the first sustained confirmation run
    (None if never); detection range and SNR are the ground truth at that
    batch. OSPA counts the estimate only while confirmed, so an unconfirmed
    filter scores the cutoff. The per-batch existence and confirmation
    series stay in the scored `TrackLog`.
    """

    ospa: np.ndarray
    first_confirm: int | None
    detection_range_m: float | None
    detection_eta_db: float | None
    flips_after_detect: int


def make_run_report(track, truth, cfg: PipelineConfig) -> RunReport:
    """Score one tracker pass (a `pipeline.TrackLog`) against ground truth.

    OSPA uses the config's `ospa_cutoff_deg` and a sustained confirmation
    needs `eval_min_confirm_run` consecutive confirmed batches.
    """
    psi_est = np.asarray(track.psi_deg, dtype=float)
    confirmed = np.asarray(track.confirmed, dtype=bool)
    n = psi_est.shape[0]
    if truth.psi_deg.shape[0] != n:
        raise ValueError(f"track has {n} batches, truth has {truth.psi_deg.shape[0]}")
    # single-target OSPA: 0 or 1 estimates against one truth, so the order
    # cancels and a batch costs its cutoff-saturated error, or the cutoff
    cutoff = cfg.ospa_cutoff_deg
    ospa = np.where(confirmed, np.minimum(np.abs(psi_est - truth.psi_deg), cutoff), cutoff)
    first = sustained_confirmation(confirmed, cfg.eval_min_confirm_run)
    return RunReport(
        ospa=ospa,
        first_confirm=first,
        detection_range_m=float(truth.range_m[first]) if first is not None else None,
        detection_eta_db=float(truth.eta_db[first]) if first is not None else None,
        flips_after_detect=flip_count(confirmed, first),
    )


AGGREGATE_QUANTILES = (0.1, 0.5, 0.9)


def aggregate_quantiles(values: np.ndarray) -> np.ndarray:
    """Columnwise `AGGREGATE_QUANTILES` of stacked per-run series, shape (3, n)."""
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    return np.quantile(arr, AGGREGATE_QUANTILES, axis=0)


def median_detection_eta(reports) -> float:
    """Median detection SNR over runs; never-detected runs count as +inf."""
    vals = [r.detection_eta_db if r.detection_eta_db is not None else np.inf
            for r in reports]
    return float(np.median(vals))
