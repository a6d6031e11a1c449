"""Cell-averaging CFAR on bearing-time records, plus the detection likelihood.

The detector slides over one bearing row at a time. For every cell under
test it pools training cells from the same row and from a window of past
rows: bearing neighbours outside a guard band on both sides. A Gaussian is
fit to the pool and the cell fires when its value strictly exceeds
mean + z_alpha * stddev. Contiguous runs of firing cells are collapsed to
their strongest member so one target contributes one detection.

The detector reads the `PipelineConfig`'s `cfar_*` fields: guard and
training cells on each side, training rows, and the false-alarm level
alpha. The detection likelihood reads the `clutter_*` fields: the expected
clutter detections per batch lambda, the target detection probability p_d
and the variance of a target-originated bearing in deg^2; clutter is
uniform over the bearing interval [-90, 90] deg.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .config import PipelineConfig
from .tkbd import BEARING_LIMIT_DEG


@lru_cache(maxsize=None)
def _z_quantile(alpha: float) -> float:
    return float(-ndtri(alpha))


def _window_kernel(cfg: PipelineConfig) -> np.ndarray:
    g, t = cfg.cfar_guard_cells, cfg.cfar_train_cells
    kernel = np.ones(2 * (g + t) + 1)
    kernel[t:t + 2 * g + 1] = 0.0  # guard band and the cell under test
    return kernel


def cfar_detect(stack: np.ndarray, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Detect peaks in `stack[-1]`, the newest row of an (R + 1, G) BTR stack.

    Every row trains, oldest first: the row under test and the up to
    `cfg.cfar_train_rows` rows before it. Returns the detected cells after
    local-maximum suppression and the per-cell threshold that was applied.
    """
    row = stack[-1]
    kernel = _window_kernel(cfg)
    col_sum = stack.sum(axis=0)
    col_sumsq = (stack ** 2).sum(axis=0)
    n_rows = stack.shape[0]
    train_sum = np.convolve(col_sum, kernel, mode="same")
    train_sumsq = np.convolve(col_sumsq, kernel, mode="same")
    train_count = np.convolve(np.full(row.shape[0], float(n_rows)), kernel, mode="same")
    mean = train_sum / train_count
    var = train_sumsq / train_count - mean ** 2
    # sample variance with the pooled count, clipped against rounding
    scale = train_count / np.maximum(train_count - 1.0, 1.0)
    std = np.sqrt(np.maximum(var * scale, 0.0))
    threshold = mean + _z_quantile(cfg.cfar_alpha) * std
    fired = row > threshold
    return _suppress_runs(row, fired), threshold


def _suppress_runs(row: np.ndarray, fired: np.ndarray) -> np.ndarray:
    """Keep only the strongest cell of each contiguous run of detections."""
    if not fired.any():
        return np.empty(0, dtype=int)
    idx = np.flatnonzero(fired)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    keep = []
    for run in np.split(idx, breaks + 1):
        keep.append(run[np.argmax(row[run])])
    return np.asarray(keep, dtype=int)


def check_cfar_window(cfg: PipelineConfig, n_cells: int) -> None:
    """ValueError if the CFAR window (2 (guard + train) + 1 cells) is wider
    than a bearing grid of `n_cells` cells."""
    window = _window_kernel(cfg).size
    if window > n_cells:
        raise ValueError(f"CFAR window of {window} cells (2*(guard+train)+1) is wider than "
                         f"the {n_cells}-cell bearing grid")


def cfar_detections(record: np.ndarray, cfg: PipelineConfig, bearings_deg: np.ndarray,
                    first: int = 0) -> list[np.ndarray]:
    """Detected bearings of rows first.. of a (K, G) bearing-time record.

    Row k trains on itself and the up to `cfg.cfar_train_rows` rows before
    it, those before `first` too, so pieces of a record that each carry the
    previous piece's training rows detect as the whole record does. Raises
    as `check_cfar_window` does if the CFAR window is wider than the grid.
    """
    bearings_deg = np.asarray(bearings_deg, dtype=float)
    check_cfar_window(cfg, bearings_deg.size)
    out = []
    for k in range(first, len(record)):
        idx, _ = cfar_detect(record[max(0, k - cfg.cfar_train_rows):k + 1], cfg)
        out.append(bearings_deg[idx])
    return out


def detection_log_lr(detections: np.ndarray, bearing_deg, cfg: PipelineConfig):
    """Log likelihood ratio of a detection set given a target at `bearing_deg`.

    ln L = ln(1 - p_d + (p_d / lambda) sum_d N(psi_d; psi, R) / kappa) with
    p_d, lambda and R (deg^2) the config's `clutter_*` fields and kappa the
    uniform clutter density over [-90, 90] deg. Without
    detections this is ln(1 - p_d); detections far from psi leave it there.
    The detections run along the first axis of `detections`. A 1-D set
    broadcasts over `bearing_deg` of any shape; the further axes of a
    stacked set (one column per batch, padded with +inf, which adds exactly
    zero) broadcast against `bearing_deg` as they stand.
    """
    psi = np.asarray(bearing_deg, dtype=float)
    dets = np.asarray(detections, dtype=float)
    dets = dets.reshape(dets.shape[:1] + (1,) * (psi.ndim + 1 - dets.ndim) + dets.shape[1:])
    kappa = 1.0 / (2.0 * BEARING_LIMIT_DEG)
    r = cfg.clutter_bearing_var
    diff = dets - psi
    acc = (np.exp(-0.5 * diff ** 2 / r) / np.sqrt(2.0 * np.pi * r)).sum(axis=0)
    p_d = cfg.clutter_prob_detect
    return np.log(1.0 - p_d + p_d / cfg.clutter_rate * acc / kappa)
