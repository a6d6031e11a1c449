"""Cell-averaging CFAR on bearing-time records, plus the detection likelihood.

The detector slides over one bearing row at a time. For every cell under
test it pools training cells from the same row and from a window of past
rows: bearing neighbours outside a guard band on both sides. A Gaussian is
fit to the pool and the cell fires when its value strictly exceeds
mean + z_alpha * stddev. Contiguous runs of firing cells are collapsed to
their strongest member so one target contributes one detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import norm

from .tkbd import BEARING_LIMIT_DEG


@lru_cache(maxsize=None)
def _z_quantile(alpha: float) -> float:
    return float(norm.isf(alpha))


@dataclass(frozen=True)
class CfarParams:
    """Window sizes and false-alarm level for the cell-averaging detector.

    Built by `pipeline.cfar_params_from_config`; the values come already
    checked from `PipelineConfig`'s `cfar_*` fields.
    """

    guard_cells: int
    train_cells: int
    train_rows: int
    alpha: float

    @property
    def z_alpha(self) -> float:
        return _z_quantile(self.alpha)


@dataclass(frozen=True)
class ClutterModel:
    """Detection-measurement model: Poisson clutter plus a Gaussian plot.

    rate : expected clutter detections per batch (lambda)
    prob_detect : probability the target produces a detection (p_d)
    bearing_var : variance of a target-originated bearing, deg^2

    Clutter is uniform over the bearing interval [-90, 90] deg. The values
    come already checked from `PipelineConfig`'s `clutter_*` fields.
    """

    rate: float
    prob_detect: float
    bearing_var: float


def _window_kernel(params: CfarParams) -> np.ndarray:
    g, t = params.guard_cells, params.train_cells
    kernel = np.ones(2 * (g + t) + 1)
    kernel[t:t + 2 * g + 1] = 0.0  # guard band and the cell under test
    return kernel


def cfar_detect(row: np.ndarray, history: np.ndarray | None, params: CfarParams
                ) -> tuple[np.ndarray, np.ndarray]:
    """Detect peaks in one BTR row against local training statistics.

    Parameters
    ----------
    row : ndarray, shape (G,)
        Current beamformed energies over the bearing grid.
    history : ndarray, shape (R, G) or None
        Up to `params.train_rows` previous rows, oldest first. Extra rows
        are an error so callers notice unbounded buffers.
    params : CfarParams

    Returns
    -------
    (indices, threshold)
        Indices of detected cells after local-maximum suppression, and the
        per-cell threshold that was applied.
    """
    row = np.asarray(row, dtype=float)
    if history is None or len(history) == 0:
        stack = row[None, :]
    else:
        history = np.atleast_2d(np.asarray(history, dtype=float))
        if history.shape[0] > params.train_rows:
            raise ValueError(
                f"history holds {history.shape[0]} rows, params allow {params.train_rows}")
        if history.shape[1] != row.shape[0]:
            raise ValueError("history and row disagree on grid size")
        stack = np.vstack([history, row[None, :]])
    kernel = _window_kernel(params)
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
    threshold = mean + params.z_alpha * std
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


def cfar_detections(energies: np.ndarray, params: CfarParams,
                    bearings_deg: np.ndarray) -> list[np.ndarray]:
    """Detected bearings of every row of a (K, G) bearing-time record.

    Row k trains on itself and the up to `params.train_rows` rows before
    it. Raises if the CFAR window (2 (guard + train) + 1 cells) is wider
    than the bearing grid.
    """
    bearings_deg = np.asarray(bearings_deg, dtype=float)
    window = _window_kernel(params).size
    if window > bearings_deg.size:
        raise ValueError(
            f"CFAR window of {window} cells (2*(guard+train)+1) is wider than "
            f"the {bearings_deg.size}-cell bearing grid")
    out = []
    for k, row in enumerate(energies):
        idx, _ = cfar_detect(row, energies[max(0, k - params.train_rows):k], params)
        out.append(bearings_deg[idx])
    return out


def detection_log_lr(detections: np.ndarray, bearing_deg, clutter: ClutterModel):
    """Log likelihood ratio of a detection set given a target at `bearing_deg`.

    ln L = ln(1 - p_d + (p_d / lambda) sum_d N(psi_d; psi, R) / kappa) with
    kappa the uniform clutter density over [-90, 90] deg. Without
    detections this is ln(1 - p_d); detections far from psi leave it there.
    Vectorised over `bearing_deg`.
    """
    psi = np.asarray(bearing_deg, dtype=float)
    dets = np.asarray(detections, dtype=float).ravel()
    kappa = 1.0 / (2.0 * BEARING_LIMIT_DEG)
    acc = np.zeros(psi.shape)
    if dets.size:
        r = clutter.bearing_var
        diff = dets[..., None] if psi.ndim else dets
        gauss = np.exp(-0.5 * (diff - psi) ** 2 / r) / np.sqrt(2.0 * np.pi * r)
        acc = gauss.sum(axis=0) if psi.ndim else float(gauss.sum())
    out = np.log(1.0 - clutter.prob_detect
                 + clutter.prob_detect / clutter.rate * acc / kappa)
    return out if np.ndim(out) else float(out)
