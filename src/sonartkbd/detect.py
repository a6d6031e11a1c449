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

import math
from functools import lru_cache

import numpy as np

from .config import PipelineConfig
from .tkbd import BEARING_LIMIT_DEG

# Cephes ndtri (S. L. Moshier): rational approximations in y - 1/2 near the
# centre, scaled by sqrt(2 pi), and in 1/x, x = sqrt(-2 ln y), for x in
# [2, 8) and [8, 64]
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(x: float, scale: float, num: tuple, den: tuple) -> float:
    """scale num(x) / den(x) by Horner's rule, den with an implied leading 1."""
    top, bottom = 0.0, 1.0
    for c in num:
        top = top * x + c
    for c in den:
        bottom = bottom * x + c
    return scale * top / bottom


@lru_cache(maxsize=None)
def _z_quantile(alpha: float) -> float:
    """The upper-tail standard normal quantile z with P(Z > z) = alpha, for
    0 < alpha <= 1/2: Cephes `ndtri` (Moshier), negated."""
    y = float(alpha)
    if y > 0.13533528323661269189:  # exp(-2)
        y -= 0.5
        y2 = y * y
        return -(y + y * _rational(y2, y2, _NDTRI_P0, _NDTRI_Q0)) * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    num, den = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    return x - math.log(x) / x - _rational(z, z, num, den)


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
