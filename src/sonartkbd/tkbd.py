"""Bernoulli track-before-detect particle filter.

The belief over a single possibly-present target is an existence
probability q plus a weighted particle cloud over the state
x = (bearing psi in degrees, bearing rate psi_dot in deg/s, SNR eta_dB).
Each batch carries one log likelihood ratio ln L(psi, eta_dB), held with
its (bearing, SNR) grid and birth CDF in a `LikelihoodField`. The
measurement update takes the ratio's values at the particles, multiplies
the weights by it and folds the particle-averaged ratio I into q through
q <- q I / (1 - q + q I). Prediction mixes survivors with fresh births
drawn from the previous batch's birth CDF. No detector sits in front of
the filter, the raw (whitened) batch drives it directly.

The filter steps read their tuning from the `PipelineConfig`'s `filter_*`
fields: survival and birth probabilities per batch, process-noise standard
deviations `q_cv` (bearing rate, deg/s^2) and `q_dbsnr` (SNR, dB/s), the
newborn bearing-rate variance `p_psidot` (deg^2/s^2), the SNR prior window
[snr_lo_db, snr_hi_db] for births, the cloud sizes and the confirmation
threshold. The batch period N / fs in seconds belongs to the data, so
`predict` and `motion_step` take it as an argument.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig

log = logging.getLogger(__name__)

# state columns
PSI, PSIDOT, ETA_DB = 0, 1, 2

BEARING_LIMIT_DEG = 90.0


@dataclass
class BernoulliBelief:
    """Existence probability plus particles (n, 3) with normalised weights."""

    exist_prob: float
    states: np.ndarray
    weights: np.ndarray

    @classmethod
    def empty(cls, cfg: PipelineConfig, rng: np.random.Generator) -> "BernoulliBelief":
        """Zero-existence belief with a uniform placeholder cloud."""
        n = cfg.filter_n_persist
        states = np.column_stack([
            rng.uniform(-BEARING_LIMIT_DEG, BEARING_LIMIT_DEG, n),
            rng.normal(0.0, math.sqrt(cfg.filter_p_psidot), n),
            rng.uniform(cfg.filter_snr_lo_db, cfg.filter_snr_hi_db, n),
        ])
        return cls(0.0, states, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class LikelihoodField:
    """One batch's log likelihood ratio and the (bearing, SNR) grid births use.

    `loglr(psi_deg, eta_db)` broadcasts over its two arguments; the update
    reads it at the particles and `grid` at the cell centres. `cdf` is
    `birth_cdfs(grid)`, the birth-cell CDF over the flattened grid, which a
    tracker pass builds a block of batches at a time.
    """

    psi_grid: np.ndarray
    eta_db_grid: np.ndarray
    loglr: Callable
    cdf: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        """(n_psi, n_eta) array of ln L over the cell centres."""
        return np.broadcast_to(self.loglr(self.psi_grid[:, None], self.eta_db_grid[None, :]),
                               (self.psi_grid.size, self.eta_db_grid.size))


def birth_cdfs(grids: np.ndarray) -> np.ndarray:
    """Birth-cell CDFs of ln L grids (..., n_psi, n_eta), one per grid.

    Cell probabilities are proportional to exp(ln L), or uniform where their
    total is not finite and positive. Each CDF is their cumulative sum divided
    by its last value: what Generator.choice(p=...) searches, without its
    checks on p. Every reduction runs along the last axis, so a stack of grids
    gives each grid's CDF bit for bit.
    """
    flat = grids.reshape(grids.shape[:-2] + (grids.shape[-2] * grids.shape[-1],))
    probs = flat - flat.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1, keepdims=True)
    ok = np.isfinite(total) & (total > 0)
    np.divide(probs, total, out=probs, where=ok)
    probs[~ok[..., 0]] = 1.0 / flat.shape[-1]
    cdf = np.cumsum(probs, axis=-1, out=probs)
    cdf /= cdf[..., -1:]
    return cdf


def reflect_bearing(psi_deg: np.ndarray) -> np.ndarray:
    """Fold bearings back into [-90, 90] by reflection at the ends.

    Only entries outside the range (or NaN) take the np.mod fold. The rest
    still go through (psi + 90) - 90, so every output bit equals folding
    every entry.
    """
    shifted = np.array(psi_deg, dtype=float)
    shifted += BEARING_LIMIT_DEG
    escaped = ~((shifted >= 0.0) & (shifted <= 180.0))
    if escaped.any():
        folded = np.mod(shifted[escaped], 360.0)
        shifted[escaped] = np.where(folded > 180.0, 360.0 - folded, folded)
    return shifted - BEARING_LIMIT_DEG


def motion_step(states: np.ndarray, cfg: PipelineConfig, batch_period: float,
                rng: np.random.Generator) -> np.ndarray:
    """Nearly-constant-velocity transition for the particle array.

    Over one batch period T, psi gains T psi_dot plus half-step
    acceleration noise, psi_dot and eta_dB random walk with standard
    deviations q_cv T and q_dbsnr T. With zero process noise the
    deterministic part moves psi only.
    """
    t = batch_period
    n = states.shape[0]
    q_cv, q_dbsnr = cfg.filter_q_cv, cfg.filter_q_dbsnr
    w_cv = rng.normal(0.0, q_cv, n) if q_cv > 0 else np.zeros(n)
    w_db = rng.normal(0.0, q_dbsnr, n) if q_dbsnr > 0 else np.zeros(n)
    out = states.copy()
    out[:, PSI] += t * states[:, PSIDOT] + 0.5 * t * t * w_cv
    out[:, PSIDOT] += t * w_cv
    out[:, ETA_DB] += t * w_db
    out[:, PSI] = reflect_bearing(out[:, PSI])
    return out


def sample_birth(field: LikelihoodField | None, cfg: PipelineConfig, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw n birth particles from the previous batch's likelihood field.

    Cells are drawn from the field's `cdf`, so their probabilities are
    proportional to exp(ln L) over the field grid, restricted to the SNR
    prior box; positions get uniform jitter inside their cell. Without a
    field (first batch) the draw is uniform over the prior box. Bearing
    rates are N(0, p_psidot) regardless.
    """
    if field is None:
        psi = rng.uniform(-BEARING_LIMIT_DEG, BEARING_LIMIT_DEG, n)
        eta = rng.uniform(cfg.filter_snr_lo_db, cfg.filter_snr_hi_db, n)
    else:
        cells = field.cdf.searchsorted(rng.random(n), side="right")
        pi, ei = np.unravel_index(cells, (field.psi_grid.size, field.eta_db_grid.size))
        dpsi = _cell_step(field.psi_grid)
        deta = _cell_step(field.eta_db_grid)
        psi = field.psi_grid[pi] + rng.uniform(-0.5, 0.5, n) * dpsi
        eta = field.eta_db_grid[ei] + rng.uniform(-0.5, 0.5, n) * deta
        psi = np.clip(psi, -BEARING_LIMIT_DEG, BEARING_LIMIT_DEG)
        eta = np.clip(eta, cfg.filter_snr_lo_db, cfg.filter_snr_hi_db)
    psidot = rng.normal(0.0, math.sqrt(cfg.filter_p_psidot), n)
    return np.column_stack([psi, psidot, eta])


def _cell_step(grid: np.ndarray) -> float:
    return float(grid[1] - grid[0]) if grid.size > 1 else 0.0


def predict(belief: BernoulliBelief, cfg: PipelineConfig, batch_period: float,
            field: LikelihoodField | None, rng: np.random.Generator) -> BernoulliBelief:
    """Bernoulli time update over one batch period (seconds).

    q_pred = p_b (1 - q) + p_s q; survivors keep their weights scaled by
    p_s q / q_pred after a motion step, and n_birth birth particles share
    the complementary p_b (1 - q) / q_pred mass. If q_pred is zero the
    cloud is left in place with q = 0.
    """
    q = belief.exist_prob
    p_s, p_b, n_birth = cfg.filter_prob_survival, cfg.filter_prob_birth, cfg.filter_n_birth
    q_pred = p_b * (1.0 - q) + p_s * q
    if q_pred <= 0.0:
        return BernoulliBelief(0.0, belief.states.copy(), belief.weights.copy())
    survivors = motion_step(belief.states, cfg, batch_period, rng)
    births = sample_birth(field, cfg, n_birth, rng)
    w_surv = belief.weights * (p_s * q / q_pred)
    w_birth = np.full(n_birth, p_b * (1.0 - q) / q_pred / n_birth)
    states = np.vstack([survivors, births])
    weights = np.concatenate([w_surv, w_birth])
    return BernoulliBelief(min(q_pred, 1.0), states, weights / weights.sum())


def effective_sample_size(weights: np.ndarray) -> float:
    return float(1.0 / np.square(weights).sum())


def systematic_resample(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of a systematic resample: one uniform draw, n even strides.

    The last cumulative weight is pinned to 1, so a weight sum that rounds
    short of 1 cannot send a stride past the last particle.
    """
    positions = (rng.uniform() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def update(belief: BernoulliBelief, loglr: np.ndarray, cfg: PipelineConfig,
           rng: np.random.Generator) -> BernoulliBelief:
    """Bernoulli measurement update with per-particle log likelihood ratios.

    `loglr` holds ln L of each particle; NaN or +inf there is a
    ValueError, -inf marks a particle the measurement rules out. The
    particle-averaged ratio I = sum_i w_i L_i updates q <- q I / (1 - q + q I)
    (computed in log odds so saturation is well behaved) and reweights the cloud. If
    every ratio is zero while q > 0 the event is logged and q drops to 0
    with the cloud kept. The cloud is resampled to n_persist whenever it
    exceeds that size or its effective sample size falls under half of it.
    """
    loglr = np.asarray(loglr, dtype=float)
    if loglr.shape != (belief.states.shape[0],):
        raise ValueError("loglr must hold one value per particle")
    if not (loglr < np.inf).all():  # false for NaN as well as +inf
        raise ValueError("particle log likelihood ratios must not be NaN or +inf")
    q = belief.exist_prob
    # particles of weight 0 add nothing to I, so they must not set its scale
    peak = loglr.max(where=belief.weights > 0, initial=-np.inf)
    total = 0.0
    if peak > -np.inf:
        scaled = belief.weights * np.exp(np.minimum(loglr - peak, 0.0))
        total = scaled.sum()
    if total <= 0.0:
        if q > 0:
            log.warning("all particle likelihood ratios vanished; dropping existence")
        return BernoulliBelief(0.0, belief.states.copy(), belief.weights.copy())
    log_ratio = peak + math.log(total)  # ln I
    if q <= 0.0:
        q_new = 0.0
    elif q >= 1.0:
        q_new = 1.0
    else:
        logit = math.log(q) - math.log1p(-q) + log_ratio
        if logit >= 0:
            q_new = 1.0 / (1.0 + math.exp(-logit))
        else:
            expo = math.exp(logit)
            q_new = expo / (1.0 + expo)
    weights = scaled / total
    states = belief.states
    n_keep = cfg.filter_n_persist
    if states.shape[0] > n_keep or effective_sample_size(weights) < 0.5 * n_keep:
        idx = systematic_resample(weights, n_keep, rng)
        states = states.take(idx, axis=0)
        weights = np.full(n_keep, 1.0 / n_keep)
    else:
        states = states.copy()
    return BernoulliBelief(q_new, states, weights)


def extract(belief: BernoulliBelief, cfg: PipelineConfig) -> tuple[bool, np.ndarray]:
    """Whether q clears the threshold gamma, and the weighted-mean (3,) state."""
    return belief.exist_prob > cfg.filter_confirm_threshold, belief.weights @ belief.states
