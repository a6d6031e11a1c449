"""Tracker pipelines: one measurement front end wired to the Bernoulli filter.

Four variants share the identical filter and differ only in how a raw
batch becomes a likelihood ratio:

    tvar   t-model ratio on a VAR(p)-whitened batch
    tvar0  t-model ratio on a spatially whitened batch (order-0 model)
    gvar   Gaussian ratio on a VAR(p)-whitened batch
    cfar   detection-based ratio from a CFAR front end on the raw record

`beam_energies` whitens a dataset's stream and beamforms its batches over
the `bearing_beamformer` grid; `sonartkbd btr` and `sonartkbd detect` read
the same energies. `make_likelihood` turns them into one log likelihood
ratio ln L(psi, eta) per batch, a `LikelihoodField` built from the batch's
energy row or detections: the filter update reads it at the particles and
the birth proposal draws from its CDF over the (bearing, SNR) grid.
`run_tracker` drives the filter over those as `make_likelihood` yields
them, `_BLOCK` batches at a time from raw samples to birth CDFs with one
block held, and every output equals one pass over the whole recording bit
for bit. The array, batch length N and period N / fs come from the dataset.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .array import BeamformGrid
from .config import PipelineConfig
from .detect import cfar_detections, detection_log_lr
from .noise import VarModel, WhitenState, whiten
from .sim import Dataset
from .stats import gauss_log_lr, t_log_lr
from .tkbd import (BEARING_LIMIT_DEG, ETA_DB, PSI, PSIDOT, BernoulliBelief,
                   LikelihoodField, birth_cdfs, extract, predict, update)

VARIANTS = ("tvar", "tvar0", "gvar", "cfar")

# Batches per block of a tracker pass. The front end and the likelihood
# tables hold one block at a time, so a pass's memory does not grow with
# the recording.
_BLOCK = 64


def spawn_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for a component, derived from one master seed.

    The scheme is `SeedSequence(master_seed, spawn_key=path)`; components
    use fixed leading keys (0 simulate, 1 track, 2 calibrate) followed by
    run indices, so any stream can be reproduced in isolation.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))


@dataclass
class TrackLog:
    """Plot-ready tracker output, one row per batch."""

    batch_index: np.ndarray
    time_s: np.ndarray
    exist_prob: np.ndarray
    psi_deg: np.ndarray
    psidot: np.ndarray
    eta_db: np.ndarray
    confirmed: np.ndarray


def bearing_beamformer(dataset: Dataset, cfg: PipelineConfig) -> BeamformGrid:
    """Beamformer for the dataset's array and batch length, -90..90 deg by the grid step."""
    step = cfg.grid_bearing_step_deg
    bearings = np.arange(-BEARING_LIMIT_DEG, BEARING_LIMIT_DEG + 0.5 * step, step)
    return BeamformGrid(dataset.geometry, bearings, dataset.n_per_batch)


def beam_energies(dataset: Dataset, grid: BeamformGrid, model: VarModel | None = None
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Beamformed energies of every batch, whitened by `model` first if given.

    The stream is whitened and beamformed `_BLOCK` batches at a time, which
    equals one pass over the whole stack bit for bit. Returns the (K, G)
    energies over `grid`, the (K,) batch energies ||z||^2 and how many
    leading batches hold whitener warm-up rows; their energies are returned
    but should not be scored. A model whose channel count differs from the
    dataset's is a ValueError.
    """
    k = dataset.n_batches
    energies, z_norm_sq, warmup = np.empty((k, grid.bearings_deg.size)), np.empty(k), 0
    for lo in range(0, k, _BLOCK):
        hi = min(lo + _BLOCK, k)
        energies[lo:hi], z_norm_sq[lo:hi], block_warmup = _block_energies(
            dataset, grid, model, lo, hi)
        warmup += block_warmup
    return energies, z_norm_sq, warmup


def _block_energies(dataset: Dataset, grid: BeamformGrid, model: VarModel | None,
                    lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    """`beam_energies` of batches lo..hi-1; the warm-up count is of this block.

    The whitener starts from the p raw samples before the block, zero-padded
    at the start of the stream: the state that whitening every earlier batch
    would have left.
    """
    n, m = dataset.n_per_batch, dataset.geometry.n_channels
    data = dataset.samples[lo * n:hi * n]
    warmup = 0
    if model is not None:
        if model.n_channels != m:
            raise ValueError(f"noise model has {model.n_channels} channels, "
                             f"the dataset has {m}")
        start, p = lo * n, model.order
        history = np.zeros((p, m))
        seen = dataset.samples[max(start - p, 0):start]
        history[p - len(seen):] = seen
        data, _, warmup_rows = whiten(model, data, WhitenState(history, start))
        warmup = -(-warmup_rows // n)
    batches = data.reshape(hi - lo, n, m)
    return grid.energies(batches), (batches * batches).sum(axis=(1, 2)), warmup


def uniform_interp(x, xp: np.ndarray, fp: np.ndarray, slopes: np.ndarray):
    """`np.interp(x, xp, fp)` bit for bit, for uniformly spaced xp and finite fp.

    `slopes` is np.diff(fp) / np.diff(xp), the table np.interp builds. The
    cell index comes from one division and is corrected by one cell where
    rounding put it off, so no search is needed. As in np.interp, x below
    xp[0] gives fp[0] and x from xp[-1] up gives fp[-1].
    """
    x = np.clip(x, xp[0], xp[-1])
    last = xp.size - 1
    j = np.minimum(((x - xp[0]) / (xp[1] - xp[0])).astype(np.intp), last - 1)
    j -= x < xp[j]
    j = np.minimum(j + (x >= xp[j + 1]), last - 1)
    return np.where(x >= xp[-1], fp[-1], slopes[j] * (x - xp[j]) + fp[j])


def make_likelihood(variant: str, dataset: Dataset, cfg: PipelineConfig,
                    model: VarModel | None) -> Iterator[LikelihoodField | None]:
    """The log likelihood ratio ln L(psi_deg, eta_db) of each batch of `dataset`, in order.

    Each batch's ratio is one `LikelihoodField` over the beamformer's
    bearings and the SNR grid. The energy variants apply the t or Gaussian
    ratio to the batch's beamformed energies interpolated at `psi_deg`;
    `cfar` scores the batch's CFAR detections and ignores the SNR. A
    batch's entry is None while the whitener is warming up, and the filter
    then only predicts. The checks on `variant` and `model` run at the
    call; the fields come from a generator that builds one block of
    `_BLOCK` batches at a time and holds only that block.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if variant != "cfar" and model is None:
        raise ValueError(f"variant {variant!r} needs a noise model")
    if variant == "tvar0" and model.order != 0:
        raise ValueError("tvar0 expects an order-0 noise model")
    return _pass_fields(variant, dataset, cfg, model)


def _pass_fields(variant: str, dataset: Dataset, cfg: PipelineConfig,
                 model: VarModel | None) -> Iterator[LikelihoodField | None]:
    """`make_likelihood`'s fields. Each block's ln L grid table comes from one
    ratio call and lives only while one `birth_cdfs` call turns it into CDFs."""
    grid = bearing_beamformer(dataset, cfg)
    bearings = grid.bearings_deg
    eta_grid = np.arange(cfg.filter_snr_lo_db, cfg.filter_snr_hi_db + 1e-9,
                         cfg.filter_eta_step_db)
    nu, n, m = cfg.tmodel_dof, dataset.n_per_batch, dataset.geometry.n_channels
    gaussian = variant == "gvar"

    def ratio(energy, z2, eta_db):
        eta = 10.0 ** (np.asarray(eta_db, dtype=float) / 10.0)
        return gauss_log_lr(energy, eta, n, m) if gaussian else t_log_lr(energy, z2, eta, nu, n, m)

    if variant == "cfar":
        detections = cfar_detections(beam_energies(dataset, grid)[0], cfg, bearings)
    k = dataset.n_batches
    for lo in range(0, k, _BLOCK):
        hi = min(lo + _BLOCK, k)
        if variant == "cfar":
            found, warmup = detections[lo:hi], 0
            # +inf pads the shorter detection sets; it adds exactly zero to the sum
            padded = np.full((max(map(len, found)), hi - lo, 1), np.inf)
            for i, dets in enumerate(found):
                padded[:dets.size, i, 0] = dets
            cdfs = birth_cdfs(np.broadcast_to(detection_log_lr(padded, bearings, cfg)[:, :, None],
                                              (hi - lo, bearings.size, eta_grid.size)))
            ratios = [lambda psi_deg, eta_db, dets=dets: detection_log_lr(dets, psi_deg, cfg)
                      for dets in found]
        else:
            energies, z_norm_sq, warmup = _block_energies(dataset, grid, model, lo, hi)
            energies, z_norm_sq = energies[warmup:], z_norm_sq[warmup:]
            slopes = np.diff(energies, axis=1) / np.diff(bearings)
            cdfs = birth_cdfs(ratio(energies[:, :, None], z_norm_sq[:, None, None], eta_grid))
            ratios = [lambda psi_deg, eta_db, row=row, row_slopes=row_slopes, z2=float(z2):
                          ratio(uniform_interp(psi_deg, bearings, row, row_slopes), z2, eta_db)
                      for row, row_slopes, z2 in zip(energies, slopes, z_norm_sq)]
        yield from [None] * warmup
        for loglr, cdf in zip(ratios, cdfs):
            yield LikelihoodField(bearings, eta_grid, loglr, cdf)


def run_tracker(dataset: Dataset, variant: str, cfg: PipelineConfig,
                model: VarModel | None, rng: np.random.Generator) -> TrackLog:
    """Run one tracker variant over a dataset, batch by batch."""
    period = dataset.n_per_batch / dataset.geometry.sample_rate
    fields = make_likelihood(variant, dataset, cfg, model)
    belief = BernoulliBelief.empty(cfg, rng)
    prev_field: LikelihoodField | None = None
    n = dataset.n_batches
    exist_prob = np.empty(n)
    mean = np.empty((n, 3))
    confirmed = np.zeros(n, dtype=bool)
    for k, field in enumerate(fields):
        belief = predict(belief, cfg, period, prev_field, rng)
        if field is not None:
            states = belief.states
            belief = update(belief, field.loglr(states[:, PSI], states[:, ETA_DB]), cfg, rng)
            prev_field = field
        confirmed[k], mean[k] = extract(belief, cfg)
        exist_prob[k] = belief.exist_prob
    idx = np.arange(n)
    return TrackLog(idx, (idx + 0.5) * period, exist_prob, mean[:, PSI], mean[:, PSIDOT],
                    mean[:, ETA_DB], confirmed)


_TRACK_COLUMNS = ("batch_index", "time_s", "q", "psi_est_deg", "psidot_est",
                  "eta_db_est", "confirmed")


def save_track_log(track: TrackLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACK_COLUMNS)
        for i in range(track.batch_index.size):
            writer.writerow([
                int(track.batch_index[i]), f"{track.time_s[i]:.6f}",
                f"{track.exist_prob[i]:.9g}", f"{track.psi_deg[i]:.6f}",
                f"{track.psidot[i]:.6f}", f"{track.eta_db[i]:.6f}",
                int(track.confirmed[i]),
            ])


def load_track_log(path) -> TrackLog:
    """Read a track log written by `save_track_log`.

    Every row must hold one number per column, every value finite, q in
    [0, 1] and `confirmed` 0 or 1; the ValueError otherwise names the file
    and the first bad data row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != _TRACK_COLUMNS:
            raise ValueError(f"{path}: not a track log (header {header})")
        rows = [r for r in reader if r]
    if not rows:
        raise ValueError(f"{path}: empty track log")
    width = len(_TRACK_COLUMNS)
    arr = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != width:
            raise ValueError(f"{path}: data row {i + 1} ({','.join(row)}) needs {width} numbers")
        arr[i] = values
    q, confirmed = arr[:, 2], arr[:, 6]
    bad = ~np.isfinite(arr).all(axis=1) | (q < 0) | (q > 1) | ~np.isin(confirmed, (0, 1))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {i + 1} ({','.join(rows[i])}) needs finite "
                         f"values, q in [0, 1] and confirmed 0 or 1")
    return TrackLog(arr[:, 0].astype(int), arr[:, 1], arr[:, 2], arr[:, 3],
                    arr[:, 4], arr[:, 5], arr[:, 6].astype(bool))


def save_detections(rows: list[tuple[int, float]], path) -> None:
    """Write (batch_index, bearing_deg) detection pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("batch_index", "bearing_deg"))
        for k, b in rows:
            writer.writerow([int(k), f"{b:.6f}"])
