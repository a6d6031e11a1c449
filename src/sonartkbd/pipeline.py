"""Tracker pipelines: one measurement front end wired to the Bernoulli filter.

The tracker variants share the identical filter and differ only in how a
raw batch becomes a likelihood ratio: `VARIANT_TABLE` gives each one's
ratio and the noise model it whitens with, and nothing else names a variant.

`_energy_blocks` is the front end: it whitens a dataset's stream `_BLOCK`
batches at a time, each from the whitener state the block before left, and
beamforms them over the `bearing_beamformer` grid; `beam_energies` joins its
blocks for `sonartkbd btr` and `sonartkbd detect`. `make_likelihood` turns
each block into one log likelihood ratio ln L(psi, eta) per batch, a
`LikelihoodField` built from the batch's energy row or detections: the filter
update reads it at the particles and the birth proposal draws from its CDF
over the (bearing, SNR) grid. `run_tracker` drives the filter over those
fields as they come, one block held, and every output equals one pass over
the whole recording bit for bit. The array, batch length N and period N / fs
come from the dataset.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .array import BeamformGrid
from .config import PipelineConfig
from .detect import cfar_detections, check_cfar_window, detection_log_lr
from .noise import VarModel, whiten
from .sim import Dataset
from .stats import gauss_log_lr, t_log_lr
from .tkbd import (BEARING_LIMIT_DEG, ETA_DB, PSI, PSIDOT, BernoulliBelief,
                   LikelihoodField, birth_cdfs, extract, predict, update)

# Each variant's ratio ("t", "gauss", or CFAR "detections" on raw energies) and
# the model it whitens with: the fitted "var" model, its "order0" fit or None.
# The ratio sets calibration's knob: clutter rate for detections, else SNR window.
Variant = namedtuple("Variant", "ratio model")
VARIANT_TABLE = {
    "tvar": Variant("t", "var"),
    "tvar0": Variant("t", "order0"),
    "gvar": Variant("gauss", "var"),
    "cfar": Variant("detections", None),
}
VARIANTS = tuple(VARIANT_TABLE)  # in this order: VARIANTS.index fixes each study seed lane

# Batches per block of a tracker pass. The front end and the likelihood
# tables hold one block at a time, so a pass's memory does not grow with
# the recording.
_BLOCK = 64
# Batches per ln L table and birth-CDF array within a block. An
# (8, 181, 11) float64 table is about 127 KB, under glibc's 128 KiB mmap
# threshold, so its temporaries come from the heap rather than from fresh
# page-faulting mappings.
_TABLE_BLOCK = 8


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

    The blocks of `_energy_blocks` in one stack: the (K, G) energies over
    `grid`, the (K,) batch energies ||z||^2 and how many leading batches hold
    whitener warm-up rows, whose energies should not be scored. A model
    whose channel count differs from the dataset's is a ValueError.
    """
    _check_channels(dataset, model)
    k = dataset.n_batches
    energies, z_norm_sq, warmup = np.empty((k, grid.bearings_deg.size)), np.empty(k), 0
    blocks = _energy_blocks(dataset, grid, model)
    for lo, (block, block_z2, block_warmup) in zip(range(0, k, _BLOCK), blocks):
        energies[lo:lo + _BLOCK], z_norm_sq[lo:lo + _BLOCK] = block, block_z2
        warmup += block_warmup
    return energies, z_norm_sq, warmup


def _check_channels(dataset: Dataset, model: VarModel | None) -> None:
    m = dataset.geometry.n_channels
    if model is not None and model.n_channels != m:
        raise ValueError(f"noise model has {model.n_channels} channels, the dataset has {m}")


def _energy_blocks(dataset: Dataset, grid: BeamformGrid, model: VarModel | None
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """`beam_energies` `_BLOCK` batches at a time: each block's energies, ||z||^2
    and warm-up batch count. Each `whiten` call starts from the state the
    previous block's call returned, so the stream is whitened as one."""
    n, m, k = dataset.n_per_batch, dataset.geometry.n_channels, dataset.n_batches
    state, warmup = None, 0
    for lo in range(0, k, _BLOCK):
        batches = dataset.samples[lo * n:min(lo + _BLOCK, k) * n]
        if model is not None:
            batches, state, warmup_rows = whiten(model, batches, state)
            warmup = -(-warmup_rows // n)
        batches = batches.reshape(-1, n, m)
        yield grid.energies(batches), (batches * batches).sum(axis=(1, 2)), warmup


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
    bearings and the SNR grid. The t and Gaussian ratios read the batch's
    beamformed energies interpolated at `psi_deg`; the detection ratio
    scores the batch's CFAR detections on the raw energies and ignores the
    SNR. A variant that whitens nothing drops any model it is given. A
    batch's entry is None while the whitener is warming up, and the filter
    then only predicts. The checks on `variant`, on the model's order and
    channel count and on the CFAR window's width run at the call, before the
    fields' generator starts.
    """
    spec = VARIANT_TABLE.get(variant)
    if spec is None:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if spec.model and model is None:
        raise ValueError(f"variant {variant!r} needs a noise model")
    if spec.model == "order0" and model.order != 0:
        raise ValueError(f"{variant} expects an order-0 noise model")
    model = model if spec.model else None
    _check_channels(dataset, model)
    grid = bearing_beamformer(dataset, cfg)
    if spec.ratio == "detections":
        check_cfar_window(cfg, grid.bearings_deg.size)
    return _pass_fields(spec.ratio, dataset, cfg, model, grid)


def _pass_fields(kind: str, dataset: Dataset, cfg: PipelineConfig, model: VarModel | None,
                 grid: BeamformGrid) -> Iterator[LikelihoodField | None]:
    """`make_likelihood`'s fields for the ratio `kind`. Detections come from a
    block's rows, which also train on the record's last `cfar_train_rows` rows
    before them. The ln L grid tables come `_TABLE_BLOCK` batches at a time,
    from one ratio call each, and live only until `birth_cdfs` makes CDFs."""
    bearings = grid.bearings_deg
    eta_grid = np.arange(cfg.filter_snr_lo_db, cfg.filter_snr_hi_db + 1e-9,
                         cfg.filter_eta_step_db)
    nu, n, m = cfg.tmodel_dof, dataset.n_per_batch, dataset.geometry.n_channels
    detections, gaussian = kind == "detections", kind == "gauss"

    def ratio(energy, z2, eta_db):
        eta = 10.0 ** (np.asarray(eta_db, dtype=float) / 10.0)
        return gauss_log_lr(energy, eta, n, m) if gaussian else t_log_lr(energy, z2, eta, nu, n, m)

    tail = np.empty((0, bearings.size))  # the CFAR training rows before the block
    for energies, z_norm_sq, warmup in _energy_blocks(dataset, grid, model):
        if detections:
            record = np.concatenate([tail, energies])
            found = cfar_detections(record, cfg, bearings, first=len(tail))
            tail = record[max(len(record) - cfg.cfar_train_rows, 0):]
            ratios = [lambda psi_deg, eta_db, dets=dets: detection_log_lr(dets, psi_deg, cfg)
                      for dets in found]
        else:
            energies, z_norm_sq = energies[warmup:], z_norm_sq[warmup:]
            slopes = np.diff(energies, axis=1) / np.diff(bearings)
            ratios = [lambda psi_deg, eta_db, row=row, row_slopes=row_slopes, z2=float(z2):
                          ratio(uniform_interp(psi_deg, bearings, row, row_slopes), z2, eta_db)
                      for row, row_slopes, z2 in zip(energies, slopes, z_norm_sq)]
        yield from [None] * warmup
        for sub in range(0, len(ratios), _TABLE_BLOCK):
            end = sub + _TABLE_BLOCK
            if detections:
                sets = found[sub:end]
                # +inf pads the shorter detection sets; it adds exactly zero to the sum
                padded = np.full((max(map(len, sets)), len(sets), 1), np.inf)
                for i, dets in enumerate(sets):
                    padded[:dets.size, i, 0] = dets
                table = np.broadcast_to(detection_log_lr(padded, bearings, cfg)[:, :, None],
                                        (len(sets), bearings.size, eta_grid.size))
            else:
                table = ratio(energies[sub:end, :, None], z_norm_sq[sub:end, None, None],
                              eta_grid)
            for loglr, cdf in zip(ratios[sub:end], birth_cdfs(table)):
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

    Every row must parse as CSV and hold one number per column, every value
    finite, data row i (from 0) `batch_index` i, q in [0, 1] and `confirmed`
    0 or 1; the ValueError otherwise names the file and the first bad row.
    """
    header, rows = None, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != _TRACK_COLUMNS:
                raise ValueError(f"{path}: not a track log (header {header})")
            rows.extend(filter(None, reader))  # the rows before a reader error stay
        except csv.Error as exc:
            where = f"data row {len(rows) + 1}" if header else "header"
            raise ValueError(f"{path}: {where} does not parse ({exc})") from None
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
    bad = (~np.isfinite(arr).all(axis=1) | (arr[:, 0] != np.arange(len(rows)))
           | (q < 0) | (q > 1) | ~np.isin(confirmed, (0, 1)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {i + 1} ({','.join(rows[i])}) needs finite "
                         f"values, batch_index {i}, q in [0, 1] and confirmed 0 or 1")
    return TrackLog(arr[:, 0].astype(int), arr[:, 1], arr[:, 2], arr[:, 3],
                    arr[:, 4], arr[:, 5], arr[:, 6].astype(bool))


def save_detections(rows: list[tuple[int, float]], path) -> None:
    """Write (batch_index, bearing_deg) detection pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("batch_index", "bearing_deg"))
        for k, b in rows:
            writer.writerow([int(k), f"{b:.6f}"])
