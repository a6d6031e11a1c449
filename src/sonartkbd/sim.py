"""Scenario simulator and dataset persistence.

One scenario is a target running in a straight line at constant speed past
a hydrophone array sitting in correlated ambient noise. Batches are
synthesised back to front from the measurement model: a white source
batch is pushed through the per-channel fractional-delay steering for the
target's current bearing, VAR noise is streamed continuously underneath,
and every batch is scaled jointly by sqrt(nu / c_k) with one chi-square
draw c_k, which is what makes whole batches come out heavy tailed.

SNR follows range as eta_dB = -10 log10((r / r_ref)^kappa), i.e. 0 dB at
the reference range, falling with distance (18 dB down at 10 r_ref for the
default spreading exponent 1.8).

A dataset on disk is a directory:
    meta.json    parameters, geometry, seed, shapes
    samples.f32  row-major float32, (n_batches * N, M)
    truth.csv    batch_index, psi_deg, eta_db, range_m (absent if target free)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .array import ArrayGeometry, apply_steering, make_steering
from .config import PipelineConfig
from .noise import NoiseStream, VarModel


class ScenarioError(ValueError):
    """Raised for degenerate paths, durations or bearings, or a mismatched ambient model."""


class DatasetError(ValueError):
    """Raised on malformed dataset directories."""


@dataclass(frozen=True)
class Scenario:
    """Straight target run and noise environment for one simulation.

    start / end : (2,) points in metres; the target runs from start to end
    cfg : the config it was built from, whose `scenario_*` fields set the
        speed, the duration (0 means the whole run), the SNR law and the
        batch-scale dof, and whose `batch_samples` sets the batch length

    `study.scenario_from_config` builds it.
    """

    geometry: ArrayGeometry
    ambient: VarModel
    start: np.ndarray
    end: np.ndarray
    cfg: PipelineConfig

    def __post_init__(self):
        if self.ambient.n_channels != self.geometry.n_channels:
            raise ScenarioError(f"ambient model has {self.ambient.n_channels} channels, "
                                f"the array has {self.geometry.n_channels}")

    @property
    def path_seconds(self) -> float:
        seg = self.end - self.start
        return float(np.hypot(seg[0], seg[1]) / self.cfg.scenario_speed_mps)

    @property
    def batch_period(self) -> float:
        return self.cfg.batch_samples / self.geometry.sample_rate

    def n_batches(self) -> int:
        total = self.cfg.scenario_duration_s or self.path_seconds
        if total > self.path_seconds + 1e-9:
            raise ScenarioError(
                f"duration {total:.1f} s exceeds the {self.path_seconds:.1f} s traversal")
        n = int(np.floor(total / self.batch_period))
        if n == 0:
            raise ScenarioError(f"duration {total:.3g} s is shorter than one batch")
        return n


def bearing_range_from_xy(geom: ArrayGeometry, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bearing (deg from broadside) and range (m) of points relative to the array."""
    rel = np.atleast_2d(xy) - geom.centroid
    rng = np.hypot(rel[:, 0], rel[:, 1])
    if np.any(rng <= 0):
        raise ScenarioError("target collocated with the array, bearing undefined")
    psi = np.degrees(np.arctan2(rel[:, 0], rel[:, 1]))
    return psi, rng


def snr_db_at_range(range_m, ref_range: float, exponent: float):
    """eta_dB = -10 log10((r / r_ref)^exponent)."""
    return -10.0 * exponent * np.log10(np.asarray(range_m, dtype=float) / ref_range)


@dataclass(frozen=True)
class ScenarioTruth:
    """Per-batch ground truth arrays (batch centre times)."""

    batch_index: np.ndarray
    time_s: np.ndarray
    psi_deg: np.ndarray
    eta_db: np.ndarray
    range_m: np.ndarray


def truth_from_path(scenario: Scenario) -> ScenarioTruth:
    """Ground truth at every batch centre; the target stops at the end point."""
    cfg = scenario.cfg
    n = scenario.n_batches()
    times = (np.arange(n) + 0.5) * scenario.batch_period
    seg = scenario.end - scenario.start
    length = np.hypot(seg[0], seg[1])
    frac = np.minimum(times * cfg.scenario_speed_mps, length) / length
    xy = scenario.start + seg * frac[:, None]
    psi, rng = bearing_range_from_xy(scenario.geometry, xy)
    eta = snr_db_at_range(rng, cfg.scenario_ref_range_m, cfg.scenario_spread_exponent)
    return ScenarioTruth(np.arange(n), times, psi, eta, rng)


def channel_noise_power(model: VarModel) -> float:
    """Geometric-mean stationary channel power |E[e e^T]|^(1/M)."""
    cov = model.stationary_cov()
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ScenarioError("ambient stationary covariance is not positive definite")
    return float(np.exp(logdet / model.n_channels))


def generate_batch(scenario: Scenario, psi_deg: float, eta_db: float | None,
                   noise: NoiseStream, rng: np.random.Generator,
                   noise_power: float) -> np.ndarray:
    """One (N, M) batch: steered source plus streamed noise, jointly scaled.

    `eta_db=None` means no target in this batch. The chi-square scale draw
    happens for every batch either way so target-free data has the same
    heavy-tailed batch statistics.
    """
    n = scenario.cfg.batch_samples
    e = noise.take(n)
    if eta_db is not None:
        sigma_s = np.sqrt(10.0 ** (eta_db / 10.0) * noise_power)
        source = rng.normal(0.0, sigma_s, n)
        op = make_steering(scenario.geometry, psi_deg, n)
        batch = apply_steering(op, source) + e
    else:
        batch = e
    c = rng.chisquare(scenario.cfg.scenario_sim_dof)
    return np.sqrt(scenario.cfg.scenario_sim_dof / c) * batch


@dataclass
class Dataset:
    """In-memory dataset: contiguous samples plus optional ground truth."""

    geometry: ArrayGeometry
    samples: np.ndarray  # (n_batches * N, M)
    n_per_batch: int
    truth: ScenarioTruth | None = None
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_batches(self) -> int:
        return self.samples.shape[0] // self.n_per_batch


def generate_dataset(scenario: Scenario, rng: np.random.Generator,
                     target_free: bool = False, seed: int | None = None) -> Dataset:
    """Simulate the whole scenario into one Dataset.

    The noise stream runs continuously across batches; the target-free flag
    keeps the truth trajectory (for reference) but injects no signal.
    """
    cfg = scenario.cfg
    truth = truth_from_path(scenario)
    noise = NoiseStream(scenario.ambient, rng)
    power = channel_noise_power(scenario.ambient)
    n = cfg.batch_samples
    out = np.empty((truth.batch_index.size * n, scenario.geometry.n_channels))
    for k in truth.batch_index:
        eta = None if target_free else float(truth.eta_db[k])
        out[k * n:(k + 1) * n] = generate_batch(
            scenario, float(truth.psi_deg[k]), eta, noise, rng, power)
    meta = {
        "target_free": bool(target_free),
        "speed": cfg.scenario_speed_mps,
        "ref_range": cfg.scenario_ref_range_m,
        "spread_exponent": cfg.scenario_spread_exponent,
        "sim_dof": cfg.scenario_sim_dof,
        "waypoints": [scenario.start.tolist(), scenario.end.tolist()],
    }
    return Dataset(scenario.geometry, out, n, truth, seed, meta)


def save_dataset(ds: Dataset, path) -> None:
    """Write the directory layout documented in the module docstring."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": 1,
        "sample_rate": ds.geometry.sample_rate,
        "speed_of_sound": ds.geometry.speed_of_sound,
        "positions": ds.geometry.positions.tolist(),
        "n_per_batch": ds.n_per_batch,
        "n_batches": ds.n_batches,
        "seed": ds.seed,
        "extra": ds.meta,
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2))
    np.ascontiguousarray(ds.samples, dtype="<f4").tofile(root / "samples.f32")
    if ds.truth is not None:
        t = ds.truth
        rows = np.column_stack([t.batch_index, t.psi_deg, t.eta_db, t.range_m])
        header = "batch_index,psi_deg,eta_db,range_m"
        np.savetxt(root / "truth.csv", rows, delimiter=",", header=header,
                   comments="", fmt=["%d", "%.8f", "%.8f", "%.8f"])


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


# meta.json keys a dataset cannot be read without: key -> (test, requirement)
_META_KEYS = {
    "positions": (lambda v: isinstance(v, list), "a list of (x, y) pairs"),
    "speed_of_sound": (_is_number, "a number"),
    "sample_rate": (_is_number, "a number"),
    "n_per_batch": (lambda v: _is_number(v, int) and v > 0 and v % 2 == 0,
                    "a positive even integer"),
    "n_batches": (lambda v: _is_number(v, int) and v > 0, "a positive integer"),
}


def load_dataset(path) -> Dataset:
    """Read a dataset directory back; inverse of :func:`save_dataset`."""
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise DatasetError(f"{root}: missing meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as err:
        raise DatasetError(f"{meta_path}: invalid JSON ({err})") from err
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != 1:
        raise DatasetError(f"{root}: unsupported dataset format {version!r:.40}")
    for key, (valid, requirement) in _META_KEYS.items():
        if key not in meta:
            raise DatasetError(f"{meta_path}: missing key {key!r}")
        if not valid(meta[key]):
            raise DatasetError(f"{meta_path}: {key} must be {requirement}, "
                               f"got {meta[key]!r:.40}")
    seed = meta.get("seed")
    if not (seed is None or _is_number(seed, int)):
        raise DatasetError(f"{meta_path}: seed must be an integer or null, got {seed!r:.40}")
    try:
        geom = ArrayGeometry(np.asarray(meta["positions"], dtype=float),
                             meta["speed_of_sound"], meta["sample_rate"])
    except (ValueError, TypeError) as err:
        raise DatasetError(f"{meta_path}: {err}") from err
    raw = np.fromfile(root / "samples.f32", dtype="<f4")
    m = geom.n_channels
    n_rows = meta["n_batches"] * meta["n_per_batch"]
    if raw.size != n_rows * m:
        raise DatasetError(
            f"{root}: samples.f32 holds {raw.size} values, expected {n_rows * m}")
    finite = np.isfinite(raw)
    if not finite.all():
        bad = int(np.argmin(finite)) // (m * meta["n_per_batch"])
        raise DatasetError(f"{root / 'samples.f32'}: non-finite sample in batch {bad}")
    samples = raw.reshape(n_rows, m).astype(float)
    truth = None
    truth_path = root / "truth.csv"
    if truth_path.exists():
        cells = [s.split(",") for s in truth_path.read_text().splitlines()[1:] if s.strip()]
        if cells and len(cells[0]) != 4 and all(len(c) == len(cells[0]) for c in cells):
            raise DatasetError(f"{truth_path}: expected 4 columns (batch_index, psi_deg, "
                               f"eta_db, range_m), found {len(cells[0])}")
        rows = np.empty((len(cells), 4))
        for i, row in enumerate(cells):
            try:  # [] makes a short or long row fail; a single value would broadcast
                rows[i] = [float(v) for v in row] if len(row) == 4 else []
            except ValueError:
                raise DatasetError(f"{truth_path}: every data row needs 4 numbers (data row "
                                   f"{i + 1} reads {','.join(row)!r:.60})") from None
        if rows.shape[0] != meta["n_batches"]:
            raise DatasetError(f"{truth_path}: row count does not match n_batches")
        bad = (~np.isfinite(rows).all(axis=1) | (rows[:, 0] != np.arange(rows.shape[0]))
               | (rows[:, 3] <= 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise DatasetError(f"{truth_path}: data row {i + 1} needs finite values, "
                               f"batch_index {i} and range_m > 0")
        outside = np.abs(rows[:, 1]) > 90.0
        if outside.any():
            i = int(np.argmax(outside))
            raise DatasetError(f"{truth_path}: data row {i + 1} has psi_deg {rows[i, 1]:g}, "
                               f"outside [-90, 90]")
        times = (rows[:, 0] + 0.5) * meta["n_per_batch"] / geom.sample_rate
        truth = ScenarioTruth(rows[:, 0].astype(int), times, rows[:, 1],
                              rows[:, 2], rows[:, 3])
    return Dataset(geom, samples, meta["n_per_batch"], truth, seed,
                   meta.get("extra", {}))
