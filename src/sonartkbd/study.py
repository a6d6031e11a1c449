"""Simulation studies: default environment, calibration, Monte Carlo,
and `calibrated_study`, which runs calibration and then the paired study.

Everything here is deterministic in the master seed. The generator's ambient
model is learned once from a synthetic sea-noise recording (spatially white
coloured floor plus two directional interferers). The trackers never whiten
with the generator's parameters: they get models refitted on an observed
noise-only recording, as a deployment would after a calibration pass, which
matters because the observed stream carries the heavy-tailed batch scale.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .array import ArrayGeometry, delay_spectrum, steering_delays
from .config import PipelineConfig
from .evaluate import RunReport, make_run_report, median_detection_eta
from .noise import NoiseStream, VarModel, fit_var
from .pipeline import VARIANT_TABLE, VARIANTS, TrackLog, run_tracker, spawn_rng
from .sim import (Dataset, Scenario, channel_noise_power, generate_dataset,
                  simulate_batches)

# component keys for the documented seed-splitting scheme
SEED_SIMULATE, SEED_TRACK, SEED_CALIBRATE, SEED_AMBIENT = 0, 1, 2, 3

VAR_ORDER = 14  # of the generator model and of the trackers' models
AMBIENT_SEED = 101  # one synthetic sea recording shared by every study
AMBIENT_SECONDS = 60.0
OBSERVED_SECONDS = 120.0  # noise-only recording the trackers' models are fit to
MAX_CALIBRATION_STEPS = 10  # sweep steps past the configured setting

# the calibrated study of scripts/run_sim_study.py and acceptance criteria 06-08
MASTER_SEED = 42
TARGET_FREE_SEED = 777  # a separate seed for the target-free verification runs
N_RUNS = 20  # Monte-Carlo runs per variant, with target and target free
N_CAL_RUNS = 6  # target-free calibration datasets
N_WORKERS = min(2, os.cpu_count() or 1)  # processes for calibration and the runs


def default_geometry(cfg: PipelineConfig) -> ArrayGeometry:
    return ArrayGeometry.ula(cfg.array_elements, cfg.array_spacing_m,
                             cfg.array_speed_of_sound, cfg.array_sample_rate)


def synth_sea_recording(geom: ArrayGeometry, duration_s: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Synthetic noise-only recording with spatiotemporal structure.

    A coloured spatially white floor (AR(2) per channel) is overlaid with
    two broadband directional interferers (AR(1)-coloured sources steered
    across the array), giving the bearing-time record diffuse directional
    lumps rather than point tracks. Each source takes one forward FFT and
    is steered onto one channel at a time, so the transient memory is a few
    source-length arrays on top of the output.
    """
    n = int(duration_s * geom.sample_rate)
    n -= n % 2  # steering needs an even length
    m = geom.n_channels
    # floor: conjugate pole pair, radius 0.7 at +-55 degrees
    r, theta = 0.7, np.deg2rad(55.0)
    floor_den = [1.0, -2.0 * r * np.cos(theta), r * r]
    floor = _all_pole(floor_den, rng.standard_normal((n, m)))
    floor /= floor.std(axis=0, keepdims=True)
    for bearing, level, pole in ((-35.0, 0.55, 0.85), (22.0, 0.4, 0.6)):
        src = _all_pole([1.0, -pole], rng.standard_normal(n))
        src *= level / src.std()
        spec = np.fft.fft(src)
        for ch, tau in enumerate(steering_delays(geom, bearing)):
            floor[:, ch] += np.fft.ifft(delay_spectrum(tau, n, geom.sample_rate) * spec).real
    return floor


def _all_pole(den: list[float], x: np.ndarray) -> np.ndarray:
    """`x` filtered along axis 0 by 1/A(z) from rest, A(z) = sum_k den[k] z^-k with
    den[0] = 1, in blocks of 64 samples.

    Every block's response from rest is one product with the lower-triangular
    Toeplitz matrix of the impulse response; a loop then adds to each block
    the response to the q = len(den) - 1 outputs before it. The memory is the
    output and one block.
    """
    a = np.asarray(den[1:], dtype=float)
    q, n, block = a.size, len(x), 64
    # responses over one block to a unit impulse (column 0) and to each past
    # output y_{-1}, ..., y_{-q} set to 1 (columns 1..q), rows y_{-q}, ..., y_{63}
    resp = np.zeros((q + block, q + 1))
    resp[:q, 1:] = np.eye(q)[::-1]
    resp[q, 0] = 1.0
    for j in range(q, q + block):
        resp[j] -= a @ resp[j - q:j][::-1]
    impulse, carried = resp[q:, 0], resp[q:, 1:]
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    width, full = math.prod(x.shape[1:]), n - n % block
    cols, out = x.reshape(n, width), np.empty((n, width))
    np.matmul(toeplitz, cols[:full].reshape(-1, block, width),
              out=out[:full].reshape(-1, block, width))
    np.matmul(toeplitz[:n - full, :n - full], cols[full:], out=out[full:])
    past = np.zeros((q, width))  # the q outputs before the block, newest first
    for lo in range(0, n, block):
        y = out[lo:lo + block]
        y += carried[:len(y)] @ past
        past = y[::-1][:q]
    return out.reshape(x.shape)


def default_ambient_model(geom: ArrayGeometry) -> tuple[VarModel, VarModel]:
    """Fit the generation/whitening model and its order-0 (spatial) sibling.

    Both are least-squares fits to the same synthetic recording, mirroring
    a calibration pass on a noise-only recording. Deterministic.
    """
    rng = spawn_rng(AMBIENT_SEED, SEED_AMBIENT)
    rec = synth_sea_recording(geom, AMBIENT_SECONDS, rng)
    model = fit_var(rec, VAR_ORDER)
    model0 = fit_var(rec, 0)
    if model.spectral_radius() >= 1.0:
        raise RuntimeError("fitted ambient model is unstable; change the recording")
    return model, model0


def scenario_from_config(cfg: PipelineConfig, geom: ArrayGeometry,
                         ambient: VarModel) -> Scenario:
    """Build the straight-line scenario described by the config fields."""
    def point(bearing_deg, range_m):
        psi = np.deg2rad(bearing_deg)
        return geom.centroid + range_m * np.array([np.sin(psi), np.cos(psi)])

    start = point(cfg.scenario_start_bearing_deg, cfg.scenario_start_range_m)
    end = point(cfg.scenario_end_bearing_deg, cfg.scenario_end_range_m)
    return Scenario(geom, ambient, start, end, cfg)


def fit_observed_models(scenario: Scenario, master_seed: int) -> tuple[VarModel, VarModel]:
    """Fit the tracking models to an observed noise-only recording.

    The simulator rescales every batch by a fresh heavy-tail draw, so a
    fit to observed data absorbs the mean scale nu/(nu-2) into the
    innovation covariance. Whitening with the generator's own parameters
    instead would leave every batch looking hot on average and bias all
    the energy trackers toward confirmation on pure noise.
    """
    rng = spawn_rng(master_seed, SEED_AMBIENT)
    noise = NoiseStream(scenario.ambient, rng)
    power = channel_noise_power(scenario.ambient)
    n_batches = max(1, int(round(OBSERVED_SECONDS / scenario.batch_period)))
    rec = simulate_batches(scenario, np.zeros(n_batches), None, noise, rng, power)
    model = fit_var(rec, VAR_ORDER)
    model0 = fit_var(rec, 0)
    return model, model0


def models_for_variant(variant: str, model: VarModel, model0: VarModel) -> VarModel:
    return model0 if VARIANT_TABLE[variant].model == "order0" else model


@dataclass
class StudyRun:
    """Everything recorded for one Monte-Carlo run of one variant."""

    run: int
    variant: str
    track: TrackLog
    report: RunReport


def _scored_pass(dataset: Dataset, variant: str, cfg: PipelineConfig, model: VarModel,
                 model0: VarModel, lane: tuple) -> tuple[TrackLog, RunReport]:
    """Track `variant` over `dataset` on seed lane `lane` + (variant index,), then score it."""
    rng = spawn_rng(*lane, VARIANTS.index(variant))
    track = run_tracker(dataset, variant, cfg, models_for_variant(variant, model, model0),
                        rng)
    return track, make_run_report(track, dataset.truth, cfg)


def _map_jobs(fn, jobs: list, workers: int) -> list:
    """`fn` over `jobs` in order, fanned out over a fresh process pool when
    `workers` > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _one_run(args) -> list[StudyRun]:
    (run_idx, cfgs, geom, ambient, model, model0, master_seed, target_free) = args
    base_cfg = next(iter(cfgs.values()))
    scenario = scenario_from_config(base_cfg, geom, ambient)
    sim_rng = spawn_rng(master_seed, SEED_SIMULATE, run_idx)
    dataset = generate_dataset(scenario, sim_rng, target_free=target_free)
    lane = (master_seed, SEED_TRACK, run_idx)
    return [StudyRun(run_idx, variant, *_scored_pass(dataset, variant, cfg, model, model0, lane))
            for variant, cfg in cfgs.items()]


def run_study(cfgs: dict[str, PipelineConfig], geom: ArrayGeometry, ambient: VarModel,
              model: VarModel, model0: VarModel, n_runs: int, master_seed: int,
              target_free: bool = False, workers: int = 1) -> dict[str, list[StudyRun]]:
    """Monte-Carlo study over `n_runs` independent scenario realisations.

    `cfgs` maps variant name to its (possibly calibrated) config; every
    variant sees the same per-run dataset. Runs fan out over processes when
    `workers` > 1; results are ordered by run either way.
    """
    jobs = [(r, cfgs, geom, ambient, model, model0, master_seed, target_free)
            for r in range(n_runs)]
    nested = _map_jobs(_one_run, jobs, workers)
    out: dict[str, list[StudyRun]] = {v: [] for v in cfgs}
    for batch in nested:
        for item in batch:
            out[item.variant].append(item)
    return out


@dataclass
class CalibrationResult:
    """Chosen config plus the sweep trace (setting value, false-track count)."""

    config: PipelineConfig
    setting: float
    trace: list[tuple[float, int]]


def generate_calibration_data(cfg: PipelineConfig, geom: ArrayGeometry,
                              ambient: VarModel, n_runs: int,
                              master_seed: int) -> list[Dataset]:
    """Target-free datasets shared by every sweep candidate (and variant)."""
    scenario = scenario_from_config(cfg, geom, ambient)
    return [generate_dataset(scenario, spawn_rng(master_seed, SEED_CALIBRATE, r),
                             target_free=True)
            for r in range(n_runs)]


def _confirms(args) -> bool:
    """Whether one calibration pass makes a sustained (false) confirmation."""
    _, report = _scored_pass(*args)
    return report.first_confirm is not None


def _calibration_candidate(variant: str, cfg: PipelineConfig,
                           backoff_db: float) -> tuple[float, PipelineConfig]:
    if VARIANT_TABLE[variant].ratio == "detections":
        setting = cfg.clutter_rate * 10.0 ** (0.1 * backoff_db)
        return setting, replace(cfg, clutter_rate=setting)
    setting = cfg.filter_snr_lo_db + backoff_db
    return setting, replace(cfg,
                            filter_snr_lo_db=cfg.filter_snr_lo_db + backoff_db,
                            filter_snr_hi_db=cfg.filter_snr_hi_db + backoff_db)


def calibrate_variant(variant: str, cfg: PipelineConfig, datasets: list[Dataset],
                      model: VarModel, model0: VarModel, master_seed: int,
                      step_db: float = 2.0, margin_steps: int = 1,
                      workers: int = 1) -> CalibrationResult:
    """Back sensitivity off until target-free runs stay clean.

    Starting at the configured setting, each step desensitises by
    `step_db`: energy variants shift the SNR prior window up (claiming
    only stronger targets; the mean log likelihood ratio on noise falls
    quadratically with the claimed SNR while its spread only grows
    linearly, so higher windows random-walk past the confirmation
    threshold less, not more), and a detection variant raises the clutter
    rate lambda (each detection argues less). The first setting with zero
    sustained confirmations wins, plus `margin_steps` extra steps of
    slack against sampling error in the sweep datasets. Raises if no
    candidate within `MAX_CALIBRATION_STEPS` is clean, if `datasets` is
    empty (a sweep over no data would pass its first step on no evidence),
    or if `step_db` is not a finite number > 0 or `margin_steps` is
    negative, either of which would make the calibrated setting more
    sensitive than the configured one. Each step's passes, one per dataset,
    fan out over processes when `workers` > 1; every pass keeps its own
    seed lane, so the result does not depend on `workers`.
    """
    if not datasets:
        raise ValueError("calibration needs at least one target-free dataset")
    if not (np.isfinite(step_db) and step_db > 0):
        raise ValueError(f"step_db must be a finite number > 0, got {step_db!r}")
    if margin_steps < 0:
        raise ValueError(f"margin_steps must be >= 0, got {margin_steps!r}")
    trace: list[tuple[float, int]] = []
    clean_step: int | None = None
    for step in range(MAX_CALIBRATION_STEPS + 1):
        setting, candidate = _calibration_candidate(variant, cfg, step_db * step)
        jobs = [(ds, variant, candidate, model, model0,
                 (master_seed, SEED_CALIBRATE, i, step)) for i, ds in enumerate(datasets)]
        false_tracks = sum(_map_jobs(_confirms, jobs, workers))
        trace.append((setting, false_tracks))
        if false_tracks == 0:
            clean_step = step
            break
    if clean_step is None:
        raise RuntimeError(
            f"{variant}: no clean setting within {MAX_CALIBRATION_STEPS} steps, "
            f"trace {trace}")
    setting, candidate = _calibration_candidate(
        variant, cfg, step_db * (clean_step + margin_steps))
    return CalibrationResult(candidate, setting, trace)


def detection_summary(runs: list[StudyRun], free_runs: list[StudyRun]) -> dict:
    """One variant's median detection SNR/range and flips on its target runs,
    and its sustained confirmations (false tracks) on its target-free runs."""
    detected = [r for r in runs if r.report.first_confirm is not None]
    flips = [r.report.flips_after_detect for r in runs]
    return {
        "n_runs": len(runs),
        "n_detected": len(detected),
        "median_eta_db": median_detection_eta([r.report for r in runs]),
        "median_range_m": float(np.median([r.report.detection_range_m for r in detected]))
        if detected else None,
        "median_flips": float(np.median(flips)) if flips else None,
        "false_tracks": sum(r.report.first_confirm is not None for r in free_runs),
    }


@dataclass
class CalibratedStudy:
    """Per variant: its calibration, its paired runs and their summary."""

    calibrations: dict[str, CalibrationResult]
    with_target: dict[str, list[StudyRun]]
    target_free: dict[str, list[StudyRun]]
    summaries: dict[str, dict]


def calibrated_study(cfg: PipelineConfig, seed: int = MASTER_SEED,
                     free_seed: int = TARGET_FREE_SEED, n_runs: int = N_RUNS,
                     n_cal_runs: int = N_CAL_RUNS, workers: int = 1) -> CalibratedStudy:
    """Calibrate every variant on `n_cal_runs` target-free datasets, then score
    it on `n_runs` target runs from `seed` and `n_runs` target-free runs from
    `free_seed`, in the default environment built from `cfg`. Calibration
    passes and study runs both fan out over `workers` processes. Raises
    ValueError, before any work, if a count is below 1."""
    for name, value in (("n_runs", n_runs), ("n_cal_runs", n_cal_runs),
                        ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    geom = default_geometry(cfg)
    ambient, _ = default_ambient_model(geom)
    model, model0 = fit_observed_models(scenario_from_config(cfg, geom, ambient), seed)
    cal_sets = generate_calibration_data(cfg, geom, ambient, n_cal_runs, seed)
    calibrations = {v: calibrate_variant(v, cfg, cal_sets, model, model0, seed,
                                         workers=workers)
                    for v in VARIANTS}
    cfgs = {v: c.config for v, c in calibrations.items()}
    with_target = run_study(cfgs, geom, ambient, model, model0, n_runs, seed,
                            workers=workers)
    target_free = run_study(cfgs, geom, ambient, model, model0, n_runs, free_seed,
                            target_free=True, workers=workers)
    summaries = {v: detection_summary(with_target[v], target_free[v]) for v in VARIANTS}
    return CalibratedStudy(calibrations, with_target, target_free, summaries)
