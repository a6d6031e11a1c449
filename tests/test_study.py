"""Monte-Carlo study engine: results do not depend on how runs are spread,
and `calibrated_study` is exactly the calibrate-then-study protocol."""

import importlib.util
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from sonartkbd import study
from sonartkbd.array import ArrayGeometry, make_steering
from sonartkbd.config import default_config
from sonartkbd.pipeline import VARIANTS, TrackLog
from sonartkbd.study import (calibrate_variant, calibrated_study, default_ambient_model,
                             default_geometry, detection_summary, fit_observed_models,
                             generate_calibration_data, run_study, scenario_from_config)


def short_config():
    """The sim profile on a 100-batch scenario with few particles."""
    return replace(default_config("sim"), scenario_duration_s=17.1,
                   filter_n_persist=400, filter_n_birth=100)


def assert_same_logs(one: dict, two: dict):
    for variant in VARIANTS:
        assert [r.run for r in one[variant]] == [r.run for r in two[variant]]
        for a, b in zip(one[variant], two[variant]):
            assert a.track.batch_index.size == 100
            for field in fields(TrackLog):
                assert np.array_equal(getattr(a.track, field.name),
                                      getattr(b.track, field.name)), (variant, field.name)


def test_worker_count_does_not_change_track_logs():
    """Two worker processes give the same logs as one, field for field, bit for bit."""
    cfg = short_config()
    geom = default_geometry(cfg)
    ambient, ambient0 = default_ambient_model(geom)
    cfgs = dict.fromkeys(VARIANTS, cfg)
    serial, pooled = (run_study(cfgs, geom, ambient, ambient, ambient0, n_runs=2,
                                master_seed=5, workers=workers) for workers in (1, 2))
    for variant in VARIANTS:
        assert [r.run for r in pooled[variant]] == [0, 1]
    assert_same_logs(serial, pooled)


def test_calibrated_study_equals_the_hand_composed_protocol():
    """The engine draws every random stream exactly as the steps run one by one."""
    # VARIANTS.index picks each pass's seed lane, so this order is part of every study's streams
    assert VARIANTS == ("tvar", "tvar0", "gvar", "cfar")
    cfg = short_config()
    got = calibrated_study(cfg, n_runs=1, n_cal_runs=1)

    seed, free_seed = study.MASTER_SEED, study.TARGET_FREE_SEED
    geom = default_geometry(cfg)
    ambient, _ = default_ambient_model(geom)
    model, model0 = fit_observed_models(scenario_from_config(cfg, geom, ambient), seed)
    cal_sets = generate_calibration_data(cfg, geom, ambient, 1, seed)
    cfgs = {}
    for variant in VARIANTS:
        want = calibrate_variant(variant, cfg, cal_sets, model, model0, seed)
        assert got.calibrations[variant] == want
        cfgs[variant] = want.config
    with_target = run_study(cfgs, geom, ambient, model, model0, 1, seed)
    target_free = run_study(cfgs, geom, ambient, model, model0, 1, free_seed,
                            target_free=True)
    assert_same_logs(got.with_target, with_target)
    assert_same_logs(got.target_free, target_free)
    for variant in VARIANTS:
        assert got.summaries[variant] == detection_summary(with_target[variant],
                                                           target_free[variant])


def test_worker_count_does_not_change_calibration():
    """Each sweep pass keeps its seed lane, so two workers sweep as one does.

    The touchy cfar setting makes the sweep take several steps with mixed
    false-track counts (3, 2, 2, 1, ... 0 over the three datasets)."""
    cfg = short_config()
    geom = default_geometry(cfg)
    ambient, ambient0 = default_ambient_model(geom)
    cal_sets = generate_calibration_data(cfg, geom, ambient, 3, 5)
    touchy = replace(cfg, filter_confirm_threshold=0.1, eval_min_confirm_run=1,
                     clutter_rate=0.01)
    for variant, c in (("tvar", cfg), ("cfar", touchy)):
        serial, pooled = (calibrate_variant(variant, c, cal_sets, ambient, ambient0, 5,
                                            workers=workers) for workers in (1, 2))
        assert pooled.trace == serial.trace and pooled.config == serial.config
    assert len(serial.trace) > 2 and len({n for _, n in serial.trace}) > 2


@pytest.mark.parametrize("den, shape", [([1.0, -2.0 * 0.7 * np.cos(np.deg2rad(55.0)), 0.49],
                                          (6000, 8)),
                                         ([1.0, -0.85], (6000,))], ids=["floor", "source"])
def test_all_pole_filter_matches_lfilter(den, shape):
    """The banded solve is the recursion of `lfilter` to rounding."""
    x = np.random.default_rng(4).standard_normal(shape)
    want = lfilter([1.0], den, x, axis=0)
    got = study._all_pole(den, x)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def whole_array_sea_recording(geom, duration_s, rng):
    """`synth_sea_recording` as it steered each source through whole (M, N)
    arrays: one `make_steering` operator and the FFT pair of `apply_steering`."""
    n = int(duration_s * geom.sample_rate)
    n -= n % 2
    r, theta = 0.7, np.deg2rad(55.0)
    floor = study._all_pole([1.0, -2.0 * r * np.cos(theta), r * r],
                            rng.standard_normal((n, geom.n_channels)))
    floor /= floor.std(axis=0, keepdims=True)
    out = floor
    for bearing, level, pole in ((-35.0, 0.55, 0.85), (22.0, 0.4, 0.6)):
        src = study._all_pole([1.0, -pole], rng.standard_normal(n))
        src *= level / src.std()
        op = make_steering(geom, bearing, n)
        out = out + np.fft.ifft(op * np.fft.fft(src), axis=1).real.T
    return out


@pytest.mark.parametrize("elements", [8, 4])
@pytest.mark.parametrize("duration_s", [20.0, 60.0])
def test_sea_recording_steered_per_channel_equals_whole_array_steering(elements, duration_s):
    geom = ArrayGeometry.ula(elements, 0.93, 1500.0, 375.0)
    got = study.synth_sea_recording(geom, duration_s, np.random.default_rng(elements))
    want = whole_array_sea_recording(geom, duration_s, np.random.default_rng(elements))
    assert got.shape == want.shape == (int(duration_s * 375.0), elements)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("duration_s", [20.0, study.AMBIENT_SECONDS])
def test_sea_recording_memory_is_a_few_outputs(duration_s):
    """On the study array the traced peak stays within 4x the recording's
    bytes; steering through whole (M, N) arrays read 8.4x."""
    geom = default_geometry(default_config("sim"))
    tracemalloc.start()
    try:
        rec = study.synth_sea_recording(geom, duration_s, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * rec.nbytes, peak / rec.nbytes


def test_calibration_refuses_no_datasets():
    """A sweep over no data would call its first setting clean."""
    with pytest.raises(ValueError, match="at least one"):
        calibrate_variant("tvar", default_config("sim"), [], None, None, 0)


def load_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_sim_study.py"
    spec = importlib.util.spec_from_file_location("run_sim_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("option, name", [("--runs", "n_runs"), ("--cal-runs", "n_cal_runs"),
                                          ("--workers", "workers")])
def test_study_script_refuses_a_count_below_one(option, name, monkeypatch, capsys):
    """One error line and exit 1, before the environment is even built."""
    def no_work(*args):
        raise AssertionError("the study started")
    monkeypatch.setattr(study, "default_ambient_model", no_work)
    assert load_script().main([option, "0"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {name} must be >= 1, got 0"]
