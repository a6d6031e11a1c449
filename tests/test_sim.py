"""Scenario simulator: geometry mapping, SNR law, batch scaling, file format."""

import re
from dataclasses import replace

import numpy as np
import pytest

from sonartkbd.array import ArrayGeometry
from sonartkbd.config import ConfigError, default_config
from sonartkbd.noise import NoiseStream, VarModel, fit_var
from sonartkbd.sim import (Dataset, DatasetError, ScenarioError,
                           bearing_range_from_xy, channel_noise_power,
                           generate_batch, generate_dataset, load_dataset,
                           save_dataset, snr_db_at_range, truth_from_path)
from sonartkbd.study import default_geometry, scenario_from_config


def white_model(m=4, scale=1.0):
    return VarModel(np.zeros((0, m, m)), scale * np.eye(m))


def straight_scenario(ambient=None, **kw):
    """A 1000 m -> 200 m broadside run at 10 m/s past a 4-element ULA; `kw`
    replaces sim config fields."""
    cfg = replace(default_config("sim"), array_elements=4, scenario_start_bearing_deg=0.0,
                  scenario_start_range_m=1000.0, scenario_end_bearing_deg=0.0, **kw)
    geom = default_geometry(cfg)
    return scenario_from_config(cfg, geom, ambient or white_model(geom.n_channels))


def test_snr_map_frozen_values():
    assert snr_db_at_range(2000.0, 200.0, 1.8) == pytest.approx(-18.0, abs=1e-12)
    assert snr_db_at_range(300.0, 200.0, 1.8) == pytest.approx(
        -3.1696426630022625, abs=1e-12)
    assert snr_db_at_range(200.0, 200.0, 1.8) == pytest.approx(0.0, abs=1e-12)


def test_bearing_range_round_trip():
    geom = ArrayGeometry.ula(4, 0.93, 1500.0, 375.0)
    for psi, r in [(0.0, 500.0), (-50.0, 2000.0), (50.0, 300.0), (89.0, 120.0)]:
        xy = geom.centroid + r * np.array([np.sin(np.deg2rad(psi)),
                                           np.cos(np.deg2rad(psi))])
        psi_hat, r_hat = bearing_range_from_xy(geom, xy)
        assert psi_hat[0] == pytest.approx(psi, abs=1e-9)
        assert r_hat[0] == pytest.approx(r, rel=1e-12)


def test_bearing_undefined_at_array():
    geom = ArrayGeometry.ula(4, 0.93, 1500.0, 375.0)
    with pytest.raises(ScenarioError):
        bearing_range_from_xy(geom, geom.centroid[None, :])


def test_truth_linear_closing_run():
    sc = straight_scenario()
    truth = truth_from_path(sc)
    assert truth.batch_index.size == sc.n_batches()
    np.testing.assert_allclose(truth.psi_deg, 0.0, atol=1e-9)
    np.testing.assert_allclose(truth.range_m, 1000.0 - 10.0 * truth.time_s, rtol=1e-12)
    expected_eta = snr_db_at_range(truth.range_m, 200.0, 1.8)
    np.testing.assert_allclose(truth.eta_db, expected_eta, rtol=1e-12)


def test_duration_beyond_path_rejected():
    sc = straight_scenario(scenario_duration_s=1000.0)
    with pytest.raises(ScenarioError):
        sc.n_batches()


def test_scenario_validation():
    with pytest.raises(ScenarioError, match="ambient model has 3 channels, the array has 4"):
        straight_scenario(ambient=white_model(3))
    # speed, tail dof and batch length are checked once, where they are set: in the config
    for bad in (dict(scenario_speed_mps=0.0), dict(scenario_sim_dof=2.0),
                dict(batch_samples=63)):
        with pytest.raises(ConfigError):
            replace(default_config("sim"), **bad)


def test_sim_profile_batch_count():
    cfg = default_config("sim")
    geom = default_geometry(cfg)
    sc = scenario_from_config(cfg, geom, white_model(geom.n_channels))
    assert sc.n_batches() == 1197


def test_channel_noise_power_is_geometric_mean_det():
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    model = VarModel(np.zeros((0, 2, 2)), cov)
    expected = np.linalg.det(cov) ** 0.5
    assert channel_noise_power(model) == pytest.approx(expected, rel=1e-12)


def test_batch_scale_inflates_covariance_by_dof_ratio():
    """Per-batch chi-square scaling lifts the observed power by nu/(nu-2)."""
    nu = 12.0
    sc = straight_scenario(scenario_sim_dof=nu)
    rng = np.random.default_rng(2024)
    noise = NoiseStream(sc.ambient, rng)
    power = channel_noise_power(sc.ambient)
    k, n, m = 2000, sc.cfg.batch_samples, sc.geometry.n_channels
    rows = np.empty((k * n, m))
    for i in range(k):
        rows[i * n:(i + 1) * n] = generate_batch(sc, 0.0, None, noise, rng,
                                                 power)
    fitted = fit_var(rows, 0)
    ratio = np.trace(fitted.noise_cov) / np.trace(sc.ambient.noise_cov)
    assert ratio == pytest.approx(nu / (nu - 2.0), rel=0.05)


def test_generated_target_raises_channel_power():
    sc = straight_scenario()
    rng = np.random.default_rng(7)
    noise = NoiseStream(sc.ambient, rng)
    power = channel_noise_power(sc.ambient)
    k = 400
    on = np.empty(k)
    off = np.empty(k)
    for i in range(k):
        loud = generate_batch(sc, 10.0, 10.0, noise, rng, power)
        quiet = generate_batch(sc, 10.0, None, noise, rng, power)
        on[i] = np.mean(loud ** 2)
        off[i] = np.mean(quiet ** 2)
    # eta = 10 dB puts ten units of source power on top of one of noise,
    # and the common scale draw has mean nu/(nu-2)
    inflation = sc.cfg.scenario_sim_dof / (sc.cfg.scenario_sim_dof - 2.0)
    assert on.mean() == pytest.approx(11.0 * inflation, rel=0.15)
    assert off.mean() == pytest.approx(1.0 * inflation, rel=0.15)


def test_dataset_round_trip(tmp_path):
    sc = straight_scenario(scenario_duration_s=20.0)
    rng = np.random.default_rng(42)
    ds = generate_dataset(sc, rng, seed=42)
    save_dataset(ds, tmp_path / "run")
    back = load_dataset(tmp_path / "run")
    assert back.n_per_batch == ds.n_per_batch
    assert back.seed == 42
    assert back.meta["target_free"] is False
    np.testing.assert_allclose(back.samples,
                               ds.samples.astype(np.float32), rtol=0, atol=0)
    np.testing.assert_array_equal(back.truth.batch_index, ds.truth.batch_index)
    np.testing.assert_allclose(back.truth.psi_deg, ds.truth.psi_deg, atol=1e-7)
    np.testing.assert_allclose(back.truth.range_m, ds.truth.range_m, rtol=1e-7)
    np.testing.assert_array_equal(back.geometry.positions, ds.geometry.positions)


def test_dataset_meta_records_the_run_from_the_config():
    sc = straight_scenario(scenario_speed_mps=7.5, scenario_duration_s=10.0,
                           scenario_ref_range_m=150.0, scenario_spread_exponent=2.0,
                           scenario_sim_dof=9.0)
    ds = generate_dataset(sc, np.random.default_rng(3))
    centre = sc.geometry.centroid
    assert ds.meta == {
        "target_free": False,
        "speed": 7.5,
        "ref_range": 150.0,
        "spread_exponent": 2.0,
        "sim_dof": 9.0,
        "waypoints": [(centre + [0.0, 1000.0]).tolist(), (centre + [0.0, 200.0]).tolist()],
    }
    assert ds.meta["waypoints"] == [sc.start.tolist(), sc.end.tolist()]


def test_target_free_dataset_keeps_truth_for_reference():
    sc = straight_scenario(scenario_duration_s=10.0)
    ds = generate_dataset(sc, np.random.default_rng(4), target_free=True)
    assert ds.meta["target_free"] is True
    assert ds.truth is not None


def test_load_rejects_truncated_samples(tmp_path):
    sc = straight_scenario(scenario_duration_s=10.0)
    ds = generate_dataset(sc, np.random.default_rng(5))
    save_dataset(ds, tmp_path / "run")
    raw = (tmp_path / "run" / "samples.f32").read_bytes()
    (tmp_path / "run" / "samples.f32").write_bytes(raw[:-64])
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "run")


def test_load_rejects_bad_meta(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "absent")
    run = tmp_path / "run"
    run.mkdir()
    (run / "meta.json").write_text("{not json")
    with pytest.raises(DatasetError):
        load_dataset(run)
    (run / "meta.json").write_text('{"format_version": 99}')
    with pytest.raises(DatasetError):
        load_dataset(run)


@pytest.mark.parametrize("column, value, row", [
    ("psi_deg", "nan", 4),
    ("eta_db", "inf", 0),
    ("range_m", "-inf", 7),
    ("batch_index", "nan", 2),
    ("batch_index", "4.5", 4),
    ("batch_index", "9", 8),
    ("range_m", "0", 5),
    ("range_m", "-3.0", 1),
])
def test_load_rejects_bad_truth_values(tmp_path, column, value, row):
    """A non-finite value, a batch_index other than the row's index or a
    range_m <= 0 names the file and the data row."""
    ds = generate_dataset(straight_scenario(scenario_duration_s=2.0), np.random.default_rng(5))
    save_dataset(ds, tmp_path / "run")
    path = tmp_path / "run" / "truth.csv"
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: data row {row + 1} needs finite values, batch_index {row} and range_m > 0"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(tmp_path / "run")


@pytest.mark.parametrize("value, row", [("500", 3), ("-90.5", 0), ("90.000001", 7)])
def test_load_rejects_truth_bearings_off_the_half_plane(tmp_path, value, row):
    """A psi_deg outside [-90, 90] names the file, the data row and the bearing."""
    ds = generate_dataset(straight_scenario(scenario_duration_s=2.0), np.random.default_rng(5))
    save_dataset(ds, tmp_path / "run")
    path = tmp_path / "run" / "truth.csv"
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index("psi_deg")] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: data row {row + 1} has psi_deg {float(value):g}, outside [-90, 90]"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(tmp_path / "run")


@pytest.mark.parametrize("edit", [lambda cells: cells[:2] + ["abc"] + cells[3:],
                                  lambda cells: cells[:3],
                                  lambda cells: cells + ["1.0"]],
                         ids=["not-a-number", "short-row", "long-row"])
def test_load_rejects_unreadable_truth_rows(tmp_path, edit):
    """A row that is not 4 numbers names the file and its 1-based data row."""
    ds = generate_dataset(straight_scenario(scenario_duration_s=2.0), np.random.default_rng(5))
    save_dataset(ds, tmp_path / "run")
    path = tmp_path / "run" / "truth.csv"
    lines = path.read_text().splitlines()
    lines[3] = ",".join(edit(lines[3].split(",")))
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: every data row needs 4 numbers (data row 3 reads '{lines[3]}')"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(tmp_path / "run")
