"""Config schema strictness plus an end-to-end CLI pass in a temp dir."""

import configparser
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import sonartkbd
from sonartkbd.array import ArrayGeometry
from sonartkbd.cli import main
from sonartkbd.config import (_DOMAINS, CONFIG_VERSION, ConfigError, PipelineConfig,
                              default_config, load_config, save_config)
from sonartkbd.noise import VarModel, load_var, save_var
from sonartkbd.sim import Dataset, load_dataset, save_dataset
from sonartkbd.study import calibrate_variant


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Simulated dataset + fitted model shared by the CLI tests below."""
    root = tmp_path_factory.mktemp("cli")
    cfg = replace(default_config("sim"), scenario_duration_s=8.0,
                  filter_n_persist=400, filter_n_birth=100)
    save_config(cfg, root / "config.ini")
    rc = main(["simulate", "--config", str(root / "config.ini"),
               "--seed", "11", "--out", str(root / "ds")])
    assert rc == 0
    rc = main(["fit-noise", "--data", str(root / "ds"),
               "--order", "6", "--out", str(root / "model.var")])
    assert rc == 0
    return root


def test_profiles_differ_where_documented():
    real = default_config("real")
    sim = default_config("sim")
    assert real.meta_profile == "real" and sim.meta_profile == "sim"
    assert (real.cfar_guard_cells, real.cfar_train_cells,
            real.cfar_train_rows) == (2, 16, 10)
    assert (sim.cfar_guard_cells, sim.cfar_train_cells,
            sim.cfar_train_rows) == (30, 55, 0)
    assert real.tmodel_dof == 3.0 and sim.tmodel_dof == 12.0
    assert sim.scenario_speed_mps > real.scenario_speed_mps
    # the shared physics does not move between profiles
    assert real.array_elements == sim.array_elements
    assert real.scenario_spread_exponent == sim.scenario_spread_exponent
    with pytest.raises(ConfigError):
        default_config("marine")


def test_config_round_trip_exact(tmp_path):
    cfg = replace(default_config("sim"), filter_prob_birth=3.25e-9,
                  scenario_duration_s=123.456)
    save_config(cfg, tmp_path / "c.ini")
    assert load_config(tmp_path / "c.ini") == cfg


def test_config_rejects_unknown_section(tmp_path):
    cfg = default_config("sim")
    save_config(cfg, tmp_path / "c.ini")
    text = (tmp_path / "c.ini").read_text() + "\n[sonar]\nx = 1\n"
    (tmp_path / "c.ini").write_text(text)
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(tmp_path / "c.ini")


def test_config_rejects_unknown_key(tmp_path):
    save_config(default_config("sim"), tmp_path / "c.ini")
    text = (tmp_path / "c.ini").read_text().replace(
        "[array]", "[array]\nshape = ring")
    (tmp_path / "c.ini").write_text(text)
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(tmp_path / "c.ini")


def test_config_rejects_missing_or_wrong_version(tmp_path):
    save_config(default_config("sim"), tmp_path / "c.ini")
    text = (tmp_path / "c.ini").read_text()
    current = f"config_version = {CONFIG_VERSION}"
    assert current in text
    (tmp_path / "c.ini").write_text(text.replace(current, "config_version = 99"))
    with pytest.raises(ConfigError, match="unsupported config_version"):
        load_config(tmp_path / "c.ini")
    (tmp_path / "c.ini").write_text("[meta]\nprofile = sim\n")
    with pytest.raises(ConfigError, match="config_version"):
        load_config(tmp_path / "c.ini")


def test_every_config_field_is_read():
    """A config value nothing reads is a setting that silently does nothing."""
    src = Path(sonartkbd.__file__).resolve().parent
    code = "\n".join(p.read_text() for p in src.glob("*.py"))
    unread = [f.name for f in fields(PipelineConfig)
              if not re.search(rf"\.{f.name}\b", code)]
    assert unread == []


def test_every_config_field_has_one_domain():
    """A field missing from the domain table would go unchecked."""
    named = [name for _, _, names in _DOMAINS for name in names]
    assert sorted(named) == sorted(f.name for f in fields(PipelineConfig))


def test_config_rejects_unparseable_value(tmp_path):
    save_config(default_config("sim"), tmp_path / "c.ini")
    text = (tmp_path / "c.ini").read_text().replace("elements = 8",
                                                    "elements = eight")
    (tmp_path / "c.ini").write_text(text)
    with pytest.raises(ConfigError, match="bad value"):
        load_config(tmp_path / "c.ini")


def test_simulate_layout(workdir):
    ds = workdir / "ds"
    for name in ("meta.json", "samples.f32", "truth.csv", "config.ini"):
        assert (ds / name).exists()


def test_track_output_is_deterministic(workdir):
    args = ["track", "--config", str(workdir / "config.ini"),
            "--data", str(workdir / "ds"), "--variant", "tvar",
            "--model", str(workdir / "model.var"), "--seed", "5"]
    assert main(args + ["--out", str(workdir / "a.csv")]) == 0
    assert main(args + ["--out", str(workdir / "b.csv")]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
    other = ["track", "--config", str(workdir / "config.ini"),
             "--data", str(workdir / "ds"), "--variant", "tvar",
             "--model", str(workdir / "model.var"), "--seed", "6",
             "--out", str(workdir / "c.csv")]
    assert main(other) == 0
    assert (workdir / "a.csv").read_bytes() != (workdir / "c.csv").read_bytes()


def test_eval_writes_metrics(workdir):
    rc = main(["eval", "--config", str(workdir / "config.ini"),
               "--truth", str(workdir / "ds"),
               "--tracks", str(workdir / "a.csv"), str(workdir / "c.csv"),
               "--out", str(workdir / "metrics.csv"),
               "--aggregate", str(workdir / "agg.csv")])
    assert rc == 0
    lines = (workdir / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("track,first_confirm_batch")
    assert len(lines) == 3
    agg = np.loadtxt(workdir / "agg.csv", delimiter=",", skiprows=1)
    n_batches = int((workdir / "a.csv").read_text().count("\n")) - 1
    assert agg.shape == (n_batches, 4)


def test_btr_and_detect_smoke(workdir):
    rc = main(["btr", "--config", str(workdir / "config.ini"),
               "--data", str(workdir / "ds"), "--model",
               str(workdir / "model.var"), "--out", str(workdir / "btr.csv")])
    assert rc == 0
    rows = np.loadtxt(workdir / "btr.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 182  # batch index + 181 bearings
    assert rows[:, 1:].max() <= 1.0 + 1e-9
    rc = main(["detect", "--config", str(workdir / "config.ini"),
               "--data", str(workdir / "ds"), "--out", str(workdir / "det.csv")])
    assert rc == 0
    assert (workdir / "det.csv").read_text().splitlines()[0] == \
        "batch_index,bearing_deg"


def test_btr_peak_is_exactly_one(workdir):
    args = ["btr", "--config", str(workdir / "config.ini"), "--data", str(workdir / "ds")]
    assert main(args + ["--out", str(workdir / "btr_norm.csv")]) == 0
    assert main(args + ["--raw", "--out", str(workdir / "btr_raw.csv")]) == 0
    normed = np.loadtxt(workdir / "btr_norm.csv", delimiter=",", skiprows=1)[:, 1:]
    raw = np.loadtxt(workdir / "btr_raw.csv", delimiter=",", skiprows=1)[:, 1:]
    assert normed.shape == raw.shape
    assert normed.max() == 1.0
    assert (normed >= 0).all()
    np.testing.assert_allclose(normed, raw / raw.max(), rtol=1e-7)


def test_btr_all_zero_record_stays_zero(tmp_path):
    geom = ArrayGeometry.ula(8, 0.93, 1500.0, 375.0)
    save_dataset(Dataset(geom, np.zeros((3 * 64, 8)), 64), tmp_path / "ds")
    assert main(["btr", "--data", str(tmp_path / "ds"),
                 "--out", str(tmp_path / "btr.csv")]) == 0
    rows = np.loadtxt(tmp_path / "btr.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 182)
    np.testing.assert_array_equal(rows[:, 1:], 0.0)  # zero, not NaN


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_is_rejected(workdir, tmp_path, capsys, bad):
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    raw = np.fromfile(ds / "samples.f32", dtype="<f4")
    raw[3 * 64 * 8 + 5] = bad  # batch 3: 64 samples of 8 channels per batch
    raw.tofile(ds / "samples.f32")
    assert main(["track", "--config", str(workdir / "config.ini"), "--data", str(ds),
                 "--variant", "cfar", "--out", str(tmp_path / "t.csv")]) == 1
    line = _one_error_line(capsys)
    assert "samples.f32" in line and "batch 3" in line
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", [["track", "--variant", "cfar"], ["detect"]],
                         ids=["track", "detect"])
def test_cfar_window_wider_than_grid_is_rejected(workdir, tmp_path, capsys, command):
    cfg = replace(load_config(workdir / "config.ini"), grid_bearing_step_deg=2.0)
    save_config(cfg, tmp_path / "coarse.ini")
    assert main([command[0], "--config", str(tmp_path / "coarse.ini"),
                 "--data", str(workdir / "ds"), *command[1:],
                 "--out", str(tmp_path / "out.csv")]) == 1
    line = _one_error_line(capsys)
    assert "171 cells" in line and "91-cell" in line


def test_scenario_shorter_than_one_batch_is_rejected(tmp_path, capsys):
    """A scenario with no whole batch writes no dataset instead of an empty one."""
    save_config(replace(default_config("sim"), scenario_duration_s=0.1), tmp_path / "c.ini")
    assert main(["simulate", "--config", str(tmp_path / "c.ini"),
                 "--out", str(tmp_path / "ds")]) == 1
    assert "shorter than one" in _one_error_line(capsys)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("flags", [[], ["--target-free"]], ids=["target", "target-free"])
def test_ambient_with_other_channel_count_is_rejected(tmp_path, capsys, flags):
    """A 4-channel ambient model on the 8-element sim array names both counts."""
    save_var(VarModel(np.zeros((1, 4, 4)), np.eye(4)), tmp_path / "m4.var")
    assert main(["simulate", "--ambient", str(tmp_path / "m4.var"), *flags,
                 "--out", str(tmp_path / "ds")]) == 1
    assert "ambient model has 4 channels, the array has 8" in _one_error_line(capsys)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("command", [["track", "--variant", "tvar"], ["btr"]],
                         ids=["track", "btr"])
def test_model_with_other_channel_count_is_rejected(workdir, tmp_path, capsys, command):
    """A 4-channel noise model on the 8-channel dataset names both counts."""
    save_var(VarModel(np.zeros((1, 4, 4)), np.eye(4)), tmp_path / "m4.var")
    assert main([command[0], "--config", str(workdir / "config.ini"),
                 "--data", str(workdir / "ds"), *command[1:],
                 "--model", str(tmp_path / "m4.var"), "--out", str(tmp_path / "out.csv")]) == 1
    assert "noise model has 4 channels, the dataset has 8" in _one_error_line(capsys)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("column, value", [("q", "nan"), ("psi_est_deg", "nan"),
                                           ("q", "-0.5"), ("q", "inf"), ("confirmed", "2"),
                                           ("batch_index", "1.5"), ("batch_index", "7")])
def test_eval_rejects_a_bad_track_log(workdir, tmp_path, capsys, column, value):
    """A NaN, a q outside [0, 1], a confirmed flag other than 0/1 or a
    batch_index other than the row's index stops eval, which scores a log by
    row position."""
    rc = main(["track", "--config", str(workdir / "config.ini"), "--data",
               str(workdir / "ds"), "--variant", "cfar", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    col = lines[0].split(",").index(column)
    row = lines[3].split(",")
    row[-1] = "1"  # a confirmed row, so eval would score its bearing
    row[col] = value
    lines[3] = ",".join(row)
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(workdir / "config.ini"), "--truth",
                 str(workdir / "ds"), "--tracks", str(tmp_path / "t.csv"),
                 "--out", str(tmp_path / "m.csv"), "--aggregate", str(tmp_path / "a.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(tmp_path / "t.csv") in line and "data row 3" in line
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("edit", [
    lambda row: ["abc"] + row[1:],
    lambda row: row[:-1],
], ids=["non-number", "missing-column"])
def test_eval_names_the_row_that_does_not_parse(workdir, tmp_path, capsys, edit):
    """A value that is no number or a short row names the file and the data row."""
    rc = main(["track", "--config", str(workdir / "config.ini"), "--data",
               str(workdir / "ds"), "--variant", "cfar", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    lines[3] = ",".join(edit(lines[3].split(",")))
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(workdir / "config.ini"), "--truth",
                 str(workdir / "ds"), "--tracks", str(tmp_path / "t.csv"),
                 "--out", str(tmp_path / "m.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(tmp_path / "t.csv") in line and "data row 3" in line and "needs 7 numbers" in line
    assert not (tmp_path / "m.csv").exists()


def test_auto_order_too_large_for_the_data_fails_with_one_line(workdir, tmp_path, capsys):
    """100 samples of 8 channels hold no VAR(20) fit; the error names max_order."""
    assert main(["fit-noise", "--data", str(workdir / "ds"), "--max-samples", "100",
                 "--auto-order", "20", "--out", str(tmp_path / "m.var")]) == 1
    line = _one_error_line(capsys)
    assert "= 181 samples for max_order 20, got 100" in line
    assert not (tmp_path / "m.var").exists()


def test_negative_auto_order_fails_with_one_line(workdir, tmp_path, capsys):
    assert main(["fit-noise", "--data", str(workdir / "ds"), "--auto-order", "-1",
                 "--out", str(tmp_path / "m.var")]) == 1
    assert "max_order must be >= 0, got -1" in _one_error_line(capsys)
    assert not (tmp_path / "m.var").exists()


def test_track_takes_the_batch_layout_from_the_dataset(workdir, tmp_path):
    """A config whose simulation batch length disagrees with the data changes nothing."""
    other = replace(load_config(workdir / "config.ini"), batch_samples=32)
    save_config(other, tmp_path / "other.ini")
    logs = []
    for config in (workdir / "config.ini", tmp_path / "other.ini"):
        logs.append(tmp_path / f"{config.stem}.csv")
        assert main(["track", "--config", str(config), "--data", str(workdir / "ds"),
                     "--variant", "tvar", "--model", str(workdir / "model.var"),
                     "--seed", "5", "--out", str(logs[-1])]) == 0
    assert logs[0].read_bytes() == logs[1].read_bytes()


def _edit_meta(meta, **changes):
    meta = {**meta, **changes}
    return {k: v for k, v in meta.items() if v is not None}


@pytest.mark.parametrize("file, edit, expect", [
    ("meta.json", lambda m: _edit_meta(m, positions=None), "'positions'"),
    ("meta.json", lambda m: _edit_meta(m, n_batches=None), "'n_batches'"),
    ("meta.json", lambda m: _edit_meta(m, n_batches="x"),
     "n_batches must be a positive integer"),
    ("meta.json", lambda m: _edit_meta(m, n_batches=0), "n_batches must be a positive integer"),
    ("meta.json", lambda m: _edit_meta(m, seed="abc"), "seed must be an integer or null"),
    ("meta.json", lambda m: _edit_meta(m, n_per_batch=63),
     "n_per_batch must be a positive even integer"),
    ("meta.json", lambda m: _edit_meta(m, sample_rate="fast"), "sample_rate must be a number"),
    ("meta.json", lambda m: _edit_meta(m, positions=[[0.0, 0.0, 1.0]]), "positions"),
    ("c.ini", lambda t: t.replace(f"config_version = {CONFIG_VERSION}", "config_version = abc"),
     "unsupported config_version abc"),
    ("c.ini", lambda t: t.replace(f"config_version = {CONFIG_VERSION}", "config_version = 1"),
     "unsupported config_version 1"),
    ("c.ini", lambda t: t.replace("profile = sim", "profile = marine"), "meta.profile"),
], ids=["no-positions", "no-n_batches", "n_batches-string", "n_batches-zero",
        "seed-string", "odd-n_per_batch",
        "sample_rate-string", "positions-shape", "version-abc", "version-1", "profile"])
def test_bad_metadata_or_config_header_fails_with_one_line(workdir, tmp_path, capsys,
                                                           file, edit, expect):
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    shutil.copy(workdir / "config.ini", tmp_path / "c.ini")
    if file == "meta.json":
        meta = json.loads((ds / file).read_text())
        (ds / file).write_text(json.dumps(edit(meta)))
        path = ds / file
    else:
        path = tmp_path / file
        path.write_text(edit(path.read_text()))
    assert main(["detect", "--config", str(tmp_path / "c.ini"), "--data", str(ds),
                 "--out", str(tmp_path / "det.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(path) in line and expect in line
    assert len(line) < 200


def test_coincident_hydrophones_fail_with_one_line(workdir, tmp_path, capsys):
    """A zero-aperture array is refused, not tracked."""
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    meta = json.loads((ds / "meta.json").read_text())
    meta["positions"] = [meta["positions"][0]] * len(meta["positions"])
    (ds / "meta.json").write_text(json.dumps(meta))
    assert main(["track", "--config", str(workdir / "config.ini"), "--data", str(ds),
                 "--variant", "cfar", "--out", str(tmp_path / "t.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(ds / "meta.json") in line and "elements 0 and 1 share" in line
    assert not (tmp_path / "t.csv").exists()


def test_sample_rate_too_small_for_the_motion_model_fails_with_one_line(workdir, tmp_path,
                                                                      capsys):
    """N / fs is finite at 1e-300 Hz but its square, which the motion model
    takes, is not: the dataset is refused at load, naming the rate."""
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    meta = json.loads((ds / "meta.json").read_text())
    meta["sample_rate"] = 1e-300
    (ds / "meta.json").write_text(json.dumps(meta))
    assert main(["track", "--config", str(workdir / "config.ini"), "--data", str(ds),
                 "--variant", "cfar", "--out", str(tmp_path / "t.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(ds / "meta.json") in line and "sample_rate 1e-300 is too small" in line
    assert not (tmp_path / "t.csv").exists()


def test_one_hydrophone_fails_with_one_line(workdir, tmp_path, capsys):
    """One element carries no bearing information, so its recording is refused, not tracked."""
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    meta = json.loads((ds / "meta.json").read_text())
    meta["positions"] = meta["positions"][:1]
    (ds / "meta.json").write_text(json.dumps(meta))
    raw = np.fromfile(ds / "samples.f32", dtype="<f4")
    raw.reshape(-1, 8)[:, :1].tofile(ds / "samples.f32")  # keep the first channel only
    assert main(["track", "--config", str(workdir / "config.ini"), "--data", str(ds),
                 "--variant", "cfar", "--out", str(tmp_path / "t.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(ds / "meta.json") in line and "at least 2 elements, got 1" in line
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("variant, key, value", [
    ("tvar", "grid.bearing_step_deg", "0"),
    ("tvar", "filter.eta_step_db", "0"),
    ("tvar", "grid.bearing_step_deg", "-1"),
    ("tvar", "filter.snr_lo_db", "nan"),
    ("tvar", "filter.p_psidot", "-1"),
    ("tvar", "tmodel.dof", "inf"),
    ("cfar", "clutter.bearing_var", "nan"),
    ("tvar", "filter.q_cv", "-1"),
    ("eval", "eval.min_confirm_run", "0"),
    ("tvar", "tmodel.dof", "2"),
    ("cfar", "cfar.alpha", "0"),
    ("tvar", "array.elements", "1"),
    ("tvar", "scenario.start_bearing_deg", "120"),
    ("tvar", "array.sample_rate", "1e-300"),
])
def test_out_of_domain_config_value_fails_with_one_line(workdir, tmp_path, capsys,
                                                        variant, key, value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(workdir / "config.ini")
    parser.set(*key.split("."), value)
    bad = tmp_path / "bad.ini"
    with open(bad, "w") as fh:
        parser.write(fh)
    out = tmp_path / "out.csv"
    if variant == "eval":
        log = tmp_path / "track.csv"
        assert main(["track", "--config", str(workdir / "config.ini"), "--data",
                     str(workdir / "ds"), "--variant", "cfar", "--out", str(log)]) == 0
        argv = ["eval", "--truth", str(workdir / "ds"), "--tracks", str(log)]
    else:
        argv = ["track", "--data", str(workdir / "ds"), "--variant", variant,
                "--model", str(workdir / "model.var")]
    assert main(argv + ["--config", str(bad), "--out", str(out)]) == 1
    line = _one_error_line(capsys)
    assert str(bad) in line and f"{key} must be" in line
    assert not out.exists()


def test_bearing_step_wider_than_the_half_plane_fails_with_one_line(workdir, tmp_path, capsys):
    """A step over 180 deg would leave a one-bearing grid that still tracks."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(workdir / "config.ini")
    parser.set("grid", "bearing_step_deg", "200")
    bad = tmp_path / "bad.ini"
    with open(bad, "w") as fh:
        parser.write(fh)
    out = tmp_path / "out.csv"
    assert main(["track", "--data", str(workdir / "ds"), "--variant", "tvar",
                 "--model", str(workdir / "model.var"), "--config", str(bad),
                 "--out", str(out)]) == 1
    assert "grid.bearing_step_deg must be in (0, 180]" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv, expect", [
    (["calibrate-prior", "--variant", "cfar", "--step-db", "-2"], "step_db"),
    (["calibrate-prior", "--variant", "cfar", "--step-db", "0"], "step_db"),
    (["calibrate-prior", "--variant", "cfar", "--step-db", "nan"], "step_db"),
    (["calibrate-prior", "--variant", "cfar", "--margin-steps", "-1"], "margin_steps"),
    (["fit-noise", "--max-samples", "-5"], "--max-samples"),
], ids=["step-db-negative", "step-db-zero", "step-db-nan", "margin-steps-negative",
        "max-samples-negative"])
def test_out_of_range_option_fails_with_one_line(workdir, tmp_path, capsys, argv, expect):
    out = tmp_path / "out"
    assert main(argv + ["--config", str(workdir / "config.ini"), "--data",
                        str(workdir / "ds"), "--out", str(out)]) == 1
    assert expect in _one_error_line(capsys)
    assert not out.exists()


def test_truth_with_wrong_column_count_fails_with_one_line(workdir, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    lines = (ds / "truth.csv").read_text().splitlines()
    (ds / "truth.csv").write_text("".join(",".join(line.split(",")[:2]) + "\n"
                                          for line in lines))
    assert main(["detect", "--config", str(workdir / "config.ini"), "--data", str(ds),
                 "--out", str(tmp_path / "det.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(ds / "truth.csv") in line and "expected 4 columns" in line and "found 2" in line


def test_eval_on_non_finite_truth_fails_with_one_line(workdir, tmp_path, capsys):
    """A NaN bearing in truth.csv stops eval instead of scoring it as nan."""
    assert main(["track", "--config", str(workdir / "config.ini"), "--data",
                 str(workdir / "ds"), "--variant", "cfar", "--out", str(tmp_path / "t.csv")]) == 0
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    lines = (ds / "truth.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "nan"
    lines[3] = ",".join(cells)
    (ds / "truth.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(workdir / "config.ini"), "--truth", str(ds),
                 "--tracks", str(tmp_path / "t.csv"), "--out", str(tmp_path / "m.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(ds / "truth.csv") in line and "data row 3" in line
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("edit", [lambda cells: cells[:1] + ["abc"] + cells[2:],
                                  lambda cells: cells[:3]], ids=["not-a-number", "short-row"])
def test_eval_on_unreadable_truth_fails_with_one_line(workdir, tmp_path, capsys, edit):
    """A value that is not a number, or a missing column, names truth.csv."""
    assert main(["track", "--config", str(workdir / "config.ini"), "--data",
                 str(workdir / "ds"), "--variant", "cfar", "--out", str(tmp_path / "t.csv")]) == 0
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    lines = (ds / "truth.csv").read_text().splitlines()
    lines[3] = ",".join(edit(lines[3].split(",")))
    (ds / "truth.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(workdir / "config.ini"), "--truth", str(ds),
                 "--tracks", str(tmp_path / "t.csv"), "--out", str(tmp_path / "m.csv")]) == 1
    assert str(ds / "truth.csv") in _one_error_line(capsys)
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", [["track", "--variant", "tvar"], ["btr"]],
                         ids=["track", "btr"])
@pytest.mark.parametrize("part", ["coefficient", "covariance"])
def test_non_finite_model_value_fails_with_one_line(workdir, tmp_path, capsys, command, part):
    raw = bytearray((workdir / "model.var").read_bytes())
    order, m = 6, 8  # fitted by the workdir fixture
    offset = 17 + 8 * (0 if part == "coefficient" else order * m * m + 3)
    raw[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
    (tmp_path / "bad.var").write_bytes(bytes(raw))
    assert main([command[0], "--config", str(workdir / "config.ini"),
                 "--data", str(workdir / "ds"), *command[1:],
                 "--model", str(tmp_path / "bad.var"), "--out", str(tmp_path / "out.csv")]) == 1
    line = _one_error_line(capsys)
    assert str(tmp_path / "bad.var") in line and f"non-finite {part}" in line
    assert not (tmp_path / "out.csv").exists()


def test_calibrate_prior_takes_the_variants_own_model(workdir, tmp_path, capsys):
    """tvar0's `--model` is its order-0 fit, as in `track`: the CLI writes the
    config `calibrate_variant` gives with that model in both model slots, and
    prints its SNR prior."""
    config, noise, m0 = str(workdir / "config.ini"), tmp_path / "noise", tmp_path / "m0.var"
    assert main(["simulate", "--config", config, "--seed", "3", "--target-free",
                 "--out", str(noise)]) == 0
    assert main(["fit-noise", "--data", str(noise), "--order", "0", "--out", str(m0)]) == 0
    capsys.readouterr()
    out = tmp_path / "tvar0.ini"
    assert main(["calibrate-prior", "--config", config, "--data", str(noise), "--variant",
                 "tvar0", "--model", str(m0), "--seed", "4", "--out", str(out)]) == 0
    model0 = load_var(m0)
    want = calibrate_variant("tvar0", load_config(config), [load_dataset(noise)],
                             model0, model0, 4).config
    assert load_config(out) == want
    lo, hi = want.filter_snr_lo_db, want.filter_snr_hi_db
    assert f"calibrated SNR prior = [{lo:.1f}, {hi:.1f}] dB" in capsys.readouterr().out


@pytest.mark.parametrize("option", [["--model0", "m0.var"], ["--run-index", "7"]],
                         ids=["model0", "run-index"])
def test_calibrate_prior_has_no_model0_or_run_index(workdir, option):
    """Both were redundant: `--model` is the variant's own model, and the
    sweep's seed lanes do not read a run index."""
    with pytest.raises(SystemExit) as exit_info:
        main(["calibrate-prior", "--data", str(workdir / "ds"), "--variant", "tvar0",
              "--model", str(workdir / "model.var"), *option])
    assert exit_info.value.code == 2


def test_calibrate_prior_checks_for_a_model_before_reading_the_data(tmp_path, capsys):
    assert main(["calibrate-prior", "--data", str(tmp_path / "nowhere"),
                 "--variant", "gvar"]) == 1
    assert "needs --model" in _one_error_line(capsys)


def test_cfar_track_needs_no_model(workdir):
    rc = main(["track", "--config", str(workdir / "config.ini"),
               "--data", str(workdir / "ds"), "--variant", "cfar",
               "--seed", "5", "--out", str(workdir / "cfar.csv")])
    assert rc == 0


def test_cli_errors_exit_nonzero(workdir, capsys):
    assert main(["track", "--config", str(workdir / "config.ini"),
                 "--data", str(workdir / "nowhere"), "--variant", "tvar",
                 "--model", str(workdir / "model.var"),
                 "--out", str(workdir / "x.csv")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["track", "--config", str(workdir / "config.ini"),
                 "--data", str(workdir / "ds"), "--variant", "gvar",
                 "--out", str(workdir / "x.csv")]) == 1
    assert "needs --model" in capsys.readouterr().err


def _check_version(cmd, **kwargs):
    out = subprocess.run(cmd + ["--version"], capture_output=True, text=True,
                         timeout=60, **kwargs)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"sonartkbd {sonartkbd.__version__}\n"


def test_console_script_entry_point(tmp_path):
    """The ``cli`` module started as a program reports the package version.

    Runs through ``python -m`` so it needs no installed wrapper; the child
    imports the same package as this process, however pytest was started.
    """
    pkg_root = str(Path(sonartkbd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
    _check_version([sys.executable, "-m", "sonartkbd.cli"],
                   cwd=tmp_path, env=env)


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from dataclasses import replace
import sonartkbd.cli
from sonartkbd.config import default_config
from sonartkbd.detect import _z_quantile
from sonartkbd.pipeline import VARIANTS, run_tracker, spawn_rng
from sonartkbd.sim import generate_dataset
from sonartkbd.study import (default_ambient_model, default_geometry, models_for_variant,
                             scenario_from_config)
cfg = replace(default_config("sim"), scenario_duration_s=4.0, filter_n_persist=200,
              filter_n_birth=50)
geom = default_geometry(cfg)
model, model0 = default_ambient_model(geom)
ds = generate_dataset(scenario_from_config(cfg, geom, model), spawn_rng(3, 0))
for variant in VARIANTS:
    track = run_tracker(ds, variant, cfg, models_for_variant(variant, model, model0),
                        spawn_rng(3, 1))
    assert len(track.exist_prob) == ds.n_batches > 0, variant
print(_z_quantile(1e-3))
"""


def test_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: the CLI import, the ambient
    model, a pass of every variant and the CFAR quantile need no scipy."""
    pkg_root = str(Path(sonartkbd.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True,
                         text=True, timeout=120, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": pkg_root})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "3.090232306167813\n"


@pytest.mark.skipif(shutil.which("sonartkbd") is None,
                    reason="no sonartkbd console script on PATH "
                           "(package not installed)")
def test_installed_console_script():
    _check_version([shutil.which("sonartkbd")])


def test_pyproject_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())["project"]
    target = meta["scripts"]["sonartkbd"]
    assert target == "sonartkbd.cli:main"
    assert pkgutil.resolve_name(target) is main
    assert meta["version"] == sonartkbd.__version__
