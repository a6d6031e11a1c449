"""The measurement front end shared by the trackers and the CLI."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sonartkbd.array import ArrayGeometry, BeamformGrid, make_steering
from sonartkbd.config import default_config
from sonartkbd.noise import fit_var, whiten
from sonartkbd.pipeline import VARIANTS, beam_energies, bearing_beamformer, make_likelihood
from sonartkbd.sim import Dataset
from sonartkbd.stats import t_log_lr

from test_array import beamform


def random_dataset(m, n, k, seed, extra_rows=0):
    """K batches of N standard-normal samples on an M-element ULA."""
    geom = ArrayGeometry.ula(m, 0.93, 1500.0, 375.0)
    samples = np.random.default_rng(seed).standard_normal((k * n + extra_rows, m))
    return Dataset(geom, samples, n)


@pytest.mark.parametrize("order, n", [(None, 64), (0, 64), (14, 64), (14, 8), (5, 2)])
def test_beam_energies_match_streaming_loop(order, n):
    """One bulk pass equals whitening batch by batch, then the dense beamformer.

    Whitening and ||z||^2 match exactly. The energies are checked against the
    per-bearing oracle to 1e-12: BLAS takes a different kernel for a one-row
    product than for the whole stack, so the last bit may differ.
    """
    ds = random_dataset(4, n, 6, seed=n, extra_rows=3)
    model = None
    if order is not None:
        model = fit_var(np.random.default_rng(1).standard_normal((3000, 4)), order)
    grid = BeamformGrid(ds.geometry, np.arange(-90.0, 91.0, 10.0), n)
    energies, z_norm_sq, warmup = beam_energies(ds, grid, model)

    state, ref_energies, ref_z2, ref_warm = None, [], [], 0
    for k in range(ds.n_batches):
        batch = ds.samples[k * n:(k + 1) * n]
        if model is not None:
            batch, state, warm_rows = whiten(model, batch, state)
            ref_warm += warm_rows > 0
        ref_energies.append([beamform(make_steering(ds.geometry, b, n), batch)
                             for b in grid.bearings_deg])
        ref_z2.append((batch * batch).sum())
    np.testing.assert_allclose(energies, ref_energies, rtol=1e-12)
    np.testing.assert_array_equal(z_norm_sq, ref_z2)
    assert warmup == ref_warm == (math.ceil(order / n) if order else 0)


def test_beam_energies_shape_and_sign():
    ds = random_dataset(8, 64, 3, seed=9)
    bearings = np.arange(-90.0, 91.0, 30.0)
    energies, z_norm_sq, warmup = beam_energies(ds, BeamformGrid(ds.geometry, bearings, 64))
    assert energies.shape == (3, bearings.size)
    assert z_norm_sq.shape == (3,)
    assert warmup == 0
    assert (energies >= 0).all()


def test_bearing_beamformer_follows_the_dataset():
    """The grid takes the array and batch length from the data, not the config."""
    cfg = replace(default_config("sim"), batch_samples=32, array_elements=3,
                  grid_bearing_step_deg=2.0)
    ds = random_dataset(8, 16, 2, seed=4)
    grid = bearing_beamformer(ds, cfg)
    assert grid.geom is ds.geometry and grid.n_samples == 16
    np.testing.assert_array_equal(grid.bearings_deg, np.arange(-90.0, 91.0, 2.0))


def test_make_likelihood_one_ratio_per_batch():
    cfg = default_config("sim")
    ds = random_dataset(cfg.array_elements, cfg.batch_samples, 4, seed=3)
    model = fit_var(np.random.default_rng(2).standard_normal((3000, cfg.array_elements)), 70)
    fields = make_likelihood("tvar", ds, cfg, model)
    assert len(fields) == 4
    assert fields[:2] == [None, None]  # 70 warm-up rows span two 64-sample batches
    grid = bearing_beamformer(ds, cfg)
    bearings = grid.bearings_deg
    energies, z_norm_sq, _ = beam_energies(ds, grid, model)
    eta_db = np.array([-8.0, -3.0])
    field = fields[2]
    np.testing.assert_array_equal(
        field.loglr(bearings[[10, 90]], eta_db),
        t_log_lr(energies[2, [10, 90]], z_norm_sq[2], 10.0 ** (eta_db / 10.0),
                 cfg.tmodel_dof, cfg.batch_samples, cfg.array_elements))
    np.testing.assert_array_equal(field.psi_grid, bearings)
    np.testing.assert_array_equal(field.eta_db_grid, np.arange(-12.0, -1.5, 1.0))
    cfar = make_likelihood("cfar", ds, cfg, None)
    assert len(cfar) == 4 and all(m is not None for m in cfar)
    # the detection ratio does not depend on the SNR argument
    assert cfar[3].loglr(bearings, -8.0).tolist() == cfar[3].loglr(bearings, -3.0).tolist()


@pytest.mark.parametrize("variant", VARIANTS)
def test_birth_field_equals_the_particle_ratio_on_the_grid(variant):
    """Each birth grid is the batch's particle ratio evaluated at every grid cell.

    On this data the CFAR pass fires twice in batch 0, so `cfar` covers a
    field with detections as well as the empty ones.
    """
    cfg = default_config("sim")
    ds = random_dataset(cfg.array_elements, cfg.batch_samples, 5, seed=8)
    order = 0 if variant == "tvar0" else 3
    model = fit_var(np.random.default_rng(6).standard_normal((3000, cfg.array_elements)),
                    order)
    fields = [f for f in make_likelihood(variant, ds, cfg, model) if f is not None]
    assert len(fields) == (4 if variant in ("tvar", "gvar") else 5)  # VAR(3) warm-up
    for field in fields:
        pp, ee = np.meshgrid(field.psi_grid, field.eta_db_grid, indexing="ij")
        np.testing.assert_array_equal(field.grid,
                                      field.loglr(pp.ravel(), ee.ravel()).reshape(pp.shape))
