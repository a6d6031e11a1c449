"""The measurement front end shared by the trackers and the CLI."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sonartkbd.array import ArrayGeometry, BeamformGrid, make_steering
from sonartkbd.config import default_config
from sonartkbd.detect import cfar_detections, detection_log_lr
from sonartkbd.noise import fit_var, whiten
from sonartkbd.pipeline import (VARIANTS, beam_energies, bearing_beamformer, make_likelihood,
                                run_tracker, spawn_rng, uniform_interp)
from sonartkbd.sim import Dataset
from sonartkbd.stats import gauss_log_lr, t_log_lr
from sonartkbd.tkbd import birth_cdfs, sample_birth

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
    fields = list(make_likelihood("tvar", ds, cfg, model))
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
    cfar = list(make_likelihood("cfar", ds, cfg, None))
    assert len(cfar) == 4 and all(m is not None for m in cfar)
    # the detection ratio does not depend on the SNR argument
    assert cfar[3].loglr(bearings, -8.0).tolist() == cfar[3].loglr(bearings, -3.0).tolist()


BAD_CALLS = [  # variant, model order, model channels, bearing step (deg), error
    ("tvar1", 3, 8, 1.0, "unknown variant 'tvar1'"),
    ("gvar", None, 8, 1.0, "variant 'gvar' needs a noise model"),
    ("tvar0", None, 8, 1.0, "needs a noise model"),
    ("tvar0", 3, 8, 1.0, "tvar0 expects an order-0 noise model"),
    ("tvar", 3, 4, 1.0, "noise model has 4 channels, the dataset has 8"),
    ("cfar", None, 8, 2.0, r"CFAR window of 171 cells .* the 91-cell bearing grid"),
]


@pytest.mark.parametrize("variant, order, channels, step, match", BAD_CALLS,
                         ids=[f"{v}-{o}-{m}" for v, o, _, _, m in BAD_CALLS])
def test_make_likelihood_rejects_a_bad_call_before_iterating(variant, order, channels, step,
                                                             match):
    """Each ValueError is raised by the call itself, so a pass that is never
    iterated cannot hide a bad variant, model or CFAR window. The sim
    profile's window is 171 cells; a 2-degree step leaves a 91-cell grid."""
    cfg = replace(default_config("sim"), grid_bearing_step_deg=step)
    ds = random_dataset(cfg.array_elements, cfg.batch_samples, 2, seed=1)
    model = None
    if order is not None:
        model = fit_var(np.random.default_rng(2).standard_normal((3000, channels)), order)
    with pytest.raises(ValueError, match=match):
        make_likelihood(variant, ds, cfg, model)


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
    if variant == "cfar":
        grid = bearing_beamformer(ds, cfg)
        assert len(cfar_detections(beam_energies(ds, grid)[0], cfg, grid.bearings_deg)[0]) == 2
    for field in fields:
        pp, ee = np.meshgrid(field.psi_grid, field.eta_db_grid, indexing="ij")
        np.testing.assert_array_equal(field.grid,
                                      field.loglr(pp.ravel(), ee.ravel()).reshape(pp.shape))
        np.testing.assert_array_equal(field.cdf, birth_cdfs(field.grid))


@pytest.mark.parametrize("step", [1.0, 2.0, 0.5, 0.3, 0.7])
def test_uniform_interp_is_np_interp_bit_for_bit(step):
    """The direct grid lookup returns np.interp's bits on every kind of bearing.

    A step of 0.7 ends the grid at 89.9, so bearings up to 90 lie above it.
    """
    xp = np.arange(-90.0, 90.0 + 0.5 * step, step)
    rng = np.random.default_rng(int(10 * step))
    edges = np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
                            [-90.0, 90.0], np.linspace(xp[-1], 90.0, 7)])
    for _ in range(50):
        fp = rng.exponential(100.0, xp.size)
        slopes = np.diff(fp) / np.diff(xp)
        x = np.concatenate([edges, rng.uniform(-90.0, 90.0, 2000)])
        want = np.interp(x, xp, fp)
        np.testing.assert_array_equal(uniform_interp(x, xp, fp, slopes).view(np.int64),
                                      want.view(np.int64))


def oracle_pass(variant, ds, cfg, model):
    """Whole-pass reference for `make_likelihood`: one whitening call over the
    stream, one beamforming call over every batch, then per batch an np.interp
    ratio, its grid and its birth CDF, each built on its own."""
    grid = bearing_beamformer(ds, cfg)
    bearings = grid.bearings_deg
    eta_grid = np.arange(cfg.filter_snr_lo_db, cfg.filter_snr_hi_db + 1e-9,
                         cfg.filter_eta_step_db)
    n, k, m = ds.n_per_batch, ds.n_batches, ds.geometry.n_channels
    data, warmup = ds.samples[:k * n], 0
    if model is not None:
        data, _, warmup_rows = whiten(model, data)
        warmup = -(-warmup_rows // n)
    batches = data.reshape(k, n, m)
    energies, z_norm_sq = grid.energies(batches), (batches * batches).sum(axis=(1, 2))

    def energy_ratio(row, z2):
        def loglr(psi_deg, eta_db):
            b = np.interp(psi_deg, bearings, row)
            eta = 10.0 ** (np.asarray(eta_db, dtype=float) / 10.0)
            if variant == "gvar":
                return gauss_log_lr(b, eta, n, m)
            return t_log_lr(b, z2, eta, cfg.tmodel_dof, n, m)
        return loglr

    if variant == "cfar":
        ratios = [lambda psi_deg, eta_db, found=found: detection_log_lr(found, psi_deg, cfg)
                  for found in cfar_detections(energies, cfg, bearings)]
    else:
        ratios = [None if i < warmup else energy_ratio(energies[i], float(z_norm_sq[i]))
                  for i in range(k)]
    fields = []
    for loglr in ratios:
        if loglr is None:
            fields.append(None)
            continue
        table = np.broadcast_to(loglr(bearings[:, None], eta_grid[None, :]),
                                (bearings.size, eta_grid.size))
        flat = table.ravel()
        probs = np.exp(flat - flat.max())
        total = probs.sum()
        probs = probs / total if np.isfinite(total) and total > 0 \
            else np.full(flat.size, 1.0 / flat.size)
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        fields.append(SimpleNamespace(loglr=loglr, grid=table, cdf=cdf, psi_grid=bearings,
                                      eta_db_grid=eta_grid))
    return (energies, z_norm_sq, warmup), fields


def loud_dataset(cfg, k, rng):
    """`random_dataset` with a strong broadside source in every third batch."""
    ds = random_dataset(cfg.array_elements, cfg.batch_samples, k, seed=k)
    n = ds.n_per_batch
    loud = (np.arange(k * n) // n) % 3 == 0
    ds.samples[loud] += 3.0 * rng.standard_normal((loud.sum(), 1))
    return ds


@pytest.mark.parametrize("k", [1, 7, 8, 9, 17, 63, 64, 65, 131])
@pytest.mark.parametrize("variant, order", [("tvar", 70), ("gvar", 3), ("tvar0", 0),
                                            ("cfar", None)])
def test_blocked_pass_equals_whole_pass_oracle(variant, order, k):
    """Blocks of batches give the whole pass's front end, ln L and births bit for bit.

    VAR(70) on 64-sample batches spans two warm-up batches, so with k of 9
    and 17 the warm-up straddles the edge of an 8-batch table. Every third
    batch carries a strong broadside source, so the CFAR pass scores batches
    with zero, one and several detections in one block.
    """
    cfg = default_config("sim")
    rng = np.random.default_rng(k)
    ds = loud_dataset(cfg, k, rng)
    model = None
    if order is not None:
        model = fit_var(np.random.default_rng(6).standard_normal((3000, cfg.array_elements)),
                        order)
    (energies, z_norm_sq, warmup), want = oracle_pass(variant, ds, cfg, model)
    grid = bearing_beamformer(ds, cfg)
    got_front = beam_energies(ds, grid, model if variant != "cfar" else None)
    np.testing.assert_array_equal(got_front[0], energies)
    np.testing.assert_array_equal(got_front[1], z_norm_sq)
    assert got_front[2] == warmup
    if variant == "cfar" and k not in (1, 7, 9):  # too few batches to fire several times
        counts = {len(f) for f in cfar_detections(energies, cfg, grid.bearings_deg)}
        assert {0, 1} <= counts and max(counts) > 1
    got = list(make_likelihood(variant, ds, cfg, model))
    assert len(got) == k
    for i in range(k):
        field, ref = got[i], want[i]
        assert (field is None) == (ref is None)
        if ref is None:
            continue
        psi = np.concatenate([grid.bearings_deg, [-90.0, 90.0],
                              rng.uniform(-90.0, 90.0, 300)])
        eta_db = rng.uniform(cfg.filter_snr_lo_db, cfg.filter_snr_hi_db, psi.size)
        np.testing.assert_array_equal(field.loglr(psi, eta_db), ref.loglr(psi, eta_db))
        np.testing.assert_array_equal(field.grid, ref.grid)
        np.testing.assert_array_equal(field.cdf, ref.cdf)
        np.testing.assert_array_equal(sample_birth(field, cfg, 200, np.random.default_rng(i)),
                                      sample_birth(ref, cfg, 200, np.random.default_rng(i)))


@pytest.mark.parametrize("train_rows", [1, 10, 70])
def test_cfar_pass_trains_across_block_edges(train_rows):
    """The CFAR pass detects one block at a time, carrying the record's last
    `train_rows` rows into the next block, and equals detecting on the whole
    record bit for bit, also when the training rows reach past a whole block."""
    cfg = replace(default_config("sim"), cfar_train_rows=train_rows)
    k = 131
    ds = loud_dataset(cfg, k, np.random.default_rng(3))
    (energies, _, _), want = oracle_pass("cfar", ds, cfg, None)
    found = cfar_detections(energies, cfg, bearing_beamformer(ds, cfg).bearings_deg)
    assert sum(map(len, found[64:])) > 0
    got = list(make_likelihood("cfar", ds, cfg, None))
    assert len(got) == k
    for field, ref in zip(got, want):
        np.testing.assert_array_equal(field.grid, ref.grid)
        np.testing.assert_array_equal(field.cdf, ref.cdf)


def test_cfar_pass_ignores_the_noise_model():
    """`cfar` detects on the raw energies, so a VAR(3) model changes neither
    its fields nor its track: one field per batch from the first, bit for
    bit those of the model-free pass."""
    cfg = default_config("sim")
    k = 70
    ds = loud_dataset(cfg, k, np.random.default_rng(4))
    model = fit_var(np.random.default_rng(6).standard_normal((3000, cfg.array_elements)), 3)
    got = list(make_likelihood("cfar", ds, cfg, model))
    want = list(make_likelihood("cfar", ds, cfg, None))
    assert len(got) == k and all(field is not None for field in got)
    bearings = bearing_beamformer(ds, cfg).bearings_deg
    for field, ref in zip(got, want):
        np.testing.assert_array_equal(field.loglr(bearings, -5.0), ref.loglr(bearings, -5.0))
        np.testing.assert_array_equal(field.grid, ref.grid)
        np.testing.assert_array_equal(field.cdf, ref.cdf)
    track = run_tracker(ds, "cfar", cfg, model, spawn_rng(4, 1, 0))
    ref = run_tracker(ds, "cfar", cfg, None, spawn_rng(4, 1, 0))
    for name in ("exist_prob", "psi_deg", "psidot", "eta_db", "confirmed"):
        np.testing.assert_array_equal(getattr(track, name), getattr(ref, name))


def test_pass_memory_does_not_grow_with_the_recording():
    """A tracker pass holds one block at a time, whatever the recording's length.

    The dataset and the model are made before tracing starts, so the traced
    peak is the pass's own working memory. While each 64-batch block built
    its ln L table in one piece and `cfar` detected on the whole record, the
    peak read 6.5 MB for `tvar` and 6.2-6.3 MB for `cfar`; with 8-batch
    tables and blockwise detection both read 3.1 MB, most of it the
    beamformer's steering set-up.
    """
    cfg = default_config("sim")
    model = fit_var(np.random.default_rng(2).standard_normal((3000, cfg.array_elements)), 3)
    for variant in ("tvar", "cfar"):
        peaks = []
        for k in (256, 1024):
            ds = random_dataset(cfg.array_elements, cfg.batch_samples, k, seed=5)
            tracemalloc.start()
            try:
                run_tracker(ds, variant, cfg, model if variant == "tvar" else None,
                            spawn_rng(5, 1, 0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], (variant, peaks)
        assert max(peaks) <= 3.5e6, (variant, peaks)
