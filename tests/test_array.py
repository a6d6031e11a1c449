"""Steering, delay spectra, and delay-and-sum beamforming."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonartkbd.array import (ArrayGeometry, BatchShapeError, BeamformGrid,
                             GeometryError, apply_steering, delay_spectrum,
                             make_steering, steering_delays)


def beamform(spectra: np.ndarray, batch: np.ndarray) -> float:
    """Dense oracle: delay-and-sum energy of one (N, M) batch at one bearing.

    Each channel's full N-bin DFT is multiplied by the conjugate of its
    `make_steering` spectrum, the aligned channels are summed, and the
    energy of the sum is ||S||^2 / N by Parseval. No Hermitian folding, no
    batching: an independent route to what `BeamformGrid.energies` computes.
    """
    m, n = spectra.shape
    data = np.asarray(batch, dtype=float)
    assert data.shape == (n, m), data.shape
    spec = np.fft.fft(data, axis=0)  # (N, M)
    aligned = (spectra.conj().T * spec).sum(axis=1)
    return float((aligned.real ** 2 + aligned.imag ** 2).sum() / n)


def default_ula(m=8):
    return ArrayGeometry.ula(m, 0.93, 1500.0, 375.0)


def test_ula_layout():
    geom = default_ula(4)
    assert geom.n_channels == 4
    np.testing.assert_allclose(geom.positions[:, 0], [0.0, 0.93, 1.86, 2.79])
    np.testing.assert_allclose(geom.positions[:, 1], 0.0)


def test_geometry_rejects_bad_positions():
    with pytest.raises(GeometryError):
        ArrayGeometry(np.zeros((3,)), 1500.0, 375.0)
    with pytest.raises(GeometryError, match="at least 2 elements, got 1"):
        ArrayGeometry(np.array([[0.0, 0.0]]), 1500.0, 375.0)
    with pytest.raises(GeometryError, match="finite"):
        ArrayGeometry(np.array([[0.0, np.nan], [1.0, 0.0]]), 1500.0, 375.0)
    pair = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GeometryError, match="speed_of_sound"):
        ArrayGeometry(pair, -1.0, 375.0)
    with pytest.raises(GeometryError, match="sample_rate"):
        ArrayGeometry(pair, 1500.0, 0.0)


def test_geometry_rejects_coincident_elements():
    """A zero-aperture pair cannot be steered; the error names both elements."""
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GeometryError, match="elements 1 and 3 share"):
        ArrayGeometry(pos, 1500.0, 375.0)
    assert ArrayGeometry(pos[:3], 1500.0, 375.0).n_channels == 3


def test_broadside_delays_are_zero():
    geom = default_ula()
    np.testing.assert_allclose(steering_delays(geom, 0.0), 0.0, atol=1e-15)


def test_endfire_delay_unit():
    # one element spacing along the line of sight: 0.93 m / 1500 m/s
    geom = default_ula()
    tau = steering_delays(geom, 90.0)
    assert tau[0] == 0.0
    assert tau[1] == pytest.approx(0.00062, abs=1e-18)
    np.testing.assert_allclose(np.diff(tau), 0.00062)


def test_delay_spectrum_zero_delay_is_identity():
    gamma = delay_spectrum(0.0, 64, 375.0)
    np.testing.assert_allclose(gamma, 1.0)


def test_integer_delay_is_circular_shift():
    rng = np.random.default_rng(3)
    n, fs = 64, 375.0
    x = rng.standard_normal(n)
    for k in (-7, -1, 0, 1, 2, 13):
        gamma = delay_spectrum(k / fs, n, fs)
        shifted = np.fft.ifft(gamma * np.fft.fft(x))
        np.testing.assert_allclose(shifted.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(shifted.real, np.roll(x, k), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(tau=st.floats(-0.05, 0.05), seed=st.integers(0, 2**31 - 1))
def test_fractional_delay_output_is_real(tau, seed):
    """Hermitian-symmetric spectra must give a real delayed signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(32)
    gamma = delay_spectrum(tau, 32, 375.0)
    y = np.fft.ifft(gamma * np.fft.fft(x))
    assert np.abs(y.imag).max() < 1e-12


def full_band_delay_spectrum(tau, n, fs):
    """The exponential on all N bins, with signed bin numbers, then cos at Nyquist."""
    shift = np.asarray(tau, dtype=float) * fs
    k = np.arange(n)
    signed = np.where(k <= n // 2, k, k - n)
    gamma = np.exp(-2j * np.pi * signed * shift[..., None] / n)
    gamma[..., n // 2] = np.cos(np.pi * shift)
    return gamma


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 64, 256]), shape=st.sampled_from([(), (5,), (8, 181)]),
       scale=st.floats(1e-6, 0.05), seed=st.integers(0, 2**31 - 1))
def test_mirrored_delay_spectrum_equals_full_band_formula(n, shape, scale, seed):
    """Bins above N/2 taken as mirrored conjugates keep every bit of the full-band formula."""
    tau = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    assert np.array_equal(delay_spectrum(tau, n, 375.0), full_band_delay_spectrum(tau, n, 375.0))


def test_fractional_delay_energy_accounting():
    """Allpass at every bin except Nyquist, which attenuates by cos(tau pi fs).

    The exact energy change is (cos^2 - 1) |X[N/2]|^2 / N, so checking it
    exercises the whole spectrum construction at once.
    """
    rng = np.random.default_rng(11)
    x = rng.standard_normal(64)
    spec = np.fft.fft(x)
    for tau in (0.0003, -0.0011, 0.0049):
        gamma = delay_spectrum(tau, 64, 375.0)
        y = np.fft.ifft(gamma * spec).real
        c = np.cos(tau * np.pi * 375.0)
        expected = x @ x + (c * c - 1.0) * np.abs(spec[32]) ** 2 / 64.0
        assert y @ y == pytest.approx(expected, rel=1e-12)


def test_apply_steering_shape_and_realness():
    geom = default_ula()
    op = make_steering(geom, 25.0, 64)
    src = np.random.default_rng(0).standard_normal(64)
    out = apply_steering(op, src)
    assert out.shape == (64, 8)
    assert out.dtype == np.float64


def test_coherent_gain_at_integer_delays():
    """Steer, then beamform back at the same bearing: energy is M^2 ||s||^2.

    Uses a geometry whose end-fire per-element delay is exactly two
    samples so every channel shift is circular and exact.
    """
    geom = ArrayGeometry.ula(5, 8.0, 1500.0, 375.0)
    np.testing.assert_allclose(steering_delays(geom, 90.0) * 375.0,
                               [0, 2, 4, 6, 8])
    src = np.random.default_rng(1).standard_normal(64)
    op = make_steering(geom, 90.0, 64)
    received = apply_steering(op, src)
    energy = beamform(op, received)
    assert energy == pytest.approx(25.0 * (src @ src), rel=1e-10)


def test_beamform_matches_time_domain_shift_and_sum():
    geom = ArrayGeometry.ula(4, 8.0, 1500.0, 375.0)
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((64, 4))
    op = make_steering(geom, 90.0, 64)
    shifts = np.rint(steering_delays(geom, 90.0) * 375.0).astype(int)
    aligned = sum(np.roll(batch[:, m], -shifts[m]) for m in range(4))
    assert beamform(op, batch) == pytest.approx(aligned @ aligned, rel=1e-10)


def test_beamform_rejects_wrong_shape():
    grid = BeamformGrid(default_ula(), np.array([0.0, 30.0]), 64)
    for shape in ((2, 64, 7), (2, 32, 8), (64, 8), (64 * 8,)):
        with pytest.raises(BatchShapeError):
            grid.energies(np.zeros(shape))


@settings(max_examples=40, deadline=None)
@given(bearing=st.floats(-90.0, 90.0), seed=st.integers(0, 2**31 - 1))
def test_beam_energy_bound(bearing, seed):
    """Delay-and-sum energy never exceeds M times the batch energy."""
    geom = default_ula(6)
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((32, 6))
    op = make_steering(geom, bearing, 32)
    energy = beamform(op, batch)
    assert 0.0 <= energy <= 6.0 * np.sum(batch ** 2) * (1 + 1e-9)


def test_grid_matches_per_bearing_beamform():
    geom = default_ula()
    bearings = np.arange(-90.0, 91.0, 15.0)
    grid = BeamformGrid(geom, bearings, 64)
    batch = np.random.default_rng(5).standard_normal((64, 8))
    explicit = [beamform(make_steering(geom, b, 64), batch) for b in bearings]
    np.testing.assert_allclose(grid.energies(batch[None]), [explicit], rtol=1e-12)


@pytest.mark.parametrize("m, g, n", [(8, 181, 64), (4, 64, 16), (3, 7, 2), (8, 1, 64)])
def test_grid_steering_built_per_channel_equals_whole_array_steering(m, g, n):
    """The per-channel build stores the bits of conjugating and reordering
    the whole (M, G, N) `make_steering` array."""
    geom = default_ula(m)
    bearings = np.linspace(-90.0, 90.0, g)
    want = make_steering(geom, bearings, n)[..., :n // 2 + 1].conj().transpose(2, 0, 1)
    assert np.array_equal(BeamformGrid(geom, bearings, n)._steer, want)


def test_grid_construction_peak_is_near_its_stored_spectra():
    """No (M, G, N) steering array is formed: the default grid's peak stays
    under twice the (N/2 + 1, M, G) spectra it keeps (the whole array alone
    would be 1.9 times them)."""
    tracemalloc.start()
    try:
        grid = BeamformGrid(default_ula(), np.linspace(-90.0, 90.0, 181), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid._steer.nbytes


@pytest.mark.parametrize("m, n", [(8, 64), (4, 64), (8, 8), (3, 2)])
def test_batched_energies_match_dense_oracle(m, n):
    """One rfft pass over a (K, N, M) stack equals the dense beamformer per batch.

    (3, 2) has only the DC and Nyquist bins, both counted once.
    """
    geom = default_ula(m)
    bearings = np.arange(-90.0, 91.0, 7.5)
    grid = BeamformGrid(geom, bearings, n)
    steering = [make_steering(geom, b, n) for b in bearings]
    stack = np.random.default_rng(m * n).standard_normal((40, n, m))
    oracle = np.array([[beamform(s, batch) for s in steering] for batch in stack])
    energies = grid.energies(stack)
    assert energies.shape == (40, bearings.size)
    np.testing.assert_allclose(energies, oracle, rtol=1e-12)
    np.testing.assert_allclose(grid.energies(stack[:1]), oracle[:1], rtol=1e-12)


def test_steering_operator_direct_construction():
    # the (M, N) spectra can be assembled from raw delays, mirroring make_steering
    fs, n = 375.0, 64
    delays = np.array([0.0, 2.0, 4.0]) / fs
    spectra = np.array([delay_spectrum(t, n, fs) for t in delays])
    geom = ArrayGeometry.ula(3, 8.0, 1500.0, fs)
    ref = make_steering(geom, 90.0, n)
    assert ref.shape == (3, n) and ref.dtype == np.complex128
    np.testing.assert_allclose(spectra, ref, atol=1e-12)


@pytest.mark.parametrize("n", [64, 8, 2])
def test_steering_over_bearing_array_equals_per_bearing_stack(n):
    """One broadcast call gives (M, G, N), bit for bit the per-bearing spectra."""
    geom = default_ula()
    bearings = np.random.default_rng(n).uniform(-90.0, 90.0, 50)
    stacked = np.stack([make_steering(geom, float(b), n) for b in bearings], axis=1)
    batch = make_steering(geom, bearings, n)
    assert batch.shape == (8, bearings.size, n)
    np.testing.assert_array_equal(batch, stacked)
