"""Array geometry, fractional-delay steering and delay-and-sum beamforming.

Steering is done in the frequency domain. Delaying a length-N real batch by
tau seconds multiplies its DFT bin n by

    gamma_n(tau) = exp(-2i pi n tau fs / N)          for n < N/2
    gamma_N/2(tau) = cos(tau pi fs)                  at the Nyquist bin
    gamma_n(tau) = exp(+2i pi (N - n) tau fs / N)    for n > N/2

which keeps real inputs real (the Nyquist bin has no quadrature component,
so only its in-phase part survives a fractional shift). The per-channel
steering operator is diagonal in the DFT basis and is therefore stored as a
spectrum, never as a dense matrix. `BeamformGrid` beamforms a whole stack
of batches at once over the N/2+1 non-negative bins of one rfft.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised for non-finite or coincident positions or non-positive rates."""


class BatchShapeError(ValueError):
    """Raised when a sample batch has the wrong shape or an odd length."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Hydrophone positions and sampling parameters.

    Parameters
    ----------
    positions : ndarray, shape (M, 2)
        Element coordinates in metres, M >= 2. Bearings are measured from
        the positive y axis (broadside for a ULA laid along x), positive
        toward positive x.
    speed_of_sound : float
        Propagation speed in m/s.
    sample_rate : float
        Sampling rate in Hz.
    """

    positions: np.ndarray
    speed_of_sound: float
    sample_rate: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise GeometryError(f"positions must be (M, 2), got {pos.shape}")
        if pos.shape[0] < 2:  # one element carries no bearing information
            raise GeometryError(f"an array needs at least 2 elements, got {pos.shape[0]}")
        if not np.all(np.isfinite(pos)):
            raise GeometryError("positions must be finite")
        same = np.triu(np.all(pos[:, None] == pos[None], axis=-1), k=1)
        if same.any():
            i, j = np.argwhere(same)[0]
            raise GeometryError(f"elements {i} and {j} share the position {pos[i].tolist()}")
        if not (self.speed_of_sound > 0 and np.isfinite(self.speed_of_sound)):
            raise GeometryError("speed_of_sound must be positive")
        if not (self.sample_rate > 0 and np.isfinite(self.sample_rate)):
            raise GeometryError("sample_rate must be positive")
        object.__setattr__(self, "positions", pos)

    @property
    def n_channels(self) -> int:
        return self.positions.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)

    @classmethod
    def ula(cls, n_elements: int, spacing: float, speed_of_sound: float,
            sample_rate: float) -> "ArrayGeometry":
        """Uniform linear array along the x axis, element 0 at the origin."""
        x = np.arange(n_elements, dtype=float) * spacing
        pos = np.column_stack([x, np.zeros(n_elements)])
        return cls(pos, speed_of_sound, sample_rate)


def steering_delays(geom: ArrayGeometry, bearing_deg) -> np.ndarray:
    """Per-element plane-wave delays in seconds, relative to element 0.

    A far-field source at bearing psi produces wavefronts whose arrival
    time at element m trails element 0 by (p_m - p_0) . u(psi) / c with
    u(psi) = (sin psi, cos psi). Shape (M,) for one bearing, (M, G) for a
    (G,) array of bearings.
    """
    psi = np.deg2rad(bearing_deg)
    u = np.array([np.sin(psi), np.cos(psi)])
    rel = geom.positions - geom.positions[0]
    return rel @ u / geom.speed_of_sound


def delay_spectrum(tau, n_samples: int, sample_rate: float) -> np.ndarray:
    """DFT spectrum of the length-`n_samples` fractional delay by `tau` seconds.

    Requires an even length so the Nyquist bin exists; its factor is the
    real cos(tau pi fs), all other bins get unit-modulus phase ramps. An
    array of delays gives one spectrum per delay along a new last axis.
    """
    n = int(n_samples)
    if n % 2 != 0 or n < 2:
        raise BatchShapeError(f"delay spectrum needs an even length, got {n}")
    shift = np.asarray(tau, dtype=float) * sample_rate  # delay in samples
    k = np.arange(n)
    signed = np.where(k <= n // 2, k, k - n)
    gamma = np.exp(-2j * np.pi * signed * shift[..., None] / n)
    gamma[..., n // 2] = np.cos(np.pi * shift)
    return gamma


def make_steering(geom: ArrayGeometry, bearing_deg, n_samples: int) -> np.ndarray:
    """Per-channel steering spectra, (M, N) complex for one bearing.

    Row m is the DFT spectrum of the channel-m delay operator: applying it
    to a source batch gives the delayed copy on that channel, applying its
    conjugate to a received channel aligns it back on element 0. A (G,)
    array of bearings gives (M, G, N).
    """
    return delay_spectrum(steering_delays(geom, bearing_deg), n_samples, geom.sample_rate)


def apply_steering(spectra: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Propagate a single source batch onto all channels.

    Returns the (N, M) array whose column m is the source delayed by the
    channel-m steering delay. Used by the simulator; the beamformer goes
    the other way.
    """
    n = spectra.shape[1]
    src = np.asarray(source, dtype=float)
    if src.ndim != 1 or src.shape[0] != n:
        raise BatchShapeError(f"source must be length {n}, got {src.shape}")
    spec = np.fft.fft(src)
    out = np.fft.ifft(spectra * spec, axis=1).real
    return out.T.copy()


class BeamformGrid:
    """Reusable beamformer for a fixed bearing grid.

    Stores the conjugate steering spectra of every grid bearing over the
    non-negative DFT bins, shape (N/2+1, M, G), so a stack of K batches
    costs one rfft plus one (K, M) @ (M, G) product per bin. Columns out of
    `energies` match `bearings_deg` order.
    """

    def __init__(self, geom: ArrayGeometry, bearings_deg: np.ndarray, n_samples: int):
        self.geom = geom
        self.bearings_deg = np.asarray(bearings_deg, dtype=float)
        self.n_samples = int(n_samples)
        half = self.n_samples // 2 + 1
        steer = make_steering(geom, self.bearings_deg, n_samples)[..., :half]  # (M, G, N/2+1)
        self._steer = np.ascontiguousarray(steer.conj().transpose(2, 0, 1))

    def energies(self, batches: np.ndarray) -> np.ndarray:
        """Beamformed energy at every grid bearing, (K, G), for a (K, N, M) stack.

        Parseval over the rfft bins: bin n of a real batch mirrors bin N - n,
        so every bin but DC and Nyquist counts twice. A batch's energies do
        not depend on the stack it comes in: BLAS multiplies a one-row
        product by another kernel, whose last bits differ, so a single batch
        goes through as two copies of itself.
        """
        data = np.asarray(batches, dtype=float)
        n, m = self.n_samples, self.geom.n_channels
        if data.ndim != 3 or data.shape[1:] != (n, m):
            raise BatchShapeError(
                f"batch stack shape {data.shape} does not match grid (K, {n}, {m})")
        if data.shape[0] == 1:
            return self.energies(np.concatenate([data, data]))[:1]
        spec = np.fft.rfft(data, axis=1)  # (K, N/2+1, M)
        out = np.zeros((data.shape[0], self.bearings_deg.size))
        for i, steer in enumerate(self._steer):
            aligned = spec[:, i] @ steer  # (K, G)
            power = aligned.real ** 2 + aligned.imag ** 2
            out += power if i in (0, n // 2) else 2.0 * power
        return out / n
