"""Likelihood ratios for a steered broadband source in whitened noise.

The measurement model for one whitened batch z (stacked channel-major as an
NM vector) is heavy tailed: z is multivariate t with dof nu and scale matrix
Sigma = eta H H^T + I under the target hypothesis, or Sigma = I under noise
only, where H stacks the per-channel steering operators for the hypothesised
bearing. Because H^T H is (near) M I_N, the ratio collapses to a function of
just the beamformed energy B = ||H^T z||^2 and the batch energy ||z||^2, so
no NM x NM matrix is ever formed. The tests check this against the explicit
dense multivariate-t density.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """Raised when likelihood inputs leave the valid domain."""


def t_log_lr(energy, z_norm_sq, eta, dof, n_samples, n_channels):
    """Log likelihood ratio of target-at-eta versus noise only, t model.

    Parameters
    ----------
    energy : float or ndarray
        Beamformed energy B at the hypothesised bearing.
    z_norm_sq : float or ndarray
        Squared norm of the whole whitened batch, >= 0. Broadcast like `eta`.
    eta : float or ndarray
        Hypothesised linear SNR, >= 0. Broadcast against `energy`.
    dof : float
        Degrees of freedom nu of the multivariate t, `PipelineConfig`'s
        `tmodel_dof` (checked there to exceed 2).
    n_samples, n_channels : int
        Batch length N and channel count M, from a checked dataset.

    Returns
    -------
    float or ndarray
        ln L = -(N/2) ln(M eta + 1) - ((nu + NM)/2) ln(1 - c B) with
        c = eta / ((nu + ||z||^2)(1 + M eta)). Exactly zero at eta = 0.
    """
    b = np.asarray(energy, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        raise DomainError("eta must be nonnegative")
    if np.any(np.asarray(z_norm_sq) < 0):
        raise DomainError("z_norm_sq must be nonnegative")
    n, m, nu = n_samples, n_channels, dof
    c = eta / ((nu + z_norm_sq) * (1.0 + m * eta))
    arg = -c * b
    if np.any(arg <= -1.0):
        raise DomainError("c * B reached 1; energy exceeds its admissible bound")
    out = -0.5 * n * np.log1p(m * eta) - 0.5 * (nu + n * m) * np.log1p(arg)
    return out if out.ndim else float(out)


def gauss_log_lr(energy, eta, n_samples, n_channels):
    """Gaussian-model counterpart of :func:`t_log_lr`.

    ln L = -(N/2) ln(M eta + 1) + eta B / (2 (1 + M eta)). This is the
    nu -> inf limit of the t ratio and ignores the batch energy.
    """
    b = np.asarray(energy, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        raise DomainError("eta must be nonnegative")
    n, m = n_samples, n_channels
    out = -0.5 * n * np.log1p(m * eta) + eta * b / (2.0 * (1.0 + m * eta))
    return out if out.ndim else float(out)
