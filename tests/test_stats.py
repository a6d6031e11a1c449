"""Heavy-tailed and Gaussian energy log likelihood ratios."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.special import gammaln
from scipy.stats import multivariate_t

from sonartkbd.array import delay_spectrum
from sonartkbd.config import ConfigError, default_config
from sonartkbd.stats import DomainError, gauss_log_lr, t_log_lr


def t_logpdf_full(z: np.ndarray, dof: float, scale: np.ndarray) -> float:
    """Dense multivariate-t log density ln t_d(z; dof, 0, scale).

    Uses an explicit Cholesky of the scale matrix; the oracle that the
    collapsed beam-energy ratio is checked against.
    """
    z = np.asarray(z, dtype=float).ravel()
    d = z.shape[0]
    scale = np.asarray(scale, dtype=float)
    assert scale.shape == (d, d)
    lower = cholesky(scale, lower=True)
    half = solve_triangular(lower, z, lower=True)
    maha = float(half @ half)
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    return float(
        gammaln(0.5 * (dof + d)) - gammaln(0.5 * dof)
        - 0.5 * d * np.log(dof * np.pi) - 0.5 * logdet
        - 0.5 * (dof + d) * np.log1p(maha / dof)
    )


def shift_operator(n, shifts):
    """Dense (n*m, n) steering matrix for integer per-channel shifts."""
    eye = np.eye(n)
    return np.vstack([np.roll(eye, k, axis=0) for k in shifts])


def test_params_validation():
    """The t dof and the batch length are checked once, where they are set: in the config."""
    with pytest.raises(ConfigError):
        replace(default_config(), tmodel_dof=2.0)
    with pytest.raises(ConfigError):
        replace(default_config(), batch_samples=0)


def test_zero_snr_is_exactly_neutral():
    assert t_log_lr(123.4, 30.0, 0.0, 5.0, 8, 3) == 0.0
    assert gauss_log_lr(123.4, 0.0, 8, 3) == 0.0


def test_negative_snr_rejected():
    with pytest.raises(DomainError):
        t_log_lr(1.0, 1.0, -0.1, 5.0, 8, 3)
    with pytest.raises(DomainError):
        gauss_log_lr(1.0, -1e-9, 8, 3)


def test_energy_beyond_total_power_rejected():
    # the beam energy bound B <= M ||z||^2 keeps c B < 1; violating it
    # means the inputs are inconsistent and must not silently produce nan
    dof = 5.0
    z_norm_sq = 8.0
    bad_energy = 2.5 * (dof + z_norm_sq) * (1.0 + 2.0 * 1.0)
    with pytest.raises(DomainError):
        t_log_lr(bad_energy, z_norm_sq, 1.0, dof, 4, 2)


def test_matches_dense_covariance_ratio():
    """Woodbury-form ratio against explicit covariance log-pdfs."""
    n, m, dof = 8, 3, 5.0
    rng = np.random.default_rng(42)
    for _ in range(50):
        shifts = rng.integers(-3, 4, size=m)
        h = shift_operator(n, shifts)
        eta = float(rng.uniform(0.01, 2.0))
        z = rng.standard_normal(n * m)
        sigma = eta * (h @ h.T) + np.eye(n * m)
        dense = t_logpdf_full(z, dof, sigma) - t_logpdf_full(z, dof, np.eye(n * m))
        energy = float(np.sum((h.T @ z) ** 2))
        fast = t_log_lr(energy, float(z @ z), eta, dof, n, m)
        assert fast == pytest.approx(dense, abs=1e-10)


def test_gaussian_limit():
    rng = np.random.default_rng(7)
    for _ in range(100):
        nm = 32.0
        z_norm_sq = float(rng.uniform(0.5 * nm, 2.0 * nm))
        energy = float(rng.uniform(0.0, 4.0 * z_norm_sq))
        eta = float(rng.uniform(0.0, 1.5))
        t_val = t_log_lr(energy, z_norm_sq, eta, 1e8, 8, 4)
        g_val = gauss_log_lr(energy, eta, 8, 4)
        assert t_val == pytest.approx(g_val, rel=1e-3, abs=1e-6)


def test_vectorized_over_energy():
    energies = np.array([0.0, 5.0, 25.0, 100.0])
    vec = t_log_lr(energies, 30.0, 0.4, 5.0, 8, 3)
    scalars = [t_log_lr(float(e), 30.0, 0.4, 5.0, 8, 3) for e in energies]
    np.testing.assert_allclose(vec, scalars, rtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    e1=st.floats(0.0, 50.0),
    delta=st.floats(0.01, 50.0),
    eta=st.floats(1e-4, 3.0),
)
def test_monotone_in_energy(e1, delta, eta):
    """More beam energy can only argue harder for the target."""
    z_norm_sq = 200.0
    low = t_log_lr(e1, z_norm_sq, eta, 6.0, 4, 2)
    high = t_log_lr(e1 + delta, z_norm_sq, eta, 6.0, 4, 2)
    assert high > low


def test_dense_logpdf_against_scipy():
    rng = np.random.default_rng(0)
    dim = 6
    a = rng.standard_normal((dim, dim))
    sigma = a @ a.T + dim * np.eye(dim)
    z = rng.standard_normal(dim)
    ours = t_logpdf_full(z, 7.0, sigma)
    ref = multivariate_t.logpdf(z, loc=np.zeros(dim), shape=sigma, df=7.0)
    assert ours == pytest.approx(float(ref), abs=1e-10)


def test_heavy_tail_discounts_loud_batches():
    """Same beam energy counts for less when the whole batch is loud."""
    quiet = t_log_lr(60.0, 24.0, 0.5, 5.0, 8, 3)
    loud = t_log_lr(60.0, 240.0, 0.5, 5.0, 8, 3)
    assert loud < quiet


def test_nyquist_delay_spectrum_feeds_real_energies():
    # half-sample delay pushes the Nyquist coefficient through cos(pi/2) = 0
    gamma = delay_spectrum(0.5 / 375.0, 8, 375.0)
    assert gamma[4] == pytest.approx(0.0, abs=1e-15)


def test_t_log_lr_takes_an_array_of_batch_energies():
    """One call over K batches equals K scalar calls, row for row, bit for bit."""
    rng = np.random.default_rng(31)
    z2 = rng.uniform(10.0, 40.0, size=5)
    energy = rng.uniform(0.0, 1.0, size=(5, 7)) * z2[:, None]
    eta = rng.uniform(0.0, 2.0, size=7)
    bulk = t_log_lr(energy, z2[:, None], eta, 5.0, 8, 3)
    for k in range(5):
        assert np.array_equal(bulk[k], t_log_lr(energy[k], float(z2[k]), eta, 5.0, 8, 3))
    z2[3] = -1.0
    with pytest.raises(DomainError, match="z_norm_sq"):
        t_log_lr(energy, z2[:, None], eta, 5.0, 8, 3)
