"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines. Criteria 06-08 share one Monte-Carlo study fixture,
`study.calibrated_study` with its default protocol (calibration on 6
target-free datasets, then 20 target runs plus 20 target-free runs) on
`study.N_WORKERS` = min(2, cpu count) processes;
everything else is self-contained and fast.
"""

from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from sonartkbd.array import (ArrayGeometry, apply_steering, delay_spectrum,
                             make_steering, steering_delays)
from sonartkbd.config import default_config
from sonartkbd.noise import NoiseStream, VarModel, fit_var, whiten
from sonartkbd.stats import gauss_log_lr, t_log_lr
from sonartkbd.study import N_RUNS, N_WORKERS, calibrated_study
from sonartkbd.tkbd import BernoulliBelief, update
from test_eval import batch_ospa
from test_stats import t_logpdf_full


def criterion(n, ok, detail):
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def stacked_shift_operator(n, shifts):
    """Dense (n*len(shifts), n) operator: channel m is a circular shift."""
    eye = np.eye(n)
    return np.vstack([np.roll(eye, int(s), axis=0) for s in shifts])


@pytest.fixture(scope="module")
def study():
    """Calibrate every variant, then run the paired Monte-Carlo studies."""
    t0 = perf_counter()
    summaries = calibrated_study(default_config("sim"), workers=N_WORKERS).summaries
    return {"summaries": summaries, "wall_s": perf_counter() - t0}


def test_criterion_01_collapsed_ratio_matches_dense_t():
    """Beam-energy form of the t log-ratio against the full-covariance pdf."""
    n, m, dof = 8, 3, 5.0
    rng = np.random.default_rng(1001)
    t0 = perf_counter()
    worst = 0.0
    eye = np.eye(n * m)
    for _ in range(1000):
        shifts = rng.integers(-3, 4, size=m)
        h = stacked_shift_operator(n, shifts)
        eta = float(rng.uniform(0.05, 2.0))
        z = rng.standard_normal(n * m)
        fast = t_log_lr(float(np.sum((h.T @ z) ** 2)), float(z @ z), eta,
                        dof, n, m)
        dense = (t_logpdf_full(z, dof, eta * (h @ h.T) + eye)
                 - t_logpdf_full(z, dof, eye))
        worst = max(worst, abs(float(fast) - dense))
    elapsed = perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    criterion(1, ok, f"max |fast - dense| = {worst:.3e} over 1000 draws "
                     f"(tol 1e-9), {elapsed:.1f} s (budget 10 s)")


def test_criterion_02_zero_snr_is_exactly_neutral():
    """eta = 0 gives a bit-exact zero ratio and leaves existence untouched."""
    n, m, dof = 16, 4, 5.0
    rng = np.random.default_rng(1002)
    exact_zero = True
    for _ in range(10):
        z2 = float(rng.uniform(0.5, 2.0) * n * m)
        energy = rng.uniform(0.0, m, size=100) * z2
        vals = t_log_lr(energy, z2, 0.0, dof, n, m)
        exact_zero = exact_zero and bool(np.all(vals == 0.0))

    fparams = replace(default_config("sim"), filter_n_persist=500, filter_n_birth=100)
    worst_dq = 0.0
    for q in (0.013, 0.4, 0.5, 0.93, 0.999):
        states = rng.uniform(-1.0, 1.0, size=(300, 3))
        raw = rng.uniform(0.1, 1.0, 300)
        belief = BernoulliBelief(q, states, raw / raw.sum())
        post = update(belief, np.zeros(300), fparams, rng)
        worst_dq = max(worst_dq, abs(post.exist_prob - q))
    ok = exact_zero and worst_dq < 1e-12
    criterion(2, ok, f"1000 ratios all exactly 0.0: {exact_zero}, "
                     f"max |dq| = {worst_dq:.2e} (tol 1e-12)")


def test_criterion_03_gaussian_limit():
    """Huge-dof t ratio collapses onto the Gaussian energy detector."""
    n, m = 16, 4
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        z2 = float(rng.uniform(0.5, 2.0) * n * m)
        energy = float(rng.uniform(0.0, 0.9) * m * z2)
        eta = float(rng.uniform(0.05, 2.0))
        t_val = float(t_log_lr(energy, z2, eta, 1e8, n, m))
        g_val = float(gauss_log_lr(energy, eta, n, m))
        worst = max(worst, abs(t_val - g_val) / max(abs(g_val), 1e-4))
    ok = worst < 1e-3
    criterion(3, ok, f"max rel err = {worst:.3e} over 1000 inputs (tol 1e-3)")


def test_criterion_04_var_fit_and_whitening():
    """Known VAR(2): coefficient recovery and whiteness of the residuals."""
    a1 = np.array([[0.5, 0.1, 0.0, 0.0],
                   [0.0, 0.4, 0.1, 0.0],
                   [0.0, 0.0, 0.3, 0.1],
                   [0.1, 0.0, 0.0, 0.4]])
    a2 = np.full((4, 4), 0.05) - np.diag(np.full(4, 0.05)) \
        + np.diag([-0.2, -0.15, -0.1, -0.2])
    cov = np.array([[1.0, 0.3, 0.1, 0.0],
                    [0.3, 1.2, 0.2, 0.1],
                    [0.1, 0.2, 0.9, 0.3],
                    [0.0, 0.1, 0.3, 1.1]])
    truth = VarModel(np.stack([a1, a2]), cov)
    t0 = perf_counter()
    rng = np.random.default_rng(1004)
    data = NoiseStream(truth, rng).take(100_000)
    fitted = fit_var(data, 2)
    coeff_err = float(np.abs(fitted.coeffs - truth.coeffs).max())
    white, _, warmup = whiten(fitted, data)
    w = white[warmup:]
    lag0 = w.T @ w / w.shape[0]
    lag1 = w[:-1].T @ w[1:] / (w.shape[0] - 1)
    lag0_err = float(np.abs(lag0 - np.eye(4)).max())
    lag1_err = float(np.abs(lag1).max())
    elapsed = perf_counter() - t0
    ok = coeff_err < 0.05 and lag0_err < 0.05 and lag1_err < 0.02 \
        and elapsed < 30.0
    criterion(4, ok, f"coeff err {coeff_err:.4f} (tol 0.05), "
                     f"lag-0 err {lag0_err:.4f} (tol 0.05), "
                     f"lag-1 err {lag1_err:.4f} (tol 0.02), "
                     f"{elapsed:.1f} s (budget 30 s)")


def test_criterion_05_steering_exactness():
    """Integer delays are exact shifts; fractional delays match analytically."""
    geom = ArrayGeometry.ula(5, 8.0, 1500.0, 375.0)
    n = 64
    rng = np.random.default_rng(1005)
    x = rng.standard_normal(n)
    op = make_steering(geom, 90.0, n)
    shifts = np.rint(steering_delays(geom, 90.0) * geom.sample_rate).astype(int)
    steered = apply_steering(op, x)
    int_err = 0.0
    for ch, s in enumerate(shifts):
        shift_matrix = np.roll(np.eye(n), int(s), axis=0)
        int_err = max(int_err, float(np.abs(steered[:, ch]
                                            - shift_matrix @ x).max()))

    # bin-centred tone through a fractional delay, against the exact shift
    k, tau = 5, 0.42 / geom.sample_rate
    t_idx = np.arange(n)
    tone = np.cos(2 * np.pi * k * t_idx / n)
    gamma = delay_spectrum(tau, n, geom.sample_rate)
    delayed = np.fft.ifft(gamma * np.fft.fft(tone)).real
    expected = np.cos(2 * np.pi * k * (t_idx - tau * geom.sample_rate) / n)
    frac_rms = float(np.sqrt(np.mean((delayed - expected) ** 2)))
    ok = int_err < 1e-12 and frac_rms < 1e-6
    criterion(5, ok, f"integer-shift err {int_err:.2e} (tol 1e-12), "
                     f"fractional tone rms {frac_rms:.2e} (tol 1e-6)")


def test_criterion_06_detection_gain_over_reference(study):
    """Heavy-tailed tracker must confirm at least 2 dB earlier than CFAR."""
    tvar = study["summaries"]["tvar"]
    cfar = study["summaries"]["cfar"]
    gain = cfar["median_eta_db"] - tvar["median_eta_db"]
    wall_min = study["wall_s"] / 60.0
    ok = bool(np.isfinite(gain) and gain >= 2.0 and wall_min < 15.0)
    criterion(6, ok, f"median detection SNR tvar {tvar['median_eta_db']:.1f} dB "
                     f"({tvar['n_detected']}/{tvar['n_runs']} runs) vs cfar "
                     f"{cfar['median_eta_db']:.1f} dB ({cfar['n_detected']}/"
                     f"{cfar['n_runs']}), gain {gain:.1f} dB (need >= 2), "
                     f"study wall {wall_min:.1f} min (budget 15)")


def test_criterion_07_tail_model_steadies_confirmation(study):
    """Gaussian variant must flicker more after detection than the t variant."""
    tvar = study["summaries"]["tvar"]
    gvar = study["summaries"]["gvar"]
    ok = bool(gvar["median_flips"] > tvar["median_flips"])
    criterion(7, ok, f"median flips after detect: gvar {gvar['median_flips']:.1f}"
                     f" vs tvar {tvar['median_flips']:.1f} (need strictly more)")


def test_criterion_08_no_false_tracks_when_calibrated(study):
    """Calibrated variants stay silent on fresh target-free runs."""
    counts = {v: s["false_tracks"] for v, s in study["summaries"].items()}
    ok = all(c == 0 for c in counts.values())
    detail = ", ".join(f"{v} {c}/{N_RUNS}" for v, c in counts.items())
    criterion(8, ok, f"sustained false confirmations: {detail} (need all 0)")


def test_criterion_09_ospa_edge_cases():
    miss, hit, far, near = batch_ospa([None, 12.0, -80.0, 15.5], 12.0)
    ok = miss == 30.0 and hit == 0.0 and far == 30.0 and near == 3.5
    criterion(9, ok, f"miss {miss}, exact hit {hit}, saturated {far}, "
                     f"in-range {near} (expected 30/0/30/3.5)")


def test_criterion_10_sea_trial_comparison_excluded():
    print("criterion 10: EXCLUDED - no sea-trial recordings are available in "
          "this environment; the simulated-scenario studies (criteria 06-08) "
          "stand in for the recorded-data comparison")
