"""VAR fitting, whitening, simulation, and the binary model format."""

import functools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov, solve_triangular

from sonartkbd import noise
from sonartkbd.config import default_config
from sonartkbd.noise import (FitError, InstabilityError, ModelFileError,
                             NoiseStream, VarModel, WhitenState, fit_var,
                             load_var, save_var, select_order, whiten)
from sonartkbd.study import default_ambient_model, default_geometry, synth_sea_recording


def known_var2():
    """A comfortably stable 4-channel order-2 model."""
    a1 = np.array([
        [0.5, 0.1, 0.0, 0.0],
        [0.0, 0.4, 0.1, 0.0],
        [0.0, 0.0, 0.3, 0.1],
        [0.1, 0.0, 0.0, 0.4],
    ])
    a2 = np.array([
        [-0.2, 0.0, 0.05, 0.0],
        [0.0, -0.15, 0.0, 0.05],
        [0.05, 0.0, -0.1, 0.0],
        [0.0, 0.05, 0.0, -0.2],
    ])
    cov = np.array([
        [1.0, 0.3, 0.1, 0.0],
        [0.3, 1.2, 0.2, 0.1],
        [0.1, 0.2, 0.9, 0.3],
        [0.0, 0.1, 0.3, 1.1],
    ])
    return VarModel(np.stack([a1, a2]), cov)


def test_model_shape_validation():
    with pytest.raises(FitError):
        VarModel(np.zeros((2, 3, 4)), np.eye(4))
    with pytest.raises(FitError):
        VarModel(np.zeros((2, 4, 4)), np.eye(3))


def test_spectral_radius_and_stationary_cov():
    model = known_var2()
    rho = model.spectral_radius()
    assert 0.0 < rho < 1.0
    s = model.stationary_cov()
    # stationarity: S solves the companion-form Lyapunov equation, so the
    # lag-0 covariance of a long simulation should approach it
    sim = NoiseStream(model, np.random.default_rng(1)).take(200_000)
    emp = np.cov(sim.T)
    np.testing.assert_allclose(emp, s, rtol=0.08, atol=0.02)


def test_unstable_model_has_no_stationary_cov():
    a = np.eye(2)[None] * 1.01
    model = VarModel(a, np.eye(2))
    assert model.spectral_radius() > 1.0
    with pytest.raises(InstabilityError):
        model.stationary_cov()


def test_fit_recovers_known_coefficients():
    model = known_var2()
    data = NoiseStream(model, np.random.default_rng(2)).take(100_000)
    fit = fit_var(data, 2)
    assert np.abs(fit.coeffs - model.coeffs).max() < 0.05
    assert np.abs(fit.noise_cov - model.noise_cov).max() < 0.05


def test_whitening_recovers_exact_innovations():
    """Whitening with the generating model must invert it sample for sample."""
    model = known_var2()
    rng = np.random.default_rng(3)
    n = 500
    innov = rng.standard_normal((n, 4)) @ model.noise_chol().T
    # regenerate the realisation from those exact innovations
    data = np.zeros((n, 4))
    for t in range(n):
        acc = innov[t].copy()
        for i in range(1, 3):
            if t - i >= 0:
                acc += model.coeffs[i - 1] @ data[t - i]
        data[t] = acc
    white, _, warmup = whiten(model, data)
    expected = np.linalg.solve(model.noise_chol(), innov.T).T
    np.testing.assert_allclose(white[warmup:], expected[warmup:], atol=1e-10)


def test_whitened_noise_is_white():
    model = known_var2()
    data = NoiseStream(model, np.random.default_rng(4)).take(100_000)
    white, _, warmup = whiten(model, data)
    w = white[warmup:]
    lag0 = w.T @ w / w.shape[0]
    np.testing.assert_allclose(lag0, np.eye(4), atol=0.02)
    lag1 = w[1:].T @ w[:-1] / (w.shape[0] - 1)
    assert np.abs(lag1).max() < 0.02


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.integers(0, 1000), max_size=6))
def test_chunked_whitening_matches_whole(cuts):
    """Whitening in any chunking, empty chunks included, equals one call.

    Bit for bit when every chunk has 2 or more rows. A 1-row chunk meets its
    lag products through numpy's vector-matrix path and its solve through a
    single right-hand side, whose last bits can differ, so it only has to
    agree to 1e-12.
    """
    model = known_var2()
    data = NoiseStream(model, np.random.default_rng(5)).take(1000)
    whole, _, _ = whiten(model, data)
    state = None
    parts = []
    for chunk in np.array_split(data, sorted(cuts)):
        if chunk.size == 0:
            continue
        out, state, _ = whiten(model, chunk, state)
        parts.append(out)
    if min(len(part) for part in parts) >= 2:
        assert np.array_equal(np.vstack(parts), whole)
    else:
        np.testing.assert_allclose(np.vstack(parts), whole, atol=1e-12)


def residual_in_one_product(model, y, history):
    """The VAR residual as one lag product per lag over the whole input,
    stacked behind the history; also returns that stack."""
    p, n = model.order, y.shape[0]
    ext = np.vstack([history, y]) if p else y
    resid = y.copy()
    for i in range(1, p + 1):
        resid -= ext[p - i:p - i + n] @ model.coeffs[i - 1].T
    return resid, ext


def whiten_in_one_product(model, y, state):
    """Whitening as `residual_in_one_product` and one product with the
    inverted factor."""
    p, n = model.order, y.shape[0]
    resid, ext = residual_in_one_product(model, y, state.history)
    white = resid @ np.linalg.inv(model.noise_chol()).T
    new_hist = ext[n:] if p else state.history
    return white, new_hist, state.seen + n, int(min(max(p - state.seen, 0), n))


def random_var(order, m=8, seed=0):
    rng = np.random.default_rng(seed)
    mix = np.eye(m) + 0.2 * rng.standard_normal((m, m))
    return VarModel(0.02 * rng.standard_normal((order, m, m)), mix @ mix.T)


T = noise._TILE


@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("n", [1, T - 1, T, T + 1, T + 2, 2 * T + 2880])
@pytest.mark.parametrize("order", [0, 2, 14])
def test_tiled_whitening_equals_one_product(order, n, carried):
    """Tiles, including a tail that would have 1 row, change no bits."""
    model = random_var(order, seed=order)
    rng = np.random.default_rng(n)
    state = (WhitenState(rng.standard_normal((order, 8)), 5) if carried
             else WhitenState.fresh(model))
    y = rng.standard_normal((n, 8))
    white, new_state, warmup = whiten(model, y, state)
    want, history, seen, want_warmup = whiten_in_one_product(model, y, state)
    assert np.array_equal(white, want)
    assert np.array_equal(new_state.history, history)
    assert new_state.seen == seen and warmup == want_warmup


def test_whitening_memory_is_the_output_and_a_few_tiles():
    """A bulk call's peak is the output and a few tiles, and the state it
    returns owns its history instead of pinning a copy of the input."""
    model = random_var(14)
    y = np.random.default_rng(1).standard_normal((76608, 8))
    state = WhitenState(np.ones((14, 8)), 3)
    tracemalloc.start()
    try:
        white, new_state, _ = whiten(model, y, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * white.nbytes
    assert new_state.history.base is None
    for other in (y, white, state.history):
        assert not np.shares_memory(new_state.history, other)


def test_whitening_widens_float32_input_exactly():
    model = random_var(14)
    y = np.random.default_rng(3).standard_normal((T + 9, 8)).astype(np.float32)
    white, state, _ = whiten(model, y)
    want, history, _, _ = whiten_in_one_product(model, y.astype(float), WhitenState.fresh(model))
    assert np.array_equal(white, want) and np.array_equal(state.history, history)


def test_whitening_nothing_keeps_the_history():
    model = random_var(2)
    state = WhitenState(np.arange(16.0).reshape(2, 8), 7)
    white, new_state, warmup = whiten(model, np.zeros((0, 8)), state)
    assert white.shape == (0, 8) and warmup == 0
    assert np.array_equal(new_state.history, state.history) and new_state.seen == 7


def test_whitening_rejects_nan_in_a_late_tile():
    model = random_var(2)
    y = np.random.default_rng(2).standard_normal((3 * T, 8))
    y[2 * T + 5, 3] = np.nan
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        whiten(model, y)


def test_whiten_warmup_counts():
    model = known_var2()
    w1, state, warm1 = whiten(model, np.zeros((1, 4)))
    assert warm1 == 1
    _, state, warm2 = whiten(model, np.zeros((3, 4)), state)
    assert warm2 == 1  # one more row completes the order-2 history
    _, _, warm3 = whiten(model, np.zeros((3, 4)), state)
    assert warm3 == 0


def test_order_zero_whitening_is_spatial_only():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = VarModel(np.zeros((0, 2, 2)), cov)
    rng = np.random.default_rng(6)
    data = rng.multivariate_normal([0, 0], cov, size=50_000)
    white, _, warmup = whiten(model, data)
    assert warmup == 0
    np.testing.assert_allclose(white.T @ white / 50_000, np.eye(2), atol=0.03)


def test_select_order_finds_truth():
    model = known_var2()
    data = NoiseStream(model, np.random.default_rng(7)).take(20_000)
    order, aic = select_order(data, 5)
    assert order == 2
    assert aic.shape == (6,)
    assert np.argmin(aic) == 2


def test_select_order_rejects_negative_max_order():
    data = np.random.default_rng(7).standard_normal((100, 2))
    with pytest.raises(FitError, match="max_order must be >= 0, got -1"):
        select_order(data, -1)


def per_order_aic(data, max_order):
    """Reference AIC: one `fit_var` per order, then ln det of its covariance."""
    t_total, m = data.shape
    scores = np.empty(max_order + 1)
    for p in range(max_order + 1):
        sign, logdet = np.linalg.slogdet(fit_var(data, p).noise_cov)
        scores[p] = t_total * logdet + 2.0 * p * m * m if sign > 0 else np.inf
    return int(np.argmin(scores)), scores


def _sea_recording():
    geom = default_geometry(default_config("sim"))
    return synth_sea_recording(geom, 20.0, np.random.default_rng(8))


def _zero_channel_recording():
    data = NoiseStream(known_var2(), np.random.default_rng(9)).take(2000)
    data[:, 2] = 0.0
    return data


@pytest.mark.parametrize("make, max_order", [
    (lambda: NoiseStream(known_var2(), np.random.default_rng(7)).take(20_000), 5),
    (_sea_recording, 12),
    (lambda: NoiseStream(known_var2(), np.random.default_rng(10)).take(500), 0),
    (_zero_channel_recording, 4),
], ids=["var2", "sea-8ch", "max-order-0", "zero-channel"])
def test_select_order_matches_per_order_fits(make, max_order):
    """The one-Gram-matrix scores equal a VAR fit per order, to 1e-9 relative."""
    data = make()
    order, scores = select_order(data, max_order)
    want_order, want = per_order_aic(data, max_order)
    assert order == want_order
    np.testing.assert_allclose(scores, want, rtol=1e-9, atol=0.0)


def dense_fit_var(data, order):
    """Reference VAR(p) fit: the full (T-p, pM) design matrix and its residuals."""
    t_total, m = data.shape
    target = data[order:]
    lagged = np.hstack([data[order - i:t_total - i] for i in range(1, order + 1)])
    beta = np.linalg.solve(lagged.T @ lagged, lagged.T @ target)
    resid = target - lagged @ beta
    coeffs = np.stack([beta[i * m:(i + 1) * m].T for i in range(order)])
    return coeffs, resid.T @ resid / (t_total - order - 1)


@pytest.mark.parametrize("make, order", [
    (lambda: NoiseStream(known_var2(), np.random.default_rng(2)).take(20_000), 2),
    (_sea_recording, 14),
], ids=["var2", "sea-8ch"])
def test_fit_matches_dense_residual_fit(make, order):
    """The Gram-matrix fit equals the design-matrix fit to 1e-10 relative."""
    data = make()
    coeffs, sigma = dense_fit_var(data, order)
    fit = fit_var(data, order)
    np.testing.assert_allclose(fit.coeffs, coeffs, rtol=0, atol=1e-10 * np.abs(coeffs).max())
    np.testing.assert_allclose(fit.noise_cov, sigma, rtol=1e-10, atol=0)


@pytest.mark.parametrize("p_max", [0, 1, 3, 14, 20])
@pytest.mark.parametrize("extra", [1, 20_000], ids=["minimum", "long"])
@pytest.mark.parametrize("lead", ["history", "zeros"])
def test_lag_gram_equals_explicit_lag_matrix_product(p_max, extra, lead):
    """The lag-product Gram matrix is z^T z of the explicit `_lag_rows`
    matrix to 1e-12, for `fit_var`'s layout (its first P samples as history)
    and `select_order`'s (P zero rows in front), down to the fewest samples."""
    m = 8
    t_total = p_max * m + p_max + 1 + extra
    y = np.random.default_rng(p_max).standard_normal((t_total, m)) + 3.0
    padded = y if lead == "history" else np.vstack([np.zeros((p_max, m)), y])
    z = noise._lag_rows(padded, p_max, 0, len(padded) - p_max)
    want = z.T @ z
    got = noise._lag_gram(padded, p_max)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


FITS = [lambda y: fit_var(y, 0), lambda y: fit_var(y, 2), lambda y: select_order(y, 3)]
FIT_IDS = ["fit-order-0", "fit-order-2", "select-order"]


@pytest.mark.parametrize("fit", FITS, ids=FIT_IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_fits_reject_non_finite_data_naming_the_row(fit, bad):
    data = NoiseStream(known_var2(), np.random.default_rng(4)).take(500)
    data[137, 2] = bad
    data[300, 0] = bad
    with pytest.raises(FitError, match=r"^data row 137 is not finite$"):
        fit(data)


@pytest.mark.parametrize("fit", FITS, ids=FIT_IDS)
def test_fits_reject_finite_data_whose_lag_products_overflow(fit):
    data = NoiseStream(known_var2(), np.random.default_rng(5)).take(500) * 1e300
    with pytest.raises(FitError, match="lag products overflow"):
        fit(data)


def test_select_order_zero_channel_scores_inf_and_picks_zero():
    """An all-zero channel makes every Sigma_w singular, the ridge path included."""
    order, scores = select_order(_zero_channel_recording(), 4)
    assert order == 0
    assert np.isposinf(scores).all()


def test_select_order_rejects_non_2d_data():
    with pytest.raises(FitError, match=r"data must be \(T, M\), got shape \(100,\)"):
        select_order(np.zeros(100), 2)


def test_select_order_checks_sample_count_against_max_order():
    """Too short for max_order fails up front and names max_order, not a smaller order."""
    data = np.random.default_rng(11).standard_normal((60, 4))
    with pytest.raises(FitError, match=r"= 61 samples for max_order 12, got 60"):
        select_order(data, 12)
    assert select_order(data, 11)[1].shape == (12,)


def test_stream_matches_batch_simulation():
    model = known_var2()
    a = NoiseStream(model, np.random.default_rng(8))
    b = NoiseStream(model, np.random.default_rng(8))
    whole = a.take(120)
    parts = np.vstack([b.take(30) for _ in range(4)])
    np.testing.assert_array_equal(whole, parts)
    assert whole.shape == (120, 4)


def per_sample_stream(model, rng, n):
    """n samples of the VAR recursion stepped one sample at a time after the
    burn-in, with the innovations drawn as NoiseStream draws them."""
    p, m = model.order, model.n_channels
    chol = model.noise_chol()
    coef = model.coeffs.transpose(1, 0, 2).reshape(m, p * m)
    hist = np.zeros(p * m)  # [y_{n-1}, ..., y_{n-p}]

    def run(count):
        innov = rng.standard_normal((count, m)) @ chol.T
        out = np.empty((count, m))
        for j in range(count):
            out[j] = innov[j] + coef @ hist
            hist[m:] = hist[:-m]
            hist[:m] = out[j]
        return out

    run(max(10 * p, 1000))
    return run(n)


def var1():
    return VarModel(np.array([[[0.6, 0.2], [-0.1, 0.5]]]), np.array([[1.0, 0.3], [0.3, 0.8]]))


def var40():
    """A stable 2-channel order-40 model: more lags than one lifted block holds."""
    model = VarModel(0.015 * np.random.default_rng(3).standard_normal((40, 2, 2)), np.eye(2))
    assert model.spectral_radius() < 0.95
    return model


def var20():
    """A stable 2-channel order-20 model: more lags than one block, fewer than two."""
    model = VarModel(0.02 * np.random.default_rng(5).standard_normal((20, 2, 2)), np.eye(2))
    assert model.spectral_radius() < 0.95
    return model


def fitted_ambient():
    """The default order-14, 8-channel generator model."""
    model, _ = default_ambient_model(default_geometry(default_config()))
    assert model.order == 14
    return model


@pytest.mark.parametrize("make", [var1, known_var2, fitted_ambient, var40, var20],
                         ids=["p1", "p2", "p14", "p40", "p20"])
def test_stream_matches_per_sample_recursion(make):
    model = make()
    want = per_sample_stream(model, np.random.default_rng(21), 3000)
    got = NoiseStream(model, np.random.default_rng(21)).take(3000)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("make", [var1, known_var2, fitted_ambient, var40],
                         ids=["p1", "p2", "p14", "p40"])
def test_stream_is_bit_identical_across_chunkings(make):
    """Takes that start and end inside blocks, one-sample takes among them,
    give the bits of one long take, on eight channels too."""
    sizes = (1, 31, 33, 64, 1000, 1, 31, 33, 64, 1, 1, 2, 15, 16, 17)
    whole = NoiseStream(make(), np.random.default_rng(22)).take(sum(sizes))
    stream = NoiseStream(make(), np.random.default_rng(22))
    np.testing.assert_array_equal(np.vstack([stream.take(n) for n in sizes]), whole)


@pytest.mark.parametrize("make", [var1, known_var2, var40], ids=["p1", "p2", "p40"])
def test_lifted_matrix_is_impulse_and_zero_input_response(make):
    """Block (l, k) of T is Psi_{l-k} and row block l of H is y_l from the
    history alone, both read off powers of the companion matrix."""
    model = make()
    m, block = model.n_channels, noise._BLOCK
    comp = model.companion()
    powers = [np.eye(comp.shape[0])]
    for _ in range(block):
        powers.append(comp @ powers[-1])
    want = np.zeros((block * m, (block + model.order) * m))
    for row in range(block):
        for col in range(row + 1):
            want[row * m:(row + 1) * m, col * m:(col + 1) * m] = powers[row - col][:m, :m]
        want[row * m:(row + 1) * m, block * m:] = powers[row + 1][:m]
    np.testing.assert_allclose(noise._lifted_var(model), want, rtol=0, atol=1e-12)


def test_order_zero_stream_returns_the_innovations():
    model = VarModel(np.zeros((0, 3, 3)), np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1],
                                                    [0.0, 0.1, 1.0]]))
    rng = np.random.default_rng(23)
    got = NoiseStream(model, rng).take(50)
    rng = np.random.default_rng(23)
    rng.standard_normal((1000, 3))  # burn-in
    np.testing.assert_array_equal(got, rng.standard_normal((50, 3)) @ model.noise_chol().T)


def test_stream_is_stationary_from_first_sample():
    """Burn-in happens at construction, not inside the first take()."""
    model = known_var2()
    stream = NoiseStream(model, np.random.default_rng(9))
    first = stream.take(20_000)
    target = model.stationary_cov()
    emp = np.cov(first.T)
    np.testing.assert_allclose(emp, target, rtol=0.1, atol=0.05)


def test_stream_rejects_unstable_model():
    model = VarModel(np.eye(3)[None] * 1.05, np.eye(3))
    with pytest.raises(InstabilityError):
        NoiseStream(model, np.random.default_rng(0))


def test_save_load_roundtrip(tmp_path):
    model = known_var2()
    path = tmp_path / "ambient.varm"
    save_var(model, path)
    back = load_var(path)
    np.testing.assert_array_equal(back.coeffs, model.coeffs)
    np.testing.assert_array_equal(back.noise_cov, model.noise_cov)


def test_load_rejects_corruption(tmp_path):
    model = known_var2()
    path = tmp_path / "ambient.varm"
    save_var(model, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.varm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ModelFileError):
        load_var(bad)
    short = tmp_path / "short.varm"
    short.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ModelFileError):
        load_var(short)


def test_load_rejects_covariance_that_is_not_positive_definite(tmp_path):
    model = VarModel(np.zeros((0, 2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]))
    path = tmp_path / "indefinite.varm"
    save_var(model, path)
    message = f"{path}: covariance is not positive definite"
    with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
        load_var(path)


@pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_load_rejects_covariance_whose_symmetrised_form_overflows(tmp_path, at):
    cov = np.eye(2)
    cov[at] = cov[at[::-1]] = 1.7e308
    path = tmp_path / "huge.varm"
    save_var(VarModel(np.zeros((1, 2, 2)), np.eye(2)), path)
    raw = bytearray(path.read_bytes())
    raw[-32:] = cov.astype("<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFileError, match="too large to symmetrise"):
        load_var(path)


def test_fit_rejects_short_data():
    with pytest.raises(FitError):
        fit_var(np.zeros((3, 4)), 14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(10, 200))
def test_whiten_output_finite(seed, n):
    model = known_var2()
    data = np.random.default_rng(seed).standard_normal((n, 4)) * 5.0
    white, state, warmup = whiten(model, data)
    assert np.isfinite(white).all()
    assert white.shape == data.shape
    assert 0 <= warmup <= min(2, n)
    assert isinstance(state, WhitenState)


def var3_8ch():
    """A stable 8-channel order-3 model with correlated innovations."""
    rng = np.random.default_rng(6)
    mix = np.eye(8) + 0.2 * rng.standard_normal((8, 8))
    model = VarModel(0.08 * rng.standard_normal((3, 8, 8)), mix @ mix.T)
    assert model.spectral_radius() < 0.95
    return model


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 70), min_size=1, max_size=8),
       which=st.sampled_from(["p20", "m8"]))
def test_run_on_drawn_normals_equals_take(sizes, which):
    """`run` on the normals a `take` would draw gives its bits, for any split."""
    model = var20() if which == "p20" else var3_8ch()
    taken = NoiseStream(model, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    driven = NoiseStream(model, rng)
    for n in sizes:
        want = taken.take(n)
        np.testing.assert_array_equal(driven.run(rng.standard_normal((n, model.n_channels))),
                                      want)


SPLIT_MODELS = {"p1": var1, "p2": known_var2, "p14": fitted_ambient, "p20": var20,
                "p40": var40}


@functools.cache
def split_model(which):
    return SPLIT_MODELS[which]()


@settings(max_examples=50, deadline=None)
@example(sizes=[1, 15, 1, 16, 80], which="p14")
@given(sizes=st.lists(st.integers(1, 80), min_size=1, max_size=8),
       which=st.sampled_from(sorted(SPLIT_MODELS)))
def test_any_split_gives_the_bits_of_one_take(sizes, which):
    """Every split of a take, one-sample pieces included, gives its bits."""
    model = split_model(which)
    whole = NoiseStream(model, np.random.default_rng(32)).take(sum(sizes))
    stream = NoiseStream(model, np.random.default_rng(32))
    np.testing.assert_array_equal(np.vstack([stream.take(n) for n in sizes]), whole)


def test_model_arrays_are_read_only_copies():
    coeffs, cov = known_var2().coeffs.copy(), known_var2().noise_cov.copy()
    model = VarModel(coeffs, cov)
    coeffs[0, 0, 0] = cov[0, 0] = 9.0  # the caller's arrays stay the caller's
    assert model.coeffs[0, 0, 0] == 0.5 and model.noise_cov[0, 0] != 9.0
    for arr in (model.coeffs, model.noise_cov):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("make", [var1, known_var2, var20], ids=["p1", "p2", "p20"])
def test_stored_stationary_figures_equal_a_fresh_solve(make):
    model = make()
    comp = model.companion()
    fresh = VarModel(model.coeffs, model.noise_cov).stationary_cov()
    assert model.spectral_radius() == np.abs(np.linalg.eigvals(comp)).max()
    first = model.stationary_cov()
    np.testing.assert_array_equal(first, fresh)
    first[:] = 0.0  # a copy: the stored covariance does not go stale
    np.testing.assert_array_equal(model.stationary_cov(), fresh)


ORACLE_MODELS = pytest.mark.parametrize("make", [var1, known_var2, fitted_ambient, var20],
                                        ids=["p1", "p2", "p14", "p20"])


@ORACLE_MODELS
def test_stationary_cov_agrees_with_a_lyapunov_solver(make):
    """The doubling sum is the companion-form Lyapunov solution to rounding."""
    model = make()
    q = np.zeros_like(model.companion())
    q[:model.n_channels, :model.n_channels] = model.noise_cov
    want = solve_discrete_lyapunov(model.companion(), q)[:model.n_channels, :model.n_channels]
    assert np.abs(model.stationary_cov() - want).max() <= 1e-12 * np.abs(want).max()


@ORACLE_MODELS
def test_whitening_agrees_with_a_triangular_solve(make):
    """The product with the inverted factor is the triangular solve to rounding."""
    model = make()
    y = NoiseStream(model, np.random.default_rng(12)).take(T + 100)
    white, _, _ = whiten(model, y)
    resid, _ = residual_in_one_product(model, y, WhitenState.fresh(model).history)
    want = solve_triangular(model.noise_chol(), resid.T, lower=True).T
    assert np.abs(white - want).max() <= 1e-13 * np.abs(want).max()


def test_noise_factor_is_lower_triangular_and_in_fortran_order():
    """LAPACK's layout: products with the factor take the bits the chunked
    stream tests pin."""
    chol = known_var2().noise_chol()
    assert chol.flags.f_contiguous and np.array_equal(chol, np.tril(chol))
    np.testing.assert_allclose(chol @ chol.T, known_var2().noise_cov, rtol=1e-14, atol=1e-15)


def test_pickled_model_carries_its_stored_figures():
    import pickle
    model = known_var2()
    cov = model.stationary_cov()
    back = pickle.loads(pickle.dumps(model))
    assert {"_radius", "_stationary"} <= set(vars(back))
    np.testing.assert_array_equal(back.stationary_cov(), cov)
    assert back.spectral_radius() == model.spectral_radius()
    assert not (back.coeffs.flags.writeable or back.noise_cov.flags.writeable)


@pytest.fixture(scope="module")
def saved_var2(tmp_path_factory):
    """A directory to write into and the bytes of `known_var2` saved."""
    root = tmp_path_factory.mktemp("var")
    save_var(known_var2(), root / "var2.varm")
    return root, (root / "var2.varm").read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_model_file_loads_clean_or_fails_with_model_file_error(saved_var2, data):
    """Byte flips and truncations either give a usable model or a ModelFileError."""
    root, good = saved_var2
    raw = bytearray(good)
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] ^= data.draw(st.integers(1, 255), label="mask")
    raw = raw[:data.draw(st.sampled_from([len(raw)]) | st.integers(0, len(raw) - 1),
                         label="length")]
    path = root / "bad.varm"
    path.write_bytes(bytes(raw))
    try:
        model = load_var(path)
    except ModelFileError:
        return
    assert np.isfinite(model.coeffs).all() and np.isfinite(model.noise_cov).all()
    assert np.isfinite(model.noise_chol()).all()
