"""CA-CFAR detection and the detection-sequence likelihood ratio."""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sonartkbd.config import ConfigError, default_config
from sonartkbd.detect import (_suppress_runs, _window_kernel, _z_quantile, cfar_detect,
                              cfar_detections, detection_log_lr)


def cfar_params(**kw):
    """The real profile's config with the given `cfar_*` values replaced."""
    return replace(default_config("real"), **{f"cfar_{k}": v for k, v in kw.items()})


def clutter_model(**kw):
    """The real profile's config with the given `clutter_*` values replaced."""
    return replace(default_config("real"), **{f"clutter_{k}": v for k, v in kw.items()})


def test_param_validation():
    """Detector and clutter values are checked once, where they are set: in the config."""
    for bad in (dict(cfar_guard_cells=-1), dict(cfar_train_cells=0), dict(cfar_alpha=0.0),
                dict(clutter_rate=0.0), dict(clutter_prob_detect=1.5)):
        with pytest.raises(ConfigError):
            replace(default_config("real"), **bad)


def test_z_quantile_frozen():
    assert _z_quantile(1e-3) == pytest.approx(3.090232306167813, abs=1e-12)
    assert _z_quantile(0.25) == pytest.approx(0.6744897501960817, abs=1e-12)
    for alpha in np.geomspace(1e-12, 0.4, 2004):
        assert _z_quantile(float(alpha)) == float(norm.isf(alpha)), alpha


def test_z_quantile_port_is_exact_in_the_far_tail_and_near_the_median():
    """Both tail branches of the port (x below and above 8) and the centre
    branch up to alpha = 1/2 give scipy's bits."""
    alphas = np.concatenate([np.geomspace(1e-300, 1e-12, 1000), np.linspace(0.4, 0.5, 1001)])
    want = norm.isf(alphas)
    for alpha, z in zip(alphas, want):
        assert _z_quantile(float(alpha)) == float(z), alpha


def test_window_kernel_layout():
    k = _window_kernel(cfar_params(guard_cells=2, train_cells=3))
    # three training taps, two guard cells, the test cell, mirrored
    assert k.tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1]


def test_constant_rows_fire_nothing():
    """Zero training spread means threshold == value; strict > keeps quiet."""
    params = cfar_params(guard_cells=2, train_cells=4, train_rows=3)
    idx, threshold = cfar_detect(np.full((4, 50), 7.0), params)
    assert idx.size == 0
    np.testing.assert_allclose(threshold, 7.0, atol=1e-9)


def test_spike_is_detected_at_its_cell():
    rng = np.random.default_rng(0)
    params = cfar_params(guard_cells=2, train_cells=8, train_rows=4, alpha=1e-3)
    stack = rng.normal(10.0, 1.0, size=(5, 80))
    stack[-1, 37] = 40.0
    idx, _ = cfar_detect(stack, params)
    assert idx.tolist() == [37]


def test_adjacent_detections_collapse_to_peak():
    rng = np.random.default_rng(1)
    params = cfar_params(guard_cells=2, train_cells=8, train_rows=4, alpha=1e-3)
    stack = rng.normal(10.0, 1.0, size=(5, 80))
    stack[-1, 40:43] = 35.0, 45.0, 36.0
    idx, _ = cfar_detect(stack, params)
    assert 41 in idx.tolist()
    assert not {40, 42} & set(idx.tolist())


def row_and_history_cfar(row, history, cfg):
    """The earlier `cfar_detect(row, history, cfg)`, kept as the oracle: it
    trains on `history` (None or up to `cfar_train_rows` rows, oldest first)
    stacked over `row`."""
    row = np.asarray(row, dtype=float)
    if history is None or len(history) == 0:
        stack = row[None, :]
    else:
        history = np.atleast_2d(np.asarray(history, dtype=float))
        stack = np.vstack([history, row[None, :]])
    kernel = _window_kernel(cfg)
    col_sum = stack.sum(axis=0)
    col_sumsq = (stack ** 2).sum(axis=0)
    n_rows = stack.shape[0]
    train_sum = np.convolve(col_sum, kernel, mode="same")
    train_sumsq = np.convolve(col_sumsq, kernel, mode="same")
    train_count = np.convolve(np.full(row.shape[0], float(n_rows)), kernel, mode="same")
    mean = train_sum / train_count
    var = train_sumsq / train_count - mean ** 2
    scale = train_count / np.maximum(train_count - 1.0, 1.0)
    std = np.sqrt(np.maximum(var * scale, 0.0))
    threshold = mean + _z_quantile(cfg.cfar_alpha) * std
    fired = row > threshold
    return _suppress_runs(row, fired), threshold


@settings(max_examples=60, deadline=None)
@given(train_rows=st.integers(0, 4), guard=st.integers(0, 2), train=st.integers(1, 4),
       alpha=st.sampled_from([1e-3, 0.05, 0.3]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_stack_detector_equals_the_row_and_history_form(train_rows, guard, train, alpha,
                                                        seed, data):
    """`cfar_detect(vstack([history, row]))` gives the row-and-history
    detector's indices and threshold bit for bit, for 0..train_rows rows."""
    params = cfar_params(guard_cells=guard, train_cells=train, train_rows=train_rows,
                         alpha=alpha)
    n_hist = data.draw(st.integers(0, train_rows), label="history rows")
    stack = np.random.default_rng(seed).gamma(2.0, 1.0, size=(n_hist + 1, 40))
    stack[-1, seed % 40] += 20.0  # a peak, so most examples fire
    history = stack[:-1] if n_hist else data.draw(st.sampled_from([None, stack[:0]]))
    idx, threshold = cfar_detect(stack, params)
    want_idx, want_threshold = row_and_history_cfar(stack[-1].copy(), history, params)
    assert idx.dtype == want_idx.dtype and idx.tolist() == want_idx.tolist()
    assert np.array_equal(threshold, want_threshold)


def test_false_alarm_rate_is_controlled():
    """On iid Gaussian rows the empirical rate stays near alpha."""
    rng = np.random.default_rng(2)
    params = cfar_params(guard_cells=2, train_cells=16, train_rows=10, alpha=1e-2)
    n_rows = 400
    found = cfar_detections(rng.normal(0.0, 1.0, size=(n_rows, 181)), params,
                            np.arange(181.0))
    rate = sum(f.size for f in found) / (n_rows * 181)
    # local-max suppression and estimated std keep it loosely near alpha
    assert 0.0 < rate < 3e-2


def test_detector_streams_bearings():
    params = cfar_params(guard_cells=1, train_cells=4, train_rows=2, alpha=1e-3)
    bearings = np.linspace(-90.0, 90.0, 41)
    energies = np.random.default_rng(3).normal(5.0, 0.3, size=(3, 41))
    energies[2, 20] = 30.0
    found = cfar_detections(energies, params, bearings)
    assert len(found) == 3
    assert found[2].tolist() == [bearings[20]]


def test_train_rows_zero_uses_current_row_only():
    params = cfar_params(guard_cells=2, train_cells=8, train_rows=0, alpha=1e-3)
    rng = np.random.default_rng(4)
    # a globally hot row should not fire when its shape is flat
    hot = rng.normal(100.0, 1.0, size=60)
    spiky = rng.normal(10.0, 1.0, size=60)
    spiky[30] = 60.0
    found = cfar_detections(np.vstack([hot, spiky]), params, np.arange(60.0))
    assert found[0].size == 0
    assert found[1].tolist() == [30.0]


@pytest.mark.parametrize("train_rows", [0, 1, 3])
def test_cfar_detections_train_on_the_rows_before(train_rows):
    """Equal to a streaming detector that keeps the last `train_rows` rows."""
    params = cfar_params(guard_cells=1, train_cells=3, train_rows=train_rows, alpha=0.05)
    energies = np.random.default_rng(5).gamma(2.0, 1.0, size=(12, 30))
    bearings = np.linspace(-90.0, 90.0, 30)
    found = cfar_detections(energies, params, bearings)
    window = deque(maxlen=train_rows + 1)
    for k, row in enumerate(energies):
        window.append(row)
        idx, _ = cfar_detect(np.array(window), params)
        np.testing.assert_array_equal(found[k], bearings[idx])


@pytest.mark.parametrize("train_rows", [0, 1, 3])
def test_cfar_detections_from_a_row_train_on_the_rows_before_it(train_rows):
    """Detecting rows first.. of a record, or the record in pieces that each
    carry the last `train_rows` rows before them, gives the whole record's
    detections of those rows, bit for bit."""
    params = cfar_params(guard_cells=1, train_cells=3, train_rows=train_rows, alpha=0.05)
    energies = np.random.default_rng(6).gamma(2.0, 1.0, size=(12, 30))
    bearings = np.linspace(-90.0, 90.0, 30)
    whole = cfar_detections(energies, params, bearings)
    pieces = []
    for lo in range(0, 12, 5):
        first = max(lo - train_rows, 0)
        pieces += cfar_detections(energies[first:lo + 5], params, bearings, first=lo - first)
    assert len(pieces) == 12 and sum(map(len, whole)) > 0
    for got, want in zip(pieces, whole):
        np.testing.assert_array_equal(got, want)
    assert cfar_detections(energies, params, bearings, first=12) == []


def test_window_wider_than_grid_is_rejected():
    params = cfar_params(guard_cells=2, train_cells=4, train_rows=0)  # 13 cells
    assert len(cfar_detections(np.ones((2, 13)), params, np.arange(13.0))) == 2
    with pytest.raises(ValueError, match="13 cells .* 12-cell"):
        cfar_detections(np.ones((2, 12)), params, np.arange(12.0))


def test_detection_log_lr_frozen_values():
    clutter = clutter_model(rate=1.0, prob_detect=0.9, bearing_var=4.0)
    on_target = detection_log_lr(np.array([10.0]), 10.0, clutter)
    # ln(0.1 + 0.9 * 180 * N(0; 0, 4)) with N(0; 0, 4) = 0.19947114020071635
    assert float(on_target) == pytest.approx(3.4786004458483677, abs=1e-12)
    miss = detection_log_lr(np.array([]), 10.0, clutter)
    assert float(miss) == pytest.approx(np.log(0.1), abs=1e-12)
    sharper = detection_log_lr(np.array([10.0]), 10.0,
                               clutter_model(rate=0.2, prob_detect=0.9,
                                             bearing_var=4.0))
    assert float(sharper) == pytest.approx(5.085567263011165, abs=1e-12)


def test_detection_log_lr_vectorized():
    clutter = clutter_model(rate=0.5, prob_detect=0.9, bearing_var=9.0)
    dets = np.array([-20.0, 35.0])
    query = np.array([-20.0, 0.0, 35.0])
    vec = detection_log_lr(dets, query, clutter)
    assert vec.shape == (3,)
    scalars = [float(detection_log_lr(dets, float(b), clutter)) for b in query]
    np.testing.assert_allclose(vec, scalars, rtol=1e-12)
    assert vec[0] > vec[1] and vec[2] > vec[1]


@pytest.mark.parametrize("dets", [[], [-20.0], [-20.0, 35.0, 36.5, 80.0]])
def test_detection_log_lr_broadcasts_over_any_bearing_shape(dets):
    """A (G, 1) bearing column gives the 1-D result as a column, bit for bit."""
    clutter = clutter_model(rate=0.5, prob_detect=0.9, bearing_var=9.0)
    dets = np.array(dets)
    bearings = np.arange(-90.0, 91.0, 1.0)
    flat = detection_log_lr(dets, bearings, clutter)
    assert flat.shape == bearings.shape
    column = detection_log_lr(dets, bearings[:, None], clutter)
    assert column.shape == (bearings.size, 1)
    np.testing.assert_array_equal(column, flat[:, None])
    scalar = detection_log_lr(dets, 35.0, clutter)
    assert np.ndim(scalar) == 0
    assert float(scalar) == pytest.approx(flat[125], rel=1e-12)
    if dets.size == 0:
        np.testing.assert_allclose(flat, np.log(1.0 - 0.9), rtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(offset=st.floats(0.0, 60.0))
def test_detection_log_lr_decays_with_miss_distance(offset):
    clutter = clutter_model(rate=0.2, prob_detect=0.9, bearing_var=4.0)
    near = float(detection_log_lr(np.array([0.0]), 0.0, clutter))
    far = float(detection_log_lr(np.array([0.0]), offset, clutter))
    assert far <= near + 1e-12
    assert far >= np.log(1.0 - 0.9) - 1e-12
