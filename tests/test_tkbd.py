"""Bernoulli particle filter: prediction, update, resampling, extraction."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sonartkbd.config import ConfigError, default_config
from sonartkbd.tkbd import (BEARING_LIMIT_DEG, ETA_DB, PSI, PSIDOT,
                            BernoulliBelief, LikelihoodField, birth_cdfs,
                            effective_sample_size, extract, motion_step,
                            predict, reflect_bearing, sample_birth,
                            systematic_resample, update)


PERIOD = 0.17  # batch period in seconds


def small_params(**kw):
    """The sim profile's filter config with small clouds."""
    return replace(default_config("sim"),
                   **{"filter_n_persist": 200, "filter_n_birth": 50, **kw})


def birth_field(psi_grid, eta_grid, loglr):
    """A `LikelihoodField` whose birth CDF is `birth_cdfs` of its own grid."""
    field = LikelihoodField(psi_grid, eta_grid, loglr, None)
    with np.errstate(invalid="ignore"):  # an all -inf grid takes the uniform fallback
        return replace(field, cdf=birth_cdfs(field.grid))


def single_particle_belief(q, psi=0.0, psidot=0.0, eta=-5.0):
    states = np.array([[psi, psidot, eta]])
    return BernoulliBelief(q, states, np.array([1.0]))


def test_reflect_frozen_pairs():
    pairs = [(95.0, 85.0), (-95.0, -85.0), (185.0, -5.0), (270.0, -90.0),
             (89.0, 89.0), (-90.0, -90.0), (450.0, 90.0), (0.0, 0.0)]
    for raw, folded in pairs:
        assert reflect_bearing(np.array([raw]))[0] == pytest.approx(folded)


def fold_every_entry(psi_deg):
    """Reference fold: np.mod over every entry, in range or not."""
    folded = np.mod(np.asarray(psi_deg, dtype=float) + BEARING_LIMIT_DEG, 360.0)
    folded = np.where(folded > 180.0, 360.0 - folded, folded)
    return folded - BEARING_LIMIT_DEG


def test_reflect_is_bit_identical_to_folding_every_entry():
    rng = np.random.default_rng(12)
    edges = [90.0, -90.0, 180.0, -180.0, 270.0, 1e6, -1e6, 0.0, np.nan]
    psi = np.concatenate([rng.uniform(-90.0, 90.0, 5000), rng.uniform(-500.0, 500.0, 5000),
                          np.nextafter(90.0, [0.0, 180.0]),
                          np.nextafter(-90.0, [0.0, -180.0]), edges])
    got, want = reflect_bearing(psi), fold_every_entry(psi)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(got[-1])


@settings(max_examples=100, deadline=None)
@given(psi=st.floats(-1000.0, 1000.0))
def test_reflection_invariants(psi):
    out = float(reflect_bearing(np.array([psi]))[0])
    assert -BEARING_LIMIT_DEG <= out <= BEARING_LIMIT_DEG
    # folding at the array's end-fire lines preserves the physical cone
    assert np.sin(np.deg2rad(out)) == pytest.approx(np.sin(np.deg2rad(psi)),
                                                    abs=1e-9)


def test_predicted_existence_closed_form():
    params = small_params(filter_prob_survival=0.8, filter_prob_birth=0.2)
    belief = single_particle_belief(0.5)
    rng = np.random.default_rng(0)
    pred = predict(belief, params, PERIOD, None, rng)
    # 0.2 * 0.5 + 0.8 * 0.5
    assert pred.exist_prob == pytest.approx(0.5)
    assert pred.states.shape == (1 + params.filter_n_birth, 3)
    assert pred.weights.sum() == pytest.approx(1.0)
    # survivor keeps p_s q / q_pred of the mass, births share the rest
    assert pred.weights[0] == pytest.approx(0.8)
    assert pred.weights[1:].sum() == pytest.approx(0.2)


def test_predict_from_empty_belief():
    params = small_params(filter_prob_birth=0.05)
    rng = np.random.default_rng(1)
    belief = BernoulliBelief.empty(params, rng)
    pred = predict(belief, params, PERIOD, None, rng)
    assert pred.exist_prob == pytest.approx(0.05)


def test_update_closed_form():
    """One particle with ratio 2 at q = 1/2 lands on q = 2/3."""
    params = small_params()
    belief = single_particle_belief(0.5)
    rng = np.random.default_rng(2)
    post = update(belief, np.full(1, np.log(2.0)), params, rng)
    assert post.exist_prob == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_update_keeps_weights_normalised():
    params = small_params()
    rng = np.random.default_rng(3)
    states = rng.uniform(-1, 1, size=(100, 3))
    weights = np.full(100, 0.01)
    belief = BernoulliBelief(0.3, states, weights)
    post = update(belief, rng.normal(0, 3, 100), params, rng)
    assert post.weights.sum() == pytest.approx(1.0)
    assert (post.weights >= 0).all()


def test_update_handles_vanishing_ratios():
    params = small_params()
    belief = single_particle_belief(0.4)
    rng = np.random.default_rng(4)
    post = update(belief, np.full(1, -np.inf), params, rng)
    assert post.exist_prob == 0.0
    assert post.states.shape == belief.states.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_update_rejects_nan_and_positive_inf(bad):
    params = small_params()
    rng = np.random.default_rng(8)
    belief = BernoulliBelief(0.5, rng.uniform(-1, 1, size=(10, 3)), np.full(10, 0.1))
    ratios = np.zeros(10)
    ratios[3] = bad
    with pytest.raises(ValueError, match=r"NaN or \+inf"):
        update(belief, ratios, params, rng)


def test_update_rejects_one_ratio_per_wrong_particle_count():
    params = small_params()
    rng = np.random.default_rng(8)
    belief = BernoulliBelief(0.5, rng.uniform(-1, 1, size=(10, 3)), np.full(10, 0.1))
    for bad in (np.zeros(9), np.zeros((10, 1)), 0.0):
        with pytest.raises(ValueError, match="one value per particle"):
            update(belief, bad, params, rng)


def test_update_saturated_existence_stays_saturated():
    params = small_params()
    belief = single_particle_belief(1.0)
    rng = np.random.default_rng(5)
    post = update(belief, np.full(1, -8.0), params, rng)
    assert post.exist_prob == pytest.approx(1.0)


def test_update_resamples_oversized_cloud():
    params = small_params(filter_n_persist=64)
    rng = np.random.default_rng(6)
    n = 300
    states = rng.uniform(-1, 1, size=(n, 3))
    belief = BernoulliBelief(0.5, states, np.full(n, 1.0 / n))
    post = update(belief, np.zeros(n), params, rng)
    assert post.states.shape == (64, 3)
    np.testing.assert_allclose(post.weights, 1.0 / 64)


def test_effective_sample_size():
    assert effective_sample_size(np.full(10, 0.1)) == pytest.approx(10.0)
    one_hot = np.zeros(10)
    one_hot[3] = 1.0
    assert effective_sample_size(one_hot) == pytest.approx(1.0)


def test_systematic_resample_counts():
    """Counts track n * w within one for every index, by construction."""
    rng = np.random.default_rng(7)
    weights = np.array([0.5, 0.25, 0.125, 0.125])
    idx = systematic_resample(weights, 64, rng)
    counts = np.bincount(idx, minlength=4)
    np.testing.assert_array_equal(counts, [32, 16, 8, 8])
    degenerate = np.zeros(5)
    degenerate[2] = 1.0
    idx = systematic_resample(degenerate, 16, rng)
    assert (idx == 2).all()


class _TopUniform:
    """Generator stand-in whose single uniform draw is the largest below 1."""

    def uniform(self):
        return np.nextafter(1.0, 0.0)


def test_systematic_resample_stays_in_range_when_weights_sum_short():
    weights = np.full(10, 0.1)
    assert np.cumsum(weights)[-1] < 1.0
    idx = systematic_resample(weights, 10, _TopUniform())
    assert idx.shape == (10,)
    assert idx.max() == 9  # the stride at 0.99999... used to land on index 10
    assert (np.diff(idx) >= 0).all()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40))
def test_systematic_resample_is_unbiased_enough(seed, n):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0, 1, n)
    weights = raw / raw.sum()
    idx = systematic_resample(weights, 100, rng)
    counts = np.bincount(idx, minlength=n)
    assert idx.shape == (100,)
    assert np.abs(counts - 100 * weights).max() < 1.0 + 1e-9


def test_motion_step_moves_bearing_with_rate():
    params = small_params(filter_q_cv=0.0, filter_q_dbsnr=0.0)
    states = np.array([[10.0, 2.0, -5.0]])
    out = motion_step(states, params, 0.5, np.random.default_rng(8))
    assert out[0, PSI] == pytest.approx(11.0)
    assert out[0, PSIDOT] == pytest.approx(2.0)
    assert out[0, ETA_DB] == pytest.approx(-5.0)


def test_motion_step_reflects_at_endfire():
    params = small_params(filter_q_cv=0.0, filter_q_dbsnr=0.0)
    states = np.array([[89.5, 2.0, -5.0]])
    out = motion_step(states, params, 1.0, np.random.default_rng(9))
    assert out[0, PSI] == pytest.approx(88.5)


def test_birth_without_field_respects_prior_box():
    params = small_params(filter_snr_lo_db=-12.0, filter_snr_hi_db=-2.0)
    rng = np.random.default_rng(10)
    births = sample_birth(None, params, 500, rng)
    assert births.shape == (500, 3)
    assert (np.abs(births[:, PSI]) <= BEARING_LIMIT_DEG).all()
    assert (births[:, ETA_DB] >= -12.0).all()
    assert (births[:, ETA_DB] <= -2.0).all()


def test_birth_concentrates_on_likelihood_peak():
    params = small_params(filter_snr_lo_db=-12.0, filter_snr_hi_db=-2.0)
    psi_grid = np.arange(-90.0, 91.0, 1.0)
    eta_grid = np.arange(-12.0, -1.0, 1.0)

    def loglr(psi_deg, eta_db):  # one column, broadcast over the SNR axis
        return np.where(np.abs(psi_deg - 30.0) < 2.0, 8.0, 0.0)

    field = birth_field(psi_grid, eta_grid, loglr)
    rng = np.random.default_rng(11)
    births = sample_birth(field, params, 2000, rng)
    near = np.abs(births[:, PSI] - 30.0) < 4.0
    assert near.mean() > 0.9


def choice_cells(grid, n, rng):
    """Birth cells drawn by Generator.choice from the normalised exp(ln L) field."""
    flat = grid.ravel()
    with np.errstate(invalid="ignore"):
        probs = np.exp(flat - flat.max())
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        probs = np.full(flat.size, 1.0 / flat.size)
    else:
        probs = probs / total
    return rng.choice(flat.size, size=n, p=probs)


@pytest.mark.parametrize("loglr", [
    lambda psi, eta: np.where(np.abs(psi - 30.0) < 2.0, 8.0, 0.0) + 0.1 * eta,
    lambda psi, eta: np.zeros(np.broadcast(psi, eta).shape),
    lambda psi, eta: np.full(np.broadcast(psi, eta).shape, -np.inf),
], ids=["peaked", "flat", "all-minus-inf"])
def test_birth_cells_match_generator_choice(loglr):
    """Births land in the cells Generator.choice(p=...) draws from the same state."""
    params = small_params(filter_snr_lo_db=-12.0, filter_snr_hi_db=-2.0)
    psi_grid = np.arange(-90.0, 91.0, 1.0)
    eta_grid = np.arange(-12.0, -1.0, 1.0)
    field = birth_field(psi_grid, eta_grid, loglr)
    births = sample_birth(field, params, 500, np.random.default_rng(12))
    want = choice_cells(field.grid, 500, np.random.default_rng(12))
    # jitter stays inside half a cell, so the nearest centre is the drawn cell
    pi = np.abs(births[:, PSI, None] - psi_grid).argmin(axis=1)
    ei = np.abs(births[:, ETA_DB, None] - eta_grid).argmin(axis=1)
    np.testing.assert_array_equal(np.ravel_multi_index((pi, ei), field.grid.shape), want)


def test_likelihood_field_rejects_a_grid_of_the_wrong_shape():
    field = LikelihoodField(np.arange(5.0), np.arange(3.0), lambda psi, eta: np.zeros((3, 5)),
                            None)
    with pytest.raises(ValueError):
        field.grid


def test_extract_weighted_mean_and_confirmation():
    params = small_params(filter_confirm_threshold=0.9)
    states = np.array([[10.0, 0.0, -5.0], [20.0, 1.0, -3.0]])
    weights = np.array([0.75, 0.25])
    confirmed, mean = extract(BernoulliBelief(0.95, states, weights), params)
    assert confirmed
    np.testing.assert_allclose(mean, [12.5, 0.25, -4.5])
    confirmed, _ = extract(BernoulliBelief(0.9, states, weights), params)
    assert not confirmed  # threshold is strict


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    q=st.floats(0.0, 1.0),
    shift=st.floats(-5.0, 5.0),
)
def test_update_keeps_probability_in_range(seed, q, shift):
    params = small_params()
    rng = np.random.default_rng(seed)
    n = 50
    states = rng.uniform(-50, 50, size=(n, 3))
    raw = rng.uniform(0.1, 1.0, n)
    belief = BernoulliBelief(q, states, raw / raw.sum())
    post = update(belief, rng.normal(shift, 2.0, n), params, rng)
    assert 0.0 <= post.exist_prob <= 1.0
    assert np.isfinite(post.weights).all()


def _cloud(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, n)
    return rng.uniform(-50, 50, size=(n, 3)), raw / raw.sum(), rng


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(0.0, 1.0),
    loglr=st.lists(st.one_of(st.floats(-745.0, 745.0), st.just(-np.inf)),
                   min_size=1, max_size=40),
    seed=st.integers(0, 2**31 - 1),
)
def test_update_stays_valid_at_extreme_log_ratios(q, loglr, seed):
    """ln L anywhere in the float exponent range, some particles ruled out."""
    states, weights, rng = _cloud(len(loglr), seed)
    ratios = np.array(loglr)
    post = update(BernoulliBelief(q, states, weights), ratios,
                  small_params(filter_n_persist=16), rng)
    assert math.isfinite(post.exist_prob) and 0.0 <= post.exist_prob <= 1.0
    assert (post.weights >= 0).all()
    assert abs(post.weights.sum() - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    target=st.floats(-700.0, 10.0),
    n=st.integers(1, 40),
)
def test_update_moves_log_odds_by_a_common_ratio(q, target, n):
    """Every particle at ln L = c moves logit(q) by exactly c.

    The updated log odds are drawn in [-700, 10]: past +10 the float q_new
    sits so close to 1 that 1 - q_new no longer carries its log odds to
    1e-9, and below -700 q_new turns subnormal.
    """
    logit_q = math.log(q) - math.log1p(-q)
    c = target - logit_q
    assume(abs(c) <= 745.0)
    states, weights, rng = _cloud(n, n)
    post = update(BernoulliBelief(q, states, weights),
                  np.full(n, c), small_params(filter_n_persist=16), rng)
    q_new = post.exist_prob
    assert 0.0 < q_new < 1.0
    assert math.log(q_new) - math.log1p(-q_new) - logit_q == pytest.approx(c, abs=1e-9)


def test_filter_params_validation():
    """The filter's values are checked once, where they are set: in the config."""
    cfg = default_config("sim")
    for bad in (dict(filter_prob_survival=1.5),
                dict(filter_snr_lo_db=-2.0, filter_snr_hi_db=-12.0),
                dict(filter_n_persist=0)):
        with pytest.raises(ConfigError):
            replace(cfg, **bad)
