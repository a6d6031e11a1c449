"""Metric edge cases pinned exactly: OSPA, confirmation runs, aggregation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonartkbd.config import ConfigError, default_config
from sonartkbd.evaluate import (RunReport, aggregate_quantiles,
                                flip_count, make_run_report,
                                median_detection_eta, sustained_confirmation)
from sonartkbd.pipeline import TrackLog
from sonartkbd.sim import ScenarioTruth


CUTOFF = 30.0


def truth_const(n, psi=0.0, eta=-5.0, rng_m=500.0):
    idx = np.arange(n)
    return ScenarioTruth(idx, idx * 0.17, np.full(n, psi), np.full(n, eta),
                         np.full(n, rng_m))


def track_log(psi_est, exist_prob, confirmed):
    n = len(psi_est)
    zeros = np.zeros(n)
    return TrackLog(np.arange(n), zeros, np.asarray(exist_prob, dtype=float),
                    np.asarray(psi_est, dtype=float), zeros, zeros, confirmed)


def batch_ospa(estimates, truth_psi_deg):
    """Per-batch OSPA of one-batch tracks, each confirmed unless its estimate is None."""
    confirmed = np.array([e is not None for e in estimates])
    psi_est = [0.0 if e is None else e for e in estimates]
    report = make_run_report(track_log(psi_est, confirmed.astype(float), confirmed),
                             truth_const(len(estimates), psi=truth_psi_deg), default_config())
    return report.ospa


def test_ospa_edges():
    """Unconfirmed costs the cutoff, an exact estimate 0, an in-range error
    itself, and errors saturate at the cutoff."""
    assert default_config().ospa_cutoff_deg == CUTOFF
    np.testing.assert_array_equal(batch_ospa([None, 10.0, 13.5, -75.0, 40.0], 10.0),
                                  [30.0, 0.0, 3.5, 30.0, 30.0])


def test_ospa_params_validation():
    """The OSPA cutoff is checked once, where it is set: in the config."""
    with pytest.raises(ConfigError):
        replace(default_config(), ospa_cutoff_deg=0.0)


@settings(max_examples=100, deadline=None)
@given(est=st.floats(-90, 90), truth=st.floats(-90, 90))
def test_ospa_bounded_and_symmetric(est, truth):
    d = batch_ospa([est], truth)[0]
    assert 0.0 <= d <= CUTOFF
    assert d == batch_ospa([truth], est)[0]


def test_sustained_confirmation_first_window():
    conf = np.array([0, 1, 1, 0, 1, 1, 1, 1, 1, 0], dtype=bool)
    assert sustained_confirmation(conf, min_run=5) == 4
    assert sustained_confirmation(conf, min_run=2) == 1
    assert sustained_confirmation(conf, min_run=6) is None
    assert sustained_confirmation(np.zeros(10, dtype=bool), min_run=5) is None
    assert sustained_confirmation(np.ones(5, dtype=bool), min_run=5) == 0


def test_flip_count_edges():
    conf = np.array([0, 1, 1, 0, 1], dtype=bool)
    assert flip_count(conf, start=0) == 3
    assert flip_count(conf, start=1) == 2
    assert flip_count(conf, start=None) == 0
    assert flip_count(conf, start=10) == 0
    assert flip_count(np.ones(6, dtype=bool), start=0) == 0


def test_run_report_scores_only_confirmed_batches():
    n = 12
    truth = truth_const(n, psi=5.0)
    psi_est = np.full(n, 7.0)
    confirmed = np.zeros(n, dtype=bool)
    confirmed[4:10] = True
    report = make_run_report(track_log(psi_est, np.linspace(0, 1, n), confirmed), truth,
                             default_config())
    np.testing.assert_allclose(report.ospa[:4], 30.0)
    np.testing.assert_allclose(report.ospa[4:10], 2.0)
    np.testing.assert_allclose(report.ospa[10:], 30.0)
    assert report.first_confirm == 4
    assert report.detection_range_m == pytest.approx(500.0)
    assert report.detection_eta_db == pytest.approx(-5.0)
    # one drop at batch 10 after the detection window opens
    assert report.flips_after_detect == 1


def test_run_report_never_confirmed():
    n = 8
    truth = truth_const(n)
    report = make_run_report(track_log(np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)),
                             truth, default_config())
    assert report.first_confirm is None
    assert report.detection_range_m is None
    assert report.detection_eta_db is None
    assert report.flips_after_detect == 0
    np.testing.assert_allclose(report.ospa, 30.0)


def test_run_report_length_mismatch():
    truth = truth_const(5)
    with pytest.raises(ValueError):
        make_run_report(track_log(np.zeros(6), np.zeros(6), np.zeros(6, dtype=bool)),
                        truth, default_config())


def test_aggregate_quantiles_shape_and_median():
    runs = np.array([[0.0, 1.0, 2.0],
                     [10.0, 11.0, 12.0],
                     [20.0, 21.0, 22.0]])
    q = aggregate_quantiles(runs)
    assert q.shape == (3, 3)
    np.testing.assert_allclose(q[1], [10.0, 11.0, 12.0])
    single = aggregate_quantiles(np.array([1.0, 2.0, 3.0]))
    assert single.shape == (3, 3)


def report_with_eta(eta):
    return RunReport(np.zeros(1), None if eta is None else 0, None, eta, 0)


def test_median_detection_eta_censors_missed_runs():
    reports = [report_with_eta(-12.0), report_with_eta(-8.0),
               report_with_eta(None)]
    assert median_detection_eta(reports) == pytest.approx(-8.0)
    all_missed = [report_with_eta(None)] * 3
    assert np.isposinf(median_detection_eta(all_missed))
