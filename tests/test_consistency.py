"""Consistency gate, excess/deficit ranking, and the two recoveries."""

from __future__ import annotations

import numpy as np
import pytest

from ttfilter.consistency import (
    ConsistencyConfig,
    chi2_threshold,
    consistency_statistic,
    excess_deficit,
    is_consistent,
    maximin_order,
    one_by_one_recovery,
    square_hopping_recovery,
)
from ttfilter.errors import ConfigurationError
from ttfilter.model import (
    DEFAULT_TARGETS,
    MeasurementModel,
    build_grid,
    expected_signal,
    signal_components,
)
from ttfilter.nll import FilterNoiseModel, GaussianBelief, propagate_prior
from ttfilter.optimize import box_from_grid


def default_prior(positions: np.ndarray) -> "PropagatedPrior":
    c = positions.shape[0]
    mean = np.zeros(4 * c)
    mean[: 2 * c] = positions.ravel()
    belief = GaussianBelief(mean=mean, cov=np.eye(4 * c) * 0.25)
    return propagate_prior(belief, FilterNoiseModel())


def test_chi2_threshold_examples():
    # one dof at the two-sided 1-sigma tail
    assert chi2_threshold(1, 0.3173) == pytest.approx(1.0, abs=1e-4)
    # two dof: the tail is exp(-q / 2), so p = 1/e inverts to exactly 2
    assert chi2_threshold(2, float(np.exp(-1.0))) == pytest.approx(2.0, rel=1e-12)
    assert chi2_threshold(25, 0.0013) == pytest.approx(51.72, abs=5e-3)


def test_chi2_threshold_against_tail_oracle():
    mpmath = pytest.importorskip("mpmath")
    q = chi2_threshold(25, 0.0013)
    tail = mpmath.gammainc(12.5, q / 2.0, mpmath.inf, regularized=True)
    assert float(tail) == pytest.approx(0.0013, rel=1e-9)


def test_chi2_threshold_validation():
    with pytest.raises(ConfigurationError):
        chi2_threshold(25, 0.0)
    with pytest.raises(ConfigurationError):
        chi2_threshold(25, 1.0)
    with pytest.raises(ConfigurationError):
        chi2_threshold(0, 0.5)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ConsistencyConfig(p_value=1.2)
    with pytest.raises(ConfigurationError):
        ConsistencyConfig(n_bad_tgt=0)


def test_perfect_frame_is_consistent(grid55, meas_default):
    pos = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(pos, grid55, meas_default)
    ok, stat = is_consistent(pos.ravel(), frame, grid55, meas_default, ConsistencyConfig())
    assert ok
    assert stat == 0.0


def test_statistic_scales_quadratically(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(4, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    noise = 0.05 * rng.standard_normal(25)
    s1 = consistency_statistic(pos.ravel(), alpha + noise, grid55, meas_default)
    s3 = consistency_statistic(pos.ravel(), alpha + 3.0 * noise, grid55, meas_default)
    assert s3 == pytest.approx(9.0 * s1, rel=1e-10)


def test_rejection_rate_matches_p_value(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(4, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    sig2 = 0.01
    n = 10_000
    resid = np.sqrt(sig2) * rng.standard_normal((n, 25))
    stats = (resid**2).sum(axis=1) / sig2
    # the closed form above equals the statistic computed through the NLL
    spot = consistency_statistic(pos.ravel(), alpha + resid[0], grid55, meas_default)
    assert spot == pytest.approx(stats[0], rel=1e-9)
    p = 0.0013
    rate = np.mean(stats > chi2_threshold(25, p))
    assert abs(rate - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_displaced_target_flags_inconsistent(grid55, rng):
    meas = MeasurementModel(sigma_s2=0.01)
    pos = np.asarray(DEFAULT_TARGETS)[:, :2].copy()
    wrong = pos.copy()
    wrong[2] += 30.0  # three squares away
    wrong = np.clip(wrong, 0.0, 40.0)
    alpha = expected_signal(pos, grid55, meas)
    cfg = ConsistencyConfig()
    hits = 0
    trials = 200
    for _ in range(trials):
        frame = alpha + 0.1 * rng.standard_normal(25)
        ok, _ = is_consistent(wrong.ravel(), frame, grid55, meas, cfg)
        hits += not ok
    assert hits >= 0.95 * trials


def test_boundary_count(grid55):
    assert grid55.boundary_indices().size == 16


def test_maximin_prefers_farther_sensor(grid55):
    target = np.array([[5.0, 5.0]])
    used = np.setdiff1d(np.arange(25), [0, 24])  # leave corners (0,0) and (40,40)
    order = maximin_order(target, grid55, used)
    assert order.tolist() == [24, 0]


def test_maximin_matches_enumeration_on_3x3(rng):
    grid = build_grid(3, 3, 10.0)
    targets = rng.uniform(0.0, 20.0, size=(2, 2))
    used = grid.boundary_indices()
    got = maximin_order(targets, grid, used)

    remaining = sorted(set(range(grid.count)) - set(used.tolist()))
    dists = {
        s: min(np.linalg.norm(t - grid.positions[s]) for t in targets)
        for s in remaining
    }
    expect = sorted(remaining, key=lambda s: (-dists[s], s))
    assert got.tolist() == expect


def test_signal_excess_zero_when_no_surplus(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(3, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    ed = excess_deficit(pos.ravel(), alpha + 1.0, grid55, meas_default, 0)
    np.testing.assert_array_equal(ed.excess, np.zeros(3))


def test_signal_excess_single_sensor_unit_case():
    grid = build_grid(2, 2, 10.0)
    meas = MeasurementModel()
    x = np.array([3.0, 4.0])
    f = signal_components(x, grid, meas)  # (1, 4)
    # keep the frame equal to the prediction except one sensor short by f+1
    frame = f.sum(axis=0).copy()
    frame[0] -= f[0, 0] + 1.0
    ed = excess_deficit(x, frame, grid, meas, 1)
    assert ed.excess[0] == pytest.approx(1.0, rel=1e-12)


def test_signal_excess_matches_scalar_loop(grid55, meas_default, rng):
    x = rng.uniform(5.0, 35.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    eps = excess_deficit(x, frame, grid55, meas_default, 2).excess
    f = signal_components(x, grid55, meas_default)
    alpha = f.sum(axis=0)
    for c in range(4):
        manual = sum(
            max((alpha[s] - frame[s]) - f[c, s], 0.0) for s in range(25)
        )
        assert eps[c] == pytest.approx(manual, rel=1e-12)


def test_excess_deficit_nonnegative_and_removal(grid55, meas_default, rng):
    x = rng.uniform(5.0, 35.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    ed = excess_deficit(x, frame, grid55, meas_default, 2)
    assert (ed.excess >= 0.0).all()
    assert (ed.deficit >= 0.0).all()
    # the two targets with the largest excess are the ones removed
    removed = sorted(range(4), key=lambda c: (-ed.excess[c], c))[:2]
    assert ed.removed == tuple(removed)
    keep = [c for c in range(4) if c not in removed]
    f = signal_components(x, grid55, meas_default)
    expect = np.maximum(frame - f[keep].sum(axis=0), 0.0)
    np.testing.assert_allclose(ed.deficit, expect, rtol=1e-12)


def test_one_by_one_recovers_from_belief_drift(grid55):
    meas = MeasurementModel(sigma_s2=0.01)
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(truth, grid55, meas)
    wrong = np.clip(truth + np.array([4.0, 3.0]), 0.0, 40.0)
    prior = default_prior(wrong)
    box = box_from_grid(grid55, n_targets=4)
    res = one_by_one_recovery(frame, grid55, meas, prior, box)
    stat = 2.0 * res.value
    assert stat <= chi2_threshold(25, 0.0013)
    got = np.sort(res.x.reshape(-1, 2), axis=0)
    want = np.sort(truth, axis=0)
    np.testing.assert_allclose(got, want, atol=1e-3)
    # the returned value is the full-sensor measurement fit at the estimate
    from ttfilter.nll import measurement_nll

    assert res.value == pytest.approx(
        measurement_nll(res.x, frame, grid55, meas).value, rel=1e-12, abs=1e-12
    )


def test_square_count_and_subset_cap(grid55):
    corners, centers = grid55.squares()
    assert corners.shape[0] == 16
    from math import comb

    assert comb(ConsistencyConfig().n_bad_sq, ConsistencyConfig().n_bad_tgt) == 66
    assert ConsistencyConfig().max_subsets == 66


def test_hopping_short_circuits_when_consistent(grid55, meas_default):
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(truth, grid55, meas_default)
    box = box_from_grid(grid55, n_targets=4)
    out = square_hopping_recovery(
        truth.ravel(), frame, grid55, meas_default, box, ConsistencyConfig()
    )
    assert out.gate_passed
    assert out.attempts == 0
    np.testing.assert_array_equal(out.result.x, truth.ravel())


def test_hopping_relocates_misplaced_target(grid55):
    meas = MeasurementModel(sigma_s2=0.01)
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(truth, grid55, meas)
    wrong = truth.copy()
    wrong[2] = [25.0, 15.0]  # one square over from (20, 13) area, wrong basin
    box = box_from_grid(grid55, n_targets=4)
    out = square_hopping_recovery(
        wrong.ravel(), frame, grid55, meas, box, ConsistencyConfig()
    )
    assert out.gate_passed
    assert out.attempts >= 1
    got = np.sort(out.result.x.reshape(-1, 2), axis=0)
    np.testing.assert_allclose(got, np.sort(truth, axis=0), atol=1e-3)


def test_recovery_never_worsens_value(grid55, rng):
    meas = MeasurementModel(sigma_s2=0.01)
    truth = rng.uniform(8.0, 32.0, size=(4, 2))
    frame = expected_signal(truth, grid55, meas) + 0.1 * rng.standard_normal(25)
    wrong = rng.uniform(8.0, 32.0, size=(4, 2))
    box = box_from_grid(grid55, n_targets=4)
    from ttfilter.nll import measurement_nll

    incoming = measurement_nll(wrong.ravel(), frame, grid55, meas).value
    out = square_hopping_recovery(
        wrong.ravel(), frame, grid55, meas, box, ConsistencyConfig()
    )
    assert out.result.value <= incoming + 1e-12
