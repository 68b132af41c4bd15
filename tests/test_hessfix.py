"""Positive-definite repair of the converged spatial Hessian."""

from __future__ import annotations

import numpy as np
import pytest

from ttfilter.hessfix import repair_hessian
from ttfilter.model import MeasurementModel, build_grid, expected_signal
from ttfilter.nll import (
    FilterNoiseModel,
    GaussianBelief,
    combined_nll,
    propagate_prior,
)
from ttfilter.optimize import box_from_grid


def prior_at(x: np.ndarray):
    c = x.size // 2
    mean = np.zeros(4 * c)
    mean[: 2 * c] = x
    belief = GaussianBelief(mean=mean, cov=np.eye(4 * c) * 0.25)
    return propagate_prior(belief, FilterNoiseModel())


def repair_at(x, frame, grid, meas, prior, box):
    """Repair the combined-NLL Hessian at ``x``, as the fit would hand it over."""
    hess = combined_nll(x, frame, grid, meas, prior).hess
    return repair_hessian(x, hess, frame, grid, meas, prior, box)


def assert_factor_matches(fix):
    np.testing.assert_array_equal(fix.chol, np.tril(fix.chol))
    np.testing.assert_allclose(
        fix.chol @ fix.chol.T, fix.hessian, rtol=1e-12, atol=1e-12
    )


@pytest.fixture()
def indefinite_case(grid55):
    """Target 0 parked beside the center sensor, which reads an impossible
    amplitude; the residual-curvature term then dominates and flips the sign
    of the radial direction."""
    meas = MeasurementModel(sigma_s2=0.01)
    x = np.array([20.03, 20.0, 8.0, 31.0])
    frame = expected_signal(x, grid55, meas)
    frame[12] += 60.0
    return meas, x, frame


def test_pd_hessian_returned_unchanged(grid55, meas_default, rng):
    x = rng.uniform(8.0, 32.0, size=4)
    frame = expected_signal(x, grid55, meas_default)
    prior = prior_at(x)
    box = box_from_grid(grid55, n_targets=2)
    fix = repair_at(x, frame, grid55, meas_default, prior, box)
    assert fix.exclusions == ()
    np.testing.assert_array_equal(fix.x, x)
    expect = combined_nll(x, frame, grid55, meas_default, prior).hess
    np.testing.assert_array_equal(fix.hessian, expect)
    assert_factor_matches(fix)


def test_indefinite_fixture_is_actually_indefinite(grid55, indefinite_case):
    meas, x, frame = indefinite_case
    hess = combined_nll(x, frame, grid55, meas, prior_at(x)).hess
    assert np.linalg.eigvalsh(hess).min() < 0.0


def test_repair_restores_positive_definiteness(grid55, indefinite_case):
    meas, x, frame = indefinite_case
    box = box_from_grid(grid55, n_targets=2)
    fix = repair_at(x, frame, grid55, meas, prior_at(x), box)
    assert fix.exclusions
    w = np.linalg.eigvalsh(fix.hessian)
    assert w.min() > 0.0
    assert_factor_matches(fix)


def test_closest_pair_excluded_first(grid55, indefinite_case):
    meas, x, frame = indefinite_case
    box = box_from_grid(grid55, n_targets=2)
    fix = repair_at(x, frame, grid55, meas, prior_at(x), box)
    assert len(fix.exclusions) >= 1
    assert fix.exclusions[0] == (0, 12)
    assert len(set(fix.exclusions)) == len(fix.exclusions)
    for c, s in fix.exclusions:
        assert 0 <= c < 2 and 0 <= s < grid55.count
    assert len(fix.exclusions) <= 2 * grid55.count


def test_excluded_target_gets_fixed_variance_block(grid55, indefinite_case):
    meas, x, frame = indefinite_case
    box = box_from_grid(grid55, n_targets=2)
    fix = repair_at(x, frame, grid55, meas, prior_at(x), box)
    bad = sorted({c for c, _ in fix.exclusions})
    assert bad == [0]
    scale = meas.offset**-2
    np.testing.assert_array_equal(fix.hessian[:2, :2], scale * np.eye(2))
    np.testing.assert_array_equal(fix.hessian[:2, 2:], np.zeros((2, 2)))
    np.testing.assert_array_equal(fix.hessian[2:, :2], np.zeros((2, 2)))


def test_kept_block_matches_reduced_hessian(grid55, indefinite_case):
    meas, x, frame = indefinite_case
    prior = prior_at(x)
    box = box_from_grid(grid55, n_targets=2)
    fix = repair_at(x, frame, grid55, meas, prior, box)
    kept_sensors = np.setdiff1d(
        np.arange(grid55.count), [s for _, s in fix.exclusions]
    )
    rep = combined_nll(fix.x, frame, grid55, meas, prior, kept_sensors)
    np.testing.assert_array_equal(fix.hessian[2:, 2:], rep.hess[2:, 2:])


def test_single_target_full_exclusion(grid55):
    # with one target the first exclusion already empties the free set; the
    # empty reduced system factorizes vacuously and the whole matrix becomes
    # the fixed-variance block
    meas = MeasurementModel(sigma_s2=0.01)
    x = np.array([20.03, 20.0])
    frame = expected_signal(x, grid55, meas)
    frame[12] += 60.0
    hess = combined_nll(x, frame, grid55, meas, prior_at(x)).hess
    assert np.linalg.eigvalsh(hess).min() < 0.0
    box = box_from_grid(grid55, n_targets=1)
    fix = repair_at(x, frame, grid55, meas, prior_at(x), box)
    np.testing.assert_array_equal(fix.hessian, meas.offset**-2 * np.eye(2))
    assert fix.exclusions == ((0, 12),)
    assert_factor_matches(fix)
