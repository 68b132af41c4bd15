"""Positive-definite factor of the spatial Hessian at the step's estimate."""

from __future__ import annotations

import numpy as np
import pytest

from ttfilter.errors import NumericalError
from ttfilter.hessfix import repair_hessian
from ttfilter.model import expected_signal
from ttfilter.nll import (
    FilterNoiseModel,
    GaussianBelief,
    NllReport,
    combined_objective,
    propagate_prior,
)


def prior_at(x: np.ndarray):
    c = x.size // 2
    mean = np.zeros(4 * c)
    mean[: 2 * c] = x
    belief = GaussianBelief(mean=mean, cov=np.eye(4 * c) * 0.25)
    return propagate_prior(belief, FilterNoiseModel())


@pytest.fixture(scope="module")
def indefinite_fit(indefinite_interior_step):
    """A main fit as ``tracker.step`` runs it that converges inside the box
    beside a sensor, where the exact Hessian is indefinite (conftest's scan)."""
    return indefinite_interior_step[1]


def test_pd_hessian_returned_unchanged(grid55, meas_default, rng):
    x = rng.uniform(8.0, 32.0, size=4)
    frame = expected_signal(x, grid55, meas_default)
    report = combined_objective(frame, grid55, meas_default, prior_at(x))(x)
    fix = repair_hessian(report)
    assert not fix.gauss_newton and fix.exclusions == ()
    assert fix.chol.tobytes() == np.linalg.cholesky(report.hess).tobytes()


def test_indefinite_fixture_is_actually_indefinite(indefinite_fit):
    assert indefinite_fit.converged and indefinite_fit.active_set.size == 0
    assert np.linalg.eigvalsh(indefinite_fit.report.hess).min() < -1.0


def test_repair_restores_positive_definiteness(indefinite_fit):
    fix = repair_hessian(indefinite_fit.report)
    assert fix.gauss_newton and fix.exclusions == ()
    np.testing.assert_array_equal(fix.chol, np.tril(fix.chol))
    assert np.isfinite(fix.chol).all() and (np.diag(fix.chol) > 0.0).all()


def test_fallback_factor_reproduces_gauss_newton(indefinite_fit):
    report = indefinite_fit.report
    fix = repair_hessian(report)
    assert fix.chol.tobytes() == np.linalg.cholesky(report.gauss_newton).tobytes()
    np.testing.assert_allclose(
        fix.chol @ fix.chol.T, report.gauss_newton, rtol=1e-12,
        atol=1e-12 * np.abs(report.gauss_newton).max(),
    )


@pytest.mark.parametrize("gauss_newton", ["nan", "missing"])
def test_nan_in_both_raises_numerical_error(indefinite_fit, gauss_newton):
    report = indefinite_fit.report
    hess = report.hess.copy()
    hess[1, 0] = hess[0, 1] = np.nan
    if gauss_newton == "nan":
        fallback = report.gauss_newton.copy()
        fallback[1, 0] = fallback[0, 1] = np.nan
    else:  # a measurement-only report offers no Gauss-Newton matrix
        fallback = None
    with pytest.raises(NumericalError, match="neither the Hessian"):
        repair_hessian(NllReport(report.value, report.grad, hess, fallback))
