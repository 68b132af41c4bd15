"""Objective surfaces: measurement, prior, and combined NLL."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from ttfilter import nll as nll_module
from ttfilter.errors import ConfigurationError
from ttfilter.model import (
    MeasurementModel,
    SensorGrid,
    _clamped_distance,
    _distance_terms,
    expected_signal,
)
from ttfilter.nll import (
    _PARTICLE_BLOCK,
    FilterNoiseModel,
    GaussianBelief,
    NllReport,
    PropagatedPrior,
    _misfit,
    combined_objective,
    combined_value_batch,
    measurement_nll,
    measurement_objective,
    propagate_prior,
    stacked_filter_noise,
)
from ttfilter.optimize import box_from_grid, minimize

from conftest import benchmark_scenario, fd_gradient, fd_hessian_from_grad, random_spd


def stacked_transition(n_targets: int) -> np.ndarray:
    """Big constant-velocity transition [[I, I], [0, I]] (blocks of 2C),
    returned read-only.  ``propagate_prior`` applies it by block additions
    instead; the dense matrix is the reference those additions must equal.
    """
    d = 2 * n_targets
    eye = np.eye(d)
    top = np.hstack([eye, eye])
    bot = np.hstack([np.zeros((d, d)), eye])
    F = np.vstack([top, bot])
    F.setflags(write=False)
    return F


def random_prior(c: int, rng: np.random.Generator) -> PropagatedPrior:
    belief = GaussianBelief(
        mean=rng.uniform(5.0, 35.0, size=4 * c),
        cov=random_spd(4 * c, rng, scale=0.1),
    )
    return propagate_prior(belief, FilterNoiseModel())


def test_perfect_frame_zero_value_and_grad(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(4, 2))
    frame = expected_signal(pos, grid55, meas_default)
    rep = measurement_nll(pos.ravel(), frame, grid55, meas_default)
    assert rep.value == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(rep.grad, 0.0, atol=1e-12)


def fd_models(meas_default):
    """The default model (p = 1, one sigma^2) and one with p = 1.5 and a
    noise variance per sensor, which the kernel scales its Jacobian by."""
    sig2 = np.random.default_rng(31).uniform(0.01, 0.2, size=25)
    return [meas_default, MeasurementModel(exponent=1.5, sigma_s2=sig2)]


def test_measurement_gradient_matches_fd(grid55, meas_default):
    for meas in fd_models(meas_default):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(2.0, 38.0, size=8)
            frame = rng.uniform(0.5, 4.0, size=25)
            rep = measurement_nll(x, frame, grid55, meas)
            fd = fd_gradient(lambda z: measurement_nll(z, frame, grid55, meas).value, x)
            np.testing.assert_allclose(rep.grad, fd, rtol=1e-5, atol=1e-8)


def test_measurement_hessian_matches_fd(grid55, meas_default):
    for meas in fd_models(meas_default):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(2.0, 38.0, size=8)
            frame = rng.uniform(0.5, 4.0, size=25)
            rep = measurement_nll(x, frame, grid55, meas)
            fd = fd_hessian_from_grad(
                lambda z: measurement_nll(z, frame, grid55, meas).grad, x
            )
            np.testing.assert_allclose(rep.hess, fd, rtol=1e-4, atol=1e-6)


def test_hessian_symmetric_and_relabeling_consistent(grid55, meas_default, rng):
    x = rng.uniform(2.0, 38.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    rep = measurement_nll(x, frame, grid55, meas_default)
    np.testing.assert_array_equal(rep.hess, rep.hess.T)

    # swap targets 0 and 1: value invariant, grad and hess permute
    perm = np.array([2, 3, 0, 1, 4, 5, 6, 7])
    rep_p = measurement_nll(x[perm], frame, grid55, meas_default)
    assert rep_p.value == pytest.approx(rep.value, rel=1e-14)
    np.testing.assert_allclose(rep_p.grad, rep.grad[perm], rtol=1e-12)
    np.testing.assert_allclose(
        rep_p.hess, rep.hess[np.ix_(perm, perm)], rtol=1e-12, atol=1e-14
    )


def test_statistic_has_chi_square_mean(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(4, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    sig = np.sqrt(0.01)
    draws = 2000
    noise = sig * rng.standard_normal((draws, 25))
    stats = [
        2.0 * measurement_nll(pos.ravel(), alpha + n, grid55, meas_default).value
        for n in noise
    ]
    s = grid55.count
    assert abs(np.mean(stats) - s) < 3.0 * np.sqrt(2.0 * s / draws)


def test_sensor_subset_restricts_sum(grid55, meas_default, rng):
    x = rng.uniform(5.0, 35.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    subset = np.array([0, 3, 17])
    rep = measurement_objective(frame, grid55, meas_default, subset)(x)
    manual = 0.0
    alpha = expected_signal(x, grid55, meas_default)
    for s in subset:
        manual += (alpha[s] - frame[s]) ** 2 / (2.0 * 0.01)
    assert rep.value == pytest.approx(manual, rel=1e-12)
    none = np.array([], dtype=int)
    empty = measurement_objective(frame, grid55, meas_default, none)(x)
    assert empty.value == 0.0
    np.testing.assert_array_equal(empty.grad, np.zeros(8))


def test_zero_noise_variance_rejected(grid55, rng):
    meas = MeasurementModel(sigma_s2=0.0)
    x = rng.uniform(5.0, 35.0, size=8)
    with pytest.raises(ConfigurationError):
        measurement_nll(x, np.ones(25), grid55, meas)


def test_filter_noise_model_shape():
    vp = FilterNoiseModel(alpha=3.0).V_prime
    np.testing.assert_allclose(
        vp,
        [[3.0, 0.0, 0.1, 0.0],
         [0.0, 3.0, 0.0, 0.1],
         [0.1, 0.0, 0.03, 0.0],
         [0.0, 0.1, 0.0, 0.03]],
    )
    # alpha = 1/3 sits exactly on the PSD boundary (alpha * vel = cross^2)
    assert np.linalg.eigvalsh(FilterNoiseModel(alpha=1.0 / 3.0).V_prime).min() >= -1e-12
    with pytest.raises(ConfigurationError):
        FilterNoiseModel(alpha=0.1)


def test_propagate_prior_zero_cov_gives_v_prime():
    c = 2
    belief = GaussianBelief(
        mean=np.arange(4.0 * c), cov=np.zeros((4 * c, 4 * c))
    )
    noise = FilterNoiseModel()
    prior = propagate_prior(belief, noise)
    np.testing.assert_allclose(prior.cov, stacked_filter_noise(c, noise))


def test_propagate_prior_mean_is_linear():
    mean = np.array([10.0, 12.0, 0.0, 0.0])  # one target, zero velocity
    belief = GaussianBelief(mean=mean, cov=np.eye(4) * 0.5)
    prior = propagate_prior(belief, FilterNoiseModel())
    np.testing.assert_allclose(prior.mean_x, [10.0, 12.0])
    np.testing.assert_allclose(prior.mean_v, [0.0, 0.0])


def test_propagate_prior_matches_dense_oracle(rng):
    c = 3
    cov = random_spd(4 * c, rng)
    mean = rng.standard_normal(4 * c)
    noise = FilterNoiseModel(alpha=2.0)
    prior = propagate_prior(GaussianBelief(mean=mean, cov=cov), noise)
    F = stacked_transition(c)
    expect = F @ cov @ F.T + stacked_filter_noise(c, noise)
    np.testing.assert_allclose(prior.cov, expect, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(prior.mean, F @ mean, rtol=1e-12)
    d = 2 * c
    np.testing.assert_allclose(
        prior.xx_inv, np.linalg.inv(expect[:d, :d]), rtol=1e-9, atol=1e-12
    )


def reference_propagate_prior(belief: GaussianBelief, noise: FilterNoiseModel):
    """Reference: the dense products and scipy's Cholesky factor and solve."""
    import scipy.linalg

    c = belief.n_targets
    F = stacked_transition(c)
    mean = F @ belief.mean
    cov = F @ belief.cov @ F.T + stacked_filter_noise(c, noise)
    cov = 0.5 * (cov + cov.T)
    d = 2 * c
    xx_inv = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(cov[:d, :d], lower=True), np.eye(d)
    )
    return mean, cov, 0.5 * (xx_inv + xx_inv.T)


@pytest.mark.parametrize("c", [1, 4, 9])
def test_propagate_prior_equals_dense_products_bit_for_bit(c):
    rng = np.random.default_rng(100 + c)
    for k in range(60):
        scale = 10.0 ** rng.uniform(-4.0, 2.0)
        cov = random_spd(4 * c, rng, scale=scale)
        if k % 3 == 0:  # a posterior-like belief: spatial spread, small velocities
            sd = np.concatenate([np.full(2 * c, 3.0), np.full(2 * c, 0.02)])
            cov = cov / scale * np.outer(sd, sd) / (4 * c)
        mean = rng.uniform(-5.0, 45.0, size=4 * c)
        mean[2 * c :] *= 0.01
        noise = FilterNoiseModel(alpha=rng.uniform(0.5, 5.0))
        prior = propagate_prior(GaussianBelief(mean=mean, cov=cov), noise)
        ref_mean, ref_cov, ref_inv = reference_propagate_prior(
            GaussianBelief(mean=mean, cov=cov), noise
        )
        assert prior.mean.tobytes() == ref_mean.tobytes(), k
        assert prior.cov.tobytes() == ref_cov.tobytes(), k
        assert prior.xx_inv.tobytes() == ref_inv.tobytes(), k


def test_propagate_prior_rejects_a_spatial_block_that_is_not_pd_or_finite():
    from ttfilter.errors import NumericalError

    c = 2
    # no process noise, and a belief certain of target 0's x and x-velocity
    no_noise = FilterNoiseModel(alpha=0.0, cross=0.0, vel=0.0)
    cov = np.eye(4 * c)
    cov[0, 0] = cov[2 * c, 2 * c] = 0.0
    with pytest.raises(NumericalError):
        propagate_prior(GaussianBelief(mean=np.zeros(4 * c), cov=cov), no_noise)
    # a belief with a NaN or infinity, past GaussianBelief's own check
    for bad in (np.nan, np.inf):
        for where in [(0, 0), (1, 0), (2 * c, 1), (3 * c, 3 * c)]:
            belief = GaussianBelief(mean=np.zeros(4 * c), cov=np.eye(4 * c))
            cov = np.eye(4 * c)
            cov[where] = cov[where[::-1]] = bad
            object.__setattr__(belief, "cov", cov)
            with pytest.raises(NumericalError):
                propagate_prior(belief, FilterNoiseModel())


def reference_prior_nll(x: np.ndarray, prior: PropagatedPrior) -> NllReport:
    """Reference: the quadratic prior term (x - m)^T Sigma_xx^{-1} (x - m) / 2."""
    diff = x - prior.mean_x
    grad = prior.xx_inv @ diff
    return NllReport(0.5 * float(diff @ grad), grad, prior.xx_inv.copy())


# a grid without sensors: the combined objective over it is the prior term
NO_SENSORS = SensorGrid(positions=np.empty((0, 2)), rows=0, cols=0, spacing=10.0)


def prior_term(x: np.ndarray, prior: PropagatedPrior) -> NllReport:
    """The prior term alone: the combined objective over no sensors."""
    return combined_objective(np.zeros(0), NO_SENSORS, MeasurementModel(), prior)(x)


def test_prior_nll_minimum_at_mean(rng):
    prior = random_prior(2, rng)
    rep = prior_term(prior.mean_x, prior)
    assert rep.value == 0.0
    np.testing.assert_allclose(rep.grad, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.hess, prior.xx_inv)
    np.testing.assert_allclose(rep.gauss_newton, prior.xx_inv)


def test_prior_nll_quadratic_form(rng):
    prior = random_prior(2, rng)
    delta = 1e-3 * rng.standard_normal(4)
    rep = prior_term(prior.mean_x + delta, prior)
    assert rep.value == pytest.approx(
        0.5 * delta @ prior.xx_inv @ delta, abs=1e-10
    )
    # Hessian is constant in position
    far = prior_term(prior.mean_x + 5.0, prior)
    np.testing.assert_array_equal(far.hess, rep.hess)


def test_combined_is_exact_sum(grid55, meas_default, rng):
    prior = random_prior(4, rng)
    x = rng.uniform(5.0, 35.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    total = combined_objective(frame, grid55, meas_default, prior)(x)
    m = measurement_nll(x, frame, grid55, meas_default)
    p = reference_prior_nll(x, prior)
    assert total.value == m.value + p.value
    np.testing.assert_array_equal(total.grad, m.grad + p.grad)
    np.testing.assert_array_equal(total.hess, m.hess + p.hess)


def test_combined_empty_sensor_set_is_prior_only(meas_default, rng):
    prior = random_prior(4, rng)
    x = rng.uniform(5.0, 35.0, size=8)
    rep = combined_objective(np.zeros(0), NO_SENSORS, meas_default, prior)(x)
    p = reference_prior_nll(x, prior)
    assert rep.value == p.value
    np.testing.assert_array_equal(rep.grad, p.grad)


def offset_pair_terms(positions, sensors, meas):
    """Reference: the signal model per pair in the former offset layout,
    ``(r, rho, rho_p, D, f)`` with offsets r (..., C, S, 2) and the rest
    (..., C, S), for positions (..., C, 2) and sensors (S, 2)."""
    r = positions[..., :, None, :] - sensors
    rho = _clamped_distance(r[..., 0], r[..., 1])
    return (r, rho, *_distance_terms(rho, meas))


# The kernel now forms its offsets as (C, 2, S) and its products as
# matrix products, so its gradients and Hessians differ from the offset-layout
# references below in the last bits (the values do not).  They are compared
# at this fraction of the largest entry: rounding in sums of 25 to 50 terms
# stays within about 1e-14 of it.
DERIVATIVE_RTOL = 1e-12


def assert_close_to_reference(got, want):
    assert got.shape == want.shape
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= DERIVATIVE_RTOL * scale


def eager_measurement_nll(x, frame, grid, meas, sensor_indices=None) -> NllReport:
    """Reference: value, gradient and Hessian built together, eagerly."""
    pos = np.asarray(x, dtype=float).reshape(-1, 2)
    n, c = pos.size, pos.shape[0]
    sens, a = grid.positions, np.asarray(frame, dtype=float)
    sig2 = meas.noise_variances(grid.count)
    if sensor_indices is not None:
        sens, a, sig2 = sens[sensor_indices], a[sensor_indices], sig2[sensor_indices]
    if sens.shape[0] == 0:
        return NllReport(0.0, np.zeros(n), np.zeros((n, n)), np.zeros((n, n)))
    p, A = meas.exponent, meas.amplitude
    rel, rho, rho_p, D, f = offset_pair_terms(pos, sens, meas)
    alpha = f.sum(axis=0)
    res = (alpha - a) / sig2
    value = 0.5 * float(np.dot(alpha - a, res))
    g = -p * A * rho_p / (rho * rho * D * D)
    jac = g[:, :, None] * rel
    grad = np.einsum("s,csi->ci", res, jac).ravel()
    jflat = jac.transpose(1, 0, 2).reshape(-1, n)
    hess = jflat.T @ (jflat / sig2[:, None])
    gauss_newton = hess.copy()
    beta = g / (rho * rho) * ((p - 2.0) - 2.0 * p * rho_p / D)
    blocks = np.einsum("cs,csi,csj->cij", res * beta, rel, rel)
    blocks[:, [0, 1], [0, 1]] += (res * g).sum(axis=1)[:, None]
    idx = np.arange(n).reshape(c, 2)
    hess[idx[:, :, None], idx[:, None, :]] += blocks
    hess = 0.5 * (hess + hess.T)
    return NllReport(value, grad, hess, gauss_newton)


@pytest.mark.parametrize(
    "sensors", [None, np.array([0, 3, 12, 17, 24]), np.array([], dtype=int)],
    ids=["all", "subset", "empty"],
)
def test_lazy_derivatives_equal_eager_ones_bit_for_bit(grid55, meas_default, sensors):
    # the measurement objective over the sensor set; the combined one always
    # sums over every sensor
    rng = np.random.default_rng(11)
    prior = random_prior(4, rng)
    for trial in range(10):
        x = rng.uniform(2.0, 38.0, size=8)
        frame = rng.uniform(0.5, 4.0, size=25)
        meas = eager_measurement_nll(x, frame, grid55, meas_default, sensors)
        every = eager_measurement_nll(x, frame, grid55, meas_default)
        pri = reference_prior_nll(x, prior)
        lazy_m = measurement_objective(frame, grid55, meas_default, sensors)(x)
        lazy_c = combined_objective(frame, grid55, meas_default, prior)(x)
        assert lazy_m.value == meas.value
        assert lazy_c.value == every.value + pri.value
        # the derivatives do not depend on which of them is read first: a
        # second report read in the other order gives the same bytes
        if trial % 2:
            _ = (lazy_m.hess, lazy_c.hess)
        other_m = measurement_objective(frame, grid55, meas_default, sensors)(x)
        other_c = combined_objective(frame, grid55, meas_default, prior)(x)
        if not trial % 2:
            _ = (other_m.hess, other_c.hess)
        for lazy, other, eager in [
            (lazy_m.grad, other_m.grad, meas.grad),
            (lazy_m.hess, other_m.hess, meas.hess),
            (lazy_c.grad, other_c.grad, every.grad + pri.grad),
            (lazy_c.hess, other_c.hess, every.hess + pri.hess),
            (lazy_c.gauss_newton, other_c.gauss_newton, every.gauss_newton + pri.hess),
        ]:
            assert lazy.shape == other.shape and lazy.tobytes() == other.tobytes()
            assert_close_to_reference(lazy, eager)
        assert lazy_c.grad is lazy_c.grad  # built once, then kept
        assert lazy_m.gauss_newton is None  # measurement-only fits: exact Newton


class PerCallDerivatives:
    """Reference: the derivatives of the per-call kernel that every objective
    evaluation used to run, memoised with ``cached_property``."""

    def __init__(self, rel, rho, rho_p, D, res, sig2, meas):
        self._pairs = rel, rho, rho_p, D
        self._res, self._sig2 = res, sig2
        self._p, self._A = meas.exponent, meas.amplitude

    @cached_property
    def _g(self):
        _, rho, rho_p, D = self._pairs
        return -self._p * self._A * rho_p / (rho * rho * D * D)

    @cached_property
    def _jac(self):
        return self._g[:, :, None] * self._pairs[0]

    @cached_property
    def grad(self):
        return np.einsum("s,csi->ci", self._res, self._jac).ravel()

    @cached_property
    def gauss_newton(self):
        n = self._jac.shape[0] * 2
        jflat = self._jac.transpose(1, 0, 2).reshape(-1, n)
        return jflat.T @ (jflat / self._sig2[:, None])

    @cached_property
    def hess(self):
        rel, rho, rho_p, D = self._pairs
        p, g, res = self._p, self._g, self._res
        beta = g / (rho * rho) * ((p - 2.0) - 2.0 * p * rho_p / D)
        blocks = np.einsum("cs,csi,csj->cij", res * beta, rel, rel)
        blocks[:, [0, 1], [0, 1]] += (res * g).sum(axis=1)[:, None]
        c = blocks.shape[0]
        hess = self.gauss_newton.copy()
        diag = np.arange(c)
        hess.reshape(c, 2, c, 2)[diag, :, diag, :] += blocks
        return 0.5 * (hess + hess.T)


def per_call_measurement(x, frame, grid, meas, sensor_indices=None):
    """Reference: the per-call kernel, gathering the sensor set at each call."""
    pos = np.asarray(x, dtype=float).reshape(-1, 2)
    sens = grid.positions
    a = np.asarray(frame, dtype=float)
    sig2 = meas.noise_variances(grid.count)
    if sensor_indices is not None:
        sensor_indices = np.asarray(sensor_indices, dtype=int)
        sens, a, sig2 = sens[sensor_indices], a[sensor_indices], sig2[sensor_indices]
    rel, rho, rho_p, D, f = offset_pair_terms(pos, sens, meas)
    alpha = f.sum(axis=0)
    res = (alpha - a) / sig2
    value = 0.5 * float(np.dot(alpha - a, res))
    return value, PerCallDerivatives(rel, rho, rho_p, D, res, sig2, meas)


def per_call_combined(x, frame, grid, meas, prior):
    """Reference: value, gradient, Gauss-Newton matrix and Hessian of the
    per-call combined kernel."""
    x = np.asarray(x, dtype=float).ravel()
    value, d = per_call_measurement(x, frame, grid, meas)
    diff = x - prior.mean_x
    prior_grad = prior.xx_inv @ diff
    return (
        value + 0.5 * float(diff @ prior_grad),
        d.grad + prior_grad,
        d.gauss_newton + prior.xx_inv,
        d.hess + prior.xx_inv,
    )


@pytest.mark.parametrize(
    "sensors", [None, np.array([0, 3, 12, 17, 24]), np.array([], dtype=int)],
    ids=["all", "subset", "empty"],
)
def test_per_fit_objectives_equal_the_per_call_kernel_bit_for_bit(
    grid55, meas_default, sensors
):
    # the measurement objective over the sensor set; the combined one always
    # sums over every sensor
    rng = np.random.default_rng(17)
    prior = random_prior(4, rng)
    frame = rng.uniform(0.5, 4.0, size=25)
    measurement = measurement_objective(frame, grid55, meas_default, sensors)
    combined = combined_objective(frame, grid55, meas_default, prior)
    # one objective serves many points, read in either order
    for trial in range(12):
        x = rng.uniform(2.0, 38.0, size=8)
        if trial == 0:
            x[2:4] = grid55.positions[12]  # a target on a sensor: clamped rho
        m_value, m_ref = per_call_measurement(x, frame, grid55, meas_default, sensors)
        c_ref = per_call_combined(x, frame, grid55, meas_default, prior)
        m, c = measurement(x), combined(x)
        if trial % 2:
            _ = (m.hess, c.hess)
        assert m.value == m_value and c.value == c_ref[0]
        assert m.gauss_newton is None
        for got, want in [
            (m.grad, m_ref.grad),
            (m.hess, m_ref.hess),
            (c.grad, c_ref[1]),
            (c.gauss_newton, c_ref[2]),
            (c.hess, c_ref[3]),
        ]:
            assert_close_to_reference(got, want)
        # a fresh objective, and the gate's point evaluation over every
        # sensor, give the reused objectives' bytes
        fresh = [(c.hess, combined_objective(frame, grid55, meas_default, prior)(x).hess)]
        if sensors is None:
            fresh.append((m.grad, measurement_nll(x, frame, grid55, meas_default).grad))
        for got, want in fresh:
            assert got.tobytes() == want.tobytes()


def test_one_fit_gathers_its_sensors_once(grid55, meas_default, monkeypatch):
    gathered = []
    real_variances = MeasurementModel.noise_variances
    monkeypatch.setattr(
        MeasurementModel,
        "noise_variances",
        lambda self, count: gathered.append(1) or real_variances(self, count),
    )
    rng = np.random.default_rng(3)
    pos = rng.uniform(8.0, 32.0, size=(4, 2))
    frame = expected_signal(pos, grid55, meas_default)
    prior = random_prior(4, rng)
    box = box_from_grid(grid55, 4)
    start = pos.ravel() + 0.5
    for build in (
        lambda: measurement_objective(frame, grid55, meas_default),
        lambda: measurement_objective(frame, grid55, meas_default, np.arange(0, 25, 2)),
        lambda: combined_objective(frame, grid55, meas_default, prior),
    ):
        gathered.clear()
        evals = []
        objective = build()

        def counted(x):
            evals.append(1)
            return objective(x)

        minimize(counted, start, box)
        assert len(evals) > 3
        assert len(gathered) == 1


def reference_value_batch(points, frame, grid, meas, prior):
    """Reference: batch values from (K, C, S, 2) target-sensor offsets."""
    pts = np.asarray(points, dtype=float)
    k, n = pts.shape
    f = offset_pair_terms(pts.reshape(k, n // 2, 2), grid.positions, meas)[-1]
    alpha = f.sum(axis=1)
    sig2 = meas.noise_variances(grid.count)
    resid = alpha - np.asarray(frame, dtype=float)
    meas_val = 0.5 * np.einsum("ks,ks->k", resid, resid / sig2)
    diff = pts - prior.mean_x
    prior_val = 0.5 * np.einsum("ki,ij,kj->k", diff, prior.xx_inv, diff)
    return meas_val + prior_val


@pytest.mark.parametrize("c", [1, 4, 9])
def test_combined_value_batch_equals_offset_formula_bit_for_bit(grid55, c):
    rng = np.random.default_rng(23 + c)
    meas = MeasurementModel(exponent=1.5, sigma_s2=rng.uniform(0.01, 0.2, size=25))
    prior = random_prior(c, rng)
    frame = rng.uniform(0.5, 4.0, size=25)
    pts = rng.uniform(-5.0, 45.0, size=(257, 2 * c))
    pts[0, :2] = grid55.positions[6]  # a target on a sensor: clamped rho
    got = combined_value_batch(pts, frame, grid55, meas, prior)
    want = reference_value_batch(pts, frame, grid55, meas, prior)
    # the measurement term keeps its bytes; the prior's quadratic form is now
    # summed as (diff Sigma^-1) . diff, which moves it by rounding only:
    # within 2 n eps of the sum of its terms' magnitudes, plus the rounding
    # of the total
    diff = np.abs(pts - prior.mean_x)
    magnitude = 0.5 * np.einsum("ki,ij,kj->k", diff, np.abs(prior.xx_inv), diff)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 2 * (2 * c) * eps * magnitude + eps * want)


def test_step_matrices_are_cached_and_read_only():
    noise = FilterNoiseModel(alpha=2.0)
    F, V = stacked_transition(3), stacked_filter_noise(3, noise)
    assert stacked_filter_noise(3, noise) is V
    assert stacked_filter_noise(3, FilterNoiseModel()) is not V
    for mat in (F, V):
        with pytest.raises(ValueError):
            mat[0, 0] = 7.0
    eye = np.eye(6)
    np.testing.assert_array_equal(F, np.block([[eye, eye], [0 * eye, eye]]))
    np.testing.assert_array_equal(V, np.block([[2.0 * eye, 0.1 * eye],
                                               [0.1 * eye, 0.03 * eye]]))


def test_grad_and_gauss_newton_build_no_residual_curvature(
    grid55, meas_default, monkeypatch
):
    built = []
    real = nll_module._residual_curvature
    monkeypatch.setattr(
        nll_module, "_residual_curvature", lambda *a: built.append(1) or real(*a)
    )
    rng = np.random.default_rng(5)
    prior = random_prior(4, rng)
    x = rng.uniform(2.0, 38.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    rep = combined_objective(frame, grid55, meas_default, prior)(x)
    _ = (rep.grad, rep.gauss_newton)
    assert built == []
    _ = rep.hess
    assert built == [1]


def test_combined_derivatives_match_fd(grid55, meas_default):
    for meas in fd_models(meas_default):
        rng = np.random.default_rng(9)
        prior = random_prior(4, rng)
        for _ in range(10):
            x = rng.uniform(2.0, 38.0, size=8)
            frame = rng.uniform(0.5, 4.0, size=25)
            objective = combined_objective(frame, grid55, meas, prior)
            rep = objective(x)
            fd_g = fd_gradient(lambda z: objective(z).value, x)
            fd_h = fd_hessian_from_grad(lambda z: objective(z).grad, x)
            np.testing.assert_allclose(rep.grad, fd_g, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(rep.hess, fd_h, rtol=1e-4, atol=1e-5)


def test_combined_value_batch_agrees(grid55, meas_default, rng):
    prior = random_prior(4, rng)
    frame = rng.uniform(0.5, 4.0, size=25)
    pts = rng.uniform(2.0, 38.0, size=(30, 8))
    batch = combined_value_batch(pts, frame, grid55, meas_default, prior)
    objective = combined_objective(frame, grid55, meas_default, prior)
    single = [objective(p).value for p in pts]
    np.testing.assert_allclose(batch, single, rtol=1e-12)


def test_blocked_cloud_misfit_equals_the_whole_cloud_pass_bit_for_bit():
    # the misfit kernel (the particle filter's weights, the cubature's
    # values) runs in blocks of _PARTICLE_BLOCK target sets; every row must
    # come out as one whole-cloud pass gives it
    scn = benchmark_scenario(sigma_s2=0.1)
    grid, meas = scn.grid, scn.meas
    sig2 = meas.noise_variances(grid.count)
    rng = np.random.default_rng(31)
    frame = rng.uniform(0.0, 5.0, size=grid.count)
    for n in (1, _PARTICLE_BLOCK, 2 * _PARTICLE_BLOCK + 17):
        cloud = rng.uniform(-10.0, 50.0, size=(n, 4, 4))
        cloud[0, 0, :2] = grid.positions[7]  # a target on a sensor
        positions = cloud[:, :, :2]  # the strided view bpf_track passes
        whole_signal = expected_signal(positions, grid, meas)
        resid = whole_signal - frame
        whole = np.einsum("ns,ns->n", resid, resid / sig2)
        assert _misfit(positions, frame, grid, meas, sig2).tobytes() == whole.tobytes()
        blocks = [
            expected_signal(positions[lo : lo + _PARTICLE_BLOCK], grid, meas)
            for lo in range(0, n, _PARTICLE_BLOCK)
        ]
        assert np.concatenate(blocks).tobytes() == whole_signal.tobytes()


def test_belief_validation():
    with pytest.raises(ConfigurationError):
        GaussianBelief(mean=np.zeros(6), cov=np.eye(6))  # not a multiple of 4
    with pytest.raises(ConfigurationError):
        GaussianBelief(mean=np.zeros(4), cov=np.eye(3))


def test_belief_rejects_bad_covariance():
    from ttfilter.errors import NumericalError

    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(NumericalError):
        GaussianBelief(mean=np.zeros(4), cov=asym)
    indef = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(NumericalError):
        GaussianBelief(mean=np.zeros(4), cov=indef)
    nan = np.eye(4)
    nan[1, 1] = np.nan
    with pytest.raises(NumericalError, match="not symmetric"):
        GaussianBelief(mean=np.zeros(4), cov=nan)


def eigenvalue_rule_verdict(cov: np.ndarray) -> str | None:
    """The covariance check as an eigenvalue rule alone: the error it gives."""
    n = cov.shape[0]
    scale = max(np.trace(cov) / n, 1e-300)
    if not np.abs(cov - cov.T).max() <= 1e-10 * max(scale, 1.0):
        return "not symmetric"
    if np.linalg.eigvalsh(cov).min() < -1e-8 * scale:
        return "not positive semidefinite"
    return None


def test_belief_check_gives_the_eigenvalue_rules_verdict():
    # Cholesky decides the matrices it factors; the eigenvalue rule decides
    # the rest, so no matrix changes verdict
    from ttfilter.errors import NumericalError

    rng = np.random.default_rng(8)
    spd = random_spd(8, rng)
    vals, vecs = np.linalg.eigh(spd)
    singular = spd.copy()
    singular[4:, :] = singular[:, 4:] = 0.0  # a zero velocity block
    cases = {"pd": (spd, None), "psd-singular": (singular, None)}
    for rel, verdict in ((1e-9, None), (1e-7, "not positive semidefinite")):
        shifted = vals.copy()
        shifted[0] = -rel * vals.sum() / 8  # relative to the mean diagonal
        indef = (vecs * shifted) @ vecs.T
        cases[f"indefinite {rel:g}"] = (0.5 * (indef + indef.T), verdict)
    nan = spd.copy()
    nan[3, 3] = np.nan
    cases["nan"] = (nan, "not symmetric")
    asym = spd.copy()
    asym[0, 1] += 1e-6
    cases["asymmetric"] = (asym, "not symmetric")
    for name, (cov, verdict) in cases.items():
        assert eigenvalue_rule_verdict(cov) == verdict, name
        if name.startswith(("psd", "indefinite")):  # decided by the eigenvalues
            assert dpotrf(cov, lower=1)[1] != 0, name
        if verdict is None:
            GaussianBelief(mean=np.zeros(8), cov=cov)
        else:
            with pytest.raises(NumericalError, match=verdict):
                GaussianBelief(mean=np.zeros(8), cov=cov)
