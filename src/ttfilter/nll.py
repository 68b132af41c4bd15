"""Negative log-likelihood surfaces with exact gradients and Hessians.

The spatial objective minimized each step is

    N(x) = sum_s (alpha_s(x) - a_s)^2 / (2 sigma_s^2)
         + (x - m)^T Sigma_xx^{-1} (x - m) / 2

over the stacked position vector x (length 2C), where alpha_s is the summed
signal model and (m, Sigma_xx) come from the propagated prior.  Constant terms
are dropped throughout; they shift the value but not the estimate.

For one target-sensor pair with clamped distance rho = max(||r||, R_MIN),
u = rho^2 and D = rho^p + d0:

    f      = A / D
    grad f = g r            with g    = -p A rho^(p-2) / D^2
    hess f = beta r r^T + g I
             with beta = (g / u) * ((p - 2) - 2 p rho^p / D)

The measurement Hessian couples targets through the Gauss-Newton term
sum_s (grad alpha_s)(grad alpha_s)^T / sigma_s^2; the residual-curvature term
is block diagonal per target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericalError
from .model import MeasurementModel, SensorGrid, _pair_terms


@dataclass
class NllReport:
    """Objective value with its gradient and Hessian at one point."""

    value: float
    grad: np.ndarray  # (n,)
    hess: np.ndarray  # (n, n), symmetric

    def __add__(self, other: "NllReport") -> "NllReport":
        return NllReport(
            value=self.value + other.value,
            grad=self.grad + other.grad,
            hess=self.hess + other.hess,
        )


@dataclass(frozen=True)
class FilterNoiseModel:
    """Process noise the filter assumes, per target:

        [[alpha, 0,     cross, 0    ],
         [0,     alpha, 0,     cross],
         [cross, 0,     vel,   0    ],
         [0,     cross, 0,     vel  ]]

    Deliberately wider than the true process noise so the prior never pins a
    lost target; ``alpha`` is the spatial inflation knob.
    """

    alpha: float = 3.0
    cross: float = 0.1
    vel: float = 0.03

    def __post_init__(self):
        # PSD requires alpha * vel >= cross^2 (2x2 minor per coordinate)
        if self.alpha < 0.0 or self.vel < 0.0:
            raise ConfigurationError("noise diagonal must be non-negative")
        if self.alpha * self.vel < self.cross**2 - 1e-12:
            raise ConfigurationError(
                f"filter noise not PSD: alpha*vel={self.alpha * self.vel:.6g} "
                f"< cross^2={self.cross**2:.6g}"
            )

    @property
    def V_prime(self) -> np.ndarray:
        a, c, v = self.alpha, self.cross, self.vel
        return np.array(
            [[a, 0.0, c, 0.0],
             [0.0, a, 0.0, c],
             [c, 0.0, v, 0.0],
             [0.0, c, 0.0, v]]
        )


def _check_cov(cov: np.ndarray, name: str) -> None:
    n = cov.shape[0]
    scale = max(np.trace(cov) / n, 1e-300)
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * max(scale, 1.0)):
        raise NumericalError(f"{name} is not symmetric")
    if np.linalg.eigvalsh(cov).min() < -1e-8 * scale:
        raise NumericalError(f"{name} is not positive semidefinite")


@dataclass(frozen=True)
class GaussianBelief:
    """Joint Gaussian over the stacked state (positions then velocities)."""

    mean: np.ndarray  # (4C,)
    cov: np.ndarray  # (4C, 4C)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 4 or cov.shape != (mean.size, mean.size):
            raise ConfigurationError(
                f"belief shapes inconsistent: mean {mean.shape}, cov {cov.shape}"
            )
        _check_cov(cov, "belief covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_targets(self) -> int:
        return self.mean.size // 4

    @property
    def positions(self) -> np.ndarray:
        return self.mean[: 2 * self.n_targets]

    @property
    def velocities(self) -> np.ndarray:
        return self.mean[2 * self.n_targets :]


@dataclass(frozen=True)
class PropagatedPrior:
    """One-step-ahead prior with cached spatial blocks.

    ``cov`` is F Sigma F^T + V' for the stacked constant-velocity model;
    ``xx_inv`` is the inverse of its spatial block, computed once per step
    because every NLL evaluation needs it.
    """

    mean: np.ndarray  # (4C,)
    cov: np.ndarray  # (4C, 4C)
    xx_inv: np.ndarray  # (2C, 2C)

    @property
    def n_targets(self) -> int:
        return self.mean.size // 4

    @property
    def mean_x(self) -> np.ndarray:
        return self.mean[: 2 * self.n_targets]

    @property
    def mean_v(self) -> np.ndarray:
        return self.mean[2 * self.n_targets :]

    @property
    def cov_xx(self) -> np.ndarray:
        d = 2 * self.n_targets
        return self.cov[:d, :d]

    @property
    def cov_vx(self) -> np.ndarray:
        d = 2 * self.n_targets
        return self.cov[d:, :d]

    @property
    def cov_vv(self) -> np.ndarray:
        d = 2 * self.n_targets
        return self.cov[d:, d:]


def stacked_transition(n_targets: int) -> np.ndarray:
    """Big constant-velocity transition [[I, I], [0, I]] (blocks of 2C)."""
    d = 2 * n_targets
    eye = np.eye(d)
    top = np.hstack([eye, eye])
    bot = np.hstack([np.zeros((d, d)), eye])
    return np.vstack([top, bot])


def stacked_filter_noise(n_targets: int, noise: FilterNoiseModel) -> np.ndarray:
    """Big V' for the stacked layout (scalar blocks times identity)."""
    d = 2 * n_targets
    eye = np.eye(d)
    return np.block(
        [[noise.alpha * eye, noise.cross * eye],
         [noise.cross * eye, noise.vel * eye]]
    )


def propagate_prior(belief: GaussianBelief, noise: FilterNoiseModel) -> PropagatedPrior:
    """Push a posterior through the constant-velocity model and add V'."""
    c = belief.n_targets
    F = stacked_transition(c)
    mean = F @ belief.mean
    cov = F @ belief.cov @ F.T + stacked_filter_noise(c, noise)
    cov = 0.5 * (cov + cov.T)
    d = 2 * c
    try:
        chol = scipy.linalg.cho_factor(cov[:d, :d], lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"propagated spatial covariance not PD: {exc}") from exc
    xx_inv = scipy.linalg.cho_solve(chol, np.eye(d))
    xx_inv = 0.5 * (xx_inv + xx_inv.T)
    return PropagatedPrior(mean=mean, cov=cov, xx_inv=xx_inv)


def measurement_nll(
    x: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    sensor_indices: np.ndarray | None = None,
) -> NllReport:
    """Measurement half of the objective with exact derivatives.

    ``sensor_indices`` restricts the sum to a subset of sensors (recovery and
    Hessian repair need this); None means all sensors.
    """
    pos = np.asarray(x, dtype=float).reshape(-1, 2)
    n = pos.size
    c = pos.shape[0]
    sens = grid.positions
    a = np.asarray(frame, dtype=float)
    sig2 = meas.noise_variances(grid.count)
    if sensor_indices is not None:
        sensor_indices = np.asarray(sensor_indices, dtype=int)
        sens = sens[sensor_indices]
        a = a[sensor_indices]
        sig2 = sig2[sensor_indices]
    if sens.shape[0] == 0:
        return NllReport(0.0, np.zeros(n), np.zeros((n, n)))
    if np.any(sig2 <= 0.0):
        raise ConfigurationError("measurement NLL needs positive noise variances")

    p, A = meas.exponent, meas.amplitude
    rel, rho, rho_p, D, f = _pair_terms(pos, sens, meas)  # rel (C, S, 2), rest (C, S)
    alpha = f.sum(axis=0)
    res = (alpha - a) / sig2  # (S,)

    value = 0.5 * float(np.dot(alpha - a, res))

    g = -p * A * rho_p / (rho * rho * D * D)  # p A rho^(p-2) / D^2, clamped rho
    jac = g[:, :, None] * rel  # (C, S, 2) gradient of f per pair
    grad = np.einsum("s,csi->ci", res, jac).ravel()

    # Gauss-Newton cross-target term
    jflat = jac.transpose(1, 0, 2).reshape(-1, n)  # (S, 2C)
    hess = jflat.T @ (jflat / sig2[:, None])
    # residual curvature, block diagonal per target
    beta = g / (rho * rho) * ((p - 2.0) - 2.0 * p * rho_p / D)  # (C, S)
    blocks = np.einsum("cs,csi,csj->cij", res * beta, rel, rel)
    blocks[:, [0, 1], [0, 1]] += (res * g).sum(axis=1)[:, None]
    idx = np.arange(n).reshape(c, 2)
    hess[idx[:, :, None], idx[:, None, :]] += blocks
    hess = 0.5 * (hess + hess.T)
    return NllReport(value, grad, hess)


def prior_nll(x: np.ndarray, prior: PropagatedPrior) -> NllReport:
    """Quadratic prior term (x - m)^T Sigma_xx^{-1} (x - m) / 2."""
    x = np.asarray(x, dtype=float).ravel()
    diff = x - prior.mean_x
    grad = prior.xx_inv @ diff
    return NllReport(0.5 * float(diff @ grad), grad, prior.xx_inv.copy())


def combined_nll(
    x: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    prior: PropagatedPrior,
    sensor_indices: np.ndarray | None = None,
) -> NllReport:
    """Measurement plus prior objective."""
    return measurement_nll(x, frame, grid, meas, sensor_indices) + prior_nll(x, prior)


def combined_value_batch(
    points: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    prior: PropagatedPrior,
) -> np.ndarray:
    """Objective values only, for a (K, 2C) batch of stacked positions."""
    pts = np.asarray(points, dtype=float)
    k, n = pts.shape
    f = _pair_terms(pts.reshape(k, n // 2, 2), grid.positions, meas)[-1]
    alpha = f.sum(axis=1)  # (K, S)
    sig2 = meas.noise_variances(grid.count)
    if np.any(sig2 <= 0.0):
        raise ConfigurationError("measurement NLL needs positive noise variances")
    resid = alpha - np.asarray(frame, dtype=float)
    meas_val = 0.5 * np.einsum("ks,ks->k", resid, resid / sig2)
    diff = pts - prior.mean_x
    prior_val = 0.5 * np.einsum("ki,ij,kj->k", diff, prior.xx_inv, diff)
    return meas_val + prior_val
