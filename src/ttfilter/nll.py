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

The kernel.  The target-sensor offsets come from ``model._pair_distances``
as a (C, 2, S) array, so the Jacobian of the S signals is a (2C, S) matrix J
by a reshape, with no copy.  The gradient is J res, the Gauss-Newton matrix
Js Js^T with Js = J / sigma_s (1 / sigma_s is computed once per objective),
and the residual-curvature blocks are one batched (C, 2, S) @ (C, S, 2)
product of the weighted offsets.  Both matrices, and so the exact Hessian,
are exactly symmetric.  On one core, with 4 targets and 25 sensors, a
value costs about 8 us and a value with gradient and exact Hessian about
20 us, mostly per-call numpy overhead on such small arrays.

The filter's Gaussian model lives here too.  ``GaussianBelief`` is the one
belief type: a validated mean and covariance over the stacked state [x; v],
with its blocks as views.  ``propagate_prior`` turns it into a
``PropagatedPrior``, the same belief plus the inverse of its spatial block,
and ``moments.assemble`` returns the posterior as a ``GaussianBelief``.

Each fit builds its objective once: ``measurement_objective`` and
``combined_objective`` gather and check the sensor positions, frame entries
and noise variances of the fit's sensor set, and return the function
``x -> NllReport`` that ``optimize.minimize`` evaluates; ``measurement_nll``
is the all-sensor one at one point, the gate's statistic.

Which curvature drives which Newton iterations: the Gauss-Newton term plus
the prior precision Sigma_xx^{-1} is positive definite at every point, and
``combined_objective`` offers it as ``NllReport.gauss_newton``, so the main
(prior-anchored) fit takes its first few directions from it and needs no
Levenberg shift there (see ``optimize.minimize``).  The exact Hessian is
built only where it is read: for the later iterations, and at the final
iterate, whose Hessian shapes the cubature; where that Hessian is not
positive definite, the same Gauss-Newton matrix stands in for it
(``hessfix``).  ``measurement_objective`` offers no such matrix, so the
measurement-only fits (recovery and the fixed-center initial fit) run exact
Newton throughout.  That split was measured: warming the measurement-only
fits up as well made the ``acquire`` benchmark worse (square-hopping calls
11 -> 64 and one-by-one calls 165 -> 218 per round, p99 47 -> 104 ms, avg
OMAT 0.518 -> 0.533 m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigurationError, NumericalError
from .model import (
    MeasurementModel, SensorGrid, _distance_terms, _pair_distances, expected_signal,
)


class NllReport:
    """Objective value with its gradient and Hessian at one point.

    ``grad`` and ``hess`` are given as arrays, or as functions of no
    arguments that build them when first read; the objectives in this module
    compute only the value at once.  A line-search trial that is rejected
    reads only the value, so it never builds a derivative.

    ``gauss_newton``, when given, is a positive-definite stand-in for the
    Hessian that is cheaper to build: only ``combined_objective`` offers one
    (the Gauss-Newton matrix plus the prior precision).  It is None otherwise.
    """

    __slots__ = ("value", "_grad", "_hess", "_gauss_newton")

    def __init__(
        self,
        value: float,
        grad: np.ndarray | Callable[[], np.ndarray],  # (n,)
        hess: np.ndarray | Callable[[], np.ndarray],  # (n, n), symmetric
        gauss_newton: np.ndarray | Callable[[], np.ndarray] | None = None,  # PD
    ):
        self.value = value
        self._grad = grad
        self._hess = hess
        self._gauss_newton = gauss_newton

    @property
    def grad(self) -> np.ndarray:
        if callable(self._grad):
            self._grad = self._grad()
        return self._grad

    @property
    def hess(self) -> np.ndarray:
        if callable(self._hess):
            self._hess = self._hess()
        return self._hess

    @property
    def gauss_newton(self) -> np.ndarray | None:
        if callable(self._gauss_newton):
            self._gauss_newton = self._gauss_newton()
        return self._gauss_newton


Objective = Callable[[np.ndarray], NllReport]


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
    """Reject a covariance that is not symmetric or not positive semidefinite.

    Symmetry is checked first, so a NaN or infinity fails there.  A matrix
    that Cholesky factors has no eigenvalue below -1e-8 times its mean
    diagonal (rounding moves them by about n * eps times that), so the
    eigenvalues are computed only for a matrix ``dpotrf`` rejects: a
    singular or slightly indefinite one.
    """
    n = cov.shape[0]
    scale = max(np.trace(cov) / n, 1e-300)
    if not np.abs(cov - cov.T).max() <= 1e-10 * max(scale, 1.0):  # NaN fails
        raise NumericalError(f"{name} is not symmetric")
    if dpotrf(cov, lower=1, clean=0)[1] == 0:
        return
    if np.linalg.eigvalsh(cov).min() < -1e-8 * scale:
        raise NumericalError(f"{name} is not positive semidefinite")


@dataclass(frozen=True)
class GaussianBelief:
    """Joint Gaussian over the stacked state [x; v], validated on construction.

    ``x`` stacks the C target positions (x1, y1, ..., xC, yC) and ``v`` their
    velocities in the same order.  The block properties are views into
    ``mean`` and ``cov``.  The filter's prior (``PropagatedPrior``) and its
    posterior (``moments.assemble``) are both of this type, and a step's
    posterior is the next step's belief as it is.
    """

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

    def belief(self) -> GaussianBelief:
        """This belief itself: a posterior is the next step's belief as it is."""
        return self


@dataclass(frozen=True)
class PropagatedPrior(GaussianBelief):
    """One-step-ahead prior: ``cov`` is F Sigma F^T + V' for the stacked
    constant-velocity model, and ``xx_inv`` the inverse of its spatial block,
    computed once per step because every NLL evaluation needs it.
    """

    xx_inv: np.ndarray  # (2C, 2C)


@lru_cache(maxsize=16)
def stacked_transition(n_targets: int) -> np.ndarray:
    """Big constant-velocity transition [[I, I], [0, I]] (blocks of 2C).

    Built once per target count and returned read-only.  ``propagate_prior``
    applies it by block additions instead; the dense matrix is the reference
    those additions must equal.
    """
    d = 2 * n_targets
    eye = np.eye(d)
    top = np.hstack([eye, eye])
    bot = np.hstack([np.zeros((d, d)), eye])
    F = np.vstack([top, bot])
    F.setflags(write=False)
    return F


@lru_cache(maxsize=16)
def stacked_filter_noise(n_targets: int, noise: FilterNoiseModel) -> np.ndarray:
    """Big V' for the stacked layout (scalar blocks times identity).

    Built once per target count and noise model and returned read-only.
    """
    d = 2 * n_targets
    eye = np.eye(d)
    V = np.block(
        [[noise.alpha * eye, noise.cross * eye],
         [noise.cross * eye, noise.vel * eye]]
    )
    V.setflags(write=False)
    return V


def propagate_prior(belief: GaussianBelief, noise: FilterNoiseModel) -> PropagatedPrior:
    """Push a posterior through the constant-velocity model and add V'.

    With F = [[I, I], [0, I]] (blocks of 2C) and the belief's blocks
    [[A, B], [B^T, D]], F Sigma F^T is [[A + B^T + B + D, B + D],
    [B^T + D, D]] and F m is [m_x + m_v, m_v].  These are formed here by
    block additions, in the order the dense products add them: F Sigma's top
    row is [A + B^T, B + D], and multiplying by F^T on the right adds its
    two blocks.  Each entry of a dense product with F is the sum of two
    products by 1, which are exact, and of products by 0, which are exact
    zeros, so the block form gives the same numbers to the last bit (up to
    the sign of an exact zero, which the added V' then clears from the
    covariance).  The spatial block is factored and inverted with LAPACK's
    ``dpotrf`` and ``dpotrs``; a block that is not positive definite, or
    holds a NaN or infinity, raises ``NumericalError``.
    """
    d = 2 * belief.n_targets
    m, cov_in = belief.mean, belief.cov
    a, b = cov_in[:d, :d], cov_in[:d, d:]
    bt, dd = cov_in[d:, :d], cov_in[d:, d:]
    top_right = b + dd  # the top-right block of F Sigma, also that of F Sigma F^T
    cov = np.empty_like(cov_in)
    cov[:d, :d] = (a + bt) + top_right
    cov[:d, d:] = top_right
    cov[d:, :d] = bt + dd
    cov[d:, d:] = dd
    cov += stacked_filter_noise(belief.n_targets, noise)
    cov = 0.5 * (cov + cov.T)
    mean = np.concatenate([m[:d] + m[d:], m[d:]])
    # a NaN can pass dpotrf, but it spreads to the factor's diagonal, as
    # does an infinity that does not already make a pivot non-positive
    factor, info = dpotrf(cov[:d, :d], lower=1, clean=0)
    if info != 0 or not math.isfinite(factor.trace()):
        raise NumericalError(
            f"propagated spatial covariance not PD (dpotrf info {info})"
        )
    xx_inv = dpotrs(factor, np.eye(d), lower=1)[0]
    xx_inv = 0.5 * (xx_inv + xx_inv.T)
    return PropagatedPrior(mean=mean, cov=cov, xx_inv=xx_inv)


def _residual_curvature(
    r: np.ndarray, rho: np.ndarray, rho_p: np.ndarray, D: np.ndarray,
    g: np.ndarray, res: np.ndarray, p: float,
) -> np.ndarray:
    """Residual-curvature blocks sum_s res_s hess f_cs, one 2x2 per target.

    ``r`` holds the (C, 2, S) target-sensor offsets.  The beta r r^T part
    is one batched (C, 2, S) @ (C, S, 2) product of the weighted offsets;
    its off-diagonal entry is then copied across, so each block is exactly
    symmetric.
    """
    beta = g / (rho * rho) * ((p - 2.0) - 2.0 * p * rho_p / D)  # (C, S)
    blocks = (r * (res * beta)[:, None, :]) @ r.transpose(0, 2, 1)
    blocks[:, 1, 0] = blocks[:, 0, 1]
    diagonal = g @ res  # the g I part, sum_s res_s g_cs per target
    blocks[:, 0, 0] += diagonal
    blocks[:, 1, 1] += diagonal
    return blocks


@lru_cache(maxsize=16)
def _diagonal_blocks(n_targets: int) -> np.ndarray:
    """Flat indices of the 2x2 diagonal blocks of a (2C, 2C) matrix.

    Entry [c, i, j] is the index of element (2c + i, 2c + j), the layout of
    the residual-curvature blocks.  Built once per target count, read-only.
    """
    n = 2 * n_targets
    c, i, j = np.ogrid[:n_targets, :2, :2]
    idx = (2 * c + i) * n + 2 * c + j
    idx.setflags(write=False)
    return idx.reshape(-1)


class _MeasurementDerivatives:
    """Derivatives of the measurement term at one point, each built on first use.

    ``grad`` and ``gauss_newton`` share the (2C, S) Jacobian J of the
    per-sensor signal, the (C, 2, S) offsets scaled per pair and reshaped
    without a copy: the gradient is J res and the Gauss-Newton matrix
    Js Js^T with Js = J / sigma_s, a product that is exactly symmetric.
    ``hess`` adds the residual-curvature blocks to ``gauss_newton``, so
    reading either of the first two never builds those blocks.  Each is a
    method that keeps what it built, so it can be handed to ``NllReport``
    as it is.
    """

    __slots__ = (
        "_r", "_rho", "_rho_p", "_D", "_res", "_inv_sd", "_p", "_A",
        "_g", "_jac", "_grad", "_gauss_newton", "_hess",
    )

    def __init__(self, r, rho, rho_p, D, res, inv_sd, meas: MeasurementModel):
        self._r, self._rho, self._rho_p, self._D = r, rho, rho_p, D
        self._res, self._inv_sd = res, inv_sd
        self._p, self._A = meas.exponent, meas.amplitude
        self._g = self._jac = self._grad = self._gauss_newton = self._hess = None

    def _jacobian(self) -> np.ndarray:  # (2C, S): row 2c + i is d f_cs / d x_ci
        if self._jac is None:
            # g = -p A rho^(p-2) / D^2 per pair, clamped rho
            rho, D = self._rho, self._D
            self._g = -self._p * self._A * self._rho_p / (rho * rho * D * D)
            c, _, s = self._r.shape
            self._jac = (self._g[:, None, :] * self._r).reshape(2 * c, s)
        return self._jac

    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = self._jacobian() @ self._res
        return self._grad

    def gauss_newton(self) -> np.ndarray:
        """sum_s (grad alpha_s)(grad alpha_s)^T / sigma_s^2, coupling targets."""
        if self._gauss_newton is None:
            js = self._jacobian() * self._inv_sd
            self._gauss_newton = js @ js.T
        return self._gauss_newton

    def hess(self) -> np.ndarray:
        if self._hess is None:
            gauss_newton = self.gauss_newton()  # also sets self._g
            blocks = _residual_curvature(
                self._r, self._rho, self._rho_p, self._D, self._g, self._res, self._p
            )
            hess = gauss_newton.copy()
            hess.reshape(-1)[_diagonal_blocks(blocks.shape[0])] += blocks.reshape(-1)
            self._hess = hess
        return self._hess


def _sensor_terms(
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    sensor_indices: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What a fit sums over: the sensor coordinates (2, S), the frame
    entries, the noise variances and their inverse square roots.  A frame
    that is not one reading per sensor is a ``ConfigurationError``."""
    sens_t = grid.positions_t
    a = np.asarray(frame, dtype=float)
    if a.shape != (grid.count,):
        raise ConfigurationError(
            f"frame has shape {a.shape}, the grid needs ({grid.count},)"
        )
    sig2 = meas.noise_variances(grid.count)
    if sensor_indices is not None:
        sensor_indices = np.asarray(sensor_indices, dtype=int)
        sens_t = sens_t.take(sensor_indices, axis=1)
        a = a[sensor_indices]
        sig2 = sig2[sensor_indices]
    if np.any(sig2 <= 0.0):
        raise ConfigurationError("measurement NLL needs positive noise variances")
    return sens_t, a, sig2, 1.0 / np.sqrt(sig2)


def _measurement_terms(
    x: np.ndarray,
    sens_t: np.ndarray,
    a: np.ndarray,
    sig2: np.ndarray,
    inv_sd: np.ndarray,
    meas: MeasurementModel,
) -> tuple[float, _MeasurementDerivatives]:
    """Measurement value, and the derivatives there, built when first read."""
    pos = np.asarray(x, dtype=float).reshape(-1, 2)
    r, rho = _pair_distances(pos, sens_t)  # r (C, 2, S), rho (C, S)
    rho_p, D, f = _distance_terms(rho, meas)
    resid = f.sum(axis=0) - a  # alpha - a
    res = resid / sig2  # (S,)
    value = 0.5 * float(np.dot(resid, res))
    return value, _MeasurementDerivatives(r, rho, rho_p, D, res, inv_sd, meas)


def measurement_objective(
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    sensor_indices: np.ndarray | None = None,
) -> Objective:
    """The measurement half of the objective, as a function ``x -> NllReport``.

    The sensor positions, frame entries and noise variances are gathered and
    checked once, here, so one fit builds one objective and every evaluation
    reuses them.  ``sensor_indices`` restricts the sum to a subset of sensors
    (recovery needs this); None means all sensors.  The
    gradient and Hessian are built when first read.  No Gauss-Newton matrix
    is offered, so fits of this objective run exact Newton from the first
    iteration (see the module docstring for why).
    """
    terms = _sensor_terms(frame, grid, meas, sensor_indices)

    def evaluate(x: np.ndarray) -> NllReport:
        value, d = _measurement_terms(x, *terms, meas)
        return NllReport(value, d.grad, d.hess)

    return evaluate


def combined_objective(
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    prior: PropagatedPrior,
) -> Objective:
    """Measurement plus prior objective over every sensor, as a function
    ``x -> NllReport``.

    Built once per fit like ``measurement_objective``; derivatives are built
    when first read.  Besides the exact Hessian each report offers
    ``gauss_newton``: the Gauss-Newton matrix plus the prior precision
    ``xx_inv``.  That is positive definite wherever the objective is
    evaluated, so ``optimize.minimize`` can take its first directions from
    it without a Levenberg shift search, and ``hessfix.repair_hessian``
    factors it where the exact Hessian is not positive definite.
    """
    terms = _sensor_terms(frame, grid, meas, None)
    mean_x, xx_inv = prior.mean_x, prior.xx_inv

    def evaluate(x: np.ndarray) -> NllReport:
        x = np.asarray(x, dtype=float).ravel()
        value, d = _measurement_terms(x, *terms, meas)
        diff = x - mean_x
        prior_grad = xx_inv @ diff
        return NllReport(
            value + 0.5 * float(diff @ prior_grad),
            lambda: d.grad() + prior_grad,
            lambda: d.hess() + xx_inv,
            lambda: d.gauss_newton() + xx_inv,
        )

    return evaluate


def measurement_nll(
    x: np.ndarray, frame: np.ndarray, grid: SensorGrid, meas: MeasurementModel
) -> NllReport:
    """``measurement_objective(frame, grid, meas)`` at one point."""
    return measurement_objective(frame, grid, meas)(x)


# Target sets per block of ``_misfit``: 2048 x 25 sensors keeps each (B, S)
# temporary at 400 kB.  At 10^5 particles this cut the particle filter's
# weighting from about 55 to 34 ms a step against one whole-cloud pass.
_PARTICLE_BLOCK = 2048


def _misfit(
    positions: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    sig2: np.ndarray,
) -> np.ndarray:
    """sum_s (alpha_s - a_s)^2 / sigma_s^2 for each target set of (N, C, 2).

    The signal is ``model.expected_signal``, which adds the targets one at a
    time.  The sets are evaluated in blocks of ``_PARTICLE_BLOCK``, so each
    block's (B, S) temporaries stay in the L2 cache; each row is computed by
    the same operations as in one whole-cloud pass, to the last bit.
    """
    out = np.empty(positions.shape[0])
    for lo in range(0, positions.shape[0], _PARTICLE_BLOCK):
        resid = expected_signal(positions[lo : lo + _PARTICLE_BLOCK], grid, meas) - frame
        out[lo : lo + _PARTICLE_BLOCK] = np.einsum("ns,ns->n", resid, resid / sig2)
    return out


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
    _, a, sig2, _ = _sensor_terms(frame, grid, meas, None)
    meas_val = 0.5 * _misfit(pts.reshape(k, n // 2, 2), a, grid, meas, sig2)
    diff = pts - prior.mean_x
    prior_val = 0.5 * np.einsum("ki,ki->k", diff @ prior.xx_inv, diff)
    return meas_val + prior_val
