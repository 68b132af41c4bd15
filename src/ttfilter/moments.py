"""Posterior moments from sigma points and the conditional-velocity update.

Velocities never enter the spatial objective, so their posterior follows from
the joint Gaussian prior: with gain Q = Sigma_vx Sigma_xx^{-1} (prior blocks),
the conditional velocity distribution given x is Gaussian with mean q + Q x,
q = m_v - Q m_x, and covariance Sigma_vv - Q Sigma_xv independent of x.
Averaging over the sigma-point posterior on x gives closed forms:

    m_v       = q + Q m_x_post
    Sigma_vv  = (Sigma_vv - Q Sigma_xv) + Q Sigma_xx_post Q^T
    Sigma_vx  = Q Sigma_xx_post
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .nll import GaussianBelief, PropagatedPrior
from .quadrature import SigmaPointSet

EIGEN_FLOOR = 1e-10


@dataclass(frozen=True)
class PosteriorBelief:
    """Posterior blocks plus the assembled joint Gaussian."""

    mean_x: np.ndarray
    mean_v: np.ndarray
    cov_xx: np.ndarray
    cov_vv: np.ndarray
    cov_vx: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        return np.concatenate([self.mean_x, self.mean_v])

    @property
    def cov(self) -> np.ndarray:
        return np.block([[self.cov_xx, self.cov_vx.T], [self.cov_vx, self.cov_vv]])

    def belief(self) -> GaussianBelief:
        return GaussianBelief(mean=self.mean, cov=self.cov)


def spatial_moments(points: SigmaPointSet) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance of a sigma-point set."""
    w = points.weights
    mean = w @ points.points
    diff = points.points - mean
    cov = np.einsum("k,ki,kj->ij", w, diff, diff)
    return mean, 0.5 * (cov + cov.T)


def velocity_moments(
    prior: PropagatedPrior, mean_x: np.ndarray, cov_xx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Velocity mean, covariance and cross-covariance given spatial moments."""
    gain = prior.cov_vx @ prior.xx_inv
    shift = prior.mean_v - gain @ prior.mean_x
    cond_vv = prior.cov_vv - gain @ prior.cov_vx.T
    mean_v = shift + gain @ mean_x
    cov_vv = cond_vv + gain @ cov_xx @ gain.T
    cov_vx = gain @ cov_xx
    return mean_v, 0.5 * (cov_vv + cov_vv.T), cov_vx


def assemble(
    mean_x: np.ndarray,
    mean_v: np.ndarray,
    cov_xx: np.ndarray,
    cov_vv: np.ndarray,
    cov_vx: np.ndarray,
) -> PosteriorBelief:
    """Assemble the joint posterior, flooring eigenvalues at ``EIGEN_FLOOR``.

    The cubature can return a spatial covariance with a slightly negative
    eigenvalue when the weights concentrate on few points; the floor keeps
    the belief usable as the next step's prior.
    """
    for name, blk in (("cov_xx", cov_xx), ("cov_vv", cov_vv)):
        if not np.allclose(blk, blk.T, rtol=0.0, atol=1e-8 * max(1.0, np.abs(blk).max())):
            raise NumericalError(f"{name} block is not symmetric")
    joint = np.block([[cov_xx, cov_vx.T], [cov_vx, cov_vv]])
    joint = 0.5 * (joint + joint.T)
    vals, vecs = np.linalg.eigh(joint)
    if vals.min() < EIGEN_FLOOR:
        joint = (vecs * np.maximum(vals, EIGEN_FLOOR)) @ vecs.T
        joint = 0.5 * (joint + joint.T)
    d = len(mean_x)
    return PosteriorBelief(
        mean_x=np.asarray(mean_x, dtype=float),
        mean_v=np.asarray(mean_v, dtype=float),
        cov_xx=joint[:d, :d],
        cov_vv=joint[d:, d:],
        cov_vx=joint[d:, :d],
    )
