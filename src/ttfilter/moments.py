"""Posterior moments from sigma points and the conditional-velocity update.

Velocities never enter the spatial objective, so their posterior follows from
the joint Gaussian prior: with gain Q = Sigma_vx Sigma_xx^{-1} (prior blocks),
the conditional velocity distribution given x is Gaussian with mean q + Q x,
q = m_v - Q m_x, and covariance Sigma_vv - Q Sigma_xv independent of x.
Averaging over the sigma-point posterior on x gives closed forms:

    m_v       = q + Q m_x_post
    Sigma_vv  = (Sigma_vv - Q Sigma_xv) + Q Sigma_xx_post Q^T
    Sigma_vx  = Q Sigma_xx_post

``assemble`` joins the spatial and velocity moments into the posterior, an
``nll.GaussianBelief`` that the next step takes as its belief unchanged.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import NumericalError
from .nll import GaussianBelief, PropagatedPrior
from .quadrature import SigmaPointSet

EIGEN_FLOOR = 1e-10
_EPS = float(np.finfo(float).eps)


def spatial_moments(points: SigmaPointSet) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance of a sigma-point set."""
    w = points.weights
    mean = w @ points.points
    diff = points.points - mean
    # the products (w_k d_ki) d_kj summed over k in the order of the
    # three-operand form "k,ki,kj->ij", at half its cost
    cov = np.einsum("ki,kj->ij", w[:, None] * diff, diff)
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
) -> GaussianBelief:
    """The joint posterior belief, with eigenvalues floored at ``EIGEN_FLOOR``.

    The cubature can return a spatial covariance with a slightly negative
    eigenvalue when the weights concentrate on few points; the floor keeps
    the belief usable as the next step's prior.  The joint covariance
    [[cov_xx, cov_vx^T], [cov_vx, cov_vv]] is exactly symmetric after
    0.5 (J + J^T), so re-joining the belief's blocks gives it back byte for
    byte.
    """
    for name, blk in (("cov_xx", cov_xx), ("cov_vv", cov_vv)):
        tol = 1e-8 * max(1.0, np.abs(blk).max())
        if not np.abs(blk - blk.T).max() <= tol:  # NaN fails
            raise NumericalError(f"{name} block is not symmetric")
    d = cov_xx.shape[0]
    joint = np.empty((d + cov_vv.shape[0],) * 2)
    joint[:d, :d] = cov_xx
    joint[:d, d:] = cov_vx.T
    joint[d:, :d] = cov_vx
    joint[d:, d:] = cov_vv
    joint = 0.5 * (joint + joint.T)
    if not _clears_floor(joint):
        vals, vecs = np.linalg.eigh(joint)
        if vals.min() < EIGEN_FLOOR:
            joint = (vecs * np.maximum(vals, EIGEN_FLOOR)) @ vecs.T
            joint = 0.5 * (joint + joint.T)
    return GaussianBelief(mean=np.concatenate([mean_x, mean_v]), cov=joint)


def _clears_floor(joint: np.ndarray) -> bool:
    """Whether every eigenvalue of ``joint`` is certainly above ``EIGEN_FLOOR``.

    One Cholesky factorization of ``joint`` shifted down by a margin
    answers this for the typical posterior in a fraction of an ``eigh``.
    The margin is the floor plus 2 n^2 eps trace(joint): factoring succeeds
    only above about -n^2 eps trace of the shifted matrix's least
    eigenvalue (the factor's backward error), and ``eigh`` computes that
    eigenvalue to about n eps trace.  So when the factorization succeeds,
    the eigenvalues ``eigh`` would return all clear the floor and it would
    return ``joint`` unchanged.  A NaN, a failed factorization or a joint
    within the margin of the floor takes the ``eigh`` path.
    """
    n = joint.shape[0]
    trace = float(np.trace(joint))
    shifted = joint.copy()
    shifted.flat[:: n + 1] -= EIGEN_FLOOR + 2.0 * n * n * _EPS * trace
    factor, info = dpotrf(shifted, lower=1, clean=0, overwrite_a=1)
    return info == 0 and math.isfinite(factor.trace())
