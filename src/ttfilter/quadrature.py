"""Sigma-point cubature for exp(-NLL) moments.

The posterior spatial density is proportional to exp(-N(x)) in d = 2C
dimensions.  Writing x = m + L^{-T} y, where H = L L^T is the Cholesky
factorization the Hessian repair hands over, and integrating in spherical
coordinates splits the problem into a radial integral with weight
t^(d/2 - 1) e^{-t} (after t = r^2 / 2), handled exactly for cubics by the
two-point generalized Gauss-Laguerre rule, and a spherical integral handled
by the d(d+1) unit directions of a rotated simplex root lattice, whose
antipodal symmetry integrates odd terms exactly and whose second moment is
isotropic.  The resulting 2 d(d+1) weighted points reproduce the mean and
covariance of a Gaussian exactly and correct them for non-Gaussian shape
otherwise.

Near a sensor the surface is banana-shaped around the signal peak; the polar
adjustment rebuilds one target's two coordinates in local (range, arc-length)
coordinates where the surface is close to Gaussian, maps the points back, and
keeps the weights (the transform has unit Jacobian determinant).  Its 2x2
input covariance is a block of H^{-1}, read from the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import ConfigurationError, NumericalError
from .model import R_MIN, SensorGrid, _pair_offsets


@dataclass(frozen=True)
class RadialRule:
    """Two-point generalized Gauss-Laguerre rule with parameter a = d/2 - 1."""

    dim: int
    z_minus: float
    z_plus: float
    w_minus: float
    w_plus: float


def _laguerre3(a: float, z: float) -> float:
    """Generalized Laguerre polynomial L_3^(a) evaluated at z."""
    l0, l1 = 1.0, 1.0 + a - z
    l2 = ((3.0 + a - z) * l1 - (1.0 + a) * l0) / 2.0
    return ((5.0 + a - z) * l2 - (2.0 + a) * l1) / 3.0


def radial_rule(dim: int) -> RadialRule:
    """Exact-through-cubic radial rule for dimension ``dim`` (even, >= 2)."""
    if dim < 2 or dim % 2:
        raise ConfigurationError(f"radial rule needs an even dimension >= 2, got {dim}")
    a = dim / 2.0 - 1.0
    s = math.sqrt(a + 2.0)
    z_minus, z_plus = (a + 2.0) - s, (a + 2.0) + s
    gam = math.gamma(a + 3.0)
    w_minus = gam * z_minus / (18.0 * _laguerre3(a, z_minus) ** 2)
    w_plus = gam * z_plus / (18.0 * _laguerre3(a, z_plus) ** 2)
    return RadialRule(dim=dim, z_minus=z_minus, z_plus=z_plus, w_minus=w_minus, w_plus=w_plus)


@dataclass(frozen=True)
class DirectionSet:
    """Unit directions of the rotated simplex root lattice in R^d.

    ``directions`` has d(d+1) rows: the d(d-1) ordered differences
    e_i - e_j, then +/-(e_j + q) with q = ((sqrt(d+1) - 1)/d) * ones, all
    normalized from squared length 2 to unit length.  The set is closed
    under negation and has isotropic second moment (J/d) I.
    """

    directions: np.ndarray  # (J, d)
    area_weight: float

    @property
    def count(self) -> int:
        return self.directions.shape[0]


def simplex_directions(dim: int) -> DirectionSet:
    if dim < 2:
        raise ConfigurationError(f"direction set needs dimension >= 2, got {dim}")
    eye = np.eye(dim)
    rows = [eye[i] - eye[j] for i in range(dim) for j in range(dim) if i != j]
    q = (math.sqrt(dim + 1.0) - 1.0) / dim
    rows += [eye[j] + q for j in range(dim)]
    rows += [-(eye[j] + q) for j in range(dim)]
    directions = np.asarray(rows) / math.sqrt(2.0)
    area = (2.0 * math.pi) ** (dim / 2.0) / (
        math.gamma(dim / 2.0) * dim * (dim + 1.0)
    )
    return DirectionSet(directions=directions, area_weight=area)


@dataclass(frozen=True)
class SigmaPointSet:
    """Weighted sigma points plus the ingredients needed to rebuild them.

    Point ``k < J`` uses the inner radial node with direction ``k``; point
    ``J + k`` uses the outer node with the same direction.
    """

    points: np.ndarray  # (2J, d)
    weights: np.ndarray  # (2J,), non-negative, sums to 1
    mean: np.ndarray  # (d,) center the points were built around
    rule: RadialRule
    dirs: DirectionSet


def build_sigma_points(
    mean: np.ndarray,
    chol: np.ndarray,
    rule: RadialRule,
    dirs: DirectionSet,
    nll_values: Callable[[np.ndarray], np.ndarray],
) -> SigmaPointSet:
    """Place and weight sigma points for the surface with Hessian ``chol chol^T``.

    ``chol`` is the lower Cholesky factor of the Hessian at ``mean``.
    ``nll_values`` maps a (K, d) batch of points to their NLL values (up to a
    shared additive constant, which cancels in the normalized weights).
    """
    mean = np.asarray(mean, dtype=float).ravel()
    # H^{-1/2} theta for every direction: solve L^T y = theta.  L^T is
    # handed to LAPACK as the upper factor it is, the call that
    # scipy.linalg.solve_triangular(chol, ..., lower=True, trans="T") makes
    # for the C-ordered factor numpy's Cholesky returns.
    spread, info = dtrtrs(chol.T, dirs.directions.T, lower=0)
    if info != 0:
        raise NumericalError(f"sigma-point factor is singular (dtrtrs info {info})")
    spread = spread.T
    pts = np.vstack(
        [
            mean + math.sqrt(2.0 * rule.z_minus) * spread,
            mean + math.sqrt(2.0 * rule.z_plus) * spread,
        ]
    )
    nll = np.asarray(nll_values(pts), dtype=float)
    if nll.shape != (pts.shape[0],) or not np.all(np.isfinite(nll)):
        raise NumericalError("sigma-point NLL evaluation returned bad values")
    offset = float(nll.min())
    j = dirs.count
    radial = np.concatenate(
        [
            np.full(j, rule.w_minus * math.exp(rule.z_minus)),
            np.full(j, rule.w_plus * math.exp(rule.z_plus)),
        ]
    )
    raw = radial * np.exp(-(nll - offset))
    total = raw.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("sigma-point weights degenerated to zero")
    return SigmaPointSet(
        points=pts,
        weights=raw / total,
        mean=mean,
        rule=rule,
        dirs=dirs,
    )


def polar_transform(point: np.ndarray, sensor: np.ndarray) -> np.ndarray:
    """Map a plane point to (range, arc-length) coordinates about a sensor."""
    rel = np.asarray(point, dtype=float) - np.asarray(sensor, dtype=float)
    u = math.hypot(rel[0], rel[1])
    return np.array([u, u * math.atan2(rel[1], rel[0])])


def inverse_polar(uv: np.ndarray, sensor: np.ndarray) -> np.ndarray:
    """Inverse of :func:`polar_transform` for u > 0."""
    u, v = float(uv[0]), float(uv[1])
    ang = v / u
    return np.asarray(sensor, dtype=float) + u * np.array([math.cos(ang), math.sin(ang)])


def polar_jacobian(rel: np.ndarray) -> np.ndarray:
    """Jacobian of the (range, arc-length) map at offset ``rel`` from the sensor.

    Unit determinant everywhere: the map preserves area, which is why the
    adjusted sigma points keep their weights.
    """
    x, y = float(rel[0]), float(rel[1])
    r = max(math.hypot(x, y), R_MIN)
    theta = math.atan2(y, x)
    return np.array(
        [[x / r, y / r],
         [(x * theta - y) / r, (y * theta + x) / r]]
    )


def near_sensor_pairs(
    positions: np.ndarray, grid: SensorGrid, threshold: float
) -> list[tuple[int, int]]:
    """(target, nearest sensor) pairs closer than ``threshold`` meters."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    d = _pair_offsets(pos, grid.positions)[1]
    nearest = d.argmin(axis=1)
    return [
        (c, int(s))
        for c, s in enumerate(nearest)
        if d[c, s] < threshold
    ]


def polar_sigma_adjust(
    points: SigmaPointSet,
    target: int,
    sensor: np.ndarray,
    sigma_xx: np.ndarray,
) -> SigmaPointSet:
    """Rebuild one target's coordinates of every sigma point in polar space.

    ``sigma_xx`` is the preliminary 2x2 spatial covariance of the target
    (the matching block of the inverse Hessian).  The covariance is pushed
    through the polar map linearized at the mean, points are redrawn along
    each direction's 2-component sub-block, and mapped back.  Weights are
    untouched.  If the pushed-forward covariance is not positive definite
    the adjustment is skipped: ``points`` itself is returned, which the
    caller records as a skip.
    """
    c0 = 2 * target
    mean_xy = points.mean[c0 : c0 + 2]
    sensor = np.asarray(sensor, dtype=float)
    rel = mean_xy - sensor
    jac = polar_jacobian(rel)
    sigma_uu = jac @ sigma_xx @ np.linalg.inv(jac)
    sigma_uu = 0.5 * (sigma_uu + sigma_uu.T)
    try:
        L = np.linalg.cholesky(sigma_uu)
    except np.linalg.LinAlgError:
        return points

    mean_u = polar_transform(mean_xy, sensor)
    theta2 = points.dirs.directions[:, c0 : c0 + 2]  # (J, 2)
    spread = theta2 @ L.T
    u = np.vstack(
        [
            mean_u + math.sqrt(2.0 * points.rule.z_minus) * spread,
            mean_u + math.sqrt(2.0 * points.rule.z_plus) * spread,
        ]
    )
    u[:, 0] = np.maximum(u[:, 0], R_MIN)
    ang = u[:, 1] / u[:, 0]
    new_pts = points.points.copy()
    new_pts[:, c0] = sensor[0] + u[:, 0] * np.cos(ang)
    new_pts[:, c0 + 1] = sensor[1] + u[:, 0] * np.sin(ang)
    return replace(points, points=new_pts)
