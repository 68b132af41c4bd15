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

Near a sensor the surface is banana-shaped around the signal peak.  For a
target within the near-sensor threshold the points are placed in a chart
about that sensor instead: (range, arc length) with the angle measured from
the target's bearing.  The Cartesian offsets the factor gives are read in
the frame of that bearing, which is the chart's Jacobian at the mean, and
mapped back through the chart before any point is weighted.  The map has
unit Jacobian everywhere, so the rule and its weights carry over unchanged,
and they are exact through cubics for a surface that is Gaussian in chart
coordinates.

Which targets the chart takes is decided in one place,
``tracker.FilterContext.chart``: it selects them with
:func:`near_sensor_pairs` and builds each one's :class:`ChartFrame` (range,
unit bearing vector and bearing about its sensor) with :func:`chart_frame`,
once per point it is asked about.  :func:`bend` carries points onto the
charts of a list of frames, offsets read in each frame and mapped back with
:func:`inverse_polar`.  It places the sigma points here, once per step
(2 d(d+1) points at a time), and the main fit's line-search trials, one
point at a time, whose Newton system uses the same frames (see
``optimize``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import ConfigurationError, NumericalError
from .model import R_MIN, SensorGrid


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
    """Weighted sigma points.

    Point ``k < J`` uses the inner radial node with direction ``k``; point
    ``J + k`` uses the outer node with the same direction.
    """

    points: np.ndarray  # (2J, d)
    weights: np.ndarray  # (2J,), non-negative, sums to 1


def build_sigma_points(
    mean: np.ndarray,
    chol: np.ndarray,
    rule: RadialRule,
    dirs: DirectionSet,
    nll_values: Callable[[np.ndarray], np.ndarray],
    frames: Sequence[ChartFrame] = (),
) -> SigmaPointSet:
    """Place and weight sigma points for the surface with Hessian ``chol chol^T``.

    ``chol`` is the lower Cholesky factor of the Hessian at ``mean``.
    ``nll_values`` maps a (K, d) batch of points to their NLL values (up to a
    shared additive constant, which cancels in the normalized weights).
    Each target that ``frames`` holds (built at ``mean``) has its two
    coordinates placed in the polar chart about its sensor (see the module
    docstring); the other coordinates stay Cartesian.
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
    bend(pts, mean, frames)
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
    return SigmaPointSet(points=pts, weights=raw / total)


class ChartFrame(NamedTuple):
    """Target ``target``'s chart about sensor ``sensor`` (at ``position``)
    at one point: range ``r0``, unit bearing vector ``e_r`` and ``bearing``.
    There its Jacobian is [e_r, e_t], e_t being e_r turned by +90 degrees."""

    target: int
    sensor: int
    position: np.ndarray
    r0: float
    e_r: np.ndarray
    bearing: float


def chart_frame(
    x: np.ndarray, target: int, sensor: int, position: np.ndarray
) -> ChartFrame:
    """The frame of ``target``'s chart about ``sensor`` at positions ``x``."""
    rel = x[2 * target : 2 * target + 2] - position
    r0 = math.hypot(rel[0], rel[1])
    bearing = math.atan2(rel[1], rel[0])
    return ChartFrame(target, sensor, position, r0, rel / r0, bearing)


def bend(
    points: np.ndarray, center: np.ndarray, frames: Sequence[ChartFrame]
) -> np.ndarray:
    """Carry points (..., 2C) near ``center`` (2C,) onto the charts of
    ``frames`` (built at ``center``), in place, and return them.

    For each frame's target, each offset from ``center`` is read in the
    (e_r, e_t) frame as a (range, arc length) offset from the chart point of
    ``center``, and mapped back with :func:`inverse_polar`; the range stays
    clamped at ``R_MIN`` like every distance.  A straight line of offsets
    becomes the curve that is straight in the chart.
    """
    for f in frames:
        block = points[..., 2 * f.target : 2 * f.target + 2]
        d = block - center[2 * f.target : 2 * f.target + 2]
        uv = np.empty(d.shape)
        uv[..., 0] = np.maximum(f.r0 + d @ f.e_r, R_MIN)
        uv[..., 1] = d[..., 1] * f.e_r[0] - d[..., 0] * f.e_r[1]
        block[...] = inverse_polar(uv, f.position, f.bearing)
    return points


def inverse_polar(
    uv: np.ndarray, sensor: np.ndarray, bearing: float = 0.0
) -> np.ndarray:
    """Plane points of chart points ``uv`` (..., 2), (range, arc length)
    about ``sensor`` with the angle measured from ``bearing``; u > 0."""
    uv = np.asarray(uv, dtype=float)
    u = uv[..., 0]
    ang = bearing + uv[..., 1] / u
    out = np.empty(uv.shape)
    out[..., 0] = u * np.cos(ang)
    out[..., 1] = u * np.sin(ang)
    out += sensor
    return out


def near_sensor_pairs(
    positions: np.ndarray, grid: SensorGrid, threshold: float
) -> list[tuple[int, int]]:
    """(target, nearest sensor) pairs closer than ``threshold`` meters.

    The grid is a rectangular lattice, so a target's nearest sensor is its
    rounded, clamped column and row; no (C, S) distance table is built,
    because the main fit asks this at every exact-Newton iteration.  A
    target within ``R_MIN`` of its sensor, where the chart is singular, and
    a non-finite position are left out.
    """
    h, cols, rows = grid.spacing, grid.cols, grid.rows
    xy = np.asarray(positions, dtype=float).ravel().tolist()
    pairs = []
    for c in range(len(xy) // 2):
        x, y = xy[2 * c], xy[2 * c + 1]
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        col = min(max(round(x / h), 0), cols - 1)
        row = min(max(round(y / h), 0), rows - 1)
        if R_MIN < math.hypot(x - col * h, y - row * h) < threshold:
            pairs.append((c, row * cols + col))
    return pairs
