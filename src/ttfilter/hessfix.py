"""Positive-definite repair of the spatial Hessian.

Near a sensor the residual-curvature term of the measurement Hessian can
overwhelm the Gauss-Newton term and leave the full Hessian indefinite, which
would break the Cholesky-based sigma-point construction.  The repair takes
the Hessian the fit ended on and returns its lower Cholesky factor, which
places the cubature's sigma points.  When the factorization fails it
iteratively excludes the closest target-sensor pair, re-optimizes the
remaining targets without the excluded sensors (excluded targets stay frozen
but keep contributing signal), and stops once the repaired matrix admits a
Cholesky factorization.  Excluded targets re-enter the full-size matrix as
independent 2x2 blocks with diagonal d0^{-2}, the curvature scale of the
signal peak they are sitting on.

At a converged interior minimum of the combined NLL the Hessian is positive
semidefinite, and an adopted recovery fit's Hessian adds the prior
precision to a measurement-only minimum's, so in the filter the repair
fires only after a fit that ends with a bound active or at its iteration
cap, as when a target drifts out of the search box.  There one exclusion
often leads to the next until every target has one, and then every
target's sigma points are spread by the d0^{-2} blocks, about 0.1 m,
whatever the frame says.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HessianRepairError
from .model import MeasurementModel, SensorGrid, _pair_offsets
from .nll import NllReport, PropagatedPrior, combined_objective
from .optimize import BoxConstraints, NewtonOptions, minimize


@dataclass
class HessianRepair:
    hessian: np.ndarray  # (2C, 2C), positive definite
    chol: np.ndarray  # (2C, 2C) lower Cholesky factor of ``hessian``
    x: np.ndarray  # (2C,) possibly re-optimized estimate
    exclusions: tuple[tuple[int, int], ...]  # (target, sensor) pairs


def _closest_new_pair(
    x: np.ndarray, grid: SensorGrid, excluded: list[tuple[int, int]]
) -> tuple[int, int]:
    d = _pair_offsets(x.reshape(-1, 2), grid.positions)[1]
    for flat in np.argsort(d, axis=None, kind="stable"):
        c, s = np.unravel_index(flat, d.shape)
        pair = (int(c), int(s))
        if pair not in excluded:
            return pair
    raise HessianRepairError("every target-sensor pair is already excluded")


def repair_hessian(
    x_ml: np.ndarray,
    hess: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    prior: PropagatedPrior,
    box: BoxConstraints,
    options: NewtonOptions | None = None,
) -> HessianRepair:
    """Positive-definite Hessian and its lower factor at (a possibly adjusted) x_ml.

    ``hess`` is the Hessian of the combined NLL at ``x_ml``, as the fit that
    produced ``x_ml`` last evaluated it.
    """
    x = np.asarray(x_ml, dtype=float).ravel().copy()
    n = x.size
    excluded: list[tuple[int, int]] = []
    repaired = hess
    # terminates: once every target has an excluded pair the matrix is
    # diagonal and positive definite
    while True:
        try:
            chol = np.linalg.cholesky(repaired)
        except np.linalg.LinAlgError:
            pass
        else:
            return HessianRepair(
                hessian=repaired, chol=chol, x=x, exclusions=tuple(excluded)
            )

        excluded.append(_closest_new_pair(x, grid, excluded))
        bad_targets = sorted({c for c, _ in excluded})
        keep_sensors = np.setdiff1d(np.arange(grid.count), [s for _, s in excluded])
        free_targets = [c for c in range(n // 2) if c not in bad_targets]
        free_idx = np.array(
            [i for c in free_targets for i in (2 * c, 2 * c + 1)], dtype=int
        )

        repaired = np.zeros((n, n))
        if free_idx.size:
            frozen = x.copy()
            full = combined_objective(frame, grid, meas, prior, keep_sensors)

            def reduced(xf: np.ndarray) -> NllReport:
                xx = frozen.copy()
                xx[free_idx] = xf
                rep = full(xx)
                return NllReport(
                    rep.value,
                    lambda: rep.grad[free_idx],
                    lambda: rep.hess[np.ix_(free_idx, free_idx)],
                )

            sub_box = BoxConstraints(box.lower[free_idx], box.upper[free_idx])
            res = minimize(reduced, x[free_idx], sub_box, options)
            x[free_idx] = res.x
            repaired[np.ix_(free_idx, free_idx)] = res.hess
        for c in bad_targets:
            repaired[2 * c, 2 * c] = meas.offset**-2
            repaired[2 * c + 1, 2 * c + 1] = meas.offset**-2
