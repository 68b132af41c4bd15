"""Positive-definite repair of the spatial Hessian.

Near a sensor the residual-curvature term of the measurement Hessian can
overwhelm the Gauss-Newton term and leave the full Hessian indefinite, which
would break the Cholesky-based sigma-point construction.  The repair
iteratively excludes the closest target-sensor pair, re-optimizes the
remaining targets without the excluded sensors (excluded targets stay frozen
but keep contributing signal), and accepts once the reduced Hessian admits a
Cholesky factorization.  Excluded targets re-enter the full-size matrix as
independent 2x2 blocks with diagonal d0^{-2}, the curvature scale of the
signal peak they are sitting on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HessianRepairError
from .model import MeasurementModel, SensorGrid, _pair_offsets
from .nll import NllReport, PropagatedPrior, combined_nll
from .optimize import BoxConstraints, NewtonOptions, minimize


@dataclass
class HessianRepair:
    hessian: np.ndarray  # (2C, 2C), Cholesky-factorizable
    x: np.ndarray  # (2C,) possibly re-optimized estimate
    exclusions: tuple[tuple[int, int], ...]  # (target, sensor) pairs


def _cholesky_ok(hess: np.ndarray) -> bool:
    if hess.size == 0:
        return True
    try:
        np.linalg.cholesky(hess)
        return True
    except np.linalg.LinAlgError:
        return False


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
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    prior: PropagatedPrior,
    box: BoxConstraints,
    options: NewtonOptions | None = None,
) -> HessianRepair:
    """Return a Cholesky-factorizable Hessian at (a possibly adjusted) x_ml."""
    x = np.asarray(x_ml, dtype=float).ravel().copy()
    n = x.size
    full = combined_nll(x, frame, grid, meas, prior)
    if _cholesky_ok(full.hess):
        return HessianRepair(hessian=full.hess, x=x, exclusions=())

    excluded: list[tuple[int, int]] = []
    while len(excluded) < (n // 2) * grid.count:
        excluded.append(_closest_new_pair(x, grid, excluded))
        bad_targets = sorted({c for c, _ in excluded})
        keep_sensors = np.setdiff1d(np.arange(grid.count), [s for _, s in excluded])
        free_targets = [c for c in range(n // 2) if c not in bad_targets]
        free_idx = np.array(
            [i for c in free_targets for i in (2 * c, 2 * c + 1)], dtype=int
        )

        if free_idx.size:
            frozen = x.copy()

            def reduced(xf: np.ndarray) -> NllReport:
                xx = frozen.copy()
                xx[free_idx] = xf
                rep = combined_nll(xx, frame, grid, meas, prior, keep_sensors)
                return NllReport(
                    rep.value,
                    rep.grad[free_idx],
                    rep.hess[np.ix_(free_idx, free_idx)],
                )

            sub_box = BoxConstraints(box.lower[free_idx], box.upper[free_idx])
            res = minimize(reduced, x[free_idx], sub_box, options)
            x[free_idx] = res.x
            reduced_hess = reduced(res.x).hess
        else:
            reduced_hess = np.empty((0, 0))

        if _cholesky_ok(reduced_hess):
            repaired = np.zeros((n, n))
            if free_idx.size:
                repaired[np.ix_(free_idx, free_idx)] = reduced_hess
            for c in bad_targets:
                repaired[2 * c, 2 * c] = meas.offset**-2
                repaired[2 * c + 1, 2 * c + 1] = meas.offset**-2
            return HessianRepair(
                hessian=repaired, x=x, exclusions=tuple(excluded)
            )
    raise HessianRepairError(
        f"no positive-definite reduction after {len(excluded)} exclusions"
    )
