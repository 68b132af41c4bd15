"""Positive-definite factor of the spatial Hessian: the near-far correction.

The cubature places its sigma points with the lower Cholesky factor of the
combined NLL's Hessian at the step's estimate.  Near a sensor the
residual-curvature term of the measurement Hessian can overwhelm the
Gauss-Newton term and leave that Hessian indefinite (the paper's near-far
problem), and then it has no such factor.  The repair then factors the
Gauss-Newton matrix plus the prior precision instead, which
``nll.combined_objective`` offers at every point (``NllReport.gauss_newton``)
and which is positive definite by construction: the prior-anchored main fit
already factors it in its warm-up.  A Hessian that factors is used as it is.

Where the fallback fires in the filter: on fits that end with a bound
active, as when a target drifts out of the search box, and on interior fits
that stop on the Newton decrement with a target 0.1-0.3 m from a sensor,
where the exact Hessian can be indefinite although no Newton step is left
to take.  It did not fire on the benchmark's ``acceptance`` and ``acquire``
workloads at seeds 1, 7, 29 and 42, nor on ``acquire`` at seed 89; it fired
on one step of an ``acceptance`` round at seed 89.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .nll import NllReport


@dataclass
class HessianRepair:
    chol: np.ndarray  # (2C, 2C) lower Cholesky factor that places the sigma points
    gauss_newton: bool  # the Hessian failed and the Gauss-Newton matrix was factored
    # Always empty: no target-sensor pair is excluded any more.  Kept because
    # the benchmark's tracer reads it.
    exclusions: tuple[tuple[int, int], ...] = ()


def _factor(matrix: np.ndarray | None) -> np.ndarray | None:
    """Lower Cholesky factor, or None when the matrix is missing, not
    positive definite or not finite (a NaN can pass the factorization, but
    it spreads to the factor's diagonal)."""
    if matrix is None:
        return None
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    return chol if math.isfinite(chol.trace()) else None


def repair_hessian(report: NllReport) -> HessianRepair:
    """The factor of ``report.hess``, or of ``report.gauss_newton`` when the
    Hessian is not positive definite.

    ``report`` is the combined objective's evaluation at the step's estimate.
    Raises ``NumericalError`` when neither matrix factors.
    """
    chol = _factor(report.hess)
    if chol is not None:
        return HessianRepair(chol=chol, gauss_newton=False)
    chol = _factor(report.gauss_newton)
    if chol is not None:
        return HessianRepair(chol=chol, gauss_newton=True)
    raise NumericalError(
        "neither the Hessian nor the Gauss-Newton matrix is positive definite"
    )
