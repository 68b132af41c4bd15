"""Box-constrained Newton minimization of the spatial objective.

Projected Newton with an active-set reduction: coordinates pinned at a bound
with an inward-pointing gradient are frozen, the Newton system is solved on
the free block (with a Levenberg diagonal shift when the block is not PD),
and the step is backtracked under the Armijo rule after projection onto the
box.  Convergence is declared on the projected-gradient norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model import SensorGrid
from .nll import NllReport

Objective = Callable[[np.ndarray], NllReport]

ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
MIN_STEP = 1e-12  # smallest step length tried before giving up on a direction
LEVENBERG_SCALE = 1e-6  # first diagonal shift, relative to the mean diagonal


@dataclass(frozen=True)
class BoxConstraints:
    """Per-coordinate bounds, lower < upper elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ConfigurationError("box requires lower < upper elementwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        return bool(
            np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)
        )


def box_from_grid(
    grid: SensorGrid, n_targets: int, margin_spacings: float = 1.0
) -> BoxConstraints:
    """Search box: grid extent padded by ``margin_spacings`` grid spacings."""
    w, h = grid.extent
    pad = margin_spacings * grid.spacing
    lo = np.tile([-pad, -pad], n_targets)
    hi = np.tile([w + pad, h + pad], n_targets)
    return BoxConstraints(lower=lo, upper=hi)


@dataclass(frozen=True)
class NewtonOptions:
    grad_tol: float = 1e-6
    max_iter: int = 200


@dataclass
class OptimizeResult:
    x: np.ndarray
    value: float
    hess: np.ndarray  # the objective's Hessian at x, from its last evaluation
    iterations: int
    converged: bool
    active_set: np.ndarray  # indices of coordinates sitting on a bound


def _shifted_solve(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H d = rhs via Cholesky, adding a doubling diagonal shift until PD."""
    n = hess.shape[0]
    lam = 0.0
    lam0 = max(LEVENBERG_SCALE * abs(np.trace(hess)) / n, 1e-12)
    shifted = hess
    for _ in range(80):
        try:
            L = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            pass
        else:
            d = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
            if np.all(np.isfinite(d)):
                return d
        lam = lam0 if lam == 0.0 else 2.0 * lam
        shifted = hess.copy()
        shifted.flat[:: n + 1] += lam
    raise NumericalError("Newton system unsolvable even with diagonal shift")


def _line_search(
    fun: Objective,
    box: BoxConstraints,
    x: np.ndarray,
    report: NllReport,
    direction: np.ndarray,
):
    """Backtracking Armijo search along a projected direction.

    Returns ``(x_new, report_new)`` or None if no acceptable step exists.
    """
    t = 1.0
    while t >= MIN_STEP:
        xt = box.clip(x + t * direction)
        move = xt - x
        if not np.any(move):
            return None
        rt = fun(xt)
        if not np.isfinite(rt.value):
            t *= 0.5
            continue
        if rt.value <= report.value + ARMIJO * float(report.grad @ move):
            return xt, rt
        t *= 0.5
    return None


def minimize(
    fun: Objective,
    x0: np.ndarray,
    box: BoxConstraints,
    options: NewtonOptions | None = None,
) -> OptimizeResult:
    """Minimize ``fun`` over the box starting from ``x0`` (clipped inside)."""
    opts = options or NewtonOptions()
    x = box.clip(np.asarray(x0, dtype=float).ravel())
    report = fun(x)
    if not np.isfinite(report.value):
        raise NumericalError("objective is not finite at the starting point")

    bound_eps = 1e-10 * (box.upper - box.lower)
    iterations = 0
    converged = False
    while iterations < opts.max_iter:
        g = report.grad
        proj_grad = x - box.clip(x - g)
        if float(np.abs(proj_grad).max()) <= opts.grad_tol:
            converged = True
            break

        at_lo = x <= box.lower + bound_eps
        at_hi = x >= box.upper - bound_eps
        active = (at_lo & (g > 0.0)) | (at_hi & (g < 0.0))
        free = ~active
        direction = np.zeros_like(x)
        if free.any():
            idx = np.flatnonzero(free)
            hff = report.hess[np.ix_(idx, idx)]
            direction[idx] = _shifted_solve(hff, -g[idx])

        step = _line_search(fun, box, x, report, direction)
        if step is None and free.any():
            # fall back on steepest descent if the Newton direction stalls
            step = _line_search(fun, box, x, report, -g)
        if step is None:
            break
        x, report = step
        iterations += 1

    on_bound = (x <= box.lower + bound_eps) | (x >= box.upper - bound_eps)
    return OptimizeResult(
        x=x,
        value=report.value,
        hess=report.hess,
        iterations=iterations,
        converged=converged,
        active_set=np.flatnonzero(on_bound),
    )
