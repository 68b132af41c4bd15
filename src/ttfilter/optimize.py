"""Box-constrained Newton minimization of the spatial objective.

Projected Newton with an active-set reduction: coordinates pinned at a bound
with an inward-pointing gradient are frozen, the Newton system is solved on
the free block (with a Levenberg diagonal shift when the block is not PD),
and the step is backtracked under the Armijo rule after projection onto the
box.

Two rules declare convergence, both read against ``NewtonOptions.grad_tol``.
The cheap one comes first: the projected-gradient norm is at most
``grad_tol``.  The other is the Newton decrement (Boyd and Vandenberghe,
Convex Optimization, 9.5.1): when an exact-Newton direction d comes from an
unshifted Cholesky factor and -g . d <= ``grad_tol``, the quadratic model
predicts at most ``grad_tol`` / 2 of further decrease, and the fit stops at
x without taking the step.  At the default 1e-6 that is 5e-7, which neither
the gate (2 NLL against about 52) nor the cubature weights can see; a
smaller ``grad_tol`` tightens both rules.  The rule reads only directions
whose factor needed no Levenberg shift and that are not Gauss-Newton
warm-up directions: a large shift makes -g . d small away from a minimum.
In the chart below, -g . d equals -g_c . d_c.  Stopping on the decrement
spares a fit its last, negligible step, which on stiff fits can sit below
the resolution of the Armijo test (a decrease of about 2e-15 on a value of
17), where the line search would fail at the optimum.  In a traced
``acceptance`` benchmark round (seed 7) the 2,880 main fits take 17,735
iterations and 24,997 evaluations, and the 66 recovery fits 744 iterations.
An iteration costs about 42 us on one core and a main fit about 0.25 ms
(480 fits of 12 ``acceptance`` tracks, timed without tracing).

Which curvature drives which iteration: when the objective offers a
Gauss-Newton matrix (``NllReport.gauss_newton``: ``nll.combined_objective``
offers the Gauss-Newton term plus the prior precision, and
``nll.measurement_objective`` with ``warm_up`` the Gauss-Newton term alone,
which only one-by-one recovery's peeled fit asks for), the first
``WARMUP_ITERATIONS`` directions come from it.  It is positive
semidefinite, so those directions need no Levenberg shift search (unless it
is singular), and the residual-curvature part of the exact Hessian is not
built for them.  Later directions use the exact Hessian, and
``OptimizeResult.report.hess`` is always the exact Hessian at the final
iterate, also when the fit converges during the warm-up; it is built when
first read.  An objective without that matrix (the blind measurement-only
fits: the fixed-center initial fit, the recovery sweeps and square
hopping) runs exact Newton from the first iteration: warming the initial
fit up as well raised the one-by-one calls per ``acquire`` benchmark round
from 163 to 208, while warming the peeled fit cut its iterations from 3,377
to 1,528 (``nll`` has the measurements).  In a traced
``acceptance`` benchmark round (seed 7) the warm-up cut the main fit from
38,435 iterations and 60,464 objective evaluations to 27,339 and 38,460.
The count is fixed.  Adaptive rules were measured on ``acceptance``
(seed 7) and did not pay: the best fixed count chosen per fit, in
hindsight, would save at most 16% of main-fit iterations (8,567 -> 7,190
over 960 fits); "exact Hessian when it factors, else Gauss-Newton" took
27,339 -> 26,653 iterations and made the main fit slower; and 3
Gauss-Newton steps followed by that rule took 25,588 iterations with no
gain in time.

The loop pays only for work it uses.  Each caller builds its objective once
per fit (``nll.measurement_objective`` or ``nll.combined_objective``), so an
evaluation does not gather or check the fit's sensor set again.  Line-search
trials read only the objective's value, so a rejected trial never builds a
gradient or Hessian (see ``nll.NllReport``).  Each direction costs one
LAPACK ``dpotrf`` factor and one ``dpotrs`` solve with it.  The Levenberg
shift is searched with ``dpotrf``'s info code instead of exceptions, and
bracketed by the most negative eigenvalue so that shifts which must fail are
not tried.  The accepted shift is that of the plain doubling search.

What an iteration pays for, then: the objective's value at each line-search
trial (about 1.5 per iteration on ``acceptance``, about 8 us each with 4
targets and 25 sensors), the gradient and one curvature matrix at the
accepted point (about 12 us more for the exact Hessian, see ``nll``), one
factor-and-solve, and a few small array operations.  The bounds shrunk by
``bound_eps`` are computed once per box (``BoxConstraints.inner_lower`` and
``inner_upper``), and an iterate with no coordinate on a bound (almost
every one) solves on the curvature matrix directly, without building the
active-set masks.  Every
floating-point operation and its order is that of the plain projected-Newton
loop, so without a chart the iterates are the same to the last bit.

The near-sensor chart.  Around a sensor the signal peak makes the
objective's valley ring-shaped, and Cartesian Newton steps crawl along it:
on ``acceptance`` (seed 7) the 329 main fits that end within 1 m of a
sensor took 26 Cartesian iterations on average against 8 elsewhere, up to
the 200-iteration cap (with the chart below: 9 and 7).
Given ``chart`` (``tracker.step`` passes ``tracker.FilterContext.chart``
to its main fit only), each exact-Newton step on an interior iterate asks
it once for the frames (``quadrature.ChartFrame``) of the targets the chart
takes there, and takes each of them in the chart the cubature uses:
(range, arc length) about its sensor, the angle measured from the target's
current bearing.  The direction solves the chart system of
``_chart_system`` (R^T H R with -(g . e_r) / r added to the target's
arc-arc entry, R the rotation to the bearing's frame), and each
line-search trial follows the chart's straight line, carried there by
``quadrature.bend`` with the same frames, instead of the chord.
The stopping rules (the Cartesian projected gradient, and the decrement,
which is the same number in either coordinates), the Armijo test on the
trial's Cartesian move, the warm-up, the iterates on a bound, the
steepest-descent fallback and the exact Cartesian Hessian handed on in
``OptimizeResult.report`` stay as they are, and an iteration with no frame
is the Cartesian one bit for bit.  From the same 2,880 priors of a
seed-7 ``acceptance`` round the chart took the main fit from 29,146 to
20,928 iterations (per-fit p99 51 -> 18, maximum 200 -> 31) and reached the
Cartesian loop's value to 1e-9 relative in 2,871 fits.  What it costs, on
one core: asking ``chart`` at every exact-Newton iteration (about 2 us,
against about 42 us for a whole iteration, plus about 1 us per frame it
builds), and on an iteration that uses the chart a rotated 2C x 2C system
(about 5 us) and one ``bend`` per trial (about 5 us per charted target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigurationError, NumericalError
from .model import SensorGrid
from .nll import NllReport, Objective
from .quadrature import ChartFrame, bend

ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
MIN_STEP = 1e-12  # smallest step length tried before giving up on a direction
LEVENBERG_SCALE = 1e-6  # first diagonal shift, relative to the mean diagonal
WARMUP_ITERATIONS = 3  # leading directions taken from a Gauss-Newton matrix


@dataclass(frozen=True)
class BoxConstraints:
    """Per-coordinate bounds, lower < upper elementwise.

    A coordinate within ``1e-10 (upper - lower)`` of a bound counts as
    sitting on it; ``inner_lower`` and ``inner_upper`` are the bounds
    shrunk by that much, computed once per box.
    """

    lower: np.ndarray
    upper: np.ndarray
    inner_lower: np.ndarray = field(init=False, repr=False, compare=False)
    inner_upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ConfigurationError("box requires lower < upper elementwise")
        bound_eps = 1e-10 * (hi - lo)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "inner_lower", lo + bound_eps)
        object.__setattr__(self, "inner_upper", hi - bound_eps)

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(x, self.lower), self.upper)


def box_from_grid(grid: SensorGrid, n_targets: int) -> BoxConstraints:
    """Search box: grid extent padded by one grid spacing."""
    w, h = grid.extent
    pad = grid.spacing
    lo = np.tile([-pad, -pad], n_targets)
    hi = np.tile([w + pad, h + pad], n_targets)
    return BoxConstraints(lower=lo, upper=hi)


@dataclass(frozen=True)
class NewtonOptions:
    """Stopping rule: a tolerance and an iteration cap.

    ``grad_tol`` bounds both the projected-gradient norm and the Newton
    decrement -g . d of an unshifted exact-Newton direction (see the module
    docstring); a fit converges when either is met.

    A tolerance that is not finite and positive would never be met (every
    fit would run to the cap), and a cap below 1 would return every start
    unfitted, so both are rejected.
    """

    grad_tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        tol = self.grad_tol
        if not (isinstance(tol, Real) and math.isfinite(tol) and tol > 0.0):
            raise ConfigurationError(f"grad_tol must be finite and positive, got {tol!r}")
        cap = self.max_iter
        if isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 1:
            raise ConfigurationError(f"max_iter must be an integer >= 1, got {cap!r}")


@dataclass
class OptimizeResult:
    x: np.ndarray
    value: float
    report: NllReport  # the objective's last evaluation, at x
    iterations: int
    converged: bool
    active_set: np.ndarray  # indices of coordinates sitting on a bound


def _factor_solve(shifted: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Cholesky solve of ``shifted d = rhs``, or None if ``shifted`` is not PD.

    LAPACK's ``dpotrf`` info code answers the PD question without raising,
    and ``dpotrs`` solves with the factor it computed.  Only the lower
    triangle of ``shifted`` is read.  The solution is finite exactly when
    its dot product with zeros is: every finite entry contributes a signed
    zero, and an infinite or NaN entry makes the sum NaN.
    """
    factor, info = dpotrf(shifted, lower=1, clean=0)
    if info != 0:
        return None
    d, info = dpotrs(factor, rhs, lower=1)
    return d if info == 0 and math.isfinite(d.dot(np.zeros(d.size))) else None


def _shifted_solve(hess: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve H d = rhs by Cholesky, adding a doubling diagonal shift until PD.

    Returns ``(d, shift)``; a shift of 0.0 means H itself factored.  The
    shifts tried are 0, lam0, 2 lam0, 4 lam0, ... (80 in all).  When H
    itself fails, one ``eigvalsh`` brackets the search: a shift below
    -lambda_min / 2 leaves an eigenvalue below lambda_min / 2 < 0, so it is
    skipped untried.  Doubling is exact, so the shift accepted is the first
    one the plain doubling loop accepts.
    """
    d = _factor_solve(hess, rhs)
    if d is not None:
        return d, 0.0
    n = hess.shape[0]
    try:
        floor = -0.5 * np.linalg.eigvalsh(hess)[0]
    except np.linalg.LinAlgError as exc:  # eigvalsh does not converge on NaN
        raise NumericalError(f"Newton system has a non-finite Hessian ({exc})") from exc
    lam = max(LEVENBERG_SCALE * abs(np.trace(hess)) / n, 1e-12)
    for _ in range(79):
        if lam >= floor:
            shifted = hess.copy()
            shifted.flat[:: n + 1] += lam
            d = _factor_solve(shifted, rhs)
            if d is not None:
                return d, lam
        lam *= 2.0
    raise NumericalError("Newton system unsolvable even with diagonal shift")


def _line_search(
    fun: Objective,
    lower: np.ndarray,
    upper: np.ndarray,
    x: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    frames: Sequence[ChartFrame] = (),
):
    """Backtracking Armijo search along a projected direction.

    ``value`` and ``grad`` are the objective's at ``x``.  Each trial is
    ``x + t direction``, carried onto the charts of ``frames`` when there
    are any (the chart step's curve; ``quadrature.bend``), then projected
    onto the box.  A trial whose value is not finite (NaN or either
    infinity) halves the step.  Returns ``(x_new, report_new)`` or None if
    no acceptable step exists.
    """
    t = 1.0
    while t >= MIN_STEP:
        xt = x + t * direction
        if frames:
            bend(xt, x, frames)
        xt = np.minimum(np.maximum(xt, lower), upper)
        move = xt - x
        if not move.any():
            return None
        rt = fun(xt)
        if not math.isfinite(rt.value):
            t *= 0.5
            continue
        if rt.value <= value + ARMIJO * float(grad @ move):
            return xt, rt
        t *= 0.5
    return None


def _chart_system(
    hess: np.ndarray, grad: np.ndarray, frames: Sequence[ChartFrame]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Newton system at the iterate ``frames`` were built at, with each
    of their targets in its sensor's chart.

    Target c's two coordinates become (range, arc length) about its sensor,
    with the angle measured from its current bearing; the others stay
    Cartesian.  At the iterate the chart's Jacobian R is a rotation per
    charted target, so the chart gradient is R^T g and the chart Hessian
    is R^T H R plus the map's curvature: d^2 x / d(arc)^2 = -e_r / r, which
    adds -(g . e_r) / r to that target's arc-arc entry.  Returns
    ``(R, chart Hessian, chart gradient)``; a chart step d maps back to the
    Cartesian tangent R d.
    """
    rot = np.eye(grad.size)
    for f in frames:
        c, e_r = f.target, f.e_r
        rot[2 * c : 2 * c + 2, 2 * c] = e_r
        rot[2 * c : 2 * c + 2, 2 * c + 1] = (-e_r[1], e_r[0])
    grad_c = grad @ rot
    hess_c = rot.T @ hess @ rot
    for f in frames:
        arc, g_r = 2 * f.target + 1, grad_c[2 * f.target]  # g . e_r: the range slot
        hess_c[arc, arc] -= g_r / f.r0
    return rot, hess_c, grad_c


def minimize(
    fun: Objective,
    x0: np.ndarray,
    box: BoxConstraints,
    options: NewtonOptions | None = None,
    chart: Callable[[np.ndarray], Sequence[ChartFrame]] | None = None,
) -> OptimizeResult:
    """Minimize ``fun`` over the box starting from ``x0`` (clipped inside).

    ``chart``, when given, maps an iterate to the frames of the targets that
    its exact-Newton step takes in the near-sensor chart (see the module
    docstring); None, or no frames, keeps the step Cartesian.
    """
    opts = options or NewtonOptions()
    grad_tol, max_iter = opts.grad_tol, opts.max_iter
    lower, upper = box.lower, box.upper
    inner_lo, inner_hi = box.inner_lower, box.inner_upper
    x = box.clip(np.asarray(x0, dtype=float).ravel())
    report = fun(x)
    if not math.isfinite(report.value):
        raise NumericalError("objective is not finite at the starting point")

    iterations = 0
    converged = False
    while iterations < max_iter:
        g = report.grad
        proj_grad = x - np.minimum(np.maximum(x - g, lower), upper)
        if float(np.abs(proj_grad).max()) <= grad_tol:
            converged = True
            break

        at_lo = x <= inner_lo
        at_hi = x >= inner_hi
        interior = not (at_lo | at_hi).any()
        if interior:  # as on almost every iteration: nothing is active
            free_any, idx = True, None
        else:
            free = ~((at_lo & (g > 0.0)) | (at_hi & (g < 0.0)))
            free_any = bool(free.any())
            idx = None if free.all() else np.flatnonzero(free)
        frames = ()
        if free_any:
            curv = report.gauss_newton if iterations < WARMUP_ITERATIONS else None
            exact = curv is None
            if exact:  # past the warm-up, or no Gauss-Newton matrix offered
                curv = report.hess
                if interior and chart is not None:
                    frames = chart(x)
            if frames:  # exact Newton on an interior iterate, some target charted
                rot, hess_c, grad_c = _chart_system(curv, g, frames)
                step_c, shift = _shifted_solve(hess_c, -grad_c)
                direction = rot @ step_c
            elif idx is None:  # every coordinate free: solve on the matrix itself
                direction, shift = _shifted_solve(curv, -g)
            else:
                direction = np.zeros_like(x)
                direction[idx], shift = _shifted_solve(curv[np.ix_(idx, idx)], -g[idx])
            if exact and shift == 0.0 and -float(g @ direction) <= grad_tol:
                converged = True  # the Newton decrement: nothing left to gain
                break
        else:
            direction = np.zeros_like(x)

        step = _line_search(fun, lower, upper, x, report.value, g, direction, frames)
        if step is None and free_any:
            # fall back on steepest descent if the Newton direction stalls
            step = _line_search(fun, lower, upper, x, report.value, g, -g)
        if step is None:
            break
        x, report = step
        iterations += 1

    return OptimizeResult(
        x=x,
        value=report.value,
        report=report,
        iterations=iterations,
        converged=converged,
        active_set=np.flatnonzero((x <= inner_lo) | (x >= inner_hi)),
    )
