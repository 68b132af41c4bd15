"""Measurement-consistency gate and the two recovery procedures.

Twice the measurement NLL at the true positions is chi-square with one
degree of freedom per sensor, and the gate compares it with that law's far
upper-tail threshold to flag steps where the optimizer converged to the
wrong basin.  The filter gates its fitted estimate, though, and fitting the
2C coordinates to the frame lowers the statistic: at the estimate it follows
chi-square with S - 2C dof instead (measured mean 16.9 and variance 34.2 on
the 5x5 grid with 4 targets at sigma^2 = 0.01, against 17 and 34).  There
the dof-25 threshold of 51.72 at p = 0.0013 is exceeded with probability
2.3e-5, 57 times below the nominal rate, so a consistent fit fails the gate
far more rarely than ``P_VALUE`` says.  The threshold keeps S dof, and
``gate_threshold`` is the one place that decides it: the main gate, the
re-checks after a recovery, one-by-one's pass tests between its starts and
square hopping's pass test all read it.  Two escalating repairs follow.
One-by-one recovery first fits every sensor from a start peeled off the
frame, one target per signal peak; only when that fit fails the gate does
it re-estimate with sensors introduced one at a time (boundary ring first,
then a maximin fill), swept from a neutral start and, only when that fails
too, from the prior mean.  Square hopping then relocates the
``N_BAD_TARGETS`` worst-fitting targets to the ``N_BAD_SQUARES`` grid cells
with the largest signal deficit and re-optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import chdtri

from .errors import ConfigurationError
from .model import MeasurementModel, SensorGrid, _pair_distances, signal_components
from .nll import PropagatedPrior, measurement_nll, measurement_objective
from .optimize import BoxConstraints, NewtonOptions, OptimizeResult, minimize


P_VALUE = 0.0013  # the gate's nominal false-alarm rate at the true positions
N_BAD_TARGETS = 2  # targets square hopping relocates
N_BAD_SQUARES = 12  # candidate squares: at most C(12, 2) = 66 subset fits
PEEL_STANDOFF = 0.05  # least distance of a peeled target from its sensor, in spacings


@lru_cache(maxsize=64)
def chi2_threshold(dof: int, p_value: float) -> float:
    """Upper-tail chi-square quantile: P(X > threshold) = p_value.

    ``scipy.special.chdtri`` is the function ``scipy.stats.chi2.isf``
    evaluates, so the threshold is the same to the last bit; calling it
    directly keeps ``scipy.stats``, most of the package's import time, out
    of every import.
    """
    if dof < 1:
        raise ConfigurationError("dof must be at least 1")
    if not 0.0 < p_value < 1.0:
        raise ConfigurationError("p_value must lie in (0, 1)")
    return float(chdtri(dof, p_value))


def gate_threshold(grid: SensorGrid) -> float:
    """The gate's threshold: chi-square with S dof at ``P_VALUE``."""
    return chi2_threshold(grid.count, P_VALUE)


def is_consistent(
    x: np.ndarray, frame: np.ndarray, grid: SensorGrid, meas: MeasurementModel
) -> tuple[bool, float]:
    """``(passed, statistic)`` of the gate at ``x``.

    The statistic is twice the measurement NLL: chi-square with one dof per
    sensor at the true positions, and at a fitted estimate with C targets
    chi-square with S - 2C dof (module docstring).
    """
    stat = 2.0 * measurement_nll(x, frame, grid, meas).value
    return stat <= gate_threshold(grid), stat


@dataclass(frozen=True)
class ExcessDeficit:
    """Per-target signal excess and per-sensor deficit after removal.

    ``excess[c]`` sums, over sensors, how much of the predicted surplus
    (alpha_s - a_s) target c's own contribution could account for;
    ``removed`` holds the targets with the largest excess (ties toward the
    lower index) and ``deficit[s]`` is the measured signal left unexplained
    once they are dropped from the prediction.
    """

    excess: np.ndarray  # (C,)
    deficit: np.ndarray  # (S,)
    removed: tuple[int, ...]


def excess_deficit(
    x: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    n_remove: int,
) -> ExcessDeficit:
    """Signal excess per target, then the deficit once the ``n_remove``
    targets with the largest excess are removed."""
    f = signal_components(x, grid, meas)  # (C, S)
    frame = np.asarray(frame, dtype=float)
    surplus = f.sum(axis=0) - frame  # alpha - a
    excess = np.maximum(surplus[None, :] - f, 0.0).sum(axis=1)
    removed = np.lexsort((np.arange(excess.size), -excess))[:n_remove]
    keep = np.setdiff1d(np.arange(f.shape[0]), removed)
    alpha_tilde = f[keep].sum(axis=0) if keep.size else np.zeros(grid.count)
    deficit = np.maximum(frame - alpha_tilde, 0.0)
    return ExcessDeficit(excess=excess, deficit=deficit, removed=tuple(int(c) for c in removed))


def maximin_pick(
    positions: np.ndarray, grid: SensorGrid, taken: np.ndarray
) -> int:
    """The sensor not yet ``taken`` farthest from its nearest target.

    ``taken`` is a (S,) boolean mask.  Ties go to the lower sensor index
    (``argmax`` returns the first maximum).  One-by-one recovery calls this
    once per added sensor, re-estimating the targets in between.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    d = _pair_distances(pos, grid.positions_t)[1].min(axis=0)
    d[taken] = -np.inf
    return int(d.argmax())


def _center_ring(grid: SensorGrid, n_targets: int) -> np.ndarray:
    """Neutral start: targets spaced on a small ring around the grid center."""
    angles = 2.0 * np.pi * (np.arange(n_targets) + 0.5) / n_targets
    offsets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return (grid.center + 0.25 * grid.spacing * offsets).ravel()


def _peel_start(
    frame: np.ndarray, grid: SensorGrid, meas: MeasurementModel, n_targets: int
) -> np.ndarray:
    """A start read off the frame: peel one target at a time from the residual.

    Each target goes to the residual-weighted centroid (weights
    ``max(residual, 0)``) of the sensor with the largest residual reading
    and its up/down/left/right neighbours, at least ``PEEL_STANDOFF`` grid
    spacings off that sensor, and its expected signal is then subtracted
    from the residual.  With no positive weight the target sits at the
    standoff, toward the grid center.  The start lies in the grid's hull.
    """
    residual = np.array(frame, dtype=float)
    row, col = np.divmod(np.arange(grid.count), grid.cols)
    standoff = PEEL_STANDOFF * grid.spacing
    start = np.empty((n_targets, 2))
    for c in range(n_targets):
        s = int(residual.argmax())
        near = np.abs(row - row[s]) + np.abs(col - col[s]) <= 1
        w = np.maximum(residual[near], 0.0)
        sensor, total = grid.positions[s], w.sum()
        off = w @ grid.positions[near] / total - sensor if total > 0.0 else np.zeros(2)
        dist = float(np.hypot(*off))
        if dist == 0.0:  # no direction to stand off along: face the grid center
            off = np.where(sensor < grid.center, standoff, -standoff) / np.sqrt(2.0)
            dist = standoff
        start[c] = sensor + off * max(1.0, standoff / dist)
        residual -= signal_components(start[c], grid, meas)[0]
    return start.ravel()


def _grow_sensor_set(
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    start: np.ndarray,
    box: BoxConstraints,
    options: NewtonOptions | None,
) -> OptimizeResult:
    used = grid.boundary_indices()
    taken = np.zeros(grid.count, dtype=bool)
    taken[used] = True
    res = minimize(measurement_objective(frame, grid, meas, used), start, box, options)
    while used.size < grid.count:
        pick = maximin_pick(res.x, grid, taken)
        taken[pick] = True
        used = np.append(used, pick)
        res = minimize(
            measurement_objective(frame, grid, meas, used), res.x, box, options
        )
    return res


def one_by_one_recovery(
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    prior: PropagatedPrior,
    box: BoxConstraints,
    options: NewtonOptions | None = None,
) -> OptimizeResult:
    """Re-acquire the target vector from the frame alone.

    The refit is a pure measurement fit: the gate only fires when the belief
    stopped explaining the frame, so folding the (suspect) prior back into
    the objective would drag every fit toward the basin being escaped.  The
    candidates come in a fixed order and the first whose statistic passes
    the gate (``gate_threshold``) wins, as in square hopping:

    1. one all-sensor fit from the peeled start (``_peel_start``), which
       carries none of the belief that just failed the gate.  The start is
       about 3.8 m off the targets, where the exact Hessian is often
       indefinite, so this fit alone takes its first directions
       (``optimize.WARMUP_ITERATIONS``) from the measurement Gauss-Newton
       matrix (``measurement_objective``'s ``warm_up``): on a seed-7
       ``acquire`` round that cut its iterations from 20.7 to 9.4 a fit,
       with the same 163 gate passes;
    2. the sensor-set sweep from a neutral ring at the grid center: the
       boundary stage, then the remaining sensors in maximin order,
       re-optimizing after each addition (10 fits on the 5x5 grid);
    3. the same sweep from the prior mean, the better start when the belief
       merely drifted.

    When none passes, the lowest final value of those run is returned; each
    is an all-sensor measurement fit, so twice its value is the statistic.
    A call thus makes 1 fit when the peeled fit passes, as it did on all 163
    calls of a seed-7 ``acquire`` benchmark round and on 55 of 56 of an
    ``acceptance`` round, and 1 + 10k fits when k sweeps follow.  The
    candidates' targets come in their own order, so the caller puts an
    adopted result back into the prior's target labels.
    """
    thr = gate_threshold(grid)
    n_targets = prior.mean_x.size // 2
    best = minimize(
        measurement_objective(frame, grid, meas, warm_up=True),
        _peel_start(frame, grid, meas, n_targets),
        box,
        options,
    )
    if 2.0 * best.value <= thr:
        return best
    neutral = _center_ring(grid, n_targets)
    res = _grow_sensor_set(frame, grid, meas, neutral, box, options)
    if 2.0 * res.value > thr and not np.allclose(neutral, prior.mean_x):
        alt = _grow_sensor_set(frame, grid, meas, prior.mean_x, box, options)
        if alt.value < res.value:
            res = alt
    return res if res.value < best.value else best


@dataclass
class RecoveryOutcome:
    result: OptimizeResult
    gate_passed: bool
    attempts: int  # subsets actually optimized


def square_hopping_recovery(
    x_est: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    box: BoxConstraints,
    options: NewtonOptions | None = None,
) -> RecoveryOutcome:
    """Relocate the worst-fitting targets onto candidate grid squares.

    The targets with the largest signal excess are tentatively removed; grid
    squares are ranked by the measured signal their corner sensors are left
    unable to explain; each small square subset seeds a fresh measurement
    fit with the removed targets placed at the square centers.  Like the
    one-by-one procedure the refit ignores the prior: the first candidate
    whose statistic clears the gate wins, and a gate pass always improves on
    the inconsistent incoming estimate because both are scored by the same
    statistic.  If no candidate passes, the best measurement NLL seen
    (including the incoming estimate) is returned flagged.
    """
    x_est = np.asarray(x_est, dtype=float).ravel()
    thr = gate_threshold(grid)

    objective = measurement_objective(frame, grid, meas)  # shared by every subset fit
    rep = objective(x_est)
    incoming = OptimizeResult(
        x=x_est.copy(),
        value=rep.value,
        report=rep,
        iterations=0,
        converged=True,
        active_set=np.array([], dtype=int),
    )
    if 2.0 * incoming.value <= thr:
        return RecoveryOutcome(result=incoming, gate_passed=True, attempts=0)

    ed = excess_deficit(x_est, frame, grid, meas, N_BAD_TARGETS)
    bad, n_bad = ed.removed, len(ed.removed)

    corners, centers = grid.squares()
    sq_deficit = ed.deficit[corners].sum(axis=1)
    ranked = np.lexsort((np.arange(len(sq_deficit)), -sq_deficit))
    candidates = ranked[:N_BAD_SQUARES]

    best = incoming
    attempts = 0
    for subset in combinations(candidates, n_bad):
        x_start = x_est.copy()
        for tgt, sq in zip(bad, subset):
            x_start[2 * tgt : 2 * tgt + 2] = centers[sq]
        res = minimize(objective, x_start, box, options)
        attempts += 1
        if res.value < best.value:
            best = res
        if 2.0 * res.value <= thr:
            return RecoveryOutcome(result=res, gate_passed=True, attempts=attempts)
    return RecoveryOutcome(result=best, gate_passed=False, attempts=attempts)
