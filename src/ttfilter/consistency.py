"""Measurement-consistency gate and the two recovery procedures.

Twice the measurement NLL at the true positions is chi-square with one
degree of freedom per sensor, and the gate compares it with that law's far
upper-tail threshold to flag steps where the Newton fit converged to the
wrong basin.  The filter gates its fitted estimate, though, and fitting the
2C coordinates to the frame lowers the statistic: at the estimate it follows
chi-square with S - 2C dof instead (measured mean 16.9 and variance 34.2 on
the 5x5 grid with 4 targets at sigma^2 = 0.01, against 17 and 34).  There
the dof-25 threshold of 51.72 at p = 0.0013 is exceeded with probability
2.3e-5, 57 times below the nominal rate, so a consistent fit fails the gate
far more rarely than ``P_VALUE`` says.  The threshold keeps S dof, and
``gate_threshold`` is the one place that decides it: the main gate, the
re-checks after a recovery and the recoveries' pass test all read it.  Two
escalating repairs follow, both measurement fits with one contract: they
produce candidate fits lazily, in a fixed order, and return the first whose
statistic passes the gate, else the lowest, ties to the earlier
(``_first_pass``, the one selection loop); ``tracker.step`` decides whether
to adopt the result.  One-by-one recovery's candidates are a fit of every
sensor from a start peeled off the frame, one target per signal peak, then
the fits with sensors introduced one at a time (boundary ring first, then a
maximin fill), swept from a neutral start and then from the prior mean.
Square hopping relocates the ``N_BAD_TARGETS`` worst-fitting targets to the
``N_BAD_SQUARES`` grid cells with the largest signal deficit and fits each
pair of cells.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import chdtri

from .errors import ConfigurationError
from .model import MeasurementModel, SensorGrid, _pair_distances, signal_components
from .nll import measurement_nll, measurement_objective
from .optimize import BoxConstraints, OptimizeResult, minimize


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
) -> OptimizeResult:
    used = grid.boundary_indices()
    taken = np.zeros(grid.count, dtype=bool)
    taken[used] = True
    res = minimize(measurement_objective(frame, grid, meas, used), start, box)
    while used.size < grid.count:
        pick = maximin_pick(res.x, grid, taken)
        taken[pick] = True
        used = np.append(used, pick)
        res = minimize(measurement_objective(frame, grid, meas, used), res.x, box)
    return res


@dataclass
class RecoveryOutcome:
    """A recovery's pick among its candidate fits (``_first_pass``)."""

    result: OptimizeResult | None  # None when there was no candidate to fit
    gate_passed: bool
    attempts: int  # candidate fits actually made


def _first_pass(fits: Iterator[OptimizeResult], grid: SensorGrid) -> RecoveryOutcome:
    """The recoveries' one selection: the first of the lazily produced
    measurement ``fits`` whose statistic (twice its value) passes the gate,
    else the lowest, ties to the earlier.  No fit after a pass is made."""
    thr = gate_threshold(grid)
    best, attempts = None, 0
    for res in fits:
        attempts += 1
        if 2.0 * res.value <= thr:
            return RecoveryOutcome(result=res, gate_passed=True, attempts=attempts)
        if best is None or res.value < best.value:
            best = res
    return RecoveryOutcome(result=best, gate_passed=False, attempts=attempts)


def one_by_one_recovery(
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    prior_x: np.ndarray,
    box: BoxConstraints,
) -> OptimizeResult:
    """Re-acquire the target vector from the frame alone.

    The refit is a pure measurement fit: the gate only fires when the belief
    stopped explaining the frame, so folding the (suspect) prior back into
    the objective would drag every fit toward the basin being escaped; the
    prior mean ``prior_x`` (2C,) serves only as a start.  The candidates, in
    order, each an all-sensor measurement fit at its end (``_first_pass``
    returns the first that passes the gate, else the lowest):

    1. one fit from the peeled start (``_peel_start``), which carries none
       of the belief that just failed the gate.  The start is about 3.8 m
       off the targets, where the exact Hessian is often indefinite, so
       this fit alone takes its first directions
       (``optimize.WARMUP_ITERATIONS``) from the measurement Gauss-Newton
       matrix (``measurement_objective``'s ``warm_up``): on a seed-7
       ``acquire`` round that cut its iterations from 20.7 to 9.4 a fit,
       with the same 163 gate passes;
    2. the sensor-set sweep from a neutral ring at the grid center: the
       boundary stage, then the remaining sensors in maximin order,
       re-optimizing after each addition (10 fits on the 5x5 grid);
    3. the same sweep from the prior mean, the better start when the belief
       merely drifted, unless that mean is the ring.

    A call thus makes 1 fit when the peeled fit passes, as it did on all 163
    calls of a seed-7 ``acquire`` benchmark round and on 55 of 56 of an
    ``acceptance`` round, and 1 + 10k fits when k sweeps follow.  The
    candidates' targets come in their own order.
    """
    n_targets = prior_x.size // 2

    def fits():
        yield minimize(
            measurement_objective(frame, grid, meas, warm_up=True),
            _peel_start(frame, grid, meas, n_targets),
            box,
        )
        neutral = _center_ring(grid, n_targets)
        yield _grow_sensor_set(frame, grid, meas, neutral, box)
        if not np.allclose(neutral, prior_x):
            yield _grow_sensor_set(frame, grid, meas, prior_x, box)

    return _first_pass(fits(), grid).result


def square_hopping_recovery(
    x_est: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    box: BoxConstraints,
) -> RecoveryOutcome:
    """Relocate the worst-fitting targets of ``x_est`` onto grid squares.

    The targets with the largest signal excess are tentatively removed; grid
    squares are ranked by the measured signal their corner sensors are left
    unable to explain; each subset of the best-ranked squares seeds a
    measurement fit with the removed targets placed at the square centers.
    Like one-by-one recovery the refit ignores the prior, and
    ``_first_pass`` picks among the fits: the first that passes the gate,
    else the lowest, flagged.  A grid with fewer squares than removed
    targets has no subset: no fit is made and the result is None.
    """
    x_est = np.asarray(x_est, dtype=float).ravel()
    objective = measurement_objective(frame, grid, meas)  # shared by every fit
    ed = excess_deficit(x_est, frame, grid, meas, N_BAD_TARGETS)
    corners, centers = grid.squares()
    sq_deficit = ed.deficit[corners].sum(axis=1)
    ranked = np.lexsort((np.arange(len(sq_deficit)), -sq_deficit))

    def fits():
        for subset in combinations(ranked[:N_BAD_SQUARES], len(ed.removed)):
            x_start = x_est.copy()
            x_start.reshape(-1, 2)[list(ed.removed)] = centers[list(subset)]
            yield minimize(objective, x_start, box)

    return _first_pass(fits(), grid)
