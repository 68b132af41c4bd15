"""Consistency gate, excess/deficit ranking, and the two recoveries."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ttfilter

from ttfilter import consistency
from ttfilter.consistency import (
    N_BAD_SQUARES,
    N_BAD_TARGETS,
    P_VALUE,
    chi2_threshold,
    excess_deficit,
    gate_threshold,
    is_consistent,
    maximin_pick,
    one_by_one_recovery,
    square_hopping_recovery,
)
from ttfilter.errors import ConfigurationError
from ttfilter.metrics import omat
from ttfilter.model import (
    DEFAULT_TARGETS,
    _pair_distances,
    MeasurementModel,
    build_grid,
    expected_signal,
    signal_components,
)
from ttfilter.nll import (
    FilterNoiseModel,
    GaussianBelief,
    measurement_objective,
    propagate_prior,
)
from ttfilter.optimize import (
    WARMUP_ITERATIONS,
    NewtonOptions,
    OptimizeResult,
    box_from_grid,
    minimize,
)

from conftest import assert_exact_newton, assert_warmed_up, watch_curvature


def default_prior(positions: np.ndarray) -> "PropagatedPrior":
    c = positions.shape[0]
    mean = np.zeros(4 * c)
    mean[: 2 * c] = positions.ravel()
    belief = GaussianBelief(mean=mean, cov=np.eye(4 * c) * 0.25)
    return propagate_prior(belief, FilterNoiseModel())


def test_chi2_threshold_examples():
    # one dof at the two-sided 1-sigma tail
    assert chi2_threshold(1, 0.3173) == pytest.approx(1.0, abs=1e-4)
    # two dof: the tail is exp(-q / 2), so p = 1/e inverts to exactly 2
    assert chi2_threshold(2, float(np.exp(-1.0))) == pytest.approx(2.0, rel=1e-12)
    assert chi2_threshold(25, 0.0013) == pytest.approx(51.72, abs=5e-3)


def test_chi2_threshold_against_tail_oracle():
    mpmath = pytest.importorskip("mpmath")
    q = chi2_threshold(25, 0.0013)
    tail = mpmath.gammainc(12.5, q / 2.0, mpmath.inf, regularized=True)
    assert float(tail) == pytest.approx(0.0013, rel=1e-9)


def test_chi2_threshold_is_scipy_stats_isf_bit_for_bit():
    from scipy.stats import chi2

    for dof in range(1, 201):
        for p in (1e-6, 1e-4, 0.0013, 0.01, 0.05, 0.3173, 0.5, 0.95, 0.999):
            assert chi2_threshold(dof, p) == float(chi2.isf(p, dof)), (dof, p)


def modules_loaded_by_package_import(prefix: str) -> str:
    """Modules starting with ``prefix`` after a fresh import of the entry points."""
    env = dict(os.environ, PYTHONPATH=str(Path(ttfilter.__file__).parents[1]))
    code = (
        "import sys, ttfilter.cli, ttfilter.tracker, ttfilter.experiment; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_package_imports_leave_scipy_stats_out():
    # scipy.stats is most of the import time; no module may pull it back in
    assert modules_loaded_by_package_import("scipy.stats") == "[]"


def test_package_imports_leave_scipy_optimize_out():
    # scipy.optimize costs about 0.2 s and 17 MB; OMAT solves its own assignment
    assert modules_loaded_by_package_import("scipy.optimize") == "[]"


def test_chi2_threshold_validation():
    with pytest.raises(ConfigurationError):
        chi2_threshold(25, 0.0)
    with pytest.raises(ConfigurationError):
        chi2_threshold(25, 1.0)
    with pytest.raises(ConfigurationError):
        chi2_threshold(0, 0.5)


def test_perfect_frame_is_consistent(grid55, meas_default):
    pos = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(pos, grid55, meas_default)
    ok, stat = is_consistent(pos.ravel(), frame, grid55, meas_default)
    assert ok
    assert stat == 0.0


def test_gate_threshold_is_the_one_threshold(grid55, meas_default, monkeypatch):
    # S dof at P_VALUE, read by the gate and by the recoveries' pass test
    assert gate_threshold(grid55) == chi2_threshold(grid55.count, P_VALUE)
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(truth, grid55, meas_default)
    far = np.clip(truth + 15.0, 0.0, 40.0).ravel()
    box = box_from_grid(grid55, n_targets=4)
    monkeypatch.setattr(consistency, "gate_threshold", lambda grid: np.inf)
    assert is_consistent(far, frame, grid55, meas_default)[0]
    out = square_hopping_recovery(far, frame, grid55, meas_default, box)
    assert out.gate_passed and out.attempts == 1  # the first subset fit passes
    monkeypatch.setattr(consistency, "gate_threshold", lambda grid: -1.0)
    assert not is_consistent(truth.ravel(), frame, grid55, meas_default)[0]


def test_statistic_scales_quadratically(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(4, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    noise = 0.05 * rng.standard_normal(25)
    s1 = is_consistent(pos.ravel(), alpha + noise, grid55, meas_default)[1]
    s3 = is_consistent(pos.ravel(), alpha + 3.0 * noise, grid55, meas_default)[1]
    assert s3 == pytest.approx(9.0 * s1, rel=1e-10)


def test_rejection_rate_matches_p_value(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(4, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    sig2 = 0.01
    n = 10_000
    resid = np.sqrt(sig2) * rng.standard_normal((n, 25))
    stats = (resid**2).sum(axis=1) / sig2
    # the closed form above equals the statistic computed through the NLL
    spot = is_consistent(pos.ravel(), alpha + resid[0], grid55, meas_default)[1]
    assert spot == pytest.approx(stats[0], rel=1e-9)
    p = P_VALUE
    rate = np.mean(stats > gate_threshold(grid55))
    assert abs(rate - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_displaced_target_flags_inconsistent(grid55, rng):
    meas = MeasurementModel(sigma_s2=0.01)
    pos = np.asarray(DEFAULT_TARGETS)[:, :2].copy()
    wrong = pos.copy()
    wrong[2] += 30.0  # three squares away
    wrong = np.clip(wrong, 0.0, 40.0)
    alpha = expected_signal(pos, grid55, meas)
    hits = 0
    trials = 200
    for _ in range(trials):
        frame = alpha + 0.1 * rng.standard_normal(25)
        ok, _ = is_consistent(wrong.ravel(), frame, grid55, meas)
        hits += not ok
    assert hits >= 0.95 * trials


def test_boundary_count(grid55):
    assert grid55.boundary_indices().size == 16


def maximin_order(positions, grid, used):
    """Remaining sensors by descending min-distance to the targets, ties to
    the lower index: the full ordering one-by-one recovery read only the
    first element of, kept as the oracle for ``maximin_pick``."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    remaining = np.setdiff1d(np.arange(grid.count), used)
    d = _pair_distances(pos, grid.positions_t[:, remaining])[1].min(axis=0)
    return remaining[np.lexsort((remaining, -d))]


def picks(positions, grid, used):
    """``maximin_pick`` repeated against fixed targets until every sensor is taken."""
    taken = np.zeros(grid.count, dtype=bool)
    taken[used] = True
    out = []
    while not taken.all():
        out.append(maximin_pick(positions, grid, taken))
        taken[out[-1]] = True
    return out


def test_maximin_prefers_farther_sensor(grid55):
    target = np.array([[5.0, 5.0]])
    used = np.setdiff1d(np.arange(25), [0, 24])  # leave corners (0,0) and (40,40)
    assert picks(target, grid55, used) == [24, 0]


def test_maximin_matches_enumeration_on_3x3(rng):
    grid = build_grid(3, 3, 10.0)
    targets = rng.uniform(0.0, 20.0, size=(2, 2))
    used = grid.boundary_indices()
    got = picks(targets, grid, used)

    remaining = sorted(set(range(grid.count)) - set(used.tolist()))
    dists = {
        s: min(np.linalg.norm(t - grid.positions[s]) for t in targets)
        for s in remaining
    }
    expect = sorted(remaining, key=lambda s: (-dists[s], s))
    assert got == expect


def test_maximin_pick_is_first_of_the_full_order_ties_included(grid55, rng):
    cases = [
        # one target at the grid center: the four corners tie at 28.3 m
        (np.array([[20.0, 20.0]]), np.array([], dtype=int)),
        # mirror-symmetric pair: sensors tie in mirrored pairs
        (np.array([[15.0, 20.0], [25.0, 20.0]]), grid55.boundary_indices()),
        # a target on a sensor, the boundary ring taken
        (np.array([[10.0, 10.0], [30.0, 25.0]]), grid55.boundary_indices()),
    ]
    for _ in range(200):
        targets = rng.uniform(-10.0, 50.0, size=(4, 2))
        used = np.flatnonzero(rng.random(25) < rng.uniform(0.0, 0.95))
        if used.size < 25:
            cases.append((targets, used))
    ties = 0
    for targets, used in cases:
        taken = np.zeros(25, dtype=bool)
        taken[used] = True
        order = maximin_order(targets, grid55, used)
        d = _pair_distances(targets, grid55.positions_t[:, order[:2]])[1].min(axis=0)
        ties += order.size > 1 and d[0] == d[1]
        assert maximin_pick(targets, grid55, taken) == order[0]
    assert ties >= 2  # the two symmetric cases


def test_signal_excess_zero_when_no_surplus(grid55, meas_default, rng):
    pos = rng.uniform(5.0, 35.0, size=(3, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    ed = excess_deficit(pos.ravel(), alpha + 1.0, grid55, meas_default, 0)
    np.testing.assert_array_equal(ed.excess, np.zeros(3))


def test_signal_excess_single_sensor_unit_case():
    grid = build_grid(2, 2, 10.0)
    meas = MeasurementModel()
    x = np.array([3.0, 4.0])
    f = signal_components(x, grid, meas)  # (1, 4)
    # keep the frame equal to the prediction except one sensor short by f+1
    frame = f.sum(axis=0).copy()
    frame[0] -= f[0, 0] + 1.0
    ed = excess_deficit(x, frame, grid, meas, 1)
    assert ed.excess[0] == pytest.approx(1.0, rel=1e-12)


def test_signal_excess_matches_scalar_loop(grid55, meas_default, rng):
    x = rng.uniform(5.0, 35.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    eps = excess_deficit(x, frame, grid55, meas_default, 2).excess
    f = signal_components(x, grid55, meas_default)
    alpha = f.sum(axis=0)
    for c in range(4):
        manual = sum(
            max((alpha[s] - frame[s]) - f[c, s], 0.0) for s in range(25)
        )
        assert eps[c] == pytest.approx(manual, rel=1e-12)


def test_excess_deficit_nonnegative_and_removal(grid55, meas_default, rng):
    x = rng.uniform(5.0, 35.0, size=8)
    frame = rng.uniform(0.5, 4.0, size=25)
    ed = excess_deficit(x, frame, grid55, meas_default, 2)
    assert (ed.excess >= 0.0).all()
    assert (ed.deficit >= 0.0).all()
    # the two targets with the largest excess are the ones removed
    removed = sorted(range(4), key=lambda c: (-ed.excess[c], c))[:2]
    assert ed.removed == tuple(removed)
    keep = [c for c in range(4) if c not in removed]
    f = signal_components(x, grid55, meas_default)
    expect = np.maximum(frame - f[keep].sum(axis=0), 0.0)
    np.testing.assert_allclose(ed.deficit, expect, rtol=1e-12)


# noise-free frames at sigma^2 = 0.01 on which the fit from the peeled start
# fails the gate (statistic 163.3 and 233.9): the ring sweep then finds the
# first, and only the prior-mean sweep finds the second (ring 59.8)
PEEL_MISSES_RING_FINDS = np.array([[33.0, 25.0], [20.0, 8.0], [26.0, 13.0], [28.0, 19.0]])
PEEL_AND_RING_MISS = np.array([[29.0, 21.0], [32.0, 22.0], [6.0, 25.0], [8.0, 32.0]])
TRUTH_3X6 = np.array([[13.0, 7.0], [38.0, 14.0]])  # two targets on a 3x6 grid


def count_fits(monkeypatch) -> list:
    """Record ``(start, result)`` of every fit one-by-one recovery makes."""
    fits = []
    minimize = consistency.minimize

    def counting_minimize(fun, x0, box, options=None, **kwargs):
        fits.append((np.array(x0), minimize(fun, x0, box, options, **kwargs)))
        return fits[-1][1]

    monkeypatch.setattr(consistency, "minimize", counting_minimize)
    return fits


def drifted_recovery(truth, grid, meas):
    """One-by-one recovery on the noise-free frame of ``truth`` with the
    prior mean 5 m off it."""
    prior = default_prior(np.clip(truth + np.array([4.0, 3.0]), 0.0, 40.0))
    frame = expected_signal(truth, grid, meas)
    box = box_from_grid(grid, n_targets=truth.shape[0])
    return one_by_one_recovery(frame, grid, meas, prior.mean_x, box), prior


def relabel(x, truth):
    est = x.reshape(-1, 2)
    return est[omat(truth, est).assignment]


def test_one_by_one_recovers_from_belief_drift(grid55, monkeypatch):
    # from the neutral ring the sweep misses this frame (statistic 357.6), so
    # sweeping from the ring, then the prior mean, took 20 fits; the fit from
    # the peeled start finds it alone
    from ttfilter.nll import measurement_nll

    fits = count_fits(monkeypatch)
    meas = MeasurementModel(sigma_s2=0.01)
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    res, _ = drifted_recovery(truth, grid55, meas)
    assert len(fits) == 1 and res is fits[0][1]
    assert 2.0 * res.value <= gate_threshold(grid55)
    np.testing.assert_allclose(relabel(res.x, truth), truth, atol=1e-3)
    # the returned value is the full-sensor measurement fit at the estimate
    frame = expected_signal(truth, grid55, meas)
    assert res.value == pytest.approx(
        measurement_nll(res.x, frame, grid55, meas).value, rel=1e-12, abs=1e-12
    )


def test_one_by_one_builds_hessians_only_for_newton_directions(grid55, monkeypatch):
    # the peeled fit takes its first WARMUP_ITERATIONS directions from the
    # Gauss-Newton matrix and builds no Hessian for them; every later
    # direction of it, and every direction of a sweep fit, solves on the
    # exact Hessian.  No caller reads the Hessian at a recovery fit's end, so
    # none is built there unless the fit's last direction, the one whose
    # decrement stopped it, needed it
    from ttfilter import nll

    builds, fits = [0], []
    build_hess = nll._MeasurementDerivatives.hess

    def counting_hess(self):
        builds[0] += self._hess is None
        return build_hess(self)

    def counting_minimize(fun, x0, box, options=None, **kwargs):
        before = builds[0]
        res = minimize(fun, x0, box, options, **kwargs)
        # a fit that stopped on the Newton decrement built the Hessian of its
        # last iterate for the direction that showed nothing left to gain
        proj_grad = res.x - box.clip(res.x - res.report.grad)
        tol = (options or NewtonOptions()).grad_tol
        stop = bool(res.converged and np.abs(proj_grad).max() > tol)
        fits.append((res.iterations, stop, builds[0] - before))
        return res

    minimize = consistency.minimize
    monkeypatch.setattr(nll._MeasurementDerivatives, "hess", counting_hess)
    monkeypatch.setattr(consistency, "minimize", counting_minimize)
    meas = MeasurementModel(sigma_s2=0.01)
    drifted_recovery(PEEL_MISSES_RING_FINDS, grid55, meas)
    assert len(fits) == 11  # the peeled fit, then a sweep
    assert sum(stop for _, stop, _ in fits) > 0
    peel_iterations, peel_stop, peel_builds = fits[0]
    assert peel_iterations > WARMUP_ITERATIONS
    assert peel_builds == peel_iterations - WARMUP_ITERATIONS + peel_stop
    for iterations, stop, built in fits[1:]:
        assert built == iterations + stop


def test_only_the_peeled_fit_is_offered_the_gauss_newton_matrix(grid55, monkeypatch):
    # the peeled fit fails the gate here, so a ring sweep follows: its ten
    # subset fits are blind and run exact Newton throughout
    fits = watch_curvature(monkeypatch, consistency)
    drifted_recovery(PEEL_MISSES_RING_FINDS, grid55, MeasurementModel(sigma_s2=0.01))
    assert len(fits) == 11
    assert_warmed_up(fits[0][0], fits[0][1].iterations)
    assert fits[0][1].iterations > WARMUP_ITERATIONS
    for reads, res in fits[1:]:
        assert_exact_newton(reads, res.iterations)
    assert sum(res.iterations for _, res in fits[1:]) > 0


def test_warmed_peel_fit_passes_the_gate_as_often_in_fewer_iterations(grid55):
    # 100 noise-free frames, targets uniform over the grid: the same fit from
    # the same peeled start, with and without the Gauss-Newton warm-up; with
    # it the fit took 2,571 iterations against 3,118 and passed the gate on
    # 87 frames against 85
    meas = MeasurementModel(sigma_s2=0.01)
    box = box_from_grid(grid55, n_targets=4)
    thr = gate_threshold(grid55)
    rng = np.random.default_rng(0)
    passes, iterations = {False: 0, True: 0}, {False: 0, True: 0}
    for _ in range(100):
        frame = expected_signal(rng.uniform(0.0, 40.0, size=(4, 2)), grid55, meas)
        start = consistency._peel_start(frame, grid55, meas, 4)
        for warm in (False, True):
            fun = measurement_objective(frame, grid55, meas, warm_up=warm)
            res = minimize(fun, start, box)
            passes[warm] += 2.0 * res.value <= thr
            iterations[warm] += res.iterations
    assert passes[True] >= passes[False]
    assert iterations[True] < iterations[False]


def test_one_by_one_tries_the_peel_then_the_ring_then_the_prior(grid55, monkeypatch):
    # a sweep is 10 stage fits on the 5x5 grid (the 16 boundary sensors, then
    # the 9 others one at a time); it runs only when every earlier candidate
    # failed the gate, so a call makes 1, 11 or 21 fits
    fits = count_fits(monkeypatch)
    meas = MeasurementModel(sigma_s2=0.01)
    thr = gate_threshold(grid55)
    ring = consistency._center_ring(grid55, 4)

    def peel(truth):
        return consistency._peel_start(expected_signal(truth, grid55, meas), grid55, meas, 4)

    # the peeled fit passes: nothing else runs
    truth = np.array([[24.0, 13.0], [6.0, 5.0], [29.0, 32.0], [23.0, 27.0]])
    res, _ = drifted_recovery(truth, grid55, meas)
    assert len(fits) == 1 and res is fits[0][1]
    np.testing.assert_array_equal(fits[0][0], peel(truth))
    assert 2.0 * res.value <= thr

    # the peeled fit fails, the ring sweep passes and is returned
    fits.clear()
    res, _ = drifted_recovery(PEEL_MISSES_RING_FINDS, grid55, meas)
    assert len(fits) == 11 and res is fits[10][1]
    np.testing.assert_array_equal(fits[0][0], peel(PEEL_MISSES_RING_FINDS))
    np.testing.assert_array_equal(fits[1][0], ring)
    assert 2.0 * fits[0][1].value > thr and 2.0 * res.value <= thr

    # both fail, so the prior mean sweeps too
    fits.clear()
    res, prior = drifted_recovery(PEEL_AND_RING_MISS, grid55, meas)
    assert len(fits) == 21
    np.testing.assert_array_equal(fits[1][0], ring)
    np.testing.assert_array_equal(fits[11][0], prior.mean_x)
    assert 2.0 * fits[0][1].value > thr and 2.0 * fits[10][1].value > thr
    assert 2.0 * res.value <= thr


@pytest.mark.parametrize(
    "truth, fifth, winner",
    [
        # statistics 1042.1, 1867.2 and 1218.5: the peeled fit is kept
        pytest.param(
            [[23.0, 20.0], [27.0, 20.0], [40.0, 30.0], [2.0, 6.0]], [22.0, 33.0], 0,
            id="peel-kept",
        ),
        # 4452.8, 6027.9 and 3433.0: the prior-mean sweep is kept
        pytest.param(
            [[8.0, 25.0], [9.0, 11.0], [20.0, 21.0], [19.0, 21.0]], [10.0, 30.0], 2,
            id="prior-sweep-kept",
        ),
    ],
)
def test_one_by_one_returns_the_lowest_candidate_when_none_passes(
    grid55, monkeypatch, truth, fifth, winner
):
    # a fifth target the four-target fit has no slot for, so the peeled fit
    # and both sweeps fail the gate; the lowest of the three is returned
    fits = count_fits(monkeypatch)
    meas = MeasurementModel(sigma_s2=0.01)
    truth = np.array(truth)
    frame = expected_signal(np.vstack([truth, fifth]), grid55, meas)
    box = box_from_grid(grid55, n_targets=4)
    res = one_by_one_recovery(frame, grid55, meas, default_prior(truth).mean_x, box)
    assert len(fits) == 21
    finals = [fits[0][1], fits[10][1], fits[20][1]]  # peel, ring sweep, prior sweep
    assert all(2.0 * r.value > gate_threshold(grid55) for r in finals)
    assert res is finals[winner]
    assert res.value == min(r.value for r in finals)


def peel_cases():
    grid55, grid36, meas = build_grid(5, 5, 10.0), build_grid(3, 6, 10.0), MeasurementModel()
    on_sensor = np.array([[20.0, 20.0], [31.0, 12.0]])  # target 0 on the center sensor
    return [
        pytest.param(grid55, np.zeros(25), 4, id="all-zero"),
        pytest.param(grid55, -np.linspace(0.5, 3.0, 25), 4, id="all-negative"),
        pytest.param(grid55, expected_signal(on_sensor, grid55, meas), 2, id="on-a-sensor"),
        pytest.param(grid36, expected_signal(TRUTH_3X6, grid36, meas), 2, id="3x6"),
    ]


@pytest.mark.parametrize("grid, frame, n_targets", peel_cases())
def test_peel_start_is_finite_inside_the_box_and_off_the_sensors(grid, frame, n_targets):
    # a zero weight sum must not reach the centroid's division: pyproject
    # turns RuntimeWarnings into errors, and this block turns every warning
    meas = MeasurementModel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = consistency._peel_start(frame, grid, meas, n_targets)
    box = box_from_grid(grid, n_targets)
    assert start.shape == (2 * n_targets,) and np.isfinite(start).all()
    np.testing.assert_array_equal(box.clip(start), start)
    d = _pair_distances(start.reshape(-1, 2), grid.positions_t)[1].min(axis=1)
    assert (d >= consistency.PEEL_STANDOFF * grid.spacing * (1.0 - 1e-12)).all()


def test_peel_fit_passes_the_gate_on_a_non_square_grid(monkeypatch):
    fits = count_fits(monkeypatch)
    grid = build_grid(3, 6, 10.0)
    meas = MeasurementModel(sigma_s2=0.01)
    res, _ = drifted_recovery(TRUTH_3X6, grid, meas)
    assert len(fits) == 1
    assert 2.0 * res.value <= gate_threshold(grid)
    np.testing.assert_allclose(relabel(res.x, TRUTH_3X6), TRUTH_3X6, atol=1e-3)


def test_square_count_and_subset_cap(grid55):
    corners, centers = grid55.squares()
    assert corners.shape[0] == 16
    from math import comb

    # hopping fits at most one start per pair of the 12 candidate squares
    assert comb(N_BAD_SQUARES, N_BAD_TARGETS) == 66


def test_hopping_relocates_misplaced_target(grid55):
    meas = MeasurementModel(sigma_s2=0.01)
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(truth, grid55, meas)
    wrong = truth.copy()
    wrong[2] = [25.0, 15.0]  # one square over from (20, 13) area, wrong basin
    box = box_from_grid(grid55, n_targets=4)
    out = square_hopping_recovery(
        wrong.ravel(), frame, grid55, meas, box
    )
    assert out.gate_passed
    assert out.attempts >= 1
    got = np.sort(out.result.x.reshape(-1, 2), axis=0)
    np.testing.assert_allclose(got, np.sort(truth, axis=0), atol=1e-3)


def test_hopping_fits_run_exact_newton(grid55, monkeypatch):
    fits = watch_curvature(monkeypatch, consistency)
    meas = MeasurementModel(sigma_s2=0.01)
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    wrong = truth.copy()
    wrong[2] = [25.0, 15.0]
    box = box_from_grid(grid55, n_targets=4)
    out = square_hopping_recovery(
        wrong.ravel(), expected_signal(truth, grid55, meas), grid55, meas, box
    )
    assert len(fits) == out.attempts >= 1
    for reads, res in fits:
        assert_exact_newton(reads, res.iterations)
    assert sum(res.iterations for _, res in fits) > 0


def test_hopping_without_a_square_pair_makes_no_fit(monkeypatch):
    # a 2x2 grid has one square, so there is no pair of squares for the two
    # removed targets: no fit is made and there is no result
    fits = count_fits(monkeypatch)
    grid = build_grid(2, 2, 10.0)
    meas = MeasurementModel(sigma_s2=0.01)
    frame = expected_signal(np.array([[2.0, 3.0], [8.0, 7.0]]), grid, meas)
    box = box_from_grid(grid, n_targets=2)
    out = square_hopping_recovery([5.0, 5.0, 5.5, 5.0], frame, grid, meas, box)
    assert (out.result, out.gate_passed, out.attempts) == (None, False, 0)
    assert fits == []


def test_first_pass_takes_the_first_pass_else_the_lowest(grid55):
    # the one selection both recoveries use; fits after a pass are not made
    thr = gate_threshold(grid55)

    def fit(stat):
        return OptimizeResult(
            x=np.zeros(2), value=stat / 2.0, report=None, iterations=0,
            converged=True, active_set=np.array([], dtype=int),
        )

    made = []

    def fits(*stats):
        for stat in stats:
            made.append(stat)
            yield fit(stat)

    out = consistency._first_pass(fits(thr + 2.0, thr, thr - 1.0), grid55)
    assert (out.result.value, out.gate_passed, out.attempts) == (thr / 2.0, True, 2)
    assert made == [thr + 2.0, thr]
    high, low, tie = fit(thr + 3.0), fit(thr + 1.0), fit(thr + 1.0)
    out = consistency._first_pass(iter([high, low, tie]), grid55)
    assert out.result is low and not out.gate_passed and out.attempts == 3
