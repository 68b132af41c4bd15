"""Grid geometry, signal model, truth simulation."""

from __future__ import annotations

import numpy as np
import pytest

from ttfilter.errors import ConfigurationError, SimulationError
from ttfilter.model import (
    DEFAULT_TARGETS,
    F_SINGLE,
    MeasurementModel,
    MotionModel,
    Scenario,
    build_grid,
    expected_signal,
    propagate_truth,
    simulate,
    stack_state,
    write_frames_csv,
    write_truth_csv,
)
from ttfilter import model

from conftest import benchmark_scenario


def test_build_grid_5x5_extent():
    grid = build_grid(5, 5, 10.0)
    assert grid.count == 25
    assert grid.extent == (40.0, 40.0)
    np.testing.assert_allclose(grid.center, [20.0, 20.0])


def test_build_grid_unit_square():
    grid = build_grid(2, 2, 1.0)
    np.testing.assert_allclose(
        grid.positions, [[0, 0], [1, 0], [0, 1], [1, 1]]
    )


def test_build_grid_rectangular():
    grid = build_grid(3, 2, 10.0)
    assert grid.count == 6
    assert grid.extent == (10.0, 20.0)
    np.testing.assert_allclose(
        grid.positions,
        [[0, 0], [10, 0], [0, 10], [10, 10], [0, 20], [10, 20]],
    )


def test_build_grid_rejects_degenerate():
    with pytest.raises(ConfigurationError):
        build_grid(1, 5, 10.0)
    with pytest.raises(ConfigurationError):
        build_grid(5, 5, 0.0)


def test_boundary_indices_5x5():
    grid = build_grid(5, 5, 10.0)
    boundary = grid.boundary_indices()
    assert boundary.size == 16
    interior = np.setdiff1d(np.arange(25), boundary)
    np.testing.assert_array_equal(
        interior, [6, 7, 8, 11, 12, 13, 16, 17, 18]
    )


def test_squares_cover_each_cell_once():
    grid = build_grid(5, 5, 10.0)
    corners, centers = grid.squares()
    assert corners.shape == (16, 4)
    assert len({tuple(sorted(row)) for row in corners}) == 16
    np.testing.assert_allclose(centers[0], [5.0, 5.0])
    np.testing.assert_allclose(centers[-1], [35.0, 35.0])


def test_signal_on_sensor_peaks_at_a_over_d0(grid55, meas_default):
    pos = np.array([grid55.positions[12]])
    alpha = expected_signal(pos, grid55, meas_default)
    # the distance clamp at 1e-6 m keeps this off A/d0 by one part in 1e5
    assert alpha[12] == pytest.approx(
        meas_default.amplitude / meas_default.offset, rel=1e-4
    )


def test_signal_single_target_known_distance(grid55, meas_default):
    pos = np.array([[3.0, 4.0]])  # 5 m from the origin sensor
    alpha = expected_signal(pos, grid55, meas_default)
    assert alpha[0] == pytest.approx(10.0 / (5.0 + 0.1))


def test_signal_matches_scalar_loop(grid55, meas_default, rng):
    pos = rng.uniform(0.0, 40.0, size=(4, 2))
    alpha = expected_signal(pos, grid55, meas_default)
    manual = np.zeros(grid55.count)
    for s, sensor in enumerate(grid55.positions):
        for target in pos:
            r = np.hypot(*(target - sensor))
            manual[s] += meas_default.amplitude / (
                r**meas_default.exponent + meas_default.offset
            )
    np.testing.assert_allclose(alpha, manual, rtol=1e-12)


def test_signal_permutation_invariant(grid55, meas_default, rng):
    pos = rng.uniform(0.0, 40.0, size=(4, 2))
    np.testing.assert_allclose(
        expected_signal(pos, grid55, meas_default),
        expected_signal(pos[::-1], grid55, meas_default),
        rtol=1e-14,
    )


def test_signal_monotone_in_distance(grid55, meas_default):
    along = np.linspace(1.0, 30.0, 50)
    vals = [
        expected_signal(np.array([[x, 0.0]]), grid55, meas_default)[0]
        for x in along
    ]
    assert np.all(np.diff(vals) < 0.0)


def test_signal_batch_agrees_with_single(grid55, meas_default, rng):
    batch = rng.uniform(0.0, 40.0, size=(6, 4, 2))
    out = expected_signal(batch, grid55, meas_default)
    assert out.shape == (6, 25)
    for k in range(6):
        np.testing.assert_array_equal(
            out[k], expected_signal(batch[k], grid55, meas_default)
        )


def test_propagate_zero_noise_is_linear():
    motion = MotionModel(gamma=0.0)
    rng = np.random.default_rng(0)
    states = DEFAULT_TARGETS.copy()
    once = propagate_truth(states, motion, rng)
    np.testing.assert_allclose(once[:, :2], states[:, :2] + states[:, 2:])
    np.testing.assert_allclose(once[:, 2:], states[:, 2:])
    twice = propagate_truth(once, motion, rng)
    np.testing.assert_allclose(twice, states @ (F_SINGLE.T @ F_SINGLE.T))


def test_process_noise_covariance_monte_carlo():
    motion = MotionModel(gamma=0.05)
    rng = np.random.default_rng(42)
    start = np.zeros((100_000, 4))
    moved = propagate_truth(start, motion, rng)
    emp = np.cov(moved.T)
    err = np.linalg.norm(emp - motion.V) / np.linalg.norm(motion.V)
    assert err < 0.05


def test_motion_model_default_gamma():
    assert MotionModel().gamma == 0.05
    v = MotionModel(gamma=0.05).V
    np.testing.assert_allclose(v[0, 0], 0.05 / 3.0)
    np.testing.assert_allclose(v[0, 2], 0.025)
    np.testing.assert_allclose(v[2, 2], 0.05)


def test_simulate_noise_free_frames_match_signal():
    scen = benchmark_scenario(sigma_s2=0.0, gamma=0.0)
    traj = simulate(scen, 5, 3)
    for t in range(5):
        np.testing.assert_allclose(
            traj.frames[t],
            expected_signal(traj.states[t + 1, :, :2], scen.grid, scen.meas),
        )


def test_simulate_same_seed_identical():
    scen = benchmark_scenario()
    a = simulate(scen, 10, 99)
    b = simulate(scen, 10, 99)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.frames, b.frames)


def test_simulate_measurement_noise_variance():
    # stationary noise-free truth isolates the measurement noise;
    # 4000 steps x 25 sensors = 1e5 draws
    still = DEFAULT_TARGETS.copy()
    still[:, 2:] = 0.0
    scen = Scenario(
        grid=build_grid(5, 5, 10.0),
        motion=MotionModel(gamma=0.0),
        meas=MeasurementModel(sigma_s2=0.01),
        initial_states=still,
    )
    traj = simulate(scen, 4000, 11)
    alpha = np.stack(
        [
            expected_signal(traj.states[t + 1, :, :2], scen.grid, scen.meas)
            for t in range(traj.n_steps)
        ]
    )
    resid = traj.frames - alpha
    assert abs(resid.var() / 0.01 - 1.0) < 0.05


def test_inside_default_keeps_positions_in_grid():
    scen = benchmark_scenario()
    assert scen.bounds == "inside"
    traj = simulate(scen, 40, 5)
    pos = traj.states[:, :, :2]
    assert pos.min() >= 0.0
    assert pos.max() <= 40.0


def test_inside_truth_invariant_to_measurement_noise():
    lo = benchmark_scenario(sigma_s2=0.0001)
    hi = benchmark_scenario(sigma_s2=1.0)
    a = simulate(lo, 20, 17)
    b = simulate(hi, 20, 17)
    np.testing.assert_array_equal(a.states, b.states)


def test_inside_zero_gamma_passthrough():
    scen = benchmark_scenario(gamma=0.0)
    traj = simulate(scen, 10, 1)
    np.testing.assert_allclose(
        traj.states[-1, :, :2],
        DEFAULT_TARGETS[:, :2] + 10 * DEFAULT_TARGETS[:, 2:],
    )


def test_inside_zero_gamma_escaping_truth_raises():
    scen = Scenario(
        grid=build_grid(5, 5, 10.0),
        motion=MotionModel(gamma=0.0),
        meas=MeasurementModel(),
        initial_states=np.array([[39.0, 20.0, 2.0, 0.0]]),
    )
    with pytest.raises(SimulationError):
        simulate(scen, 10, 0)


def stacked_inside_sampler(scenario, n_steps, rng):
    """Reference for bounds="inside": every candidate of a batch propagated
    through every step with stacked (B, C, 4) products, first survivor kept.
    Returns the trajectory and the number of batches drawn."""
    x0 = scenario.initial_states
    hi = np.asarray(scenario.grid.extent)
    c = x0.shape[0]
    L = np.linalg.cholesky(scenario.motion.V)
    for batch in range(1, model._INSIDE_MAX_BATCHES + 1):
        z = rng.standard_normal((model._INSIDE_BATCH, n_steps, c, 4))
        states = np.empty((model._INSIDE_BATCH, n_steps + 1, c, 4))
        states[:, 0] = x0
        ok = np.ones(model._INSIDE_BATCH, dtype=bool)
        for t in range(n_steps):
            states[:, t + 1] = states[:, t] @ F_SINGLE.T + z[:, t] @ L.T
            pos = states[:, t + 1, :, :2]
            ok &= ((pos >= 0.0) & (pos <= hi)).all(axis=(1, 2))
        hit = np.flatnonzero(ok)
        if hit.size:
            path = states[hit[0]].copy()
            return model._attach_frames(path, scenario.grid, scenario.meas, rng), batch
    raise SimulationError("reference sampler exhausted")


@pytest.mark.parametrize("n_steps", [1, 10, 40])
@pytest.mark.parametrize(
    "n_targets, gammas", [(1, (0.05, 2.0)), (4, (0.05, 0.1))]
)
def test_inside_sampler_matches_stacked_reference(n_targets, gammas, n_steps):
    # the screened sampler consumes the same draws and keeps the same path
    # as propagating every candidate; the larger gamma needs many batches
    most_batches = 0
    for gamma in gammas:
        scen = Scenario(
            grid=build_grid(5, 5, 10.0),
            motion=MotionModel(gamma=gamma),
            meas=MeasurementModel(sigma_s2=0.1),
            initial_states=DEFAULT_TARGETS[:n_targets],
        )
        for seed in range(4):
            got = simulate(scen, n_steps, seed)
            want, batches = stacked_inside_sampler(
                scen, n_steps, np.random.default_rng(seed)
            )
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.frames, want.frames)
            most_batches = max(most_batches, batches)
    if n_steps == 40:
        assert most_batches >= 5


def test_inside_screen_keeps_a_path_on_the_grid_edge():
    # candidate 0 leaves through x = 40; candidate 1 rides the edge exactly,
    # which the exact bounds accept, so the screen must not drop it
    x0 = np.array([[40.0, 20.0, 0.0, 0.0]])
    L = np.linalg.cholesky(MotionModel(gamma=0.05).V)
    z = np.zeros((3, 5, 1, 4))
    z[0, 2, 0, 0] = 3.0
    path = model._first_inside_path(x0, z, L, np.array([40.0, 40.0]))
    np.testing.assert_array_equal(path, np.broadcast_to(x0, (6, 1, 4)))


def test_inside_noisy_truth_without_in_region_path_raises():
    # every candidate leaves the grid at the first step, so each of the
    # batches stops there and the sampler gives up after the last one
    scen = Scenario(
        grid=build_grid(5, 5, 10.0),
        motion=MotionModel(gamma=0.05),
        meas=MeasurementModel(),
        initial_states=np.array([[40.0, 40.0, 5.0, 5.0]]),
    )
    with pytest.raises(SimulationError, match="no in-region trajectory"):
        simulate(scen, 3, 0)


def test_inside_rejects_out_of_grid_launch():
    with pytest.raises(ConfigurationError):
        Scenario(
            grid=build_grid(5, 5, 10.0),
            motion=MotionModel(),
            meas=MeasurementModel(),
            initial_states=np.array([[50.0, 20.0, 0.0, 0.0]]),
        )


def test_reflect_bounces_off_walls():
    scen = Scenario(
        grid=build_grid(5, 5, 10.0),
        motion=MotionModel(gamma=0.0),
        meas=MeasurementModel(sigma_s2=0.0),
        initial_states=np.array([[39.0, 20.0, 2.0, 0.0]]),
        bounds="reflect",
    )
    traj = simulate(scen, 3, 0)
    np.testing.assert_allclose(
        traj.states[:, 0, 0], [39.0, 39.0, 37.0, 35.0]
    )
    np.testing.assert_allclose(traj.states[1:, 0, 2], [-2.0, -2.0, -2.0])


def test_bounds_none_is_free_motion():
    scen = Scenario(
        grid=build_grid(5, 5, 10.0),
        motion=MotionModel(gamma=0.0),
        meas=MeasurementModel(sigma_s2=0.0),
        initial_states=np.array([[39.0, 20.0, 2.0, 0.0]]),
        bounds="none",
    )
    traj = simulate(scen, 3, 0)
    np.testing.assert_allclose(traj.states[:, 0, 0], [39.0, 41.0, 43.0, 45.0])


def test_unknown_bounds_policy_rejected():
    with pytest.raises(ConfigurationError):
        Scenario(
            grid=build_grid(5, 5, 10.0),
            motion=MotionModel(),
            meas=MeasurementModel(),
            initial_states=DEFAULT_TARGETS.copy(),
            bounds="wrap",
        )


def test_stack_unstack_roundtrip(rng):
    states = rng.standard_normal((4, 4))
    flat = stack_state(states)
    np.testing.assert_array_equal(flat[:8], states[:, :2].ravel())
    c = states.shape[0]
    rows = np.concatenate(
        [flat[: 2 * c].reshape(c, 2), flat[2 * c :].reshape(c, 2)], axis=1
    )
    np.testing.assert_array_equal(rows, states)


def test_csv_writers_roundtrip(tmp_path):
    scen = benchmark_scenario()
    traj = simulate(scen, 3, 21)
    truth_path = tmp_path / "truth.csv"
    frames_path = tmp_path / "frames.csv"
    write_truth_csv(traj, truth_path)
    write_frames_csv(traj, frames_path)

    rows = truth_path.read_text().strip().split("\n")
    assert rows[0] == "t,c,x,y,vx,vy"
    assert len(rows) == 1 + 4 * traj.states.shape[0]
    t, c, x, y, vx, vy = rows[1].split(",")
    np.testing.assert_allclose(
        [float(x), float(y), float(vx), float(vy)], traj.states[0, 0]
    )

    rows = frames_path.read_text().strip().split("\n")
    assert rows[0] == "t,s,a"
    assert len(rows) == 1 + 3 * 25
    assert float(rows[1].split(",")[2]) == traj.frames[0, 0]
