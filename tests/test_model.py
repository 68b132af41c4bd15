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
    unstack_state,
    write_frames_csv,
    write_truth_csv,
)

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
    np.testing.assert_array_equal(unstack_state(flat), states)


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
