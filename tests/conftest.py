"""Shared fixtures and finite-difference helpers."""

from __future__ import annotations

import numpy as np
import pytest

from ttfilter.model import MeasurementModel, MotionModel, Scenario, build_grid


@pytest.fixture(scope="session")
def grid55():
    return build_grid(5, 5, 10.0)


@pytest.fixture(scope="session")
def meas_default():
    return MeasurementModel()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def benchmark_scenario(sigma_s2: float = 0.01, gamma: float = 0.05) -> Scenario:
    from ttfilter.model import DEFAULT_TARGETS

    return Scenario(
        grid=build_grid(5, 5, 10.0),
        motion=MotionModel(gamma=gamma),
        meas=MeasurementModel(sigma_s2=sigma_s2),
        initial_states=DEFAULT_TARGETS.copy(),
    )


def corner_scenario(sigma_s2: float) -> Scenario:
    """Free motion (``bounds="none"``) from a start with target 0 at the
    grid's corner, heading off it: the main fit can end with a target on the
    search box's bound, or beside a sensor with an indefinite Hessian."""
    return Scenario(
        grid=build_grid(5, 5, 10.0),
        motion=MotionModel(gamma=0.05),
        meas=MeasurementModel(sigma_s2=sigma_s2),
        initial_states=np.array(
            [[1.0, 1.0, -0.3, -0.2], [32.0, 32.0, 0.3, 0.2],
             [20.0, 13.0, -0.1, 0.01], [15.0, 35.0, 0.002, 0.3]]
        ),
        bounds="none",
    )


def fd_gradient(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def fd_hessian_from_grad(grad_fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of an analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        e = np.zeros_like(x)
        e[i] = h
        out[:, i] = (grad_fun(x + e) - grad_fun(x - e)) / (2.0 * h)
    return 0.5 * (out + out.T)


def random_spd(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))
