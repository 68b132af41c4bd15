"""Shared fixtures, finite-difference helpers and the polar chart."""

from __future__ import annotations

import math

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


@pytest.fixture(scope="session")
def indefinite_interior_step():
    """The first main fit of a fixed scan that converges with no bound active
    at a point where the exact Hessian has a negative eigenvalue, and the
    output of its step: ``(StepOutput, main fit)``.

    Such a fit ends beside a sensor: the Newton decrement stops on the chart
    system, which is positive definite there although the Cartesian Hessian
    is not.  The scan runs ``tracker.step`` over the first four frames
    of ``corner_scenario`` tracks simulated from ``SeedSequence([3, i, 0])``
    and filtered with ``[3, i, 1]``, for i = 0, 1, ... and, per track,
    sigma^2 = 0.01 then 0.001.  It finds a case wherever the arithmetic
    moves it, so no test pins one track.
    """
    from ttfilter import tracker
    from ttfilter.model import simulate

    fits = []

    def spy(*args, **kwargs):
        fits.append(tracker_minimize(*args, **kwargs))
        return fits[-1]

    tracker_minimize = tracker.minimize
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tracker, "minimize", spy)
        for i in range(40):
            for sigma_s2 in (0.01, 0.001):
                scn = corner_scenario(sigma_s2)
                ctx = tracker.make_context(scn, tracker.FilterConfig())
                traj = simulate(scn, 4, np.random.SeedSequence([3, i, 0]))
                belief = tracker.init_belief(
                    "random_around_truth", ctx.config, scn.grid,
                    np.random.default_rng(np.random.SeedSequence([3, i, 1])),
                    truth_state=traj.states[0],
                )
                for frame in traj.frames:
                    fits.clear()
                    out = tracker.step(belief, frame, ctx)
                    fit = fits[0]
                    if (
                        fit.converged and fit.active_set.size == 0
                        and np.linalg.eigvalsh(fit.report.hess).min() < 0.0
                    ):
                        return out, fit
                    belief = out.posterior
    raise AssertionError("no indefinite interior main fit in the scan")


def polar_transform(
    point: np.ndarray, sensor: np.ndarray, bearing: float = 0.0
) -> np.ndarray:
    """Map plane points (..., 2) to (range, arc length) about a sensor: the
    chart that ``quadrature.inverse_polar`` inverts, as the tests' oracle.

    The angle is measured from ``bearing`` and lies in [-pi, pi], so the
    chart is smooth everywhere but across the ray opposite ``bearing``.
    """
    rel = np.asarray(point, dtype=float) - np.asarray(sensor, dtype=float)
    cos_b, sin_b = math.cos(bearing), math.sin(bearing)
    along = rel[..., 0] * cos_b + rel[..., 1] * sin_b
    across = rel[..., 1] * cos_b - rel[..., 0] * sin_b
    u = np.hypot(rel[..., 0], rel[..., 1])
    return np.stack([u, u * np.arctan2(across, along)], axis=-1)


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
