"""Scenario model: sensor grid geometry, target motion, amplitude measurements.

Conventions used throughout the package:

- Per-target states are rows ``[x, y, vx, vy]`` of a ``(C, 4)`` float array,
  in meters and meters per (unit) time step.
- Stacked vectors put all positions first, then all velocities:
  ``[x_1, y_1, ..., x_C, y_C, vx_1, vy_1, ..., vx_C, vy_C]``.  Target ``c``
  owns spatial coordinates ``2c`` and ``2c + 1``.
- A measurement frame is a length-``S`` vector of received amplitudes, one
  entry per sensor, ordered like ``SensorGrid.positions``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, SimulationError

# Target-sensor distances are clamped from below so the signal model and all
# of its derivatives stay finite when an estimate lands exactly on a sensor.
R_MIN = 1e-6

# Constant-velocity transition for a single target, unit time step.
F_SINGLE = np.array(
    [[1.0, 0.0, 1.0, 0.0],
     [0.0, 1.0, 0.0, 1.0],
     [0.0, 0.0, 1.0, 0.0],
     [0.0, 0.0, 0.0, 1.0]]
)

# Shape of the integrated white-acceleration process noise for one target;
# the motion model scales it by gamma.
PROCESS_SHAPE = np.array(
    [[1.0 / 3.0, 0.0, 0.5, 0.0],
     [0.0, 1.0 / 3.0, 0.0, 0.5],
     [0.5, 0.0, 1.0, 0.0],
     [0.0, 0.5, 0.0, 1.0]]
)

# Default 4-target launch states for the benchmark scenario (positions well
# inside a 40 m x 40 m grid, near-zero velocities).
DEFAULT_TARGETS = np.array(
    [[12.0, 6.0, 0.001, 0.001],
     [32.0, 32.0, -0.001, -0.005],
     [20.0, 13.0, -0.1, 0.01],
     [15.0, 35.0, 0.002, 0.002]]
)


@dataclass(frozen=True)
class SensorGrid:
    """Rectangular grid of sensors, row-major from the origin.

    Sensor ``s`` sits at ``positions[s] = (col * spacing, row * spacing)``
    with ``s = row * cols + col``.
    """

    positions: np.ndarray  # (S, 2)
    rows: int
    cols: int
    spacing: float

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def positions_t(self) -> np.ndarray:
        """The sensor coordinates as a contiguous (2, S) array, the layout
        ``_pair_distances`` reads (``.take(indices, axis=1)`` keeps it)."""
        return np.ascontiguousarray(self.positions.T)

    @property
    def extent(self) -> tuple[float, float]:
        """(width, height) of the sensed region in meters."""
        return (self.cols - 1) * self.spacing, (self.rows - 1) * self.spacing

    @property
    def center(self) -> np.ndarray:
        """Geometric center of the grid."""
        w, h = self.extent
        return np.array([w / 2.0, h / 2.0])

    def boundary_indices(self) -> np.ndarray:
        """Indices of sensors on the outer rectangle, ascending."""
        r, c = np.divmod(np.arange(self.count), self.cols)
        edge = (r == 0) | (r == self.rows - 1) | (c == 0) | (c == self.cols - 1)
        return np.flatnonzero(edge)

    def squares(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid cells bounded by four sensors.

        Returns ``(corners, centers)`` where ``corners`` is an
        ``(n_squares, 4)`` int array of sensor indices and ``centers`` an
        ``(n_squares, 2)`` array of cell midpoints.  Cell ``(r, c)`` (lower-left
        corner at sensor row r, col c) gets index ``r * (cols - 1) + c``.
        """
        rr, cc = np.meshgrid(
            np.arange(self.rows - 1), np.arange(self.cols - 1), indexing="ij"
        )
        rr = rr.ravel()
        cc = cc.ravel()
        base = rr * self.cols + cc
        corners = np.stack(
            [base, base + 1, base + self.cols, base + self.cols + 1], axis=1
        )
        centers = np.stack(
            [(cc + 0.5) * self.spacing, (rr + 0.5) * self.spacing], axis=1
        )
        return corners, centers


def build_grid(rows: int, cols: int, spacing: float) -> SensorGrid:
    """Build a rows x cols sensor grid with the given spacing in meters."""
    if rows < 2 or cols < 2:
        raise ConfigurationError(f"grid needs at least 2x2 sensors, got {rows}x{cols}")
    if not spacing > 0.0:
        raise ConfigurationError(f"grid spacing must be positive, got {spacing}")
    r, c = np.divmod(np.arange(rows * cols), cols)
    positions = np.stack([c * spacing, r * spacing], axis=1).astype(float)
    return SensorGrid(positions=positions, rows=rows, cols=cols, spacing=spacing)


@dataclass(frozen=True)
class MeasurementModel:
    """Isotropic amplitude-decay measurement model.

    A target at distance ``rho`` from a sensor contributes
    ``amplitude / (rho**exponent + offset)`` to that sensor's reading;
    contributions add across targets and the sensor reports the sum plus
    zero-mean Gaussian noise with variance ``sigma_s2``.

    ``sigma_s2`` may be a scalar (shared by all sensors) or a length-S vector.
    """

    amplitude: float = 10.0
    offset: float = 0.1
    exponent: float = 1.0
    sigma_s2: float | np.ndarray = 0.01

    def __post_init__(self):
        if not self.amplitude > 0.0:
            raise ConfigurationError("amplitude must be positive")
        if not self.offset > 0.0:
            raise ConfigurationError("offset must be positive")
        if not self.exponent > 0.0:
            raise ConfigurationError("exponent must be positive")
        # zero variance is allowed (noise-free simulation); likelihoods that
        # would divide by it raise at the point of use
        if np.any(np.asarray(self.sigma_s2) < 0.0):
            raise ConfigurationError("sigma_s2 must be non-negative")

    def noise_variances(self, count: int) -> np.ndarray:
        """Per-sensor noise variance vector of length ``count``."""
        sig = np.asarray(self.sigma_s2, dtype=float)
        if sig.ndim == 0:
            return np.full(count, float(sig))
        if sig.shape != (count,):
            raise ConfigurationError(
                f"sigma_s2 vector has length {sig.shape}, expected ({count},)"
            )
        return sig


@dataclass(frozen=True)
class MotionModel:
    """Near-constant-velocity truth dynamics with noise scale ``gamma``."""

    gamma: float = 0.05

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ConfigurationError("gamma must be non-negative")

    @property
    def V(self) -> np.ndarray:
        """Per-target process noise covariance, 4x4."""
        return self.gamma * PROCESS_SHAPE


def _clamped_power(rho: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return rho
    if p == 2.0:
        return rho * rho
    return rho**p


def _clamped_distance(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Distance for offsets ``(dx, dy)``, clamped from below at ``R_MIN``."""
    return np.maximum(np.sqrt(dx * dx + dy * dy), R_MIN)


def _distance_terms(rho: np.ndarray, meas: MeasurementModel):
    """``(rho_p, D, f)`` for clamped distances: ``rho_p = rho**p``,
    ``D = rho_p + d0`` and the signal ``f = A / D``."""
    rho_p = _clamped_power(rho, meas.exponent)
    D = rho_p + meas.offset
    return rho_p, D, meas.amplitude / D


def _pair_distances(
    positions: np.ndarray, sensors_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Target-sensor offsets ``r`` (C, 2, S) and distances ``rho`` (C, S)
    clamped at ``R_MIN``, for positions (C, 2) and the sensor coordinates
    ``sensors_t`` (2, S), ``SensorGrid.positions_t`` or some of its columns.

    This is the one distance kernel: the likelihood and its derivatives
    (``nll``), the recovery's sensor order and signal split
    (``consistency``) and the Hessian repair's pair choice (``hessfix``)
    all read it.  With the coordinate axis ahead of the sensor axis, the
    (C, 2, S) offsets reshape to the (2C, S) layout of the stacked vector
    without a copy.
    """
    r = positions[:, :, None] - sensors_t
    return r, _clamped_distance(r[:, 0], r[:, 1])


def signal_components(
    positions: np.ndarray, grid: SensorGrid, meas: MeasurementModel
) -> np.ndarray:
    """Per-target, per-sensor contributions ``f[c, s]`` for one target set."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    return _distance_terms(_pair_distances(pos, grid.positions_t)[1], meas)[-1]


def expected_signal(
    positions: np.ndarray, grid: SensorGrid, meas: MeasurementModel
) -> np.ndarray:
    """Noise-free sensor readings for target sets of shape (..., C, 2).

    The result has shape (..., S).  A stacked (2C,) vector is read as one
    (C, 2) target set.  The targets are added one at a time on (..., S)
    arrays, so a particle cloud of N target sets never holds more than a
    few (N, S) temporaries.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos.reshape(-1, 2)
    sx, sy = grid.positions[:, 0], grid.positions[:, 1]
    total = np.zeros(pos.shape[:-2] + sx.shape)
    for c in range(pos.shape[-2]):
        rho = _clamped_distance(pos[..., c, 0, None] - sx, pos[..., c, 1, None] - sy)
        total += _distance_terms(rho, meas)[-1]
    return total


def propagate_truth(
    states: np.ndarray, motion: MotionModel, rng: np.random.Generator
) -> np.ndarray:
    """One noisy constant-velocity step for every target, independently."""
    states = np.asarray(states, dtype=float)
    z = rng.standard_normal(states.shape)
    if motion.gamma == 0.0:
        return states @ F_SINGLE.T
    L = np.linalg.cholesky(motion.V)
    return states @ F_SINGLE.T + z @ L.T


def _reflect_into(states: np.ndarray, width: float, height: float) -> np.ndarray:
    """Fold positions into [0, width] x [0, height], flipping velocities once
    per boundary crossing (mirror reflection)."""
    out = states.copy()
    for axis, span in ((0, width), (1, height)):
        period = 2.0 * span
        y = np.mod(out[:, axis], period)
        # landing in the upper half-period means an odd number of wall hits
        hit = y > span
        y[hit] = period - y[hit]
        out[:, axis] = y
        out[hit, axis + 2] = -out[hit, axis + 2]
    return out


@dataclass(frozen=True)
class Scenario:
    """Everything needed to generate benchmark tracks.

    ``bounds`` picks how truth interacts with the grid extent:

    * ``"inside"``: rejection-sample whole trajectories until every position
      stays within the grid at every step.  Targets never leave the observed
      region, and the motion stays exactly constant-velocity.
    * ``"reflect"``: mirror positions at the grid edges, flipping the
      velocity component on each bounce.  Cheap, but bounces break the
      constant-velocity assumption the filter propagates with.
    * ``"none"``: free motion; targets may drift out of the grid entirely.
    """

    grid: SensorGrid
    motion: MotionModel
    meas: MeasurementModel
    initial_states: np.ndarray  # (C, 4)
    bounds: str = "inside"

    def __post_init__(self):
        init = np.asarray(self.initial_states, dtype=float)
        if init.ndim != 2 or init.shape[1] != 4 or init.shape[0] < 1:
            raise ConfigurationError(
                f"initial_states must be (C, 4) with C >= 1, got {init.shape}"
            )
        if self.bounds not in ("inside", "reflect", "none"):
            raise ConfigurationError(f"unknown bounds policy {self.bounds!r}")
        if self.bounds == "inside":
            width, height = self.grid.extent
            pos = init[:, :2]
            if (pos < 0.0).any() or (pos[:, 0] > width).any() or (pos[:, 1] > height).any():
                raise ConfigurationError(
                    "bounds='inside' needs initial positions within the grid"
                )
        object.__setattr__(self, "initial_states", init)

    @property
    def n_targets(self) -> int:
        return self.initial_states.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Simulated truth and measurements.

    ``states`` holds ``T + 1`` rows: row 0 is the launch state, rows 1..T are
    the propagated steps.  ``frames[t - 1]`` is measured at ``states[t]``.
    """

    states: np.ndarray  # (T + 1, C, 4)
    frames: np.ndarray  # (T, S)

    @property
    def n_steps(self) -> int:
        return self.frames.shape[0]

    @property
    def n_targets(self) -> int:
        return self.states.shape[1]


# Rejection sampling for bounds="inside" draws the noise of candidate paths in
# fixed-size batches.  The draws are the reproducibility contract: each batch
# is drawn whole, in candidate order, so a given seed consumes the generator
# identically no matter how far its candidates are propagated.
_INSIDE_BATCH = 256
_INSIDE_MAX_BATCHES = 4000
# Relative margin (times the larger grid extent) by which the batched screen
# widens the grid.  Stacked and flat matrix products may differ in the last
# bits, so the screen keeps near-boundary candidates and the exact per-path
# replay decides.
_INSIDE_SLACK = 1e-9


def _attach_frames(
    states: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    rng: np.random.Generator,
) -> Trajectory:
    """Draw all measurement frames for an already-final truth path."""
    sig = np.sqrt(meas.noise_variances(grid.count))
    alpha = expected_signal(states[1:, :, :2], grid, meas)
    frames = alpha + sig * rng.standard_normal(alpha.shape)
    return Trajectory(states=states, frames=frames)


def _first_inside_path(
    x0: np.ndarray, z: np.ndarray, L: np.ndarray, hi: np.ndarray
) -> np.ndarray | None:
    """The lowest-index candidate path in ``[0, hi]`` at every step, or None.

    ``z`` holds one batch of standard-normal draws, ``(B, T, C, 4)``, and
    candidate ``b`` moves as ``s' = s F^T + z[b, t] L^T``.  Each step moves
    only the candidates still inside, all targets at once in flat
    ``(M C, 4)`` products, and the batch stops at the first step with none
    left.  The survivors are then replayed one path at a time, lowest index
    first, with the same per-path ``(C, 4)`` products that a stacked
    ``(B, C, 4)`` propagation evaluates, and the first one inside the exact
    bounds is returned.
    """
    n_cand, n_steps, c, _ = z.shape
    slack = _INSIDE_SLACK * hi.max()
    lo_screen, hi_screen = -slack, hi + slack
    alive = np.arange(n_cand)
    cur = np.tile(x0, (n_cand, 1))  # (M C, 4), candidate-major
    for t in range(n_steps):
        cur = cur @ F_SINGLE.T + z[alive, t].reshape(-1, 4) @ L.T
        pos = cur[:, :2].reshape(-1, c, 2)
        keep = ((pos >= lo_screen) & (pos <= hi_screen)).all(axis=(1, 2))
        alive = alive[keep]
        if not alive.size:
            return None
        cur = cur.reshape(-1, c, 4)[keep].reshape(-1, 4)

    for b in alive:
        path = np.empty((n_steps + 1, c, 4))
        path[0] = x0
        for t in range(n_steps):
            path[t + 1] = path[t] @ F_SINGLE.T + z[b, t] @ L.T
        pos = path[1:, :, :2]
        if ((pos >= 0.0) & (pos <= hi)).all():
            return path
    return None


def _simulate_inside(
    scenario: Scenario, n_steps: int, rng: np.random.Generator
) -> Trajectory:
    """Sample a truth path whose positions never leave the grid.

    Candidate paths are drawn in batches of ``_INSIDE_BATCH`` and the first
    fully in-region one, in draw order, is kept, so the accepted path is an
    exact constant-velocity trajectory conditioned on staying observed.
    What a seed fixes is the draws: every batch is drawn whole with one
    ``standard_normal((_INSIDE_BATCH, n_steps, C, 4))`` call, however early
    its candidates leave, and the accepted path is the one those draws give
    under per-path propagation.  How the candidates are propagated and
    screened (``_first_inside_path``) is free to change.  Measurement noise
    is drawn only after acceptance: sweeping sigma_s2 at a fixed seed reuses
    the same truth.
    """
    grid, motion, meas = scenario.grid, scenario.motion, scenario.meas
    hi = np.asarray(grid.extent)
    x0 = scenario.initial_states
    c = x0.shape[0]

    if motion.gamma == 0.0:
        states = np.empty((n_steps + 1, c, 4))
        states[0] = x0
        for t in range(n_steps):
            states[t + 1] = states[t] @ F_SINGLE.T
        pos = states[1:, :, :2]
        if (pos < 0.0).any() or (pos > hi).any():
            raise SimulationError(
                "noise-free trajectory leaves the grid; bounds='inside' "
                "has nothing to resample at gamma = 0"
            )
        return _attach_frames(states, grid, meas, rng)

    L = np.linalg.cholesky(motion.V)
    for _ in range(_INSIDE_MAX_BATCHES):
        z = rng.standard_normal((_INSIDE_BATCH, n_steps, c, 4))
        path = _first_inside_path(x0, z, L, hi)
        if path is not None:
            return _attach_frames(path, grid, meas, rng)
    raise SimulationError(
        f"no in-region trajectory in {_INSIDE_BATCH * _INSIDE_MAX_BATCHES} "
        "draws; lower gamma, shorten the track, or pick another bounds policy"
    )


def simulate(
    scenario: Scenario,
    n_steps: int,
    rng: np.random.Generator | np.random.SeedSequence | int,
) -> Trajectory:
    """Generate one truth trajectory with per-step measurement frames.

    Bit-reproducible for a fixed seed.  Under "reflect" and "none" the
    standard-normal draws do not depend on gamma or sigma_s2, so sweeping
    either noise scale reuses the same underlying randomness.  Under
    "inside" the accepted path depends on gamma (it conditions on staying
    in-region), but the truth is still invariant to sigma_s2.
    """
    rng = np.random.default_rng(rng)
    if scenario.bounds == "inside":
        return _simulate_inside(scenario, n_steps, rng)

    grid, motion, meas = scenario.grid, scenario.motion, scenario.meas
    width, height = grid.extent
    sig = np.sqrt(meas.noise_variances(grid.count))

    states = np.empty((n_steps + 1,) + scenario.initial_states.shape)
    frames = np.empty((n_steps, grid.count))
    states[0] = scenario.initial_states
    for t in range(1, n_steps + 1):
        nxt = propagate_truth(states[t - 1], motion, rng)
        if scenario.bounds == "reflect":
            nxt = _reflect_into(nxt, width, height)
        states[t] = nxt
        alpha = expected_signal(nxt[:, :2], grid, meas)
        frames[t - 1] = alpha + sig * rng.standard_normal(grid.count)
    return Trajectory(states=states, frames=frames)


def stack_state(states: np.ndarray) -> np.ndarray:
    """(C, 4) per-target rows -> stacked (4C,) positions-then-velocities."""
    states = np.asarray(states, dtype=float)
    return np.concatenate([states[:, :2].ravel(), states[:, 2:].ravel()])


def write_truth_csv(trajectory: Trajectory, path) -> None:
    """Write truth states as rows ``t, c, x, y, vx, vy`` (t = 0..T)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "c", "x", "y", "vx", "vy"])
        for t, frame in enumerate(trajectory.states):
            for c, row in enumerate(frame):
                w.writerow([t, c, *(repr(float(v)) for v in row)])


def write_frames_csv(trajectory: Trajectory, path) -> None:
    """Write measurement frames as rows ``t, s, a`` (t = 1..T)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "s", "a"])
        for t, frame in enumerate(trajectory.frames, start=1):
            for s, a in enumerate(frame):
                w.writerow([t, s, repr(float(a))])
