"""Tracking error metric, per-track records, and the particle filter baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError
from .model import (
    F_SINGLE,
    Scenario,
    Trajectory,
    expected_signal,
)
from .nll import FilterNoiseModel


@dataclass(frozen=True)
class OmatResult:
    """Optimal mass transfer distance between two equal-size point sets."""

    value: float
    assignment: np.ndarray  # assignment[i] = truth index matched to estimate i


def omat(estimates: np.ndarray, truths: np.ndarray, order: float = 1.0) -> OmatResult:
    """OMAT metric of the given order (default 1: mean matched distance)."""
    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    tru = np.asarray(truths, dtype=float).reshape(-1, 2)
    if est.shape != tru.shape:
        raise ConfigurationError(
            f"cardinality mismatch: {est.shape[0]} estimates vs {tru.shape[0]} truths"
        )
    dist = np.linalg.norm(est[:, None, :] - tru[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(dist**order)
    value = float((dist[rows, cols] ** order).mean() ** (1.0 / order))
    return OmatResult(value=value, assignment=cols)


@dataclass
class TrackRecord:
    """Per-step results of one filter run over one trajectory.

    ``covs`` holds the spatial covariance block (2C x 2C) per step; TT runs
    also fill ``statistic`` (the consistency statistic) and ``actions``.
    Wall-clock ``step_time`` is measured, so it is the one field that is not
    reproducible bit-for-bit.
    """

    label: str
    truth: np.ndarray  # (T, C, 2)
    estimates: np.ndarray  # (T, C, 2)
    velocities: np.ndarray  # (T, C, 2)
    covs: np.ndarray  # (T, 2C, 2C)
    omat: np.ndarray  # (T,)
    step_time: np.ndarray  # (T,)
    statistic: np.ndarray  # (T,), NaN where not applicable
    consistent: np.ndarray  # (T,) bool
    actions: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return self.omat.shape[0]

    def summary(self) -> dict:
        return {
            "label": self.label,
            "steps": int(self.n_steps),
            "avg_omat": float(self.omat.mean()),
            "final_omat": float(self.omat[-1]),
            "time_per_step": float(self.step_time.mean()),
        }


@dataclass(frozen=True)
class BpfConfig:
    """Bootstrap particle filter configuration.

    Particles propagate through the constant-velocity model with the filter
    noise V' (same assumption the tracker makes) and are weighted by the
    Gaussian measurement likelihood.  Systematic resampling triggers when the
    effective sample size drops below ``resample_threshold * n_particles``.
    """

    n_particles: int = 100_000
    resample_threshold: float = 0.5
    noise: FilterNoiseModel = field(default_factory=FilterNoiseModel)
    sigma_s2: float | np.ndarray | None = None  # None: use the scenario's
    init_spatial_var: float = 100.0
    init_velocity_var: float = 5e-4

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigurationError("n_particles must be >= 1")
        if not 0.0 <= self.resample_threshold <= 1.0:
            raise ConfigurationError("resample_threshold must lie in [0, 1]")


def systematic_resample(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a systematic resample: one stratified pick per particle."""
    n = weights.size
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; tolerates the singular boundary where
    Cholesky does not (V' is singular at alpha = cross^2 / vel)."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(mat)
        return vecs * np.sqrt(np.maximum(vals, 0.0))


def bpf_track(
    trajectory: Trajectory,
    scenario: Scenario,
    config: BpfConfig,
    rng: np.random.Generator | np.random.SeedSequence | int,
) -> TrackRecord:
    """Run the bootstrap particle filter over one trajectory."""
    rng = np.random.default_rng(rng)
    grid, meas = scenario.grid, scenario.meas
    sig2 = meas.noise_variances(grid.count)
    if config.sigma_s2 is not None:
        sig2 = np.broadcast_to(np.asarray(config.sigma_s2, dtype=float), (grid.count,))
    if np.any(sig2 <= 0.0):
        raise ConfigurationError("particle weighting needs positive noise variances")
    n, c = config.n_particles, trajectory.n_targets
    t_steps = trajectory.n_steps

    # initial cloud: per-track mean drawn around the truth, then particle
    # scatter with the same diagonal covariance
    init_sd = np.sqrt(
        np.array([config.init_spatial_var] * 2 + [config.init_velocity_var] * 2)
    )
    mean0 = trajectory.states[0] + rng.standard_normal((c, 4)) * init_sd
    particles = mean0 + rng.standard_normal((n, c, 4)) * init_sd

    chol_vp = _psd_sqrt(config.noise.V_prime) if np.any(config.noise.V_prime) else None
    log_w = np.zeros(n)

    truth = trajectory.states[1:, :, :2].copy()
    estimates = np.empty((t_steps, c, 2))
    velocities = np.empty((t_steps, c, 2))
    covs = np.empty((t_steps, 2 * c, 2 * c))
    omat_vals = np.empty(t_steps)
    step_time = np.empty(t_steps)

    for t in range(t_steps):
        tic = time.perf_counter()
        particles = particles @ F_SINGLE.T
        if chol_vp is not None:
            particles += rng.standard_normal((n, c, 4)) @ chol_vp.T

        alpha = expected_signal(particles[:, :, :2], grid, meas)  # (N, S)
        resid = alpha - trajectory.frames[t]
        log_w += -0.5 * np.einsum("ns,ns->n", resid, resid / sig2)

        shift = log_w.max()
        if not np.isfinite(shift):
            # every particle underflowed; reset rather than divide by zero
            log_w[:] = 0.0
            shift = 0.0
        w = np.exp(log_w - shift)
        w /= w.sum()

        est = np.einsum("n,ncj->cj", w, particles)
        estimates[t] = est[:, :2]
        velocities[t] = est[:, 2:]
        flat = particles[:, :, :2].reshape(n, -1)
        diff = flat - est[:, :2].ravel()
        covs[t] = (w[:, None] * diff).T @ diff

        ess = 1.0 / float(w @ w)
        if ess < config.resample_threshold * n:
            idx = systematic_resample(w, rng)
            particles = particles[idx]
            log_w[:] = 0.0
        else:
            log_w -= shift  # keep the running log-weights bounded

        step_time[t] = time.perf_counter() - tic
        omat_vals[t] = omat(estimates[t], truth[t]).value

    return TrackRecord(
        label="bpf",
        truth=truth,
        estimates=estimates,
        velocities=velocities,
        covs=covs,
        omat=omat_vals,
        step_time=step_time,
        statistic=np.full(t_steps, np.nan),
        consistent=np.ones(t_steps, dtype=bool),
        actions=[() for _ in range(t_steps)],
    )
