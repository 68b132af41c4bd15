"""Tracking error metric, per-track records, and the particle filter baseline.

The particle filter makes the assumptions of the TT filter it is compared
with, and reads them from that filter's ``tracker.FilterContext``: the
assumed measurement model (with any ``sigma_s2`` override), the process
noise V' and the initial variances.  ``BpfConfig`` holds only what is the
particle filter's own: the particle count and the resampling threshold.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError
from .model import F_SINGLE, MeasurementModel, SensorGrid, Trajectory, expected_signal

if TYPE_CHECKING:  # tracker imports this module
    from .tracker import FilterContext

# Target sets per block of the particle filter's likelihood: 2048 x 25
# sensors keeps each (B, S) temporary at 400 kB.  At 10^5 particles this
# cut the weighting from about 55 to 34 ms a step against one whole-cloud
# pass (one core).
PARTICLE_BLOCK = 2048


@dataclass(frozen=True)
class OmatResult:
    """Optimal mass transfer distance between two equal-size point sets."""

    value: float
    assignment: np.ndarray  # assignment[i] = truth index matched to estimate i


def _linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching of a square cost matrix, O(C^3).

    The shortest-augmenting-path method of Crouse (2016), step for step as
    ``scipy.optimize.linear_sum_assignment`` runs it on a square matrix: the
    same dual updates, the same order of columns and the same tie-breaks,
    so it returns the same assignment, also when several are optimal.  It
    spares the package the import of ``scipy.optimize``.  Returns
    ``(rows, cols)`` with ``rows = arange(C)``; a NaN or -inf cost raises
    ``ValueError``, and so does a row that cannot be matched at finite cost.
    """
    n = cost.shape[0]
    c = cost.tolist()
    for row in c:
        for x in row:
            if x != x or x == -math.inf:
                raise ValueError("matrix contains invalid numeric entries")
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # shortest augmenting path from row ``cur`` to an unmatched column;
        # columns are scanned from the last, as scipy does
        remaining = list(range(n - 1, -1, -1))
        shortest = [math.inf] * n
        seen_rows, seen_cols = [], []  # each row and column is reached once
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            seen_rows.append(i)
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it in range(len(remaining)):
                j = remaining[it]
                r = min_val + ci[j] - ui - v[j]
                sj = shortest[j]
                if r < sj:
                    path[j] = i
                    shortest[j] = sj = r
                # among equal costs, prefer a column that ends the path
                if sj < lowest or (sj == lowest and row4col[j] == -1):
                    lowest, index = sj, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(n), np.array(col4row, dtype=np.intp)


def omat(estimates: np.ndarray, truths: np.ndarray, order: float = 1.0) -> OmatResult:
    """OMAT metric of the given order (default 1: mean matched distance)."""
    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    tru = np.asarray(truths, dtype=float).reshape(-1, 2)
    if est.shape != tru.shape:
        raise ConfigurationError(
            f"cardinality mismatch: {est.shape[0]} estimates vs {tru.shape[0]} truths"
        )
    dist = np.linalg.norm(est[:, None, :] - tru[None, :, :], axis=2)
    rows, cols = _linear_sum_assignment(dist**order)
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
    noise V' and are weighted by the Gaussian measurement likelihood, both
    read from the TT filter's context (see ``bpf_track``).  Systematic
    resampling triggers when the effective sample size drops below
    ``resample_threshold * n_particles``.
    """

    n_particles: int = 100_000
    resample_threshold: float = 0.5

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigurationError("n_particles must be >= 1")
        if not 0.0 <= self.resample_threshold <= 1.0:
            raise ConfigurationError("resample_threshold must lie in [0, 1]")


def systematic_resample(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a systematic resample: one stratified pick per particle.

    The cumulative weights can round to just below 1, which leaves the last
    positions past the end; those pick the last particle.
    """
    n = weights.size
    positions = (rng.random() + np.arange(n)) / n
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), n - 1)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; tolerates the singular boundary where
    Cholesky does not (V' is singular at alpha = cross^2 / vel)."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(mat)
        return vecs * np.sqrt(np.maximum(vals, 0.0))


def _misfit(
    positions: np.ndarray,
    frame: np.ndarray,
    grid: SensorGrid,
    meas: MeasurementModel,
    sig2: np.ndarray,
) -> np.ndarray:
    """sum_s (alpha_s - a_s)^2 / sigma_s^2 for each target set of (N, C, 2).

    The cloud is evaluated in blocks of ``PARTICLE_BLOCK`` target sets, so
    each block's (B, S) temporaries stay in the L2 cache instead of
    streaming several (N, S) arrays through memory; each row is computed
    by the same operations as in one whole-cloud pass, so the result is
    the same to the last bit.
    """
    out = np.empty(positions.shape[0])
    for lo in range(0, positions.shape[0], PARTICLE_BLOCK):
        resid = expected_signal(positions[lo : lo + PARTICLE_BLOCK], grid, meas) - frame
        out[lo : lo + PARTICLE_BLOCK] = np.einsum("ns,ns->n", resid, resid / sig2)
    return out


def bpf_track(
    trajectory: Trajectory,
    ctx: FilterContext,
    config: BpfConfig,
    rng: np.random.Generator | np.random.SeedSequence | int,
) -> TrackRecord:
    """Run the bootstrap particle filter over one trajectory.

    ``ctx`` is the context of the TT filter this run is compared with: its
    assumed measurement model ``ctx.meas``, process noise ``ctx.noise`` and
    initial variances ``ctx.config.init_*`` are the particle filter's too.
    """
    rng = np.random.default_rng(rng)
    grid, meas = ctx.scenario.grid, ctx.meas
    sig2 = meas.noise_variances(grid.count)  # positive: make_context checks it
    n, c = config.n_particles, trajectory.n_targets
    t_steps = trajectory.n_steps

    # initial cloud: per-track mean drawn around the truth, then particle
    # scatter with the same diagonal covariance
    var0 = [ctx.config.init_spatial_var] * 2 + [ctx.config.init_velocity_var] * 2
    init_sd = np.sqrt(np.array(var0))
    mean0 = trajectory.states[0] + rng.standard_normal((c, 4)) * init_sd
    particles = mean0 + rng.standard_normal((n, c, 4)) * init_sd

    v_prime = ctx.noise.V_prime
    chol_vp = _psd_sqrt(v_prime) if np.any(v_prime) else None
    log_w = np.zeros(n)

    truth = trajectory.states[1:, :, :2].copy()
    estimates = np.empty((t_steps, c, 2))
    velocities = np.empty((t_steps, c, 2))
    covs = np.empty((t_steps, 2 * c, 2 * c))
    omat_vals = np.empty(t_steps)
    step_time = np.empty(t_steps)

    for t in range(t_steps):
        tic = time.perf_counter()
        # one flat (N C, 4) product per matrix; stacked (C, 4) ones cost 3-5x
        moved = particles.reshape(n * c, 4) @ F_SINGLE.T
        if chol_vp is not None:
            moved += rng.standard_normal((n * c, 4)) @ chol_vp.T
        particles = moved.reshape(n, c, 4)

        log_w += -0.5 * _misfit(particles[:, :, :2], trajectory.frames[t], grid, meas, sig2)

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
