"""Correctness checks made apart from the program.

Each check recomputes a quantity from the benchmark's own statement of the
model (the README's scenario constants below) and compares it with what
the program recorded.  A check returns a list of problems; empty means it
passed.  Only numpy, itertools and mpmath are used here, never ttfilter,
so a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

# The README's scenario: 5x5 grid at 10 m, signal A / (rho^p + d0) with the
# distance clamped from below at R_MIN.
ROWS, COLS, SPACING = 5, 5, 10.0
AMPLITUDE, OFFSET, EXPONENT, R_MIN = 10.0, 0.1, 1.0, 1e-6
P_VALUE = 0.0013

GATE_RTOL = 1e-9
OMAT_RTOL = 1e-12


def sensor_positions() -> np.ndarray:
    """(S, 2) sensor positions, row-major: sensor r * COLS + c at (c, r) * SPACING."""
    r, c = np.divmod(np.arange(ROWS * COLS), COLS)
    return np.stack([c * SPACING, r * SPACING], axis=1).astype(float)


def noiseless_signal(positions: np.ndarray) -> np.ndarray:
    """Summed signal per sensor for targets at ``positions`` (..., C, 2)."""
    pos = np.asarray(positions, dtype=float)
    rel = pos[..., :, None, :] - sensor_positions()
    rho = np.maximum(np.sqrt((rel**2).sum(axis=-1)), R_MIN)
    return (AMPLITUDE / (rho**EXPONENT + OFFSET)).sum(axis=-2)


def gate_statistic(x: np.ndarray, frame: np.ndarray, sigma2: float) -> float:
    """Twice the measurement NLL: sum of squared residuals over the noise."""
    resid = noiseless_signal(np.asarray(x, dtype=float).reshape(-1, 2)) - frame
    return float((resid**2).sum() / sigma2)


def chi2_upper_quantile(dof: int, p_value: float) -> float:
    """x with P(chi2_dof > x) = p_value, from mpmath's regularized gamma."""
    import mpmath

    mpmath.mp.dps = 30
    k = mpmath.mpf(dof)
    z = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(p_value))
    guess = k * (1 - 2 / (9 * k) + z * mpmath.sqrt(2 / (9 * k))) ** 3  # Wilson-Hilferty
    root = mpmath.findroot(
        lambda x: mpmath.gammainc(k / 2, x / 2, mpmath.inf, regularized=True) - p_value,
        guess,
    )
    return float(root)


def brute_force_omat(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean matched distance minimized over every assignment."""
    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    tru = np.asarray(truths, dtype=float).reshape(-1, 2)
    dist = np.sqrt(((est[:, None, :] - tru[None, :, :]) ** 2).sum(axis=2))
    rows = np.arange(len(est))
    return min(float(dist[rows, list(p)].mean()) for p in permutations(rows))


@dataclass
class StepData:
    """What the program produced over one round, flattened to steps.

    ``valid`` marks steps that returned outputs; a step that raised has
    none.
    """

    estimates: np.ndarray  # (N, C, 2)
    truths: np.ndarray  # (N, C, 2)
    omat: np.ndarray  # (N,)
    means: np.ndarray  # (N, m) every posterior mean component
    covs: np.ndarray  # (N, k, k) posterior covariances
    valid: np.ndarray  # (N,) bool
    frames: np.ndarray  # (N, S) simulated frames
    x_ml: np.ndarray  # (N, 2C)
    statistic: np.ndarray  # (N,)
    consistent: np.ndarray  # (N,) bool
    fallback: np.ndarray  # (N,) bool, stepped to the prior
    repaired: np.ndarray  # (N,) bool, Hessian repair moved x_ml


def step_data(trajectories, outputs, omat) -> StepData:
    """Flatten step outputs (None for a step that raised)."""
    truths = np.concatenate([t.states[1:, :, :2] for t in trajectories])
    frames = np.concatenate([t.frames for t in trajectories])
    n, c = truths.shape[:2]
    estimates = np.full((n, c, 2), np.nan)
    means = np.full((n, 4 * c), np.nan)
    covs = np.zeros((n, 4 * c, 4 * c))
    x_ml = np.full((n, 2 * c), np.nan)
    statistic = np.full(n, np.nan)
    consistent = np.zeros(n, dtype=bool)
    fallback = np.zeros(n, dtype=bool)
    repaired = np.zeros(n, dtype=bool)
    valid = np.array([o is not None for o in outputs])
    for i, out in enumerate(outputs):
        if out is None:
            continue
        estimates[i] = out.posterior.mean_x.reshape(c, 2)
        means[i] = out.posterior.mean
        covs[i] = out.posterior.cov
        x_ml[i] = out.x_ml
        statistic[i] = out.statistic
        consistent[i] = out.consistent
        fallback[i] = any(a.startswith("fallback:") for a in out.actions)
        repaired[i] = bool(out.exclusions)
    return StepData(
        estimates, truths, np.asarray(omat, dtype=float), means, covs, valid,
        frames, x_ml, statistic, consistent, fallback, repaired,
    )


def check_omat(data: StepData) -> list[str]:
    problems = []
    for i in np.flatnonzero(data.valid):
        ref = brute_force_omat(data.estimates[i], data.truths[i])
        if not np.isclose(data.omat[i], ref, rtol=OMAT_RTOL, atol=0.0):
            problems.append(f"step {i}: OMAT {data.omat[i]!r} != brute force {ref!r}")
    return problems


def check_gate(data: StepData, sigma2: float, threshold: float) -> list[str]:
    """Statistic = 2 NLL at x_ml under the assumed noise; flag = stat <= q.

    The gate judges the estimate before the Hessian repair; a repair with
    exclusions re-optimizes it into ``x_ml``, and the gated point is not
    among the step's outputs.  On those steps only the flag is checked.
    """
    problems = []
    for i in np.flatnonzero(data.valid & ~data.fallback):
        stat = data.statistic[i]
        ref = gate_statistic(data.x_ml[i], data.frames[i], sigma2)
        if not data.repaired[i] and not np.isclose(stat, ref, rtol=GATE_RTOL, atol=0.0):
            problems.append(f"step {i}: statistic {stat!r} != 2 NLL {ref!r}")
        if abs(stat - threshold) > GATE_RTOL * threshold and bool(
            data.consistent[i]
        ) != bool(stat <= threshold):
            problems.append(
                f"step {i}: consistent={bool(data.consistent[i])} but "
                f"statistic {stat!r} vs threshold {threshold!r}"
            )
    return problems


def check_posteriors(data: StepData) -> list[str]:
    """Covariances symmetric and PSD; every estimate finite."""
    problems = []
    for i in np.flatnonzero(data.valid):
        cov = data.covs[i]
        scale = max(float(np.abs(cov).max()), 1e-300)
        if not np.all(np.isfinite(data.means[i])):
            problems.append(f"step {i}: non-finite posterior mean")
            continue
        if not np.all(np.isfinite(cov)):
            problems.append(f"step {i}: non-finite covariance")
            continue
        if np.abs(cov - cov.T).max() > 1e-10 * scale:
            problems.append(f"step {i}: covariance not symmetric")
        elif np.linalg.eigvalsh(cov).min() < -1e-9 * scale:
            problems.append(f"step {i}: covariance not positive semidefinite")
    return problems


def check_frames(data: StepData, sigma2: float) -> list[str]:
    """Simulated residuals at the truth, scaled by the simulated noise,
    have a mean square within four standard errors of 1."""
    z2 = (data.frames - noiseless_signal(data.truths)) ** 2 / sigma2
    mean_sq = float(z2.mean())
    bound = 4.0 * np.sqrt(2.0 / z2.size)
    if not abs(mean_sq - 1.0) <= bound:
        return [f"frame residual mean square {mean_sq:.4f} outside 1 +/- {bound:.4f}"]
    return []


def run_all(data: StepData, sigma2: float) -> dict[str, list[str]]:
    """Every check by name, with its problems; ``sigma2`` is the noise the
    frames were simulated with, which is also the noise the filter assumes."""
    threshold = chi2_upper_quantile(ROWS * COLS, P_VALUE)
    return {
        "omat_brute_force": check_omat(data),
        "gate_statistic_and_flag": check_gate(data, sigma2, threshold),
        "posterior_psd_finite": check_posteriors(data),
        "frame_residuals": check_frames(data, sigma2),
    }
