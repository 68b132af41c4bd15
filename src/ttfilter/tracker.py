"""The per-step tracking filter and whole-track driver.

Each step: propagate the posterior through the constant-velocity model with
inflated noise, maximize the spatial likelihood inside the search box (with
the nonlinear correction, the fit's Newton steps take each target near a
sensor in the same polar chart the cubature uses, ``FilterContext.chart``
deciding which targets at each iterate; a fit that stops short of
convergence is recorded as ``unconverged:main[iterations]``), gate
the fit with the chi-square consistency test at ``consistency.gate_threshold``
(escalating through one-by-one re-acquisition from the frame and square
hopping when it fails; each returns its first candidate fit that passes the
gate, else its lowest, and ``step`` alone adopts it when twice its value is
below the statistic, puts it back into the prior's target labels by OMAT's
assignment and gates it again), factor the Hessian at the gated
estimate (the Gauss-Newton matrix stands in where the Hessian is not
positive definite, recorded as ``hessfix:gauss-newton``), spread sigma
points on the combined NLL surface (in the polar chart about the
sensor for each target that ``FilterContext.chart`` takes at the estimate,
recorded as ``polar:c@s``), and read off posterior moments.  Prior and
posterior are ``nll.GaussianBelief`` values, and a step's posterior is the
next step's belief as it is.  Every fit builds its objective once
(``nll.combined_objective`` for the main fit, ``nll.measurement_objective``
for the fixed-center initial fit), and the main fit's objective is the one
evaluated again when a measurement-only recovery fit is adopted.  The repair
reads the main fit's last evaluation, or that re-evaluation, and its factor
places the sigma points.  Any numerical failure downgrades the step to the
propagated prior so a single bad frame cannot kill the track; a frame with a
NaN or infinite reading does so before any fit, naming the sensors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .consistency import (
    is_consistent,
    one_by_one_recovery,
    square_hopping_recovery,
)
from .errors import ConfigurationError, NumericalError
from .hessfix import repair_hessian
from .metrics import TrackRecord, omat
from .model import MeasurementModel, Scenario, SensorGrid, Trajectory, stack_state
from .moments import assemble, spatial_moments, velocity_moments
from .nll import (
    FilterNoiseModel,
    GaussianBelief,
    combined_objective,
    combined_value_batch,
    measurement_objective,
    propagate_prior,
)
from .optimize import BoxConstraints, box_from_grid, minimize
from .quadrature import (
    ChartFrame,
    DirectionSet,
    RadialRule,
    build_sigma_points,
    chart_frame,
    near_sensor_pairs,
    radial_rule,
    simplex_directions,
)

NEAR_SENSOR_FRACTION = 0.2  # the chart's radius about a sensor, in grid spacings
INIT_RADIUS = 5.0  # fixed-center initial means lie within this radius, in meters


@dataclass(frozen=True)
class FilterConfig:
    """Tracker variant switches and the numbers a config may set.

    The gate's p-value and hopping's sizes are constants of ``consistency``,
    the search box pads the grid by one spacing (``optimize.box_from_grid``)
    and blind starts scatter within ``INIT_RADIUS`` of the grid center.
    """

    nonlinear_correction: bool = True
    one_by_one: bool = True
    hopping: bool = True
    fixed_init: bool = False
    alpha: float = 3.0  # spatial inflation of the assumed process noise
    sigma_s2: float | None = None  # override the scenario's measurement noise
    init_spatial_var: float = 100.0
    init_velocity_var: float = 5e-4

    def __post_init__(self):
        """Reject numbers no filter can run with, before any track starts."""
        for name in ("alpha", "init_spatial_var", "init_velocity_var"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        s2 = self.sigma_s2
        if s2 is not None and not (math.isfinite(s2) and s2 > 0.0):
            raise ConfigurationError(
                f"sigma_s2 must be finite and positive, got {s2!r}"
            )
        FilterNoiseModel(alpha=self.alpha)  # the assumed process noise must be PSD


@dataclass(frozen=True)
class FilterContext:
    """Precomputed per-scenario machinery shared by every step."""

    scenario: Scenario
    config: FilterConfig
    meas: MeasurementModel  # the filter's assumed measurement model
    noise: FilterNoiseModel
    box: BoxConstraints
    rule: RadialRule
    dirs: DirectionSet

    def chart(self, x: np.ndarray) -> list[ChartFrame]:
        """The frames of the targets of ``x`` (2C,) that the near-sensor
        chart takes: those closer than ``NEAR_SENSOR_FRACTION`` grid spacings
        to their nearest sensor, and none without the nonlinear correction."""
        if not self.config.nonlinear_correction:
            return []
        grid = self.scenario.grid
        pairs = near_sensor_pairs(x, grid, NEAR_SENSOR_FRACTION * grid.spacing)
        return [chart_frame(x, c, s, grid.positions[s]) for c, s in pairs]


def make_context(scenario: Scenario, config: FilterConfig) -> FilterContext:
    meas = scenario.meas
    if config.sigma_s2 is not None:
        meas = replace(meas, sigma_s2=config.sigma_s2)
    if np.any(meas.noise_variances(scenario.grid.count) <= 0.0):  # fine to simulate
        raise ConfigurationError("the filter's assumed measurement noise sigma_s2 must"
                                 f" be positive at every sensor, got {meas.sigma_s2}")
    dim = 2 * scenario.n_targets
    return FilterContext(
        scenario=scenario,
        config=config,
        meas=meas,
        noise=FilterNoiseModel(alpha=config.alpha),
        box=box_from_grid(scenario.grid, scenario.n_targets),
        rule=radial_rule(dim),
        dirs=simplex_directions(dim),
    )


def init_belief(
    mode: str,
    config: FilterConfig,
    grid: SensorGrid,
    rng: np.random.Generator,
    truth_state: np.ndarray | None = None,
    n_targets: int | None = None,
    frame: np.ndarray | None = None,
    meas: MeasurementModel | None = None,
    box: BoxConstraints | None = None,
) -> GaussianBelief:
    """Initial belief: noisy-truth means or blind fixed-center means.

    ``random_around_truth`` draws each mean from a Gaussian centered on the
    true launch state; ``fixed_center`` places every target mean uniformly
    within ``INIT_RADIUS`` of the grid center with zero velocity (no access
    to the truth), then sharpens the spatial means with one measurement fit
    against the first frame when one is supplied.  A first frame with a NaN
    or infinite entry cannot be fitted, so the blind means stay and ``step``
    records that frame as a prior fallback.  Both modes use the same
    diagonal covariance.
    """
    if mode == "random_around_truth":
        if truth_state is None:
            raise ConfigurationError("random_around_truth needs the truth state")
        c = np.asarray(truth_state).shape[0]
        sd = np.concatenate(
            [
                np.full(2 * c, np.sqrt(config.init_spatial_var)),
                np.full(2 * c, np.sqrt(config.init_velocity_var)),
            ]
        )
        mean = stack_state(truth_state) + sd * rng.standard_normal(4 * c)
    elif mode == "fixed_center":
        if n_targets is None:
            raise ConfigurationError("fixed_center needs n_targets")
        c = n_targets
        radius = INIT_RADIUS * np.sqrt(rng.random(c))
        angle = 2.0 * np.pi * rng.random(c)
        pos = grid.center + np.stack(
            [radius * np.cos(angle), radius * np.sin(angle)], axis=1
        )
        mean = np.concatenate([pos.ravel(), np.zeros(2 * c)])
        if frame is not None:
            if meas is None or box is None:
                raise ConfigurationError(
                    "fixed_center refinement needs meas and box with the frame"
                )
            if np.isfinite(frame).all():
                fit = minimize(
                    measurement_objective(frame, grid, meas),
                    mean[: 2 * c],
                    box,
                )
                mean[: 2 * c] = fit.x
    else:
        raise ConfigurationError(f"unknown init mode {mode!r}")
    cov = np.diag(
        np.concatenate(
            [
                np.full(2 * c, config.init_spatial_var),
                np.full(2 * c, config.init_velocity_var),
            ]
        )
    )
    return GaussianBelief(mean=mean, cov=cov)


@dataclass
class StepOutput:
    posterior: GaussianBelief  # also the next step's belief
    x_ml: np.ndarray
    statistic: float
    consistent: bool
    actions: tuple[str, ...]
    # Always empty: the repair excludes no target-sensor pair any more.  Kept
    # because the benchmark's step checks read it.
    exclusions: tuple[tuple[int, int], ...]
    wall_time: float


def step(belief: GaussianBelief, frame: np.ndarray, ctx: FilterContext) -> StepOutput:
    """Advance the belief by one measurement frame.

    A belief or frame of the wrong shape for ``ctx.scenario`` is the
    caller's mistake and raises ``ConfigurationError``.
    """
    tic = time.perf_counter()
    cfg = ctx.config
    grid, meas = ctx.scenario.grid, ctx.meas
    actions: list[str] = []
    if belief.n_targets != ctx.scenario.n_targets:
        raise ConfigurationError(
            f"belief has {belief.n_targets} targets (mean {belief.mean.shape}), "
            f"the scenario {ctx.scenario.n_targets}"
        )

    prior = propagate_prior(belief, ctx.noise)
    frame = np.asarray(frame, dtype=float)
    objective = combined_objective(frame, grid, meas, prior)  # checks the shape
    non_finite = np.flatnonzero(~np.isfinite(frame))

    try:
        if non_finite.size:  # no fit can explain a NaN or infinite reading
            raise NumericalError(f"non-finite frame: sensors {non_finite.tolist()}")
        res = minimize(objective, prior.mean_x, ctx.box, chart=ctx.chart)
        if not res.converged:
            actions.append(f"unconverged:main[{res.iterations}]")
        x_hat, report = res.x, res.report
        ok, stat = is_consistent(x_hat, frame, grid, meas)

        # Recoveries refit by measurement likelihood alone, so twice a
        # candidate's value is its statistic: adopt one that lowers it and
        # gate it again.  That likelihood cannot tell targets apart and the
        # prior term can, so an adopted fit takes the labels of the prior
        # mean's targets by OMAT's minimum-distance assignment.
        for stage, enabled in (("one_by_one", cfg.one_by_one), ("hopping", cfg.hopping)):
            if ok or not enabled:
                continue
            if stage == "one_by_one":
                cand = one_by_one_recovery(frame, grid, meas, prior.mean_x, ctx.box)
            else:
                hop = square_hopping_recovery(x_hat, frame, grid, meas, ctx.box)
                cand = hop.result
                stage += f":{'pass' if hop.gate_passed else 'best'}[{hop.attempts}]"
            actions.append(stage)
            if cand is not None and 2.0 * cand.value < stat:
                labels = omat(prior.mean_x, cand.x).assignment
                x_hat, report = cand.x.reshape(-1, 2)[labels].ravel(), None
                ok, stat = is_consistent(x_hat, frame, grid, meas)

        if report is None:  # an adopted recovery fit ignored the prior
            report = objective(x_hat)
        repair = repair_hessian(report)
        if repair.gauss_newton:
            actions.append("hessfix:gauss-newton")

        frames = ctx.chart(x_hat)
        points = build_sigma_points(
            x_hat,
            repair.chol,
            ctx.rule,
            ctx.dirs,
            lambda pts: combined_value_batch(pts, frame, grid, meas, prior),
            frames,
        )
        actions.extend(f"polar:{f.target}@{f.sensor}" for f in frames)

        mean_x, cov_xx = spatial_moments(points)
        mean_v, cov_vv, cov_vx = velocity_moments(prior, mean_x, cov_xx)
        posterior = assemble(mean_x, mean_v, cov_xx, cov_vv, cov_vx)
        x_ml = x_hat
    except NumericalError as exc:
        # a broken step must not kill the track: carry the prior forward
        actions.append(f"fallback:prior({exc})")
        posterior = assemble(
            prior.mean_x, prior.mean_v, prior.cov_xx, prior.cov_vv, prior.cov_vx
        )
        x_ml = prior.mean_x.copy()
        stat = float("nan")
        ok = False

    return StepOutput(
        posterior=posterior,
        x_ml=x_ml,
        statistic=float(stat),
        consistent=bool(ok),
        actions=tuple(actions),
        exclusions=(),
        wall_time=time.perf_counter() - tic,
    )


def track(
    trajectory: Trajectory,
    ctx: FilterContext,
    rng: np.random.Generator | np.random.SeedSequence | int,
    label: str = "tt",
) -> TrackRecord:
    """Run the filter over a full trajectory and record per-step results."""
    rng = np.random.default_rng(rng)
    cfg = ctx.config
    grid = ctx.scenario.grid
    c = trajectory.n_targets
    t_steps = trajectory.n_steps

    if cfg.fixed_init:
        belief = init_belief(
            "fixed_center",
            cfg,
            grid,
            rng,
            n_targets=c,
            frame=trajectory.frames[0],
            meas=ctx.meas,
            box=ctx.box,
        )
    else:
        belief = init_belief(
            "random_around_truth", cfg, grid, rng, truth_state=trajectory.states[0]
        )

    truth = trajectory.states[1:, :, :2].copy()
    estimates = np.empty((t_steps, c, 2))
    velocities = np.empty((t_steps, c, 2))
    covs = np.empty((t_steps, 2 * c, 2 * c))
    omat_vals = np.empty(t_steps)
    step_time = np.empty(t_steps)
    statistic = np.empty(t_steps)
    consistent = np.empty(t_steps, dtype=bool)
    actions: list[tuple[str, ...]] = []

    for t in range(t_steps):
        out = step(belief, trajectory.frames[t], ctx)
        belief = out.posterior
        estimates[t] = belief.mean_x.reshape(c, 2)
        velocities[t] = belief.mean_v.reshape(c, 2)
        covs[t] = belief.cov_xx
        step_time[t] = out.wall_time
        statistic[t] = out.statistic
        consistent[t] = out.consistent
        actions.append(out.actions)
        omat_vals[t] = omat(estimates[t], truth[t]).value

    return TrackRecord(
        label=label,
        truth=truth,
        estimates=estimates,
        velocities=velocities,
        covs=covs,
        omat=omat_vals,
        step_time=step_time,
        statistic=statistic,
        consistent=consistent,
        actions=actions,
    )
