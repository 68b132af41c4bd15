"""Workload definitions, input construction and the timed per-step loops.

Every workload uses the README's scenario: a 5x5 sensor grid at 10 m
spacing and the 4 default targets.  Inputs come from the workload seed with
the same layout as ``ttfilter.experiment``:

- truth and frames of track ``i``: ``SeedSequence([seed, i, 0])``
- filter randomness of track ``i``: ``SeedSequence([seed, i, 1 + salt])``,
  with the variant's salt from ``ttfilter.experiment.VARIANTS``.

A round runs every track of the workload once, in order.  The filter sees
the frames one at a time through ``tracker.step``; the truth is used only
for the launch state that the scenario's initial belief is drawn around
and for scoring.  Module functions are looked up on their modules at call
time (``tracker.step``, ``metrics.omat``), so a tracer that rebinds them
sees these calls too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ttfilter import config, experiment, metrics, model, tracker


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str  # key of ttfilter.experiment.VARIANTS
    sigma_s2: float  # noise the frames are simulated with
    tracks: int  # tracks per round
    steps: int  # steps per track

    @property
    def salt(self) -> int:
        return experiment.VARIANTS[self.variant][0]


# One round runs each track once.  Rounds are sized to fill a 30 s timed
# phase on a 2-core sandbox (about 25 s each), so a run is usually a single
# round of distinct tracks: more distinct tracks per run is what keeps the
# medians and p99 steady from seed to seed, and each workload times at
# least 2000 steps.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("acceptance", "tt-nonlinear", 0.1, tracks=72, steps=40),
        Workload("acquire", "tt-fixedinit", 0.01, tracks=220, steps=10),
    )
}


@dataclass
class Inputs:
    """Everything a round needs, built from the workload and the seed."""

    workload: Workload
    seed: int
    ctx: tracker.FilterContext
    trajectories: list[model.Trajectory]

    def filter_seed(self, track_idx: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, track_idx, 1 + self.workload.salt])


def build_inputs(wl: Workload, seed: int) -> Inputs:
    """Scenario, filter context and simulated tracks for one seed."""
    cfg = {"scenario": {"sigma_s2": wl.sigma_s2}}
    scenario = config.scenario_from_config(cfg)
    overrides = experiment.VARIANTS[wl.variant][1]
    fcfg = replace(config.filter_config_from_config(cfg), **overrides)
    ctx = tracker.make_context(scenario, fcfg)
    trajectories = [
        model.simulate(scenario, wl.steps, np.random.SeedSequence([seed, i, 0]))
        for i in range(wl.tracks)
    ]
    return Inputs(wl, seed, ctx, trajectories)


@dataclass
class RoundResult:
    """Per-step outcome of one round, tracks in order, steps in order."""

    step_s: list[float] = field(default_factory=list)  # latency samples
    omat: list[float] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # what each raising call raised
    # StepOutput per step (None where the step raised), for the checks
    outputs: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.failed)


def _init_belief(inputs: Inputs, traj: model.Trajectory, rng: np.random.Generator):
    ctx = inputs.ctx
    cfg = ctx.config
    grid = ctx.scenario.grid
    if cfg.fixed_init:
        return tracker.init_belief(
            "fixed_center", cfg, grid, rng, n_targets=traj.n_targets,
            frame=traj.frames[0], meas=ctx.meas, box=ctx.box,
        )
    return tracker.init_belief(
        "random_around_truth", cfg, grid, rng, truth_state=traj.states[0]
    )


def _run_track(inputs: Inputs, idx: int, out: RoundResult) -> None:
    traj = inputs.trajectories[idx]
    ctx = inputs.ctx
    c = traj.n_targets
    truth = traj.states[1:, :, :2]
    belief = _init_belief(inputs, traj, np.random.default_rng(inputs.filter_seed(idx)))
    for t in range(traj.n_steps):
        tic = time.perf_counter()
        try:
            res = tracker.step(belief, traj.frames[t], ctx)
        except Exception as exc:  # a raising step is a failed operation, not a crash
            out.errors.append(f"track {idx} step {t}: {exc!r}")
            res = None
        out.step_s.append(time.perf_counter() - tic)
        if res is None:
            out.omat.append(float("nan"))
            out.failed.append(True)
            out.outputs.append(None)
            continue
        belief = res.posterior.belief()
        estimate = res.posterior.mean_x.reshape(c, 2)
        out.omat.append(metrics.omat(estimate, truth[t]).value)
        out.failed.append(any(a.startswith("fallback:") for a in res.actions))
        out.outputs.append(res)


def run_round(inputs: Inputs, keep_outputs: bool = True) -> RoundResult:
    """Run every track of the workload once.

    Without ``keep_outputs`` the step outputs are dropped as the round goes,
    so repeated rounds do not grow the process.
    """
    out = RoundResult()
    for idx in range(len(inputs.trajectories)):
        _run_track(inputs, idx, out)
        if not keep_outputs:
            out.outputs.clear()
    return out
