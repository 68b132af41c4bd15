"""Benchmark experiments: variants x sweep points x tracks, with CSV/JSON output.

Seeding layout (all through ``np.random.SeedSequence`` entropy lists, so every
number is reproducible per seed):

- simulation of track ``i``:   SeedSequence([seed, i, 0])
- filter randomness (init):    SeedSequence([seed, i, 1 + variant_salt])

Simulation draws are standard normals scaled by the noise parameters, so
sweep points share the same underlying randomness and differ only through
the parameter being swept; likewise every variant sees the same trajectory
and every TT variant the same initial draw.  Under ``bounds="inside"`` a
gamma sweep re-conditions which candidate path is accepted, but sigma_s2
sweeps still reuse the same truth.

``steps.csv`` holds only deterministic columns and is byte-identical across
reruns with the same seed; wall-clock timings go to ``timing.csv`` and the
JSON summary.
"""

from __future__ import annotations

import csv
import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .metrics import BpfConfig, bpf_track
from .model import Scenario, simulate
from .tracker import FilterConfig, make_context, track

# canonical variants: salt (stable seeding identity), FilterConfig overrides
# and the label ``summary.json`` gives the variant
VARIANTS: dict[str, tuple[int, dict | None, str]] = {
    "tt-nonlinear": (0, {}, "TT nonlinear"),
    "tt-linear": (1, {"nonlinear_correction": False}, "TT linear"),
    "tt-nohopping": (2, {"hopping": False}, "TT noHopping"),
    "tt-no1by1": (3, {"one_by_one": False}, "TT no1by1"),
    "tt-norecovery": (4, {"hopping": False, "one_by_one": False}, "TT noRecovery"),
    "tt-fixedinit": (5, {"fixed_init": True}, "TT fixedInit"),
    "bpf": (6, None, "BPF"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: Scenario
    filter_config: FilterConfig
    bpf_config: BpfConfig
    variants: tuple[str, ...] = ("tt-nonlinear",)
    tracks: int = 50
    steps: int = 40
    seed: int = 0
    sweep_axis: str | None = None  # "sigma_s2" | "alpha" | "gamma"
    sweep_values: tuple[float, ...] | None = None
    jobs: int = 1

    def __post_init__(self):
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigurationError(
                f"unknown variants {unknown}; known: {sorted(VARIANTS)}"
            )
        if not self.variants:
            raise ConfigurationError("at least one variant is required")
        # every track's generators derive from SeedSequence([seed, ...]),
        # which takes only non-negative integer entropy
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
        for name in ("tracks", "steps"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be at least 1, got {getattr(self, name)}"
                )
        if self.sweep_axis is not None and not self.sweep_values:
            raise ConfigurationError("sweep_axis set but sweep_values empty")
        # a repeated value would run its point twice, and steps.csv would hold
        # two sets of rows under one key
        if self.sweep_values and len(set(self.sweep_values)) < len(self.sweep_values):
            raise ConfigurationError(
                f"sweep_values must be distinct, got {list(self.sweep_values)}"
            )


def _point_params(spec: ExperimentSpec, value: float | None):
    """Scenario and filter config for one sweep point.

    The particle filter reads its assumptions from the TT filter's context,
    so a swept ``alpha`` reaches it with nothing to re-sync.
    """
    scenario, fcfg = spec.scenario, spec.filter_config
    if spec.sweep_axis == "sigma_s2":
        scenario = replace(scenario, meas=replace(scenario.meas, sigma_s2=value))
    elif spec.sweep_axis == "alpha":
        fcfg = replace(fcfg, alpha=value)
    elif spec.sweep_axis == "gamma":
        scenario = replace(scenario, motion=replace(scenario.motion, gamma=value))
    elif spec.sweep_axis is not None:
        raise ConfigurationError(f"unknown sweep axis {spec.sweep_axis!r}")
    return scenario, fcfg


def _point_key(scenario: Scenario, fcfg: FilterConfig) -> dict:
    sig = np.asarray(scenario.meas.sigma_s2, dtype=float)
    return {
        "sigma_s2": float(sig if sig.ndim == 0 else sig.mean()),
        "alpha": float(fcfg.alpha),
        "gamma": float(scenario.motion.gamma),
    }


def _run_point_track(args) -> dict:
    """One trajectory, all variants.  Top level so it pickles for workers.
    A ``ConfigurationError`` ends the experiment: every track would raise it."""
    scenario, fcfg, bcfg, variants, steps, seed, track_idx = args
    sim_rng = np.random.default_rng(np.random.SeedSequence([seed, track_idx, 0]))
    trajectory = simulate(scenario, steps, sim_rng)

    results = {}
    for name in variants:
        salt, overrides, _ = VARIANTS[name]
        ss = np.random.SeedSequence([seed, track_idx, 1 + salt])
        try:
            ctx = make_context(scenario, replace(fcfg, **(overrides or {})))
            if name == "bpf":
                rec = bpf_track(trajectory, ctx, bcfg, ss)
            else:
                rec = track(trajectory, ctx, ss, label=name)
            results[name] = {
                "omat": rec.omat,
                "step_time": rec.step_time,
                "error": None,
            }
        except ConfigurationError:
            raise
        except Exception as exc:  # record and keep the experiment alive
            results[name] = {"omat": None, "step_time": None, "error": repr(exc)}
    return results


@dataclass
class ExperimentResult:
    out_dir: Path
    steps_csv: Path
    timing_csv: Path
    summary_json: Path
    summary: dict


def run_experiment(spec: ExperimentSpec, out_dir) -> ExperimentResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values: tuple[float | None, ...] = (
        tuple(spec.sweep_values) if spec.sweep_axis else (None,)
    )

    points = []  # (key, outcomes per track), in sweep order
    for value in values:
        scenario, fcfg = _point_params(spec, value)
        shared = (scenario, fcfg, spec.bpf_config, spec.variants, spec.steps, spec.seed)
        tasks = [(*shared, i) for i in range(spec.tracks)]
        if spec.jobs > 1:
            with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
                outcomes = list(pool.map(_run_point_track, tasks))
        else:
            outcomes = [_run_point_track(t) for t in tasks]
        points.append((_point_key(scenario, fcfg), outcomes))

    steps_csv = out_dir / "steps.csv"
    timing_csv = out_dir / "timing.csv"
    summary: dict = {
        "seed": spec.seed,
        "tracks": spec.tracks,
        "steps": spec.steps,
        "sweep_axis": spec.sweep_axis,
        "points": [],
    }
    with open(steps_csv, "w", newline="") as fh_s, open(
        timing_csv, "w", newline=""
    ) as fh_t:
        ws = csv.writer(fh_s)
        wt = csv.writer(fh_t)
        ws.writerow(["sigma_s2", "alpha", "gamma", "variant", "track", "step", "omat"])
        wt.writerow(
            ["sigma_s2", "alpha", "gamma", "variant", "track", "step", "seconds"]
        )
        for key, outcomes in points:
            prefix = [repr(key["sigma_s2"]), repr(key["alpha"]), repr(key["gamma"])]
            ran = {name: [] for name in spec.variants}
            failures = {name: [] for name in spec.variants}
            for track_idx, outcome in enumerate(outcomes):
                for name in spec.variants:
                    res = outcome[name]
                    if res["error"] is not None:
                        failures[name].append({"track": track_idx, "error": res["error"]})
                        continue
                    ran[name].append(res)
                    for t, (o, sec) in enumerate(
                        zip(res["omat"], res["step_time"]), start=1
                    ):
                        ws.writerow(prefix + [name, track_idx, t, repr(float(o))])
                        wt.writerow(prefix + [name, track_idx, t, repr(float(sec))])
            per_variant = {}
            for name, runs in ran.items():
                omats = [res["omat"] for res in runs]
                times = [res["step_time"] for res in runs]
                per_variant[name] = {
                    "label": VARIANTS[name][2],
                    "tracks": len(runs),
                    "avg_omat": float(np.mean(omats)) if runs else None,
                    "time_per_step": float(np.mean(times)) if runs else None,
                    "failures": failures[name],
                }
            summary["points"].append({**key, "variants": per_variant})

    summary_json = out_dir / "summary.json"
    with open(summary_json, "w") as fh:
        json.dump(summary, fh, indent=2)
    return ExperimentResult(
        out_dir=out_dir,
        steps_csv=steps_csv,
        timing_csv=timing_csv,
        summary_json=summary_json,
        summary=summary,
    )
