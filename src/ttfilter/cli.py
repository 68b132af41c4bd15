"""Command line interface.

Subcommands:

- ``simulate``   write one trajectory (truth.csv, frames.csv)
- ``track``      run tracker variants over seeded tracks
- ``benchmark``  track + the particle filter baseline, side by side
- ``sweep``      repeat a benchmark across a noise/inflation sweep axis

Exit codes: 0 success, 2 configuration problem (also a scenario whose truth
cannot be simulated, such as ``bounds="inside"`` with no in-region path),
3 I/O problem.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .errors import ConfigurationError, SimulationError
from .experiment import VARIANTS, ExperimentSpec, run_experiment
from .model import simulate, write_frames_csv, write_truth_csv


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: config value, then $TT_SEED, then 0)",
    )
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--steps", type=int, default=None, help="steps per track")


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--tracks", type=int, default=None, help="number of tracks")
    p.add_argument(
        "--variant",
        action="append",
        choices=sorted(VARIANTS),
        help="variant to run (repeatable)",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel track workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttfilter",
        description="Multitarget tracking on a grid of amplitude sensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate one trajectory as CSV")
    _add_common(p_sim)

    p_track = sub.add_parser("track", help="run tracker variants over seeded tracks")
    _add_experiment_args(p_track)

    p_bench = sub.add_parser(
        "benchmark", help="compare tracker variants against the particle filter"
    )
    _add_experiment_args(p_bench)

    p_sweep = sub.add_parser("sweep", help="benchmark across a parameter sweep")
    _add_experiment_args(p_sweep)
    p_sweep.add_argument(
        "--axis", choices=cfgmod.SWEEP_AXES, required=True, help="parameter to sweep"
    )
    p_sweep.add_argument(
        "--values",
        type=float,
        nargs="+",
        default=None,
        help="sweep values (default: built-in set for the axis)",
    )
    return parser


EXPERIMENT_KEYS = ("tracks", "steps", "seed", "variants")


def _resolve_seed(args, cfg: dict) -> int:
    exp = cfgmod._section(cfg, "experiment", EXPERIMENT_KEYS)
    if args.seed is not None:
        return args.seed
    if exp.get("seed") is not None:
        return cfgmod.integer(exp, "seed", None, "experiment")
    env = os.environ.get("TT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigurationError(f"TT_SEED must be an integer, got {env!r}") from exc
    return 0


def _experiment_spec(args, cfg: dict, default_variants: tuple[str, ...]) -> ExperimentSpec:
    exp = cfgmod._section(cfg, "experiment", EXPERIMENT_KEYS)
    scenario = cfgmod.scenario_from_config(cfg)
    fcfg = cfgmod.filter_config_from_config(cfg)
    bcfg = cfgmod.bpf_config_from_config(cfg)
    variants = exp.get("variants", list(default_variants))
    if not (isinstance(variants, list) and all(isinstance(v, str) for v in variants)):
        raise ConfigurationError("`variants` must be a list of names")
    if args.variant:
        variants = args.variant
    sweep_axis = getattr(args, "axis", None)
    sweep_values = None
    if sweep_axis is not None:
        sweep_values = tuple(
            args.values if args.values else cfgmod.DEFAULT_SWEEPS[sweep_axis]
        )
    return ExperimentSpec(
        scenario=scenario,
        filter_config=fcfg,
        bpf_config=bcfg,
        variants=tuple(variants),
        tracks=(
            args.tracks if args.tracks is not None
            else cfgmod.integer(exp, "tracks", 50, "experiment")
        ),
        steps=(
            args.steps if args.steps is not None
            else cfgmod.integer(exp, "steps", 40, "experiment")
        ),
        seed=_resolve_seed(args, cfg),
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        jobs=max(1, args.jobs),
    )


def _print_summary(summary: dict) -> None:
    for point in summary["points"]:
        header = (
            f"sigma_s2={point['sigma_s2']:g} alpha={point['alpha']:g} "
            f"gamma={point['gamma']:g}"
        )
        print(header)
        for res in point["variants"].values():
            if res["avg_omat"] is None:
                print(f"  {res['label']:<14} all {len(res['failures'])} tracks failed")
                continue
            line = (
                f"  {res['label']:<14} avg OMAT {res['avg_omat']:.3f} m   "
                f"{res['time_per_step'] * 1e3:8.2f} ms/step   "
                f"({res['tracks']} tracks)"
            )
            if res["failures"]:
                line += f"   [{len(res['failures'])} failed]"
            print(line)


def _cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(args.config) if args.config else {}
    scenario = cfgmod.scenario_from_config(cfg)
    seed = _resolve_seed(args, cfg)
    steps = args.steps if args.steps is not None else 40
    trajectory = simulate(
        scenario, steps, np.random.default_rng(np.random.SeedSequence([seed, 0, 0]))
    )
    os.makedirs(args.out, exist_ok=True)
    truth_path = os.path.join(args.out, "truth.csv")
    frames_path = os.path.join(args.out, "frames.csv")
    write_truth_csv(trajectory, truth_path)
    write_frames_csv(trajectory, frames_path)
    print(f"wrote {truth_path} and {frames_path} ({steps} steps, seed {seed})")
    return 0


def _cmd_experiment(args, default_variants: tuple[str, ...]) -> int:
    cfg = cfgmod.load_config(args.config) if args.config else {}
    spec = _experiment_spec(args, cfg, default_variants)
    result = run_experiment(spec, args.out)
    _print_summary(result.summary)
    print(f"wrote {result.steps_csv}, {result.timing_csv}, {result.summary_json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "track":
            return _cmd_experiment(args, ("tt-nonlinear",))
        if args.command == "benchmark":
            return _cmd_experiment(args, ("tt-nonlinear", "tt-linear", "bpf"))
        if args.command == "sweep":
            return _cmd_experiment(args, ("tt-nonlinear", "tt-linear"))
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
