"""JSON configuration handling for scenarios, filters, and experiments.

Every field is optional; omitted values fall back to the benchmark defaults.
See the README for the full schema.
"""

from __future__ import annotations

import json

import numpy as np

from .consistency import ConsistencyConfig
from .errors import ConfigurationError
from .metrics import BpfConfig
from .model import DEFAULT_TARGETS, MeasurementModel, MotionModel, Scenario, build_grid
from .optimize import NewtonOptions
from .tracker import FilterConfig

SWEEP_AXES = ("sigma_s2", "alpha", "gamma")

DEFAULT_SWEEPS = {
    "sigma_s2": [1e-4, 1e-3, 1e-2, 1e-1, 1.0],
    "alpha": [1.0 / 3.0, 1.0, 3.0],
    "gamma": [0.025, 0.05, 0.075, 0.1],
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    return sec


def integer(sec: dict, key: str, default: int | None, where: str) -> int:
    """``sec[key]`` (or ``default``) as an int; a bool or a number with a
    fractional part is rejected, not truncated."""
    value = sec.get(key, default)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigurationError(f"{where}.{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{where}.{key} must be an integer, got {value!r}"
        ) from exc


def scenario_from_config(cfg: dict) -> Scenario:
    sec = _section(cfg, "scenario")
    grid_sec = _section(sec, "grid")
    targets = sec.get("targets")
    try:
        grid = build_grid(
            rows=integer(grid_sec, "rows", 5, "scenario.grid"),
            cols=integer(grid_sec, "cols", 5, "scenario.grid"),
            spacing=float(grid_sec.get("spacing", 10.0)),
        )
        meas = MeasurementModel(
            amplitude=float(sec.get("amplitude", 10.0)),
            offset=float(sec.get("offset", 0.1)),
            exponent=float(sec.get("exponent", 1.0)),
            sigma_s2=(
                np.asarray(sec["sigma_s2"], dtype=float)
                if isinstance(sec.get("sigma_s2"), list)
                else float(sec.get("sigma_s2", 0.01))
            ),
        )
        motion = MotionModel(gamma=float(sec.get("gamma", 0.05)))
        init = (
            DEFAULT_TARGETS.copy()
            if targets is None
            else np.asarray(targets, dtype=float)
        )
        return Scenario(
            grid=grid,
            motion=motion,
            meas=meas,
            initial_states=init,
            bounds=str(sec.get("bounds", "inside")),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"bad scenario config: {exc}") from exc


def filter_config_from_config(cfg: dict) -> FilterConfig:
    sec = _section(cfg, "filter")
    try:
        consistency = ConsistencyConfig(
            p_value=float(sec.get("p_value", 0.0013)),
            n_bad_tgt=integer(sec, "n_bad_tgt", 2, "filter"),
            n_bad_sq=integer(sec, "n_bad_sq", 12, "filter"),
            max_subsets=integer(sec, "max_subsets", 66, "filter"),
        )
        optimizer = NewtonOptions(
            grad_tol=float(sec.get("grad_tol", 1e-6)),
            max_iter=integer(sec, "max_iter", 200, "filter"),
        )
        return FilterConfig(
            alpha=float(sec.get("alpha", 3.0)),
            sigma_s2=(
                float(sec["sigma_s2"]) if sec.get("sigma_s2") is not None else None
            ),
            near_sensor_fraction=float(sec.get("near_sensor_fraction", 0.2)),
            box_margin=float(sec.get("box_margin", 1.0)),
            init_spatial_var=float(sec.get("init_spatial_var", 100.0)),
            init_velocity_var=float(sec.get("init_velocity_var", 5e-4)),
            init_radius=float(sec.get("init_radius", 5.0)),
            consistency=consistency,
            optimizer=optimizer,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"bad filter config: {exc}") from exc


def bpf_config_from_config(cfg: dict) -> BpfConfig:
    """The particle filter's own settings; the rest it reads from the TT
    filter's context (see ``metrics.bpf_track``)."""
    sec = _section(cfg, "bpf")
    try:
        return BpfConfig(
            n_particles=integer(sec, "particles", 100_000, "bpf"),
            resample_threshold=float(sec.get("resample_threshold", 0.5)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"bad bpf config: {exc}") from exc
