"""JSON configuration handling for scenarios, filters, and experiments.

Every field is optional; omitted values fall back to the benchmark defaults.
A key that no reader uses is a configuration error, at every level, so a
misspelt or removed setting is not silently replaced by its default.  See
the README for the full schema.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .consistency import ConsistencyConfig
from .errors import ConfigurationError
from .metrics import BpfConfig
from .model import DEFAULT_TARGETS, MeasurementModel, MotionModel, Scenario, build_grid
from .optimize import NewtonOptions
from .tracker import FilterConfig

SECTIONS = ("scenario", "filter", "bpf", "experiment")
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
    return _only(cfg, SECTIONS, "the config")


def _only(sec: dict, keys: tuple[str, ...], where: str) -> dict:
    unknown = sorted(set(sec) - set(keys))
    if unknown:
        raise ConfigurationError(f"unknown keys {unknown} in {where}, known {list(keys)}")
    return sec


def _section(cfg: dict, name: str, keys: tuple[str, ...], where: str = "") -> dict:
    """``cfg[name]`` (empty when absent), an object holding only ``keys``;
    ``where`` is the path of ``cfg`` for messages."""
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigurationError(f"config section {where + name!r} must be an object")
    return _only(sec, keys, where + name)


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


def number(sec: dict, key: str, default: float | None, where: str) -> float:
    """``sec[key]`` (or ``default``) as a finite float; a bool, NaN or an
    infinity is rejected, not read as 1.0 or passed on to fail later."""
    value = sec.get(key, default)
    if not isinstance(value, bool):
        try:
            out = float(value)
        except (TypeError, ValueError):
            out = math.nan
        if math.isfinite(out):
            return out
    raise ConfigurationError(f"{where}.{key} must be a finite number, got {value!r}")


def scenario_from_config(cfg: dict) -> Scenario:
    sec = _section(cfg, "scenario", ("grid", "amplitude", "offset", "exponent",
                                     "sigma_s2", "gamma", "bounds", "targets"))
    grid_sec = _section(sec, "grid", ("rows", "cols", "spacing"), "scenario.")
    targets = sec.get("targets")
    try:
        grid = build_grid(
            rows=integer(grid_sec, "rows", 5, "scenario.grid"),
            cols=integer(grid_sec, "cols", 5, "scenario.grid"),
            spacing=number(grid_sec, "spacing", 10.0, "scenario.grid"),
        )
        meas = MeasurementModel(
            amplitude=number(sec, "amplitude", 10.0, "scenario"),
            offset=number(sec, "offset", 0.1, "scenario"),
            exponent=number(sec, "exponent", 1.0, "scenario"),
            sigma_s2=(
                np.asarray(sec["sigma_s2"], dtype=float)
                if isinstance(sec.get("sigma_s2"), list)
                else number(sec, "sigma_s2", 0.01, "scenario")
            ),
        )
        motion = MotionModel(gamma=number(sec, "gamma", 0.05, "scenario"))
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
    sec = _section(cfg, "filter", (
        "p_value", "n_bad_tgt", "n_bad_sq", "max_subsets", "grad_tol", "max_iter",
        "alpha", "sigma_s2", "box_margin", "init_spatial_var", "init_velocity_var",
        "init_radius",
    ))
    try:
        consistency = ConsistencyConfig(
            p_value=number(sec, "p_value", 0.0013, "filter"),
            n_bad_tgt=integer(sec, "n_bad_tgt", 2, "filter"),
            n_bad_sq=integer(sec, "n_bad_sq", 12, "filter"),
            max_subsets=integer(sec, "max_subsets", 66, "filter"),
        )
        optimizer = NewtonOptions(
            grad_tol=number(sec, "grad_tol", 1e-6, "filter"),
            max_iter=integer(sec, "max_iter", 200, "filter"),
        )
        return FilterConfig(
            alpha=number(sec, "alpha", 3.0, "filter"),
            sigma_s2=(
                number(sec, "sigma_s2", None, "filter")
                if sec.get("sigma_s2") is not None
                else None
            ),
            box_margin=number(sec, "box_margin", 1.0, "filter"),
            init_spatial_var=number(sec, "init_spatial_var", 100.0, "filter"),
            init_velocity_var=number(sec, "init_velocity_var", 5e-4, "filter"),
            init_radius=number(sec, "init_radius", 5.0, "filter"),
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
    sec = _section(cfg, "bpf", ("particles", "resample_threshold"))
    try:
        return BpfConfig(
            n_particles=integer(sec, "particles", 100_000, "bpf"),
            resample_threshold=number(sec, "resample_threshold", 0.5, "bpf"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"bad bpf config: {exc}") from exc
