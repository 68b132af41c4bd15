"""JSON configuration handling for scenarios, filters, and experiments.

Every field is optional.  A reader passes on only the keys a config sets,
each checked by its reader below; the defaults are those of the dataclasses
the readers build (``model.build_grid``, ``MeasurementModel``,
``MotionModel``, ``Scenario``, ``FilterConfig``, ``BpfConfig`` and
``experiment.ExperimentSpec``), written there and nowhere else.  A key that
no reader uses is a configuration error, at every level, so a misspelt or
removed setting is not silently replaced by its default.
See the README for the full schema.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigurationError
from .metrics import BpfConfig
from .model import DEFAULT_TARGETS, MeasurementModel, MotionModel, Scenario, build_grid
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


def _only(sec: dict, keys, where: str) -> dict:
    unknown = sorted(set(sec) - set(keys))
    if unknown:
        raise ConfigurationError(f"unknown keys {unknown} in {where}, known {list(keys)}")
    return sec


def _section(cfg: dict, name: str, keys, where: str = "") -> dict:
    """``cfg[name]`` (empty when absent), an object holding only ``keys``;
    ``where`` is the path of ``cfg`` for messages."""
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigurationError(f"config section {where + name!r} must be an object")
    return _only(sec, keys, where + name)


def _given(sec: dict, readers: dict, where: str) -> dict:
    """The keys of ``readers`` that ``sec`` sets, each read by its reader
    (called with the value and its path for messages).  Keys left out stay
    out, so the dataclass defaults stand for them."""
    return {key: read(sec[key], f"{where}.{key}") for key, read in readers.items()
            if key in sec}


def integer(value, name: str) -> int:
    """``value`` as an int.  Only a JSON number with no fractional part is
    read: a string, a bool or 2.5 is rejected, not parsed or truncated."""
    if type(value) is int or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def number(value, name: str) -> float:
    """``value`` as a finite float.  Only a JSON number is read: a string, a
    bool, NaN or an infinity is rejected, not parsed, read as 1.0 or passed
    on to fail later."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:  # an integer beyond the float range
            out = math.inf
        if math.isfinite(out):
            return out
    raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def numbers(value, name: str) -> float | np.ndarray:
    """A number, or a (nested) list of them as a float array, every entry
    read by ``number`` so a list holds to the same rule as a scalar."""
    if isinstance(value, list):
        return np.array(
            [numbers(v, f"{name}[{i}]") for i, v in enumerate(value)], dtype=float
        )
    return number(value, name)


def _number_or_null(value, name: str) -> float | None:
    return None if value is None else number(value, name)


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")
    return value


def _variants(value, name: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigurationError(f"{name} must be a list of names, got {value!r}")
    return tuple(value)


GRID = {"rows": integer, "cols": integer, "spacing": number}
MEASUREMENT = {"amplitude": number, "offset": number, "exponent": number,
               "sigma_s2": numbers}
MOTION = {"gamma": number}
FILTER = {"alpha": number, "sigma_s2": _number_or_null,
          "init_spatial_var": number, "init_velocity_var": number}
EXPERIMENT = {"tracks": integer, "steps": integer, "seed": integer,
              "variants": _variants}


def scenario_from_config(cfg: dict) -> Scenario:
    sec = _section(cfg, "scenario",
                   ("grid", *MEASUREMENT, *MOTION, "bounds", "targets"))
    grid_sec = _section(sec, "grid", tuple(GRID), "scenario.")
    try:
        targets = (
            numbers(sec["targets"], "scenario.targets") if "targets" in sec
            else DEFAULT_TARGETS.copy()
        )
        return Scenario(
            grid=build_grid(**_given(grid_sec, GRID, "scenario.grid")),
            motion=MotionModel(**_given(sec, MOTION, "scenario")),
            meas=MeasurementModel(**_given(sec, MEASUREMENT, "scenario")),
            initial_states=targets,
            **_given(sec, {"bounds": _text}, "scenario"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"bad scenario config: {exc}") from exc


def filter_config_from_config(cfg: dict) -> FilterConfig:
    sec = _section(cfg, "filter", tuple(FILTER))
    return FilterConfig(**_given(sec, FILTER, "filter"))


def bpf_config_from_config(cfg: dict) -> BpfConfig:
    """The particle filter's own settings; the rest it reads from the TT
    filter's context (see ``metrics.bpf_track``)."""
    sec = _section(cfg, "bpf", ("particles",))
    if "particles" in sec:
        return BpfConfig(n_particles=integer(sec["particles"], "bpf.particles"))
    return BpfConfig()


def experiment_from_config(cfg: dict) -> dict:
    """The ``experiment`` keys the config sets, read; the command line and
    ``experiment.ExperimentSpec`` supply the rest."""
    sec = _section(cfg, "experiment", tuple(EXPERIMENT))
    return _given(sec, EXPERIMENT, "experiment")
