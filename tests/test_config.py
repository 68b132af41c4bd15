"""JSON config parsing: defaults, overrides, and rejection of bad input."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ttfilter.config import (
    DEFAULT_SWEEPS,
    SWEEP_AXES,
    bpf_config_from_config,
    filter_config_from_config,
    load_config,
    scenario_from_config,
)
from ttfilter.errors import ConfigurationError
from ttfilter.metrics import BpfConfig
from ttfilter.model import DEFAULT_TARGETS
from ttfilter.tracker import FilterConfig, make_context


def test_empty_config_gives_benchmark_defaults():
    scn = scenario_from_config({})
    assert scn.grid.rows == 5 and scn.grid.cols == 5
    assert scn.grid.spacing == 10.0
    assert float(np.asarray(scn.meas.sigma_s2)) == 0.01
    assert scn.meas.amplitude == 10.0
    assert scn.meas.offset == 0.1
    assert scn.meas.exponent == 1.0
    assert scn.motion.gamma == 0.05
    assert scn.bounds == "inside"
    np.testing.assert_array_equal(scn.initial_states, DEFAULT_TARGETS)

    fcfg = filter_config_from_config({})
    assert fcfg.alpha == 3.0
    assert fcfg.sigma_s2 is None
    assert fcfg == FilterConfig()

    bcfg = bpf_config_from_config({})
    assert bcfg.n_particles == 100_000
    assert bcfg == BpfConfig()


def test_scenario_overrides_apply():
    cfg = {
        "scenario": {
            "grid": {"rows": 3, "cols": 4, "spacing": 5.0},
            "amplitude": 12.0,
            "offset": 0.2,
            "exponent": 2.0,
            "sigma_s2": 0.5,
            "gamma": 0.1,
            "bounds": "none",
            "targets": [[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 0.1, -0.1]],
        }
    }
    scn = scenario_from_config(cfg)
    assert scn.grid.rows == 3 and scn.grid.cols == 4 and scn.grid.spacing == 5.0
    assert scn.meas.amplitude == 12.0
    assert scn.meas.offset == 0.2
    assert scn.meas.exponent == 2.0
    assert float(np.asarray(scn.meas.sigma_s2)) == 0.5
    assert scn.motion.gamma == 0.1
    assert scn.bounds == "none"
    assert scn.n_targets == 2


def test_scenario_sigma_vector():
    sig = [0.01] * 24 + [0.5]
    scn = scenario_from_config({"scenario": {"sigma_s2": sig}})
    np.testing.assert_array_equal(scn.meas.noise_variances(25), sig)


def test_filter_overrides_apply():
    cfg = {
        "filter": {
            "alpha": 1.0,
            "sigma_s2": 0.2,
            "init_spatial_var": 25.0,
            "init_velocity_var": 1e-3,
        }
    }
    fcfg = filter_config_from_config(cfg)
    assert fcfg.alpha == 1.0
    assert fcfg.sigma_s2 == 0.2
    assert fcfg.init_spatial_var == 25.0
    assert fcfg.init_velocity_var == 1e-3
    # a null sigma_s2 is the scenario's, as when the key is left out
    assert filter_config_from_config({"filter": {"sigma_s2": None}}).sigma_s2 is None


def test_list_entries_are_read_like_scalars():
    # true is not read as 1.0 inside a list either; the message names the entry
    for cfg, entry in [
        ({"sigma_s2": [0.1] * 24 + [True]}, "scenario.sigma_s2[24]"),
        ({"sigma_s2": [0.1, "nan"] + [0.1] * 23}, "scenario.sigma_s2[1]"),
        ({"targets": [[True, 2, 0, 0]]}, "scenario.targets[0][0]"),
        ({"targets": [[1, 2, 0, 0], [3, 4, None, 0]]}, "scenario.targets[1][2]"),
    ]:
        with pytest.raises(ConfigurationError, match=entry.replace("[", r"\[")):
            scenario_from_config({"scenario": cfg})
    scn = scenario_from_config({"scenario": {"targets": [[1, 2, 0, 0]], "bounds": "none"}})
    np.testing.assert_array_equal(scn.initial_states, [[1.0, 2.0, 0.0, 0.0]])


def test_bpf_inherits_filter_noise():
    # the particle filter reads alpha, sigma_s2 and the initial variances
    # from the TT filter's context; its own section holds only its own
    cfg = {"filter": {"alpha": 1.0, "sigma_s2": 0.3}, "bpf": {"particles": 500}}
    assert bpf_config_from_config(cfg) == BpfConfig(n_particles=500)
    ctx = make_context(scenario_from_config(cfg), filter_config_from_config(cfg))
    assert ctx.noise.alpha == 1.0
    assert float(ctx.meas.sigma_s2) == 0.3


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {"gamma": 0.2}}))
    cfg = load_config(path)
    assert scenario_from_config(cfg).motion.gamma == 0.2


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_unknown_keys_rejected_at_every_level(tmp_path):
    # a misspelt or removed key (near_sensor_fraction is now a constant)
    # must not leave the reader silently on its default
    for reader, cfg, key in [
        (scenario_from_config, {"scenario": {"gama": 0.1}}, "gama"),
        (scenario_from_config, {"scenario": {"grid": {"row": 3}}}, "row"),
        (filter_config_from_config, {"filter": {"near_sensor_fraction": 0.2}},
         "near_sensor_fraction"),
        (bpf_config_from_config, {"bpf": {"n_particles": 10}}, "n_particles"),
    ]:
        with pytest.raises(ConfigurationError, match=f"unknown keys \\['{key}'\\]"):
            reader(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenaro": {}, "filter": {}}))
    with pytest.raises(ConfigurationError, match="unknown keys \\['scenaro'\\]"):
        load_config(path)


def test_bad_section_type_rejected():
    with pytest.raises(ConfigurationError):
        scenario_from_config({"scenario": 5})


def test_bad_scenario_values_rejected():
    with pytest.raises(ConfigurationError):
        scenario_from_config({"scenario": {"grid": {"rows": 1}}})
    with pytest.raises(ConfigurationError):
        scenario_from_config({"scenario": {"grid": {"spacing": -1.0}}})
    with pytest.raises(ConfigurationError):
        scenario_from_config({"scenario": {"bounds": "wrap"}})
    with pytest.raises(ConfigurationError, match="scenario.bounds must be a string"):
        scenario_from_config({"scenario": {"bounds": 1}})
    with pytest.raises(ConfigurationError):
        scenario_from_config({"scenario": {"gamma": "fast"}})


def test_sweep_tables():
    assert SWEEP_AXES == ("sigma_s2", "alpha", "gamma")
    assert DEFAULT_SWEEPS["sigma_s2"] == [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    assert DEFAULT_SWEEPS["alpha"] == [1.0 / 3.0, 1.0, 3.0]
    assert DEFAULT_SWEEPS["gamma"] == [0.025, 0.05, 0.075, 0.1]
