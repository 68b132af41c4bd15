"""Experiment runner: variant registry, CSV/JSON emission, determinism."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from ttfilter import experiment
from ttfilter.errors import ConfigurationError
from ttfilter.experiment import (
    LABELS,
    VARIANTS,
    ExperimentSpec,
    run_experiment,
)
from ttfilter.metrics import BpfConfig, bpf_track
from ttfilter.nll import FilterNoiseModel
from ttfilter.tracker import FilterConfig

from conftest import benchmark_scenario


def small_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        scenario=benchmark_scenario(sigma_s2=0.1),
        filter_config=FilterConfig(),
        bpf_config=BpfConfig(n_particles=200),
        variants=("tt-nonlinear",),
        tracks=1,
        steps=1,
        seed=7,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_variant_registry_is_coherent():
    salts = [salt for salt, _ in VARIANTS.values()]
    assert len(set(salts)) == len(salts)
    assert set(LABELS) == set(VARIANTS)
    assert VARIANTS["tt-linear"][1] == {"nonlinear_correction": False}
    assert VARIANTS["tt-norecovery"][1] == {"hopping": False, "one_by_one": False}
    assert VARIANTS["tt-fixedinit"][1] == {"fixed_init": True}
    assert VARIANTS["bpf"][1] is None


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        small_spec(variants=("tt-styleless",))
    with pytest.raises(ConfigurationError):
        small_spec(variants=())
    with pytest.raises(ConfigurationError):
        small_spec(tracks=0)
    with pytest.raises(ConfigurationError):
        small_spec(sweep_axis="sigma_s2")
    with pytest.raises(ConfigurationError, match="distinct"):
        small_spec(sweep_axis="sigma_s2", sweep_values=(0.1, 0.01, 0.1))


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True, None])
def test_spec_rejects_a_seed_seedsequence_cannot_take(seed):
    # caught when the spec is made, not in numpy once the run has started
    with pytest.raises(ConfigurationError, match=f"seed .*got {seed!r}"):
        small_spec(seed=seed)


def test_spec_accepts_a_numpy_integer_seed():
    assert small_spec(seed=np.int64(3)).seed == 3


def test_minimal_run_emits_one_row_per_variant(tmp_path):
    spec = small_spec(variants=("tt-nonlinear", "bpf"))
    result = run_experiment(spec, tmp_path / "out")
    rows = read_rows(result.steps_csv)
    assert len(rows) == 2
    assert {r["variant"] for r in rows} == {"tt-nonlinear", "bpf"}
    for r in rows:
        assert r["step"] == "1"
        assert r["track"] == "0"
        assert float(r["omat"]) >= 0.0
    timing = read_rows(result.timing_csv)
    assert len(timing) == 2
    assert all(float(r["seconds"]) > 0.0 for r in timing)


def test_rerun_same_seed_is_byte_identical(tmp_path):
    spec = small_spec(variants=("tt-nonlinear", "bpf"), tracks=2, steps=3)
    a = run_experiment(spec, tmp_path / "a")
    b = run_experiment(spec, tmp_path / "b")
    assert a.steps_csv.read_bytes() == b.steps_csv.read_bytes()

    def strip_timing(path):
        points = json.loads(path.read_text())["points"]
        for p in points:
            for res in p["variants"].values():
                res.pop("time_per_step")
        return points

    assert strip_timing(a.summary_json) == strip_timing(b.summary_json)


def test_summary_matches_per_step_csv(tmp_path):
    spec = small_spec(variants=("tt-nonlinear", "tt-linear"), tracks=2, steps=3)
    result = run_experiment(spec, tmp_path / "out")
    rows = read_rows(result.steps_csv)
    for name in spec.variants:
        vals = [float(r["omat"]) for r in rows if r["variant"] == name]
        assert len(vals) == 6
        got = result.summary["points"][0]["variants"][name]["avg_omat"]
        assert got == pytest.approx(np.mean(vals), abs=1e-9)


def test_summary_point_keys(tmp_path):
    spec = small_spec()
    result = run_experiment(spec, tmp_path / "out")
    point = result.summary["points"][0]
    assert point["sigma_s2"] == pytest.approx(0.1)
    assert point["alpha"] == pytest.approx(3.0)
    assert point["gamma"] == pytest.approx(0.05)
    assert result.summary["seed"] == 7
    assert result.summary["sweep_axis"] is None


def test_sweep_emits_one_point_per_value(tmp_path):
    spec = small_spec(
        sweep_axis="sigma_s2",
        sweep_values=(0.01, 0.1),
        variants=("tt-nonlinear",),
    )
    result = run_experiment(spec, tmp_path / "out")
    points = result.summary["points"]
    assert [p["sigma_s2"] for p in points] == [0.01, 0.1]
    rows = read_rows(result.steps_csv)
    assert {r["sigma_s2"] for r in rows} == {"0.01", "0.1"}


def test_sweep_reuses_truth_across_sigma_values(tmp_path):
    # with the truth fixed, zero-measurement-noise runs at two sigma values
    # see identical frames only if sigma actually entered; the invariant we
    # can check from the outside is that the gamma/seed-driven truth is the
    # same, which shows up as bit-equal omat for the dead-reckoning variant
    # when measurement noise is negligible at both sweep points
    spec = small_spec(
        sweep_axis="sigma_s2",
        sweep_values=(1e-12, 1e-10),
        variants=("tt-nonlinear",),
        steps=3,
    )
    result = run_experiment(spec, tmp_path / "out")
    rows = read_rows(result.steps_csv)
    a = [r["omat"] for r in rows if r["sigma_s2"] == "1e-12"]
    b = [r["omat"] for r in rows if r["sigma_s2"] == "1e-10"]
    np.testing.assert_allclose(
        np.array(a, dtype=float), np.array(b, dtype=float), atol=1e-4
    )


def spy_bpf_contexts(monkeypatch) -> list:
    """Record the filter context each particle-filter run is given."""
    seen = []

    def spy(trajectory, ctx, config, rng):
        seen.append(ctx)
        return bpf_track(trajectory, ctx, config, rng)

    monkeypatch.setattr(experiment, "bpf_track", spy)
    return seen


def test_alpha_sweep_updates_bpf_noise(tmp_path, monkeypatch):
    seen = spy_bpf_contexts(monkeypatch)
    spec = small_spec(
        sweep_axis="alpha",
        sweep_values=(1.0, 3.0),
        variants=("bpf",),
    )
    result = run_experiment(spec, tmp_path / "out")
    assert [p["alpha"] for p in result.summary["points"]] == [1.0, 3.0]
    assert [ctx.noise.alpha for ctx in seen] == [1.0, 3.0]


def test_bpf_makes_the_tt_filters_assumptions(tmp_path, monkeypatch):
    # a spec built in code, not through the config loader, gives the particle
    # filter the same alpha, sigma_s2 and initial variance as the TT filter
    seen = spy_bpf_contexts(monkeypatch)
    fcfg = FilterConfig(alpha=1.0, sigma_s2=0.05, init_spatial_var=4.0)
    run_experiment(small_spec(filter_config=fcfg, variants=("bpf",)), tmp_path / "out")
    (ctx,) = seen
    assert ctx.noise == FilterNoiseModel(alpha=1.0)
    assert float(ctx.meas.sigma_s2) == 0.05
    assert ctx.config.init_spatial_var == 4.0
    assert ctx.config.init_velocity_var == fcfg.init_velocity_var


def test_parallel_jobs_match_serial(tmp_path):
    spec = small_spec(variants=("tt-nonlinear",), tracks=2, steps=2)
    serial = run_experiment(spec, tmp_path / "serial")
    parallel = run_experiment(
        small_spec(variants=("tt-nonlinear",), tracks=2, steps=2, jobs=2),
        tmp_path / "parallel",
    )
    assert serial.steps_csv.read_bytes() == parallel.steps_csv.read_bytes()
