"""End-to-end CLI runs through main(argv)."""

from __future__ import annotations

import csv
import json
import re

import pytest

from ttfilter.cli import main


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_writes_truth_and_frames(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--steps", "3", "--seed", "5"]) == 0
    truth = read_rows(out / "truth.csv")
    frames = read_rows(out / "frames.csv")
    assert len(truth) == 4 * 4  # t = 0..3 for four targets
    assert len(frames) == 3 * 25
    assert set(truth[0]) == {"t", "c", "x", "y", "vx", "vy"}
    assert set(frames[0]) == {"t", "s", "a"}
    assert "seed 5" in capsys.readouterr().out


def test_simulate_same_seed_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--out", str(a), "--steps", "4", "--seed", "9"])
    main(["simulate", "--out", str(b), "--steps", "4", "--seed", "9"])
    assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()
    assert (a / "frames.csv").read_bytes() == (b / "frames.csv").read_bytes()


def test_seed_resolution_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {"seed": 3}}))

    main(["simulate", "--out", str(tmp_path / "o1"), "--steps", "1",
          "--config", str(cfg), "--seed", "4"])
    assert "seed 4" in capsys.readouterr().out

    main(["simulate", "--out", str(tmp_path / "o2"), "--steps", "1",
          "--config", str(cfg)])
    assert "seed 3" in capsys.readouterr().out

    main(["simulate", "--out", str(tmp_path / "o3"), "--steps", "1"])
    assert "seed 0" in capsys.readouterr().out


def test_missing_config_gives_io_exit(tmp_path, capsys):
    code = main(
        ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == 3


def test_invalid_config_gives_config_exit(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    for command, text in [
        ("simulate", "{oops"),
        ("simulate", '{"scenario": {"grid": 5}}'),
        ("simulate", '{"experiment": {"seed": "abc"}}'),
        ("track", '{"experiment": {"tracks": "x"}}'),
        ("simulate", '{"experiment": 5}'),
        ("track", '{"experiment": 5}'),
        ("track", '{"experiment": {"tracks": 1.7}}'),
        ("track", '{"experiment": {"steps": true}}'),
        ("simulate", '{"experiment": {"seed": false}}'),
        ("track", '{"experiment": {"variants": "tt-linear"}}'),
        # integer fields are not truncated: 2.5, 5.9, true and 10.7 are errors
        ("track", '{"bpf": {"particles": 2.5}}'),
        ("track", '{"scenario": {"grid": {"rows": 5.9}}}'),
        ("track", '{"scenario": {"grid": {"cols": true}}}'),
        ("track", '{"bpf": {"particles": true}}'),
        ("simulate", '{"experiment": {"seed": 1.5}}'),
        ("track", '{"bpf": {"particles": "many"}}'),
        ("track", '{"bpf": {"particles": 10.7}}'),
    ]:
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2, text
        err = capsys.readouterr().err
        assert "configuration error" in err
        if "variants" in text:  # not split into ['t', 't', '-', ...]
            assert "experiment.variants must be a list of names" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"filter": {"init_spatial_var": -1}}',
        '{"filter": {"sigma_s2": 0}}',
        '{"filter": {"alpha": 0.1}}',  # the assumed process noise is not PSD
        '{"scenario": {"sigma_s2": NaN}}',
        '{"scenario": {"sigma_s2": [' + "0.1, " * 24 + "Infinity]}}",
        '{"scenario": {"grid": {"spacing": "inf"}}}',
        '{"scenario": {"amplitude": Infinity}}',
        '{"scenario": {"targets": [[1, 2, NaN, 0]], "bounds": "none"}}',
        '{"filter": {"alpha": true}}',
        # a list entry holds to the rule of a scalar
        '{"scenario": {"sigma_s2": [true' + ", 0.1" * 24 + "]}}",
        '{"scenario": {"targets": [[true, 2, 0, 0]], "bounds": "none"}}',
        # a number is a JSON number: a numeric string is not parsed
        '{"scenario": {"sigma_s2": "0.1"}}',
        '{"scenario": {"grid": {"rows": "5"}}}',
        '{"experiment": {"seed": " 4"}}',
        # an integer beyond the float range is not finite either
        pytest.param('{"scenario": {"sigma_s2": 1' + "0" * 400 + "}}", id="1e400-integer"),
    ],
)
def test_bad_number_in_config_gives_config_exit(tmp_path, capsys, text):
    # rejected when the config is read, not as a failure of every track
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "run"
    code = main(["track", "--config", str(cfg), "--out", str(out),
                 "--tracks", "1", "--steps", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert re.search(r'"(\w+)": [^{]', text)[1] in err  # names the key
    assert not (out / "steps.csv").exists()


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("track", '{"filter": {"near_sensor_fraction": 0.2}}', "near_sensor_fraction"),
        ("track", '{"filter": {"near_sensor_fracton": 5.0, "p_valu": 0.5}, '
         '"scenaro": {"sigma_s2": 3}, "experiment": {"trakcs": 3}}', "scenaro"),
        ("track", '{"filter": {"near_sensor_fracton": 5.0, "p_valu": 0.5}}',
         "near_sensor_fracton"),
        ("track", '{"scenario": {"grid": {"spacng": 5}}}', "spacng"),
        ("benchmark", '{"bpf": {"particle": 10}}', "particle"),
        ("track", '{"experiment": {"trakcs": 3}}', "trakcs"),
        ("simulate", '{"scenario": {"sigma": 0.1}}', "sigma"),
        ("simulate", '{"experiment": {"sead": 3}}', "sead"),
        # settings that had one value in use are constants now
        ("track", '{"filter": {"p_value": 0.0013}}', "p_value"),
        ("track", '{"filter": {"n_bad_tgt": 2}}', "n_bad_tgt"),
        ("track", '{"filter": {"n_bad_sq": 12}}', "n_bad_sq"),
        ("track", '{"filter": {"max_subsets": 66}}', "max_subsets"),
        ("track", '{"filter": {"box_margin": -20}}', "box_margin"),
        ("track", '{"filter": {"init_radius": -5}}', "init_radius"),
        ("benchmark", '{"bpf": {"resample_threshold": true}}', "resample_threshold"),
        ("track", '{"filter": {"grad_tol": 1e-6}}', "grad_tol"),
        ("track", '{"filter": {"max_iter": 200}}', "max_iter"),
    ],
    ids=[
        "filter.near_sensor_fraction", "top-level", "filter", "scenario.grid",
        "bpf", "experiment", "scenario", "simulate-experiment",
        "filter.p_value", "filter.n_bad_tgt", "filter.n_bad_sq", "filter.max_subsets",
        "filter.box_margin", "filter.init_radius", "bpf.resample_threshold",
        "filter.grad_tol", "filter.max_iter",
    ],
)
def test_unknown_config_key_gives_config_exit(tmp_path, capsys, command, text, key):
    # read as a typo, not silently replaced by the default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "run"
    argv = [command, "--config", str(cfg), "--out", str(out), "--steps", "2"]
    if command != "simulate":
        argv += ["--tracks", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: unknown keys" in err and repr(key) in err
    assert not out.exists()


def test_removed_bounds_policy_gives_config_exit(tmp_path, capsys):
    # "reflect" broke the constant-velocity motion the filter assumes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"bounds": "reflect"}}))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown bounds policy 'reflect'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, text, named",
    [
        (["simulate", "--seed", "-1"], None, "-1"),
        (["track", "--seed", "-5"], None, "-5"),
        (["track"], '{"experiment": {"seed": -3}}', "-3"),
        (["simulate", "--steps", "-3"], None, "-3"),
        (["simulate", "--steps", "0"], None, "0"),
        (["track", "--steps", "0"], None, "0"),
        (["track", "--tracks", "-1"], None, "-1"),
    ],
    ids=[
        "simulate-seed-flag", "track-seed-flag", "config-seed",
        "simulate-negative-steps", "simulate-zero-steps", "track-zero-steps",
        "track-negative-tracks",
    ],
)
def test_negative_seed_or_step_count_gives_config_exit(
    tmp_path, capsys, argv, text, named
):
    # exit 2 naming the value, not a numpy traceback or empty output files
    out = tmp_path / "run"
    argv = [*argv, "--out", str(out)]
    if text is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv += ["--config", str(cfg)]
    if argv[0] == "track" and "--steps" not in argv:
        argv += ["--steps", "1"]
    if argv[0] == "track" and "--tracks" not in argv:
        argv += ["--tracks", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"got {named}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["track", "benchmark"])
def test_zero_assumed_noise_gives_config_exit(tmp_path, capsys, command):
    # noise-free frames simulate, but the filter cannot assume them: every
    # track would fail, so the run stops with a configuration error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"sigma_s2": 0}, "bpf": {"particles": 50}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    argv = ["--config", str(cfg), "--tracks", "1", "--steps", "2"]
    out = tmp_path / "run"
    assert main([command, "--out", str(out), *argv]) == 2
    assert "sigma_s2 must be positive at every sensor" in capsys.readouterr().err
    assert not (out / "steps.csv").exists()
    # the filter may assume a positive noise for noise-free frames
    cfg.write_text(json.dumps({"scenario": {"sigma_s2": 0}, "filter": {"sigma_s2": 0.1},
                               "bpf": {"particles": 50}}))
    assert main([command, "--out", str(out), *argv]) == 0
    assert "failed" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "track"])
def test_unsimulable_scenario_gives_config_exit(tmp_path, capsys, command):
    # noise-free truth leaves the grid, so bounds="inside" has no path to keep
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": {"gamma": 0, "targets": [[38.0, 20.0, 1.0, 0.0]]}}
    ))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "run"),
            "--steps", "5"]
    if command == "track":
        argv += ["--tracks", "1"]
    code = main(argv)
    assert code == 2
    assert "simulation error: noise-free trajectory leaves the grid" in (
        capsys.readouterr().err
    )


def test_track_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["track", "--out", str(out), "--tracks", "1", "--steps", "2", "--seed", "1"]
    )
    assert code == 0
    rows = read_rows(out / "steps.csv")
    assert len(rows) == 2
    assert all(r["variant"] == "tt-nonlinear" for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["points"][0]["variants"]["tt-nonlinear"]["tracks"] == 1
    assert "TT nonlinear" in capsys.readouterr().out


def test_benchmark_runs_all_default_variants(tmp_path):
    out = tmp_path / "bench"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bpf": {"particles": 200}}))
    code = main(
        ["benchmark", "--out", str(out), "--config", str(cfg),
         "--tracks", "1", "--steps", "1", "--seed", "2"]
    )
    assert code == 0
    rows = read_rows(out / "steps.csv")
    assert {r["variant"] for r in rows} == {"tt-nonlinear", "tt-linear", "bpf"}


def test_variant_flag_overrides_defaults(tmp_path):
    out = tmp_path / "v"
    code = main(
        ["track", "--out", str(out), "--tracks", "1", "--steps", "1",
         "--seed", "1", "--variant", "tt-norecovery"]
    )
    assert code == 0
    rows = read_rows(out / "steps.csv")
    assert {r["variant"] for r in rows} == {"tt-norecovery"}


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--axis", "sigma_s2", "--values", "0.01", "0.1",
         "--out", str(out), "--tracks", "1", "--steps", "1", "--seed", "3",
         "--variant", "tt-nonlinear"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [p["sigma_s2"] for p in summary["points"]] == [0.01, 0.1]


def test_sweep_with_a_repeated_value_gives_config_exit(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--axis", "sigma_s2", "--values", "0.1", "0.1",
         "--out", str(out), "--tracks", "1", "--steps", "1", "--seed", "3",
         "--variant", "tt-nonlinear"]
    )
    assert code == 2
    assert "sweep_values must be distinct" in capsys.readouterr().err
    assert not (out / "steps.csv").exists()


def test_config_experiment_section_feeds_spec(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": {"tracks": 2, "steps": 2, "seed": 6,
                               "variants": ["tt-linear"]},
            }
        )
    )
    out = tmp_path / "run"
    code = main(["track", "--out", str(out), "--config", str(cfg)])
    assert code == 0
    rows = read_rows(out / "steps.csv")
    assert {r["variant"] for r in rows} == {"tt-linear"}
    assert len(rows) == 4  # 2 tracks x 2 steps
