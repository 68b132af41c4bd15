"""End-to-end CLI runs through main(argv)."""

from __future__ import annotations

import csv
import json

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


def test_seed_resolution_order(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {"seed": 3}}))

    main(["simulate", "--out", str(tmp_path / "o1"), "--steps", "1",
          "--config", str(cfg), "--seed", "4"])
    assert "seed 4" in capsys.readouterr().out

    main(["simulate", "--out", str(tmp_path / "o2"), "--steps", "1",
          "--config", str(cfg)])
    assert "seed 3" in capsys.readouterr().out

    monkeypatch.setenv("TT_SEED", "11")
    main(["simulate", "--out", str(tmp_path / "o3"), "--steps", "1"])
    assert "seed 11" in capsys.readouterr().out

    monkeypatch.delenv("TT_SEED")
    main(["simulate", "--out", str(tmp_path / "o4"), "--steps", "1"])
    assert "seed 0" in capsys.readouterr().out


def test_bad_tt_seed_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TT_SEED", "lots")
    code = main(["simulate", "--out", str(tmp_path / "o"), "--steps", "1"])
    assert code == 2
    assert "TT_SEED" in capsys.readouterr().err


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
        ("track", '{"filter": {"grad_tol": -1}}'),
        ("track", '{"filter": {"grad_tol": "nan"}}'),
        ("track", '{"filter": {"max_iter": 0}}'),
        # integer fields are not truncated: 2.5, 5.9, true and 10.7 are errors
        ("track", '{"filter": {"max_iter": 2.5}}'),
        ("track", '{"scenario": {"grid": {"rows": 5.9}}}'),
        ("track", '{"scenario": {"grid": {"cols": true}}}'),
        ("track", '{"filter": {"n_bad_sq": true}}'),
        ("track", '{"filter": {"n_bad_tgt": 1.5}}'),
        ("track", '{"filter": {"max_subsets": "many"}}'),
        ("track", '{"bpf": {"particles": 10.7}}'),
    ]:
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2, text
        err = capsys.readouterr().err
        assert "configuration error" in err
        if "variants" in text:  # not split into ['t', 't', '-', ...]
            assert "`variants` must be a list of names" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"filter": {"init_spatial_var": -1}}',
        '{"filter": {"box_margin": -20}}',
        '{"filter": {"sigma_s2": 0}}',
        '{"filter": {"alpha": 0.1}}',  # the assumed process noise is not PSD
        '{"scenario": {"sigma_s2": NaN}}',
        '{"scenario": {"sigma_s2": [' + "0.1, " * 24 + "Infinity]}}",
        '{"scenario": {"grid": {"spacing": "inf"}}}',
        '{"scenario": {"amplitude": Infinity}}',
        '{"scenario": {"targets": [[1, 2, NaN, 0]], "bounds": "none"}}',
        '{"filter": {"alpha": true}}',
        '{"filter": {"grad_tol": true}}',
        '{"filter": {"near_sensor_fraction": "nan"}}',
        '{"filter": {"init_radius": -5}}',
        '{"bpf": {"resample_threshold": true}}',
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
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "steps.csv").exists()


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
