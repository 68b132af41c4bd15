"""Fast tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests

Each correctness check must pass on the program's real outputs and fail on
a planted fault.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ttfilter import tracker  # noqa: E402


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], tracks=2, steps=6)


def tiny_round(name: str, seed: int = 3):
    inputs = workloads.build_inputs(tiny(name), seed)
    result = workloads.run_round(inputs)
    data = checks.step_data(inputs.trajectories, result.outputs, result.omat)
    return inputs, result, data


@pytest.fixture(scope="module")
def acceptance():
    return tiny_round("acceptance")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_check_passes_on_a_clean_round(name):
    inputs, result, data = tiny_round(name)
    wl = inputs.workload
    assert not any(result.failed)
    assert checks.run_all(data, wl.sigma_s2) == {
        "omat_brute_force": [],
        "gate_statistic_and_flag": [],
        "posterior_psd_finite": [],
        "frame_residuals": [],
    }


def test_step_loop_reproduces_track(acceptance):
    inputs, result, _ = acceptance
    steps = inputs.workload.steps
    for i, traj in enumerate(inputs.trajectories):
        rec = tracker.track(traj, inputs.ctx, inputs.filter_seed(i))
        assert result.omat[i * steps : (i + 1) * steps] == rec.omat.tolist()


def test_inputs_repeat_for_a_seed_and_change_with_it():
    wl = tiny("acceptance")
    a, b, c = (workloads.build_inputs(wl, s) for s in (5, 5, 6))
    assert np.array_equal(a.trajectories[1].frames, b.trajectories[1].frames)
    assert not np.array_equal(a.trajectories[1].frames, c.trajectories[1].frames)


def test_perturbed_omat_is_caught(acceptance):
    _, _, data = acceptance
    assert checks.check_omat(data) == []
    data = replace(data, omat=data.omat.copy())
    data.omat[3] *= 1.0 + 1e-9
    assert len(checks.check_omat(data)) == 1


def test_flipped_gate_flag_is_caught(acceptance):
    _, _, data = acceptance
    q = checks.chi2_upper_quantile(25, checks.P_VALUE)
    assert checks.check_gate(data, 0.1, q) == []
    data = replace(data, consistent=data.consistent.copy())
    data.consistent[2] = not data.consistent[2]
    assert len(checks.check_gate(data, 0.1, q)) == 1


def test_repaired_step_is_judged_by_its_flag_only(acceptance):
    _, _, data = acceptance
    q = checks.chi2_upper_quantile(25, checks.P_VALUE)
    data = replace(data, statistic=data.statistic.copy(), repaired=data.repaired.copy(),
                   consistent=data.consistent.copy())
    data.repaired[1] = True
    data.statistic[1] = q * (0.5 if data.consistent[1] else 2.0)
    assert checks.check_gate(data, 0.1, q) == []
    data.consistent[1] = not data.consistent[1]
    assert len(checks.check_gate(data, 0.1, q)) == 1


def test_statistic_under_the_wrong_noise_is_caught(acceptance):
    _, _, data = acceptance
    q = checks.chi2_upper_quantile(25, checks.P_VALUE)
    assert len(checks.check_gate(data, 0.05, q)) == data.statistic.size


def test_non_psd_covariance_is_caught(acceptance):
    _, _, data = acceptance
    covs = data.covs.copy()
    vals, vecs = np.linalg.eigh(covs[4])
    vals[0] = -1e-3 * vals[-1]
    covs[4] = (vecs * vals) @ vecs.T
    covs[4] = 0.5 * (covs[4] + covs[4].T)
    problems = checks.check_posteriors(replace(data, covs=covs))
    assert problems == ["step 4: covariance not positive semidefinite"]


def test_frames_under_the_wrong_noise_are_caught(acceptance):
    _, _, data = acceptance
    assert checks.check_frames(data, 0.1) == []
    assert len(checks.check_frames(data, 0.2)) == 1


def test_chi2_quantile_matches_scipy():
    from scipy.stats import chi2

    for dof in (1, 9, 25):
        ours = checks.chi2_upper_quantile(dof, checks.P_VALUE)
        assert ours == pytest.approx(chi2.isf(checks.P_VALUE, dof), rel=1e-9)


def test_nan_sensor_steps_count_as_failed():
    inputs = workloads.build_inputs(tiny("acceptance"), 3)
    inputs.trajectories[0].frames[2:, 7] = np.nan
    result = workloads.run_round(inputs)
    assert result.failed[2]
    for failed, out in zip(result.failed, result.outputs):
        fell_back = out is None or any(a.startswith("fallback:") for a in out.actions)
        assert failed == fell_back


def test_tracer_counts_repeat_spans_nest_and_uninstall():
    inputs = workloads.build_inputs(tiny("acquire"), 4)
    original = tracker.minimize
    runs = []
    for _ in range(2):
        with tracing.Tracer() as tr:
            omat = workloads.run_round(inputs).omat
        runs.append((tr, omat))
    assert tracker.minimize is original
    (a, omat_a), (b, omat_b) = runs
    assert a.counts == b.counts and omat_a == omat_b
    assert a.counts["tracker.step.calls"] == 12
    assert a.counts["optimize.minimize.main.calls"] == 12
    assert a.counts["optimize.minimize.init.calls"] == 2
    assert a.counts["optimize.minimize.other.calls"] == 0
    times = a.times_ms()
    for name in ("tracker.step", "optimize.minimize", "nll.measurement_nll"):
        assert 0.0 < times[name + ".ms"] <= times[name + ".total_ms"]
    assert all(parent < idx for idx, (_, _, _, parent) in enumerate(a.spans))


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
