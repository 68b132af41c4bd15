"""Acceptance suite: one test per shipped guarantee, numbered as in the
README.  Criteria 1, 2, and 9 share a 25-track benchmark run that takes
minutes because the reference particle filter uses 1e5 particles; they are
marked ``slow``, so ``pytest -m "not slow"`` skips that run.
"""

from __future__ import annotations

import math
from itertools import permutations

import mpmath
import numpy as np
import pytest

from ttfilter.consistency import P_VALUE, chi2_threshold, gate_threshold, is_consistent
from ttfilter.experiment import ExperimentSpec, run_experiment
from ttfilter.metrics import BpfConfig, omat
from ttfilter.model import (
    DEFAULT_TARGETS,
    MeasurementModel,
    build_grid,
    expected_signal,
    simulate,
)
from ttfilter.nll import (
    FilterNoiseModel,
    GaussianBelief,
    combined_objective,
    propagate_prior,
)
from ttfilter.quadrature import (
    build_sigma_points,
    inverse_polar,
    radial_rule,
    simplex_directions,
)
from ttfilter.tracker import FilterConfig, make_context, track

from conftest import (
    benchmark_scenario,
    fd_gradient,
    fd_hessian_from_grad,
    polar_transform,
    random_spd,
)

BENCH_SEED = 7
BENCH_TRACKS = 25
BENCH_STEPS = 40


@pytest.fixture(scope="module")
def benchmark_point(tmp_path_factory):
    """Per-variant summaries of the shared 25-track benchmark run."""
    spec = ExperimentSpec(
        scenario=benchmark_scenario(sigma_s2=0.1),
        filter_config=FilterConfig(),
        bpf_config=BpfConfig(),
        variants=("tt-nonlinear", "tt-linear", "bpf"),
        tracks=BENCH_TRACKS,
        steps=BENCH_STEPS,
        seed=BENCH_SEED,
    )
    res = run_experiment(spec, tmp_path_factory.mktemp("benchmark"))
    return res.summary["points"][0]["variants"]


@pytest.fixture(scope="module")
def bpf500_point(tmp_path_factory):
    """Summary of a 500-particle BPF run over the same tracks."""
    spec = ExperimentSpec(
        scenario=benchmark_scenario(sigma_s2=0.1),
        filter_config=FilterConfig(),
        bpf_config=BpfConfig(n_particles=500),
        variants=("bpf",),
        tracks=BENCH_TRACKS,
        steps=BENCH_STEPS,
        seed=BENCH_SEED,
    )
    res = run_experiment(spec, tmp_path_factory.mktemp("bpf500"))
    return res.summary["points"][0]["variants"]["bpf"]


@pytest.mark.slow
def test_criterion_1_baseline_accuracy(benchmark_point):
    tt = benchmark_point["tt-nonlinear"]
    assert not tt["failures"]
    assert tt["tracks"] == BENCH_TRACKS
    assert tt["avg_omat"] <= 2.0, f"average OMAT {tt['avg_omat']:.4f} m > 2.0 m"


@pytest.mark.slow
def test_criterion_2_variant_ordering(benchmark_point):
    assert not benchmark_point["tt-linear"]["failures"]
    assert not benchmark_point["bpf"]["failures"]
    nonlinear = benchmark_point["tt-nonlinear"]["avg_omat"]
    linear = benchmark_point["tt-linear"]["avg_omat"]
    bpf = benchmark_point["bpf"]["avg_omat"]
    assert nonlinear <= linear + 0.1, f"{nonlinear:.4f} vs linear {linear:.4f}"
    assert nonlinear < bpf, f"{nonlinear:.4f} not below BPF {bpf:.4f}"
    assert linear < bpf, f"{linear:.4f} not below BPF {bpf:.4f}"


def _stress_average_omat(one_by_one: bool, hopping: bool) -> float:
    """Fixed-center starts on low-noise tracks, so early estimates sit in
    wrong basins and only the recovery stages can pull them out."""
    scenario = benchmark_scenario(sigma_s2=0.01)
    cfg = FilterConfig(fixed_init=True, one_by_one=one_by_one, hopping=hopping)
    ctx = make_context(scenario, cfg)
    values = []
    for i in range(12):
        sim_rng = np.random.default_rng(np.random.SeedSequence([7, i, 0]))
        trajectory = simulate(scenario, 25, sim_rng)
        rec = track(trajectory, ctx, np.random.SeedSequence([7, i, 6]))
        values.append(rec.omat.mean())
    return float(np.mean(values))


def test_criterion_3_recovery_stages_rescue_bad_starts():
    base = _stress_average_omat(one_by_one=True, hopping=True)
    none = _stress_average_omat(one_by_one=False, hopping=False)
    only_one_by_one = _stress_average_omat(one_by_one=True, hopping=False)
    only_hopping = _stress_average_omat(one_by_one=False, hopping=True)
    assert none > 1.10 * base, f"no-recovery {none:.4f} vs baseline {base:.4f}"
    assert only_one_by_one <= 1.10 * base, f"{only_one_by_one:.4f} vs {base:.4f}"
    assert only_hopping <= 1.10 * base, f"{only_hopping:.4f} vs {base:.4f}"


def test_criterion_3_stress_tracks_recovery_fit_count(monkeypatch):
    # a call makes 1 fit when the fit from the peeled start passes the gate
    # and 1 + 10k fits when k sensor-set sweeps follow it (10 sensor sets on
    # the 5x5 grid); measured: all 8 calls pass on the peeled fit, 8 fits,
    # where sweeping from the ring, then the prior mean, made 100
    from ttfilter import consistency, tracker

    per_call = []

    def counting_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        per_call[-1].append(2.0 * res.value)
        return res

    def counting_recovery(*args, **kwargs):
        per_call.append([])
        return recovery(*args, **kwargs)

    minimize, recovery = consistency.minimize, tracker.one_by_one_recovery
    monkeypatch.setattr(consistency, "minimize", counting_minimize)
    monkeypatch.setattr(tracker, "one_by_one_recovery", counting_recovery)
    _stress_average_omat(one_by_one=True, hopping=False)
    thr = gate_threshold(benchmark_scenario().grid)
    assert len(per_call) >= 1
    for stats in per_call:
        assert len(stats) in ((1,) if stats[0] <= thr else (11, 21))
    assert sum(len(stats) for stats in per_call) == len(per_call)


def test_criterion_4_derivatives_match_finite_differences():
    grid = build_grid(5, 5, 10.0)
    meas = MeasurementModel(sigma_s2=0.1)
    rng = np.random.default_rng(42)
    worst_grad = worst_hess = 0.0
    for _ in range(100):
        truth = rng.uniform(0.0, 40.0, size=(4, 2))
        frame = expected_signal(truth, grid, meas) + rng.normal(
            0.0, math.sqrt(0.1), grid.count
        )
        belief = GaussianBelief(
            mean=rng.uniform(5.0, 35.0, size=16),
            cov=random_spd(16, rng, scale=0.1),
        )
        prior = propagate_prior(belief, FilterNoiseModel())
        x = rng.uniform(0.0, 40.0, size=8)
        objective = combined_objective(frame, grid, meas, prior)
        rep = objective(x)
        fd_g = fd_gradient(lambda z: objective(z).value, x)
        fd_h = fd_hessian_from_grad(lambda z: objective(z).grad, x)
        worst_grad = max(worst_grad, np.linalg.norm(rep.grad - fd_g) / np.linalg.norm(fd_g))
        worst_hess = max(worst_hess, np.linalg.norm(rep.hess - fd_h) / np.linalg.norm(fd_h))
    assert worst_grad < 1e-5
    assert worst_hess < 1e-4


def test_criterion_5_cubature_exact_on_quadratic_surface():
    rule = radial_rule(8)
    dirs = simplex_directions(8)
    assert rule.w_minus + rule.w_plus == pytest.approx(6.0, rel=1e-14)
    assert rule.w_minus * rule.z_minus + rule.w_plus * rule.z_plus == pytest.approx(
        24.0, rel=1e-14
    )
    outer = dirs.directions.T @ dirs.directions
    assert np.max(np.abs(outer - 9.0 * np.eye(8))) < 1e-10

    rng = np.random.default_rng(99)
    m = rng.uniform(10.0, 30.0, size=8)
    hess = random_spd(8, rng, scale=0.5)
    sp = build_sigma_points(
        m,
        np.linalg.cholesky(hess),
        rule,
        dirs,
        lambda pts: 0.5 * np.einsum("ki,ij,kj->k", pts - m, hess, pts - m),
    )
    mean_hat = sp.weights @ sp.points
    dev = sp.points - mean_hat
    cov_hat = (sp.weights[:, None] * dev).T @ dev
    target = np.linalg.inv(hess)
    assert np.linalg.norm(mean_hat - m) / np.linalg.norm(m) < 1e-10
    assert np.linalg.norm(cov_hat - target) / np.linalg.norm(target) < 1e-10


def _chi2_quantile_bisect(dof: int, p_value: float) -> float:
    """Upper-tail quantile via bisection on the regularized gamma tail."""
    mpmath.mp.dps = 30
    target = mpmath.mpf(str(p_value))
    half_dof = mpmath.mpf(dof) / 2
    lo, hi = mpmath.mpf(1), mpmath.mpf(200)
    for _ in range(200):
        mid = (lo + hi) / 2
        tail = mpmath.gammainc(half_dof, mid / 2, mpmath.inf, regularized=True)
        if tail > target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_criterion_6_gate_calibration():
    grid = build_grid(5, 5, 10.0)
    meas = MeasurementModel(sigma_s2=0.1)
    truth = DEFAULT_TARGETS[:, :2]
    clean = expected_signal(truth, grid, meas)
    rng = np.random.default_rng(2026)
    n = 10_000
    rejected = 0
    for _ in range(n):
        frame = clean + rng.normal(0.0, math.sqrt(0.1), grid.count)
        ok, _ = is_consistent(truth.ravel(), frame, grid, meas)
        rejected += 0 if ok else 1
    p = P_VALUE
    band = 3.0 * math.sqrt(p * (1.0 - p) / n)
    assert abs(rejected / n - p) <= band, f"rate {rejected / n} vs {p} +- {band:.2e}"

    quantile = chi2_threshold(grid.count, p)
    oracle = _chi2_quantile_bisect(grid.count, p)
    assert abs(quantile - oracle) / oracle < 1e-4


def test_criterion_7_omat_equals_brute_force_minimum():
    rng = np.random.default_rng(314)
    for _ in range(1000):
        c = int(rng.integers(1, 7))
        a = rng.uniform(0.0, 40.0, size=(c, 2))
        b = rng.uniform(0.0, 40.0, size=(c, 2))
        dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        idx = np.arange(c)
        brute = min(float(dist[idx, list(p)].mean()) for p in permutations(range(c)))
        assert omat(a, b).value == brute


def test_criterion_8_polar_round_trip_and_unit_jacobian():
    # the chart measured from bearing pi is smooth across the sensor's -x ray
    rng = np.random.default_rng(7)
    sensor = np.array([20.0, 20.0])
    fd_h = 1e-5
    for bearing in (0.0, np.pi):
        for _ in range(1000):
            r = rng.uniform(0.5, 50.0)
            phi = bearing + rng.uniform(-0.9 * np.pi, 0.9 * np.pi)
            point = sensor + r * np.array([np.cos(phi), np.sin(phi)])
            u = polar_transform(point, sensor, bearing)
            assert np.max(np.abs(inverse_polar(u, sensor, bearing) - point)) < 1e-12
            jac = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = fd_h
                jac[:, j] = (
                    polar_transform(point + e, sensor, bearing)
                    - polar_transform(point - e, sensor, bearing)
                ) / (2.0 * fd_h)
            assert abs(np.linalg.det(jac) - 1.0) < 1e-7


@pytest.mark.slow
def test_criterion_9_per_step_cost_within_10x_of_small_bpf(
    benchmark_point, bpf500_point
):
    tt_time = benchmark_point["tt-nonlinear"]["time_per_step"]
    bpf_time = bpf500_point["time_per_step"]
    assert tt_time < 10.0 * bpf_time, (
        f"TT {tt_time * 1e3:.2f} ms/step vs 10x BPF-500 {bpf_time * 1e3:.2f} ms/step"
    )
