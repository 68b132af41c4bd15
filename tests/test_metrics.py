"""OMAT metric and the bootstrap particle filter baseline."""

from __future__ import annotations

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from ttfilter.errors import ConfigurationError
from ttfilter.metrics import (
    BpfConfig,
    OmatResult,
    _linear_sum_assignment,
    _psd_sqrt,
    bpf_track,
    omat,
    systematic_resample,
)
from ttfilter.model import (
    F_SINGLE,
    MeasurementModel,
    MotionModel,
    Scenario,
    build_grid,
    expected_signal,
    simulate,
)
from ttfilter.nll import _PARTICLE_BLOCK, FilterNoiseModel
from ttfilter.tracker import FilterConfig, make_context

from conftest import benchmark_scenario


def brute_force_omat(est: np.ndarray, tru: np.ndarray) -> float:
    c = est.shape[0]
    best = np.inf
    for perm in permutations(range(c)):
        total = sum(np.linalg.norm(est[i] - tru[perm[i]]) for i in range(c))
        best = min(best, total / c)
    return best


def test_omat_zero_for_permuted_sets(rng):
    pts = rng.uniform(0.0, 40.0, size=(5, 2))
    shuffled = pts[rng.permutation(5)]
    res = omat(shuffled, pts)
    assert res.value == 0.0
    np.testing.assert_array_equal(np.sort(res.assignment), np.arange(5))


def test_omat_single_pair_is_euclidean():
    res = omat(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert res.value == pytest.approx(5.0, rel=1e-15)


def test_omat_two_pair_example():
    est = np.array([[0.0, 0.0], [10.0, 0.0]])
    tru = np.array([[0.0, 1.0], [10.0, 2.0]])
    assert omat(est, tru).value == pytest.approx(1.5, rel=1e-15)


def test_omat_symmetric_and_translation_invariant(rng):
    a = rng.uniform(0.0, 40.0, size=(4, 2))
    b = rng.uniform(0.0, 40.0, size=(4, 2))
    assert omat(a, b).value == pytest.approx(omat(b, a).value, rel=1e-12)
    t = rng.uniform(-5.0, 5.0, size=2)
    assert omat(a + t, b + t).value == pytest.approx(omat(a, b).value, rel=1e-12)


def test_omat_single_point_perturbation_bound(rng):
    for _ in range(100):
        c = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 40.0, size=(c, 2))
        b = rng.uniform(0.0, 40.0, size=(c, 2))
        base = omat(a, b).value
        delta = rng.uniform(0.0, 3.0)
        direction = rng.standard_normal(2)
        direction *= delta / np.linalg.norm(direction)
        moved = a.copy()
        moved[0] += direction
        assert abs(omat(moved, b).value - base) <= delta / c + 1e-12


def test_omat_matches_brute_force(rng):
    for _ in range(300):
        c = int(rng.integers(1, 7))
        a = rng.uniform(0.0, 40.0, size=(c, 2))
        b = rng.uniform(0.0, 40.0, size=(c, 2))
        assert omat(a, b).value == pytest.approx(brute_force_omat(a, b), rel=1e-12)


def test_omat_assignment_reconstructs_value(rng):
    a = rng.uniform(0.0, 40.0, size=(5, 2))
    b = rng.uniform(0.0, 40.0, size=(5, 2))
    res = omat(a, b)
    manual = np.mean(
        [np.linalg.norm(a[i] - b[res.assignment[i]]) for i in range(5)]
    )
    assert res.value == pytest.approx(manual, rel=1e-12)
    assert sorted(res.assignment) == list(range(5))


@pytest.mark.parametrize("order", [1.0, 2.0])
def test_omat_assignment_and_value_equal_scipy_linear_sum_assignment(order):
    # omat solves the assignment itself so that the package never imports
    # scipy.optimize; the test alone imports it as the oracle.  Order 2
    # compares the assignment of squared distances, whose ties fall
    # differently, by calling the solver directly.
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(int(order))
    for c in range(1, 10):
        for k in range(60):
            est = rng.uniform(0.0, 40.0, size=(c, 2))
            tru = rng.uniform(0.0, 40.0, size=(c, 2))
            if k % 4 == 1:  # coincident estimates: several optimal assignments
                est[:] = est[0]
            elif k % 4 == 2:  # a lattice: many tied distances
                est, tru = np.round(est / 10.0) * 10.0, np.round(tru / 10.0) * 10.0
            dist = np.linalg.norm(est[:, None, :] - tru[None, :, :], axis=2)
            rows, cols = linear_sum_assignment(dist**order)
            if order == 1.0:
                res = omat(est, tru)
                assert np.array_equal(res.assignment, cols), (c, k)
                assert res.value == float(dist[rows, cols].mean()), (c, k)
            got_rows, got_cols = _linear_sum_assignment(dist**order)
            assert np.array_equal(got_rows, rows), (c, k)
            assert np.array_equal(got_cols, cols), (c, k)


def test_omat_rejects_non_finite_positions():
    est = np.array([[1.0, 2.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="invalid numeric entries"):
        omat(est, np.zeros((2, 2)))


def test_omat_cardinality_mismatch(rng):
    with pytest.raises(ConfigurationError):
        omat(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)))


def test_systematic_resample_uniform_is_identity(rng):
    n = 64
    w = np.full(n, 1.0 / n)
    idx = systematic_resample(w, rng)
    np.testing.assert_array_equal(idx, np.arange(n))


def test_systematic_resample_counts_track_weights(rng):
    n = 1000
    w = rng.uniform(0.1, 1.0, size=n)
    w /= w.sum()
    idx = systematic_resample(w, rng)
    assert idx.shape == (n,)
    assert idx.min() >= 0 and idx.max() < n
    counts = np.bincount(idx, minlength=n)
    np.testing.assert_array_less(np.abs(counts - n * w), 1.0 + 1e-9)


def test_systematic_resample_degenerate_weight(rng):
    w = np.zeros(50)
    w[17] = 1.0
    idx = systematic_resample(w, rng)
    np.testing.assert_array_equal(idx, np.full(50, 17))


class StubGenerator:
    """Stands in for ``np.random.Generator`` with a fixed ``random()``."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def test_systematic_resample_stays_in_range_when_weights_sum_below_one():
    w = np.full(10, 0.1)
    cum = np.cumsum(w)
    assert cum[-1] < 1.0  # 0.9999999999999999
    top = 1.0 - 1e-16
    plain = np.searchsorted(cum, (top + np.arange(10)) / 10)
    assert plain[-1] == 10  # the last position lies past the end
    idx = systematic_resample(w, StubGenerator(top))
    np.testing.assert_array_equal(idx, np.append(plain[:-1], 9))
    # draws that do not reach past the end are the plain searchsorted picks
    for u in (0.0, 0.25, 0.5, 0.999):
        positions = (u + np.arange(10)) / 10
        np.testing.assert_array_equal(
            systematic_resample(w, StubGenerator(u)),
            np.searchsorted(np.cumsum(w), positions),
        )


def test_bpf_config_validation():
    with pytest.raises(ConfigurationError):
        BpfConfig(n_particles=0)


def test_bpf_single_particle_dead_reckons():
    scn = benchmark_scenario(gamma=0.0)
    traj = simulate(scn, 8, np.random.default_rng(2))
    ctx = make_context(scn, FilterConfig(init_spatial_var=0.0, init_velocity_var=0.0))
    ctx = replace(ctx, noise=FilterNoiseModel(alpha=0.0, cross=0.0, vel=0.0))
    rec = bpf_track(traj, ctx, BpfConfig(n_particles=1), np.random.default_rng(3))
    np.testing.assert_allclose(rec.estimates, traj.states[1:, :, :2], atol=1e-9)
    np.testing.assert_allclose(rec.omat, 0.0, atol=1e-9)


def test_bpf_sharp_likelihood_locks_onto_truth():
    grid = build_grid(5, 5, 10.0)
    scn = Scenario(
        grid=grid,
        meas=MeasurementModel(sigma_s2=1e-6),
        motion=MotionModel(gamma=0.01),
        initial_states=np.array([[17.0, 23.0, 0.05, -0.02]]),
    )
    traj = simulate(scn, 10, np.random.default_rng(5))
    ctx = make_context(scn, FilterConfig(init_spatial_var=1.0, init_velocity_var=1e-4))
    rec = bpf_track(traj, ctx, BpfConfig(n_particles=5000), np.random.default_rng(6))
    assert rec.omat[-1] < 0.2
    assert rec.omat[3:].mean() < 0.3


def test_bpf_same_seed_reproducible():
    scn = benchmark_scenario(sigma_s2=0.1)
    traj = simulate(scn, 5, np.random.default_rng(9))
    cfg, ctx = BpfConfig(n_particles=2000), make_context(scn, FilterConfig())
    a = bpf_track(traj, ctx, cfg, np.random.SeedSequence([7, 3, 6]))
    b = bpf_track(traj, ctx, cfg, np.random.SeedSequence([7, 3, 6]))
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.omat, b.omat)
    c = bpf_track(traj, ctx, cfg, np.random.SeedSequence([7, 4, 6]))
    assert not np.array_equal(a.estimates, c.estimates)


def test_bpf_rejects_zero_noise_variance():
    base = benchmark_scenario()
    scn = Scenario(
        grid=base.grid,
        meas=MeasurementModel(sigma_s2=0.0),
        motion=base.motion,
        initial_states=base.initial_states,
    )
    traj = simulate(scn, 2, np.random.default_rng(1))
    with pytest.raises(ConfigurationError):
        bpf_track(
            traj,
            make_context(scn, FilterConfig()),
            BpfConfig(n_particles=10),
            np.random.default_rng(0),
        )


def reference_bpf_track(trajectory, scenario, n_particles, noise, sigma_s2, init_vars, rng):
    """The particle filter as it ran when its configuration held its own copy
    of the TT filter's assumptions: noise model, sigma_s2 override (None: the
    scenario's) and initial variances.  Same draws, same arithmetic."""
    rng = np.random.default_rng(rng)
    grid, meas = scenario.grid, scenario.meas
    sig2 = meas.noise_variances(grid.count)
    if sigma_s2 is not None:
        sig2 = np.broadcast_to(np.asarray(sigma_s2, dtype=float), (grid.count,))
    n, c, t_steps = n_particles, trajectory.n_targets, trajectory.n_steps
    init_sd = np.sqrt(np.array([init_vars[0]] * 2 + [init_vars[1]] * 2))
    mean0 = trajectory.states[0] + rng.standard_normal((c, 4)) * init_sd
    particles = mean0 + rng.standard_normal((n, c, 4)) * init_sd
    chol_vp = _psd_sqrt(noise.V_prime) if np.any(noise.V_prime) else None
    log_w = np.zeros(n)
    estimates = np.empty((t_steps, c, 2))
    covs = np.empty((t_steps, 2 * c, 2 * c))
    omat_vals = np.empty(t_steps)
    for t in range(t_steps):
        moved = particles.reshape(n * c, 4) @ F_SINGLE.T
        if chol_vp is not None:
            moved += rng.standard_normal((n * c, 4)) @ chol_vp.T
        particles = moved.reshape(n, c, 4)
        resid = expected_signal(particles[:, :, :2], grid, meas) - trajectory.frames[t]
        log_w += -0.5 * np.einsum("ns,ns->n", resid, resid / sig2)
        shift = log_w.max()
        if not np.isfinite(shift):
            log_w[:] = 0.0
            shift = 0.0
        w = np.exp(log_w - shift)
        w /= w.sum()
        est = np.einsum("n,ncj->cj", w, particles)
        estimates[t] = est[:, :2]
        diff = particles[:, :, :2].reshape(n, -1) - est[:, :2].ravel()
        covs[t] = (w[:, None] * diff).T @ diff
        if 1.0 / float(w @ w) < 0.5 * n:
            particles = particles[systematic_resample(w, rng)]
            log_w[:] = 0.0
        else:
            log_w -= shift
        omat_vals[t] = omat(estimates[t], trajectory.states[t + 1, :, :2]).value
    return estimates, covs, omat_vals


@pytest.mark.parametrize("n_targets", [1, 4])
@pytest.mark.parametrize("sigma_s2", [None, 0.05])
def test_bpf_through_context_matches_own_copy_of_assumptions(n_targets, sigma_s2):
    scn = benchmark_scenario(sigma_s2=0.1)
    scn = replace(scn, initial_states=scn.initial_states[:n_targets])
    traj = simulate(scn, 6, np.random.default_rng(20 + n_targets))
    fcfg = FilterConfig(alpha=1.0, sigma_s2=sigma_s2, init_spatial_var=4.0)
    ctx = make_context(scn, fcfg)
    seed = np.random.SeedSequence([7, n_targets, 6])
    rec = bpf_track(traj, ctx, BpfConfig(n_particles=500), seed)
    ref = reference_bpf_track(
        traj, scn, 500, FilterNoiseModel(alpha=1.0), sigma_s2,
        (4.0, fcfg.init_velocity_var), seed,
    )
    assert rec.estimates.tobytes() == ref[0].tobytes()
    assert rec.covs.tobytes() == ref[1].tobytes()
    assert rec.omat.tobytes() == ref[2].tobytes()


def test_bpf_with_several_blocks_matches_the_whole_cloud_reference():
    scn = benchmark_scenario(sigma_s2=0.1)
    traj = simulate(scn, 3, np.random.default_rng(22))
    ctx = make_context(scn, FilterConfig())
    seed = np.random.SeedSequence([7, 4, 7])
    n = 2 * _PARTICLE_BLOCK + 5
    rec = bpf_track(traj, ctx, BpfConfig(n_particles=n), seed)
    ref = reference_bpf_track(
        traj, scn, n, FilterNoiseModel(), None,
        (ctx.config.init_spatial_var, ctx.config.init_velocity_var), seed,
    )
    assert rec.estimates.tobytes() == ref[0].tobytes()
    assert rec.covs.tobytes() == ref[1].tobytes()
    assert rec.omat.tobytes() == ref[2].tobytes()
