"""Posterior moment extraction and conditional velocity update."""

from __future__ import annotations

import numpy as np
import pytest

from ttfilter.errors import NumericalError
from ttfilter.moments import (
    EIGEN_FLOOR,
    assemble,
    spatial_moments,
    velocity_moments,
)
from ttfilter.nll import FilterNoiseModel, GaussianBelief, propagate_prior
from ttfilter.quadrature import (
    SigmaPointSet,
    build_sigma_points,
    radial_rule,
    simplex_directions,
)

from conftest import random_spd


def point_set(points: np.ndarray, weights: np.ndarray) -> SigmaPointSet:
    return SigmaPointSet(points=points, weights=weights)


def random_prior(c: int, rng: np.random.Generator):
    belief = GaussianBelief(
        mean=rng.standard_normal(4 * c),
        cov=random_spd(4 * c, rng, scale=0.2),
    )
    return propagate_prior(belief, FilterNoiseModel())


def test_single_point_mass():
    pts = point_set(np.array([[3.0, 4.0]] * 6), np.array([1.0, 0, 0, 0, 0, 0.0]))
    mean, cov = spatial_moments(pts)
    np.testing.assert_array_equal(mean, [3.0, 4.0])
    np.testing.assert_array_equal(cov, np.zeros((2, 2)))


def test_quadratic_fixture_recovers_inverse_hessian(rng):
    m = rng.uniform(-5.0, 5.0, size=8)
    H = random_spd(8, rng, scale=0.5)
    rule = radial_rule(8)
    dirs = simplex_directions(8)

    def nll(points):
        d = points - m
        return 0.5 * np.einsum("ki,ij,kj->k", d, H, d)

    pts = build_sigma_points(m, np.linalg.cholesky(H), rule, dirs, nll)
    mean, cov = spatial_moments(pts)
    np.testing.assert_allclose(mean, m, atol=1e-10)
    target = np.linalg.inv(H)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 1e-10


def test_spatial_covariance_psd_for_random_sets(rng):
    for _ in range(1000):
        k = rng.integers(3, 12)
        pts = rng.standard_normal((k, 4))
        w = rng.uniform(0.1, 1.0, size=k)
        w /= w.sum()
        _, cov = spatial_moments(point_set(pts, w))
        assert np.linalg.eigvalsh(cov).min() >= -1e-12
        np.testing.assert_array_equal(cov, cov.T)


def test_spatial_moments_equal_the_three_operand_form(rng):
    # the two-operand product sums (w_k d_ki) d_kj in the same order
    for k in (3, 12, 144):
        for d in (2, 8, 16):
            for _ in range(20):
                pts = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 2)
                w = rng.uniform(0.0, 1.0, size=k)
                w /= w.sum()
                mean, cov = spatial_moments(point_set(pts, w))
                diff = pts - w @ pts
                ref = np.einsum("k,ki,kj->ij", w, diff, diff)
                assert mean.tobytes() == (w @ pts).tobytes()
                assert cov.tobytes() == (0.5 * (ref + ref.T)).tobytes()


def test_spatial_moments_affine_equivariance(rng):
    pts = rng.standard_normal((10, 4))
    w = rng.uniform(0.1, 1.0, size=10)
    w /= w.sum()
    A = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    m1, c1 = spatial_moments(point_set(pts, w))
    m2, c2 = spatial_moments(point_set(pts @ A.T + b, w))
    np.testing.assert_allclose(m2, A @ m1 + b, atol=1e-12)
    np.testing.assert_allclose(c2, A @ c1 @ A.T, atol=1e-12)


def test_velocity_decoupled_when_cross_is_zero(rng):
    c = 2
    cov = np.zeros((4 * c, 4 * c))
    cov[: 2 * c, : 2 * c] = random_spd(2 * c, rng)
    cov[2 * c :, 2 * c :] = random_spd(2 * c, rng, scale=0.01)
    belief = GaussianBelief(mean=rng.standard_normal(4 * c), cov=cov)
    prior = propagate_prior(belief, FilterNoiseModel(alpha=3.0, cross=0.0, vel=0.03))
    # the propagated cross block F Sigma F^T keeps a vx coupling through the
    # transition, so build the decoupled case directly instead
    from ttfilter.nll import PropagatedPrior

    decoupled = PropagatedPrior(
        mean=prior.mean,
        cov=np.block(
            [
                [prior.cov_xx, np.zeros((2 * c, 2 * c))],
                [np.zeros((2 * c, 2 * c)), prior.cov_vv],
            ]
        ),
        xx_inv=prior.xx_inv,
    )
    mean_x = rng.standard_normal(2 * c)
    cov_xx = random_spd(2 * c, rng)
    m_v, s_vv, s_vx = velocity_moments(decoupled, mean_x, cov_xx)
    np.testing.assert_allclose(m_v, decoupled.mean_v, atol=1e-12)
    np.testing.assert_allclose(s_vv, decoupled.cov_vv, atol=1e-12)
    np.testing.assert_array_equal(s_vx, np.zeros((2 * c, 2 * c)))


def test_velocity_point_posterior_gives_conditional_cov(rng):
    prior = random_prior(2, rng)
    mean_x = rng.standard_normal(4)
    m_v, s_vv, s_vx = velocity_moments(prior, mean_x, np.zeros((4, 4)))
    gain = prior.cov_vx @ prior.xx_inv
    expect = prior.cov_vv - gain @ prior.cov_vx.T
    np.testing.assert_allclose(s_vv, 0.5 * (expect + expect.T), atol=1e-12)
    np.testing.assert_array_equal(s_vx, np.zeros((4, 4)))
    np.testing.assert_allclose(
        m_v, prior.mean_v + gain @ (mean_x - prior.mean_x), atol=1e-12
    )


def test_velocity_summation_form_matches_closed_form(rng):
    c = 2
    prior = random_prior(c, rng)
    k = 40
    pts = rng.standard_normal((k, 2 * c))
    w = rng.uniform(0.1, 1.0, size=k)
    w /= w.sum()
    sp = point_set(pts, w)
    mean_x, cov_xx = spatial_moments(sp)
    m_v, s_vv, s_vx = velocity_moments(prior, mean_x, cov_xx)

    gain = prior.cov_vx @ prior.xx_inv
    shift = prior.mean_v - gain @ prior.mean_x
    cond = prior.cov_vv - gain @ prior.cov_vx.T
    # summation forms averaged over the point posterior
    mv_sum = sum(wk * (shift + gain @ xk) for wk, xk in zip(w, pts))
    svv_sum = cond + sum(
        wk * np.outer(gain @ (xk - mean_x), gain @ (xk - mean_x))
        for wk, xk in zip(w, pts)
    )
    svx_sum = sum(
        wk * np.outer(gain @ xk, xk - mean_x) for wk, xk in zip(w, pts)
    )
    np.testing.assert_allclose(m_v, mv_sum, atol=1e-10)
    np.testing.assert_allclose(s_vv, svv_sum, atol=1e-10)
    np.testing.assert_allclose(s_vx, svx_sum, atol=1e-10)


def test_assemble_zero_and_identity_blocks():
    z = np.zeros((4, 4))
    post = assemble(np.zeros(4), np.zeros(4), z, z, z)
    # flooring lifts the zero matrix onto the floor scale
    np.testing.assert_allclose(post.cov, EIGEN_FLOOR * np.eye(8), atol=1e-18)

    post = assemble(np.zeros(4), np.zeros(4), np.eye(4), np.eye(4), z)
    np.testing.assert_allclose(post.cov, np.eye(8), atol=1e-15)
    np.testing.assert_array_equal(post.mean, np.zeros(8))


def test_assemble_floors_negative_eigenvalues(rng):
    cov_xx = np.diag([1.0, -1e-9, 1.0, 1.0])
    post = assemble(np.zeros(4), np.zeros(4), cov_xx, np.eye(4), np.zeros((4, 4)))
    vals = np.linalg.eigvalsh(post.cov)
    assert vals.min() >= EIGEN_FLOOR * (1.0 - 1e-12)
    assert post.n_targets == 2  # a validated belief


def test_assemble_random_blocks_are_psd(rng):
    for _ in range(200):
        joint = random_spd(8, rng)
        post = assemble(
            rng.standard_normal(4),
            rng.standard_normal(4),
            joint[:4, :4],
            joint[4:, 4:],
            joint[4:, :4],
        )
        assert np.linalg.eigvalsh(post.cov).min() >= EIGEN_FLOOR * (1.0 - 1e-12)
        np.testing.assert_allclose(post.cov, post.cov.T, atol=1e-15)


def test_assemble_rejects_asymmetric_block():
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(NumericalError):
        assemble(np.zeros(4), np.zeros(4), bad, np.eye(4), np.zeros((4, 4)))


def test_assemble_rejects_nan_block():
    blk = np.eye(4)
    blk[2, 2] = np.nan
    with pytest.raises(NumericalError):
        assemble(np.zeros(4), np.zeros(4), blk, np.eye(4), np.zeros((4, 4)))
    with pytest.raises(NumericalError):
        assemble(np.zeros(4), np.zeros(4), np.eye(4), blk, np.zeros((4, 4)))


def test_assemble_symmetry_tolerance_scales_with_the_block():
    # asymmetry up to 1e-8 * max(1, max |entry|) is rounding, beyond it is not
    for scale in (1.0, 1e6):
        blk = scale * np.eye(4)
        blk[0, 1] = 0.9e-8 * scale
        assemble(np.zeros(4), np.zeros(4), blk, np.eye(4), np.zeros((4, 4)))
        blk[0, 1] = 1.1e-8 * scale
        with pytest.raises(NumericalError):
            assemble(np.zeros(4), np.zeros(4), blk, np.eye(4), np.zeros((4, 4)))


def test_posterior_block_layout(rng):
    joint = random_spd(8, rng)
    post = assemble(
        np.arange(4.0),
        np.arange(4.0, 8.0),
        joint[:4, :4],
        joint[4:, 4:],
        joint[4:, :4],
    )
    np.testing.assert_array_equal(post.mean[:4], np.arange(4.0))
    np.testing.assert_array_equal(post.cov[:4, :4], post.cov_xx)
    np.testing.assert_array_equal(post.cov[4:, :4], post.cov_vx)
    np.testing.assert_array_equal(post.cov[:4, 4:], post.cov_vx.T)


@pytest.mark.parametrize("c", [1, 4, 9])
def test_slice_filled_joint_equals_np_block(c):
    # assemble fills the joint by slices; np.block was the reference layout,
    # the eigen-floored result must not move, and the stored joint must be
    # the one re-joined from its own blocks
    rng = np.random.default_rng(c)
    d = 2 * c
    for k in range(20):
        joint = random_spd(2 * d, rng, scale=10.0 ** rng.uniform(-3.0, 1.0))
        if k % 2:  # a matrix the floor has to repair
            vals, vecs = np.linalg.eigh(joint)
            vals[: c] = -1e-3 * vals[-1]
            joint = 0.5 * ((vecs * vals) @ vecs.T + ((vecs * vals) @ vecs.T).T)
        xx, vv, vx = joint[:d, :d], joint[d:, d:], joint[d:, :d]
        mean_x, mean_v = rng.standard_normal(d), rng.standard_normal(d)
        post = assemble(mean_x, mean_v, xx, vv, vx)

        ref = np.block([[xx, vx.T], [vx, vv]])
        ref = 0.5 * (ref + ref.T)
        vals, vecs = np.linalg.eigh(ref)
        if vals.min() < EIGEN_FLOOR:
            ref = (vecs * np.maximum(vals, EIGEN_FLOOR)) @ vecs.T
            ref = 0.5 * (ref + ref.T)
        assert post.cov_xx.tobytes() == ref[:d, :d].tobytes()
        assert post.cov_vv.tobytes() == ref[d:, d:].tobytes()
        assert post.cov_vx.tobytes() == ref[d:, :d].tobytes()
        blocked = np.block([[post.cov_xx, post.cov_vx.T], [post.cov_vx, post.cov_vv]])
        assert post.cov.tobytes() == blocked.tobytes()
        assert post.mean.tobytes() == np.concatenate([mean_x, mean_v]).tobytes()


def reference_assemble(mean_x, mean_v, cov_xx, cov_vv, cov_vx):
    """``assemble`` as it was before the Cholesky pre-check: one ``eigh``
    of every joint, floored when its least eigenvalue is below the floor."""
    d = cov_xx.shape[0]
    joint = np.empty((d + cov_vv.shape[0],) * 2)
    joint[:d, :d] = cov_xx
    joint[:d, d:] = cov_vx.T
    joint[d:, :d] = cov_vx
    joint[d:, d:] = cov_vv
    joint = 0.5 * (joint + joint.T)
    vals, vecs = np.linalg.eigh(joint)
    if vals.min() < EIGEN_FLOOR:
        joint = (vecs * np.maximum(vals, EIGEN_FLOOR)) @ vecs.T
        joint = 0.5 * (joint + joint.T)
    return joint


def test_assemble_equals_the_eigh_path_on_benchmark_posteriors(monkeypatch):
    from ttfilter import config, moments, tracker
    from ttfilter.model import simulate

    seen = []

    def recording(*blocks):
        seen.append(blocks)
        return assemble(*blocks)

    monkeypatch.setattr(tracker, "assemble", recording)
    cfg = {"scenario": {"sigma_s2": 0.1}}
    scenario = config.scenario_from_config(cfg)
    ctx = tracker.make_context(scenario, config.filter_config_from_config(cfg))
    for i in range(3):
        traj = simulate(scenario, 40, np.random.SeedSequence([7, i, 0]))
        tracker.track(traj, ctx, np.random.SeedSequence([7, i, 1]))
    assert len(seen) == 120
    fast, floored = 0, []
    for blocks in seen:
        joint = assemble(*blocks).cov
        assert joint.tobytes() == reference_assemble(*blocks).tobytes()
        if moments._clears_floor(joint):
            fast += 1
        else:
            floored.append(blocks)
    # all but one benchmark posterior took the Cholesky path; the one that
    # did not (track 0, step 32) has a least eigenvalue below the floor, so
    # the eigh path had to floor it
    assert fast == len(seen) - 1
    for mean_x, mean_v, cov_xx, cov_vv, cov_vx in floored:
        joint = np.block([[cov_xx, cov_vx.T], [cov_vx, cov_vv]])
        assert np.linalg.eigvalsh(0.5 * (joint + joint.T))[0] < EIGEN_FLOOR


def test_assemble_still_floors_a_near_singular_joint(rng):
    from ttfilter import moments

    for least in (-1e-9, 0.0, 5e-11, 1e-10, 1.5e-10, 1e-9):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        vals = np.linspace(1.0, 2.0, 8)
        vals[3] = least
        joint = (q * vals) @ q.T
        joint = 0.5 * (joint + joint.T)
        blocks = (joint[:4, :4], joint[4:, 4:], joint[4:, :4])
        got = assemble(np.zeros(4), np.zeros(4), *blocks).cov
        assert got.tobytes() == reference_assemble(None, None, *blocks).tobytes()
        # at or below the floor, the Cholesky check passes the joint to eigh
        assert moments._clears_floor(joint) == (least > EIGEN_FLOOR)
        # floored, up to the rounding of rebuilding a joint of norm 2
        assert np.linalg.eigvalsh(got).min() >= EIGEN_FLOOR - 1e-13
