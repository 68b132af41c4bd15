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
