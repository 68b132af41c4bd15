"""Cubature construction: radial rule, direction lattice, sigma points, polar chart."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from ttfilter.errors import ConfigurationError
from ttfilter.model import R_MIN, build_grid
from ttfilter.quadrature import (
    DirectionSet,
    SigmaPointSet,
    bend,
    build_sigma_points,
    chart_frame,
    inverse_polar,
    near_sensor_pairs,
    radial_rule,
    simplex_directions,
)
from ttfilter.tracker import FilterConfig, make_context

from conftest import benchmark_scenario, polar_transform, random_spd


def quadratic_nll(mean: np.ndarray, hess: np.ndarray):
    def values(points: np.ndarray) -> np.ndarray:
        d = points - mean
        return 0.5 * np.einsum("ki,ij,kj->k", d, hess, d)

    return values


def weighted_moments(pts: SigmaPointSet) -> tuple[np.ndarray, np.ndarray]:
    m = pts.weights @ pts.points
    d = pts.points - m
    return m, np.einsum("k,ki,kj->ij", pts.weights, d, d)


def test_radial_rule_nodes_for_dim8():
    rule = radial_rule(8)
    assert rule.z_minus == pytest.approx(5.0 - math.sqrt(5.0), rel=1e-14)
    assert rule.z_plus == pytest.approx(5.0 + math.sqrt(5.0), rel=1e-14)


def test_radial_rule_weights_closed_form_dim8():
    rule = radial_rule(8)
    s5 = math.sqrt(5.0)
    assert rule.w_minus == pytest.approx(1.2 * (5.0 - s5) / (3.0 - s5), rel=1e-13)
    assert rule.w_plus == pytest.approx(1.2 * (5.0 + s5) / (3.0 + s5), rel=1e-13)


def test_radial_rule_moment_identities():
    rule = radial_rule(8)
    assert rule.w_minus + rule.w_plus == pytest.approx(6.0, rel=1e-14)
    assert rule.w_minus * rule.z_minus + rule.w_plus * rule.z_plus == pytest.approx(
        24.0, rel=1e-14
    )
    for dim in (2, 4, 6, 10, 12):
        r = radial_rule(dim)
        assert r.w_minus + r.w_plus == pytest.approx(math.gamma(dim / 2.0), rel=1e-12)
        assert r.w_minus * r.z_minus + r.w_plus * r.z_plus == pytest.approx(
            math.gamma(dim / 2.0 + 1.0), rel=1e-12
        )


def test_radial_rule_matches_scipy_oracle():
    for dim in (2, 4, 8, 16):
        rule = radial_rule(dim)
        nodes, weights = roots_genlaguerre(2, dim // 2 - 1)
        np.testing.assert_allclose([rule.z_minus, rule.z_plus], nodes, rtol=1e-12)
        np.testing.assert_allclose([rule.w_minus, rule.w_plus], weights, rtol=1e-12)


def test_radial_rule_rejects_bad_dims():
    with pytest.raises(ConfigurationError):
        radial_rule(7)
    with pytest.raises(ConfigurationError):
        radial_rule(0)


def test_directions_count_and_norms():
    dirs = simplex_directions(8)
    assert dirs.count == 72
    np.testing.assert_allclose(
        np.linalg.norm(dirs.directions, axis=1), 1.0, atol=1e-12
    )


def test_directions_offset_vector_dim8():
    # the shift is (sqrt(9) - 1)/8 = 1/4 and keeps the squared length at 2
    q = (math.sqrt(9.0) - 1.0) / 8.0
    assert q == 0.25
    e0_plus_q = np.full(8, q)
    e0_plus_q[0] += 1.0
    assert np.dot(e0_plus_q, e0_plus_q) == pytest.approx(2.0, rel=1e-14)
    dirs = simplex_directions(8)
    np.testing.assert_allclose(
        dirs.directions[56], e0_plus_q / math.sqrt(2.0), atol=1e-15
    )


def test_directions_antipodal_closure():
    dirs = simplex_directions(8).directions
    rows = {tuple(np.round(r, 12)) for r in dirs}
    for r in dirs:
        assert tuple(np.round(-r, 12)) in rows


def test_directions_second_moment_identity():
    for dim, scale in ((4, 5.0), (8, 9.0)):
        th = simplex_directions(dim).directions
        np.testing.assert_allclose(th.T @ th, scale * np.eye(dim), atol=1e-10)


def test_directions_area_weight():
    dirs = simplex_directions(8)
    expect = (2.0 * math.pi) ** 4.0 / (math.gamma(4.0) * 8.0 * 9.0)
    assert dirs.area_weight == pytest.approx(expect, rel=1e-14)


@pytest.fixture(scope="module")
def rule8():
    return radial_rule(8)


@pytest.fixture(scope="module")
def dirs8():
    return simplex_directions(8)


def test_sigma_points_reproduce_gaussian_moments(rule8, dirs8):
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = rng.uniform(-10.0, 10.0, size=8)
        H = random_spd(8, rng, scale=0.5)
        L = np.linalg.cholesky(H)
        pts = build_sigma_points(m, L, rule8, dirs8, quadratic_nll(m, H))
        assert pts.points.shape == (144, 8)
        assert pts.weights.min() >= 0.0
        assert pts.weights.sum() == pytest.approx(1.0, abs=1e-12)
        mean, cov = weighted_moments(pts)
        np.testing.assert_allclose(mean, m, atol=1e-10)
        target = np.linalg.inv(H)
        assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 1e-10


def test_sigma_points_constant_nll_weights(rule8, dirs8):
    m = np.zeros(8)
    L = np.linalg.cholesky(np.eye(8))
    pts = build_sigma_points(m, L, rule8, dirs8, lambda p: np.full(len(p), 3.7))
    j = dirs8.count
    denom = j * (
        rule8.w_minus * math.exp(rule8.z_minus)
        + rule8.w_plus * math.exp(rule8.z_plus)
    )
    np.testing.assert_allclose(
        pts.weights[:j], rule8.w_minus * math.exp(rule8.z_minus) / denom, rtol=1e-12
    )
    np.testing.assert_allclose(
        pts.weights[j:], rule8.w_plus * math.exp(rule8.z_plus) / denom, rtol=1e-12
    )


def test_sigma_points_invariant_to_nll_offset(rule8, dirs8, rng):
    m = rng.uniform(-5.0, 5.0, size=8)
    H = random_spd(8, rng)
    L = np.linalg.cholesky(H)
    base = quadratic_nll(m, H)
    a = build_sigma_points(m, L, rule8, dirs8, base)
    b = build_sigma_points(m, L, rule8, dirs8, lambda p: base(p) + 5000.0)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)


def test_sigma_points_translation_equivariance(rule8, dirs8, rng):
    H = random_spd(8, rng)
    m = rng.uniform(-5.0, 5.0, size=8)
    t = rng.uniform(-3.0, 3.0, size=8)
    L = np.linalg.cholesky(H)
    a = build_sigma_points(m, L, rule8, dirs8, quadratic_nll(m, H))
    b = build_sigma_points(m + t, L, rule8, dirs8, quadratic_nll(m + t, H))
    np.testing.assert_allclose(b.points, a.points + t, atol=1e-12)
    np.testing.assert_allclose(b.weights, a.weights, rtol=1e-9)


def test_sigma_points_permutation_consistency(rule8, dirs8, rng):
    m = rng.uniform(-5.0, 5.0, size=8)
    H = random_spd(8, rng)
    perm = rng.permutation(8)
    P = np.eye(8)[perm]
    L = np.linalg.cholesky(H)
    a = build_sigma_points(m, L, rule8, dirs8, quadratic_nll(m, H))
    Hp = P @ H @ P.T
    mp = P @ m
    Lp = np.linalg.cholesky(Hp)
    b = build_sigma_points(mp, Lp, rule8, dirs8, quadratic_nll(mp, Hp))
    mean_a, cov_a = weighted_moments(a)
    mean_b, cov_b = weighted_moments(b)
    np.testing.assert_allclose(mean_b, P @ mean_a, atol=1e-10)
    np.testing.assert_allclose(cov_b, P @ cov_a @ P.T, atol=1e-10)


def test_polar_transform_axis_cases():
    sensor = np.array([2.0, -1.0])
    np.testing.assert_allclose(
        polar_transform(sensor + [3.0, 0.0], sensor), [3.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        polar_transform(sensor + [0.0, 3.0], sensor),
        [3.0, 3.0 * math.pi / 2.0],
        rtol=1e-15,
    )


def test_polar_round_trip_off_branch_cut(rng):
    sensor = np.array([5.0, 7.0])
    for _ in range(1000):
        r = rng.uniform(0.1, 50.0)
        ang = rng.uniform(-math.pi + 1e-6, math.pi - 1e-6)
        p = sensor + r * np.array([math.cos(ang), math.sin(ang)])
        back = inverse_polar(polar_transform(p, sensor), sensor)
        np.testing.assert_allclose(back, p, atol=1e-12 * max(1.0, r))


def test_near_sensor_pairs_gating():
    grid = build_grid(5, 5, 10.0)
    positions = np.array([[20.5, 20.0], [5.0, 5.0]])
    pairs = near_sensor_pairs(positions, grid, threshold=2.0)
    assert pairs == [(0, 12)]
    assert near_sensor_pairs(positions[1:], grid, threshold=2.0) == []
    # on the sensor the chart is singular: the target stays Cartesian
    on = np.array([[20.0, 20.0], [30.0 + 1e-7, 10.0], [30.0 + 2e-6, 10.0]])
    assert near_sensor_pairs(on, grid, threshold=2.0) == [(2, 8)]
    assert near_sensor_pairs(np.array([[np.nan, 20.0], [np.inf, 1.0]]), grid, 2.0) == []


def test_near_sensor_pairs_match_the_distance_table():
    # the lattice rounding finds what a full (C, S) distance table finds,
    # also outside the grid and across the clamped edges
    grid = build_grid(4, 6, 7.5)
    rng = np.random.default_rng(9)
    found = 0
    for _ in range(3000):
        pos = rng.uniform(-12.0, 50.0, size=(4, 2))
        pos[0] = grid.positions[rng.integers(grid.count)] + rng.normal(0.0, 1.5, 2)
        d = np.linalg.norm(pos[:, None, :] - grid.positions, axis=2)
        expect = [(c, int(d[c].argmin())) for c in range(4) if d[c].min() < 2.0]
        assert near_sensor_pairs(pos, grid, threshold=2.0) == expect
        found += len(expect)
    assert found > 1000


@pytest.mark.parametrize(
    "bearing", [0.0, math.pi / 2.0, math.pi - 1e-9, -math.pi + 1e-9]
)
def test_sigma_points_exact_on_surface_gaussian_in_polar_chart(rule8, dirs8, bearing):
    # target 0 sits 1.5 m from the sensor at the given bearing; the surface
    # is quadratic in that target's (range, arc length) chart, with the
    # angle measured from the bearing, and in the other six coordinates.
    # Near +-pi the bent points straddle the sensor's -x ray.
    rng = np.random.default_rng(5)
    sensor = np.array([20.0, 20.0])
    m = np.concatenate(
        [sensor + 1.5 * np.array([math.cos(bearing), math.sin(bearing)]),
         rng.uniform(5.0, 35.0, size=6)]
    )

    def chart(points: np.ndarray) -> np.ndarray:
        out = np.array(points, dtype=float)
        out[..., :2] = polar_transform(out[..., :2], sensor, bearing)
        return out

    y0 = chart(m)
    h_chart = random_spd(8, rng, scale=15.0)  # chart sd below 0.1 m

    def nll(points: np.ndarray) -> np.ndarray:
        d = chart(points) - y0
        return 0.5 * np.einsum("ki,ij,kj->k", d, h_chart, d)

    # the chart's Jacobian at m: rows e_r and e_t for target 0, identity after
    jac = np.eye(8)
    jac[:2, :2] = [[math.cos(bearing), math.sin(bearing)],
                   [-math.sin(bearing), math.cos(bearing)]]
    chol = np.linalg.cholesky(jac.T @ h_chart @ jac)
    pts = build_sigma_points(m, chol, rule8, dirs8, nll, [chart_frame(m, 0, 12, sensor)])

    j = dirs8.count
    np.testing.assert_allclose(pts.weights[:j], pts.weights[0], rtol=1e-10)
    np.testing.assert_allclose(pts.weights[j:], pts.weights[j], rtol=1e-10)
    y = chart(pts.points)
    mean = pts.weights @ y
    d = y - mean
    cov = np.einsum("k,ki,kj->ij", pts.weights, d, d)
    assert np.linalg.norm(mean - y0) / np.linalg.norm(y0) < 1e-10
    target = np.linalg.inv(h_chart)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 1e-10
    # the other targets' coordinates are placed exactly as without the chart
    plain = build_sigma_points(m, chol, rule8, dirs8, nll)
    np.testing.assert_array_equal(pts.points[:, 2:], plain.points[:, 2:])


def bend_one(points: np.ndarray, center: np.ndarray, sensor: np.ndarray) -> np.ndarray:
    """Plane points (..., 2) near one target's ``center`` carried onto the
    chart about ``sensor``, the frame read at ``center``: the per-target
    form ``quadrature.bend`` had before it took frames built once per
    iterate, kept as its oracle."""
    rel = center - sensor
    r0 = math.hypot(rel[0], rel[1])
    e_r = rel / r0
    bearing = math.atan2(rel[1], rel[0])
    d = points - center
    uv = np.empty(d.shape)
    uv[..., 0] = np.maximum(r0 + d @ e_r, R_MIN)
    uv[..., 1] = d[..., 1] * e_r[0] - d[..., 0] * e_r[1]
    return inverse_polar(uv, sensor, bearing)


def test_bend_of_two_charted_targets_equals_the_per_target_oracle_bit_for_bit(
    rule8, dirs8
):
    # targets 0 and 2 each sit within the chart radius of their own sensor,
    # so one iterate's chart holds two frames; a line-search trial point and
    # a 144-point sigma set are bent as the oracle bends each target
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    grid = scn.grid
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = rng.uniform(2.0, 38.0, size=8)
        for c, s in ((0, 6), (2, 18)):
            r, phi = rng.uniform(0.05, 1.95), rng.uniform(-math.pi, math.pi)
            x[2 * c : 2 * c + 2] = grid.positions[s] + r * np.array(
                [math.cos(phi), math.sin(phi)]
            )
        frames = ctx.chart(x)
        pairs = near_sensor_pairs(x, grid, 2.0)
        assert [(f.target, f.sensor) for f in frames] == pairs
        assert {(0, 6), (2, 18)} <= set(pairs)

        def oracle(points: np.ndarray) -> np.ndarray:
            out = points.copy()
            for c, s in pairs:
                out[..., 2 * c : 2 * c + 2] = bend_one(
                    points[..., 2 * c : 2 * c + 2], x[2 * c : 2 * c + 2],
                    grid.positions[s],
                )
            return out

        trial = x + rng.uniform(0.1, 1.0) * rng.normal(0.0, 0.5, size=8)
        expect = oracle(trial)
        assert bend(trial, x, frames).tobytes() == expect.tobytes()

        hess = random_spd(8, rng, scale=rng.uniform(1.0, 100.0))
        chol = np.linalg.cholesky(hess)
        nll = quadratic_nll(x, hess)
        plain = build_sigma_points(x, chol, rule8, dirs8, nll)
        charted = build_sigma_points(x, chol, rule8, dirs8, nll, frames)
        assert charted.points.shape == (144, 8)
        assert charted.points.tobytes() == oracle(plain.points).tobytes()


def test_direct_lapack_solves_equal_the_scipy_wrappers():
    # build_sigma_points calls dtrtrs and nll.propagate_prior inverts the
    # spatial block with dpotrs; both must give what solve_triangular and
    # cho_solve give for the C-ordered factor numpy's Cholesky returns
    import scipy.linalg
    from scipy.linalg.lapack import dpotrs

    rng = np.random.default_rng(8)
    for d in (2, 8, 18):
        rule, dirs = radial_rule(d), simplex_directions(d)
        for _ in range(10):
            H = random_spd(d, rng, scale=10.0 ** rng.uniform(-2.0, 3.0))
            L = np.linalg.cholesky(H)
            m = rng.uniform(0.0, 40.0, size=d)
            nll = quadratic_nll(m, H)
            spread = scipy.linalg.solve_triangular(
                L, dirs.directions.T, lower=True, trans="T"
            ).T
            pts = np.vstack(
                [
                    m + math.sqrt(2.0 * rule.z_minus) * spread,
                    m + math.sqrt(2.0 * rule.z_plus) * spread,
                ]
            )
            got = build_sigma_points(m, L, rule, dirs, nll)
            assert got.points.tobytes() == pts.tobytes()

            expect = scipy.linalg.cho_solve((L, True), np.eye(d))
            assert dpotrs(L, np.eye(d), lower=1)[0].tobytes() == expect.tobytes()
