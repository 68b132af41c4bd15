"""Projected Newton minimizer on quadratic and signal-fit objectives."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from scipy.linalg.lapack import dpotrf, dpotrs

from ttfilter import config, optimize, tracker
from ttfilter.errors import ConfigurationError, NumericalError
from ttfilter.model import MeasurementModel, build_grid, expected_signal, simulate
from ttfilter.nll import (
    NllReport,
    combined_objective,
    measurement_nll,
    measurement_objective,
    propagate_prior,
)
from ttfilter.quadrature import chart_frame, inverse_polar
from ttfilter.optimize import (
    LEVENBERG_SCALE,
    WARMUP_ITERATIONS,
    BoxConstraints,
    _shifted_solve,
    box_from_grid,
    minimize,
)

from conftest import active_set, random_spd

EPS = np.finfo(float).eps


def quadratic(H: np.ndarray, m: np.ndarray):
    def fun(x: np.ndarray) -> NllReport:
        d = x - m
        return NllReport(value=0.5 * d @ H @ d, grad=H @ d, hess=H.copy())

    return fun


def wide_box(n: int) -> BoxConstraints:
    return BoxConstraints(lower=np.full(n, -100.0), upper=np.full(n, 100.0))


def test_box_validation_and_clip():
    box = BoxConstraints(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 2.0]))
    np.testing.assert_array_equal(box.clip(np.array([-1.0, 3.0])), [0.0, 2.0])
    assert np.array_equal(box.clip(np.array([0.5, 0.5])), [0.5, 0.5])
    assert not np.array_equal(box.clip(np.array([1.5, 0.5])), [1.5, 0.5])
    with pytest.raises(ConfigurationError):
        BoxConstraints(lower=np.array([1.0]), upper=np.array([1.0]))
    # the bounds a fit treats as "on the bound" are shrunk once, per box
    np.testing.assert_array_equal(box.inner_lower, 1e-10 * (box.upper - box.lower))
    np.testing.assert_array_equal(box.inner_upper, box.upper - 1e-10 * (box.upper - box.lower))


def test_box_from_grid_pads_by_one_spacing(grid55):
    box = box_from_grid(grid55, n_targets=2)
    np.testing.assert_array_equal(box.lower, np.full(4, -10.0))
    np.testing.assert_array_equal(box.upper, np.full(4, 50.0))


def test_quadratic_interior_converges_fast(rng):
    H = random_spd(6, rng)
    m = rng.uniform(-5.0, 5.0, size=6)
    res = minimize(quadratic(H, m), np.zeros(6), wide_box(6))
    assert res.converged
    assert res.iterations <= 2
    np.testing.assert_allclose(res.x, m, atol=1e-8)
    assert active_set(res.x, wide_box(6)).size == 0


def test_quadratic_constrained_matches_qp_oracle(rng):
    # 2-D case solvable by enumerating active sets of the KKT system
    for _ in range(25):
        H = random_spd(2, rng)
        m = rng.uniform(1.5, 4.0, size=2)  # minimizer outside the unit box
        box = BoxConstraints(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))

        best_val, best_x = np.inf, None
        for fixed in itertools.product([None, 0.0, 1.0], repeat=2):
            free = [i for i, f in enumerate(fixed) if f is None]
            x = np.array([0.0 if f is None else f for f in fixed])
            if free:
                sub = H[np.ix_(free, free)]
                rhs = H[np.ix_(free, [i for i in range(2) if i not in free])]
                fixed_vals = x[[i for i in range(2) if i not in free]]
                b = H @ m
                x[free] = np.linalg.solve(
                    sub, b[free] - (rhs @ fixed_vals if fixed_vals.size else 0.0)
                )
            if np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12):
                d = x - m
                v = 0.5 * d @ H @ d
                if v < best_val:
                    best_val, best_x = v, np.clip(x, 0.0, 1.0)

        res = minimize(quadratic(H, m), np.full(2, 0.5), box)
        np.testing.assert_allclose(res.x, best_x, atol=1e-6)
        assert np.array_equal(box.clip(res.x), res.x)


def test_active_set_reported_on_boundary():
    H = np.eye(2)
    m = np.array([5.0, 0.3])
    box = BoxConstraints(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
    res = minimize(quadratic(H, m), np.full(2, 0.5), box)
    np.testing.assert_allclose(res.x, [1.0, 0.3], atol=1e-8)
    assert 0 in active_set(res.x, box).tolist()


def test_noise_free_signal_fit_recovers_target(rng):
    grid = build_grid(2, 2, 10.0)
    meas = MeasurementModel()
    truth = np.array([[3.7, 6.2]])
    frame = expected_signal(truth, grid, meas)

    fun = measurement_objective(frame, grid, meas)
    box = box_from_grid(grid, n_targets=1)
    res = minimize(fun, np.array([5.0, 5.0]), box)
    assert res.converged
    # the result carries the Hessian of its final evaluation, at res.x
    np.testing.assert_array_equal(res.report.hess, fun(res.x).hess)

    # coarse grid search oracle: best 0.01 m cell should agree
    xs = np.arange(3.0, 7.01, 0.01)
    vals = np.array(
        [[fun(np.array([a, b])).value for b in xs] for a in xs]
    )
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    np.testing.assert_allclose(res.x, [xs[i], xs[j]], atol=1e-2)
    np.testing.assert_allclose(res.x, truth.ravel(), atol=1e-3)


def test_objective_never_increases(grid55, meas_default, rng):
    frame = rng.uniform(0.5, 4.0, size=25)
    values = []

    def fun(x):
        rep = measurement_nll(x, frame, grid55, meas_default)
        values.append(rep.value)
        return rep

    box = box_from_grid(grid55, n_targets=2)
    x0 = rng.uniform(5.0, 35.0, size=4)
    res = minimize(fun, x0, box)
    # accepted iterates only decrease; the trace also holds rejected trial
    # points, so compare the start against the final value
    assert res.value <= values[0] + 1e-12
    assert np.array_equal(box.clip(res.x), res.x)


def test_restart_from_optimum_is_immediate(rng):
    H = random_spd(4, rng)
    m = rng.uniform(-3.0, 3.0, size=4)
    box = wide_box(4)
    first = minimize(quadratic(H, m), np.zeros(4), box)
    again = minimize(quadratic(H, m), first.x, box)
    assert again.converged
    assert again.iterations <= 1
    np.testing.assert_allclose(again.x, first.x, atol=1e-10)


def test_start_outside_box_is_clipped_first():
    H = np.eye(2)
    m = np.array([0.5, 0.5])
    box = BoxConstraints(lower=np.zeros(2), upper=np.ones(2))
    res = minimize(quadratic(H, m), np.array([50.0, -50.0]), box)
    np.testing.assert_allclose(res.x, m, atol=1e-8)


def test_nonfinite_start_raises():
    box = wide_box(2)

    def fun(x):
        return NllReport(value=np.nan, grad=np.zeros(2), hess=np.eye(2))

    with pytest.raises(NumericalError):
        minimize(fun, np.zeros(2), box)


def test_iteration_cap_respected(rng, monkeypatch):
    H = random_spd(3, rng)
    m = rng.uniform(-3.0, 3.0, size=3)
    monkeypatch.setattr(optimize, "MAX_ITER", 1)
    res = minimize(quadratic(H, m), np.zeros(3), wide_box(3))
    assert res.iterations <= 1


def test_rejected_line_search_trials_build_no_derivatives(grid55, meas_default):
    # the objective counts value evaluations and derivative builds; only the
    # start and the accepted iterates may have their derivatives read
    frame = np.random.default_rng(3).uniform(0.5, 4.0, size=25)
    evals, grads, hessians = [0], [0], [0]

    def fun(x):
        evals[0] += 1
        rep = measurement_nll(x, frame, grid55, meas_default)

        def grad():
            grads[0] += 1
            return rep.grad

        def hess():
            hessians[0] += 1
            return rep.hess

        return NllReport(rep.value, grad, hess)

    box = box_from_grid(grid55, n_targets=2)
    res = minimize(fun, np.array([8.0, 31.0, 33.0, 6.0]), box)
    assert evals[0] > res.iterations + 1, "the fit must backtrack at least once"
    assert grads[0] == res.iterations + 1
    assert grads[0] < evals[0]
    # one Hessian per Newton direction; the final iterate's is built when
    # read, unless the fit stopped on the Newton decrement, whose direction
    # at the final iterate already read it
    proj_grad = res.x - box.clip(res.x - res.report.grad)
    on_decrement = float(np.abs(proj_grad).max()) > optimize.GRAD_TOL
    assert res.converged and on_decrement
    assert hessians[0] == res.iterations + on_decrement
    res.report.hess
    assert hessians[0] == res.iterations + 1


def reference_shifted_solve(hess: np.ndarray, rhs: np.ndarray):
    """The plain doubling loop: try Cholesky at shifts 0, lam0, 2 lam0, ...

    Each try factors with ``dpotrf`` and solves with ``dpotrs`` on that
    factor.  Returns the direction and the shifted matrix it solves.
    """
    n = hess.shape[0]
    lam = 0.0
    lam0 = max(LEVENBERG_SCALE * abs(np.trace(hess)) / n, 1e-12)
    shifted = hess
    for _ in range(80):
        factor, info = dpotrf(shifted, lower=1, clean=0)
        if info == 0:
            d, info = dpotrs(factor, rhs, lower=1)
            if info == 0 and np.all(np.isfinite(d)):
                return d, shifted
        lam = lam0 if lam == 0.0 else 2.0 * lam
        shifted = hess.copy()
        shifted.flat[:: n + 1] += lam
    raise NumericalError("Newton system unsolvable even with diagonal shift")


def symmetric_with_spectrum(eigs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    h = (q * eigs) @ q.T
    return 0.5 * (h + h.T)


def test_shifted_solve_matches_plain_doubling_loop():
    rng = np.random.default_rng(17)
    shifted_cases = 0
    for n in range(2, 9):
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-4.0, 4.0)
            pos = scale * rng.uniform(0.1, 10.0, size=n)
            a = rng.standard_normal((n, n))
            cases = {
                "pd": random_spd(n, rng, scale=scale),
                "mild": symmetric_with_spectrum(
                    np.append(pos[1:], -scale * 10.0 ** rng.uniform(-7.0, -2.0)), rng
                ),
                "strong": scale * (a + a.T),
                "negative trace": symmetric_with_spectrum(-pos, rng),
            }
            rhs = rng.standard_normal(n)
            for kind, hess in cases.items():
                before = hess.copy()
                d, shift = _shifted_solve(hess, rhs)
                np.testing.assert_array_equal(hess, before)  # input untouched
                ref, shifted = reference_shifted_solve(hess, rhs)
                assert np.array_equal(d, ref), (n, kind)
                # the shift reported is the one the accepted system carries
                assert (shift == 0.0) == (shifted is hess), (n, kind)
                again = hess.copy()
                again.flat[:: n + 1] += shift
                assert np.array_equal(again, shifted), (n, kind)
                # the direction solves the accepted system as well as numpy's
                # LU solve does: both forward errors are within
                # 10 n eps cond, so they differ by at most twice that
                exact = np.linalg.solve(shifted, rhs)
                tol = 20 * n * EPS * np.linalg.cond(shifted)
                err = np.linalg.norm(d - exact)
                assert err <= tol * np.linalg.norm(exact), (n, kind)
                shifted_cases += kind != "pd"
    assert shifted_cases > 500


def test_shifted_solve_gives_up_after_eighty_tries():
    # trace 0 starts the shift at 1e-12; 79 doublings stay below 1e12
    hess = np.diag([1e12, -1e12])
    rhs = np.ones(2)
    with pytest.raises(NumericalError):
        reference_shifted_solve(hess, rhs)
    with pytest.raises(NumericalError):
        _shifted_solve(hess, rhs)
    # here only the last shift, 1e-12 * 2**78 = 3.0e11, is large enough
    hess = np.diag([2e11, -2e11])
    ref, _ = reference_shifted_solve(hess, rhs)
    assert np.array_equal(_shifted_solve(hess, rhs)[0], ref)


@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_nan_hessian_raises_numerical_error(where):
    hess = random_spd(3, np.random.default_rng(5))
    hess[where] = hess[where[::-1]] = np.nan
    with pytest.raises(NumericalError):
        _shifted_solve(hess, np.ones(3))

    def fun(x):
        return NllReport(value=float(x @ x), grad=2.0 * x, hess=hess)

    with pytest.raises(NumericalError):
        minimize(fun, np.ones(3), wide_box(3))


def acceptance_steps(n_steps: int = 8):
    """Priors and frames of one track of the acceptance scenario (5x5 grid,
    4 targets, sigma^2 = 0.1), filtered by the default TT filter."""
    cfg = {"scenario": {"sigma_s2": 0.1}}
    scenario = config.scenario_from_config(cfg)
    ctx = tracker.make_context(scenario, config.filter_config_from_config(cfg))
    traj = simulate(scenario, n_steps, np.random.SeedSequence([7, 0, 0]))
    belief = tracker.init_belief(
        "random_around_truth", ctx.config, scenario.grid,
        np.random.default_rng(3), truth_state=traj.states[0],
    )
    for frame in traj.frames:
        yield ctx, propagate_prior(belief, ctx.noise), frame
        belief = tracker.step(belief, frame, ctx).posterior.belief()


def test_gauss_newton_plus_prior_factors_unshifted_on_acceptance_geometry():
    rng = np.random.default_rng(2)
    tried = 0
    for ctx, prior, frame in acceptance_steps():
        grid = ctx.scenario.grid
        points = [
            rng.uniform(ctx.box.lower, ctx.box.upper, size=(40, 8)),
            grid.positions[rng.integers(0, grid.count, size=(10, 4))].reshape(10, 8),
            np.tile(rng.uniform(0.0, 40.0, size=(10, 2)), 4),  # coincident targets
        ]
        objective = combined_objective(frame, grid, ctx.meas, prior)
        for x in np.concatenate(points):
            rep = objective(x)
            assert dpotrf(rep.gauss_newton, lower=1, clean=0)[1] == 0
            d, shift = _shifted_solve(rep.gauss_newton, -rep.grad)
            ref, shifted = reference_shifted_solve(rep.gauss_newton, -rep.grad)
            assert shifted is rep.gauss_newton and shift == 0.0 and np.array_equal(d, ref)
            tried += 1
    assert tried == 8 * 60


def test_main_fit_returns_exact_hessian_also_inside_warm_up(monkeypatch):
    ctx, prior, frame = list(acceptance_steps(2))[1]
    grid, meas = ctx.scenario.grid, ctx.meas

    fun = combined_objective(frame, grid, meas, prior)
    far = minimize(fun, prior.mean_x, ctx.box)
    # a start 1e-6 from a point fitted to a much tighter tolerance, from
    # which the Gauss-Newton warm-up meets the default gradient tolerance;
    # ``far`` may stop on the decrement a Newton step of H-norm up to 1e-3
    # short of that point
    with monkeypatch.context() as m:
        m.setattr(optimize, "GRAD_TOL", 1e-11)
        tight = minimize(fun, far.x, ctx.box)
    near = minimize(fun, tight.x + 1e-6, ctx.box)
    assert far.iterations >= WARMUP_ITERATIONS and far.converged
    assert 0 < near.iterations < WARMUP_ITERATIONS and near.converged
    for res in (far, near):
        exact = fun(res.x)
        assert res.report.hess.tobytes() == exact.hess.tobytes()
        assert res.report.hess.tobytes() != exact.gauss_newton.tobytes()


def evaluation_points(fun, x0, box, warmup, monkeypatch):
    points = []

    def spy(x):
        points.append(x.copy())
        return fun(x)

    monkeypatch.setattr(optimize, "WARMUP_ITERATIONS", warmup)
    res = minimize(spy, x0, box)
    return np.array(points), res


def test_measurement_only_fit_runs_exact_newton_from_the_start(monkeypatch):
    ctx, prior, frame = next(acceptance_steps())
    grid, meas, box = ctx.scenario.grid, ctx.meas, ctx.box
    offsets = np.array([3.0, 1.0, -2.0, 4.0, 1.0, -3.0, -4.0, -1.0])
    x0 = np.tile(grid.center, 4) + offsets

    meas_fun = measurement_objective(frame, grid, meas)
    warm, res = evaluation_points(meas_fun, x0, box, WARMUP_ITERATIONS, monkeypatch)
    exact, _ = evaluation_points(meas_fun, x0, box, 0, monkeypatch)
    assert res.iterations > WARMUP_ITERATIONS
    assert warm.shape == exact.shape and warm.tobytes() == exact.tobytes()

    # the same comparison does see the warm-up on the prior-anchored objective
    main_fun = combined_objective(frame, grid, meas, prior)
    warm, _ = evaluation_points(main_fun, x0, box, WARMUP_ITERATIONS, monkeypatch)
    exact, _ = evaluation_points(main_fun, x0, box, 0, monkeypatch)
    assert warm.shape != exact.shape or warm.tobytes() != exact.tobytes()


# The minimizer as it stood before its per-iteration bookkeeping was cut,
# with the Newton-decrement stop: every floating-point operation of
# ``minimize`` must stay the same, so this reference pins it bit for bit.
# ``branches`` counts which paths ran.


def reference_line_search(fun, box, x, report, direction):
    t = 1.0
    while t >= optimize.MIN_STEP:
        xt = box.clip(x + t * direction)
        move = xt - x
        if not np.any(move):
            return None
        rt = fun(xt)
        if not np.isfinite(rt.value):
            t *= 0.5
            continue
        if rt.value <= report.value + optimize.ARMIJO * float(report.grad @ move):
            return xt, rt
        t *= 0.5
    return None


def reference_minimize(fun, x0, box, branches=None):
    branches = {} if branches is None else branches

    def hit(name):
        branches[name] = branches.get(name, 0) + 1

    x = box.clip(np.asarray(x0, dtype=float).ravel())
    report = fun(x)
    if not np.isfinite(report.value):
        raise NumericalError("objective is not finite at the starting point")

    bound_eps = 1e-10 * (box.upper - box.lower)
    iterations = 0
    converged = False
    while iterations < optimize.MAX_ITER:
        g = report.grad
        proj_grad = x - box.clip(x - g)
        if float(np.abs(proj_grad).max()) <= optimize.GRAD_TOL:
            converged = True
            break

        at_lo = x <= box.lower + bound_eps
        at_hi = x >= box.upper - bound_eps
        active = (at_lo & (g > 0.0)) | (at_hi & (g < 0.0))
        free = ~active
        direction = np.zeros_like(x)
        if (at_lo | at_hi).any():
            hit("on bound")
        if free.any():
            curv = report.gauss_newton if iterations < WARMUP_ITERATIONS else None
            exact = curv is None
            if exact:
                curv = report.hess
            if free.all():
                direction, shift = _shifted_solve(curv, -g)
            else:
                hit("reduced solve")
                idx = np.flatnonzero(free)
                direction[idx], shift = _shifted_solve(curv[np.ix_(idx, idx)], -g[idx])
            # the Newton decrement, read only off an unshifted exact-Newton factor
            if exact and shift == 0.0 and -float(g @ direction) <= optimize.GRAD_TOL:
                hit("decrement stop")
                converged = True
                break
            if exact and shift > 0.0 and -float(g @ direction) <= optimize.GRAD_TOL:
                hit("small shifted decrement")
        else:
            hit("nothing free")

        step = reference_line_search(fun, box, x, report, direction)
        if step is None and free.any():
            hit("steepest descent")
            step = reference_line_search(fun, box, x, report, -g)
        if step is None:
            hit("stalled")
            break
        x, report = step
        iterations += 1

    return optimize.OptimizeResult(
        x=x,
        value=report.value,
        report=report,
        iterations=iterations,
        converged=converged,
    )


def assert_same_fit(fun, x0, box, branches=None):
    """``minimize`` and the reference evaluate the same points and agree bit for bit."""
    seen = ([], [])

    def spy(k):
        def wrapped(x):
            rep = fun(x)
            seen[k].append((x.tobytes(), np.float64(rep.value).tobytes()))
            return rep

        return wrapped

    got = minimize(spy(0), x0, box)
    ref = reference_minimize(spy(1), x0, box, branches)
    assert seen[0] == seen[1]
    assert got.x.tobytes() == ref.x.tobytes()
    assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
    assert got.report.hess.tobytes() == ref.report.hess.tobytes()
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged
    return got


def test_minimize_equals_reference_on_acceptance_fits(monkeypatch):
    fits = 0
    branches = {}
    for ctx, prior, frame in acceptance_steps(6):
        grid, meas, box = ctx.scenario.grid, ctx.meas, ctx.box
        main = combined_objective(frame, grid, meas, prior)
        assert_same_fit(main, prior.mean_x, box, branches=branches)
        # measurement-only fits run exact Newton from a displaced start
        alone = measurement_objective(frame, grid, meas)
        assert_same_fit(alone, prior.mean_x + 2.0, box, branches=branches)
        # a capped fit stops at the same point
        with monkeypatch.context() as m:
            m.setattr(optimize, "MAX_ITER", 2)
            assert_same_fit(main, prior.mean_x, box)
        fits += 3
    assert fits == 18
    assert branches.get("decrement stop", 0) > 0


def test_minimize_equals_reference_on_bounds_and_stalls():
    rng = np.random.default_rng(11)
    branches = {}
    box = BoxConstraints(lower=np.zeros(3), upper=np.ones(3))
    for _ in range(30):
        # minimizer outside the unit box: the iterates sit on its faces
        H = random_spd(3, rng)
        m = rng.uniform(-1.5, 2.5, size=3)
        assert_same_fit(quadratic(H, m), rng.uniform(0.0, 1.0, size=3), box,
                        branches=branches)
        # an indefinite surface takes Levenberg-shifted directions to a corner
        a = rng.standard_normal((3, 3))
        assert_same_fit(quadratic(a + a.T, m), rng.uniform(0.0, 1.0, size=3), box,
                        branches=branches)

    # every coordinate pinned with an outward gradient: nothing is free
    wide = BoxConstraints(lower=np.zeros(2), upper=np.full(2, 1e5))
    res = assert_same_fit(quadratic(np.eye(2), np.full(2, -1.0)), np.full(2, 5e-6),
                          wide, branches=branches)
    assert not res.converged and res.iterations == 0

    # the Newton direction runs straight into a NaN region (x1 < 10 x0), so
    # its line search fails and steepest descent (along (1, 100)) takes over
    def walled(x):
        rep = quadratic(np.diag([1.0, 100.0]), np.ones(2))(x)
        if x[1] < 10.0 * x[0]:
            return NllReport(float("nan"), rep.grad, rep.hess)
        return rep

    assert_same_fit(walled, np.zeros(2), BoxConstraints(np.full(2, -5.0), np.full(2, 5.0)),
                    branches=branches)
    for name in ("on bound", "reduced solve", "nothing free", "steepest descent", "stalled"):
        assert branches.get(name, 0) > 0, name


def test_minimize_equals_reference_with_non_finite_trials():
    # trials land on NaN, +inf and -inf; each halves the step
    rng = np.random.default_rng(12)
    hits = {"nan": 0, "+inf": 0, "-inf": 0}

    def bumpy(H, m):
        base = quadratic(H, m)

        def fun(x):
            rep = base(x)
            key = int(np.floor(7.0 * x.sum())) % 5
            if key in (1, 2, 3) and 0.2 < x[0] < 0.9:
                kind = ("nan", "+inf", "-inf")[key - 1]
                hits[kind] += 1
                bad = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[kind]
                return NllReport(bad, rep.grad, rep.hess)
            return rep

        return fun

    box = BoxConstraints(lower=np.full(2, -2.0), upper=np.full(2, 2.0))
    for _ in range(40):
        H = random_spd(2, rng)
        m = rng.uniform(-1.0, 1.5, size=2)
        x0 = rng.uniform(-1.0, 0.0, size=2)
        assert_same_fit(bumpy(H, m), x0, box)
    assert min(hits.values()) > 0, hits

    def bad_start(x):
        return NllReport(-np.inf, np.zeros(2), np.eye(2))

    for impl in (minimize, reference_minimize):
        with pytest.raises(NumericalError):
            impl(bad_start, np.zeros(2), box)


# The near-sensor chart (``minimize(..., chart=...)``): the main fit takes
# its exact-Newton steps with each target near a sensor in (range, arc
# length) about that sensor.


def fd_chart_derivatives(fun, x, c, sensor, bearing, h):
    """Central differences of fun(x with target c at inverse_polar(u, v)) at
    (u, v) = (range of target c, 0): gradient, and Hessian from values."""
    r0 = float(np.hypot(*(x[2 * c : 2 * c + 2] - sensor)))

    def composed(y):
        z = y.copy()
        z[2 * c : 2 * c + 2] = inverse_polar(y[2 * c : 2 * c + 2], sensor, bearing)
        return fun(z).value

    y0 = x.copy()
    y0[2 * c : 2 * c + 2] = (r0, 0.0)
    n = x.size
    steps = h * np.eye(n)
    grad = np.array(
        [(composed(y0 + e) - composed(y0 - e)) / (2.0 * h) for e in steps]
    )
    hess = np.empty((n, n))
    for i, j in itertools.product(range(n), repeat=2):
        ei, ej = steps[i], steps[j]
        hess[i, j] = (
            composed(y0 + ei + ej) - composed(y0 + ei - ej)
            - composed(y0 - ei + ej) + composed(y0 - ei - ej)
        ) / (4.0 * h * h)
    return grad, hess


@pytest.mark.parametrize(
    "bearing", [0.3, 2.0, -1.2, np.pi - 1e-9, -np.pi + 1e-9]
)
def test_chart_gradient_and_hessian_match_finite_differences(bearing):
    # target 1 sits 0.6 m from the sensor at (30, 20); near +-pi the
    # differences step across the sensor's -x ray, which the chart measured
    # from the bearing does not see
    ctx, prior, frame = next(acceptance_steps(1))
    fun = combined_objective(frame, ctx.scenario.grid, ctx.meas, prior)
    sensor = np.array([30.0, 20.0])
    x = prior.mean_x.copy()
    x[2:4] = sensor + 0.6 * np.array([np.cos(bearing), np.sin(bearing)])
    rep = fun(x)
    frames = [chart_frame(x, 1, 13, sensor)]
    rot, hess_c, grad_c = optimize._chart_system(rep.hess, rep.grad, frames)

    grad_fd, hess_fd = fd_chart_derivatives(fun, x, 1, sensor, bearing, 1e-4)
    grad_fd_fine, _ = fd_chart_derivatives(fun, x, 1, sensor, bearing, 1e-6)
    np.testing.assert_allclose(grad_c, grad_fd_fine, rtol=0.0, atol=1e-6 * np.abs(grad_c).max())
    np.testing.assert_allclose(grad_c, grad_fd, rtol=0.0, atol=1e-5 * np.abs(grad_c).max())
    np.testing.assert_allclose(hess_c, hess_fd, rtol=0.0, atol=1e-5 * np.abs(hess_c).max())
    # the arc-arc entry carries the map's curvature, -(g . e_r) / r
    plain = rot.T @ rep.hess @ rot
    assert abs(hess_c[3, 3] - plain[3, 3] + grad_c[2] / 0.6) < 1e-9 * abs(hess_c[3, 3])
    assert abs(grad_c[2] / 0.6) > 1e-3 * abs(hess_c[3, 3])  # and it matters
    # the frame is a rotation for target 1 and the identity elsewhere
    np.testing.assert_allclose(rot.T @ rot, np.eye(8), atol=1e-15)
    np.testing.assert_array_equal(np.delete(np.delete(rot, [2, 3], 0), [2, 3], 1), np.eye(6))


def acceptance_track_at(track: int, step: int):
    """Track ``track`` of ``acceptance`` seed 7 (5x5 grid, 4 targets,
    sigma^2 = 0.1, filtered by ``tt-nonlinear``), run up to ``step``:
    the context, the belief before that step, and its frame."""
    cfg = {"scenario": {"sigma_s2": 0.1}}
    scenario = config.scenario_from_config(cfg)
    ctx = tracker.make_context(scenario, config.filter_config_from_config(cfg))
    traj = simulate(scenario, 40, np.random.SeedSequence([7, track, 0]))
    belief = tracker.init_belief(
        "random_around_truth", ctx.config, scenario.grid,
        np.random.default_rng(np.random.SeedSequence([7, track, 1])),
        truth_state=traj.states[0],
    )
    for frame in traj.frames[:step]:
        belief = tracker.step(belief, frame, ctx).posterior
    return ctx, belief, traj.frames[step]


def crawl_fit():
    """Track 0 of ``acceptance`` seed 7 at step 27: the main fit ends with a
    target 0.13 m from a sensor, where the Cartesian loop crawls."""
    ctx, belief, frame = acceptance_track_at(0, 27)
    prior = propagate_prior(belief, ctx.noise)
    return ctx, combined_objective(frame, ctx.scenario.grid, ctx.meas, prior), prior


def test_chart_fit_stops_crawling_around_a_sensor(monkeypatch):
    # the Cartesian loop takes 104 iterations along the ring-shaped valley
    # around the sensor's peak, the chart 10, to the same optimum
    ctx, fun, prior = crawl_fit()
    cartesian = minimize(fun, prior.mean_x, ctx.box)
    charted = minimize(fun, prior.mean_x, ctx.box, chart=ctx.chart)
    dist = np.hypot(*(charted.x.reshape(-1, 2)[:, None] - ctx.scenario.grid.positions).T)
    assert 0.1 < dist.min() < 0.16
    assert cartesian.converged and cartesian.iterations > 100
    assert charted.converged and charted.iterations <= 30
    # run to a tolerance whose decrement stop leaves nothing measurable,
    # both loops reach the same point (9e-9 m apart)
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-11)
    cartesian_tight = minimize(fun, prior.mean_x, ctx.box)
    charted_tight = minimize(fun, prior.mean_x, ctx.box, chart=ctx.chart)
    assert cartesian_tight.converged and cartesian_tight.iterations > 100
    assert charted_tight.converged and charted_tight.iterations <= 30
    np.testing.assert_allclose(charted_tight.x, cartesian_tight.x, rtol=0.0, atol=1e-6)
    # the chart's default stop, a Newton step of H-norm at most 1e-3 short
    # of that point (5e-6 m here), has its value to 1e-9 relative
    assert abs(charted.value - charted_tight.value) <= 1e-9 * abs(charted_tight.value)


def test_chart_with_no_target_near_a_sensor_is_the_cartesian_loop_bit_for_bit():
    fits = 0
    for ctx, prior, frame in acceptance_steps(8):
        fun = combined_objective(frame, ctx.scenario.grid, ctx.meas, prior)
        asked = []

        def chart(x):
            asked.append(ctx.chart(x))
            return asked[-1]

        seen = ([], [])

        def spy(k):
            def wrapped(x):
                rep = fun(x)
                seen[k].append((x.tobytes(), np.float64(rep.value).tobytes()))
                return rep

            return wrapped

        got = minimize(spy(0), prior.mean_x, ctx.box, chart=chart)
        if not asked or any(asked):
            continue  # an exact-Newton iterate came near a sensor
        ref = minimize(spy(1), prior.mean_x, ctx.box)
        assert seen[0] == seen[1]
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.report.hess.tobytes() == ref.report.hess.tobytes()
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        fits += 1
    assert fits >= 3


# The Newton-decrement stop: a fit whose unshifted exact-Newton step would
# gain at most GRAD_TOL / 2 stops where it is.


def test_main_fit_that_stalled_below_the_armijo_resolution_now_converges():
    # track 31, step 28: the full Newton step would lower the value by about
    # 2e-15, below its last bit, so the line search and steepest descent both
    # failed and the step was tagged unconverged:main[8]; the decrement stop
    # ends the fit one iteration earlier, where that step is still measurable
    ctx, belief, frame = acceptance_track_at(31, 28)
    prior = propagate_prior(belief, ctx.noise)
    fun = combined_objective(frame, ctx.scenario.grid, ctx.meas, prior)
    res = minimize(fun, prior.mean_x, ctx.box, chart=ctx.chart)
    proj_grad = res.x - ctx.box.clip(res.x - res.report.grad)
    assert res.converged and active_set(res.x, ctx.box).size == 0
    assert np.abs(proj_grad).max() > optimize.GRAD_TOL  # the decrement stopped it
    out = tracker.step(belief, frame, ctx)
    assert not any(a.startswith(("unconverged:main", "fallback:")) for a in out.actions)


def test_decrement_stop_never_fires_on_a_shifted_direction(monkeypatch):
    # a saddle, curvature 1 along x0 and -1000 along x1, at a point with
    # gradient 1e-2 along x0: the Levenberg shift (1048) makes -g . d about
    # 1e-7, under GRAD_TOL, while the projected gradient is 1e-2
    fun = quadratic(np.diag([1.0, -1000.0]), np.zeros(2))
    x0 = np.array([1e-2, 0.0])
    box = wide_box(2)
    rep = fun(x0)
    d, shift = _shifted_solve(rep.hess, -rep.grad)
    assert shift > 1000.0
    assert 0.0 < -float(rep.grad @ d) <= optimize.GRAD_TOL
    assert np.abs(x0 - box.clip(x0 - rep.grad)).max() == pytest.approx(1e-2)

    branches = {}
    with monkeypatch.context() as m:
        m.setattr(optimize, "MAX_ITER", 1)
        first = assert_same_fit(fun, x0, box, branches=branches)
    assert not first.converged and first.iterations == 1
    assert branches.get("small shifted decrement") == 1 and "decrement stop" not in branches
    assert not minimize(fun, x0, box).converged
