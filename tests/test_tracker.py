"""Single-step filter behavior, initialization modes, and full-track runs."""

from __future__ import annotations

import numpy as np
import pytest

from ttfilter import consistency, optimize, tracker
from ttfilter.consistency import gate_threshold, is_consistent
from ttfilter.errors import ConfigurationError
from ttfilter.model import (
    DEFAULT_TARGETS,
    MeasurementModel,
    MotionModel,
    Scenario,
    build_grid,
    expected_signal,
    simulate,
    stack_state,
)
from ttfilter.metrics import omat
from ttfilter.moments import EIGEN_FLOOR
from ttfilter.nll import (
    FilterNoiseModel,
    GaussianBelief,
    NllReport,
    combined_objective,
    combined_value_batch,
    propagate_prior,
)
from ttfilter.optimize import OptimizeResult, box_from_grid, minimize
from ttfilter.tracker import FilterConfig, init_belief, make_context, step, track

from conftest import (
    active_set,
    assert_exact_newton,
    assert_warmed_up,
    benchmark_scenario,
    corner_scenario,
    watch_curvature,
)


def tight_belief(truth_state: np.ndarray, spatial=1e-2, velocity=1e-6) -> GaussianBelief:
    c = truth_state.shape[0]
    cov = np.diag([spatial] * (2 * c) + [velocity] * (2 * c))
    return GaussianBelief(mean=stack_state(truth_state), cov=cov)


def test_init_zero_variance_reproduces_truth(grid55, rng):
    cfg = FilterConfig(init_spatial_var=0.0, init_velocity_var=0.0)
    truth = np.asarray(DEFAULT_TARGETS)
    belief = init_belief("random_around_truth", cfg, grid55, rng, truth_state=truth)
    np.testing.assert_array_equal(belief.mean, stack_state(truth))


def test_init_covariance_diagonal(grid55, rng):
    cfg = FilterConfig()
    truth = np.asarray(DEFAULT_TARGETS)
    belief = init_belief("random_around_truth", cfg, grid55, rng, truth_state=truth)
    expect = np.diag([100.0] * 8 + [5e-4] * 8)
    np.testing.assert_array_equal(belief.cov, expect)


def test_init_random_mode_spread(grid55):
    cfg = FilterConfig()
    truth = np.asarray(DEFAULT_TARGETS)
    draws = np.array(
        [
            init_belief(
                "random_around_truth",
                cfg,
                grid55,
                np.random.default_rng(k),
                truth_state=truth,
            ).mean
            for k in range(400)
        ]
    )
    sd = draws.std(axis=0)
    np.testing.assert_allclose(sd[:8], 10.0, rtol=0.15)
    np.testing.assert_allclose(sd[8:], np.sqrt(5e-4), rtol=0.15)
    np.testing.assert_allclose(draws.mean(axis=0), stack_state(truth), atol=1.5)


def test_init_fixed_center_within_radius(grid55, rng):
    cfg = FilterConfig(fixed_init=True)
    belief = init_belief("fixed_center", cfg, grid55, rng, n_targets=4)
    pos = belief.mean_x.reshape(4, 2)
    dist = np.linalg.norm(pos - grid55.center, axis=1)
    assert (dist <= tracker.INIT_RADIUS + 1e-12).all()
    np.testing.assert_array_equal(belief.mean_v, np.zeros(8))


def test_init_fixed_center_refines_with_frame(grid55):
    # the one-shot fit from a blind center start improves the measurement
    # fit; finding the global basin is the job of the later recovery stages
    from ttfilter.nll import measurement_nll
    from ttfilter.optimize import box_from_grid

    meas = MeasurementModel(sigma_s2=0.01)
    truth = np.asarray(DEFAULT_TARGETS)[:, :2]
    frame = expected_signal(truth, grid55, meas)
    cfg = FilterConfig(fixed_init=True)
    box = box_from_grid(grid55, 4)
    rng_blind = np.random.default_rng(5)
    blind = init_belief("fixed_center", cfg, grid55, rng_blind, n_targets=4)
    rng_fit = np.random.default_rng(5)
    fitted = init_belief(
        "fixed_center", cfg, grid55, rng_fit, n_targets=4,
        frame=frame, meas=meas, box=box,
    )
    before = measurement_nll(blind.mean_x, frame, grid55, meas).value
    after = measurement_nll(fitted.mean_x, frame, grid55, meas).value
    assert after < before
    assert np.array_equal(box.clip(fitted.mean_x), fitted.mean_x)
    np.testing.assert_array_equal(fitted.mean_v, np.zeros(8))


def test_init_validation_errors(grid55, rng):
    cfg = FilterConfig()
    with pytest.raises(ConfigurationError):
        init_belief("random_around_truth", cfg, grid55, rng)
    with pytest.raises(ConfigurationError):
        init_belief("fixed_center", cfg, grid55, rng)
    with pytest.raises(ConfigurationError):
        init_belief("fixed_center", cfg, grid55, rng, n_targets=2, frame=np.ones(25))
    with pytest.raises(ConfigurationError):
        init_belief("diffuse", cfg, grid55, rng, n_targets=2)


def one_target_scenario(x=13.3, y=17.8):
    grid = build_grid(5, 5, 10.0)
    return Scenario(
        grid=grid,
        meas=MeasurementModel(sigma_s2=0.01),
        motion=MotionModel(gamma=0.05),
        initial_states=np.array([[x, y, 0.0, 0.0]]),
    )


def test_step_noise_free_recovers_truth_position():
    scn = one_target_scenario()
    # a sharp assumed noise keeps the posterior concentrated at the ML point
    ctx = make_context(scn, FilterConfig(sigma_s2=1e-4))
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    belief = tight_belief(truth)
    out = step(belief, frame, ctx)
    np.testing.assert_allclose(out.posterior.mean_x, truth[0, :2], atol=1e-3)
    assert out.consistent
    assert out.statistic == pytest.approx(0.0, abs=1e-10)

    # grid-search oracle: the combined objective really bottoms out at truth
    prior = propagate_prior(belief, ctx.noise)
    gx = np.arange(truth[0, 0] - 0.05, truth[0, 0] + 0.0501, 0.001)
    gy = np.arange(truth[0, 1] - 0.05, truth[0, 1] + 0.0501, 0.001)
    pts = np.array([[a, b] for a in gx for b in gy])
    vals = combined_value_batch(pts, frame, scn.grid, ctx.meas, prior)
    np.testing.assert_allclose(pts[vals.argmin()], truth[0, :2], atol=2e-3)


def test_step_prior_limit_with_disabled_measurements(rng):
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig(sigma_s2=1e12))
    truth = scn.initial_states
    belief = GaussianBelief(
        mean=stack_state(truth) + 0.1 * rng.standard_normal(16),
        cov=np.diag([4.0] * 8 + [1e-3] * 8),
    )
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    out = step(belief, frame, ctx)
    prior = propagate_prior(belief, ctx.noise)
    np.testing.assert_allclose(out.posterior.mean, prior.mean, atol=1e-6)
    np.testing.assert_allclose(out.posterior.cov, prior.cov, rtol=1e-4, atol=1e-6)


def test_step_flags_inconsistency_without_recoveries():
    scn = benchmark_scenario()
    ctx = make_context(
        scn,
        FilterConfig(one_by_one=False, hopping=False, nonlinear_correction=False),
    )
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    wrong = truth.copy()
    wrong[:, :2] = [[5.0, 35.0], [35.0, 5.0], [5.0, 5.0], [35.0, 35.0]]
    belief = tight_belief(wrong)
    out = step(belief, frame, ctx)
    assert not out.consistent
    assert out.statistic > gate_threshold(scn.grid)
    assert out.actions == () or all(a.startswith("hessfix") for a in out.actions)


def test_step_no_recovery_when_consistent():
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    out = step(tight_belief(truth), frame, ctx)
    assert out.consistent
    assert not any(a.startswith(("one_by_one", "hopping")) for a in out.actions)


def wrap_objectives(build, wrap):
    """``build`` with each objective it returns passed through ``wrap``."""
    return lambda *args: wrap(build(*args))


def test_step_evaluates_combined_nll_once_per_point(monkeypatch):
    # the main fit's final Hessian feeds the repair, so a step that keeps the
    # fit's estimate never evaluates the combined objective twice at one point
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    seen = []

    def counted(objective):
        def evaluate(x):
            seen.append(np.asarray(x, dtype=float).tobytes())
            return objective(x)

        return evaluate

    monkeypatch.setattr(
        tracker, "combined_objective", wrap_objectives(combined_objective, counted)
    )
    out = step(tight_belief(truth), frame, ctx)
    assert out.consistent and not any(a.startswith("hessfix") for a in out.actions)
    assert not any(a.startswith(("one_by_one", "hopping")) for a in out.actions)
    repeats = len(seen) - len(set(seen))
    assert seen and repeats == 0, f"{repeats} repeated evaluation(s)"


def test_step_nan_hessian_falls_back_to_prior(monkeypatch):
    # a NaN in the fit's Hessian fails the Newton solve with NumericalError,
    # which the step turns into a prior carry-forward
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)

    def nan_hessian(objective):
        def evaluate(x):
            rep = objective(x)
            hess = rep.hess.copy()
            hess[0, 1] = hess[1, 0] = np.nan
            return NllReport(rep.value, rep.grad, hess)

        return evaluate

    monkeypatch.setattr(
        tracker, "combined_objective", wrap_objectives(combined_objective, nan_hessian)
    )
    belief = tight_belief(truth)
    out = step(belief, frame, ctx)
    assert len(out.actions) == 1
    assert out.actions[0].startswith("fallback:prior(Newton system")
    prior = propagate_prior(belief, ctx.noise)
    np.testing.assert_array_equal(out.x_ml, prior.mean_x)
    assert not out.consistent


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_non_finite_frame_falls_back_without_fitting(monkeypatch, bad):
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    frame[[3, 17]] = bad
    fits = []
    monkeypatch.setattr(tracker, "minimize", lambda *a, **k: fits.append(1))
    belief = tight_belief(truth)
    out = step(belief, frame, ctx)
    assert fits == []
    assert out.actions == ("fallback:prior(non-finite frame: sensors [3, 17])",)
    prior = propagate_prior(belief, ctx.noise)
    np.testing.assert_array_equal(out.x_ml, prior.mean_x)
    np.testing.assert_array_equal(out.posterior.mean_x, prior.mean_x)
    assert not out.consistent and np.isnan(out.statistic)


@pytest.mark.parametrize("shape", [(24,), (26,), (5, 5)], ids=["24", "26", "5x5"])
def test_step_rejects_a_frame_of_the_wrong_shape(shape):
    # a caller's mistake, not a numerical failure: no fallback to the prior,
    # and a NaN reading does not turn it into one
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    belief = tight_belief(scn.initial_states)
    for fill in (1.0, np.nan):
        with pytest.raises(ConfigurationError) as err:
            step(belief, np.full(shape, fill), ctx)
        assert str(err.value) == f"frame has shape {shape}, the grid needs (25,)"


def test_step_rejects_a_belief_over_another_target_count():
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    frame = expected_signal(scn.initial_states[:, :2], scn.grid, scn.meas)
    belief = tight_belief(scn.initial_states[:3])
    with pytest.raises(ConfigurationError) as err:
        step(belief, frame, ctx)
    assert str(err.value) == "belief has 3 targets (mean (12,)), the scenario 4"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_init_track_survives_non_finite_first_frame(bad):
    # the blind start skips its refit on a frame it cannot fit; only that
    # step falls back to the prior and the track goes on
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig(fixed_init=True))
    traj = simulate(scn, 5, np.random.default_rng(11))
    traj.frames[0, 6] = bad
    rec = track(traj, ctx, np.random.default_rng(12))
    assert rec.omat.shape == (5,) and np.isfinite(rec.estimates).all()
    assert rec.actions[0] == ("fallback:prior(non-finite frame: sensors [6])",)
    later = [a for actions in rec.actions[1:] for a in actions]
    assert not any(a.startswith("fallback") for a in later)


def test_every_fit_gathers_its_sensors_before_it_starts(monkeypatch):
    # each minimize call gets an objective built once for the fit, so no
    # evaluation inside a fit reads the noise variances again; on this frame
    # the fit from one-by-one's peeled start fails the gate, so its sweep's
    # subset objectives are built and watched too
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig(fixed_init=True))
    gathered = []
    real_variances = MeasurementModel.noise_variances
    monkeypatch.setattr(
        MeasurementModel,
        "noise_variances",
        lambda self, count: gathered.append(1) or real_variances(self, count),
    )
    fits = []

    def watched(fun, *args, **kwargs):
        evals = []

        def counted(x):
            evals.append(1)
            return fun(x)

        before = len(gathered)
        res = minimize(counted, *args, **kwargs)
        fits.append((len(gathered) - before, len(evals)))
        return res

    for module in (tracker, consistency):
        monkeypatch.setattr(module, "minimize", watched)
    truth = scn.initial_states.copy()
    truth[:, :2] = [[33.0, 25.0], [20.0, 8.0], [26.0, 13.0], [28.0, 19.0]]
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    init_belief(
        "fixed_center", ctx.config, scn.grid, np.random.default_rng(3),
        n_targets=truth.shape[0], frame=frame, meas=ctx.meas, box=ctx.box,
    )
    wrong = truth.copy()
    wrong[:, :2] = [[5.0, 35.0], [35.0, 5.0], [5.0, 5.0], [35.0, 35.0]]
    out = step(tight_belief(wrong), frame, ctx)
    assert "one_by_one" in out.actions
    assert len(fits) > 12  # init, main, peeled fit and a 10-fit sweep at least
    assert all(gathers == 0 for gathers, _ in fits)
    assert sum(evals for _, evals in fits) > 2 * len(fits)


def test_step_records_an_unconverged_main_fit(monkeypatch):
    # a main fit stopped by the iteration cap is tagged, and the tag does not
    # read as a fallback to the prior
    scn = benchmark_scenario()
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    off = truth.copy()
    off[:, :2] += 1.5
    ctx = make_context(scn, FilterConfig())
    with monkeypatch.context() as m:
        m.setattr(optimize, "MAX_ITER", 2)
        out = step(tight_belief(off, spatial=4.0), frame, ctx)
    assert out.actions[0] == "unconverged:main[2]"
    assert not any(a.startswith("fallback:") for a in out.actions)
    assert np.isfinite(out.posterior.mean).all()

    done = step(tight_belief(off, spatial=4.0), frame, ctx)
    assert not any(a.startswith("unconverged") for a in done.actions)


def test_step_recovery_engages_and_never_worsens_statistic():
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    wrong = truth.copy()
    wrong[:, :2] = [[5.0, 35.0], [35.0, 5.0], [5.0, 5.0], [35.0, 35.0]]
    belief = tight_belief(wrong)

    prior = propagate_prior(belief, ctx.noise)
    direct = minimize(
        combined_objective(frame, scn.grid, ctx.meas, prior),
        prior.mean_x,
        ctx.box,
    )
    stat0 = is_consistent(direct.x, frame, scn.grid, ctx.meas)[1]
    assert stat0 > gate_threshold(scn.grid)

    out = step(belief, frame, ctx)
    assert any(a == "one_by_one" or a.startswith("hopping") for a in out.actions)
    assert out.statistic <= stat0 + 1e-9
    assert out.consistent  # noise-free frames leave a perfectly explaining fit


def test_adopted_recovery_keeps_the_prior_target_labels(monkeypatch):
    # the first frames of criterion 3's stress tracks, where blind starts
    # fail the gate and a one-by-one refit is adopted; a refit's labels are
    # arbitrary (its measurement likelihood cannot tell targets apart), and
    # without putting them back tracks 2, 3 and 5 of these six come out
    # permuted, so the prior term would pull each target toward another's mean
    scn = benchmark_scenario(sigma_s2=0.01)
    ctx = make_context(scn, FilterConfig(fixed_init=True))
    main_fits = []

    def spy(*args, **kwargs):
        main_fits.append(minimize(*args, **kwargs))
        return main_fits[-1]

    adopted = 0
    for i in range(6):
        traj = simulate(scn, 1, np.random.default_rng(np.random.SeedSequence([7, i, 0])))
        belief = init_belief(
            "fixed_center", ctx.config, scn.grid,
            np.random.default_rng(np.random.SeedSequence([7, i, 6])),
            n_targets=4, frame=traj.frames[0], meas=ctx.meas, box=ctx.box,
        )
        with monkeypatch.context() as m:
            m.setattr(tracker, "minimize", spy)
            out = step(belief, traj.frames[0], ctx)
        if np.array_equal(out.x_ml, main_fits[-1].x):
            continue
        adopted += 1
        prior = propagate_prior(belief, ctx.noise)
        for estimate in (out.x_ml, out.posterior.mean_x):
            matched = omat(prior.mean_x, estimate).assignment
            np.testing.assert_array_equal(matched, np.arange(4), err_msg=f"track {i}")
    assert adopted >= 3


def stubbed_one_by_one(monkeypatch, below: bool):
    """Stub one-by-one recovery to return the prior mean, targets reversed
    and moved 0.1 m, with value half the gate statistic the step read last,
    or the next float below that."""
    statistics = []

    def spy(*args):
        statistics.append(is_consistent(*args))
        return statistics[-1]

    def recovery(frame, grid, meas, prior_x, box):
        value = statistics[-1][1] / 2.0
        x = prior_x.reshape(-1, 2)[::-1] + 0.1
        return OptimizeResult(
            x=x.ravel(), value=np.nextafter(value, 0.0) if below else value,
            report=None, iterations=0, converged=True,
        )

    monkeypatch.setattr(tracker, "is_consistent", spy)
    monkeypatch.setattr(tracker, "one_by_one_recovery", recovery)
    return statistics


@pytest.mark.parametrize("below", [False, True], ids=["equal", "below"])
def test_step_adopts_a_recovery_only_below_the_statistic(monkeypatch, below):
    # step alone decides: a candidate is adopted when twice its value is
    # below the gate statistic, and then in the prior's target labels
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig(hopping=False))
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    wrong = truth.copy()
    wrong[:, :2] = [[5.0, 35.0], [35.0, 5.0], [5.0, 5.0], [35.0, 35.0]]
    belief = tight_belief(wrong)
    main_fits = []

    def spy(*args, **kwargs):
        main_fits.append(minimize(*args, **kwargs))
        return main_fits[-1]

    monkeypatch.setattr(tracker, "minimize", spy)
    statistics = stubbed_one_by_one(monkeypatch, below)
    out = step(belief, frame, ctx)
    assert "one_by_one" in out.actions
    assert not statistics[0][0]
    prior_x = propagate_prior(belief, ctx.noise).mean_x
    if below:
        np.testing.assert_array_equal(out.x_ml, prior_x + 0.1)
        assert len(statistics) == 2 and out.statistic == statistics[1][1]
    else:
        np.testing.assert_array_equal(out.x_ml, main_fits[0].x)
        assert len(statistics) == 1 and out.statistic == statistics[0][1]


def test_step_completes_when_hopping_has_no_square_pair(monkeypatch):
    # a 2x2 grid has one square and no pair for the two targets hopping
    # removes: it makes no fit, and the step keeps the main fit's estimate.
    # Two targets can match four noise-free readings, so the frame is
    # lowered by 3 to leave readings no pair of targets explains
    scn = Scenario(
        grid=build_grid(2, 2, 10.0),
        motion=MotionModel(gamma=0.05),
        meas=MeasurementModel(sigma_s2=0.01),
        initial_states=np.array([[2.0, 3.0, 0.0, 0.0], [8.0, 7.0, 0.0, 0.0]]),
    )
    ctx = make_context(scn, FilterConfig(one_by_one=False))
    frame = expected_signal(scn.initial_states[:, :2], scn.grid, scn.meas) - 3.0
    main_fits = []

    def spy(*args, **kwargs):
        main_fits.append(minimize(*args, **kwargs))
        return main_fits[-1]

    monkeypatch.setattr(tracker, "minimize", spy)
    monkeypatch.setattr(consistency, "minimize", spy)
    out = step(tight_belief(scn.initial_states), frame, ctx)
    assert "hopping:best[0]" in out.actions and not out.consistent
    assert not any(a.startswith("fallback:") for a in out.actions)
    assert len(main_fits) == 1
    np.testing.assert_array_equal(out.x_ml, main_fits[0].x)
    assert np.isfinite(out.posterior.mean).all()


def test_only_the_peeled_recovery_fit_warms_up_on_gauss_newton(monkeypatch):
    # the first step of an acquire-style track (blind fixed-center start at
    # sigma^2 = 0.01, the first of criterion 3's stress tracks): the blind
    # first-frame fit runs exact Newton throughout, the prior-anchored main
    # fit fails the gate, and one-by-one recovery's peeled fit, which passes
    # it, takes its first directions from the Gauss-Newton matrix
    scn = benchmark_scenario(sigma_s2=0.01)
    ctx = make_context(scn, FilterConfig(fixed_init=True))
    fits = watch_curvature(monkeypatch, tracker, consistency)
    traj = simulate(scn, 1, np.random.default_rng(np.random.SeedSequence([7, 0, 0])))
    belief = init_belief(
        "fixed_center", ctx.config, scn.grid,
        np.random.default_rng(np.random.SeedSequence([7, 0, 6])),
        n_targets=4, frame=traj.frames[0], meas=ctx.meas, box=ctx.box,
    )
    out = step(belief, traj.frames[0], ctx)
    assert out.actions == ("one_by_one",) and out.consistent
    (init_reads, init), (main_reads, main), (peel_reads, peel) = fits
    assert init.iterations > 10 and peel.iterations > 3
    assert_exact_newton(init_reads, init.iterations)
    assert_warmed_up(main_reads, main.iterations)
    assert_warmed_up(peel_reads, peel.iterations)


def test_step_linear_path_identical_when_no_near_sensor_target():
    scn = benchmark_scenario()
    truth = scn.initial_states  # all launch positions sit > 2 m from sensors
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    belief = tight_belief(truth)
    on = step(belief, frame, make_context(scn, FilterConfig()))
    off = step(belief, frame, make_context(scn, FilterConfig(nonlinear_correction=False)))
    np.testing.assert_array_equal(on.posterior.mean, off.posterior.mean)
    np.testing.assert_array_equal(on.posterior.cov, off.posterior.cov)
    assert not any(a.startswith("polar") for a in on.actions)


def test_step_polar_action_fires_near_sensor():
    scn = one_target_scenario(20.4, 20.0)  # 0.4 m from the center sensor
    ctx = make_context(scn, FilterConfig())
    truth = scn.initial_states
    frame = expected_signal(truth[:, :2], scn.grid, scn.meas)
    out = step(tight_belief(truth), frame, ctx)
    assert any(a == "polar:0@12" for a in out.actions)
    off = step(
        tight_belief(truth),
        frame,
        make_context(scn, FilterConfig(nonlinear_correction=False)),
    )
    assert not any(a.startswith("polar") for a in off.actions)


def step_with_spied_main_fit(monkeypatch, sigma_s2, seed, index):
    """Step ``index`` of a ``corner_scenario`` track simulated from
    ``seed + [0]`` and filtered with ``seed + [1]``, with the main fit's
    result kept: ``(StepOutput, main fit)``."""
    scn = corner_scenario(sigma_s2)
    ctx = make_context(scn, FilterConfig())
    traj = simulate(scn, 40, np.random.default_rng(np.random.SeedSequence(seed + [0])))
    belief = init_belief(
        "random_around_truth", ctx.config, scn.grid,
        np.random.default_rng(np.random.SeedSequence(seed + [1])),
        truth_state=traj.states[0],
    )
    for frame in traj.frames[:index]:
        belief = step(belief, frame, ctx).posterior

    fits = []

    def spy(*args, **kwargs):
        fits.append(minimize(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(tracker, "minimize", spy)
    return step(belief, traj.frames[index], ctx), fits[0]


def assert_repaired_without_fallback(out):
    assert "hessfix:gauss-newton" in out.actions
    assert not any(a.startswith("fallback:") for a in out.actions)
    assert out.exclusions == ()
    post = out.posterior
    assert np.isfinite(post.mean).all() and np.isfinite(post.cov).all()
    assert np.linalg.eigvalsh(post.cov).min() > 0.0


def test_step_repairs_hessian_after_main_fit_ends_on_a_bound(monkeypatch):
    # with bounds="none" target 0 drifts out of the grid, and at step 11 of
    # this track the main fit leaves it on the box's lower x bound with a
    # Hessian that is not positive definite.  The Gauss-Newton matrix stands
    # in, so target 0's spread reflects how little the frame says about a
    # target 11.7 m from the nearest sensor, and no target is pinned to the
    # 0.1 m spread of a signal peak.
    out, fit = step_with_spied_main_fit(monkeypatch, 0.1, [3, 18], 11)
    box = box_from_grid(corner_scenario(0.1).grid, 4)
    assert fit.converged and 0 in active_set(fit.x, box)
    assert np.linalg.eigvalsh(fit.report.hess).min() < 0.0
    assert_repaired_without_fallback(out)
    sd = np.sqrt(np.diag(out.posterior.cov_xx))
    assert sd[0] >= 1.0
    assert sd.min() >= 0.2
    np.testing.assert_array_equal(out.x_ml, fit.x)  # the gated estimate


def test_step_repairs_hessian_after_interior_fit_near_a_sensor(indefinite_interior_step):
    # the interior case: the main fit converges with no bound active and a
    # target beside a sensor, on a point where the exact Hessian is
    # indefinite although no Newton step is left to take
    out, fit = indefinite_interior_step
    box = box_from_grid(corner_scenario(0.01).grid, 4)
    assert fit.converged and active_set(fit.x, box).size == 0
    assert np.linalg.eigvalsh(fit.report.hess).min() < 0.0
    assert_repaired_without_fallback(out)
    np.testing.assert_array_equal(out.x_ml, fit.x)


def test_step_posterior_satisfies_belief_invariants(rng):
    scn = benchmark_scenario(sigma_s2=0.1)
    ctx = make_context(scn, FilterConfig())
    traj = simulate(scn, 10, np.random.default_rng(3))
    belief = init_belief(
        "random_around_truth",
        ctx.config,
        scn.grid,
        np.random.default_rng(4),
        truth_state=traj.states[0],
    )
    for t in range(traj.n_steps):
        out = step(belief, traj.frames[t], ctx)
        post = out.posterior
        np.testing.assert_allclose(post.cov, post.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(post.cov).min() >= EIGEN_FLOOR * (1.0 - 1e-9)
        assert np.isfinite(post.mean).all()
        belief = post.belief()


def test_step_posterior_is_its_blocks_rejoined_on_acceptance_tracks():
    # the posterior is the next belief as it is; its joint is exactly
    # symmetric, so a belief rebuilt from its blocks would be the same bytes
    scn = benchmark_scenario(sigma_s2=0.1)
    ctx = make_context(scn, FilterConfig())
    for i in range(6):
        traj = simulate(scn, 40, np.random.SeedSequence([7, i, 0]))
        belief = init_belief(
            "random_around_truth", ctx.config, scn.grid,
            np.random.default_rng(np.random.SeedSequence([7, i, 1])),
            truth_state=traj.states[0],
        )
        for frame in traj.frames:
            post = step(belief, frame, ctx).posterior
            mean = np.concatenate([post.mean_x, post.mean_v])
            cov = np.block([[post.cov_xx, post.cov_vx.T], [post.cov_vx, post.cov_vv]])
            assert post.mean.tobytes() == mean.tobytes()
            assert post.cov.tobytes() == cov.tobytes()
            belief = post


def test_track_single_step():
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig())
    traj = simulate(scn, 1, np.random.default_rng(11))
    rec = track(traj, ctx, np.random.default_rng(12), label="tt")
    assert rec.estimates.shape == (1, 4, 2)
    assert rec.omat.shape == (1,)
    assert rec.label == "tt"


def test_track_same_seed_is_reproducible():
    scn = benchmark_scenario(sigma_s2=0.1)
    ctx = make_context(scn, FilterConfig())
    traj = simulate(scn, 6, np.random.default_rng(21))
    a = track(traj, ctx, np.random.SeedSequence([7, 0, 1]))
    b = track(traj, ctx, np.random.SeedSequence([7, 0, 1]))
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.omat, b.omat)
    np.testing.assert_array_equal(a.statistic, b.statistic)
    assert a.actions == b.actions
    c = track(traj, ctx, np.random.SeedSequence([8, 0, 1]))
    assert not np.array_equal(a.estimates, c.estimates)


def test_make_context_applies_overrides():
    scn = benchmark_scenario()
    ctx = make_context(scn, FilterConfig(sigma_s2=0.5, alpha=1.0))
    assert float(np.asarray(ctx.meas.sigma_s2)) == 0.5
    assert ctx.noise.alpha == 1.0
    assert ctx.rule.dim == 8
    assert ctx.dirs.count == 72
    # the chart takes the targets closer than 0.2 grid spacings (2 m) to
    # their nearest sensor, and none without the nonlinear correction
    x = np.array([21.99, 20.0, 2.01, 0.0, 30.0, 31.5, 15.0, 35.0])
    frames = ctx.chart(x)
    assert [(f.target, f.sensor) for f in frames] == [(0, 12), (2, 18)]
    assert frames[0].r0 == pytest.approx(1.99)
    np.testing.assert_array_equal(frames[1].position, [30.0, 30.0])
    np.testing.assert_array_equal(frames[1].e_r, [0.0, 1.0])
    assert frames[1].bearing == pytest.approx(np.pi / 2.0)
    linear = make_context(scn, FilterConfig(nonlinear_correction=False))
    assert linear.chart(x) == []
