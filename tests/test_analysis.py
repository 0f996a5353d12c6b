"""Tests for the running, convergence, and invariant-suite layer."""
import numpy as np
import pytest

from gni import analysis, gni_flat, gni_reduced, model
from gni.analysis import (
    BelowNoiseFloor,
    ConvergenceReport,
    StepFailed,
    Trajectory,
    adjoint_check,
    check_suite,
    convergence_sweep,
    run,
    sample_admissible_states,
    slope_fit,
    state_values,
)
from gni.gni_reduced import (
    ChaplyginParams,
    chaplygin_init,
    chaplygin_initial_reduced_state,
    chaplygin_reduced_system,
    chaplygin_scheme_residual,
    chaplygin_step_stats,
    reduced_rattle_step,
    standard_retracted_lagrangian,
)
from gni.model import FlatSystem, PhaseState, ReducedState, constraint_residual
from gni.numerics import NoConvergence


def _free_system():
    return FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(2),
    )


def _particle_initial(sys):
    return gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])


# ---------------------------------------------------------------------------
# run


def test_run_zero_steps_returns_initial_only():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    traj = run(gni_flat.rattle_step, sys, s0, 0.1, 0)
    assert len(traj) == 1
    assert traj.final is s0
    assert traj.times.shape == (1,)
    assert traj.times[0] == 0.0


def test_run_free_particle_is_exactly_linear():
    sys = _free_system()
    s0 = PhaseState(np.array([0.1, -0.2]), np.array([1.0, 2.0]), np.zeros(0))
    for stepper in (gni_flat.euler_a_step, gni_flat.euler_b_step, gni_flat.rattle_step):
        traj = run(stepper, sys, s0, 0.25, 8)
        for k, s in enumerate(traj.states):
            np.testing.assert_allclose(s.q, s0.q + k * 0.25 * s0.p, atol=1e-14)
            np.testing.assert_allclose(s.p, s0.p, atol=1e-15)


def test_run_records_diagnostics_and_uniform_times():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    traj = run(gni_flat.rattle_step, sys, s0, 0.05, 40)
    assert len(traj) == 41
    np.testing.assert_allclose(np.diff(traj.times), 0.05, atol=1e-15)
    assert np.max(traj.residuals) <= 1e-10
    assert traj.energies.shape == (41,)
    assert traj.newton_iters.shape == (41,)


def test_run_rejects_bad_arguments():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    with pytest.raises(ValueError):
        run(gni_flat.rattle_step, sys, s0, 0.0, 10)
    with pytest.raises(ValueError):
        run(gni_flat.rattle_step, sys, s0, -0.1, 10)
    with pytest.raises(ValueError):
        run(gni_flat.rattle_step, sys, s0, 0.1, -1)


def test_run_rejects_inadmissible_initial_state():
    sys = model.nonholonomic_particle("harmonic")
    bad = PhaseState(np.array([0.3, 0.2, 0.1]), np.array([0.0, 0.0, 5.0]), np.zeros(1))
    with pytest.raises(ValueError, match="admissible"):
        run(gni_flat.rattle_step, sys, bad, 0.1, 5)


def _reduced_sphere_run(params, state, h):
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    return run(lambda sys_, s, hh: reduced_rattle_step(sys_, s, hh), rsys, state, h, 2)


@pytest.mark.parametrize(
    "params, q0, w0, h",
    [
        # The reduced sphere of configs/sphere_reduced.cfg with w0[1] > 0.
        (ChaplyginParams(3.0, 1.0, 0.2, 1.0, 1.1, 1.2), (1.0, 0.0), (-0.2, 0.001, 0.4), 0.05),
        # The state of configs/sphere_bounded.cfg.
        (ChaplyginParams(1.0, 1.0, 1.0, 2 / 3, 2 / 3, 2 / 3), (1.0, 1.0), (0.0, 2.0, 0.0), 0.1),
    ],
)
def test_run_accepts_seeded_reduced_sphere_states(params, q0, w0, h):
    # The dcay_inv seeding puts an O(h^2) offset h^2/4 xi (xi . p_alg) into
    # p_alg as well as the O(h) tilt; both must be allowed for.
    s0 = chaplygin_initial_reduced_state(params, np.array(q0), np.array(w0), h)
    assert np.max(np.abs(constraint_residual(chaplygin_reduced_system(params), s0))) > 1e-8
    assert len(_reduced_sphere_run(params, s0, h)) == 3


def test_run_rejects_reduced_state_just_off_its_seeded_form():
    params = ChaplyginParams(1.0, 1.0, 1.0, 2 / 3, 2 / 3, 2 / 3)
    h = 0.1
    s0 = chaplygin_initial_reduced_state(params, np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0]), h)
    # Row k of the rolling constraint reads p[k] / m directly, so moving
    # p[k] along the sign of the largest residual grows it by 1e-6.
    res = constraint_residual(chaplygin_reduced_system(params), s0)
    k = int(np.argmax(np.abs(res)))
    p = s0.p.copy()
    p[k] += 1e-6 * np.sign(res[k])
    moved = ReducedState(s0.x, p, s0.xi, s0.p_alg, s0.lam)
    with pytest.raises(ValueError, match="admissible"):
        _reduced_sphere_run(params, moved, h)


@pytest.mark.parametrize("move", [1e-3, -1e-3])
def test_run_rejects_reduced_state_moved_in_the_row_without_offset(move):
    # The seeded sphere_bounded.cfg state carries its whole offset in row 0
    # (about 0.02).  A move of p[1] by 1e-3 lands in row 1, which has no
    # offset to allow for, so it is caught in either direction although it
    # stays below the offset of the other row.
    params = ChaplyginParams(1.0, 1.0, 1.0, 2 / 3, 2 / 3, 2 / 3)
    h = 0.1
    s0 = chaplygin_initial_reduced_state(params, np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0]), h)
    res = constraint_residual(chaplygin_reduced_system(params), s0)
    assert abs(res[1]) < 1e-12 < abs(move) < abs(res[0])
    p = s0.p.copy()
    p[1] += move
    moved = ReducedState(s0.x, p, s0.xi, s0.p_alg, s0.lam)
    with pytest.raises(ValueError, match="admissible"):
        _reduced_sphere_run(params, moved, h)
    assert len(_reduced_sphere_run(params, s0, h)) == 3


def test_run_accepts_scheme_form_initial_states():
    # States projected onto the one-sided schemes' shifted forms sit O(h)
    # off the plain form and must still be accepted.
    sys = model.nonholonomic_particle("harmonic")
    h = 0.1
    for scheme in ("euler_a", "euler_b", "rattle"):
        s0 = gni_flat.prepare_state(sys, [0.9, 0.8, 0.1], [1.0, 0.5, 0.2], scheme=scheme, h=h)
        traj = run(getattr(gni_flat, f"{scheme}_step"), sys, s0, h, 3)
        assert len(traj) == 4


def test_run_wraps_stepper_failures_with_partial_trajectory():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    calls = {"n": 0}

    def flaky(sys_, s, h):
        calls["n"] += 1
        if calls["n"] == 3:
            raise NoConvergence(7, 1.0)
        return gni_flat.rattle_step(sys_, s, h)

    with pytest.raises(StepFailed) as excinfo:
        run(flaky, sys, s0, 0.05, 10)
    err = excinfo.value
    assert err.step == 3
    assert isinstance(err.cause, NoConvergence)
    assert len(err.partial) == 3  # rows 0..2 recorded before the failure
    assert err.partial.times[-1] == pytest.approx(0.10)


# ---------------------------------------------------------------------------
# rolling-sphere runs


def test_run_chaplygin_rows_match_direct_recurrence():
    params = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    q0 = np.array([1.0, 1.0])
    w0 = np.array([0.0, 2.0, 0.0])
    h = 0.1
    traj = run(None, params, (q0, w0), h, 10)
    assert len(traj) == 11

    qs = [q0, chaplygin_init(params, q0, w0, h)]
    ws = [w0]
    for k in range(1, 11):
        qn, wn, _ = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], h)
        qs.append(qn)
        ws.append(wn)
    # The array assembly gives the bits of one row at a time.
    states = np.array([np.concatenate([qs[k], ws[k]]) for k in range(11)])
    energies = np.empty(11)
    residuals = np.zeros(11)
    for k in range(11):
        if k == 0:
            v = (qs[1] - qs[0]) / h
        else:
            v = (qs[k + 1] - qs[k - 1]) / (2.0 * h)
            res = chaplygin_scheme_residual(
                params, qs[k - 1], qs[k], qs[k + 1], ws[k - 1], ws[k], h
            )
            residuals[k] = np.max(np.abs(res))
        energies[k] = 0.5 * params.m * float(v @ v) + 0.5 * float(
            ws[k] @ (params.inertia * ws[k])
        )
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.energies, energies)
    assert np.array_equal(traj.residuals, residuals)
    # Row 0 is consistent by construction; later rows hold the accepted
    # two-point constraint residuals.
    assert traj.residuals[0] == 0.0
    assert np.max(traj.residuals) <= 1e-10


def test_run_chaplygin_failure_keeps_rows_before_failing_step(monkeypatch):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    full = run(None, params, initial, 0.05, 10)
    make_stepper = gni_reduced._chaplygin_stepper
    calls = {"n": 0}

    def failing_at_6(*args):
        step = make_stepper(*args)

        def failing_step(*state):
            calls["n"] += 1
            if calls["n"] == 6:
                raise NoConvergence(50, 1.0)
            return step(*state)

        return failing_step

    monkeypatch.setattr(gni_reduced, "_chaplygin_stepper", failing_at_6)
    with pytest.raises(StepFailed) as excinfo:
        run(None, params, initial, 0.05, 10)
    err = excinfo.value
    assert err.step == 6
    assert isinstance(err.cause, NoConvergence)
    assert len(err.partial) == 6  # rows 0..5
    assert np.array_equal(err.partial.states, full.states[:6])
    assert np.array_equal(err.partial.energies, full.energies[:6])
    assert np.array_equal(err.partial.residuals, full.residuals[:6])
    assert np.array_equal(err.partial.newton_iters, full.newton_iters[:6])


@pytest.mark.parametrize("n_steps", [0, 1, 7, 250])
def test_run_chaplygin_states_have_one_row_per_node(n_steps):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    traj = run(None, params, initial, 0.05, n_steps)
    assert traj.states.shape == (n_steps + 1, 5)
    assert len(traj) == len(traj.times) == len(traj.energies) == n_steps + 1
    assert len(traj.residuals) == len(traj.newton_iters) == n_steps + 1
    assert np.array_equal(traj.states[0], [1.0, 0.0, -0.2, 0.0, 0.4])


@pytest.mark.parametrize("failing_step", [1, 2, 9, 40])
def test_run_chaplygin_kernel_failure_partial_is_head_of_full_run(monkeypatch, failing_step):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    full = run(None, params, initial, 0.05, 40)
    make_stepper = gni_reduced._chaplygin_stepper

    def failing_stepper(params_, h, cfg):
        step = make_stepper(params_, h, cfg)
        calls = {"n": 0}

        def step_or_fail(*state):
            calls["n"] += 1
            if calls["n"] == failing_step:
                raise NoConvergence(50, 1.0)
            return step(*state)

        return step_or_fail

    monkeypatch.setattr(gni_reduced, "_chaplygin_stepper", failing_stepper)
    with pytest.raises(StepFailed) as excinfo:
        run(None, params, initial, 0.05, 40)
    err = excinfo.value
    assert err.step == failing_step
    assert len(err.partial) == failing_step
    head = full.head(failing_step)
    for name in ("times", "states", "energies", "residuals", "newton_iters"):
        assert np.array_equal(getattr(err.partial, name), getattr(head, name)), name


def test_run_rejects_non_finite_rows():
    # rattle at h = 5 on a fast particle overflows to inf on row 115.
    sys = model.nonholonomic_particle("harmonic")
    s0 = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1000.0, 0.5, 0.2])
    with np.errstate(all="ignore"), pytest.raises(StepFailed) as excinfo:
        run(gni_flat.rattle_step, sys, s0, 5.0, 120)
    err = excinfo.value
    assert err.step == 115
    assert isinstance(err.cause, FloatingPointError)
    assert len(err.partial) == 115
    assert np.all(np.isfinite(err.partial.energies))


def test_run_rejects_non_finite_state_with_finite_diagnostics():
    # A NaN multiplier leaves the row's energy and residual finite.
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    calls = {"n": 0}

    def nan_multiplier_at_4(sys_, s, h):
        calls["n"] += 1
        nxt = gni_flat.rattle_step(sys_, s, h)
        if calls["n"] == 4:
            nxt = PhaseState(nxt.q, nxt.p, np.full_like(nxt.lam, np.nan))
        return nxt

    with pytest.raises(StepFailed) as excinfo:
        run(nan_multiplier_at_4, sys, s0, 0.05, 6)
    assert excinfo.value.step == 4
    assert len(excinfo.value.partial) == 4


def test_run_chaplygin_zero_steps():
    params = ChaplyginParams(m=1.0, r=1.0, omega=0.2, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    traj = run(None, params, (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])), 0.15, 0)
    assert len(traj) == 1
    np.testing.assert_allclose(traj.states[0], [1.0, 0.0, -0.2, 0.0, 0.4], atol=1e-15)


def test_run_chaplygin_replay_residual_bound():
    params = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    traj = run(None, params, (np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0])), 0.1, 500)
    assert np.max(traj.residuals) <= 1e-10


# ---------------------------------------------------------------------------
# three-point recurrence runs and residual forms


def test_run_three_point_rows_match_direct_recurrence():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    ld = gni_flat.verlet_lagrangian(sys)
    h = 0.05
    traj = run(ld, sys, s0, h, 6)
    assert len(traj) == 7
    assert traj.states[0] is s0

    qs = [s0.q, gni_flat.rattle_step(sys, s0, h).q]
    iters = [0]
    for k in range(1, 7):
        q_next, it = gni_flat.gni_generic_step_stats(ld, sys, qs[k - 1], qs[k], h)
        qs.append(q_next)
        iters.append(it)
    for k in range(1, 7):
        assert np.array_equal(traj.states[k].q, qs[k])
        p_bar = sys.mass_matrix @ (qs[k + 1] - qs[k - 1]) / (2.0 * h)
        assert np.array_equal(traj.states[k].p, p_bar)
    assert traj.newton_iters.tolist() == iters
    residuals = [np.max(np.abs(constraint_residual(sys, s))) for s in traj.states]
    assert np.array_equal(traj.residuals, residuals)
    assert np.max(traj.residuals) <= 1e-10


def test_run_three_point_failure_keeps_rows_before_failing_step(monkeypatch):
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    ld = gni_flat.verlet_lagrangian(sys)
    full = run(ld, sys, s0, 0.05, 6)
    step_stats = analysis.gni_generic_step_stats
    calls = {"n": 0}

    def failing_at_4(*args):
        calls["n"] += 1
        if calls["n"] == 4:
            raise NoConvergence(50, 1.0)
        return step_stats(*args)

    monkeypatch.setattr(analysis, "gni_generic_step_stats", failing_at_4)
    with pytest.raises(StepFailed) as excinfo:
        run(ld, sys, s0, 0.05, 6)
    err = excinfo.value
    assert err.step == 4
    assert isinstance(err.cause, NoConvergence)
    assert len(err.partial) == 4  # rows 0..3
    for k in range(4):
        assert np.array_equal(err.partial.states[k].p, full.states[k].p)
    assert np.array_equal(err.partial.residuals, full.residuals[:4])


def test_run_reports_the_residual_form_it_is_given():
    sys = model.nonholonomic_particle("harmonic")
    h = 0.05
    s0 = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="euler_a", h=h)
    seen = []

    def form(states):
        seen.append(len(states))
        return [gni_flat.scheme_constraint_residual(sys, s, h, "euler_a") for s in states]

    traj = run(gni_flat.euler_a_step, sys, s0, h, 5, residual=form)
    assert seen == [6]  # one pass over the rows
    expected = [
        np.max(np.abs(gni_flat.scheme_constraint_residual(sys, s, h, "euler_a")))
        for s in traj.states
    ]
    assert np.array_equal(traj.residuals, expected)
    assert np.max(traj.residuals) <= 1e-12
    # The momentum form, the default, is off by the half-step potential shift.
    assert np.max(run(gni_flat.euler_a_step, sys, s0, h, 5).residuals) > 1e-4
    assert not np.any(run(gni_flat.euler_a_step, sys, s0, h, 5, residual=False).residuals)


def test_run_chaplygin_without_residuals_keeps_states_and_energies():
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    full = run(None, params, initial, 0.05, 10)
    bare = run(None, params, initial, 0.05, 10, residual=False)
    assert np.array_equal(bare.states, full.states)
    assert np.array_equal(bare.energies, full.energies)
    assert not np.any(bare.residuals)
    assert np.max(full.residuals) > 0.0


def test_state_values_are_the_fields_but_the_multiplier():
    sys = model.nonholonomic_particle("harmonic")
    s = _particle_initial(sys)
    assert np.array_equal(state_values(s), np.concatenate([s.q, s.p]))
    r = ReducedState([1.0, 2.0], [3.0, 4.0], [5.0, 6.0, 7.0], [8.0, 9.0, 10.0], [11.0, 12.0])
    assert state_values(r).tolist() == [float(x) for x in range(1, 11)]
    row = np.arange(5.0)
    assert state_values(row) is row


# ---------------------------------------------------------------------------
# slope_fit


def test_slope_fit_exact_first_order():
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    slope, residual = slope_fit(h, 3.7 * h)
    assert abs(slope - 1.0) < 1e-12
    assert residual < 1e-12


def test_slope_fit_exact_second_order():
    h = np.array([0.1, 0.05, 0.025])
    slope, residual = slope_fit(h, 0.4 * h**2)
    assert abs(slope - 2.0) < 1e-12
    assert residual < 1e-12


def test_slope_fit_mixed_orders_dominated_by_h():
    h = np.array([0.05, 0.025, 0.0125])
    slope, _ = slope_fit(h, h + h**2)
    assert 1.0 < slope < 1.1


def test_slope_fit_noise_floor():
    h = np.array([0.1, 0.05, 0.025])
    with pytest.raises(BelowNoiseFloor):
        slope_fit(h, np.array([1e-3, 1e-7, 1e-15]))
    with pytest.raises(BelowNoiseFloor):
        slope_fit(h, np.zeros(3))


def test_slope_fit_argument_validation():
    with pytest.raises(ValueError):
        slope_fit([0.1, 0.05], [1e-2, 1e-3])
    with pytest.raises(ValueError):
        slope_fit([0.1, 0.05, 0.025], [1e-2, 1e-3])


# ---------------------------------------------------------------------------
# convergence_sweep


def test_sweep_euler_a_first_order():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025, 0.0125]
    report = convergence_sweep(gni_flat.euler_a_step, sys, s0, 1.0, grid, grid[-1] / 30.0)
    slope, _ = report.slopes["position"]
    assert 0.8 <= slope <= 1.2


def test_sweep_rattle_second_order():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025, 0.0125]
    report = convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, grid, grid[-1] / 30.0)
    slope, _ = report.slopes["position"]
    assert 1.8 <= slope <= 2.2


def test_sweep_exact_scheme_flags_noise_floor():
    # A free particle at rest is reproduced exactly at every step size, so
    # every error channel sits below the measurement floor.
    sys = _free_system()
    s0 = PhaseState(np.array([0.4, -0.3]), np.zeros(2), np.zeros(0))
    grid = [0.1, 0.05, 0.025]
    report = convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, grid, grid[-1] / 30.0)
    assert report.noise_floor == {"position", "velocity", "energy"}
    assert report.slopes == {}


def test_sweep_rk4_reference_matches_self_reference():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025]
    rep_self = convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, grid, grid[-1] / 30.0)
    rep_rk4 = convergence_sweep(
        gni_flat.rattle_step, sys, s0, 1.0, grid, ("rk4", grid[-1] / 30.0)
    )
    # Both references resolve the same limit, so fitted orders agree closely.
    assert abs(rep_self.slopes["position"][0] - rep_rk4.slopes["position"][0]) < 0.05


def test_sweep_accepts_precomputed_reference_trajectory():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025]
    h_ref = grid[-1] / 40.0
    ref = run(gni_flat.rattle_step, sys, s0, 1.0 / round(1.0 / h_ref), round(1.0 / h_ref))
    report = convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, grid, ref)
    assert 1.8 <= report.slopes["position"][0] <= 2.2


def test_sweep_is_reproducible_bit_for_bit():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025]
    rep1 = convergence_sweep(gni_flat.euler_a_step, sys, s0, 1.0, grid, grid[-1] / 30.0)
    rep2 = convergence_sweep(gni_flat.euler_a_step, sys, s0, 1.0, grid, grid[-1] / 30.0)
    for ch in ("position", "velocity", "energy"):
        assert np.array_equal(rep1.errors[ch], rep2.errors[ch])
    assert rep1.slopes == rep2.slopes


def test_sweep_validation_errors():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    with pytest.raises(ValueError):  # too few step sizes
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.05], 0.001)
    with pytest.raises(ValueError):  # not strictly decreasing
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.1, 0.05], 0.001)
    with pytest.raises(ValueError):  # h does not divide T within one step
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.9, 0.7, 0.6], 0.01)
    with pytest.raises(ValueError):  # reference step too coarse
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.05, 0.025], 0.01)
    with pytest.raises(ValueError):  # unknown reference mode
        convergence_sweep(
            gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.05, 0.025], ("euler", 1e-4)
        )


def test_report_invariants():
    with pytest.raises(ValueError):
        ConvergenceReport(np.array([0.1, 0.05]), {}, {}, set())
    with pytest.raises(ValueError):
        ConvergenceReport(np.array([0.1, 0.2, 0.05]), {}, {}, set())


# ---------------------------------------------------------------------------
# adjoint_check and admissible-state sampling


def test_adjoint_check_identity_is_zero():
    states = [PhaseState(np.zeros(2), np.ones(2), np.zeros(0))]
    assert adjoint_check(lambda s, h: s, lambda s, h: s, states, 0.0) == 0.0


def test_adjoint_check_euler_pair():
    sys = model.nonholonomic_particle("harmonic")
    states = sample_admissible_states(sys, 50, seed=7, h=0.1, scheme="euler_a")

    def a_step(s, h):
        return gni_flat.euler_a_step(sys, s, h)

    def b_step(s, h):
        return gni_flat.euler_b_step(sys, s, h)

    assert adjoint_check(a_step, b_step, states, 0.1) <= 1e-9


def test_adjoint_check_rattle_self_adjoint():
    sys = model.nonholonomic_particle("harmonic")
    states = sample_admissible_states(sys, 50, seed=11, h=0.1, scheme="rattle")

    def r_step(s, h):
        return gni_flat.rattle_step(sys, s, h)

    assert adjoint_check(r_step, r_step, states, 0.1) <= 1e-9


def test_sample_admissible_states_properties():
    sys = model.nonholonomic_particle("harmonic")
    h = 0.1
    states = sample_admissible_states(sys, 10, seed=3, h=h, scheme="euler_b")
    assert len(states) == 10
    for s in states:
        res = gni_flat.scheme_constraint_residual(sys, s, h, "euler_b")
        assert np.max(np.abs(res)) <= 1e-12
        assert np.all(np.abs(s.q) <= 1.0)
    again = sample_admissible_states(sys, 10, seed=3, h=h, scheme="euler_b")
    for s, t in zip(states, again):
        assert gni_flat.state_difference(s, t) == 0.0


# ---------------------------------------------------------------------------
# check_suite


def test_check_suite_all_passes():
    results = check_suite("all", seed=0, quiet=True)
    assert results, "suite must not be empty"
    for label, passed, detail in results:
        assert isinstance(label, str) and isinstance(detail, str)
        assert passed, f"{label}: {detail}"


def test_check_suite_deterministic_and_composable():
    full = check_suite("all", seed=42, quiet=True)
    again = check_suite("all", seed=42, quiet=True)
    assert full == again
    pieces = []
    for name in ("lie", "projectors", "steppers", "adjoint"):
        pieces.extend(check_suite(name, seed=42, quiet=True))
    assert full == pieces


def test_check_suite_prints_unless_quiet(capsys):
    check_suite("lie", seed=0)
    out = capsys.readouterr().out
    assert "ok" in out and "lie:" in out
    check_suite("lie", seed=0, quiet=True)
    assert capsys.readouterr().out == ""


def test_check_suite_unknown_name():
    with pytest.raises(ValueError):
        check_suite("spectral", seed=0)
