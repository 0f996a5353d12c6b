"""Tests for the running, convergence, and invariant-suite layer."""
import dataclasses
import math

import numpy as np
import pytest

from gni import analysis, gni_flat, gni_reduced, model, numerics
from gni.analysis import (
    BelowNoiseFloor,
    ConvergenceReport,
    StepFailed,
    adjoint_check,
    convergence_sweep,
    run,
    sample_admissible_states,
    slope_fit,
    state_matrix,
)
from gni.gni_reduced import (
    ChaplyginParams,
    chaplygin_init,
    chaplygin_initial_reduced_state,
    chaplygin_reduced_system,
    chaplygin_scheme_residual,
    chaplygin_step_stats,
    reduced_rattle_step,
)
from gni.checks import check_suite
from gni.model import FlatSystem, PhaseState, ReducedState, constraint_residual
from gni.numerics import NoConvergence, matmul, newton_solve_stats

from flat_systems import two_row_system


# The ``residual`` of a full run, with its residual column, and of a
# windowed one; the ids keep the names "None" (the full run) and "False".
_FULL_AND_WINDOWED = [pytest.param(True, id="None"), pytest.param(False, id="False")]


def _free_system():
    return FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(2),
    )


def _particle_initial(sys):
    return gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])


def _row(state):
    """The row of a flat or reduced state object."""
    if isinstance(state, PhaseState):
        return np.concatenate([state.q, state.p, state.lam])
    return np.concatenate([state.x, state.p, state.xi, state.p_alg, state.lam])


def _states(traj):
    """The rows of a flat or reduced run as state objects."""
    if traj.layout.fields == ("q", "p", "lam"):
        n = traj.layout.values // 2
        return [PhaseState(r[:n], r[n : 2 * n], r[2 * n :]) for r in traj.states]
    return [ReducedState(r[:2], r[2:4], r[4:7], r[7:10], r[10:]) for r in traj.states]


# ---------------------------------------------------------------------------
# run


def test_run_zero_steps_returns_initial_only():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    traj = run(gni_flat.rattle_step, sys, s0, 0.1, 0)
    assert len(traj) == 1
    assert np.array_equal(traj.final, _row(s0))
    assert traj.times.shape == (1,)
    assert traj.times[0] == 0.0


def test_run_free_particle_is_exactly_linear():
    sys = _free_system()
    s0 = PhaseState(np.array([0.1, -0.2]), np.array([1.0, 2.0]), np.zeros(0))
    for stepper in (gni_flat.euler_a_step, gni_flat.euler_b_step, gni_flat.rattle_step):
        traj = run(stepper, sys, s0, 0.25, 8)
        for k, s in enumerate(_states(traj)):
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


def test_sphere_run_whose_m_times_r_underflows_is_rejected_before_any_step():
    # m and r are positive, but the recurrence's row scale h / (m r) divides
    # by 0; the reduced stepper runs on the same values.
    params = ChaplyginParams(1e-200, 1e-200, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"m \* r underflows to 0"):
        run(None, params, ((1.0, 0.0), (-0.2, 0.0, 0.4)), 0.1, 5)
    with pytest.raises(ValueError, match=r"m \* r underflows to 0"):
        gni_reduced.chaplygin_step_stats(params, (1.0, 0.0), (1.0, 0.01), (-0.2, 0.0, 0.4), 0.1)
    rsys = chaplygin_reduced_system(params)
    s0 = chaplygin_initial_reduced_state(params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), 0.1)
    assert np.isfinite(run(gni_reduced.ReducedStepper(), rsys, s0, 0.1, 5).states).all()


def test_run_rejects_inadmissible_initial_state():
    sys = model.nonholonomic_particle("harmonic")
    bad = PhaseState(np.array([0.3, 0.2, 0.1]), np.array([0.0, 0.0, 5.0]), np.zeros(1))
    with pytest.raises(ValueError, match="admissible"):
        run(gni_flat.rattle_step, sys, bad, 0.1, 5)


def _large_projected_states():
    # A flat and a reduced state projected at large velocities, with the
    # step each is checked at, whose residuals are rounding of their scale:
    # 1.0 against |v| = 1.07e16, and 3.1e-5 against |v| = 4e11.  The
    # reduced one is seeded, and checked, at h = 0, where its check allows
    # no offset.
    planar = model.constrained_2d()
    flat = gni_flat.prepare_state(planar, [0.3, 0.2], [1e16, -3e15])
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    w0 = np.array([-0.2, 0.0, 0.4]) * 1e12
    reduced = chaplygin_initial_reduced_state(params, np.array([1.0, 0.0]), w0, 0.0)
    return [(planar, flat, 0.05), (chaplygin_reduced_system(params), reduced, 0.0)]


def test_run_accepts_large_projected_states_at_the_scale_of_their_velocities():
    for system, state, h in _large_projected_states():
        res = np.max(np.abs(constraint_residual(system, state)))
        assert 1e-8 < res < 1e-15 * _velocity_scale(system, state)
        analysis._check_admissible(system, state, h)
    planar, flat, h = _large_projected_states()[0]
    assert len(run(gni_flat.rattle_step, planar, flat, h, 2)) == 3
    # The particle of a sweep at v0 = (1e200,)*3: residual 1.3e184.
    particle = model.nonholonomic_particle("harmonic")
    analysis._check_admissible(particle, gni_flat.prepare_state(particle, [0.3, 0.2, 0.1], [1e200] * 3), 0.1)


def test_run_rejects_large_states_a_relative_1e_3_off():
    # p[0] enters the first row with coefficient 1 (flat) or 1/m (reduced).
    for (system, state, h), coeff in zip(_large_projected_states(), (1.0, 1.0 / 3.0)):
        scale = _velocity_scale(system, state)
        moved = dataclasses.replace(state, p=state.p + np.array([1e-3 * scale / coeff, 0.0]))
        res = np.max(np.abs(constraint_residual(system, moved)))
        assert 0.9e-3 < res / _velocity_scale(system, moved) < 1.1e-3
        with pytest.raises(ValueError, match="admissible"):
            analysis._check_admissible(system, moved, h)


def test_run_rejects_a_heavy_state_a_relative_1e_3_off_at_unit_velocity():
    # M = 1e6 diag(1, 2): momenta of 1e6 at unit velocity leave the
    # tolerance at its unit scale, so a velocity 1e-3 off the constraint
    # v1 + v2 = 0 is refused, and the projected state passes.
    planar = model.constrained_2d()
    heavy = FlatSystem(dim=2, mass_matrix=1e6 * np.diag([1.0, 2.0]), potential=planar.potential,
                       grad_potential=planar.grad_potential, constraints=planar.constraints,
                       num_constraints=1)
    s0 = gni_flat.prepare_state(heavy, [0.3, 0.2], [1.0, -1.0])
    analysis._check_admissible(heavy, s0, 0.05)
    off = PhaseState(s0.q, heavy.mass_matrix @ np.array([1.0, -1.0 + 1e-3]), s0.lam)
    assert np.max(np.abs(off.p)) > 1e6
    for h in (0.05, 0.0):
        with pytest.raises(ValueError, match="constraint residual 1.000e-03"):
            analysis._check_admissible(heavy, off, h)
    with pytest.raises(ValueError, match="admissible"):
        run(gni_flat.rattle_step, heavy, off, 0.05, 2)


def _velocity_scale(system, state):
    # |v|_inf of the velocity v = G^{-1}(m - Pi) whose constraint rows the residual is.
    if isinstance(state, PhaseState):
        return np.max(np.abs(system.mass_inv @ (state.p - system.momentum_offset(state.q))))
    combined = np.concatenate([state.p, state.p_alg])
    return np.max(np.abs(system.metric_inv @ (combined - system.momentum_offset(state.x))))


def _reduced_sphere_run(params, state, h):
    rsys = chaplygin_reduced_system(params)
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
        energies[k] = 0.5 * params.m * float(matmul(v, v)) + 0.5 * float(
            matmul(ws[k], params.inertia * ws[k])
        )
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.energies, energies)
    assert np.array_equal(traj.residuals, residuals)
    # Row 0 is consistent by construction; later rows hold the accepted
    # two-point constraint residuals.
    assert traj.residuals[0] == 0.0
    assert np.max(traj.residuals) <= 1e-10


def _fail_sphere_kernel_at(monkeypatch, failing_step):
    """Patch the rolling-sphere window kernel so that the ``failing_step``-th
    step each run's kernel takes fails with ``NoConvergence(50, 1.0)``; the
    steps before it run unchanged."""
    make_kernel = gni_reduced._chaplygin_stepper

    def failing_kernel(*args):
        window = make_kernel(*args)
        taken = [0]

        def window_or_fail(flat, points, counts, j0, j1):
            stop = j0 + failing_step - 1 - taken[0]  # the failing step's buffer row
            if stop >= j1:
                taken[0] += j1 - j0
                return window(flat, points, counts, j0, j1)
            failed = window(flat, points, counts, j0, stop)
            return (stop, NoConvergence(50, 1.0)) if failed is None else failed

        return window_or_fail

    monkeypatch.setattr(gni_reduced, "_chaplygin_stepper", failing_kernel)


def test_run_chaplygin_failure_keeps_rows_before_failing_step(monkeypatch):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    full = run(None, params, initial, 0.05, 10)
    _fail_sphere_kernel_at(monkeypatch, 6)
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


def test_run_chaplygin_windowed_failure_in_the_second_window_is_the_full_runs(monkeypatch):
    # Step 4,100 is the fourth step of the second window of 4,096 steps.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    _fail_sphere_kernel_at(monkeypatch, 4100)
    failures = []
    for residual in (True, False):
        with pytest.raises(StepFailed) as excinfo:
            run(None, params, initial, 1e-3, 5000, residual=residual)
        failures.append(excinfo.value)
    full, windowed = failures
    assert full.step == windowed.step == 4100
    assert type(full.cause) is type(windowed.cause) is NoConvergence
    assert len(full.partial) == 4100
    # The windowed run holds the rows of the second window before the step.
    assert np.array_equal(windowed.partial.states, full.partial.states[4096:])
    assert np.array_equal(windowed.partial.times, full.partial.times[4096:])


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
    _fail_sphere_kernel_at(monkeypatch, failing_step)
    with pytest.raises(StepFailed) as excinfo:
        run(None, params, initial, 0.05, 40)
    err = excinfo.value
    assert err.step == failing_step
    assert len(err.partial) == failing_step
    head = full.head(failing_step)
    for name in ("times", "states", "energies", "residuals", "newton_iters"):
        assert np.array_equal(getattr(err.partial, name), getattr(head, name)), name


def _reduced_kernel_case(retraction="cay"):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    h = 0.05
    s0 = chaplygin_initial_reduced_state(params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), h)
    return chaplygin_reduced_system(params), s0, h, gni_reduced.ReducedStepper(retraction)


@pytest.mark.parametrize("n_steps", [0, 1, 7])
def test_run_reduced_kernel_has_one_row_per_node(n_steps):
    rsys, s0, h, stepper = _reduced_kernel_case()
    traj = run(stepper, rsys, s0, h, n_steps)
    assert traj.states.shape == (n_steps + 1, 12)
    assert len(traj) == len(traj.times) == len(traj.energies) == n_steps + 1
    assert len(traj.residuals) == len(traj.newton_iters) == n_steps + 1
    assert np.array_equal(
        traj.states[0], np.concatenate([s0.x, s0.p, s0.xi, s0.p_alg, s0.lam])
    )
    assert traj.residuals[0] == 0.0
    assert np.array_equal(traj.energies[:1], [model.energy(rsys, s0)])


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_run_reduced_kernel_rows_match_the_one_step_map(retraction):
    # The kernel's rows against the record stepped as a one-step map, and
    # its diagnostics against the per-row forms on those rows.
    rsys, s0, h, stepper = _reduced_kernel_case(retraction)
    traj = run(stepper, rsys, s0, h, 60)
    one_step = run(lambda sys_, s, hh: stepper(sys_, s, hh), rsys, s0, h, 60)
    rows = one_step.states
    assert np.max(np.abs(traj.states - rows)) <= 1e-12
    assert np.array_equal(traj.newton_iters, one_step.newton_iters)
    as_states = [ReducedState(r[:2], r[2:4], r[4:7], r[7:10], r[10:]) for r in traj.states]
    assert np.array_equal(traj.energies, [model.energy(rsys, s) for s in as_states])
    expected = [0.0] + [
        _per_row_norm(gni_reduced.reduced_scheme_residual(rsys, a, b, h, retraction))
        for a, b in zip(as_states, as_states[1:])
    ]
    assert np.array_equal(traj.residuals, expected)
    assert np.max(traj.residuals) <= 1e-10


@pytest.mark.parametrize("failing_step", [1, 2, 9])
def test_run_reduced_kernel_failure_partial_is_head_of_full_run(monkeypatch, failing_step):
    rsys, s0, h, stepper = _reduced_kernel_case()
    full = run(stepper, rsys, s0, h, 12)
    build = gni_reduced._stage3_solver
    calls = {"n": 0}

    def build_failing(*args, **kwargs):
        solve = build(*args, **kwargs)

        def solve_or_fail(*values):
            calls["n"] += 1
            if calls["n"] == failing_step:
                raise NoConvergence(50, 1.0)
            return solve(*values)

        return solve_or_fail

    monkeypatch.setattr(gni_reduced, "_stage3_solver", build_failing)
    with pytest.raises(StepFailed) as excinfo:
        run(stepper, rsys, s0, h, 12)
    err = excinfo.value
    assert err.step == failing_step
    assert len(err.partial) == failing_step
    head = full.head(failing_step)
    for name in ("times", "states", "energies", "residuals", "newton_iters"):
        assert np.array_equal(getattr(err.partial, name), getattr(head, name)), name


def test_run_reduced_record_on_a_callable_annihilator_steps_the_array_step(monkeypatch):
    rsys, s0, h, stepper = _reduced_kernel_case()
    rows = rsys.annihilator
    callable_rows = model.ReducedSystem(
        2, 3, rsys.bundle_metric, annihilator=lambda x: rows, num_constraints=2,
        affine_section=lambda x: rsys.affine_section @ x,
    )
    step = gni_reduced.reduced_rattle_step
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(gni_reduced, "reduced_rattle_step", counted)
    traj = run(stepper, callable_rows, s0, h, 5)
    assert calls["n"] == 5
    assert isinstance(traj.states, np.ndarray) and traj.states.shape == (6, 12)
    assert traj.layout.fields == ("x", "p", "xi", "p_alg", "lam")


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


def _array_three_point_step(ld, sys, q_prev, q_curr, h):
    # The three-point step as the array algebra wrote it before the float
    # kernel: the projector pair at q_curr, (P^T - Q^T) D2 + 2 Q^T Pi as
    # matrix products (in the order of gni.numerics.matmul), and Newton on
    # array residuals.  The kernel must reproduce it bit for bit.
    p_mat, q_mat = model.projectors(sys, q_curr)
    carried = matmul(p_mat.T - q_mat.T, np.asarray(ld.d2(q_prev.tolist(), q_curr.tolist(), h), dtype=float))
    carried = carried + 2.0 * matmul(q_mat.T, sys.momentum_offset(q_curr))

    def residual(q_next):
        return (np.asarray(ld.d1(q_curr.tolist(), q_next, h), dtype=float) + carried).tolist()

    def jacobian(q_next):
        return np.asarray(ld.d12(q_curr.tolist(), q_next, h), dtype=float).tolist()

    q_next, iters = newton_solve_stats(residual, (2.0 * q_curr - q_prev).tolist(), jacobian=jacobian)
    return np.array(q_next), iters


def _array_three_point_run(ld, sys, s0, h, n_steps):
    # Positions q_0 .. q_{N+1} (q_1 from one rattle step) and the Newton
    # iterations of rows 0 .. N.
    qs, iters = [s0.q, gni_flat.rattle_step(sys, s0, h).q], [s0.newton_iters]
    for k in range(1, n_steps + 1):
        q_next, it = _array_three_point_step(ld, sys, qs[k - 1], qs[k], h)
        qs.append(q_next)
        iters.append(it)
    return np.array(qs), iters


def _quartic_kinetic_lagrangian(sys, c=0.01):
    # Verlet with the quartic velocity term -(c/4) sum(((q1 - q0)/h)^4) h:
    # d1 is cubic in q1 and d12 depends on it, so Newton takes several
    # iterations per step.  It takes its positions as lists, as the kernel
    # passes them, and returns float64 arrays.
    mass = sys.mass_matrix

    def d1(q0, q1, h):
        q0, d = np.array(q0), np.subtract(q1, q0)
        return -(mass @ d) / h - 0.5 * h * np.asarray(sys.grad_potential(q0)) + (c / h**3) * d**3

    def d2(q0, q1, h):
        q1, d = np.array(q1), np.subtract(q1, q0)
        return (mass @ d) / h - 0.5 * h * np.asarray(sys.grad_potential(q1)) - (c / h**3) * d**3

    def d12(q0, q1, h):
        return -mass / h + np.diag((3.0 * c / h**3) * np.subtract(q1, q0) ** 2)

    return gni_flat.DiscreteLagrangian(d1, d2, d12)


_THREE_POINT_CASES = {
    "particle-verlet": (lambda: model.nonholonomic_particle("harmonic"), gni_flat.verlet_lagrangian),
    "particle-euler_a": (lambda: model.nonholonomic_particle("harmonic"), gni_flat.euler_a_lagrangian),
    "particle-euler_b": (lambda: model.nonholonomic_particle("harmonic"), gni_flat.euler_b_lagrangian),
    "particle-quartic": (lambda: model.nonholonomic_particle("harmonic"), _quartic_kinetic_lagrangian),
    "affine-verlet": (lambda: model.constrained_2d(affine=(0.3, -0.2)), gni_flat.verlet_lagrangian),
    "two_rows-verlet": (two_row_system, gni_flat.verlet_lagrangian),
}


def _three_point_initial(sys):
    return gni_flat.prepare_state(sys, np.linspace(0.3, 0.1, sys.dim), np.linspace(1.0, 0.2, sys.dim))


@pytest.mark.parametrize("n_steps", [0, 1, 300])
@pytest.mark.parametrize("case", sorted(_THREE_POINT_CASES))
def test_run_three_point_rows_match_direct_recurrence(case, n_steps):
    make_system, make_lagrangian = _THREE_POINT_CASES[case]
    sys = make_system()
    ld = make_lagrangian(sys)
    s0 = _three_point_initial(sys)
    h, n = 0.05, sys.dim
    traj = run(ld, sys, s0, h, n_steps)
    assert len(traj) == n_steps + 1
    assert np.array_equal(traj.states[0], _row(s0))

    qs, iters = _array_three_point_run(ld, sys, s0, h, n_steps)
    for k in range(1, n_steps + 1):
        assert np.array_equal(traj.states[k, :n], qs[k])
        p_bar = matmul(sys.mass_matrix, qs[k + 1] - qs[k - 1]) / (2.0 * h)
        assert np.array_equal(traj.states[k, n : 2 * n], p_bar)
    assert traj.newton_iters.tolist() == iters
    residuals = [np.max(np.abs(constraint_residual(sys, s))) for s in _states(traj)]
    assert np.array_equal(traj.residuals, residuals)
    if make_lagrangian is gni_flat.verlet_lagrangian:
        # The symmetric scheme keeps its central-difference momentum on the
        # constraint; the one-sided ones are off it by O(h).
        assert np.max(traj.residuals) <= 1e-10
    if case == "particle-quartic" and n_steps:
        assert max(iters) > 1


def test_an_ndarray_returning_lagrangian_keeps_the_array_oracles_bits():
    # The quartic case's callables return float64 arrays, which the kernel
    # takes through as_floats: its rows are still the array oracle's.
    ld = _quartic_kinetic_lagrangian(model.nonholonomic_particle("harmonic"))
    q0, q1 = [0.3, 0.2, 0.1], [0.35, 0.22, 0.11]
    assert all(type(f(q0, q1, 0.05)) is np.ndarray for f in (ld.d1, ld.d2, ld.d12))
    test_run_three_point_rows_match_direct_recurrence("particle-quartic", 300)


def test_run_three_point_without_residuals_keeps_the_direct_recurrences_last_rows():
    # Across two 4,096-row blocks, the last two rows are the array
    # recurrence's, bit for bit.
    sys = model.nonholonomic_particle("harmonic")
    ld = gni_flat.verlet_lagrangian(sys)
    s0 = _three_point_initial(sys)
    h, n_steps = 0.05, 2 * analysis._WINDOW_ROWS + 5
    traj = run(ld, sys, s0, h, n_steps, residual=False)
    qs, iters = _array_three_point_run(ld, sys, s0, h, n_steps)
    assert len(traj) == 2
    for row, k in zip(traj.states, (n_steps - 1, n_steps)):
        assert np.array_equal(row[:3], qs[k])
        assert np.array_equal(row[3:6], matmul(sys.mass_matrix, qs[k + 1] - qs[k - 1]) / (2.0 * h))
    assert traj.newton_iters.tolist() == iters[-2:]
    assert np.array_equal(traj.times, h * np.arange(n_steps - 1, n_steps + 1))


def _chained_positions(ld, sys, s0, h, n_steps):
    # Positions q_0 .. q_{N+1} and the Newton iterations of rows 1 .. N by
    # one-step gni_generic_step_stats calls, each on a kernel of its own and
    # so with a fresh factorization of d12.
    qs, iters = [s0.q, gni_flat.rattle_step(sys, s0, h).q], []
    for _ in range(n_steps):
        q_next, it = gni_flat.gni_generic_step_stats(ld, sys, qs[-2], qs[-1], h)
        qs.append(q_next)
        iters.append(it)
    return np.array(qs), iters


def _switching_d12_lagrangian(sys, kind):
    # Verlet's d1 and d2 with a d12 that changes with the parity of a digit
    # of q_k: "alternating" switches between -M/h and -1.25 M/h (Newton then
    # converges linearly), "signed_zero" between -M/h with its zeros +0.0 and
    # with them -0.0, the same matrix under == but not in its bits.
    ld, mass = gni_flat.verlet_lagrangian(sys), sys.mass_matrix.tolist()

    def d12(q0, q1, h):
        odd = int(q0[0] * 1e6) % 2 == 1
        if kind == "alternating":
            return [[-(1.25 if odd else 1.0) * a / h for a in row] for row in mass]
        return [[-a / h if a else (-0.0 if odd else 0.0) for a in row] for row in mass]

    return dataclasses.replace(ld, d12=d12)


_FACTOR_CASES = {
    "alternating": lambda sys: _switching_d12_lagrangian(sys, "alternating"),
    "signed_zero": lambda sys: _switching_d12_lagrangian(sys, "signed_zero"),
    "quartic": _quartic_kinetic_lagrangian,
}


def _counting_factor(monkeypatch):
    # Counts the kernel's factorizations: each call of its lu_factor.
    calls = []

    def counting(rows):
        calls.append(np.array(rows).tobytes())
        return numerics.lu_factor(rows)

    monkeypatch.setattr(gni_flat, "lu_factor", counting)
    return calls


@pytest.mark.parametrize("case", sorted(_FACTOR_CASES))
def test_a_run_that_keeps_d12_factored_has_the_bits_of_fresh_factorizations(case, monkeypatch):
    sys, h, n_steps = model.nonholonomic_particle("harmonic"), 0.05, 200
    ld, s0 = _FACTOR_CASES[case](sys), _three_point_initial(sys)
    qs, iters = _chained_positions(ld, sys, s0, h, n_steps)
    calls = _counting_factor(monkeypatch)
    traj = run(ld, sys, s0, h, n_steps)
    assert np.array_equal(traj.states[:, :3], qs[:-1])
    assert traj.newton_iters[1:].tolist() == iters
    # The run factors d12 rows that it meets twice in a row, and again
    # exactly where their bits change; the quartic's d12 changes at every
    # iteration, so each of its Newton systems is a one-shot lu_solve.
    changes = sum(a != b for a, b in zip(calls, calls[1:]))
    if case == "quartic":
        assert calls == []
    else:
        assert changes == len(calls) - 1 > 10
    if case == "signed_zero":
        assert all(np.array_equal(np.frombuffer(c), np.frombuffer(calls[0])) for c in calls)


@pytest.mark.parametrize("make_lagrangian", [gni_flat.verlet_lagrangian, gni_flat.euler_a_lagrangian])
def test_a_three_point_run_factors_a_constant_d12_once(make_lagrangian, monkeypatch):
    sys, h = model.nonholonomic_particle("harmonic"), 0.05
    s0 = _three_point_initial(sys)
    factored = []
    for n_steps in (200, 400):
        calls = _counting_factor(monkeypatch)
        run(make_lagrangian(sys), sys, s0, h, n_steps)
        factored.append(len(calls))
    assert factored[1] <= factored[0] == 1


@pytest.mark.parametrize("residual", [True, False])
def test_a_three_point_run_fails_where_its_one_constraint_row_vanishes(residual):
    # Free flight along x; the row (0, 1 - x) vanishes once x reaches 1: at
    # step 10, as the general Gram solve reported it, with rows 0 .. 9.
    sys = FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(2),
        constraints=lambda q: np.array([[0.0, max(1.0 - q[0], 0.0)]]),
        num_constraints=1,
    )
    s0, h = PhaseState(np.zeros(2), np.array([1.0, 0.0]), np.zeros(1)), 0.1
    ld = gni_flat.verlet_lagrangian(sys)
    with pytest.raises(StepFailed) as excinfo:
        run(ld, sys, s0, h, 40, residual=residual)
    err = excinfo.value
    assert err.step == 10 and type(err.cause) is numerics.RankDeficient
    assert str(err.cause) == "constraint row vanishes"
    head = run(ld, sys, s0, h, 9)
    assert np.array_equal(err.partial.states, head.states)


def _overflowing_row_particle():
    # The particle whose constraint row overflows at x = 1: exp(800) does.
    return FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=lambda q: 0.0,
        grad_potential=lambda q: [0.0, 0.0, 0.0],
        constraints=lambda q: [[0.0 * math.exp(800.0 * q[0]), 0.0, 1.0]],
        num_constraints=1,
    )


@pytest.mark.parametrize("n_steps", [0, 1, 5])
@pytest.mark.parametrize("stepper", ["rattle", "gni_generic"])
def test_a_callable_that_overflows_at_the_initial_state_fails_the_run_at_step_0(stepper, n_steps):
    # As an initial state with a non-finite residual: StepFailed, before any
    # step, with no rows, whatever the step count.
    sys = _overflowing_row_particle()
    s0 = PhaseState(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.zeros(1))
    step = gni_flat.rattle_step if stepper == "rattle" else gni_flat.verlet_lagrangian(sys)
    with pytest.raises(StepFailed) as excinfo:
        run(step, sys, s0, 0.1, n_steps)
    err = excinfo.value
    assert err.step == 0 and type(err.cause) is OverflowError
    assert len(err.partial) == 0 and err.partial.states.shape == (0, 7)


def test_run_three_point_failure_keeps_rows_before_failing_step():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    ld = gni_flat.verlet_lagrangian(sys)
    full = run(ld, sys, s0, 0.05, 6)
    q4 = full.states[4, :3]

    def d1_failing_at_4(q0, q1, h):
        # Step k solves for q_{k+1} from q_k: step 4 is the first whose
        # residual evaluates d1 at the run's position q_4.
        if np.array_equal(q0, q4):
            raise NoConvergence(50, 1.0)
        return ld.d1(q0, q1, h)

    failing = gni_flat.DiscreteLagrangian(d1_failing_at_4, ld.d2, ld.d12)
    with pytest.raises(StepFailed) as excinfo:
        run(failing, sys, s0, 0.05, 6)
    err = excinfo.value
    assert err.step == 4
    assert isinstance(err.cause, NoConvergence)
    assert len(err.partial) == 4  # rows 0..3
    for k in range(4):
        assert np.array_equal(err.partial.states[k, 3:6], full.states[k, 3:6])
    assert np.array_equal(err.partial.residuals, full.residuals[:4])


def test_run_three_point_windowed_failure_in_the_second_window_is_the_full_runs():
    # Step 4,100 is the fourth step of the second window of 4,096 steps.
    sys = model.nonholonomic_particle("harmonic")
    s0 = _three_point_initial(sys)
    ld = gni_flat.verlet_lagrangian(sys)
    h = 0.01
    q_4100 = run(ld, sys, s0, h, 4100).states[4100, :3]

    def d1_failing_at_4100(q0, q1, h):
        if np.array_equal(q0, q_4100):
            raise NoConvergence(50, 1.0)
        return ld.d1(q0, q1, h)

    failing = gni_flat.DiscreteLagrangian(d1_failing_at_4100, ld.d2, ld.d12)
    failures = []
    for residual in (True, False):
        with pytest.raises(StepFailed) as excinfo:
            run(failing, sys, s0, h, 5000, residual=residual)
        failures.append(excinfo.value)
    full, windowed = failures
    assert full.step == windowed.step == 4100
    assert type(full.cause) is type(windowed.cause) is NoConvergence
    assert len(full.partial) == 4100
    # The windowed run holds the rows of the second window before the step.
    assert np.array_equal(windowed.partial.states, full.partial.states[4096:])
    assert np.array_equal(windowed.partial.times, full.partial.times[4096:])
    assert np.array_equal(windowed.partial.energies, full.partial.energies[4096:])


def _overflowing_row_system():
    # The constraint row (0, 0, 1) holds z still; evaluating it on floats
    # overflows once x passes 709.78 / 800.
    import math

    return FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=lambda q: 0.0,
        grad_potential=lambda q: [0.0, 0.0, 0.0],
        constraints=lambda q: [[0.0 * math.exp(800.0 * q[0]), 0.0, 1.0]],
        num_constraints=1,
    )


@pytest.mark.parametrize("kind", ["rattle", "gni_generic", "one-step map"])
@pytest.mark.parametrize("residual", _FULL_AND_WINDOWED)
def test_run_fails_where_a_constraint_callable_overflows(kind, residual):
    # An ArithmeticError from any stepper fails the run as StepFailed.
    sys = _overflowing_row_system()
    stepper = {
        "rattle": gni_flat.rattle_step,
        "gni_generic": gni_flat.verlet_lagrangian(sys),
        "one-step map": gni_flat.composed_euler_step,
    }[kind]
    s0 = PhaseState(np.array([0.3, 0.0, 0.0]), np.array([1.0, 0.5, 0.0]), np.zeros(1))
    with pytest.raises(StepFailed) as excinfo:
        run(stepper, sys, s0, 0.05, 40, residual=residual)
    err = excinfo.value
    assert err.step == 12
    assert type(err.cause) is OverflowError
    head = run(stepper, sys, s0, 0.05, err.step - 1)
    assert len(err.partial) == len(head) == err.step
    for name in ("times", "states", "energies", "newton_iters"):
        assert np.array_equal(getattr(err.partial, name), getattr(head, name)), name
    if residual:
        assert np.array_equal(err.partial.residuals, head.residuals)


def _overflowing_potential_system(infinite_band=False):
    # V = 0, but evaluating it on floats overflows once x passes 709.78 / 800;
    # with ``infinite_band`` it is also inf for 0.45 < x < 0.55.
    def potential(q):
        return (math.inf if infinite_band and 0.45 < q[0] < 0.55 else 0.0) + 0.0 * math.exp(800.0 * q[0])

    return FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=potential,
        grad_potential=lambda q: [0.0, 0.0, 0.0],
        constraints=lambda q: [[0.0, 0.0, 1.0]],
        num_constraints=1,
    )


_POTENTIAL_STEPPERS = {
    "rattle": lambda sys: gni_flat.rattle_step,
    "gni_generic": gni_flat.verlet_lagrangian,
    "one-step map": lambda sys: gni_flat.composed_euler_step,
}


@pytest.mark.parametrize("kind", list(_POTENTIAL_STEPPERS))
@pytest.mark.parametrize("residual", _FULL_AND_WINDOWED)
def test_run_fails_at_the_first_row_whose_potential_overflows(kind, residual):
    # x moves at unit speed from 0, so the energy column first raises at row
    # 9 (x = 0.9): StepFailed there, its cause the OverflowError, chained.
    sys = _overflowing_potential_system()
    stepper = _POTENTIAL_STEPPERS[kind](sys)
    s0 = PhaseState(np.zeros(3), np.array([1.0, 1.0, 0.0]), np.zeros(1))
    with pytest.raises(StepFailed) as excinfo:
        run(stepper, sys, s0, 0.1, 20, residual=residual)
    err = excinfo.value
    assert err.step == 9
    assert type(err.cause) is OverflowError and err.__cause__ is err.cause
    head = run(stepper, sys, s0, 0.1, 8)
    assert len(err.partial) == len(head) == 9
    for name in ("times", "states", "energies", "residuals", "newton_iters"):
        assert np.array_equal(getattr(err.partial, name), getattr(head, name)), name


@pytest.mark.parametrize("kind", list(_POTENTIAL_STEPPERS))
@pytest.mark.parametrize("residual", _FULL_AND_WINDOWED)
def test_a_non_finite_energy_before_a_raising_potential_fails_the_run_first(kind, residual):
    # The potential is inf at rows 5 (x = 0.5) before it raises at row 9.
    sys = _overflowing_potential_system(infinite_band=True)
    stepper = _POTENTIAL_STEPPERS[kind](sys)
    s0 = PhaseState(np.zeros(3), np.array([1.0, 1.0, 0.0]), np.zeros(1))
    with pytest.raises(StepFailed) as excinfo:
        run(stepper, sys, s0, 0.1, 20, residual=residual)
    err = excinfo.value
    assert err.step == 5 and type(err.cause) is FloatingPointError
    assert len(err.partial) == 5


@pytest.mark.parametrize("infinite_band, step, first, cause", [
    (False, 8873, 8192, OverflowError), (True, 4501, 4096, FloatingPointError)])
@pytest.mark.parametrize("kind", ["rattle", "gni_generic"])
def test_a_potential_that_overflows_in_a_later_window_fails_the_run_at_the_same_row(
        kind, infinite_band, step, first, cause):
    # At h = 1e-4 the potential first raises at row 8,873, in the third
    # window of 4,096 steps, and is first inf at row 4,501, in the second:
    # the windowed run fails where the full run does, with the rows of that
    # window before it, never at the later row of its last window.
    sys = _overflowing_potential_system(infinite_band)
    stepper = _POTENTIAL_STEPPERS[kind](sys)
    s0 = PhaseState(np.zeros(3), np.array([1.0, 1.0, 0.0]), np.zeros(1))
    failures = []
    for residual in (True, False):
        with pytest.raises(StepFailed) as excinfo:
            run(stepper, sys, s0, 1e-4, 9000, residual=residual)
        failures.append(excinfo.value)
    full, windowed = failures
    assert full.step == windowed.step == step
    assert type(full.cause) is type(windowed.cause) is cause
    assert len(full.partial) == step
    assert np.array_equal(windowed.partial.states, full.partial.states[first:])
    assert np.array_equal(windowed.partial.energies, full.partial.energies[first:])


def test_run_reports_the_schemes_own_residual_form():
    sys = model.nonholonomic_particle("harmonic")
    h = 0.05
    s0 = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="euler_a", h=h)
    traj = run(gni_flat.euler_a_step, sys, s0, h, 5)
    expected = [
        np.max(np.abs(gni_flat.scheme_constraint_residual(sys, s, h, "euler_a")))
        for s in _states(traj)
    ]
    assert np.array_equal(traj.residuals, expected)
    assert np.max(traj.residuals) <= 1e-12
    # The momentum form is off by the half-step potential shift.
    momentum = [np.max(np.abs(constraint_residual(sys, s))) for s in _states(traj)]
    assert np.max(momentum) > 1e-4
    # residual=False keeps the last two rows, with the column at zero.
    bare = run(gni_flat.euler_a_step, sys, s0, h, 5, residual=False)
    assert np.array_equal(state_matrix(bare), state_matrix(traj.rows(-2)))
    assert np.array_equal(bare.energies, traj.energies[-2:])
    assert not np.any(bare.residuals)


def test_run_chaplygin_without_residuals_keeps_states_and_energies():
    # Of the last two rows, which are all a residual=False run keeps.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    full = run(None, params, initial, 0.05, 10)
    bare = run(None, params, initial, 0.05, 10, residual=False)
    assert np.array_equal(bare.times, full.times[-2:])
    assert np.array_equal(bare.states, full.states[-2:])
    assert np.array_equal(bare.energies, full.energies[-2:])
    assert not np.any(bare.residuals)
    assert np.max(full.residuals) > 0.0


# ---------------------------------------------------------------------------
# runs that keep only their final rows (residual=False)


def _window_cases():
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    q0, w0 = np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])
    rsys = chaplygin_reduced_system(params)
    particle = model.nonholonomic_particle("harmonic")
    h = 0.01
    return {
        "sphere": (None, params, (q0, w0)),
        "reduced-cay": (
            gni_reduced.ReducedStepper("cay"), rsys, chaplygin_initial_reduced_state(params, q0, w0, h)
        ),
        "reduced-exp": (
            gni_reduced.ReducedStepper("exp"), rsys, chaplygin_initial_reduced_state(params, q0, w0, h)
        ),
        "gni_generic": (
            gni_flat.verlet_lagrangian(particle),
            particle,
            gni_flat.prepare_state(particle, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "rattle", h),
        ),
        "euler_a": (
            gni_flat.euler_a_step,
            particle,
            gni_flat.prepare_state(particle, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "euler_a", h),
        ),
        "euler_b": (
            gni_flat.euler_b_step,
            particle,
            gni_flat.prepare_state(particle, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "euler_b", h),
        ),
        "rattle": (
            gni_flat.rattle_step,
            particle,
            gni_flat.prepare_state(particle, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "rattle", h),
        ),
        "rk4": (model.rk4, particle, gni_flat.prepare_state(particle, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])),
        # Constant rows passed as a callable: the reduced kernel steps the array step.
        "reduced-callable": (
            gni_reduced.ReducedStepper("cay"),
            dataclasses.replace(rsys, annihilator=lambda x, rows=rsys.annihilator: rows),
            chaplygin_initial_reduced_state(params, q0, w0, h),
        ),
    }, h


_WINDOW_CASES = [
    "sphere", "reduced-cay", "reduced-exp", "reduced-callable", "gni_generic", "euler_a", "rk4"
]


@pytest.mark.parametrize(
    "case, window",
    [pytest.param(case, None, id=case) for case in _WINDOW_CASES]
    + [pytest.param(case, w, id=f"{case}-window{w}") for case in _WINDOW_CASES for w in (1, 2, 3)],
)
def test_run_without_residuals_keeps_the_full_runs_last_two_rows(monkeypatch, case, window):
    # At N = 1, C - 1, C, C + 1 and 2C + 3 for the block size C (the
    # default, or one as small as the carried rows), so the rows kept have
    # crossed zero, one and two drops.  Rows of a full run of N steps are
    # those of any longer full run, so one long run serves.
    if window is not None:
        monkeypatch.setattr(analysis, "_WINDOW_ROWS", window)
    cases, h = _window_cases()
    stepper, system, initial = cases[case]
    c = analysis._WINDOW_ROWS
    longest = 2 * c + 3
    full = run(stepper, system, initial, h, longest)
    for n_steps in sorted({1, c - 1, c, c + 1, longest} - {0}):
        bare = run(stepper, system, initial, h, n_steps, residual=False)
        last = full.rows(n_steps - 1, n_steps + 1)
        assert len(bare) == 2, n_steps
        for name in ("times", "energies", "newton_iters"):
            assert np.array_equal(getattr(bare, name), getattr(last, name)), (n_steps, name)
        assert np.array_equal(state_matrix(bare), state_matrix(last)), n_steps
        assert not np.any(bare.residuals)


@pytest.mark.parametrize(
    "case", ["euler_a", "euler_b", "rattle", "rk4", "gni_generic", "reduced-cay", "reduced-callable"]
)
def test_every_kernel_record_keeps_the_window_contract(case):
    # ``kernel(system, h, m)`` gives ``(window, form, point_size)``, and an
    # empty window (1, 1) writes at most row 0's point, no row past 0.
    cases, h = _window_cases()
    stepper, system, initial = cases[case]
    window, form, point_size = stepper.kernel(system, h, initial.lam.size)
    assert callable(form) and isinstance(point_size, int) and point_size >= 0
    row0 = analysis._layout(system).stack([initial])[0]
    rows, points = np.full((4, row0.size), np.nan), np.full((4, point_size), np.nan)
    rows[0] = row0
    counts = np.full(4, -7)
    flat = memoryview(rows.reshape(-1))
    assert window(flat, memoryview(points.reshape(-1)), memoryview(counts), 1, 1) is None
    assert np.array_equal(rows[0], row0) and np.isnan(rows[1:]).all()
    assert np.isnan(points[1:]).all() and (counts == -7).all()
    assert form(rows[:1], points[:1]).shape == (1, initial.lam.size)


@pytest.mark.parametrize("case", ["sphere", "reduced-cay", "gni_generic", "euler_a", "one-step map"])
@pytest.mark.parametrize("h", [np.nan, np.inf])
@pytest.mark.parametrize("residual", _FULL_AND_WINDOWED)
def test_run_rejects_a_non_finite_step_size_before_any_step(case, h, residual):
    cases, _ = _window_cases()
    cases["one-step map"] = (gni_flat.composed_euler_step,) + cases["euler_a"][1:]
    stepper, system, initial = cases[case]
    with pytest.raises(ValueError, match="finite"):
        run(stepper, system, initial, h, 10, residual=residual)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_convergence_sweep_rejects_a_non_finite_final_time(T):
    sys = model.nonholonomic_particle("harmonic")
    with pytest.raises(ValueError, match="T="):
        convergence_sweep(
            gni_flat.rattle_step, sys, _particle_initial(sys), T, [0.1, 0.05, 0.025], ("self", 1e-4)
        )


def test_run_without_residuals_keeps_one_row_of_zero_steps():
    cases, h = _window_cases()
    stepper, system, initial = cases["sphere"]
    bare = run(stepper, system, initial, h, 0, residual=False)
    full = run(stepper, system, initial, h, 0)
    assert len(bare) == 1
    assert np.array_equal(bare.states, full.states)
    assert np.array_equal(bare.energies, full.energies)


def _repulsive_system(stiffness):
    # q'' = stiffness * q: every step grows the state until it overflows.
    return FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: -0.5 * stiffness * (q @ q),
        grad_potential=lambda q: -stiffness * np.asarray(q),
    )


def test_run_overflowing_mid_run_fails_at_the_same_step_without_residuals():
    # The energy overflows past the first block, after rows were dropped.
    sys = _repulsive_system(0.36)
    s0 = PhaseState(np.array([1.0, 0.5]), np.array([0.0, 1.0]), np.zeros(0))
    errors = []
    for residual in (True, False):
        with pytest.raises(StepFailed) as excinfo:
            run(gni_flat.euler_a_step, sys, s0, 0.1, 3 * analysis._WINDOW_ROWS, residual=residual)
        errors.append(excinfo.value)
    full, bare = errors
    assert analysis._WINDOW_ROWS < full.step < 3 * analysis._WINDOW_ROWS
    assert bare.step == full.step
    assert type(bare.cause) is type(full.cause) is FloatingPointError
    assert str(bare.cause) == str(full.cause)
    # The partial holds the rows still kept: the tail of the full partial.
    kept = len(bare.partial)
    assert 0 < kept <= analysis._WINDOW_ROWS + 1
    assert np.array_equal(bare.partial.times, full.partial.times[-kept:])
    assert np.array_equal(bare.partial.energies, full.partial.energies[-kept:])
    assert np.array_equal(state_matrix(bare.partial), state_matrix(full.partial.rows(-kept)))


@pytest.mark.parametrize("window", [1, 2, 3])
def test_run_sphere_non_finite_row_at_the_smallest_windows_is_the_full_runs(monkeypatch, window):
    # Each step moves the contact point 1e100 times further, so row 2's
    # central difference is the first to overflow: at a window of one step
    # it is found after the first keep, which has dropped no row yet.
    def growing_stepper(params, h, cfg):
        def window_kernel(flat, points, counts, j0, j1):
            for j in range(j0, j1):
                i = 5 * j
                flat[i + 5], flat[i + 6] = flat[i] * 1e100, flat[i + 1]
                flat[i + 2], flat[i + 3], flat[i + 4] = flat[i - 3], flat[i - 2], flat[i - 1]
                counts[j] = 0
            return None

        return window_kernel

    monkeypatch.setattr(gni_reduced, "_chaplygin_stepper", growing_stepper)
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    errors = []
    for residual in (True, False):
        with np.errstate(all="ignore"), pytest.raises(StepFailed) as excinfo:
            run(None, params, initial, 0.1, 30, residual=residual)
        errors.append(excinfo.value)
        monkeypatch.setattr(analysis, "_WINDOW_ROWS", window)
    full, bare = errors
    assert full.step == bare.step == 2
    assert str(bare.cause) == str(full.cause)
    kept = len(bare.partial)
    assert 0 < kept <= 2
    assert np.array_equal(bare.partial.times, full.partial.times[-kept:])
    assert np.array_equal(bare.partial.states, full.partial.states[-kept:])


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_run_without_residuals_reports_a_later_solver_failure_as_the_full_run(
    monkeypatch, offset
):
    # A stepper that steps on past a non-finite row but fails on the step
    # after it: the full run reports that solver failure, not the row, and
    # so must a windowed run whose block ends at, before or after the row.
    sys = _repulsive_system(1e4)
    s0 = PhaseState(np.array([1.0, 0.5]), np.array([0.0, 1.0]), np.zeros(0))

    def step(sys_, s, h):
        if not np.isfinite(s.p).all():
            raise NoConvergence(0, float("nan"))
        return gni_flat.euler_a_step(sys_, s, h)

    with pytest.raises(StepFailed) as excinfo:
        run(step, sys, s0, 0.1, 200)
    full = excinfo.value
    assert isinstance(full.cause, NoConvergence)
    monkeypatch.setattr(analysis, "_WINDOW_ROWS", full.step - 1 + offset)
    with pytest.raises(StepFailed) as excinfo:
        run(step, sys, s0, 0.1, 200, residual=False)
    assert excinfo.value.step == full.step
    assert isinstance(excinfo.value.cause, NoConvergence)


def test_sphere_sweep_reference_memory_does_not_grow_with_its_steps(monkeypatch):
    # A 200,000-step self reference; the sweep's own runs are 80 steps.
    # Its rows alone would take 8 MB.  Under tracemalloc the Newton kernel
    # costs about 100 us a step, so a straight-line step stands in for it:
    # what is measured is the runner's buffers.
    import tracemalloc

    def straight_line_stepper(params, h, cfg):
        def window(flat, points, counts, j0, j1):
            for j in range(j0, j1):
                i = 5 * j
                flat[i + 5] = flat[i] + (flat[i] - flat[i - 5])
                flat[i + 6] = flat[i + 1] + (flat[i + 1] - flat[i - 4])
                flat[i + 2], flat[i + 3], flat[i + 4] = flat[i - 3], flat[i - 2], flat[i - 1]
                counts[j] = 0
            return None

        return window

    monkeypatch.setattr(gni_reduced, "_chaplygin_stepper", straight_line_stepper)
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    tracemalloc.start()
    try:
        report = convergence_sweep(None, params, initial, 2.0, [0.1, 0.05, 0.025], ("self", 1e-5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.errors["position"][-1] > 0.0
    assert peak < 2 * 2**20


def _per_row_energy(system, s):
    # The one-state-at-a-time formula the stacked energy pass replaced.
    if isinstance(s, PhaseState):
        return matmul(0.5 * s.p, matmul(system.mass_inv, s.p)) + float(system.potential(s.q))
    combined = np.concatenate([s.p, s.p_alg])
    return matmul(0.5 * combined, matmul(system.metric_inv, combined)) + float(system.potential(s.x))


def _per_row_norm(vec):
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    return float(np.max(np.abs(vec))) if vec.size else 0.0


def _flat_case(system, s0, stepper, form=constraint_residual):
    # ``form(system, state)``: the per-state residual of the run's column.
    traj = run(stepper, system, s0, 0.05, 200)
    return system, traj, [form(system, s) for s in _states(traj)]


def _euler_a_list_case():
    sys = model.nonholonomic_particle("harmonic")
    s0 = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="euler_a", h=0.05)

    def form(system, s):
        return gni_flat.scheme_constraint_residual(system, s, 0.05, "euler_a")

    return _flat_case(sys, s0, gni_flat.euler_a_step, form)


def _full_mass_affine_case():
    # A full mass matrix: the kernel's offset M Y and momentum_offset must
    # sum alike, or the residual column parts from the per-state form.
    sys = FlatSystem(
        dim=3,
        mass_matrix=[[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.1]],
        potential=lambda q: 0.5 * float(np.dot(q, q)),
        grad_potential=lambda q: [q[0], q[1], q[2]],
        constraints=lambda q: [[q[1], 1.0, -1.0]],
        num_constraints=1,
        affine_field=lambda q: [0.3 + 0.1 * q[1], -0.2 * q[0], 0.7],
    )
    s0 = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "rattle", 0.05)
    return _flat_case(sys, s0, gni_flat.rattle_step)


def _reduced_case():
    params = ChaplyginParams(3.0, 1.0, 0.2, 1.0, 1.1, 1.2)
    rsys = chaplygin_reduced_system(params)
    h = 0.05
    s0 = chaplygin_initial_reduced_state(params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), h)

    traj = run(lambda sys_, s, hh: reduced_rattle_step(sys_, s, hh), rsys, s0, h, 100)
    return rsys, traj, [constraint_residual(rsys, s) for s in _states(traj)]


_DIAGNOSTIC_CASES = {
    "particle": lambda: _flat_case(
        model.nonholonomic_particle("harmonic"),
        _particle_initial(model.nonholonomic_particle("harmonic")),
        gni_flat.rattle_step,
    ),
    "planar_affine": lambda: _flat_case(
        model.constrained_2d(affine=(0.3, -0.2)),
        gni_flat.prepare_state(model.constrained_2d(affine=(0.3, -0.2)), [0.3, 0.2], [1.0, -0.5]),
        gni_flat.rattle_step,
    ),
    "unconstrained": lambda: _flat_case(
        _free_system(), PhaseState([0.4, -0.3], [0.2, 0.1], np.zeros(0)), gni_flat.rattle_step
    ),
    "full_mass_affine": _full_mass_affine_case,
    "list_residual": _euler_a_list_case,
    "reduced": _reduced_case,
}


@pytest.mark.parametrize("case", sorted(_DIAGNOSTIC_CASES))
def test_stacked_diagnostics_match_per_row(case):
    system, traj, rows = _DIAGNOSTIC_CASES[case]()
    states = _states(traj)
    assert np.array_equal(traj.energies, [_per_row_energy(system, s) for s in states])
    assert np.array_equal(traj.energies, [model.energy(system, s) for s in states])
    assert len(rows) == len(states)
    assert np.array_equal(traj.residuals, [_per_row_norm(r) for r in rows])
    assert np.array_equal(state_matrix(traj), [_state_values(s) for s in states])


_FIELD_CASES = [(PhaseState, f) for f in ("q", "p", "lam")] + [
    (ReducedState, f) for f in ("x", "p", "xi", "p_alg", "lam")
]


@pytest.mark.parametrize(
    "state_type, field", _FIELD_CASES, ids=[f"{t.__name__}-{f}" for t, f in _FIELD_CASES]
)
def test_the_row_check_reports_first_non_finite_field_row(state_type, field):
    # Energies and residuals stay finite: only the state field is bad.
    if state_type is PhaseState:
        _, traj, _ = _DIAGNOSTIC_CASES["particle"]()
    else:
        _, traj, _ = _reduced_case()
    # The field's columns: the fields before it, then its own values.
    fields = traj.layout.fields
    s0 = _states(traj)[0]
    start = sum(np.size(getattr(s0, name)) for name in fields[: fields.index(field)])
    rows = traj.states.copy()
    rows[[3, 5], start : start + np.size(getattr(s0, field))] = np.nan
    broken = dataclasses.replace(traj, states=rows)
    failure = analysis._non_finite(broken, 0)
    assert isinstance(failure, StepFailed)
    assert failure.step == 3
    assert len(failure.partial) == 3
    assert analysis._non_finite(traj, 0) is None


def _state_values(state):
    """The values one state object's row writes, field by field: all
    fields but the multiplier."""
    if isinstance(state, PhaseState):
        return np.concatenate([state.q, state.p])
    return np.concatenate([state.x, state.p, state.xi, state.p_alg])


def test_state_matrix_rows_are_the_fields_but_the_multiplier():
    sys = model.nonholonomic_particle("harmonic")
    s = _particle_initial(sys)
    flat = run(gni_flat.rattle_step, sys, s, 0.1, 0)
    assert np.array_equal(state_matrix(flat), [np.concatenate([s.q, s.p])])
    rsys, r, h, stepper = _reduced_kernel_case()
    reduced = run(stepper, rsys, r, h, 1)
    assert np.array_equal(state_matrix(reduced), reduced.states[:, :10])
    assert np.array_equal(state_matrix(reduced)[0], _state_values(r))
    # Rolling-sphere rows are written whole.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    sphere = run(None, params, (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])), 0.05, 3)
    assert np.array_equal(state_matrix(sphere), sphere.states)


def _setup_runs():
    # One short run of each set-up, with its row width and written values.
    particle = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(particle)
    rsys, r0, h, stepper = _reduced_kernel_case()
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    return {
        "one-step map": (lambda: run(gni_flat.rattle_step, particle, s0, 0.05, 4), 7, 6),
        "three-point": (lambda: run(gni_flat.verlet_lagrangian(particle), particle, s0, 0.05, 4), 7, 6),
        "reduced fallback": (lambda: run(lambda sys_, s, hh: stepper(sys_, s, hh), rsys, r0, h, 4), 12, 10),
        "reduced kernel": (lambda: run(stepper, rsys, r0, h, 4), 12, 10),
        "sphere": (lambda: run(None, params, (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])), h, 4), 5, 5),
        "rk4": (lambda: run(model.rk4, particle, s0, 0.05, 4), 7, 6),
    }


@pytest.mark.parametrize("setup", sorted(_setup_runs()))
def test_every_setup_returns_one_float_array_of_rows(setup):
    build, width, values = _setup_runs()[setup]
    traj = build()
    assert isinstance(traj.states, np.ndarray) and traj.states.dtype == np.float64
    assert traj.states.shape == (5, width) == (len(traj), width)
    assert isinstance(traj.final, np.ndarray) and traj.final.shape == (width,)
    assert np.array_equal(state_matrix(traj), traj.states[:, :values])
    # Every row but the first is a step of the run.
    assert np.all(np.any(traj.states[1:] != traj.states[0], axis=1))


def test_state_matrix_tells_planar_flat_rows_from_sphere_rows_of_one_width():
    # Planar rows [x, y, px, py, lam] and sphere rows [x, y, w1, w2, w3] are
    # both 5 wide: the planar run writes 4 values, the sphere run all 5.
    planar = model.constrained_2d()
    s0 = gni_flat.prepare_state(planar, [0.3, 0.2], [1.0, -0.5], "rattle", 0.05)
    flat = run(gni_flat.rattle_step, planar, s0, 0.05, 3)
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    sphere = run(None, params, (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])), 0.05, 3)
    assert flat.states.shape == sphere.states.shape == (4, 5)
    states = [s0]
    for _ in range(3):
        states.append(gni_flat.rattle_step(planar, states[-1], 0.05))
    assert np.array_equal(state_matrix(flat), [np.concatenate([s.q, s.p]) for s in states])
    assert np.array_equal(state_matrix(sphere), sphere.states)
    # The sweep channels follow the layout too: flat velocities are M^-1 p.
    assert np.array_equal(flat.final[flat.layout.position], states[-1].q)
    assert np.array_equal(flat.layout.velocity(flat.final), matmul(planar.mass_inv, states[-1].p))
    assert np.array_equal(sphere.layout.velocity(sphere.final), sphere.final[2:])


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


def test_slope_fit_argument_validation(capfd):
    with pytest.raises(ValueError):
        slope_fit([0.1, 0.05], [1e-2, 1e-3])
    with pytest.raises(ValueError):
        slope_fit([0.1, 0.05, 0.025], [1e-2, 1e-3])
    # Inputs no line fits: a non-finite error, a step size that is not
    # positive and finite, or step sizes all equal (a rank-deficient design).
    h, e = [0.1, 0.05, 0.025], [1e-2, 1e-3, 1e-4]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="errors must be finite"):
            slope_fit(h, [bad, 1e-3, 1e-4])
    for bad_h in ([0.1, -0.05, 0.025], [0.1, 0.0, 0.025], [np.inf, 0.05, 0.025],
                  [0.1, np.nan, 0.025], [0.1, 0.1, 0.1]):
        with pytest.raises(ValueError, match="positive, finite and not all equal"):
            slope_fit(bad_h, e)
    assert capfd.readouterr().err == ""  # nothing reaches stderr


# ---------------------------------------------------------------------------
# convergence_sweep


def test_sweep_euler_a_first_order():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025, 0.0125]
    report = convergence_sweep(gni_flat.euler_a_step, sys, s0, 1.0, grid, ("self", grid[-1] / 30.0))
    slope, _ = report.slopes["position"]
    assert 0.8 <= slope <= 1.2


def test_sweep_rattle_second_order():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025, 0.0125]
    report = convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, grid, ("self", grid[-1] / 30.0))
    slope, _ = report.slopes["position"]
    assert 1.8 <= slope <= 2.2


def test_sweep_exact_scheme_flags_noise_floor():
    # A free particle at rest is reproduced exactly at every step size, so
    # every error channel sits below the measurement floor.
    sys = _free_system()
    s0 = PhaseState(np.array([0.4, -0.3]), np.zeros(2), np.zeros(0))
    grid = [0.1, 0.05, 0.025]
    report = convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, grid, ("self", grid[-1] / 30.0))
    assert report.noise_floor == {"position", "velocity", "energy"}
    assert report.slopes == {}


def test_sweep_rk4_reference_matches_self_reference():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025]
    rep_self = convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, grid, ("self", grid[-1] / 30.0))
    rep_rk4 = convergence_sweep(
        gni_flat.rattle_step, sys, s0, 1.0, grid, ("rk4", grid[-1] / 30.0)
    )
    # Both references resolve the same limit, so fitted orders agree closely.
    assert abs(rep_self.slopes["position"][0] - rep_rk4.slopes["position"][0]) < 0.05


def test_sweep_is_reproducible_bit_for_bit():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    grid = [0.1, 0.05, 0.025]
    rep1 = convergence_sweep(gni_flat.euler_a_step, sys, s0, 1.0, grid, ("self", grid[-1] / 30.0))
    rep2 = convergence_sweep(gni_flat.euler_a_step, sys, s0, 1.0, grid, ("self", grid[-1] / 30.0))
    for ch in ("position", "velocity", "energy"):
        assert np.array_equal(rep1.errors[ch], rep2.errors[ch])
    assert rep1.slopes == rep2.slopes


def test_sweep_validation_errors():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    with pytest.raises(ValueError):  # too few step sizes
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.05], ("self", 0.001))
    with pytest.raises(ValueError):  # not strictly decreasing
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.1, 0.05], ("self", 0.001))
    with pytest.raises(ValueError):  # h does not divide T within one step
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.9, 0.7, 0.6], ("self", 0.01))
    with pytest.raises(ValueError):  # reference step too coarse
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.05, 0.025], ("self", 0.01))
    with pytest.raises(ValueError):  # unknown reference mode
        convergence_sweep(
            gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.05, 0.025], ("euler", 1e-4)
        )


def test_sweep_with_an_overflowing_step_count_raises_value_error():
    sys = model.nonholonomic_particle("harmonic")
    s0 = _particle_initial(sys)
    with pytest.raises(ValueError, match="overflows"):  # a step of the grid
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1e10, [1e-300, 5e-301, 2e-301], ("self", 1e-302))
    with pytest.raises(ValueError, match="overflows"):  # the reference step
        convergence_sweep(gni_flat.rattle_step, sys, s0, 1.0, [0.1, 0.05, 0.025], ("rk4", 1e-320))


def test_rk4_reference_refuses_every_system_but_a_flat_one():
    # A reduced system has no attribute affine_field for the RK4 kernel to
    # read: the sweep refuses it, as the rolling sphere, before any run.
    rsys, s0, h, stepper = _reduced_kernel_case()
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    sphere = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    for system, initial in ((rsys, s0), (params, sphere)):
        with pytest.raises(ValueError, match="no continuous-reference integrator"):
            convergence_sweep(stepper, system, initial, 1.0, [0.1, 0.05, 0.025], ("rk4", 0.025 / 30))


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
    assert "steppers: sphere moving energy order" in [label for label, _, _ in results]
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
