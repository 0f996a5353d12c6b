"""Tests for system specifications, projectors, and the RK4 reference kernel."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from gni.analysis import StepFailed, _step_count, convergence_sweep, run
from gni.gni_flat import prepare_state, rattle_step
from gni.model import (
    FlatSystem,
    PhaseState,
    RankDeficient,
    ReducedState,
    ReducedSystem,
    as_floats,
    constrained_2d,
    constraint_residual,
    continuous_rhs,
    energy,
    nonholonomic_particle,
    projectors,
    reduced_projectors,
    rk4,
    rk4_kernel,
)
from gni.numerics import SingularMatrix, lu_solve, matmul, solve_gram

from flat_systems import RETURN_KINDS, cube_or_inf, cubic_repeller, returning, two_row_system


def _axis_system():
    return FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(3),
        constraints=lambda q: np.array([[0.0, 0.0, 1.0]]),
        num_constraints=1,
    )


def _free_system(n=2, mass=None):
    return FlatSystem(
        dim=n,
        mass_matrix=np.eye(n) if mass is None else mass,
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(n),
    )


def _chaplygin_like_reduced(m=1.0, r=1.0, inertia=(2.0 / 3.0,) * 3, omega=1.0):
    i1, i2, i3 = inertia
    return ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=np.diag([m, m, i1, i2, i3]),
        annihilator=lambda x: np.array(
            [[1.0, 0.0, 0.0, -r, 0.0], [0.0, 1.0, r, 0.0, 0.0]]
        ),
        num_constraints=2,
        affine_section=lambda x: np.array(
            [-omega * x[1], omega * x[0], 0.0, 0.0, 0.0]
        ),
    )


def test_projectors_axis_constraint():
    p, q = projectors(_axis_system(), np.zeros(3))
    assert np.allclose(q, np.diag([0.0, 0.0, 1.0]), atol=1e-15)
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-15)


def test_projectors_diagonal_constraint_hand_value():
    sys = FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(3),
        constraints=lambda q: np.array([[1.0, 1.0, 0.0]]),
        num_constraints=1,
    )
    _, q_proj = projectors(sys, np.zeros(3))
    expected = 0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float)
    assert np.allclose(q_proj, expected, atol=1e-15)


def test_projectors_unconstrained():
    p, q = projectors(_free_system(), np.zeros(2))
    assert np.array_equal(p, np.eye(2))
    assert np.array_equal(q, np.zeros((2, 2)))


def _assert_projector_algebra(p, q, mass, rows, tol=1e-12):
    n = p.shape[0]
    assert np.max(np.abs(p + q - np.eye(n))) <= tol
    assert np.max(np.abs(p @ p - p)) <= tol
    assert np.max(np.abs(q @ q - q)) <= tol
    assert np.max(np.abs(p @ q)) <= tol
    if rows.shape[0]:
        assert np.max(np.abs(rows @ p)) <= tol
    assert np.max(np.abs(p.T @ mass @ q)) <= tol


def test_projector_algebra_builtin_systems():
    rng = np.random.default_rng(21)
    for sys in (nonholonomic_particle("harmonic"), constrained_2d()):
        for _ in range(100):
            q = rng.uniform(-2.0, 2.0, sys.dim)
            p, q_proj = projectors(sys, q)
            _assert_projector_algebra(
                p, q_proj, sys.mass_matrix, sys.constraint_matrix(q)
            )


def test_reduced_projectors_chaplygin_entries():
    rsys = _chaplygin_like_reduced()
    p, q = reduced_projectors(rsys, np.zeros(2))
    assert q[0, 0] == pytest.approx(0.4, abs=1e-14)
    assert q[0, 3] == pytest.approx(-0.4, abs=1e-14)
    assert p[4, 4] == pytest.approx(1.0, abs=1e-14)
    _assert_projector_algebra(
        p, q, rsys.bundle_metric, rsys.annihilator_matrix(np.zeros(2))
    )


def test_declared_reduced_arrays_match_their_callable_form():
    # chaplygin_reduced_system declares its rows and section as arrays;
    # they give the callable form's rows, drift and momentum offset.
    from gni.gni_reduced import ChaplyginParams, chaplygin_reduced_system

    declared = chaplygin_reduced_system(ChaplyginParams(3.0, 1.0, 0.2, 1.0, 1.1, 1.2))
    callable_form = _chaplygin_like_reduced(m=3.0, inertia=(1.0, 1.1, 1.2), omega=0.2)
    assert declared.potential_free and callable_form.potential_free
    rng = np.random.default_rng(4)
    for x in rng.normal(size=(20, 2)):
        assert np.array_equal(declared.annihilator_matrix(x), callable_form.annihilator_matrix(x))
        assert np.array_equal(declared.section(x), callable_form.section(x))
        assert np.array_equal(declared.momentum_offset(x), callable_form.momentum_offset(x))


def test_declared_reduced_arrays_are_shape_checked():
    rows = np.array([[1.0, 0.0, 0.0, -1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="annihilator"):
        ReducedSystem(2, 3, np.eye(5), annihilator=rows, num_constraints=1)
    with pytest.raises(ValueError, match="affine_section"):
        ReducedSystem(2, 3, np.eye(5), annihilator=rows, num_constraints=2,
                      affine_section=np.zeros((5, 3)))


def test_reduced_potential_free_only_without_a_potential():
    assert ReducedSystem(2, 3, np.eye(5)).potential_free
    assert not ReducedSystem(2, 3, np.eye(5), grad_potential=lambda x: x).potential_free
    assert not ReducedSystem(2, 3, np.eye(5), potential=lambda x: 1.0).potential_free


def test_projectors_rank_deficient():
    sys = FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(3),
        constraints=lambda q: np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        num_constraints=2,
    )
    with pytest.raises(RankDeficient):
        projectors(sys, np.zeros(3))


def test_projectors_vanishing_single_row():
    sys = FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(3),
        constraints=lambda q: np.array([[q[1], 0.0, 0.0]]),
        num_constraints=1,
    )
    with pytest.raises(RankDeficient, match="constraint row vanishes"):
        projectors(sys, np.zeros(3))
    p_mat, q_mat = projectors(sys, np.array([0.0, 2.0, 0.0]))
    np.testing.assert_array_equal(q_mat, np.diag([1.0, 0.0, 0.0]))


def test_flat_system_rejects_indefinite_mass():
    with pytest.raises(np.linalg.LinAlgError):
        FlatSystem(
            dim=2,
            mass_matrix=np.diag([1.0, -1.0]),
            potential=lambda q: 0.0,
            grad_potential=lambda q: np.zeros(2),
        )


def test_continuous_rhs_constant_constraint_free_potential():
    sys = _axis_system()
    qdot, pdot = continuous_rhs(sys, np.array([0.5, -1.0, 0.0]), np.array([1.0, 2.0, 0.0]))
    assert np.allclose(qdot, [1.0, 2.0, 0.0], atol=1e-15)
    assert np.allclose(pdot, np.zeros(3), atol=1e-12)


def test_continuous_rhs_unconstrained_hamiltonian():
    sys = FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.5 * q[0] ** 2,
        grad_potential=lambda q: np.array([q[0]]),
    )
    qdot, pdot = continuous_rhs(sys, np.array([0.7]), np.array([-0.3]))
    assert qdot[0] == pytest.approx(-0.3, abs=1e-15)
    assert pdot[0] == pytest.approx(-0.7, abs=1e-15)


def test_continuous_rhs_fd_matches_analytic_derivative():
    analytic = nonholonomic_particle("harmonic")
    fd = nonholonomic_particle("harmonic")
    fd.constraints_derivative = None
    q = np.array([0.4, -0.3, 0.8])
    p = np.array([1.0, 0.5, -0.3])
    _, pdot_a = continuous_rhs(analytic, q, p)
    _, pdot_fd = continuous_rhs(fd, q, p)
    assert np.allclose(pdot_a, pdot_fd, atol=1e-7)


def _consistent_particle_state(sys):
    # Velocity obeying z' = y x' at q0.
    q0 = np.array([0.3, 0.2, 0.1])
    v0 = np.array([1.0, 0.5, 0.2 * 1.0])
    return PhaseState(q0, sys.mass_matrix @ v0, np.zeros(1))


def _rk4(sys, s0, T, h_ref, residual=True):
    # The RK4 reference run to ``T`` at about ``h_ref``, the step count as a
    # sweep takes it; a residual=False run returns its last two rows.
    n = _step_count(T, h_ref)
    return run(rk4, sys, s0, T / n, n, residual)


def test_rk4_preserves_constraint_on_particle():
    sys = nonholonomic_particle("none")
    traj = _rk4(sys, _consistent_particle_state(sys), T=1.0, h_ref=1e-3)
    assert np.max(traj.residuals) <= 1e-8


def test_rk4_reference_harmonic_period():
    sys = FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.5 * q[0] ** 2,
        grad_potential=lambda q: np.array([q[0]]),
    )
    s0 = PhaseState(np.array([1.0]), np.array([0.0]), np.zeros(0))
    traj = _rk4(sys, s0, T=2.0 * np.pi, h_ref=1e-3, residual=False)
    # Rows [q, p] of the one-dimensional system (no multiplier).
    assert abs(traj.final[0] - 1.0) <= 1e-7
    assert abs(traj.final[1]) <= 1e-7


def test_rk4_reference_straight_line():
    sys = _axis_system()
    s0 = PhaseState(np.zeros(3), np.array([1.0, -2.0, 0.0]), np.zeros(1))
    traj = _rk4(sys, s0, T=3.0, h_ref=0.1)
    # Rows [q, p, lam].
    assert np.allclose(traj.final[:3], [3.0, -6.0, 0.0], atol=1e-12)
    assert np.allclose(traj.final[3:6], s0.p, atol=1e-14)


def test_rk4_reference_refuses_what_run_refuses():
    # A step that is not positive (a loop of its own stepped T < 0
    # backwards), an inadmissible start (residual 0.7), and rows with more
    # multipliers than constraint rows, whose points would lose their places.
    sys = _axis_system()
    s0 = PhaseState(np.zeros(3), np.array([1.0, -2.0, 0.0]), np.zeros(1))
    with pytest.raises(ValueError, match="positive"):
        run(rk4, sys, s0, -1.0, 1)
    bad = PhaseState(np.zeros(3), np.array([1.0, -2.0, 0.7]), np.zeros(1))
    with pytest.raises(ValueError, match="not admissible: constraint residual 7.000e-01"):
        _rk4(sys, bad, T=1.0, h_ref=0.1)
    two = PhaseState(s0.q, s0.p, np.zeros(2))
    for residual in (True, False):
        with pytest.raises(ValueError, match="2 multipliers for 1 constraint rows"):
            run(rk4, sys, two, 0.1, 3, residual)


def test_rk4_reference_energy_drift_bound():
    sys = nonholonomic_particle("none")
    s0 = _consistent_particle_state(sys)
    traj = _rk4(sys, s0, T=10.0, h_ref=1e-4, residual=False)
    assert abs(traj.energies[-1] - energy(sys, s0)) <= 1e-9


def _array_continuous_rhs(sys, q, p):
    # The eliminated-multiplier right-hand side as the array algebra wrote
    # it before the float kernel, its products in the order of
    # gni.numerics.matmul: the reference of the RK4 loop below.
    v = matmul(sys.mass_inv, p)
    grad = np.asarray(sys.grad_potential(q), dtype=float)
    if sys.num_constraints == 0:
        return v, -grad
    mu = sys.constraint_matrix(q)
    mu_minv = matmul(mu, sys.mass_inv)
    gram = matmul(mu_minv, mu.T)
    rhs = matmul(sys.constraints_dir(q, v), v) - matmul(mu_minv, grad)
    lam = np.array(solve_gram(gram.tolist(), rhs.tolist()))
    return v, -grad - matmul(mu.T, lam)


def _array_rk4(sys, s0, T, h_ref):
    # Times and [q, p] of every node of the array RK4 loop.
    n_steps = max(1, round(T / h_ref))
    h = T / n_steps
    q, p = s0.q.copy(), s0.p.copy()
    times, rows = [0.0], [np.concatenate([q, p])]
    for k in range(n_steps):
        dq1, dp1 = _array_continuous_rhs(sys, q, p)
        dq2, dp2 = _array_continuous_rhs(sys, q + 0.5 * h * dq1, p + 0.5 * h * dp1)
        dq3, dp3 = _array_continuous_rhs(sys, q + 0.5 * h * dq2, p + 0.5 * h * dp2)
        dq4, dp4 = _array_continuous_rhs(sys, q + h * dq3, p + h * dp3)
        q = q + (h / 6.0) * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
        p = p + (h / 6.0) * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4)
        times.append((k + 1) * h)
        rows.append(np.concatenate([q, p]))
    return np.array(times), np.array(rows)


def _fd_particle():
    # The particle with its constraint derivative taken by finite differences.
    sys = nonholonomic_particle("harmonic")
    sys.constraints_derivative = None
    return sys


def _oscillator():
    return FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.5 * q[0] ** 2,
        grad_potential=lambda q: np.array([q[0]]),
    )


_RK4_CASES = {
    "particle": lambda: nonholonomic_particle("harmonic"),
    "fd_particle": _fd_particle,
    "two_rows": two_row_system,
    "oscillator": _oscillator,
}


@pytest.mark.parametrize("residual", [pytest.param(True, id="None"), pytest.param(False, id="False")])
@pytest.mark.parametrize("case", sorted(_RK4_CASES))
def test_rk4_kernel_is_the_array_rk4_loop_bit_for_bit(case, residual):
    # The full run, with its residual column, and a windowed one, which
    # returns the last two rows.
    base = _RK4_CASES[case]()
    s0 = prepare_state(base, np.linspace(0.3, 0.1, base.dim), np.linspace(1.0, 0.2, base.dim))
    times, rows = _array_rk4(base, s0, 0.3, 1e-3)
    kept = slice(None) if residual else slice(-2, None)
    n = base.dim
    # Point callables that return lists, 1-D or 2-D arrays give the same bits.
    for kind in RETURN_KINDS:
        sys = returning(kind, base)
        traj = _rk4(sys, s0, T=0.3, h_ref=1e-3, residual=residual)
        assert np.array_equal(traj.times, times[kept])
        assert np.array_equal(traj.states[:, : 2 * n], rows[kept])
        if residual:
            assert np.array_equal(traj.states[0, 2 * n :], s0.lam)
        assert not np.any(traj.states[1:, 2 * n :])
        # Each qdot, pdot of continuous_rhs is the array one.
        for q, p in zip(rows[kept][:, :n], rows[kept][:, n:]):
            for got, want in zip(continuous_rhs(sys, q, p), _array_continuous_rhs(base, q, p)):
                assert np.array_equal(got, want)
        states = [PhaseState(r[:n], r[n : 2 * n], r[2 * n :]) for r in traj.states]
        assert np.array_equal(traj.energies, [energy(sys, s) for s in states])
        residuals = [np.max(np.abs(constraint_residual(sys, s)), initial=0.0) for s in states]
        assert np.array_equal(traj.residuals, residuals if residual else [0.0, 0.0])


def _nan_past(edge):
    # Free flight in 1-D whose gradient turns NaN once q passes ``edge``.
    return FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.array([np.nan if q[0] > edge else 0.0]),
    )


def test_rk4_reference_fails_at_the_first_non_finite_step():
    # q = t: step 6 (from q = 0.5) evaluates the gradient at 0.6 > 0.55.
    sys = _nan_past(0.55)
    s0 = PhaseState(np.zeros(1), np.ones(1), np.zeros(0))
    with pytest.raises(StepFailed) as excinfo:
        _rk4(sys, s0, T=1.0, h_ref=0.1)
    err = excinfo.value
    assert err.step == 6
    assert isinstance(err.cause, FloatingPointError)
    assert str(err.cause) == "RK4 step 6 has a non-finite state"
    # The rows before step 6: nodes 0 to 5.
    assert len(err.partial) == 6
    np.testing.assert_allclose(err.partial.times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    np.testing.assert_allclose(err.partial.states, [[0.1 * k, 1.0] for k in range(6)])
    assert np.isfinite(err.partial.energies).all()


def test_rk4_reference_names_the_run_step_past_a_dropped_window():
    # A windowed run drops its rows every 4,096 steps, and its kernel steps
    # buffer rows from the last kept one: the failure still names step 5001.
    sys = _nan_past(5.0005)
    s0 = PhaseState(np.zeros(1), np.ones(1), np.zeros(0))
    for residual in (True, False):
        with pytest.raises(StepFailed) as excinfo:
            run(rk4, sys, s0, 1e-3, 6000, residual)
        assert excinfo.value.step == 5001
        assert str(excinfo.value.cause) == "RK4 step 5001 has a non-finite state"


def test_rk4_reference_overflow_fails_without_warnings():
    # The constraint's second derivative v_y v_x overflows in the first step.
    sys = nonholonomic_particle("harmonic")
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1e200, 1e200, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailed) as excinfo:
            _rk4(sys, s0, T=1.0, h_ref=1e-3)
    err = excinfo.value
    assert err.step == 1
    assert np.array_equal(err.partial.states, [np.concatenate([s0.q, s0.p, s0.lam])])


def test_rk4_reference_fails_where_a_callable_overflows_on_floats():
    # ``x ** 3`` raises OverflowError on a float where NumPy would give inf:
    # the RK4 step where the same cubes, taken to inf, make the state
    # non-finite fails, as StepFailed, with the same rows.
    s0 = PhaseState(np.array([1.0, 0.5]), np.array([0.5, 0.0]), np.zeros(0))
    failures = []
    for grad in (lambda q: [-(x ** 3) for x in q], lambda q: [cube_or_inf(x) for x in q]):
        with pytest.raises(StepFailed) as excinfo:
            _rk4(cubic_repeller(grad), s0, T=3.0, h_ref=0.01)
        failures.append(excinfo.value)
    raised, non_finite = failures
    assert isinstance(raised.cause, OverflowError)
    assert isinstance(non_finite.cause, FloatingPointError)
    assert 1 < raised.step == non_finite.step < 300
    assert np.array_equal(raised.partial.states, non_finite.partial.states)
    assert np.isfinite(raised.partial.states).all()


@pytest.mark.parametrize("residual", [pytest.param(True, id="None"), pytest.param(False, id="False")])
def test_rk4_reference_fails_at_the_first_row_whose_potential_overflows(residual):
    # V = 0, but evaluating it on floats overflows once x = t passes 0.887:
    # at row 9 (t = 0.9), whatever ``residual`` is.
    sys = FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.0 * math.exp(800.0 * q[0]),
        grad_potential=lambda q: [0.0],
    )
    s0 = PhaseState(np.zeros(1), np.ones(1), np.zeros(0))
    with pytest.raises(StepFailed) as excinfo:
        _rk4(sys, s0, T=2.0, h_ref=0.1, residual=residual)
    err = excinfo.value
    assert err.step == 9
    assert type(err.cause) is OverflowError and err.__cause__ is err.cause
    head = _rk4(sys, s0, T=0.8, h_ref=0.1)
    assert len(err.partial) == len(head) == 9
    assert np.array_equal(err.partial.states, head.states)
    assert np.array_equal(err.partial.energies, head.energies)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("grad_potential", {"grad_potential": lambda q: 2 * q}),  # 6 entries on a list
        ("constraints", {"constraints": lambda q: [[q[1], 0.0]]}),
        ("constraints_derivative", {"constraints_derivative": lambda q, v: [[v[1], 0.0, 0.0, 0.0]]}),
        ("grad_potential", {"grad_potential": lambda q: [q[0], q[1], 0]}),  # an int entry
    ],
)
@pytest.mark.parametrize("with_points", [True, False])
def test_rk4_window_rejects_a_point_callable_of_the_wrong_length(name, overrides, with_points):
    # The window checks the point callables at its entry row, before any
    # step: a result that zip() would silently cut short raises, naming it.
    good = nonholonomic_particle("harmonic")
    s0 = prepare_state(good, [0.3, 0.2, 0.1], [1.0, 0.5, 0.1])
    sys = dataclasses.replace(good, **overrides)
    window, _, point_size = rk4_kernel(sys, 0.01, 1)
    rows, points = np.full((6, 7), np.nan), np.full((6, point_size), np.nan)
    rows[0] = np.concatenate([s0.q, s0.p, s0.lam])
    pts = memoryview(points.reshape(-1)) if with_points else None
    with pytest.raises(ValueError, match=name):
        window(memoryview(rows.reshape(-1)), pts, None, 1, 6)
    assert np.isnan(rows[1:]).all() and np.isnan(points[1:]).all()
    if name == "grad_potential":  # run's own checks evaluate it on arrays, where it passes
        with pytest.raises(ValueError, match=name):
            _rk4(sys, s0, T=0.1, h_ref=0.01, residual=with_points)


@pytest.mark.parametrize(
    "make",
    [lambda: nonholonomic_particle("none"), lambda: nonholonomic_particle("harmonic"),
     constrained_2d, lambda: constrained_2d(affine=(0.3, -0.2))],
    ids=["particle", "harmonic_particle", "planar", "planar_affine"],
)
def test_shipped_point_callables_return_plain_lists_of_floats(make):
    # The float kernels take such results as they are, without NumPy.
    sys = make()
    q, v = [0.3, 0.2, 0.1][: sys.dim], [1.0, -0.5, 0.2][: sys.dim]

    def plain(x):
        return type(x) is list and all(type(e) is float for e in x)

    vectors = [sys.grad_potential(q)] + ([sys.affine_field(q)] if sys.affine_field else [])
    rows = [sys.constraints(q), sys.constraints_derivative(q, v)]
    assert all(plain(x) and as_floats(x) is x for x in vectors)
    assert all(type(r) is list and all(map(plain, r)) and as_floats(r, True) is r for r in rows)


_BAD_METRICS = {
    "NaN entry": ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
    "inf entry": ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
    # Asymmetric by 1e-25 against entries of 1e-20: far beyond rounding.
    "tiny and asymmetric": ([[1e-20, 0.0], [1e-25, 1e-20]], "symmetric"),
}


def _reduced_with_metric(block):
    # The 2x2 block on the shape space, its entry (1, 1) times the identity
    # on the algebra, so the metric has the block's scale.
    metric = block[1][1] * np.eye(5)
    metric[:2, :2] = block
    return ReducedSystem(shape_dim=2, algebra_dim=3, bundle_metric=metric)


@pytest.mark.parametrize("case", sorted(_BAD_METRICS))
def test_mass_and_metric_matrices_must_be_finite_and_symmetric_to_their_scale(case):
    block, message = _BAD_METRICS[case]
    with pytest.raises(ValueError, match=f"mass matrix must be {message}"):
        FlatSystem(dim=2, mass_matrix=block, potential=lambda q: 0.0,
                   grad_potential=lambda q: [0.0, 0.0])
    with pytest.raises(ValueError, match=f"bundle metric must be {message}"):
        _reduced_with_metric(block)


def test_mass_and_metric_asymmetry_at_rounding_level_of_their_scale_is_accepted():
    # 2e-7 against entries of 1e9 is a relative 2e-16.
    block = [[1e9, 2e-7], [0.0, 1e9]]
    sys = FlatSystem(dim=2, mass_matrix=block, potential=lambda q: 0.0,
                     grad_potential=lambda q: [0.0, 0.0])
    np.testing.assert_array_equal(sys.mass_matrix, block)
    assert np.isfinite(sys.mass_inv).all()
    np.testing.assert_array_equal(_reduced_with_metric(block).bundle_metric[:2, :2], block)


def test_mass_inverse_scales_before_the_column_pivot_test():
    # SPD, but its last pivot 0.19 is below 1e-14 times its column's 9e14:
    # lu_solve alone calls it singular, the power-of-two scaling does not.
    block = [[1e30, 9e14], [9e14, 1.0]]
    with pytest.raises(SingularMatrix, match="at column 1"):
        lu_solve(block, np.eye(2).tolist())
    sys = FlatSystem(dim=2, mass_matrix=block, potential=lambda q: 0.0,
                     grad_potential=lambda q: [0.0, 0.0])
    exact = np.array([[1.0, -9e14], [-9e14, 1e30]]) / (1e30 - 8.1e29)
    np.testing.assert_allclose(sys.mass_inv, exact, rtol=1e-14, atol=0.0)


def test_convergence_sweep_fails_on_a_non_finite_rk4_reference():
    sys = _nan_past(0.55)
    s0 = PhaseState(np.zeros(1), np.ones(1), np.zeros(0))
    with pytest.raises(StepFailed) as excinfo:
        convergence_sweep(rattle_step, sys, s0, 1.0, [0.1, 0.05, 0.025], ("rk4", 0.025 / 30))
    assert isinstance(excinfo.value.cause, FloatingPointError)


def test_convergence_sweep_fails_at_an_rk4_reference_with_a_non_finite_energy(monkeypatch):
    # The states stay finite (about 1e200) while the energy overflows: the
    # reference's rows fail as a run's would, before any grid run steps.
    from gni import analysis

    def reference_only(stepper, *args, **kwargs):
        if stepper is not rk4:
            raise AssertionError("grid run started")
        return run(stepper, *args, **kwargs)

    monkeypatch.setattr(analysis, "run", reference_only)
    sys = nonholonomic_particle("harmonic")
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1e200, 0.5, 0.2], scheme="rattle", h=0.025)
    assert np.isfinite(np.concatenate([s0.q, s0.p])).all()
    with pytest.raises(StepFailed) as excinfo:
        convergence_sweep(rattle_step, sys, s0, 1.0, [0.1, 0.05, 0.025], ("rk4", 0.025 / 30))
    err = excinfo.value
    assert str(err) == "step 0 failed: RK4 row 0 has a non-finite energy, residual or state"
    assert isinstance(err.cause, FloatingPointError)
    assert err.step == 0 and len(err.partial) == 0


def test_continuous_rhs_rejects_affine_field():
    sys = constrained_2d(affine=(0.3, -0.1))
    with pytest.raises(ValueError):
        continuous_rhs(sys, np.zeros(2), np.zeros(2))


def test_constraint_residual_flat():
    sys = constrained_2d()
    # v = (1, -1) satisfies (1,1).v = 0, p = M v.
    state = PhaseState(np.zeros(2), sys.mass_matrix @ np.array([1.0, -1.0]), np.zeros(1))
    assert np.max(np.abs(constraint_residual(sys, state))) <= 1e-15


def test_constraint_residual_chaplygin_rest():
    rsys = _chaplygin_like_reduced(omega=1.0)
    rest = ReducedState(
        x=np.zeros(2), p=np.zeros(2), xi=np.zeros(3), p_alg=np.zeros(3), lam=np.zeros(2)
    )
    assert np.max(np.abs(constraint_residual(rsys, rest))) == 0.0


def test_energy_values():
    free = _free_system()
    zero = PhaseState(np.zeros(2), np.zeros(2), np.zeros(0))
    assert energy(free, zero) == 0.0

    oscillator = FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.5 * q[0] ** 2,
        grad_potential=lambda q: np.array([q[0]]),
    )
    at_turning_point = PhaseState(np.array([1.0]), np.array([0.0]), np.zeros(0))
    assert energy(oscillator, at_turning_point) == pytest.approx(0.5, abs=1e-15)

    rsys = _chaplygin_like_reduced()
    state = ReducedState(
        x=np.array([1.0, 1.0]),
        p=np.array([1.0, 1.0]),
        xi=np.array([0.0, 2.0, 0.0]),
        p_alg=np.diag([2.0 / 3.0] * 3) @ np.array([0.0, 2.0, 0.0]),
        lam=np.zeros(2),
    )
    assert energy(rsys, state) == pytest.approx(7.0 / 3.0, abs=1e-14)
