"""Tests for system specifications, projectors, and the reference oracle."""
import numpy as np
import pytest

from gni.model import (
    FlatSystem,
    PhaseState,
    RankDeficient,
    ReducedState,
    ReducedSystem,
    constrained_2d,
    constraint_residual,
    continuous_rhs,
    energy,
    nonholonomic_particle,
    projectors,
    reduced_projectors,
    reference_solve,
)


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


def test_rk4_preserves_constraint_on_particle():
    sys = nonholonomic_particle("none")
    traj = reference_solve(sys, _consistent_particle_state(sys), T=1.0, h_ref=1e-3)
    assert np.max(traj.residuals) <= 1e-8


def test_reference_solve_harmonic_period():
    sys = FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.5 * q[0] ** 2,
        grad_potential=lambda q: np.array([q[0]]),
    )
    s0 = PhaseState(np.array([1.0]), np.array([0.0]), np.zeros(0))
    traj = reference_solve(sys, s0, T=2.0 * np.pi, h_ref=1e-3, record_every=10 ** 9)
    # Rows [q, p] of the one-dimensional system (no multiplier).
    assert abs(traj.final[0] - 1.0) <= 1e-7
    assert abs(traj.final[1]) <= 1e-7


def test_reference_solve_straight_line():
    sys = _axis_system()
    s0 = PhaseState(np.zeros(3), np.array([1.0, -2.0, 0.0]), np.zeros(1))
    traj = reference_solve(sys, s0, T=3.0, h_ref=0.1)
    # Rows [q, p, lam].
    assert np.allclose(traj.final[:3], [3.0, -6.0, 0.0], atol=1e-12)
    assert np.allclose(traj.final[3:6], s0.p, atol=1e-14)


def test_reference_solve_energy_drift_bound():
    sys = nonholonomic_particle("none")
    traj = reference_solve(
        sys, _consistent_particle_state(sys), T=10.0, h_ref=1e-4, record_every=10 ** 9
    )
    assert abs(traj.energies[-1] - traj.energies[0]) <= 1e-9


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
