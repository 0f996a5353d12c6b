"""Tests for the flat constraint-projected steppers."""
import numpy as np
import pytest

from gni.model import (
    FlatSystem,
    PhaseState,
    constrained_2d,
    constraint_residual,
    nonholonomic_particle,
)
from gni.analysis import run
from gni.gni_flat import (
    DiscreteLagrangian,
    composed_euler_step,
    euler_a_lagrangian,
    euler_a_step,
    euler_b_lagrangian,
    euler_b_step,
    gni_generic_step_stats,
    prepare_state,
    rattle_step,
    scheme_constraint_residual,
    state_difference,
    verlet_lagrangian,
)
from gni.numerics import NewtonConfig, NoConvergence


def _free_harmonic(n=2):
    return FlatSystem(
        dim=n,
        mass_matrix=np.eye(n),
        potential=lambda q: 0.5 * float(q @ q),
        grad_potential=lambda q: np.asarray(q, dtype=float),
    )


def _axis_free():
    return FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(2),
        constraints=lambda q: np.array([[0.0, 1.0]]),
        num_constraints=1,
    )


def test_euler_a_hand_example():
    s = PhaseState(np.zeros(2), np.array([1.0, 0.0]), np.zeros(1))
    out = euler_a_step(_axis_free(), s, 0.1)
    assert np.allclose(out.q, [0.1, 0.0], atol=1e-15)
    assert np.allclose(out.p, [1.0, 0.0], atol=1e-15)
    assert np.allclose(out.lam, [0.0], atol=1e-15)


def test_euler_b_matches_a_without_potential():
    s = PhaseState(np.zeros(2), np.array([1.0, 0.0]), np.zeros(1))
    out_a = euler_a_step(_axis_free(), s, 0.1)
    out_b = euler_b_step(_axis_free(), s, 0.1)
    assert state_difference(out_a, out_b) <= 1e-15


def test_zero_step_is_identity():
    sys = nonholonomic_particle("harmonic")
    s = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])
    for step in (euler_a_step, euler_b_step, rattle_step):
        assert state_difference(step(sys, s, 0.0), s) == 0.0


def test_unconstrained_euler_a_is_symplectic_euler():
    # In the shifted momentum P = p + (h/2) V_q(q) the map is exactly the
    # momentum-first symplectic Euler update.
    sys = _free_harmonic()
    h = 0.05
    s = PhaseState(np.array([1.0, -0.4]), np.array([0.2, 0.7]), np.zeros(0))
    q_ref = s.q.copy()
    p_ref = s.p + 0.5 * h * sys.grad_potential(s.q)
    for _ in range(100):
        s = euler_a_step(sys, s, h)
        p_ref = p_ref - h * q_ref  # grad V = q
        q_ref = q_ref + h * p_ref
        assert np.allclose(s.q, q_ref, atol=1e-12)
        assert np.allclose(s.p + 0.5 * h * sys.grad_potential(s.q), p_ref, atol=1e-12)


def test_unconstrained_euler_b_is_symplectic_euler():
    sys = _free_harmonic()
    h = 0.05
    s = PhaseState(np.array([1.0, -0.4]), np.array([0.2, 0.7]), np.zeros(0))
    q_ref = s.q.copy()
    p_ref = s.p - 0.5 * h * sys.grad_potential(s.q)
    for _ in range(100):
        s = euler_b_step(sys, s, h)
        q_ref = q_ref + h * p_ref
        p_ref = p_ref - h * q_ref
        assert np.allclose(s.q, q_ref, atol=1e-12)
        assert np.allclose(s.p - 0.5 * h * sys.grad_potential(s.q), p_ref, atol=1e-12)


def test_unconstrained_rattle_is_stormer_verlet():
    sys = _free_harmonic()
    h = 0.05
    s = PhaseState(np.array([1.0, -0.4]), np.array([0.2, 0.7]), np.zeros(0))
    q_ref, p_ref = s.q.copy(), s.p.copy()
    for _ in range(100):
        s = rattle_step(sys, s, h)
        p_half = p_ref - 0.5 * h * q_ref
        q_ref = q_ref + h * p_half
        p_ref = p_half - 0.5 * h * q_ref
        assert np.allclose(s.q, q_ref, atol=1e-13)
        assert np.allclose(s.p, p_ref, atol=1e-13)


def test_rattle_free_flight():
    sys = FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(2),
    )
    s = PhaseState(np.zeros(2), np.array([1.0, 2.0]), np.zeros(0))
    out = rattle_step(sys, s, 0.25)
    assert np.allclose(out.q, [0.25, 0.5], atol=1e-15)
    assert np.array_equal(out.p, s.p)


@pytest.mark.parametrize(
    "step,scheme",
    [(euler_a_step, "euler_a"), (euler_b_step, "euler_b"), (rattle_step, "rattle")],
)
def test_scheme_constraint_preserved_along_trajectories(step, scheme):
    h = 0.05
    for sys in (
        nonholonomic_particle("harmonic"),
        constrained_2d(),
        constrained_2d(affine=(0.3, -0.1)),
    ):
        q0 = np.full(sys.dim, 0.4)
        v0 = np.linspace(1.0, 0.5, sys.dim)
        s = prepare_state(sys, q0, v0, scheme=scheme, h=h)
        assert np.max(np.abs(scheme_constraint_residual(sys, s, h, scheme))) <= 1e-12
        for _ in range(50):
            s = step(sys, s, h)
            res = scheme_constraint_residual(sys, s, h, scheme)
            assert np.max(np.abs(res)) <= 1e-10


def test_rattle_post_state_satisfies_plain_residual():
    sys = constrained_2d(affine=(0.3, -0.1))
    s = prepare_state(sys, [0.4, 0.4], [1.0, 0.5], scheme="rattle", h=0.05)
    for _ in range(50):
        s = rattle_step(sys, s, 0.05)
        assert np.max(np.abs(constraint_residual(sys, s))) <= 1e-10


def _random_admissible(sys, scheme, h, rng, randomize_lam=True):
    q = rng.uniform(-1.0, 1.0, sys.dim)
    v = rng.standard_normal(sys.dim)
    s = prepare_state(sys, q, v, scheme=scheme, h=h)
    if randomize_lam and sys.num_constraints:
        # Adjointness must hold for any carried multiplier.
        s = PhaseState(s.q, s.p, rng.standard_normal(sys.num_constraints))
    return s


@pytest.mark.parametrize("sys_factory", [lambda: nonholonomic_particle("harmonic"), constrained_2d])
def test_adjoint_pair_round_trip(sys_factory):
    sys = sys_factory()
    h = 0.1
    rng = np.random.default_rng(31)
    for _ in range(25):
        s = _random_admissible(sys, "euler_a", h, rng)
        back = euler_b_step(sys, euler_a_step(sys, s, h), -h)
        assert state_difference(back, s) <= 1e-9

        s = _random_admissible(sys, "euler_b", h, rng)
        back = euler_a_step(sys, euler_b_step(sys, s, h), -h)
        assert state_difference(back, s) <= 1e-9


@pytest.mark.parametrize("sys_factory", [lambda: nonholonomic_particle("harmonic"), constrained_2d])
def test_rattle_self_adjoint(sys_factory):
    sys = sys_factory()
    h = 0.1
    rng = np.random.default_rng(37)
    for _ in range(25):
        s = _random_admissible(sys, "rattle", h, rng)
        back = rattle_step(sys, rattle_step(sys, s, h), -h)
        assert state_difference(back, s) <= 1e-9


def test_composed_step_advances():
    sys = nonholonomic_particle("harmonic")
    s = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])
    out = composed_euler_step(sys, s, 0.1)
    assert np.max(np.abs(out.q - s.q)) > 0.05  # actually moved


def test_composed_step_zero_step_identity():
    sys = nonholonomic_particle("harmonic")
    s = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])
    assert state_difference(composed_euler_step(sys, s, 0.0), s) == 0.0


def test_composed_step_unconstrained_is_position_verlet():
    sys = _free_harmonic()
    h = 0.1
    q = np.array([1.0, -0.4])
    p = np.array([0.2, 0.7])
    out = composed_euler_step(sys, PhaseState(q, p, np.zeros(0)), h)
    p_half = p - 0.5 * h * sys.grad_potential(q)
    q_next = q + h * p_half
    p_next = p_half - 0.5 * h * sys.grad_potential(q_next)
    assert np.max(np.abs(out.q - q_next)) <= 1e-14
    assert np.max(np.abs(out.p - p_next)) <= 1e-14


@pytest.mark.parametrize("sys_factory", [lambda: nonholonomic_particle("harmonic"), constrained_2d])
def test_composed_step_preserves_plain_form(sys_factory):
    sys = sys_factory()
    s = prepare_state(sys, np.full(sys.dim, 0.3), np.linspace(1.0, 0.2, sys.dim))
    for _ in range(50):
        s = composed_euler_step(sys, s, 0.1)
        assert np.max(np.abs(constraint_residual(sys, s))) <= 1e-10


def test_composed_step_is_symmetric():
    sys = nonholonomic_particle("harmonic")
    h = 0.1
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = _random_admissible(sys, "continuous", 0.0, rng)
        back = composed_euler_step(sys, composed_euler_step(sys, s, h), -h)
        assert state_difference(back, s) <= 1e-9


def test_composed_step_second_order():
    sys = nonholonomic_particle("harmonic")
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])
    errs = []
    grid = [0.1, 0.05, 0.025]
    h_ref = grid[-1] / 100.0
    ref = s0
    for _ in range(round(1.0 / h_ref)):
        ref = composed_euler_step(sys, ref, h_ref)
    for h in grid:
        s = s0
        for _ in range(round(1.0 / h)):
            s = composed_euler_step(sys, s, h)
        errs.append(np.max(np.abs(s.q - ref.q)))
    slope = np.polyfit(np.log(grid), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_gni_generic_free_flight():
    sys = FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(3),
    )
    ld = verlet_lagrangian(sys)
    q_prev = np.array([0.0, 0.0, 0.0])
    q_curr = np.array([0.1, -0.2, 0.05])
    q_next, _ = gni_generic_step_stats(ld, sys, q_prev, q_curr, 0.1)
    assert np.allclose(q_next, 2.0 * q_curr - q_prev, atol=1e-14)


def test_gni_generic_matches_rattle_positions():
    sys = nonholonomic_particle("harmonic")
    h = 0.01
    s = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    positions = [s.q.copy()]
    for _ in range(100):
        s = rattle_step(sys, s, h)
        positions.append(s.q.copy())
    ld = verlet_lagrangian(sys)
    q_prev, q_curr = positions[0], positions[1]
    for k in range(2, 101):
        q_next, _ = gni_generic_step_stats(ld, sys, q_prev, q_curr, h)
        assert np.max(np.abs(q_next - positions[k])) <= 1e-10
        q_prev, q_curr = q_curr, q_next


def test_gni_generic_matches_euler_a_positions():
    sys = nonholonomic_particle("harmonic")
    h = 0.01
    s = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="euler_a", h=h)
    positions = [s.q.copy()]
    for _ in range(100):
        s = euler_a_step(sys, s, h)
        positions.append(s.q.copy())
    ld = euler_a_lagrangian(sys)
    q_prev, q_curr = positions[0], positions[1]
    for k in range(2, 101):
        q_next, _ = gni_generic_step_stats(ld, sys, q_prev, q_curr, h)
        assert np.max(np.abs(q_next - positions[k])) <= 1e-10
        q_prev, q_curr = q_curr, q_next


def test_rattle_matches_independent_shake_recursion():
    # Three-point form: M(q+ - 2q0 + q-)/h^2 = -(V_q + mu^T lam) with lam
    # from mu(q0) (q+ - q-) = 0, seeded with the stepper's first two points.
    sys = nonholonomic_particle("harmonic")
    h = 0.01
    s = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    positions = [s.q.copy()]
    for _ in range(100):
        s = rattle_step(sys, s, h)
        positions.append(s.q.copy())
    q_prev, q_curr = positions[0], positions[1]
    for k in range(2, 101):
        mu = sys.constraint_matrix(q_curr)
        grad = sys.grad_potential(q_curr)
        gram = mu @ sys.mass_inv @ mu.T
        rhs = mu @ (2.0 * (q_curr - q_prev) / h ** 2 - sys.mass_inv @ grad)
        lam = rhs / gram[0, 0]
        q_next = (
            2.0 * q_curr
            - q_prev
            - h ** 2 * (sys.mass_inv @ (grad + mu.T @ lam))
        )
        assert np.max(np.abs(q_next - positions[k])) <= 1e-12
        q_prev, q_curr = q_curr, q_next


def test_gni_generic_no_convergence():
    # A discrete Lagrangian whose stationarity condition has no root: the
    # Newton budget must be reported as exhausted.
    from gni.gni_flat import DiscreteLagrangian

    sys = FlatSystem(
        dim=1,
        mass_matrix=np.array([[1.0]]),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(1),
    )
    # Triple root: Newton converges only linearly, so a tight budget from a
    # distant predictor is exhausted with the residual still large.
    ld = DiscreteLagrangian(
        d1=lambda q0, q1, h: (q1 - 1.0) ** 3,
        d2=lambda q0, q1, h: np.zeros(1),
        d12=lambda q0, q1, h: np.diag(3.0 * (q1 - 1.0) ** 2),
    )
    cfg = NewtonConfig(max_iters=3)
    with pytest.raises(NoConvergence) as excinfo:
        gni_generic_step_stats(ld, sys, np.zeros(1), np.zeros(1), 0.01, cfg=cfg)
    assert excinfo.value.iterations == 3


@pytest.mark.parametrize(
    "lagrangian", [verlet_lagrangian, euler_a_lagrangian, euler_b_lagrangian]
)
def test_shipped_d12_matches_central_differences_of_d1(lagrangian):
    # A full mass matrix and a quartic potential, so no entry of d12 is
    # zero by symmetry and d1 is not linear in q0.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    sys = FlatSystem(
        dim=3,
        mass_matrix=a @ a.T + 3.0 * np.eye(3),
        potential=lambda q: 0.25 * np.sum(q ** 4),
        grad_potential=lambda q: q ** 3,
    )
    ld = lagrangian(sys)
    eps = 1e-6
    for h in (0.1, 0.01):
        q0, q1 = rng.standard_normal(3), rng.standard_normal(3)
        d12 = ld.d12(q0, q1, h)
        fd = np.column_stack(
            [(ld.d1(q0, q1 + e, h) - ld.d1(q0, q1 - e, h)) / (2.0 * eps) for e in eps * np.eye(3)]
        )
        assert d12.shape == (3, 3)
        assert np.max(np.abs(d12 - fd)) <= 1e-8 * np.max(np.abs(d12))


def test_discrete_lagrangian_requires_d12():
    with pytest.raises(TypeError):
        DiscreteLagrangian(lambda q0, q1, h: q1, lambda q0, q1, h: q1)


@pytest.mark.parametrize("h", [0.05, 0.01])
def test_generic_recurrence_takes_one_newton_iteration_per_step(h):
    # The shipped residuals are affine in q_next and d12 is their exact
    # Jacobian, so one Newton update solves each step.
    sys = nonholonomic_particle("harmonic")
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    traj = run(verlet_lagrangian(sys), sys, s0, h, round(1.0 / h))
    assert traj.newton_iters[0] == 0
    assert np.all(traj.newton_iters[1:] == 1)


def test_prepare_state_continuous_consistency():
    for sys in (nonholonomic_particle("harmonic"), constrained_2d(affine=(0.3, -0.1))):
        s = prepare_state(sys, np.full(sys.dim, 0.5), np.ones(sys.dim))
        assert np.max(np.abs(constraint_residual(sys, s))) <= 1e-12


def test_prepare_state_multiplier_seed_is_continuous_limit():
    # The seeded multiplier should be close to the one the stepper derives
    # after a tiny step (continuity of the multiplier along the flow).
    sys = nonholonomic_particle("harmonic")
    h = 1e-4
    s = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="euler_a", h=h)
    out = euler_a_step(sys, s, h)
    assert np.max(np.abs(out.lam - s.lam)) <= 1e-2
