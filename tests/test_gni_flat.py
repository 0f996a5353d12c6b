"""Tests for the flat constraint-projected steppers."""
import dataclasses

import numpy as np
import pytest

import flat_oracle
from flat_systems import RETURN_KINDS, cube_or_inf, cubic_repeller, returning, two_row_system
from gni import analysis, gni_flat
from gni.model import (
    FlatSystem,
    PhaseState,
    RankDeficient,
    constrained_2d,
    constraint_residual,
    energy,
    nonholonomic_particle,
)
from gni.analysis import StepFailed, adjoint_check, run
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
from gni.numerics import NewtonConfig, NoConvergence, matmul, solve_gram


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
        d1=lambda q0, q1, h: [(q1[0] - 1.0) ** 3],
        d2=lambda q0, q1, h: [0.0],
        d12=lambda q0, q1, h: [[3.0 * (q1[0] - 1.0) ** 2]],
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
        grad_potential=lambda q: [x ** 3 for x in q],
    )
    ld = lagrangian(sys)
    eps = 1e-6

    def d1(q0, q1, h):
        return np.array(ld.d1(q0.tolist(), q1.tolist(), h))

    for h in (0.1, 0.01):
        q0, q1 = rng.standard_normal(3), rng.standard_normal(3)
        d12 = np.array(ld.d12(q0.tolist(), q1.tolist(), h))
        fd = np.column_stack(
            [(d1(q0, q1 + e, h) - d1(q0, q1 - e, h)) / (2.0 * eps) for e in eps * np.eye(3)]
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


# ---------------------------------------------------------------------------
# the three-point window kernel: the discrete Lagrangian's point contract

@pytest.mark.parametrize(
    "name, bad",
    [
        ("d1", lambda q0, q1, h: [0.0, 0.0]),
        ("d1", lambda q0, q1, h: [0.0, 0.0, 0]),  # an int entry
        ("d2", lambda q0, q1, h: list(q1) + [0.0]),
        ("d12", lambda q0, q1, h: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    ],
)
@pytest.mark.parametrize("with_points", [True, False])
def test_three_point_window_rejects_a_lagrangian_result_of_the_wrong_length(name, bad, with_points):
    # The window checks what d1, d2 and d12 return at its first step: a
    # result that zip() would silently cut short raises, naming the callable.
    sys, h = nonholonomic_particle("harmonic"), 0.05
    good = verlet_lagrangian(sys)
    ld = dataclasses.replace(good, **{name: bad})
    window, _, point_size = gni_flat.three_point_kernel(ld, sys, h)
    qs, points = np.full((7, 3), np.nan), np.full((6, point_size), np.nan)
    qs[0], qs[1] = [0.3, 0.2, 0.1], [0.35, 0.22, 0.11]
    counts = memoryview(np.zeros(6, dtype=int))
    pts = memoryview(points.reshape(-1)) if with_points else None
    with pytest.raises(ValueError, match=name):
        window(memoryview(qs.reshape(-1)), pts, counts, 1, 6)
    assert np.isnan(qs[2:]).all() and np.isnan(points[1:]).all()
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    with pytest.raises(ValueError, match=name):
        run(ld, sys, s0, h, 5, residual=with_points)
    with pytest.raises(ValueError, match=name):
        gni_generic_step_stats(ld, sys, qs[0], qs[1], h)


def test_three_point_window_rejects_constraint_rows_other_than_declared():
    # One point per position holds the declared number of rows, else the
    # points written would shift; a zero second row passes run's own check.
    good, h = nonholonomic_particle("harmonic"), 0.05
    sys = dataclasses.replace(good, constraints=lambda q: [[q[1], 0.0, -1.0], [0.0, 0.0, 0.0]])
    s0 = prepare_state(good, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    for residual in (True, False):
        with pytest.raises(ValueError, match="constraints must return 1 rows, not 2"):
            run(verlet_lagrangian(sys), sys, s0, h, 5, residual=residual)


@pytest.mark.parametrize("residual", [pytest.param(True, id="None"), pytest.param(False, id="False")])
@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_three_point_run_fails_where_d1_raises_an_arithmetic_error(error, residual):
    # Step k evaluates d1 at q_k; raised there, the error fails the run as
    # StepFailed at step k with the rows before it.
    sys, h = nonholonomic_particle("harmonic"), 0.05
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    ld = verlet_lagrangian(sys)
    full = run(ld, sys, s0, h, 8)
    q4 = full.states[4, :3].tolist()

    def d1(q0, q1, h):
        if q0 == q4:
            raise error("raised at q_4")
        return ld.d1(q0, q1, h)

    with pytest.raises(StepFailed) as excinfo:
        run(dataclasses.replace(ld, d1=d1), sys, s0, h, 8, residual=residual)
    err = excinfo.value
    assert err.step == 4 and type(err.cause) is error
    assert np.array_equal(err.partial.states, full.states[:4])
    assert np.array_equal(err.partial.residuals, full.residuals[:4] if residual else np.zeros(4))


class _CountingNumpy:
    """A stand-in for a module's ``np`` that counts the names looked up on it."""

    def __init__(self):
        self.lookups = 0

    def __getattr__(self, name):
        self.lookups += 1
        return getattr(np, name)


@pytest.mark.parametrize("lagrangian", [verlet_lagrangian, euler_a_lagrangian, euler_b_lagrangian])
def test_a_three_point_run_makes_no_numpy_call_per_step(lagrangian, monkeypatch):
    # The steps run on floats: twice the steps, no more NumPy from gni_flat.
    sys, h = nonholonomic_particle("harmonic"), 0.05
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    lookups = []
    for n_steps in (200, 400):
        proxy = _CountingNumpy()
        monkeypatch.setattr(gni_flat, "np", proxy)
        run(lagrangian(sys), sys, s0, h, n_steps)
        lookups.append(proxy.lookups)
    assert lookups[1] <= lookups[0]


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


# ---------------------------------------------------------------------------
# the structures the schemes keep, read off a run's rows: the particle's
# constraint zdot = y xdot leaves J = p_x + y p_z, the momentum of the x, z
# translations, to the nonholonomic momentum equation dJ/dt = ydot zdot - x
# (the last term from the harmonic potential only)

_KEPT_BOUNDS = {"euler_a": 1e-13, "euler_b": 1e-13, "rattle": 1e-13, "gni_generic": 1e-11}


def _particle_run(scheme, potential, h):
    """Positions, momenta and interval velocities of the particle from
    q0 = (0.3, 0.2, 0.1), v0 = (1, 0.5, 0.2) to T = 20."""
    sys = nonholonomic_particle(potential)
    if scheme == "gni_generic":
        stepper, form = verlet_lagrangian(sys), "rattle"
    else:
        stepper, form = gni_flat.FlatStepper(scheme), scheme
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme=form, h=h)
    rows = run(stepper, sys, s0, h, round(20.0 / h)).states
    q, p = rows[:, :3], rows[:, 3:6]
    return q, p, np.diff(q, axis=0) / h


@pytest.mark.parametrize("potential", ["none", "harmonic"])
@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("scheme", sorted(_KEPT_BOUNDS))
def test_discrete_nonholonomic_momentum_equation(scheme, h, potential):
    # J_{k+1} - J_k = h v_y v_z - h (x_k + x_{k+1}) / 2 over every interval.
    q, p, v = _particle_run(scheme, potential, h)
    j = p[:, 0] + q[:, 1] * p[:, 2]
    forcing = h * v[:, 1] * v[:, 2]
    if potential == "harmonic":
        forcing -= h * (q[:-1, 0] + q[1:, 0]) / 2.0
    assert np.max(np.abs(np.diff(j) - forcing)) <= _KEPT_BOUNDS[scheme]
    # J itself moves: the equation is not a conservation law.
    assert np.ptp(j) > 0.1


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("scheme", sorted(_KEPT_BOUNDS))
def test_interval_kinetic_energy_is_kept_without_a_potential(scheme, h):
    # Kept to rounding, while the row energy of the stored momenta drifts
    # at second order (3.0e-4 at h = 0.1, 7.5e-5 at h = 0.05).
    _, p, v = _particle_run(scheme, "none", h)
    kinetic = 0.5 * np.sum(v * v, axis=1)
    assert np.ptp(kinetic) <= 1e-12
    assert np.ptp(0.5 * np.sum(p * p, axis=1)) > 5e-5


# ---------------------------------------------------------------------------
# the flat kernel: run steps the kick-drift-resolve maps into one row buffer

_WEIGHT = {"euler_a": 0.0, "euler_b": 1.0, "rattle": 0.5}


def _reference_step(sys, s, h, scheme):
    # The one-step map as written before the kernel (one evaluation of the
    # gradient and of the constraint rows at each end of every step), its
    # products in the order of gni.numerics.matmul: the reference the kernel
    # must reproduce bit for bit.
    if h == 0.0:
        return s
    grad0 = np.asarray(sys.grad_potential(s.q), dtype=float)
    mu0 = sys.constraint_matrix(s.q)
    p_half = s.p - 0.5 * h * (grad0 + matmul(mu0.T, s.lam))
    q_new = s.q + h * matmul(sys.mass_inv, p_half)
    grad1 = np.asarray(sys.grad_potential(q_new), dtype=float)
    mu1 = sys.constraint_matrix(q_new)
    if mu1.shape[0] == 0:
        p_new = p_half - 0.5 * h * grad1
        return PhaseState(q_new, p_new, s.lam)
    mu1_minv = matmul(mu1, sys.mass_inv)
    target = p_half - _WEIGHT[scheme] * h * grad1 - sys.momentum_offset(q_new)
    gram = matmul(mu1_minv, mu1.T).tolist()
    lam_new = (2.0 / h) * np.array(solve_gram(gram, matmul(mu1_minv, target).tolist()))
    p_new = p_half - 0.5 * h * (grad1 + matmul(mu1.T, lam_new))
    return PhaseState(q_new, p_new, lam_new)


def _reference_run(sys, s0, h, n_steps, scheme):
    # Rows, residual norms (the scheme's own form), energies and Newton
    # iterations of a state-by-state loop of the reference step.
    states = [s0]
    for _ in range(n_steps):
        states.append(_reference_step(sys, states[-1], h, scheme))
    rows = np.array([np.concatenate([s.q, s.p, s.lam]) for s in states])
    norms = []
    for s in states:
        res = scheme_constraint_residual(sys, s, h, scheme)
        norms.append(float(np.max(np.abs(res))) if res.size else 0.0)
    energies = [energy(sys, s) for s in states]
    return rows, np.array(norms), np.array(energies), [s.newton_iters for s in states]


def _two_row_system():
    # Two constraint rows (the lu_solve branch of solve_gram).
    return FlatSystem(
        dim=4,
        mass_matrix=np.diag([1.0, 2.0, 1.0, 3.0]),
        potential=lambda q: 0.5 * float(q @ q),
        grad_potential=lambda q: np.asarray(q, dtype=float),
        constraints=lambda q: np.array([[q[1], 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -q[0]]]),
        num_constraints=2,
    )


def _one_dim_row_particle():
    # The particle with its constraint row returned as a 1-D array.
    base = nonholonomic_particle("harmonic")
    return FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=base.potential,
        grad_potential=base.grad_potential,
        constraints=lambda q: np.array([q[1], 0.0, -1.0]),
        num_constraints=1,
        constraints_derivative=base.constraints_derivative,
    )


_KERNEL_CASES = {
    "particle-euler_a": (lambda: nonholonomic_particle("harmonic"), "euler_a"),
    "particle-euler_b": (lambda: nonholonomic_particle("harmonic"), "euler_b"),
    "particle-rattle": (lambda: nonholonomic_particle("harmonic"), "rattle"),
    "affine-rattle": (lambda: constrained_2d(affine=(0.3, -0.2)), "rattle"),
    "affine-euler_a": (lambda: constrained_2d(affine=(0.3, -0.2)), "euler_a"),
    "unconstrained-euler_b": (lambda: _free_harmonic(3), "euler_b"),
    "two_rows-euler_a": (_two_row_system, "euler_a"),
    "two_rows-rattle": (_two_row_system, "rattle"),
    "one_dim_row-euler_b": (_one_dim_row_particle, "euler_b"),
}
_STEPPERS = {"euler_a": euler_a_step, "euler_b": euler_b_step, "rattle": rattle_step}


def _kernel_initial(sys, scheme, h):
    q0 = np.linspace(0.3, 0.1, sys.dim)
    v0 = np.linspace(1.0, 0.2, sys.dim)
    s0 = prepare_state(sys, q0, v0, scheme=scheme, h=h)
    return PhaseState(s0.q, s0.p, s0.lam, newton_iters=3)


@pytest.mark.parametrize("n_steps", [0, 1, 300])
@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_run_is_the_state_by_state_loop_bit_for_bit(case, n_steps):
    factory, scheme = _KERNEL_CASES[case]
    sys, h = factory(), 0.05
    s0 = _kernel_initial(sys, scheme, h)
    traj = run(_STEPPERS[scheme], sys, s0, h, n_steps)
    rows, norms, energies, iters = _reference_run(sys, s0, h, n_steps, scheme)
    assert np.array_equal(traj.states, rows)
    assert np.array_equal(traj.residuals, norms)
    assert np.array_equal(traj.energies, energies)
    assert np.array_equal(traj.newton_iters, iters)
    assert np.array_equal(traj.times, h * np.arange(n_steps + 1))
    assert np.max(traj.residuals) <= 1e-12
    # Every one-step call is one step of the same kernel.
    for k in (0, n_steps // 2, n_steps - 1) if n_steps else ():
        s = PhaseState(rows[k, : sys.dim], rows[k, sys.dim : 2 * sys.dim], rows[k, 2 * sys.dim :])
        one = _STEPPERS[scheme](sys, s, h)
        assert np.array_equal(np.concatenate([one.q, one.p, one.lam]), rows[k + 1])


def test_adjoint_check_of_the_kernel_steps_is_the_reference_steps():
    # At a negative step, from states on euler_a's form at that step.
    sys, h = nonholonomic_particle("harmonic"), -0.1
    states = [
        prepare_state(sys, q, v, scheme="euler_a", h=h)
        for q, v in (([0.3, 0.2, 0.1], [1.0, 0.5, 0.2]), ([0.1, -0.4, 0.2], [0.3, 0.2, 1.0]))
    ]
    kernel = adjoint_check(
        lambda s, hh: euler_a_step(sys, s, hh), lambda s, hh: euler_b_step(sys, s, hh), states, h
    )
    reference = adjoint_check(
        lambda s, hh: _reference_step(sys, s, hh, "euler_a"),
        lambda s, hh: _reference_step(sys, s, hh, "euler_b"),
        states,
        h,
    )
    assert kernel == reference
    assert 0.0 < kernel <= 1e-9


def _vanishing_row_system():
    # Free flight along x; the constraint row (0, 1 - x) holds y still and
    # vanishes once x reaches 1.
    return FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(2),
        constraints=lambda q: np.array([[0.0, max(1.0 - q[0], 0.0)]]),
        num_constraints=1,
    )


def test_kernel_run_fails_where_the_constraint_row_vanishes(monkeypatch):
    sys, h = _vanishing_row_system(), 0.1
    s0 = PhaseState(np.zeros(2), np.array([1.0, 0.0]), np.zeros(1))
    with pytest.raises(StepFailed) as excinfo:
        run(rattle_step, sys, s0, h, 40)
    full = excinfo.value
    assert isinstance(full.cause, RankDeficient)
    assert 8 < full.step < 40
    head = run(rattle_step, sys, s0, h, full.step - 1)
    assert np.array_equal(full.partial.states, head.states)
    assert np.array_equal(full.partial.residuals, head.residuals)
    assert np.array_equal(full.partial.energies, head.energies)
    # A windowed run has dropped rows by then and fails at the same step.
    monkeypatch.setattr(analysis, "_WINDOW_ROWS", 4)
    with pytest.raises(StepFailed) as excinfo:
        run(rattle_step, sys, s0, h, 40, residual=False)
    assert excinfo.value.step == full.step
    assert type(excinfo.value.cause) is type(full.cause)
    kept = len(excinfo.value.partial)
    assert np.array_equal(excinfo.value.partial.states, head.states[-kept:])


# ---------------------------------------------------------------------------
# the window kernel against the per-step oracle of tests/flat_oracle.py

_SCHEMES = ("euler_a", "euler_b", "rattle")


def _signed_zero_gradient_system():
    # Unconstrained, with a gradient entry of -0.0: the kick is (h/2)(g + 0.0).
    return FlatSystem(
        dim=3,
        mass_matrix=np.diag([1.0, 2.0, 0.5]),
        potential=lambda q: 0.5 * float(q[0] * q[0] + q[2] * q[2]),
        grad_potential=lambda q: np.array([q[0], -0.0, q[2]]),
    )


_ORACLE_SYSTEMS = {
    "particle": lambda: nonholonomic_particle("harmonic"),
    "planar_affine": lambda: constrained_2d(affine=(0.3, -0.2)),
    "two_rows": two_row_system,
    "signed_zero": _signed_zero_gradient_system,
}


def _oracle_row0(sys, scheme, h):
    s0 = prepare_state(sys, np.linspace(0.3, 0.1, sys.dim), np.linspace(1.0, 0.2, sys.dim), scheme, h)
    p = s0.p.copy()
    if sys.num_constraints == 0:
        p[1] = -0.0  # with the -0.0 gradient entry, a step at h < 0 shows the kick's zero sign
    return np.concatenate([s0.q, p, s0.lam])


def _oracle_point(grad, mu, offset):
    # The kernel's point layout [V_q, mu, Pi].
    return np.concatenate([grad, np.asarray(mu, dtype=float).reshape(-1), offset or []])


def _flat_oracle_run(sys, scheme, h, row0, n_steps):
    """Rows, points, residual column and failure ``(j, exc)`` (or ``None``)
    of the per-step oracle, stepped as the runner stepped it; the rows and
    points after a failure stay NaN."""
    n = sys.dim
    start, step, form = flat_oracle.flat_kernel(sys, h, scheme)
    rows = np.full((n_steps + 1, len(row0)), np.nan)
    rows[0] = row0
    q, p, lam = list(row0[:n]), list(row0[n : 2 * n]), list(row0[2 * n :])
    grad, mu, offset, kick = start(q, lam)
    points = [_oracle_point(grad, mu, offset)]
    grads, mus, offsets, failed = [grad], [mu], [offset], None
    for j in range(1, n_steps + 1):
        try:
            q, p, lam, (grad, mu, offset, kick) = step(q, p, lam, kick)
        except RankDeficient as exc:
            failed = (j, exc)
            break
        rows[j] = q + p + lam
        points.append(_oracle_point(grad, mu, offset))
        grads.append(grad), mus.append(mu), offsets.append(offset)
    k = len(points)
    res = None
    if sys.num_constraints:
        res = form(rows[:k, n : 2 * n], np.array(mus), np.array(grads),
                   None if offsets[0] is None else np.array(offsets))
    return rows, np.array(points), res, failed


def _flat_window_run(sys, scheme, h, row0, windows):
    """The window kernel over the steps of ``windows`` in turn, after an
    empty window that writes row 0's point, on buffers filled with NaN."""
    n, m = sys.dim, len(row0) - 2 * sys.dim
    window, form, point_size = gni_flat.flat_kernel(sys, h, scheme, m)
    total = sum(windows)
    rows = np.full((total + 1, len(row0)), np.nan)
    points = np.full((total + 1, point_size), np.nan)
    rows[0] = row0
    flat, pts = memoryview(rows.reshape(-1)), memoryview(points.reshape(-1))
    window(flat, pts, 1, 1)
    j0, failed = 1, None
    for size in windows:
        failed = window(flat, pts, j0, j0 + size)
        if failed is not None:
            break
        j0 += size
    k = j0 if failed is None else failed[0]
    res = form(rows[:k, n : 2 * n], points[:k]) if m else None
    return rows, points, res, failed


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_flat_window_is_oracle(sys, scheme, h, row0, windows):
    """Rows, points and residual column bit for bit, and the failing step
    with its exception's type and message.  Returns the oracle's failure."""
    rows, points, res, failed = _flat_window_run(sys, scheme, h, row0, windows)
    want_rows, want_points, want_res, want = _flat_oracle_run(sys, scheme, h, row0, sum(windows))
    np.testing.assert_array_equal(_bits(rows), _bits(want_rows))
    k = len(want_points)
    if sys.num_constraints:
        np.testing.assert_array_equal(_bits(points[:k]), _bits(want_points))
        np.testing.assert_array_equal(_bits(res), _bits(want_res))
    assert (failed is None) == (want is None)
    if want is not None:
        assert failed[0] == want[0]
        assert type(failed[1]) is type(want[1]) and str(failed[1]) == str(want[1])
    return want


@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("name", sorted(_ORACLE_SYSTEMS))
def test_flat_window_is_the_oracle(name, scheme):
    # Point callables that return lists, 1-D or 2-D arrays give the same bits.
    for kind in RETURN_KINDS:
        sys = returning(kind, _ORACLE_SYSTEMS[name]())
        for h in (0.05, -0.05) if name == "signed_zero" else (0.05,):
            row0 = _oracle_row0(sys, scheme, abs(h))
            for windows in ([300], [1, 1, 97, 201], [0, 2, 0, 298]):
                assert _assert_flat_window_is_oracle(sys, scheme, h, row0, windows) is None


@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("name", sorted(_ORACLE_SYSTEMS))
def test_flat_run_is_the_oracle_under_arbitrary_window_cuts(monkeypatch, name, scheme):
    # run() cuts its steps into windows of _WINDOW_ROWS: full runs hold every
    # row and point, residual=False runs keep the last two rows.
    sys, h, n_steps = _ORACLE_SYSTEMS[name](), 0.05, 150
    row0 = _oracle_row0(sys, scheme, h)
    n = sys.dim
    s0 = PhaseState(row0[:n], row0[n : 2 * n], row0[2 * n :])
    rows, _, res, _ = _flat_oracle_run(sys, scheme, h, row0, n_steps)
    norms = np.max(np.abs(res), axis=1) if res is not None else np.zeros(n_steps + 1)
    for size in (1, 2, 7, 64, 149, 150, 4096):
        monkeypatch.setattr(analysis, "_WINDOW_ROWS", size)
        full = run(_STEPPERS[scheme], sys, s0, h, n_steps)
        np.testing.assert_array_equal(_bits(full.states), _bits(rows))
        np.testing.assert_array_equal(_bits(full.residuals), _bits(norms))
        bare = run(_STEPPERS[scheme], sys, s0, h, n_steps, residual=False)
        np.testing.assert_array_equal(_bits(bare.states), _bits(rows[-2:]))


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_flat_run_across_a_full_window_is_the_oracle(scheme):
    # 4,100 steps: a window of 4,096 (the runner's) and one of 4.
    sys, h, n_steps = nonholonomic_particle("harmonic"), 0.05, 4100
    row0 = _oracle_row0(sys, scheme, h)
    assert _assert_flat_window_is_oracle(sys, scheme, h, row0, [4096, 4]) is None
    s0 = PhaseState(row0[:3], row0[3:6], row0[6:])
    full = run(_STEPPERS[scheme], sys, s0, h, n_steps)
    bare = run(_STEPPERS[scheme], sys, s0, h, n_steps, residual=False)
    rows, _, res, _ = _flat_oracle_run(sys, scheme, h, row0, n_steps)
    np.testing.assert_array_equal(_bits(full.states), _bits(rows))
    np.testing.assert_array_equal(_bits(full.residuals), _bits(np.max(np.abs(res), axis=1)))
    np.testing.assert_array_equal(_bits(bare.states), _bits(rows[-2:]))
    np.testing.assert_array_equal(_bits(bare.energies), _bits(full.energies[-2:]))


@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("failing_step", [1, 2, 4097])
def test_flat_window_fails_as_the_oracle(failing_step, scheme):
    # Free flight along x at speed v: x_k = x0 + k h v first reaches 1, where
    # the constraint row (0, 1 - x) vanishes, at step ``failing_step``.
    sys, h = _vanishing_row_system(), 0.1
    x0, v = (0.95 - 0.1 * (failing_step - 1), 1.0) if failing_step < 3 else (0.0, 1.0 / 409.65)
    row0 = np.array([x0, 0.0, v, 0.0, 0.0])
    n_steps = failing_step + 3
    windows = [4096, n_steps - 4096] if n_steps > 4096 else [n_steps]  # as run() cuts them
    want = _assert_flat_window_is_oracle(sys, scheme, h, row0, windows)
    assert want[0] == failing_step and type(want[1]) is RankDeficient
    assert str(want[1]) == "constraint row vanishes"
    rows, _, res, _ = _flat_oracle_run(sys, scheme, h, row0, n_steps)
    s0 = PhaseState(row0[:2], row0[2:4], row0[4:])
    with pytest.raises(StepFailed) as excinfo:
        run(_STEPPERS[scheme], sys, s0, h, n_steps)
    err = excinfo.value
    assert err.step == failing_step
    assert type(err.cause) is RankDeficient and str(err.cause) == str(want[1])
    np.testing.assert_array_equal(_bits(err.partial.states), _bits(rows[:failing_step]))
    np.testing.assert_array_equal(_bits(err.partial.residuals), _bits(np.max(np.abs(res), axis=1)))
    with pytest.raises(StepFailed) as excinfo:
        run(_STEPPERS[scheme], sys, s0, h, n_steps, residual=False)
    assert excinfo.value.step == failing_step
    assert type(excinfo.value.cause) is RankDeficient
    kept = len(excinfo.value.partial)
    np.testing.assert_array_equal(_bits(excinfo.value.partial.states),
                                  _bits(rows[failing_step - kept : failing_step]))
    # A one-step call fails as the run's first step does.
    if failing_step == 1:
        with pytest.raises(RankDeficient, match="constraint row vanishes"):
            _STEPPERS[scheme](sys, s0, h)


def test_flat_kernel_rejects_a_multiplier_count_other_than_the_constraint_rows():
    # One multiplier per constraint row, else the rows written would shift.
    sys, h = nonholonomic_particle("harmonic"), 0.05
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "rattle", h)
    bad = PhaseState(s0.q, s0.p, np.append(s0.lam, 0.0))
    for residual in (True, False):
        with pytest.raises(ValueError, match="2 multipliers for 1 constraint rows"):
            run(rattle_step, sys, bad, h, 5, residual=residual)
    with pytest.raises(ValueError, match="2 multipliers for 1 constraint rows"):
        rattle_step(sys, bad, h)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("grad_potential", {"grad_potential": lambda q: 2 * q}),  # 4 entries on a list
        ("grad_potential", {"grad_potential": lambda q: [q[0], 0]}),  # an int entry
        ("constraints", {"constraints": lambda q: [[1.0, 1.0, 0.0]]}),
        ("affine_field", {"affine_field": lambda q: [0.3]}),
    ],
)
@pytest.mark.parametrize("with_points", [True, False])
def test_flat_window_rejects_a_point_callable_of_the_wrong_length(name, overrides, with_points):
    # The window checks the point at its entry row, before any step: a
    # result that zip() would silently cut short raises, naming the callable.
    good, h = constrained_2d(affine=(0.3, -0.2)), 0.05
    row0 = _oracle_row0(good, "rattle", h)
    sys = dataclasses.replace(good, **overrides)
    window, _, point_size = gni_flat.flat_kernel(sys, h, "rattle", 1)
    rows, points = np.full((6, row0.size), np.nan), np.full((6, point_size), np.nan)
    rows[0] = row0
    pts = memoryview(points.reshape(-1)) if with_points else None
    with pytest.raises(ValueError, match=name):
        window(memoryview(rows.reshape(-1)), pts, 1, 6)
    assert np.isnan(rows[1:]).all() and np.isnan(points).all()
    if name == "grad_potential":  # run's own checks evaluate it on arrays, where it passes
        s0 = PhaseState(row0[:2], row0[2:4], row0[4:])
        with pytest.raises(ValueError, match=name):
            run(rattle_step, sys, s0, h, 5, residual=with_points)


@pytest.mark.parametrize(
    "residual", [pytest.param(True, id="None"), pytest.param(False, id="False")]
)  # the full run, with its residual column, and a windowed one
@pytest.mark.parametrize("scheme", _SCHEMES)
def test_flat_run_fails_where_a_callable_overflows_on_floats(scheme, residual, monkeypatch):
    # q'' = q^3: ``x ** 3`` raises OverflowError on a float where NumPy would
    # give inf.  The run fails as StepFailed at the step where the same
    # cubes, taken to inf, make the first non-finite row, with the same rows
    # before it, past a window cut.
    monkeypatch.setattr(analysis, "_WINDOW_ROWS", 16)
    h = 0.05
    s0 = PhaseState(np.array([1.0, 0.5]), np.array([0.5, 0.0]), np.zeros(0))
    failures = []
    for grad in (lambda q: [-(x ** 3) for x in q], lambda q: [cube_or_inf(x) for x in q]):
        with pytest.raises(StepFailed) as excinfo:
            run(_STEPPERS[scheme], cubic_repeller(grad), s0, h, 200, residual=residual)
        failures.append(excinfo.value)
    raised, non_finite = failures
    assert isinstance(raised.cause, OverflowError)
    assert isinstance(non_finite.cause, FloatingPointError)
    assert 16 < raised.step == non_finite.step < 200
    np.testing.assert_array_equal(_bits(raised.partial.states), _bits(non_finite.partial.states))
    assert np.isfinite(raised.partial.states).all()


def _scaled_mass_system(m2, rows):
    """Mass diag(1, m2, 1), the potential (x^2 + z^2)/2 and constant
    ``rows``.  For the rows e1, e2 the Gram matrix is diag(1, 1/m2): well
    conditioned column by column however small m2, but below 1e-14 of its
    largest entry in column 0 once m2 < 1e-14."""
    return FlatSystem(
        dim=3,
        mass_matrix=np.diag([1.0, m2, 1.0]),
        potential=lambda q: 0.5 * (q[0] ** 2 + q[2] ** 2),
        grad_potential=lambda q: [float(q[0]), 0.0, float(q[2])],
        constraints=lambda q: [list(map(float, row)) for row in rows],
        num_constraints=len(rows),
    )


@pytest.mark.parametrize("m2", [1e-13, 1e-15, 1e-20])
def test_a_gram_matrix_whose_columns_differ_in_scale_is_regular(m2):
    sys, h = _scaled_mass_system(m2, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 0.05
    s0 = prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "rattle", h)
    traj = run(rattle_step, sys, s0, h, 200)
    # The momentum form mu M^{-1} p against its scale |M^{-1}| max|p|.
    scale = np.max(np.abs(traj.states[:, 3:6])) / m2
    assert np.max(traj.residuals) <= 1e-12 * scale
    assert np.max(np.abs(traj.states[:, :2] - [0.3, 0.2])) <= 1e-12
    # The three-point scheme solves the same Gram matrix for every column
    # of the rows, and a Newton system diag(1, m2, 1) / h.
    generic = run(verlet_lagrangian(sys), sys, s0, h, 200)
    assert np.max(generic.residuals) <= 1e-12 * scale
    assert np.max(np.abs(generic.states[:, :3] - traj.states[:, :3])) <= 1e-12


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("second", [1.0, 1e-10])
def test_dependent_constraint_rows_are_rank_deficient_at_every_scale(scale, second):
    sys = _scaled_mass_system(1.0, [[scale, 0.0, 0.0], [second * scale, 0.0, 0.0]])
    with pytest.raises(RankDeficient, match="linearly dependent"):
        prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], "rattle", 0.05)
    s0 = PhaseState(np.zeros(3), np.zeros(3), np.zeros(2))
    with pytest.raises(StepFailed) as excinfo:
        run(rattle_step, sys, s0, 0.05, 3)
    assert excinfo.value.step == 1 and type(excinfo.value.cause) is RankDeficient
