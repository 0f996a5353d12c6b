"""Tests for the reduced steppers and the rolling-sphere specialization."""
import itertools

import numpy as np
import pytest

from gni.gni_flat import prepare_state, rattle_step
from gni import gni_reduced
from gni.gni_reduced import (
    ChaplyginParams,
    _solve_sphere,
    _stage3_system,
    chaplygin_init,
    chaplygin_initial_reduced_state,
    chaplygin_reduced_system,
    chaplygin_scheme_residual,
    chaplygin_step_stats,
    reconstruct,
    reduced_legendre,
    reduced_rattle_step,
    reduced_scheme_residual,
    standard_retracted_lagrangian,
)
from gni.lie_so3 import cay, dcay_inv, dexp_inv, exp_so3
from gni.model import ReducedState, ReducedSystem, FlatSystem
from gni.numerics import (
    NewtonConfig,
    NoConvergence,
    SingularMatrix,
    lu_solve,
    newton_solve_stats,
)


def _coupled_system(seed=5):
    """Small reduced system with nontrivial metric coupling and potential."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 5))
    metric = a @ a.T + 5.0 * np.eye(5)
    return ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=metric,
        annihilator=None,
        num_constraints=0,
        potential=lambda x: 0.5 * (x[0] ** 2 + 2.0 * x[1] ** 2),
        grad_potential=lambda x: np.array([x[0], 2.0 * x[1]]),
    )


def _scalar_ld(rsys):
    """Scalar discrete Lagrangian matching standard_retracted_lagrangian."""
    n = rsys.shape_dim
    gs = rsys.bundle_metric[:n, :n]
    gc = rsys.bundle_metric[:n, n:]
    ga = rsys.bundle_metric[n:, n:]

    def ld(x0, x1, sigma, h):
        dx = x1 - x0
        val = (dx @ gs @ dx) / (2 * h) + (dx @ gc @ sigma) / h
        val += (sigma @ ga @ sigma) / (2 * h)
        val -= 0.5 * h * (rsys.potential(x0) + rsys.potential(x1))
        return val

    return ld


# ---------------------------------------------------------------------------
# discrete Legendre transforms


def test_standard_lagrangian_gradients_match_scalar_fd():
    rsys = _coupled_system()
    ld = standard_retracted_lagrangian(rsys)
    scalar = _scalar_ld(rsys)
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=2)
    x1 = rng.normal(size=2)
    sigma = rng.normal(size=3)
    h = 0.05
    eps = 1e-6

    def fd(fun, z):
        grad = np.zeros(z.size)
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            grad[i] = (fun(zp) - fun(zm)) / (2 * eps)
        return grad

    np.testing.assert_allclose(
        ld.d1(x0, x1, sigma, h), fd(lambda z: scalar(z, x1, sigma, h), x0), atol=1e-8
    )
    np.testing.assert_allclose(
        ld.d2(x0, x1, sigma, h), fd(lambda z: scalar(x0, z, sigma, h), x1), atol=1e-8
    )
    np.testing.assert_allclose(
        ld.d3(x0, x1, sigma, h), fd(lambda z: scalar(x0, x1, z, h), sigma), atol=1e-8
    )


def test_legendre_zero_velocity_algebra_parts_coincide():
    rsys = _coupled_system()
    ld = standard_retracted_lagrangian(rsys)
    x0 = np.array([0.3, -0.2])
    x1 = np.array([0.5, 0.1])
    h = 0.1
    p_minus, p_plus = reduced_legendre(ld, x0, x1, np.zeros(3), h)
    # With xi = 0 both inverse-retraction tangents are the identity.
    np.testing.assert_allclose(p_minus[2:], p_plus[2:], atol=1e-14)
    v = (x1 - x0) / h
    gs = rsys.bundle_metric[:2, :2]
    grad0 = np.array([x0[0], 2.0 * x0[1]])
    np.testing.assert_allclose(p_minus[:2], gs @ v + 0.5 * h * grad0, atol=1e-13)


def test_legendre_algebra_closed_form_for_diagonal_metric():
    # Decoupled diagonal metric: algebra momenta have the closed form
    # I xi +/- (h/2) xi x (I xi) + (h^2/4) (xi . I xi) xi.
    inertia = np.array([1.0, 1.1, 1.2])
    rsys = ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=np.diag([3.0, 3.0, *inertia]),
        annihilator=None,
        num_constraints=0,
    )
    ld = standard_retracted_lagrangian(rsys)
    rng = np.random.default_rng(3)
    h = 0.15
    for _ in range(5):
        xi = rng.normal(size=3)
        x0 = rng.normal(size=2)
        x1 = rng.normal(size=2)
        p_minus, p_plus = reduced_legendre(ld, x0, x1, xi, h)
        body = inertia * xi
        cross = 0.5 * h * np.cross(xi, body)
        pull = 0.25 * h * h * float(xi @ body) * xi
        np.testing.assert_allclose(p_minus[2:], body + cross + pull, atol=1e-12)
        np.testing.assert_allclose(p_plus[2:], body - cross + pull, atol=1e-12)


def test_legendre_axis_spin_third_component():
    inertia = np.array([2 / 3, 2 / 3, 1 / 3])
    rsys = ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=np.diag([1.0, 1.0, *inertia]),
        annihilator=None,
        num_constraints=0,
    )
    ld = standard_retracted_lagrangian(rsys)
    w, h = 0.8, 0.2
    p_minus, _ = reduced_legendre(
        ld, np.zeros(2), np.zeros(2), np.array([0.0, 0.0, w]), h
    )
    expected = inertia[2] * w * (1.0 + 0.25 * h * h * w * w)
    assert abs(p_minus[4] - expected) < 1e-14
    assert abs(p_minus[2]) < 1e-14 and abs(p_minus[3]) < 1e-14


def test_legendre_matches_fd_of_scalar_lagrangian_generic():
    rsys = _coupled_system(seed=9)
    ld = standard_retracted_lagrangian(rsys)
    scalar = _scalar_ld(rsys)
    rng = np.random.default_rng(21)
    x0, x1 = rng.normal(size=2), rng.normal(size=2)
    xi = rng.normal(size=3)
    h = 0.08
    sigma = h * xi
    eps = 1e-6
    d3 = np.zeros(3)
    for i in range(3):
        sp, sm = sigma.copy(), sigma.copy()
        sp[i] += eps
        sm[i] -= eps
        d3[i] = (scalar(x0, x1, sp, h) - scalar(x0, x1, sm, h)) / (2 * eps)
    p_minus, p_plus = reduced_legendre(ld, x0, x1, xi, h)
    np.testing.assert_allclose(p_minus[2:], dcay_inv(sigma).T @ d3, atol=1e-8)
    np.testing.assert_allclose(p_plus[2:], dcay_inv(-sigma).T @ d3, atol=1e-8)


# ---------------------------------------------------------------------------
# reduced stepper


def test_reduced_step_zero_h_is_identity():
    rsys = chaplygin_reduced_system(ChaplyginParams(1.0, 1.0, 0.2, 2 / 3, 2 / 3, 2 / 3))
    ld = standard_retracted_lagrangian(rsys)
    s = chaplygin_initial_reduced_state(
        ChaplyginParams(1.0, 1.0, 0.2, 2 / 3, 2 / 3, 2 / 3),
        np.array([1.0, 0.0]),
        np.array([-0.2, 0.0, 0.4]),
        0.1,
    )
    assert reduced_rattle_step(rsys, s, 0.0) is s


def test_reduced_step_rest_state_is_fixed_point():
    params = ChaplyginParams(1.0, 1.0, 0.2, 2 / 3, 2 / 3, 2 / 3)
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    s = ReducedState(np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(3), np.zeros(2))
    out = reduced_rattle_step(rsys, s, 0.05)
    np.testing.assert_allclose(out.x, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(out.p, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(out.xi, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(out.p_alg, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(out.lam, np.zeros(2), atol=1e-15)


def test_reduced_step_free_motion_straight_line_and_constant_spin():
    # No constraints, no potential, diagonal metric, spin about a principal
    # axis: shape moves on a straight line, xi and the algebra momentum stay
    # constant because the incremental rotation fixes its own axis.
    ga = np.array([0.9, 1.4, 2.0])
    rsys = ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=np.diag([2.0, 2.0, *ga]),
        annihilator=None,
        num_constraints=0,
    )
    ld = standard_retracted_lagrangian(rsys)
    h = 0.05
    xi0 = np.array([0.0, 0.7, 0.0])
    p_alg0 = dcay_inv(h * xi0).T @ (ga * xi0)
    s = ReducedState(np.array([0.1, -0.3]), np.array([0.8, -0.4]), xi0, p_alg0, np.zeros(0))
    states = [s]
    for _ in range(20):
        states.append(reduced_rattle_step(rsys, states[-1], h))
    for k, st in enumerate(states):
        np.testing.assert_allclose(
            st.x, states[0].x + k * h * (states[0].p / 2.0), atol=1e-12
        )
        np.testing.assert_allclose(st.p, states[0].p, atol=1e-13)
        np.testing.assert_allclose(st.xi, xi0, atol=1e-12)
        np.testing.assert_allclose(st.p_alg, p_alg0, atol=1e-12)


def test_reduced_step_shape_part_degenerates_to_flat_rattle():
    # With no constraints and no metric coupling the shape variables follow
    # the flat kick-drift-kick update exactly.
    mass = np.diag([1.0, 2.0])
    rsys = ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=np.diag([1.0, 2.0, 1.0, 1.0, 1.0]),
        annihilator=None,
        num_constraints=0,
        potential=lambda x: 0.5 * (x[0] ** 2 + 2.0 * x[1] ** 2),
        grad_potential=lambda x: np.array([x[0], 2.0 * x[1]]),
    )
    flat = FlatSystem(
        dim=2,
        mass_matrix=mass,
        potential=lambda q: 0.5 * (q[0] ** 2 + 2.0 * q[1] ** 2),
        grad_potential=lambda q: np.array([q[0], 2.0 * q[1]]),
    )
    ld = standard_retracted_lagrangian(rsys)
    h = 0.02
    xi0 = np.array([0.3, -0.2, 0.5])
    rs = ReducedState(
        np.array([0.4, -0.1]),
        np.array([0.2, 0.7]),
        xi0,
        dcay_inv(h * xi0).T @ xi0,
        np.zeros(0),
    )
    fs = prepare_state(flat, rs.x, np.linalg.solve(mass, rs.p))
    for _ in range(20):
        rs = reduced_rattle_step(rsys, rs, h)
        fs = rattle_step(flat, fs, h)
    np.testing.assert_allclose(rs.x, fs.q, atol=1e-12)
    np.testing.assert_allclose(rs.p, fs.p, atol=1e-12)


def test_reduced_step_matches_specialized_rolling_sphere():
    # The generic staged stepper and the specialized five-equation solver
    # discretize the same mechanics; trajectories agree to solver precision,
    # well inside the 10 h^2 acceptance envelope.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    h = 1e-3
    q0 = np.array([1.0, 0.0])
    w0 = np.array([-0.2, 0.0, 0.4])
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    s = chaplygin_initial_reduced_state(params, q0, w0, h)

    qs = [q0, chaplygin_init(params, q0, w0, h)]
    ws = [w0]
    for k in range(1, 10):
        qn, wn, _ = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], h)
        qs.append(qn)
        ws.append(wn)

    tol = 10 * h * h
    for j in range(1, 10):
        s = reduced_rattle_step(rsys, s, h)
        assert np.max(np.abs(s.x - qs[j])) <= tol
        assert np.max(np.abs(s.xi - ws[j])) <= tol


def test_reduced_scheme_residual_small_along_trajectory():
    params = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    s = chaplygin_initial_reduced_state(
        params, np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0]), 0.1
    )
    for _ in range(50):
        s_new = reduced_rattle_step(rsys, s, 0.1)
        res = reduced_scheme_residual(rsys, s, s_new, 0.1)
        assert np.max(np.abs(res)) <= 1e-10
        s = s_new


def test_reduced_step_exp_retraction_close_to_cay():
    params = ChaplyginParams(m=1.0, r=1.0, omega=0.2, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    h = 1e-3
    s0 = chaplygin_initial_reduced_state(
        params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), h
    )
    sc = se = s0
    for _ in range(5):
        sc = reduced_rattle_step(rsys, sc, h, retraction="cay")
        se = reduced_rattle_step(rsys, se, h, retraction="exp")
    # Retractions agree to second order in the increment.
    assert np.max(np.abs(sc.x - se.x)) < 10 * h * h
    assert np.max(np.abs(sc.xi - se.xi)) < 10 * h * h


def test_reduced_step_rejects_unknown_retraction():
    params = ChaplyginParams(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    s = chaplygin_initial_reduced_state(params, np.zeros(2), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        reduced_rattle_step(rsys, s, 0.1, retraction="polar")


# ---------------------------------------------------------------------------
# stage-3 kernel

_DTAU_INV = {"cay": dcay_inv, "exp": dexp_inv}


def _random_sigma(rng):
    """A random algebra increment with |sigma| <= 1."""
    sigma = rng.normal(size=3)
    return sigma / np.linalg.norm(sigma) * rng.uniform(0.0, 1.0)


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_tangent_transpose_matches_matrix_form(retraction):
    # With S = 0 and h = 1 the residual is T(sigma)^T b - alg1.
    rng = np.random.default_rng(13)
    for _ in range(200):
        sigma = _random_sigma(rng)
        v = rng.normal(size=3)
        residual, _ = _stage3_system(retraction, np.zeros((3, 3)), v, np.zeros(3), 1.0)
        got = np.array(residual(*sigma))
        ref = _DTAU_INV[retraction](sigma).T @ v
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_jacobian_matches_central_differences(retraction):
    rng = np.random.default_rng(17)
    eps = 1e-6
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        schur = a @ a.T + np.eye(3)
        b, alg1, xi = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        h = rng.uniform(0.01, 0.5)
        residual, jacobian = _stage3_system(retraction, schur, b, alg1, h)
        jac = np.array(jacobian(*xi))
        fd = np.empty((3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            fd[:, j] = (np.array(residual(*(xi + step))) - np.array(residual(*(xi - step)))) / (
                2.0 * eps
            )
        np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-8)


def test_stage3_affine_gradient_matches_standard_lagrangian():
    # Along the forward shape update x2(xi) = x1 + h Gs^-1 (p - Gc xi) the
    # algebra gradient d3 of the standard Lagrangian is b + S xi with the
    # cached Schur block and b = Gc^T Gs^-1 p.
    rsys = _coupled_system(seed=9)
    ld = standard_retracted_lagrangian(rsys)
    gc = rsys.bundle_metric[:2, 2:]
    gs_inv = rsys.shape_metric_inv
    rng = np.random.default_rng(29)
    h = 0.05
    for _ in range(20):
        x1, p, xi = rng.normal(size=2), rng.normal(size=2), rng.normal(size=3)
        b = gc.T @ (gs_inv @ p)
        x2 = x1 + h * (gs_inv @ (p - gc @ xi))
        ref = ld.d3(x1, x2, h * xi, h)
        got = b + rsys.algebra_schur @ xi
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _old_reduced_step(rsys, ld, s, h, retraction="cay"):
    """The reduced step before the analytic stage 3: lu_solve for the Gram
    system and a finite-difference Newton solve on the matrix tangents."""
    tau, dtau_inv = {"cay": (cay, dcay_inv), "exp": (exp_so3, dexp_inv)}[retraction]
    n = rsys.shape_dim
    gs = rsys.bundle_metric[:n, :n]
    gc = rsys.bundle_metric[:n, n:]
    gs_inv = np.linalg.inv(gs)
    rows0 = rsys.annihilator_matrix(s.x)
    p_half = s.p - 0.5 * h * (rsys.grad_potential(s.x) + rows0[:, :n].T @ s.lam)
    x1 = s.x + h * (gs_inv @ (p_half - gc @ s.xi))
    alg_trans = tau(h * s.xi).T @ s.p_alg
    rows1 = rsys.annihilator_matrix(x1)
    grad1 = np.asarray(rsys.grad_potential(x1), dtype=float)
    mu1, eta1 = rows1[:, :n], rows1[:, n:]
    lam1 = np.zeros(0)
    if rows1.shape[0]:
        w_mat = rows1 @ rsys.metric_inv
        base = np.concatenate([p_half - 0.5 * h * grad1, alg_trans]) - rsys.momentum_offset(x1)
        lam1 = (2.0 / h) * lu_solve(w_mat @ rows1.T, w_mat @ base)
    p1 = p_half - 0.5 * h * (grad1 + mu1.T @ lam1)
    alg1 = alg_trans - h * (eta1.T @ lam1)
    p_half_next = p1 - 0.5 * h * (grad1 + mu1.T @ lam1)

    def residual(xi_next):
        x2 = x1 + h * (gs_inv @ (p_half_next - gc @ xi_next))
        sigma = h * xi_next
        return dtau_inv(sigma).T @ np.asarray(ld.d3(x1, x2, sigma, h)) - alg1

    def fd_jacobian(xi_next):
        # Forward differences with step 1e-7, column by column.
        r0 = residual(xi_next)
        jac = np.empty((3, 3))
        for j in range(3):
            probe = xi_next.copy()
            probe[j] += 1e-7
            jac[:, j] = (residual(probe) - r0) / 1e-7
        return jac

    xi1, iters = newton_solve_stats(residual, s.xi.copy(), jacobian=fd_jacobian)
    return ReducedState(x1, p1, xi1, alg1, lam1, newton_iters=iters)


@pytest.mark.parametrize("retraction, steps", [("cay", 3000), ("exp", 2500)])
def test_reduced_step_agrees_with_finite_difference_stage3(retraction, steps):
    # The shipped reduced sphere (configs/sphere_reduced.cfg) at h = 0.05.
    # Both paths solve stage 3 to the same 1e-12 tolerance, so their roots
    # differ within it; over the run that stays below 1e-9.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    h = 0.05
    new = old = chaplygin_initial_reduced_state(
        params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), h
    )
    cfg = NewtonConfig()
    worst = 0.0
    for _ in range(steps):
        new = reduced_rattle_step(rsys, new, h, retraction=retraction, cfg=cfg)
        old = _old_reduced_step(rsys, ld, old, h, retraction=retraction)
        for name in ("x", "p", "xi", "p_alg", "lam"):
            worst = max(worst, np.max(np.abs(getattr(new, name) - getattr(old, name))))
    assert worst <= 1e-9


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_reduced_step_agrees_with_finite_difference_stage3_coupled_metric(retraction):
    # A full metric couples shape and algebra (Gc != 0), so b and the
    # Schur block both enter stage 3; a potential acts on the shape.
    rsys = _coupled_system(seed=9)
    ld = standard_retracted_lagrangian(rsys)
    h = 0.05
    xi0 = np.array([0.4, -0.3, 0.8])
    new = old = ReducedState(
        np.array([0.3, -0.2]), np.array([0.5, 0.1]), xi0, dcay_inv(h * xi0).T @ xi0, np.zeros(0)
    )
    for _ in range(200):
        new = reduced_rattle_step(rsys, new, h, retraction=retraction)
        old = _old_reduced_step(rsys, ld, old, h, retraction=retraction)
        for name in ("x", "p", "xi", "p_alg"):
            assert np.max(np.abs(getattr(new, name) - getattr(old, name))) <= 1e-9


def test_reduced_step_stage3_no_convergence():
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    s = chaplygin_initial_reduced_state(
        params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), 0.05
    )
    with pytest.raises(NoConvergence) as excinfo:
        reduced_rattle_step(rsys, s, 0.05, cfg=NewtonConfig(max_iters=1))
    assert excinfo.value.iterations == 1
    assert excinfo.value.final_residual > 1e-12


def test_reduced_step_stage3_singular_jacobian(monkeypatch):
    # Coefficients a = c = 0 make T(sigma) = -hat(sigma)/2; at xi = 0 the
    # Jacobian is then -h hat(v)/2, a singular 3x3.
    monkeypatch.setitem(gni_reduced._TANGENT_COEFFS, "cay", lambda t: (0.0, 0.0, 0.0, 0.0))
    params = ChaplyginParams(m=1.0, r=1.0, omega=0.0, i1=1.0, i2=1.0, i3=1.0)
    rsys = chaplygin_reduced_system(params)
    ld = standard_retracted_lagrangian(rsys)
    s = ReducedState(
        np.zeros(2), np.array([0.3, -0.2]), np.zeros(3), np.array([0.1, 0.2, 0.3]), np.zeros(2)
    )
    with pytest.raises(SingularMatrix):
        reduced_rattle_step(rsys, s, 0.05)


# ---------------------------------------------------------------------------
# rolling-sphere specialization


def test_params_validation():
    with pytest.raises(ValueError):
        ChaplyginParams(m=0.0, r=1.0, omega=0.0, i1=1.0, i2=1.0, i3=1.0)
    with pytest.raises(ValueError):
        ChaplyginParams(m=1.0, r=-1.0, omega=0.0, i1=1.0, i2=1.0, i3=1.0)
    with pytest.raises(ValueError):
        ChaplyginParams(m=1.0, r=1.0, omega=0.0, i1=1.0, i2=0.0, i3=1.0)


def test_init_hand_example():
    params = ChaplyginParams(m=1.0, r=1.0, omega=0.2, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    q1 = chaplygin_init(params, (1.0, 0.0), (-0.2, 0.0, 0.4), 0.15)
    np.testing.assert_allclose(q1, [1.0, 0.06], atol=1e-15)


def test_init_two_point_constraint_residual_second_order():
    # The seeding rule satisfies the two-point form of the discretized
    # constraints up to the O(h^2) symmetric correction terms.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    q0 = np.array([1.0, 0.0])
    w0 = np.array([-0.2, 0.0, 0.4])
    for h in (0.15, 0.075, 0.0375):
        q1 = chaplygin_init(params, q0, w0, h)
        res = chaplygin_scheme_residual(params, 2 * q0 - q1, q0, q1, w0, w0, h)
        assert np.max(np.abs(res)) <= h * h


def test_step_rest_is_fixed_point():
    params = ChaplyginParams(m=1.0, r=1.0, omega=0.2, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    q_next, w, _ = chaplygin_step_stats(params, np.zeros(2), np.zeros(2), np.zeros(3), 0.1)
    np.testing.assert_allclose(q_next, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(w, np.zeros(3), atol=1e-15)


def test_step_vertical_spin_preserved_and_matches_bisection():
    # Symmetric ball spinning about the vertical axis at the plate center:
    # the spin equation reduces to a scalar cubic in the update factor c,
    # whose root (found independently by bisection) is exactly 1.
    params = ChaplyginParams(m=1.0, r=1.0, omega=0.0, i1=2 / 3, i2=2 / 3, i3=1 / 3)
    w, h = 0.8, 0.2
    q_next, w_curr, _ = chaplygin_step_stats(
        params, np.zeros(2), np.zeros(2), np.array([0.0, 0.0, w]), h
    )

    def cubic(c):
        return params.i3 * w * (c - 1.0) + 0.25 * h * h * params.i3 * w**3 * (
            c**3 - 1.0
        )

    lo, hi = 0.5, 1.5
    assert cubic(lo) < 0.0 < cubic(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cubic(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 1.0) < 1e-12
    np.testing.assert_allclose(q_next, np.zeros(2), atol=1e-14)
    np.testing.assert_allclose(w_curr, [0.0, 0.0, root * w], atol=1e-12)


def test_step_is_deterministic():
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    args = (np.array([1.0, 0.0]), np.array([1.0, 0.06]), np.array([-0.2, 0.0, 0.4]), 0.15)
    q_a, w_a, _ = chaplygin_step_stats(params, *args)
    q_b, w_b, _ = chaplygin_step_stats(params, *args)
    assert np.array_equal(q_a, q_b) and np.array_equal(w_a, w_b)


def test_step_no_convergence_raises():
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    cfg = NewtonConfig(residual_tol=1e-15, max_iters=1)
    with pytest.raises(NoConvergence) as excinfo:
        chaplygin_step_stats(
            params,
            np.array([1.0, 0.0]),
            np.array([1.3, -0.2]),
            np.array([5.0, -4.0, 3.0]),
            0.5,
            cfg=cfg,
        )
    assert excinfo.value.iterations == 1


def test_step_converges_to_continuous_dynamics():
    # Independent oracle: classical RK4 on the continuous balance laws
    # obtained by eliminating the multipliers (the torque balance with
    # effective inertias I_i + m r^2 plus the contact constraints).
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    m, r, om = params.m, params.r, params.omega
    i1, i2, i3 = params.i1, params.i2, params.i3

    def rhs(z):
        x, y, w1, w2, w3 = z
        dx = r * w2 - om * y
        dy = -r * w1 + om * x
        return np.array(
            [
                dx,
                dy,
                ((i2 - i3) * w2 * w3 + m * r * om * dx) / (i1 + m * r * r),
                ((i3 - i1) * w3 * w1 + m * r * om * dy) / (i2 + m * r * r),
                (i1 - i2) * w1 * w2 / i3,
            ]
        )

    z = np.array([1.0, 0.0, -0.2, 0.0, 0.4])
    h_ref = 1e-4
    for _ in range(int(round(0.5 / h_ref))):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h_ref * k1)
        k3 = rhs(z + 0.5 * h_ref * k2)
        k4 = rhs(z + h_ref * k3)
        z = z + (h_ref / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    h = 1e-3
    q0 = np.array([1.0, 0.0])
    w0 = np.array([-0.2, 0.0, 0.4])
    qs = [q0, chaplygin_init(params, q0, w0, h)]
    wv = w0
    for k in range(1, int(round(0.5 / h)) + 1):
        qn, wv, _ = chaplygin_step_stats(params, qs[k - 1], qs[k], wv, h)
        qs.append(qn)
    assert np.max(np.abs(qs[-2] - z[:2])) < 5e-4
    assert np.max(np.abs(wv - z[2:])) < 5e-4


def test_scheme_residual_at_accepted_step_is_tiny():
    params = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    h = 0.1
    q0 = np.array([1.0, 1.0])
    w0 = np.array([0.0, 2.0, 0.0])
    qs = [q0, chaplygin_init(params, q0, w0, h)]
    ws = [w0]
    for k in range(1, 100):
        qn, wn, _ = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], h)
        res = chaplygin_scheme_residual(params, qs[k - 1], qs[k], qn, ws[k - 1], wn, h)
        assert np.max(np.abs(res)) <= 1e-10
        qs.append(qn)
        ws.append(wn)


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64)


def test_stepper_matches_step_stats_bit_for_bit_over_a_long_run():
    # The per-run float kernel fed its own outputs, against the array
    # wrappers fed theirs, on the criterion-06 sphere; the last state and
    # the Newton work are pinned to the per-call core this kernel replaced.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    h = 0.01
    step = gni_reduced._chaplygin_stepper(params, h)
    q0, w0 = np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])
    qs, ws = [q0, chaplygin_init(params, q0, w0, h)], [w0]
    xm, ym, x0, y0 = *qs[0], *qs[1]
    v = tuple(w0)
    total_iters = 0
    for k in range(1, 2001):
        q_next, w, iters = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], h)
        x1, y1, *w_float, iters_float = step(xm, ym, x0, y0, *v)
        np.testing.assert_array_equal(_bits([x1, y1, *w_float]), _bits([*q_next, *w]))
        assert iters_float == iters
        q_plain, w_plain, _ = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], h)
        assert np.array_equal(q_plain, q_next) and np.array_equal(w_plain, w)
        qs.append(q_next)
        ws.append(w)
        xm, ym, x0, y0, v = x0, y0, x1, y1, tuple(w_float)
        total_iters += iters
    pinned = [
        float.fromhex(x)
        for x in (
            "-0x1.2f14c5216180bp+2", "0x1.c1d0c68afdafcp+2", "-0x1.322d6bbf59173p+0",
            "0x1.7364223bb1c03p-1", "0x1.cace33bb5afdfp-1",
        )
    ]
    np.testing.assert_array_equal(_bits([x0, y0, *v]), _bits(pinned))
    assert total_iters == 3946


def test_stepper_damped_step_and_no_convergence_exit():
    # Off-trajectory inputs: the first state needs one damping halving and
    # converges after 8 updates; the second halves 336 times and stalls at
    # a rounding-level residual above the 1e-12 tolerance.  The pinned bits
    # come from the per-call Newton core this kernel replaced.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    step = gni_reduced._chaplygin_stepper(params, 1.0)
    damped = ([-1.0, 2.0], [1.0, 0.0], [-15.0, -24.0, -12.0])
    *values, iters = step(*damped[0], *damped[1], *damped[2])
    q_next, w, iters_stats = chaplygin_step_stats(params, *map(np.array, damped), 1.0)
    pinned = [
        float.fromhex(x)
        for x in (
            "-0x1.799ce0c7ce0c9p+11", "0x1.e6eb333333335p+10", "0x1.569fd924ffe03p+3",
            "0x1.f1c920d628c1dp+3", "-0x1.10fda9ad100a9p+4",
        )
    ]
    np.testing.assert_array_equal(_bits(values), _bits(pinned))
    np.testing.assert_array_equal(_bits([*q_next, *w]), _bits(pinned))
    assert iters == iters_stats == 8

    stalled = ([0.0, -2.0], [1.0, 0.0], [-19.0, 23.0, -27.0])
    with pytest.raises(NoConvergence) as kernel_exc:
        step(*stalled[0], *stalled[1], *stalled[2])
    with pytest.raises(NoConvergence) as stats_exc:
        chaplygin_step_stats(params, *map(np.array, stalled), 1.0)
    assert kernel_exc.value.iterations == stats_exc.value.iterations == 50
    assert kernel_exc.value.final_residual == stats_exc.value.final_residual
    assert 1e-12 < kernel_exc.value.final_residual < 2e-12


def _solve5_reference(a, b, pivots):
    """The generic 5x5 elimination the rolling-sphere Newton step used
    before its structured solve, kept as the oracle that solve must match
    bit for bit.  Appends each column's pivot row to ``pivots``."""
    n = 5
    for col in range(n):
        pivot_row = col
        pivot_mag = abs(a[col][col])
        for row in range(col + 1, n):
            mag = abs(a[row][col])
            if mag > pivot_mag:
                pivot_row, pivot_mag = row, mag
        pivots.append(pivot_row)
        if pivot_mag <= 1e-300:
            return None
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        arow = a[col]
        pivot = arow[col]
        for row in range(col + 1, n):
            factor = a[row][col] / pivot
            if factor != 0.0:
                brow = a[row]
                for j in range(col + 1, n):
                    brow[j] -= factor * arow[j]
                b[row] -= factor * b[col]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        arow = a[row]
        for j in range(row + 1, n):
            acc -= arow[j] * x[j]
        x[row] = acc / arow[row]
    return x


# Nonzero pattern of the rolling-sphere Jacobian, in _solve_sphere's
# argument order.
_SPHERE_PATTERN = (
    (0, 0), (0, 2), (0, 3), (0, 4),
    (1, 1), (1, 2), (1, 3), (1, 4),
    (2, 2), (2, 3), (2, 4),
    (3, 0), (3, 2), (3, 3), (3, 4),
    (4, 1), (4, 2), (4, 3), (4, 4),
)


def _sphere_solve_matches_oracle(jac, rhs):
    """Assert bit-identical results; return the oracle's pivot rows and
    whether it found the system singular."""
    args = [float(jac[i, j]) for i, j in _SPHERE_PATTERN] + [float(x) for x in rhs]
    got = _solve_sphere(*args)
    pivots = []
    want = _solve5_reference(jac.tolist(), [float(x) for x in rhs], pivots)
    if want is None:
        assert got is None
    else:
        assert got is not None
        np.testing.assert_array_equal(
            np.array(got).view(np.uint64), np.array(want).view(np.uint64)
        )
    return pivots, want is None


def _sphere_structured(values):
    jac = np.zeros((5, 5))
    for (i, j), value in zip(_SPHERE_PATTERN, values):
        jac[i, j] = value
    return jac


def test_structured_sphere_solve_matches_generic_elimination_every_pivot_order():
    rng = np.random.default_rng(2024)
    # Every combination of a kept or swapped pivot in columns 0 and 1 with
    # each choice of the tail rows (positions 2, 3, 4) that pivot columns
    # 2 and 3.
    for swap0, swap1, order in itertools.product(
        (False, True), (False, True), itertools.permutations((2, 3, 4))
    ):
        # The rows that reach tail positions 2, 3, 4 after columns 0 and 1.
        tail_rows = {2: 2, 3: 0 if swap0 else 3, 4: 1 if swap1 else 4}
        for _ in range(45):
            jac = _sphere_structured(rng.uniform(-1.0, 1.0, size=19))
            sign = rng.choice((-1.0, 1.0), size=4)
            small, big = sign[:2], 2.0 * sign[2:]
            jac[0, 0], jac[3, 0] = (small[0], big[0]) if swap0 else (big[0], small[0])
            jac[1, 1], jac[4, 1] = (small[1], big[1]) if swap1 else (big[1], small[1])
            jac[tail_rows[order[0]], 2] = 10.0 * sign[0]
            jac[tail_rows[order[1]], 3] = 10.0 * sign[1]
            pivots, _ = _sphere_solve_matches_oracle(jac, rng.normal(size=5))
            # The column-2 swap moves the row from position 2 to order[0].
            col3 = order[0] if order[1] == 2 else order[1]
            assert pivots == [3 if swap0 else 0, 4 if swap1 else 1, order[0], col3, 4]


def test_structured_sphere_solve_matches_generic_elimination_on_ties_and_zeros():
    # Small integers give exact pivot ties (|a30| == |a00| among them),
    # zero factors that are skipped, and exactly singular systems.
    rng = np.random.default_rng(7)
    singular = 0
    for _ in range(400):
        jac = _sphere_structured(rng.integers(-2, 3, size=19).astype(float))
        jac[0, 0], jac[3, 0] = rng.choice((-1.0, 1.0), size=2)
        rhs = rng.integers(-3, 4, size=5).astype(float)
        pivots, is_singular = _sphere_solve_matches_oracle(jac, rhs)
        assert pivots[0] == 0  # the tie |a30| == |a00| keeps the lower row
        singular += is_singular
    assert 0 < singular < 400


def test_structured_sphere_solve_singular_tail_returns_none():
    rng = np.random.default_rng(3)
    for tail in (
        np.zeros((3, 3)),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]),
        np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, -2.0, 5.0]]),
    ):
        jac = _sphere_structured(rng.uniform(-1.0, 1.0, size=19))
        jac[0, 2:] = jac[1, 2:] = 0.0  # columns 0 and 1 leave the tail as given
        jac[2:, 2:] = tail
        assert _solve_sphere(
            *[float(jac[i, j]) for i, j in _SPHERE_PATTERN], *rng.normal(size=5)
        ) is None
        assert _sphere_solve_matches_oracle(jac, rng.normal(size=5))[1]


def test_structured_sphere_solve_propagates_overflow_like_generic_elimination():
    # x1 overflows to inf while x2..x4 stay finite; the generic loop still
    # multiplies it by the zero row-0 entry of column 1, making x0 NaN.
    jac = np.eye(5)
    jac[3, 0] = jac[4, 1] = 0.5
    jac[1, 2] = 1.0
    rhs = np.array([1.0, 1e308, -1e308, 0.0, 0.0])
    with np.errstate(all="ignore"):
        _sphere_solve_matches_oracle(jac, rhs)
        x = _solve_sphere(*[float(jac[i, j]) for i, j in _SPHERE_PATTERN], *rhs)
    assert np.isinf(x[1]) and np.isnan(x[0])


def test_reduced_system_projectors_match_hand_values():
    from gni.model import reduced_projectors

    params = ChaplyginParams(m=1.0, r=1.0, omega=0.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    rsys = chaplygin_reduced_system(params)
    p_mat, q_mat = reduced_projectors(rsys, np.zeros(2))
    assert abs(q_mat[0, 0] - 0.4) < 1e-12
    assert abs(q_mat[0, 3] - (-0.4)) < 1e-12
    assert abs(p_mat[4, 4] - 1.0) < 1e-12
    np.testing.assert_allclose(p_mat + q_mat, np.eye(5), atol=1e-12)


def test_initial_reduced_state_matches_seeding_rule():
    params = ChaplyginParams(m=2.0, r=1.0, omega=0.2, i1=2 / 3, i2=2 / 3, i3=1 / 3)
    q0 = np.array([1.0, 0.0])
    w0 = np.array([0.0, 0.0, 0.8])
    h = 0.2
    s = chaplygin_initial_reduced_state(params, q0, w0, h)
    np.testing.assert_allclose(s.x, q0, atol=1e-15)
    np.testing.assert_allclose(s.xi, w0, atol=1e-15)
    # Shape momentum is mass times the constraint-consistent velocity.
    np.testing.assert_allclose(s.p, params.m * np.array([0.0, 0.2]), atol=1e-15)
    # Axis spin: algebra momentum third component I3 w (1 + h^2 w^2 / 4).
    expected = params.i3 * 0.8 * (1.0 + 0.25 * h * h * 0.64)
    assert abs(s.p_alg[2] - expected) < 1e-14
    np.testing.assert_allclose(s.lam, np.zeros(2), atol=1e-15)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_zero_velocities_constant():
    seed = exp_so3(np.array([0.3, -0.1, 0.2]))
    rots = reconstruct(seed, [np.zeros(3)] * 5, 0.1)
    assert len(rots) == 6
    for rot in rots:
        np.testing.assert_allclose(rot, seed, atol=1e-15)


def test_reconstruct_single_step_hand_value():
    h = 0.25
    rots = reconstruct(np.eye(3), [np.array([2.0 / h, 0.0, 0.0])], h)
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(rots[1], expected, atol=1e-14)


def test_reconstruct_exp_retraction_single_step():
    h = 0.5
    xi = np.array([0.4, -0.3, 0.9])
    rots = reconstruct(np.eye(3), [xi], h, retraction="exp")
    np.testing.assert_allclose(rots[1], exp_so3(h * xi), atol=1e-14)


def test_reconstruct_orthogonality_drift_bounded():
    rng = np.random.default_rng(17)
    xis = rng.normal(size=(10_000, 3))
    rots = reconstruct(np.eye(3), xis, 0.01)
    final = rots[-1]
    assert np.max(np.abs(final.T @ final - np.eye(3))) <= 1e-9
