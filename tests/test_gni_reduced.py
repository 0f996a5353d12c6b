"""Tests for the reduced steppers and the rolling-sphere specialization."""
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest

from gni.gni_flat import prepare_state, rattle_step
from gni import gni_reduced
from gni.analysis import StepFailed, run, slope_fit
from gni.gni_reduced import (
    ChaplyginParams,
    _stage3_solver,
    chaplygin_init,
    chaplygin_initial_reduced_state,
    chaplygin_reduced_system,
    chaplygin_scheme_residual,
    chaplygin_step_stats,
    reconstruct,
    reduced_rattle_step,
    reduced_scheme_residual,
)
from retracted_lagrangian import reduced_legendre, standard_retracted_lagrangian
import reduced_oracle
import sphere_oracle
from sphere_oracle import _solve_sphere
from gni.lie_so3 import cay, dcay_inv, dexp_inv, exp_so3
from gni.model import ReducedState, ReducedSystem, FlatSystem
from gni.numerics import (
    NewtonConfig,
    NoConvergence,
    SingularMatrix,
    _inf_norm,
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


def _stage3_system(retraction: str, schur, b, alg1, h: float):
    """Residual and analytic Jacobian of stage 3 as closures on plain floats,
    the oracle of :func:`gni.gni_reduced._stage3_solver` (its docstring has
    the formulas).  ``schur`` is three rows of three floats, ``b`` and
    ``alg1`` three floats each; both closures take ``xi`` as one sequence of
    three floats, and the Jacobian comes as three rows."""
    coeffs = gni_reduced._TANGENT_COEFFS[retraction]
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = schur
    b0, b1, b2 = b
    g0, g1, g2 = alg1

    def residual(x):
        x0, x1, x2 = x
        v0 = b0 + s00 * x0 + s01 * x1 + s02 * x2
        v1 = b1 + s10 * x0 + s11 * x1 + s12 * x2
        v2 = b2 + s20 * x0 + s21 * x1 + s22 * x2
        o0, o1, o2 = h * x0, h * x1, h * x2
        t = o0 * o0 + o1 * o1 + o2 * o2
        a, c, _, _ = coeffs(t)
        d = a - c * t
        cw = c * (o0 * v0 + o1 * v1 + o2 * v2)
        return (
            d * v0 + 0.5 * (o1 * v2 - o2 * v1) + cw * o0 - g0,
            d * v1 + 0.5 * (o2 * v0 - o0 * v2) + cw * o1 - g1,
            d * v2 + 0.5 * (o0 * v1 - o1 * v0) + cw * o2 - g2,
        )

    def jacobian(x):
        x0, x1, x2 = x
        v0 = b0 + s00 * x0 + s01 * x1 + s02 * x2
        v1 = b1 + s10 * x0 + s11 * x1 + s12 * x2
        v2 = b2 + s20 * x0 + s21 * x1 + s22 * x2
        o0, o1, o2 = h * x0, h * x1, h * x2
        t = o0 * o0 + o1 * o1 + o2 * o2
        a, c, da, dc = coeffs(t)
        d = a - c * t
        sv = o0 * v0 + o1 * v1 + o2 * v2
        co0, co1, co2 = c * o0, c * o1, c * o2
        t00, t11, t22 = d + co0 * o0, d + co1 * o1, d + co2 * o2
        t01, t10 = co0 * o1 - 0.5 * o2, co0 * o1 + 0.5 * o2
        t02, t20 = co0 * o2 + 0.5 * o1, co0 * o2 - 0.5 * o1
        t12, t21 = co1 * o2 - 0.5 * o0, co1 * o2 + 0.5 * o0
        k = 2.0 * (da - dc * t - c)
        q = 2.0 * dc * sv
        p0, p1, p2 = h * (k * v0 + q * o0), h * (k * v1 + q * o1), h * (k * v2 + q * o2)
        r0, r1, r2 = h * co0, h * co1, h * co2
        diag = h * c * sv
        hv0, hv1, hv2 = 0.5 * h * v0, 0.5 * h * v1, 0.5 * h * v2
        return (
            (
                t00 * s00 + t01 * s10 + t02 * s20 + p0 * o0 + r0 * v0 + diag,
                t00 * s01 + t01 * s11 + t02 * s21 + p0 * o1 + r0 * v1 + hv2,
                t00 * s02 + t01 * s12 + t02 * s22 + p0 * o2 + r0 * v2 - hv1,
            ),
            (
                t10 * s00 + t11 * s10 + t12 * s20 + p1 * o0 + r1 * v0 - hv2,
                t10 * s01 + t11 * s11 + t12 * s21 + p1 * o1 + r1 * v1 + diag,
                t10 * s02 + t11 * s12 + t12 * s22 + p1 * o2 + r1 * v2 + hv0,
            ),
            (
                t20 * s00 + t21 * s10 + t22 * s20 + p2 * o0 + r2 * v0 + hv1,
                t20 * s01 + t21 * s11 + t22 * s21 + p2 * o1 + r2 * v1 - hv0,
                t20 * s02 + t21 * s12 + t22 * s22 + p2 * o2 + r2 * v2 + diag,
            ),
        )

    return residual, jacobian


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_tangent_transpose_matches_matrix_form(retraction):
    # With S = 0 and h = 1 the residual is T(sigma)^T b - alg1.
    rng = np.random.default_rng(13)
    for _ in range(200):
        sigma = _random_sigma(rng)
        v = rng.normal(size=3)
        residual, _ = _stage3_system(retraction, np.zeros((3, 3)), v, np.zeros(3), 1.0)
        got = np.array(residual(sigma.tolist()))
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
        jac = np.array(jacobian(xi.tolist()))
        fd = np.empty((3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            fd[:, j] = (
                np.array(residual((xi + step).tolist())) - np.array(residual((xi - step).tolist()))
            ) / (2.0 * eps)
        np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-8)


def _same_floats(a, b) -> bool:
    """Bit-for-bit equality of two float sequences, any NaN equal to any NaN."""
    return len(a) == len(b) and all(
        np.float64(x).tobytes() == np.float64(y).tobytes() or (x != x and y != y)
        for x, y in zip(a, b)
    )


def _outcome(solve):
    """What ``solve()`` gives: its floats, or the error and its arguments."""
    try:
        return "returned", solve()
    except NoConvergence as exc:
        return "NoConvergence", (exc.iterations, exc.final_residual)
    except SingularMatrix as exc:
        return "SingularMatrix", str(exc)


def _check_stage3_solver(retraction, schur, b, alg1, xi, h, cfg):
    """Assert that the stage-3 solver and newton_solve_stats on the oracle
    give the same iterates, iteration counts and errors, bit for bit, and
    evaluate the residual at the same points (seen through ``t = |h xi|^2``,
    which each of the solver's residual evaluations hands the coefficients).

    Returns the solver's outcome and, for each Newton iteration of
    newton_solve_stats, the number of trial points it evaluated and whether the last
    one failed to lower the residual norm (the fallback step)."""
    residual, jacobian = _stage3_system(retraction, schur, b, alg1, h)
    norms, newton_ts, solver_ts = [], [], []

    def traced_residual(x):
        f = residual(x)
        o0, o1, o2 = h * x[0], h * x[1], h * x[2]
        newton_ts.append(o0 * o0 + o1 * o1 + o2 * o2)
        norms.append(_inf_norm(f))
        return f

    def traced_jacobian(x):
        norms.append(None)
        return jacobian(x)

    def newton():
        x, iters = newton_solve_stats(traced_residual, xi, cfg, jacobian=traced_jacobian)
        return (*x, iters)

    def traced_coeffs(t, coeffs=gni_reduced._TANGENT_COEFFS[retraction]):
        solver_ts.append(t)
        return coeffs(t)

    expected = _outcome(newton)
    with mock.patch.dict(gni_reduced._TANGENT_COEFFS, {retraction: traced_coeffs}):
        solve = _stage3_solver(retraction, schur, h, cfg)
    got = _outcome(lambda: solve(*b, *alg1, *xi))
    assert _same_floats(solver_ts, newton_ts)
    assert got[0] == expected[0]
    if got[0] == "SingularMatrix":
        assert got[1] == expected[1]
    else:
        assert _same_floats(got[1], expected[1]), (got, expected)
        assert type(got[1][-1] if got[0] == "returned" else got[1][0]) is int
    trials, last = [], norms[0]
    for start in [k for k, norm in enumerate(norms) if norm is None]:
        evaluated = list(itertools.takewhile(lambda n: n is not None, norms[start + 1 :]))
        if evaluated:
            trials.append((len(evaluated), not evaluated[-1] < last))
            last = evaluated[-1]
    return got, trials


def _random_stage3_case(rng, h_range=(0.01, 0.5), scale=1.0):
    a = rng.normal(size=(3, 3))
    schur = (a @ a.T + np.eye(3)).tolist()
    b, alg1, xi = (scale * rng.normal(size=(3, 3))).tolist()
    return schur, b, alg1, xi, float(rng.uniform(*h_range))


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_is_newton_solve_stats_on_random_systems(retraction):
    rng = np.random.default_rng(41)
    # A budget at or below zero stops before the first Newton system.
    for cfg in (NewtonConfig(), NewtonConfig(max_iters=1), NewtonConfig(max_iters=0),
                NewtonConfig(max_iters=-1), NewtonConfig(residual_tol=1e-6)):
        kinds = set()
        for _ in range(40):
            got, _ = _check_stage3_solver(retraction, *_random_stage3_case(rng), cfg)
            kinds.add(got[0])
        assert ("NoConvergence" if cfg.max_iters <= 1 else "returned") in kinds


# Schur blocks whose magnitudes tie where the first Newton system (at xi = 0
# with b = 0 that system is S itself) picks its pivots, with an alg1 whose
# iterates tell the two choices apart: column 0 between rows 0 and 1, rows
# 1 and 2 after row 1 beat row 0, rows 0 and 2, and column 1 after the
# elimination of column 0.
_PIVOT_TIES = [
    ([[-0.83, -0.53, 0.6], [-0.83, -0.81, -0.13], [-0.04, -0.68, 0.47]], [-3.9, -1.1, 0.2]),
    ([[0.1, 0.7, 0.11], [0.3, 0.5, 0.13], [-0.3, 0.17, 0.9]], [3.7, -2.1, 5.3]),
    ([[0.3, 0.7, 0.11], [0.2, 0.5, 0.13], [-0.3, 0.17, 0.9]], [3.7, -2.1, 5.3]),
    ([[-0.22, -0.24, 0.82], [0.0, -0.3, -0.3], [0.0, -0.3, 0.09]], [4.2, 0.6, 2.4]),
]


@pytest.mark.parametrize("schur, alg1", _PIVOT_TIES)
@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_breaks_pivot_ties_as_newton_solve_stats(retraction, schur, alg1):
    # Ties keep the first row, as lu_solve's do.
    got, _ = _check_stage3_solver(retraction, schur, [0.0] * 3, alg1, [0.0] * 3, 0.1,
                                  NewtonConfig(residual_tol=1.0))
    assert got[0] == "returned"


@pytest.mark.parametrize(
    "diagonal", [(1.0, 1.0, 1e-14), (1.0, 1e-14, 1.0), (1e-13, 1.0, 100.0), (1.0, 0.0, 1.0)]
)
@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_pivot_test_is_newton_solve_stats(retraction, diagonal):
    # At xi = 0 with b = 0 the first Newton system is S.  Each pivot is
    # tested against its own column of S: a diagonal entry 1e-14 of the
    # largest is regular, and only a vanishing column is singular.
    got, trials = _check_stage3_solver(retraction, np.diag(diagonal).tolist(), [0.0] * 3,
                                       [0.5, 0.1, 0.2], [0.0] * 3, 0.1, NewtonConfig())
    if 0.0 in diagonal:
        assert got[0] == "SingularMatrix" and "at column 1" in got[1] and trials == []
    else:
        assert trials  # the first system was solved and its step tried


@pytest.mark.parametrize(
    "schur",
    [
        [[1e-15, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],  # row 1 beats row 0
        [[1e-15, 1.0, 0.0], [0.5, 0.0, 1.0], [1.0, 0.0, 0.0]],  # row 2 beats row 1
        [[1e-15, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],  # row 2 beats row 0 alone
    ],
)
@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_tests_the_column_0_pivot_it_chose(retraction, schur):
    # At xi = 0 with b = 0 the Newton system is S: its entry (0, 0) is below
    # 1e-14 max|S|, but the row swapped in for it is not.
    got, _ = _check_stage3_solver(retraction, schur, [0.0] * 3, [0.5, 0.1, 0.2], [0.0] * 3, 0.1,
                                  NewtonConfig())
    assert got[0] == "returned"


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_accepts_a_converged_predictor(retraction):
    # alg1 is the residual's own T^T v at xi, so xi solves stage 3 exactly.
    rng = np.random.default_rng(43)
    for _ in range(10):
        schur, b, _, xi, h = _random_stage3_case(rng)
        alg1 = _stage3_system(retraction, schur, b, [0.0, 0.0, 0.0], h)[0](xi)
        got, trials = _check_stage3_solver(retraction, schur, b, alg1, xi, h, NewtonConfig())
        assert got == ("returned", (*xi, 0)) and trials == []


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_accepts_a_norm_equal_to_the_tolerance(retraction):
    # The norm at the predictor and after one update, each read off the
    # budget error, is met as the tolerance, as newton_solve_stats meets it.
    case = _random_stage3_case(np.random.default_rng(53))
    for iterations in (0, 1):
        cfg = NewtonConfig(residual_tol=1e-300, max_iters=iterations)
        got, _ = _check_stage3_solver(retraction, *case, cfg)
        assert got[0] == "NoConvergence" and got[1][0] == iterations
        got, _ = _check_stage3_solver(retraction, *case, NewtonConfig(residual_tol=got[1][1]))
        assert got[0] == "returned" and got[1][-1] == iterations


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_halves_and_falls_back_as_newton_solve_stats(retraction):
    # Long steps and large velocities make the full Newton step overshoot.
    rng = np.random.default_rng(3)
    halved = fell_back = 0
    for _ in range(40):
        case = _random_stage3_case(rng, h_range=(0.5, 2.0), scale=5.0)
        _, trials = _check_stage3_solver(retraction, *case, NewtonConfig())
        halved += any(1 < n < 9 for n, _ in trials)
        fell_back += any(n == 9 and up for n, up in trials)
    assert halved and fell_back
    # Below rounding level no trial lowers the norm: every later iteration
    # takes all eight halvings and the fallback step, until the budget ends.
    cfg = NewtonConfig(residual_tol=1e-300, max_iters=8)
    got, trials = _check_stage3_solver(retraction, *_random_stage3_case(rng), cfg)
    assert got[0] == "NoConvergence" and got[1][0] == 8
    assert trials[-1] == (9, True)


@pytest.mark.parametrize("retraction", ["cay", "exp"])
@pytest.mark.parametrize(
    "alg1", [(np.inf, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.nan), (np.nan, 0.0, 0.0)]
)
def test_stage3_solver_stops_at_a_non_finite_start(retraction, alg1):
    rng = np.random.default_rng(47)
    schur, b, _, xi, h = _random_stage3_case(rng)
    got, trials = _check_stage3_solver(retraction, schur, b, list(alg1), xi, h, NewtonConfig())
    assert got[0] == "NoConvergence" and got[1][0] == 0 and trials == []
    assert np.isnan(got[1][1]) == np.isnan(alg1).any()


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_stops_after_a_step_to_a_non_finite_residual(retraction):
    # A residual near 1e300 at the start sends the first step to an xi whose
    # |h xi|^2 overflows; all eight halvings stay there and the fallback is
    # taken, so the next iteration stops at once.
    rng = np.random.default_rng(5)
    schur, b = np.eye(3).tolist(), rng.normal(size=3).tolist()
    alg1 = (1e300 * rng.normal(size=3)).tolist()
    got, trials = _check_stage3_solver(retraction, schur, b, alg1, [0.0] * 3, 0.1, NewtonConfig())
    assert got[0] == "NoConvergence" and got[1][0] == 1 and np.isnan(got[1][1])
    assert trials == [(9, True)]


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stage3_solver_raises_the_singular_matrix_of_newton_solve_stats(retraction):
    # With S = 0 at xi = 0 the Jacobian is -h hat(b) / 2, of rank 2.
    got, _ = _check_stage3_solver(
        retraction, [[0.0] * 3] * 3, [1.0, 2.0, 3.0], [0.5, 0.1, 0.2], [0.0] * 3, 0.1,
        NewtonConfig(),
    )
    assert got[0] == "SingularMatrix"


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
        lam1 = (2.0 / h) * np.array(lu_solve((w_mat @ rows1.T).tolist(), (w_mat @ base).tolist()))
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

    xi1, iters = newton_solve_stats(
        lambda z: residual(np.array(z)).tolist(),
        s.xi.tolist(),
        jacobian=lambda z: fd_jacobian(np.array(z)).tolist(),
    )
    return ReducedState(x1, p1, np.array(xi1), alg1, lam1, newton_iters=iters)


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


# Final (x, p, xi, p_alg, lam) after 200 steps of the shipped reduced
# sphere at h = 0.05, with every product in the order of gni.numerics, the
# same on every BLAS kernel.
_PINNED_200_STEPS = {
    "cay": (
        "-0x1.2c52fa7eda19dp-2", "0x1.f0954e2243540p+1", "-0x1.9683911920958p-1",
        "0x1.1762518b250dcp+0", "-0x1.b1ecc816988dep-2", "0x1.0573a09a620e6p-1",
        "0x1.dfaee9ecaefdfp-2", "-0x1.b182ad8169e5ep-2", "0x1.2039686c6cf92p-1",
        "0x1.1fa471e3c683bp-1", "0x1.6e3c579239f58p-6", "0x1.2abd04d017670p-5",
    ),
    "exp": (
        "-0x1.2c6c7c5f80ddap-2", "0x1.f0961f023426fp+1", "-0x1.96904c753d634p-1",
        "0x1.17644ac62e914p+0", "-0x1.b22589aab08f3p-2", "0x1.058bba5a98ed4p-1",
        "0x1.dfe9811ab4f6cp-2", "-0x1.b18a42aad8e86p-2", "0x1.20359397dacacp-1",
        "0x1.1faabd81cd36dp-1", "0x1.6ed4a262195e7p-6", "0x1.2a8cf3614e590p-5",
    ),
}


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_reduced_steps_keep_their_pinned_bits(retraction):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    rsys = chaplygin_reduced_system(params)
    h = 0.05
    s = chaplygin_initial_reduced_state(
        params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), h
    )
    cfg = NewtonConfig()
    iters = 0
    for _ in range(200):
        s = reduced_rattle_step(rsys, s, h, retraction=retraction, cfg=cfg)
        iters += s.newton_iters
    got = [*s.x, *s.p, *s.xi, *s.p_alg, *s.lam]
    assert [float(v).hex() for v in got] == list(_PINNED_200_STEPS[retraction])
    assert iters == 400


def _shipped_reduced_sphere():
    # configs/sphere_reduced.cfg at h = 0.05.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    h = 0.05
    s0 = chaplygin_initial_reduced_state(
        params, np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), h
    )
    return chaplygin_reduced_system(params), s0, h


def _row(s):
    return [*s.x, *s.p, *s.xi, *s.p_alg, *s.lam]


def _reduced_window_run(rsys, h, retraction, row0, windows, cfg=None):
    """Rows, stage-3 iteration counts and failure of the reduced window
    kernel stepped from ``row0`` over consecutive windows of the given
    sizes, stopping at the first failure.  Rows not written hold a NaN
    sentinel."""
    rows = np.full((sum(windows) + 1, 12), np.nan)
    counts = np.full(sum(windows) + 1, -7)
    rows[0] = row0
    window = gni_reduced.reduced_kernel(rsys, h, retraction, cfg)
    flat, j0, failed = memoryview(rows.reshape(-1)), 1, None
    for size in windows:
        failed = window(flat, memoryview(counts), j0, j0 + size)
        if failed is not None:
            break
        j0 += size
    return rows, counts, failed


def _reduced_oracle_run(rsys, h, retraction, row0, n_steps, cfg=None):
    """:func:`_reduced_window_run` with the per-step oracle, stepped as the
    runner stepped it, one step at a time."""
    rows = np.full((n_steps + 1, 12), np.nan)
    counts = np.full(n_steps + 1, -7)
    rows[0] = row0
    step = reduced_oracle.reduced_kernel(rsys, h, retraction, cfg)
    flat = memoryview(rows.reshape(-1))
    for j in range(1, n_steps + 1):
        i = 12 * j
        try:
            (
                flat[i], flat[i + 1], flat[i + 2], flat[i + 3], flat[i + 4], flat[i + 5],
                flat[i + 6], flat[i + 7], flat[i + 8], flat[i + 9], flat[i + 10], flat[i + 11],
                counts[j],
            ) = step(*flat[i - 12 : i])
        except (NoConvergence, SingularMatrix) as exc:
            return rows, counts, (j, exc)
    return rows, counts, None


def _assert_reduced_window_is_oracle(rsys, h, retraction, row0, windows, cfg=None):
    """The reduced window kernel against the oracle, bit for bit: rows,
    counts, and the failing step with its exception's type and message
    (and a ``NoConvergence``'s ``iterations`` and ``final_residual``).
    Returns the oracle's failure."""
    got_rows, got_counts, got = _reduced_window_run(rsys, h, retraction, row0, windows, cfg)
    rows, counts, want = _reduced_oracle_run(rsys, h, retraction, row0, sum(windows), cfg)
    np.testing.assert_array_equal(got_rows.view(np.uint64), rows.view(np.uint64))
    np.testing.assert_array_equal(got_counts, counts)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0]
        assert type(got[1]) is type(want[1])
        assert str(got[1]) == str(want[1])
        if isinstance(want[1], NoConvergence):
            assert got[1].iterations == want[1].iterations
            assert _bits([got[1].final_residual])[0] == _bits([want[1].final_residual])[0]
    return want


@pytest.mark.parametrize("retraction, steps", [("cay", 3000), ("exp", 2500)])
def test_kernel_agrees_with_reduced_rattle_step(retraction, steps):
    # The same algebra up to rounding: the states stay within 1e-9 of the
    # array step and every step takes the same Newton iterations.
    rsys, s, h = _shipped_reduced_sphere()
    cfg = NewtonConfig()
    rows, counts, failed = _reduced_window_run(rsys, h, retraction, _row(s), [steps], cfg)
    assert failed is None
    worst = 0.0
    for row, iters in zip(rows[1:], counts[1:]):
        s = reduced_rattle_step(rsys, s, h, retraction=retraction, cfg=cfg)
        assert iters == s.newton_iters
        worst = max(worst, np.max(np.abs(row - _row(s))))
    assert worst <= 1e-9


def test_kernel_covers_only_declared_potential_free_systems():
    rsys, _, h = _shipped_reduced_sphere()
    assert gni_reduced.reduced_kernel(rsys, h) is not None
    no_plate = chaplygin_reduced_system(ChaplyginParams(1.0, 1.0, 0.0, 1.0, 1.0, 1.0))
    assert gni_reduced.reduced_kernel(no_plate, h) is not None
    rows = rsys.annihilator
    callable_rows = ReducedSystem(
        2, 3, rsys.bundle_metric, annihilator=lambda x: rows, num_constraints=2
    )
    with_potential = ReducedSystem(
        2, 3, rsys.bundle_metric, annihilator=rows, num_constraints=2,
        potential=lambda x: 0.5 * x @ x, grad_potential=lambda x: x,
    )
    for other in (callable_rows, with_potential, _coupled_system()):
        assert gni_reduced.reduced_kernel(other, h) is None
    with pytest.raises(ValueError, match="unknown retraction"):
        gni_reduced.reduced_kernel(rsys, h, "polar")


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_stacked_reduced_scheme_residual_matches_one_row_calls(retraction):
    rsys, s, h = _shipped_reduced_sphere()
    rows, _, failed = _reduced_window_run(rsys, h, retraction, _row(s), [200])
    assert failed is None
    stacked = reduced_scheme_residual(rsys, rows[:-1], rows[1:], h, retraction)
    one_by_one = [
        reduced_scheme_residual(rsys, a, b, h, retraction) for a, b in zip(rows[:-1], rows[1:])
    ]
    assert stacked.shape == (200, 2)
    assert np.array_equal(stacked, one_by_one)
    # A state object gives its values row's bits; the residual is the one
    # the step enforces.
    states = [ReducedState(r[:2], r[2:4], r[4:7], r[7:10], r[10:]) for r in rows[:3]]
    assert np.array_equal(
        reduced_scheme_residual(rsys, states[1], states[2], h, retraction), stacked[1]
    )
    assert np.max(np.abs(stacked)) <= 1e-10
    # The same system given by callables takes one row at a time.
    callables = ReducedSystem(
        2, 3, rsys.bundle_metric, annihilator=lambda x: rsys.annihilator, num_constraints=2,
        affine_section=lambda x: rsys.affine_section @ x,
    )
    np.testing.assert_allclose(
        reduced_scheme_residual(callables, rows[1], rows[2], h, retraction),
        stacked[1], rtol=0.0, atol=1e-15,
    )
    with pytest.raises(ValueError, match="stacked rows"):
        reduced_scheme_residual(callables, rows[:-1], rows[1:], h, retraction)


@pytest.mark.parametrize("retraction, steps", [("cay", 3000), ("exp", 2500)])
def test_reduced_window_is_the_oracle_on_the_shipped_sphere(retraction, steps):
    rsys, s, h = _shipped_reduced_sphere()
    for windows in ([steps], [1, 1, 997, steps - 999]):
        assert _assert_reduced_window_is_oracle(rsys, h, retraction, _row(s), windows) is None


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_reduced_window_is_the_oracle_under_arbitrary_window_cuts(retraction):
    rsys, s, h = _shipped_reduced_sphere()
    rng = np.random.default_rng(41)
    for _ in range(6):
        # Cuts anywhere in 300 steps, empty windows included.
        cuts = np.sort(rng.integers(0, 301, size=int(rng.integers(1, 8))))
        windows = np.diff(np.concatenate([[0], cuts, [300]])).tolist()
        assert _assert_reduced_window_is_oracle(rsys, h, retraction, _row(s), windows) is None


@pytest.mark.parametrize("retraction", ["cay", "exp"])
@pytest.mark.parametrize("windows", [[1], [2], [9], [4, 5]])
def test_reduced_window_is_the_oracle_on_random_states(retraction, windows):
    rng = np.random.default_rng(len(windows) * 10 + sum(windows))
    outcomes = set()
    for h in (0.15, 0.05, 0.01, 3.9e-5):
        for omega in (float(rng.normal()), 0.0):
            inertia = rng.uniform(0.5, 2.0, size=3)
            params = ChaplyginParams(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 2.0)),
                                     omega, *map(float, inertia))
            rsys = chaplygin_reduced_system(params)
            s = chaplygin_initial_reduced_state(params, rng.uniform(-1.0, 1.0, size=2),
                                                rng.normal(size=3), h)
            # The seeded state, and the same with a carried multiplier.
            for lam in (s.lam, rng.normal(size=2)):
                row0 = [*s.x, *s.p, *s.xi, *s.p_alg, *lam]
                for cfg in _KERNEL_CFGS:
                    failure = _assert_reduced_window_is_oracle(rsys, h, retraction, row0, windows, cfg)
                    outcomes.add(None if failure is None else failure[1].iterations)
    assert None in outcomes and {-1, 0, 1} <= outcomes


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_reduced_window_is_the_oracle_across_a_full_window(retraction):
    # 4,097 steps: a window of 4,096 (the runner's) and one more.
    rsys, s, h = _shipped_reduced_sphere()
    assert _assert_reduced_window_is_oracle(rsys, h, retraction, _row(s), [4096, 1]) is None
    stepper = gni_reduced.ReducedStepper(retraction)
    full = run(stepper, rsys, s, h, 4097)
    bare = run(stepper, rsys, s, h, 4097, residual=False)
    rows, counts, _ = _reduced_oracle_run(rsys, h, retraction, _row(s), 4097)
    assert np.array_equal(full.states.view(np.uint64), rows.view(np.uint64))
    assert np.array_equal(full.newton_iters[1:], counts[1:])
    assert np.array_equal(bare.states.view(np.uint64), rows[-2:].view(np.uint64))
    assert np.array_equal(bare.newton_iters, full.newton_iters[-2:])


def _fail_stage3_at(monkeypatch, failing_step, kind):
    """Patch the stage-3 solve of the kernel and the oracle so that its
    ``failing_step``-th call in each run raises a real solver error of
    ``kind``: the budget of ``max_iters = 0`` spent, a NaN residual, or
    the singular Newton system of ``S = 0`` at ``xi = 0``."""
    build = gni_reduced._stage3_solver

    def build_failing(retraction, schur, h, cfg=None):
        solve = build(retraction, schur, h, cfg)
        calls = [0]

        def solve_or_fail(b0, b1, b2, g0, g1, g2, x0, x1, x2):
            calls[0] += 1
            if calls[0] != failing_step:
                return solve(b0, b1, b2, g0, g1, g2, x0, x1, x2)
            if kind == "budget":
                return build(retraction, schur, h, NewtonConfig(max_iters=0))(
                    b0, b1, b2, g0, g1, g2, x0, x1, x2)
            if kind == "non-finite":
                return solve(b0, b1, b2, float("nan"), g1, g2, x0, x1, x2)
            return build(retraction, [[0.0] * 3] * 3, h, cfg)(1.0, 2.0, 3.0, 0.5, 0.1, 0.2,
                                                             0.0, 0.0, 0.0)

        return solve_or_fail

    monkeypatch.setattr(gni_reduced, "_stage3_solver", build_failing)
    monkeypatch.setattr(reduced_oracle, "_stage3_solver", build_failing)


@pytest.mark.parametrize("kind, error", [("budget", NoConvergence), ("non-finite", NoConvergence),
                                         ("singular", SingularMatrix)])
@pytest.mark.parametrize("failing_step", [1, 2, 9, 4097])
def test_reduced_window_fails_as_the_oracle(monkeypatch, failing_step, kind, error):
    rsys, s, h = _shipped_reduced_sphere()
    stepper = gni_reduced.ReducedStepper("cay")
    n_steps = failing_step + 3
    full = run(stepper, rsys, s, h, n_steps)
    _fail_stage3_at(monkeypatch, failing_step, kind)
    windows = [4096, n_steps - 4096] if n_steps > 4096 else [n_steps]  # as run() cuts them
    want = _assert_reduced_window_is_oracle(rsys, h, "cay", _row(s), windows)
    assert want[0] == failing_step and type(want[1]) is error
    if kind == "non-finite":
        assert want[1].final_residual != want[1].final_residual
    with pytest.raises(StepFailed) as excinfo:
        run(stepper, rsys, s, h, n_steps)
    err = excinfo.value
    assert err.step == failing_step
    assert type(err.cause) is error and str(err.cause) == str(want[1])
    head = full.head(failing_step)
    for name in ("times", "states", "energies", "residuals", "newton_iters"):
        assert np.array_equal(getattr(err.partial, name), getattr(head, name)), name


def test_reduced_step_stage3_no_convergence():
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    rsys = chaplygin_reduced_system(params)
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


def _kernel_run(params, h, start, windows, cfg=None):
    """Rows, Newton counts and failure of the window kernel stepped from
    ``start = (q_prev, w_prev, q_curr)`` over consecutive windows of the
    given sizes, stopping at the first failure.  Rows not written hold
    a NaN sentinel."""
    rows = np.full((sum(windows) + 2, 5), np.nan)
    counts = np.full(sum(windows) + 1, -7)
    (rows[0, :2], rows[0, 2:], rows[1, :2]) = start
    window = gni_reduced._chaplygin_stepper(params, h, cfg)
    flat, j0, failed = memoryview(rows.reshape(-1)), 1, None
    for size in windows:
        failed = window(flat, memoryview(counts), j0, j0 + size)
        if failed is not None:
            break
        j0 += size
    return rows, counts, failed


def _oracle_run(params, h, start, n_steps, cfg=None):
    """:func:`_kernel_run` with the per-step oracle, stepped as the runner
    stepped it one step at a time."""
    rows = np.full((n_steps + 2, 5), np.nan)
    counts = np.full(n_steps + 1, -7)
    (rows[0, :2], rows[0, 2:], rows[1, :2]) = start
    step = sphere_oracle._chaplygin_stepper(params, h, cfg)
    flat = memoryview(rows.reshape(-1))
    for j in range(1, n_steps + 1):
        i = 5 * j
        try:
            (flat[i + 5], flat[i + 6], flat[i + 2], flat[i + 3], flat[i + 4], counts[j]) = step(
                flat[i - 5], flat[i - 4], flat[i], flat[i + 1], flat[i - 3], flat[i - 2], flat[i - 1]
            )
        except NoConvergence as exc:
            return rows, counts, (j, exc)
    return rows, counts, None


def _assert_kernel_is_oracle(params, h, start, windows, cfg=None):
    """The window kernel against the oracle, bit for bit: rows, Newton
    counts, and the failing step with its exception, ``iterations`` and
    ``final_residual``.  Returns the oracle's failure."""
    got_rows, got_counts, got = _kernel_run(params, h, start, windows, cfg)
    rows, counts, want = _oracle_run(params, h, start, sum(windows), cfg)
    np.testing.assert_array_equal(got_rows.view(np.uint64), rows.view(np.uint64))
    np.testing.assert_array_equal(got_counts, counts)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0]
        assert type(got[1]) is type(want[1])
        assert got[1].iterations == want[1].iterations
        assert _bits([got[1].final_residual])[0] == _bits([want[1].final_residual])[0]
    return want


# Every Newton configuration of the conformance tests: a budget that
# cannot iterate, one iteration, the default, and a tolerance no step meets,
# where late iterations take all eight halvings and the fallback step.
_KERNEL_CFGS = [
    NewtonConfig(residual_tol=tol, max_iters=its)
    for its in (-1, 0, 1, 50)
    for tol in (1e-12, 1e-300)
]


# Steps of the random-state conformance test; they pivot columns 0 and 1
# of the criterion-06 sphere's Newton system each way
# (test_random_state_steps_take_every_column_pivot).
_RANDOM_STATE_STEPS = [0.15, 0.01, 3.9e-5, 0.09]


@pytest.mark.parametrize("windows", [[1], [2], [4097], [4096, 1]])
@pytest.mark.parametrize("h", _RANDOM_STATE_STEPS)
def test_window_kernel_is_the_oracle_on_random_states(h, windows):
    rng = np.random.default_rng(int(h * 1e6) + len(windows))
    cases = [(ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2),
              (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])))]
    for _ in range(2):
        inertia = rng.uniform(0.5, 2.0, size=3)
        cases.append((ChaplyginParams(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 2.0)),
                                      float(rng.normal()), *map(float, inertia)),
                      (rng.uniform(-1.0, 1.0, size=2), rng.normal(size=3))))
    outcomes = set()
    for params, (q0, w0) in cases:
        # A consistent start and one whose predictor is off by about h.
        q1 = chaplygin_init(params, q0, w0, h)
        for start in ((q0, w0, q1), (q0, w0, q1 + h * rng.normal(size=2))):
            for cfg in _KERNEL_CFGS:
                failure = _assert_kernel_is_oracle(params, h, start, windows, cfg)
                outcomes.add(None if failure is None else failure[1].iterations)
    assert None in outcomes and {-1, 0, 1, 50} <= outcomes


def test_window_kernel_is_the_oracle_at_rest():
    # The residual is zero at the predictor: every budget accepts it,
    # a negative one with its own count, as the per-step loop did.
    params = ChaplyginParams(m=1.0, r=1.0, omega=0.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    start = (np.zeros(2), np.zeros(3), np.zeros(2))
    for cfg in _KERNEL_CFGS:
        assert _assert_kernel_is_oracle(params, 0.1, start, [2], cfg) is None
    rows, counts, _ = _kernel_run(params, 0.1, start, [2], NewtonConfig(max_iters=-1))
    assert counts.tolist() == [-7, -1, -1]


_SPHERE = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)

# Single steps off the trajectory, each named by the path it takes:
# (params, h, (q_prev, w_prev, q_curr)).
_EDGE_CASES = {
    # one damping halving, then converged after 8 updates
    "damped": (_SPHERE, 1.0, ([-1.0, 2.0], [-15.0, -24.0, -12.0], [1.0, 0.0])),
    # 336 halvings, stalled at a rounding-level residual above 1e-12
    "stalled": (_SPHERE, 1.0, ([0.0, -2.0], [-19.0, 23.0, -27.0], [1.0, 0.0])),
    "overflowing start": (_SPHERE, 0.1, ([1.0, 1.0], [1e160, 0.0, 0.0], [1.0, 1.0])),
    "NaN start": (_SPHERE, 0.1, ([1.0, 1.0], [float("nan"), 0.0, 0.0], [1.0, 1.0])),
    "NaN start, not first": (_SPHERE, 0.1, ([1.0, 1.0], [0.0, 0.0, float("nan")], [1.0, 1.0])),
    "infinite start": (_SPHERE, 0.1, ([1.0, float("inf")], [0.0, 0.5, 0.0], [1.0, 1.0])),
    # a finite start whose Newton steps reach a non-finite trial
    "non-finite trial": (
        ChaplyginParams(m=356.68348304337246, r=0.6391091691266894, omega=0.07885063357858513,
                        i1=0.3160193528068799, i2=13.970071675214866, i3=0.0077259682689118465),
        2.7840502852255537e-05,
        ([0.6616971156536948, -1.204007676300878],
         [-1.386749406505271e+105, -3.7945720993147024e+104, 1.9020493561907128e+105],
         [-0.8124055948069913, 0.45171315272524226]),
    ),
    # an update whose y part is not finite while its w part is, so that
    # only the zero row-0 entry of column 1 makes the x part NaN; seen at
    # the end of a 2-iteration budget
    "non-finite y update": (
        ChaplyginParams(m=780.9120177050029, r=2.6151275658740383e-25, omega=-0.0,
                        i1=3.106577530223033e-29, i2=2.9005849683551435e-132,
                        i3=2.5127533757197795e-149),
        1.492871199037187e-114,
        ([-21.98349980536197, 132.54054520582426],
         [2.093817020243152e-53, -1.1338709586126272e-53, 3.6020524056054783e-54],
         [-98.55732034905786, 156.39428459665388]),
    ),
    # exact pivot ties, which keep the lower row, in the tail's columns 2
    # (rows 2 and 3, then row 4 against the larger) and 3
    "pivot tie of tail rows 2 and 3": (
        ChaplyginParams(m=1.0, r=1.0, omega=0.5, i1=1.0, i2=0.125, i3=0.125), 0.25,
        ([1.0, 2.0], [-3.0, 3.0, -2.0], [-2.0, -4.0]),
    ),
    "pivot tie with tail row 4": (
        ChaplyginParams(m=2.0, r=0.25, omega=0.5, i1=1.0, i2=0.25, i3=1.0), 2.0,
        ([-1.0, 3.0], [-3.0, -4.0, 0.0], [-1.0, -3.0]),
    ),
    "pivot tie in tail column 3": (
        ChaplyginParams(m=2.0, r=0.25, omega=-1.0, i1=1.0, i2=0.25, i3=0.25), 0.5,
        ([0.0, 3.0], [-4.0, -4.0, 0.0], [2.0, 0.0]),
    ),
    # pivots at or below 1e-300: the tail's column 2 after an update, its
    # column 3 and its last pivot at the predictor
    "singular tail column 2": (
        ChaplyginParams(m=22.822230704583998, r=3.8356313332005475e-69, omega=-0.5963012648328796,
                        i1=5.80188376169287e-160, i2=5.167424913260778e-158,
                        i3=7.594612155567717e-77),
        4.2340303998610796e-167,
        ([-2.071281115163771, 0.42861080175677996], [-0.0, 4.537342240779726e-103, 0.0],
         [-1.4824226769871822, -0.5742994819952312]),
    ),
    "singular tail column 3": (
        ChaplyginParams(m=14.420805155933943, r=1.9143266398785223e-118, omega=-0.0,
                        i1=1.5920474410704816e-09, i2=8.771277216821477e-154,
                        i3=1.6166929673383366e-37),
        2.1541048786422025e-27,
        ([-0.4333975024646634, 1.4620898949425065], [-0.0, -0.0, 3.5882983153381615e-09],
         [-0.13414897986011093, -1.7669304864354005]),
    ),
    "singular last pivot": (
        ChaplyginParams(m=0.5240308213908512, r=1.4013809583229615e-74, omega=0.0,
                        i1=2.448000203936239e-134, i2=1.3103485294563402e-72,
                        i3=1.7342052897057203e-117),
        3.3426114219336274e-28,
        ([-0.6395192784458072, -0.5526175018735073], [-0.14372372063643898, 0.0, 0.06041414620173722],
         [-0.2867827071832998, 0.83880422247886]),
    ),
    "singular last pivot after updates": (
        ChaplyginParams(m=55.404031505276684, r=0.002968409358985232, omega=2.04705856961848,
                        i1=5.6410162069006625e-148, i2=7.420613921931948e-95,
                        i3=3.7952399125299753e-57),
        2.134457366317306e-53,
        ([0.4371847360926782, -1.68132609212329], [0.0, 0.0, 4.615150581459465e-104],
         [-1.7240055186324608, 0.3249064271080364]),
    ),
    # zero factors in the tail's columns 2 (row 4) and 3, whose skipped
    # updates would flip the sign of a zero that reaches the rows
    "zero factors in the tail": (
        ChaplyginParams(m=0.005, r=0.5, omega=-2.5, i1=12.0, i2=0.25, i3=600.0), 3e-5,
        ([-0.0, 0.04], [0.0, -0.0, -0.0], [-0.0, -0.0]),
    ),
    # a zero factor of the tail's column 2 (rows 2 and 3 swapped) beside an
    # infinite entry: skipped, the next pivot is zero and singular; made,
    # its update would make that pivot NaN
    "zero factor beside a non-finite entry": (
        ChaplyginParams(m=1e-136, r=1e-146, omega=-0.5, i1=1e-112, i2=1e105, i3=1e-78), 2e-14,
        ([1e-55, -0.4], [-0.0, 0.0, 0.2], [-1e-34, 0.0]),
    ),
    # one residual alone overflows at the predictor (a cubic term of the
    # spin about one axis); the norm keeps the NaN of f1 but drops the others
    "non-finite f1 only": (
        ChaplyginParams(m=1.0, r=1e-6, omega=0.0, i1=1.0, i2=1.0, i3=1.0), 1.0,
        ([0.0, 0.0], [0.0, 1e103, 0.0], [1.0, 1.0]),
    ),
    "non-finite f2 only": (
        ChaplyginParams(m=1.0, r=1e-6, omega=0.0, i1=1.0, i2=1.0, i3=1.0), 1.0,
        ([0.0, 0.0], [1e103, 0.0, 0.0], [1.0, 1.0]),
    ),
    "non-finite f3 only": (
        ChaplyginParams(m=1.0, r=1e-6, omega=0.0, i1=1.0, i2=1.0, i3=1.0), 1.0,
        ([0.0, 0.0], [0.0, 0.0, 1e103], [1.0, 1.0]),
    ),
    "non-finite f4 only": (
        ChaplyginParams(m=1.0, r=1.0, omega=0.0, i1=1.0, i2=1e-6, i3=1.0), 1.0,
        ([0.0, 0.0], [0.0, 1.2e103, 0.0], [1.0, 1.0]),
    ),
    "non-finite f5 only": (
        ChaplyginParams(m=1.0, r=1.0, omega=0.0, i1=1e-6, i2=1.0, i3=1.0), 1.0,
        ([0.0, 0.0], [1.2e103, 0.0, 0.0], [1.0, 1.0]),
    ),
}


@pytest.mark.parametrize("name", list(_EDGE_CASES))
def test_window_kernel_is_the_oracle_on_edge_cases(name):
    params, h, start = _EDGE_CASES[name]
    start = tuple(np.array(x, dtype=float) for x in start)
    for cfg in [None, NewtonConfig(max_iters=2)] + _KERNEL_CFGS:
        for windows in ([1], [2], [1, 1]):
            _assert_kernel_is_oracle(params, h, start, windows, cfg)


def test_edge_cases_take_the_paths_they_name(monkeypatch):
    # Under the default budget, the oracle's (iterations, whether the
    # final residual is finite, Newton systems solved, whether the last
    # was singular); a converged step has no final residual.
    expected = {
        "damped": (8, None, 8, False),
        "stalled": (50, True, 50, False),
        "overflowing start": (0, False, 0, None),
        "NaN start": (0, False, 0, None),
        "NaN start, not first": (0, False, 0, None),
        "infinite start": (0, False, 0, None),
        "non-finite trial": (17, False, 17, False),
        "non-finite y update": (2, False, 2, False),
        "pivot tie of tail rows 2 and 3": (8, None, 8, False),
        "pivot tie with tail row 4": (5, None, 5, False),
        "pivot tie in tail column 3": (6, None, 6, False),
        "singular tail column 2": (1, True, 2, True),
        "singular tail column 3": (0, True, 1, True),
        "singular last pivot": (0, True, 1, True),
        "singular last pivot after updates": (3, True, 4, True),
        "zero factors in the tail": (2, None, 2, False),
        "zero factor beside a non-finite entry": (0, True, 1, True),
        "non-finite f1 only": (0, False, 0, None),
        "non-finite f2 only": (0, False, 0, None),
        "non-finite f3 only": (0, False, 0, None),
        "non-finite f4 only": (0, False, 0, None),
        "non-finite f5 only": (0, False, 0, None),
    }
    singular = []
    solve = sphere_oracle._solve_sphere

    def recording_solve(*args):
        x = solve(*args)
        singular.append(x is None)
        return x

    monkeypatch.setattr(sphere_oracle, "_solve_sphere", recording_solve)
    assert set(expected) == set(_EDGE_CASES)
    for name, (params, h, (q_prev, w_prev, q_curr)) in _EDGE_CASES.items():
        singular.clear()
        step = sphere_oracle._chaplygin_stepper(params, h)
        try:
            *_, iters = step(*q_prev, *q_curr, *w_prev)
            finite = None
        except NoConvergence as exc:
            iters, finite = exc.iterations, bool(np.isfinite(exc.final_residual))
        last = singular[-1] if singular else None
        assert (iters, finite, len(singular), last) == expected[name], name


def _oracle_updates_and_trials(params, h, start, n_steps, cfg):
    """Per step of the oracle's run, its accepted Newton updates and the
    trials its damping loop evaluated: a step with more trials than
    updates halved one.  The oracle's loops call ``range(cfg.max_iters)``
    once per step and ``range(8)`` once per update; a module-level
    ``range`` counts them."""
    trials = []

    def counting(stop):
        for k in range(stop):
            trials[-1] += 1
            yield k

    def counting_range(*args):
        if args == (cfg.max_iters,):
            trials.append(0)
        return counting(*args) if args == (8,) else range(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sphere_oracle, "range", counting_range, raising=False)
        _, counts, failed = _oracle_run(params, h, start, n_steps, cfg)
    assert failed is None and len(trials) == n_steps
    return counts[1:], np.array(trials)


def test_window_kernel_carries_the_oracles_products_across_windows():
    # A fast spin at h = 0.05 under a loose tolerance mixes steps that accept
    # their predictor, steps that iterate and steps that halve an update, so
    # the products each step carries in come from the window's entry, the
    # predictor, an accepted trial, or the trial kept after a rejected one.
    h, cfg = 0.05, NewtonConfig(residual_tol=1.0)
    q0, w0 = np.array([-1.0, 2.0]), np.array([-15.0, -24.0, -12.0])
    spin = (q0, w0, chaplygin_init(_SPHERE, q0, w0, h))
    updates, trials = _oracle_updates_and_trials(_SPHERE, h, spin, 300, cfg)
    assert (updates == 0).sum() > 100 and (updates > 0).sum() > 50
    assert (trials > updates).sum() >= 5
    for windows in ([1] * 300, [4096, 1], [26, 1, 1, 30, 2, 240]):
        assert _assert_kernel_is_oracle(_SPHERE, h, spin, windows, cfg) is None
    # One kernel stepping a second run: each window takes its products from
    # its own row j0 - 1, not from the step its last call ended on.
    criterion = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    window = gni_reduced._chaplygin_stepper(_SPHERE, h, cfg)
    for q0, w0 in ((q0, w0), criterion):
        start = (q0, w0, chaplygin_init(_SPHERE, q0, w0, h))
        rows = np.full((302, 5), np.nan)
        counts = np.full(301, -7)
        (rows[0, :2], rows[0, 2:], rows[1, :2]) = start
        for j0 in range(1, 301, 100):
            assert window(memoryview(rows.reshape(-1)), memoryview(counts), j0, j0 + 100) is None
        want_rows, want_counts, _ = _oracle_run(_SPHERE, h, start, 300, cfg)
        np.testing.assert_array_equal(rows.view(np.uint64), want_rows.view(np.uint64))
        np.testing.assert_array_equal(counts, want_counts)


def _column_pivot(params, h):
    """How the window kernel pivots columns 0 and 1 of its Newton system.
    Their constant entries, jac_mom = h/(m r) * (m r/h) in the momentum
    rows and jac_con = 2h * 1/(2h) in the constraint rows, are 1 up to
    rounding; the constraint rows pivot ("swap") only where jac_con is the
    larger."""
    jac_mom = h / (params.m * params.r) * (params.m * params.r / h)
    jac_con = 2.0 * h * (1.0 / (2.0 * h))
    return "swap" if abs(jac_con) > abs(jac_mom) else "equal" if jac_con == jac_mom else "keep"


def test_random_state_steps_take_every_column_pivot():
    assert [_column_pivot(_SPHERE, h) for h in _RANDOM_STATE_STEPS] == [
        "swap", "equal", "swap", "keep"
    ]
    h = 0.15
    assert h / (3.0 * 1.0) * (3.0 * 1.0 / h) == 0.9999999999999999
    assert 2.0 * h * (1.0 / (2.0 * h)) == 1.0


def test_stop_test_accepts_a_norm_equal_to_the_tolerance():
    # The residual norm at the predictor, and after the one update a budget
    # of one allows, each read off the budget error; as the tolerance, each
    # is met, inside the loop and at the end of the budget, as in the oracle.
    q0, w0, h = np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), 0.01
    start = (q0, w0, chaplygin_init(_SPHERE, q0, w0, h) + 1e-3)
    for iterations in (0, 1):
        failure = _assert_kernel_is_oracle(
            _SPHERE, h, start, [1], NewtonConfig(residual_tol=1e-300, max_iters=iterations)
        )
        assert failure[1].iterations == iterations
        for budget in (iterations, 50):
            cfg = NewtonConfig(residual_tol=failure[1].final_residual, max_iters=budget)
            assert _assert_kernel_is_oracle(_SPHERE, h, start, [1], cfg) is None
            assert _kernel_run(_SPHERE, h, start, [1], cfg)[1][1] == iterations


def test_params_hold_numpy_scalars_as_floats():
    # NumPy scalar fields would make each kernel step NumPy scalar
    # arithmetic, about twice as slow; the rows are the same bits.
    values = (3.0, 1.0, 0.2, 1.0, 1.1, 1.2)
    params = ChaplyginParams(*map(np.float64, values))
    assert {type(getattr(params, name)) for name in ("m", "r", "omega", "i1", "i2", "i3")} == {float}
    q0, w0, h = np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), 0.01
    start = (q0, w0, chaplygin_init(params, q0, w0, h))
    rows, counts, failed = _kernel_run(params, h, start, [500])
    want_rows, want_counts, _ = _kernel_run(ChaplyginParams(*values), h, start, [500])
    assert failed is None
    np.testing.assert_array_equal(rows.view(np.uint64), want_rows.view(np.uint64))
    np.testing.assert_array_equal(counts, want_counts)


def test_numpy_scalar_params_overflow_without_warnings():
    # With NumPy scalar fields, this step's overflow warned 18 times.
    params = ChaplyginParams(*map(np.float64, (3.0, 1.0, 0.2, 1.0, 1.1, 1.2)))
    q0 = np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            chaplygin_step_stats(params, q0, q0, np.array([1e200, 1e200, 1e200]), 0.1)


def test_stepper_matches_step_stats_bit_for_bit_over_a_long_run():
    # The per-run window kernel over 2,000 steps in windows of 4,096, 1 and
    # 4,095 rows' worth, against the array wrapper fed its own outputs, on
    # the criterion-06 sphere; the last state and the Newton work are
    # pinned to the per-call core this kernel replaced.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    h = 0.01
    q0, w0 = np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])
    qs, ws = [q0, chaplygin_init(params, q0, w0, h)], [w0]
    total_iters = 0
    rows, counts, failed = _kernel_run(params, h, (qs[0], ws[0], qs[1]), [1, 999, 1000])
    assert failed is None
    for k in range(1, 2001):
        q_next, w, iters = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], h)
        np.testing.assert_array_equal(_bits([*rows[k + 1, :2], *rows[k, 2:]]), _bits([*q_next, *w]))
        assert counts[k] == iters and type(iters) is int
        qs.append(q_next)
        ws.append(w)
        total_iters += iters
    pinned = [
        float.fromhex(x)
        for x in (
            "-0x1.2f14c5216180bp+2", "0x1.c1d0c68afdafcp+2", "-0x1.322d6bbf59173p+0",
            "0x1.7364223bb1c03p-1", "0x1.cace33bb5afdfp-1",
        )
    ]
    np.testing.assert_array_equal(_bits([*rows[2001, :2], *rows[2000, 2:]]), _bits(pinned))
    assert total_iters == 3946


def test_stepper_damped_step_and_no_convergence_exit():
    # Off-trajectory inputs: the first state needs one damping halving and
    # converges after 8 updates; the second halves 336 times and stalls at
    # a rounding-level residual above the 1e-12 tolerance.  The pinned bits
    # come from the per-call Newton core this kernel replaced.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    step = sphere_oracle._chaplygin_stepper(params, 1.0)
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


@pytest.mark.parametrize(
    "w0",
    [(1e160, 0.0, 0.0), (float("nan"), 0.0, 0.0), (0.0, 0.0, float("nan"))],
)
def test_stepper_stops_at_once_on_a_non_finite_residual(monkeypatch, w0):
    # A start whose residuals overflow, or that carries a NaN (also where
    # ``max`` would drop it), raises before the first Newton system.
    calls = []
    solve = sphere_oracle._solve_sphere

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(sphere_oracle, "_solve_sphere", counting_solve)
    params = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    h = 0.1
    q0 = np.array([1.0, 1.0])
    q1 = chaplygin_init(params, q0, np.array(w0), h)
    step = sphere_oracle._chaplygin_stepper(params, h)
    with pytest.raises(NoConvergence) as excinfo:
        step(*q0.tolist(), *q1.tolist(), *w0)
    assert excinfo.value.iterations == 0
    assert not np.isfinite(excinfo.value.final_residual)
    assert calls == []
    with pytest.raises(NoConvergence) as kernel_exc:
        chaplygin_step_stats(params, q0, q1, np.array(w0), h)
    assert kernel_exc.value.iterations == 0
    assert _bits([kernel_exc.value.final_residual])[0] == _bits([excinfo.value.final_residual])[0]


# ---------------------------------------------------------------------------
# the moving energy of the sphere on a spinning plate


def _moving_energy_variation(h, omega_sign=1.0, T=15.0):
    # chaplygin_gni on the criterion-06 sphere, read in interval form: over
    # interval k, xdot = (x_{k+1} - x_k) / h, x at the interval's midpoint
    # and xi the row's w.  E_mov = E - Omega m (x ydot - y xdot); the
    # variation is its largest minus its smallest value.
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    n = round(T / h)
    rows = run(None, params, (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])), T / n, n).states
    x, w = rows[:, :2], rows[:-1, 2:]
    xdot = (x[1:] - x[:-1]) / (T / n)
    mid = 0.5 * (x[1:] + x[:-1])
    energy = 0.5 * params.m * np.sum(xdot * xdot, axis=1) + 0.5 * np.sum(params.inertia * w * w, axis=1)
    moment = params.m * (mid[:, 0] * xdot[:, 1] - mid[:, 1] * xdot[:, 0])
    moving = energy - omega_sign * params.omega * moment
    return np.max(moving) - np.min(moving)


_MOVING_ENERGY_H = [0.1, 0.05, 0.025, 0.0125]


def test_sphere_moving_energy_varies_at_second_order():
    # The continuous E_mov is a first integral for any inertia and plate
    # rate; the scheme keeps it to O(h^2): 4.872e-3, 1.236e-3, 3.106e-4 and
    # 7.779e-5 over the grid.
    variation = [_moving_energy_variation(h) for h in _MOVING_ENERGY_H]
    slope, _ = slope_fit(_MOVING_ENERGY_H, variation)
    assert 1.8 <= slope <= 2.2
    assert abs(variation[-1] - 7.779e-5) <= 0.05 * 7.779e-5


def test_sphere_moving_energy_window_fails_with_the_plate_term_flipped():
    # E + Omega m (x ydot - y xdot) is no integral: it varies by about 1.63
    # at every h, slope -0.004.
    variation = [_moving_energy_variation(h, omega_sign=-1.0) for h in _MOVING_ENERGY_H]
    slope, _ = slope_fit(_MOVING_ENERGY_H, variation)
    assert not 1.8 <= slope <= 2.2
    assert 1.5 < variation[-1] < 1.8
