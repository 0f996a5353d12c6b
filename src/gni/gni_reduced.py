"""Reduced steppers on shape space x SO(3) body coordinates.

For systems whose configuration splits into shape coordinates ``x`` and a
rotation handled in body coordinates, the stepper advances
``(x, p, xi, p_alg, lam)`` where ``xi`` is the body angular velocity of
the step interval and ``p_alg`` the body angular momentum.  Group elements
never appear during stepping — a retraction ``tau`` (Cayley by default)
maps ``h*xi`` to the incremental rotation, and the inverse retraction
tangent moves momenta between the two endpoints of the increment
(:func:`reduced_legendre`).  The full rotation history can be recovered
afterwards with :func:`reconstruct`.

:func:`reduced_rattle_step` assumes the standard constant-metric
Lagrangian (:func:`standard_retracted_lagrangian`): all three of its
stages take that Lagrangian's derivatives in closed form from the metric
blocks of the :class:`~gni.model.ReducedSystem`.  Along the forward shape
update its algebra gradient is affine in the unknown ``xi``, and both
inverse retraction tangents have the form ``a(t) I - hat(s)/2 + c(t)
hat(s)^2`` with ``t = |s|^2``, so stage 3 is a Newton solve on plain
floats with an analytic Jacobian.

The rolling sphere on a uniformly rotating plate ships as the worked
system: :func:`chaplygin_step_stats` advances its five coupled discrete
equations (contact position and body angular velocity) with an analytic
Jacobian, and :func:`chaplygin_reduced_system` exposes the same mechanics
to the generic reduced stepper for cross-checking.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .lie_so3 import cay, dcay_inv, dexp_inv, exp_so3
from .model import ReducedState, ReducedSystem
from .numerics import (
    NewtonConfig,
    NoConvergence,
    default_newton_config,
    newton_solve3,
    solve_gram,
)

__all__ = [
    "RetractedDiscreteLagrangian",
    "ChaplyginParams",
    "standard_retracted_lagrangian",
    "reduced_legendre",
    "reduced_rattle_step",
    "reduced_scheme_residual",
    "chaplygin_step_stats",
    "chaplygin_scheme_residual",
    "chaplygin_contact_velocity",
    "chaplygin_init",
    "chaplygin_reduced_system",
    "chaplygin_initial_reduced_state",
    "reconstruct",
]

_RETRACTIONS = {
    "cay": (cay, dcay_inv),
    "exp": (exp_so3, dexp_inv),
}


# Coefficients of the inverse tangents written as a(t) I - hat(s)/2 +
# c(t) hat(s)^2 with t = |s|^2: (a, c, da/dt, dc/dt).  cay is exact
# (dcay_inv); exp is the order-4 series of dexp_inv, whose hat(s)^4 term
# is -t hat(s)^2 / 720.
_TANGENT_COEFFS = {
    "cay": lambda t: (1.0 + 0.25 * t, 0.25, 0.25, 0.0),
    "exp": lambda t: (1.0, 1.0 / 12.0 + t / 720.0, 0.0, 1.0 / 720.0),
}


def _retraction(name: str):
    try:
        return _RETRACTIONS[name]
    except KeyError:
        raise ValueError(f"unknown retraction {name!r}; choose from {sorted(_RETRACTIONS)}")


@dataclass(frozen=True)
class RetractedDiscreteLagrangian:
    """Partial derivatives of a discrete Lagrangian in retracted
    coordinates ``(x0, x1, sigma)`` with ``sigma = h*xi`` the algebra
    increment.  ``d1``/``d2`` are the shape gradients, ``d3`` the algebra
    gradient; all take ``(x0, x1, sigma, h)``."""

    d1: Callable
    d2: Callable
    d3: Callable


def standard_retracted_lagrangian(rsys: ReducedSystem) -> RetractedDiscreteLagrangian:
    """Midpoint-kinetic discretization of a constant-metric reduced system:

        l_d = |dx|^2_Gs / 2h + dx . Gc sigma / h + |sigma|^2_Ga / 2h
              - h (V(x0) + V(x1)) / 2

    differentiated in closed form."""
    n = rsys.shape_dim
    gs = rsys.bundle_metric[:n, :n]
    gc = rsys.bundle_metric[:n, n:]
    ga = rsys.bundle_metric[n:, n:]

    def d1(x0, x1, sigma, h):
        v = (x1 - x0) / h
        return -(gs @ v) - gc @ (sigma / h) - 0.5 * h * np.asarray(
            rsys.grad_potential(x0)
        )

    def d2(x0, x1, sigma, h):
        v = (x1 - x0) / h
        return gs @ v + gc @ (sigma / h) - 0.5 * h * np.asarray(rsys.grad_potential(x1))

    def d3(x0, x1, sigma, h):
        v = (x1 - x0) / h
        return gc.T @ v + ga @ (sigma / h)

    return RetractedDiscreteLagrangian(d1, d2, d3)


def reduced_legendre(
    ld: RetractedDiscreteLagrangian,
    x0: np.ndarray,
    x1: np.ndarray,
    xi: np.ndarray,
    h: float,
    retraction: str = "cay",
) -> Tuple[np.ndarray, np.ndarray]:
    """Discrete Legendre transforms of a retracted Lagrangian.

    Returns the pre- and post-momenta ``(p_minus, p_plus)`` as
    concatenated (shape, algebra) vectors: shape parts are ``-D1`` and
    ``+D2``; algebra parts apply the transpose of the inverse retraction
    tangent at ``+h*xi`` (pre) and ``-h*xi`` (post) to ``D3``.
    """
    _, dtau_inv = _retraction(retraction)
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    sigma = h * np.asarray(xi, dtype=float)
    d3 = np.asarray(ld.d3(x0, x1, sigma, h), dtype=float)
    p_minus = np.concatenate(
        [-np.asarray(ld.d1(x0, x1, sigma, h), dtype=float), dtau_inv(sigma).T @ d3]
    )
    p_plus = np.concatenate(
        [np.asarray(ld.d2(x0, x1, sigma, h), dtype=float), dtau_inv(-sigma).T @ d3]
    )
    return p_minus, p_plus


def reduced_rattle_step(
    rsys: ReducedSystem,
    s: ReducedState,
    h: float,
    retraction: str = "cay",
    cfg: Optional[NewtonConfig] = None,
) -> ReducedState:
    """One step of the staged reduced scheme.

    Stage 1 (explicit): half-kick the shape momentum with the carried
    multiplier and advance the shape point using the shape-block metric.
    Stage 2 (linear): transport the algebra momentum with the coadjoint
    action of ``tau(h*xi)``, then solve the m x m system that makes the
    averaged combined momentum satisfy the (affine) constraint at the new
    shape point; this yields the new multiplier and both momenta.
    Stage 3 (Newton, k unknowns): recover the new interval velocity
    ``xi`` from the algebra-momentum matching condition, substituting the
    forward shape update, with the current ``xi`` as predictor.

    All three stages assume the standard constant-metric Lagrangian of
    ``rsys`` (:func:`standard_retracted_lagrangian`) and take its
    derivatives in closed form from the metric blocks ``Gs``, ``Gc``,
    ``Ga`` of ``rsys``.  Along the forward update ``x2 = x1 + h Gs^{-1}
    (p_half_next - Gc xi)`` the algebra gradient ``d3`` is the affine map
    ``b + S xi`` with the Schur block ``S = Ga - Gc^T Gs^{-1} Gc`` and
    ``b = Gc^T Gs^{-1} p_half_next``, and stage 3 runs
    :func:`gni.numerics.newton_solve3` with the analytic Jacobian of
    :func:`_stage3_system`.

    Raises
    ------
    NoConvergence
        If the stage-3 Newton budget is exhausted.
    SingularMatrix
        If a stage-3 Newton system is numerically singular.
    RankDeficient
        If the constraint rows are dependent at the new shape point.
    """
    if h == 0.0:
        return s
    if rsys.algebra_dim != 3:
        raise ValueError("reduced stepping is implemented for a 3-dim algebra")
    tau, _ = _retraction(retraction)
    n = rsys.shape_dim
    gc = rsys.bundle_metric[:n, n:]
    gs_inv = rsys.shape_metric_inv

    # Stage 1: shape half-kick and drift.
    rows0 = rsys.annihilator_matrix(s.x)
    mu0 = rows0[:, :n]
    grad0 = np.asarray(rsys.grad_potential(s.x), dtype=float)
    p_half = s.p - 0.5 * h * (grad0 + mu0.T @ s.lam)
    x1 = s.x + h * (gs_inv @ (p_half - gc @ s.xi))

    # Coadjoint transport of the algebra momentum along the increment.
    rot = tau(h * s.xi)
    alg_trans = rot.T @ s.p_alg

    # Stage 2: multiplier from the averaged-momentum constraint at x1.
    rows1 = rsys.annihilator_matrix(x1)
    grad1 = np.asarray(rsys.grad_potential(x1), dtype=float)
    if rows1.shape[0]:
        mu1 = rows1[:, :n]
        eta1 = rows1[:, n:]
        w_mat = rows1 @ rsys.metric_inv
        gram = w_mat @ rows1.T
        base = np.concatenate([p_half - 0.5 * h * grad1, alg_trans])
        base = base - rsys.momentum_offset(x1)
        lam1 = (2.0 / h) * solve_gram(gram, w_mat @ base)
        p1 = p_half - 0.5 * h * (grad1 + mu1.T @ lam1)
        alg1 = alg_trans - h * (eta1.T @ lam1)
    else:
        mu1 = np.zeros((0, n))
        lam1 = np.zeros(0)
        p1 = p_half - 0.5 * h * grad1
        alg1 = alg_trans

    # Stage 3: interval velocity from the algebra-momentum match.
    p_half_next = p1 - 0.5 * h * (grad1 + mu1.T @ lam1)
    b = gc.T @ (gs_inv @ p_half_next)
    residual, jacobian = _stage3_system(retraction, rsys.algebra_schur, b, alg1, h)
    xi1, iters = newton_solve3(residual, jacobian, s.xi.tolist(), cfg)
    return ReducedState(x1, p1, np.array(xi1), alg1, lam1, newton_iters=iters)


def _stage3_system(
    retraction: str, schur: np.ndarray, b: np.ndarray, alg1: np.ndarray, h: float
):
    """Residual and analytic Jacobian of stage 3 on plain floats.

    With ``sigma = h xi``, ``t = |sigma|^2``, ``v = b + S xi`` and the
    inverse tangent ``T = a I - hat(sigma)/2 + c hat(sigma)^2`` of the
    retraction, the residual is

        T^T v - alg1 = (a - c t) v + sigma x v / 2 + c (sigma . v) sigma - alg1

    and its Jacobian ``T^T S + h d/dsigma[T^T v]``, where

        d/dsigma[T^T v] = 2 (a' - c' t - c) v sigma^T - hat(v)/2
                          + c ((sigma . v) I + sigma v^T)
                          + 2 c' (sigma . v) sigma sigma^T.

    Returns ``(residual, jacobian)``, both taking the three components of
    ``xi``; the Jacobian comes as three rows.
    """
    coeffs = _TANGENT_COEFFS[retraction]
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = schur.tolist()
    b0, b1, b2 = b.tolist()
    g0, g1, g2 = alg1.tolist()

    def residual(x0, x1, x2):
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

    def jacobian(x0, x1, x2):
        v0 = b0 + s00 * x0 + s01 * x1 + s02 * x2
        v1 = b1 + s10 * x0 + s11 * x1 + s12 * x2
        v2 = b2 + s20 * x0 + s21 * x1 + s22 * x2
        o0, o1, o2 = h * x0, h * x1, h * x2
        t = o0 * o0 + o1 * o1 + o2 * o2
        a, c, da, dc = coeffs(t)
        d = a - c * t
        sv = o0 * v0 + o1 * v1 + o2 * v2
        # T^T = d I + hat(sigma)/2 + c sigma sigma^T, entry by entry.
        co0, co1, co2 = c * o0, c * o1, c * o2
        t00, t11, t22 = d + co0 * o0, d + co1 * o1, d + co2 * o2
        t01, t10 = co0 * o1 - 0.5 * o2, co0 * o1 + 0.5 * o2
        t02, t20 = co0 * o2 + 0.5 * o1, co0 * o2 - 0.5 * o1
        t12, t21 = co1 * o2 - 0.5 * o0, co1 * o2 + 0.5 * o0
        # h d/dsigma[T^T v] = p sigma^T + r v^T + diag I - h hat(v)/2 with
        # p = h (2 (a' - c' t - c) v + 2 c' sv sigma) and r = h c sigma.
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


def reduced_scheme_residual(
    rsys: ReducedSystem,
    s_prev: ReducedState,
    s_new: ReducedState,
    h: float,
    retraction: str = "cay",
) -> np.ndarray:
    """Residual of the averaged-momentum constraint a reduced step enforces:
    annihilator(x1) G^{-1} ((p1 ⊕ avg_alg) - Pi(x1)) with avg_alg the mean
    of the transported old and the new algebra momentum."""
    rows = rsys.annihilator_matrix(s_new.x)
    if rows.shape[0] == 0:
        return np.zeros(0)
    tau, _ = _retraction(retraction)
    alg_trans = tau(h * s_prev.xi).T @ s_prev.p_alg
    avg_alg = 0.5 * (alg_trans + s_new.p_alg)
    combined = np.concatenate([s_new.p, avg_alg]) - rsys.momentum_offset(s_new.x)
    return rows @ (rsys.metric_inv @ combined)


@dataclass(frozen=True)
class ChaplyginParams:
    """Inhomogeneous sphere of radius ``r`` and mass ``m`` rolling without
    slipping on a plate spinning at constant rate ``omega`` about the
    vertical axis through the origin; ``i1, i2, i3`` are the principal
    inertias."""

    m: float
    r: float
    omega: float
    i1: float
    i2: float
    i3: float

    def __post_init__(self):
        if self.m <= 0.0 or self.r <= 0.0:
            raise ValueError("mass and radius must be positive")
        if min(self.i1, self.i2, self.i3) <= 0.0:
            raise ValueError("principal inertias must be positive")

    @property
    def inertia(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.i3])


def chaplygin_reduced_system(params: ChaplyginParams) -> ReducedSystem:
    """The rolling-sphere mechanics as a reduced system: shape (x, y),
    so(3) fiber, block-diagonal metric, rolling-constraint annihilator
    rows, and the plate-rotation affine section."""
    p = params
    rows = np.array(
        [
            [1.0, 0.0, 0.0, -p.r, 0.0],
            [0.0, 1.0, p.r, 0.0, 0.0],
        ]
    )
    section = None
    if p.omega != 0.0:
        def section(x, _om=p.omega):
            return np.array([-_om * x[1], _om * x[0], 0.0, 0.0, 0.0])
    return ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=np.diag([p.m, p.m, p.i1, p.i2, p.i3]),
        annihilator=lambda x: rows,
        num_constraints=2,
        affine_section=section,
    )


def chaplygin_contact_velocity(params: ChaplyginParams, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Shape velocity enforced by the rolling constraints at (q, w):
    (r w2 - omega*y, -r w1 + omega*x)."""
    return np.array(
        [
            params.r * w[1] - params.omega * q[1],
            -params.r * w[0] + params.omega * q[0],
        ]
    )


def chaplygin_initial_reduced_state(
    params: ChaplyginParams, q0: np.ndarray, w0: np.ndarray, h: float
) -> ReducedState:
    """Reduced state matching :func:`chaplygin_init` seeding: constraint-
    consistent shape momentum, Legendre-consistent algebra momentum, zero
    carried multiplier."""
    q0 = np.asarray(q0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    v0 = chaplygin_contact_velocity(params, q0, w0)
    p_alg = dcay_inv(h * w0).T @ (params.inertia * w0)
    return ReducedState(q0, params.m * v0, w0, p_alg, np.zeros(2))


def chaplygin_init(params: ChaplyginParams, q0, w0, h: float) -> np.ndarray:
    """Second trajectory point from forward-difference forms of the two
    discrete constraint equations: q1 = q0 + h * contact_velocity."""
    q0 = np.asarray(q0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    return q0 + h * chaplygin_contact_velocity(params, q0, w0)


def chaplygin_step_stats(
    params: ChaplyginParams,
    q_prev,
    q_curr,
    w_prev,
    h: float,
    cfg: Optional[NewtonConfig] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Advance the five-equation discrete scheme of the rolling sphere.

    Unknowns: next contact point ``(x, y)`` and interval body angular
    velocity ``w``.  Solved monolithically by damped Newton with the
    analytic 5x5 Jacobian; predictor ``(2 q_curr - q_prev, w_prev)``.
    This is one step of :func:`_chaplygin_stepper` on arrays.

    Returns ``(q_next, w_curr, iterations)``; the number of accepted
    Newton updates is a per-step diagnostic.

    Raises
    ------
    NoConvergence
        If the Newton budget is exhausted.
    """
    step = _chaplygin_stepper(params, h, cfg)
    x1, y1, w1, w2, w3, iters = step(
        float(q_prev[0]), float(q_prev[1]), float(q_curr[0]), float(q_curr[1]),
        float(w_prev[0]), float(w_prev[1]), float(w_prev[2]),
    )
    return np.array([x1, y1]), np.array([w1, w2, w3]), iters


def _chaplygin_stepper(params: ChaplyginParams, h: float, cfg: Optional[NewtonConfig] = None):
    """The rolling-sphere Newton core as a function on plain floats.

    Returns ``step(xm, ym, x0, y0, v1, v2, v3) -> (x1, y1, w1, w2, w3,
    iters)``: from the previous and current contact points and the
    previous interval velocity, the next contact point, the current
    interval velocity and the number of accepted Newton updates.  The
    constants that depend only on ``params``, ``h`` and ``cfg`` are
    computed here, once per run: sweeps take hundreds of thousands of
    steps and ``step`` is the hot path.  Each hoisted constant is a
    leading factor of the product it stands in, so left-to-right
    evaluation gives every residual and Jacobian entry the same bits as
    the expanded expression.

    Convergence is measured on row-scaled residuals (momentum-balance rows
    by h/(m r), constraint rows by 2h, spin row by 1/i3) so that the test
    is in position/velocity units and independent of step size; the raw
    equations carry 1/h leading terms whose evaluation noise would swamp
    an absolute tolerance at fine resolution.  Row scaling leaves the
    Newton updates themselves unchanged.  ``step`` raises
    :class:`~gni.numerics.NoConvergence` when the budget is exhausted or
    the Newton system is singular.
    """
    if cfg is None:
        cfg = default_newton_config()
    tol = cfg.residual_tol
    max_iters = cfg.max_iters

    m, r, om = params.m, params.r, params.omega
    i1, i2, i3 = params.i1, params.i2, params.i3
    mr_h = m * r / h
    inv2h = 1.0 / (2.0 * h)
    h2_4 = 0.25 * h * h
    h2_2 = 2.0 * h2_4
    half_r = 0.5 * r
    k13 = 0.5 * h * (i1 - i3)
    k32 = 0.5 * h * (i3 - i2)
    k21 = 0.5 * h * (i2 - i1)
    a4 = 0.25 * r * h * ((i1 - i3) / i2)
    a5 = 0.25 * r * h * ((i3 - i2) / i1)
    b4 = r * h * h / (8.0 * i2)
    b5 = r * h * h / (8.0 * i1)
    # Leading factors of the Jacobian entries.
    hi1, hi2, hi3 = h2_2 * i1, h2_2 * i2, h2_2 * i3
    di1, di2, di3 = 2.0 * i1, 2.0 * i2, 2.0 * i3
    b4i1, b4i3 = 2.0 * b4 * i1, 2.0 * b4 * i3
    b5i2, b5i3 = 2.0 * b5 * i2, 2.0 * b5 * i3

    # Row scales bringing each residual to position/velocity units.
    s12 = h / (m * r)
    s3 = 1.0 / i3
    s45 = 2.0 * h
    # Jacobian entries of the shape unknowns (columns 0 and 1) are constant.
    jac_mom = s12 * mr_h
    jac_con = s45 * inv2h

    def step(xm, ym, x0, y0, v1, v2, v3):
        sv = i1 * v1 * v1 + i2 * v2 * v2 + i3 * v3 * v3
        # Constant (known) parts of the five residuals.
        c1 = -mr_h * (2.0 * x0 - xm) - i2 * v2 + k13 * v1 * v3 - h2_4 * v2 * sv
        c2 = -mr_h * (2.0 * y0 - ym) + i1 * v1 - k32 * v2 * v3 + h2_4 * v1 * sv
        c3 = -i3 * v3 + k21 * v1 * v2 - h2_4 * v3 * sv
        c4 = -xm * inv2h + om * y0 - half_r * v2 + a4 * v1 * v3 - b4 * v2 * sv
        c5 = -ym * inv2h - om * x0 + half_r * v1 - a5 * v2 * v3 + b5 * v1 * sv

        def residual(xp, yp, w1, w2, w3):
            s = i1 * w1 * w1 + i2 * w2 * w2 + i3 * w3 * w3
            f1 = s12 * (mr_h * xp + i2 * w2 + k13 * w1 * w3 + h2_4 * w2 * s + c1)
            f2 = s12 * (mr_h * yp - i1 * w1 - k32 * w2 * w3 - h2_4 * w1 * s + c2)
            f3 = s3 * (i3 * w3 + k21 * w1 * w2 + h2_4 * w3 * s + c3)
            f4 = s45 * (inv2h * xp - half_r * w2 - a4 * w1 * w3 - b4 * w2 * s + c4)
            f5 = s45 * (inv2h * yp + half_r * w1 + a5 * w2 * w3 + b5 * w1 * s + c5)
            return f1, f2, f3, f4, f5, s

        # Predictor.
        xp, yp = 2.0 * x0 - xm, 2.0 * y0 - ym
        w1, w2, w3 = v1, v2, v3
        f1, f2, f3, f4, f5, s = residual(xp, yp, w1, w2, w3)
        norm = max(abs(f1), abs(f2), abs(f3), abs(f4), abs(f5))

        for iteration in range(max_iters):
            if norm <= tol:
                return xp, yp, w1, w2, w3, iteration
            delta = _solve_sphere(
                jac_mom,
                s12 * (k13 * w3 + hi1 * w1 * w2),
                s12 * (i2 + h2_4 * (s + di2 * w2 * w2)),
                s12 * (k13 * w1 + hi3 * w3 * w2),
                jac_mom,
                s12 * (-i1 - h2_4 * (s + di1 * w1 * w1)),
                s12 * (-k32 * w3 - hi2 * w2 * w1),
                s12 * (-k32 * w2 - hi3 * w3 * w1),
                s3 * (k21 * w2 + hi1 * w1 * w3),
                s3 * (k21 * w1 + hi2 * w2 * w3),
                s3 * (i3 + h2_4 * (s + di3 * w3 * w3)),
                jac_con,
                s45 * (-a4 * w3 - b4i1 * w1 * w2),
                s45 * (-half_r - b4 * (s + di2 * w2 * w2)),
                s45 * (-a4 * w1 - b4i3 * w3 * w2),
                jac_con,
                s45 * (half_r + b5 * (s + di1 * w1 * w1)),
                s45 * (a5 * w3 + b5i2 * w2 * w1),
                s45 * (a5 * w2 + b5i3 * w3 * w1),
                -f1, -f2, -f3, -f4, -f5,
            )
            if delta is None:
                raise NoConvergence(iteration, norm)

            alpha = 1.0
            for _ in range(8):
                t1 = xp + alpha * delta[0]
                t2 = yp + alpha * delta[1]
                t3 = w1 + alpha * delta[2]
                t4 = w2 + alpha * delta[3]
                t5 = w3 + alpha * delta[4]
                g1, g2, g3, g4, g5, s_t = residual(t1, t2, t3, t4, t5)
                trial_norm = max(abs(g1), abs(g2), abs(g3), abs(g4), abs(g5))
                if trial_norm < norm:
                    break
                alpha *= 0.5
            xp, yp, w1, w2, w3 = t1, t2, t3, t4, t5
            f1, f2, f3, f4, f5, s = g1, g2, g3, g4, g5, s_t
            norm = trial_norm

        if norm <= tol:
            return xp, yp, w1, w2, w3, max_iters
        raise NoConvergence(max_iters, norm)

    return step


def _solve_sphere(
    a00, a02, a03, a04,
    a11, a12, a13, a14,
    a22, a23, a24,
    a30, a32, a33, a34,
    a41, a42, a43, a44,
    b0, b1, b2, b3, b4,
):
    """Solve the 5x5 Newton system of :func:`_chaplygin_stepper`.

    ``aij`` are the Jacobian entries; the others are structurally zero:
    columns 0 and 1 are nonzero only in rows 0/3 and 1/4, and row 2 is
    zero in both.  The elimination is Gaussian elimination with partial
    pivoting (strict ``>``, ties to the lower row; zero factors skipped)
    written out for that structure: it does the same floating-point
    operations in the same order as the generic loop on the full matrix,
    minus the updates that leave a structural zero zero, so its result is
    bit-identical whenever the four column-0/1 entries are finite (they
    are step constants).  Returns the solution as a tuple, or None on a
    pivot at or below 1e-300.
    """
    # Column 0: rows 0 and 3.
    if abs(a30) > abs(a00):
        a00, a02, a03, a04, b0, a30, a32, a33, a34, b3 = (
            a30, a32, a33, a34, b3, a00, a02, a03, a04, b0
        )
    if abs(a00) <= 1e-300:
        return None
    factor = a30 / a00
    if factor != 0.0:
        a32 -= factor * a02
        a33 -= factor * a03
        a34 -= factor * a04
        b3 -= factor * b0

    # Column 1: rows 1 and 4.
    if abs(a41) > abs(a11):
        a11, a12, a13, a14, b1, a41, a42, a43, a44, b4 = (
            a41, a42, a43, a44, b4, a11, a12, a13, a14, b1
        )
    if abs(a11) <= 1e-300:
        return None
    factor = a41 / a11
    if factor != 0.0:
        a42 -= factor * a12
        a43 -= factor * a13
        a44 -= factor * a14
        b4 -= factor * b1

    # The 3x3 tail: rows 2, 3, 4 in columns 2, 3, 4.
    pivot_row = 2
    pivot_mag = abs(a22)
    mag = abs(a32)
    if mag > pivot_mag:
        pivot_row, pivot_mag = 3, mag
    mag = abs(a42)
    if mag > pivot_mag:
        pivot_row, pivot_mag = 4, mag
    if pivot_mag <= 1e-300:
        return None
    if pivot_row == 3:
        a22, a23, a24, b2, a32, a33, a34, b3 = a32, a33, a34, b3, a22, a23, a24, b2
    elif pivot_row == 4:
        a22, a23, a24, b2, a42, a43, a44, b4 = a42, a43, a44, b4, a22, a23, a24, b2
    factor = a32 / a22
    if factor != 0.0:
        a33 -= factor * a23
        a34 -= factor * a24
        b3 -= factor * b2
    factor = a42 / a22
    if factor != 0.0:
        a43 -= factor * a23
        a44 -= factor * a24
        b4 -= factor * b2

    # Column 3 of the tail: rows 3 and 4.
    if abs(a43) > abs(a33):
        a33, a34, b3, a43, a44, b4 = a43, a44, b4, a33, a34, b3
    if abs(a33) <= 1e-300:
        return None
    factor = a43 / a33
    if factor != 0.0:
        a44 -= factor * a34
        b4 -= factor * b3

    if abs(a44) <= 1e-300:
        return None

    x4 = b4 / a44
    x3 = (b3 - a34 * x4) / a33
    x2 = (b2 - a23 * x3 - a24 * x4) / a22
    x1 = (b1 - a12 * x2 - a13 * x3 - a14 * x4) / a11
    # The zero row-0 entry of column 1 still multiplies x1, as in the
    # generic loop, so a non-finite x1 reaches x0 the same way.
    x0 = (b0 - 0.0 * x1 - a02 * x2 - a03 * x3 - a04 * x4) / a00
    return x0, x1, x2, x3, x4


def chaplygin_scheme_residual(params, q_prev, q_curr, q_next, w_prev, w_curr, h):
    """Residuals of the two discretized rolling constraints (the 4th and
    5th scheme equations) at the accepted step; diagnostic.

    Each argument is one row (``q_*`` of length 2, ``w_*`` of length 3) or
    a stack of rows along the leading axes; the result has shape
    ``(..., 2)``.  Stacked rows give the same bits as one call per row.
    """
    r, om = params.r, params.omega
    i1, i2, i3 = params.i1, params.i2, params.i3
    q_prev, q_curr, q_next, w_prev, w_curr = (
        np.asarray(a, dtype=float) for a in (q_prev, q_curr, q_next, w_prev, w_curr)
    )
    v1, v2, v3 = w_prev[..., 0], w_prev[..., 1], w_prev[..., 2]
    w1, w2, w3 = w_curr[..., 0], w_curr[..., 1], w_curr[..., 2]
    s = i1 * w1 * w1 + i2 * w2 * w2 + i3 * w3 * w3
    sv = i1 * v1 * v1 + i2 * v2 * v2 + i3 * v3 * v3
    f4 = (
        (q_next[..., 0] - q_prev[..., 0]) / (2.0 * h)
        + om * q_curr[..., 1]
        - 0.5 * r * (w2 + v2)
        - 0.25 * r * h * ((i1 - i3) / i2) * (w1 * w3 - v1 * v3)
        - (r * h * h / (8.0 * i2)) * (w2 * s + v2 * sv)
    )
    f5 = (
        (q_next[..., 1] - q_prev[..., 1]) / (2.0 * h)
        - om * q_curr[..., 0]
        + 0.5 * r * (w1 + v1)
        + 0.25 * r * h * ((i3 - i2) / i1) * (w2 * w3 - v2 * v3)
        + (r * h * h / (8.0 * i1)) * (w1 * s + v1 * sv)
    )
    return np.stack([f4, f5], axis=-1)


def reconstruct(seed: np.ndarray, xi_sequence, h: float, retraction: str = "cay") -> List[np.ndarray]:
    """Rebuild the rotation history from interval velocities:
    ``W_{k+1} = W_k tau(h xi_k)``.  Returns ``[W_0, ..., W_N]``."""
    tau, _ = _retraction(retraction)
    rots = [np.array(seed, dtype=float)]
    for xi in xi_sequence:
        rots.append(rots[-1] @ tau(h * np.asarray(xi, dtype=float)))
    return rots
