"""Reduced steppers on shape space x SO(3) body coordinates.

For systems whose configuration splits into shape coordinates ``x`` and a
rotation handled in body coordinates, the stepper advances
``(x, p, xi, p_alg, lam)`` where ``xi`` is the body angular velocity of
the step interval and ``p_alg`` the body angular momentum.  Group elements
never appear during stepping — a retraction ``tau`` (Cayley by default)
maps ``h*xi`` to the incremental rotation, the algebra momentum is carried
across the increment by ``tau(h*xi)^T``, and the inverse retraction
tangent relates it to the interval velocity.  The full rotation history
can be recovered afterwards with :func:`reconstruct`.

:func:`reduced_rattle_step` is the discretization of the midpoint-kinetic
discrete Lagrangian of a constant-metric reduced system (Kobilarov,
Marsden & Sukhatme, DCDS-S 3, 2010): all three of its stages take that
Lagrangian's derivatives in closed form from the metric blocks of the
:class:`~gni.model.ReducedSystem`.  Along the forward shape update its
algebra gradient is affine in the unknown ``xi``, and both inverse
retraction tangents have the form ``a(t) I - hat(s)/2 + c(t) hat(s)^2``
with ``t = |s|^2``, so stage 3 is one Newton solve on plain floats with an
analytic Jacobian, :func:`_stage3_solver`.  :func:`reduced_kernel` is the
same step on plain floats for a whole run, for systems that declare
constant constraint rows and a linear affine section.

The rolling sphere on a uniformly rotating plate ships as the worked
system: :func:`chaplygin_step_stats` advances its five coupled discrete
equations (contact position and body angular velocity) with an analytic
Jacobian, and :func:`chaplygin_reduced_system` exposes the same mechanics
to the reduced stepper.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, nan, sqrt
from typing import List, Optional, Tuple

import numpy as np

from .lie_so3 import cay, dcay_inv, exp_coefficients, exp_so3
from .model import ReducedState, ReducedSystem
from .numerics import (
    _MAX_HALVINGS,
    _PIVOT_RTOL,
    NewtonConfig,
    NoConvergence,
    SingularMatrix,
    _singular,
    default_newton_config,
    matmul,
    solve_gram,
)

__all__ = [
    "ChaplyginParams",
    "ReducedStepper",
    "reduced_rattle_step",
    "reduced_kernel",
    "reduced_scheme_residual",
    "chaplygin_step_stats",
    "chaplygin_scheme_residual",
    "chaplygin_contact_velocity",
    "chaplygin_init",
    "chaplygin_reduced_system",
    "chaplygin_initial_reduced_state",
    "reconstruct",
]

_RETRACTIONS = {"cay": cay, "exp": exp_so3}


# Coefficients of the inverse tangents written as a(t) I - hat(s)/2 +
# c(t) hat(s)^2 with t = |s|^2: (a, c, da/dt, dc/dt).  cay is exact
# (dcay_inv); exp is the order-4 series of dexp_inv, whose hat(s)^4 term
# is -t hat(s)^2 / 720.
_TANGENT_COEFFS = {
    "cay": lambda t: (1.0 + 0.25 * t, 0.25, 0.25, 0.0),
    "exp": lambda t: (1.0, 1.0 / 12.0 + t / 720.0, 0.0, 1.0 / 720.0),
}


# Coefficients (a, b) of the transport tau(s)^T p = p - a s x p + b s x (s x p)
# as functions of t = |s|^2, on floats: tau(s) = I + a hat(s) + b hat(s)^2.
def _cay_transport_coeffs(t: float):
    k = 4.0 / (4.0 + t)
    return k, 0.5 * k


_TRANSPORT_COEFFS = {
    "cay": _cay_transport_coeffs,
    "exp": lambda t: exp_coefficients(sqrt(t)),
}


def _retraction(name: str, table=_RETRACTIONS):
    """``table[name]``: by default the retraction ``tau`` itself."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown retraction {name!r}; choose from {sorted(table)}")


def _transport(a, b, s0, s1, s2, p0, p1, p2):
    """``tau(s)^T p = p - a s x p + b s x (s x p)`` component by component,
    on floats or elementwise on arrays (the same bits either way)."""
    c0 = s1 * p2 - s2 * p1
    c1 = s2 * p0 - s0 * p2
    c2 = s0 * p1 - s1 * p0
    return (
        p0 - a * c0 + b * (s1 * c2 - s2 * c1),
        p1 - a * c1 + b * (s2 * c0 - s0 * c2),
        p2 - a * c2 + b * (s0 * c1 - s1 * c0),
    )


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

    All three stages discretize the midpoint-kinetic Lagrangian
    ``|dx|^2_Gs / 2h + dx . Gc sigma / h + |sigma|^2_Ga / 2h - h (V(x0) +
    V(x1)) / 2`` of ``rsys`` (``sigma = h xi``) and take its derivatives
    in closed form from the metric blocks ``Gs``, ``Gc``, ``Ga``.  Along
    the forward update ``x2 = x1 + h Gs^{-1} (p_half_next - Gc xi)`` the
    algebra gradient ``d3`` is the affine map ``b + S xi`` with the Schur
    block ``S = Ga - Gc^T Gs^{-1} Gc`` and ``b = Gc^T Gs^{-1}
    p_half_next``, and stage 3 is the float Newton solve of
    :func:`_stage3_solver`, built for each step.

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
    tau = _retraction(retraction)
    n = rsys.shape_dim
    gc = rsys.bundle_metric[:n, n:]
    gs_inv = rsys.shape_metric_inv

    # Stage 1: shape half-kick and drift.
    rows0 = rsys.annihilator_matrix(s.x)
    mu0 = rows0[:, :n]
    grad0 = np.asarray(rsys.grad_potential(s.x), dtype=float)
    p_half = s.p - 0.5 * h * (grad0 + matmul(mu0.T, s.lam))
    x1 = s.x + h * matmul(gs_inv, p_half - matmul(gc, s.xi))

    # Coadjoint transport of the algebra momentum along the increment.
    rot = tau(h * s.xi)
    alg_trans = matmul(rot.T, s.p_alg)

    # Stage 2: multiplier from the averaged-momentum constraint at x1.
    rows1 = rsys.annihilator_matrix(x1)
    grad1 = np.asarray(rsys.grad_potential(x1), dtype=float)
    if rows1.shape[0]:
        mu1 = rows1[:, :n]
        eta1 = rows1[:, n:]
        w_mat = matmul(rows1, rsys.metric_inv)
        gram = matmul(w_mat, rows1.T)
        base = np.concatenate([p_half - 0.5 * h * grad1, alg_trans])
        base = base - rsys.momentum_offset(x1)
        lam1 = (2.0 / h) * np.array(solve_gram(gram.tolist(), matmul(w_mat, base).tolist()))
        p1 = p_half - 0.5 * h * (grad1 + matmul(mu1.T, lam1))
        alg1 = alg_trans - h * matmul(eta1.T, lam1)
    else:
        mu1 = np.zeros((0, n))
        lam1 = np.zeros(0)
        p1 = p_half - 0.5 * h * grad1
        alg1 = alg_trans

    # Stage 3: interval velocity from the algebra-momentum match.
    p_half_next = p1 - 0.5 * h * (grad1 + matmul(mu1.T, lam1))
    b = matmul(gc.T, matmul(gs_inv, p_half_next))
    solve = _stage3_solver(retraction, rsys.algebra_schur.tolist(), h, cfg)
    *xi1, iters = solve(*b.tolist(), *alg1.tolist(), *s.xi.tolist())
    return ReducedState(x1, p1, np.array(xi1), alg1, lam1, newton_iters=iters)


def _stage3_solver(retraction: str, schur, h: float, cfg: Optional[NewtonConfig] = None):
    """Stage 3 as a Newton solve on plain floats.

    ``schur`` is the Schur block ``S`` as three rows of three floats.  With
    ``sigma = h xi``, ``t = |sigma|^2``, ``v = b + S xi`` and the inverse
    tangent ``T = a I - hat(sigma)/2 + c hat(sigma)^2`` of the retraction,
    the residual is

        T^T v - alg1 = (a - c t) v + sigma x v / 2 + c (sigma . v) sigma - alg1

    and its Jacobian ``T^T S + h d/dsigma[T^T v]``, where

        d/dsigma[T^T v] = 2 (a' - c' t - c) v sigma^T - hat(v)/2
                          + c ((sigma . v) I + sigma v^T)
                          + 2 c' (sigma . v) sigma sigma^T.

    Returns ``solve(b0, b1, b2, g0, g1, g2, x0, x1, x2) -> (xi0, xi1, xi2,
    iterations)`` for ``b``, ``alg1`` and the predictor ``xi``: the same
    operations, stop rule and errors as :func:`~gni.numerics.newton_solve_stats`,
    whose :func:`~gni.numerics.lu_solve` is written out inline for three
    unknowns (partial pivoting to the first row of largest magnitude, each
    pivot tested against ``1e-14`` times the largest magnitude of its
    column of ``J``, the same back substitution).
    """
    cfg = cfg or default_newton_config()
    tol, max_iters = cfg.residual_tol, cfg.max_iters
    coeffs = _TANGENT_COEFFS[retraction]
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = schur

    def solve(b0, b1, b2, g0, g1, g2, x0, x1, x2):
        # One pass per residual evaluation, at the trial y; ``left`` halvings of e remain.
        y0, y1, y2, iterations, left = x0, x1, x2, -1, 0
        while True:
            v0 = b0 + s00 * y0 + s01 * y1 + s02 * y2
            v1 = b1 + s10 * y0 + s11 * y1 + s12 * y2
            v2 = b2 + s20 * y0 + s21 * y1 + s22 * y2
            o0, o1, o2 = h * y0, h * y1, h * y2
            t = o0 * o0 + o1 * o1 + o2 * o2
            a, c, da, dc = coeffs(t)
            d = a - c * t
            sv = o0 * v0 + o1 * v1 + o2 * v2
            cw = c * sv
            f0 = d * v0 + 0.5 * (o1 * v2 - o2 * v1) + cw * o0 - g0
            f1 = d * v1 + 0.5 * (o2 * v0 - o0 * v2) + cw * o1 - g1
            f2 = d * v2 + 0.5 * (o0 * v1 - o1 * v0) + cw * o2 - g2
            # The NaN-aware infinity norm of f at y.
            if f0 == f0 and f1 == f1 and f2 == f2:
                f_norm = abs(f0)
                if (u := abs(f1)) > f_norm:
                    f_norm = u
                if (u := abs(f2)) > f_norm:
                    f_norm = u
            else:
                f_norm = nan
            if left and not f_norm < norm:  # ``norm`` is finite: only a finite f_norm is less
                left, alpha = left - 1, 0.5 * alpha
                y0, y1, y2 = x0 - alpha * e0, x1 - alpha * e1, x2 - alpha * e2
                continue
            x0, x1, x2, norm, iterations = y0, y1, y2, f_norm, iterations + 1
            if norm <= tol:
                return x0, x1, x2, iterations
            if iterations >= max_iters or not isfinite(norm):
                raise NoConvergence(min(iterations, max_iters), norm)
            # T^T = d I + hat(sigma)/2 + c sigma sigma^T, entry by entry.
            co0, co1, co2 = c * o0, c * o1, c * o2
            t00, t11, t22 = d + co0 * o0, d + co1 * o1, d + co2 * o2
            t01, t10 = co0 * o1 - 0.5 * o2, co0 * o1 + 0.5 * o2
            t02, t20 = co0 * o2 + 0.5 * o1, co0 * o2 - 0.5 * o1
            t12, t21 = co1 * o2 - 0.5 * o0, co1 * o2 + 0.5 * o0
            # h d/dsigma[T^T v] = p sigma^T + r v^T + diag I - h hat(v)/2 with
            # p = h (2 (a' - c' t - c) v + 2 c' sv sigma) and r = h c sigma.
            k, q = 2.0 * (da - dc * t - c), 2.0 * dc * sv
            p0, p1, p2 = h * (k * v0 + q * o0), h * (k * v1 + q * o1), h * (k * v2 + q * o2)
            r0, r1, r2, diag = h * co0, h * co1, h * co2, h * c * sv
            hv0, hv1, hv2 = 0.5 * h * v0, 0.5 * h * v1, 0.5 * h * v2
            # The Newton system J e = f, solved as lu_solve solves it.
            j00 = t00 * s00 + t01 * s10 + t02 * s20 + p0 * o0 + r0 * v0 + diag
            j01 = t00 * s01 + t01 * s11 + t02 * s21 + p0 * o1 + r0 * v1 + hv2
            j02 = t00 * s02 + t01 * s12 + t02 * s22 + p0 * o2 + r0 * v2 - hv1
            j10 = t10 * s00 + t11 * s10 + t12 * s20 + p1 * o0 + r1 * v0 - hv2
            j11 = t10 * s01 + t11 * s11 + t12 * s21 + p1 * o1 + r1 * v1 + diag
            j12 = t10 * s02 + t11 * s12 + t12 * s22 + p1 * o2 + r1 * v2 + hv0
            j20 = t20 * s00 + t21 * s10 + t22 * s20 + p2 * o0 + r2 * v0 + hv1
            j21 = t20 * s01 + t21 * s11 + t22 * s21 + p2 * o1 + r2 * v1 - hv0
            j22 = t20 * s02 + t21 * s12 + t22 * s22 + p2 * o2 + r2 * v2 + diag
            # Each pivot against its column of J as given; column 0's largest is its pivot.
            u0, u1, u2 = abs(j00), abs(j10), abs(j20)
            threshold1 = _PIVOT_RTOL * max(abs(j01), abs(j11), abs(j21))
            threshold2 = _PIVOT_RTOL * max(abs(j02), abs(j12), abs(j22))
            if u1 > u0:
                if u2 > u1:
                    j00, j01, j02, f0, j20, j21, j22, f2 = j20, j21, j22, f2, j00, j01, j02, f0
                    u0 = u2
                else:
                    j00, j01, j02, f0, j10, j11, j12, f1 = j10, j11, j12, f1, j00, j01, j02, f0
                    u0 = u1
            elif u2 > u0:
                j00, j01, j02, f0, j20, j21, j22, f2 = j20, j21, j22, f2, j00, j01, j02, f0
                u0 = u2
            if u0 <= (threshold := _PIVOT_RTOL * u0):
                raise _singular(j00, 0, threshold)
            q1, q2 = j10 / j00, j20 / j00
            j11, j12, j21, j22 = j11 - q1 * j01, j12 - q1 * j02, j21 - q2 * j01, j22 - q2 * j02
            f1, f2 = f1 - q1 * f0, f2 - q2 * f0
            if abs(j21) > abs(j11):
                j11, j12, f1, j21, j22, f2 = j21, j22, f2, j11, j12, f1
            if abs(j11) <= threshold1:
                raise _singular(j11, 1, threshold1)
            q2 = j21 / j11
            j22, f2 = j22 - q2 * j12, f2 - q2 * f1
            if abs(j22) <= threshold2:
                raise _singular(j22, 2, threshold2)
            e2 = f2 / j22
            e1 = (f1 - j12 * e2) / j11
            e0 = (f0 - (j01 * e1 + j02 * e2)) / j00
            alpha, left = 1.0, _MAX_HALVINGS
            y0, y1, y2 = x0 - e0, x1 - e1, x2 - e2  # the full step: 1.0 * e is e

    return solve


def reduced_scheme_residual(
    rsys: ReducedSystem, prev, new, h: float, retraction: str = "cay"
) -> np.ndarray:
    """Residual of the averaged-momentum constraint a reduced step enforces:
    annihilator(x1) G^{-1} ((p1 ⊕ avg_alg) - Pi(x1)) with avg_alg the mean
    of the transported old and the new algebra momentum.

    ``prev`` and ``new`` are each a :class:`~gni.model.ReducedState`, its
    values ``[x, p, xi, p_alg, ...]`` (later columns ignored), or a stack
    of such rows; the result has shape ``(m,)``, or ``(rows, m)`` for
    stacks.  Every product is :func:`gni.numerics.matmul`, so stacked
    rows give the same bits as one call per row.  Stacks need a system
    that declares its rows and section as arrays.
    """
    prev, new = _values(prev), _values(new)
    one_row = prev.ndim == 1
    if not one_row and (callable(rsys.annihilator) or callable(rsys.affine_section)):
        raise ValueError("stacked rows need declared constraint rows and section")
    # Columns: one entry per row.
    prev, new = np.atleast_2d(prev).T, np.atleast_2d(new).T
    n = rsys.shape_dim
    s0, s1, s2 = h * prev[2 * n : 2 * n + 3]
    coeffs = _retraction(retraction, _TRANSPORT_COEFFS)
    a, b = np.array([coeffs(t) for t in (s0 * s0 + s1 * s1 + s2 * s2).tolist()]).T
    alg_trans = np.array(_transport(a, b, s0, s1, s2, *prev[2 * n + 3 : 2 * n + 6]))
    combined = np.vstack([new[n : 2 * n], 0.5 * (alg_trans + new[2 * n + 3 : 2 * n + 6])])
    x = new[:n]
    if callable(rsys.affine_section):
        combined = combined - matmul(rsys.bundle_metric, rsys.section(x[:, 0])[:, None])
    elif rsys.affine_section is not None:
        combined = combined - matmul(rsys.bundle_metric, matmul(rsys.affine_section, x))
    res = matmul(rsys.annihilator_matrix(x[:, 0]), matmul(rsys.metric_inv, combined))
    return res[:, 0] if one_row else res.T


def _values(state) -> np.ndarray:
    if isinstance(state, ReducedState):
        return np.concatenate([state.x, state.p, state.xi, state.p_alg])
    return np.asarray(state, dtype=float)


@dataclass(frozen=True)
class ReducedStepper:
    """:func:`reduced_rattle_step` with its retraction and Newton settings.

    Calling the record takes one step, ``stepper(rsys, state, h)``.
    :func:`gni.analysis.run` reads it to step a whole run with
    :func:`reduced_kernel` where the system allows that.
    """

    retraction: str = "cay"
    cfg: Optional[NewtonConfig] = None

    def __call__(self, rsys: ReducedSystem, s: ReducedState, h: float) -> ReducedState:
        return reduced_rattle_step(rsys, s, h, self.retraction, self.cfg)


def reduced_kernel(
    rsys: ReducedSystem, h: float, retraction: str = "cay", cfg: Optional[NewtonConfig] = None
):
    """:func:`reduced_rattle_step` as a window kernel on plain floats, for one run.

    It covers systems with a 2-dim shape, the 3-dim algebra and two
    constraint rows, that declare those rows as a constant array and the
    affine section as a matrix (or none), and give no potential; for any
    other system it returns ``None``.  The step constants are built here,
    once per run: ``Gs^{-1}`` and ``Gc`` in the shape drift, ``K = (2/h)
    C^{-1} W`` of stage 2 (``W`` the rows times ``G^{-1}``, ``C = W`` times
    the rows transposed), the section's momentum offset ``G A`` and the
    Schur block, and the stage-3 solve of :func:`_stage3_solver`.  The
    transport ``tau(h xi)^T p_alg`` is written in closed form.

    Returns ``window(flat, counts, j0, j1)``, which takes the steps ``j0 ..
    j1-1`` on a buffer of rows ``[x, y, px, py, xi1, xi2, xi3, pa1, pa2,
    pa3, lam1, lam2]`` seen as the flat float memoryview ``flat``, carrying
    row ``j0-1`` in locals from step to step: step ``j`` writes row ``j``
    and its stage-3 iterations ``counts[j]``.  It returns ``None``, or
    ``(j, exc)`` for the first step ``j`` whose stage-3 solve raised.  The
    algebra is that of :func:`reduced_rattle_step` up to rounding.

    Raises
    ------
    ValueError
        For an unknown retraction.
    RankDeficient
        If the constant constraint rows are dependent.
    """
    cayley = _retraction(retraction, {"cay": True, "exp": False})
    covered = (
        (rsys.shape_dim, rsys.algebra_dim, rsys.num_constraints) == (2, 3, 2)
        and isinstance(rsys.annihilator, np.ndarray)
        and not callable(rsys.affine_section)
        and rsys.potential_free
    )
    if not covered:
        return None
    solve = _stage3_solver(retraction, rsys.algebra_schur.tolist(), h, cfg)

    rows = rsys.annihilator
    gs_inv = rsys.shape_metric_inv
    gc = rsys.bundle_metric[:2, 2:]
    w_mat = matmul(rows, rsys.metric_inv)
    k_mat = (2.0 / h) * np.array(solve_gram(matmul(w_mat, rows.T).tolist(), w_mat.tolist()))
    offset = np.zeros((5, 2))
    if rsys.affine_section is not None:
        offset = matmul(rsys.bundle_metric, rsys.affine_section)
    # The multiplier's kicks of the shape (0.5 h mu^T) and algebra (h eta^T)
    # momenta, the shape drift h Gs^{-1} [I, -Gc], K, K G A and Gc^T Gs^{-1}.
    (m00, m01), (m10, m11) = (0.5 * h * rows[:, :2].T).tolist()
    (e00, e01), (e10, e11), (e20, e21) = (h * rows[:, 2:].T).tolist()
    (a00, a01, a02, a03, a04), (a10, a11, a12, a13, a14) = (
        matmul(h * gs_inv, np.hstack([np.eye(2), -gc]))
    ).tolist()
    (k00, k01, k02, k03, k04), (k10, k11, k12, k13, k14) = k_mat.tolist()
    (o00, o01), (o10, o11) = matmul(k_mat, offset).tolist()
    (c00, c01), (c10, c11), (c20, c21) = matmul(gc.T, gs_inv).tolist()

    def window(flat, counts, j0, j1):
        i = 12 * j0
        x, y, px, py, w1, w2, w3, g1, g2, g3, l1, l2 = flat[i - 12 : i]
        for j in range(j0, j1):
            # Stage 1: shape half-kick and drift.
            qx = px - (m00 * l1 + m01 * l2)
            qy = py - (m10 * l1 + m11 * l2)
            x += a00 * qx + a01 * qy + a02 * w1 + a03 * w2 + a04 * w3
            y += a10 * qx + a11 * qy + a12 * w1 + a13 * w2 + a14 * w3
            # Coadjoint transport tau(s)^T g = g - a s x g + b s x (s x g), s = h xi.
            s1, s2, s3 = h * w1, h * w2, h * w3
            t = s1 * s1 + s2 * s2 + s3 * s3
            if cayley:
                a = 4.0 / (4.0 + t)
                b = 0.5 * a
            else:
                a, b = exp_coefficients(sqrt(t))
            u1, u2, u3 = s2 * g3 - s3 * g2, s3 * g1 - s1 * g3, s1 * g2 - s2 * g1
            t1 = g1 - a * u1 + b * (s2 * u3 - s3 * u2)
            t2 = g2 - a * u2 + b * (s3 * u1 - s1 * u3)
            t3 = g3 - a * u3 + b * (s1 * u2 - s2 * u1)
            # Stage 2: multiplier and momenta.
            l1 = k00 * qx + k01 * qy + k02 * t1 + k03 * t2 + k04 * t3 - (o00 * x + o01 * y)
            l2 = k10 * qx + k11 * qy + k12 * t1 + k13 * t2 + k14 * t3 - (o10 * x + o11 * y)
            dx, dy = m00 * l1 + m01 * l2, m10 * l1 + m11 * l2
            px, py = qx - dx, qy - dy
            g1 = t1 - (e00 * l1 + e01 * l2)
            g2 = t2 - (e10 * l1 + e11 * l2)
            g3 = t3 - (e20 * l1 + e21 * l2)
            # Stage 3: interval velocity from the algebra-momentum match.
            rx, ry = px - dx, py - dy
            try:
                w1, w2, w3, counts[j] = solve(c00 * rx + c01 * ry, c10 * rx + c11 * ry,
                                              c20 * rx + c21 * ry, g1, g2, g3, w1, w2, w3)
            except (NoConvergence, SingularMatrix) as exc:
                return j, exc
            (flat[i], flat[i + 1], flat[i + 2], flat[i + 3], flat[i + 4], flat[i + 5], flat[i + 6],
             flat[i + 7], flat[i + 8], flat[i + 9], flat[i + 10], flat[i + 11]) = (
                x, y, px, py, w1, w2, w3, g1, g2, g3, l1, l2)
            i += 12
        return None

    return window


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
        for name in ("m", "r", "omega", "i1", "i2", "i3"):  # NumPy scalars would slow every step
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.m <= 0.0 or self.r <= 0.0:
            raise ValueError("mass and radius must be positive")
        if min(self.i1, self.i2, self.i3) <= 0.0:
            raise ValueError("principal inertias must be positive")

    @property
    def inertia(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.i3])


def chaplygin_reduced_system(params: ChaplyginParams) -> ReducedSystem:
    """The rolling-sphere mechanics as a reduced system: shape (x, y),
    so(3) fiber, block-diagonal metric, the constant rolling-constraint
    annihilator rows, and the linear plate-rotation affine section
    ``(-omega y, omega x, 0, 0, 0)``, both declared as arrays."""
    p = params
    rows = np.array(
        [
            [1.0, 0.0, 0.0, -p.r, 0.0],
            [0.0, 1.0, p.r, 0.0, 0.0],
        ]
    )
    section = None
    if p.omega != 0.0:
        section = np.zeros((5, 2))
        section[0, 1], section[1, 0] = -p.omega, p.omega
    return ReducedSystem(
        shape_dim=2,
        algebra_dim=3,
        bundle_metric=np.diag([p.m, p.m, p.i1, p.i2, p.i3]),
        annihilator=rows,
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
    consistent shape momentum, zero carried multiplier, and the algebra
    momentum of the Cayley Legendre form, ``p_alg = dcay_inv(h w0)^T I
    w0``, whichever retraction steps it.  A ``w0`` whose products overflow
    gives a non-finite state without a warning; the run reports it."""
    q0 = np.asarray(q0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    v0 = chaplygin_contact_velocity(params, q0, w0)
    with np.errstate(over="ignore", invalid="ignore"):
        p_alg = matmul(dcay_inv(h * w0).T, params.inertia * w0)
    return ReducedState(q0, params.m * v0, w0, p_alg, np.zeros(2))


def chaplygin_init(params: ChaplyginParams, q0, w0, h: float) -> np.ndarray:
    """Second trajectory point from forward-difference forms of the two
    discrete constraint equations: q1 = q0 + h * contact_velocity."""
    q0 = np.asarray(q0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    return q0 + h * chaplygin_contact_velocity(params, q0, w0)


def chaplygin_step_stats(params: ChaplyginParams, q_prev, q_curr, w_prev, h: float,
                         cfg: Optional[NewtonConfig] = None) -> Tuple[np.ndarray, np.ndarray, int]:
    """Advance the five-equation discrete scheme of the rolling sphere.

    Unknowns: next contact point ``(x, y)`` and interval body angular
    velocity ``w``.  Solved monolithically by damped Newton with the
    analytic 5x5 Jacobian; predictor ``(2 q_curr - q_prev, w_prev)``.
    This is a one-step window of :func:`_chaplygin_stepper` on a 3-row
    buffer.

    Returns ``(q_next, w_curr, iterations)``; the number of accepted
    Newton updates is a per-step diagnostic.

    Raises
    ------
    NoConvergence
        If the Newton budget is exhausted.
    ValueError
        If ``m * r`` underflows to 0.
    """
    rows = np.empty((3, 5))
    rows[0, :2], rows[0, 2:], rows[1, :2] = q_prev, w_prev, q_curr
    counts = memoryview(np.zeros(3, dtype=int))
    failed = _chaplygin_stepper(params, h, cfg)(memoryview(rows.reshape(-1)), counts, 1, 2)
    if failed is not None:
        raise failed[1]
    return rows[2, :2], rows[1, 2:], counts[1]


def _chaplygin_stepper(params: ChaplyginParams, h: float, cfg: Optional[NewtonConfig] = None):
    """The rolling-sphere Newton core as a window kernel on plain floats.

    Returns ``window(flat, counts, j0, j1)``, which takes the steps ``j0 ..
    j1-1`` on a buffer of rows ``[x, y, w1, w2, w3]`` seen as the flat
    float memoryview ``flat``.  Step ``j`` reads the contact points of rows
    ``j-1`` and ``j`` and the interval velocity of row ``j-1`` (carried in
    locals from the step before) and writes the velocity of row ``j``, the
    contact point of row ``j+1`` and its accepted Newton updates into
    ``counts[j]``.  ``window`` returns ``None``, or ``(j, exc)`` for the
    first step ``j`` that fails, with its
    :class:`~gni.numerics.NoConvergence`: the Newton budget is exhausted,
    a pivot is at or below 1e-300, or at once a residual at the current
    iterate is not finite.  The constants that depend only on ``params``,
    ``h`` and ``cfg`` are computed once per run, each a leading factor of
    the product it stands in.  An iterate's products that the residuals
    take (``i2 w2``, ``(k13 w1) w3``, ``(h2_4 w2) s``, ..., and ``s``
    itself) are evaluated once, by the trial that reaches it (for row
    ``j0-1``, at ``window`` entry), and carried into the next step, whose
    known parts and predictor residuals add them up.  Every residual and
    Jacobian entry keeps the bits of the expanded expression: each product
    is the same operation on the same operands, ``(-a) b`` is ``-(a b)``,
    a step that accepts its predictor passes on the products it was given,
    and the trial kept after the last halving is the last one evaluated.

    Convergence is measured on row-scaled residuals (momentum-balance rows
    by h/(m r), constraint rows by 2h, spin row by 1/i3) so that the test
    is in position/velocity units and independent of step size; the raw
    equations carry 1/h leading terms whose evaluation noise would swamp
    an absolute tolerance at fine resolution.  Row scaling leaves the
    Newton updates themselves unchanged.  The 5x5 Newton system is solved
    by Gaussian elimination with partial pivoting (strict ``>``, ties to
    the lower row, zero factors skipped) written out for its structure:
    columns 0 and 1 are nonzero only in rows 0/3 and 1/4, both holding the
    step constants ``jac_mom`` over ``jac_con``, so their pivot choice and
    factor are set once per run, with no pivot floor or zero-factor test:
    the two are 1 up to rounding, or not finite when a set-up constant
    overflows, and then the predictor's residuals have stopped the step.
    Minus the updates that leave a structural zero zero, it does the
    generic loop's operations in its order, so it has its bits while
    those constants are finite; ``m * r`` underflowing to 0 raises ``ValueError``.
    """
    if cfg is None:
        cfg = default_newton_config()
    tol = cfg.residual_tol
    max_iters = cfg.max_iters

    m, r, om = params.m, params.r, params.omega
    if m * r == 0.0:  # the momentum rows' scale h / (m r) would divide by 0
        raise ValueError("m * r underflows to 0")
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
    jac_mom, jac_con = s12 * mr_h, s45 * inv2h
    swap = abs(jac_con) > abs(jac_mom)
    pivot, other = (jac_con, jac_mom) if swap else (jac_mom, jac_con)
    factor01 = other / pivot
    newton_iterations, halvings = range(max_iters), range(_MAX_HALVINGS)

    def window(flat, counts, j0, j1):
        i = 5 * j0
        xm, ym, w1, w2, w3, x0, y0 = flat[i - 5 : i + 2]
        # The products of row j0-1's velocity, which each step carries into the next.
        iw1, iw2, iw3 = i1 * w1, i2 * w2, i3 * w3
        s = iw1 * w1 + iw2 * w2 + iw3 * w3
        kw13, kw32, kw21 = k13 * w1 * w3, k32 * w2 * w3, k21 * w1 * w2
        hw1, hw2, hw3 = h2_4 * w1 * s, h2_4 * w2 * s, h2_4 * w3 * s
        rw1, rw2, aw4, aw5 = half_r * w1, half_r * w2, a4 * w1 * w3, a5 * w2 * w3
        bw4, bw5 = b4 * w2 * s, b5 * w1 * s
        for j in range(j0, j1):
            # Predictor, the known parts c of the residuals and the residuals at it.
            xp, yp = 2.0 * x0 - xm, 2.0 * y0 - ym
            mx, my = mr_h * xp, mr_h * yp
            c1 = -mx - iw2 + kw13 - hw2
            c2 = -my + iw1 - kw32 + hw1
            c3 = -iw3 + kw21 - hw3
            c4 = -xm * inv2h + om * y0 - rw2 + aw4 - bw4
            c5 = -ym * inv2h - om * x0 + rw1 - aw5 + bw5
            f1 = s12 * (mx + iw2 + kw13 + hw2 + c1)
            f2 = s12 * (my - iw1 - kw32 - hw1 + c2)
            f3 = s3 * (iw3 + kw21 + hw3 + c3)
            f4 = s45 * (inv2h * xp - rw2 - aw4 - bw4 + c4)
            f5 = s45 * (inv2h * yp + rw1 + aw5 + bw5 + c5)
            # The infinity norm by builtin ``max``'s rule: strict ``>``, a first NaN kept.
            norm = abs(f1)
            if (a := abs(f2)) > norm:
                norm = a
            if (a := abs(f3)) > norm:
                norm = a
            if (a := abs(f4)) > norm:
                norm = a
            if (a := abs(f5)) > norm:
                norm = a

            for iteration in newton_iterations:
                if norm <= tol:
                    break
                if (f1 - f1) + (f2 - f2) + (f3 - f3) + (f4 - f4) + (f5 - f5) != 0.0:
                    # Some residual is inf or NaN, which the norm may drop; the
                    # sum of the magnitudes is NaN if any residual is, else inf.
                    return j, NoConvergence(iteration, abs(f1) + abs(f2) + abs(f3) + abs(f4)
                                            + abs(f5))
                # The Newton system J d = -f; its other entries are zero.
                e1, e2 = s + di1 * w1 * w1, s + di2 * w2 * w2
                a02 = s12 * (k13 * w3 + hi1 * w1 * w2)
                a03 = s12 * (i2 + h2_4 * e2)
                a04 = s12 * (k13 * w1 + hi3 * w3 * w2)
                a12 = s12 * (-i1 - h2_4 * e1)
                a13 = s12 * (-k32 * w3 - hi2 * w2 * w1)
                a14 = s12 * (-k32 * w2 - hi3 * w3 * w1)
                a22 = s3 * (k21 * w2 + hi1 * w1 * w3)
                a23 = s3 * (k21 * w1 + hi2 * w2 * w3)
                a24 = s3 * (i3 + h2_4 * (s + di3 * w3 * w3))
                a32 = s45 * (-a4 * w3 - b4i1 * w1 * w2)
                a33 = s45 * (-half_r - b4 * e2)
                a34 = s45 * (-a4 * w1 - b4i3 * w3 * w2)
                a42 = s45 * (half_r + b5 * e1)
                a43 = s45 * (a5 * w3 + b5i2 * w2 * w1)
                a44 = s45 * (a5 * w2 + b5i3 * w3 * w1)
                r0, r1, r2, r3, r4 = -f1, -f2, -f3, -f4, -f5

                # Columns 0 and 1: rows 0/3 and 1/4, pivoted as set up per run.
                if swap:
                    a02, a03, a04, r0, a32, a33, a34, r3 = a32, a33, a34, r3, a02, a03, a04, r0
                    a12, a13, a14, r1, a42, a43, a44, r4 = a42, a43, a44, r4, a12, a13, a14, r1
                a32 -= factor01 * a02
                a33 -= factor01 * a03
                a34 -= factor01 * a04
                r3 -= factor01 * r0
                a42 -= factor01 * a12
                a43 -= factor01 * a13
                a44 -= factor01 * a14
                r4 -= factor01 * r1
                # The 3x3 tail: rows 2, 3, 4 in columns 2, 3, 4.
                pivot_row = 2
                pivot_mag = abs(a22)
                mag = abs(a32)
                if mag > pivot_mag:
                    pivot_row, pivot_mag = 3, mag
                mag = abs(a42)
                if mag > pivot_mag:
                    pivot_row, pivot_mag = 4, mag
                # An absolute floor, not lu_solve's column rule: the rows are scaled to
                # position and velocity units, a pivot at the floor ends the step as
                # NoConvergence, and tests/sphere_oracle.py pins both.
                if pivot_mag <= 1e-300:
                    return j, NoConvergence(iteration, norm)
                if pivot_row == 3:
                    a22, a23, a24, r2, a32, a33, a34, r3 = a32, a33, a34, r3, a22, a23, a24, r2
                elif pivot_row == 4:
                    a22, a23, a24, r2, a42, a43, a44, r4 = a42, a43, a44, r4, a22, a23, a24, r2
                factor = a32 / a22
                if factor != 0.0:
                    a33 -= factor * a23
                    a34 -= factor * a24
                    r3 -= factor * r2
                factor = a42 / a22
                if factor != 0.0:
                    a43 -= factor * a23
                    a44 -= factor * a24
                    r4 -= factor * r2
                # Column 3 of the tail: rows 3 and 4.
                if abs(a43) > abs(a33):
                    a33, a34, r3, a43, a44, r4 = a43, a44, r4, a33, a34, r3
                if abs(a33) <= 1e-300:
                    return j, NoConvergence(iteration, norm)
                factor = a43 / a33
                if factor != 0.0:
                    a44 -= factor * a34
                    r4 -= factor * r3
                if abs(a44) <= 1e-300:
                    return j, NoConvergence(iteration, norm)
                d4 = r4 / a44
                d3 = (r3 - a34 * d4) / a33
                d2 = (r2 - a23 * d3 - a24 * d4) / a22
                d1 = (r1 - a12 * d2 - a13 * d3 - a14 * d4) / pivot
                # The zero row-0 entry of column 1 still multiplies d1, as in
                # the generic loop, so a non-finite d1 reaches d0 the same way.
                d0 = (r0 - 0.0 * d1 - a02 * d2 - a03 * d3 - a04 * d4) / pivot

                # Full step, halved while the residual does not fall; after
                # the last halving the trial is taken anyway.
                alpha = 1.0
                for _ in halvings:
                    t1 = xp + alpha * d0
                    t2 = yp + alpha * d1
                    t3 = w1 + alpha * d2
                    t4 = w2 + alpha * d3
                    t5 = w3 + alpha * d4
                    iw1, iw2, iw3 = i1 * t3, i2 * t4, i3 * t5
                    s = iw1 * t3 + iw2 * t4 + iw3 * t5
                    kw13, kw32, kw21 = k13 * t3 * t5, k32 * t4 * t5, k21 * t3 * t4
                    hw1, hw2, hw3 = h2_4 * t3 * s, h2_4 * t4 * s, h2_4 * t5 * s
                    rw1, rw2, aw4, aw5 = half_r * t3, half_r * t4, a4 * t3 * t5, a5 * t4 * t5
                    bw4, bw5 = b4 * t4 * s, b5 * t3 * s
                    f1 = s12 * (mr_h * t1 + iw2 + kw13 + hw2 + c1)
                    f2 = s12 * (mr_h * t2 - iw1 - kw32 - hw1 + c2)
                    f3 = s3 * (iw3 + kw21 + hw3 + c3)
                    f4 = s45 * (inv2h * t1 - rw2 - aw4 - bw4 + c4)
                    f5 = s45 * (inv2h * t2 + rw1 + aw5 + bw5 + c5)
                    trial_norm = abs(f1)
                    if (a := abs(f2)) > trial_norm:
                        trial_norm = a
                    if (a := abs(f3)) > trial_norm:
                        trial_norm = a
                    if (a := abs(f4)) > trial_norm:
                        trial_norm = a
                    if (a := abs(f5)) > trial_norm:
                        trial_norm = a
                    if trial_norm < norm:
                        break
                    alpha *= 0.5
                xp, yp, w1, w2, w3, norm = t1, t2, t3, t4, t5, trial_norm
            else:
                if not norm <= tol:
                    return j, NoConvergence(max_iters, norm)
                iteration = max_iters

            flat[i + 2], flat[i + 3], flat[i + 4] = w1, w2, w3
            flat[i + 5], flat[i + 6] = xp, yp
            counts[j] = iteration
            xm, ym, x0, y0 = x0, y0, xp, yp
            i += 5
        return None

    return window


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
    tau = _retraction(retraction)
    rots = [np.array(seed, dtype=float)]
    for xi in xi_sequence:
        rots.append(matmul(rots[-1], tau(h * np.asarray(xi, dtype=float))))
    return rots
