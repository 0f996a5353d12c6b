"""The reduced float kernel one step at a time, kept as the oracle of
:func:`gni.gni_reduced.reduced_kernel`.

:func:`reduced_kernel` here is the per-step closure that the window kernel
writes out with its state in locals, its set-up products in the order of
:func:`gni.numerics.matmul`: the window kernel must reproduce it bit for
bit, in rows, iteration counts and failures.  Both call the one stage-3
solve of :func:`gni.gni_reduced._stage3_solver`, which the
``test_stage3_solver_*`` tests pin to :func:`gni.numerics.newton_solve_stats`.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from gni.gni_reduced import _TRANSPORT_COEFFS, _retraction, _stage3_solver, _transport
from gni.model import ReducedSystem
from gni.numerics import NewtonConfig, matmul, solve_gram


def reduced_kernel(
    rsys: ReducedSystem, h: float, retraction: str = "cay", cfg: Optional[NewtonConfig] = None
):
    """:func:`reduced_rattle_step` as a function on plain floats, for one run.

    It covers systems with a 2-dim shape, the 3-dim algebra and two
    constraint rows, that declare those rows as a constant array and the
    affine section as a matrix (or none), and give no potential; for any
    other system it returns ``None``.  The step constants are built here,
    once per run: ``Gs^{-1}`` and ``Gc`` in the shape drift, ``K = (2/h)
    C^{-1} W`` of stage 2 (``W`` the rows times ``G^{-1}``, ``C = W`` times
    the rows transposed), the section's momentum offset ``G A`` and the
    Schur block, and the stage-3 solve of :func:`_stage3_solver`.  The
    transport ``tau(h xi)^T p_alg`` is written in closed form.

    Returns ``step(x, y, px, py, xi1, xi2, xi3, pa1, pa2, pa3, lam1, lam2)
    -> (next 12 values, iterations)``; it raises as
    :func:`reduced_rattle_step` does.  The algebra of both is the same up to
    rounding.

    Raises
    ------
    ValueError
        For an unknown retraction.
    RankDeficient
        If the constant constraint rows are dependent.
    """
    coeffs = _retraction(retraction, _TRANSPORT_COEFFS)
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

    def step(x, y, px, py, w1, w2, w3, g1, g2, g3, l1, l2):
        # Stage 1: shape half-kick and drift.
        qx = px - (m00 * l1 + m01 * l2)
        qy = py - (m10 * l1 + m11 * l2)
        x1 = x + (a00 * qx + a01 * qy + a02 * w1 + a03 * w2 + a04 * w3)
        y1 = y + (a10 * qx + a11 * qy + a12 * w1 + a13 * w2 + a14 * w3)
        # Coadjoint transport of the algebra momentum.
        s1, s2, s3 = h * w1, h * w2, h * w3
        t1, t2, t3 = _transport(*coeffs(s1 * s1 + s2 * s2 + s3 * s3), s1, s2, s3, g1, g2, g3)
        # Stage 2: multiplier and momenta.
        n1 = k00 * qx + k01 * qy + k02 * t1 + k03 * t2 + k04 * t3 - (o00 * x1 + o01 * y1)
        n2 = k10 * qx + k11 * qy + k12 * t1 + k13 * t2 + k14 * t3 - (o10 * x1 + o11 * y1)
        dx, dy = m00 * n1 + m01 * n2, m10 * n1 + m11 * n2
        px1, py1 = qx - dx, qy - dy
        h1 = t1 - (e00 * n1 + e01 * n2)
        h2 = t2 - (e10 * n1 + e11 * n2)
        h3 = t3 - (e20 * n1 + e21 * n2)
        # Stage 3: interval velocity from the algebra-momentum match.
        rx, ry = px1 - dx, py1 - dy
        v1, v2, v3, iters = solve(c00 * rx + c01 * ry, c10 * rx + c11 * ry, c20 * rx + c21 * ry,
                                  h1, h2, h3, w1, w2, w3)
        return x1, y1, px1, py1, v1, v2, v3, h1, h2, h3, n1, n2, iters

    return step
