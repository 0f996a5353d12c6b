"""The rolling-sphere Newton core one step at a time, kept as the oracle
of :func:`gni.gni_reduced._chaplygin_stepper`.

:func:`_chaplygin_stepper` and :func:`_solve_sphere` are the per-step
kernel and its structured 5x5 elimination that the window kernel writes
out inline, unchanged: the window kernel must reproduce them bit for bit,
in rows, iteration counts, failures and their ``iterations`` /
``final_residual``.
"""
from __future__ import annotations

from math import isfinite
from typing import Optional

from gni.gni_reduced import ChaplyginParams
from gni.numerics import NewtonConfig, NoConvergence, default_newton_config


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
    :class:`~gni.numerics.NoConvergence` when the budget is exhausted,
    the Newton system is singular, or at once when a residual at the
    current iterate is not finite.
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
            if not (isfinite(f1) and isfinite(f2) and isfinite(f3) and isfinite(f4)
                    and isfinite(f5)):
                # ``max`` drops a NaN that is not its first argument; the sum
                # of the magnitudes is NaN if any residual is, else inf.
                raise NoConvergence(iteration, abs(f1) + abs(f2) + abs(f3) + abs(f4) + abs(f5))
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
