"""Small dense linear algebra and a damped Newton iteration.

Every implicit solve in this package funnels through the entry points
here: :func:`lu_solve` for square linear systems (LU with partial pivoting,
explicit singularity detection), :func:`small_solve` for the same
elimination written out on plain floats for the 1x1 to 3x3 systems of the
steppers, :func:`solve_gram` for constraint Gram systems, and
:func:`newton_solve_stats` for nonlinear root-finding (analytic Jacobian,
step damping; :func:`newton_solve3` runs the same iteration on three
plain floats).  Keeping the solvers in one place
makes failure modes uniform: linear degeneracies surface as
:class:`SingularMatrix` (:class:`RankDeficient` for Gram systems), stalled
iterations as :class:`NoConvergence`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from math import isfinite, nan
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SingularMatrix",
    "RankDeficient",
    "NoConvergence",
    "NewtonConfig",
    "default_newton_config",
    "lu_solve",
    "small_solve",
    "solve_gram",
    "newton_solve_stats",
    "newton_solve3",
]

# Relative pivot threshold below which a matrix is declared singular.
_PIVOT_RTOL = 1e-14
# Maximum number of step halvings the Newton damping loop may take.
_MAX_HALVINGS = 8


class SingularMatrix(ValueError):
    """Raised when LU elimination meets a pivot too small to trust."""


class RankDeficient(ValueError):
    """Raised when constraint rows are linearly dependent at a point."""


class NoConvergence(RuntimeError):
    """Raised when Newton iteration exhausts its budget.

    Attributes
    ----------
    iterations : int
        Number of Newton iterations performed before giving up.
    final_residual : float
        Infinity norm of the residual at the last iterate.
    """

    def __init__(self, iterations: int, final_residual: float):
        super().__init__(
            f"Newton iteration did not converge after {iterations} iterations "
            f"(|residual|_inf = {final_residual:.3e})"
        )
        self.iterations = iterations
        self.final_residual = final_residual


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerances and budgets for :func:`newton_solve_stats` and
    :func:`newton_solve3`.

    Parameters
    ----------
    residual_tol : float
        Convergence threshold on the infinity norm of the residual.
    max_iters : int
        Iteration budget before :class:`NoConvergence` is raised.
    """

    residual_tol: float = 1e-12
    max_iters: int = 50


def default_newton_config() -> NewtonConfig:
    """Return the default Newton configuration.

    The residual tolerance defaults to ``1e-12`` and may be overridden
    globally through the ``GNI_NEWTON_TOL`` environment variable, which
    must hold a finite positive number (``ValueError`` otherwise).
    """
    text = os.environ.get("GNI_NEWTON_TOL", "1e-12")
    try:
        tol = float(text)
    except ValueError:
        tol = nan
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"GNI_NEWTON_TOL must be a finite positive number, got {text!r}")
    return NewtonConfig(residual_tol=tol)


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the square linear system ``a @ x = b``.

    Gaussian elimination with partial pivoting on a copy of ``a``.  ``b``
    may be a vector or a matrix of stacked right-hand-side columns; the
    result has the same shape.

    Raises
    ------
    SingularMatrix
        If any pivot falls at or below ``1e-14 * max|a|``, i.e. the matrix
        is singular or numerically rank deficient.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    b = np.array(b, dtype=float)
    vector_rhs = b.ndim == 1
    rhs = b.reshape(n, -1) if vector_rhs else b
    if rhs.shape[0] != n:
        raise ValueError(f"right-hand side has {rhs.shape[0]} rows, expected {n}")
    rhs = rhs.copy()

    scale = np.max(np.abs(a)) if n else 0.0
    threshold = _PIVOT_RTOL * scale

    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= threshold:
            raise _singular(pivot, col, threshold)
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factors = a[col + 1:, col] / pivot
        a[col + 1:, col + 1:] -= np.outer(factors, a[col, col + 1:])
        rhs[col + 1:] -= np.outer(factors, rhs[col])

    x = np.empty_like(rhs)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if vector_rhs else x


def _singular(pivot: float, col: int, threshold: float) -> SingularMatrix:
    return SingularMatrix(
        f"pivot {abs(pivot):.3e} at column {col} is below "
        f"{_PIVOT_RTOL:g} * max|a| = {threshold:.3e}"
    )


def small_solve(a, b) -> tuple:
    """Solve ``a @ x = b`` for n = 1, 2 or 3 on plain floats.

    ``a`` is a sequence of n rows of n floats and ``b`` a sequence of n
    floats; the solution is returned as a tuple.  This is the elimination
    of :func:`lu_solve` written out without arrays: partial pivoting (the
    first row of largest magnitude), the same relative pivot test and the
    same back substitution, so the two agree to rounding.

    Raises
    ------
    SingularMatrix
        If any pivot falls at or below ``1e-14 * max|a|``.
    """
    n = len(b)
    if n == 1:
        ((a00,),), (b0,) = a, b
        threshold = _PIVOT_RTOL * abs(a00)
        if abs(a00) <= threshold:
            raise _singular(a00, 0, threshold)
        return (b0 / a00,)
    if n == 2:
        ((a00, a01), (a10, a11)), (b0, b1) = a, b
        threshold = _PIVOT_RTOL * max(abs(a00), abs(a01), abs(a10), abs(a11))
        if abs(a10) > abs(a00):
            a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
        if abs(a00) <= threshold:
            raise _singular(a00, 0, threshold)
        f = a10 / a00
        a11 -= f * a01
        b1 -= f * b0
        if abs(a11) <= threshold:
            raise _singular(a11, 1, threshold)
        x1 = b1 / a11
        return ((b0 - a01 * x1) / a00, x1)
    if n != 3:
        raise ValueError(f"small_solve handles 1 to 3 unknowns, got {n}")
    ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)), (b0, b1, b2) = a, b
    threshold = _PIVOT_RTOL * max(
        abs(a00), abs(a01), abs(a02),
        abs(a10), abs(a11), abs(a12),
        abs(a20), abs(a21), abs(a22),
    )
    # Column 0.
    if abs(a10) > abs(a00):
        if abs(a20) > abs(a10):
            a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
        else:
            a00, a01, a02, b0, a10, a11, a12, b1 = a10, a11, a12, b1, a00, a01, a02, b0
    elif abs(a20) > abs(a00):
        a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
    if abs(a00) <= threshold:
        raise _singular(a00, 0, threshold)
    f1 = a10 / a00
    f2 = a20 / a00
    a11 -= f1 * a01
    a12 -= f1 * a02
    a21 -= f2 * a01
    a22 -= f2 * a02
    b1 -= f1 * b0
    b2 -= f2 * b0
    # Column 1.
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    if abs(a11) <= threshold:
        raise _singular(a11, 1, threshold)
    f2 = a21 / a11
    a22 -= f2 * a12
    b2 -= f2 * b1
    if abs(a22) <= threshold:
        raise _singular(a22, 2, threshold)
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    return ((b0 - (a01 * x1 + a02 * x2)) / a00, x1, x2)


def solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``C x = rhs`` for a constraint Gram matrix ``C`` (SPD when the
    constraint rows are independent) and a right-hand-side vector, or a
    matrix of stacked columns (solved by :func:`lu_solve` if ``C`` is not 1x1).

    Raises
    ------
    RankDeficient
        If the constraint rows are dependent: a 1x1 ``C`` that is not
        positive, or a singular larger one.
    """
    m = gram.shape[0]
    if m == 1:
        if gram[0, 0] <= 0.0:
            raise RankDeficient("constraint row vanishes")
        return rhs / gram[0, 0]
    try:
        if m <= 3 and rhs.ndim == 1:
            return np.array(small_solve(gram.tolist(), rhs.tolist()))
        return lu_solve(gram, rhs)
    except SingularMatrix as exc:
        raise RankDeficient("constraint rows are linearly dependent") from exc


def newton_solve_stats(
    residual: Callable[[np.ndarray], np.ndarray],
    x0,
    cfg: Optional[NewtonConfig] = None,
    *,
    jacobian: Callable[[np.ndarray], np.ndarray],
):
    """Find ``x`` with ``|residual(x)|_inf <= cfg.residual_tol``.

    Damped Newton iteration from the 1-D start ``x0`` with the analytic
    Jacobian ``jacobian(x)``: at each step the correction from the
    linearised system (by :func:`small_solve` up to three unknowns, else
    :func:`lu_solve`) is applied with step length 1, and halved (at most
    eight times) while the residual norm fails to decrease to a finite
    value; when the halvings run out the smallest step is taken anyway.

    Returns ``(x, iterations)`` where ``iterations`` counts accepted
    Newton updates (0 when the initial guess already satisfies the
    tolerance).

    Raises
    ------
    NoConvergence
        If the tolerance is not met within ``cfg.max_iters`` iterations,
        or at once when the residual at the current iterate is not finite.
    SingularMatrix
        If a Newton system is numerically singular.
    """
    if cfg is None:
        cfg = default_newton_config()
    x = np.array(x0, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    norm = np.max(np.abs(r)) if r.size else 0.0
    for iteration in range(cfg.max_iters):
        if norm <= cfg.residual_tol:
            return x, iteration
        if not isfinite(norm):
            raise NoConvergence(iteration, float(norm))
        if x.size <= 3:
            delta = np.array(small_solve(np.asarray(jacobian(x)).tolist(), (-r).tolist()))
        else:
            delta = lu_solve(jacobian(x), -r)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = x + alpha * delta
            r_trial = np.asarray(residual(trial), dtype=float)
            trial_norm = np.max(np.abs(r_trial)) if r_trial.size else 0.0
            if isfinite(trial_norm) and trial_norm < norm:
                break
            alpha *= 0.5
        else:
            trial = x + alpha * delta
            r_trial = np.asarray(residual(trial), dtype=float)
            trial_norm = np.max(np.abs(r_trial)) if r_trial.size else 0.0
        x, r, norm = trial, r_trial, trial_norm
    if norm <= cfg.residual_tol:
        return x, cfg.max_iters
    raise NoConvergence(cfg.max_iters, float(norm))


def _norm3(f0: float, f1: float, f2: float) -> float:
    """Infinity norm of three floats; NaN if any is NaN, like ``np.max``."""
    if f0 != f0 or f1 != f1 or f2 != f2:
        return nan
    return max(abs(f0), abs(f1), abs(f2))


def newton_solve3(
    residual: Callable,
    jacobian: Callable,
    x0,
    cfg: Optional[NewtonConfig] = None,
):
    """:func:`newton_solve_stats` for three unknowns on plain floats.

    ``residual(x0, x1, x2)`` returns the three residuals and
    ``jacobian(x0, x1, x2)`` the Jacobian as three rows; each Newton
    system goes through :func:`small_solve`.  The stop, the damping (at
    most eight halvings, accepting only a finite, smaller norm), the step
    taken when the halvings run out and the errors are those of
    :func:`newton_solve_stats`.  Returns ``((x0, x1, x2), iterations)``.

    Raises
    ------
    NoConvergence
        If the tolerance is not met within ``cfg.max_iters`` iterations,
        or at once when the residual at the current iterate is not finite.
    SingularMatrix
        If a Newton system is numerically singular.
    """
    if cfg is None:
        cfg = default_newton_config()
    tol = cfg.residual_tol
    x0, x1, x2 = x0
    f0, f1, f2 = residual(x0, x1, x2)
    norm = _norm3(f0, f1, f2)
    for iteration in range(cfg.max_iters):
        if norm <= tol:
            return (x0, x1, x2), iteration
        if not isfinite(norm):
            raise NoConvergence(iteration, norm)
        d0, d1, d2 = small_solve(jacobian(x0, x1, x2), (-f0, -f1, -f2))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            t0, t1, t2 = x0 + alpha * d0, x1 + alpha * d1, x2 + alpha * d2
            g0, g1, g2 = residual(t0, t1, t2)
            trial_norm = _norm3(g0, g1, g2)
            if isfinite(trial_norm) and trial_norm < norm:
                break
            alpha *= 0.5
        else:
            t0, t1, t2 = x0 + alpha * d0, x1 + alpha * d1, x2 + alpha * d2
            g0, g1, g2 = residual(t0, t1, t2)
            trial_norm = _norm3(g0, g1, g2)
        x0, x1, x2, f0, f1, f2, norm = t0, t1, t2, g0, g1, g2, trial_norm
    if norm <= tol:
        return (x0, x1, x2), cfg.max_iters
    raise NoConvergence(cfg.max_iters, norm)
