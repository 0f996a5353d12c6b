"""Small dense linear algebra, the one float order of products, and a
damped Newton iteration.

Every implicit solve in this package funnels through the entry points
here: :func:`lu_solve` for square linear systems (LU with partial pivoting,
explicit singularity detection), :func:`small_solve` for the same
elimination written out on plain floats for the 1x1 to 3x3 systems of the
steppers, :func:`solve_gram` for constraint Gram systems (and
:func:`solve_gram_floats` for the float kernels), and
:func:`newton_solve_stats` for nonlinear root-finding (plain floats,
analytic Jacobian, step damping).  Keeping the solvers in one place
makes failure modes uniform: linear degeneracies surface as
:class:`SingularMatrix` (:class:`RankDeficient` for Gram systems), stalled
iterations as :class:`NoConvergence`.  Every product whose value reaches a
CSV, a kernel constant or a test is summed in one order, defined here and
not by a BLAS: each product rounded on its own, added left to right from
0.0, by :func:`matmul` on arrays and :func:`dot`, :func:`linear_map` and
:func:`transpose_times` on plain floats.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from math import inf, isfinite, nan
from operator import sub
from typing import Callable, Optional, Sequence

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
    "solve_gram_floats",
    "matmul",
    "dot",
    "linear_map",
    "transpose_times",
    "newton_solve_stats",
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
    """Tolerances and budgets for :func:`newton_solve_stats`.

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
        x[row] = (rhs[row] - matmul(a[row, row + 1:], x[row + 1:])) / a[row, row]
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


def solve_gram_floats(gram, rhs) -> list:
    """:func:`solve_gram` on plain floats: ``gram`` as rows of floats and
    ``rhs`` one sequence of floats; the solution is a list.  It divides for
    one row, calls :func:`small_solve` up to three and :func:`lu_solve`
    beyond, as :func:`solve_gram` does, so the two give the same bits.

    Raises
    ------
    RankDeficient
        As :func:`solve_gram`.
    """
    if len(gram) == 1:
        g = gram[0][0]
        if g <= 0.0:
            raise RankDeficient("constraint row vanishes")
        return [r / g for r in rhs]
    try:
        if len(gram) <= 3:
            return list(small_solve(gram, rhs))
        return lu_solve(np.array(gram), np.array(rhs)).tolist()
    except SingularMatrix as exc:
        raise RankDeficient("constraint rows are linearly dependent") from exc


def matmul(a, b) -> np.ndarray:
    """``a @ b`` with ``np.matmul``'s semantics for 1-D, 2-D and stacked
    operands, each entry in the defined order, by elementwise NumPy only
    (one pass per inner index): a one-row call and a stacked call give the
    same bits, and no BLAS decides them."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a2, b2 = (a[None] if a.ndim == 1 else a), (b[:, None] if b.ndim == 1 else b)
    n = a2.shape[-1]
    if b2.shape[-2] != n:
        raise ValueError(f"matmul: inner dimensions {a.shape} and {b.shape} differ")
    # An empty sum is 0.0 in any order, so ``@`` may form it.
    out = a2[..., :, :1] * b2[..., :1, :] + 0.0 if n else a2 @ b2
    for j in range(1, n):
        out = out + a2[..., :, j : j + 1] * b2[..., j : j + 1, :]
    out = out[..., 0, :] if a.ndim == 1 else out
    return out[..., 0] if b.ndim == 1 else out


def dot(xs, ys) -> float:
    """``x . y`` of two float sequences in the defined order.  Not ``sum``:
    from Python 3.12 on, ``sum`` of floats compensates its rounding."""
    total = 0.0
    for x, y in zip(xs, ys):
        total += x * y
    return total


def linear_map(matrix) -> Callable[[Sequence[float]], list]:
    """``x -> matrix @ x`` for a constant ``(k, n)`` matrix, as a function
    on plain floats: it takes a sequence of n floats and returns a list of
    k.  Each entry is one unrolled expression, the row's products summed in
    column order from 0.0, the bits of :func:`dot` of the row and ``x``;
    the function is compiled here, once, so a kernel applies a constant
    matrix such as a system's ``M^{-1}`` without a Python loop."""
    matrix = np.asarray(matrix, dtype=float)
    # Float reprs round-trip exactly; ``inf`` and ``nan`` are names below.
    names = ", ".join(f"x{j}" for j in range(matrix.shape[1]))
    entries = ", ".join(
        " + ".join(["0.0"] + [f"{a!r} * x{j}" for j, a in enumerate(row)]) for row in matrix.tolist()
    )
    source = f"def apply(x):\n    {names}, = x\n    return [{entries}]\n"
    namespace = {"inf": inf, "nan": nan}
    exec(source, namespace)
    return namespace["apply"]


def transpose_times(rows, coeffs, n: int) -> list:
    """``A^T c`` on plain floats for ``A`` given as rows of n floats: the
    rows scaled by ``coeffs`` and summed in order from 0.0, the bits of
    :func:`matmul` of ``A.T`` and ``c`` entry by entry (n zeros for no
    rows)."""
    total = [0.0] * n
    for c, row in zip(coeffs, rows):
        total = [t + c * x for t, x in zip(total, row)]
    return total


def _inf_norm(values) -> float:
    """Infinity norm of a sequence of floats: NaN if any entry is NaN (as
    ``np.max`` gives), 0 for an empty sequence."""
    norm = 0.0
    for value in values:
        if value != value:
            return nan
        value = abs(value)
        if value > norm:
            norm = value
    return norm


def newton_solve_stats(
    residual: Callable[[list], Sequence[float]],
    x0,
    cfg: Optional[NewtonConfig] = None,
    *,
    jacobian: Callable[[list], Sequence[Sequence[float]]],
):
    """Find ``x`` with ``|residual(x)|_inf <= cfg.residual_tol``.

    Damped Newton iteration on plain floats from the start ``x0``.
    ``residual(x)`` takes the iterate as one list of floats and returns a
    sequence of floats; ``jacobian(x)`` returns its analytic Jacobian as
    rows.  At each step the correction ``d`` of ``J d = f`` (by
    :func:`small_solve` up to three unknowns, else :func:`lu_solve`) is
    taken as ``x - alpha d`` with ``alpha = 1``, and ``alpha`` is halved (at
    most eight times) while the residual norm fails to decrease to a finite
    value; when the halvings run out the smallest step is taken anyway.

    Returns ``(x, iterations)``: ``x`` as a list of floats, and the number
    of accepted Newton updates (0 when the initial guess already satisfies
    the tolerance).

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
    x = [float(v) for v in x0]
    small = len(x) <= 3
    f = residual(x)
    norm = _inf_norm(f)
    for iteration in range(cfg.max_iters):
        if norm <= tol:
            return x, iteration
        if not isfinite(norm):
            raise NoConvergence(iteration, norm)
        d = small_solve(jacobian(x), f) if small else lu_solve(jacobian(x), f).tolist()
        # The full step: 1.0 * d is d.
        alpha = 1.0
        trial = list(map(sub, x, d))
        f_trial = residual(trial)
        trial_norm = _inf_norm(f_trial)
        for _ in range(_MAX_HALVINGS):
            # ``norm`` is finite here, so only a finite norm can be smaller.
            if trial_norm < norm:
                break
            alpha *= 0.5
            trial = [xi - alpha * di for xi, di in zip(x, d)]
            f_trial = residual(trial)
            trial_norm = _inf_norm(f_trial)
        x, f, norm = trial, f_trial, trial_norm
    if norm <= tol:
        return x, cfg.max_iters
    raise NoConvergence(cfg.max_iters, norm)
