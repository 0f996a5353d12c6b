"""Small dense linear algebra, the one float order of products, and a
damped Newton iteration.

Every implicit solve in this package funnels through the entry points
here, all on plain floats: :func:`lu_solve`, the one elimination, for
square linear systems of any size with one or many right-hand sides
(partial pivoting, each pivot tested against its own column's scale;
:func:`lu_factor` keeps the elimination for more right-hand sides),
:func:`solve_gram` for constraint Gram systems (a division for one row,
else :func:`lu_solve`), and :func:`newton_solve_stats` for nonlinear
root-finding (analytic Jacobian, step damping).  Array callers convert at
their own boundary.  Keeping the solvers in one place makes failure
modes uniform: linear degeneracies surface as
:class:`SingularMatrix` (:class:`RankDeficient` for Gram systems), stalled
iterations as :class:`NoConvergence`.  Every product whose value reaches a
CSV, a kernel constant or a test is summed in one order, defined here and
not by a BLAS: each product rounded on its own, added left to right from
0.0, by :func:`matmul` on arrays and :func:`dot`, :func:`linear_map` and
:func:`transpose_times` on plain floats; only the back substitution of
:func:`lu_solve` starts its sums at their first product.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, nan
from operator import sub
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "SingularMatrix",
    "RankDeficient",
    "NoConvergence",
    "NewtonConfig",
    "default_newton_config",
    "lu_factor",
    "lu_solve",
    "solve_gram",
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
    """Return the default Newton configuration, ``NewtonConfig()``."""
    return NewtonConfig()


class LUFactors(NamedTuple):
    """:func:`lu_factor`'s elimination of ``a``: the eliminated ``rows``,
    ``U`` on and above the diagonal; ``pivots``, the row swapped into row k
    at column k; and ``multipliers``, the ``f`` of each update ``row_i -= f
    row_k`` in the order made."""

    rows: list
    pivots: list
    multipliers: list

    def solve(self, b) -> list:
        """:func:`lu_solve` by these factors, with its layouts, bits and errors."""
        rows, pivots, multipliers = self
        n = len(rows)
        if len(b) != n:
            raise ValueError(f"expected n x n rows and n right-hand sides, got {n} and {len(b)}")
        stacked = n != 0 and isinstance(b[0], (list, tuple))
        xs = [list(c) for c in zip(*b)] if stacked else [list(b)]
        for x in xs:  # the swaps and the updates b_i - f b_k in their order
            f = iter(multipliers).__next__
            for k, p in enumerate(pivots):
                x[p], x[k] = x[k], x[p]
                xk = x[k]
                for i in range(k + 1, n):
                    x[i] -= f() * xk
        return _back_substitute([[*row, *r] for row, r in zip(rows, zip(*xs))], n, stacked)


def lu_factor(a) -> LUFactors:
    """:func:`lu_solve`'s elimination of ``a`` alone, kept for any number of
    right-hand sides; ``ValueError`` if ``a`` is not square."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"expected n x n rows, got rows of lengths {[len(row) for row in a]}")
    rows = [list(row) for row in a]
    return LUFactors(rows, *_eliminate(a, rows))


def lu_solve(a, b) -> list:
    """Solve the square linear system ``a @ x = b`` on plain floats.

    ``a`` is n rows of n floats.  ``b`` is n floats, one right-hand side,
    or n rows (lists or tuples) of k floats, k right-hand sides as columns
    (the layout of a NumPy matrix ``b``); the solution is a list in the
    same layout.  Gaussian elimination: column j takes as pivot the first
    row of largest magnitude at or below the diagonal, and the back
    substitution divides ``b_i - (a_i,i+1 x_i+1 + ... + a_i,n-1 x_n-1)``,
    its products summed left to right, by the pivot.  Each right-hand side
    gets the operations it would get alone; ``b`` rides along in
    :func:`lu_factor`'s elimination, so its ``solve(b)`` gives the same.

    Raises
    ------
    SingularMatrix
        If the pivot of a column j falls at or below ``1e-14 * max_i
        |a_ij|``, the scale of that column of ``a`` as given.  Unlike the
        whole matrix's, a column's own scale follows a scaling of the
        columns, so a well-conditioned matrix whose columns differ in size
        is regular (Higham 2002, ch. 9).
    ValueError
        If ``a`` is not square or ``b`` has not n rows.
    """
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError(f"expected n x n rows and n right-hand sides, got {len(a)} and {len(b)}")
    stacked = n != 0 and isinstance(b[0], (list, tuple))
    # The rows of a with their right-hand-side entries appended.
    rows = [[*row, *r] for row, r in zip(a, b)] if stacked else [[*row, r] for row, r in zip(a, b)]
    _eliminate(a, rows)
    return _back_substitute(rows, n, stacked)


def _eliminate(a, rows) -> tuple:
    """Eliminate ``a``'s columns in ``rows``, its rows with any right-hand
    sides appended, in place; return the pivots and the multipliers."""
    n = len(a)
    thresholds = [_PIVOT_RTOL * max(map(abs, column)) for column in zip(*a)]
    pivots, multipliers = [], []
    for k in range(n):
        pivot_at, magnitude = k, abs(rows[k][k])
        for i in range(k + 1, n):
            if (u := abs(rows[i][k])) > magnitude:
                pivot_at, magnitude = i, u
        if magnitude <= thresholds[k]:
            raise _singular(rows[pivot_at][k], k, thresholds[k])
        top = rows[pivot_at]
        rows[pivot_at], rows[k] = rows[k], top
        pivot = top[k]
        for i in range(k + 1, n):
            multipliers.append(f := rows[i][k] / pivot)
            # The whole row in one pass: its columns left of k are not read again.
            rows[i] = [v - f * w for v, w in zip(rows[i], top)]
        pivots.append(pivot_at)
    return pivots, multipliers


def _back_substitute(rows, n: int, stacked: bool) -> list:
    """Solve the upper triangle of ``rows``' n eliminated columns for each
    right-hand side appended to them, in :func:`lu_solve`'s layout."""
    solutions = []
    for c in range(n, len(rows[0]) if rows else 0):
        x = [0.0] * n
        x[-1] = rows[-1][c] / rows[-1][n - 1]
        for i in range(n - 2, -1, -1):
            row = rows[i]
            total = row[i + 1] * x[i + 1]
            for j in range(i + 2, n):
                total += row[j] * x[j]
            x[i] = (row[c] - total) / row[i]
        solutions.append(x)
    return [list(r) for r in zip(*solutions)] if stacked else solutions[0] if n else []


def _singular(pivot: float, col: int, threshold: float) -> SingularMatrix:
    return SingularMatrix(
        f"pivot {abs(pivot):.3e} at column {col} is below "
        f"{_PIVOT_RTOL:g} * max|a[:, {col}]| = {threshold:.3e}"
    )


def solve_gram(gram, rhs) -> list:
    """Solve ``C x = rhs`` on plain floats for a constraint Gram matrix
    ``C``, SPD when the constraint rows are independent, given as rows of
    floats; ``rhs`` and the result are laid out as :func:`lu_solve`'s.
    One row divides; more go through :func:`lu_solve`.

    Raises
    ------
    RankDeficient
        If the constraint rows are dependent: a 1x1 ``C`` that is not
        positive, or a singular larger one.
    """
    if len(gram) == 1:
        # The column rule passes any nonzero 1x1 pivot, a negative one too: this
        # test, and its inline copies in the flat and three-point kernels, name
        # a vanishing row.
        g = gram[0][0]
        if g <= 0.0:
            raise RankDeficient("constraint row vanishes")
        return [[r / g for r in rhs[0]]] if isinstance(rhs[0], (list, tuple)) else [rhs[0] / g]
    try:
        return lu_solve(gram, rhs)
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
    jacobian: Callable[[list], object],
):
    """Find ``x`` with ``|residual(x)|_inf <= cfg.residual_tol``.

    Damped Newton iteration on plain floats from the start ``x0``.
    ``residual(x)`` takes the iterate as one list of floats and returns a
    sequence of floats; ``jacobian(x)`` returns its analytic Jacobian as
    rows, or factors with a ``solve`` method, as :func:`lu_factor` returns.
    At each step the correction ``d`` of ``J d = f``, by those factors or
    :func:`lu_solve` whatever the number of unknowns, is taken as ``x -
    alpha d`` with ``alpha = 1``, and ``alpha`` is halved (at most eight
    times) while the residual norm fails to decrease to a finite value;
    when the halvings run out the smallest step is taken anyway.

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
    f = residual(x)
    norm = _inf_norm(f)
    for iteration in range(cfg.max_iters):
        if norm <= tol:
            return x, iteration
        if not isfinite(norm):
            raise NoConvergence(iteration, norm)
        jac = jacobian(x)
        d = jac.solve(f) if hasattr(jac, "solve") else lu_solve(jac, f)
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
