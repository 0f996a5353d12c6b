"""The unrolled 1x1 to 3x3 elimination that :func:`gni.numerics.lu_solve`
replaced, kept as its bit oracle.

:func:`small_solve` is partial pivoting to the first row of largest
magnitude and the back substitution ``(b_i - (a_i,i+1 x_i+1 + ...)) /
a_ii``, written out on plain floats.  Its pivot test is the old whole-matrix
rule, ``1e-14 * max|a|``: wherever it solves, :func:`lu_solve` must give
its bits, and wherever :func:`lu_solve` raises, so must it (the column rule
is never stricter).
"""
from __future__ import annotations

from gni.numerics import SingularMatrix

_PIVOT_RTOL = 1e-14


def _singular(pivot: float, col: int, threshold: float) -> SingularMatrix:
    return SingularMatrix(
        f"pivot {abs(pivot):.3e} at column {col} is below "
        f"{_PIVOT_RTOL:g} * max|a| = {threshold:.3e}"
    )


def small_solve(a, b) -> tuple:
    """Solve ``a @ x = b`` for n = 1, 2 or 3 on plain floats: ``a`` as n rows
    of n floats, ``b`` as n floats, the solution as a tuple.

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
