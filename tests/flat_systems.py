"""Flat test systems shared by the three-point, window and RK4 conformance tests."""
import dataclasses
import math

import numpy as np

from gni.model import FlatSystem


def two_row_system() -> FlatSystem:
    """Two constraint rows and an anisotropic diagonal mass: the 2x2 Gram
    solve, whose ``mu M^{-1} mu^T`` sums an exact and an inexact product."""
    return FlatSystem(
        dim=4,
        mass_matrix=np.diag([1.0, 2.0, 1.0, 3.0]),
        potential=lambda q: 0.5 * float(q @ q),
        grad_potential=lambda q: np.asarray(q, dtype=float),
        constraints=lambda q: np.array([[q[1], 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -q[0]]]),
        num_constraints=2,
    )


RETURN_KINDS = ("list", "1d", "2d")


def returning(kind: str, sys: FlatSystem) -> FlatSystem:
    """``sys`` with its point callables' results re-typed: plain lists of
    floats (``"list"``); float64 vectors and a one-row result as a 1-D
    array, more rows as a list of 1-D arrays (``"1d"``); or float64 vectors
    and 2-D rows (``"2d"``).  The values, and so the bits, are unchanged."""

    def vector(value):
        value = np.asarray(value, dtype=float)
        return value.tolist() if kind == "list" else value

    def rows(value):
        value = np.atleast_2d(np.asarray(value, dtype=float))
        if kind == "1d":
            return value[0] if len(value) == 1 else list(value)
        return value.tolist() if kind == "list" else value

    def wrap(fn, out):
        return None if fn is None else lambda *args: out(fn(*args))

    return dataclasses.replace(
        sys,
        grad_potential=wrap(sys.grad_potential, vector),
        constraints=wrap(sys.constraints, rows),
        affine_field=wrap(sys.affine_field, vector),
        constraints_derivative=wrap(sys.constraints_derivative, rows),
    )


def cube_or_inf(x: float) -> float:
    """``-(x ** 3)``, or the infinity NumPy would give where it overflows."""
    try:
        return -(x ** 3)
    except OverflowError:
        return -math.copysign(math.inf, x)


def cubic_repeller(grad_potential) -> FlatSystem:
    """``q'' = q^3`` in 2-D with the given gradient of ``-|q|^4 / 4``: the
    state grows until the cube of q overflows."""
    return FlatSystem(
        dim=2,
        mass_matrix=np.eye(2),
        potential=lambda q: -0.25 * float(np.sum(np.asarray(q) ** 4)),
        grad_potential=grad_potential,
    )
