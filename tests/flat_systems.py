"""Flat test systems shared by the three-point and RK4 conformance tests."""
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
