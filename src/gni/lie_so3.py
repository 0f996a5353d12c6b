"""Rotation-group calculus: hat map, retractions, and tangent inverses.

Provides the skew/vector isomorphism on so(3), two retractions from the
algebra to SO(3) — the Cayley transform and the matrix exponential — and
the right-trivialized tangent maps needed to move momenta between the
algebra and its dual along a retraction.  All maps act on plain numpy
vectors (length 3) and matrices (3 x 3), their products in the order of
:func:`gni.numerics.matmul`.

Conventions: ``hat(w) @ x == cross(w, x)``; tangent maps are
right-trivialized, i.e. ``d/dt tau(w + t*eta) |_0 = hat(dtau(w) @ eta) @
tau(w)``; ``Ad(R) @ xi`` is conjugation expressed in vector form and
``Ad_star`` is its adjoint with respect to the Euclidean pairing.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, factorial, inf, nan, sin, sqrt

import numpy as np

from .numerics import matmul

__all__ = [
    "NotSkew",
    "hat",
    "vee",
    "cay",
    "dcay",
    "dcay_inv",
    "exp_so3",
    "exp_coefficients",
    "dexp_inv",
    "Ad",
    "Ad_star",
]

_SKEW_TOL = 1e-10
# Angle below which Rodrigues coefficients switch to Taylor expansions.
_SMALL_ANGLE = 1e-8


class NotSkew(ValueError):
    """Raised by :func:`vee` when its argument is not antisymmetric."""


def hat(w: np.ndarray) -> np.ndarray:
    """Map a vector in R^3 to the skew matrix with ``hat(w) @ x = w x x``."""
    w = np.asarray(w, dtype=float)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def vee(s: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`.

    Raises
    ------
    NotSkew
        If ``|s + s.T|`` exceeds ``1e-10`` entrywise.
    """
    s = np.asarray(s, dtype=float)
    if np.max(np.abs(s + s.T)) > _SKEW_TOL:
        raise NotSkew("matrix is not antisymmetric within 1e-10")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def cay(w: np.ndarray) -> np.ndarray:
    """Cayley retraction so(3) -> SO(3).

    ``cay(w) = I + 4/(4 + |w|^2) * (hat(w) + hat(w)^2 / 2)``; an exact
    rotation matrix for every ``w``, second-order accurate to ``exp_so3``.
    """
    w = np.asarray(w, dtype=float)
    s = hat(w)
    return np.eye(3) + (4.0 / (4.0 + matmul(w, w))) * (s + 0.5 * matmul(s, s))


def dcay(w: np.ndarray) -> np.ndarray:
    """Right-trivialized tangent of :func:`cay`:
    ``2/(4 + |w|^2) * (2 I + hat(w))``."""
    w = np.asarray(w, dtype=float)
    return (2.0 / (4.0 + matmul(w, w))) * (2.0 * np.eye(3) + hat(w))


def dcay_inv(w: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dcay`: ``I - hat(w)/2 + w w^T / 4`` (exact)."""
    w = np.asarray(w, dtype=float)
    return np.eye(3) - 0.5 * hat(w) + 0.25 * np.outer(w, w)


def exp_so3(w: np.ndarray) -> np.ndarray:
    """Matrix exponential so(3) -> SO(3) in Rodrigues form.

    For angles below ``1e-8`` the trigonometric coefficients are replaced
    by their Taylor expansions to avoid cancellation.
    """
    w = np.asarray(w, dtype=float)
    a, b = exp_coefficients(sqrt(matmul(w, w)))
    s = hat(w)
    return np.eye(3) + a * s + b * matmul(s, s)


def exp_coefficients(theta: float):
    """The Rodrigues coefficients ``(sin(theta)/theta, (1 - cos(theta)) /
    theta^2)`` of :func:`exp_so3` at the angle ``theta`` (a float).

    Below ``1e-8`` they are Taylor expansions; at an infinite angle they
    are NaN (``math.sin`` would raise), so an overflowed increment gives a
    NaN rotation rather than an error.
    """
    if theta < _SMALL_ANGLE:
        return 1.0 - theta * theta / 6.0, 0.5 - theta * theta / 24.0
    if theta == inf:
        return nan, nan
    return sin(theta) / theta, (1.0 - cos(theta)) / (theta * theta)


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), computed exactly."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    binom = 1
    for k in range(n):
        total += binom * _bernoulli(k)
        binom = binom * (n + 1 - k) // (k + 1)
    return -total / (n + 1)


def dexp_inv(w: np.ndarray, order: int = 4) -> np.ndarray:
    """Inverse right-trivialized tangent of :func:`exp_so3`.

    Truncated series ``sum_j B_j / j! * hat(w)^j`` up to ``hat(w)^order``
    with Bernoulli numbers ``B_j`` (``B_1 = -1/2``).  The default order 4
    is accurate for the small arguments arising in time stepping; raise
    the order for large ``|w|`` (the series converges for ``|w| < 2*pi``).
    """
    w = np.asarray(w, dtype=float)
    s = hat(w)
    result = np.eye(3)
    power = np.eye(3)
    for j in range(1, order + 1):
        power = matmul(power, s)
        coeff = _bernoulli(j)
        if coeff:
            result = result + (float(coeff) / factorial(j)) * power
    return result


def Ad(rot: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Adjoint action of SO(3) on so(3) in vector form: ``rot @ xi``."""
    return matmul(rot, xi)


def Ad_star(rot: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Coadjoint action, the pairing-adjoint of :func:`Ad`: ``rot.T @ m``."""
    return matmul(np.asarray(rot, dtype=float).T, m)
