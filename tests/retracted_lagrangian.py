"""The retracted discrete Lagrangian that the reduced stepper discretizes,
kept for the tests that check the stepper's closed forms against it.

:func:`gni.gni_reduced.reduced_rattle_step` takes the derivatives of
:func:`standard_retracted_lagrangian` in closed form from the metric blocks
of a :class:`gni.model.ReducedSystem`; the tests compare those closed forms
with these derivatives and with their discrete Legendre transforms.
"""
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from gni.lie_so3 import dcay_inv, dexp_inv
from gni.model import ReducedSystem

_TANGENT_INVERSES = {"cay": dcay_inv, "exp": dexp_inv}


@dataclass(frozen=True)
class RetractedDiscreteLagrangian:
    """Partial derivatives of a discrete Lagrangian in retracted
    coordinates ``(x0, x1, sigma)`` with ``sigma = h*xi`` the algebra
    increment.  ``d1``/``d2`` are the shape gradients, ``d3`` the algebra
    gradient; all take ``(x0, x1, sigma, h)``."""

    d1: Callable
    d2: Callable
    d3: Callable


def standard_retracted_lagrangian(rsys: ReducedSystem) -> RetractedDiscreteLagrangian:
    """Midpoint-kinetic discretization of a constant-metric reduced system:

        l_d = |dx|^2_Gs / 2h + dx . Gc sigma / h + |sigma|^2_Ga / 2h
              - h (V(x0) + V(x1)) / 2

    differentiated in closed form."""
    n = rsys.shape_dim
    gs = rsys.bundle_metric[:n, :n]
    gc = rsys.bundle_metric[:n, n:]
    ga = rsys.bundle_metric[n:, n:]

    def d1(x0, x1, sigma, h):
        v = (x1 - x0) / h
        return -(gs @ v) - gc @ (sigma / h) - 0.5 * h * np.asarray(
            rsys.grad_potential(x0)
        )

    def d2(x0, x1, sigma, h):
        v = (x1 - x0) / h
        return gs @ v + gc @ (sigma / h) - 0.5 * h * np.asarray(rsys.grad_potential(x1))

    def d3(x0, x1, sigma, h):
        v = (x1 - x0) / h
        return gc.T @ v + ga @ (sigma / h)

    return RetractedDiscreteLagrangian(d1, d2, d3)


def reduced_legendre(
    ld: RetractedDiscreteLagrangian,
    x0: np.ndarray,
    x1: np.ndarray,
    xi: np.ndarray,
    h: float,
    retraction: str = "cay",
) -> Tuple[np.ndarray, np.ndarray]:
    """Discrete Legendre transforms of a retracted Lagrangian.

    Returns the pre- and post-momenta ``(p_minus, p_plus)`` as
    concatenated (shape, algebra) vectors: shape parts are ``-D1`` and
    ``+D2``; algebra parts apply the transpose of the inverse retraction
    tangent at ``+h*xi`` (pre) and ``-h*xi`` (post) to ``D3``.
    """
    dtau_inv = _TANGENT_INVERSES[retraction]
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    sigma = h * np.asarray(xi, dtype=float)
    d3 = np.asarray(ld.d3(x0, x1, sigma, h), dtype=float)
    p_minus = np.concatenate(
        [-np.asarray(ld.d1(x0, x1, sigma, h), dtype=float), dtau_inv(sigma).T @ d3]
    )
    p_plus = np.concatenate(
        [np.asarray(ld.d2(x0, x1, sigma, h), dtype=float), dtau_inv(-sigma).T @ d3]
    )
    return p_minus, p_plus
