"""The flat float kernel one step at a time, kept as the oracle of
:func:`gni.gni_flat.flat_kernel`.

:func:`flat_kernel` here is the per-step ``(start, step, form)`` closure set
that the window kernel writes out with its state in locals, its sums of
products in the order of :mod:`gni.numerics`: the window kernel must
reproduce it bit for bit, in rows, points, residual column and failures.
"""
from __future__ import annotations

from operator import sub

import numpy as np

from gni.gni_flat import _FORM_SHIFT, _STAGE2_WEIGHT, stacked_form
from gni.model import FlatSystem
from gni.numerics import dot, linear_map, solve_gram, transpose_times


def flat_kernel(sys: FlatSystem, h: float, scheme: str):
    """The half-kick / drift / multiplier-resolve step of ``scheme``
    (``"euler_a"``, ``"euler_b"`` or ``"rattle"``) at step size ``h`` on
    plain floats, as the closures ``(start, step, form)``, built once per
    run.

    ``start(q, lam)`` is the point of a row, ``(V_q, mu, Pi, kick)``: the
    gradient, the ``(m, n)`` constraint-row array, the momentum offset
    (``None`` without a drift field or rows) and ``kick = (h/2)(V_q + mu^T
    lam)``, all but ``mu`` lists of floats, for ``q`` and ``lam`` given as
    lists.  ``step(q, p, lam, kick)`` returns the next row's ``q``, ``p`` and
    ``lam`` lists and its point; the kick that closes a step opens the next,
    so each configuration is evaluated once.  The system's callables
    receive ``q`` as a float64 array.  ``form(momenta, mus, grads,
    offsets)`` is :func:`scheme_constraint_residual` of stacked rows and
    their points, in one stacked :func:`gni.numerics.matmul` pass.

    Each ``h``-only factor leads its product, ``M^{-1}`` and its transpose
    are :func:`gni.numerics.linear_map` closures, and the Gram matrix ``mu
    M^{-1} mu^T`` and the other sums of products are
    :func:`gni.numerics.dot`, in the order of :mod:`gni.numerics`.
    """
    half_h, weight_h, two_over_h = 0.5 * h, _STAGE2_WEIGHT[scheme] * h, 2.0 / h
    shift_h = _FORM_SHIFT[scheme] * h
    mass_inv, grad_potential, n = sys.mass_inv, sys.grad_potential, sys.dim
    minv_times, minv_t_times = linear_map(mass_inv), linear_map(mass_inv.T)
    constrained = sys.constraints is not None and sys.num_constraints != 0
    no_rows = np.zeros((0, n))
    affine = constrained and sys.affine_field is not None

    def at(q):
        q = np.array(q)
        grad = np.asarray(grad_potential(q), dtype=float).tolist()
        if not constrained:
            return grad, no_rows, None
        return grad, sys.constraint_matrix(q), sys.momentum_offset(q).tolist() if affine else None

    def impulse(grad, rows, lam):
        # (h/2)(V_q + mu^T lam)
        return [half_h * (g + c) for g, c in zip(grad, transpose_times(rows, lam, n))]

    def start(q, lam):
        grad, mu, offset = at(q)
        return grad, mu, offset, impulse(grad, mu.tolist(), lam)

    def step(q, p, lam, kick):
        p_half = list(map(sub, p, kick))
        q_new = [a + h * v for a, v in zip(q, minv_times(p_half))]
        grad1, mu1, offset = at(q_new)
        rows = mu1.tolist()
        if not rows:
            p_new = [a - half_h * g for a, g in zip(p_half, grad1)]
            return q_new, p_new, lam, (grad1, mu1, offset, impulse(grad1, rows, lam))
        w = list(map(minv_t_times, rows))
        target = [a - weight_h * g for a, g in zip(p_half, grad1)]
        if affine:
            target = list(map(sub, target, offset))
        gram = [[dot(wi, r) for r in rows] for wi in w]
        lam_new = solve_gram(gram, [dot(wi, target) for wi in w])
        lam_new = [two_over_h * x for x in lam_new]
        kick = impulse(grad1, rows, lam_new)
        return q_new, list(map(sub, p_half, kick)), lam_new, (grad1, mu1, offset, kick)

    def form(momenta, mus, grads, offsets):
        return stacked_form(mass_inv, momenta, mus, offsets, shift_h * grads if shift_h else None)

    return start, step, form
