"""Constraint-projected variational steppers on flat configuration space.

Three one-step maps advance a :class:`~gni.model.PhaseState`
``(q, p, lam)``:

* ``euler_a_step`` / ``euler_b_step`` — first-order adjoint pair.
  Both kick with the current multiplier, drift, then choose the new
  multiplier so the end state satisfies the scheme's own momentum-level
  constraint form (the forms differ by the sign of a half-step potential
  shift, which is what makes the maps mutual adjoints).
* ``rattle_step`` — second-order, self-adjoint; the end state
  satisfies the plain (or affine) momentum constraint.

All three are :class:`FlatStepper` records: a call takes one step of
:func:`flat_kernel`, the one implementation of the kick, drift and
multiplier resolve, which :func:`gni.analysis.run` steps for a whole run.

:func:`gni_generic_step_stats` is the underlying three-point scheme for an
arbitrary discrete Lagrangian: the new configuration solves

    D1(q_k, q_{k+1}) + (P^T - Q^T) D2(q_{k-1}, q_k) + 2 Q^T Pi(q_k) = 0

with the projectors evaluated at ``q_k``, by Newton iteration with the
analytic Jacobian ``d12(q_k, q_{k+1})``.  With the midpoint (Verlet)
discrete Lagrangian this reproduces rattle positions; with the one-sided
discretizations it reproduces Euler A/B.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import FlatSystem, PhaseState
from .numerics import NewtonConfig, newton_solve_stats, solve_gram

__all__ = [
    "DiscreteLagrangian",
    "verlet_lagrangian",
    "euler_a_lagrangian",
    "euler_b_lagrangian",
    "gni_generic_step_stats",
    "flat_kernel",
    "FlatStepper",
    "euler_a_step",
    "euler_b_step",
    "rattle_step",
    "composed_euler_step",
    "scheme_constraint_residual",
    "prepare_state",
    "state_difference",
]

# Potential weight in each scheme's end-of-step multiplier equation, i.e.
# the coefficient c in  mu M^{-1}(p_half - c*h*V_q(q') - Pi(q')) = (h/2) C lam'.
_STAGE2_WEIGHT = {"euler_a": 0.0, "euler_b": 1.0, "rattle": 0.5}
# Half-step potential shift appearing in each scheme's preserved
# constraint form  mu M^{-1}(p + shift*h*V_q - Pi) = 0.
_FORM_SHIFT = {"euler_a": 0.5, "euler_b": -0.5, "rattle": 0.0}


@dataclass(frozen=True)
class DiscreteLagrangian:
    """Partial derivatives of a two-point discrete Lagrangian.

    ``d1`` and ``d2`` map ``(q0, q1, h)`` to the gradient with respect to
    the first and second argument, and ``d12`` to the ``(n, n)`` cross
    derivative ``d d1 / d q1``, the Jacobian of the generic step.
    """

    d1: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    d2: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    d12: Callable[[np.ndarray, np.ndarray, float], np.ndarray]


def _kinetic_d12(mass: np.ndarray) -> Callable:
    """``d12`` of the shipped discretizations: their kinetic term is
    ``(q1 - q0)^T M (q1 - q0) / 2h`` and each potential term depends on
    one endpoint only, so the cross derivative is the constant ``-M/h``."""
    return lambda q0, q1, h: -mass / h


def verlet_lagrangian(sys: FlatSystem) -> DiscreteLagrangian:
    """Midpoint-kinetic, endpoint-averaged-potential discretization."""
    mass = sys.mass_matrix

    def d1(q0, q1, h):
        v = (q1 - q0) / h
        return -(mass @ v) - 0.5 * h * np.asarray(sys.grad_potential(q0))

    def d2(q0, q1, h):
        v = (q1 - q0) / h
        return mass @ v - 0.5 * h * np.asarray(sys.grad_potential(q1))

    return DiscreteLagrangian(d1, d2, _kinetic_d12(mass))


def euler_a_lagrangian(sys: FlatSystem) -> DiscreteLagrangian:
    """One-sided discretization with the potential at the left endpoint."""
    mass = sys.mass_matrix

    def d1(q0, q1, h):
        return -(mass @ ((q1 - q0) / h)) - h * np.asarray(sys.grad_potential(q0))

    def d2(q0, q1, h):
        return mass @ ((q1 - q0) / h)

    return DiscreteLagrangian(d1, d2, _kinetic_d12(mass))


def euler_b_lagrangian(sys: FlatSystem) -> DiscreteLagrangian:
    """One-sided discretization with the potential at the right endpoint."""
    mass = sys.mass_matrix

    def d1(q0, q1, h):
        return -(mass @ ((q1 - q0) / h))

    def d2(q0, q1, h):
        return mass @ ((q1 - q0) / h) - h * np.asarray(sys.grad_potential(q1))

    return DiscreteLagrangian(d1, d2, _kinetic_d12(mass))


def gni_generic_step_stats(
    ld: DiscreteLagrangian,
    sys: FlatSystem,
    q_prev: np.ndarray,
    q_curr: np.ndarray,
    h: float,
    cfg: Optional[NewtonConfig] = None,
):
    """Advance the three-point projected discrete Euler-Lagrange scheme.

    Solves the n-dimensional residual for ``q_next`` by Newton iteration
    with the Jacobian ``ld.d12(q_curr, q_next, h)``, from the free-flight
    predictor ``2 q_curr - q_prev``.  Returns ``(q_next, iterations)``;
    the Newton iteration count is a per-step diagnostic.

    Raises
    ------
    NoConvergence
        If Newton stalls.
    RankDeficient
        If the projectors are undefined at ``q_curr``.
    """
    from .model import projectors

    q_prev = np.asarray(q_prev, dtype=float)
    q_curr = np.asarray(q_curr, dtype=float)
    p_mat, q_mat = projectors(sys, q_curr)
    carried = (p_mat.T - q_mat.T) @ np.asarray(ld.d2(q_prev, q_curr, h), dtype=float)
    carried = carried + 2.0 * (q_mat.T @ sys.momentum_offset(q_curr))

    def residual(q_next):
        return (ld.d1(q_curr, np.array(q_next), h) + carried).tolist()

    def jacobian(q_next):
        return ld.d12(q_curr, np.array(q_next), h).tolist()

    q_next, iters = newton_solve_stats(
        residual, (2.0 * q_curr - q_prev).tolist(), cfg=cfg, jacobian=jacobian
    )
    return np.array(q_next), iters


def flat_kernel(sys: FlatSystem, h: float, scheme: str):
    """The half-kick / drift / multiplier-resolve step of ``scheme``
    (``"euler_a"``, ``"euler_b"`` or ``"rattle"``) at step size ``h``, as
    the closures ``(start, step, form)``, built once per run.

    ``start(q, lam)`` is the point of a row, ``(V_q, mu, Pi, kick)``: the
    gradient, the ``(m, n)`` constraint rows, the momentum offset (``None``
    without a drift field or rows) and ``kick = (h/2)(V_q + mu^T lam)``.
    ``step(q, p, lam, point)`` returns the next row and its point; the kick
    that closes a step opens the next, so each configuration is evaluated
    once.  ``form(momenta, mus, grads, offsets)`` is
    :func:`scheme_constraint_residual` of stacked rows and their points, in
    one stacked ``matmul`` pass.  Each ``h``-only factor leads its product,
    so the bits are those of the products written out.
    """
    half_h, weight_h, two_over_h = 0.5 * h, _STAGE2_WEIGHT[scheme] * h, 2.0 / h
    shift_h = _FORM_SHIFT[scheme] * h
    mass_inv, grad_potential = sys.mass_inv, sys.grad_potential
    constrained = sys.constraints is not None and sys.num_constraints != 0
    no_rows = np.zeros((0, sys.dim))
    affine = constrained and sys.affine_field is not None

    def at(q):
        grad = np.asarray(grad_potential(q), dtype=float)
        if not constrained:
            return grad, no_rows, None
        return grad, sys.constraint_matrix(q), sys.momentum_offset(q) if affine else None

    def start(q, lam):
        grad, mu, offset = at(q)
        return grad, mu, offset, half_h * (grad + mu.T @ lam)

    def step(q, p, lam, point):
        p_half = p - point[3]
        q_new = q + h * (mass_inv @ p_half)
        grad1, mu1, offset = at(q_new)
        if mu1.shape[0] == 0:
            kick = half_h * (grad1 + mu1.T @ lam)
            return q_new, p_half - half_h * grad1, lam, (grad1, mu1, offset, kick)
        mu1_minv = mu1 @ mass_inv
        target = p_half - weight_h * grad1
        if affine:
            target = target - offset
        lam_new = two_over_h * solve_gram(mu1_minv @ mu1.T, mu1_minv @ target)
        kick = half_h * (grad1 + mu1.T @ lam_new)
        return q_new, p_half - kick, lam_new, (grad1, mu1, offset, kick)

    def form(momenta, mus, grads, offsets):
        # Without a drift field Pi is 0, and p - 0 is p (a copy, contiguous).
        vec = momenta - offsets if offsets is not None else np.array(momenta)
        if shift_h != 0.0:
            vec = vec + shift_h * grads
        return (mus @ (mass_inv @ vec[:, :, None]))[:, :, 0]

    return start, step, form


@dataclass(frozen=True)
class FlatStepper:
    """One of the kick-drift-resolve maps, named by its ``scheme``.

    Calling the record takes one step, ``stepper(sys, state, h)``, by
    :func:`flat_kernel` (``h == 0`` returns ``state``).
    :func:`gni.analysis.run` reads it to step a whole run with that kernel.
    The schemes differ in the constraint form the end state satisfies:

    * ``"euler_a"``: ``mu M^{-1}(p + (h/2) V_q - Pi) = 0``, which the
      incoming state is expected (not forced) to satisfy as well;
    * ``"euler_b"``: ``mu M^{-1}(p - (h/2) V_q - Pi) = 0`` (sign flipped
      versus A, which makes the pair mutual adjoints);
    * ``"rattle"``: the plain (or, with a drift field, affine) momentum
      form ``mu M^{-1}(p - Pi) = 0``; second order and self-adjoint.
    """

    scheme: str

    @property
    def __name__(self) -> str:
        """The one-step map's name, ``<scheme>_step``."""
        return f"{self.scheme}_step"

    def __call__(self, sys: FlatSystem, s: PhaseState, h: float) -> PhaseState:
        if h == 0.0:
            return s
        start, step, _ = flat_kernel(sys, h, self.scheme)
        q, p, lam, _ = step(s.q, s.p, s.lam, start(s.q, s.lam))
        return PhaseState(q, p, lam)


euler_a_step = FlatStepper("euler_a")
euler_b_step = FlatStepper("euler_b")
rattle_step = FlatStepper("rattle")


def composed_euler_step(sys: FlatSystem, s: PhaseState, h: float) -> PhaseState:
    """Half-step of A followed by half-step of B with discrete-Legendre
    momentum matching at the seams.

    Each scheme stores a momentum shifted from the plain (admissible) one
    by its half-step potential term, so the handoffs convert: the incoming
    plain-form momentum is shifted into A's convention, A's outgoing
    momentum into B's, and B's output back to plain form.  Every sub-step
    therefore receives a state on its own constraint form, which is what
    makes the composition of the two first-order adjoint maps second
    order.  Input and output satisfy the plain (affine) momentum form like
    ``rattle_step``, but the map differs from it in the constrained
    case; unconstrained it reduces to the classical position-Verlet
    update at step ``h``.
    """
    if h == 0.0:
        return s
    quarter = 0.25 * h
    grad0 = np.asarray(sys.grad_potential(s.q), dtype=float)
    a_out = euler_a_step(sys, PhaseState(s.q, s.p - quarter * grad0, s.lam), 0.5 * h)
    grad1 = np.asarray(sys.grad_potential(a_out.q), dtype=float)
    b_out = euler_b_step(
        sys, PhaseState(a_out.q, a_out.p + 0.5 * h * grad1, a_out.lam), 0.5 * h
    )
    grad2 = np.asarray(sys.grad_potential(b_out.q), dtype=float)
    return PhaseState(b_out.q, b_out.p - quarter * grad2, b_out.lam)


def scheme_constraint_residual(sys: FlatSystem, s: PhaseState, h: float, scheme: str) -> np.ndarray:
    """Residual of the constraint form preserved by ``scheme`` at step
    size ``h``: ``mu M^{-1}(p + shift*h*V_q - Pi)`` with shift +1/2, -1/2,
    0 for euler_a, euler_b, rattle.  The ``form`` of :func:`flat_kernel`
    gives the same rows, bit for bit, for the stacked rows of a run."""
    mu = sys.constraint_matrix(s.q)
    if mu.shape[0] == 0:
        return np.zeros(0)
    shift = _FORM_SHIFT[scheme]
    vec = s.p - sys.momentum_offset(s.q)
    if shift != 0.0:
        vec = vec + shift * h * np.asarray(sys.grad_potential(s.q), dtype=float)
    return mu @ (sys.mass_inv @ vec)


def prepare_state(
    sys: FlatSystem,
    q: np.ndarray,
    v: np.ndarray,
    scheme: str = "continuous",
    h: float = 0.0,
) -> PhaseState:
    """Build an admissible state from a configuration and velocity guess.

    The momentum ``M v`` is projected onto the admissible set — the
    velocity-level constraint ``mu (v - Y) = 0`` for ``scheme=
    "continuous"``, or the scheme's own momentum form (at step size ``h``)
    for ``"euler_a"``, ``"euler_b"``, ``"rattle"``.  The carried
    multiplier is seeded from the differentiated-constraint formula of the
    continuous dynamics, so the first step starts with an O(1)-accurate
    force balance.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    p_raw = sys.mass_matrix @ v
    mu = sys.constraint_matrix(q)
    if mu.shape[0] == 0:
        return PhaseState(q, p_raw, np.zeros(0))
    mu_minv = mu @ sys.mass_inv
    gram = mu_minv @ mu.T
    vec = p_raw - sys.momentum_offset(q)
    if scheme != "continuous":
        shift = _FORM_SHIFT[scheme]
        if shift != 0.0:
            vec = vec + shift * h * np.asarray(sys.grad_potential(q), dtype=float)
    correction = solve_gram(gram, mu_minv @ vec)
    p = p_raw - mu.T @ correction

    # Multiplier of the continuous dynamics at (q, v): differentiate the
    # velocity constraint along the flow and solve for lam.
    v_adm = sys.mass_inv @ p
    drift = sys.drift(q)
    dmu_v = sys.constraints_dir(q, v_adm)
    grad = np.asarray(sys.grad_potential(q), dtype=float)
    rhs = dmu_v @ (v_adm - drift) - mu_minv @ grad
    if sys.affine_field is not None:
        e = 1e-6
        ddrift = (sys.drift(q + e * v_adm) - sys.drift(q - e * v_adm)) / (2.0 * e)
        rhs = rhs - mu @ ddrift
    lam0 = solve_gram(gram, rhs)
    return PhaseState(q, p, lam0)


def state_difference(s1: PhaseState, s2: PhaseState) -> float:
    """Infinity norm of the (q, p, lam) difference of two states."""
    return max(
        float(np.max(np.abs(s1.q - s2.q))),
        float(np.max(np.abs(s1.p - s2.p))),
        float(np.max(np.abs(s1.lam - s2.lam))) if s1.lam.size else 0.0,
    )
