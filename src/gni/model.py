"""Mechanical system specifications, constraint projectors, and references.

Two kinds of systems are described here.  A :class:`FlatSystem` lives on a
vector configuration space: constant mass matrix, potential, and a set of
velocity-level constraint rows ``mu(q) @ qdot = 0`` (or the affine version
``mu(q) @ (qdot - Y(q)) = 0`` when a drift field ``Y`` is present).  A
:class:`ReducedSystem` lives on shape coordinates plus a Lie-algebra fiber
(here so(3)); its constraints are rows annihilating combined
(shape-velocity, body-velocity) vectors.

The module also provides the orthogonal projector pair onto the constraint
distribution and its metric complement, the eliminated-multiplier
continuous equations of motion, and a classical RK4 reference integrator
used as a convergence oracle by the analysis layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .numerics import RankDeficient, SingularMatrix, lu_solve, solve_gram

__all__ = [
    "RankDeficient",
    "FlatSystem",
    "ReducedSystem",
    "PhaseState",
    "ReducedState",
    "projectors",
    "reduced_projectors",
    "continuous_rhs",
    "reference_solve",
    "constraint_residual",
    "energy",
    "nonholonomic_particle",
    "constrained_2d",
]

# Step for central finite differences of constraint rows along a direction.
_DIR_FD_STEP = 1e-6


def _as_matrix(rows) -> np.ndarray:
    return np.atleast_2d(np.asarray(rows, dtype=float))


@dataclass(eq=False)
class FlatSystem:
    """Mechanical system on R^n with velocity constraints.

    Parameters
    ----------
    dim : int
        Configuration dimension n.
    mass_matrix : (n, n) array
        Constant symmetric positive definite mass matrix.
    potential, grad_potential : callables
        ``V(q) -> float`` and its gradient ``(n,)``.
    constraints : callable or None
        ``q -> (m, n)`` matrix of constraint rows, full rank m wherever
        evaluated; ``None`` for an unconstrained system.
    num_constraints : int
        Row count m (0 allowed).
    affine_field : callable or None
        Optional drift field ``Y(q) -> (n,)``; admissible velocities
        satisfy ``mu(q) @ (v - Y(q)) = 0``.  The momentum-level offset
        ``Pi = M @ Y`` is always derived from ``Y``.
    constraints_derivative : callable or None
        Optional analytic directional derivative ``(q, v) -> (m, n)`` of
        the constraint rows along ``v``; central finite differences with
        step 1e-6 are used when absent.
    """

    dim: int
    mass_matrix: np.ndarray
    potential: Callable[[np.ndarray], float]
    grad_potential: Callable[[np.ndarray], np.ndarray]
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None
    num_constraints: int = 0
    affine_field: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraints_derivative: Optional[Callable] = None
    mass_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.mass_matrix, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"mass matrix shape {m.shape} != ({self.dim}, {self.dim})")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("mass matrix must be symmetric")
        np.linalg.cholesky(m)  # raises LinAlgError unless positive definite
        self.mass_matrix = m
        self.mass_inv = np.linalg.inv(m)

    def constraint_matrix(self, q: np.ndarray) -> np.ndarray:
        """Constraint rows at ``q`` as an (m, n) matrix (possibly empty)."""
        if self.constraints is None or self.num_constraints == 0:
            return np.zeros((0, self.dim))
        return _as_matrix(self.constraints(q))

    def drift(self, q: np.ndarray) -> np.ndarray:
        """Velocity-level drift ``Y(q)`` (zero when no affine field)."""
        if self.affine_field is None:
            return np.zeros(self.dim)
        return np.asarray(self.affine_field(q), dtype=float)

    def momentum_offset(self, q: np.ndarray) -> np.ndarray:
        """``Pi(q) = M @ Y(q)``, the constraint offset at momentum level."""
        if self.affine_field is None:
            return np.zeros(self.dim)
        return self.mass_matrix @ self.drift(q)

    def constraints_dir(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Directional derivative of the constraint rows along ``v``."""
        if self.constraints_derivative is not None:
            return _as_matrix(self.constraints_derivative(q, v))
        e = _DIR_FD_STEP
        return (self.constraint_matrix(q + e * v) - self.constraint_matrix(q - e * v)) / (
            2.0 * e
        )


@dataclass(eq=False)
class ReducedSystem:
    """System on shape space R^n times the Lie algebra so(3) (dim k).

    The kinetic metric on the combined (n+k)-dimensional fiber is the
    constant block matrix ``bundle_metric``; ``annihilator(x)`` returns m
    rows annihilating admissible combined velocities ``(v, xi)``, shifted
    by ``affine_section(x)`` in the affine case.

    With the metric blocks ``Gs`` (shape), ``Gc`` (coupling) and ``Ga``
    (algebra), the constructor caches ``metric_inv`` (the inverse metric),
    ``shape_metric_inv`` (``Gs^{-1}``) and ``algebra_schur`` (the Schur
    complement ``Ga - Gc^T Gs^{-1} Gc``) for the reduced steppers.
    """

    shape_dim: int
    algebra_dim: int
    bundle_metric: np.ndarray
    annihilator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    num_constraints: int = 0
    potential: Callable[[np.ndarray], float] = lambda x: 0.0
    grad_potential: Callable[[np.ndarray], np.ndarray] = None  # type: ignore[assignment]
    affine_section: Optional[Callable[[np.ndarray], np.ndarray]] = None
    metric_inv: np.ndarray = field(init=False, repr=False)
    shape_metric_inv: np.ndarray = field(init=False, repr=False)
    algebra_schur: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        total = self.shape_dim + self.algebra_dim
        g = np.array(self.bundle_metric, dtype=float)
        if g.shape != (total, total):
            raise ValueError(f"bundle metric shape {g.shape} != ({total}, {total})")
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise ValueError("bundle metric must be symmetric")
        np.linalg.cholesky(g)
        self.bundle_metric = g
        self.metric_inv = np.linalg.inv(g)
        n = self.shape_dim
        self.shape_metric_inv = np.linalg.inv(g[:n, :n])
        coupling = g[:n, n:]
        self.algebra_schur = g[n:, n:] - coupling.T @ self.shape_metric_inv @ coupling
        if self.grad_potential is None:
            self.grad_potential = lambda x: np.zeros(self.shape_dim)

    def annihilator_matrix(self, x: np.ndarray) -> np.ndarray:
        if self.annihilator is None or self.num_constraints == 0:
            return np.zeros((0, self.shape_dim + self.algebra_dim))
        return _as_matrix(self.annihilator(x))

    def section(self, x: np.ndarray) -> np.ndarray:
        """Combined velocity-level drift (zero when no affine section)."""
        if self.affine_section is None:
            return np.zeros(self.shape_dim + self.algebra_dim)
        return np.asarray(self.affine_section(x), dtype=float)

    def momentum_offset(self, x: np.ndarray) -> np.ndarray:
        """Momentum-level constraint offset ``G @ section(x)``."""
        if self.affine_section is None:
            return np.zeros(self.shape_dim + self.algebra_dim)
        return self.bundle_metric @ self.section(x)


@dataclass(frozen=True)
class PhaseState:
    """State triple of the flat steppers: configuration, averaged momentum,
    and the multiplier carried between steps.

    ``newton_iters`` is a per-step diagnostic (0 for direct linear solves)
    and is excluded from comparisons.
    """

    q: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    newton_iters: int = field(default=0, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, dtype=float)))


@dataclass(frozen=True)
class ReducedState:
    """State of the reduced steppers: shape point ``x``, shape momentum
    ``p``, body angular velocity ``xi`` (interval velocity), body momentum
    ``p_alg``, and multiplier ``lam``."""

    x: np.ndarray
    p: np.ndarray
    xi: np.ndarray
    p_alg: np.ndarray
    lam: np.ndarray
    newton_iters: int = field(default=0, compare=False)

    def __post_init__(self):
        for name in ("x", "p", "xi", "p_alg"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, dtype=float)))


def _projector_pair(metric_inv: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Projectors (P, Q) for constraint ``rows`` under a kinetic metric."""
    n = metric_inv.shape[0]
    if rows.shape[0] == 0:
        return np.eye(n), np.zeros((n, n))
    gram = rows @ metric_inv @ rows.T
    try:
        coeff = lu_solve(gram, rows)  # C^{-1} mu, shape (m, n)
    except SingularMatrix as exc:
        raise RankDeficient("constraint rows are linearly dependent") from exc
    q_proj = metric_inv @ rows.T @ coeff
    return np.eye(n) - q_proj, q_proj


def projectors(sys: FlatSystem, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Projector pair (P, Q) at ``q``: Q maps onto the metric complement of
    the constraint distribution, P onto the distribution itself.

    Satisfies P+Q=I, P^2=P, Q^2=Q, PQ=0, mu P=0 and P^T M Q = 0.

    Raises
    ------
    RankDeficient
        If the constraint rows are dependent at ``q``.
    """
    return _projector_pair(sys.mass_inv, sys.constraint_matrix(q))


def reduced_projectors(rsys: ReducedSystem, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Projector pair on the combined (n+k)-fiber of a reduced system."""
    return _projector_pair(rsys.metric_inv, rsys.annihilator_matrix(x))


def continuous_rhs(sys: FlatSystem, q: np.ndarray, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the eliminated-multiplier equations of motion.

    ``qdot = M^{-1} p`` and ``pdot = -V_q - mu^T lam`` with the multiplier
    eliminated through the differentiated constraint,
    ``lam = C^{-1} (mu_q[v, v] - mu M^{-1} V_q)``, ``C = mu M^{-1} mu^T``.
    Only linear constraints are supported (no affine field).

    Raises
    ------
    RankDeficient
        If the constraint rows are dependent at ``q``.
    """
    if sys.affine_field is not None:
        raise ValueError("continuous_rhs supports linear constraints only")
    v = sys.mass_inv @ p
    grad = np.asarray(sys.grad_potential(q), dtype=float)
    if sys.num_constraints == 0:
        return v, -grad
    mu = sys.constraint_matrix(q)
    mu_minv = mu @ sys.mass_inv
    gram = mu_minv @ mu.T
    lam = solve_gram(gram, sys.constraints_dir(q, v) @ v - mu_minv @ grad)
    return v, -grad - mu.T @ lam


def reference_solve(sys: FlatSystem, s0: PhaseState, T: float, h_ref: float, record_every: int = 1):
    """Integrate the continuous equations with classical RK4.

    The step is adjusted to ``T / round(T / h_ref)`` so the final time is
    hit exactly.  Returns a :class:`gni.analysis.Trajectory` whose rows are
    every ``record_every``-th node (the final state is always recorded).
    Used as the convergence oracle for the flat steppers.
    """
    from .analysis import Trajectory  # deferred: analysis imports this module

    if T == 0.0:
        return Trajectory.from_rows(sys, [0.0], [s0], h=0.0)
    n_steps = max(1, round(T / h_ref))
    h = T / n_steps
    q, p = s0.q.copy(), s0.p.copy()
    times = [0.0]
    states = [s0]
    for k in range(n_steps):
        dq1, dp1 = continuous_rhs(sys, q, p)
        dq2, dp2 = continuous_rhs(sys, q + 0.5 * h * dq1, p + 0.5 * h * dp1)
        dq3, dp3 = continuous_rhs(sys, q + 0.5 * h * dq2, p + 0.5 * h * dp2)
        dq4, dp4 = continuous_rhs(sys, q + h * dq3, p + h * dp3)
        q = q + (h / 6.0) * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
        p = p + (h / 6.0) * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4)
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            times.append((k + 1) * h)
            states.append(PhaseState(q, p, np.zeros(sys.num_constraints)))
    return Trajectory.from_rows(sys, times, states, h=h)


def constraint_residual(system, state) -> np.ndarray:
    """Momentum-level constraint residual of a state.

    Flat: ``mu(q) M^{-1} (p - Pi(q))``.  Reduced: the annihilator rows
    applied to ``G^{-1} ((p ⊕ p_alg) - Pi(x))``.  Length-m vector (empty
    for unconstrained systems).
    """
    if isinstance(state, PhaseState):
        mu = system.constraint_matrix(state.q)
        if mu.shape[0] == 0:
            return np.zeros(0)
        return mu @ (system.mass_inv @ (state.p - system.momentum_offset(state.q)))
    rows = system.annihilator_matrix(state.x)
    if rows.shape[0] == 0:
        return np.zeros(0)
    combined = np.concatenate([state.p, state.p_alg])
    return rows @ (system.metric_inv @ (combined - system.momentum_offset(state.x)))


def energy(system, state) -> float:
    """Kinetic-plus-potential energy of a state.

    Flat: ``p^T M^{-1} p / 2 + V(q)``.  Reduced: the same with the combined
    momentum and the bundle metric.
    """
    if isinstance(state, PhaseState):
        return 0.5 * state.p @ (system.mass_inv @ state.p) + float(
            system.potential(state.q)
        )
    combined = np.concatenate([state.p, state.p_alg])
    return 0.5 * combined @ (system.metric_inv @ combined) + float(
        system.potential(state.x)
    )


def nonholonomic_particle(potential: str = "none") -> FlatSystem:
    """Particle in R^3 with unit mass and the velocity constraint
    ``zdot = y * xdot``.

    ``potential`` selects ``"none"`` (V = 0) or ``"harmonic"``
    (V = (x^2 + y^2) / 2).
    """
    if potential == "none":
        v_fn = lambda q: 0.0
        grad = lambda q: np.zeros(3)
    elif potential == "harmonic":
        v_fn = lambda q: 0.5 * (q[0] ** 2 + q[1] ** 2)
        grad = lambda q: np.array([q[0], q[1], 0.0])
    else:
        raise ValueError(f"unknown potential {potential!r}")
    return FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=v_fn,
        grad_potential=grad,
        constraints=lambda q: np.array([[q[1], 0.0, -1.0]]),
        num_constraints=1,
        constraints_derivative=lambda q, v: np.array([[v[1], 0.0, 0.0]]),
    )


def constrained_2d(affine: Optional[Tuple[float, float]] = None) -> FlatSystem:
    """Planar system with constant constraint row (1, 1), anisotropic mass
    diag(1, 2), and potential ``(x^2 + 2 y^2) / 2``.

    With ``affine=(a, b)`` the admissible velocities satisfy
    ``(v - (a, b)) . (1, 1) = 0`` instead of ``v . (1, 1) = 0``.
    """
    drift = None
    if affine is not None:
        vec = np.array(affine, dtype=float)
        drift = lambda q: vec
    return FlatSystem(
        dim=2,
        mass_matrix=np.diag([1.0, 2.0]),
        potential=lambda q: 0.5 * (q[0] ** 2 + 2.0 * q[1] ** 2),
        grad_potential=lambda q: np.array([q[0], 2.0 * q[1]]),
        constraints=lambda q: np.array([[1.0, 1.0]]),
        num_constraints=1,
        affine_field=drift,
        constraints_derivative=lambda q, v: np.array([[0.0, 0.0]]),
    )
