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
continuous equations of motion, and their classical RK4 step as a window
kernel on plain floats, which the analysis layer's runner steps as a
convergence oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .numerics import (
    RankDeficient,
    dot,
    linear_map,
    lu_solve,
    matmul,
    solve_gram,
    transpose_times,
)

__all__ = [
    "RankDeficient",
    "PotentialError",
    "FlatSystem",
    "ReducedSystem",
    "PhaseState",
    "ReducedState",
    "projectors",
    "reduced_projectors",
    "continuous_rhs",
    "rk4_kernel",
    "RK4",
    "rk4",
    "stacked_form",
    "constraint_residual",
    "energy",
    "energies",
    "kinetic_energies",
    "nonholonomic_particle",
    "constrained_2d",
]

# Step for central finite differences of constraint rows along a direction.
_DIR_FD_STEP = 1e-6


def _spd_matrix(name: str, value, size: int) -> np.ndarray:
    """``value`` as a ``(size, size)`` float array, checked finite, symmetric
    to 1e-12 of its largest entry, and positive definite (by Cholesky)."""
    g = np.array(value, dtype=float)
    if g.shape != (size, size):
        raise ValueError(f"{name} shape {g.shape} != ({size}, {size})")
    if not np.isfinite(g).all():
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(g - g.T), initial=0.0) > 1e-12 * np.max(np.abs(g), initial=0.0):
        raise ValueError(f"{name} must be symmetric")
    np.linalg.cholesky(g)
    return g


def _spd_inverse(g: np.ndarray) -> np.ndarray:
    """``g^{-1}`` by :func:`lu_solve` of ``D g D``, ``D`` the powers of two
    (an exact scaling) that bring the diagonal into [0.5, 2): the relative
    pivot test then sees ``g``'s conditioning, not its units.  The column
    rule of :func:`lu_solve` alone is not enough: it rejects the SPD
    ``[[1e30, 9e14], [9e14, 1]]``, whose last pivot 0.19 is below 1e-14
    times its column's 9e14, and accepts it scaled."""
    d = np.ldexp(1.0, -(np.frexp(np.diag(g))[1] // 2))[:, None]
    return d * np.array(lu_solve((d * g * d.T).tolist(), np.eye(len(g)).tolist())) * d.T


def as_floats(value, rows: bool = False, name: Optional[str] = None, n: int = 0) -> list:
    """A point callable's result as the float kernels take it: a list (of
    lists, for ``rows``) as is, else via a float64 array (1-D: one row); with
    the callable's ``name``, ``ValueError`` unless n floats (per row)."""
    if type(value) is not list or rows and value and type(value[0]) is not list:
        value = np.asarray(value, dtype=float)
        value = (np.atleast_2d(value) if rows else value).tolist()
    if name:
        for line in value if rows else [value]:
            if len(line) != n or not all(isinstance(x, float) for x in line):
                raise ValueError(f"{name} must return {n} floats{' per row' * rows}, not {line!r}")
    return value


@dataclass(eq=False)
class FlatSystem:
    """Mechanical system on R^n with velocity constraints.

    Parameters
    ----------
    dim : int
        Configuration dimension n.
    mass_matrix : (n, n) array
        Constant, finite, symmetric positive definite mass matrix.
    potential, grad_potential : callables
        ``V(q) -> float`` (``q`` a float64 array) and its gradient ``(n,)``.
    constraints : callable or None
        ``q -> (m, n)`` constraint rows, full rank m wherever evaluated;
        ``None`` for an unconstrained system.
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

    The point callables (all but ``potential``) take ``q`` and ``v`` as
    float sequences they index (lists in the float kernels) and return lists
    of floats, rows as lists of them (an ndarray passes :func:`as_floats`).
    ``float_maps`` holds ``M^{-1}``, ``M^{-T}`` and ``M`` as linear maps.
    """

    dim: int
    mass_matrix: np.ndarray
    potential: Callable[[np.ndarray], float]
    grad_potential: Callable[[Sequence[float]], list]
    constraints: Optional[Callable[[Sequence[float]], list]] = None
    num_constraints: int = 0
    affine_field: Optional[Callable[[Sequence[float]], list]] = None
    constraints_derivative: Optional[Callable] = None
    mass_inv: np.ndarray = field(init=False, repr=False)
    float_maps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.mass_matrix = m = _spd_matrix("mass matrix", self.mass_matrix, self.dim)
        self.mass_inv = _spd_inverse(m)
        self.float_maps = (linear_map(self.mass_inv), linear_map(self.mass_inv.T), linear_map(m))

    def constraint_matrix(self, q: np.ndarray) -> np.ndarray:
        """Constraint rows at ``q`` as an (m, n) matrix (possibly empty)."""
        if self.constraints is None or self.num_constraints == 0:
            return np.zeros((0, self.dim))
        return np.atleast_2d(np.asarray(self.constraints(q), dtype=float))

    def drift(self, q: np.ndarray) -> np.ndarray:
        """Velocity-level drift ``Y(q)`` (zero when no affine field)."""
        if self.affine_field is None:
            return np.zeros(self.dim)
        return np.asarray(self.affine_field(q), dtype=float)

    def momentum_offset(self, q: np.ndarray) -> np.ndarray:
        """``Pi(q) = M @ Y(q)``, the momentum-level offset, as the kernels sum it."""
        return matmul(self.mass_matrix, self.drift(q))

    def constraints_dir(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Directional derivative of the constraint rows along ``v``."""
        if self.constraints_derivative is not None:
            return np.atleast_2d(np.asarray(self.constraints_derivative(q, v), dtype=float))
        e = _DIR_FD_STEP
        return (self.constraint_matrix(q + e * v) - self.constraint_matrix(q - e * v)) / (2.0 * e)


def _no_potential(x) -> float:
    return 0.0


def _no_force(x) -> np.ndarray:
    return np.zeros(len(x))


@dataclass(eq=False)
class ReducedSystem:
    """System on shape space R^n times the Lie algebra so(3) (dim k).

    The kinetic metric on the combined (n+k)-dimensional fiber is the
    constant block matrix ``bundle_metric``; ``annihilator(x)`` returns m
    rows annihilating admissible combined velocities ``(v, xi)``, shifted
    by ``affine_section(x)`` in the affine case.  Either may instead be
    declared as an array: constant ``(m, n+k)`` rows, and an ``(n+k, n)``
    matrix ``A`` of the linear section ``A @ x``.  Systems that declare
    both and give no potential can be stepped by
    :func:`gni.gni_reduced.reduced_kernel`.

    With the metric blocks ``Gs`` (shape), ``Gc`` (coupling) and ``Ga``
    (algebra), the constructor caches ``metric_inv`` (the inverse metric),
    ``shape_metric_inv`` (``Gs^{-1}``) and ``algebra_schur`` (the Schur
    complement ``Ga - Gc^T Gs^{-1} Gc``) for the reduced steppers.
    """

    shape_dim: int
    algebra_dim: int
    bundle_metric: np.ndarray
    annihilator: Union[Callable[[np.ndarray], np.ndarray], np.ndarray, None] = None
    num_constraints: int = 0
    potential: Callable[[np.ndarray], float] = _no_potential
    grad_potential: Optional[Callable[[np.ndarray], np.ndarray]] = _no_force
    affine_section: Union[Callable[[np.ndarray], np.ndarray], np.ndarray, None] = None
    metric_inv: np.ndarray = field(init=False, repr=False)
    shape_metric_inv: np.ndarray = field(init=False, repr=False)
    algebra_schur: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        total = self.shape_dim + self.algebra_dim
        self.bundle_metric = g = _spd_matrix("bundle metric", self.bundle_metric, total)
        self.metric_inv = _spd_inverse(g)
        n = self.shape_dim
        self.shape_metric_inv = _spd_inverse(g[:n, :n])
        coupling = g[:n, n:]
        self.algebra_schur = g[n:, n:] - matmul(matmul(coupling.T, self.shape_metric_inv), coupling)
        if self.grad_potential is None:
            self.grad_potential = _no_force
        declared = {
            "annihilator": (self.num_constraints, total),
            "affine_section": (total, n),
        }
        for name, shape in declared.items():
            value = getattr(self, name)
            if value is None or callable(value):
                continue
            value = np.array(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"declared {name} shape {value.shape} != {shape}")
            setattr(self, name, value)

    @property
    def potential_free(self) -> bool:
        """True when neither a potential nor its gradient was given."""
        return self.potential is _no_potential and self.grad_potential is _no_force

    def annihilator_matrix(self, x: np.ndarray) -> np.ndarray:
        if self.annihilator is None or self.num_constraints == 0:
            return np.zeros((0, self.shape_dim + self.algebra_dim))
        if callable(self.annihilator):
            return np.atleast_2d(np.asarray(self.annihilator(x), dtype=float))
        return self.annihilator

    def section(self, x: np.ndarray) -> np.ndarray:
        """Combined velocity-level drift (zero when no affine section)."""
        if self.affine_section is None:
            return np.zeros(self.shape_dim + self.algebra_dim)
        if callable(self.affine_section):
            return np.asarray(self.affine_section(x), dtype=float)
        return matmul(self.affine_section, x)

    def momentum_offset(self, x: np.ndarray) -> np.ndarray:
        """Momentum-level constraint offset ``G @ section(x)``."""
        return matmul(self.bundle_metric, self.section(x))


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
    gram = matmul(matmul(rows, metric_inv), rows.T).tolist()
    coeff = np.array(solve_gram(gram, rows.tolist()))  # C^{-1} mu, shape (m, n)
    q_proj = matmul(matmul(metric_inv, rows.T), coeff)
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
    Only linear constraints are supported (no affine field).  One call of
    the float closure that :func:`rk4_kernel` steps with.

    Raises
    ------
    RankDeficient
        If the constraint rows are dependent at ``q``.
    """
    qdot, pdot = _continuous_kernel(sys)(np.asarray(q, dtype=float).tolist(),
                                         np.asarray(p, dtype=float).tolist())
    return np.array(qdot), np.array(pdot)


def _continuous_kernel(sys: FlatSystem, check: bool = False):
    """:func:`continuous_rhs` of ``sys`` on plain floats, built once:
    ``rhs(q, p) -> (qdot, pdot)`` on lists of floats, which the point
    callables receive (``check`` checks their results by :func:`as_floats`).
    The central difference of the rows, without ``constraints_derivative``,
    is taken entry by entry as the array one, and every sum of products is
    :func:`gni.numerics.dot` or the system's ``float_maps``."""
    if sys.affine_field is not None:
        raise ValueError("continuous_rhs supports linear constraints only")
    minv_times, minv_t_times, _ = sys.float_maps
    e, n, constrained = _DIR_FD_STEP, sys.dim, sys.constraints is not None and sys.num_constraints != 0
    grad_at, rows_at, derivative = sys.grad_potential, sys.constraints, sys.constraints_derivative

    def rhs(q, p):
        v = minv_times(p)
        grad = as_floats(grad_at(q), False, check and "grad_potential", n)
        if not constrained:
            return v, [-g for g in grad]
        rows = as_floats(rows_at(q), True, check and "constraints", n)
        w = list(map(minv_t_times, rows))
        gram = [[dot(wi, r) for r in rows] for wi in w]
        if derivative is not None:
            dmu = as_floats(derivative(q, v), True, check and "constraints_derivative", n)
        else:
            ahead = as_floats(rows_at([a + e * b for a, b in zip(q, v)]), True)
            behind = as_floats(rows_at([a - e * b for a, b in zip(q, v)]), True)
            dmu = [[(x - y) / (2.0 * e) for x, y in zip(r, s)] for r, s in zip(ahead, behind)]
        lam = solve_gram(gram, [dot(d, v) - dot(wi, grad) for d, wi in zip(dmu, w)])
        return v, [-g - c for g, c in zip(grad, transpose_times(rows, lam, n))]

    return rhs


def rk4_kernel(sys: FlatSystem, h: float, m: int):
    """The classical RK4 step of :func:`continuous_rhs` at step size ``h``
    as a window kernel on plain floats under the contract of
    :func:`gni.gni_flat.flat_kernel`: ``(window, form, point_size)``.

    ``window(flat, points, j0, j1)`` carries ``q`` and ``p`` of row ``j0-1``
    in locals and writes row ``j`` as ``[q, p, 0...]`` (``m`` eliminated
    multipliers), and unless ``points`` is ``None`` the ``m x n`` constraint
    rows of each row ``j0-1 .. j1-1``.  A point callable's wrong length at
    the window's first step, or constraint rows at row ``j0-1`` that are
    not ``m``, raise ``ValueError``.  It returns ``None``, ``(j, None)`` for
    the first step ``j`` whose state is not finite, or ``(j, exc)`` for one
    whose multiplier solve raised :class:`RankDeficient` or whose callables
    raised an ``ArithmeticError``.  ``form`` is the momentum form.
    """
    half_h, sixth_h, n, mass_inv = 0.5 * h, h / 6.0, sys.dim, sys.mass_inv
    rhs, first = _continuous_kernel(sys), _continuous_kernel(sys, check=True)
    constraints, constrained = sys.constraints, sys.constraints is not None and sys.num_constraints != 0
    width, point_size, zeros = 2 * n + m, n * m, [0.0] * m

    def rows_at(q):
        rows = as_floats(constraints(q), True, "constraints", n) if constrained else []
        if len(rows) != m:  # else the rows written would lose their places
            raise ValueError(f"{m} multipliers for {len(rows)} constraint rows")
        return sum(rows, [])

    def window(flat, points, j0, j1):
        i, k = width * j0, point_size * (j0 - 1)
        row = flat[i - width : i].tolist()
        q, p = row[:n], row[n : 2 * n]
        j = j0
        try:
            entry = rows_at(q)  # checked whether or not the points are kept
            if points is not None:
                for v in entry:
                    points[k] = v
                    k += 1
            for j in range(j0, j1):
                dq1, dp1 = (first if j == j0 else rhs)(q, p)
                dq2, dp2 = rhs([a + half_h * b for a, b in zip(q, dq1)],
                               [a + half_h * b for a, b in zip(p, dp1)])
                dq3, dp3 = rhs([a + half_h * b for a, b in zip(q, dq2)],
                               [a + half_h * b for a, b in zip(p, dp2)])
                dq4, dp4 = rhs([a + h * b for a, b in zip(q, dq3)], [a + h * b for a, b in zip(p, dp3)])
                q = [a + sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(q, dq1, dq2, dq3, dq4)]
                p = [a + sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(p, dp1, dp2, dp3, dp4)]
                total = sum(q) + sum(p)  # finite unless an entry is, or the sum overflows
                if total - total != 0.0 and not all(map(isfinite, q + p)):
                    return j, None
                for v in q + p + zeros:
                    flat[i] = v
                    i += 1
                if points is not None:
                    for v in rows_at(q):
                        points[k] = v
                        k += 1
        except (ArithmeticError, RankDeficient) as exc:
            return j, exc
        return None

    def form(momenta, points):
        return stacked_form(mass_inv, momenta, points.reshape(-1, m, n))

    return window, form, point_size


class RK4:
    """The RK4 reference, which :func:`gni.analysis.run` steps by its
    ``kernel(sys, h, m)`` as it steps a :class:`gni.gni_flat.FlatStepper`."""

    kernel = staticmethod(rk4_kernel)
    label = "RK4 "  # how a failure names the rows and steps


rk4 = RK4()


def stacked_form(mass_inv, momenta, mus, offsets=None, shift=None) -> np.ndarray:
    """``mu M^{-1}(p - Pi + shift)`` of stacked rows, one stacked
    :func:`gni.numerics.matmul` pass: the momenta ``(N, n)``, their
    constraint rows ``(N, m, n)``, the momentum offsets ``(N, n)`` (``None``
    for none) and an optional ``(N, n)`` shift, added last.  Each row has
    the bits of the per-state form."""
    vec = momenta - offsets if offsets is not None else momenta
    if shift is not None:
        vec = vec + shift
    return matmul(mus, matmul(mass_inv, vec[:, :, None]))[:, :, 0]


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
        return matmul(mu, matmul(system.mass_inv, state.p - system.momentum_offset(state.q)))
    rows = system.annihilator_matrix(state.x)
    if rows.shape[0] == 0:
        return np.zeros(0)
    combined = np.concatenate([state.p, state.p_alg])
    return matmul(rows, matmul(system.metric_inv, combined - system.momentum_offset(state.x)))


def energy(system, state) -> float:
    """Kinetic-plus-potential energy of one state object, as
    :func:`energies` gives it for the state's row."""
    if isinstance(system, ReducedSystem):
        momentum, point = np.concatenate([state.p, state.p_alg]), state.x
        metric_inv = system.metric_inv
    else:
        momentum, point, metric_inv = state.p, state.q, system.mass_inv
    return float(kinetic_energies(metric_inv, momentum[None])[0] + float(system.potential(point)))


class PotentialError(ArithmeticError):
    """The potential raised ``cause`` at ``row`` of the ``count`` rows of :func:`energies`."""

    def __init__(self, row: int, count: int, cause: ArithmeticError):
        super().__init__(f"potential of row {row}: {cause}")
        self.row, self.count, self.cause = row, count, cause


def energies(system, rows: np.ndarray) -> np.ndarray:
    """Kinetic-plus-potential energy of each row of ``rows``.

    Flat rows ``[q, p, lam]``: ``p^T M^{-1} p / 2 + V(q)``.  Reduced rows
    ``[x, p, xi, p_alg, lam]``: the same with the combined momentum ``p ⊕
    p_alg`` and the bundle metric.  The kinetic part is
    :func:`kinetic_energies`.  A potential that raises an
    ``ArithmeticError`` raises :class:`PotentialError` at the first such row.
    """
    if isinstance(system, ReducedSystem):
        n, k = system.shape_dim, system.algebra_dim
        momenta = np.hstack([rows[:, n : 2 * n], rows[:, 2 * n + k : 2 * (n + k)]])
        metric_inv = system.metric_inv
    else:
        n = system.dim
        momenta, metric_inv = rows[:, n : 2 * n].copy(), system.mass_inv
    points = rows[:, :n]
    try:
        potentials = np.fromiter((float(system.potential(x)) for x in points), float, len(rows))
    except ArithmeticError:
        for row, x in enumerate(points):  # the first row whose potential raises
            try:
                float(system.potential(x))
            except ArithmeticError as exc:
                raise PotentialError(row, len(rows), exc) from exc
        raise
    return kinetic_energies(metric_inv, momenta) + potentials


def kinetic_energies(metric_inv: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    """``p^T G^{-1} p / 2`` of each row ``p`` of ``momenta``: one stacked
    :func:`gni.numerics.matmul` form, bit for bit ``(p / 2) . (G^{-1} p)``
    per row."""
    return matmul((0.5 * momenta)[:, None, :], matmul(metric_inv, momenta[:, :, None]))[:, 0, 0]


def nonholonomic_particle(potential: str = "none") -> FlatSystem:
    """Particle in R^3 with unit mass and the velocity constraint
    ``zdot = y * xdot``.

    ``potential`` selects ``"none"`` (V = 0) or ``"harmonic"``
    (V = (x^2 + y^2) / 2).
    """
    if potential == "none":
        v_fn = lambda q: 0.0
        grad = lambda q: [0.0, 0.0, 0.0]
    elif potential == "harmonic":
        v_fn = lambda q: 0.5 * (q[0] ** 2 + q[1] ** 2)
        grad = lambda q: [q[0], q[1], 0.0]
    else:
        raise ValueError(f"unknown potential {potential!r}")
    return FlatSystem(
        dim=3,
        mass_matrix=np.eye(3),
        potential=v_fn,
        grad_potential=grad,
        constraints=lambda q: [[q[1], 0.0, -1.0]],
        num_constraints=1,
        constraints_derivative=lambda q, v: [[v[1], 0.0, 0.0]],
    )


def constrained_2d(affine: Optional[Tuple[float, float]] = None) -> FlatSystem:
    """Planar system with constant constraint row (1, 1), anisotropic mass
    diag(1, 2), and potential ``(x^2 + 2 y^2) / 2``.

    With ``affine=(a, b)`` the admissible velocities satisfy
    ``(v - (a, b)) . (1, 1) = 0`` instead of ``v . (1, 1) = 0``.
    """
    drift = None
    if affine is not None:
        vec = [float(a) for a in affine]
        drift = lambda q: list(vec)
    return FlatSystem(
        dim=2,
        mass_matrix=np.diag([1.0, 2.0]),
        potential=lambda q: 0.5 * (q[0] ** 2 + 2.0 * q[1] ** 2),
        grad_potential=lambda q: [q[0], 2.0 * q[1]],
        constraints=lambda q: [[1.0, 1.0]],
        num_constraints=1,
        affine_field=drift,
        constraints_derivative=lambda q, v: [[0.0, 0.0]],
    )
