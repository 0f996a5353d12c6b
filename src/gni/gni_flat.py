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
discretizations it reproduces Euler A/B.  :func:`three_point_kernel` is
that step as a window kernel, which :func:`gni.analysis.run` steps.

Both kernels step on plain Python floats: the system's and the discrete
Lagrangian's point callables take positions as lists, and the algebra
between them runs on lists, every sum of products in the order of
:mod:`gni.numerics`.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from struct import Struct
from typing import Callable, Optional

import numpy as np

from .model import FlatSystem, PhaseState, as_floats, stacked_form
from .numerics import (
    NewtonConfig,
    NoConvergence,
    RankDeficient,
    SingularMatrix,
    default_newton_config,
    dot,
    lu_factor,
    matmul,
    newton_solve_stats,
    solve_gram,
    sum_text,
    transpose_times,
)

__all__ = [
    "DiscreteLagrangian",
    "verlet_lagrangian",
    "euler_a_lagrangian",
    "euler_b_lagrangian",
    "gni_generic_step_stats",
    "three_point_kernel",
    "flat_kernel",
    "stacked_form",
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
    """Partial derivatives of a two-point discrete Lagrangian, as point
    callables on plain floats.

    ``d1`` and ``d2`` map ``(q0, q1, h)``, the positions lists of n floats,
    to the gradient with respect to the first and second argument as n
    floats, and ``d12`` to the cross derivative ``d d1 / d q1`` as n rows of
    n floats, the Jacobian of the generic step.  An ndarray result passes
    :func:`~gni.model.as_floats`.
    """

    d1: Callable[[list, list, float], list]
    d2: Callable[[list, list, float], list]
    d12: Callable[[list, list, float], list]

    def kernel(self, sys: FlatSystem, h: float, m: int):
        """:func:`three_point_kernel` of this discrete Lagrangian."""
        return three_point_kernel(self, sys, h, m)


def _endpoint_lagrangian(sys: FlatSystem, left: float, right: float) -> DiscreteLagrangian:
    """The shipped discretizations: kinetic term ``(q1 - q0)^T M (q1 - q0) /
    2h`` and the potential weighted ``left`` at ``q0`` and ``right`` at
    ``q1``, so ``d1 = -M (q1 - q0)/h - left h V_q(q0)``, ``d2 = M (q1 -
    q0)/h - right h V_q(q1)``, each momentum through the system's
    ``float_maps``, and ``d12`` the constant ``-M/h``, with the bits of
    ``-mass / h``."""
    mass_times, grad, mass = sys.float_maps[2], sys.grad_potential, sys.mass_matrix.tolist()

    def d1(q0, q1, h):
        p = mass_times([(b - a) / h for a, b in zip(q0, q1)])
        return [-v - left * h * g for v, g in zip(p, as_floats(grad(q0)))] if left else [-v for v in p]

    def d2(q0, q1, h):
        p = mass_times([(b - a) / h for a, b in zip(q0, q1)])
        return [v - right * h * g for v, g in zip(p, as_floats(grad(q1)))] if right else p

    return DiscreteLagrangian(d1, d2, lambda q0, q1, h: [[-a / h for a in row] for row in mass])


def verlet_lagrangian(sys: FlatSystem) -> DiscreteLagrangian:
    """Midpoint-kinetic, endpoint-averaged-potential discretization."""
    return _endpoint_lagrangian(sys, 0.5, 0.5)


def euler_a_lagrangian(sys: FlatSystem) -> DiscreteLagrangian:
    """One-sided discretization with the potential at the left endpoint."""
    return _endpoint_lagrangian(sys, 1.0, 0.0)


def euler_b_lagrangian(sys: FlatSystem) -> DiscreteLagrangian:
    """One-sided discretization with the potential at the right endpoint."""
    return _endpoint_lagrangian(sys, 0.0, 1.0)


def gni_generic_step_stats(ld: DiscreteLagrangian, sys: FlatSystem, q_prev: np.ndarray,
                           q_curr: np.ndarray, h: float, cfg: Optional[NewtonConfig] = None):
    """Advance the three-point projected discrete Euler-Lagrange scheme: one
    step of :func:`three_point_kernel` from the free-flight predictor ``2
    q_curr - q_prev``, on rows 1 and 2 of a four-row buffer (step 2, so no
    seed).  Returns ``(q_next, iterations)``, ``q_next`` a float64 array and
    the accepted Newton updates a per-step diagnostic, or raises the step's
    failure: :class:`~gni.numerics.NoConvergence` if Newton stalls,
    :class:`~gni.numerics.RankDeficient` if the projectors are undefined at
    ``q_curr``."""
    n = sys.dim
    rows = np.zeros((4, 2 * n))
    rows[1, :n], rows[2, :n] = q_prev, q_curr
    counts = np.zeros(4, dtype=int)
    failed = three_point_kernel(ld, sys, h, 0, cfg)[0](memoryview(rows.reshape(-1)), None, memoryview(counts), 2, 3)
    if failed is not None:
        raise failed[1]
    return rows[3, :n], int(counts[2])


def three_point_kernel(ld: DiscreteLagrangian, sys: FlatSystem, h: float, m: int,
                       cfg: Optional[NewtonConfig] = None):
    """The step of :func:`gni_generic_step_stats` as a window kernel on plain
    floats, built once per run of rows ``[q, p, lam]`` with ``m``
    multipliers: ``(window, form, point_size)``.

    ``window(flat, points, counts, j0, j1)`` takes the steps ``j0 .. j1-1`` on
    a buffer of such rows seen as the flat float memoryview ``flat``: step
    ``j`` reads positions ``j-1`` and ``j`` (carried in locals from the step
    before) and writes position ``j+1`` and its accepted Newton updates,
    ``counts[j]``; step 1 first seeds position 1 with one :data:`rattle_step`
    of row 0.  One stacked :func:`gni.numerics.matmul` pass gives each row
    its steps closed the central-difference momentum ``M (q_{j+1} -
    q_{j-1}) / (2h)``, which the scheme keeps on the constraint, and zero
    multipliers.  Unless ``points`` is ``None``, it writes there the point
    of each row ``j0-1 .. j1-1``: the constraint rows and, with a drift
    field, the momentum offset ``M Y``.  It returns ``None`` or ``(j,
    exc)``, as :func:`flat_kernel` does, ``exc`` also a solver's
    :class:`~gni.numerics.NoConvergence` or
    :class:`~gni.numerics.SingularMatrix`; a wrong length from a callable,
    or constraint rows other than the system declares, raise ``ValueError``
    naming the step.
    ``form(rows, points)`` is the momentum form ``mu M^{-1}(p - Pi)`` of
    stacked rows, one :func:`stacked_form` pass.

    The step takes ``(I - Q)^T - Q^T`` from one Gram solve, ``Q = M^{-1}
    mu^T C^{-1} mu`` (one constraint row: :func:`~gni.numerics.solve_gram`'s
    division and ``g <= 0`` test, inline), and hands the residual ``D1(q_curr,
    q_next) + (P^T - Q^T) D2(q_prev, q_curr) + 2 Q^T Pi`` with the Jacobian
    ``d12`` to :func:`gni.numerics.newton_solve_stats`, so a general discrete
    Lagrangian takes as many iterations as it needs; every sum of products
    is in the order of :mod:`gni.numerics`.  ``d12`` rows that differ from
    the last are solved by :func:`~gni.numerics.lu_solve`; rows met again
    are factored by :func:`~gni.numerics.lu_factor`, and the run keeps the
    factors while the rows' bits stay.  So the constant ``-M/h`` of the
    shipped Lagrangians is factored once per run, a ``d12`` that changes at
    every iteration costs a list comparison more, and each Newton system
    keeps the bits of :func:`~gni.numerics.lu_solve`.
    """
    if cfg is None:
        cfg = default_newton_config()
    n, mass_inv, mass, width = sys.dim, sys.mass_inv, sys.mass_matrix, 2 * sys.dim + m
    minv_times, minv_t_times, mass_times = sys.float_maps
    constraints, affine_field = sys.constraints, sys.affine_field
    constrained = constraints is not None and sys.num_constraints != 0
    affine = constrained and affine_field is not None
    nc = sys.num_constraints if constrained else 0
    point_size = n * (nc + affine)
    identity = [[float(a == b) for b in range(n)] for a in range(n)]
    d1, d2, d12 = ld.d1, ld.d2, ld.d12
    bits_of = Struct(f"{n * n}d").pack
    kept = [None, b"", None]  # the last d12 rows; the bits of the factored ones, their lu_factor

    def rows_at(q, check):
        rows = as_floats(constraints(q), True, check and "constraints", n) if constrained else []
        if len(rows) != nc:  # else the points written would lose their places
            raise ValueError(f"constraints must return {nc} rows, not {len(rows)}")
        return rows

    def window(flat, points, counts, j0, j1):
        i, k = width * (j0 + 1), point_size * (j0 - 1)
        j, check, carried, failed = j0, True, [], None

        def residual(q_next):
            value = as_floats(d1(q_curr, q_next, h), False, check and "d1", n)
            if len(value) != n:  # as_floats' check, at every step
                as_floats(value, False, "d1", n)
            return list(map(add, value, carried))

        def jacobian(q_next):
            rows = as_floats(d12(q_curr, q_next, h), True, check and "d12", n)
            if rows != kept[0]:  # rows met first are checked
                kept[0] = as_floats(rows, True, "d12", n)
                return rows
            if (bits := bits_of(*sum(rows, []))) != kept[1]:  # bits, not ==: -0.0 == 0.0
                kept[1:] = bits, lu_factor(rows)
            return kept[2]

        try:
            if j0 == 1 < j1:  # step 1 seeds position 1 with one rattle step of row 0
                row = np.asarray(flat)[: width + n]
                row[width:] = rattle_step(sys, PhaseState(row[:n], row[n : 2 * n], row[2 * n : width]), h).q
            q_prev, q_curr = (flat[a : a + n].tolist() for a in (i - 2 * width, i - width))
            rows = rows_at(q_prev, True)
            offset = mass_times(as_floats(affine_field(q_prev), False, "affine_field", n)) if affine else []
            if points is not None:
                for v in sum(rows, []) + offset:
                    points[k] = v
                    k += 1
            for j in range(j0, j1):
                check = j == j0  # the first step checks every result in full
                rows = rows_at(q_curr, check)
                carried = as_floats(d2(q_prev, q_curr, h), False, check and "d2", n)
                if len(carried) != n:  # as_floats' check, at every step
                    as_floats(carried, False, "d2", n)
                if rows:
                    # (P^T - Q^T) D2 + 2 Q^T Pi with P = I - Q, where row i of Q^T
                    # sums over the rows l (C^{-1} mu)_li (M^{-1} mu^T)_l, in dot's order.
                    if len(rows) == 1:  # solve_gram's division and test, inline
                        r, mr = rows[0], minv_times(rows[0])
                        if (g := dot(minv_t_times(r), r)) <= 0.0:
                            raise RankDeficient("constraint row vanishes")
                        q_t = [[0.0 + c * v for v in mr] for c in [x / g for x in r]]
                    else:
                        gram = [[dot(w, r) for r in rows] for w in map(minv_t_times, rows)]
                        m_rows = list(map(minv_times, rows))
                        q_t = [transpose_times(m_rows, c, n) for c in zip(*solve_gram(gram, rows))]
                    carried = [
                        dot([(e - v) - v for e, v in zip(unit, row)], carried)
                        for unit, row in zip(identity, q_t)
                    ]
                    if affine:
                        offset = mass_times(as_floats(affine_field(q_curr)))
                        carried = [c + 2.0 * dot(row, offset) for c, row in zip(carried, q_t)]
                start = [2.0 * c - p for c, p in zip(q_curr, q_prev)]
                q_next, counts[j] = newton_solve_stats(residual, start, cfg, jacobian=jacobian)
                for v in q_next:
                    flat[i] = v
                    i += 1
                i += width - n
                if points is not None:
                    for v in sum(rows, []) + offset:
                        points[k] = v
                        k += 1
                q_prev, q_curr = q_curr, q_next
            j = j1
        except (NoConvergence, SingularMatrix, RankDeficient, ArithmeticError) as exc:
            failed = j, exc
        except ValueError as exc:  # a wrong length, at the step that met it
            raise ValueError(f"{exc}, at step {j}") from exc
        if j > j0:  # rows j0 .. j-1, whose positions j0-1 .. j are written
            buf = np.asarray(flat).reshape(-1, width)
            q = buf[j0 - 1 : j + 1, :n]
            buf[j0:j, n : 2 * n] = matmul(mass, (q[2:] - q[:-2])[:, :, None])[:, :, 0] / (2.0 * h)
            buf[j0:j, 2 * n :] = 0.0
        return failed

    def form(rows, points):
        mus = points[:, : nc * n].reshape(-1, nc, n)
        return stacked_form(mass_inv, rows[:, n : 2 * n], mus, points[:, nc * n :] if affine else None)

    return window, form, point_size


# The compiled ``bind`` of each shape ``(n, m, constrained, affine)`` met.
_STEPS: dict = {}


def _step_source(n: int, m: int, constrained: bool, affine: bool) -> str:
    """The text of ``bind(h, ..., affine_field)``, which returns ``steps(flat,
    points, j0, j1, i, k, *q, *p, *lam, *kick)``: :func:`flat_kernel`'s steps
    as straight-line code on scalar locals, writing from the byte offsets
    ``i`` and ``k``; every sum of products is :func:`gni.numerics.sum_text`."""
    N, L, solve = range(n), range(m), m > 0  # an unconstrained row has no multipliers

    def names(*prefixes, indices=N):
        return ", ".join(f"{prefix}{i}" for prefix in prefixes for i in indices)

    def rows(prefix, count):  # the nested unpack target of count rows
        return ", ".join(f"[{names(f'{prefix}{a}_')}]" for a in range(count))

    def unpack(target, name, nested):  # as_floats' fast path; a wrong length fails its check
        fast = "type(v) is list and v and type(v[0]) is list" if nested else "type(v) is list"
        return [f"v = {name}(qs)", "try:", f"    [{target}] = v if {fast} else as_floats(v, {nested})",
                "except ValueError:", f"    as_floats(v, {nested}, {name!r}, {n})",
                f"    raise ValueError(f'{name} must return {m} rows, not {{len(v)}}') from None"]

    body = [f"s{i} = p{i} - k{i}" for i in N]  # the half-step momentum
    body += [f"q{i} = q{i} + h * {sum_text((f'a{i}_{j}', f's{j}') for j in N)}" for i in N]
    body += [f"qs = [{names('q')}]", *unpack(names("g"), "grad_potential", False)]
    body += unpack(rows("r", m), "constraints", True) if constrained else []
    if affine:  # the momentum offset M Y
        body += unpack(names("y"), "affine_field", False)
        body += [f"o{i} = {sum_text((f'b{i}_{j}', f'y{j}') for j in N)}" for i in N]
    if solve:  # w = M^{-T} mu, from the columns of M^{-1}; target (p_half - weight h V_q) - M Y
        body += [f"w{a}_{i} = {sum_text((f'a{j}_{i}', f'r{a}_{j}') for j in N)}" for a in L for i in N]
        body += [f"t{i} = s{i} - weight_h * g{i}" + f" - o{i}" * affine for i in N]
        gram = [", ".join(sum_text((f"w{a}_{i}", f"r{b}_{i}") for i in N) for b in L) for a in L]
        rhs = [sum_text((f"w{a}_{i}", f"t{i}") for i in N) for a in L]
        if m == 1:  # solve_gram's division and g <= 0 test, inline
            body += [f"gram = {gram[0]}", "if gram <= 0.0:", '    return j, RankDeficient("constraint row vanishes")',
                     f"l0 = two_over_h * ({rhs[0]} / gram)"]
        else:
            body += [f"[{names('l', indices=L)}] = solve_gram([[{'], ['.join(gram)}]], [{', '.join(rhs)}])"]
            body += [f"l{a} = two_over_h * l{a}" for a in L]
    else:
        body += [f"p{i} = s{i} - half_h * g{i}" for i in N]
    # The kick (h/2)(V_q + mu^T lam), whose sum over no rows is 0.0.
    body += [f"k{i} = half_h * (g{i} + {sum_text((f'l{a}', f'r{a}_{i}') for a in L if solve)})" for i in N]
    body += [f"p{i} = s{i} - k{i}" for i in N if solve]
    width, size = 2 * n + m, n * (1 + m + affine)
    point = ", ".join([names("g")] + [names(f"r{a}_") for a in L] + [names("o")] * affine)
    state = ", ".join(filter(None, [names("q", "p"), names("l", indices=L)]))
    body += [f"pack_row(flat, i, {state})", f"i += {8 * width}",
             "if points is not None:", f"    pack_point(points, k, {point})", f"    k += {8 * size}"]
    return "\n".join([
        "def bind(h, half_h, weight_h, two_over_h, minv, mass, grad_potential, constraints, affine_field):",
        f"    [{rows('a', n)}] = minv", *[f"    [{rows('b', n)}] = mass"] * affine,
        f"    pack_row, pack_point = Struct('{width}d').pack_into, Struct('{size}d').pack_into",
        f"    def steps(flat, points, j0, j1, i, k, {state}, {names('k')}):",
        "        j = j0", "        try:", "            for j in range(j0, j1):", *(f"{'':16}{line}" for line in body),
        "        except (ArithmeticError, RankDeficient) as exc:", "            return j, exc",
        "        except ValueError as exc:", "            raise ValueError(f'{exc}, at step {j}') from exc",
        "    return steps\n"])


def flat_kernel(sys: FlatSystem, h: float, scheme: str, m: int):
    """The half-kick / drift / multiplier-resolve step of ``scheme`` at step
    size ``h`` as a window kernel on plain floats, for one run of rows with
    ``m`` multipliers: ``(window, form, point_size)``.

    ``window(flat, points, counts, j0, j1)`` takes the steps ``j0 .. j1-1``
    on a buffer of rows ``[q, p, lam]`` seen as the flat float memoryview
    ``flat``; step ``j`` writes row ``j`` (and no ``counts``: a direct solve
    takes no Newton updates).  It derives the kick ``(h/2)(V_q
    + mu^T lam)`` of row ``j0-1`` from that row's ``q`` and ``lam`` alone,
    then carries the state and the kick in locals: the kick that closes a
    step opens the next, so each configuration is evaluated once.  Unless
    ``points`` is ``None``, it writes there the point of each row ``j0-1 ..
    j1-1``, ``point_size`` floats ``[V_q, mu, Pi]``: the gradient, the ``m x
    n`` constraint rows and, with a drift field, the momentum offset.  The
    point callables take each ``q`` as a list (see
    :class:`~gni.model.FlatSystem`).  It returns ``None``, or ``(j, exc)``
    for the first step ``j`` whose multiplier resolve raised
    :class:`~gni.numerics.RankDeficient`, or whose callables raised an
    ``ArithmeticError``; a point callable's wrong length, or a row without
    one multiplier per constraint row, raises ``ValueError``, naming the
    step after row ``j0-1``.  ``form(rows, points)`` is
    :func:`scheme_constraint_residual` of stacked rows and points, in one
    stacked :func:`gni.numerics.matmul` pass.

    The steps are :func:`_step_source`'s code for the system's shape,
    compiled once per shape and process when a window first has a step to
    take, with ``M^{-1}``, ``M`` and the ``h``-only factors bound here: the
    bits of the system's ``float_maps``, :func:`gni.numerics.dot` and
    :func:`gni.numerics.solve_gram` (a one-row division and ``g <= 0`` test
    inline), each ``h``-only factor leading its product.
    """
    half_h, weight_h, two_over_h = 0.5 * h, _STAGE2_WEIGHT[scheme] * h, 2.0 / h
    shift_h, mass_inv, grad_potential, n = _FORM_SHIFT[scheme] * h, sys.mass_inv, sys.grad_potential, sys.dim
    constraints, affine_field, mass_times = sys.constraints, sys.affine_field, sys.float_maps[2]
    constrained = constraints is not None and sys.num_constraints != 0
    affine = constrained and affine_field is not None
    shape, width, point_size = (n, m, constrained, affine), 2 * n + m, n * (m + 1 + affine)
    bound = (h, half_h, weight_h, two_over_h, mass_inv.tolist(), sys.mass_matrix.tolist(),
             grad_potential, constraints, affine_field)
    pack_point, steps = Struct(f"{point_size}d").pack_into, None

    def window(flat, points, counts, j0, j1):
        nonlocal steps
        k, row = point_size * (j0 - 1), flat[width * (j0 - 1) : width * j0].tolist()
        q, lam = row[:n], row[2 * n :]
        try:
            grad = as_floats(grad_potential(q), False, "grad_potential", n)
            rows = as_floats(constraints(q), True, "constraints", n) if constrained else []
            if len(rows) != m:  # else the rows written would lose their places
                raise ValueError(f"{m} multipliers for {len(rows)} constraint rows")
            kick = [half_h * (g + c) for g, c in zip(grad, transpose_times(rows, lam, n))]
            offset = mass_times(as_floats(affine_field(q), False, "affine_field", n)) if affine else []
        except (ArithmeticError, RankDeficient) as exc:
            return j0, exc
        if points is not None:
            pack_point(points, 8 * k, *grad, *sum(rows, []), *offset)
        if j1 <= j0:
            return None
        if steps is None:
            if shape not in _STEPS:
                exec(_step_source(*shape), namespace := dict(globals()))
                _STEPS[shape] = namespace["bind"]
            steps = _STEPS[shape](*bound)
        return steps(flat, points, j0, j1, 8 * width * j0, 8 * (k + point_size), *row, *kick)

    def form(rows, points):
        grads, mus = points[:, :n], points[:, n : n + m * n].reshape(-1, m, n)
        offsets = points[:, n + m * n :] if affine else None
        return stacked_form(mass_inv, rows[:, n : 2 * n], mus, offsets, shift_h * grads if shift_h else None)

    return window, form, point_size


@dataclass(frozen=True)
class FlatStepper:
    """One of the kick-drift-resolve maps, named by its ``scheme``.

    Calling the record takes one step, ``stepper(sys, state, h)``, as a
    one-step window of :func:`flat_kernel` (``h == 0`` returns ``state``).
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

    def kernel(self, sys: FlatSystem, h: float, m: int):
        """:func:`flat_kernel` of this scheme."""
        return flat_kernel(sys, h, self.scheme, m)

    def __call__(self, sys: FlatSystem, s: PhaseState, h: float) -> PhaseState:
        if h == 0.0:
            return s
        n, m = sys.dim, s.lam.size
        rows = np.concatenate([s.q, s.p, s.lam, s.q, s.p, s.lam])  # a two-row buffer
        failed = self.kernel(sys, h, m)[0](memoryview(rows), None, None, 1, 2)
        if failed is not None:
            raise failed[1]
        end = rows[2 * n + m :]
        return PhaseState(end[:n], end[n : 2 * n], end[2 * n :])


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
    return matmul(mu, matmul(sys.mass_inv, vec))


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
    force balance.  A seed that overflows is returned without a NumPy
    warning: a run reports its non-finite state as ``StepFailed``.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        p_raw = matmul(sys.mass_matrix, v)
        mu = sys.constraint_matrix(q)
        if mu.shape[0] == 0:
            return PhaseState(q, p_raw, np.zeros(0))
        mu_minv = matmul(mu, sys.mass_inv)
        gram = matmul(mu_minv, mu.T)
        vec = p_raw - sys.momentum_offset(q)
        if scheme != "continuous":
            shift = _FORM_SHIFT[scheme]
            if shift != 0.0:
                vec = vec + shift * h * np.asarray(sys.grad_potential(q), dtype=float)
        correction = np.array(solve_gram(gram.tolist(), matmul(mu_minv, vec).tolist()))
        p = p_raw - matmul(mu.T, correction)

        # Multiplier of the continuous dynamics at (q, v): differentiate the
        # velocity constraint along the flow and solve for lam.
        v_adm = matmul(sys.mass_inv, p)
        drift = sys.drift(q)
        dmu_v = sys.constraints_dir(q, v_adm)
        grad = np.asarray(sys.grad_potential(q), dtype=float)
        rhs = matmul(dmu_v, v_adm - drift) - matmul(mu_minv, grad)
        if sys.affine_field is not None:
            e = 1e-6
            ddrift = (sys.drift(q + e * v_adm) - sys.drift(q - e * v_adm)) / (2.0 * e)
            rhs = rhs - matmul(mu, ddrift)
        lam0 = np.array(solve_gram(gram.tolist(), rhs.tolist()))
        return PhaseState(q, p, lam0)


def state_difference(s1: PhaseState, s2: PhaseState) -> float:
    """Infinity norm of the (q, p, lam) difference of two states."""
    return max(
        float(np.max(np.abs(s1.q - s2.q))),
        float(np.max(np.abs(s1.p - s2.p))),
        float(np.max(np.abs(s1.lam - s2.lam))) if s1.lam.size else 0.0,
    )
