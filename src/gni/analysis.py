"""Trajectory container, the runner, and convergence analysis.

The functions here drive the steppers: :func:`run` advances one trajectory
and records per-step diagnostics, :func:`convergence_sweep` measures
final-time errors against a reference over a list of step sizes and fits
log-log slopes, and :func:`adjoint_check` measures composition defects of
stepper pairs.  The invariant batteries of the ``check`` subcommand are in
:mod:`gni.checks`.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf, isfinite, log, sqrt
from typing import Callable, Dict, Sequence, Set, Tuple

import numpy as np

from . import gni_flat, gni_reduced, model
from .lie_so3 import dcay
from .model import PhaseState, ReducedSystem, constraint_residual
from .numerics import NoConvergence, SingularMatrix, default_newton_config, dot, matmul
from .gni_reduced import ChaplyginParams, chaplygin_init, chaplygin_scheme_residual

__all__ = [
    "BelowNoiseFloor",
    "StepFailed",
    "Layout",
    "Trajectory",
    "ConvergenceReport",
    "run",
    "state_matrix",
    "convergence_sweep",
    "adjoint_check",
    "slope_fit",
    "sample_admissible_states",
]

# Error channels reported by convergence sweeps, in fixed order.
CHANNELS = ("position", "velocity", "energy")

# Errors at or below this magnitude carry no order information.
_NOISE_FLOOR = 1e-14

# Slack of the initial-admissibility precondition in run(), relative to
# the scale max(1, |v|_inf) of the velocity v whose constraint rows it checks.
_ADMISSIBLE_TOL = 1e-8

# Steps run() takes per call of a set-up's advance; the rows a
# residual=False run holds between two drops.
_WINDOW_ROWS = 4096


class BelowNoiseFloor(ValueError):
    """Raised by :func:`slope_fit` when errors sit at rounding level, so no
    meaningful order can be measured."""


class StepFailed(RuntimeError):
    """A stepper raised during :func:`run`, or a row came out non-finite.

    Carries the failing step index (1-based: step ``k`` produces row ``k``),
    the original exception (``cause``), and the partial :class:`Trajectory`
    of the rows before it (``partial``).
    """

    def __init__(self, step: int, cause: Exception, partial: "Trajectory"):
        super().__init__(f"step {step} failed: {cause}")
        self.step = step
        self.cause = cause
        self.partial = partial


@dataclass(frozen=True)
class Layout:
    """What the columns of a run's rows hold: the state-object ``fields``
    in column order (the multiplier ``lam`` last), the number of leading
    state ``values`` the CSV writes, and the ``position`` columns and
    ``velocity(row)`` of the channels :func:`convergence_sweep` reads."""

    fields: Tuple[str, ...]
    values: int
    position: slice
    velocity: Callable[[np.ndarray], np.ndarray]

    def stack(self, states) -> np.ndarray:
        """The rows of state objects, stacked field by field."""
        return np.hstack([np.array([getattr(s, name) for s in states]) for name in self.fields])


def flat_layout(system) -> Layout:
    """Rows ``[q, p, lam]`` of a flat system; the velocity is ``M^{-1} p``."""
    n, mass_inv = system.dim, system.mass_inv
    return Layout(("q", "p", "lam"), 2 * n, slice(0, n), lambda row: matmul(mass_inv, row[n : 2 * n]))


def reduced_layout(system) -> Layout:
    """Rows ``[x, p, xi, p_alg, lam]`` of a reduced system (``[x, y, px,
    py, xi1, xi2, xi3, p_alg1, p_alg2, p_alg3, lam1, lam2]`` for the
    sphere); the velocity is the body angular velocity ``xi``."""
    n, k = system.shape_dim, system.algebra_dim
    return Layout(
        ("x", "p", "xi", "p_alg", "lam"), 2 * (n + k), slice(0, n), lambda row: row[2 * n : 2 * n + k]
    )


def _layout(system) -> Layout:
    """The layout of a flat or reduced system's rows."""
    return (reduced_layout if isinstance(system, ReducedSystem) else flat_layout)(system)


# Rolling-sphere rows ``[x, y, w1, w2, w3]``: no state objects, no multiplier.
SPHERE_LAYOUT = Layout((), 5, slice(0, 2), lambda row: row[2:])


@dataclass
class Trajectory:
    """Time-indexed record of a run.

    ``states`` is one float array with a row per node, whose columns
    ``layout`` describes: flat rows ``[q, p, lam]``, reduced rows ``[x, p,
    xi, p_alg, lam]`` or rolling-sphere rows ``[x, y, w1, w2, w3]`` (see
    :func:`run`).  ``residuals`` is the infinity norm of the applicable
    constraint residual per row, and ``energies`` the energy monitor per
    row.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    residuals: np.ndarray
    newton_iters: np.ndarray
    layout: Layout

    @classmethod
    def from_rows(cls, system, times, states, residual: bool = True) -> "Trajectory":
        """Build the trajectory of a flat or reduced system's state objects,
        which turn into rows of its layout here, with its diagnostics.

        The residual column is the momentum form
        :func:`gni.model.constraint_residual`; ``residual=False`` leaves it
        at zero.
        """
        states = list(states)
        layout = _layout(system)
        res = residual and (constraint_residual(system, s) for s in states)
        rows, iters = layout.stack(states), np.array([s.newton_iters for s in states], dtype=int)
        return cls(np.asarray(times, dtype=float), rows, model.energies(system, rows),
                   _norms(res, len(rows)), iters, layout)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self):
        return len(self.states)

    def head(self, n_rows: int) -> "Trajectory":
        """The first ``n_rows`` rows."""
        return self.rows(0, n_rows)

    def rows(self, start: int, stop=None) -> "Trajectory":
        """The rows from ``start`` to ``stop``, as Python slice bounds."""
        i = slice(start, stop)
        return Trajectory(self.times[i], self.states[i], self.energies[i], self.residuals[i],
                          self.newton_iters[i], self.layout)

    def copy(self) -> "Trajectory":
        """The same rows in arrays of their own."""
        return Trajectory(self.times.copy(), self.states.copy(), self.energies.copy(),
                          self.residuals.copy(), self.newton_iters.copy(), self.layout)


def _norms(residuals, count: int) -> np.ndarray:
    """Infinity norms of ``count`` residual rows, in one pass over a 2-D
    array of them; zeros for ``False``."""
    if residuals is False:
        return np.zeros(count)
    if isinstance(residuals, np.ndarray) and residuals.ndim == 2:
        return np.maximum.reduce(np.abs(residuals), axis=1, initial=0.0)
    return np.fromiter(map(_inf_norm, residuals), float, count)


def state_matrix(traj: Trajectory) -> np.ndarray:
    """The state values each row of ``traj`` writes: its leading
    ``layout.values`` columns, all but the multipliers."""
    return traj.states[:, : traj.layout.values]


def _non_finite(traj: Trajectory, first: int, name: str = ""):
    """The :class:`StepFailed` of the first row of ``traj`` whose energy,
    residual or state is not finite, or ``None``; ``first`` is the run row
    of ``traj``'s first row, and the message calls it ``{name}row``."""
    ok = np.isfinite(traj.energies) & np.isfinite(traj.residuals) & np.isfinite(traj.states).all(axis=1)
    bad = np.flatnonzero(~ok)
    if not bad.size:
        return None
    k = int(bad[0])
    cause = FloatingPointError(f"{name}row {first + k} has a non-finite energy, residual or state")
    # A copy: a windowed run goes on stepping into the buffers ``traj`` views.
    return StepFailed(first + k, cause, traj.head(k).copy())


def _assembled(assemble, n_rows: int, name: str = "") -> Trajectory:
    """``assemble(n_rows)``, the trajectory of the rows before run row
    ``n_rows``; where a row's potential raises, the :class:`StepFailed` of
    that row, or of a non-finite row before it, with the rows before it."""
    try:
        return assemble(n_rows)
    except model.PotentialError as exc:  # its rows end at run row n_rows - 1
        k = n_rows - exc.count + exc.row
        partial = assemble(k)
        failure = _non_finite(partial, k - len(partial), name) or StepFailed(k, exc.cause, partial)
        raise failure from failure.cause


@dataclass
class ConvergenceReport:
    """Final-time errors over a family of step sizes with fitted orders.

    ``errors`` maps each channel (``"position"``, ``"velocity"``,
    ``"energy"``) to the error at each ``h``; ``slopes`` maps the channels
    that admit a fit to ``(slope, rms log residual)``; channels whose
    errors sit at rounding level land in ``noise_floor`` instead.
    """

    h_values: np.ndarray
    errors: Dict[str, np.ndarray]
    slopes: Dict[str, Tuple[float, float]]
    noise_floor: Set[str]

    def __post_init__(self):
        self.h_values = np.asarray(self.h_values, dtype=float)
        if self.h_values.size < 3:
            raise ValueError("a convergence report needs at least 3 step sizes")
        if not np.all(np.diff(self.h_values) < 0.0):
            raise ValueError("step sizes must be strictly decreasing")


def _inf_norm(vec) -> float:
    """Largest magnitude in ``vec`` (NaN if any entry is NaN), 0 if empty."""
    return float(np.maximum.reduce(np.abs(vec), axis=None, initial=0.0))


# ---------------------------------------------------------------------------
# trajectory running


def run(stepper, system, initial, h: float, n_steps: int, residual: bool = True) -> Trajectory:
    """Advance ``n_steps`` steps of size ``h`` and record diagnostics.

    This is the one loop: over windows of ``_WINDOW_ROWS`` (4,096) steps,
    each taken by one call of the set-up's ``advance(k0, k1)``, which
    returns the failing step and its error instead of raising.  Every run
    returns its rows as one float array (see :class:`Trajectory`).  It
    advances one of three things:

    * a record with a ``kernel`` (a :class:`gni.gni_flat.FlatStepper`, the
      RK4 reference :data:`gni.model.rk4`, a
      :class:`gni.gni_flat.DiscreteLagrangian` or a
      :class:`gni.gni_reduced.ReducedStepper`), through one set-up.
      ``stepper.kernel(system, h, m)``, built once per run for ``m``
      multipliers, returns ``(window, form, point_size)``.
      ``window(flat, points, counts, j0, j1)`` takes the steps ``j0 ..
      j1-1`` on one buffer of rows in the system's layout, seen as flat
      float memoryviews: step ``j`` writes row ``j`` (a recurrence, the
      position after it), its Newton updates ``counts[j]`` and, unless
      ``points`` is ``None``, the ``point_size`` floats of its row's point,
      and it returns ``None`` or the failing ``(j, exc)``.  ``form(rows,
      points)`` gives the residual rows of a stack of rows, the scheme's
      own constraint form, whose norms are the residual column.  A
      record's ``label`` names its rows and steps in a failure;
    * when ``system`` is a :class:`ChaplyginParams`, the rolling-sphere
      two-point recurrence, stepped by the window kernel
      :func:`gni.gni_reduced._chaplygin_stepper` (``stepper`` is ignored).
      ``initial`` is the pair ``(q0, w0)`` of contact point and body
      angular velocity, and rows pack ``[x, y, w1, w2, w3]`` where ``w`` is
      the angular velocity of the interval starting at that row's time;
      the energy monitor uses the central-difference contact velocity
      (forward difference on row 0), and the residual column the two
      discretized rolling constraints (:func:`chaplygin_scheme_residual`);
    * any other ``stepper``, a one-step map ``stepper(system, state, h) ->
      state`` on flat or reduced state objects, which
      :meth:`Trajectory.from_rows` stacks; its residual column is the
      momentum form.

    A state-object ``initial`` must sit within the stepper's admissible
    set, allowing for the half-step potential shift of the one-sided
    schemes; a non-finite one is left to its first step to report.

    ``residual=False`` is for runs whose final state alone is read, such
    as the self reference of :func:`convergence_sweep`: the residual
    column stays at zero, and the run holds one window of rows at a time.
    Each full window is assembled and checked as a full run's rows are,
    then dropped but for the rows the steps carry, and the trajectory
    returned holds only the last two rows (one for ``n_steps = 0``), bit
    for bit the last two of the full run.

    Raises
    ------
    StepFailed
        When the stepper's solver fails or its callables raise an
        ``ArithmeticError`` (at an earlier row whose potential raises, if
        any), or else at the first row whose energy, residual or state is
        not finite or whose potential raises; carries the 1-based failing
        step index, the cause, and the partial trajectory of the rows
        before that step that the run still holds (all of them unless
        ``residual=False``).  The failing step and the type of the cause do
        not depend on ``residual``.
    ValueError
        For a non-positive or non-finite ``h``, a negative ``n_steps``,
        an inadmissible initial state, a flat point callable's wrong
        length, or a rolling sphere whose ``m * r`` underflows to 0.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"step size h must be positive and finite, not {h}")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    window = not residual
    capacity = min(n_steps, _WINDOW_ROWS) + 1 if window else n_steps + 1
    # A diverging run overflows on its way to the first non-finite row;
    # the finiteness check reports that row as StepFailed, so NumPy need
    # not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(system, ChaplyginParams):
            setup = _sphere_recurrence(system, initial, h, capacity, residual)
        else:
            _check_admissible(system, initial, h)
            if hasattr(stepper, "kernel"):
                kernel = stepper.kernel(system, h, initial.lam.size)
                setup = _rows(kernel, system, initial, h, capacity, residual)
            else:
                setup = _one_step_map(stepper, system, initial, h, residual)
        advance, assemble, keep = setup
        name = getattr(stepper, "label", "")  # how a failure names the rows and steps
        # ``first`` is the first row the run holds; a non-finite row found
        # in a dropped window fails the run only once it has stepped to the
        # end, as the full run's one check would.
        first, failure = 0, None
        for k0 in range(1, n_steps + 1, _WINDOW_ROWS):
            k1 = min(k0 + _WINDOW_ROWS, n_steps + 1)
            failed = advance(k0, k1)
            if failed is not None:
                k, exc = failed
                exc = exc or FloatingPointError(f"{name}step {k} has a non-finite state")
                raise StepFailed(k, exc, _assembled(assemble, k, name)) from exc
            if window and k1 <= n_steps:
                if failure is None:
                    failure = _non_finite(_assembled(assemble, k1, name), first, name)
                keep(k1 - 1)
                first = k1 - 1
        if failure is None:
            traj = _assembled(assemble, n_steps + 1, name)
            failure = _non_finite(traj, first, name)
    if failure is not None:
        raise failure
    return traj.rows(-2) if window else traj


# Each set-up below returns ``advance(k0, k1)``, which takes steps ``k0 ..
# k1-1`` (step ``k`` produces row ``k``) and returns ``None``, or ``(k,
# exc)`` for the step ``k`` that raised ``exc``, one of ``_STEP_ERRORS``
# (``exc`` is ``None`` for a step whose state is not finite);
# ``assemble(n_rows)``, which builds the trajectory of the rows before row
# ``n_rows`` that it holds; and ``keep(k)``, which drops every row before
# row ``k`` but what the steps still read.  The buffers hold ``capacity``
# rows besides those carried: one on each side, the row a step reads
# before its own and the position a recurrence writes after it.  Once rows
# were dropped, buffer row 0 is the row before the first row the run holds,
# and no row of its own.  ``_rows``, the set-up of every kernel record, and
# the sphere's share ``_kernel_rows``; only a one-step map loops step by step.

# What a failing step raises: a solver's error or, from a callable
# evaluated on floats, an ``ArithmeticError``.
_STEP_ERRORS = (NoConvergence, SingularMatrix, model.RankDeficient, ArithmeticError)


def _kernel_rows(window, rows, iters, points, diagnose, h, layout):
    """The set-up of a window kernel ``window(flat, points, counts, j0,
    j1)``, which steps buffer rows ``j0 .. j1-1`` of ``rows``, ``points``
    (or ``None``) and ``iters``, seen as flat memoryviews.  Step ``j`` reads
    the row before row ``j`` and may write the row after it, which ``keep``
    carries; ``diagnose(m)`` gives the states, energies and residual norms
    of buffer rows ``0 .. m-1``."""
    flat, counts = memoryview(rows.reshape(-1)), memoryview(iters)
    points = None if points is None else memoryview(points.reshape(-1))
    base = skip = 0  # the run row of buffer row 0; the carried rows assemble drops

    def advance(k0, k1):
        failed = window(flat, points, counts, k0 - base, k1 - base)
        return None if failed is None else (failed[0] + base, failed[1])

    def assemble(n_rows):
        m = n_rows - base
        traj = Trajectory(h * np.arange(base, n_rows), *diagnose(m), iters[:m], layout)
        return traj.rows(skip) if skip else traj

    def keep(k):
        nonlocal base, skip
        j = k - base
        rows[:3] = rows[j - 1 : j + 2]
        iters[:2] = iters[j - 1 : j + 1]
        base, skip = k - 1, 1

    return advance, assemble, keep


def _one_step_map(stepper, system, initial, h, residual):
    states = [initial]
    first = 0

    def advance(k0, k1):
        for k in range(k0, k1):
            try:
                states.append(stepper(system, states[-1], h))
            except _STEP_ERRORS as exc:
                return k, exc
        return None

    def assemble(n_rows):
        times = h * np.arange(first, n_rows)
        return Trajectory.from_rows(system, times, states[: n_rows - first], residual)

    def keep(k):
        nonlocal first
        del states[:-1]
        first = k

    return advance, assemble, keep


def _rows(kernel, system, initial, h, capacity, residual):
    # One row of the system's layout per step of the built kernel, row 0 from
    # ``initial``.  The residual is its form, one stacked pass over the rows
    # and their points; a residual=False run, or one without multipliers, has none.
    window, form, point_size = kernel
    layout, m = _layout(system), initial.lam.size
    row0 = layout.stack([initial])[0]
    rows = np.empty((capacity + 2, row0.size))
    rows[0] = row0
    iters = np.zeros(capacity + 2, dtype=int)
    iters[0] = initial.newton_iters
    points = np.empty((capacity + 2, point_size)) if residual and m else None

    def diagnose(k):
        states = rows[:k]
        res = points is not None and form(states, points[:k])
        return states, model.energies(system, states), _norms(res, k)

    advance, assemble, keep = _kernel_rows(window, rows, iters, points, diagnose, h, layout)
    advance(1, 1)  # an empty window: it checks row 0's point and writes it
    return advance, assemble, keep


def _sphere_recurrence(params, initial, h, capacity, residual):
    # One float row [x, y, w1, w2, w3] per step; the row after the last
    # holds only the position that closes the last central difference.
    window = gni_reduced._chaplygin_stepper(params, h, default_newton_config())
    q0, w0 = initial
    rows = np.empty((capacity + 2, 5))
    iters = np.zeros(capacity + 1, dtype=int)
    rows[0, :2], rows[0, 2:] = q0, w0
    rows[1, :2] = chaplygin_init(params, q0, w0, h)

    def diagnose(m):
        # Row 0's contact velocity is the forward difference, later rows'
        # the central one.
        qs, ws = rows[: m + 1, :2], rows[:m, 2:]
        v = np.empty((m, 2))
        v[0] = (qs[1] - qs[0]) / h
        v[1:] = (qs[2:] - qs[: m - 1]) / (2.0 * h)
        vv = matmul(v[:, None, :], v[:, :, None])[:, 0, 0]
        ww = matmul(ws[:, None, :], (params.inertia * ws)[:, :, None])[:, 0, 0]
        residuals = np.zeros(m)
        if residual and m > 1:
            res = chaplygin_scheme_residual(params, qs[: m - 1], qs[1:m], qs[2:], ws[:-1], ws[1:], h)
            residuals[1:] = np.max(np.abs(res), axis=1)
        return rows[:m], 0.5 * params.m * vv + 0.5 * ww, residuals

    return _kernel_rows(window, rows, iters, None, diagnose, h, SPHERE_LAYOUT)


def _check_admissible(system, state, h: float) -> None:
    """Reject initial states off the admissible set.

    Each row of the plain momentum-form residual is compared against a
    tolerance that allows, in that row, for the one-sided schemes'
    half-step potential shift (and, on the reduced side, the offset
    ``p_alg - dcay(h xi)^T p_alg`` that the ``dcay_inv`` seeding of
    :func:`gni.gni_reduced.chaplygin_initial_reduced_state` puts into the
    body momentum: the O(h) tilt ``h/2 xi x p_alg`` plus its O(h^2) part),
    so states prepared for any built-in scheme pass while genuinely
    inadmissible data is caught.  The residual is the constraint rows of
    the velocity ``v = G^{-1}(m - Pi)`` of the momentum ``m = p`` (flat)
    or ``p ⊕ p_alg`` (reduced), and its tolerance scales with
    ``max(1, |v|_inf)``: a state projected at large velocities passes as
    it would at unit scale, and a heavy one at unit velocity is held to
    the unit tolerance.  The comparison is on magnitudes: a state
    seeded at ``h = 0`` has no offset but is still checked at ``h``.  A
    non-finite residual (a state that overflowed when it was seeded) is not
    compared: the run reports that state as ``StepFailed``, and a callable
    that raises an ``ArithmeticError`` here fails it at step 0, before any.
    """
    try:
        res = np.asarray(constraint_residual(system, state), dtype=float)
        if not res.size or not np.isfinite(res).all():
            return
        if isinstance(state, PhaseState):
            point, metric_inv, rows = state.q, system.mass_inv, system.constraint_matrix(state.q)
            momentum, tilt = state.p, 0.5 * h * np.asarray(system.grad_potential(state.q), float)
        else:
            point, metric_inv, rows = state.x, system.metric_inv, system.annihilator_matrix(state.x)
            momentum = np.concatenate([state.p, state.p_alg])
            offset = state.p_alg - matmul(dcay(h * state.xi).T, state.p_alg)
            tilt = np.concatenate([0.5 * h * system.grad_potential(state.x), offset])
        slack = matmul(rows, matmul(metric_inv, tilt))
        scale = max(1.0, _inf_norm(matmul(metric_inv, momentum - system.momentum_offset(point))))
    except ArithmeticError as exc:
        layout = _layout(system)
        none = np.zeros(0)
        empty = Trajectory(none, layout.stack([state])[:0], none, none, none.astype(int), layout)
        raise StepFailed(0, exc, empty) from exc
    if np.any(np.abs(res) > _ADMISSIBLE_TOL * scale + np.abs(slack)):
        raise ValueError(
            f"initial state is not admissible: constraint residual {_inf_norm(res):.3e}"
        )


def _final_energy(system, traj: Trajectory) -> float:
    """Energy at the final node.

    Rolling-sphere rows carry interval angular velocities that sample half
    a step past the node, which would bias the energy comparison at first
    order in h; the final-node value therefore re-centers the rotational
    term with the average of the last two interval velocities.
    """
    if isinstance(system, ChaplyginParams) and len(traj) >= 2:
        inertia = system.inertia
        w_last = traj.states[-1, 2:]
        w_bar = 0.5 * (traj.states[-2, 2:] + w_last)
        return (
            float(traj.energies[-1])
            - 0.5 * dot(w_last.tolist(), (inertia * w_last).tolist())
            + 0.5 * dot(w_bar.tolist(), (inertia * w_bar).tolist())
        )
    return float(traj.energies[-1])


# ---------------------------------------------------------------------------
# convergence


def slope_fit(h_values, errors) -> Tuple[float, float]:
    """Least-squares slope of log(error) against log(h).

    Returns ``(slope, residual)`` where ``residual`` is the RMS deviation
    of the log errors from the fitted line: the closed-form centred line
    on ``math.log`` of each value, its sums by ``math.fsum``.

    Raises
    ------
    BelowNoiseFloor
        If any error is at or below 1e-14, where rounding noise dominates.
    ValueError
        For fewer than 3 points, mismatched lengths, an error that is not
        finite, or step sizes that are not positive and finite, or all equal.
    """
    h, e = [float(v) for v in h_values], [float(v) for v in errors]
    if len(h) != len(e):
        raise ValueError("h_values and errors must have equal length")
    if len(h) < 3:
        raise ValueError("slope fitting needs at least 3 points")
    if not all(0.0 < v < inf for v in h) or min(h) == max(h):
        raise ValueError(f"step sizes must be positive, finite and not all equal, not {h}")
    if not all(map(isfinite, e)):
        raise ValueError(f"errors must be finite, not {e}")
    if min(e) <= _NOISE_FLOOR:
        raise BelowNoiseFloor(f"smallest error {min(e):.3e} is at the rounding noise floor")
    x, y = list(map(log, h)), list(map(log, e))
    mean_x, mean_y = fsum(x) / len(x), fsum(y) / len(y)
    dx, dy = [v - mean_x for v in x], [v - mean_y for v in y]
    slope = fsum(a * b for a, b in zip(dx, dy)) / fsum(a * a for a in dx)
    residual = sqrt(fsum((b - slope * a) ** 2 for a, b in zip(dx, dy)) / len(dy))
    return slope, residual


def _step_count(T: float, h: float) -> int:
    """The number of steps, ``round(T / h)``, of a run to ``T`` at about ``h``.

    Raises
    ------
    ValueError
        If ``T / h`` overflows, or ``h`` does not divide ``T`` to within one
        step.
    """
    ratio = T / h
    if not isfinite(ratio):
        raise ValueError(f"T / h = {T} / {h} overflows")
    n = int(round(ratio))
    if n < 1 or abs(n * h - T) > h:
        raise ValueError(f"h={h} does not divide T={T} to within one step")
    return n


def _resolve_reference(stepper, system, initial, T, h_min, mode, h_ref) -> Trajectory:
    h_ref = float(h_ref)
    if h_ref > h_min / 30.0 * (1.0 + 1e-12):
        raise ValueError(f"reference step {h_ref} exceeds min(h)/30 = {h_min / 30.0}")
    n_ref = _step_count(T, h_ref)
    if mode == "rk4":
        if not isinstance(system, model.FlatSystem):
            raise ValueError(
                "no continuous-reference integrator for a reduced system or the "
                "rolling sphere; use a self-convergence reference"
            )
        stepper = model.rk4
    elif mode != "self":
        raise ValueError(f"unknown reference mode {mode!r}; use 'self' or 'rk4'")
    return run(stepper, system, initial, T / n_ref, n_ref, residual=False)


def convergence_sweep(
    stepper, system, initial, T: float, h_list, reference
) -> ConvergenceReport:
    """Measure final-time errors against a reference over step sizes.

    ``h_list`` must be strictly decreasing with at least 3 entries, each
    dividing ``T`` to within one step (the step actually used is
    ``T/round(T/h)`` so every run lands exactly on ``T``).  ``reference``
    is the pair ``(mode, h_ref)``: mode ``"self"`` runs the same stepper at
    step ``h_ref``, mode ``"rk4"`` the continuous equations of a flat
    system (the record :data:`gni.model.rk4`), and ``h_ref`` must be at
    most ``min(h_list)/30``.  Either reference is a ``residual=False``
    :func:`run`: it keeps only its final rows, so its memory does not grow
    with its number of steps.  Errors are infinity norms at the final
    time on position and velocity (body angular velocity for reduced and
    rolling-sphere runs) plus the absolute final-energy difference; slopes
    are least-squares fits on the log-log points, with channels at rounding
    level reported in ``noise_floor`` instead of fitted.

    Raises
    ------
    ValueError
        For a non-finite ``T``, fewer than 3 step sizes or ones not strictly
        decreasing, a step count ``T / h`` that overflows, a step that does
        not divide ``T`` to within one step, a reference step above
        ``min(h_list)/30`` or of an unknown mode, or an ``rk4`` reference
        of a system that is not a :class:`gni.model.FlatSystem`.
    """
    if not np.isfinite(T):
        raise ValueError(f"final time T={T} is not finite")
    h_arr = [float(x) for x in h_list]
    if len(h_arr) < 3:
        raise ValueError("convergence sweeps need at least 3 step sizes")
    if any(b >= a for a, b in zip(h_arr, h_arr[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    counts = [_step_count(T, h) for h in h_arr]

    ref_traj = _resolve_reference(stepper, system, initial, T, h_arr[-1], *reference)
    ref_pos = ref_traj.final[ref_traj.layout.position]
    ref_vel = ref_traj.layout.velocity(ref_traj.final)
    ref_energy = _final_energy(system, ref_traj)

    used_h = []
    errs = {ch: [] for ch in CHANNELS}
    for n in counts:
        h_used = T / n
        traj = run(stepper, system, initial, h_used, n)
        used_h.append(h_used)
        errs["position"].append(_inf_norm(traj.final[traj.layout.position] - ref_pos))
        errs["velocity"].append(_inf_norm(traj.layout.velocity(traj.final) - ref_vel))
        errs["energy"].append(abs(_final_energy(system, traj) - ref_energy))

    slopes: Dict[str, Tuple[float, float]] = {}
    floor: Set[str] = set()
    for ch in CHANNELS:
        try:
            slopes[ch] = slope_fit(used_h, errs[ch])
        except BelowNoiseFloor:
            floor.add(ch)
    return ConvergenceReport(
        h_values=np.array(used_h),
        errors={ch: np.array(errs[ch]) for ch in CHANNELS},
        slopes=slopes,
        noise_floor=floor,
    )


# ---------------------------------------------------------------------------
# adjointness and state sampling


def adjoint_check(step_a, step_b, states: Sequence[PhaseState], h: float) -> float:
    """Largest composition defect ``||step_b(step_a(s, h), -h) - s||_inf``.

    ``step_a`` and ``step_b`` are one-step maps with the system bound,
    i.e. callables ``(state, h) -> state``.  A mutually adjoint pair (or a
    self-adjoint method passed twice) returns zero up to solver tolerance.
    """
    worst = 0.0
    for s in states:
        roundtrip = step_b(step_a(s, h), -h)
        worst = max(worst, gni_flat.state_difference(roundtrip, s))
    return worst


def sample_admissible_states(
    system,
    count: int,
    seed: int,
    h: float = 0.1,
    scheme: str = "continuous",
):
    """Draw ``count`` admissible states: configurations uniform in
    ``[-1, 1]^n``, Gaussian velocities projected onto the admissible
    set by the named scheme's own constraint form (see
    :func:`gni.gni_flat.prepare_state`)."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        q = rng.uniform(-1.0, 1.0, size=system.dim)
        v = rng.standard_normal(system.dim)
        states.append(gni_flat.prepare_state(system, q, v, scheme=scheme, h=h))
    return states
