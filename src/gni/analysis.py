"""Trajectory container, verification harness, and convergence analysis.

The functions here drive the steppers: :func:`run` advances one trajectory
and records per-step diagnostics, :func:`convergence_sweep` measures
final-time errors against a reference over a list of step sizes and fits
log-log slopes, :func:`adjoint_check` measures composition defects of
stepper pairs, and :func:`check_suite` executes the package's invariant
batteries (used by the command-line ``check`` subcommand).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Set, Tuple, Union

import numpy as np

from . import gni_reduced, model
from .gni_flat import DiscreteLagrangian, gni_generic_step_stats, rattle_step
from .lie_so3 import dcay
from .model import PhaseState, ReducedState, constraint_residual
from .numerics import NoConvergence, SingularMatrix, default_newton_config
from .gni_reduced import ChaplyginParams, chaplygin_init, chaplygin_scheme_residual

__all__ = [
    "BelowNoiseFloor",
    "StepFailed",
    "Trajectory",
    "ConvergenceReport",
    "run",
    "check_finite",
    "state_matrix",
    "convergence_sweep",
    "adjoint_check",
    "slope_fit",
    "sample_admissible_states",
    "check_suite",
]

# Error channels reported by convergence sweeps, in fixed order.
CHANNELS = ("position", "velocity", "energy")

# Errors at or below this magnitude carry no order information.
_NOISE_FLOOR = 1e-14

# Absolute slack of the initial-admissibility precondition in run().
_ADMISSIBLE_TOL = 1e-8

# Rows a residual=False run of run() holds between two drops.
_WINDOW_ROWS = 4096

# What each state type gives the runner, the sweeps and the CSV writer: its
# array fields, the multiplier ``lam`` last (check_finite() checks them all;
# a row's state values are all but ``lam``), and its position and velocity
# channels.  Rows of the float kernels are plain arrays, told apart by their
# width, with the number of state values in place of the fields:
# rolling-sphere rows ``[x, y, w1, w2, w3]`` and reduced rows ``[x, y, px,
# py, xi1, xi2, xi3, p_alg1, p_alg2, p_alg3, lam1, lam2]``.
_STATE_TYPES = {
    PhaseState: (("q", "p", "lam"), lambda s: s.q, lambda system, s: system.mass_inv @ s.p),
    ReducedState: (("x", "p", "xi", "p_alg", "lam"), lambda s: s.x, lambda system, s: s.xi),
    5: (5, lambda s: s[:2], lambda system, s: s[2:]),
    12: (10, lambda s: s[:2], lambda system, s: s[4:7]),
}


def _state_type(state):
    """The :data:`_STATE_TYPES` entry of one state or array row."""
    return _STATE_TYPES[len(state) if isinstance(state, np.ndarray) else type(state)]


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


@dataclass
class Trajectory:
    """Time-indexed record of a run.

    ``states`` holds one state object per row, or for the runs of a float
    kernel an array of rows (see :func:`run`); ``residuals`` is
    the infinity norm of the applicable constraint residual per row, and
    ``energies`` the energy monitor per row.
    """

    times: np.ndarray
    states: Union[list, np.ndarray]
    energies: np.ndarray
    residuals: np.ndarray
    newton_iters: np.ndarray
    h: float

    @classmethod
    def from_rows(cls, system, times, states, h: float, residual=None) -> "Trajectory":
        """Build a trajectory of state objects with its diagnostics.

        ``residual(states)`` yields each row's constraint residual; by
        default it is the momentum form :func:`gni.model.constraint_residual`,
        and ``False`` leaves the column at zero.
        """
        states = list(states)
        if residual is False:
            residuals = np.zeros(len(states))
        else:
            rows = residual(states) if residual else (constraint_residual(system, s) for s in states)
            residuals = np.fromiter(map(_inf_norm, rows), float, len(states))
        iters = np.array([getattr(s, "newton_iters", 0) for s in states], dtype=int)
        return cls(
            times=np.asarray(times, dtype=float),
            states=states,
            energies=model.energies(system, states),
            residuals=residuals,
            newton_iters=iters,
            h=h,
        )

    @property
    def final(self):
        return self.states[-1]

    def __len__(self):
        return len(self.states)

    def head(self, n_rows: int) -> "Trajectory":
        """The first ``n_rows`` rows."""
        return self.rows(0, n_rows)

    def rows(self, start: int, stop=None) -> "Trajectory":
        """The rows from ``start`` to ``stop``, as Python slice bounds."""
        index = slice(start, stop)
        return Trajectory(
            times=self.times[index],
            states=self.states[index],
            energies=self.energies[index],
            residuals=self.residuals[index],
            newton_iters=self.newton_iters[index],
            h=self.h,
        )


def state_matrix(states) -> np.ndarray:
    """The values each row of ``states`` writes, one row each: a state
    object's array fields but the multiplier ``lam``, stacked field by
    field; an array row's leading state values (all of a rolling-sphere
    row, a reduced row but its two multipliers)."""
    if isinstance(states, np.ndarray):
        return states[:, : _state_type(states[0])[0]]
    fields = _state_type(states[0])[0][:-1]
    return np.hstack([_field_rows(states, name) for name in fields])


def _field_rows(states, name: str) -> np.ndarray:
    return np.array([getattr(s, name) for s in states])


def check_finite(traj: Trajectory) -> Trajectory:
    """Return ``traj`` if every row's energy, residual and state is finite.

    Raises
    ------
    StepFailed
        At the first row that is not, carrying the rows before it.
    """
    failure = _non_finite(traj, 0)
    if failure is not None:
        raise failure
    return traj


def _non_finite(traj: Trajectory, first: int):
    """The :class:`StepFailed` of the first row of ``traj`` whose energy,
    residual or state is not finite, or ``None``; ``first`` is the run row
    of ``traj``'s first row."""
    ok = np.isfinite(traj.energies) & np.isfinite(traj.residuals)
    states = traj.states
    if isinstance(states, np.ndarray):
        ok &= np.isfinite(states).all(axis=1)
    else:
        for name in _STATE_TYPES[type(states[0])][0]:
            ok &= np.isfinite(_field_rows(states, name)).all(axis=1)
    bad = np.flatnonzero(~ok)
    if not bad.size:
        return None
    k = int(bad[0])
    cause = FloatingPointError(f"row {first + k} has a non-finite energy, residual or state")
    return StepFailed(first + k, cause, traj.head(k))


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


def run(stepper, system, initial, h: float, n_steps: int, residual=None) -> Trajectory:
    """Advance ``n_steps`` steps of size ``h`` and record diagnostics.

    This is the one loop over steps.  What it advances depends on its
    arguments:

    * a one-step map ``stepper(system, state, h) -> state`` on flat or
      reduced state objects;
    * for a :class:`gni.gni_flat.DiscreteLagrangian` ``stepper``, the
      three-point recurrence of :func:`gni.gni_flat.gni_generic_step_stats`,
      seeded with one :func:`gni.gni_flat.rattle_step`.  Row ``k >= 1``
      reports the central-difference momentum ``M (q_{k+1} - q_{k-1}) /
      (2h)``, the average of the discrete pre- and post-momenta that the
      scheme keeps on the constraint;
    * for a :class:`gni.gni_reduced.ReducedStepper` ``stepper`` on a
      system that :func:`gni.gni_reduced.reduced_kernel` covers, the same
      steps by that float kernel, built once per run.  Rows are the arrays
      ``[x, y, px, py, xi1, xi2, xi3, p_alg1, p_alg2, p_alg3, lam1,
      lam2]`` of one ``(N+1, 12)`` buffer, the energies the stacked
      :func:`gni.model.kinetic_energies`, and the residual column one
      stacked pass of :func:`gni.gni_reduced.reduced_scheme_residual` (0
      on row 0).  On any other system the record steps as a one-step map;
    * when ``system`` is a :class:`ChaplyginParams`, the rolling-sphere
      two-point recurrence, stepped by one float kernel per run
      (:func:`gni.gni_reduced._chaplygin_stepper`; ``stepper`` is
      ignored).  ``initial`` is the pair ``(q0, w0)`` of contact point and
      body angular velocity, and rows pack ``[x, y, w1, w2, w3]`` where
      ``w`` is the angular velocity of the interval starting at that row's
      time; the energy monitor uses the central-difference contact velocity
      (forward difference on row 0), and the residual column the two
      discretized rolling constraints (:func:`chaplygin_scheme_residual`).

    Both recurrences keep one position beyond the last row, to close its
    central difference.  A state-object ``initial`` must sit within the
    stepper's admissible set, allowing for the half-step potential shift
    of the one-sided schemes; a non-finite one is left to its first step
    to report.  ``residual(states)`` gives the constraint residual each
    state-object row reports, in the form the stepper preserves (default:
    the momentum form).

    ``residual=False`` is for runs whose final state alone is read, such
    as the self reference of :func:`convergence_sweep`: the residual
    column stays at zero, and the run keeps its rows in blocks of
    ``_WINDOW_ROWS`` (4,096).  Each full block is assembled and checked as a full
    run's rows are, then dropped but for the rows the steps carry, and the
    trajectory returned holds only the last two rows (one for
    ``n_steps = 0``), bit for bit the last two of the full run.

    Raises
    ------
    StepFailed
        When the stepper's solver fails, or at the first row whose energy,
        residual or state is not finite; carries the 1-based failing step
        index, the cause, and the partial trajectory of the rows before
        that step that the run still holds (all of them unless
        ``residual=False``).  The failing step and the type of the cause
        do not depend on ``residual``.
    ValueError
        For non-positive ``h`` / negative ``n_steps`` or an inadmissible
        initial state.
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    window = residual is False
    capacity = min(n_steps, _WINDOW_ROWS) + 1 if window else n_steps + 1
    # A diverging run overflows on its way to the first non-finite row;
    # the finiteness check reports that row as StepFailed, so NumPy need
    # not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(system, ChaplyginParams):
            setup = _sphere_recurrence(system, initial, h, capacity, residual)
        else:
            _check_admissible(system, initial, h)
            kernel = None
            if isinstance(stepper, gni_reduced.ReducedStepper):
                kernel = gni_reduced.reduced_kernel(system, h, stepper.retraction, stepper.cfg)
            if kernel is not None:
                setup = _reduced_rows(
                    kernel, stepper.retraction, system, initial, h, capacity, residual
                )
            elif isinstance(stepper, DiscreteLagrangian):
                setup = _three_point_recurrence(stepper, system, initial, h, capacity, residual)
            else:
                setup = _one_step_map(stepper, system, initial, h, residual)
        advance, assemble, keep = setup
        # ``first`` is the first row the run holds; a non-finite row found
        # in a dropped block fails the run only once it has stepped to the
        # end, as the full run's one check would.
        first, failure = 0, None
        for k in range(1, n_steps + 1):
            try:
                advance(k)
            except (NoConvergence, SingularMatrix, model.RankDeficient) as exc:
                raise StepFailed(k, exc, assemble(k)) from exc
            if window and k % _WINDOW_ROWS == 0 and k < n_steps:
                if failure is None:
                    failure = _non_finite(assemble(k + 1), first)
                keep(k)
                first = k
        traj = assemble(n_steps + 1)
        if failure is None:
            failure = _non_finite(traj, first)
    if failure is not None:
        raise failure
    return traj.rows(-2) if window else traj


# Each of the four set-ups below returns ``advance(k)``, which takes step
# ``k`` (the one producing row ``k``), ``assemble(n_rows)``, which builds
# the trajectory of the rows before row ``n_rows`` that it holds, and
# ``keep(k)``, which drops every row before row ``k`` but what the steps
# still read.  The buffers hold ``capacity`` rows besides those carried.


def _one_step_map(stepper, system, initial, h, residual):
    states = [initial]
    first = 0

    def advance(k):
        states.append(stepper(system, states[-1], h))

    def assemble(n_rows):
        times = h * np.arange(first, n_rows)
        return Trajectory.from_rows(system, times, states[: n_rows - first], h, residual)

    def keep(k):
        nonlocal first
        del states[:-1]
        first = k

    return advance, assemble, keep


# The recurrences below carry the position before their first row once
# they have dropped rows (``base``, the buffer's row 0, is then that
# position's row) so that the first row keeps its central difference.


def _three_point_recurrence(ld, system, initial, h, capacity, residual):
    cfg = default_newton_config()
    qs = np.empty((capacity + 2, system.dim))
    iters = np.zeros(capacity + 1, dtype=int)
    qs[0] = initial.q
    base = 0

    def advance(k):
        j = k - base
        if k == 1:
            qs[1] = rattle_step(system, initial, h).q
        qs[j + 1], iters[j] = gni_generic_step_stats(ld, system, qs[j - 1], qs[j], h, cfg)

    def assemble(n_rows):
        states = [initial] if base == 0 else []
        states += [
            PhaseState(
                qs[j],
                system.mass_matrix @ (qs[j + 1] - qs[j - 1]) / (2.0 * h),
                np.zeros(system.num_constraints),
                newton_iters=int(iters[j]),
            )
            for j in range(1, n_rows - base)
        ]
        times = h * np.arange(n_rows - len(states), n_rows, dtype=float)
        return Trajectory.from_rows(system, times, states, h, residual)

    def keep(k):
        nonlocal base
        j = k - base
        qs[:3] = qs[j - 1 : j + 2]
        iters[:2] = iters[j - 1 : j + 1]
        base = k - 1

    return advance, assemble, keep


def _sphere_recurrence(params, initial, h, capacity, residual):
    # One float row [x, y, w1, w2, w3] per step; the row after the last
    # holds only the position that closes the last central difference.
    step = gni_reduced._chaplygin_stepper(params, h, default_newton_config())
    q0, w0 = initial
    rows = np.empty((capacity + 2, 5))
    iters = np.zeros(capacity + 1, dtype=int)
    rows[0, :2] = q0
    rows[0, 2:] = w0
    rows[1, :2] = chaplygin_init(params, q0, w0, h)
    flat, counts = memoryview(rows.reshape(-1)), memoryview(iters)
    base = 0

    def advance(k):
        j = k - base
        i = 5 * j
        (flat[i + 5], flat[i + 6], flat[i + 2], flat[i + 3], flat[i + 4], counts[j]) = step(
            flat[i - 5], flat[i - 4], flat[i], flat[i + 1], flat[i - 3], flat[i - 2], flat[i - 1]
        )

    def assemble(n_rows):
        m = n_rows - base
        traj = _assemble_chaplygin(
            params, rows[: m + 1], iters[:m], h, base, residual is not False
        )
        return traj.rows(1) if base else traj

    def keep(k):
        nonlocal base
        j = k - base
        rows[:3] = rows[j - 1 : j + 2]
        iters[:2] = iters[j - 1 : j + 1]
        base = k - 1

    return advance, assemble, keep


def _reduced_rows(step, retraction, system, initial, h, capacity, residual):
    # One float row [x, y, px, py, xi, p_alg, lam] per step.
    rows = np.empty((capacity, 12))
    iters = np.zeros(capacity, dtype=int)
    rows[0] = np.concatenate([initial.x, initial.p, initial.xi, initial.p_alg, initial.lam])
    iters[0] = initial.newton_iters
    flat, counts = memoryview(rows.reshape(-1)), memoryview(iters)
    base = 0

    def advance(k):
        j = k - base
        i = 12 * j
        (
            flat[i], flat[i + 1], flat[i + 2], flat[i + 3], flat[i + 4], flat[i + 5],
            flat[i + 6], flat[i + 7], flat[i + 8], flat[i + 9], flat[i + 10], flat[i + 11],
            counts[j],
        ) = step(*flat[i - 12 : i])

    def assemble(n_rows):
        m = n_rows - base
        states = rows[:m]
        residuals = np.zeros(m)
        if residual is not False and m > 1:
            res = gni_reduced.reduced_scheme_residual(
                system, states[:-1], states[1:], h, retraction
            )
            residuals[1:] = np.max(np.abs(res), axis=1)
        return Trajectory(
            times=h * np.arange(base, n_rows),
            states=states,
            energies=model.kinetic_energies(
                system.metric_inv, np.hstack([states[:, 2:4], states[:, 7:10]])
            ),
            residuals=residuals,
            newton_iters=iters[:m],
            h=h,
        )

    def keep(k):
        nonlocal base
        j = k - base
        rows[0] = rows[j]
        iters[0] = iters[j]
        base = k

    return advance, assemble, keep


def _check_admissible(system, state, h: float) -> None:
    """Reject initial states off the admissible set.

    Each row of the plain momentum-form residual is compared against a
    tolerance that allows, in that row, for the one-sided schemes'
    half-step potential shift (and, on the reduced side, the offset
    ``p_alg - dcay(h xi)^T p_alg`` that the ``dcay_inv`` seeding of
    :func:`gni.gni_reduced.chaplygin_initial_reduced_state` puts into the
    body momentum: the O(h) tilt ``h/2 xi x p_alg`` plus its O(h^2) part),
    so states prepared for any built-in scheme pass while genuinely
    inadmissible data is caught.  The comparison is on magnitudes: a state
    seeded at ``h = 0`` has no offset but is still checked at ``h``.  A
    non-finite residual (a state that overflowed when it was seeded) is not
    compared: the run's first step reports that state as ``StepFailed``.
    """
    res = np.asarray(constraint_residual(system, state), dtype=float)
    if not np.isfinite(res).all():
        return
    slack = np.zeros_like(res)
    if isinstance(state, PhaseState):
        mu = system.constraint_matrix(state.q)
        if mu.shape[0]:
            slack = 0.5 * h * (mu @ (system.mass_inv @ system.grad_potential(state.q)))
    elif isinstance(state, ReducedState):
        rows = system.annihilator_matrix(state.x)
        if rows.shape[0]:
            offset = state.p_alg - dcay(h * state.xi).T @ state.p_alg
            tilt = np.concatenate([0.5 * h * system.grad_potential(state.x), offset])
            slack = rows @ (system.metric_inv @ tilt)
    if np.any(np.abs(res) > _ADMISSIBLE_TOL + np.abs(slack)):
        raise ValueError(
            f"initial state is not admissible: constraint residual {_inf_norm(res):.3e}"
        )


def _assemble_chaplygin(params, rows, iters, h, base, diagnostics) -> Trajectory:
    """Trajectory of the rows of ``rows`` but its last, whose position
    closes the last central difference; ``base`` is the run row of the
    first.

    Row 0's contact velocity is the forward difference, later rows' the
    central one.  The stacked ``matmul`` dot products give the same bits
    as one ``v @ v`` per row.
    """
    n_rows = len(rows) - 1
    qs, ws = rows[:, :2], rows[:n_rows, 2:]
    v = np.empty((n_rows, 2))
    v[0] = (qs[1] - qs[0]) / h
    v[1:] = (qs[2 : n_rows + 1] - qs[: n_rows - 1]) / (2.0 * h)
    vv = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    ww = (ws[:, None, :] @ (params.inertia * ws)[:, :, None])[:, 0, 0]
    energies = 0.5 * params.m * vv + 0.5 * ww
    residuals = np.zeros(n_rows)
    if diagnostics and n_rows > 1:
        res = chaplygin_scheme_residual(
            params, qs[: n_rows - 1], qs[1:n_rows], qs[2 : n_rows + 1], ws[:-1], ws[1:], h
        )
        residuals[1:] = np.max(np.abs(res), axis=1)
    return Trajectory(
        times=h * np.arange(base, base + n_rows),
        states=rows[:n_rows],
        energies=energies,
        residuals=residuals,
        newton_iters=iters,
        h=h,
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
        w_last = np.asarray(traj.states[-1])[2:]
        w_bar = 0.5 * (np.asarray(traj.states[-2])[2:] + w_last)
        return (
            traj.energies[-1]
            - 0.5 * float(w_last @ (inertia * w_last))
            + 0.5 * float(w_bar @ (inertia * w_bar))
        )
    return float(traj.energies[-1])


# ---------------------------------------------------------------------------
# convergence


def slope_fit(h_values, errors) -> Tuple[float, float]:
    """Least-squares slope of log(error) against log(h).

    Returns ``(slope, residual)`` where ``residual`` is the RMS deviation
    of the log errors from the fitted line.

    Raises
    ------
    BelowNoiseFloor
        If any error is at or below 1e-14, where rounding noise dominates.
    ValueError
        For fewer than 3 points or mismatched lengths.
    """
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.size != e.size:
        raise ValueError("h_values and errors must have equal length")
    if h.size < 3:
        raise ValueError("slope fitting needs at least 3 points")
    if np.any(e <= _NOISE_FLOOR):
        raise BelowNoiseFloor(
            f"smallest error {np.min(e):.3e} is at the rounding noise floor"
        )
    log_h = np.log(h)
    log_e = np.log(e)
    design = np.stack([log_h, np.ones_like(log_h)], axis=1)
    coef, *_ = np.linalg.lstsq(design, log_e, rcond=None)
    residual = float(np.sqrt(np.mean((log_e - design @ coef) ** 2)))
    return float(coef[0]), residual


def _resolve_reference(stepper, system, initial, T, h_min, reference) -> Trajectory:
    if isinstance(reference, Trajectory):
        if reference.h > h_min / 30.0 * (1.0 + 1e-12):
            raise ValueError(
                f"reference step {reference.h} exceeds min(h)/30 = {h_min / 30.0}"
            )
        if abs(float(reference.times[-1]) - T) > max(reference.h, 1e-9):
            raise ValueError("reference trajectory does not end at T")
        return reference
    if isinstance(reference, (int, float)):
        mode, h_ref = "self", float(reference)
    else:
        mode, h_ref = reference
        h_ref = float(h_ref)
    if h_ref > h_min / 30.0 * (1.0 + 1e-12):
        raise ValueError(f"reference step {h_ref} exceeds min(h)/30 = {h_min / 30.0}")
    n_ref = max(1, int(round(T / h_ref)))
    if mode == "self":
        return run(stepper, system, initial, T / n_ref, n_ref, residual=False)
    if mode == "rk4":
        if isinstance(system, ChaplyginParams):
            raise ValueError(
                "no continuous-reference integrator for the rolling-sphere "
                "recurrence; use a self-convergence reference"
            )
        return model.reference_solve(system, initial, T, h_ref, record_every=n_ref)
    raise ValueError(f"unknown reference mode {mode!r}; use 'self' or 'rk4'")


def convergence_sweep(
    stepper, system, initial, T: float, h_list, reference
) -> ConvergenceReport:
    """Measure final-time errors against a reference over step sizes.

    ``h_list`` must be strictly decreasing with at least 3 entries, each
    dividing ``T`` to within one step (the step actually used is
    ``T/round(T/h)`` so every run lands exactly on ``T``).  ``reference``
    is a precomputed :class:`Trajectory`, a bare step size (meaning
    self-convergence: the same stepper at that step), or a pair
    ``("self" | "rk4", h_ref)``; in every case the reference step must be
    at most ``min(h_list)/30``.  A self reference is a ``residual=False``
    :func:`run`: it keeps only its final rows, so its memory does not grow
    with its number of steps.  Errors are infinity norms at the final
    time on position and velocity (body angular velocity for reduced and
    rolling-sphere runs) plus the absolute final-energy difference; slopes
    are least-squares fits on the log-log points, with channels at rounding
    level reported in ``noise_floor`` instead of fitted.
    """
    h_arr = [float(x) for x in h_list]
    if len(h_arr) < 3:
        raise ValueError("convergence sweeps need at least 3 step sizes")
    if any(b >= a for a, b in zip(h_arr, h_arr[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    counts = []
    for h in h_arr:
        n = int(round(T / h))
        if n < 1 or abs(n * h - T) > h:
            raise ValueError(f"h={h} does not divide T={T} to within one step")
        counts.append(n)

    ref_traj = _resolve_reference(stepper, system, initial, T, h_arr[-1], reference)
    _, position, velocity = _state_type(ref_traj.final)
    ref_pos = position(ref_traj.final)
    ref_vel = velocity(system, ref_traj.final)
    ref_energy = _final_energy(system, ref_traj)

    used_h = []
    errs = {ch: [] for ch in CHANNELS}
    for n in counts:
        h_used = T / n
        traj = run(stepper, system, initial, h_used, n)
        used_h.append(h_used)
        errs["position"].append(_inf_norm(position(traj.final) - ref_pos))
        errs["velocity"].append(_inf_norm(velocity(system, traj.final) - ref_vel))
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
    from .gni_flat import state_difference

    worst = 0.0
    for s in states:
        roundtrip = step_b(step_a(s, h), -h)
        worst = max(worst, state_difference(roundtrip, s))
    return worst


def sample_admissible_states(
    system,
    count: int,
    seed: int,
    h: float = 0.1,
    scheme: str = "continuous",
    box: float = 1.0,
):
    """Draw ``count`` admissible states: configurations uniform in
    ``[-box, box]^n``, Gaussian velocities projected onto the admissible
    set by the named scheme's own constraint form (see
    :func:`gni.gni_flat.prepare_state`)."""
    from .gni_flat import prepare_state

    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        q = rng.uniform(-box, box, size=system.dim)
        v = rng.standard_normal(system.dim)
        states.append(prepare_state(system, q, v, scheme=scheme, h=h))
    return states


# ---------------------------------------------------------------------------
# invariant suites


def _result(label: str, passed: bool, detail: str):
    return (label, bool(passed), detail)


def _bound_result(label, value, bound):
    return _result(label, value <= bound, f"max defect {value:.3e} (tol {bound:.1e})")


def _window_result(label, value, lo, hi):
    return _result(label, lo <= value <= hi, f"slope {value:.3f} (window [{lo}, {hi}])")


def _suite_lie(seed: int):
    from .lie_so3 import Ad, Ad_star, cay, dcay, dcay_inv, exp_so3, hat, vee

    rng = np.random.default_rng(seed)
    eye = np.eye(3)
    defects = {
        "hat/vee round trip": 0.0,
        "hat cross action": 0.0,
        "cay orthogonality": 0.0,
        "cay inverse at -w": 0.0,
        "tangent maps mutually inverse": 0.0,
        "exp orthogonality": 0.0,
        "exp inverse at -w": 0.0,
        "Ad matrix conjugation": 0.0,
        "Ad / Ad_star duality": 0.0,
    }
    for _ in range(100):
        w = rng.uniform(-1.5, 1.5, size=3)
        u = rng.standard_normal(3)
        m = rng.standard_normal(3)
        r_cay, r_exp = cay(w), exp_so3(w)
        defects["hat/vee round trip"] = max(
            defects["hat/vee round trip"], _inf_norm(vee(hat(w)) - w)
        )
        defects["hat cross action"] = max(
            defects["hat cross action"], _inf_norm(hat(w) @ u - np.cross(w, u))
        )
        defects["cay orthogonality"] = max(
            defects["cay orthogonality"],
            _inf_norm(r_cay.T @ r_cay - eye),
            abs(np.linalg.det(r_cay) - 1.0),
        )
        defects["cay inverse at -w"] = max(
            defects["cay inverse at -w"], _inf_norm(r_cay @ cay(-w) - eye)
        )
        defects["tangent maps mutually inverse"] = max(
            defects["tangent maps mutually inverse"],
            _inf_norm(dcay_inv(w) @ dcay(w) - eye),
        )
        defects["exp orthogonality"] = max(
            defects["exp orthogonality"],
            _inf_norm(r_exp.T @ r_exp - eye),
            abs(np.linalg.det(r_exp) - 1.0),
        )
        defects["exp inverse at -w"] = max(
            defects["exp inverse at -w"], _inf_norm(r_exp @ exp_so3(-w) - eye)
        )
        defects["Ad matrix conjugation"] = max(
            defects["Ad matrix conjugation"],
            _inf_norm(hat(Ad(r_cay, u)) - r_cay @ hat(u) @ r_cay.T),
        )
        defects["Ad / Ad_star duality"] = max(
            defects["Ad / Ad_star duality"],
            abs(float(Ad(r_cay, u) @ m) - float(u @ Ad_star(r_cay, m))),
        )
    return [_bound_result(f"lie: {k}", v, 1e-12) for k, v in defects.items()]


def _projector_defect(metric, p_mat, q_mat, rows) -> float:
    n = p_mat.shape[0]
    return max(
        _inf_norm(p_mat + q_mat - np.eye(n)),
        _inf_norm(p_mat @ p_mat - p_mat),
        _inf_norm(q_mat @ q_mat - q_mat),
        _inf_norm(p_mat @ q_mat),
        _inf_norm(rows @ p_mat),
        _inf_norm(p_mat.T @ metric @ q_mat),
    )


def _suite_projectors(seed: int):
    from .gni_reduced import chaplygin_reduced_system

    rng = np.random.default_rng(seed)
    results = []
    flat_systems = [
        ("particle", model.nonholonomic_particle("harmonic")),
        ("planar affine", model.constrained_2d(affine=(0.3, -0.1))),
    ]
    for name, sys in flat_systems:
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(-2.0, 2.0, size=sys.dim)
            p_mat, q_mat = model.projectors(sys, q)
            worst = max(
                worst,
                _projector_defect(sys.mass_matrix, p_mat, q_mat, sys.constraint_matrix(q)),
            )
        results.append(_bound_result(f"projectors: {name} algebra", worst, 1e-12))

    sphere_cases = [
        ("homogeneous sphere", ChaplyginParams(1.0, 1.0, 0.0, 2 / 3, 2 / 3, 2 / 3)),
        ("unbalanced sphere", ChaplyginParams(3.0, 1.0, 0.2, 1.0, 1.1, 1.2)),
    ]
    for name, params in sphere_cases:
        rsys = chaplygin_reduced_system(params)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=2)
            p_mat, q_mat = model.reduced_projectors(rsys, x)
            worst = max(
                worst,
                _projector_defect(
                    rsys.bundle_metric, p_mat, q_mat, rsys.annihilator_matrix(x)
                ),
            )
        results.append(_bound_result(f"projectors: {name} algebra", worst, 1e-12))

    homog = chaplygin_reduced_system(sphere_cases[0][1])
    p_mat, q_mat = model.reduced_projectors(homog, np.zeros(2))
    hand = max(
        abs(q_mat[0, 0] - 0.4), abs(q_mat[0, 3] + 0.4), abs(p_mat[4, 4] - 1.0)
    )
    results.append(_bound_result("projectors: sphere closed-form entries", hand, 1e-12))
    return results


def _mini_sweep(stepper, system, initial, T, h_list, channel="position"):
    report = convergence_sweep(stepper, system, initial, T, h_list, h_list[-1] / 30.0)
    return report.slopes[channel][0]


def _suite_steppers(seed: int):
    from . import gni_flat

    results = []
    sys = model.nonholonomic_particle("harmonic")
    h = 0.1
    states = sample_admissible_states(sys, 5, seed, h=h)

    worst = 0.0
    for stepper in (gni_flat.euler_a_step, gni_flat.euler_b_step, gni_flat.rattle_step):
        for s in states:
            worst = max(worst, gni_flat.state_difference(stepper(sys, s, 0.0), s))
    results.append(_bound_result("steppers: zero-step identity", worst, 1e-14))

    s = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=0.01)
    positions = [s.q.copy()]
    for _ in range(50):
        s = gni_flat.rattle_step(sys, s, 0.01)
        positions.append(s.q.copy())
    ld = gni_flat.verlet_lagrangian(sys)
    worst = 0.0
    q_prev, q_curr = positions[0], positions[1]
    for k in range(2, 51):
        q_next, _ = gni_flat.gni_generic_step_stats(ld, sys, q_prev, q_curr, 0.01)
        worst = max(worst, _inf_norm(q_next - positions[k]))
        q_prev, q_curr = q_curr, q_next
    results.append(
        _bound_result("steppers: generic scheme reproduces midpoint positions", worst, 1e-10)
    )

    initial = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2])
    grid = [0.1, 0.05, 0.025]
    results.append(
        _window_result(
            "steppers: one-sided scheme position order",
            _mini_sweep(gni_flat.euler_a_step, sys, initial, 1.0, grid),
            0.8,
            1.2,
        )
    )
    results.append(
        _window_result(
            "steppers: symmetric scheme position order",
            _mini_sweep(gni_flat.rattle_step, sys, initial, 1.0, grid),
            1.8,
            2.2,
        )
    )
    results.append(
        _window_result(
            "steppers: half-step composition order",
            _mini_sweep(gni_flat.composed_euler_step, sys, initial, 1.0, grid),
            1.8,
            2.2,
        )
    )

    newton = default_newton_config()
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    rsys = gni_reduced.chaplygin_reduced_system(params)
    hc = 1e-3
    q0 = np.array([1.0, 0.0])
    w0 = np.array([-0.2, 0.0, 0.4])
    rstate = gni_reduced.chaplygin_initial_reduced_state(params, q0, w0, hc)
    qs = [q0, gni_reduced.chaplygin_init(params, q0, w0, hc)]
    ws = [w0]
    worst = 0.0
    for k in range(1, 6):
        qn, wn, _ = gni_reduced.chaplygin_step_stats(
            params, qs[k - 1], qs[k], ws[k - 1], hc, newton
        )
        qs.append(qn)
        ws.append(wn)
        rstate = gni_reduced.reduced_rattle_step(rsys, rstate, hc, cfg=newton)
        worst = max(worst, _inf_norm(rstate.x - qs[k]), _inf_norm(rstate.xi - wn))
    results.append(
        _bound_result(
            "steppers: reduced scheme matches rolling-sphere solver", worst, 10 * hc * hc
        )
    )

    homog = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    hr = gni_reduced.chaplygin_reduced_system(homog)
    rstate = gni_reduced.chaplygin_initial_reduced_state(
        homog, np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0]), 0.1
    )
    worst = 0.0
    for _ in range(20):
        nxt = gni_reduced.reduced_rattle_step(hr, rstate, 0.1, cfg=newton)
        worst = max(worst, _inf_norm(gni_reduced.reduced_scheme_residual(hr, rstate, nxt, 0.1)))
        rstate = nxt
    results.append(
        _bound_result("steppers: reduced discrete constraint residual", worst, 1e-10)
    )

    traj = run(None, homog, (np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0])), 0.1, 200)
    results.append(
        _bound_result(
            "steppers: rolling-sphere discrete constraint residual",
            float(np.max(traj.residuals)),
            1e-10,
        )
    )

    report = convergence_sweep(
        None,
        homog,
        (np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0])),
        2.0,
        grid,
        grid[-1] / 30.0,
    )
    results.append(
        _window_result(
            "steppers: homogeneous-sphere energy order",
            report.slopes["energy"][0],
            1.7,
            2.3,
        )
    )
    return results


def _suite_adjoint(seed: int):
    from . import gni_flat

    results = []
    cases = [
        ("particle", model.nonholonomic_particle("harmonic")),
        ("planar affine", model.constrained_2d(affine=(0.3, -0.1))),
    ]
    h = 0.1
    for name, sys in cases:
        def a_step(s, hh, sys=sys):
            return gni_flat.euler_a_step(sys, s, hh)

        def b_step(s, hh, sys=sys):
            return gni_flat.euler_b_step(sys, s, hh)

        def r_step(s, hh, sys=sys):
            return gni_flat.rattle_step(sys, s, hh)

        states_a = sample_admissible_states(sys, 50, seed, h=h, scheme="euler_a")
        states_b = sample_admissible_states(sys, 50, seed + 1, h=h, scheme="euler_b")
        states_r = sample_admissible_states(sys, 50, seed + 2, h=h, scheme="rattle")
        results.append(
            _bound_result(
                f"adjoint: {name} one-sided pair (A then B)",
                adjoint_check(a_step, b_step, states_a, h),
                1e-9,
            )
        )
        results.append(
            _bound_result(
                f"adjoint: {name} one-sided pair (B then A)",
                adjoint_check(b_step, a_step, states_b, h),
                1e-9,
            )
        )
        results.append(
            _bound_result(
                f"adjoint: {name} symmetric scheme self-adjointness",
                adjoint_check(r_step, r_step, states_r, h),
                1e-9,
            )
        )
    return results


_SUITE_FUNCTIONS = {
    "lie": _suite_lie,
    "projectors": _suite_projectors,
    "steppers": _suite_steppers,
    "adjoint": _suite_adjoint,
}


def check_suite(suite: str = "all", seed: int = 0, quiet: bool = False):
    """Execute an invariant battery and return ``(label, passed, detail)``
    triples.

    ``suite`` is one of ``"lie"``, ``"projectors"``, ``"steppers"``,
    ``"adjoint"``, or ``"all"``.  Every battery is deterministic given
    ``seed`` (the "all" run equals the concatenation of the individual
    suites at the same seed).  Unless ``quiet``, one line per check is
    printed as it completes.
    """
    if suite == "all":
        names = tuple(_SUITE_FUNCTIONS)
    elif suite in _SUITE_FUNCTIONS:
        names = (suite,)
    else:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {sorted(_SUITE_FUNCTIONS)} or 'all'"
        )
    results = []
    for name in names:
        for label, passed, detail in _SUITE_FUNCTIONS[name](seed):
            if not quiet:
                print(f"{'ok  ' if passed else 'FAIL'} {label}: {detail}")
            results.append((label, passed, detail))
    return results
