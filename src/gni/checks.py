"""Invariant batteries of the command-line ``check`` subcommand.

:func:`check_suite` runs the Lie-group, projector, stepper and adjoint
batteries and returns one ``(label, passed, detail)`` triple per check.
The runs and sweeps themselves live in :mod:`gni.analysis`; this module
is imported only by the subcommand that runs the batteries.
"""
from __future__ import annotations

import itertools
from functools import partial

import numpy as np

from . import gni_flat, gni_reduced, model
from .analysis import _inf_norm, adjoint_check, convergence_sweep, run, sample_admissible_states, slope_fit
from .gni_reduced import ChaplyginParams
from .lie_so3 import Ad, Ad_star, cay, dcay, dcay_inv, exp_so3, hat, vee
from .numerics import default_newton_config

__all__ = ["check_suite"]


def _result(label: str, passed: bool, detail: str):
    return (label, bool(passed), detail)


def _bound_result(label, value, bound):
    return _result(label, value <= bound, f"max defect {value:.3e} (tol {bound:.1e})")


def _window_result(label, value, lo, hi):
    return _result(label, lo <= value <= hi, f"slope {value:.3f} (window [{lo}, {hi}])")


def _suite_lie(seed: int):
    rng = np.random.default_rng(seed)
    eye = np.eye(3)
    defects = {}
    for _ in range(100):
        w = rng.uniform(-1.5, 1.5, size=3)
        u = rng.standard_normal(3)
        m = rng.standard_normal(3)
        r_cay, r_exp = cay(w), exp_so3(w)
        values = {
            "hat/vee round trip": [_inf_norm(vee(hat(w)) - w)],
            "hat cross action": [_inf_norm(hat(w) @ u - np.cross(w, u))],
            "cay orthogonality": [_inf_norm(r_cay.T @ r_cay - eye), abs(np.linalg.det(r_cay) - 1.0)],
            "cay inverse at -w": [_inf_norm(r_cay @ cay(-w) - eye)],
            "tangent maps mutually inverse": [_inf_norm(dcay_inv(w) @ dcay(w) - eye)],
            "exp orthogonality": [_inf_norm(r_exp.T @ r_exp - eye), abs(np.linalg.det(r_exp) - 1.0)],
            "exp inverse at -w": [_inf_norm(r_exp @ exp_so3(-w) - eye)],
            "Ad matrix conjugation": [_inf_norm(hat(Ad(r_cay, u)) - r_cay @ hat(u) @ r_cay.T)],
            "Ad / Ad_star duality": [abs(float(Ad(r_cay, u) @ m) - float(u @ Ad_star(r_cay, m)))],
        }
        for k, v in values.items():
            defects[k] = max(defects.get(k, 0.0), *v)
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
        rsys = gni_reduced.chaplygin_reduced_system(params)
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

    homog = gni_reduced.chaplygin_reduced_system(sphere_cases[0][1])
    p_mat, q_mat = model.reduced_projectors(homog, np.zeros(2))
    hand = max(
        abs(q_mat[0, 0] - 0.4), abs(q_mat[0, 3] + 0.4), abs(p_mat[4, 4] - 1.0)
    )
    results.append(_bound_result("projectors: sphere closed-form entries", hand, 1e-12))
    return results


def _mini_sweep(stepper, system, initial, T, h_list, channel="position"):
    report = convergence_sweep(stepper, system, initial, T, h_list, ("self", h_list[-1] / 30.0))
    return report.slopes[channel][0]


def _kept_structures():
    """What the particle's schemes keep, from the rows of runs to T = 20 at
    h = 0.1 and 0.05 from q0 = (0.3, 0.2, 0.1), v0 = (1, 0.5, 0.2): ``J =
    p_x + y p_z`` obeys the discrete momentum equation ``J_{k+1} - J_k = h
    v_y v_z - h (x_k + x_{k+1}) / 2``, ``v = (q_{k+1} - q_k) / h`` and the
    last term the harmonic potential's, and without it ``|v|^2 / 2`` is kept."""
    defects, kinetic = {"flat": 0.0, "gni_generic": 0.0}, 0.0
    for potential, scheme, h in itertools.product(
        ("harmonic", "none"), ("euler_a", "euler_b", "rattle", "gni_generic"), (0.1, 0.05)
    ):
        sys, generic = model.nonholonomic_particle(potential), scheme == "gni_generic"
        stepper = gni_flat.verlet_lagrangian(sys) if generic else gni_flat.FlatStepper(scheme)
        form = "rattle" if generic else scheme
        s0 = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], form, h)
        rows = run(stepper, sys, s0, h, round(20.0 / h)).states
        q, p, v = rows[:, :3], rows[:, 3:6], np.diff(rows[:, :3], axis=0) / h
        forcing = h * v[:, 1] * v[:, 2]
        if potential == "harmonic":
            forcing -= h * (q[:-1, 0] + q[1:, 0]) / 2.0
        j = p[:, 0] + q[:, 1] * p[:, 2]
        kind = scheme if generic else "flat"
        defects[kind] = max(defects[kind], _inf_norm(np.diff(j) - forcing))
        if potential == "none":
            kinetic = max(kinetic, float(np.ptp(0.5 * np.sum(v * v, axis=1))))
    flat, generic = defects["flat"], defects["gni_generic"]
    detail = (f"max defect {flat:.3e} (tol 1.0e-13) for the flat maps, "
              f"{generic:.3e} (tol 1.0e-11) for gni_generic")
    return [
        _result("steppers: discrete momentum equation", flat <= 1e-13 and generic <= 1e-11, detail),
        _bound_result("steppers: interval kinetic energy (potential-free)", kinetic, 1e-12),
    ]


def _moving_energy_variation(h, omega_sign=1.0):
    """The variation of ``E_mov = E - Omega m (x ydot - y xdot)`` along
    ``chaplygin_gni`` on the criterion-06 sphere to ``T = 15`` at about ``h``, in
    interval form (``xdot = (x_{k+1} - x_k) / h``, ``x`` at the interval's
    midpoint, ``xi`` the row's ``w``); ``omega_sign = -1`` flips the plate term."""
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    n = round(15.0 / h)
    rows = run(None, params, (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4])), 15.0 / n, n).states
    x, w = rows[:, :2], rows[:-1, 2:]
    xdot = (x[1:] - x[:-1]) / (15.0 / n)
    mid = 0.5 * (x[1:] + x[:-1])
    energy = 0.5 * params.m * np.sum(xdot * xdot, axis=1) + 0.5 * np.sum(params.inertia * w * w, axis=1)
    moment = params.m * (mid[:, 0] * xdot[:, 1] - mid[:, 1] * xdot[:, 0])
    return np.ptp(energy - omega_sign * params.omega * moment)


def _suite_steppers(seed: int):
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
    results += _kept_structures()

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
        ("self", grid[-1] / 30.0),
    )
    results.append(
        _window_result(
            "steppers: homogeneous-sphere energy order",
            report.slopes["energy"][0],
            1.7,
            2.3,
        )
    )
    # The continuous moving energy is a first integral; the sphere keeps it
    # to O(h^2), varying by 1.236e-3, 3.106e-4 and 7.779e-5 over this grid.
    moving = [0.05, 0.025, 0.0125]
    slope, _ = slope_fit(moving, [_moving_energy_variation(h) for h in moving])
    results.append(_window_result("steppers: sphere moving energy order", slope, 1.8, 2.2))
    return results


def _suite_adjoint(seed: int):
    results = []
    cases = [
        ("particle", model.nonholonomic_particle("harmonic")),
        ("planar affine", model.constrained_2d(affine=(0.3, -0.1))),
    ]
    h = 0.1
    pairs = [
        ("one-sided pair (A then B)", gni_flat.euler_a_step, gni_flat.euler_b_step),
        ("one-sided pair (B then A)", gni_flat.euler_b_step, gni_flat.euler_a_step),
        ("symmetric scheme self-adjointness", gni_flat.rattle_step, gni_flat.rattle_step),
    ]
    for name, sys in cases:
        for i, (label, first, second) in enumerate(pairs):
            # The states of each pair sit on its first map's constraint form.
            states = sample_admissible_states(sys, 50, seed + i, h=h, scheme=first.scheme)
            defect = adjoint_check(partial(first, sys), partial(second, sys), states, h)
            results.append(_bound_result(f"adjoint: {name} {label}", defect, 1e-9))
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
