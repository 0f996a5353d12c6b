"""Acceptance battery: ten end-to-end criteria, each printing one line.

Every test measures its quantity at the stated tolerance and prints a
single ``[PASS]``/``[FAIL]`` summary line (visible even under pytest's
capture) before asserting.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from gni import analysis, cli, gni_flat, model
from gni.analysis import adjoint_check, check_suite, convergence_sweep, run, sample_admissible_states
from gni.gni_reduced import (
    ChaplyginParams,
    chaplygin_init,
    chaplygin_initial_reduced_state,
    chaplygin_reduced_system,
    chaplygin_step_stats,
    reduced_rattle_step,
    standard_retracted_lagrangian,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GRID = [1e-1, 5e-2, 2.5e-2, 1.25e-2]


def _announce(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _flat_systems():
    return [
        ("particle", model.nonholonomic_particle("harmonic"), [0.3, 0.2, 0.1], [1.0, 0.5, 0.2]),
        ("planar", model.constrained_2d(), [0.3, 0.2], [1.0, -0.5]),
    ]


def _position_slope(stepper, sys, q0, v0) -> float:
    initial = gni_flat.prepare_state(sys, q0, v0)
    report = convergence_sweep(stepper, sys, initial, 1.0, GRID, ("self", GRID[-1] / 100.0))
    return report.slopes["position"][0]


def test_criterion_01_one_sided_schemes_first_order(capsys):
    start = time.perf_counter()
    slopes = {}
    for scheme, stepper in (("A", gni_flat.euler_a_step), ("B", gni_flat.euler_b_step)):
        for name, sys, q0, v0 in _flat_systems():
            slopes[f"{scheme}/{name}"] = _position_slope(stepper, sys, q0, v0)
    elapsed = time.perf_counter() - start
    ok = all(0.8 <= s <= 1.2 for s in slopes.values()) and elapsed < 5.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items()) + f"; {elapsed:.2f}s"
    _announce(capsys, "criterion 01 euler A/B position order in [0.8, 1.2]", ok, detail)


def test_criterion_02_symmetric_scheme_second_order(capsys):
    start = time.perf_counter()
    slopes = {}
    for name, sys, q0, v0 in _flat_systems():
        slopes[name] = _position_slope(gni_flat.rattle_step, sys, q0, v0)
    elapsed = time.perf_counter() - start
    ok = all(1.8 <= s <= 2.2 for s in slopes.values()) and elapsed < 5.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items()) + f"; {elapsed:.2f}s"
    _announce(capsys, "criterion 02 rattle position order in [1.8, 2.2]", ok, detail)


def test_criterion_03_adjoint_pair_defect(capsys):
    h = 0.1
    worst = 0.0
    for name, sys, _q0, _v0 in _flat_systems():

        def a_step(s, step, sys=sys):
            return gni_flat.euler_a_step(sys, s, step)

        def b_step(s, step, sys=sys):
            return gni_flat.euler_b_step(sys, s, step)

        states_a = sample_admissible_states(sys, 50, seed=101, h=h, scheme="euler_a")
        states_b = sample_admissible_states(sys, 50, seed=202, h=h, scheme="euler_b")
        worst = max(worst, adjoint_check(a_step, b_step, states_a, h))
        worst = max(worst, adjoint_check(b_step, a_step, states_b, h))
    ok = worst <= 1e-9
    _announce(
        capsys,
        "criterion 03 A/B adjointness defect <= 1e-9 (both orderings)",
        ok,
        f"max defect {worst:.3e}",
    )


def test_criterion_04_half_step_composition_second_order(capsys):
    start = time.perf_counter()
    slopes = {}
    for name, sys, q0, v0 in _flat_systems():
        slopes[name] = _position_slope(gni_flat.composed_euler_step, sys, q0, v0)
    elapsed = time.perf_counter() - start
    ok = all(1.8 <= s <= 2.2 for s in slopes.values()) and elapsed < 5.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items()) + f"; {elapsed:.2f}s"
    _announce(capsys, "criterion 04 A(h/2)B(h/2) composition order in [1.8, 2.2]", ok, detail)


def test_criterion_05_bounded_replay_constraint_preservation(capsys):
    params = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    start = time.perf_counter()
    traj = run(None, params, (np.array([1.0, 1.0]), np.array([0.0, 2.0, 0.0])), 0.1, 10**4)
    elapsed = time.perf_counter() - start
    max_res = float(np.max(traj.residuals))
    max_q = float(max(np.max(np.abs(s[:2])) for s in traj.states))
    ok = max_res <= 1e-10 and max_q <= 10.0 and elapsed < 10.0
    _announce(
        capsys,
        "criterion 05 10^4-step rolling-sphere replay",
        ok,
        f"max residual {max_res:.3e}, max |(x, y)| {max_q:.4f}, {elapsed:.2f}s",
    )


def test_criterion_06_sphere_convergence_orders(capsys):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    h_list = [0.15 / 2**k for k in range(8)]
    initial = (np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]))
    start = time.perf_counter()
    report = convergence_sweep(None, params, initial, 15.0, h_list, ("self", min(h_list) / 30.0))
    elapsed = time.perf_counter() - start
    pos = report.slopes["position"][0]
    vel = report.slopes["velocity"][0]
    energy = report.slopes["energy"][0]
    ok = (
        0.75 <= pos <= 1.3
        and 0.75 <= vel <= 1.3
        and 1.7 <= energy <= 2.3
        and elapsed < 60.0
    )
    _announce(
        capsys,
        "criterion 06 sphere orders (pos/omega ~ 1, energy ~ 2)",
        ok,
        f"pos {pos:.3f}, omega {vel:.3f}, energy {energy:.3f}; {elapsed:.2f}s",
    )


def test_criterion_07_lie_identity_suite(capsys):
    start = time.perf_counter()
    results = check_suite("lie", seed=0, quiet=True)
    elapsed = time.perf_counter() - start
    failed = [label for label, passed, _ in results if not passed]
    ok = not failed and elapsed < 1.0
    _announce(
        capsys,
        "criterion 07 retraction/tangent identity suite",
        ok,
        f"{len(results)} checks, failed {failed or 'none'}; {elapsed:.2f}s",
    )


def test_criterion_08_projector_algebra_suite(capsys):
    start = time.perf_counter()
    results = check_suite("projectors", seed=0, quiet=True)
    elapsed = time.perf_counter() - start
    failed = [label for label, passed, _ in results if not passed]
    ok = not failed and elapsed < 1.0
    _announce(
        capsys,
        "criterion 08 projector algebra suite at 1e-12",
        ok,
        f"{len(results)} checks, failed {failed or 'none'}; {elapsed:.2f}s",
    )


def test_criterion_09_scheme_equivalences(capsys):
    sys = model.nonholonomic_particle("harmonic")
    h = 0.01

    # (a) generic scheme with the centered discrete Lagrangian == rattle
    s = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="rattle", h=h)
    positions = [s.q.copy()]
    for _ in range(100):
        s = gni_flat.rattle_step(sys, s, h)
        positions.append(s.q.copy())
    ld = gni_flat.verlet_lagrangian(sys)
    defect_mid = 0.0
    q_prev, q_curr = positions[0], positions[1]
    for k in range(2, 101):
        q_next, _ = gni_flat.gni_generic_step_stats(ld, sys, q_prev, q_curr, h)
        defect_mid = max(defect_mid, float(np.max(np.abs(q_next - positions[k]))))
        q_prev, q_curr = q_curr, q_next

    # (b) generic scheme with the one-sided discrete Lagrangian == euler_a
    s = gni_flat.prepare_state(sys, [0.3, 0.2, 0.1], [1.0, 0.5, 0.2], scheme="euler_a", h=h)
    positions = [s.q.copy()]
    for _ in range(100):
        s = gni_flat.euler_a_step(sys, s, h)
        positions.append(s.q.copy())
    ld_a = gni_flat.euler_a_lagrangian(sys)
    defect_a = 0.0
    q_prev, q_curr = positions[0], positions[1]
    for k in range(2, 101):
        q_next, _ = gni_flat.gni_generic_step_stats(ld_a, sys, q_prev, q_curr, h)
        defect_a = max(defect_a, float(np.max(np.abs(q_next - positions[k]))))
        q_prev, q_curr = q_curr, q_next

    # (c) reduced symmetric scheme == specialized rolling-sphere recurrence
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    rsys = chaplygin_reduced_system(params)
    rld = standard_retracted_lagrangian(rsys)
    hc = 1e-3
    q0 = np.array([1.0, 0.0])
    w0 = np.array([-0.2, 0.0, 0.4])
    rstate = chaplygin_initial_reduced_state(params, q0, w0, hc)
    qs = [q0, chaplygin_init(params, q0, w0, hc)]
    ws = [w0]
    defect_red = 0.0
    for k in range(1, 11):
        qn, wn, _ = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], hc)
        qs.append(qn)
        ws.append(wn)
        rstate = reduced_rattle_step(rsys, rstate, hc)
        defect_red = max(
            defect_red,
            float(np.max(np.abs(rstate.x - qs[k]))),
            float(np.max(np.abs(rstate.xi - wn))),
        )

    ok = defect_mid <= 1e-10 and defect_a <= 1e-10 and defect_red <= 10 * hc * hc
    _announce(
        capsys,
        "criterion 09 scheme equivalences",
        ok,
        f"generic-vs-rattle {defect_mid:.3e}, generic-vs-eulerA {defect_a:.3e}, "
        f"reduced-vs-sphere {defect_red:.3e} (tol {10 * hc * hc:.1e})",
    )


def test_criterion_10_byte_identical_csv(capsys, tmp_path):
    checked = []
    for name in ("particle_euler_a.cfg", "sphere_reduced.cfg"):
        first = tmp_path / f"{name}.a.csv"
        second = tmp_path / f"{name}.b.csv"
        config = str(CONFIG_DIR / name)
        code_a = cli.main(["simulate", "--config", config, "--out", str(first), "--quiet"])
        code_b = cli.main(["simulate", "--config", config, "--out", str(second), "--quiet"])
        checked.append(
            code_a == 0 and code_b == 0 and first.read_bytes() == second.read_bytes()
        )
    ok = all(checked)
    _announce(
        capsys,
        "criterion 10 identical config + seed -> byte-identical CSV",
        ok,
        f"{len(checked)} configs re-run and compared",
    )
