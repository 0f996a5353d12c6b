"""Tests for config parsing, the system registry, and CSV emission."""
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gni import checks, cli, gni_flat, gni_reduced, model, numerics
from gni.gni_flat import scheme_constraint_residual
from gni.gni_reduced import (
    chaplygin_init,
    chaplygin_reduced_system,
    chaplygin_scheme_residual,
    chaplygin_step_stats,
    reduced_scheme_residual,
)
from gni.analysis import StepFailed
from gni.model import PhaseState, ReducedState, constraint_residual
from gni.numerics import NoConvergence, RankDeficient, SingularMatrix
from solve_oracle import small_solve
from gni.cli import (
    INTEGRATORS,
    SYSTEMS,
    ParseError,
    RunConfig,
    ValidationError,
    main,
    parse_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

MINIMAL_SPHERE = """\
[system]
name = chaplygin

[integrator]
name = chaplygin_gni

[run]
h = 0.1
N = 100
"""

PARTICLE_TEMPLATE = """\
[system]
name = nonholonomic_particle
potential = harmonic
q0 = 0.3, 0.2, 0.1
v0 = 1.0, 0.5, 0.2

[integrator]
name = {integrator}

[run]
h = 0.05
T = 0.5
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_sphere_config_uses_defaults():
    cfg = parse_config(MINIMAL_SPHERE)
    assert cfg.system == "chaplygin"
    assert cfg.integrator == "chaplygin_gni"
    assert cfg.h == 0.1
    assert cfg.steps == 100
    # omitted parameters stay unset; documented defaults apply at build time
    assert cfg.m is None and cfg.inertia is None and cfg.q0 is None
    params = cli._build_sphere_params(cfg)
    assert params.m == 1.0 and params.r == 1.0 and params.omega == 1.0
    assert params.i1 == pytest.approx(2.0 / 3.0)
    q0, w0 = cli._sphere_initial(cfg)
    np.testing.assert_allclose(q0, [1.0, 1.0])
    np.testing.assert_allclose(w0, [0.0, 2.0, 0.0])


def test_parse_comments_whitespace_and_lists():
    text = """
    # leading comment
    [system]
    name = constrained_2d   # trailing comment
    affine =  0.3 ,  -0.2

    [integrator]
    name = rattle_affine

    [run]
    h = 0.1
    T = 1.0
    """
    cfg = parse_config(text)
    assert cfg.affine == (0.3, -0.2)


def test_parse_rejects_both_h_and_h_list():
    text = MINIMAL_SPHERE.replace("N = 100", "N = 100\nh_list = 0.1, 0.05, 0.025")
    with pytest.raises(ValidationError) as excinfo:
        parse_config(text)
    assert excinfo.value.field == "h"


def test_parse_rejects_both_T_and_N():
    text = MINIMAL_SPHERE + "T = 10.0\n"
    with pytest.raises(ValidationError) as excinfo:
        parse_config(text)
    assert excinfo.value.field == "T"


def test_parse_unknown_key_reports_line():
    text = "[system]\nname = chaplygin\nbogus = 1\n"
    with pytest.raises(ParseError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == 3
    assert "bogus" in excinfo.value.message


def test_parse_unknown_section():
    with pytest.raises(ParseError):
        parse_config("[misc]\nkey = 1\n")


def test_parse_duplicate_key():
    with pytest.raises(ParseError) as excinfo:
        parse_config("[system]\nname = chaplygin\nname = chaplygin\n")
    assert "duplicate" in excinfo.value.message


def test_parse_bad_value_reports_line():
    text = (
        "[system]\nname = chaplygin\nm = heavy\n"
        "[integrator]\nname = chaplygin_gni\n[run]\nh = 0.1\nN = 5\n"
    )
    with pytest.raises(ParseError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == 3


def test_parse_key_outside_section():
    with pytest.raises(ParseError):
        parse_config("name = chaplygin\n")


def test_parse_missing_names():
    with pytest.raises(ValidationError) as excinfo:
        parse_config("[run]\nh = 0.1\nN = 5\n")
    assert excinfo.value.field == "system"
    with pytest.raises(ValidationError) as excinfo:
        parse_config("[system]\nname = chaplygin\n[run]\nh = 0.1\nN = 5\n")
    assert excinfo.value.field == "integrator"


@pytest.mark.parametrize("line", ["seed = 0", "suite = all"])
def test_parse_rejects_removed_run_keys(line):
    text = MINIMAL_SPHERE + line + "\n"
    with pytest.raises(ParseError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == len(text.splitlines())
    assert line.split()[0] in excinfo.value.message


def test_parse_reports_the_first_bad_value_in_key_order():
    # Values are read in the order of the key table, not of the file.
    text = MINIMAL_SPHERE.replace("N = 100", "N = many") + "[system]\nm = heavy\n"
    with pytest.raises(ParseError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == len(text.splitlines())
    assert "'m'" in excinfo.value.message


# ---------------------------------------------------------------------------
# validation


def _sphere_cfg(**overrides):
    base = dict(system="chaplygin", integrator="chaplygin_gni", h=0.1, steps=10)
    base.update(overrides)
    return RunConfig(**base)


def test_validate_initial_state_keys():
    with pytest.raises(ValidationError) as excinfo:
        cli._validate(_sphere_cfg(v0=(1.0, 0.0)))
    assert excinfo.value.field == "v0"
    with pytest.raises(ValidationError) as excinfo:
        cli._validate(
            RunConfig(
                system="nonholonomic_particle",
                integrator="euler_a",
                w0=(0.0, 1.0, 0.0),
                h=0.1,
                steps=10,
            )
        )
    assert excinfo.value.field == "w0"


def test_validate_integrator_system_compatibility():
    with pytest.raises(ValidationError):
        cli._validate(_sphere_cfg(integrator="euler_a"))
    with pytest.raises(ValidationError):
        cli._validate(
            RunConfig(
                system="nonholonomic_particle",
                integrator="reduced_rattle",
                h=0.1,
                steps=10,
            )
        )


def test_validate_rattle_affine_needs_affine_offset():
    with pytest.raises(ValidationError):
        cli._validate(
            RunConfig(system="constrained_2d", integrator="rattle_affine", h=0.1, steps=5)
        )
    cli._validate(
        RunConfig(
            system="constrained_2d",
            integrator="rattle_affine",
            affine=(0.3, -0.2),
            h=0.1,
            steps=5,
        )
    )


def test_validate_retraction_requires_reduced_scheme():
    with pytest.raises(ValidationError) as excinfo:
        cli._validate(_sphere_cfg(retraction="cay"))
    assert excinfo.value.field == "retraction"


def test_validate_rk4_reference_restrictions():
    with pytest.raises(ValidationError):
        cli._validate(
            _sphere_cfg(h=None, steps=None, h_list=(0.1, 0.05, 0.025), T=1.0, reference="rk4")
        )
    with pytest.raises(ValidationError):
        cli._validate(
            RunConfig(
                system="constrained_2d",
                integrator="rattle_affine",
                affine=(0.3, -0.2),
                h_list=(0.1, 0.05, 0.025),
                T=1.0,
                reference="rk4",
            )
        )


def test_validate_h_ref_bound():
    with pytest.raises(ValidationError) as excinfo:
        cli._validate(
            _sphere_cfg(h=None, steps=None, h_list=(0.1, 0.05, 0.025), T=1.0, h_ref=0.01)
        )
    assert excinfo.value.field == "h_ref"


def _sweep_cfg(h_ref, h_list=(0.1, 0.05, 0.025)):
    lines = ", ".join(map(repr, h_list))
    text = PARTICLE_TEMPLATE.format(integrator="rattle").replace("h = 0.05\nT = 0.5", f"h_list = {lines}\nT = 1.0")
    return text + ("" if h_ref is None else f"h_ref = {h_ref!r}\n")


def test_validate_caps_the_reference_step_count():
    # T / h_ref steps, with h_ref defaulting to min(h_list) / 30.
    assert parse_config(_sweep_cfg(1.0 / 0.99e8)).h_ref == 1.0 / 0.99e8
    assert parse_config(_sweep_cfg(None, (3e-6, 2e-6, 1e-6))).h_ref is None
    for text in (_sweep_cfg(1.0 / 1.01e8), _sweep_cfg(None, (3e-7, 2e-7, 1e-7))):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.field == "h_ref"


def test_sweep_with_a_mistyped_h_ref_exits_2_before_stepping(tmp_path, monkeypatch, capsys):
    # On the shipped sphere sweep h_ref = 1e-9 asks for 1.5e10 reference steps.
    def no_stepping(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "convergence_sweep", no_stepping)
    cfg = tmp_path / "mistyped.cfg"
    cfg.write_text((CONFIG_DIR / "sphere_convergence.cfg").read_text() + "h_ref = 1e-9\n")
    out = tmp_path / "conv.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "1.5e+10 steps" in capsys.readouterr().err
    assert not out.exists()


def test_validate_sweep_needs_final_time():
    with pytest.raises(ValidationError):
        cli._validate(_sphere_cfg(h=None, h_list=(0.1, 0.05, 0.025)))


def test_validate_inertia():
    with pytest.raises(ValidationError):
        cli._validate(_sphere_cfg(inertia=(1.0, 1.0)))
    with pytest.raises(ValidationError):
        cli._validate(_sphere_cfg(inertia=(1.0, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# main(): simulate


def test_simulate_csv_header_and_rows(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--config", str(CONFIG_DIR / "particle_euler_a.cfg"), "--out", str(out), "--quiet"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,t,x,y,z,px,py,pz,energy,constraint_res,newton_iters"
    assert len(lines) == 22  # header + 21 rows (N = T/h = 20)
    assert lines[1].startswith("0,0,")


def test_simulate_stdout_when_no_out(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_SPHERE.replace("N = 100", "N = 3"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "step,t,x,y,w1,w2,w3,energy,constraint_res,newton_iters"
    assert len(lines) == 5


@pytest.mark.parametrize("integrator", ["euler_a", "euler_b", "rattle", "rattle_affine", "gni_generic"])
def test_simulate_flat_constraint_column_is_tiny(tmp_path, integrator):
    cfg = tmp_path / "run.cfg"
    if integrator == "rattle_affine":  # on constrained_2d with an affine offset
        cfg.write_text(PLANAR_AFFINE.replace("N = 8", "T = 0.5"))
        width = 9
    else:
        cfg.write_text(PARTICLE_TEMPLATE.format(integrator=integrator))
        width = 11
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (11, width)
    assert np.max(rows[:, -2]) <= 1e-10  # constraint_res column
    energy = rows[:, -3]
    assert np.max(np.abs(energy - energy[0])) < 0.05  # near-conserved


def test_simulate_reduced_sphere(tmp_path):
    out = tmp_path / "red.csv"
    code = main(
        ["simulate", "--config", str(CONFIG_DIR / "sphere_reduced.cfg"), "--out", str(out), "--quiet"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "step,t,x,y,px,py,w1,w2,w3,pw1,pw2,pw3,energy,constraint_res,newton_iters"
    )
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[0] == 101
    assert np.max(rows[:, 13]) <= 1e-10


PLANAR_AFFINE = """\
[system]
name = constrained_2d
affine = 0.3, -0.2

[integrator]
name = rattle_affine

[run]
h = 0.05
N = 8
"""


def _read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(x) for x in row.split(",")] for row in rows])


@pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
def test_constraint_column_is_the_preserved_form(tmp_path, integrator):
    # The column holds, row by row, the residual of the constraint form the
    # integrator preserves, recomputed here from the written state values.
    h = 0.05
    if integrator == "rattle_affine":
        text = PLANAR_AFFINE
    elif integrator in ("reduced_rattle", "chaplygin_gni"):
        text = (CONFIG_DIR / "sphere_reduced.cfg").read_text().replace("T = 5.0", "N = 8")
        if integrator == "chaplygin_gni":
            text = text.replace("name = reduced_rattle\nretraction = cay", "name = chaplygin_gni")
    else:
        text = PARTICLE_TEMPLATE.format(integrator=integrator).replace("T = 0.5", "N = 8")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    names, table = _read_csv(out)
    column = table[:, names.index("constraint_res")]
    values = table[:, 2 : names.index("energy")]
    cfg = parse_config(text)

    if integrator == "chaplygin_gni":
        params = cli._build_sphere_params(cfg)
        q0, w0 = cli._sphere_initial(cfg)
        qs, ws = [q0, chaplygin_init(params, q0, w0, h)], [w0]
        for k in range(1, 9):
            q_next, w, _ = chaplygin_step_stats(params, qs[k - 1], qs[k], ws[k - 1], h)
            qs.append(q_next)
            ws.append(w)
        assert np.array_equal(values, np.hstack([qs[:9], ws]))
        expected = [0.0] + [
            np.max(np.abs(chaplygin_scheme_residual(
                params, qs[k - 1], qs[k], qs[k + 1], ws[k - 1], ws[k], h
            )))
            for k in range(1, 9)
        ]
    elif integrator == "reduced_rattle":
        rsys = chaplygin_reduced_system(cli._build_sphere_params(cfg))
        states = [ReducedState(v[:2], v[2:4], v[4:7], v[7:10], np.zeros(2)) for v in values]
        expected = [0.0] + [
            np.max(np.abs(reduced_scheme_residual(rsys, a, b, h, "cay")))
            for a, b in zip(states, states[1:])
        ]
        assert column[0] == 0.0
    else:
        sys = cli._build_flat_system(cfg)
        states = [PhaseState(v[: sys.dim], v[sys.dim :], np.zeros(1)) for v in values]
        if integrator in ("euler_a", "euler_b"):
            expected = [
                np.max(np.abs(scheme_constraint_residual(sys, s, h, integrator)))
                for s in states
            ]
        else:
            expected = [np.max(np.abs(constraint_residual(sys, s))) for s in states]
    assert np.array_equal(column, expected)
    assert np.max(column) <= 1e-10


def test_simulate_byte_identical_reruns(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    config = str(CONFIG_DIR / "particle_euler_b.cfg")
    assert main(["simulate", "--config", config, "--out", str(first), "--quiet"]) == 0
    assert main(["simulate", "--config", config, "--out", str(second), "--quiet"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_out_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        MINIMAL_SPHERE.replace("N = 100", f"N = 3\nout = {tmp_path / 'from_config.csv'}")
    )
    target = tmp_path / "explicit.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(target), "--quiet"]) == 0
    assert target.exists()
    assert not (tmp_path / "from_config.csv").exists()


def test_simulate_rejects_sweep_config(tmp_path):
    code = main(
        [
            "simulate",
            "--config",
            str(CONFIG_DIR / "particle_rattle_sweep.cfg"),
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# main(): sweep


def test_sweep_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(
        ["sweep", "--config", str(CONFIG_DIR / "particle_rattle_sweep.cfg"), "--out", str(out)]
    )
    assert code == 0
    assert "position: slope" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "h,err_pos,err_vel,err_energy"
    slopes = {
        line.split("=")[0]: float(line.split("=")[1])
        for line in lines
        if line.startswith("# slope_")
    }
    assert 1.8 <= slopes["# slope_pos"] <= 2.2
    assert 1.8 <= slopes["# slope_energy"] <= 2.2
    rows = np.loadtxt(out, delimiter=",", skiprows=1, comments="#")
    assert rows.shape == (4, 4)


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_sweep_reduced_rattle_second_order_in_position(tmp_path, capsys, retraction):
    text = (CONFIG_DIR / "sphere_reduced.cfg").read_text()
    text = text.replace("retraction = cay", f"retraction = {retraction}")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text.replace("h = 0.05\nT = 5.0", "h_list = 0.1, 0.05, 0.025\nT = 1.0"))
    out = tmp_path / "conv.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    slopes = {
        line.split("=")[0]: float(line.split("=")[1])
        for line in out.read_text().splitlines()
        if line.startswith("# slope_")
    }
    assert 1.8 <= slopes["# slope_pos"] <= 2.2


def test_sweep_gni_generic_second_order_in_position(tmp_path, capsys):
    # The generic three-point recurrence sweeps through the same runner as
    # the one-step maps, against either reference.
    text = (CONFIG_DIR / "particle_rattle_sweep.cfg").read_text()
    text = text.replace("name = rattle", "name = gni_generic")
    for reference in ("self", "rk4"):
        cfg = tmp_path / f"{reference}.cfg"
        cfg.write_text(text.replace("reference = self", f"reference = {reference}"))
        out = tmp_path / f"{reference}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        slopes = {
            line.split("=")[0]: float(line.split("=")[1])
            for line in out.read_text().splitlines()
            if line.startswith("# slope_")
        }
        assert 1.8 <= slopes["# slope_pos"] <= 2.2


@pytest.mark.parametrize("verb, config", [
    ("simulate", "particle_euler_a.cfg"),
    ("sweep", "particle_rattle_sweep.cfg"),
])
def test_simulate_and_sweep_take_no_seed_flag(tmp_path, capsys, verb, config):
    out = tmp_path / "x.csv"
    args = [verb, "--config", str(CONFIG_DIR / config), "--out", str(out), "--seed", "1"]
    assert main(args) == 2
    assert not out.exists()


def test_sweep_rejects_simulate_config(tmp_path):
    code = main(
        [
            "sweep",
            "--config",
            str(CONFIG_DIR / "particle_euler_a.cfg"),
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# CSV bytes: the streamed writers against the joined-string writers they
# replaced, kept here as the reference


def _g(value):
    return "%.17g" % value


def _joined_simulate_csv(traj, names):
    lines = ["step,t," + ",".join(names) + ",energy,constraint_res,newton_iters"]
    for k, state in enumerate(traj.states):
        # The values one row writes: all but its multipliers.
        comps = ",".join(_g(x) for x in state[: traj.layout.values].tolist())
        lines.append(
            f"{k},{_g(traj.times[k])},{comps},{_g(traj.energies[k])},"
            f"{_g(traj.residuals[k])},{traj.newton_iters[k]}"
        )
    return "\n".join(lines) + "\n"


def _joined_sweep_csv(report):
    lines = ["h,err_pos,err_vel,err_energy"]
    channels = (("position", "pos"), ("velocity", "vel"), ("energy", "energy"))
    for i, h in enumerate(report.h_values):
        lines.append(",".join([_g(h)] + [_g(report.errors[c][i]) for c, _ in channels]))
    for channel, short in channels:
        if channel in report.noise_floor:
            lines.append(f"# slope_{short}=below-noise-floor")
        else:
            lines.append(f"# slope_{short}={_g(report.slopes[channel][0])}")
    return "\n".join(lines) + "\n"


def _simulate_text(integrator, n_steps):
    if integrator == "rattle_affine":
        return PLANAR_AFFINE.replace("N = 8", f"N = {n_steps}")
    if integrator in ("reduced_rattle", "chaplygin_gni"):
        text = (CONFIG_DIR / "sphere_reduced.cfg").read_text()
        text = text.replace("T = 5.0", f"N = {n_steps}")
        return text.replace("name = reduced_rattle\nretraction = cay", f"name = {integrator}")
    text = PARTICLE_TEMPLATE.format(integrator=integrator)
    return text.replace("T = 0.5", f"N = {n_steps}")


@pytest.mark.parametrize("n_steps", [0, 1, 300])
@pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
def test_simulate_csv_bytes_match_joined_writer(tmp_path, capsys, integrator, n_steps):
    text = _simulate_text(integrator, n_steps)
    expected = _joined_simulate_csv(*cli._simulate_trajectory(parse_config(text)))
    assert expected.count("\n") == n_steps + 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("at_rest", [False, True], ids=["slopes", "noise_floor"])
def test_sweep_csv_bytes_match_joined_writer(tmp_path, capsys, at_rest):
    text = (CONFIG_DIR / "particle_rattle_sweep.cfg").read_text()
    if at_rest:
        # A free particle at rest is exact at every step size.
        text = text.replace("potential = harmonic", "potential = none")
        text = text.replace("v0 = 1.0, 0.5, 0.2", "v0 = 0.0, 0.0, 0.0")
    report = cli._sweep_report(parse_config(text))
    assert bool(report.noise_floor) == at_rest
    expected = _joined_sweep_csv(report)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    out = tmp_path / "conv.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == expected.encode()
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# main(): check and exit codes


def test_check_command_prints_and_passes(capsys):
    assert main(["check", "--suite", "lie", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == len(out.splitlines())
    assert "lie:" in out


def test_check_quiet_suppresses_output(capsys):
    assert main(["check", "--suite", "projectors", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_adjoint_command(capsys):
    # The adjoint battery is a suite of ``check``; there is no ``adjoint`` subcommand.
    assert main(["check", "--suite", "adjoint", "--seed", "3", "--quiet"]) == 0
    assert main(["adjoint", "--seed", "3", "--quiet"]) == 2
    assert "invalid choice: 'adjoint'" in capsys.readouterr().err


def _with_mass_and_radius(config, m, r):
    lines = (CONFIG_DIR / config).read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith(("m =", "r ="))]
    at = lines.index("[system]") + 1
    return "\n".join(lines[:at] + [f"m = {m}", f"r = {r}"] + lines[at:]) + "\n"


@pytest.mark.parametrize("verb, config", [("simulate", "sphere_bounded.cfg"),
                                          ("sweep", "sphere_convergence.cfg")])
def test_sphere_whose_m_times_r_underflows_is_a_config_error(tmp_path, capsys, verb, config):
    # m and r are positive, but the recurrence's row scale h / (m r) divides by 0.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_with_mass_and_radius(config, "1e-200", "1e-200"))
    out = tmp_path / "out.csv"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: m: m * r = 1e-200 * 1e-200 underflows to 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_reduced_sphere_whose_m_times_r_underflows_still_runs(tmp_path):
    # The reduced stepper never divides by m r.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_with_mass_and_radius("sphere_reduced.cfg", "1e-200", "1e-200"))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert len(out.read_text().splitlines()) == 102  # header + 101 rows (T / h = 100)


def test_exit_code_missing_config(capsys):
    assert main(["simulate", "--config", "/no/such/file.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[system]\nname = chaplygin\nbogus = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_exit_code_solver_failure(tmp_path, monkeypatch, capsys):
    # A Newton tolerance below rounding cannot be met: the run fails, exit 1.
    monkeypatch.setattr(cli, "default_newton_config", lambda: numerics.NewtonConfig(residual_tol=1e-30))
    out = tmp_path / "x.csv"
    code = main(
        ["simulate", "--config", str(CONFIG_DIR / "sphere_reduced.cfg"), "--out", str(out)]
    )
    assert code == 1
    assert "solver failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "1e-30"])
def test_exit_code_invalid_newton_tolerance(tmp_path, monkeypatch, value):
    # No module reads GNI_NEWTON_TOL: whatever it holds, the run and its CSV
    # depend on the config and the code alone.
    args = ["simulate", "--config", str(CONFIG_DIR / "sphere_reduced.cfg"), "--quiet", "--out"]
    plain, with_variable = tmp_path / "plain.csv", tmp_path / "with_variable.csv"
    monkeypatch.delenv("GNI_NEWTON_TOL", raising=False)
    assert main(args + [str(plain)]) == 0
    monkeypatch.setenv("GNI_NEWTON_TOL", value)
    assert main(args + [str(with_variable)]) == 0
    assert with_variable.read_bytes() == plain.read_bytes()


def test_simulate_with_an_overflowing_step_count_exits_2_without_csv(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        PARTICLE_TEMPLATE.format(integrator="rattle").replace("h = 0.05\nT = 0.5", "h = 1e-308\nT = 1e308")
    )
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: T: T / h = 1e+308 / 1e-308 overflows\n"
    assert not out.exists()


def test_generic_simulate_is_the_same_with_the_unrolled_solver(tmp_path, monkeypatch):
    # The generic step's 3x3 Newton systems go through lu_solve or, once the
    # kernel has factored d12, through its lu_factor's solve; the run has the
    # bits of the unrolled elimination that lu_solve replaced, for every one.
    args = ["simulate", "--config", str(CONFIG_DIR / "particle_generic.cfg"), "--quiet"]
    reference = tmp_path / "reference.csv"
    assert main(args + ["--out", str(reference)]) == 0
    solved = []  # (by what, size) per system

    def unrolled(a, b, by="lu_solve"):
        solved.append((by, len(a)))
        return list(small_solve(a, b))

    class Unrolled:
        def __init__(self, a):
            self.a = a

        def solve(self, b):
            return unrolled(self.a, b, "factors")

    monkeypatch.setattr(numerics, "lu_solve", unrolled)
    monkeypatch.setattr(gni_flat, "lu_factor", Unrolled)
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 0
    # One Newton system per step of 20: the first by lu_solve, the rest by
    # the factors of the same d12.
    assert solved == [("lu_solve", 3)] + [("factors", 3)] * 19
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (ParseError(3, "unreadable"), 2, "config error"),
        (ValidationError("run.h", "must be positive"), 2, "config error"),
        (FileNotFoundError("no such file"), 2, "config error"),
        (ValueError("bad value"), 2, "config error"),
        (SingularMatrix("singular pivot"), 2, "config error"),
        (RankDeficient("dependent rows"), 2, "config error"),
        (NoConvergence(50, 1.0), 1, "solver failure"),
        (StepFailed(3, NoConvergence(50, 1.0), None), 1, "solver failure"),
        (MemoryError("Unable to allocate 745. GiB"), 2, "out of memory"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_exit_code_per_exception_type(monkeypatch, capsys, exc, code, prefix):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(checks, "check_suite", fail)
    assert main(["check", "--quiet"]) == code
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"


def test_exit_code_non_finite_run_writes_no_csv(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    # rattle at h = 5 on a fast particle overflows to inf on row 115.
    text = PARTICLE_TEMPLATE.format(integrator="rattle")
    text = text.replace("v0 = 1.0, 0.5, 0.2", "v0 = 1000, 0.5, 0.2")
    cfg.write_text(text.replace("h = 0.05\nT = 0.5", "h = 5\nN = 120"))
    out = tmp_path / "x.csv"
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "solver failure: step 115" in capsys.readouterr().err
    assert not out.exists()


def _allocations_fail_above(monkeypatch, n_values):
    # Buffers of more than n_values values raise as NumPy does when the
    # memory is not there, without asking for it.
    empty = np.empty

    def bounded_empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > n_values:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", bounded_empty)


@pytest.mark.parametrize("config", ["sphere_bounded.cfg", "sphere_reduced.cfg"])
def test_run_too_large_for_memory_exits_2_without_csv(tmp_path, monkeypatch, capsys, config):
    # N = 2e10 rows need 745 GiB (sphere) or 1.75 TiB (reduced_rattle).
    text = (CONFIG_DIR / config).read_text()
    lines = [line for line in text.splitlines() if not line.startswith(("N =", "T =", "out ="))]
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("\n".join(lines).replace("[run]", "[run]\nN = 20000000000") + "\n")
    out = tmp_path / "x.csv"
    _allocations_fail_above(monkeypatch, 10**9)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate an array with shape (2000000000")
    assert err.count("\n") == 1
    assert not out.exists()


def test_csv_too_large_for_memory_opens_no_file(tmp_path, monkeypatch, capsys):
    # The rows fit but their stacked CSV values do not: no file is opened.
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PARTICLE_TEMPLATE.format(integrator="rattle"))
    out = tmp_path / "x.csv"

    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(np, "column_stack", no_memory)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "out of memory: allocation failed\n"
    assert not out.exists()


def test_diverging_run_fails_without_numpy_warnings(tmp_path, capsys, recwarn):
    cfg = tmp_path / "diverge.cfg"
    text = PARTICLE_TEMPLATE.format(integrator="rattle")
    text = text.replace("v0 = 1.0, 0.5, 0.2", "v0 = 1000, 0.5, 0.2")
    cfg.write_text(text.replace("h = 0.05\nT = 0.5", "h = 5\nN = 120"))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "solver failure" in capsys.readouterr().err
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_sphere_non_finite_start_fails_before_any_newton_update(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(MINIMAL_SPHERE.replace("[integrator]", "w0 = 1e160, 0.0, 0.0\n\n[integrator]"))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "solver failure: step 1 failed" in err
    assert "after 0 iterations (|residual|_inf = nan)" in err
    assert not out.exists()


@pytest.mark.parametrize("retraction", ["cay", "exp"])
def test_reduced_overflowing_start_fails_as_the_sphere_does(tmp_path, capsys, retraction):
    # w0 = 1e160 overflows the seeded algebra momentum: both retractions
    # fail in step 1's Newton solve, as chaplygin_gni does on that state,
    # with no NumPy warning (turned into errors here) and no CSV.
    text = (CONFIG_DIR / "sphere_reduced.cfg").read_text()
    text = text.replace("w0 = -0.2, 0.0, 0.4", "w0 = 1e160, 0.0, 0.0")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace("retraction = cay", f"retraction = {retraction}"))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "solver failure: step 1 failed: Newton iteration did not converge after 0 "
        "iterations (|residual|_inf = nan)\n"
    )
    assert not out.exists()


def test_simulate_reduced_rattle_steps_without_the_array_step(tmp_path, monkeypatch):
    # The shipped reduced sphere declares constant rows and a linear section,
    # so every reduced_rattle run takes the float kernel.
    def refuse(*args, **kwargs):
        raise AssertionError("reduced_rattle_step called")

    monkeypatch.setattr(gni_reduced, "reduced_rattle_step", refuse)
    for retraction in ("cay", "exp"):
        text = (CONFIG_DIR / "sphere_reduced.cfg").read_text()
        cfg = tmp_path / f"{retraction}.cfg"
        cfg.write_text(text.replace("retraction = cay", f"retraction = {retraction}"))
        out = tmp_path / f"{retraction}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert len(out.read_text().splitlines()) == 102


def test_simulate_flat_steps_with_the_kernel_alone(tmp_path, monkeypatch):
    # The three-point recurrence and the RK4 reference step by their
    # kernels, without the one-step gni_generic_step_stats or continuous_rhs
    # (the recurrence seeds its second position with one rattle_step).
    def refuse(*args, **kwargs):
        raise AssertionError("per-step call")

    monkeypatch.setattr(gni_flat, "gni_generic_step_stats", refuse)
    monkeypatch.setattr(model, "continuous_rhs", refuse)
    cfg = tmp_path / "generic.cfg"
    cfg.write_text(PARTICLE_TEMPLATE.format(integrator="gni_generic"))
    out = tmp_path / "generic.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert len(out.read_text().splitlines()) == 12
    cfg = tmp_path / "rk4.cfg"
    text = (CONFIG_DIR / "particle_rattle_sweep.cfg").read_text()
    cfg.write_text(text.replace("reference = self", "reference = rk4"))
    out = tmp_path / "rk4.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert "# slope_pos=" in out.read_text()
    # Flat one-step runs step by the kernel of their FlatStepper record and
    # take their residual column from its stacked pass: neither the one-step
    # call nor a per-state residual runs.
    monkeypatch.setattr(gni_flat.FlatStepper, "__call__", refuse)
    monkeypatch.setattr(gni_flat, "scheme_constraint_residual", refuse)
    for integrator in ("euler_a", "euler_b", "rattle", "rattle_affine"):
        cfg = tmp_path / f"{integrator}.cfg"
        if integrator == "rattle_affine":
            cfg.write_text(PLANAR_AFFINE)
        else:
            cfg.write_text(PARTICLE_TEMPLATE.format(integrator=integrator))
        out = tmp_path / f"{integrator}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert 0.0 < np.max(rows[:, -2]) <= 1e-10


def test_reduced_rattle_solves_stage3_without_newton_solve_stats(tmp_path, monkeypatch):
    # Stage 3 of the reduced sphere is the float solve of gni_reduced,
    # in the kernel and in the array step alike, not newton_solve_stats.
    def refuse(*args, **kwargs):
        raise AssertionError("newton_solve_stats called")

    monkeypatch.setattr(numerics, "newton_solve_stats", refuse)
    monkeypatch.setattr(gni_reduced, "newton_solve_stats", refuse, raising=False)
    text = (CONFIG_DIR / "sphere_reduced.cfg").read_text()
    for retraction in ("cay", "exp"):
        cfg = tmp_path / f"{retraction}.cfg"
        cfg.write_text(text.replace("retraction = cay", f"retraction = {retraction}"))
        out = tmp_path / f"{retraction}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert len(out.read_text().splitlines()) == 102
        cfg.write_text(cfg.read_text().replace("h = 0.05\nT = 5.0", "h_list = 0.1, 0.05, 0.025\nT = 1.0"))
        out = tmp_path / f"{retraction}_sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert "# slope_pos=" in out.read_text()
    params = gni_reduced.ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    s0 = ReducedState(np.zeros(2), np.zeros(2), np.array([-0.2, 0.0, 0.4]), np.zeros(3), np.zeros(2))
    step = gni_reduced.reduced_rattle_step(chaplygin_reduced_system(params), s0, 0.05)
    assert step.newton_iters >= 1


def test_sweep_with_an_overflowing_rk4_reference_exits_1_without_warnings(tmp_path, capsys):
    # The RK4 reference fails at its first non-finite step: one message, no
    # NumPy warning, no CSV.
    text = (CONFIG_DIR / "particle_rattle_sweep.cfg").read_text()
    text = text.replace("reference = self", "reference = rk4")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace("v0 = 1.0, 0.5, 0.2", "v0 = 1e200, 1e200, 1e200"))
    out = tmp_path / "huge.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "solver failure: step 1 failed: RK4 step 1 has a non-finite state\n"


def test_sweep_with_a_finite_rk4_reference_of_infinite_energy_fails_at_the_reference(
    tmp_path, capsys
):
    text = (CONFIG_DIR / "particle_rattle_sweep.cfg").read_text()
    text = text.replace("reference = self", "reference = rk4")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace("v0 = 1.0, 0.5, 0.2", "v0 = 1e200, 0.5, 0.2"))
    out = tmp_path / "huge.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (
        "solver failure: step 0 failed: RK4 row 0 has a non-finite energy, residual or state\n"
    )


def test_closed_stdout_exits_141_without_messages(tmp_path):
    # The reader takes one line and closes the pipe, as ``| head -1`` does;
    # the rest of the CSV (about 1 MB) cannot be written.
    cfg = tmp_path / "long.cfg"
    text = PARTICLE_TEMPLATE.format(integrator="euler_a")
    cfg.write_text(text.replace("T = 0.5", "N = 5000"))
    path = os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gni.cli", "simulate", "--config", str(cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"step,t,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_simulate_and_sweep_leave_the_check_batteries_unloaded(tmp_path):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(_sweep_cfg(None))
    script = "\n".join([
        "import sys",
        "from gni.cli import main",
        f"assert main(['simulate', '--config', {str(CONFIG_DIR / 'sphere_bounded.cfg')!r},"
        f" '--out', {str(tmp_path / 'run.csv')!r}, '--quiet']) == 0",
        f"assert main(['sweep', '--config', {str(sweep)!r}, '--out', {str(tmp_path / 'conv.csv')!r},"
        " '--quiet']) == 0",
        "print('gni.checks' in sys.modules)",
        "assert main(['check', '--suite', 'lie', '--quiet']) == 0",
        "print('gni.checks' in sys.modules)",
    ])
    path = os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nTrue\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bundled configs cover the registry


def test_bundled_configs_cover_registry():
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert configs, "bundled configs missing"
    systems = set()
    integrators = set()
    for path in configs:
        cfg = parse_config(path.read_text())  # must validate
        systems.add(cfg.system)
        integrators.add(cfg.integrator)
    assert systems == set(SYSTEMS)
    assert integrators == set(INTEGRATORS)
