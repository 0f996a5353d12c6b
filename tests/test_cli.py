"""Tests for config parsing, the system registry, and CSV emission."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gni import cli
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
from gni.cli import (
    INTEGRATORS,
    SYSTEMS,
    ParseError,
    RunConfig,
    ValidationError,
    format_config,
    main,
    parse_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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


def test_roundtrip_parse_format_parse():
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = parse_config(path.read_text())
        assert parse_config(format_config(cfg)) == cfg, path.name


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


@pytest.mark.parametrize("integrator", ["euler_a", "euler_b", "rattle", "gni_generic"])
def test_simulate_flat_constraint_column_is_tiny(tmp_path, integrator):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PARTICLE_TEMPLATE.format(integrator=integrator))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (11, 11)
    assert np.max(rows[:, 9]) <= 1e-10  # constraint_res column
    energy = rows[:, 8]
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
# main(): check / adjoint / exit codes


def test_check_command_prints_and_passes(capsys):
    assert main(["check", "--suite", "lie", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == len(out.splitlines())
    assert "lie:" in out


def test_check_quiet_suppresses_output(capsys):
    assert main(["check", "--suite", "projectors", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_adjoint_command(capsys):
    assert main(["adjoint", "--seed", "3", "--quiet"]) == 0


def test_exit_code_missing_config(capsys):
    assert main(["simulate", "--config", "/no/such/file.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[system]\nname = chaplygin\nbogus = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_exit_code_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GNI_NEWTON_TOL", "1e-30")
    out = tmp_path / "x.csv"
    code = main(
        ["simulate", "--config", str(CONFIG_DIR / "sphere_reduced.cfg"), "--out", str(out)]
    )
    assert code == 1
    assert "solver failure" in capsys.readouterr().err


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
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_exit_code_per_exception_type(monkeypatch, capsys, exc, code, prefix):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "check_suite", fail)
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
