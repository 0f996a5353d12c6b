"""Command-line front end: config parsing, the integrator table, and CSV
emission around :func:`gni.analysis.run` and
:func:`gni.analysis.convergence_sweep`.

The ``gni`` entry point exposes three subcommands::

    gni simulate --config run.cfg [--out traj.csv]
    gni sweep    --config conv.cfg [--out conv.csv]
    gni check    [--suite lie|projectors|steppers|adjoint|all] [--seed N]

Configs are INI-style text with three sections.  Keys not listed below are
rejected so typos never pass silently::

    [system]
    name = chaplygin            # nonholonomic_particle | constrained_2d | chaplygin
    potential = harmonic        # nonholonomic_particle only: none | harmonic
    q0 = 1.0, 0.0               # initial position (length = system dimension)
    v0 = 1.0, 0.5, 0.2          # flat systems: initial velocity (projected)
    w0 = -0.2, 0.0, 0.4         # chaplygin: initial body angular velocity
    affine = 0.3, -0.2          # constrained_2d only: affine constraint offset
    m = 3.0                     # chaplygin mass
    r = 1.0                     # chaplygin radius
    omega_plate = 0.2           # chaplygin table angular velocity
    inertia = 1.0, 1.1, 1.2     # chaplygin principal moments

    [integrator]
    name = chaplygin_gni        # euler_a | euler_b | rattle | rattle_affine |
                                # gni_generic | reduced_rattle | chaplygin_gni
    retraction = cay            # reduced_rattle only: cay | exp

    [run]
    h = 0.1                     # single step size (simulate)
    h_list = 0.1, 0.05, 0.025   # decreasing step sizes (sweep)
    T = 15.0                    # final time  (exactly one of T and N)
    N = 10000                   # step count  (exactly one of T and N)
    h_ref = 0.0005              # reference step for sweeps (default min(h)/30;
                                # T / h_ref at most 1e8)
    reference = self            # self | rk4
    out = traj.csv              # default output path (--out overrides)

Omitted keys fall back to documented defaults (the chaplygin system
defaults to the homogeneous bounded-trajectory setup: ``m = r =
omega_plate = 1``, ``inertia = 2/3``, ``q0 = (1, 1)``, ``w0 = (0, 2, 0)``).
Exit codes: 0 success, 1 solver failure or failed checks, 2 config error
or a run too large for memory, 141 when the reader of stdout closes it
early (as after SIGPIPE).
All floating-point CSV output is printed with 17 significant digits so
identical configs reproduce byte-identical files.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys as _sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, gni_flat, gni_reduced, model
from .analysis import StepFailed, Trajectory, convergence_sweep, run, state_matrix
from .gni_reduced import ChaplyginParams, chaplygin_initial_reduced_state, chaplygin_reduced_system
from .numerics import NoConvergence, default_newton_config

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "parse_config",
    "main",
]

SYSTEMS = ("nonholonomic_particle", "constrained_2d", "chaplygin")
SUITES = ("lie", "projectors", "steppers", "adjoint", "all")


@dataclass(frozen=True)
class Integrator:
    """How the command line runs one integrator.

    ``kind`` is the kind of system it runs on, ``"flat"`` or ``"sphere"``.
    ``form`` is the constraint form its initial state is seeded in and its
    ``constraint_res`` column reports: a scheme of
    :func:`gni.gni_flat.prepare_state` and
    :func:`gni.gni_flat.scheme_constraint_residual` (``"rattle"`` is the
    plain momentum form of :func:`gni.model.constraint_residual`), which
    the flat kernel's run reports, ``"reduced"`` for
    :func:`chaplygin_initial_reduced_state` and the reduced kernel's run,
    which reports
    :func:`gni.gni_reduced.reduced_scheme_residual`, or ``"sphere"`` for
    the rolling-sphere recurrence, which seeds itself and reports
    :func:`gni.gni_reduced.chaplygin_scheme_residual`.  ``stepper(system,
    cfg)`` returns the stepper :func:`gni.analysis.run` advances: a
    :class:`gni.gni_flat.FlatStepper` or
    :class:`gni.gni_reduced.ReducedStepper` record that ``run`` steps by
    its kernel, the generic step's discrete Lagrangian, or ``None``.
    ``columns`` names the CSV state columns (``None``: named after the
    flat system's dimension).
    """

    kind: str
    form: str
    stepper: Callable
    columns: Optional[Tuple[str, ...]] = None


def _reduced_stepper(system, cfg: RunConfig):
    return gni_reduced.ReducedStepper(cfg.retraction or "cay", default_newton_config())


INTEGRATORS = {
    "euler_a": Integrator("flat", "euler_a", lambda system, cfg: gni_flat.FlatStepper("euler_a")),
    "euler_b": Integrator("flat", "euler_b", lambda system, cfg: gni_flat.FlatStepper("euler_b")),
    "rattle": Integrator("flat", "rattle", lambda system, cfg: gni_flat.FlatStepper("rattle")),
    "rattle_affine": Integrator("flat", "rattle", lambda system, cfg: gni_flat.FlatStepper("rattle")),
    "gni_generic": Integrator(
        "flat", "rattle", lambda system, cfg: gni_flat.verlet_lagrangian(system)
    ),
    "reduced_rattle": Integrator(
        "sphere",
        "reduced",
        _reduced_stepper,
        ("x", "y", "px", "py", "w1", "w2", "w3", "pw1", "pw2", "pw3"),
    ),
    "chaplygin_gni": Integrator(
        "sphere", "sphere", lambda system, cfg: None, ("x", "y", "w1", "w2", "w3")
    ),
}

# Documented defaults applied at build time (never stored in RunConfig so
# that parse -> format round-trips exactly).
_FLAT_DEFAULT_STATE = {
    "nonholonomic_particle": ((0.3, 0.2, 0.1), (1.0, 0.5, 0.2)),
    "constrained_2d": ((0.3, 0.2), (1.0, -0.5)),
}
_SPHERE_DEFAULTS = {
    "m": 1.0,
    "r": 1.0,
    "omega_plate": 1.0,
    "inertia": (2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
    "q0": (1.0, 1.0),
    "w0": (0.0, 2.0, 0.0),
}

_SYSTEM_DIM = {"nonholonomic_particle": 3, "constrained_2d": 2, "chaplygin": 2}

# Most steps a sweep's reference may take (``T / h_ref``): 10^8 sphere steps
# take about a quarter of an hour, so a larger count is a mistyped h_ref.
_MAX_REFERENCE_STEPS = 1e8


class ParseError(Exception):
    """A config file line that cannot be read."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(Exception):
    """A config field whose value (or combination) is invalid."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed experiment description.

    Optional fields hold ``None`` when the config omitted them; documented
    defaults are applied when the run is built, not at parse time.
    """

    system: str
    integrator: str
    potential: Optional[str] = None
    q0: Optional[Tuple[float, ...]] = None
    v0: Optional[Tuple[float, ...]] = None
    w0: Optional[Tuple[float, ...]] = None
    affine: Optional[Tuple[float, ...]] = None
    m: Optional[float] = None
    r: Optional[float] = None
    omega_plate: Optional[float] = None
    inertia: Optional[Tuple[float, ...]] = None
    retraction: Optional[str] = None
    h: Optional[float] = None
    h_list: Optional[Tuple[float, ...]] = None
    T: Optional[float] = None
    steps: Optional[int] = None
    h_ref: Optional[float] = None
    reference: Optional[str] = None
    out: Optional[str] = None


# ---------------------------------------------------------------------------
# config parsing


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_floats(text: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError("empty list entry")
    return tuple(_parse_float(p) for p in parts)


# Every config key: (section, key) -> (RunConfig field, value parser), in the
# order parse_config reads them.
_KEYS = {
    ("system", "name"): ("system", str),
    ("system", "potential"): ("potential", str),
    ("system", "q0"): ("q0", _parse_floats),
    ("system", "v0"): ("v0", _parse_floats),
    ("system", "w0"): ("w0", _parse_floats),
    ("system", "affine"): ("affine", _parse_floats),
    ("system", "m"): ("m", _parse_float),
    ("system", "r"): ("r", _parse_float),
    ("system", "omega_plate"): ("omega_plate", _parse_float),
    ("system", "inertia"): ("inertia", _parse_floats),
    ("integrator", "name"): ("integrator", str),
    ("integrator", "retraction"): ("retraction", str),
    ("run", "h"): ("h", _parse_float),
    ("run", "h_list"): ("h_list", _parse_floats),
    ("run", "T"): ("T", _parse_float),
    ("run", "N"): ("steps", _parse_int),
    ("run", "h_ref"): ("h_ref", _parse_float),
    ("run", "reference"): ("reference", str),
    ("run", "out"): ("out", str),
}
_SECTIONS = {section for section, _ in _KEYS}


def parse_config(text: str) -> RunConfig:
    """Parse INI-style config text into a validated :class:`RunConfig`.

    Raises
    ------
    ParseError
        On malformed lines, unknown sections or keys, duplicate keys, and
        unreadable values (all reported with the offending line number).
    ValidationError
        On semantically invalid or inconsistent field values.
    """
    raw: Dict[Tuple[str, str], Tuple[str, int]] = {}
    section: Optional[str] = None
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"unterminated section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(lineno, f"unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        if section is None:
            raise ParseError(lineno, "key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _KEYS:
            raise ParseError(lineno, f"unknown key {key!r} in section [{section}]")
        if (section, key) in raw:
            raise ParseError(lineno, f"duplicate key {key!r} in section [{section}]")
        if not value:
            raise ParseError(lineno, f"empty value for key {key!r}")
        raw[(section, key)] = (value, lineno)

    if ("system", "name") not in raw:
        raise ValidationError("system", "missing [system] name")
    if ("integrator", "name") not in raw:
        raise ValidationError("integrator", "missing [integrator] name")
    fields = {}
    for (section, key), (field, parser) in _KEYS.items():
        if (section, key) not in raw:
            continue
        value, lineno = raw[(section, key)]
        try:
            fields[field] = parser(value)
        except ValueError as exc:
            raise ParseError(lineno, f"bad value for {key!r}: {exc}") from exc
    cfg = RunConfig(**fields)
    _validate(cfg)
    return cfg


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ValidationError(field, message)


def _validate(cfg: RunConfig) -> None:
    _require(cfg.system in SYSTEMS, "system", f"unknown system {cfg.system!r}")
    _require(
        cfg.integrator in INTEGRATORS,
        "integrator",
        f"unknown integrator {cfg.integrator!r}",
    )
    entry = INTEGRATORS[cfg.integrator]

    # integrator / system compatibility
    if entry.kind == "flat":
        _require(
            cfg.system != "chaplygin",
            "integrator",
            f"{cfg.integrator} runs on flat systems, not on the rolling sphere",
        )
    else:
        _require(
            cfg.system == "chaplygin",
            "integrator",
            f"{cfg.integrator} requires system chaplygin",
        )
    if cfg.integrator == "rattle_affine":
        _require(
            cfg.system == "constrained_2d" and cfg.affine is not None,
            "integrator",
            "rattle_affine requires constrained_2d with an affine offset",
        )

    # step-size / duration exclusivity
    _require(
        (cfg.h is None) != (cfg.h_list is None),
        "h",
        "exactly one of h and h_list is required",
    )
    _require(
        (cfg.T is None) != (cfg.steps is None),
        "T",
        "exactly one of T and N is required",
    )
    if cfg.h is not None:
        _require(cfg.h > 0, "h", "step size must be positive")
    if cfg.h_list is not None:
        _require(len(cfg.h_list) >= 3, "h_list", "sweeps need at least 3 step sizes")
        _require(all(h > 0 for h in cfg.h_list), "h_list", "step sizes must be positive")
        _require(
            all(b < a for a, b in zip(cfg.h_list, cfg.h_list[1:])),
            "h_list",
            "step sizes must be strictly decreasing",
        )
        _require(
            cfg.T is not None, "T", "sweeps measure errors at a final time; set T"
        )
    if cfg.T is not None:
        _require(cfg.T > 0, "T", "final time must be positive")
    if cfg.steps is not None:
        _require(cfg.steps >= 0, "N", "step count must be non-negative")
    if cfg.h_ref is not None:
        _require(cfg.h_ref > 0, "h_ref", "reference step must be positive")
        _require(cfg.h_list is not None, "h_ref", "h_ref only applies to sweeps")
        _require(
            cfg.h_ref <= min(cfg.h_list) / 30.0 * (1.0 + 1e-12),
            "h_ref",
            "reference step must be at most min(h_list)/30",
        )
    if cfg.h_list is not None:
        n_ref = cfg.T / _reference_step(cfg)
        _require(
            n_ref <= _MAX_REFERENCE_STEPS,
            "h_ref",
            f"the reference needs T / h_ref = {n_ref:.3g} steps, more than {_MAX_REFERENCE_STEPS:.0e}",
        )
    if cfg.reference is not None:
        _require(
            cfg.reference in ("self", "rk4"),
            "reference",
            f"unknown reference {cfg.reference!r}",
        )
        _require(cfg.h_list is not None, "reference", "reference only applies to sweeps")
        if cfg.reference == "rk4":
            _require(
                cfg.system != "chaplygin",
                "reference",
                "no continuous-reference integrator for the rolling sphere",
            )
            _require(
                cfg.affine is None,
                "reference",
                "rk4 reference unavailable for affine constraints",
            )

    # per-system parameter keys
    if cfg.system == "nonholonomic_particle":
        _require(
            cfg.potential in (None, "none", "harmonic"),
            "potential",
            f"unknown potential {cfg.potential!r}",
        )
    else:
        _require(
            cfg.potential is None, "potential", f"not a parameter of {cfg.system}"
        )
    if cfg.affine is not None:
        _require(cfg.system == "constrained_2d", "affine", "only constrained_2d")
        _require(len(cfg.affine) == 2, "affine", "expected 2 components")
    for field in ("m", "r", "omega_plate", "inertia"):
        value = getattr(cfg, field)
        if value is None:
            continue
        _require(cfg.system == "chaplygin", field, "only the chaplygin system")
        if field == "inertia":
            _require(len(value) == 3, "inertia", "expected 3 principal moments")
            _require(all(x > 0 for x in value), "inertia", "moments must be positive")
        elif field != "omega_plate":
            _require(value > 0, field, "must be positive")
    if entry.form == "sphere":  # the recurrence scales its momentum rows by h / (m r)
        m = _SPHERE_DEFAULTS["m"] if cfg.m is None else cfg.m
        r = _SPHERE_DEFAULTS["r"] if cfg.r is None else cfg.r
        _require(m * r != 0.0, "m", f"m * r = {m:g} * {r:g} underflows to 0")

    # initial-state keys
    dim = _SYSTEM_DIM[cfg.system]
    if cfg.q0 is not None:
        _require(len(cfg.q0) == dim, "q0", f"expected {dim} components")
    if cfg.system == "chaplygin":
        _require(cfg.v0 is None, "v0", "chaplygin takes w0, not v0")
        if cfg.w0 is not None:
            _require(len(cfg.w0) == 3, "w0", "expected 3 components")
    else:
        _require(cfg.w0 is None, "w0", "only the chaplygin system")
        if cfg.v0 is not None:
            _require(len(cfg.v0) == dim, "v0", f"expected {dim} components")

    if cfg.retraction is not None:
        _require(
            cfg.retraction in ("cay", "exp"),
            "retraction",
            f"unknown retraction {cfg.retraction!r}",
        )
        _require(
            entry.form == "reduced",
            "retraction",
            "only meaningful for reduced_rattle",
        )


# ---------------------------------------------------------------------------
# registry: building systems, initial states, and steppers


def _build_flat_system(cfg: RunConfig):
    if cfg.system == "nonholonomic_particle":
        return model.nonholonomic_particle(cfg.potential or "none")
    return model.constrained_2d(affine=cfg.affine)


def _build_sphere_params(cfg: RunConfig) -> ChaplyginParams:
    inertia = cfg.inertia if cfg.inertia is not None else _SPHERE_DEFAULTS["inertia"]
    omega = (
        cfg.omega_plate
        if cfg.omega_plate is not None
        else _SPHERE_DEFAULTS["omega_plate"]
    )
    return ChaplyginParams(
        m=cfg.m if cfg.m is not None else _SPHERE_DEFAULTS["m"],
        r=cfg.r if cfg.r is not None else _SPHERE_DEFAULTS["r"],
        omega=omega,
        i1=inertia[0],
        i2=inertia[1],
        i3=inertia[2],
    )


def _sphere_initial(cfg: RunConfig) -> Tuple[np.ndarray, np.ndarray]:
    q0 = np.array(cfg.q0 if cfg.q0 is not None else _SPHERE_DEFAULTS["q0"], dtype=float)
    w0 = np.array(cfg.w0 if cfg.w0 is not None else _SPHERE_DEFAULTS["w0"], dtype=float)
    return q0, w0


def _experiment(cfg: RunConfig, h: float):
    """The stepper, system and initial state of a run.

    The initial state is seeded in the integrator's constraint form at step
    ``h``; at ``h = 0`` every form is the continuous one, which sweeps use
    for all their step sizes.  :func:`gni.analysis.run` reports the form
    each of these steppers preserves.
    """
    entry = INTEGRATORS[cfg.integrator]
    if entry.kind == "flat":
        system = _build_flat_system(cfg)
        q_default, v_default = _FLAT_DEFAULT_STATE[cfg.system]
        q0 = cfg.q0 if cfg.q0 is not None else q_default
        v0 = cfg.v0 if cfg.v0 is not None else v_default
        initial = gni_flat.prepare_state(system, q0, v0, scheme=entry.form, h=h)
    elif entry.form == "reduced":
        params = _build_sphere_params(cfg)
        system = chaplygin_reduced_system(params)
        initial = chaplygin_initial_reduced_state(params, *_sphere_initial(cfg), h)
    else:
        system, initial = _build_sphere_params(cfg), _sphere_initial(cfg)
    return entry.stepper(system, cfg), system, initial


def _resolve_step_count(cfg: RunConfig) -> Tuple[float, int]:
    """Return ``(h, n_steps)`` for a simulate run."""
    h = cfg.h
    assert h is not None  # _validate guarantees this for simulate configs
    if cfg.steps is not None:
        return h, cfg.steps
    try:
        return h, analysis._step_count(cfg.T, h)
    except ValueError as exc:
        raise ValidationError("T", str(exc)) from exc


def _simulate_trajectory(cfg: RunConfig) -> Tuple[Trajectory, List[str]]:
    """Run the configured experiment; return the trajectory and the CSV
    column names of its state values.

    The ``constraint_res`` column reports the residual of the constraint
    form the integrator preserves, so it stays at solver tolerance for
    every scheme.
    """
    h, n_steps = _resolve_step_count(cfg)
    stepper, system, initial = _experiment(cfg, h)
    traj = run(stepper, system, initial, h, n_steps)
    columns = INTEGRATORS[cfg.integrator].columns
    return traj, list(columns or _flat_column_names(system.dim))


def _flat_column_names(dim: int) -> List[str]:
    if dim == 2:
        return ["x", "y", "px", "py"]
    if dim == 3:
        return ["x", "y", "z", "px", "py", "pz"]
    coords = [f"q{i + 1}" for i in range(dim)]
    return coords + [f"p{i + 1}" for i in range(dim)]


# ---------------------------------------------------------------------------
# CSV emission


def _g(value: float) -> str:
    return "%.17g" % value


def _simulate_csv(traj: Trajectory, names: Sequence[str]) -> Iterator[str]:
    """The lines of a simulate CSV: the header, then one line per row from
    one format over the stacked row values.  The stack is built here, not
    when the first line is read, so a failure building it opens no file."""
    header = "step,t," + ",".join(names) + ",energy,constraint_res,newton_iters\n"
    table = np.column_stack(
        [traj.times, state_matrix(traj), traj.energies, traj.residuals]
    )
    line = "%d," + "%.17g," * table.shape[1] + "%d\n"
    rows = enumerate(zip(table, traj.newton_iters.tolist()))
    return itertools.chain(
        [header], (line % (k, *row.tolist(), iters) for k, (row, iters) in rows)
    )


_CHANNEL_COLUMNS = (("position", "pos"), ("velocity", "vel"), ("energy", "energy"))


def _reference_step(cfg: RunConfig) -> float:
    return cfg.h_ref if cfg.h_ref is not None else min(cfg.h_list) / 30.0


def _sweep_report(cfg: RunConfig) -> analysis.ConvergenceReport:
    h_list = list(cfg.h_list)
    reference = (cfg.reference or "self", _reference_step(cfg))
    # Every run of the sweep, the reference included, starts from the one
    # state seeded at h = 0: the continuous constraint form (for the reduced
    # sphere the Legendre form p_alg = I w), admissible at every step size.
    stepper, system, initial = _experiment(cfg, 0.0)
    return convergence_sweep(stepper, system, initial, cfg.T, h_list, reference)


def _sweep_csv(report: analysis.ConvergenceReport) -> Iterator[str]:
    """The lines of a sweep CSV: one per step size, then the slopes."""
    yield "h,err_pos,err_vel,err_energy\n"
    for i, h in enumerate(report.h_values):
        row = [_g(h)] + [
            _g(report.errors[channel][i]) for channel, _ in _CHANNEL_COLUMNS
        ]
        yield ",".join(row) + "\n"
    for channel, short in _CHANNEL_COLUMNS:
        if channel in report.noise_floor:
            yield f"# slope_{short}=below-noise-floor\n"
        else:
            yield f"# slope_{short}={_g(report.slopes[channel][0])}\n"


def _write_output(path: Optional[str], lines: Iterable[str]) -> None:
    """Write ``lines`` as they come to ``path``, or to stdout if ``None``."""
    if path is None:
        _sys.stdout.writelines(lines)
        return
    with open(path, "w", newline="\n") as handle:
        handle.writelines(lines)


# ---------------------------------------------------------------------------
# subcommands


def _load_config(path: str) -> RunConfig:
    with open(path, "r") as handle:
        return parse_config(handle.read())


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if cfg.h is None:
        raise ValidationError("h", "simulate needs a single step size h, not h_list")
    traj, names = _simulate_trajectory(cfg)
    out = args.out if args.out is not None else cfg.out
    _write_output(out, _simulate_csv(traj, names))
    if out is not None and not args.quiet:
        print(f"wrote {len(traj)} rows to {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if cfg.h_list is None:
        raise ValidationError("h_list", "sweep needs h_list, not a single h")
    report = _sweep_report(cfg)
    _write_output(args.out if args.out is not None else cfg.out, _sweep_csv(report))
    if not args.quiet:
        for channel, _ in _CHANNEL_COLUMNS:
            if channel in report.noise_floor:
                print(f"{channel}: below noise floor")
            else:
                slope, _residual = report.slopes[channel]
                print(f"{channel}: slope {slope:.3f}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from . import checks  # only ``check`` loads the batteries

    results = checks.check_suite(args.suite, seed=args.seed, quiet=args.quiet)
    return 0 if all(passed for _, passed, _ in results) else 1


def _uint(text: str) -> int:
    value = int(text, 10)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gni",
        description="Structure-preserving integrators for nonholonomic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one trajectory and emit CSV")
    simulate.add_argument("--config", required=True, help="path to a run config")
    simulate.add_argument("--out", help="output CSV path (default: config, else stdout)")
    simulate.add_argument("--quiet", action="store_true", help="suppress the summary line")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="measure convergence over h_list, emit CSV")
    sweep.add_argument("--config", required=True, help="path to a sweep config")
    sweep.add_argument("--out", help="output CSV path (default: config, else stdout)")
    sweep.add_argument("--quiet", action="store_true", help="suppress slope summary")
    sweep.set_defaults(func=_cmd_sweep)

    check = sub.add_parser("check", help="run the invariant check suites")
    check.add_argument("--suite", choices=SUITES, default="all")
    check.add_argument("--seed", type=_uint, default=0)
    check.add_argument("--quiet", action="store_true")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point. Returns 0 on success, 1 on solver or check failure,
    2 on config errors and on runs too large for memory, 141 when the
    reader of stdout closed it early."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = args.func(args)
        _sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``gni simulate ... | head``): point
        # stdout at the null device so the flush at exit is silent, and exit
        # as a producer stopped by SIGPIPE does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return 141
    # SingularMatrix and RankDeficient are ValueErrors: a degenerate system
    # outside a run is a config error.
    except (ParseError, ValidationError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except (StepFailed, NoConvergence) as exc:
        print(f"solver failure: {exc}", file=_sys.stderr)
        return 1
    except MemoryError as exc:
        # A run whose rows do not fit: its N, or its h against T, is too large.
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
