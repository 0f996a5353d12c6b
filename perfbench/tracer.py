"""Spans around the public functions of the ``gni`` modules.

:meth:`Tracer.install` replaces each function listed in :data:`SPANS` by a
wrapper in every ``gni`` namespace that bound it at import, including
module-level dicts of callables (``cli._FLAT_STEPPERS``,
``gni_reduced._RETRACTIONS``).  Nothing under ``src/`` changes.  A wrapper
records one span (name, start, end, parent, command) in flat arrays; the
spans are summarized and written out when the run ends.  A listed function
that no longer exists is skipped, and its metrics are absent from the summary.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Dict, List

import numpy as np

# Span name -> the metrics reported for it.
SPANS = {
    "numerics.lu_solve": ("calls", "self_s"),
    "numerics.newton_solve_stats": ("calls", "self_s", "iters", "residual_evals", "failed"),
    "numerics.default_newton_config": ("calls", "self_s"),
    "lie_so3.cay": ("calls", "self_s"),
    "lie_so3.dcay_inv": ("calls", "self_s"),
    "lie_so3.exp_so3": ("calls", "self_s"),
    "lie_so3.dexp_inv": ("calls", "self_s"),
    "model.continuous_rhs": ("calls", "self_s"),
    "model.projectors": ("calls", "self_s"),
    "model.constraint_residual": ("calls", "self_s"),
    "model.energy": ("calls", "self_s"),
    "gni_flat.euler_a_step": ("calls", "self_s", "p50_us", "p99_us"),
    "gni_flat.euler_b_step": ("calls", "self_s", "p50_us", "p99_us"),
    "gni_flat.rattle_step": ("calls", "self_s", "p50_us", "p99_us"),
    "gni_flat.gni_generic_step_stats": ("calls", "self_s", "p50_us", "p99_us"),
    "gni_flat.scheme_constraint_residual": ("calls", "self_s"),
    "gni_flat.prepare_state": ("calls", "self_s"),
    "gni_reduced.reduced_rattle_step": ("calls", "self_s", "p50_us", "p99_us"),
    "gni_reduced.chaplygin_step_stats": ("calls", "self_s", "p50_us", "p99_us", "iters"),
    "gni_reduced.reduced_scheme_residual": ("calls", "self_s"),
    "gni_reduced.chaplygin_scheme_residual": ("calls", "self_s"),
    "analysis.run": ("self_s",),
    "analysis.convergence_sweep": ("self_s",),
    "analysis.Trajectory.from_rows": ("self_s",),
    "cli.main": ("self_s",),
    "cli.parse_config": ("self_s",),
}

# Median inclusive microseconds per call, restricted to one command when
# named: the cases of the ROADMAP item-1 baseline table that no p50_us
# metric above already gives (chaplygin_step_stats and
# gni_generic_step_stats are gni_reduced.chaplygin_step_stats.p50_us and
# gni_flat.gni_generic_step_stats.p50_us).
TABLE = {
    "table.lu_solve_us": ("numerics.lu_solve", None),
    "table.cay_us": ("lie_so3.cay", None),
    "table.dcay_inv_us": ("lie_so3.dcay_inv", None),
    "table.dexp_inv_us": ("lie_so3.dexp_inv", None),
    "table.reduced_rattle_step_cay_us": ("gni_reduced.reduced_rattle_step", "reduced_cay"),
    "table.reduced_rattle_step_exp_us": ("gni_reduced.reduced_rattle_step", "reduced_exp"),
    "table.rattle_step_us": ("gni_flat.rattle_step", "rattle"),
}

UNITS = {"calls": "count", "iters": "count", "residual_evals": "count", "failed": "count",
         "self_s": "s", "p50_us": "us", "p99_us": "us"}

MODULES = ("numerics", "lie_so3", "model", "gni_flat", "gni_reduced", "analysis", "cli")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{span}.{m}": UNITS[m] for span, metrics in SPANS.items() for m in metrics}
    units.update({name: "us" for name in TABLE})
    return units


class Tracer:
    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.commands = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counts = {"numerics.newton_solve_stats.iters": 0,
                       "numerics.newton_solve_stats.residual_evals": 0,
                       "numerics.newton_solve_stats.failed": 0,
                       "gni_reduced.chaplygin_step_stats.iters": 0}
        # [current span index, current command index]
        self.state = [-1, -1]
        self.labels: List[str] = []

    def _span(self, fn, label):
        nid = len(self.labels)
        self.labels.append(label)
        names, parents, commands = self.names, self.parents, self.commands
        starts, ends, state = self.starts, self.ends, self.state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(state[0])
            commands.append(state[1])
            starts.append(0)
            ends.append(0)
            state[0] = idx
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                state[0] = parents[idx]

        return wrapper

    def _newton(self, fn, errors):
        counts = self.counts

        def newton_solve_stats(residual, *args, **kwargs):
            def counted(z):
                counts["numerics.newton_solve_stats.residual_evals"] += 1
                return residual(z)

            try:
                result = fn(counted, *args, **kwargs)
            except errors:
                counts["numerics.newton_solve_stats.failed"] += 1
                raise
            counts["numerics.newton_solve_stats.iters"] += int(result[1])
            return result

        return newton_solve_stats

    def _chaplygin(self, fn):
        counts = self.counts

        def chaplygin_step_stats(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["gni_reduced.chaplygin_step_stats.iters"] += int(result[2])
            return result

        return chaplygin_step_stats

    def install(self) -> None:
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"gni.{name}")
            except ImportError:
                pass
        numerics = modules.get("numerics")
        errors = tuple(e for e in (getattr(numerics, "NoConvergence", None),
                                   getattr(numerics, "SingularMatrix", None)) if e)
        for label in SPANS:
            module, _, attr = label.partition(".")
            if attr == "Trajectory.from_rows":
                self._install_from_rows(modules.get(module), label)
                continue
            original = getattr(modules.get(module), attr, None)
            if not callable(original):
                continue
            inner = original
            if label == "numerics.newton_solve_stats":
                inner = self._newton(original, errors)
            elif label == "gni_reduced.chaplygin_step_stats":
                inner = self._chaplygin(original)
            wrapper = self._span(inner, label)
            for mod in modules.values():
                _rebind(vars(mod), original, wrapper)

    def _install_from_rows(self, module, label) -> None:
        cls = getattr(module, "Trajectory", None)
        bound = vars(cls).get("from_rows") if cls is not None else None
        if not isinstance(bound, classmethod):
            return
        cls.from_rows = classmethod(self._span(bound.__func__, label))

    def summarize(self, command_ids: List[str]) -> Dict[str, float]:
        """Per-layer metrics of every recorded span, keyed by metric name."""
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        commands = np.frombuffer(self.commands, dtype=np.int32)
        dur = (np.frombuffer(self.ends, dtype=np.int64)
               - np.frombuffer(self.starts, dtype=np.int64)).astype(float)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child
        out: Dict[str, float] = {}
        for nid, label in enumerate(self.labels):
            sel = names == nid
            calls = int(np.count_nonzero(sel))
            values = {"calls": calls, "self_s": float(self_ns[sel].sum()) / 1e9,
                      "p50_us": _percentile_us(dur[sel], 50),
                      "p99_us": _percentile_us(dur[sel], 99)}
            for metric in SPANS[label]:
                key = f"{label}.{metric}"
                out[key] = self.counts[key] if key in self.counts else values[metric]
        for key, (label, command) in TABLE.items():
            if label not in self.labels:
                continue
            sel = names == self.labels.index(label)
            if command is not None:
                cid = command_ids.index(command) if command in command_ids else -2
                sel &= commands == cid
            out[key] = _percentile_us(dur[sel], 50)
        return out

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels),
                 name=np.frombuffer(self.names, dtype=np.int32),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 command=np.frombuffer(self.commands, dtype=np.int32),
                 start_ns=np.frombuffer(self.starts, dtype=np.int64),
                 end_ns=np.frombuffer(self.ends, dtype=np.int64))


def _percentile_us(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) / 1e3 if values.size else 0.0


def _rebind(namespace: dict, original, wrapper) -> None:
    """Point every binding of ``original`` in ``namespace`` at ``wrapper``,
    one level into dicts whose values are callables or tuples of them."""
    for key, value in list(namespace.items()):
        if value is original:
            namespace[key] = wrapper
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = wrapper
                elif isinstance(v, tuple) and any(x is original for x in v):
                    value[k] = tuple(wrapper if x is original else x for x in v)
