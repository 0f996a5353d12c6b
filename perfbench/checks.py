"""Output gates: what every CSV a workload command writes must satisfy."""
from __future__ import annotations

import io
from typing import List

import numpy as np

from workloads import NEWTON_BUDGET, RESIDUAL_BOUND, Command

SWEEP_HEADER = "h,err_pos,err_vel,err_energy"
CHANNELS = ("pos", "vel", "energy")


def check_output(command: Command, text: str) -> List[str]:
    """Problems found in ``text``, the output of ``command``; empty if none."""
    if command.verb == "simulate":
        return _check_simulate(command, text)
    return _check_sweep(command, text)


def _check_simulate(command: Command, text: str) -> List[str]:
    header, _, body = text.partition("\n")
    columns = header.split(",")
    if columns[:2] != ["step", "t"] or columns[-3:] != ["energy", "constraint_res", "newton_iters"]:
        return [f"unexpected header {header!r}"]
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    problems = []
    if table.shape != (command.rows, len(columns)):
        problems.append(f"table shape {table.shape}, expected ({command.rows}, {len(columns)})")
        return problems
    if not np.all(np.isfinite(table)):
        problems.append("non-finite entries")
    res = float(np.max(table[:, -2]))
    if not res <= RESIDUAL_BOUND:
        problems.append(f"constraint_res {res:.3e} > {RESIDUAL_BOUND:g}")
    iters = int(np.max(table[:, -1]))
    if iters > NEWTON_BUDGET:
        problems.append(f"newton_iters {iters} > {NEWTON_BUDGET}")
    return problems


def _check_sweep(command: Command, text: str) -> List[str]:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"unexpected header {lines[:1]!r}"]
    data = [line for line in lines[1:] if not line.startswith("#")]
    printed = dict(line[len("# slope_"):].split("=", 1)
                   for line in lines if line.startswith("# slope_"))
    table = np.loadtxt(io.StringIO("\n".join(data)), delimiter=",", ndmin=2)
    if not np.all(np.isfinite(table)) or not np.all(table > 0.0):
        return ["non-finite or non-positive step sizes or errors"]
    log_h = np.log(table[:, 0])
    problems = []
    for channel, (lo, hi) in command.windows.items():
        slope = float(np.polyfit(log_h, np.log(table[:, 1 + CHANNELS.index(channel)]), 1)[0])
        if not lo <= slope <= hi:
            problems.append(f"{channel} slope {slope:.4f} outside [{lo}, {hi}]")
        try:
            shown = float(printed[channel])
        except (KeyError, ValueError):
            problems.append(f"no numeric slope_{channel} line")
            continue
        if abs(shown - slope) > 1e-8:
            problems.append(f"printed slope_{channel} {shown} differs from fit {slope}")
    return problems
