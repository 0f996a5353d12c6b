"""Benchmark of the ``gni`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's configs are generated from
``--seed`` under ``perfbench/work/NAME/``.  Each repetition runs all of the
workload's commands through ``gni.cli.main`` in a fresh child process, and
repetitions run one after another until ``--seconds`` have passed (at
least two).  Every output is gated (see ``checks.py``) and must be
byte-identical across the repetitions of one invocation.

``--trace 0`` also times ``setup_s`` in fresh interpreters between the
repetitions and prints the end-to-end metrics.  ``wall_s`` and ``setup_s``
are given at reference host speed: the timed work is scaled by fixed
calibration work of ``calibration.py`` timed next to it (see there how and
why).  The measured times are printed too, and kept in the record.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of ``tracer.py`` with the tracing overhead.  The last
line of standard output is one JSON object; the lines before it give each
metric with its unit and sample count, the failure count and the
environment.  The full record goes to ``perfbench/work/NAME/result-traceT.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads
from calibration import REFERENCE_STARTUP_S, STARTUP, calibrated
from checks import check_output
from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The reference machine has 2 cores, so the load is one process at a time
# with one BLAS thread, on one fixed core (see pin_to_one_core).
BLAS_PINNING = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_REPS = 2
MIN_SETUP_SAMPLES = 5  # after the first repetition
SETUP_RATIO = 0.15  # set-up sampling time, calibration included, per repetition time
DEADLINE_S = 165.0  # the whole run must end within 180 s

SETUP_SNIPPET = (
    "import sys\n"
    "from gni.cli import main\n"
    "pairs = zip(sys.argv[1::2], sys.argv[2::2])\n"
    "sys.exit(max(main(['simulate', '--config', c, '--out', o, '--quiet']) for c, o in pairs))\n"
)


class Ledger:
    """Attempted and failed ``gni`` commands, and each command's first
    output digest, against which every later repetition is compared."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def record(self, command, ok: bool, error: str) -> None:
        self.attempted += 1
        problems = [] if ok else [error]
        if ok:
            try:
                data = command.out.read_bytes()
                problems = check_output(command, data.decode("utf-8", "replace"))
            except (OSError, ValueError) as exc:
                problems = [f"unreadable output: {exc}"]
            else:
                digest = hashlib.sha256(data).hexdigest()
                if self.digests.setdefault(command.id, digest) != digest:
                    problems.append("output differs from the first repetition")
        if problems:
            self.failures.append({"command": command.id, "problems": problems})


def pin_to_one_core() -> list:
    """Pin this process, and so every child it starts, to the highest
    numbered core it may use; return the cores it now runs on.

    The two cores of the reference machine differ in speed by up to 30 %
    from minute to minute, so a child placed on either one at random
    adds that difference to the spread between runs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        return sorted(os.sched_getaffinity(0))
    return []


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PINNING)
    env.pop("GNI_NEWTON_TOL", None)  # the default tolerance is part of the workload
    return env


def run_process(args, deadline: float) -> int:
    """Run ``args`` to completion, killed at the deadline; return its exit code.

    The wait blocks in ``waitpid``: ``subprocess``'s own timeout polls in
    steps of up to 50 ms, which would quantize the set-up times.
    """
    proc = subprocess.Popen(args, env=child_env(), stdout=sys.stderr)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted while waiting
            proc.kill()
            proc.wait()


def setup_sample(wl, ledger: Ledger, deadline: float) -> float:
    """Wall time of one fresh interpreter running every setup command."""
    args = [sys.executable, "-c", SETUP_SNIPPET]
    for command in wl.setup:
        args += [str(command.config), str(command.out)]
        command.out.unlink(missing_ok=True)
    start = time.perf_counter()
    code = run_process(args, deadline)
    elapsed = time.perf_counter() - start
    for command in wl.setup:
        ledger.record(command, code == 0, f"setup process exit code {code}")
    return elapsed


def startup_sample(deadline: float) -> float:
    """Wall time of one fresh interpreter running the start-up calibration."""
    start = time.perf_counter()
    code = run_process([sys.executable, *STARTUP], deadline)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"start-up calibration exit code {code}")
    return elapsed


def run_repetition(wl, work: Path, traced: bool, deadline: float):
    """One child process running every command; its result, or None."""
    for command in wl.commands:
        command.out.unlink(missing_ok=True)
    plan, result = work / "plan.json", work / "child-result.json"
    result.unlink(missing_ok=True)
    plan.write_text(json.dumps({
        "src": str(SRC),
        "commands": [{"id": c.id, "argv": c.argv()} for c in wl.commands],
    }))
    args = [sys.executable, str(HERE / "child.py"), str(plan), str(result)]
    if traced:
        args += ["--trace", str(work / "spans.npz")]
    if run_process(args, deadline) != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


def setup_burst(wl, ledger: Ledger, deadline: float, setup: list, until: float) -> None:
    """Append set-up samples to ``setup``, each as (measured, calibrated),
    until there are ``MIN_SETUP_SAMPLES`` and the clock has passed
    ``until``.  The start-up calibration runs before, between and after
    the samples."""
    before = startup_sample(deadline)
    while time.perf_counter() < deadline and (
            len(setup) < MIN_SETUP_SAMPLES or time.perf_counter() < until):
        elapsed = setup_sample(wl, ledger, deadline)
        after = startup_sample(deadline)
        setup.append((elapsed, calibrated(elapsed, before, after, REFERENCE_STARTUP_S)))
        before = after


def environment(seed: int, reps: int, setup_samples: int, cores: list) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned_cores": cores,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": BLAS_PINNING,
        "repetitions": reps,
        "setup_samples": setup_samples,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def layer_metrics(traced, untraced_walls, output_bytes, problems):
    """Per-layer values from the traced repetitions: counts must agree
    exactly between repetitions; times are medians."""
    values, missing = {}, []
    for name, unit in metric_units().items():
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        if len(samples) < len(traced):
            missing.append(name)
            continue
        if unit == "count" and len(set(samples)) > 1:
            problems.append(f"{name} differs between traced repetitions: {samples}")
        values[name] = (statistics.median(samples), unit)
    values["cli.output_bytes"] = (output_bytes, "bytes")
    overhead = (statistics.median(r["calibrated_wall_s"] for r in traced)
                / statistics.median(untraced_walls))
    values["trace_overhead"] = (overhead - 1.0, "ratio")
    return values, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "gni" / "cli.py").is_file():
        print(f"no gni source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    # Turn a termination request into an exception, so that run_process
    # kills and reaps the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cores = pin_to_one_core()

    work = HERE / "work" / args.workload
    wl = workloads.build(args.workload, args.seed, work)
    ledger = Ledger()
    if not args.trace:
        setup_sample(wl, ledger, deadline)  # writes the bytecode caches; not timed

    walls, raw_walls, rss, traced, setup, output_bytes = [], [], [], [], [], 0
    loop_start = time.perf_counter()
    reps = 0
    while reps < MIN_REPS or time.perf_counter() - loop_start < args.seconds:
        is_traced = bool(args.trace) and reps % 2 == 1
        rep_start = time.perf_counter()
        result = run_repetition(wl, work, is_traced, deadline)
        reps += 1
        if result is None:
            for command in wl.commands:
                ledger.record(command, False, "repetition process failed")
            break
        for command, outcome in zip(wl.commands, result["outcomes"]):
            ledger.record(command, outcome["code"] == 0,
                          outcome["error"] or f"exit code {outcome['code']}")
        output_bytes = sum(c.out.stat().st_size for c in wl.commands if c.out.exists())
        if is_traced:
            traced.append(result)
        else:
            walls.append(result["calibrated_wall_s"])
            raw_walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        # Set-up samples go between the repetitions, a fixed share of the
        # elapsed time, so they meet the host at the same speeds as they do.
        if not args.trace:
            now = time.perf_counter()
            setup_burst(wl, ledger, deadline, setup, now + SETUP_RATIO * (now - rep_start))
        if time.perf_counter() > deadline:
            break

    problems = [f"{f['command']}: {'; '.join(f['problems'])}" for f in ledger.failures]
    measured = {}  # the calibrated metrics' medians as measured
    if args.trace and traced and walls:
        metrics, missing = layer_metrics(traced, walls, output_bytes, problems)
        samples = dict.fromkeys(metrics, len(traced))
    elif not args.trace and walls and setup:
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(s[1] for s in setup), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
        measured = {"wall_s": statistics.median(raw_walls),
                    "setup_s": statistics.median(s[0] for s in setup)}
        missing = []
        samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(rss)}
    else:
        metrics, missing, samples = {}, [], {}
        problems.append("no complete repetition")

    env = environment(args.seed, reps, len(setup), cores)
    failed = len(ledger.failures)
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "wall_s_samples": walls, "measured_wall_s_samples": raw_walls,
              "setup_s_samples": [s[1] for s in setup],
              "measured_setup_s_samples": [s[0] for s in setup],
              "peak_rss_mb_samples": rss,
              "traced_wall_s_samples": [r["calibrated_wall_s"] for r in traced],
              "attempted": ledger.attempted, "failed": failed, "problems": problems,
              "missing": missing, "metrics": {k: v[0] for k, v in metrics.items()}}
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  repetitions {reps}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit:<6} (median, n={samples[name]})")
    for name, value in measured.items():
        print(f"  {name + ' as measured':<46} {value:>14.6g} {'s':<6} (median, n={samples[name]})")
    print(f"  {'failed_frac':<46} {failed / max(ledger.attempted, 1):>14.6g} ratio  "
          f"({failed} of {ledger.attempted} commands)")
    for name in missing:
        print(f"  {name:<46} {'missing':>14}")
    for problem in problems:
        print(f"  FAILED {problem}")
    correct = not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
