"""One repetition of a workload: run its ``gni`` commands in this process.

    python3 perfbench/child.py PLAN.json RESULT.json [--trace SPANS.npz]

``PLAN.json`` holds ``src`` (the source tree ``gni`` must be imported
from) and ``commands`` (``id`` and ``argv`` of each ``gni.cli.main``
call).  The calibration loop of ``calibration.py`` runs before the first
call, after each one and, untraced, every ``SAMPLE_EVERY_S`` during them
from a timer signal; its own time is left out of the calls' time.  The
result records the calls' wall time, the same at reference host speed (each
stretch between two loop runs scaled by their times), the loop times, the
process's peak resident set, each command's exit code or exception, and,
with ``--trace``, the per-layer summary; the raw spans go to ``SPANS.npz``.
Traced repetitions take no samples during the calls, which would land
inside the spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_LOOP_S, SAMPLE_EVERY_S, calibrated, time_loop


def peak_rss_mb() -> float:
    """This process's peak resident set since it was executed.

    ``ru_maxrss`` is kept across ``execve``, so it would also count the
    benchmark's own resident set from before this process replaced it; the
    kernel's ``VmHWM`` starts afresh with the new program.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())

    import gni
    from gni import cli

    where = Path(gni.__file__).resolve().parent.parent
    if where != Path(plan["src"]).resolve():
        print(f"gni imported from {where}, expected {plan['src']}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = []  # (start, end) of every calibration loop run

    def sample():
        start = time.perf_counter()
        time_loop()
        marks.append((start, time.perf_counter()))

    def on_alarm(signum, frame):
        sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)  # one-shot, so never nested

    period = SAMPLE_EVERY_S if tracer is None else 0.0
    signal.signal(signal.SIGALRM, on_alarm)
    outcomes = []
    time_loop()  # its first pass pays for lazy set-up in numpy; not used
    sample()
    for index, command in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.state[1] = index  # the command its spans belong to
        signal.setitimer(signal.ITIMER_REAL, period)
        try:
            outcomes.append({"code": cli.main(command["argv"]), "error": None})
        except Exception as exc:  # a raising command counts as failed; keep running the rest
            traceback.print_exc()
            outcomes.append({"code": None, "error": f"{type(exc).__name__}: {exc}"})
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        sample()

    # The calls' time is the time between loop runs; each stretch is scaled
    # by the loop runs that bound it.
    gaps = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
    loops = [end - start for start, end in marks]
    result = {
        "wall_s": sum(gaps),
        "calibrated_wall_s": sum(calibrated(gap, before, after, REFERENCE_LOOP_S)
                                 for gap, before, after in zip(gaps, loops, loops[1:])),
        "loop_s": loops,
        "peak_rss_mb": peak_rss_mb(),
        "outcomes": outcomes,
    }
    if tracer is not None:
        result["layers"] = tracer.summarize([c["id"] for c in plan["commands"]])
        tracer.save(args.trace)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
