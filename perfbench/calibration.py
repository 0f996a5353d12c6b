"""Fixed calibration work that measures how fast the host runs right now.

The reference machine's core changes speed by up to 1.9x in spells of
seconds to minutes, with no steal time counted, so two runs of the same
code differ by whichever spells they met.  The benchmark therefore times
calibration work right before and after each timed stretch of ``gni``
work, and scales the stretch's wall time by (reference time) /
(calibration time): the result is the wall time the work would take on a
host on which the calibration takes its reference time.  A change to
``gni`` moves the work's time and not the calibration's, so it shows in
full; a spell of the host moves both and cancels.

There are two calibrations, each like the work it calibrates:

- :func:`time_loop`, for the ``gni`` commands of a repetition: a loop
  doing what the commands do (interpreter-bound updates of 3-vectors, small
  dense solves, float formatting), run in the same process between the
  commands and, from a timer signal, every ``SAMPLE_EVERY_S`` during them.
  A command can take longer than a spell, so samples only at its ends miss
  what happens in between.
- :data:`STARTUP`, for the set-up samples, which are fresh interpreters: a
  fresh interpreter that imports NumPy and nothing of ``gni``.  Process
  start and imports from disk follow the host's spells differently from
  computation, and the loop tracked them poorly (see NOTES.md).
"""
from __future__ import annotations

import time

import numpy as np

# The calibrations' times on the reference host, rounded.
REFERENCE_LOOP_S = 0.060
REFERENCE_STARTUP_S = 0.150

SAMPLE_EVERY_S = 1.0  # loop samples during a command, in wall time
STARTUP = ("-c", "import numpy")  # interpreter arguments


def _loop(steps: int = 400) -> int:
    x = np.array([0.3, 0.2, 0.1])
    v = np.array([1.0, 0.5, 0.2])
    m = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.2], [0.0, 0.2, 4.0]])
    rows = []
    for i in range(steps):
        for _ in range(4):
            v = v + 0.05 * (-x + 0.01 * np.cross(v, x))
            x = x + 0.05 * v
            g = float(np.dot(x, x)) + float(v @ v)
        y = np.linalg.solve(m, x)
        rows.append(",".join(repr(float(t)) for t in (i * 0.05, g, y[0], y[1], y[2])))
    return len("\n".join(rows))


def time_loop() -> float:
    """Wall time of one pass of the calibration loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def calibrated(elapsed: float, before: float, after: float, reference: float) -> float:
    """``elapsed`` at reference speed, from the calibration times just
    before and after it and the calibration's ``reference`` time."""
    return elapsed * reference / (0.5 * (before + after))
