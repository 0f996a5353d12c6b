"""Long bounded roll of a homogeneous ball on a resonantly spinning table.

A unit ball (inertia 2/3 about every axis) rolls without slipping on a
table rotating at the matching unit rate.  At this resonance the contact
point traces a closed, bounded curve, so a ten-thousand-step run is a
stringent structure test: the discrete constraint equations must hold at
solver tolerance on every accepted step while the trajectory stays inside
a fixed disc instead of drifting away.
"""
import numpy as np

from gni.analysis import run
from gni.gni_reduced import ChaplyginParams


def main() -> None:
    params = ChaplyginParams(m=1.0, r=1.0, omega=1.0, i1=2 / 3, i2=2 / 3, i3=2 / 3)
    q0 = np.array([1.0, 1.0])
    w0 = np.array([0.0, 2.0, 0.0])
    traj = run(None, params, (q0, w0), h=0.1, n_steps=10_000)

    xy = traj.states[:, :2]
    radius = np.hypot(xy[:, 0], xy[:, 1])
    half = len(traj) // 2
    print(f"steps:                {len(traj) - 1}")
    print(f"max constraint res.:  {np.max(traj.residuals):.3e}")
    print(f"contact-point radius: min {radius.min():.4f}, max {radius.max():.4f}")
    print(
        "energy range:         "
        f"[{traj.energies.min():.4f}, {traj.energies.max():.4f}]"
        "  (the spinning table does work, so energy oscillates;"
    )
    print(
        "                      "
        f"first half spans [{traj.energies[:half].min():.4f}, "
        f"{traj.energies[:half].max():.4f}] — bounded, not drifting)"
    )
    print(f"Newton iterations:    max {traj.newton_iters.max()} per step")
    print()
    print("sample of the contact path (every 2000th step):")
    for k in range(0, len(traj), 2000):
        print(f"  t = {traj.times[k]:7.1f}   (x, y) = ({xy[k, 0]:+8.4f}, {xy[k, 1]:+8.4f})")


if __name__ == "__main__":
    main()
