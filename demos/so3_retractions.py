"""Retraction calculus on SO(3): Cayley and exponential maps.

A retraction turns Lie-algebra increments into group elements; its
right-trivialized tangent (and the transposed inverse) is what couples
body angular velocity to the discrete momentum in the reduced steppers.
This script exercises the identities the integrators rely on, then
reconstructs a rotation history from a body angular-velocity sequence with
both retractions and measures how well orthogonality survives ten
thousand products.
"""
import numpy as np

from gni.gni_reduced import reconstruct
from gni.lie_so3 import cay, dcay, dcay_inv, dexp_inv, exp_so3, hat, vee


def main() -> None:
    rng = np.random.default_rng(12)
    w = rng.standard_normal(3)

    print("single-vector identities (random w):")
    print(f"  vee(hat(w)) - w:              {np.max(np.abs(vee(hat(w)) - w)):.3e}")
    r_cay = cay(w)
    print(f"  cay(w) orthogonality defect:  {np.max(np.abs(r_cay.T @ r_cay - np.eye(3))):.3e}")
    print(f"  cay(w) cay(-w) - I:           {np.max(np.abs(r_cay @ cay(-w) - np.eye(3))):.3e}")
    print(f"  dcay_inv(w) dcay(w) - I:      {np.max(np.abs(dcay_inv(w) @ dcay(w) - np.eye(3))):.3e}")
    r_exp = exp_so3(w)
    print(f"  exp(w) orthogonality defect:  {np.max(np.abs(r_exp.T @ r_exp - np.eye(3))):.3e}")
    print("  dexp_inv (closed form) vs dcay_inv at small w:")
    for scale in (1e-1, 1e-2, 1e-3):
        diff = np.max(np.abs(dexp_inv(scale * w) - dcay_inv(scale * w)))
        print(f"    |w| ~ {scale:.0e}: difference {diff:.3e} (both -> I as w -> 0)")

    print("\nreconstruction of a rotating frame (h = 0.05, 10000 steps):")
    h = 0.05
    xi_seq = [np.array([0.3 * np.cos(0.01 * k), 0.2, 0.1 * np.sin(0.02 * k)]) for k in range(10_000)]
    for name in ("cay", "exp"):
        frames = reconstruct(np.eye(3), xi_seq, h, retraction=name)
        worst = max(np.max(np.abs(f.T @ f - np.eye(3))) for f in frames)
        det_drift = abs(np.linalg.det(frames[-1]) - 1.0)
        print(f"  {name}: orthogonality {worst:.3e}, det drift {det_drift:.3e}")

    print("\ncay and exp agree to O(|hw|^3) per step:")
    for h_try in (0.2, 0.1, 0.05):
        diff = np.max(np.abs(cay(h_try * w) - exp_so3(h_try * w)))
        print(f"  h = {h_try}: |cay - exp| = {diff:.3e}")


if __name__ == "__main__":
    main()
