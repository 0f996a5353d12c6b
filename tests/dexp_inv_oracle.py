"""The exact inverse tangent of the exponential on so(3), kept as the
oracle of the closed form in :mod:`gni.lie_so3`.

``dexp_inv(s) = sum_j B_j / j! hat(s)^j`` with the Bernoulli numbers
``B_j`` (``B_1 = -1/2``).  Since ``hat(s)^3 = -t hat(s)`` with ``t =
|s|^2``, the series folds to ``I - hat(s)/2 + c(t) hat(s)^2`` with
``c(t) = sum_n (-1)^n B_{2n+2} / (2n+2)! t^n``, summed here in exact
fractions.
"""
from fractions import Fraction
from math import factorial

import numpy as np

from gni.lie_so3 import hat


def bernoulli(n):
    """Bernoulli number B_n (B_1 = -1/2 convention), computed exactly."""
    numbers = [Fraction(1)]
    for m in range(1, n + 1):
        binom, total = 1, Fraction(0)
        for k in range(m):
            total += binom * numbers[k]
            binom = binom * (m + 1 - k) // (k + 1)
        numbers.append(-total / (m + 1))
    return numbers[n]


_TERMS = 24
_SERIES = [(-1) ** n * bernoulli(2 * n + 2) / factorial(2 * n + 2) for n in range(_TERMS)]


def exact_c(t):
    """``(c, dc/dt)`` at the float ``0 <= t <= 4`` (``|s| <= 2``) as
    fractions.  The terms fall by about ``t / (4 pi^2)`` each, so the 24
    kept leave a relative truncation below 1e-29."""
    if not 0.0 <= t <= 4.0:
        raise ValueError(f"t = {t} is outside the oracle's range [0, 4]")
    t = Fraction(t)
    c = sum(k * t**n for n, k in enumerate(_SERIES))
    dc = sum(n * k * t ** (n - 1) for n, k in enumerate(_SERIES) if n)
    return c, dc


def exact_dexp_inv(w):
    """``I - hat(w)/2 + c hat(w)^2`` with the exact ``c`` at ``|w|^2``,
    rounded once to a float."""
    w = np.asarray(w, dtype=float)
    s = hat(w)
    return np.eye(3) - 0.5 * s + float(exact_c(float(w @ w))[0]) * (s @ s)
