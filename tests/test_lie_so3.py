"""Tests for the rotation-group calculus."""
from fractions import Fraction
from math import cos, sin, sqrt

import numpy as np
import pytest

from gni.lie_so3 import (
    Ad,
    Ad_star,
    NotSkew,
    cay,
    dcay,
    dcay_inv,
    dexp_inv,
    dexp_inv_coefficients,
    exp_coefficients,
    exp_so3,
    hat,
    vee,
)
from gni.numerics import matmul
from dexp_inv_oracle import exact_c


def _random_vectors(seed, count, radius):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((count, 3))
    scales = rng.uniform(0.0, radius, count)
    norms = np.linalg.norm(vecs, axis=1)
    return vecs * (scales / np.maximum(norms, 1e-12))[:, None]


def _dexp_oracle(w):
    """Closed-form right-trivialized tangent of the exponential.

    dexp(w) = I + (1-cos t)/t^2 * hat(w) + (t - sin t)/t^3 * hat(w)^2,
    t = |w|.  Used only as an independent check here.
    """
    t = np.linalg.norm(w)
    s = hat(w)
    if t < 1e-6:
        a, b = 0.5 - t * t / 24.0, 1.0 / 6.0 - t * t / 120.0
    else:
        a = 0.5 * (np.sin(0.5 * t) / (0.5 * t)) ** 2  # (1-cos t)/t^2 without its cancellation
        b = (t - np.sin(t)) / (t ** 3)
    return np.eye(3) + a * s + b * (s @ s)


def test_hat_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(hat(a) @ b, np.cross(a, b), atol=1e-14)


def test_hat_explicit_entries():
    s = hat(np.array([1.0, 2.0, 3.0]))
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(s, expected)


def test_vee_round_trip():
    w = np.array([0.3, -1.2, 2.5])
    assert np.allclose(vee(hat(w)), w, atol=1e-15)


def test_vee_rejects_non_skew():
    with pytest.raises(NotSkew):
        vee(np.eye(3))


def test_cay_identity_at_zero():
    assert np.allclose(cay(np.zeros(3)), np.eye(3), atol=1e-15)


def test_cay_hand_value():
    # |w| = 2 about the x axis: a quarter turn, exactly.
    got = cay(np.array([2.0, 0.0, 0.0]))
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(got, expected, atol=1e-15)


def test_cay_is_rotation():
    for w in _random_vectors(1, 100, 5.0):
        r = cay(w)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_cay_transpose_is_inverse_argument():
    for w in _random_vectors(2, 20, 3.0):
        assert np.allclose(cay(w).T, cay(-w), atol=1e-14)


def test_dcay_matches_finite_differences():
    # Right-trivialized directional derivative of cay, centered differences.
    eps = 1e-6
    rng = np.random.default_rng(3)
    for w in _random_vectors(4, 20, 2.0):
        eta = rng.standard_normal(3)
        eta /= np.linalg.norm(eta)
        fd = (cay(w + eps * eta) - cay(w - eps * eta)) / (2.0 * eps)
        got = vee_safe(fd @ cay(w).T)
        assert np.allclose(dcay(w) @ eta, got, atol=1e-6)


def vee_safe(s):
    """vee of the antisymmetric part (finite differences are only
    approximately skew)."""
    a = 0.5 * (s - s.T)
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def test_dcay_inv_hand_value():
    got = dcay_inv(np.array([2.0, 0.0, 0.0]))
    expected = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(got, expected, atol=1e-15)


def test_dcay_inverse_pair():
    for w in _random_vectors(5, 100, 2.0):
        assert np.allclose(dcay(w) @ dcay_inv(w), np.eye(3), atol=1e-12)
        assert np.allclose(dcay_inv(w) @ dcay(w), np.eye(3), atol=1e-12)


def test_exp_hand_value():
    got = exp_so3(np.array([np.pi, 0.0, 0.0]))
    assert np.allclose(got, np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_exp_small_angle_branch():
    w = np.array([1e-10, -2e-10, 1.5e-10])
    assert np.allclose(exp_so3(w), np.eye(3) + hat(w), atol=1e-16)


def test_exp_is_rotation_and_involution():
    for w in _random_vectors(6, 100, 10.0):
        r = exp_so3(w)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r @ exp_so3(-w), np.eye(3), atol=1e-13)


def test_dexp_inv_coefficients_match_the_exact_series_and_the_cotangent_form():
    # The exact-fraction Bernoulli series over its range t <= 4, across the
    # switch at t = 1 from the Taylor series to the cotangent form.  Just
    # above the switch 1 - (theta/2) cot(theta/2) cancels, and the rounding
    # of tan grows to 1.5e-15 relative in c and 1.3e-13 in dc/dt.  Above
    # t = 4, c = (1 - (theta/2) cos(theta/2) / sin(theta/2)) / theta^2.
    rng = np.random.default_rng(7)
    below = [0.0, 5e-324, 1e-16, 1e-8, 1e-3, 0.01, 0.05, 0.5, np.nextafter(1.0, 0.0)]
    above = [1.0, np.nextafter(1.0, 2.0), 1.5, 3.0, 4.0]
    for ts, c_rel, dc_rel in ((below + list(rng.uniform(0.0, 1.0, 60)), 1e-15, 1e-13),
                              (above + list(rng.uniform(1.0, 4.0, 60)), 2e-15, 2e-13)):
        for t in ts:
            c, dc = dexp_inv_coefficients(float(t))
            want_c, want_dc = exact_c(t)
            assert abs(Fraction(c) - want_c) <= c_rel * want_c
            assert abs(Fraction(dc) - want_dc) <= dc_rel * want_dc
    for t in [np.nextafter(4.0, 5.0), 20.0, 36.0] + list(rng.uniform(4.0, 36.0, 60)):
        c, dc = dexp_inv_coefficients(float(t))
        half = 0.5 * sqrt(t)
        closed = (1.0 - half * cos(half) / sin(half)) / t
        assert abs(c - closed) <= 1e-15 * abs(closed)
        step = 1e-6 * t  # dc/dt against a central difference of c
        difference = (dexp_inv_coefficients(t + step)[0] - dexp_inv_coefficients(t - step)[0]) / (2 * step)
        assert dc == pytest.approx(difference, rel=1e-7)
    assert dexp_inv_coefficients(0.0) == (1.0 / 12.0, 1.0 / 720.0)
    assert np.array_equal(dexp_inv(np.zeros(3)), np.eye(3))


def test_dexp_inv_matches_cotangent_closed_form():
    # I - hat/2 + c(t) hat^2 with c = (1 - (t/2)/tan(t/2)) / t^2, t = |w|.
    for w in _random_vectors(7, 100, 2.0):
        t = np.linalg.norm(w)
        c = (1.0 - 0.5 * t / np.tan(0.5 * t)) / (t * t)
        s = hat(w)
        expected = np.eye(3) - 0.5 * s + c * (s @ s)
        assert np.max(np.abs(dexp_inv(w) - expected)) <= 1e-15


def test_dexp_inv_inverts_exp_tangent():
    for w in _random_vectors(8, 100, 2.0):
        product = dexp_inv(w) @ _dexp_oracle(w)
        assert np.max(np.abs(product - np.eye(3))) <= 1e-15


def test_tangent_flip_identity_cay():
    # dtau_inv(w) eta == dtau_inv(-w) (tau(-w) @ eta), here for cay.
    rng = np.random.default_rng(9)
    for w in _random_vectors(10, 100, 2.0):
        eta = rng.standard_normal(3)
        lhs = dcay_inv(w) @ eta
        rhs = dcay_inv(-w) @ (cay(-w) @ eta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_tangent_flip_identity_exp():
    rng = np.random.default_rng(11)
    for w in _random_vectors(12, 100, 2.0):
        eta = rng.standard_normal(3)
        lhs = dexp_inv(w) @ eta
        rhs = dexp_inv(-w) @ (exp_so3(-w) @ eta)
        assert np.max(np.abs(lhs - rhs)) <= 2e-15 * np.max(np.abs(eta))


def test_ad_pairing():
    rng = np.random.default_rng(13)
    for w in _random_vectors(14, 100, 3.0):
        rot = exp_so3(w)
        m, xi = rng.standard_normal(3), rng.standard_normal(3)
        assert Ad_star(rot, m) @ xi == pytest.approx(m @ Ad(rot, xi), abs=1e-12)


def test_exp_coefficients_are_the_rodrigues_coefficients():
    for theta in (0.0, 1e-9, 1e-3, 0.7, 2.5):
        a, b = exp_coefficients(theta)
        w = np.array([theta, 0.0, 0.0])
        s = hat(w)
        assert np.array_equal(exp_so3(w), np.eye(3) + a * s + b * matmul(s, s))
    assert exp_coefficients(1e-9) == (1.0 - 1e-18 / 6.0, 0.5 - 1e-18 / 24.0)


def test_exp_of_an_infinite_increment_is_nan_not_an_error():
    # math.sin(inf) raises ValueError; an overflowed increment must give a
    # NaN rotation for the run to report instead.
    assert all(np.isnan(c) for c in exp_coefficients(float("inf")))
    for t in (float("inf"), float("nan")):  # math.tan(inf) raises ValueError too
        assert all(np.isnan(c) for c in dexp_inv_coefficients(t))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(exp_so3(np.array([1e160, 0.0, 0.0]))).any()
