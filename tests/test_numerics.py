"""Tests for the linear and Newton solvers."""
import itertools

import numpy as np
import pytest

from gni.numerics import (
    NewtonConfig,
    NoConvergence,
    RankDeficient,
    SingularMatrix,
    default_newton_config,
    lu_solve,
    newton_solve3,
    newton_solve_stats,
    small_solve,
    solve_gram,
)


def test_lu_solve_diagonal():
    x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-15)


def test_lu_solve_requires_pivoting():
    # Zero leading pivot forces a row swap.
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([3.0, 7.0])
    assert np.allclose(lu_solve(a, b), [7.0, 3.0], atol=1e-15)


def test_lu_solve_matrix_rhs():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    x_true = rng.standard_normal((5, 3))
    x = lu_solve(a, a @ x_true)
    assert np.allclose(x, x_true, atol=1e-10)


def test_lu_solve_residual_contract():
    # Backward-error bound over a batch of random well-conditioned systems.
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(a, b)
        norm_a = np.max(np.abs(a))
        norm_x = np.max(np.abs(x))
        norm_b = np.max(np.abs(b))
        assert np.max(np.abs(a @ x - b)) <= 1e-12 * (norm_a * norm_x + norm_b)


def test_lu_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        lu_solve(a, np.array([1.0, 1.0]))


def test_lu_solve_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))


def test_newton_linear_converges_in_two_iterations():
    calls = []

    def residual(x):
        calls.append(float(x[0]))
        return 3.0 * x - 6.0

    x, _ = newton_solve_stats(residual, np.array([0.0]), jacobian=lambda x: np.array([[3.0]]))
    assert abs(x - 2.0) <= 1e-12
    # Two corrections at most: one evaluation at x0 plus one accepted
    # trial point per iteration.
    assert len(calls) <= 5


def test_newton_scalar_quadratic():
    x, _ = newton_solve_stats(
        lambda x: x * x - 4.0, np.array([3.0]), jacobian=lambda x: np.array([[2.0 * x[0]]])
    )
    assert abs(x - 2.0) <= 1e-12


def test_newton_vector_system():
    def residual(z):
        return np.array([z[0] - 1.0, z[1] ** 2 - 9.0])

    def jacobian(z):
        return np.array([[1.0, 0.0], [0.0, 2.0 * z[1]]])

    z, _ = newton_solve_stats(residual, np.array([0.0, 2.0]), jacobian=jacobian)
    assert np.allclose(z, [1.0, 3.0], atol=1e-12)


def test_newton_damping_rescues_overshoot():
    # Full Newton steps on arctan diverge from this start; the damped
    # iteration must still reach the root at the origin.
    x, _ = newton_solve_stats(
        lambda x: np.arctan(20.0 * x),
        np.array([2.0]),
        jacobian=lambda x: np.array([[20.0 / (1.0 + 400.0 * x[0] * x[0])]]),
    )
    assert abs(x) <= 1e-12


def test_newton_no_convergence_reports_budget():
    cfg = NewtonConfig(max_iters=3)
    with pytest.raises(NoConvergence) as excinfo:
        newton_solve_stats(
            lambda x: x * x - 4.0,
            np.array([1.0e3]),
            cfg=cfg,
            jacobian=lambda x: np.array([[2.0 * x[0]]]),
        )
    assert excinfo.value.iterations == 3
    assert excinfo.value.final_residual > 0.0


def test_newton_requires_a_jacobian():
    with pytest.raises(TypeError):
        newton_solve_stats(lambda x: x - 1.0, np.array([0.0]))


def test_default_config_env_override(monkeypatch):
    monkeypatch.setenv("GNI_NEWTON_TOL", "1e-8")
    assert default_newton_config().residual_tol == 1e-8
    monkeypatch.delenv("GNI_NEWTON_TOL")
    assert default_newton_config().residual_tol == 1e-12


# ---------------------------------------------------------------------------
# small_solve, solve_gram and newton_solve3


def test_small_solve_matches_lu_solve():
    # Every row order of a diagonally dominant matrix forces every pivot
    # choice (and so every row swap) of the elimination.
    rng = np.random.default_rng(8)
    checked = 0
    for n in (1, 2, 3):
        for _ in range(40):
            base = rng.standard_normal((n, n)) + 3.0 * np.diag(rng.choice([-1.0, 1.0], n))
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            for perm in itertools.permutations(range(n)):
                a = base[list(perm)] * 10.0 ** rng.uniform(-3, 3)
                x = np.array(small_solve(a.tolist(), b.tolist()))
                ref = lu_solve(a, b)
                assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
                checked += 1
    assert checked == 40 * (1 + 2 + 6)


@pytest.mark.parametrize(
    "a",
    [
        # A zero leading pivot: the first column must swap.
        [[0.0, 1.0], [2.0, 3.0]],
        [[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [4.0, 1.0, 1.0]],
        # Column 0 eliminates the second row's column-1 entry to exactly 0:
        # the second column must swap.
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    ],
)
def test_small_solve_swaps_rows_at_zero_pivots(a):
    b = [1.0, -2.0, 0.5][: len(a)]
    x = np.array(small_solve(a, b))
    ref = lu_solve(np.array(a), np.array(b))
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
    np.testing.assert_allclose(np.array(a) @ x, b, rtol=0.0, atol=1e-14)


def test_small_solve_ties_pick_the_first_row_like_lu_solve():
    a = [[1.0, 2.0, 0.5], [-1.0, 0.25, 3.0], [1.0, -4.0, 1.0]]
    b = [1.0, 2.0, 3.0]
    x = np.array(small_solve(a, b))
    ref = lu_solve(np.array(a), np.array(b))
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "a",
    [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, 1e-15]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]],
        [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]],
        [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-15]],
    ],
)
def test_small_solve_raises_where_lu_solve_does(a):
    b = list(range(1, len(a) + 1))
    with pytest.raises(SingularMatrix) as ref:
        lu_solve(np.array(a), np.array(b, dtype=float))
    with pytest.raises(SingularMatrix) as got:
        small_solve(a, b)
    assert str(got.value) == str(ref.value)


def test_small_solve_relative_pivot_test_keeps_small_but_regular_pivots():
    a = [[1.0, 0.0], [0.0, 1e-13]]
    assert small_solve(a, [1.0, 1e-13]) == pytest.approx((1.0, 1.0), abs=1e-15)


def test_solve_gram_one_row_is_plain_division():
    gram = np.array([[0.7]])
    rhs = np.array([0.3])
    assert solve_gram(gram, rhs).tobytes() == (rhs / gram[0, 0]).tobytes()
    with pytest.raises(RankDeficient, match="constraint row vanishes"):
        solve_gram(np.array([[0.0]]), rhs)


def test_solve_gram_small_and_large_systems():
    rng = np.random.default_rng(4)
    for m in (2, 3, 5):
        rows = rng.standard_normal((m, m + 2))
        gram = rows @ rows.T
        rhs = rng.standard_normal(m)
        np.testing.assert_allclose(solve_gram(gram, rhs), np.linalg.solve(gram, rhs), rtol=1e-12)
        dependent = np.vstack([rows[:-1], rows[:1]])
        with pytest.raises(RankDeficient, match="linearly dependent"):
            solve_gram(dependent @ dependent.T, rhs)


def _coupled_atan():
    """Three coupled arctan equations: full Newton steps from far out
    overshoot, so the damping and its halvings are exercised."""

    def residual(z0, z1, z2):
        return (
            np.arctan(20.0 * z0) + 0.1 * z1,
            np.arctan(10.0 * z1) - 0.1 * z2,
            np.arctan(5.0 * z2) + 0.05 * z0,
        )

    def jacobian(z0, z1, z2):
        return (
            (20.0 / (1.0 + 400.0 * z0 * z0), 0.1, 0.0),
            (0.0, 10.0 / (1.0 + 100.0 * z1 * z1), -0.1),
            (0.05, 0.0, 5.0 / (1.0 + 25.0 * z2 * z2)),
        )

    return residual, jacobian


def test_newton_solve3_follows_newton_solve_stats():
    residual, jacobian = _coupled_atan()
    for start in ([2.0, -1.5, 3.0], [0.3, 0.2, -0.1], [5.0, 5.0, 5.0]):
        x, iters = newton_solve3(residual, jacobian, start)
        ref, ref_iters = newton_solve_stats(
            lambda z: np.array(residual(*z)),
            np.array(start),
            jacobian=lambda z: np.array(jacobian(*z)),
        )
        assert iters == ref_iters
        np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-14)
        assert max(abs(f) for f in residual(*x)) <= 1e-12
        # Converging on the last iteration of the budget still succeeds.
        _, last = newton_solve3(residual, jacobian, start, NewtonConfig(max_iters=ref_iters))
        assert last == ref_iters


def test_newton_solve3_no_convergence_reports_budget():
    residual, jacobian = _coupled_atan()
    with pytest.raises(NoConvergence) as excinfo:
        newton_solve3(residual, jacobian, [2.0, -1.5, 3.0], NewtonConfig(max_iters=1))
    assert excinfo.value.iterations == 1
    assert excinfo.value.final_residual > 1e-12


def test_newton_solve3_singular_jacobian_raises():
    def residual(z0, z1, z2):
        return (z0 + z1 - 1.0, 2.0 * z0 + 2.0 * z1, z2)

    def jacobian(z0, z1, z2):
        return ((1.0, 1.0, 0.0), (2.0, 2.0, 0.0), (0.0, 0.0, 1.0))

    with pytest.raises(SingularMatrix):
        newton_solve3(residual, jacobian, [0.0, 0.0, 0.0])


def test_newton_solve3_takes_the_fallback_step_like_newton_solve_stats():
    # A wrong-signed Jacobian makes every damped trial worse, so each
    # iteration exhausts its halvings and takes the smallest step anyway.
    def residual(z0, z1, z2):
        return (1.0 + z0 * z0, z1, z2)

    def jacobian(z0, z1, z2):
        return ((-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    cfg = NewtonConfig(max_iters=3)
    with pytest.raises(NoConvergence) as got:
        newton_solve3(residual, jacobian, [1.0, 0.0, 0.0], cfg)
    with pytest.raises(NoConvergence) as ref:
        newton_solve_stats(
            lambda z: np.array(residual(*z)),
            np.array([1.0, 0.0, 0.0]),
            cfg=cfg,
            jacobian=lambda z: np.array(jacobian(*z)),
        )
    assert got.value.final_residual == ref.value.final_residual > 2.0


def test_newton_solve3_rejects_non_finite_trial_points():
    # The full step lands where one residual is NaN; like newton_solve_stats
    # the damping must refuse it and halve into the finite region.
    def residual(z0, z1, z2):
        f = z0 - 1.0
        return (z1, f if z0 < 1.5 else float("nan"), z2)

    def jacobian(z0, z1, z2):
        return ((0.0, 1.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 1.0))

    x, iters = newton_solve3(residual, jacobian, [0.0, 0.0, 0.0])
    ref, ref_iters = newton_solve_stats(
        lambda z: np.array(residual(*z)), np.zeros(3), jacobian=lambda z: np.array(jacobian(*z))
    )
    assert iters == ref_iters
    np.testing.assert_array_equal(x, ref)


# A residual that is NaN at the start point, and one that is finite only
# there: the drivers stop at the first non-finite current residual, after
# 1 evaluation in the first case and 1 + 8 halvings + 1 fallback step in
# the second, instead of spending the whole budget (451 evaluations).
_NON_FINITE_CASES = [(False, 1, 0), (True, 10, 1)]


@pytest.mark.parametrize("finite_at_start, evals, iterations", _NON_FINITE_CASES)
def test_newton_solve_stats_stops_at_a_non_finite_residual(finite_at_start, evals, iterations):
    calls = []

    def residual(z):
        calls.append(z.copy())
        if finite_at_start and not z.any():
            return z + 1.0
        return np.full(3, np.nan)

    with pytest.raises(NoConvergence) as excinfo:
        newton_solve_stats(residual, np.zeros(3), jacobian=lambda z: np.eye(3))
    assert len(calls) == evals
    assert excinfo.value.iterations == iterations
    assert np.isnan(excinfo.value.final_residual)


@pytest.mark.parametrize("finite_at_start, evals, iterations", _NON_FINITE_CASES)
def test_newton_solve3_stops_at_a_non_finite_residual(finite_at_start, evals, iterations):
    calls = []
    nan = float("nan")

    def residual(z0, z1, z2):
        calls.append((z0, z1, z2))
        if finite_at_start and z0 == z1 == z2 == 0.0:
            return (1.0, 1.0, 1.0)
        return (nan, nan, nan)

    def jacobian(z0, z1, z2):
        return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    with pytest.raises(NoConvergence) as excinfo:
        newton_solve3(residual, jacobian, [0.0, 0.0, 0.0])
    assert len(calls) == evals
    assert excinfo.value.iterations == iterations
    assert np.isnan(excinfo.value.final_residual)
