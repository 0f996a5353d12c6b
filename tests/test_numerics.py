"""Tests for the linear and Newton solvers."""
import itertools
import math

import numpy as np
import pytest

from gni import numerics
from gni.numerics import (
    NewtonConfig,
    NoConvergence,
    RankDeficient,
    SingularMatrix,
    default_newton_config,
    dot,
    linear_map,
    lu_factor,
    lu_solve,
    matmul,
    newton_solve_stats,
    solve_gram,
)

from solve_oracle import small_solve


def _bits(values) -> list:
    """The bit patterns of a sequence of floats."""
    return np.array(values, dtype=float).view(np.uint64).tolist()


def test_lu_solve_diagonal():
    x = lu_solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert type(x) is list and all(type(v) is float for v in x)
    assert np.allclose(x, [1.0, 2.0], atol=1e-15)


def test_lu_solve_requires_pivoting():
    # Zero leading pivot forces a row swap.
    assert np.allclose(lu_solve([[0.0, 1.0], [1.0, 0.0]], [3.0, 7.0]), [7.0, 3.0], atol=1e-15)


def test_lu_solve_matrix_rhs():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    x_true = rng.standard_normal((5, 3))
    x = lu_solve(a.tolist(), (a @ x_true).tolist())
    assert np.allclose(x, x_true, atol=1e-10)
    # Each column is solved as it would be alone.
    for col in range(3):
        alone = lu_solve(a.tolist(), (a @ x_true)[:, col].tolist())
        assert _bits([row[col] for row in x]) == _bits(alone)


def test_lu_solve_residual_contract():
    # Backward-error bound over a batch of random well-conditioned systems.
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = np.array(lu_solve(a.tolist(), b.tolist()))
        norm_a = np.max(np.abs(a))
        norm_x = np.max(np.abs(x))
        norm_b = np.max(np.abs(b))
        assert np.max(np.abs(a @ x - b)) <= 1e-12 * (norm_a * norm_x + norm_b)


def test_lu_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_lu_solve_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)).tolist(), [1.0, 1.0])
    with pytest.raises(ValueError):
        lu_solve(np.eye(2).tolist(), [1.0, 1.0, 1.0])


def test_newton_linear_converges_in_two_iterations():
    calls = []

    def residual(x):
        calls.append(x[0])
        return [3.0 * x[0] - 6.0]

    (x,), _ = newton_solve_stats(residual, [0.0], jacobian=lambda x: [[3.0]])
    assert abs(x - 2.0) <= 1e-12
    # Two corrections at most: one evaluation at x0 plus one accepted
    # trial point per iteration.
    assert len(calls) <= 5


def test_newton_scalar_quadratic():
    (x,), _ = newton_solve_stats(
        lambda x: [x[0] * x[0] - 4.0], [3.0], jacobian=lambda x: [[2.0 * x[0]]]
    )
    assert abs(x - 2.0) <= 1e-12


def test_newton_vector_system():
    def residual(z):
        return [z[0] - 1.0, z[1] ** 2 - 9.0]

    def jacobian(z):
        return [[1.0, 0.0], [0.0, 2.0 * z[1]]]

    z, _ = newton_solve_stats(residual, [0.0, 2.0], jacobian=jacobian)
    assert np.allclose(z, [1.0, 3.0], atol=1e-12)


def test_newton_damping_rescues_overshoot():
    # Full Newton steps on arctan diverge from this start; the damped
    # iteration must still reach the root at the origin.
    (x,), _ = newton_solve_stats(
        lambda x: [math.atan(20.0 * x[0])],
        [2.0],
        jacobian=lambda x: [[20.0 / (1.0 + 400.0 * x[0] * x[0])]],
    )
    assert abs(x) <= 1e-12


def test_newton_no_convergence_reports_budget():
    cfg = NewtonConfig(max_iters=3)
    with pytest.raises(NoConvergence) as excinfo:
        newton_solve_stats(
            lambda x: [x[0] * x[0] - 4.0], [1.0e3], cfg=cfg, jacobian=lambda x: [[2.0 * x[0]]]
        )
    assert excinfo.value.iterations == 3
    assert excinfo.value.final_residual > 0.0


def test_newton_requires_a_jacobian():
    with pytest.raises(TypeError):
        newton_solve_stats(lambda x: [x[0] - 1.0], [0.0])


def test_default_config_is_the_dataclass_default():
    assert default_newton_config() == NewtonConfig() == NewtonConfig(1e-12, 50)


def _newton_first_step(monkeypatch, a, b):
    """One Newton iteration on the linear residual ``a z - b`` from 0, with
    the number of lu_solve calls: its iterate is ``0 - d`` for the solve
    ``d`` of ``a d = -b``."""
    calls = []

    def counting_lu_solve(m, rhs):
        calls.append(len(m))
        return lu_solve(m, rhs)

    monkeypatch.setattr(numerics, "lu_solve", counting_lu_solve)
    x, iters = newton_solve_stats(
        lambda z: (a @ z - b).tolist(), [0.0] * len(b), NewtonConfig(max_iters=1),
        jacobian=lambda z: a.tolist(),
    )
    assert iters == 1 and calls == [len(b)]
    return x


def test_newton_small_systems_give_the_oracle_bits(monkeypatch):
    # A full, non-diagonal 3x3 Jacobian: the step is the unrolled solve's.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    b = rng.standard_normal(3)
    x = _newton_first_step(monkeypatch, a, b)
    assert _bits(x) == _bits([0.0 - d for d in small_solve(a.tolist(), (-b).tolist())])


def test_newton_larger_systems_give_lu_solve_bits(monkeypatch):
    a = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1
    b = np.ones(4)
    x = _newton_first_step(monkeypatch, a, b)
    assert _bits(x) == _bits([0.0 - d for d in lu_solve(a.tolist(), (-b).tolist())])
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


# ---------------------------------------------------------------------------
# lu_solve against the unrolled solve it replaced, and solve_gram


def test_small_solve_matches_lu_solve():
    # Every row order of a diagonally dominant matrix, its columns scaled
    # apart, forces every pivot choice (and so every row swap).
    rng = np.random.default_rng(8)
    checked = 0
    for n in (1, 2, 3):
        for _ in range(40):
            base = rng.standard_normal((n, n)) + 3.0 * np.diag(rng.choice([-1.0, 1.0], n))
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            for perm in itertools.permutations(range(n)):
                a = (base[list(perm)] * 10.0 ** rng.uniform(-3, 3, n)).tolist()
                assert _bits(lu_solve(a, b.tolist())) == _bits(small_solve(a, b.tolist()))
                checked += 1
    assert checked == 40 * (1 + 2 + 6)
    # Random matrices, their columns scaled apart.
    for _ in range(3000):
        n = int(rng.integers(1, 4))
        a = (rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, n)).tolist()
        b = rng.standard_normal(n).tolist()
        assert _bits(lu_solve(a, b)) == _bits(small_solve(a, b))


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
    x = lu_solve(a, b)
    assert _bits(x) == _bits(small_solve(a, b))
    np.testing.assert_allclose(np.array(a) @ x, b, rtol=0.0, atol=1e-14)


def test_small_solve_ties_pick_the_first_row_like_lu_solve():
    a = [[1.0, 2.0, 0.5], [-1.0, 0.25, 3.0], [1.0, -4.0, 1.0]]
    b = [1.0, 2.0, 3.0]
    assert _bits(lu_solve(a, b)) == _bits(small_solve(a, b))


def test_lu_solve_back_substitution_sums_from_its_first_product():
    # As the unrolled solve: -0.0 - (-1 * 0.0 + ...) is 0.0, where a sum
    # started at 0.0 would give -0.0.
    for a in ([[1.0, -1.0], [0.0, 1.0]], [[1.0, -1.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]):
        b = [-0.0] + [0.0] * (len(a) - 1)
        assert _bits(lu_solve(a, b)) == _bits(small_solve(a, b)) == _bits([0.0] * len(a))


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
    # The whole-matrix rule rejects every case.  The column rule rejects the
    # singular ones, and solves a regular diagonal, whose small entry is the
    # whole of its column, exactly.
    b = [float(v) for v in range(1, len(a) + 1)]
    with pytest.raises(SingularMatrix):
        small_solve(a, b)
    diagonal = np.diag(a)
    if np.array_equal(a, np.diag(diagonal)) and diagonal.all():
        assert lu_solve(a, b) == (b / diagonal).tolist()
    else:
        with pytest.raises(SingularMatrix, match=r"max\|a\[:, \d\]\|"):
            lu_solve(a, b)


def test_small_solve_relative_pivot_test_keeps_small_but_regular_pivots():
    a = [[1.0, 0.0], [0.0, 1e-13]]
    assert small_solve(a, [1.0, 1e-13]) == pytest.approx((1.0, 1.0), abs=1e-15)
    assert _bits(lu_solve(a, [1.0, 1e-13])) == _bits(small_solve(a, [1.0, 1e-13]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lu_solve_pivot_test_follows_each_columns_scale(n):
    # Scaling the columns by powers of two changes no pivot choice and no
    # significand: the solution is the unscaled one's, scaled back, even
    # where the columns span 1e-300 to 1e300 and the whole-matrix rule
    # would call the matrix singular.
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    b = rng.standard_normal(n)
    powers = np.ldexp(1.0, rng.integers(-996, 996, n))
    powers[0], powers[-1] = 2.0 ** -996, 2.0 ** 996
    x = lu_solve(a.tolist(), b.tolist())
    scaled = lu_solve((a * powers).tolist(), b.tolist())
    assert _bits(np.array(scaled) * powers) == _bits(x)
    # A column that is a multiple of another is still singular, at any scale.
    for scale in (1e-8, 1.0, 1e8):
        dependent = a.copy()
        dependent[:, -1] = scale * dependent[:, 0]
        with pytest.raises(SingularMatrix):
            lu_solve(dependent.tolist(), b.tolist())


def _one_pass_lu_solve(a, b):
    """The elimination with the right-hand sides carried along as extra
    columns of ``a``, in one pass, as :func:`lu_solve` was written before
    :func:`lu_factor` kept its factors: each right-hand side must get the
    same operations from the kept factors."""
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError(f"expected n x n rows and n right-hand sides, got {len(a)} and {len(b)}")
    stacked = n != 0 and isinstance(b[0], (list, tuple))
    rows = [[*row, *r] for row, r in zip(a, b)] if stacked else [[*row, r] for row, r in zip(a, b)]
    thresholds = [1e-14 * max(map(abs, column)) for column in zip(*a)]
    for k in range(n):
        pivot_at, magnitude = k, abs(rows[k][k])
        for i in range(k + 1, n):
            if (u := abs(rows[i][k])) > magnitude:
                pivot_at, magnitude = i, u
        if magnitude <= thresholds[k]:
            raise numerics._singular(rows[pivot_at][k], k, thresholds[k])
        top = rows[pivot_at]
        rows[pivot_at], rows[k] = rows[k], top
        for i in range(k + 1, n):
            f = rows[i][k] / top[k]
            rows[i] = [v - f * w for v, w in zip(rows[i], top)]
    solutions = []
    for c in range(n, len(rows[0]) if n else 0):
        x = [0.0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            if i + 1 < n:
                total = row[i + 1] * x[i + 1]
                for j in range(i + 2, n):
                    total += row[j] * x[j]
                x[i] = (row[c] - total) / row[i]
            else:
                x[i] = row[c] / row[i]
        solutions.append(x)
    return [list(r) for r in zip(*solutions)] if stacked else solutions[0] if n else []


def _outcome(solve, a, b):
    """The bits of ``solve(a, b)``, or the type and text of what it raised."""
    try:
        return _bits(solve(a, b))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _battery_system(rng):
    """A random n x n system, n from 1 to 5, with one or two right-hand
    sides: columns scaled apart, a dependent row, a zero column, and
    entries of +0.0, -0.0 and NaN, each in some of the draws."""
    n = int(rng.integers(1, 6))
    a = rng.standard_normal((n, n))
    if rng.random() < 0.5:
        a *= 10.0 ** rng.uniform(-8, 8, n)
    if n > 1 and rng.random() < 0.15:
        i, j = rng.choice(n, 2, replace=False)
        a[i] = rng.choice([-2.0, 0.5, 3.0]) * a[j]
    if rng.random() < 0.1:
        a[:, rng.integers(n)] = 0.0
    for value, chance in ((0.0, 0.3), (-0.0, 0.3), (math.nan, 0.05)):
        if rng.random() < chance:
            a[rng.integers(n), rng.integers(n)] = value
    b = rng.standard_normal((n, int(rng.integers(1, 3))))
    for value, chance in ((0.0, 0.2), (-0.0, 0.2), (math.nan, 0.05)):
        if rng.random() < chance:
            b[rng.integers(n), rng.integers(b.shape[1])] = value
    return a.tolist(), (b[:, 0].tolist() if b.shape[1] == 1 and rng.random() < 0.5 else b.tolist())


def test_lu_factor_solve_is_the_one_pass_elimination_bit_for_bit():
    rng = np.random.default_rng(2029)
    raised = 0
    for _ in range(4000):
        a, b = _battery_system(rng)
        expected = _outcome(_one_pass_lu_solve, a, b)
        assert _outcome(lambda a, b: lu_factor(a).solve(b), a, b) == expected
        assert _outcome(lu_solve, a, b) == expected
        raised += isinstance(expected, tuple)
        stacked = isinstance(b[0], list)
        if not stacked and len(a) <= 3 and not isinstance(expected, tuple):
            # Where the unrolled oracle solves too, its bits.
            try:
                oracle = small_solve(a, b)
            except SingularMatrix:
                continue
            assert _bits(oracle) == expected
        if stacked and not isinstance(expected, tuple):
            # One factorization, each right-hand side alone: the same bits.
            factors = lu_factor(a)
            columns = [_bits(factors.solve(list(column))) for column in zip(*b)]
            assert [list(r) for r in zip(*columns)] == expected
    assert 100 < raised < 3900  # both outcomes are exercised


def test_lu_factor_raises_for_rows_that_are_not_square():
    with pytest.raises(ValueError, match="expected n x n rows"):
        lu_factor([[1.0, 2.0], [3.0]])
    factors = lu_factor([[2.0, 0.0], [0.0, 4.0]])
    with pytest.raises(ValueError, match="got 2 and 3"):
        factors.solve([1.0, 2.0, 3.0])


def test_newton_takes_factors_from_the_jacobian(monkeypatch):
    # A jacobian that returns lu_factor's factors: the same iterates as rows,
    # with no lu_solve call.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    b = rng.standard_normal(3)

    def residual(z):
        return [dot(row, z) - c + 0.01 * v ** 3 for row, c, v in zip(a.tolist(), b.tolist(), z)]

    by_rows = newton_solve_stats(residual, [0.0] * 3, jacobian=lambda z: a.tolist())
    factors = lu_factor(a.tolist())
    calls = []
    monkeypatch.setattr(numerics, "lu_solve", lambda m, rhs: calls.append(m))
    by_factors = newton_solve_stats(residual, [0.0] * 3, jacobian=lambda z: factors)
    assert calls == [] and by_factors[1] == by_rows[1] > 1
    assert _bits(by_factors[0]) == _bits(by_rows[0])


def test_solve_gram_one_row_is_plain_division():
    assert solve_gram([[0.7]], [0.3]) == [0.3 / 0.7]
    with pytest.raises(RankDeficient, match="constraint row vanishes"):
        solve_gram([[0.0]], [0.3])
    with pytest.raises(RankDeficient, match="constraint row vanishes"):
        solve_gram([[-1e-300]], [0.3])


def test_solve_gram_stacked_columns():
    # A matrix right-hand side: division for one row, lu_solve beyond.
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((1, 4)).tolist()
    assert solve_gram([[0.7]], rhs) == [[r / 0.7 for r in rhs[0]]]
    for m in (2, 3, 5):
        rows = rng.standard_normal((m, m + 2))
        gram = (rows @ rows.T).tolist()
        assert solve_gram(gram, rows.tolist()) == lu_solve(gram, rows.tolist())
        dependent = np.vstack([rows[:-1], rows[:1]])
        with pytest.raises(RankDeficient, match="linearly dependent"):
            solve_gram((dependent @ dependent.T).tolist(), dependent.tolist())


def test_solve_gram_small_and_large_systems():
    rng = np.random.default_rng(4)
    for m in (2, 3, 5):
        rows = rng.standard_normal((m, m + 2))
        gram = rows @ rows.T
        rhs = rng.standard_normal(m)
        got = solve_gram(gram.tolist(), rhs.tolist())
        np.testing.assert_allclose(got, np.linalg.solve(gram, rhs), rtol=1e-12)
        dependent = np.vstack([rows[:-1], rows[:1]])
        with pytest.raises(RankDeficient, match="linearly dependent"):
            solve_gram((dependent @ dependent.T).tolist(), rhs.tolist())


# ---------------------------------------------------------------------------
# the Newton driver on plain floats


def _array_newton(residual, x0, cfg=NewtonConfig(), *, jacobian):
    """The Newton driver as it ran on NumPy arrays, solving for ``-f`` and
    stepping ``x + alpha d``: the oracle the float driver must match bit
    for bit.  ``residual`` and ``jacobian`` take and return sequences."""
    x = np.array(x0, dtype=float)
    r = np.array(residual(x.tolist()), dtype=float)
    norm = np.max(np.abs(r)) if r.size else 0.0
    for iteration in range(cfg.max_iters):
        if norm <= cfg.residual_tol:
            return x, iteration
        if not np.isfinite(norm):
            raise NoConvergence(iteration, float(norm))
        delta = np.array(small_solve(jacobian(x.tolist()), (-r).tolist()))
        alpha = 1.0
        for _ in range(8):
            trial = x + alpha * delta
            r_trial = np.array(residual(trial.tolist()), dtype=float)
            trial_norm = np.max(np.abs(r_trial))
            if np.isfinite(trial_norm) and trial_norm < norm:
                break
            alpha *= 0.5
        else:
            trial = x + alpha * delta
            r_trial = np.array(residual(trial.tolist()), dtype=float)
            trial_norm = np.max(np.abs(r_trial))
        x, r, norm = trial, r_trial, trial_norm
    if norm <= cfg.residual_tol:
        return x, cfg.max_iters
    raise NoConvergence(cfg.max_iters, float(norm))


def _coupled_atan():
    """Three coupled arctan equations: full Newton steps from far out
    overshoot, so the damping and its halvings are exercised."""

    def residual(z):
        z0, z1, z2 = z
        return (
            math.atan(20.0 * z0) + 0.1 * z1,
            math.atan(10.0 * z1) - 0.1 * z2,
            math.atan(5.0 * z2) + 0.05 * z0,
        )

    def jacobian(z):
        z0, z1, z2 = z
        return (
            (20.0 / (1.0 + 400.0 * z0 * z0), 0.1, 0.0),
            (0.0, 10.0 / (1.0 + 100.0 * z1 * z1), -0.1),
            (0.05, 0.0, 5.0 / (1.0 + 25.0 * z2 * z2)),
        )

    return residual, jacobian


def test_newton_damped_coupled_system_matches_the_array_iteration():
    residual, jacobian = _coupled_atan()
    for start in ([2.0, -1.5, 3.0], [0.3, 0.2, -0.1], [5.0, 5.0, 5.0]):
        evals = []

        def counted(z):
            evals.append(z)
            return residual(z)

        x, iters = newton_solve_stats(counted, start, jacobian=jacobian)
        ref, ref_iters = _array_newton(residual, start, jacobian=jacobian)
        assert iters == ref_iters
        assert type(x) is list and all(type(v) is float for v in x)
        np.testing.assert_array_equal(np.array(x).view(np.uint64), ref.view(np.uint64))
        assert max(abs(f) for f in residual(x)) <= 1e-12
        if start[0] == 2.0:
            # Far out the full step overshoots: some iterations halve.
            assert len(evals) > iters + 1
        # Converging on the last iteration of the budget still succeeds.
        _, last = newton_solve_stats(residual, start, NewtonConfig(max_iters=ref_iters),
                                     jacobian=jacobian)
        assert last == ref_iters


def test_newton_coupled_system_no_convergence_reports_budget():
    residual, jacobian = _coupled_atan()
    with pytest.raises(NoConvergence) as excinfo:
        newton_solve_stats(residual, [2.0, -1.5, 3.0], NewtonConfig(max_iters=1),
                           jacobian=jacobian)
    assert excinfo.value.iterations == 1
    assert excinfo.value.final_residual > 1e-12


def test_newton_singular_jacobian_raises():
    def residual(z):
        z0, z1, z2 = z
        return (z0 + z1 - 1.0, 2.0 * z0 + 2.0 * z1, z2)

    def jacobian(z):
        return ((1.0, 1.0, 0.0), (2.0, 2.0, 0.0), (0.0, 0.0, 1.0))

    with pytest.raises(SingularMatrix):
        newton_solve_stats(residual, [0.0, 0.0, 0.0], jacobian=jacobian)


def test_newton_takes_the_fallback_step_when_the_halvings_run_out():
    # A wrong-signed Jacobian makes every damped trial worse, so each
    # iteration exhausts its halvings and takes the smallest step anyway:
    # z0 -> z0 + (1 + z0^2) / 256, after 1 + 8 + 1 evaluations a step.
    evals = []

    def residual(z):
        evals.append(z)
        z0, z1, z2 = z
        return (1.0 + z0 * z0, z1, z2)

    def jacobian(z):
        return ((-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    cfg = NewtonConfig(max_iters=3)
    with pytest.raises(NoConvergence) as got:
        newton_solve_stats(residual, [1.0, 0.0, 0.0], cfg, jacobian=jacobian)
    z0 = 1.0
    for _ in range(3):
        z0 += (1.0 + z0 * z0) / 256.0
    assert got.value.iterations == 3
    assert got.value.final_residual == 1.0 + z0 * z0 > 2.0
    assert len(evals) == 1 + 3 * 9
    with pytest.raises(NoConvergence) as ref:
        _array_newton(residual, [1.0, 0.0, 0.0], cfg, jacobian=jacobian)
    assert got.value.final_residual == ref.value.final_residual


def test_newton_rejects_non_finite_trial_points():
    # The full step lands where one residual is NaN; the damping must
    # refuse it and halve into the finite region, where z0 = 1 is the root.
    evals = []

    def residual(z):
        evals.append(z)
        z0, z1, z2 = z
        return (z1, z0 - 1.0 if z0 < 1.5 else float("nan"), z2)

    def jacobian(z):
        return ((0.0, 1.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 1.0))

    x, iters = newton_solve_stats(residual, [0.0, 0.0, 0.0], jacobian=jacobian)
    assert x == [1.0, 0.0, 0.0] and iters == 1
    assert [z[0] for z in evals] == [0.0, 2.0, 1.0]
    ref, ref_iters = _array_newton(residual, [0.0, 0.0, 0.0], jacobian=jacobian)
    assert ref_iters == iters
    np.testing.assert_array_equal(x, ref)


# A residual that is NaN at the start point, and one that is finite only
# there: the driver stops at the first non-finite current residual, after
# 1 evaluation in the first case and 1 + 8 halvings + 1 fallback step in
# the second, instead of spending the whole budget (451 evaluations).
_NON_FINITE_CASES = [(False, 1, 0), (True, 10, 1)]


@pytest.mark.parametrize("finite_at_start, evals, iterations", _NON_FINITE_CASES)
def test_newton_solve_stats_stops_at_a_non_finite_residual(finite_at_start, evals, iterations):
    # The NaN is not the first entry, where ``max`` would drop it.
    calls = []

    def residual(z):
        calls.append(z)
        if finite_at_start and not any(z):
            return [1.0, 1.0, 1.0]
        return [0.5, math.nan, 0.5]

    with pytest.raises(NoConvergence) as excinfo:
        newton_solve_stats(residual, [0.0, 0.0, 0.0], jacobian=lambda z: np.eye(3).tolist())
    assert len(calls) == evals
    assert excinfo.value.iterations == iterations
    assert math.isnan(excinfo.value.final_residual)


@pytest.mark.parametrize("finite_at_start, evals, iterations", _NON_FINITE_CASES)
def test_newton_stops_at_a_non_finite_tuple_residual(finite_at_start, evals, iterations):
    calls = []
    nan = float("nan")

    def residual(z):
        calls.append(tuple(z))
        if finite_at_start and z == [0.0, 0.0, 0.0]:
            return (1.0, 1.0, 1.0)
        return (nan, nan, nan)

    def jacobian(z):
        return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    with pytest.raises(NoConvergence) as excinfo:
        newton_solve_stats(residual, [0.0, 0.0, 0.0], jacobian=jacobian)
    assert len(calls) == evals
    assert excinfo.value.iterations == iterations
    assert math.isnan(excinfo.value.final_residual)


def test_newton_empty_system_has_zero_norm():
    x, iters = newton_solve_stats(lambda z: [], [], jacobian=lambda z: [])
    assert x == [] and iters == 0


def test_newton_residual_contract_of_the_benchmark_tracer():
    # The benchmark tracer wraps this function by name: it passes
    # ``residual`` through a one-argument wrapper and reads the iteration
    # count at ``[1]`` of the result.
    a = [[2.0, 0.5, 0.0], [0.5, 3.0, 0.25], [0.0, 0.25, 4.0]]

    def residual(*args, **kwargs):
        assert len(args) == 1 and not kwargs
        (z,) = args
        assert type(z) is list and all(type(v) is float for v in z)
        return [sum(aij * zj for aij, zj in zip(row, z)) - 1.0 for row in a]

    result = newton_solve_stats(residual, np.zeros(3), jacobian=lambda z: a)
    assert len(result) == 2
    assert result[1] == 1
    assert max(abs(f) for f in residual(result[0])) <= 1e-12


# ---------------------------------------------------------------------------
# the defined float order


def test_dot_sums_left_to_right_from_zero():
    # Plain and compensated sums differ here: 1e16 + 1.0 rounds back to
    # 1e16, so the defined order gives 0.0 where math.fsum (and Python
    # 3.12's sum of floats) gives 1.0.
    assert dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert dot([], []) == 0.0
    # 0.0 + (-0.0) is 0.0: the sum starts from 0.0.
    assert math.copysign(1.0, dot([-0.0], [1.0])) == 1.0


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((3,), (3,)), ((3,), (3, 4)), ((2, 3), (3,)), ((2, 3), (3, 4)), ((5, 2, 3), (3,)),
     ((3,), (5, 3, 4)), ((5, 2, 3), (5, 3, 1)), ((2, 3), (5, 3, 4)), ((0,), (0,)), ((2, 0), (0, 3))],
)
def test_matmul_has_numpys_semantics_and_the_defined_order(a_shape, b_shape):
    rng = np.random.default_rng(sum(a_shape + b_shape))
    a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    got = matmul(a, b)
    assert np.shape(got) == np.shape(a @ b)
    np.testing.assert_allclose(got, a @ b, rtol=1e-14, atol=1e-14)
    if a.ndim == b.ndim == 2:  # every entry is the float dot of its row and column
        assert got.tolist() == [[dot(row, col) for col in b.T.tolist()] for row in a.tolist()]


def test_matmul_stacked_rows_have_the_bits_of_one_row_calls():
    rng = np.random.default_rng(3)
    mats, vecs = rng.standard_normal((50, 2, 5)), rng.standard_normal((50, 5))
    stacked = matmul(mats, vecs[:, :, None])[:, :, 0]
    assert np.array_equal(stacked, [matmul(m, v) for m, v in zip(mats, vecs)])
    with pytest.raises(ValueError):
        matmul(mats, vecs)


def test_linear_map_is_the_float_dot_of_each_row():
    rng = np.random.default_rng(5)
    a, x = rng.standard_normal((4, 6)), rng.standard_normal(6).tolist()
    assert linear_map(a)(x) == [dot(row, x) for row in a.tolist()] == matmul(a, x).tolist()
