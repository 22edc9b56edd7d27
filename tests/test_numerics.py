import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bagel import numerics
from bagel.numerics import (
    GRAM_CANCEL_RTOL,
    GRAM_PIVOT_RTOL,
    DimensionError,
    DomainError,
    GramLeastSquares,
    NMF_CHECK_EVERY,
    NMF_EPS,
    NMF_STOP_RTOL,
    make_rng,
    nmf_multiplicative,
    read_instance,
    solve_least_squares,
    write_instance,
)
from oracles import random_start


class TestSolveLeastSquares:
    def test_identity_design(self):
        theta, loss = solve_least_squares(np.eye(2), [1.0, 2.0], [1, 1])
        assert np.allclose(theta, [1.0, 2.0])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_forced_zero_coordinate(self):
        theta, loss = solve_least_squares(np.eye(2), [1.0, 2.0], [1, 0])
        assert np.allclose(theta, [1.0, 0.0])
        assert loss == pytest.approx(2.0)

    def test_against_pseudoinverse_oracle(self):
        # Oracle: theta = pinv(X) y computed independently of lstsq.
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        oracle = np.linalg.pinv(X) @ y
        theta, loss = solve_least_squares(X, y, [1])
        assert theta == pytest.approx(oracle)
        assert theta[0] == pytest.approx(2.0)
        assert loss == pytest.approx(np.sqrt(2))

    def test_rank_deficient_minimum_norm(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([2.0, 2.0])
        theta, loss = solve_least_squares(X, y, [1, 1])
        assert loss == pytest.approx(0.0, abs=1e-10)
        # minimum-norm solution splits the coefficient evenly
        assert np.allclose(theta, [1.0, 1.0])

    def test_residual_orthogonal_to_unmasked_columns(self):
        rng = make_rng(3)
        for _ in range(20):
            m, d = int(rng.integers(5, 30)), int(rng.integers(2, 10))
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            mask = (rng.random(d) < 0.7).astype(int)
            theta, _ = solve_least_squares(X, y, mask)
            resid = X @ theta - y
            for j in np.flatnonzero(mask):
                dot = abs(np.dot(X[:, j], resid))
                assert dot <= 1e-8 * max(1.0, np.linalg.norm(X[:, j]) * np.linalg.norm(resid))

    def test_mask_monotonicity(self):
        rng = make_rng(5)
        for _ in range(20):
            m, d = int(rng.integers(5, 30)), int(rng.integers(2, 10))
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            mask = (rng.random(d) < 0.5).astype(int)
            _, loss = solve_least_squares(X, y, mask)
            zeros = np.flatnonzero(mask == 0)
            if zeros.size:
                grown = mask.copy()
                grown[zeros[0]] = 1
                _, loss2 = solve_least_squares(X, y, grown)
                assert loss2 <= loss + 1e-9

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            solve_least_squares(np.eye(2), [1.0, 2.0, 3.0], [1, 1])
        with pytest.raises(DimensionError):
            solve_least_squares(np.eye(2), [1.0, 2.0], [1])


LOSS_RTOL = 1e-9


@st.composite
def least_squares_cases(draw):
    """(X, y, mask): Gaussian X with optional duplicated or nearly
    duplicated columns, columns scaled over six decades (coefficients scaled
    inversely, so y keeps its size), m < d allowed, y noiseless, nearly
    noiseless or noisy, and empty, full or random masks."""
    m, d = draw(st.integers(1, 25)), draw(st.integers(1, 10))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((m, d))
    for _ in range(draw(st.integers(0, 2)) if d > 1 else 0):
        j = draw(st.integers(1, d - 1))
        X[:, j] = draw(st.sampled_from([1.0, -2.5, 3.0])) * X[:, draw(st.integers(0, j - 1))]
        X[:, j] += draw(st.sampled_from([0.0, 1e-6, 1e-2, 1e-1])) * rng.standard_normal(m)
    scale = 10.0 ** np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    X *= scale
    noise = draw(st.sampled_from([0.0, 1e-8, 1e-4, 0.1, 1.0]))
    y = X @ (rng.standard_normal(d) / scale) + noise * rng.standard_normal(m)
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    else:
        mask = np.full(d, kind == "full")
    return X, y, mask


def correlated_case(d, m, seed, rho, centred, noise, dropped):
    """(X, y, mask) with m > d: columns of pairwise correlation rho, spread
    over 0.01-100 in scale, coefficients scaled inversely and, if
    `centred`, summing to zero, so that the columns cancel and y is small
    next to them.  ||X theta*|| is 300: y^T y is then large next to a loss
    near the cancellation threshold, where the tolerance is an absolute
    1e-9.  The noise is orthogonal to the columns, so the full mask's loss
    is noise * 300 exactly; at 1.2e-3 its square is just above
    GRAM_CANCEL_RTOL * y^T y.  The mask drops `dropped` columns drawn
    from the seeded stream."""
    rng = make_rng(seed)
    X = math.sqrt(1 - rho) * rng.standard_normal((m, d))
    X += math.sqrt(rho) * rng.standard_normal((m, 1))
    scale = 10.0 ** rng.uniform(-2, 2, d)
    X *= scale
    c = rng.standard_normal(d)
    if centred:
        c -= c.mean()
    signal = X @ (c / scale)
    signal *= 300.0 / np.linalg.norm(signal)
    q, _ = np.linalg.qr(X)
    e = rng.standard_normal(m)
    e -= q @ (q.T @ e)
    y = signal + noise * 300.0 / np.linalg.norm(e) * e
    mask = np.ones(d, dtype=bool)
    mask[rng.choice(d, dropped, replace=False)] = False
    return X, y, mask


@st.composite
def correlated_cases(draw, max_d=12):
    """`correlated_case` over drawn shapes, seeds, correlations and noise
    levels.  Masks drop none of the columns, at most half, more than
    half, or all of them."""
    d = draw(st.integers(2, max_d))
    m = d + draw(st.integers(8, 50))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rho = draw(st.sampled_from([0.0, 0.9, 0.99, 0.999]))
    centred = draw(st.booleans())
    noise = draw(st.sampled_from([0.0, 1e-8, 1e-4, 1.2e-3, 1e-2, 0.1, 1.0]))
    dropped = draw(st.one_of(st.just(0), st.integers(1, d // 2), st.integers(d // 2 + 1, d),
                             st.just(d)))
    return correlated_case(d, m, seed, rho, centred, noise, dropped)


# The full Gram matrix fails the pivot test, while the block that drops
# column 5 passes it; that block's loss taken as sqrt(y^T y - b^T theta)
# is 1.3e-8 off the reference, so a failed root's loss is the residual.
FAILED_ROOT_CASE = correlated_case(6, 14, 126, 0.999, True, 1.2e-3, 1)


class TestGramLeastSquares:
    """The Gram path against `solve_least_squares`, the reference it replaces."""

    @staticmethod
    def solve_and_spy(X, y, mask, solver=None):
        """Gram solve (by `solver`, or a new one of X and y) plus whether it
        fell back to the reference."""
        with mock.patch.object(numerics, "solve_least_squares",
                               wraps=solve_least_squares) as reference:
            theta, loss = (solver or GramLeastSquares(X, y)).solve(mask)
        return theta, loss, reference.called

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(least_squares_cases())
    def test_matches_reference(self, case):
        X, y, mask = case
        theta, loss, fell_back = self.solve_and_spy(X, y, mask)
        ref_theta, ref_loss = solve_least_squares(X, y, mask)
        tol = LOSS_RTOL * max(1.0, ref_loss)
        assert np.all(theta[~mask] == 0.0)
        if not mask.any():
            assert loss == np.linalg.norm(y)
        if fell_back:
            assert np.array_equal(theta, ref_theta) and loss == ref_loss
            return
        # Never worse than the reference.  Where X[:, mask] is ill-conditioned
        # the SVD solve itself loses digits, so equality is asked only of
        # well-conditioned masks.
        assert loss <= ref_loss + tol
        cols = np.flatnonzero(mask)
        if cols.size == 0 or np.linalg.cond(X[:, cols]) <= 1e4:
            assert abs(loss - ref_loss) <= tol
            theta_tol = LOSS_RTOL * max(1.0, np.linalg.norm(ref_theta))
            assert np.linalg.norm(theta - ref_theta) <= theta_tol

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(correlated_cases())
    @example(FAILED_ROOT_CASE)
    def test_root_relative_solve_matches_reference(self, case):
        # The drawn mask, the full one and each that drops one column; an
        # error in the root's own loss shows most where the full mask's loss
        # is just above GRAM_CANCEL_RTOL.  A Gram solve is checked against
        # the reference on unit-norm columns, where the SVD's own error does
        # not grow with the spread of the column scales.  A fallback is the
        # reference itself.  Failed roots are checked the same way.
        X, y, mask = case
        solver = GramLeastSquares(X, y)
        norms = np.linalg.norm(X, axis=0)
        for mask in [mask, np.ones_like(mask), *~np.eye(len(mask), dtype=bool)]:
            theta, loss, fell_back = self.solve_and_spy(X, y, mask, solver)
            if fell_back:
                ref_theta, ref_loss = solve_least_squares(X, y, mask)
                assert np.array_equal(theta, ref_theta) and loss == ref_loss
                continue
            ref_theta, ref_loss = solve_least_squares(X / norms, y, mask)
            ref_theta /= norms
            tol = LOSS_RTOL * max(1.0, ref_loss)
            assert np.all(theta[~mask] == 0.0)
            assert loss <= ref_loss + tol
            cols = np.flatnonzero(mask)
            if cols.size == 0 or np.linalg.cond(X[:, cols]) <= 1e4:
                assert abs(loss - ref_loss) <= tol
                theta_tol = LOSS_RTOL * max(1.0, np.linalg.norm(ref_theta))
                assert np.linalg.norm(theta - ref_theta) <= theta_tol

    @pytest.mark.parametrize("X, mask", [
        (np.array([[1.0, 1.0], [1.0, 1.0]]), [1, 1]),               # duplicated columns
        (make_rng(2).standard_normal((3, 5)), [1, 1, 1, 1, 0]),     # m < |mask|
        (np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), [1, 1]),  # zero column
    ])
    def test_rank_deficient_masks_fall_back(self, X, mask):
        y = np.arange(1.0, X.shape[0] + 1)
        theta, loss, fell_back = self.solve_and_spy(X, y, mask)
        ref_theta, ref_loss = solve_least_squares(X, y, mask)
        assert fell_back
        assert np.array_equal(theta, ref_theta) and loss == ref_loss

    @pytest.mark.parametrize("X", [
        make_rng(2).standard_normal((3, 5)),
        make_rng(4).standard_normal((6, 4))[:, [0, 1, 2, 1]],
        np.hstack([make_rng(6).standard_normal((6, 3)), np.zeros((6, 1))]),
    ], ids=["m<d", "duplicated-column", "zero-column"])
    def test_failed_root_takes_the_per_mask_path(self, X):
        y = np.arange(1.0, X.shape[0] + 1)
        solver = GramLeastSquares(X, y)
        assert solver.inverse is None
        routes = set()
        for mask in itertools.product([False, True], repeat=X.shape[1]):
            mask = np.array(mask)
            theta, loss, fell_back = self.solve_and_spy(X, y, mask, solver)
            ref_theta, ref_loss, ref_fell_back = gram_reference(solver, mask)
            assert fell_back == ref_fell_back
            assert np.array_equal(theta, ref_theta) and loss == ref_loss
            # Each kept block is solved alone and its loss is the residual.
            assert fell_back or loss == np.linalg.norm(X @ theta - y)
            routes.add(fell_back)
        assert routes == {False, True}  # some blocks pass the pivot test alone

    def test_well_conditioned_mask_uses_cholesky(self):
        rng = make_rng(3)
        X, y = rng.standard_normal((50, 6)), rng.standard_normal(50)
        _, _, fell_back = self.solve_and_spy(X, y, np.ones(6))
        assert not fell_back

    # Noise on y relative to X theta.  The squared relative loss of the fit
    # is about noise^2, so the loss comes from the residual below about
    # sqrt(GRAM_CANCEL_RTOL) = 1e-3 and from y^T y - b^T theta above it.
    @pytest.mark.parametrize("noise, explicit", [
        (0.0, True), (1e-10, True), (1e-5, True), (1e-2, False), (1.0, False),
    ], ids=["in-span", "noise-1e-10", "noise-1e-5", "noise-1e-2", "noise-1"])
    @pytest.mark.parametrize("mask", [[1, 1, 1, 1, 1, 1], [1, 0, 1, 1, 0, 1]],
                             ids=["full", "partial"])
    def test_cancellation_guard(self, noise, explicit, mask):
        rng = make_rng(5)
        X = rng.standard_normal((40, 6))
        mask = np.array(mask, dtype=bool)
        y = X @ (rng.standard_normal(6) * mask) + noise * rng.standard_normal(40)
        solver = GramLeastSquares(X, y)
        with mock.patch.object(solver, "residual_norm", wraps=solver.residual_norm) as residual:
            theta, loss, fell_back = self.solve_and_spy(X, y, mask, solver)
        assert not fell_back
        assert residual.called == explicit
        ref_theta, ref_loss = solve_least_squares(X, y, mask)
        assert abs(loss - ref_loss) <= LOSS_RTOL * max(1.0, ref_loss)
        assert np.linalg.norm(theta - ref_theta) <= LOSS_RTOL * max(1.0, np.linalg.norm(ref_theta))
        if noise:  # well above rounding, so the two branches agree in relative terms too
            assert abs(loss - ref_loss) <= 1e-6 * ref_loss

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            GramLeastSquares(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            GramLeastSquares(np.eye(2), [1.0, 2.0]).solve([1])


def min_pivot_ratio(block):
    """Smallest Cholesky pivot of `block` over the matching diagonal entry,
    or -inf where the factorisation fails."""
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return -np.inf
    return float(np.min(np.diag(L) ** 2 / np.diag(block), initial=np.inf))


def pivots_pass(block):
    """The pivot test, written with `np.diag`."""
    return not min_pivot_ratio(block) < GRAM_PIVOT_RTOL


def gram_reference(solver, mask):
    """`GramLeastSquares.solve` written with `np.ix_`, `np.diag` and no
    shared state: the root solve is redone from X, y and the Gram matrix
    on every call.  Returns (theta, loss, fell back to the reference)."""
    X, y, gram = solver.X, solver.y, solver.gram
    d = X.shape[1]
    mask = np.asarray(mask, dtype=bool)
    cols, drop = np.flatnonzero(mask), np.flatnonzero(~mask)
    if not cols.size:
        return np.zeros(d), float(np.linalg.norm(y)), False
    root_passes = pivots_pass(gram)
    yty = float(np.dot(y, y))
    if root_passes and 2 * drop.size <= d:
        inverse = np.linalg.inv(gram)
        theta0 = np.linalg.solve(gram, solver.xty)
        r0 = X @ theta0 - y
        theta, squared = theta0.copy(), float(np.dot(r0, r0))
        if drop.size:
            z = np.linalg.solve(inverse[np.ix_(drop, drop)], theta0[drop])
            theta = theta0 - inverse[:, drop] @ z
            theta[drop] = 0.0
            squared += float(np.dot(theta0[drop], z))
    else:
        block = gram[np.ix_(cols, cols)]
        if not root_passes and not pivots_pass(block):
            return (*solve_least_squares(X, y, mask), True)
        theta = np.zeros(d)
        b = solver.xty[cols]
        theta[cols] = np.linalg.solve(block, b)
        squared = yty - float(np.dot(b, theta[cols]))
    if not root_passes or squared < GRAM_CANCEL_RTOL * yty:
        return theta, float(np.linalg.norm(X @ theta - y)), False
    return theta, math.sqrt(squared), False


class TestGramKernel:
    """The root solve, the routes, the pivot test and the loss rules
    against `gram_reference`."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(least_squares_cases())
    def test_matches_reference_bit_for_bit(self, case):
        X, y, mask = case
        theta, loss, fell_back = TestGramLeastSquares.solve_and_spy(X, y, mask)
        ref_theta, ref_loss, ref_fell_back = gram_reference(GramLeastSquares(X, y), mask)
        assert fell_back == ref_fell_back
        assert np.array_equal(theta, ref_theta) and loss == ref_loss

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(correlated_cases(max_d=8))
    def test_principal_blocks_keep_the_root_pivots(self, case):
        # The argument for solving a block without a pivot test of its
        # own: where the Gram matrix passes, no principal block has a
        # smaller pivot ratio, so every block passes too.
        gram = case[0].T @ case[0]
        assume(pivots_pass(gram))
        root = min_pivot_ratio(gram)
        for keep in itertools.product([False, True], repeat=len(gram)):
            cols = np.flatnonzero(keep)
            if cols.size:
                assert min_pivot_ratio(gram[np.ix_(cols, cols)]) >= root - 1e-12


def nmf_steps(A, k, mask, count, start):
    """(W, H, loss) after each of `count` one-sweep kernel calls, each
    started from the previous call's factors: the sweeps of one
    `count`-sweep run that does not stop early, bit for bit
    (`TestNmfSweeps`)."""
    steps = []
    for _ in range(count):
        W, H, loss, sweeps = nmf_multiplicative(A, k, mask, 1, start)
        assert sweeps == 1
        steps.append((W, H, loss))
        start = W, H
    return steps


class TestNmfMultiplicative:
    def test_planted_rank_one(self):
        rng = make_rng(0)
        w = rng.uniform(0.5, 1.5, 8)
        h = rng.uniform(0.5, 1.5, 6)
        A = np.outer(w, h)
        _, _, loss, _ = nmf_multiplicative(A, 1, np.ones((8, 1)), 500,
                                           random_start(A, 1, make_rng(1)))
        assert loss <= 1e-6 * np.linalg.norm(A)

    def test_zero_mask_column_stays_zero(self):
        rng = make_rng(2)
        A = rng.random((6, 5))
        mask = np.ones((6, 3))
        mask[:, 1] = 0.0
        steps = nmf_steps(A, 3, mask, 40, random_start(A, 3, make_rng(3)))
        for W, _, _ in steps:
            assert np.all(W[:, 1] == 0.0)

    def test_zero_iterations_returns_masked_init(self):
        rng = make_rng(4)
        A = rng.random((4, 4))
        mask = (rng.random((4, 2)) < 0.5).astype(float)
        W0, H0 = random_start(A, 2, make_rng(9))
        W, H, loss, sweeps = nmf_multiplicative(A, 2, mask, 0, (W0, H0))
        assert sweeps == 0
        assert np.array_equal(W, W0 * mask) and np.array_equal(H, H0)
        assert loss == pytest.approx(np.linalg.norm(A - W @ H))

    def test_loss_monotone_nonnegative(self):
        rng = make_rng(6)
        for _ in range(10):
            n, m, k = int(rng.integers(3, 12)), int(rng.integers(3, 12)), int(rng.integers(1, 4))
            A = rng.random((n, m))
            mask = (rng.random((n, k)) < 0.8).astype(float)
            steps = nmf_steps(A, k, mask, 30,
                              random_start(A, k, make_rng(int(rng.integers(1 << 30)))))
            for W, H, _ in steps:
                assert np.all(W >= 0) and np.all(H >= 0)
            for (_, _, prev), (_, _, nxt) in zip(steps, steps[1:]):
                assert nxt <= prev + 1e-12

    def test_determinism(self):
        A = make_rng(7).random((5, 5))
        mask = np.ones((5, 2))
        r1 = nmf_multiplicative(A, 2, mask, 25, random_start(A, 2, make_rng(42)))
        r2 = nmf_multiplicative(A, 2, mask, 25, random_start(A, 2, make_rng(42)))
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[1], r2[1])
        assert r1[2:] == r2[2:]

    def test_negative_input_rejected(self):
        A = np.array([[-1.0]])
        with pytest.raises(DomainError):
            nmf_multiplicative(A, 1, np.ones((1, 1)), 1, random_start(A, 1, make_rng(0)))

    def test_negative_iterations_rejected(self):
        A = np.ones((2, 2))
        with pytest.raises(DomainError):
            nmf_multiplicative(A, 1, np.ones((2, 1)), -5, random_start(A, 1, make_rng(0)))

    def test_exact_fit_stops_at_second_check(self):
        # A = 0: the first update zeroes H, so both checked losses are 0.
        A = np.zeros((5, 4))
        _, _, loss, sweeps = nmf_multiplicative(A, 2, np.ones((5, 2)), 300,
                                                random_start(A, 2, make_rng(1)))
        assert loss == 0.0
        assert sweeps == 2 * NMF_CHECK_EVERY


@st.composite
def nmf_edge_cases(draw):
    """(A, k, mask, seed) at the edges of the kernel: k = 1, n = 1 or
    m = 1, all-zero mask columns, an all-zero mask and all-zero rows of A,
    at criterion 6's data scale."""
    n, m, k = [draw(st.one_of(st.just(1), st.integers(2, hi))) for hi in (8, 8, 4)]
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.random((n, m)) * draw(st.floats(0.5, 3.0))
    A[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    mask = (rng.random((n, k)) < 0.7).astype(float)
    mask[:, draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    if draw(st.booleans()):
        mask[:] = 0.0
    return A, k, mask, draw(st.integers(0, 2 ** 32 - 1))


class TestNmfEdgeCases:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nmf_edge_cases())
    def test_invariants_hold_every_sweep(self, case):
        A, k, mask, seed = case
        W0, H0 = random_start(A, k, make_rng(seed))
        losses = [numerics.frobenius(A - (W0 * mask) @ H0)]
        # Any overflow or 0 / 0 in the kernel (its -NMF_MASKED sentinel,
        # its NMF_EPS floor) raises here instead of leaving an inf or NaN.
        with np.errstate(all="raise"):
            steps = nmf_steps(A, k, mask, 30, (W0, H0))
        for W, H, loss in steps:
            assert np.all(np.isfinite(W)) and np.all(np.isfinite(H))
            assert np.all(W >= 0) and np.all(H >= 0)
            assert np.all(W[mask == 0] == 0.0)
            losses.append(loss)
        # criterion 6's absolute tolerance, from the initial factors on
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev + 1e-12
        if k == 1:
            # the W update is exact: the closed-form rank-one fit given h
            W, H, _ = steps[0]
            h = H[0]
            if h @ h >= NMF_EPS:
                closed = np.maximum(0.0, A @ h / (h @ h)) * mask[:, 0]
                np.testing.assert_allclose(W[:, 0], closed, rtol=1e-12, atol=1e-12)


def hals_floor(diag):
    """The diagonal a HALS half-sweep divides by: diag G floored at
    NMF_EPS times its largest entry, and at the smallest normal float."""
    return np.maximum(diag, max(NMF_EPS * diag.max(), np.finfo(float).tiny))


def nmf_reference(A, k, mask, sweeps, start):
    """The fixed-sweep masked HALS loop that `nmf_multiplicative` stops
    early, from start = (W, H), in the kernel's stacked form: row l of a
    factor X becomes max(0, c_l @ [X; B; S]) with
    c_l = [e_l - G[l] / d[l], e_l / d[l], e_l] and d = hals_floor(diag G),
    where S is the W half's mask block and the H half has none.  W is held
    transposed, as in the kernel, so that every product rounds alike."""
    W, H = start
    Wt, H = (W * mask).T.copy(), H.copy()
    masked = np.where(mask.T == 0, -numerics.NMF_MASKED, 0.0)

    def half_sweep(X, B, G, extra):
        d = hals_floor(np.diag(G))
        coef = np.hstack([np.eye(k) - G / d[:, None], np.diag(1.0 / d)]
                         + [np.eye(k)] * len(extra))
        stack = np.vstack([X, B, *extra])
        for l in range(k):
            stack[l] = np.maximum(0.0, coef[l] @ stack)
        X[:] = stack[:k]

    for _ in range(sweeps):
        half_sweep(H, Wt @ A, Wt @ Wt.T, [])
        half_sweep(Wt, H @ A.T, H @ H.T, [masked])
    return Wt.T, H


def nmf_reference_unscaled(A, k, mask, sweeps, start):
    """The same loop as `nmf_reference`, each row set to its exact
    minimiser with no scaled products: with d = hals_floor(diag G)[l],

        H[l] = max(0, H[l] (1 - G[l, l] / d)
                      + (B[l] - sum_{j != l} G[l, j] H[j]) / d),

    equal up to rounding.  (The other textbook form,
    H[l] + (B[l] - G[l] H) / d, subtracts H[l] from itself, so where A is
    far below the start's scale it keeps only H[l]'s rounding error.)"""
    W, H = start
    Wt, H = (W * mask).T.copy(), H.copy()

    def half_sweep(X, B, G, keep):
        floored = hals_floor(np.diag(G))
        for l in range(k):
            d, others = floored[l], np.arange(k) != l
            X[l] = np.maximum(0.0, X[l] * (1.0 - G[l, l] / d)
                              + (B[l] - G[l, others] @ X[others]) / d) * keep[l]

    for _ in range(sweeps):
        half_sweep(H, Wt @ A, Wt @ Wt.T, np.ones((k, A.shape[1])))
        half_sweep(Wt, H @ A.T, H @ H.T, mask.T)
    return Wt.T, H


@st.composite
def nmf_cases(draw, max_k=4):
    """(A, k, mask, cap, seed): random, exact low-rank or all-zero A, masks
    with some all-zero columns, k <= max_k and caps from 0 to 300."""
    n, m, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, max_k))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "low-rank", "zero"]))
    if kind == "random":
        A = rng.random((n, m)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    elif kind == "low-rank":
        r = draw(st.integers(1, k))
        A = rng.random((n, r)) @ rng.random((r, m))
    else:
        A = np.zeros((n, m))
    mask = (rng.random((n, k)) < 0.7).astype(float)
    mask[:, draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    return A, k, mask, draw(st.integers(0, 300)), draw(st.integers(0, 2 ** 32 - 1))


class TestNmfStoppingRule:
    """The stopped kernel against `nmf_reference`, the loop it replaces."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nmf_cases())
    def test_matches_reference_prefix(self, case):
        A, k, mask, cap, seed = case
        start = random_start(A, k, make_rng(seed))
        W, H, loss, ran = nmf_multiplicative(A, k, mask, cap, start)
        # (a) the run reaches the cap or stops at a check below it
        assert ran == cap or (ran < cap and ran % NMF_CHECK_EVERY == 0)
        # (b) a bit-identical prefix of the fixed-iteration run
        ref_W, ref_H = nmf_reference(A, k, mask, ran, start)
        assert np.array_equal(W, ref_W) and np.array_equal(H, ref_H)
        assert loss == numerics.frobenius(A - W @ H)
        # (b') the exact-minimiser update, rounded otherwise, gives the same product
        un_W, un_H = nmf_reference_unscaled(A, k, mask, ran, start)
        np.testing.assert_allclose(W @ H, un_W @ un_H, rtol=1e-8, atol=1e-8 * A.max())
        # (c) the rule holds at the stopping check and at no earlier one; a
        # check on the last sweep of the cap may meet it or not
        losses = [loss for _, _, loss in nmf_steps(A, k, mask, ran, start)]
        checked = losses[NMF_CHECK_EVERY - 1::NMF_CHECK_EVERY]
        met = [prev - cur <= NMF_STOP_RTOL * prev for prev, cur in zip(checked, checked[1:])]
        if ran < cap:
            assert met[-1]
        if ran % NMF_CHECK_EVERY == 0:
            met = met[:-1]
        assert not any(met)
        # (d) an exact fit stops at the next check
        if 0.0 in checked:
            assert len(checked) <= checked.index(0.0) + 2


@st.composite
def nmf_scaled_cases(draw):
    """(A, k, mask, child mask or None, cap, seed): A random at any scale
    from 1e-100 to 1e140, or all zero; k = 1 among others; masks with
    all-zero columns.  A child mask, when drawn, is the mask with more
    entries zeroed, as a child node's is its parent's."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.one_of(st.just(1), st.integers(2, 4)))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.random((n, m)) * draw(st.one_of(
        st.just(0.0), st.integers(-100, 140).map(lambda e: 10.0 ** e)))
    mask = (rng.random((n, k)) < 0.7).astype(float)
    mask[:, draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    child = mask * (rng.random((n, k)) < 0.7) if draw(st.booleans()) else None
    return A, k, mask, child, draw(st.integers(0, 100)), draw(st.integers(0, 2 ** 32 - 1))


class TestNmfScaleAndStart:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nmf_scaled_cases())
    def test_clamped_finite_and_matches_unscaled(self, case):
        """A random start, then a start from its result under a smaller
        mask: neither raises a floating-point error (the -NMF_MASKED
        sentinel is only ever added to or multiplied by 0), and each keeps
        masked entries at exactly 0 and fits W @ H as the unscaled
        reference does."""
        A, k, mask, child, cap, seed = case

        def run(keep, start):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                W, H, loss, sweeps = nmf_multiplicative(A, k, keep, cap, start)
            assert np.all(W[keep == 0] == 0.0)
            assert np.all(W >= 0) and np.all(H >= 0)
            assert math.isfinite(loss)
            un_W, un_H = nmf_reference_unscaled(A, k, keep, sweeps, start)
            np.testing.assert_allclose(W @ H, un_W @ un_H, rtol=1e-8, atol=1e-8 * A.max())
            return W, H

        W, H = run(mask, random_start(A, k, make_rng(seed)))
        if child is not None:
            run(child, (W, H))


def bits(x):
    """The bit patterns of a float array or float, to compare exactly."""
    return np.asarray(x, dtype=float).view(np.uint64)


class TestNmfSweeps:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nmf_cases())
    def test_chained_single_sweeps_equal_one_run(self, case):
        """A run of n sweeps is a 0-sweep call, which projects the start
        onto the mask, then n one-sweep calls, each started from the
        previous call's factors, bit for bit.  The tests that watch every
        sweep (`nmf_steps`) rely on it."""
        A, k, mask, cap, seed = case
        start = random_start(A, k, make_rng(seed))
        W, H, loss, sweeps = nmf_multiplicative(A, k, mask, cap, start)
        # the cap, or the check below it where the run stopped
        assert sweeps == cap or (sweeps < cap and sweeps % NMF_CHECK_EVERY == 0)
        W0, H0, loss0, none = nmf_multiplicative(A, k, mask, 0, start)
        assert none == 0
        W1, H1, loss1 = ([(W0, H0, loss0)] + nmf_steps(A, k, mask, sweeps, (W0, H0)))[-1]
        assert np.array_equal(bits(W), bits(W1)) and np.array_equal(bits(H), bits(H1))
        assert bits(loss) == bits(loss1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nmf_cases(max_k=6), st.sampled_from([40, 80, 120]))
    def test_power_of_two_scale_scales_the_run(self, case, e):
        """A scaled by 2^e from a start scaled by 2^(e/2) runs the same
        sweeps and returns the unscaled run's factors scaled by 2^(e/2) and
        its loss by 2^e, bit for bit: the HALS floor scales with diag G.
        k > n is drawn too, where H is not unique and rows whose update is
        0 come out as rounding noise an absolute floor would treat apart."""
        A, k, mask, cap, seed = case
        W0, H0 = random_start(A, k, make_rng(seed))
        half = 2.0 ** (e // 2)
        W, H, loss, sweeps = nmf_multiplicative(A, k, mask, cap, (W0, H0))
        Ws, Hs, loss_s, sweeps_s = nmf_multiplicative(A * 2.0 ** e, k, mask, cap,
                                                      (W0 * half, H0 * half))
        assert sweeps_s == sweeps
        assert np.array_equal(bits(Ws), bits(W * half))
        assert np.array_equal(bits(Hs), bits(H * half))
        assert bits(loss_s) == bits(loss * 2.0 ** e)


class TestValidation:
    def test_vector_rejects_nan(self):
        with pytest.raises(DomainError):
            numerics.vector([1.0, np.nan])

    def test_matrix_rejects_inf(self):
        with pytest.raises(DomainError):
            numerics.matrix([[1.0, np.inf]])

    def test_rng_stream_is_seed_stable(self):
        a = make_rng(123).random(5)
        b = make_rng(123).random(5)
        assert np.array_equal(a, b)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308]


def parsed(doc, path):
    """The document `read_instance` reads from a one-document file at `path`."""
    path.write_text(json.dumps(doc))
    return read_instance(path)[0]


class TestArrayEncoding:
    """`write_instance` / `read_instance`, the instance-file form of X, y and A."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False)),
    ))
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, a):
        tmp = tmp_path_factory.mktemp("roundtrip")
        first, second = tmp / "first.json", tmp / "second.json"
        doc = {"problem": "p", "a": a, "b": a[::-1].copy(), "seed": 3}
        write_instance(first, doc)
        write_instance(second, doc)
        assert first.read_bytes() == second.read_bytes()
        back, data = read_instance(first)
        assert bytes(data) == first.read_bytes()
        assert (back["problem"], back["seed"]) == ("p", 3)
        for key in ("a", "b"):
            decoded = back[key]
            assert decoded.dtype == np.float64 and decoded.shape == a.shape
            assert np.array_equal(decoded.view(np.uint64), doc[key].view(np.uint64))
            assert decoded.flags.c_contiguous and decoded.flags.aligned
            assert not decoded.flags.writeable
            assert a.size == 0 or np.shares_memory(decoded, np.frombuffer(data, np.uint8))
        # The nested-list form of the same values decodes to the same bits.
        # A list with no rows cannot carry its row length, so only the
        # entries are compared then.
        listed = parsed({"a": a.tolist()}, tmp / "listed.json")["a"]
        listed = (numerics.matrix if a.ndim == 2 and a.shape[0] else numerics.vector)(listed)
        assert np.array_equal(listed.view(np.uint64).ravel(), a.view(np.uint64).ravel())
        if a.shape[0]:
            assert listed.shape == a.shape

    def test_non_contiguous_input(self, tmp_path):
        a = np.arange(12.0).reshape(3, 4).T
        write_instance(tmp_path / "inst.json", {"a": a})
        assert np.array_equal(read_instance(tmp_path / "inst.json")[0]["a"], a)

    @pytest.mark.parametrize("shape, values", [
        ([2], 3), ([3, -1], 3), ([1.0], 1), (1, 1), ("1", 1), ("2x1", 2),
    ], ids=["too-short", "negative", "float", "int", "string", "string-2x1"])
    def test_malformed_rejected(self, tmp_path, shape, values):
        header = json.dumps({"a": {"shape": shape, "at": 0}}).encode()
        path = tmp_path / "inst.json"
        path.write_bytes(header + b"\n" + np.ones(values).tobytes())
        with pytest.raises(ValueError, match="array 'a'"):
            read_instance(path)

    def test_f8_form_rejected(self, tmp_path):
        # The base64 form files had before the binary tail: [1.0]
        with pytest.raises(ValueError, match="array 'a'.*bagel generate"):
            parsed({"a": {"shape": [1], "f8": "AAAAAAAA8D8="}}, tmp_path / "f8.json")
