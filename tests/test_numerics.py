import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    lp_distance,
    make_rng,
    masked_l0_cost,
    nmf_multiplicative,
    read_instance,
    solve_least_squares,
    write_instance,
)


class TestMaskedL0Cost:
    def test_one_word_outside(self):
        y = [0.6, 0.3, 0.9, 0, 0]
        assert masked_l0_cost(y, [0, 1, 1, 0, 1]) == 1

    def test_all_ones_mask(self):
        assert masked_l0_cost([3.0, -1.0, 2.0], [1, 1, 1]) == 0

    def test_all_zeros_reduces_to_l0(self):
        y = [0.6, 0.3, 0.9, 0, 0]
        assert masked_l0_cost(y, [0, 0, 0, 0, 0]) == np.count_nonzero(y)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            masked_l0_cost([1.0, 2.0], [1])

    def test_support_partition(self):
        rng = make_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            v = rng.standard_normal(n)
            v[rng.random(n) < 0.3] = 0.0
            t = (rng.random(n) < 0.5).astype(float)
            inside = np.count_nonzero(v * t)
            outside = masked_l0_cost(v, t)
            assert inside + outside == np.count_nonzero(v)


class TestLpDistance:
    def test_identity(self):
        assert lp_distance([1.0, 2.0], [1.0, 2.0], 2) == 0.0

    def test_euclidean(self):
        assert lp_distance([3, 2], [1, 3], 2) == pytest.approx(np.sqrt(5))

    def test_l1(self):
        assert lp_distance([0.5, 0.4], [0, 0], 1) == pytest.approx(0.9)

    def test_linf(self):
        assert lp_distance([1, 5], [0, 2], np.inf) == 3.0

    def test_p_zero_counts_differences(self):
        assert lp_distance([1, 2, 3], [1, 0, 0], 0) == 2.0

    def test_invalid_p(self):
        with pytest.raises(DomainError):
            lp_distance([1.0], [0.0], 0.5)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            lp_distance([1.0], [1.0, 2.0], 2)


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


def gram_reference(solver, mask):
    """`GramLeastSquares.solve` written with `np.ix_`, `np.diag` and no
    shared state, plus whether it fell back to `solve_least_squares`."""
    theta = np.zeros(solver.X.shape[1])
    cols = np.flatnonzero(mask)
    if not cols.size:
        return theta, float(np.linalg.norm(solver.y)), False
    block = solver.gram[np.ix_(cols, cols)]
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        L = None
    if L is None or np.min(np.diag(L) ** 2 / np.diag(block)) < GRAM_PIVOT_RTOL:
        return (*solve_least_squares(solver.X, solver.y, mask), True)
    b = solver.xty[cols]
    theta[cols] = np.linalg.solve(block, b)
    yty = float(np.dot(solver.y, solver.y))
    squared = yty - float(np.dot(b, theta[cols]))
    if squared < GRAM_CANCEL_RTOL * yty:
        return theta, float(np.linalg.norm(solver.X @ theta - solver.y)), False
    return theta, math.sqrt(squared), False


class TestGramKernel:
    """The block gather, pivot test and loss rule against `gram_reference`."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(least_squares_cases())
    def test_matches_reference_bit_for_bit(self, case):
        X, y, mask = case
        theta, loss, fell_back = TestGramLeastSquares.solve_and_spy(X, y, mask)
        ref_theta, ref_loss, ref_fell_back = gram_reference(GramLeastSquares(X, y), mask)
        assert fell_back == ref_fell_back
        assert np.array_equal(theta, ref_theta) and loss == ref_loss


class TestNmfMultiplicative:
    def test_planted_rank_one(self):
        rng = make_rng(0)
        w = rng.uniform(0.5, 1.5, 8)
        h = rng.uniform(0.5, 1.5, 6)
        A = np.outer(w, h)
        _, _, loss = nmf_multiplicative(A, 1, np.ones((8, 1)), 500, make_rng(1))
        assert loss <= 1e-6 * np.linalg.norm(A)

    def test_zero_mask_column_stays_zero(self):
        rng = make_rng(2)
        A = rng.random((6, 5))
        mask = np.ones((6, 3))
        mask[:, 1] = 0.0
        seen = []
        W, _, _ = nmf_multiplicative(
            A, 3, mask, 40, make_rng(3),
            on_iteration=lambda it, W, H, loss: seen.append(W[:, 1].copy()),
        )
        assert np.all(W[:, 1] == 0.0)
        for col in seen:
            assert np.all(col == 0.0)

    def test_zero_iterations_returns_masked_init(self):
        rng = make_rng(4)
        A = rng.random((4, 4))
        mask = (rng.random((4, 2)) < 0.5).astype(float)
        W, H, loss = nmf_multiplicative(A, 2, mask, 0, make_rng(9))
        assert np.all(W[mask == 0] == 0.0)
        assert loss == pytest.approx(np.linalg.norm(A - W @ H))

    def test_loss_monotone_nonnegative(self):
        rng = make_rng(6)
        for _ in range(10):
            n, m, k = int(rng.integers(3, 12)), int(rng.integers(3, 12)), int(rng.integers(1, 4))
            A = rng.random((n, m))
            mask = (rng.random((n, k)) < 0.8).astype(float)
            losses = []

            def record(it, W, H, loss):
                assert np.all(W >= 0) and np.all(H >= 0)
                losses.append(loss)

            nmf_multiplicative(A, k, mask, 30, make_rng(int(rng.integers(1 << 30))),
                               on_iteration=record)
            for prev, nxt in zip(losses, losses[1:]):
                assert nxt <= prev + 1e-12

    def test_determinism(self):
        A = make_rng(7).random((5, 5))
        mask = np.ones((5, 2))
        r1 = nmf_multiplicative(A, 2, mask, 25, make_rng(42))
        r2 = nmf_multiplicative(A, 2, mask, 25, make_rng(42))
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[1], r2[1])
        assert r1[2] == r2[2]

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            nmf_multiplicative(np.array([[-1.0]]), 1, np.ones((1, 1)), 1, make_rng(0))

    def test_negative_iterations_rejected(self):
        with pytest.raises(DomainError):
            nmf_multiplicative(np.ones((2, 2)), 1, np.ones((2, 1)), -5, make_rng(0))

    def test_exact_fit_stops_at_second_check(self):
        # A = 0: the first update zeroes H, so both checked losses are 0.
        seen = []
        _, _, loss = nmf_multiplicative(
            np.zeros((5, 4)), 2, np.ones((5, 2)), 300, make_rng(1),
            on_iteration=lambda it, W, H, loss: seen.append(it),
        )
        assert loss == 0.0
        assert len(seen) == 2 * NMF_CHECK_EVERY


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
        rng = make_rng(seed)
        W0 = (1.0 - rng.random(mask.shape)) * mask
        losses = [numerics.frobenius(A - W0 @ (1.0 - rng.random((k, A.shape[1]))))]
        sweeps = []

        def check(it, W, H, loss):
            assert np.all(np.isfinite(W)) and np.all(np.isfinite(H))
            assert np.all(W >= 0) and np.all(H >= 0)
            assert np.all(W[mask == 0] == 0.0)
            losses.append(loss)
            sweeps.append((W.copy(), H.copy()))

        # Any 0 * inf or 0 / 0 in the kernel (its -inf mask sentinel, its
        # NMF_EPS floor) raises here instead of leaving a NaN.
        with np.errstate(all="raise"):
            nmf_multiplicative(A, k, mask, 30, make_rng(seed), on_iteration=check)
        # criterion 6's absolute tolerance, from the initial factors on
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev + 1e-12
        if k == 1:
            # the W update is exact: the closed-form rank-one fit given h
            W, H = sweeps[0]
            h = H[0]
            if h @ h >= NMF_EPS:
                closed = np.maximum(0.0, A @ h / (h @ h)) * mask[:, 0]
                np.testing.assert_allclose(W[:, 0], closed, rtol=1e-12, atol=1e-12)


def nmf_reference(A, k, mask, sweeps, rng):
    """The fixed-sweep masked HALS loop that `nmf_multiplicative` stops
    early, in the kernel's scaled form: each half-sweep divides row l of
    the products by d[l] = max(G[l, l], NMF_EPS) and takes the identity
    off G.  W is held transposed, as in the kernel, so that every product
    rounds alike."""
    n, m = A.shape
    W = 1.0 - rng.random((n, k))
    H = 1.0 - rng.random((k, m))
    W *= mask
    Wt = W.T.copy()

    def half_sweep(X, B, G, keep):
        d = np.maximum(np.diag(G), NMF_EPS)[:, None]
        B, G = B / d, G / d - np.eye(k)
        for l in range(k):
            X[l] = np.maximum(0.0, B[l] - G[l] @ X) * keep[l]

    for _ in range(sweeps):
        half_sweep(H, Wt @ A, Wt @ Wt.T, np.ones((k, m)))
        half_sweep(Wt, H @ A.T, H @ H.T, mask.T)
    return Wt.T, H


def nmf_reference_unscaled(A, k, mask, sweeps, rng):
    """The same loop as `nmf_reference` with each update in its textbook
    form, H[l] + (B[l] - G[l] H) / d[l]: equal up to rounding."""
    n, m = A.shape
    W = 1.0 - rng.random((n, k))
    H = 1.0 - rng.random((k, m))
    W *= mask
    Wt = W.T.copy()
    for _ in range(sweeps):
        WtA, WtW = Wt @ A, Wt @ Wt.T
        for l in range(k):
            H[l] = np.maximum(0.0, H[l] + (WtA[l] - WtW[l] @ H) / max(WtW[l, l], NMF_EPS))
        HAt, HHt = H @ A.T, H @ H.T
        for l in range(k):
            Wt[l] = np.maximum(0.0, Wt[l] + (HAt[l] - HHt[l] @ Wt) / max(HHt[l, l], NMF_EPS))
            Wt[l] *= mask[:, l]
    return Wt.T, H


@st.composite
def nmf_cases(draw):
    """(A, k, mask, cap, seed): random, exact low-rank or all-zero A, masks
    with some all-zero columns, k <= 4 and caps from 0 to 300."""
    n, m, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
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
        losses = []
        W, H, loss = nmf_multiplicative(
            A, k, mask, cap, make_rng(seed),
            on_iteration=lambda it, W, H, loss: losses.append(loss),
        )
        ran = len(losses)
        # (a) the run reaches the cap or stops at a check below it
        assert ran == cap or (ran < cap and ran % NMF_CHECK_EVERY == 0)
        # (b) a bit-identical prefix of the fixed-iteration run
        ref_W, ref_H = nmf_reference(A, k, mask, ran, make_rng(seed))
        assert np.array_equal(W, ref_W) and np.array_equal(H, ref_H)
        assert loss == numerics.frobenius(A - W @ H)
        # (b') the textbook update, rounded otherwise, gives the same product
        un_W, un_H = nmf_reference_unscaled(A, k, mask, ran, make_rng(seed))
        np.testing.assert_allclose(W @ H, un_W @ un_H, rtol=1e-8, atol=1e-8 * A.max())
        # (c) the rule holds at the stopping check and at no earlier one
        checked = losses[NMF_CHECK_EVERY - 1::NMF_CHECK_EVERY]
        met = [prev - cur <= NMF_STOP_RTOL * prev for prev, cur in zip(checked, checked[1:])]
        if ran < cap:
            assert met[-1]
            met = met[:-1]
        assert not any(met)
        # (d) an exact fit stops at the next check
        if 0.0 in checked:
            assert len(checked) <= checked.index(0.0) + 2


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
