"""Dense numeric kernels.

Masked least squares, masked multiplicative-update NMF, the norm /
cost primitives that back the constraint layer, and the instance-file
form of a float array.  All heavy lifting is numpy; inputs are plain
float64 arrays.

Many masked least-squares solves over one (X, y) go through
`GramLeastSquares`, which forms X^T X and X^T y once and solves each
column subset by a Cholesky factorisation of its block of the Gram
matrix ("leaps and bounds", Furnival & Wilson 1974).  Blocks that are not
safely positive definite fall back to `solve_least_squares`, the
SVD-based reference.
"""

from __future__ import annotations

import base64
import binascii
import math

import numpy as np


class DimensionError(ValueError):
    """Shapes of the operands do not agree."""


class DomainError(ValueError):
    """An operand violates a value-domain precondition (e.g. negativity)."""


def make_rng(seed):
    """Seeded generator with a fixed, platform-stable algorithm (PCG64).

    Identical seed gives an identical stream on every platform.
    """
    return np.random.Generator(np.random.PCG64(seed))


def vector(data):
    """Validate and return a finite 1-d float array."""
    a = np.array(data, dtype=float)
    if a.ndim != 1:
        raise DimensionError("expected a 1-d array, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise DomainError("vector entries must be finite")
    return a


def matrix(data):
    """Validate and return a finite 2-d float array."""
    a = np.array(data, dtype=float)
    if a.ndim != 2:
        raise DimensionError("expected a 2-d array, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def encode_array(a):
    """JSON form of a float array in an instance file.

    {"shape": [...], "f8": base64 of the little-endian float64 bytes in C
    order}: exact, and parsed without a Python float per entry.
    """
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(doc):
    """Float64 array of an `encode_array` document or of nested lists.

    The result is C-contiguous, writeable and owns its data.  Only the
    encoding is checked here; shape and finiteness are for `matrix` and
    `vector`.
    """
    if not isinstance(doc, dict):
        return np.array(doc, dtype=float)
    shape = doc["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError("array shape must be a list of non-negative integers")
    try:
        raw = base64.b64decode(doc["f8"], validate=True)
    except binascii.Error as exc:
        raise ValueError("array bytes are not valid base64: %s" % exc) from exc
    nbytes = 8 * math.prod(shape)
    if len(raw) != nbytes:
        raise ValueError("array of shape %s needs %d bytes, got %d" % (shape, nbytes, len(raw)))
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def norm_l0(v, eps=0.0):
    """Number of entries with magnitude strictly above eps."""
    if eps < 0:
        raise DomainError("eps must be >= 0")
    v = np.asarray(v, dtype=float)
    return int(np.count_nonzero(np.abs(v) > eps))


def masked_l0_cost(y, t, eps=0.0):
    """Count of active entries of y falling outside the support of t.

    t is a 0/1 vector; the cost is the l0 norm of y restricted to the
    positions where t is 0.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if y.shape != t.shape:
        raise DimensionError("y and t must have the same length")
    return int(np.count_nonzero((t == 0) & (np.abs(y) > eps)))


def lp_distance(y, t, p):
    """p-norm of y - t.  p may be any real >= 1, numpy.inf, or 0.

    p = 0 counts the number of differing coordinates.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if y.shape != t.shape:
        raise DimensionError("y and t must have the same length")
    d = y - t
    if p == 0:
        return float(np.count_nonzero(d))
    if np.isinf(p):
        return float(np.max(np.abs(d))) if d.size else 0.0
    if p < 1:
        raise DomainError("p must be >= 1, inf, or 0")
    return float(np.sum(np.abs(d) ** p) ** (1.0 / p))


def solve_least_squares(X, y, mask):
    """Least squares restricted to the masked column subset.

    Returns (theta, loss) where theta is zero outside the mask support and
    minimises ||X theta - y||_2 over the masked columns.  Rank-deficient
    systems get the minimum-norm solution (SVD-based solve).  The reported
    loss is the unsquared Euclidean residual norm.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.asarray(mask)
    if X.ndim != 2:
        raise DimensionError("X must be 2-d")
    m, d = X.shape
    if y.shape != (m,):
        raise DimensionError("y length must equal the number of rows of X")
    if mask.shape != (d,):
        raise DimensionError("mask length must equal the number of columns of X")
    theta = np.zeros(d)
    cols = np.flatnonzero(mask)
    if cols.size:
        sol, _, _, _ = np.linalg.lstsq(X[:, cols], y, rcond=None)
        theta[cols] = sol
    loss = float(np.linalg.norm(X @ theta - y))
    return theta, loss


# A Cholesky pivot of the Gram block, divided by the matching diagonal
# entry, is the share of that column's squared norm left outside the span
# of the columns before it.  The normal equations square the condition
# number, so on a near-noiseless fit the residual error of the Gram solve
# grows like eps * ||y|| / pivot.  1e-3 keeps it under the 1e-9 agreement
# with `solve_least_squares` that the tests ask for (1e-8 does not);
# smaller pivots take the SVD path.
GRAM_PIVOT_RTOL = 1e-3


class GramLeastSquares:
    """Masked least squares for many masks over one fixed (X, y).

    X^T X and X^T y are formed once; `solve(mask)` then factors only the
    masked block of the Gram matrix.  It has the contract of
    `solve_least_squares`: it returns (theta, loss), theta is zero outside
    the mask and loss is the residual norm ||X theta - y||.  The loss is
    computed from the residual, not as y^T y - b^T theta, which cancels
    catastrophically on near-noiseless fits.

    A block whose Cholesky factorisation fails, or whose smallest pivot is
    below GRAM_PIVOT_RTOL times the matching diagonal entry of the Gram
    matrix, is solved by `solve_least_squares` instead, which keeps the
    minimum-norm answer on rank-deficient and ill-conditioned masks.
    """

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise DimensionError("X must be 2-d")
        if y.shape != (X.shape[0],):
            raise DimensionError("y length must equal the number of rows of X")
        self.X, self.y = X, y
        self.gram = X.T @ X
        self.xty = X.T @ y

    def solve(self, mask):
        mask = np.asarray(mask)
        d = self.X.shape[1]
        if mask.shape != (d,):
            raise DimensionError("mask length must equal the number of columns of X")
        theta = np.zeros(d)
        cols = np.flatnonzero(mask)
        if cols.size:
            # Two takes copy the block with less overhead than np.ix_.
            block = self.gram.take(cols, 0).take(cols, 1)
            try:
                L = np.linalg.cholesky(block)
            except np.linalg.LinAlgError:  # not positive definite
                L = None
            if L is None or (L.diagonal() ** 2 / block.diagonal()).min() < GRAM_PIVOT_RTOL:
                return solve_least_squares(self.X, self.y, mask)
            theta[cols] = np.linalg.solve(L.T, np.linalg.solve(L, self.xty[cols]))
        loss = float(np.linalg.norm(self.X @ theta - self.y))
        return theta, loss


def frobenius(A):
    return float(np.linalg.norm(np.asarray(A, dtype=float)))


# The stopping rule of `nmf_multiplicative`, a relative-decrease rule as
# surveyed by Gillis ("Nonnegative Matrix Factorization", SIAM 2020).  It
# checks the residual ||A - W H||, not the Gram identity
# ||A||^2 - 2<A H^T, W> + <W^T W, H H^T>, which cancels on near-noiseless
# fits for the reason given in `GramLeastSquares`.
NMF_STOP_RTOL = 1e-5
NMF_CHECK_EVERY = 10


def nmf_multiplicative(A, k, mask, iters, rng, eps=1e-12, on_iteration=None):
    """Masked NMF by multiplicative updates for the Frobenius objective.

    W (n x k) and H (k x m) are initialised uniformly in (0, 1] from rng,
    then W is projected onto the binary mask (W *= mask) before the first
    update and after every W update, so masked positions stay exactly 0.
    Returns (W, H, loss) with loss = ||A - W H||_F (unsquared).

    iters is a cap.  Every NMF_CHECK_EVERY updates the loss is checked, and
    the run stops once it fell by at most NMF_STOP_RTOL relative since the
    previous check (prev - loss <= NMF_STOP_RTOL * prev, so an exact fit
    stops too).  A stopped run is a bit-identical prefix of a run of all
    iters updates.

    on_iteration, if given, is called as on_iteration(it, W, H, loss) after
    each update step that ran (views, do not mutate).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError("A must be 2-d")
    if np.any(A < 0):
        raise DomainError("A must be non-negative")
    if k < 1:
        raise DomainError("k must be >= 1")
    if iters < 0:
        raise DomainError("iters must be >= 0")
    n, m = A.shape
    mask = np.asarray(mask, dtype=float)
    if mask.shape != (n, k):
        raise DimensionError("mask must be n x k")
    # 1 - random() lands in (0, 1]; draw W first, then H, then project W.
    W = 1.0 - rng.random((n, k))
    H = 1.0 - rng.random((k, m))
    W *= mask
    prev = None
    for it in range(iters):
        H *= (W.T @ A) / (W.T @ W @ H + eps)
        W *= (A @ H.T) / (W @ (H @ H.T) + eps)
        W *= mask
        if on_iteration is not None:
            on_iteration(it, W, H, frobenius(A - W @ H))
        if (it + 1) % NMF_CHECK_EVERY == 0:
            loss = frobenius(A - W @ H)
            if prev is not None and prev - loss <= NMF_STOP_RTOL * prev:
                return W, H, loss
            prev = loss
    return W, H, frobenius(A - W @ H)
