"""Dense numeric kernels.

Masked least squares, masked NMF by masked HALS (hierarchical
alternating least squares; its `iters` is a cap on sweeps), and the
instance-file format: `write_instance` and `read_instance` are the only
code that knows it, and `integer` / `number` check the scalar fields
read from a file.
All heavy lifting is numpy; inputs are plain float64 arrays.

Many masked least-squares solves over one (X, y) go through
`GramLeastSquares`.  It forms X^T X, X^T y and y^T y once, and solves the
full column set once, keeping the inverse Gram matrix and the root's
explicit residual.  Each column subset is then solved relative to that
root solve ("leaps and bounds", Furnival & Wilson 1974), by one solve the
size of the dropped columns or of the kept ones, whichever is smaller,
without touching X again.  Where the Gram matrix is not safely positive
definite, each subset is solved from its own kept block and its loss is
the explicit residual; blocks that are not safely positive definite
either fall back to `solve_least_squares`, the SVD-based reference.
"""

from __future__ import annotations

import json
import math
import os

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
    """Validate and return a finite 1-d float array (`data` itself when it
    already is one)."""
    a = np.asarray(data, dtype=float)
    if a.ndim != 1:
        raise DimensionError("expected a 1-d array, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise DomainError("vector entries must be finite")
    return a


def matrix(data):
    """Validate and return a finite 2-d float array (`data` itself when it
    already is one)."""
    a = np.asarray(data, dtype=float)
    if a.ndim != 2:
        raise DimensionError("expected a 2-d array, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def integer(value, name):
    """`value` where it is a JSON integer (not a bool), else a ValueError
    that names the field."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return value


def number(value, name):
    """`value` as a float where it is a JSON number (not a bool or a
    string), else a ValueError that names the field."""
    if type(value) not in (int, float):
        raise ValueError("%s must be a number, got %r" % (name, value))
    return float(value)


def write_instance(path, doc):
    """Write `doc` as an instance file.

    The file is one line of compact JSON, a newline, then the raw
    little-endian float64 bytes in C order of every top-level ndarray of
    `doc`, back to back.  In the header line each such array is
    {"shape": [...], "at": its byte offset into the bytes after the
    newline}.  The same `doc` always gives the same bytes.
    """
    header, arrays, at = {}, [], 0
    for key, value in doc.items():
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value, dtype="<f8")
            header[key] = {"shape": list(value.shape), "at": at}
            arrays.append(value)
            at += value.nbytes
        else:
            header[key] = value
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        for a in arrays:
            fh.write(a.data)


def read_instance(path):
    """(doc, data) of the instance file at `path`, read once.

    A file `write_instance` wrote is a JSON header line and a tail of raw
    bytes.  Any other file is one JSON document whose arrays are nested
    lists, left as they are; an array object in it is an error.  Each
    array must lie inside the tail, and the arrays must fill the tail back
    to back in header order, with no byte left over.  Whether an array's
    shape fits its problem, and finiteness, are for `matrix` and `vector`.

    `data` holds the file's bytes in a writable buffer whose tail starts
    8-byte aligned, and each array decoded from the tail is a read-only
    float64 view of it.  A pipe, whose size `fstat` does not tell, or a
    file that grew while being read gives `bytes` and copies instead.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        size = max(len(head), os.fstat(fh.fileno()).st_size)
        buf = np.empty(size + 7, np.uint8)
        pad = -(buf.__array_interface__["data"][0] + len(head)) % 8
        data = memoryview(buf)[pad:pad + size]
        data[:len(head)] = head
        size = len(head) + fh.readinto(data[len(head):])
        more = fh.read()
    data = bytes(data[:size]) + more if more else data[:size]
    return _decode_instance(data, len(head) - 1 if head.endswith(b"\n") else -1), data


def _decode_instance(data, end):
    """The document of an instance file's bytes, as `read_instance`
    describes it; `end` is the offset of the first newline, or -1."""
    view = memoryview(data)
    try:
        doc = json.loads(bytes(view[:end])) if end >= 0 else None
    except ValueError:  # a pretty-printed document
        doc = None
    if isinstance(doc, dict) and any(isinstance(v, dict) and "at" in v for v in doc.values()):
        tail = view[end + 1:]
    else:
        doc, tail = json.loads(bytes(view)), view[:0]
    if not isinstance(doc, dict):
        return doc
    filled, last = 0, None
    for key, value in doc.items():
        if not isinstance(value, dict):
            continue
        try:
            doc[key] = _decode_array(value, tail)
            if value["at"] != filled:
                raise ValueError("at is %d, but the arrays before it end at byte %d"
                                 % (value["at"], filled))
            filled, last = filled + doc[key].nbytes, key
        except ValueError as exc:
            raise ValueError("array %r: %s" % (key, exc)) from exc
    if filled != len(tail):
        raise ValueError("array %r: the tail has %d bytes after it" % (last, len(tail) - filled))
    return doc


def _decode_array(doc, tail):
    """Float64 array of one array object, C-contiguous: a read-only view of
    `tail` where `tail` is writable and the bytes are native float64, else
    a writeable copy that owns its data."""
    if "at" not in doc:
        raise ValueError("has no \"at\" offset into a binary tail; regenerate the file "
                         "with `bagel generate` (the same seed gives the same arrays)")
    shape = doc.get("shape")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError("shape must be a list of non-negative integers")
    nbytes = 8 * math.prod(shape)
    at = doc["at"]
    if not (type(at) is int and at >= 0):
        raise ValueError("at must be a non-negative integer, got %r" % (at,))
    if at + nbytes > len(tail):
        raise ValueError("bytes [%d, %d) lie past the end of the %d-byte tail"
                         % (at, at + nbytes, len(tail)))
    a = np.frombuffer(tail[at:at + nbytes], dtype="<f8").reshape(shape)
    if tail.readonly or not a.dtype.isnative:
        return a.astype(float)
    a.flags.writeable = False
    return a


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


# A Cholesky pivot of a Gram block, divided by the matching diagonal
# entry, is the share of that column's squared norm left outside the span
# of the columns before it.  The normal equations square the condition
# number, so on a near-noiseless fit the residual error of the Gram solve
# grows like eps * ||y|| / pivot.  1e-3 keeps it under the 1e-9 agreement
# with `solve_least_squares` that the tests ask for (1e-8 does not);
# smaller pivots take the SVD path.
GRAM_PIVOT_RTOL = 1e-3
# The squared loss y^T y - b^T theta loses the digits that y^T y and
# b^T theta share: below this fraction of y^T y (a fit that explains all
# but 1e-6 of y's energy) the loss is taken from the residual instead.
GRAM_CANCEL_RTOL = 1e-6


def _pivots_pass(block):
    """Whether the Gram block factors by Cholesky with every pivot at
    least GRAM_PIVOT_RTOL times the matching diagonal entry."""
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:  # not positive definite
        return False
    return not (L.diagonal() ** 2 / block.diagonal()).min(initial=np.inf) < GRAM_PIVOT_RTOL


class GramLeastSquares:
    """Masked least squares for many masks over one fixed (X, y).

    X^T X, X^T y and y^T y are formed once; `solve(mask)` then works on
    the Gram matrix G, b = X^T y and quantities of the root solve (the
    full mask) only.  It has the contract of `solve_least_squares`: it
    returns (theta, loss), theta is zero outside the mask and loss is the
    residual norm ||X theta - y||.  An empty mask gives theta = 0 and
    loss ||y||.

    The root solve is set up once.  Where G passes the pivot test below,
    the solver keeps G^-1, theta0 = G^-1 b and r0^2 = ||X theta0 - y||^2.
    A mask keeps the columns S and drops the columns J, and takes one of
    two routes.  Where the root passed and |J| <= |S|, it is solved
    relative to the root (Furnival & Wilson 1974):

        z = G^-1[J, J]^-1 theta0[J],
        theta = theta0 - G^-1[:, J] z   (theta[J] = 0),
        loss^2 = r0^2 + theta0[J]^T z,

    a |J| x |J| solve in place of a |S| x |S| one; with J empty it gives
    theta0 and r0^2.  Otherwise theta solves G[S, S] theta[S] = b[S]
    directly and loss^2 = y^T y - b[S]^T theta[S].  r0^2 is formed
    explicitly, in O(m d) once per fold, because both terms of
    r0^2 + theta0[J]^T z are then non-negative and nothing cancels.  Taken
    as y^T y - b^T theta0 instead, r0^2 would carry the rounding error of
    theta0 at first order, and G as a whole is often worse conditioned
    than any block a mask keeps.

    The pivot test: G is factored by Cholesky, and it passes where the
    factorisation succeeds and every pivot is at least GRAM_PIVOT_RTOL
    times the matching diagonal entry.  A kept block then needs no test
    of its own.  The pivot of a column divided by its diagonal entry is
    the share of the column's squared norm left outside the span of the
    columns before it; in a principal block, the columns before it are a
    subset of those in G, so that share can only grow.  If G passes,
    every principal block passes.  Where G fails (m < d, a duplicated or
    zero column, or a small pivot), the solver keeps nothing of the root,
    every mask takes the kept-block route, and the block G[S, S] is
    tested alone; a block that fails goes to `solve_least_squares`, which
    keeps the minimum-norm answer on rank-deficient and ill-conditioned
    masks.

    The loss is the explicit residual norm of the theta just computed
    where the root failed, since loss^2 then carries theta's rounding
    error at first order, and where loss^2 is below GRAM_CANCEL_RTOL
    times y^T y, a near-noiseless fit on which either formula above
    loses its digits.  Elsewhere it is the square root of loss^2.
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
        self.yty = float(y @ y)
        self.inverse = None
        if _pivots_pass(self.gram):
            self.inverse = np.linalg.inv(self.gram)
            self.theta0 = np.linalg.solve(self.gram, self.xty)
            r0 = X @ self.theta0 - y
            self.r0_squared = float(r0 @ r0)

    def solve(self, mask):
        mask = np.asarray(mask)
        d = self.X.shape[1]
        if mask.shape != (d,):
            raise DimensionError("mask length must equal the number of columns of X")
        keep = mask != 0
        (cols,) = keep.nonzero()
        if not cols.size:
            return np.zeros(d), float(np.linalg.norm(self.y))
        (drop,) = (~keep).nonzero()
        if self.inverse is not None and 2 * drop.size <= d:
            # The columns of G^-1 first, then their J rows: |J| x d is
            # copied, not the |S| x d of taking the S rows first.
            inv_cols = self.inverse.take(drop, 1)
            t = self.theta0[drop]
            z = np.linalg.solve(inv_cols.take(drop, 0), t)
            theta = self.theta0 - inv_cols @ z
            theta[drop] = 0.0
            squared = self.r0_squared + float(t @ z)
        else:
            # Two takes copy the block with less overhead than np.ix_.
            block = self.gram.take(cols, 0).take(cols, 1)
            if self.inverse is None and not _pivots_pass(block):
                return solve_least_squares(self.X, self.y, mask)
            b = self.xty[cols]
            sol = np.linalg.solve(block, b)
            theta = np.zeros(d)
            theta[cols] = sol
            squared = self.yty - float(b @ sol)
        if self.inverse is None or squared < GRAM_CANCEL_RTOL * self.yty:
            return theta, self.residual_norm(theta)
        return theta, math.sqrt(squared)

    def residual_norm(self, theta):
        """||X theta - y||, formed explicitly in O(m d)."""
        return float(np.linalg.norm(self.X @ theta - self.y))


def frobenius(A):
    return float(np.linalg.norm(np.asarray(A, dtype=float)))


# The stopping rule of `nmf_multiplicative`, a relative-decrease rule as
# surveyed by Gillis ("Nonnegative Matrix Factorization", SIAM 2020).  It
# checks the residual ||A - W H||, not the Gram identity
# ||A||^2 - 2<A H^T, W> + <W^T W, H H^T>: on a near-noiseless fit the
# identity subtracts terms that agree in all but their last digits, so
# its loss is mostly rounding error and the decrease test would stop on
# noise.  (`GramLeastSquares` uses the least-squares form of the identity
# only where that cancellation is small, GRAM_CANCEL_RTOL.)
NMF_STOP_RTOL = 1e-5
NMF_CHECK_EVERY = 10
# Floor of the diagonal entries a HALS update divides by, relative to the
# largest (`_hals_rows`): an all-zero column of W or row of H stays as it
# is, and A scaled by 4^j from a start scaled by 2^j runs scaled exactly.
NMF_EPS = 1e-12
# What a masked entry of W adds to its update, so the entry clamps to 0.
# It is finite because the update's product multiplies the other
# columns' rows of the mask block by 0, and 0 * -inf is NaN; any finite
# sum with -max is at most 0.
NMF_MASKED = np.finfo(float).max


def nmf_multiplicative(A, k, mask, iters, start):
    """Masked NMF by masked HALS for the Frobenius objective, from
    start = (W0, H0), an n x k W and a k x m H.

    The kernel is no longer the multiplicative update; the name stays
    because `benchmarks/tracer.py` wraps this function by name and reads
    its `A`, `k` and `iters` arguments.  HALS (hierarchical alternating
    least squares; Cichocki & Phan, IEICE 2009; Gillis & Glineur, Neural
    Computation 2012) minimises the objective exactly over one row of H or
    one column of W at a time, in place.  A sweep updates the rows of H in
    order l = 0..k-1: with B = W^T A, G = W^T W and the floored diagonal
    d = max(diag G, NMF_EPS * max(diag G), the smallest normal float),

        H[l] = max(0, H[l] + (B[l] - G[l] H) / d[l]).

    H is held in the top rows of the stack [H; B], so each update is one
    product c_l [H; B] and one clamp, with c_l = [e_l - G[l] / d[l],
    e_l / d[l]] (`_hals_rows`).  The coefficient of H[l] itself,
    1 - G[l, l] / d[l], is 0 unless the floor applies, so H[l] is never
    subtracted from itself.  The columns of W are then updated the same
    way against A H^T and H H^T in the stack [W^T; B; S], with e_l on S:
    row l of S is -NMF_MASKED wherever column l of the binary mask is 0,
    so those entries of W clamp to exactly 0.

    W0 is projected onto the mask (W0 * mask), so masked positions are
    exactly 0 throughout; the start arrays are not modified.

    iters is a cap on sweeps.  Every NMF_CHECK_EVERY sweeps the loss is
    checked, and the run stops once it fell by at most NMF_STOP_RTOL
    relative since the previous check (prev - loss <= NMF_STOP_RTOL * prev,
    so an exact fit stops too).  A stopped run is a bit-identical prefix of
    a run of all iters sweeps, and a run of n sweeps is bit-identical to n
    one-sweep runs, each started from the previous one's factors.

    Returns (W, H, loss, sweeps): loss = ||A - W H||_F (unsquared), and
    sweeps the number of sweeps that ran, iters unless the run stopped at
    a check.
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
    W0, H0 = start
    if np.shape(W0) != (n, k) or np.shape(H0) != (k, m):
        raise DimensionError("start must be an n x k W and a k x m H")
    # Each factor is the top rows of its stack, the rows the one product
    # per row update reads: [H; B] (2k x m) and [W^T; B; S] (3k x n), so
    # a column of W is a contiguous row.  The stacks, the coefficient
    # rows, their views and the residual are made once per call: a sweep
    # and a loss check then allocate nothing.
    stack_h, stack_w = np.empty((2 * k, m)), np.empty((3 * k, n))
    H, Wt = stack_h[:k], stack_w[:k]
    H[...] = H0
    np.multiply(np.transpose(W0), mask.T, out=Wt)
    W, Ht, At, B_h, B_w = Wt.T, H.T, A.T, stack_h[k:], stack_w[k:2 * k]
    stack_w[2 * k:] = np.where(mask.T == 0, -NMF_MASKED, 0.0)
    G = np.empty((k, k))
    hals_h, hals_w = _hals_rows(stack_h, G), _hals_rows(stack_w, G)
    R = np.empty((n, m))

    def residual():
        W.dot(H, R)
        np.subtract(A, R, out=R)
        return frobenius(R)

    sweeps, loss = 0, None
    while sweeps < iters:
        Wt.dot(A, B_h)
        Wt.dot(W, G)
        hals_h()
        H.dot(At, B_w)
        H.dot(Ht, G)
        hals_w()
        sweeps += 1
        if sweeps % NMF_CHECK_EVERY == 0:
            prev, loss = loss, residual()
            if prev is not None and prev - loss <= NMF_STOP_RTOL * prev:
                break
    if loss is None or sweeps % NMF_CHECK_EVERY:
        loss = residual()
    # Copies, so a kept model does not keep the stacks alive.
    return Wt.copy().T, H.copy(), loss, sweeps


def _hals_rows(stack, G):
    """One HALS pass, in place, over the top k rows X of `stack`, as a
    function of no arguments that reads G (k x k) and the next k rows of
    `stack`, B, as they are when it is called.  Row l in turn becomes
    max(0, u + S[l]), where u minimises 1/2 <X, G X> - <B, X> over X[l]
    with the other rows fixed and S is the third block of `stack`, if it
    has one: the non-negative minimiser wherever S is 0.

    The coefficient rows c_l are the rows of one buffer: its first block
    is I - G / d with d = max(diag G, NMF_EPS * max(diag G), tiny), tiny
    the smallest normal float, the diagonal of its second is 1 / d, written
    through a strided view of the flat buffer, and the diagonal of a third
    is 1.  Each row is then one product into a scratch row and one clamp.
    """
    k, width, length = len(G), len(stack), stack.shape[1]
    coef = np.zeros((k, width))
    np.fill_diagonal(coef[:, 2 * k:], 1.0)
    first, d, diag = coef[:, :k], coef.reshape(-1)[k::width + 1], G.diagonal()
    d_col, eye, t, zeros = d[:, None], np.eye(k), np.empty(length), np.zeros(length)
    # Each row's product is a bound `ndarray.dot` with a positional out,
    # which skips the argument handling of `np.dot(..., out=)`.
    rows, tiny = [(c.dot, x) for c, x in zip(coef, stack)], np.finfo(float).tiny

    def run():
        # A Python max over k floats costs half of a numpy reduction.
        np.maximum(diag, max(NMF_EPS * max(diag.tolist()), tiny), out=d)
        np.divide(G, d_col, out=first)
        np.subtract(eye, first, out=first)
        np.divide(1.0, d, out=d)
        for dot, x in rows:
            dot(stack, t)
            np.maximum(t, zeros, out=x)

    return run
