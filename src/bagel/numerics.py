"""Dense numeric kernels.

Masked least squares, masked NMF by masked HALS (hierarchical
alternating least squares; its `iters` is a cap on sweeps), the norm /
cost primitives that back the constraint layer, and the instance-file
format: `write_instance` and `read_instance` are the only code that knows
it, and `integer` / `number` check the scalar fields read from a file.
All heavy lifting is numpy; inputs are plain float64 arrays.

Many masked least-squares solves over one (X, y) go through
`GramLeastSquares`, which forms X^T X, X^T y and y^T y once and solves
each column subset from its block of the Gram matrix alone ("leaps and
bounds", Furnival & Wilson 1974), without touching X again.  Blocks that
are not safely positive definite fall back to `solve_least_squares`, the
SVD-based reference.
"""

from __future__ import annotations

import json
import math
import os
import re

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


_NEWLINE = re.compile(b"\n")


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
    return _decode_instance(data), data


def _decode_instance(data):
    """The document of an instance file's bytes, as `read_instance`
    describes it."""
    view = memoryview(data)
    match = _NEWLINE.search(view)
    end = match.start() if match else -1
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


def masked_l0_cost(y, t):
    """Count of active entries of y falling outside the support of t.

    t is a 0/1 vector; the cost is the l0 norm of y restricted to the
    positions where t is 0.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if y.shape != t.shape:
        raise DimensionError("y and t must have the same length")
    return int(np.count_nonzero((t == 0) & (np.abs(y) > 0)))


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
# The squared loss y^T y - b^T theta loses the digits that y^T y and
# b^T theta share: below this fraction of y^T y (a fit that explains all
# but 1e-6 of y's energy) the loss is taken from the residual instead.
GRAM_CANCEL_RTOL = 1e-6


class GramLeastSquares:
    """Masked least squares for many masks over one fixed (X, y).

    X^T X, X^T y and y^T y are formed once; `solve(mask)` then works on
    the masked block G of the Gram matrix and the matching entries b of
    X^T y only.  It has the contract of `solve_least_squares`: it returns
    (theta, loss), theta is zero outside the mask and loss is the residual
    norm ||X theta - y||.

    theta solves G theta = b by one `np.linalg.solve`.  The loss is
    sqrt(y^T y - b^T theta), the residual norm of the exact solution, in
    O(|mask|) instead of the O(m |mask|) of forming X theta - y.  The
    subtraction cancels on near-noiseless fits, so where y^T y - b^T theta
    is below GRAM_CANCEL_RTOL times y^T y the loss is the explicit
    residual norm.  An empty mask gives theta = 0 and loss ||y||.

    G is also factored by Cholesky, but only as a test: a block whose
    factorisation fails, or whose smallest pivot is below GRAM_PIVOT_RTOL
    times the matching diagonal entry of G, is solved by
    `solve_least_squares` instead, which keeps the minimum-norm answer on
    rank-deficient and ill-conditioned masks.
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

    def solve(self, mask):
        mask = np.asarray(mask)
        d = self.X.shape[1]
        if mask.shape != (d,):
            raise DimensionError("mask length must equal the number of columns of X")
        theta = np.zeros(d)
        cols = np.flatnonzero(mask)
        if not cols.size:
            return theta, float(np.linalg.norm(self.y))
        # Two takes copy the block with less overhead than np.ix_.
        block = self.gram.take(cols, 0).take(cols, 1)
        try:
            L = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:  # not positive definite
            L = None
        if L is None or (L.diagonal() ** 2 / block.diagonal()).min() < GRAM_PIVOT_RTOL:
            return solve_least_squares(self.X, self.y, mask)
        b = self.xty[cols]
        sol = np.linalg.solve(block, b)
        theta[cols] = sol
        squared = self.yty - float(b @ sol)
        if squared < GRAM_CANCEL_RTOL * self.yty:
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
# Floor of the diagonal entry a HALS update divides by, so an all-zero
# column of W or row of H stays as it is instead of dividing 0 by 0.
NMF_EPS = 1e-12


def nmf_multiplicative(A, k, mask, iters, rng, on_iteration=None):
    """Masked NMF by masked HALS for the Frobenius objective.

    The name stays because `benchmarks/tracer.py` wraps this function by
    name and reads its `iters` argument; the kernel is no longer the
    multiplicative update.  HALS (hierarchical alternating least squares;
    Cichocki & Phan, IEICE 2009; Gillis & Glineur, Neural Computation
    2012) minimises the objective exactly over one row of H or one column
    of W at a time, in place.  A sweep updates the rows of H in order
    l = 0..k-1 in scaled form: with d = max(diag(W^T W), NMF_EPS),
    B = W^T A / d and G = W^T W / d - I (row l divided by d[l]),

        H[l] = max(0, B[l] - G[l] H).

    G[l, l] is 0 unless the floor applies, so this is the update
    H[l] + (W^T A[l] - W^T W[l] H) / d[l], rounded differently.  The
    columns of W are then updated the same way against A H^T and H H^T,
    with B = -inf wherever the binary mask is 0, so those entries come
    out exactly 0.

    W (n x k) and H (k x m) are initialised uniformly in (0, 1] from rng,
    W first, then W is projected onto the binary mask (W *= mask), so
    masked positions are exactly 0 throughout.  Returns (W, H, loss) with
    loss = ||A - W H||_F (unsquared).

    iters is a cap on sweeps.  Every NMF_CHECK_EVERY sweeps the loss is
    checked, and the run stops once it fell by at most NMF_STOP_RTOL
    relative since the previous check (prev - loss <= NMF_STOP_RTOL * prev,
    so an exact fit stops too).  A stopped run is a bit-identical prefix of
    a run of all iters sweeps.

    on_iteration, if given, is called as on_iteration(it, W, H, loss) after
    each sweep that ran (views, do not mutate).
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
    # W is held as its transpose, so a column of W is a contiguous row.
    Wt = W.T.copy()
    W = Wt.T
    # Work buffers and their row views, made once per call: a sweep and a
    # loss check then allocate nothing that grows with n or m.
    eye = np.eye(k)
    sentinel = np.where(mask.T == 0, -np.inf, 0.0)
    B_h, G_h, t_h = np.empty((k, m)), np.empty((k, k)), np.empty(m)
    B_w, G_w, t_w = np.empty((k, n)), np.empty((k, k)), np.empty(n)
    rows_h, rows_w = list(zip(G_h, B_h, H)), list(zip(G_w, B_w, Wt))
    R = np.empty((n, m))

    def residual():
        np.dot(W, H, out=R)
        np.subtract(A, R, out=R)
        return frobenius(R)

    prev = None
    for it in range(iters):
        np.dot(Wt, A, out=B_h)
        np.dot(Wt, W, out=G_h)
        _hals_rows(H, B_h, G_h, rows_h, eye, t_h)
        np.dot(H, A.T, out=B_w)
        np.dot(H, H.T, out=G_w)
        _hals_rows(Wt, B_w, G_w, rows_w, eye, t_w, sentinel)
        if on_iteration is not None:
            on_iteration(it, W, H, residual())
        if (it + 1) % NMF_CHECK_EVERY == 0:
            loss = residual()
            if prev is not None and prev - loss <= NMF_STOP_RTOL * prev:
                return W, H, loss
            prev = loss
    return W, H, residual()


def _hals_rows(X, B, G, rows, eye, t, sentinel=None):
    """One HALS pass over the rows of X, in place, overwriting B and G.
    Row l in turn becomes the non-negative minimiser of
    1/2 <X, G X> - <B, X> over X[l] with the other rows fixed; entries
    where `sentinel` is -inf become 0.  rows holds the views
    (G[l], B[l], X[l]) and t is a scratch row.

    B and G are scaled row-wise by d = max(diag G, NMF_EPS) and G loses
    the identity, so each row is three in-place calls into t.  The -inf
    of the sentinel is only ever subtracted from, never multiplied, so it
    yields no NaN.
    """
    d = np.maximum(G.diagonal(), NMF_EPS)[:, None]
    B /= d
    G /= d
    G -= eye
    if sentinel is not None:
        B += sentinel
    for g, b, x in rows:
        np.dot(g, X, out=t)
        np.subtract(b, t, out=t)
        np.maximum(t, 0.0, out=x)
