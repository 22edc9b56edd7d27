"""Dense numeric kernels.

Masked least squares, masked NMF by masked HALS (hierarchical
alternating least squares; its `iters` is a cap on sweeps), and the
instance-file format: `write_instance` and `read_instance` are the only
code that knows it, and `integer` / `number` check the scalar fields
read from a file.  The writer pads the header line to a multiple of 8
bytes, so the reader takes a file or a pipe in one read and its arrays
are views of the bytes read.
All heavy lifting is numpy; inputs are plain float64 arrays.

Three passes read X, or some rows of it, in cache-sized blocks of rows
with `row_blocks`, so none copies X or the rows it reads: the finiteness
check of `matrix`, the Gram matrix below, and the scoring of held-out
rows in `smart_design.sd_evaluate`.

Many masked least-squares solves over one (X, y), or over some rows of
it, go through `GramLeastSquares`.  It forms X^T X, X^T y and y^T y of
those rows once, in one pass over the blocks of them, and solves the
full column set once, keeping the inverse Gram matrix and the root's
explicit residual.  Each column subset is then solved relative to that
root solve ("leaps and bounds", Furnival & Wilson 1974), by one solve the
size of the dropped columns or of the kept ones, whichever is smaller,
without touching X again.  Where the Gram
matrix is not safely positive definite, each subset is solved from its
own kept block and its loss is the explicit residual; blocks that are not
safely positive definite either fall back to `solve_least_squares`, the
SVD-based reference.
"""

from __future__ import annotations

import json
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
    already is one).  Finiteness is checked block by block (`row_blocks`),
    so the check allocates no boolean array the size of `data`."""
    a = np.asarray(data, dtype=float)
    if a.ndim != 2:
        raise DimensionError("expected a 2-d array, got shape %s" % (a.shape,))
    for _, block in row_blocks(a):
        if not np.isfinite(block).all():
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


# `row_blocks` reads X in blocks of at most this many bytes, so a block
# stays in L2 cache while it is worked on (blocked BLAS, Goto & van de
# Geijn, ACM TOMS 2008) and no copy of the rows it reads is made.
GRAM_BLOCK_BYTES = 1 << 20


def row_blocks(X, rows=None):
    """(start, block) for consecutive blocks of the rows `rows` of the 2-d
    float array X (an integer array of row indices; all rows when None):
    block is those rows' [start, start + len(block)) of X, as many rows as
    fit in GRAM_BLOCK_BYTES, at least one.  Where there are no rows, there
    is one empty block.

    Without `rows` a block is a view of X.  With them, every block is
    gathered into one buffer that is reused, so a block is valid until the
    next one is taken.  `rows` is checked here, once, before the first
    block: 1-d integers (else DimensionError) inside [0, len(X)) (else
    IndexError).  Each block is then gathered with mode="clip", which
    writes straight into the buffer; the default mode="raise" goes through
    a hidden temporary.
    """
    m, d = X.shape
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise DimensionError("rows must be a 1-d array of row indices")
        if rows.size and not (rows.min() >= 0 and rows.max() < m):
            raise IndexError("rows must lie in [0, %d)" % m)
    n = m if rows is None else len(rows)
    step = max(1, GRAM_BLOCK_BYTES // (X.itemsize * max(d, 1)))

    def blocks():
        buffer = None if rows is None else np.empty((min(step, n), d), X.dtype)
        for start in range(0, max(n, 1), step):
            stop = min(start + step, n)
            if rows is None:
                yield start, X[start:stop]
            else:
                yield start, np.take(X, rows[start:stop], 0, buffer[:stop - start], "clip")

    return blocks()


def write_instance(path, doc):
    """Write `doc` as an instance file.

    The file is one line of compact JSON, padded with spaces so that the
    line, its newline included, is a multiple of 8 bytes long, then the
    raw little-endian float64 bytes in C order of every top-level ndarray
    of `doc`, back to back.  In the header line each such array is
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
    line = json.dumps(header, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(line + b" " * (-(len(line) + 1) % 8) + b"\n")
        for a in arrays:
            fh.write(a.data)


def read_instance(path):
    """(doc, data) of the instance file at `path`: `data` is its bytes,
    read in one call, from a regular file or a pipe alike.

    A file `write_instance` wrote is a JSON header line and a tail of raw
    bytes.  Any other file is one JSON document whose arrays are nested
    lists, left as they are; an array object in it is an error.  Each
    array must lie inside the tail, and the arrays must fill the tail back
    to back in header order, with no byte left over.  Whether an array's
    shape fits its problem, and finiteness, are for `matrix` and `vector`.
    Each array decoded from the tail is as `_decode_array` describes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode_instance(data), data


# What JSON allows around a document; `bytes.strip()` would also strip
# \x0b and \x0c, which `json.loads` rejects.
_JSON_WHITESPACE = b" \t\n\r"


def _decode_instance(data):
    """The document of an instance file's bytes, as `read_instance`
    describes it."""
    end = data.find(b"\n")
    try:
        doc = json.loads(data[:end]) if end >= 0 else None
    except ValueError:  # a pretty-printed document
        doc = None
    if isinstance(doc, dict) and any(isinstance(v, dict) and "at" in v for v in doc.values()):
        tail = memoryview(data)[end + 1:]
    elif doc is not None and not data[end + 1:].strip(_JSON_WHITESPACE):
        tail = b""  # a one-line document: the line parsed was all of it
    else:
        doc, tail = json.loads(data), b""
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
    the immutable `tail` where its bytes are 8-byte aligned and native
    float64, else a writeable copy that owns its data.  The tail of a
    file `write_instance` wrote starts 8-byte aligned in the `bytes` it is
    read into, as CPython puts a `bytes` payload on a 16-byte boundary; a
    file with an unpadded header, or a big-endian host, gets copies of the
    same bits."""
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
    return a if a.flags.aligned and a.dtype.isnative else a.astype(float)


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
    """Masked least squares for many masks over one fixed (X, y), or over
    the rows `rows` of it (an integer array of row indices; all rows when
    None).

    X^T X, X^T y and y^T y of those rows are formed once; `solve(mask)`
    then works on the Gram matrix G, b = X^T y and quantities of the root
    solve (the full mask) only.  It has the contract of
    `solve_least_squares` on X[rows] and y[rows]: it returns (theta, loss),
    theta is zero outside the mask and loss is the residual norm
    ||X[rows] theta - y[rows]||.  An empty mask gives theta = 0 and loss
    ||y[rows]||.

    X is read in place and never copied whole.  G and b are summed over
    the blocks of `row_blocks(X, rows)`, in order; the first block's
    products start the sums.  y[rows] is gathered once (`self.y`), and
    y^T y is its dot product.  An explicit residual forms X theta over all
    rows of X and then takes `rows` of it: a fold's training rows are most
    of X, so that costs less than gathering them.  Only the SVD fallback
    below gathers X[rows], and only when it runs.

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
    every principal block passes.  Where G fails (fewer rows than
    columns, a duplicated or zero column, or a small pivot), the solver
    keeps nothing of the root, every mask takes the kept-block route, and
    the block G[S, S] is tested alone; a block that fails goes to
    `solve_least_squares`, which keeps the minimum-norm answer on
    rank-deficient and ill-conditioned masks.

    The loss is the explicit residual norm of the theta just computed
    where the root failed, since loss^2 then carries theta's rounding
    error at first order, and where loss^2 is below GRAM_CANCEL_RTOL
    times y^T y, a near-noiseless fit on which either formula above
    loses its digits.  Elsewhere it is the square root of loss^2.
    """

    def __init__(self, X, y, rows=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise DimensionError("X must be 2-d")
        if y.shape != (len(X),):
            raise DimensionError("y length must equal the number of rows of X")
        blocks = row_blocks(X, rows)
        if rows is not None:
            rows = np.asarray(rows)
            y = y[rows]
        self.X, self.y, self.rows = X, y, rows
        # One block, empty, where there are no rows: G and b are then 0.
        for start, block in blocks:
            gram, xty = block.T @ block, block.T @ y[start:start + len(block)]
            if start:
                self.gram += gram
                self.xty += xty
            else:
                self.gram, self.xty = gram, xty
        del block  # it may be a view of the gather buffer: free that now
        self.yty = float(y @ y)
        self.inverse = None
        if _pivots_pass(self.gram):
            self.inverse = np.linalg.inv(self.gram)
            self.theta0 = np.linalg.solve(self.gram, self.xty)
            r0 = self._residual(self.theta0)
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
                X = self.X if self.rows is None else self.X[self.rows]
                return solve_least_squares(X, self.y, mask)
            b = self.xty[cols]
            sol = np.linalg.solve(block, b)
            theta = np.zeros(d)
            theta[cols] = sol
            squared = self.yty - float(b @ sol)
        if self.inverse is None or squared < GRAM_CANCEL_RTOL * self.yty:
            return theta, self.residual_norm(theta)
        return theta, math.sqrt(squared)

    def residual_norm(self, theta):
        """||X[rows] theta - y[rows]||, formed explicitly in O(m d)."""
        return float(np.linalg.norm(self._residual(theta)))

    def _residual(self, theta):
        """X[rows] theta - y[rows], from X theta over all rows of X."""
        r = self.X @ theta
        if self.rows is not None:
            r = r[self.rows]
        r -= self.y
        return r


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
# The two constants are one per-sweep rate: a run stops once its loss
# fell by at most 1e-6 relative per sweep, measured over a 5-sweep
# window.  A 10-sweep window was sized for the multiplicative update,
# which converges slowly; HALS needs few sweeps from a warm start (Gillis
# & Glineur, Neural Computation 2012), so a child node started from its
# parent's factors usually stops at its second check, sweep 10.
NMF_STOP_RTOL = 5e-6
NMF_CHECK_EVERY = 5
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
