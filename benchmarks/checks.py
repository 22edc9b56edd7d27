"""Output checks for `bagel solve` results, and the reference they compare to.

A solve whose output fails a check counts as failed, so a fast wrong
answer cannot pass for a speed-up.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

LOSS_RTOL = 1e-9  # same relative tolerance as the brute-force acceptance criterion
SD_METHODS = ("bagel", "l2_br", "l2_or")


def smart_design_reference(X, y, feature_owner, weights, bound):
    """Optimum train loss of one fold, by a search that shares no code
    with bagel's engine.

    Components are decided in index order, include first.  Least-squares
    loss never rises as columns are added, so the loss over every
    component still allowed bounds each completion from below, and once
    the allowed components fit the strict budget together they are the
    best completion.  feature_owner[j] is the component of column j.  Each
    set is solved through the normal equations; its loss is the residual
    norm, which to first order does not feel the solve's error.
    """
    weights = np.asarray(weights, dtype=float)
    columns = [np.flatnonzero(feature_owner == i) for i in range(len(weights))]
    G, b = X.T @ X, X.T @ y

    def loss(allowed):
        cols = np.concatenate([columns[i] for i in allowed] + [np.zeros(0, dtype=int)])
        theta = np.linalg.solve(G[np.ix_(cols, cols)], b[cols]) if cols.size else cols
        return float(np.linalg.norm(X[:, cols] @ theta - y))

    best = math.inf

    def visit(i, allowed, chosen_weight, allowed_loss):
        nonlocal best
        if allowed_loss >= best:
            return
        if weights[allowed].sum() < bound:
            best = allowed_loss
            return
        # Component i is the first undecided one, so it is still allowed.
        if chosen_weight + weights[i] < bound:
            visit(i + 1, allowed, chosen_weight + weights[i], allowed_loss)
        rest = [j for j in allowed if j != i]
        visit(i + 1, rest, chosen_weight, loss(rest))

    everything = list(range(len(weights)))
    visit(0, everything, 0.0, loss(everything))
    return best


def smart_design_problems(rows, reference):
    """Check the CSV rows of one smart-design solve.

    reference[fold] is the exact optimum train loss of that fold.  Per
    fold: all three methods have a row, the bagel row is complete, its
    loss is no higher than either greedy baseline's and equals the
    reference, each within LOSS_RTOL relative.
    """
    problems = []
    by_key = {(r["method"], int(r["fold"])): r for r in rows}
    if len(by_key) != len(rows) or len(rows) != len(SD_METHODS) * len(reference):
        problems.append("expected %d rows, got %d" % (len(SD_METHODS) * len(reference), len(rows)))
    for fold, ref in enumerate(reference):
        missing = [m for m in SD_METHODS if (m, fold) not in by_key]
        if missing:
            problems.append("fold %d: no row for %s" % (fold, ", ".join(missing)))
            continue
        bagel = by_key["bagel", fold]
        loss = float(bagel["train_loss"])
        if bagel["completed"] != "true":
            problems.append("fold %d: bagel search did not complete" % fold)
        for method in ("l2_br", "l2_or"):
            base = float(by_key[method, fold]["train_loss"])
            if not loss <= base * (1.0 + LOSS_RTOL):
                problems.append("fold %d: bagel loss %r above %s loss %r" % (fold, loss, method, base))
        if not abs(loss - ref) <= LOSS_RTOL * ref:
            problems.append("fold %d: bagel loss %r differs from the optimum %r" % (fold, loss, ref))
    return problems


def prior_nmf_problems(rows, assignment, k, planted, capped):
    """Check the CSV row of one prior-nmf solve.

    assignment is the incumbent's topic per column as the search returned
    it.  It must hold k pairwise distinct topics; the row's best_loss must
    be finite, its recovery must match the assignment, and the search
    must have completed unless the workload caps the node count.
    """
    if len(rows) != 1:
        return ["expected 1 row, got %d" % len(rows)]
    row = rows[0]
    problems = []
    if not math.isfinite(float(row["best_loss"])):
        problems.append("best_loss %s is not finite" % row["best_loss"])
    if not capped and row["completed"] != "true":
        problems.append("search did not complete")
    if assignment is None or len(assignment) != k or len(set(assignment)) != k:
        problems.append("assignment %r is not %d distinct topics" % (assignment, k))
    elif planted:
        expected = len(set(assignment) & set(planted)) / k
        if float(row["recovery"]) != expected:
            problems.append("recovery %s, assignment gives %r" % (row["recovery"], expected))
    return problems
