"""Variable domains and the constraint layer.

A 0/1 variable's domain is one ZERO / ONE / BOTH code, so a node's
domains are one int8 array.  An extended table is its tuple matrix, its
arity the matrix's width, with a cost c(y, t) and a threshold; the
masked-l0 and p-norm costs take one tuple or the whole table (tuples on
the last axis) and return one cost per row.  Also the budget rule and
its propagation, and the encodings of norm-ball / budget-selection
constraints as extended tables.  No search calls the pairwise
alldifferent filter of plain sets; it stays only because
`benchmarks/tracer.py` wraps it by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DimensionError, DomainError

# Domain codes of a 0/1 variable: fixed to 0, fixed to 1, or free
ZERO, ONE, BOTH = 0, 1, 2

MAX_COMPONENTS = 25
MAX_ET_ARITY = 10 ** 6
# `budget_propagate` tests a weight by the exact rule where total + w lies
# within this many times |total| + |bound| of the bound: 8 ulps, where
# the roundings that can part it from the exact sum's rounding take one.
BUDGET_NEAR_RTOL = 8 * math.ulp(1.0)


class CapacityError(ValueError):
    """Requested enumeration or table would blow past the hard size guards."""


def _pair(y, t):
    """y and t as float arrays, t one tuple of y's length or a table of
    them, one per row."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.shape[-1:] != y.shape:
        raise DimensionError("y and t must have the same length")
    return y, t


def _check_p(p):
    """A DomainError unless p is 0, a real >= 1 or inf: NaN and reals below
    1 give no norm."""
    if not (p == 0 or p >= 1):  # `not >=` also rejects NaN
        raise DomainError("p must be >= 1, inf, or 0, got %r" % (p,))


def _lp_norm(d, p):
    """p-norm of d over its last axis (a float, or one per row), for a p
    `_check_p` accepts; p = 0 counts the nonzero entries."""
    if p == 0:
        norm = np.count_nonzero(d, axis=-1)
    elif np.isinf(p):
        norm = np.max(np.abs(d), axis=-1, initial=0.0)
    else:
        norm = np.sum(np.abs(d) ** p, axis=-1) ** (1.0 / p)
    return norm.astype(float) if np.ndim(norm) else float(norm)


def MASKED_L0(y, t):
    """c(y, t) = number of active entries of y outside supp(t), per row of t."""
    y, t = _pair(y, t)
    return _lp_norm((t == 0) & (np.abs(y) > 0), 0)


def lp_cost(p):
    """c(y, t) = ||y - t||_p, per row of t.  p is checked here, once."""
    _check_p(p)
    return lambda y, t: _lp_norm(np.subtract(*_pair(y, t)), p)


def masked_lp_cost(p):
    """c(y, t) = ||y * (1 - t)||_p, per row of a binary t.  p is checked
    here, once."""
    _check_p(p)

    def cost(y, t):
        y, t = _pair(y, t)
        return _lp_norm(y * (1.0 - t), p)

    return cost


@dataclass(frozen=True, eq=False)
class ExtendedTable:
    """A matrix of candidate tuples, one per row, with a cost function
    and a slack threshold.

    A vector y satisfies the constraint iff some tuple t in the table has
    cost(y, t) <= threshold.  The cost is evaluated on the whole matrix:
    like the costs above, it checks y's length and returns one cost per row.
    """

    tuples: np.ndarray  # (n_tuples, arity)
    cost: Callable  # (y, tuple or table) -> one cost per row
    threshold: float
    arity = property(lambda self: self.tuples.shape[1])

    def __post_init__(self):
        t = np.asarray(self.tuples, dtype=float)
        if t.ndim != 2:
            raise DimensionError("tuples must be 2-d, one tuple per row")
        if not self.threshold >= 0:  # `not >=` also rejects NaN
            raise ValueError("threshold must be >= 0")
        object.__setattr__(self, "tuples", t)


def budget_total(weights):
    """Total of the selected components' weights, exactly rounded
    (`math.fsum`): the same in any order, and never lower for a superset."""
    return math.fsum(weights)


def within_budget(weights, bound):
    """The budget rule: the selected components' weights total below the
    bound.  Every feasibility test of a selection goes through here."""
    return budget_total(weights) < bound


def et_satisfied(y, et):
    """Check membership up to the table's threshold.

    Returns (satisfied, witness) where witness is the lowest-index tuple
    achieving cost <= threshold, or None.
    """
    hits = np.flatnonzero(et.cost(y, et.tuples) <= et.threshold)
    return (True, int(hits[0])) if hits.size else (False, None)


def et_rank_tuples(y, et, order_cost):
    """All tuple indices with their order_cost, ascending, ties by index.
    order_cost is evaluated on the whole table, like a table's cost."""
    costs = order_cost(y, et.tuples)
    order = np.argsort(costs, kind="stable")
    return list(zip(order.tolist(), costs[order].tolist()))


def encode_norm_ball_as_et(p, lam, dim):
    """||theta||_p <= lam as a single-tuple extended table."""
    if not lam >= 0:  # `not >=` also rejects NaN
        raise ValueError("lam must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return ExtendedTable(np.zeros((1, dim)), lp_cost(p), lam)


def enumerate_budget_feasible(weights, bound):
    """All 0/1 selections within the budget, in lexicographic order."""
    weights = np.asarray(weights, dtype=float)
    k = len(weights)
    if k > MAX_COMPONENTS:
        raise CapacityError("refusing to enumerate more than %d variables" % MAX_COMPONENTS)
    if np.any(weights < 0):
        raise ValueError("weights must be >= 0")
    w = weights.tolist()
    return [u for u in itertools.product((0, 1), repeat=k)
            if within_budget(itertools.compress(w, u), bound)]


def encode_smart_design_as_et(components, bound):
    """Budget-coupled support selection as an extended table over features.

    Each feasible component selection is expanded into a feature-level
    binary tuple (a component's bit replicated over its input size); a
    parameter vector satisfies the table at threshold 0 iff its support is
    covered by some feasible selection.  components are (size, weight)
    pairs.
    """
    sizes = [int(size) for size, _ in components]
    if len(sizes) > MAX_COMPONENTS:
        raise CapacityError("too many components")
    if sum(sizes) > MAX_ET_ARITY:
        raise CapacityError("expanded table arity exceeds %d" % MAX_ET_ARITY)
    feasible = enumerate_budget_feasible([weight for _, weight in components], bound)
    bits = np.array(feasible, dtype=float).reshape(len(feasible), len(sizes))
    return ExtendedTable(np.repeat(bits, sizes, axis=1), MASKED_L0, 0.0)


def budget_propagate(state, weights, bound):
    """Fix to ZERO every free variable that can no longer fit the budget.

    state is an int8 array of domain codes, filtered in place.  A free
    variable is fixed when the committed (ONE-fixed) weights plus its own
    fail `within_budget`; the exact total never falls as weights are
    added, so no completion that sets it fits either.  Returns (fixings,
    failed); failed means the committed weights alone fail the rule.  One
    pass reaches the fixpoint, as a fixing to ZERO leaves the committed
    set as it was.

    The committed weights are totalled once, exactly rounded.  A free
    weight w is then tested as total + w >= bound in floats.  That can
    differ from the rule only where the bound lies between total + w and
    the rounding of the exact sum, at most one ulp of |total| + |bound|
    apart; the weights whose total + w lies within BUDGET_NEAR_RTOL times
    that of the bound, if any, take `within_budget(committed + [w],
    bound)` itself.
    """
    codes = state.tolist()
    weights = np.asarray(weights, dtype=float).tolist()
    committed = [w for w, code in zip(weights, codes) if code == ONE]
    total = budget_total(committed)
    if not total < bound:
        return [], True
    near = BUDGET_NEAR_RTOL * (abs(total) + abs(bound))
    # `not >` sends a NaN sum to the rule.  At 20 components this loop
    # takes less time than a numpy test of the free weights.
    drop = [i for i, (w, code) in enumerate(zip(weights, codes)) if code == BOTH and (
        total + w >= bound if abs(total + w - bound) > near
        else not within_budget(committed + [w], bound))]
    if drop:
        state[drop] = ZERO
    return [(i, ZERO) for i in drop], False


def alldifferent_filter(domains):
    """Pairwise-decomposition alldifferent filtering to fixpoint.

    domains is a list of sets, filtered in place: a singleton removes its
    value from every other set.  Returns (pruned, failed) where pruned
    lists (var, removed values); failed means a set emptied or two
    singletons collide.  Prior-nmf keeps its free columns in one shared
    set, so no search calls this: it stays only because
    `benchmarks/tracer.py` wraps it by name.
    """
    removed = {i: [] for i in range(len(domains))}
    changed = True
    while changed:
        changed = False
        for i, d in enumerate(domains):
            if len(d) != 1:
                continue
            (v,) = d
            for j, other in enumerate(domains):
                if j == i:
                    continue
                if other == d:
                    pruned = [(k, vals) for k, vals in removed.items() if vals]
                    return pruned, True
                if v in other:
                    other.discard(v)
                    removed[j].append(v)
                    changed = True
                    if not other:
                        pruned = [(k, vals) for k, vals in removed.items() if vals]
                        return pruned, True
    pruned = [(k, vals) for k, vals in removed.items() if vals]
    return pruned, False
