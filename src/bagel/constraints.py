"""Variable domains and the constraint layer.

A 0/1 variable's domain is one ZERO / ONE / BOTH code, so a node's
domains are one int8 array.  Extended table constraints whose cost is any
callable c(y, t), the budget rule and its propagation, pairwise
alldifferent filtering of plain sets, and the encodings of norm-ball /
budget-selection constraints as extended tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DimensionError, lp_distance, masked_l0_cost

# Domain codes of a 0/1 variable: fixed to 0, fixed to 1, or free
ZERO, ONE, BOTH = 0, 1, 2

MAX_COMPONENTS = 25
MAX_ET_ARITY = 10 ** 6


class CapacityError(ValueError):
    """Requested enumeration or table would blow past the hard size guards."""


def MASKED_L0(y, t):
    """c(y, t) = number of active entries of y outside supp(t)."""
    return float(masked_l0_cost(y, t))


def lp_cost(p):
    """c(y, t) = ||y - t||_p."""
    return lambda y, t: lp_distance(y, t, p)


def masked_lp_cost(p):
    """c(y, t) = ||y * (1 - t)||_p, for a binary t."""
    def cost(y, t):
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        if y.shape != t.shape:
            raise DimensionError("y and t must have the same length")
        masked = y * (1.0 - t)
        return lp_distance(masked, np.zeros_like(masked), p)

    return cost


@dataclass(frozen=True)
class ExtendedTable:
    """Table of candidate tuples with a cost function and slack threshold.

    A vector y satisfies the constraint iff some tuple t in the table has
    cost(y, t) <= threshold.
    """

    arity: int
    tuples: np.ndarray  # (n_tuples, arity)
    cost: Callable  # (y, t) -> float
    threshold: float

    def __post_init__(self):
        t = np.asarray(self.tuples, dtype=float)
        if t.ndim != 2 or t.shape[1] != self.arity:
            raise DimensionError("tuples must be 2-d with row length = arity")
        if self.threshold < 0:
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
    y = np.asarray(y, dtype=float)
    if y.shape != (et.arity,):
        raise DimensionError("y length must equal the table arity")
    for idx, t in enumerate(et.tuples):
        if et.cost(y, t) <= et.threshold:
            return True, idx
    return False, None


def et_rank_tuples(y, et, order_cost):
    """All tuple indices with their order_cost, ascending, ties by index."""
    y = np.asarray(y, dtype=float)
    if y.shape != (et.arity,):
        raise DimensionError("y length must equal the table arity")
    ranked = [(idx, order_cost(y, t)) for idx, t in enumerate(et.tuples)]
    ranked.sort(key=lambda pair: (pair[1], pair[0]))
    return ranked


def encode_norm_ball_as_et(p, lam, dim):
    """||theta||_p <= lam as a single-tuple extended table."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return ExtendedTable(dim, np.zeros((1, dim)), lp_cost(p), lam)


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
    sizes_weights = [(int(size), float(weight)) for size, weight in components]
    if len(sizes_weights) > MAX_COMPONENTS:
        raise CapacityError("too many components")
    arity = sum(s for s, _ in sizes_weights)
    if arity > MAX_ET_ARITY:
        raise CapacityError("expanded table arity exceeds %d" % MAX_ET_ARITY)
    weights = np.array([w for _, w in sizes_weights])
    feasible = enumerate_budget_feasible(weights, bound)
    rows = np.empty((len(feasible), arity))
    for r, u in enumerate(feasible):
        rows[r] = np.concatenate(
            [np.full(size, bit, dtype=float) for (size, _), bit in zip(sizes_weights, u)]
        )
    return ExtendedTable(arity, rows, MASKED_L0, 0.0)


def budget_propagate(state, weights, bound):
    """Fix to ZERO every free variable that can no longer fit the budget.

    state is an int8 array of domain codes, filtered in place.  A free
    variable is fixed when the committed (ONE-fixed) weights plus its own
    fail `within_budget`; the exact total never falls as weights are
    added, so no completion that sets it fits either.  Returns (fixings,
    failed); failed means the committed weights alone fail the rule.  One
    pass reaches the fixpoint, as a fixing to ZERO leaves the committed
    set as it was.
    """
    codes = state.tolist()
    weights = np.asarray(weights, dtype=float).tolist()
    committed = [w for w, code in zip(weights, codes) if code == ONE]
    if not within_budget(committed, bound):
        return [], True
    drop = [i for i, (w, code) in enumerate(zip(weights, codes))
            if code == BOTH and not within_budget(committed + [w], bound)]
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
