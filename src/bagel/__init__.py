"""Branch-and-bound search over generated, trained learning subproblems.

Two built-in problems: budget-constrained component selection for linear
regression (smart_design) and prior-topic-constrained non-negative matrix
factorization (prior_nmf).
"""

from .engine import (
    Decision,
    Incumbent,
    Problem,
    SearchStats,
    StopCondition,
    bagel_search,
    bound_prune,
    should_stop,
)

__all__ = [
    "Decision",
    "Incumbent",
    "Problem",
    "SearchStats",
    "StopCondition",
    "bagel_search",
    "bound_prune",
    "should_stop",
]

__version__ = "0.7.0"
