"""Generic branch / generate / train tree search.

Each node carries a domain snapshot owned by the problem.  Processing a
node runs, in order: problem filtering (prune), subproblem generation,
the problem's lower bound against the incumbent, training, bound pruning
of the trained loss against the incumbent, the leaf test, and finally
branching.  A node the lower bound prunes is never trained.  The frontier
is one heap; the default key makes it depth-first, so the first branch
decision is explored first.
"""

from __future__ import annotations

import heapq
import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, List, Optional

# Node statuses
OPEN = "open"
TRAINED = "trained"
LEAF = "leaf"
PRUNED = "pruned"
FAILED = "failed"

CHILD_LOSS_TOL = 1e-9

# The frontier heap pops the lowest key; ids are unique, so nodes are never
# compared.  A DFS frontier holds at most one sibling group per depth, so the
# deepest node with the lowest id is the next node of a recursive pre-order.
# The root's best-first key holds None, but the root is alone on the heap.
FRONTIER_KEYS = {
    "dfs": lambda node: (-node.depth, node.id),
    "best-first": lambda node: (node.parent_loss, node.id),
}


@dataclass(frozen=True)
class Decision:
    var: int
    value: int
    label: str


class Node:
    __slots__ = (
        "id", "depth", "trail", "state", "payload", "trained_loss",
        "model", "status", "parent_loss", "parent",
    )

    def __init__(self, node_id, depth, trail, state, parent_loss=None, parent=None):
        self.id = node_id
        self.depth = depth
        self.trail = trail  # tuple of Decision
        self.state = state
        self.payload = None  # generated subproblem data (e.g. a mask)
        self.trained_loss = None
        self.model = None
        self.status = OPEN
        self.parent_loss = parent_loss
        # The trained parent, held only until this node is trained: a
        # frontier node keeps one ancestor alive, never a chain of them.
        self.parent = parent

    def trail_labels(self):
        return [d.label for d in self.trail]


@dataclass
class Incumbent:
    node_id: Optional[int]  # None for an incumbent the caller seeded
    loss: float
    model: Any


@dataclass
class StopCondition:
    wall_seconds: Optional[float] = None
    node_budget: Optional[int] = None

    def __post_init__(self):
        # `not >=` also rejects NaN.
        if self.wall_seconds is not None and not self.wall_seconds >= 0:
            raise ValueError("timeout must be >= 0 seconds, got %r" % self.wall_seconds)
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError("node cap must be >= 0, got %r" % self.node_budget)


@dataclass
class SearchStats:
    nodes_opened: int = 0
    nodes_trained: int = 0
    nodes_pruned: int = 0
    nodes_failed: int = 0
    leaves: int = 0
    wall_time: float = 0.0
    # Why the search ended: "completed" (the frontier ran empty),
    # "node_cap" or "timeout"; None while it runs.
    stop: Optional[str] = None
    warnings: List[str] = field(default_factory=list)

    @property
    def completed(self):
        return self.stop == "completed"


class Problem(ABC):
    """Contract every searchable problem implements.

    Child states must be monotonically restrictive: applying a decision
    only shrinks the reachable model space, so trained losses never
    decrease down a branch (up to solver noise).
    """

    @abstractmethod
    def root_state(self):
        ...

    @abstractmethod
    def prune(self, node) -> bool:
        """Filter node.state in place; return False if the node failed."""

    @abstractmethod
    def generate(self, node) -> None:
        """Build the restricted subproblem; store it on node.payload."""

    @abstractmethod
    def train(self, node) -> float:
        """Optimise the generated subproblem; store the model, return loss.

        node.parent is the trained parent (its payload, model and
        trained_loss set), or None at the root.  It is read-only here, and
        the engine drops it once train returns.
        """

    def lower_bound(self, node) -> float:
        """A lower bound, given the generated node.payload, on the trained
        loss of this node and of every leaf below it; -inf (the default)
        bounds nothing.  The search asks for it only when it prunes and has
        an incumbent, and prunes the node untrained when the bound reaches
        the incumbent's loss."""
        return -math.inf

    @abstractmethod
    def is_leaf(self, node) -> bool:
        ...

    @abstractmethod
    def branch(self, node) -> List[Decision]:
        """Ordered child decisions; first entry is explored first (DFS)."""

    @abstractmethod
    def apply(self, state, decision):
        """Return a fresh child state = copy of state with decision applied."""

    @abstractmethod
    def extract(self, node):
        """Map the trained subproblem solution back to a full assignment."""


def bound_prune(node_loss, incumbent_loss):
    """True when the node cannot beat the best leaf found so far (inclusive)."""
    return incumbent_loss is not None and node_loss >= incumbent_loss


def should_stop(stats, stop):
    """The reason the search must stop now, "timeout" or "node_cap", or
    None when it may go on."""
    if stop is None:
        return None
    if stop.wall_seconds is not None and stats.wall_time >= stop.wall_seconds:
        return "timeout"
    if stop.node_budget is not None and stats.nodes_opened >= stop.node_budget:
        return "node_cap"
    return None


def bagel_search(problem, stop=None, strategy="dfs", *, prune=True, trace=None,
                 incumbent=None):
    """Run the tree search; returns (best incumbent or None, stats).

    strategy: "dfs" (default) or "best-first" (by parent trained loss).
    prune: bound-prune nodes against the incumbent, by the problem's
    `lower_bound` before training and by the trained loss after.  With
    prune=False the search visits every feasible leaf, which is the
    exhaustive search when the trained loss is only an approximate bound.
    trace: optional callable receiving one dict per processed node: its
    "loss" is null where the node was not trained, and its "bound" is the
    `lower_bound` value where the search asked for one and it was finite,
    else null (so the record stays strict JSON).
    incumbent: optional seed, an `Incumbent` with node_id None whose model
    is a feasible solution of the problem found another way.  The search
    starts from it, so a leaf replaces it only with a strictly lower loss
    and a node whose loss reaches it is pruned.  When no leaf beats it, the
    seed itself is returned: it has no trace record, `stats.leaves` may be
    0, and `stats.nodes_opened` still counts the nodes the search opened
    (0 under a node cap of 0).
    """
    key = FRONTIER_KEYS.get(strategy)
    if key is None:
        raise ValueError("unknown strategy %r" % strategy)

    t0 = time.perf_counter()
    stats = SearchStats()
    next_id = 1
    root = Node(0, 0, (), problem.root_state())
    frontier = [(key(root), root)]

    while frontier:
        stats.wall_time = time.perf_counter() - t0
        stats.stop = should_stop(stats, stop)
        if stats.stop is not None:
            break
        _, node = heapq.heappop(frontier)
        stats.nodes_opened += 1
        bound = None

        if not problem.prune(node):
            node.status = FAILED
            stats.nodes_failed += 1
        else:
            problem.generate(node)
            if prune and incumbent is not None:
                bound = problem.lower_bound(node)
                if bound_prune(bound, incumbent.loss):
                    node.status = PRUNED
                    stats.nodes_pruned += 1
        if node.status is OPEN:
            loss = problem.train(node)
            node.parent = None
            node.trained_loss = loss
            node.status = TRAINED
            stats.nodes_trained += 1
            if node.parent_loss is not None and loss < node.parent_loss - CHILD_LOSS_TOL * max(
                1.0, abs(node.parent_loss)
            ):
                stats.warnings.append("node %d loss %.12g below parent loss %.12g"
                                      % (node.id, loss, node.parent_loss))
            if prune and bound_prune(loss, incumbent.loss if incumbent else None):
                node.status = PRUNED
                stats.nodes_pruned += 1
            elif problem.is_leaf(node):
                node.status = LEAF
                stats.leaves += 1
                if incumbent is None or loss < incumbent.loss:
                    incumbent = Incumbent(node.id, loss, problem.extract(node))
            else:
                for decision in problem.branch(node):
                    child = Node(
                        next_id, node.depth + 1, node.trail + (decision,),
                        problem.apply(node.state, decision), parent_loss=loss, parent=node,
                    )
                    next_id += 1
                    heapq.heappush(frontier, (key(child), child))
        if trace is not None:
            trace({
                "id": node.id,
                "depth": node.depth,
                "trail": node.trail_labels(),
                "loss": node.trained_loss,
                "bound": bound if bound is not None and math.isfinite(bound) else None,
                "status": node.status,
            })

    stats.wall_time = time.perf_counter() - t0
    if stats.stop is None:
        stats.stop = "completed"
    return incumbent, stats
