import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagel.engine import (
    FAILED,
    LEAF,
    PRUNED,
    TRAINED,
    Decision,
    Incumbent,
    Problem,
    SearchStats,
    StopCondition,
    bagel_search,
    bound_prune,
    should_stop,
)
from bagel.numerics import make_rng


class TestBoundPrune:
    def test_dominated_node_pruned(self):
        assert bound_prune(0.22, 0.21)

    def test_no_incumbent_keeps(self):
        assert not bound_prune(0.14, None)

    def test_equal_loss_pruned(self):
        assert bound_prune(0.21, 0.21)


class TestShouldStop:
    def test_no_budgets(self):
        assert should_stop(SearchStats(nodes_opened=10 ** 6, wall_time=10 ** 6), None) is None

    def test_node_budget_inclusive(self):
        stats = SearchStats(nodes_opened=100)
        assert should_stop(stats, StopCondition(node_budget=100)) == "node_cap"
        assert should_stop(stats, StopCondition(node_budget=101)) is None

    def test_wall_budget(self):
        stats = SearchStats(wall_time=601.0)
        assert should_stop(stats, StopCondition(wall_seconds=600.0)) == "timeout"
        # a spent clock is named first
        assert should_stop(stats, StopCondition(wall_seconds=600.0, node_budget=0)) == "timeout"


class SubsetProblem(Problem):
    """Pick a binary subset of k items; loss of a partial state is the loss
    of its best completion's relaxation (min over free = item kept free).

    States are tuples in {0, 1, None}; the trained loss is the sum of per-item
    penalties for items fixed to 0 - an exact lower bound, so pruning is safe.
    A node is a leaf once everything is fixed.
    """

    def __init__(self, penalties):
        self.penalties = np.asarray(penalties, dtype=float)
        self.k = len(self.penalties)

    def root_state(self):
        return (None,) * self.k

    def generate(self, node):
        node.payload = node.state

    def train(self, node):
        return float(sum(p for s, p in zip(node.state, self.penalties) if s == 0))

    def is_leaf(self, node):
        return all(s is not None for s in node.state)

    def branch(self, node):
        i = node.state.index(None)
        return [Decision(i, 1, "x%d=1" % i), Decision(i, 0, "x%d=0" % i)]

    def apply(self, state, decision):
        out = list(state)
        out[decision.var] = decision.value
        return tuple(out)

    def extract(self, node):
        return node.state


class RootLeafProblem(SubsetProblem):
    def __init__(self):
        super().__init__([])

    def is_leaf(self, node):
        return True


class ParentSpyProblem(SubsetProblem):
    """Records, at each train, the node and what its parent link showed."""

    def __init__(self, penalties):
        super().__init__(penalties)
        self.seen = []

    def train(self, node):
        parent = node.parent
        self.seen.append((node, parent, parent.parent if parent else None,
                          parent.status if parent else None))
        return super().train(node)


class TestParentLink:
    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_train_sees_trained_parent_only(self, strategy):
        problem = ParentSpyProblem([1.0, 2.0, 0.5])
        bagel_search(problem, strategy=strategy, prune=False)
        root, *children = problem.seen
        assert root[0].trail == () and root[1] is None
        assert len(children) == 14
        for node, parent, grandparent, parent_status in children:
            assert parent.trail == node.trail[:-1]
            assert parent_status == TRAINED
            assert parent.trained_loss == node.parent_loss
            assert parent.payload == parent.state
            assert grandparent is None
        # The engine drops the link once a node is trained.
        assert all(node.parent is None for node, *_ in problem.seen)


class TestBagelSearch:
    def test_root_already_leaf(self):
        best, stats = bagel_search(RootLeafProblem())
        assert stats.nodes_opened == 1
        assert best is not None and best.node_id == 0
        assert stats.completed

    def test_node_budget_one_on_nonleaf_root(self):
        best, stats = bagel_search(SubsetProblem([1.0, 2.0]), stop=StopCondition(node_budget=1))
        assert best is None
        assert stats.stop == "node_cap" and not stats.completed
        assert stats.nodes_opened == 1

    def test_finds_optimum(self):
        best, stats = bagel_search(SubsetProblem([1.0, 2.0, 3.0]))
        assert best.loss == 0.0
        assert best.model == (1, 1, 1)
        assert stats.stop == "completed" and stats.completed

    def test_pruning_matches_no_pruning(self):
        rng = make_rng(1)
        for _ in range(10):
            penalties = rng.uniform(0, 2, int(rng.integers(1, 7)))
            with_p, _ = bagel_search(SubsetProblem(penalties), prune=True)
            without_p, _ = bagel_search(SubsetProblem(penalties), prune=False)
            assert with_p.loss == without_p.loss

    def test_node_count_bound(self):
        for k in range(1, 7):
            _, stats = bagel_search(SubsetProblem(np.zeros(k)), prune=False)
            assert stats.nodes_opened <= 2 ** (k + 1) - 1

    def test_incumbent_loss_non_increasing(self):
        leaves = []
        bagel_search(
            SubsetProblem([3.0, 1.0, 2.0]), prune=False,
            trace=lambda rec: leaves.append(rec) if rec["status"] == LEAF else None,
        )
        best_so_far = np.inf
        for rec in leaves:
            best_so_far = min(best_so_far, rec["loss"])
        # replaying the trace min matches the exhaustive optimum
        assert best_so_far == 0.0

    def test_dfs_explores_first_child_first(self):
        order = []
        bagel_search(
            SubsetProblem([1.0, 1.0]), prune=False,
            trace=lambda rec: order.append(tuple(rec["trail"])),
        )
        assert order[0] == ()
        assert order[1] == ("x0=1",)
        assert order[2] == ("x0=1", "x1=1")

    def test_best_first_strategy(self):
        best, stats = bagel_search(SubsetProblem([1.0, 2.0]), strategy="best-first")
        assert best.loss == 0.0
        assert stats.completed

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            bagel_search(SubsetProblem([1.0]), strategy="bogus")

    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    @pytest.mark.parametrize("prune", [True, False])
    def test_default_prune_filters_nothing(self, strategy, prune):
        # SubsetProblem leaves `prune` to the engine's default.
        assert "prune" not in vars(SubsetProblem)

        class ExplicitPrune(SubsetProblem):
            def prune(self, node):
                return True

        runs = []
        for cls in (SubsetProblem, ExplicitPrune):
            records = []
            best, stats = bagel_search(cls([1.0, 0.0, 2.0]), strategy=strategy, prune=prune,
                                       trace=records.append)
            runs.append((best, stats, records))
        (best, stats, records), (ref, ref_stats, ref_records) = runs
        assert (best.loss, best.model, records) == (ref.loss, ref.model, ref_records)
        assert stats.nodes_opened == ref_stats.nodes_opened and stats.completed
        assert stats.nodes_failed == 0

    def test_pruning_mode_string_rejected(self):
        # The switch is the bool `prune`; a mode string must not read as truthy.
        with pytest.raises(TypeError):
            bagel_search(SubsetProblem([1.0]), pruning="off")
        with pytest.raises(TypeError):
            bagel_search(SubsetProblem([1.0]), None, "dfs", "off")

    def test_trace_records_have_schema(self):
        records = []
        bagel_search(SubsetProblem([1.0]), trace=records.append)
        for rec in records:
            assert set(rec) == {"id", "depth", "trail", "loss", "bound", "status"}

    def test_stats_accounting(self):
        _, stats = bagel_search(SubsetProblem([1.0, 2.0, 3.0]))
        assert stats.nodes_opened >= stats.leaves + stats.nodes_pruned


class TestSeededIncumbent:
    def test_seed_no_leaf_beats_is_returned(self):
        seed = Incumbent(None, 0.0, "seed")
        records = []
        best, stats = bagel_search(SubsetProblem([1.0, 2.0]), trace=records.append,
                                   incumbent=seed)
        assert best is seed
        assert stats.completed and stats.leaves == 0 and stats.nodes_opened == 1
        # The root's loss reaches the seed (inclusive prune); the seed has no record.
        assert [(r["trail"], r["status"]) for r in records] == [([], "pruned")]

    def test_leaf_equal_to_seed_keeps_seed(self):
        seed = Incumbent(None, 0.0, "seed")
        best, stats = bagel_search(SubsetProblem([1.0, 2.0]), prune=False, incumbent=seed)
        assert best is seed
        assert stats.leaves == 4  # (1, 1) among them, at the seed's loss 0.0

    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_lower_leaf_replaces_seed(self, strategy):
        best, stats = bagel_search(SubsetProblem([1.0, 2.0]), strategy=strategy,
                                   incumbent=Incumbent(None, 1.5, "seed"))
        assert best.node_id is not None and best.loss == 0.0 and best.model == (1, 1)
        assert stats.completed

    def test_node_cap_zero_returns_seed(self):
        seed = Incumbent(None, 5.0, "seed")
        best, stats = bagel_search(SubsetProblem([1.0, 2.0]),
                                   stop=StopCondition(node_budget=0), incumbent=seed)
        assert best is seed
        assert stats.nodes_opened == 0 and not stats.completed


class BoundedSubsetProblem(SubsetProblem):
    """A SubsetProblem whose lower bound is its trained loss, computed
    without training: the penalties of the items fixed to 0 only grow
    down a branch.  Records each node the search asked for a bound."""

    def __init__(self, penalties):
        super().__init__(penalties)
        self.asked, self.trained = [], []

    def lower_bound(self, node):
        self.asked.append(node.trail)
        return super().train(node)

    def train(self, node):
        self.trained.append(node.trail)
        return super().train(node)


class TestLowerBound:
    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_bound_prunes_untrained_as_training_would(self, strategy):
        penalties = [0.5, 1.0, 0.0, 2.0]
        plain, bounded = [], []
        best, stats = bagel_search(SubsetProblem(penalties), strategy=strategy,
                                   trace=plain.append)
        problem = BoundedSubsetProblem(penalties)
        best_b, stats_b = bagel_search(problem, strategy=strategy, trace=bounded.append)
        assert [(r["trail"], r["status"]) for r in bounded] == [
            (r["trail"], r["status"]) for r in plain]
        assert (best_b.loss, best_b.model) == (best.loss, best.model)
        assert (stats_b.nodes_opened, stats_b.nodes_pruned, stats_b.leaves) == (
            stats.nodes_opened, stats.nodes_pruned, stats.leaves)
        # Every pruned node is pruned untrained, with its bound recorded.
        untrained = [r for r in bounded if r["loss"] is None]
        assert untrained and all(r["status"] == PRUNED and r["bound"] >= best.loss
                                 for r in untrained)
        assert stats.nodes_trained == stats.nodes_opened
        assert stats_b.nodes_trained == len(problem.trained) == stats.nodes_opened - len(untrained)
        assert all(r["bound"] is None for r in plain)  # -inf is recorded as null

    def test_asked_only_when_pruning_with_an_incumbent(self):
        problem = BoundedSubsetProblem([1.0, 2.0])
        records = []
        bagel_search(problem, prune=False, trace=records.append)
        assert problem.asked == [] and all(r["bound"] is None for r in records)
        problem = BoundedSubsetProblem([1.0, 2.0])
        bagel_search(problem, trace=records.append)
        # No incumbent until the first leaf, (1, 1) at loss 0, ends the
        # first dive; every later node is asked, and pruned untrained.
        one, zero = Decision(0, 1, "x0=1"), Decision(0, 0, "x0=0")
        assert problem.trained == [(), (one,), (one, Decision(1, 1, "x1=1"))]
        assert problem.asked == [(one, Decision(1, 0, "x1=0")), (zero,)]

    def test_seeded_incumbent_prunes_the_root_untrained(self):
        problem = BoundedSubsetProblem([1.0, 2.0])
        records = []
        best, stats = bagel_search(problem, trace=records.append,
                                   incumbent=Incumbent(None, 0.0, "seed"))
        assert best.model == "seed" and problem.trained == []
        assert stats.nodes_trained == 0 and stats.nodes_pruned == 1
        assert records == [{"id": 0, "depth": 0, "trail": [], "loss": None, "bound": 0.0,
                            "status": PRUNED}]


class RandomTreeProblem(SubsetProblem):
    """A SubsetProblem whose items take `values`, branched in that order,
    and where a state with more than `max_ones` items fixed to 1 fails."""

    def __init__(self, penalties, values, max_ones):
        super().__init__(penalties)
        self.values = values
        self.max_ones = max_ones

    def prune(self, node):
        return sum(s == 1 for s in node.state) <= self.max_ones

    def branch(self, node):
        i = node.state.index(None)
        return [Decision(i, v, "x%d=%d" % (i, v)) for v in self.values]


def preorder(problem, prune):
    """(id, trail, status) of every node, visited by recursion: a node,
    then each child's subtree in branch order.  Ids are handed out when a
    node branches, as the engine does."""
    visits, ids, best = [], itertools.count(1), None

    def visit(node_id, trail, state):
        nonlocal best
        node = SimpleNamespace(id=node_id, trail=trail, state=state, payload=None,
                               model=None, parent=None)
        labels = [d.label for d in trail]
        if not problem.prune(node):
            visits.append((node_id, labels, FAILED))
            return
        problem.generate(node)
        loss = problem.train(node)
        if prune and best is not None and loss >= best:
            visits.append((node_id, labels, PRUNED))
            return
        if problem.is_leaf(node):
            if best is None or loss < best:
                best = loss
            visits.append((node_id, labels, LEAF))
            return
        children = [(next(ids), trail + (d,), problem.apply(state, d))
                    for d in problem.branch(node)]
        visits.append((node_id, labels, TRAINED))
        for child in children:
            visit(*child)

    visit(0, (), problem.root_state())
    return visits


class TestDepthFirstOrder:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k=st.integers(0, 5), data=st.data(), prune=st.booleans(),
           cap=st.one_of(st.none(), st.integers(0, 40)))
    def test_visits_in_recursive_preorder(self, k, data, prune, cap):
        # Few distinct penalties, so losses tie and the inclusive prune fires.
        penalties = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                       min_size=k, max_size=k))
        values = data.draw(st.permutations([0, 1, 2])
                           .flatmap(lambda p: st.integers(1, 3).map(lambda n: p[:n])))
        problem = RandomTreeProblem(penalties, values, data.draw(st.integers(0, k)))
        records = []
        _, stats = bagel_search(problem, stop=StopCondition(node_budget=cap), prune=prune,
                                trace=records.append)
        expected = preorder(problem, prune)
        assert [(r["id"], r["trail"], r["status"]) for r in records] == expected[:cap]
        assert stats.stop == ("completed" if cap is None or cap >= len(expected) else "node_cap")
