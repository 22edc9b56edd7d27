import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagel import constraints, numerics, prior_nmf
from bagel.engine import FAILED, LEAF, PRUNED, Node, StopCondition, bagel_search
from bagel.constraints import MASKED_L0, ExtendedTable
from bagel.numerics import frobenius, make_rng, nmf_multiplicative
from bagel.prior_nmf import (
    NmfInstance,
    NmfModel,
    PriorNmfProblem,
    TopicDB,
    TopicDecision,
    nmf_build_mask,
    nmf_generate_and_train,
    nmf_generate_instance,
    nmf_topic_recovery,
)
from bagel.smart_design import DesignSolution, sd_generate_instance
from oracles import random_start, sweep_losses


def small_db():
    return TopicDB(3, [np.array([1.0, 0, 1]), np.array([0, 1.0, 1]), np.array([1.0, 1, 0])])


class TestTopicDB:
    def test_rejects_duplicate_topics(self):
        with pytest.raises(ValueError):
            TopicDB(2, [np.array([1.0, 0]), np.array([1.0, 0])])

    def test_rejects_empty_topic(self):
        with pytest.raises(ValueError):
            TopicDB(2, [np.array([0.0, 0.0])])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            TopicDB(2, [np.array([0.5, 1.0])])

    def test_arrays_nested_lists_and_matrix_agree(self):
        rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        for db in (TopicDB(3, [np.array(r, dtype=float) for r in rows]), TopicDB(3, rows),
                   TopicDB(3, np.array(rows, dtype=float))):
            assert len(db) == 3
            assert np.array_equal(np.asarray(db.topics), rows)
            assert np.array_equal(db.as_table().tuples, rows)

    @pytest.mark.parametrize("topics, message", [
        ([[1, 0], [1]], "topic length must equal n_words"),
        ([[1, 0], [1, 1, 0]], "topic length must equal n_words"),
        (np.ones((2, 3)), "topic length must equal n_words"),
        ([[1, 0], [0, 0]], "every topic needs at least one word"),
        ([[1.0, 0.0], [1.0, -0.0]], "topics must be pairwise distinct"),
    ])
    def test_bad_rows_keep_their_messages(self, topics, message):
        with pytest.raises(ValueError, match=message):
            TopicDB(2, topics)

    def test_empty_database_fits_no_column(self):
        db = TopicDB(2, [])
        assert len(db) == 0
        with pytest.raises(ValueError, match="k cannot exceed the database size"):
            NmfInstance(A=np.ones((2, 1)), k=1, db=db)


@pytest.mark.parametrize("make", [
    lambda: TopicDB(2, [[1, 0], [0, 1]]),
    lambda: ExtendedTable(np.eye(2), MASKED_L0, 0.0),
    lambda: sd_generate_instance(10, 100, 0.6, 1),
    lambda: nmf_generate_instance(20, 4, 2, 50, seed=1),
    lambda: DesignSolution(np.ones(2), np.ones(2), 0.5),
    lambda: NmfModel([0, 1], np.ones((2, 2)), np.ones((2, 2)), 0.5),
], ids=["TopicDB", "ExtendedTable", "SmartDesignInstance", "NmfInstance", "DesignSolution",
        "NmfModel"])
def test_array_records_compare_by_identity(make):
    # Field-wise == would compare arrays elementwise and raise.
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


class TestBuildMask:
    def test_chosen_column_gets_its_topic(self):
        db = small_db()
        mask = nmf_build_mask((1,), frozenset({0, 2}), db, 2)
        assert np.array_equal(mask[:, 0], db.topics[1])
        assert np.all(mask[:, 1] == 1.0)

    def test_free_columns_are_or_of_remaining_topics(self):
        db = small_db()
        mask = nmf_build_mask((), frozenset({0, 1}), db, 1)
        assert np.array_equal(mask[:, 0], np.array([1.0, 1.0, 1.0]))
        mask = nmf_build_mask((2,), frozenset({1}), db, 3)
        assert np.array_equal(mask[:, 1], db.topics[1])
        assert np.array_equal(mask[:, 2], db.topics[1])

    def test_root_is_all_ones(self):
        db = TopicDB(3, [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        assert np.all(nmf_build_mask((), frozenset({0, 1}), db, 2) == 1.0)

    def test_all_chosen(self):
        db = small_db()
        mask = nmf_build_mask((0, 2), frozenset({1}), db, 2)
        assert np.array_equal(mask[:, 0], db.topics[0])
        assert np.array_equal(mask[:, 1], db.topics[2])

    def test_no_topic_left_is_contract_error(self):
        with pytest.raises(ValueError):
            nmf_build_mask((), frozenset(), small_db(), 1)


class TestGenerateAndTrain:
    def test_root_equals_vanilla_nmf(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=5, noise_sigma=0.0)
        W, H, loss, sweeps = nmf_generate_and_train(inst, [], iters=50)
        seq = np.random.SeedSequence([inst.seed, 0])
        start = random_start(inst.A, inst.k, make_rng(seq))
        Wv, Hv, lv, sv = nmf_multiplicative(inst.A, inst.k, np.ones((20, inst.k)), 50, start)
        assert np.array_equal(W, Wv)
        assert np.array_equal(H, Hv)
        assert (loss, sweeps) == (lv, sv)

    def test_planted_assignment_fits_noiseless_data(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=6, noise_sigma=0.0)
        _, _, loss, _ = nmf_generate_and_train(inst, inst.planted_topics, iters=2000)
        assert loss <= 1e-3 * np.linalg.norm(inst.A)

    def test_fixed_column_matches_topic_support_exactly(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=7, noise_sigma=0.0)
        j = inst.planted_topics[0]
        W, _, _, _ = nmf_generate_and_train(inst, [j], iters=100)
        assert MASKED_L0(W[:, 0], inst.db.topics[j]) == 0

    def test_depth_two_starts_from_the_trained_parent(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=5, noise_sigma=0.0)
        problem = PriorNmfProblem(inst, iters=50)
        node = Node(0, 0, (), problem.root_state())
        for pick in (1, 0):  # the second decision has excluded a sibling
            problem.generate(node)
            problem.train(node)
            decision = problem.branch(node)[pick]
            node = Node(node.id + 1, node.depth + 1, node.trail + (decision,),
                        problem.apply(node.state, decision), parent=node)
        parent = node.parent
        W_parent, H_parent = (x.copy() for x in parent.model)
        problem.generate(node)
        loss = problem.train(node)
        assert node.trail[0].excluded
        W, H, lv, _ = nmf_multiplicative(inst.A, inst.k, node.payload, 50,
                                         (W_parent * node.payload, H_parent))
        assert np.array_equal(node.model[0], W)
        assert np.array_equal(node.model[1], H)
        assert loss == lv
        # the parent's factors are read, not written
        assert np.array_equal(parent.model[0], W_parent)
        assert np.array_equal(parent.model[1], H_parent)


class TestProblemContract:
    def make_problem(self, seed=1, iters=60):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=seed, noise_sigma=0.0)
        return inst, PriorNmfProblem(inst, iters=iters)

    def test_leaf_detection(self):
        _, problem = self.make_problem()
        leaf = Node(0, 0, (), ((0, 1, 2, 3), frozenset({4, 5})))
        assert problem.is_leaf(leaf)
        one_left = Node(1, 0, (), ((0, 1, 2), frozenset({3})))
        assert problem.is_leaf(one_left)
        open_node = Node(2, 0, (), ((2,), frozenset({0, 1, 3, 4})))
        assert not problem.is_leaf(open_node)
        two_free = Node(3, 0, (), ((0, 1), frozenset({2, 3})))
        assert not problem.is_leaf(two_free)

    @staticmethod
    def root_branch(db, k, column):
        """The root's decisions for a parent whose W has `column` first."""
        problem = PriorNmfProblem(NmfInstance(A=np.ones((db.n_words, 4)), k=k, db=db), iters=5)
        node = Node(0, 0, (), problem.root_state())
        W = np.zeros((db.n_words, k))
        W[:, 0] = column
        node.model = (W, np.zeros((k, 4)))
        return problem.branch(node)

    def test_branch_orders_by_masked_l2(self):
        db = TopicDB(5, [np.array([0, 1, 1, 0, 1.0]), np.array([1, 1, 1, 0, 0.0])])
        column = [0.6, 0.3, 0.9, 0, 0]
        # With one column every candidate is kept: topic 1 covers the column
        # (cost 0); topic 0 leaves 0.6 outside.
        decisions = self.root_branch(db, 1, column)
        assert [d.value for d in decisions] == [1, 0]
        assert decisions[0].label == "s1=2"
        assert [d.excluded for d in decisions] == [frozenset(), frozenset({1})]
        # With two, topic 0's child would have no topic left for column 2.
        decisions = self.root_branch(db, 2, column)
        assert [(d.value, d.excluded) for d in decisions] == [(1, frozenset())]

    def test_branch_zero_column_tie_breaks_by_index(self):
        decisions = self.root_branch(small_db(), 1, 0.0)
        assert [d.value for d in decisions] == [0, 1, 2]
        assert [d.excluded for d in decisions] == [frozenset(), {0}, {0, 1}]
        decisions = self.root_branch(small_db(), 2, 0.0)
        assert [(d.value, d.excluded) for d in decisions] == [(0, frozenset()), (1, {0})]

    def test_apply_excludes_earlier_siblings_from_later_columns(self):
        _, problem = self.make_problem()
        state = ((0,), frozenset(range(1, 6)))
        child = problem.apply(state, TopicDecision(1, 3, "s2=4", frozenset({1, 4})))
        assert child == ((0, 3), frozenset({2, 5}))
        assert state == ((0,), frozenset(range(1, 6)))

    @pytest.mark.parametrize("chosen, remaining", [
        ((), range(6)),
        ((0,), {1, 2, 3, 4, 5}),
        ((0,), {1, 2, 3}),
        ((0, 1), {2, 3, 4}),
        ((0, 1, 2), {3, 4, 5}),
    ])
    def test_branch_keeps_children_with_topics_for_their_free_columns(self, chosen, remaining):
        inst, problem = self.make_problem()
        node = Node(0, len(chosen), (), (chosen, frozenset(remaining)))
        node.model = (np.zeros((inst.db.n_words, inst.k)), None)
        free = inst.k - len(chosen)
        decisions = problem.branch(node)
        assert len(decisions) == len(remaining) - free + 1
        left = [len(problem.apply(node.state, d)[1]) for d in decisions]
        assert min(left) == left[-1] == free - 1

    def test_mask_monotone_along_path(self):
        inst, problem = self.make_problem(seed=2, iters=30)
        masks = []
        node = Node(0, 0, (), problem.root_state())
        problem.generate(node)
        problem.train(node)
        masks.append(node.payload.copy())
        for _ in range(inst.k):
            if problem.is_leaf(node):
                break
            decision = problem.branch(node)[0]
            node = Node(node.id + 1, node.depth + 1, node.trail + (decision,),
                        problem.apply(node.state, decision))
            problem.generate(node)
            problem.train(node)
            masks.append(node.payload.copy())
        for prev, nxt in zip(masks, masks[1:]):
            assert np.all(nxt <= prev)

    def test_leaves_satisfy_constraints(self):
        inst, problem = self.make_problem(seed=3, iters=40)
        table = inst.db.as_table()
        leaves = []
        best, stats = bagel_search(
            problem, prune=True,
            trace=lambda rec: leaves.append(rec) if rec["status"] == LEAF else None,
        )
        assert best is not None
        model = best.model
        assert len(set(model.assignment)) == inst.k
        for i, j in enumerate(model.assignment):
            assert MASKED_L0(model.W[:, i], inst.db.topics[j]) == 0
            from bagel.constraints import et_satisfied
            assert et_satisfied(model.W[:, i], table)[0]


@st.composite
def small_instances(draw):
    """Random database of at most 6 topics over 3-6 words, k <= 4."""
    n_words = draw(st.integers(3, 6))
    size = draw(st.integers(1, 6))
    codes = draw(st.lists(st.integers(1, 2 ** n_words - 1), min_size=size, max_size=size,
                          unique=True))
    topics = [np.array([(c >> w) & 1 for w in range(n_words)], dtype=float) for c in codes]
    k = draw(st.integers(1, min(4, size)))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(0.0, 1.0, size=(n_words, draw(st.integers(2, 5))))
    return NmfInstance(A=A, k=k, db=TopicDB(n_words, topics), seed=draw(st.integers(0, 99)))


class RecordingProblem(PriorNmfProblem):
    """Keeps every node's mask keyed by its trail labels, every branch list,
    the topic set of every leaf and the first leaf's decisions."""

    def __init__(self, instance):
        super().__init__(instance, iters=4)
        self.masks, self.branches, self.leaves, self.first_leaf = {}, [], [], None

    def is_leaf(self, node):
        leaf = super().is_leaf(node)
        if leaf:
            self.leaves.append(frozenset(super().extract(node).assignment))
        return leaf

    def generate(self, node):
        super().generate(node)
        self.masks[tuple(node.trail_labels())] = node.payload

    def branch(self, node):
        decisions = super().branch(node)
        self.branches.append(decisions)
        return decisions

    def extract(self, node):
        if self.first_leaf is None:
            self.first_leaf = (node.trail, node.trained_loss)
        return super().extract(node)


class TestColumnSymmetryBreaking:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=small_instances(), strategy=st.sampled_from(["dfs", "best-first"]))
    def test_exhaustive_search_visits_each_topic_set_once(self, inst, strategy):
        problem = RecordingProblem(inst)
        _, stats = bagel_search(problem, strategy=strategy, prune=False)
        assert stats.completed
        expected = {frozenset(c) for c in itertools.combinations(range(len(inst.db)), inst.k)}
        assert stats.leaves == len(problem.leaves) == len(expected)
        assert set(problem.leaves) == expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=small_instances())
    def test_siblings_exclude_earlier_siblings_and_masks_shrink(self, inst):
        problem = RecordingProblem(inst)
        bagel_search(problem, prune=False)
        for decisions in problem.branches:
            values = [d.value for d in decisions]
            assert [d.excluded for d in decisions] == [
                frozenset(values[:t]) for t in range(len(decisions))
            ]
        for trail, mask in problem.masks.items():
            if trail:
                assert np.all(mask <= problem.masks[trail[:-1]])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=small_instances())
    def test_first_leaf_matches_replay_without_exclusions(self, inst):
        problem = RecordingProblem(inst)
        records = []
        bagel_search(problem, prune=False, trace=records.append)
        trail, loss = problem.first_leaf
        assert all(not d.excluded for d in trail)  # the leftmost dive
        first = next(rec for rec in records if rec["status"] == LEAF)
        assert (first["trail"], first["loss"]) == ([d.label for d in trail], loss)

        # Each node of the replay is trained under its trained parent, as
        # in the search.
        replay = PriorNmfProblem(inst, iters=4)
        node = Node(0, 0, (), replay.root_state())
        for decision in trail:
            replay.generate(node)
            replay.train(node)
            plain = dataclasses.replace(decision, excluded=frozenset())
            node = Node(node.id + 1, node.depth + 1, node.trail + (plain,),
                        replay.apply(node.state, plain), parent=node)
        replay.generate(node)
        assert replay.is_leaf(node)
        assert replay.train(node) == loss


class TestSearchOrder:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=small_instances())
    def test_exhaustive_losses_do_not_depend_on_strategy(self, inst):
        """Each node's NMF start is a function of its trail (the root's is
        seeded, every other node's is its trained parent's factors), so dfs
        and best-first train the same loss at every node."""
        losses = {}
        for strategy in ("dfs", "best-first"):
            records = []
            bagel_search(PriorNmfProblem(inst, iters=20), strategy=strategy, prune=False,
                         trace=records.append)
            losses[strategy] = {tuple(rec["trail"]): rec["loss"] for rec in records}
            assert len(losses[strategy]) == len(records)
        assert losses["dfs"] == losses["best-first"]


def per_column_state(k, n_topics, trail):
    """The state a node had when each column kept its own domain: k sets,
    filtered after every decision by pairwise alldifferent to a fixpoint
    and a pigeonhole check.  Returns (domains, passed prune).  `branch`
    stops at the last candidate that leaves enough topics, so every node
    the search opens passes."""
    domains = [set(range(n_topics)) for _ in range(k)]
    passed = per_column_prune(domains)
    for d in trail:
        domains = [dom - d.excluded for dom in domains]
        domains[d.var] = {d.value}
        passed = per_column_prune(domains)
    return domains, passed


def per_column_prune(domains):
    if not all(domains):
        return False
    changed = True
    while changed:
        changed = False
        for i, dom in enumerate(domains):
            if len(dom) != 1:
                continue
            for j, other in enumerate(domains):
                if j != i and not dom.isdisjoint(other):
                    if len(other) == 1:  # two singletons collide
                        return False
                    other -= dom
                    changed = True
    free = [dom for dom in domains if len(dom) > 1]
    return len(set().union(*free)) >= len(free)


def per_column_mask(domains, db):
    """Each column the OR of its domain's topics; a full domain all-ones."""
    mask = np.ones((db.n_words, len(domains)))
    for i, dom in enumerate(domains):
        if len(dom) < len(db):
            mask[:, i] = np.max([db.topics[j] for j in dom], axis=0)
    return mask


class PerColumnCheckingProblem(PriorNmfProblem):
    """Asserts at every node that (chosen, remaining) agrees with the
    per-column domains it replaced: the per-column filter passes, and the
    mask, the leaf verdict and, at a leaf, the assignment agree."""

    def __init__(self, instance):
        super().__init__(instance, iters=4)
        self.nodes = self.leaves = 0

    def reference(self, node):
        return per_column_state(self.instance.k, len(self.instance.db), node.trail)

    def prune(self, node):
        self.nodes += 1
        assert self.reference(node)[1]
        return super().prune(node)

    def generate(self, node):
        super().generate(node)
        assert np.array_equal(node.payload, per_column_mask(self.reference(node)[0],
                                                            self.instance.db))

    def is_leaf(self, node):
        leaf = super().is_leaf(node)
        domains, _ = self.reference(node)
        assert leaf == all(len(dom) == 1 for dom in domains)
        if leaf:
            self.leaves += 1
            assert self.extract(node).assignment == [min(dom) for dom in domains]
        return leaf


class TestAgainstPerColumnDomains:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=small_instances())
    def test_state_matches_per_column_domains(self, inst):
        for strategy in ("dfs", "best-first"):
            problem = PerColumnCheckingProblem(inst)
            _, stats = bagel_search(problem, strategy=strategy, prune=False)
            assert stats.completed
            assert problem.nodes == stats.nodes_opened
            assert problem.leaves == stats.leaves


class UntrimmedProblem(PriorNmfProblem):
    """The reference `branch` replaced: a child for every remaining
    candidate, and the pigeonhole rule failing each child left with fewer
    topics than free columns."""

    def prune(self, node):
        chosen, remaining = node.state
        return len(remaining) >= self.instance.k - len(chosen)

    def branch(self, node):
        chosen, remaining = node.state
        col = len(chosen)
        ranked = constraints.et_rank_tuples(node.model[0][:, col], self._table, self._rank_cost)
        values = [j for j, _ in ranked if j in remaining]
        return [TopicDecision(col, j, "s%d=%d" % (col + 1, j + 1), frozenset(values[:t]))
                for t, j in enumerate(values)]


def trimmed_and_untrimmed(inst, strategy, prune, cap=None, iters=4):
    """(incumbent, stats, trace without ids) of the search, then of the
    untrimmed reference with its failed records removed."""
    runs = []
    for cls in (PriorNmfProblem, UntrimmedProblem):
        records = []
        best, stats = bagel_search(cls(inst, iters), StopCondition(node_budget=cap), strategy,
                                   prune=prune, trace=records.append)
        kept = [(r["trail"], r["loss"], r["bound"], r["status"]) for r in records
                if r["status"] != FAILED]
        runs.append((best, stats, kept))
    assert runs[0][1].nodes_failed == 0
    return runs


def assert_same_search(inst, strategy, prune, iters=4):
    """A complete search opens exactly the reference's nodes that did not
    fail, in the same order and with the same losses and statuses."""
    (best, stats, kept), (ref, ref_stats, ref_kept) = trimmed_and_untrimmed(
        inst, strategy, prune, iters=iters)
    assert stats.completed and ref_stats.completed
    assert kept == ref_kept
    assert (best is None) == (ref is None)
    if best is not None:
        assert (best.loss, best.model.assignment) == (ref.loss, ref.model.assignment)
        assert np.array_equal(best.model.W, ref.model.W)
    assert stats.nodes_opened == ref_stats.nodes_opened - ref_stats.nodes_failed
    assert ((stats.nodes_trained, stats.nodes_pruned, stats.leaves)
            == (ref_stats.nodes_trained, ref_stats.nodes_pruned, ref_stats.leaves))


def assert_capped_search_no_worse(inst, strategy, prune, cap, iters=4):
    """Under a node cap the reference spends cap slots on failed nodes, so
    its kept records are a prefix of the search's, whose incumbent is no
    worse."""
    (best, _, kept), (ref, _, ref_kept) = trimmed_and_untrimmed(
        inst, strategy, prune, cap=cap, iters=iters)
    assert kept[:len(ref_kept)] == ref_kept
    if ref is not None:
        assert best is not None and best.loss <= ref.loss


SEARCHES = [(strategy, prune) for strategy in ("dfs", "best-first") for prune in (True, False)]


class TestAgainstUntrimmedBranch:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=small_instances())
    def test_same_search_as_untrimmed_reference(self, inst):
        for strategy, prune in SEARCHES:
            assert_same_search(inst, strategy, prune)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=small_instances(), cap=st.integers(0, 12))
    def test_capped_search_no_worse_than_untrimmed_reference(self, inst, cap):
        for strategy, prune in SEARCHES:
            assert_capped_search_no_worse(inst, strategy, prune, cap)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("strategy, prune", SEARCHES)
    def test_nmf_planted_shape(self, seed, strategy, prune):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=seed)
        assert_same_search(inst, strategy, prune, iters=1000)
        assert_capped_search_no_worse(inst, strategy, prune, cap=8, iters=1000)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("strategy, prune", SEARCHES)
    def test_nmf_large_shape(self, seed, strategy, prune):
        # Without pruning the search would visit C(13, 8) = 1287 leaves, so
        # that case runs only under the benchmark's 30-node cap.
        inst = nmf_generate_instance(100, 8, 5, 300, seed=seed)
        if prune:
            assert_same_search(inst, strategy, prune, iters=1000)
        assert_capped_search_no_worse(inst, strategy, prune, cap=30, iters=1000)


class TestBoundPruning:
    """The trained NMF loss is only an approximate bound, so pruning could
    cut the best leaf; on these instances it must not."""

    @pytest.mark.parametrize("shape", [(20, 4, 2, 50), (20, 4, 3, 50)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pruning_finds_exhaustive_optimum(self, shape, seed):
        inst = nmf_generate_instance(*shape, seed=seed)
        pruned, _ = bagel_search(PriorNmfProblem(inst, iters=300), prune=True)
        exhaustive, _ = bagel_search(PriorNmfProblem(inst, iters=300), prune=False)
        assert sorted(pruned.model.assignment) == sorted(exhaustive.model.assignment)
        assert pruned.loss == exhaustive.loss

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="pruning on the trained loss cuts the best leaf (ROADMAP item 3)")
    def test_best_first_pruning_finds_exhaustive_optimum_at_seed_15(self):
        # The pruned search ends at 1.334 with recovery 0.75 after 77 nodes;
        # the exhaustive one at 0.2568 with recovery 1.0 after 225.
        inst = nmf_generate_instance(20, 4, 5, 50, seed=15)
        pruned, exhaustive = (
            bagel_search(PriorNmfProblem(inst, iters=20), strategy="best-first", prune=prune)[0]
            for prune in (True, False))
        assert pruned.loss == pytest.approx(exhaustive.loss, rel=1e-9)


class BoundRecordingProblem(PriorNmfProblem):
    """Records, at every trained node, its lower bound (asked for here, as
    a search without pruning does not ask) and its trained loss, keyed by
    trail labels, and the trails of the leaves."""

    def __init__(self, instance, iters):
        super().__init__(instance, iters)
        self.bounds, self.losses, self.leaves = {}, {}, []

    def train(self, node):
        loss = super().train(node)
        trail = tuple(node.trail_labels())
        self.bounds[trail], self.losses[trail] = self.lower_bound(node), loss
        return loss

    def is_leaf(self, node):
        leaf = super().is_leaf(node)
        if leaf:
            self.leaves.append(tuple(node.trail_labels()))
        return leaf


# Every two of these topics cover all three words, so no node leaves a
# word uncovered and every bound is 0.
COVERING = NmfInstance(A=make_rng(5).uniform(size=(3, 4)), k=2,
                       db=TopicDB(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
# One column; word 3 is in no topic, and word 0 only in topic 0.
ONE_COLUMN = NmfInstance(A=make_rng(6).uniform(size=(4, 3)), k=1,
                         db=TopicDB(4, [[1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 1, 0]]))


class TestLowerBound:
    """`PriorNmfProblem.lower_bound`: the norm of the rows of A that no
    column of the mask covers, a bound on every trained loss below."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inst=small_instances(), zero_rows=st.sets(st.integers(0, 5), max_size=3),
           iters=st.sampled_from([0, 4, 50]))
    @example(inst=COVERING, zero_rows=set(), iters=4)
    @example(inst=ONE_COLUMN, zero_rows={0}, iters=4)
    @example(inst=ONE_COLUMN, zero_rows={1, 2, 3}, iters=0)
    def test_bound_below_node_and_leaf_losses(self, inst, zero_rows, iters):
        A = inst.A.copy()
        A[[w for w in zero_rows if w < len(A)]] = 0.0
        problem = BoundRecordingProblem(dataclasses.replace(inst, A=A), iters)
        _, stats = bagel_search(problem, prune=False)
        assert stats.completed and len(problem.bounds) == stats.nodes_trained
        for trail, bound in problem.bounds.items():
            assert 0.0 <= bound <= problem.losses[trail]
            below = [leaf for leaf in problem.leaves if leaf[:len(trail)] == trail]
            assert all(bound <= problem.losses[leaf] for leaf in below)

    def test_covering_database_bounds_zero(self):
        problem = BoundRecordingProblem(COVERING, iters=4)
        bagel_search(problem, prune=False)
        assert set(problem.bounds.values()) == {0.0}

    def test_bound_is_the_uncovered_rows_norm(self):
        problem = BoundRecordingProblem(ONE_COLUMN, iters=4)
        bagel_search(problem, prune=False)
        A = ONE_COLUMN.A
        scale = 1.0 - 2.0 * A.size * np.finfo(float).eps
        # The root's free column is all-ones, so it covers word 3 too.
        for trail, uncovered in (((), []), (("s1=1",), [1, 2, 3]), (("s1=2",), [0, 3]),
                                 (("s1=3",), [3])):
            assert problem.bounds[trail] == pytest.approx(frobenius(A[uncovered]) * scale,
                                                          rel=1e-15)
        # Column 0 of topic 0 fits word 0 alone: it is exact, so the loss is
        # all uncovered rows and meets the bound within its margin.
        assert problem.bounds[("s1=1",)] <= problem.losses[("s1=1",)]
        assert problem.losses[("s1=1",)] == pytest.approx(frobenius(A[[1, 2, 3]]), rel=1e-12)

    def test_bound_where_the_squares_overflow(self):
        """Rows of about 1e154, whose squares total past the largest float
        at the nodes that leave rows 1-3 uncovered, though their norms and
        every trained loss are finite: the bound stays the uncovered rows'
        norm, below the losses, and prunes only what the exhaustive search
        would not take."""
        A = ONE_COLUMN.A * np.array([[1e150], [1e154], [1e154], [1e154]])
        inst = dataclasses.replace(ONE_COLUMN, A=A)
        problem = BoundRecordingProblem(inst, iters=50)
        bagel_search(problem, prune=False)
        scale = 1.0 - 2.0 * A.size * np.finfo(float).eps
        for trail, uncovered in (((), []), (("s1=1",), [1, 2, 3]), (("s1=2",), [0, 3]),
                                 (("s1=3",), [3])):
            rows = A[uncovered]
            top = rows.max(initial=0.0)
            norm = np.linalg.norm(rows / top) * top if top else 0.0
            assert problem.bounds[trail] == pytest.approx(norm * scale, rel=1e-12)
            assert problem.bounds[trail] <= problem.losses[trail] < math.inf
        assert sum(a * a for a in A[1:].ravel().tolist()) == math.inf
        pruned, exhaustive = (bagel_search(PriorNmfProblem(inst, iters=50), prune=prune)
                              for prune in (True, False))
        assert pruned[1].nodes_pruned > 0
        assert pruned[0].model.assignment == exhaustive[0].model.assignment
        assert pruned[0].loss == exhaustive[0].loss


class UnboundedProblem(PriorNmfProblem):
    """Prunes on the trained loss alone, as the search did before
    `lower_bound`."""

    def lower_bound(self, node):
        return -np.inf


class TestLowerBoundKeepsTheSearch:
    """A node the lower bound prunes is one its training would have
    pruned: the search is the same, with fewer nodes trained."""

    # The benchmark's nmf-planted and nmf-large shapes; best-first on the
    # large shape is capped, as it finds its first leaf after ~100 nodes.
    @pytest.mark.parametrize("shape, best_first_cap", [((20, 4, 2, 50), None),
                                                       ((100, 8, 5, 300), 120)])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("iters", [50, 300])
    def test_same_search_fewer_trainings(self, shape, best_first_cap, seed, iters):
        inst = nmf_generate_instance(*shape, seed=seed)
        for strategy, cap in (("dfs", None), ("best-first", best_first_cap)):
            runs = []
            for cls in (PriorNmfProblem, UnboundedProblem):
                records = []
                best, stats = bagel_search(cls(inst, iters), StopCondition(node_budget=cap),
                                           strategy, trace=records.append)
                runs.append((best, stats, records))
            (best, stats, records), (best_u, stats_u, records_u) = runs
            assert [(r["trail"], r["status"]) for r in records] == [
                (r["trail"], r["status"]) for r in records_u]
            assert (best.node_id, best.loss, best.model.assignment) == (
                best_u.node_id, best_u.loss, best_u.model.assignment)
            assert np.array_equal(best.model.W, best_u.model.W)
            counts = ("nodes_opened", "nodes_pruned", "nodes_failed", "leaves", "stop")
            assert [getattr(stats, c) for c in counts] == [getattr(stats_u, c) for c in counts]
            # Trained nodes train alike; the others failed or were pruned
            # by their bound.
            untrained = 0
            for rec, rec_u in zip(records, records_u):
                if rec["loss"] is not None:
                    assert rec["loss"] == rec_u["loss"]
                elif rec["status"] == PRUNED:
                    assert rec["bound"] >= best.loss and rec_u["loss"] >= best.loss
                    untrained += 1
            assert stats.nodes_trained == stats_u.nodes_trained - untrained
            assert untrained > 0
            assert set(stats.warnings) <= set(stats_u.warnings)


def nmf_window_kernel(A, k, mask, iters, start):
    """`numerics.nmf_multiplicative` as it was with a 5-sweep check window:
    the same sweeps, with the explicit residual ||A - W H|| taken every 5
    sweeps and a stop once it fell by at most 5e-6 relative since the
    check before, 1e-6 per sweep."""
    n, m = A.shape
    stack_h, stack_w = np.empty((2 * k, m)), np.empty((3 * k, n))
    H, Wt = stack_h[:k], stack_w[:k]
    H[...] = start[1]
    np.multiply(np.transpose(start[0]), mask.T, out=Wt)
    W, Ht, At, B_h, B_w = Wt.T, H.T, A.T, stack_h[k:], stack_w[k:2 * k]
    stack_w[2 * k:] = np.where(mask.T == 0, -numerics.NMF_MASKED, 0.0)
    G = np.empty((k, k))
    hals_h, hals_w = numerics._hals_rows(stack_h, G), numerics._hals_rows(stack_w, G)
    sweeps, loss = 0, None
    while sweeps < iters:
        Wt.dot(A, B_h)
        Wt.dot(W, G)
        hals_h()
        H.dot(At, B_w)
        H.dot(Ht, G)
        hals_w()
        sweeps += 1
        if sweeps % 5 == 0:
            prev, loss = loss, frobenius(A - W @ H)
            if prev is not None and prev - loss <= 5e-6 * prev:
                break
    if loss is None or sweeps % 5:
        loss = frobenius(A - W @ H)
    return Wt.copy().T, H.copy(), loss, sweeps


class TestPerSweepRuleKeepsTheSearch:
    """HALS stops at the first sweep whose loss fell by at most 1e-6
    relative, that loss taken by the identity of the comment above
    `numerics.NMF_STOP_RTOL`.  Against the 5-sweep window at 5e-6
    (`nmf_window_kernel`), the same per-sweep rate, the search is the
    same, its trained losses agree to 1e-5 relative (at `iters` 50 and
    1000), no search runs more sweeps, and the nodes started from their
    parent's factors run at least 25% fewer under DFS, the benchmark's
    strategy.
    (A cold-started root saves a few of its tens to hundreds of sweeps,
    and best-first's children, which take 20-30 sweeps, save 11-20%.)
    On these shapes the identity's guard never fires, so no sweep pays
    for an explicit residual."""

    def test_same_search_fewer_sweeps(self, monkeypatch):
        swept, warm = [], [0, 0]

        def counted(kernel):
            def run(*args):
                result = kernel(*args)
                swept.append(result[3])
                return result
            return run

        kernels = [counted(numerics.nmf_multiplicative), counted(nmf_window_kernel)]
        # The benchmark's nmf-planted and nmf-large shapes; best-first on
        # the large shape is capped, as in `TestLowerBoundKeepsTheSearch`.
        for (shape, best_first_cap), seed, iters in itertools.product(
                [((20, 4, 2, 50), None), ((100, 8, 5, 300), 120)], [3, 7, 11], [50, 1000]):
            inst = nmf_generate_instance(*shape, seed=seed)
            for strategy, cap in (("dfs", None), ("best-first", best_first_cap)):
                runs, sweeps = [], []
                for i, kernel in enumerate(kernels):
                    monkeypatch.setattr(numerics, "nmf_multiplicative", kernel)
                    swept.clear()
                    records = []
                    with sweep_losses() as seen:
                        runs.append((*bagel_search(PriorNmfProblem(inst, iters),
                                                   StopCondition(node_budget=cap), strategy,
                                                   trace=records.append), records))
                    assert not any(explicit for *_, explicit in seen)
                    sweeps.append(sum(swept))
                    if strategy == "dfs":
                        warm[i] += sum(swept[1:])  # every training after the root's
                assert sweeps[0] <= sweeps[1]
                (best, stats, records), (best_r, stats_r, records_r) = runs
                assert [(r["trail"], r["status"]) for r in records] == [
                    (r["trail"], r["status"]) for r in records_r]
                assert (best.node_id, best.model.assignment) == (
                    best_r.node_id, best_r.model.assignment)
                counts = ("nodes_opened", "nodes_trained", "nodes_pruned", "nodes_failed",
                          "leaves")
                assert [getattr(stats, c) for c in counts] == [getattr(stats_r, c) for c in counts]
                for rec, rec_r in zip(records, records_r):
                    assert (rec["loss"] is None) == (rec_r["loss"] is None)
                    if rec["loss"] is not None:
                        assert rec["loss"] == pytest.approx(rec_r["loss"], rel=1e-5)
        assert warm[0] <= 0.75 * warm[1]


class TestInstanceGenerator:
    def test_determinism(self):
        a = nmf_generate_instance(20, 4, 2, 50, seed=3)
        b = nmf_generate_instance(20, 4, 2, 50, seed=3)
        assert np.array_equal(a.A, b.A)
        assert all(np.array_equal(x, y) for x, y in zip(a.db.topics, b.db.topics))
        assert a.planted_topics == b.planted_topics

    def test_shapes(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=3)
        assert inst.A.shape == (20, 50)
        assert len(inst.db) == 6
        assert inst.k == 4

    def test_min_topics_per_document(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=4)
        for j in range(inst.planted_H.shape[1]):
            assert np.count_nonzero(inst.planted_H[:, j]) >= 2

    def test_planted_W_supported_on_planted_topics(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=5, noise_sigma=0.0)
        for i, j in enumerate(inst.planted_topics):
            assert MASKED_L0(inst.planted_W[:, i], inst.db.topics[j]) == 0

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError, match="true_topics"):
            nmf_generate_instance(20, 1, 2, 50)

    @pytest.mark.parametrize("shape, field", [
        ((0, 4, 2, 50), "n_words"),
        ((20, 4, 2, 0), "docs"),
        ((20, 4, -1, 50), "false_topics"),
        # 2 words make 3 distinct non-empty topics, not 6.
        ((2, 4, 2, 50), "true_topics \\+ false_topics"),
        ((3, 4, 4, 50), "true_topics \\+ false_topics"),
    ])
    def test_bad_shape_rejected_before_any_draw(self, monkeypatch, shape, field):
        def no_draw(seed):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(prior_nmf.numerics, "make_rng", no_draw)
        with pytest.raises(ValueError, match=field):
            nmf_generate_instance(*shape)

    def test_every_distinct_topic_fits(self):
        with pytest.warns(UserWarning):  # an off-grid shape
            inst = nmf_generate_instance(2, 2, 1, 5, seed=0)
        assert len(inst.db) == 3

    def test_off_grid_warns(self):
        with pytest.warns(UserWarning):
            nmf_generate_instance(21, 4, 2, 50, seed=0)


class TestRecovery:
    def test_perfect(self):
        assert nmf_topic_recovery([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0

    def test_none(self):
        assert nmf_topic_recovery([4, 5], [0, 1, 2, 3]) == 0.0

    def test_partial(self):
        assert nmf_topic_recovery([0, 1, 2, 9], [0, 1, 2, 3]) == 0.75


def superset_instance(seed):
    """A generated instance whose false topic i is planted topic i % 4
    plus one word it lacks: look-alikes that hold all of a planted topic."""
    inst = nmf_generate_instance(20, 4, 2, 50, seed)
    rng = make_rng([seed, 0x5A])
    topics = list(inst.db.topics)
    false = [j for j in range(len(topics)) if j not in inst.planted_topics]
    for i, j in enumerate(false):
        t = topics[inst.planted_topics[i % 4]].copy()
        t[rng.choice(np.flatnonzero(t == 0))] = 1.0
        topics[j] = t
    return dataclasses.replace(inst, db=TopicDB(inst.db.n_words, topics))


class TestSupersetDatabases:
    """Records today's known behaviour, not a goal: with superset
    look-alikes in the database the objective prefers them.  A superset's
    extra word lets its column fit noise, so the best topic set beats the
    planted one, and the search finds it whether or not it prunes.

    On seed 5 both searches end on topics recovering half the planted
    set, at loss 0.3496272333409563, 8.1e-5 relative below the planted
    set's 0.3496557037255816.  On seed 7 the pruned and the exhaustive
    search both end on a superset at loss 0.41905951024590987 with
    recovery 0.75 (at `iters=50` pruning still returns a leaf 3.0e-6
    worse, as the trained loss is only an approximate bound)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_supersets_beat_the_planted_topics(self, seed):
        inst = superset_instance(seed)
        best, stats = bagel_search(PriorNmfProblem(inst, iters=300))
        exhaustive, exhaustive_stats = bagel_search(PriorNmfProblem(inst, iters=300),
                                                    prune=False)
        assert stats.completed and exhaustive_stats.completed
        assert nmf_topic_recovery(best.model.assignment, inst.planted_topics) < 1.0
        assert set(best.model.assignment) == set(exhaustive.model.assignment)
        assert best.loss < nmf_generate_and_train(inst, inst.planted_topics, 300)[2]
