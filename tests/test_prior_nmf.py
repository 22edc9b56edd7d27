import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagel.constraints import IntDomain
from bagel.engine import LEAF, Node, bagel_search
from bagel.numerics import make_rng, masked_l0_cost, nmf_multiplicative
from bagel.prior_nmf import (
    NmfInstance,
    PriorNmfProblem,
    TopicDB,
    TopicDecision,
    nmf_build_mask,
    nmf_generate_and_train,
    nmf_generate_instance,
    nmf_topic_recovery,
)


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


class TestBuildMask:
    def test_singleton_column_gets_its_topic(self):
        db = small_db()
        domains = [IntDomain({1}), IntDomain({0, 1, 2})]
        mask = nmf_build_mask(domains, db)
        assert np.array_equal(mask[:, 0], db.topics[1])
        assert np.all(mask[:, 1] == 1.0)

    def test_restricted_domain_is_or_of_topics(self):
        db = small_db()
        domains = [IntDomain({0, 1})]
        mask = nmf_build_mask(domains, db)
        assert np.array_equal(mask[:, 0], np.array([1.0, 1.0, 1.0]))

    def test_all_singletons(self):
        db = small_db()
        domains = [IntDomain({0}), IntDomain({2})]
        mask = nmf_build_mask(domains, db)
        assert np.array_equal(mask[:, 0], db.topics[0])
        assert np.array_equal(mask[:, 1], db.topics[2])

    def test_empty_domain_is_contract_error(self):
        with pytest.raises(ValueError):
            nmf_build_mask([IntDomain(set())], small_db())


class TestGenerateAndTrain:
    def test_root_equals_vanilla_nmf(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=5, noise_sigma=0.0)
        domains = [IntDomain(range(len(inst.db))) for _ in range(inst.k)]
        W, H, loss = nmf_generate_and_train(inst, domains, iters=50)
        seq = np.random.SeedSequence([inst.seed, 0])
        Wv, Hv, lv = nmf_multiplicative(
            inst.A, inst.k, np.ones((20, inst.k)), 50, make_rng(seq)
        )
        assert np.array_equal(W, Wv)
        assert np.array_equal(H, Hv)
        assert loss == lv

    def test_planted_assignment_fits_noiseless_data(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=6, noise_sigma=0.0)
        domains = [IntDomain({j}) for j in inst.planted_topics]
        _, _, loss = nmf_generate_and_train(inst, domains, iters=2000)
        assert loss <= 1e-3 * np.linalg.norm(inst.A)

    def test_fixed_column_matches_topic_support_exactly(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=7, noise_sigma=0.0)
        j = inst.planted_topics[0]
        domains = [IntDomain({j})] + [IntDomain(range(len(inst.db))) for _ in range(inst.k - 1)]
        W, _, _ = nmf_generate_and_train(inst, domains, iters=100)
        assert masked_l0_cost(W[:, 0], inst.db.topics[j]) == 0

    def test_restarts_keep_best(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=8, noise_sigma=0.0)
        domains = [IntDomain(range(len(inst.db))) for _ in range(inst.k)]
        _, _, one = nmf_generate_and_train(inst, domains, iters=50, restarts=1)
        _, _, three = nmf_generate_and_train(inst, domains, iters=50, restarts=3)
        assert three <= one


class TestProblemContract:
    def make_problem(self, seed=1, iters=60):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=seed, noise_sigma=0.0)
        return inst, PriorNmfProblem(inst, iters=iters)

    def test_leaf_detection(self):
        _, problem = self.make_problem()
        leaf = Node(0, 0, (), [IntDomain({i}) for i in range(4)])
        assert problem.is_leaf(leaf)
        open_node = Node(1, 0, (), [IntDomain({0, 1})] + [IntDomain({i}) for i in (2, 3, 4)])
        assert not problem.is_leaf(open_node)
        clash = Node(2, 0, (), [IntDomain({0}), IntDomain({0}),
                                IntDomain({1}), IntDomain({2})])
        assert not problem.is_leaf(clash)

    def test_branch_orders_by_masked_l2(self):
        db = TopicDB(5, [np.array([0, 1, 1, 0, 1.0]), np.array([1, 1, 1, 0, 0.0])])
        A = np.ones((5, 4))
        inst = NmfInstance(A=A, k=2, db=db, seed=0)
        problem = PriorNmfProblem(inst, iters=5)
        node = Node(0, 0, (), [IntDomain({0, 1}), IntDomain({0, 1})])
        W = np.zeros((5, 2))
        W[:, 0] = [0.6, 0.3, 0.9, 0, 0]
        node.model = (W, np.zeros((2, 4)))
        decisions = problem.branch(node)
        # topic 1 covers the column (cost 0); topic 0 leaves 0.6 outside
        assert [d.value for d in decisions] == [1, 0]
        assert decisions[0].label == "s1=2"
        assert [d.excluded for d in decisions] == [frozenset(), frozenset({1})]

    def test_branch_zero_column_tie_breaks_by_index(self):
        db = small_db()
        inst = NmfInstance(A=np.ones((3, 2)), k=2, db=db, seed=0)
        problem = PriorNmfProblem(inst, iters=5)
        node = Node(0, 0, (), [IntDomain({0, 1, 2}), IntDomain({0, 1, 2})])
        node.model = (np.zeros((3, 2)), np.zeros((2, 2)))
        decisions = problem.branch(node)
        assert [d.value for d in decisions] == [0, 1, 2]
        assert [d.excluded for d in decisions] == [frozenset(), {0}, {0, 1}]

    def test_apply_excludes_earlier_siblings_from_other_columns(self):
        _, problem = self.make_problem()
        state = [IntDomain(range(5)) for _ in range(3)]
        child = problem.apply(state, TopicDecision(1, 3, "s2=4", frozenset({0, 4})))
        assert child[1].sorted_values() == [3]
        assert child[0].sorted_values() == child[2].sorted_values() == [1, 2, 3]
        assert all(d.sorted_values() == [0, 1, 2, 3, 4] for d in state)

    def test_prune_fails_too_few_topics_for_free_columns(self):
        _, problem = self.make_problem()
        # pairwise alldifferent sees no clash: three free columns, two topics
        short = Node(0, 1, (), [IntDomain({0})] + [IntDomain({1, 2}) for _ in range(3)])
        assert not problem.prune(short)
        enough = Node(1, 1, (), [IntDomain({0}), IntDomain({1, 2}), IntDomain({1, 2}),
                                 IntDomain({3})])
        assert problem.prune(enough)

    def test_mask_monotone_along_path(self):
        inst, problem = self.make_problem(seed=2, iters=30)
        masks = []
        node = Node(0, 0, (), problem.root_state())
        problem.prune(node)
        problem.generate(node)
        problem.train(node)
        masks.append(node.payload.copy())
        for _ in range(inst.k):
            if problem.is_leaf(node):
                break
            decision = problem.branch(node)[0]
            node = Node(node.id + 1, node.depth + 1, node.trail + (decision,),
                        problem.apply(node.state, decision))
            assert problem.prune(node)
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
            assert masked_l0_cost(model.W[:, i], inst.db.topics[j]) == 0
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
            self.leaves.append(frozenset(d.value() for d in node.state))
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

        replay = PriorNmfProblem(inst, iters=4)
        node = Node(0, 0, (), replay.root_state())
        for decision in trail:
            plain = dataclasses.replace(decision, excluded=frozenset())
            node = Node(node.id + 1, node.depth + 1, node.trail + (plain,),
                        replay.apply(node.state, plain))
        assert replay.prune(node)
        replay.generate(node)
        assert replay.is_leaf(node)
        assert replay.train(node) == loss


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
            assert masked_l0_cost(inst.planted_W[:, i], inst.db.topics[j]) == 0

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            nmf_generate_instance(20, 1, 2, 50, min_topics_per_doc=2)
        with pytest.raises(ValueError):
            nmf_generate_instance(20, 4, 2, 50, sparsity=1.5)

    def test_off_grid_warns(self):
        with pytest.warns(UserWarning):
            nmf_generate_instance(21, 4, 2, 50, seed=0)

    def test_removed_topics_shrinks_db(self):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=6, removed_topics=1)
        assert len(inst.db) == 5
        assert inst.planted_topics is None


class TestRecovery:
    def test_perfect(self):
        assert nmf_topic_recovery([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0

    def test_none(self):
        assert nmf_topic_recovery([4, 5], [0, 1, 2, 3]) == 0.0

    def test_partial(self):
        assert nmf_topic_recovery([0, 1, 2, 9], [0, 1, 2, 3]) == 0.75
