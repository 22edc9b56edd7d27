import numpy as np
import pytest

from bagel.constraints import IntDomain
from bagel.engine import LEAF, Node, bagel_search
from bagel.numerics import make_rng, masked_l0_cost, nmf_multiplicative
from bagel.prior_nmf import (
    NmfInstance,
    PriorNmfProblem,
    TopicDB,
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

    def test_branch_zero_column_tie_breaks_by_index(self):
        db = small_db()
        inst = NmfInstance(A=np.ones((3, 2)), k=2, db=db, seed=0)
        problem = PriorNmfProblem(inst, iters=5)
        node = Node(0, 0, (), [IntDomain({0, 1, 2}), IntDomain({0, 1, 2})])
        node.model = (np.zeros((3, 2)), np.zeros((2, 2)))
        assert [d.value for d in problem.branch(node)] == [0, 1, 2]

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
