import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagel import prior_nmf
from bagel.engine import LEAF, Node, bagel_search
from bagel.constraints import MASKED_L0, ExtendedTable
from bagel.numerics import make_rng, nmf_multiplicative
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
from oracles import random_start


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
            problem.prune(node)
            problem.generate(node)
            problem.train(node)
            decision = problem.branch(node)[pick]
            node = Node(node.id + 1, node.depth + 1, node.trail + (decision,),
                        problem.apply(node.state, decision), parent=node)
        parent = node.parent
        W_parent, H_parent = (x.copy() for x in parent.model)
        assert problem.prune(node)
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

    def test_branch_orders_by_masked_l2(self):
        db = TopicDB(5, [np.array([0, 1, 1, 0, 1.0]), np.array([1, 1, 1, 0, 0.0])])
        A = np.ones((5, 4))
        inst = NmfInstance(A=A, k=2, db=db, seed=0)
        problem = PriorNmfProblem(inst, iters=5)
        node = Node(0, 0, (), problem.root_state())
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
        node = Node(0, 0, (), problem.root_state())
        node.model = (np.zeros((3, 2)), np.zeros((2, 2)))
        decisions = problem.branch(node)
        assert [d.value for d in decisions] == [0, 1, 2]
        assert [d.excluded for d in decisions] == [frozenset(), {0}, {0, 1}]

    def test_apply_excludes_earlier_siblings_from_later_columns(self):
        _, problem = self.make_problem()
        state = ((0,), frozenset(range(1, 6)))
        child = problem.apply(state, TopicDecision(1, 3, "s2=4", frozenset({1, 4})))
        assert child == ((0, 3), frozenset({2, 5}))
        assert state == ((0,), frozenset(range(1, 6)))

    def test_prune_fails_too_few_topics_for_free_columns(self):
        _, problem = self.make_problem()
        # three free columns, two topics
        short = Node(0, 1, (), ((0,), frozenset({1, 2})))
        assert not problem.prune(short)
        enough = Node(1, 1, (), ((0,), frozenset({1, 2, 3})))
        assert problem.prune(enough)
        done = Node(2, 4, (), ((0, 1, 2, 3), frozenset()))
        assert problem.prune(done)

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
            assert replay.prune(node)
            replay.generate(node)
            replay.train(node)
            plain = dataclasses.replace(decision, excluded=frozenset())
            node = Node(node.id + 1, node.depth + 1, node.trail + (plain,),
                        replay.apply(node.state, plain), parent=node)
        assert replay.prune(node)
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
    and a pigeonhole check.  Returns (domains, passed prune)."""
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
    per-column domains it replaced: prune verdict, mask, leaf verdict and,
    at a leaf, the assignment."""

    def __init__(self, instance):
        super().__init__(instance, iters=4)
        self.nodes = self.leaves = 0

    def reference(self, node):
        return per_column_state(self.instance.k, len(self.instance.db), node.trail)

    def prune(self, node):
        self.nodes += 1
        passed = super().prune(node)
        assert passed == self.reference(node)[1]
        return passed

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

    Seed 5 is left out: its best set beats the planted set by only 1.4e-8
    relative, a near-tie that another BLAS could flip.  Seed 7 is left
    out: there bound pruning returns a leaf 4e-5 worse than the exhaustive
    search's, as the trained loss is only an approximate bound."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 6])
    def test_supersets_beat_the_planted_topics(self, seed):
        inst = superset_instance(seed)
        best, stats = bagel_search(PriorNmfProblem(inst, iters=300))
        exhaustive, exhaustive_stats = bagel_search(PriorNmfProblem(inst, iters=300),
                                                    prune=False)
        assert stats.completed and exhaustive_stats.completed
        assert nmf_topic_recovery(best.model.assignment, inst.planted_topics) < 1.0
        assert set(best.model.assignment) == set(exhaustive.model.assignment)
        assert best.loss < nmf_generate_and_train(inst, inst.planted_topics, 300)[2]
