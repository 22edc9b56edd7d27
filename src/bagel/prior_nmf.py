"""Topic modeling by NMF with a database of prior topics.

Each column of W must have its support inside one topic from the
database, and the selected topics must be pairwise distinct.  The search
assigns topics to the columns left to right, so a node's state is the
chosen topics of a column prefix and the set of topics still free for
the other columns; each node trains a masked NMF whose mask is each
chosen topic in its column and the OR of the free topics elsewhere,
except at the root, where every topic is free and the mask is all-ones.
Branching stops at the last candidate that leaves enough free topics for
the later columns, so no node fails.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import constraints, numerics
from .constraints import ExtendedTable, masked_lp_cost
from .engine import Decision, Problem

WORD_GRID = (20, 30, 50, 75, 100, 150)
TRUE_TOPIC_GRID = (4, 5, 6, 7, 8)
FALSE_TOPIC_GRID = (2, 3, 5, 10)
DOC_GRID = (50, 100, 150, 200, 250, 300)
MIN_TOPICS_PER_DOC = 2
# Expected fraction of the vocabulary a generated topic leaves out; a
# generated document leaves out this fraction of the topics, keeping at
# least MIN_TOPICS_PER_DOC.
SPARSITY = 0.8


@dataclass(eq=False)
class TopicDB:
    n_words: int
    topics: np.ndarray  # (|db|, n_words) 0/1 rows, or a list of rows: the table

    def __post_init__(self):
        try:  # an empty list comes out as shape (0,), which reshape widens
            topics = np.asarray(self.topics)
        except ValueError:  # rows of different lengths
            topics = None
        if topics is None or (topics.shape[1:] != (self.n_words,) and topics.shape != (0,)):
            raise ValueError("topic length must equal n_words")
        topics = topics.reshape(len(topics), self.n_words).astype(float)
        if not np.all((topics == 0) | (topics == 1)):
            raise ValueError("topics must be binary")
        if not np.all(topics.any(axis=1)):
            raise ValueError("every topic needs at least one word")
        # Byte keys of the 0/1 rows, so -0.0 and 0.0 are one word state.
        if len(set(map(bytes, topics.astype(np.uint8)))) < len(topics):
            raise ValueError("topics must be pairwise distinct")
        self.topics = topics

    def __len__(self):
        return len(self.topics)

    def as_table(self):
        """The topics as an extended table: a column satisfies it iff its
        support lies inside some topic."""
        return ExtendedTable(self.topics, constraints.MASKED_L0, 0.0)


@dataclass(eq=False)
class NmfInstance:
    A: np.ndarray
    k: int
    db: TopicDB
    planted_topics: Optional[List[int]] = None
    planted_W: Optional[np.ndarray] = None
    planted_H: Optional[np.ndarray] = None
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.A = numerics.matrix(self.A)
        if np.any(self.A < 0):
            raise numerics.DomainError("A must be non-negative")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k > len(self.db):
            raise ValueError("k cannot exceed the database size (alldifferent)")
        if self.A.shape[0] != self.db.n_words:
            raise ValueError("A row count must equal the vocabulary size")
        if self.A.shape[1] < 1:
            raise ValueError("docs must be >= 1, got %d" % self.A.shape[1])
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %d" % self.seed)
        planted = self.planted_topics
        if planted is not None and not (
                len(planted) == len(set(planted)) == self.k
                and all(type(j) is int and 0 <= j < len(self.db) for j in planted)):
            raise ValueError("planted must be %d distinct topic indices in [0, %d), got %r"
                             % (self.k, len(self.db), planted))


def nmf_build_mask(chosen, remaining, db, k):
    """Binary n x k mask: column i gets topic chosen[i], and every later
    column the OR of the `remaining` topics.

    At the root, where every topic remains, the free columns stay all-ones.
    """
    mask = np.ones((db.n_words, k))
    mask[:, :len(chosen)] = db.topics[list(chosen)].T
    if len(chosen) < k and len(remaining) < len(db):
        if not remaining:
            raise ValueError("no topic left for column %d" % len(chosen))
        mask[:, len(chosen):] = db.topics[list(remaining)].max(axis=0)[:, None]
    return mask


def nmf_generate_and_train(instance, topics, iters):
    """(W, H, loss, sweeps) of the masked factorization whose first
    columns take `topics`, started from `nmf_random_start`; any later
    column is free over the other topics."""
    free = frozenset(range(len(instance.db))).difference(topics)
    mask = nmf_build_mask(tuple(topics), free, instance.db, instance.k)
    return numerics.nmf_multiplicative(instance.A, instance.k, mask, iters,
                                       nmf_random_start(instance))


def nmf_random_start(instance):
    """The start of the root's training and of the planted reference: W
    (n x k), then H (k x m), uniform in (0, 1], drawn from the instance
    seed.  Every other node starts from its parent's factors."""
    # The trailing 0 is the index of the one restart there used to be; it
    # keeps the seed stream, and so every root loss, as it was.
    rng = numerics.make_rng([instance.seed, 0])
    (n, m), k = instance.A.shape, instance.k
    return 1.0 - rng.random((n, k)), 1.0 - rng.random((k, m))


@dataclass(eq=False)
class NmfModel:
    assignment: List[int]
    W: np.ndarray
    H: np.ndarray
    loss: float


@dataclass(frozen=True)
class TopicDecision(Decision):
    """Column `var` takes topic `value`; the later columns lose the topics
    in `excluded`, the values of the earlier siblings."""

    excluded: frozenset


class PriorNmfProblem(Problem):
    """Column-to-topic assignment search around a masked NMF trainer.

    A node's state is `(chosen, remaining)`: the topics of columns
    0..len(chosen)-1, and the topics still free for every later column.
    Columns of W are interchangeable (swap them with the rows of H), so the
    search fixes their order: it branches on column len(chosen), and the
    child for its t-th ranked candidate removes candidates 1..t-1 from
    `remaining`.  Each topic set is then reached exactly once, under the
    child of its first-ranked member, and the first child of every node is
    unchanged.  `branch` stops at the last candidate whose child keeps at
    least as many topics as it has free columns; a later one could only
    fail on the pigeonhole rule.  With that cut, removing each chosen
    topic from the one shared set is all that alldifferent propagation
    leaves to do, and no node fails.

    Training is a masked HALS NMF whose `iters` is a cap on sweeps.  The
    root starts it from random factors drawn from the instance seed, and
    every other node from its trained parent's (W * mask, H): the child's
    mask is a subset of the parent's, so that start is feasible and
    nearly trained.  A node's start is therefore a function of its trail,
    and its loss does not depend on the order nodes are processed in.
    Before a node is trained, `lower_bound` checks an exact bound: a word
    that no column of the node's mask may use keeps its whole row of A in
    the residual, since its row of W is exactly 0 (`numerics.NMF_MASKED`),
    and masks only shrink down a branch.  A node that bound prunes is one
    training would have pruned, so incumbents, node counts and trace
    statuses are those of pruning on the trained loss alone.  Training
    finds a local optimum only, so the trained loss is still only an
    approximate bound, and bound pruning may cut the best leaf;
    prune=False in `bagel_search` is the exhaustive search over topic
    sets."""

    def __init__(self, instance, iters):
        self.instance = instance
        self.iters = iters
        self._table = instance.db.as_table()
        self._rank_cost = masked_lp_cost(2)
        A = instance.A
        self._row_sq = np.einsum("ij,ij->i", A, A)
        # The computed bound must not exceed the computed trained loss of
        # this node or of any leaf below it, `frobenius(A - W H)`, whose
        # uncovered rows are exactly A's.  Both are square roots of
        # floating-point sums of at most N = A.size non-negative squares.
        # In any summation order such a sum is within a factor 1 +- N eps / 2
        # of its exact value, to first order, and its square root within
        # 1 +- N eps / 4, plus eps / 2 for the root's own rounding.  So the
        # bound may be about N eps / 4 + eps above the exact norm of the
        # uncovered rows and the loss as far below it; scaling the bound by
        # 1 - 2 N eps covers both, so a node this bound prunes is one its
        # training would have pruned.
        self._bound_scale = 1.0 - 2.0 * A.size * sys.float_info.epsilon

    def root_state(self):
        return (), frozenset(range(len(self.instance.db)))

    # No node fails (see `branch`), so the engine's default filters nothing.
    # It is named here because benchmarks/tracer.py wraps `prune` on this
    # class and restores it with setattr, which would otherwise leave an
    # attribute behind that the class did not have.
    prune = Problem.prune

    def generate(self, node):
        node.payload = nmf_build_mask(*node.state, self.instance.db, self.instance.k)

    def lower_bound(self, node):
        """The residual norm of the words no column of the node's mask
        covers, scaled down by the rounding margin `__init__` derives."""
        uncovered = ~node.payload.any(axis=1)
        return math.sqrt(self._row_sq[uncovered].sum()) * self._bound_scale

    def train(self, node):
        start = nmf_random_start(self.instance) if node.parent is None else node.parent.model
        W, H, loss, _ = numerics.nmf_multiplicative(
            self.instance.A, self.instance.k, node.payload, self.iters, start)
        node.model = (W, H)
        return loss

    def is_leaf(self, node):
        # One topic left for the last column fixes it without a decision.
        chosen, remaining = node.state
        free = self.instance.k - len(chosen)
        return free == 0 or (free == 1 and len(remaining) == 1)

    def branch(self, node):
        # Rank every topic and keep the remaining ones: ties break by topic
        # index, as they would in a table of the candidates alone.  The
        # child of candidate t keeps len(values) - t - 1 topics for its
        # free - 1 free columns, so candidates past len(values) - free
        # would leave too few (pigeonhole) and make no child.
        chosen, remaining = node.state
        col = len(chosen)
        ranked = constraints.et_rank_tuples(node.model[0][:, col], self._table, self._rank_cost)
        values = [j for j, _ in ranked if j in remaining]
        free = self.instance.k - col
        return [
            TopicDecision(col, j, "s%d=%d" % (col + 1, j + 1), frozenset(values[:t]))
            for t, j in enumerate(values[:len(values) - free + 1])
        ]

    def apply(self, state, decision):
        chosen, remaining = state
        return chosen + (decision.value,), remaining - decision.excluded - {decision.value}

    def extract(self, node):
        chosen, remaining = node.state
        assignment = list(chosen) if len(chosen) == self.instance.k else [*chosen, *remaining]
        W, H = node.model
        return NmfModel(assignment=assignment, W=W.copy(), H=H.copy(), loss=node.trained_loss)


def nmf_topic_recovery(assignment, planted_topics):
    """Fraction of the selected topics that are planted ones."""
    selected = set(assignment)
    if not selected:
        return 0.0
    return len(selected & set(planted_topics)) / len(selected)


def _random_distinct_topics(rng, count, n_words, density, taken):
    topics = []
    while len(topics) < count:
        t = (rng.random(n_words) < density).astype(float)
        if not np.any(t):
            t[int(rng.integers(n_words))] = 1.0
        key = tuple(t.astype(int))
        if key not in taken:
            taken.add(key)
            topics.append(t)
    return topics


def nmf_generate_instance(n_words, true_topics, false_topics, docs, seed=0,
                          noise_sigma=None):
    """Seeded planted instance: A = W* H* (+ noise), topics from a fresh DB.

    Topic bit patterns have word density 1 - SPARSITY; W* columns are
    positive exactly on their topic's support; H* activates at least
    MIN_TOPICS_PER_DOC topics per document.  The database holds the
    true and false topics, so the planted decomposition is feasible.
    """
    for name, value, low in (("n_words", n_words, 1), ("docs", docs, 1),
                             ("true_topics", true_topics, MIN_TOPICS_PER_DOC),
                             ("false_topics", false_topics, 0)):
        if value < low:
            raise ValueError("%s must be >= %d, got %r" % (name, low, value))
    # Every topic is a distinct non-empty word pattern.
    if true_topics + false_topics > 2 ** n_words - 1:
        raise ValueError("true_topics + false_topics must be <= 2**n_words - 1 = %d, got %d"
                         % (2 ** n_words - 1, true_topics + false_topics))
    if n_words not in WORD_GRID:
        warnings.warn("n_words=%d is off the usual grid" % n_words)
    if true_topics not in TRUE_TOPIC_GRID:
        warnings.warn("true_topics=%d is off the usual grid" % true_topics)
    if false_topics not in FALSE_TOPIC_GRID:
        warnings.warn("false_topics=%d is off the usual grid" % false_topics)
    if docs not in DOC_GRID:
        warnings.warn("docs=%d is off the usual grid" % docs)

    rng = numerics.make_rng(seed)
    density = 1.0 - SPARSITY
    taken = set()
    true = _random_distinct_topics(rng, true_topics, n_words, density, taken)
    false = _random_distinct_topics(rng, false_topics, n_words, density, taken)

    k = true_topics
    W_star = np.zeros((n_words, k))
    for i, t in enumerate(true):
        support = np.flatnonzero(t)
        W_star[support, i] = rng.uniform(0.5, 1.5, size=len(support))
    active_per_doc = max(MIN_TOPICS_PER_DOC, int(round(density * k)))
    H_star = np.zeros((k, docs))
    for j in range(docs):
        rows = rng.choice(k, size=active_per_doc, replace=False)
        H_star[rows, j] = rng.uniform(0.5, 1.5, size=active_per_doc)

    clean = W_star @ H_star
    sigma = 0.05 * float(np.mean(clean)) if noise_sigma is None else float(noise_sigma)
    A = clean + sigma * rng.standard_normal(clean.shape) if sigma > 0 else clean
    A = np.clip(A, 0.0, None)

    db_topics = true + false
    order = rng.permutation(len(db_topics))
    db = TopicDB(n_words, [db_topics[i] for i in order])
    # Planted topic i, db_topics[i], sits where the permutation put i.
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    planted = where[:true_topics].tolist()
    return NmfInstance(
        A=A, k=k, db=db, planted_topics=planted,
        planted_W=W_star, planted_H=H_star, noise_sigma=sigma, seed=seed,
    )


def save_instance(instance, path):
    doc = {
        "problem": "prior-nmf",
        "seed": instance.seed,
        "n": instance.db.n_words,
        "k": instance.k,
        "m": instance.A.shape[1],
        "noise_sigma": instance.noise_sigma,
        "db": instance.db.topics.astype(int).tolist(),
        "A": instance.A,
        "planted": instance.planted_topics,
    }
    numerics.write_instance(path, doc)


def load_instance(doc):
    """Instance from an instance file's document (`numerics.read_instance`),
    whose arrays are float arrays or nested lists."""
    if doc.get("problem") != "prior-nmf":
        raise ValueError("not a prior-nmf instance file")
    db = TopicDB(numerics.integer(doc["n"], "n"), doc["db"])
    return NmfInstance(
        A=doc["A"],
        k=numerics.integer(doc["k"], "k"),
        db=db,
        planted_topics=doc.get("planted"),
        noise_sigma=numerics.number(doc.get("noise_sigma", 0.0), "noise_sigma"),
        seed=numerics.integer(doc.get("seed", 0), "seed"),
    )
