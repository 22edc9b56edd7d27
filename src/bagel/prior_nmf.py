"""Topic modeling by NMF with a database of prior topics.

Each column of W must match one topic from the database exactly on its
support, and the selected topics must be pairwise distinct.  The search
assigns a topic per column; each node trains a masked NMF whose mask is
the OR of the topics still admissible for every column.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import constraints, numerics
from .constraints import ExtendedTable, IntDomain, masked_lp_cost
from .engine import Decision, Problem

WORD_GRID = (20, 30, 50, 75, 100, 150)
TRUE_TOPIC_GRID = (4, 5, 6, 7, 8)
FALSE_TOPIC_GRID = (2, 3, 5, 10)
DOC_GRID = (50, 100, 150, 200, 250, 300)


@dataclass
class TopicDB:
    n_words: int
    topics: List[np.ndarray]  # binary vectors of length n_words

    def __post_init__(self):
        cleaned = []
        seen = set()
        for t in self.topics:
            t = np.asarray(t, dtype=float)
            if t.shape != (self.n_words,):
                raise ValueError("topic length must equal n_words")
            if not np.all((t == 0) | (t == 1)):
                raise ValueError("topics must be binary")
            if not np.any(t):
                raise ValueError("every topic needs at least one word")
            key = tuple(t.astype(int))
            if key in seen:
                raise ValueError("topics must be pairwise distinct")
            seen.add(key)
            cleaned.append(t)
        self.topics = cleaned

    def __len__(self):
        return len(self.topics)

    def as_table(self):
        """The topics as an extended table: a column satisfies it iff its
        support lies inside some topic."""
        return ExtendedTable(self.n_words, np.stack(self.topics), constraints.MASKED_L0, 0.0)


@dataclass
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


def nmf_build_mask(domains, db):
    """Binary n x k mask: OR of the admissible topics per column.

    A column whose domain is still the full database stays all-ones; a
    restricted domain contributes the OR of its remaining topics; a
    singleton yields exactly its topic.
    """
    n, k = db.n_words, len(domains)
    mask = np.ones((n, k))
    for i, dom in enumerate(domains):
        if dom.is_empty:
            raise ValueError("empty domain for column %d" % i)
        if len(dom) < len(db):
            col = np.zeros(n)
            for j in dom.sorted_values():
                col = np.maximum(col, db.topics[j])
            mask[:, i] = col
    return mask


def _trail_entropy(seed, trail):
    entropy = [seed & (2 ** 63 - 1)]
    for d in trail:
        entropy.extend((d.var, d.value))
    return entropy


def nmf_generate_and_train(instance, domains, iters, restarts=1):
    """Train the masked factorization of `domains`, best loss over seeded
    restarts."""
    return nmf_train_mask(instance, nmf_build_mask(domains, instance.db), iters, restarts)


def nmf_train_mask(instance, mask, iters, restarts=1, trail=()):
    """Best (W, H, loss) over restarts seeded from the instance seed, the
    trail and the restart index."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        seq = np.random.SeedSequence(_trail_entropy(instance.seed, trail) + [r])
        rng = numerics.make_rng(seq)
        W, H, loss = numerics.nmf_multiplicative(instance.A, instance.k, mask, iters, rng)
        if best is None or loss < best[2]:
            best = (W, H, loss)
    return best


@dataclass
class NmfModel:
    assignment: List[int]
    W: np.ndarray
    H: np.ndarray
    loss: float


@dataclass(frozen=True)
class TopicDecision(Decision):
    """Column `var` takes topic `value`; every other column loses the topics
    in `excluded`, the values of the earlier siblings."""

    excluded: frozenset


class PriorNmfProblem(Problem):
    """Column-to-topic assignment search around a masked NMF trainer.

    Columns of W are interchangeable (swap them with the rows of H), so the
    search fixes their order: the child for the branched column's t-th
    ranked candidate excludes candidates 1..t-1 from every other column.
    Each topic set is then reached exactly once, under the child of its
    first-ranked member, and the first child of every node is unchanged.

    The trained loss of a multiplicative-update NMF is only an approximate
    bound, so bound pruning may cut the best leaf; prune=False in
    `bagel_search` is the exhaustive search over topic sets."""

    def __init__(self, instance, iters=1000, restarts=1):
        self.instance = instance
        self.iters = iters
        self.restarts = restarts
        self._table = instance.db.as_table()
        self._rank_cost = masked_lp_cost(2)

    def root_state(self):
        full = range(len(self.instance.db))
        return [IntDomain(full) for _ in range(self.instance.k)]

    def prune(self, node):
        _, failed = constraints.alldifferent_filter(node.state)
        if failed:
            return False
        # Pigeonhole: the free columns need as many distinct topics as there
        # are of them.  Excluded siblings can leave fewer, which pairwise
        # alldifferent does not see.
        free = [d.values for d in node.state if not d.is_singleton]
        return len(set().union(*free)) >= len(free)

    def generate(self, node):
        node.payload = nmf_build_mask(node.state, self.instance.db)

    def train(self, node):
        W, H, loss = nmf_train_mask(
            self.instance, node.payload, self.iters, self.restarts, trail=node.trail
        )
        node.model = (W, H)
        return loss

    def is_leaf(self, node):
        values = []
        for dom in node.state:
            if not dom.is_singleton:
                return False
            values.append(dom.value())
        return len(set(values)) == len(values)

    def branch(self, node):
        # Rank every topic and keep the column's candidates: ties break by
        # topic index, as they would in a table of the candidates alone.
        col = next(i for i, d in enumerate(node.state) if not d.is_singleton)
        ranked = constraints.et_rank_tuples(node.model[0][:, col], self._table, self._rank_cost)
        values = [j for j, _ in ranked if j in node.state[col]]
        return [
            TopicDecision(col, j, "s%d=%d" % (col + 1, j + 1), frozenset(values[:t]))
            for t, j in enumerate(values)
        ]

    def apply(self, state, decision):
        child = [IntDomain(d.values - decision.excluded) for d in state]
        child[decision.var] = IntDomain({decision.value})
        return child

    def extract(self, node):
        assignment = [d.value() for d in node.state]
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
        if key in taken:
            continue
        taken.add(key)
        topics.append(t)
    return topics


def nmf_generate_instance(n_words, true_topics, false_topics, docs, sparsity=0.8,
                          seed=0, noise_sigma=None, min_topics_per_doc=2,
                          removed_topics=0):
    """Seeded planted instance: A = W* H* (+ noise), topics from a fresh DB.

    Topic bit patterns have word density 1 - sparsity; W* columns are
    positive exactly on their topic's support; H* activates at least
    min_topics_per_doc topics per document.  removed_topics drops that many
    true topics from the database (exploratory only; with it the planted
    decomposition is no longer feasible).
    """
    if min_topics_per_doc > true_topics:
        raise ValueError("min_topics_per_doc cannot exceed the number of true topics")
    if not (0 < sparsity < 1):
        raise ValueError("sparsity must be in (0, 1)")
    if removed_topics < 0 or removed_topics > true_topics:
        raise ValueError("removed_topics out of range")
    if n_words not in WORD_GRID:
        warnings.warn("n_words=%d is off the usual grid" % n_words)
    if true_topics not in TRUE_TOPIC_GRID:
        warnings.warn("true_topics=%d is off the usual grid" % true_topics)
    if false_topics not in FALSE_TOPIC_GRID:
        warnings.warn("false_topics=%d is off the usual grid" % false_topics)
    if docs not in DOC_GRID:
        warnings.warn("docs=%d is off the usual grid" % docs)

    rng = numerics.make_rng(seed)
    density = 1.0 - sparsity
    taken = set()
    true = _random_distinct_topics(rng, true_topics, n_words, density, taken)
    false = _random_distinct_topics(rng, false_topics, n_words, density, taken)

    k = true_topics
    W_star = np.zeros((n_words, k))
    for i, t in enumerate(true):
        support = np.flatnonzero(t)
        W_star[support, i] = rng.uniform(0.5, 1.5, size=len(support))
    active_per_doc = max(min_topics_per_doc, int(round((1.0 - sparsity) * k)))
    H_star = np.zeros((k, docs))
    for j in range(docs):
        rows = rng.choice(k, size=active_per_doc, replace=False)
        H_star[rows, j] = rng.uniform(0.5, 1.5, size=active_per_doc)

    clean = W_star @ H_star
    sigma = 0.05 * float(np.mean(clean)) if noise_sigma is None else float(noise_sigma)
    A = clean + sigma * rng.standard_normal(clean.shape) if sigma > 0 else clean
    A = np.clip(A, 0.0, None)

    db_topics = list(true[removed_topics:]) + list(false)
    order = rng.permutation(len(db_topics))
    db = TopicDB(n_words, [db_topics[i] for i in order])
    # Planted indices in the shuffled database (only meaningful when no
    # topics were removed).
    planted = []
    if removed_topics == 0:
        keys = {tuple(t.astype(int)): i for i, t in enumerate(db.topics)}
        planted = [keys[tuple(t.astype(int))] for t in true]
    return NmfInstance(
        A=A, k=k, db=db, planted_topics=planted or None,
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
        "db": [t.astype(int).tolist() for t in instance.db.topics],
        "A": numerics.encode_array(instance.A),
        "planted": instance.planted_topics,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_instance(path):
    with open(path) as fh:
        return instance_from_doc(json.load(fh))


def instance_from_doc(doc):
    """Instance from a parsed instance file, as `save_instance` writes it.

    Its arrays may also be nested lists, the form files had before arrays
    were written with `numerics.encode_array`.
    """
    if doc.get("problem") != "prior-nmf":
        raise ValueError("not a prior-nmf instance file")
    db = TopicDB(int(doc["n"]), [np.array(t, dtype=float) for t in doc["db"]])
    return NmfInstance(
        A=numerics.decode_array(doc["A"]),
        k=int(doc["k"]),
        db=db,
        planted_topics=doc.get("planted"),
        noise_sigma=float(doc.get("noise_sigma", 0.0)),
        seed=int(doc.get("seed", 0)),
    )
