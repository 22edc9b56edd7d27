"""Budget-constrained component selection for linear regression.

A model is a coefficient vector over features grouped into components;
activating a component costs its weight and the total activated weight
must stay under the budget.  The search problem, two greedy repair
baselines, a seeded instance generator, and evaluation helpers live here.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import constraints, numerics
from .constraints import BOTH, ONE, ZERO
from .engine import Decision, Problem, bagel_search

FEATURE_GRID = (10, 20, 40, 70, 100, 130, 150, 180, 200, 225, 250, 300, 350)
SAMPLE_GRID = (100, 400, 700, 1000, 1500, 3000, 7000, 10000)
COST_GRID = (0.90, 0.80, 0.60, 0.30)
NOISE_SCALE = 0.1  # label noise sigma as a fraction of std(X @ theta*)
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class Component:
    input_size: int
    weight: float

    def __post_init__(self):
        if self.input_size < 1:
            raise ValueError("input_size must be >= 1")
        if not self.weight >= 0:  # `not >=` also rejects NaN
            raise ValueError("weight must be >= 0, got %r" % self.weight)


@dataclass
class SmartDesignInstance:
    X: np.ndarray
    y: np.ndarray
    components: List[Component]
    bound: float
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.X = numerics.matrix(self.X)
        self.y = numerics.vector(self.y)
        d = sum(c.input_size for c in self.components)
        if d != self.X.shape[1]:
            raise ValueError("component sizes must partition the feature axis")
        if len(self.y) != self.X.shape[0]:
            raise ValueError("y length must match the sample axis")
        if not self.bound > 0:  # `not >` also rejects NaN
            raise ValueError("bound must be > 0, got %r" % self.bound)

    @property
    def weights(self):
        return np.array([c.weight for c in self.components])

    def feature_slices(self):
        """Per-component index ranges partitioning the feature axis."""
        out, start = [], 0
        for c in self.components:
            out.append(slice(start, start + c.input_size))
            start += c.input_size
        return out


@dataclass
class DesignSolution:
    u: np.ndarray
    theta: np.ndarray
    train_loss: float
    test_loss: Optional[float] = None


def expand_mask(bits, sizes):
    """Replicate per-component activation bits over their feature blocks.

    bits may be 0/1 selections or domain codes: every code but ZERO is on.
    """
    return np.repeat(np.asarray(bits) != ZERO, sizes)


def sd_tightness(u, weights, bound):
    """Fraction of the budget consumed by the active components."""
    if bound <= 0:
        raise ValueError("bound must be > 0")
    return float(np.dot(u, weights) / bound)


def sd_evaluate(solution, X_test, y_test):
    """Euclidean residual norm of the solution on held-out data."""
    X_test = np.asarray(X_test, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    if X_test.shape[1] != len(solution.theta) or X_test.shape[0] != len(y_test):
        raise numerics.DimensionError("test split shapes are inconsistent")
    return float(np.linalg.norm(X_test @ solution.theta - y_test))


class SmartDesignProblem(Problem):
    """Search over component activations; training is masked least squares
    from the Gram matrix of (X, y), formed once per problem."""

    def __init__(self, X, y, components, bound):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.components = list(components)
        self.bound = float(bound)
        self.weights = np.array([c.weight for c in self.components])
        self.sizes = np.array([c.input_size for c in self.components])
        self.solver = numerics.GramLeastSquares(self.X, self.y)

    @classmethod
    def from_instance(cls, instance):
        return cls(instance.X, instance.y, instance.components, instance.bound)

    def root_state(self):
        return np.full(len(self.components), BOTH, np.int8)

    def prune(self, node):
        _, failed = constraints.budget_propagate(node.state, self.weights, self.bound)
        return not failed

    def generate(self, node):
        node.payload = expand_mask(node.state, self.sizes)

    def train(self, node):
        theta, loss = self.solver.solve(node.payload)
        node.model = theta
        return loss

    def is_leaf(self, node):
        # Every completion of the free variables fits the budget.  Python's
        # sum adds left to right, as the budget rule's other totals do.
        total = sum(self.weights[node.state != ZERO].tolist())
        return constraints.within_budget(total, self.bound)

    def branch(self, node):
        free = np.flatnonzero(node.state == BOTH)
        if not free.size:
            raise RuntimeError("branch() called on a node with no free variable")
        i = int(free[0])
        return [Decision(i, ZERO, "u%d=0" % (i + 1)), Decision(i, ONE, "u%d=1" % (i + 1))]

    def apply(self, state, decision):
        child = state.copy()
        child[decision.var] = decision.value  # ZERO or ONE
        return child

    def extract(self, node):
        u = (node.state != ZERO).astype(int)
        return DesignSolution(u=u, theta=node.model.copy(), train_loss=node.trained_loss)


def _component_scores(theta, components):
    """Largest coefficient magnitude of each component."""
    scores, start = [], 0
    for c in components:
        scores.append(float(np.max(np.abs(theta[start:start + c.input_size]))))
        start += c.input_size
    return np.array(scores)


def baseline_l2_br(X, y, components, bound):
    """Basic repair: fit once, drop lowest-coefficient components until the
    budget holds, then refit once on the survivors."""
    weights = np.array([c.weight for c in components])
    sizes = [c.input_size for c in components]
    solver = numerics.GramLeastSquares(X, y)
    theta, _ = solver.solve(np.ones(sum(sizes)))
    scores = _component_scores(theta, components)
    u = np.ones(len(components), dtype=int)
    for i in np.argsort(scores, kind="stable"):
        if constraints.within_budget(float(np.dot(u, weights)), bound):
            break
        u[i] = 0
    theta, loss = solver.solve(expand_mask(u, sizes))
    return DesignSolution(u=u, theta=theta, train_loss=loss)


def baseline_l2_or(X, y, components, bound):
    """Ratio repair: iteratively drop the component with the lowest
    coefficient-over-weight ratio, refitting after every removal."""
    weights = np.array([c.weight for c in components])
    sizes = [c.input_size for c in components]
    u = np.ones(len(components), dtype=int)
    solver = numerics.GramLeastSquares(X, y)
    theta, loss = solver.solve(expand_mask(u, sizes))
    while not constraints.within_budget(float(np.dot(u, weights)), bound):
        scores = _component_scores(theta, components)
        ratios = np.where(weights > 0, scores / np.maximum(weights, 1e-300), np.inf)
        active = np.flatnonzero(u)
        drop = active[np.argmin(ratios[active], )]
        u[drop] = 0
        theta, loss = solver.solve(expand_mask(u, sizes))
    return DesignSolution(u=u, theta=theta, train_loss=loss)


def _partition_sizes(n, k, rng):
    # Uniform proportions normalised to sum to n, every part >= 1.
    props = rng.random(k)
    sizes = np.maximum(1, np.floor(props / props.sum() * n).astype(int))
    while sizes.sum() > n:
        sizes[np.argmax(sizes)] -= 1
    while sizes.sum() < n:
        sizes[np.argmin(sizes)] += 1
    return sizes


def sd_generate_instance(n_features, samples, cost_percent, seed, n_components=None):
    """Seeded random instance with a planted budget-feasible support."""
    if not (0 < cost_percent <= 1):
        raise ValueError("cost_percent must be in (0, 1]")
    if n_features < 1 or samples < 1:
        raise ValueError("n_features and samples must be >= 1")
    if n_features not in FEATURE_GRID:
        warnings.warn("n_features=%d is off the usual grid" % n_features)
    if samples not in SAMPLE_GRID:
        warnings.warn("samples=%d is off the usual grid" % samples)
    if cost_percent not in COST_GRID:
        warnings.warn("cost_percent=%.3g is off the usual grid" % cost_percent)
    rng = numerics.make_rng(seed)
    if n_components is None:
        n_components = int(rng.integers(4, 9))
    k = min(n_components, n_features)
    sizes = _partition_sizes(n_features, k, rng)
    weights = rng.uniform(1.0, 10.0, size=k)
    components = [Component(int(s), float(w)) for s, w in zip(sizes, weights)]
    bound = float(cost_percent * weights.sum())

    # Planted support: greedily admit components in random order while the
    # budget holds, so the ground truth is always feasible.
    order = rng.permutation(k)
    support = np.zeros(k, dtype=int)
    total = 0.0
    for i in order:
        if constraints.within_budget(total + weights[i], bound):
            support[i] = 1
            total += weights[i]
    theta_star = rng.standard_normal(n_features) * expand_mask(support, sizes)
    X = rng.standard_normal((samples, n_features))
    clean = X @ theta_star
    sigma = NOISE_SCALE * float(np.std(clean))
    y = clean + sigma * rng.standard_normal(samples)
    return SmartDesignInstance(
        X=X, y=y, components=components, bound=bound, noise_sigma=sigma, seed=seed
    )


def save_instance(instance, path):
    doc = {
        "problem": "smart-design",
        "seed": instance.seed,
        "components": [
            {"size": c.input_size, "weight": c.weight} for c in instance.components
        ],
        "B": instance.bound,
        "noise_sigma": instance.noise_sigma,
        "X": numerics.encode_array(instance.X),
        "y": numerics.encode_array(instance.y),
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
    if doc.get("problem") != "smart-design":
        raise ValueError("not a smart-design instance file")
    return SmartDesignInstance(
        X=numerics.decode_array(doc["X"]),
        y=numerics.decode_array(doc["y"]),
        components=[Component(int(c["size"]), float(c["weight"])) for c in doc["components"]],
        bound=float(doc["B"]),
        noise_sigma=float(doc.get("noise_sigma", 0.0)),
        seed=int(doc.get("seed", 0)),
    )


def fold_split(n_samples, fold, seed):
    """Deterministic 80/20 split for the given fold index."""
    rng = numerics.make_rng(np.random.SeedSequence([seed & (2 ** 63 - 1), fold, 0x5D]))
    perm = rng.permutation(n_samples)
    n_test = max(1, int(round(TEST_FRACTION * n_samples)))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def run_methods(instance, folds=5, stop=None, strategy="dfs", prune=True, trace=None):
    """Solve every fold with each method; returns flat result rows."""
    if folds < 1:
        raise ValueError("folds must be >= 1")
    rows = []
    weights = instance.weights
    for fold in range(folds):
        train_idx, test_idx = fold_split(len(instance.y), fold, instance.seed)
        Xtr, ytr = instance.X[train_idx], instance.y[train_idx]
        Xte, yte = instance.X[test_idx], instance.y[test_idx]
        for method in ("bagel", "l2_br", "l2_or"):
            nodes, wall_ms, completed = 0, 0.0, True
            if method == "bagel":
                problem = SmartDesignProblem(Xtr, ytr, instance.components, instance.bound)
                best, stats = bagel_search(
                    problem, stop=stop, strategy=strategy, prune=prune, trace=trace
                )
                if best is None:
                    continue
                sol = best.model
                nodes = stats.nodes_opened
                wall_ms = stats.wall_time * 1000.0
                completed = stats.completed
            elif method == "l2_br":
                sol = baseline_l2_br(Xtr, ytr, instance.components, instance.bound)
            else:
                sol = baseline_l2_or(Xtr, ytr, instance.components, instance.bound)
            sol.test_loss = sd_evaluate(sol, Xte, yte)
            rows.append({
                "method": method,
                "fold": fold,
                "train_loss": sol.train_loss,
                "test_loss": sol.test_loss,
                "tightness": sd_tightness(sol.u, weights, instance.bound),
                "nodes": nodes,
                "wall_ms": wall_ms,
                "completed": completed,
            })
    return rows
