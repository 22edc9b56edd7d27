"""Budget-constrained component selection for linear regression.

A model is a coefficient vector over features grouped into components;
activating a component costs its weight and the total activated weight
must stay under the budget.  The search problem, two greedy repair
baselines, a seeded instance generator, and evaluation helpers live here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from . import constraints, numerics
from .constraints import BOTH, ONE, ZERO
from .engine import Decision, Incumbent, Problem, bagel_search

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


@dataclass(eq=False)
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
        if not self.components:
            raise ValueError("components must not be empty")
        # A fold tests on at least one row and every method trains on the rest.
        if len(self.y) < 2:
            raise ValueError("samples must be >= 2, got %d" % len(self.y))
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %d" % self.seed)
        # No selection totals more, so then no budget test overflows.
        try:
            constraints.budget_total(self.weights)
        except OverflowError:
            raise ValueError("weights %r: their exact total overflows float64"
                             % [c.weight for c in self.components]) from None

    @property
    def weights(self):
        return np.array([c.weight for c in self.components])


@dataclass(eq=False)
class DesignSolution:
    u: np.ndarray
    theta: np.ndarray
    train_loss: float


def expand_mask(bits, sizes):
    """Replicate per-component activation bits over their feature blocks.

    bits may be 0/1 selections or domain codes: every code but ZERO is on.
    """
    return np.repeat(np.asarray(bits) != ZERO, sizes)


def sd_tightness(u, weights, bound):
    """Fraction of the budget consumed by the active components: their
    `constraints.budget_total` over the bound, so it is below 1 exactly
    when the selection is within budget."""
    if bound <= 0:
        raise ValueError("bound must be > 0")
    return constraints.budget_total(np.asarray(weights)[np.asarray(u) != 0]) / bound


def sd_evaluate(solutions, X, y, rows=None):
    """Euclidean residual norm of each solution on the held-out rows `rows`
    of (X, y) (all rows when None), as a list in the order of `solutions`.

    X is read in place by `numerics.row_blocks`: each block of the rows is
    gathered once, and every solution's theta is applied to it, filling
    that solution's residual vector; no copy of the rows is made.  Where
    the rows fit in one block, a loss is ||X[rows] theta - y[rows]|| bit
    for bit.  Across blocks the BLAS may sum a row at a block's end in
    another order than it would in one product over all the rows, so its
    residual, and the loss, can differ in the last bit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (len(X),) or any(
            np.shape(sol.theta) != (X.shape[1],) for sol in solutions):
        raise numerics.DimensionError("test split shapes are inconsistent")
    blocks = numerics.row_blocks(X, rows)
    if rows is not None:
        y = y[rows]
    residuals = [np.empty(len(y)) for _ in solutions]
    for start, block in blocks:
        stop = start + len(block)
        for sol, r in zip(solutions, residuals):
            block.dot(sol.theta, r[start:stop])
    return [float(np.linalg.norm(np.subtract(r, y, out=r))) for r in residuals]


class SmartDesignProblem(Problem):
    """Search over component activations; training is masked least squares
    by `solver`, a `numerics.GramLeastSquares` of the training data.  The
    repair baselines read the solver and the component layout from here."""

    def __init__(self, solver, components, bound):
        self.solver = solver
        self.components = list(components)
        self.bound = float(bound)
        self.weights = np.array([c.weight for c in self.components])
        self.sizes = np.array([c.input_size for c in self.components])
        # Offset of each component's first feature: the `reduceat` indices
        # that reduce a feature vector to one value per component.
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.gram_diag = solver.gram.diagonal()
        # The two child decisions of each component, in the order `branch`
        # returns them.
        self.decisions = [[Decision(i, ZERO, "u%d=0" % (i + 1)),
                           Decision(i, ONE, "u%d=1" % (i + 1))]
                          for i in range(len(self.components))]

    @classmethod
    def from_instance(cls, instance):
        solver = numerics.GramLeastSquares(instance.X, instance.y)
        return cls(solver, instance.components, instance.bound)

    def root_state(self):
        return np.full(len(self.components), BOTH, np.int8)

    def prune(self, node):
        # A child's parent state is at the propagation fixpoint.  A u=0
        # child commits no new weight, so propagation would fix nothing and
        # cannot fail.  A u=1 child that fixes nothing has its parent's ZERO
        # set, so its parent's mask: `generate` builds none and `train`
        # reuses the parent's answer.
        parent = node.parent
        if parent is not None and node.trail[-1].value == ZERO:
            return True
        fixings, failed = constraints.budget_propagate(node.state, self.weights, self.bound)
        if failed:
            return False
        if parent is not None and not fixings:
            node.payload = parent.payload
        return True

    def generate(self, node):
        if node.payload is None:
            node.payload = expand_mask(node.state, self.sizes)

    def train(self, node):
        # The mask is the parent's object exactly when it is the parent's
        # mask (`prune`), and the solve is deterministic.
        parent = node.parent
        if parent is not None and node.payload is parent.payload:
            node.model = parent.model
            return parent.trained_loss
        theta, loss = self.solver.solve(node.payload)
        node.model = theta
        return loss

    def is_leaf(self, node):
        # Every completion of the free variables fits the budget.
        return constraints.within_budget(self.weights[node.state != ZERO].tolist(), self.bound)

    def branch(self, node):
        # Split on the free component that carries most of the node's
        # fitted signal, sum of theta_f^2 (X^T X)_ff over its features;
        # argmax breaks ties to the lowest index.  The u=0 child loses that
        # signal, so a seeded incumbent prunes it early; unseeded, a DFS
        # would dive into it first and find poor leaves.
        free = np.flatnonzero(node.state == BOTH)
        if not free.size:
            raise RuntimeError("branch() called on a node with no free variable")
        signal = np.add.reduceat(node.model ** 2 * self.gram_diag, self.starts)
        return self.decisions[free[np.argmax(signal[free])]]

    def apply(self, state, decision):
        child = state.copy()
        child[decision.var] = decision.value  # ZERO or ONE
        return child

    def extract(self, node):
        u = (node.state != ZERO).astype(int)
        return DesignSolution(u=u, theta=node.model.copy(), train_loss=node.trained_loss)


def baseline_l2_br(problem):
    """Basic repair: fit once, drop lowest-coefficient components until the
    budget holds, then refit once on the survivors.  problem is the
    `SmartDesignProblem` whose solver and component layout it uses."""
    weights, sizes = problem.weights, problem.sizes
    theta, _ = problem.solver.solve(np.ones(sizes.sum()))
    scores = np.maximum.reduceat(np.abs(theta), problem.starts)
    u = np.ones(len(weights), dtype=int)
    for i in np.argsort(scores, kind="stable"):
        if constraints.within_budget(weights[u == 1], problem.bound):
            break
        u[i] = 0
    theta, loss = problem.solver.solve(expand_mask(u, sizes))
    return DesignSolution(u=u, theta=theta, train_loss=loss)


def baseline_l2_or(problem):
    """Ratio repair: iteratively drop the component with the lowest
    coefficient-over-weight ratio, refitting after every removal.  problem
    is the `SmartDesignProblem` whose solver and component layout it uses."""
    weights, sizes = problem.weights, problem.sizes
    u = np.ones(len(weights), dtype=int)
    theta, loss = problem.solver.solve(expand_mask(u, sizes))
    while not constraints.within_budget(weights[u == 1], problem.bound):
        scores = np.maximum.reduceat(np.abs(theta), problem.starts)
        ratios = np.where(weights > 0, scores / np.maximum(weights, 1e-300), np.inf)
        active = np.flatnonzero(u)
        drop = active[np.argmin(ratios[active])]
        u[drop] = 0
        theta, loss = problem.solver.solve(expand_mask(u, sizes))
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
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2, got %d" % samples)
    if n_components is not None and n_components < 1:
        raise ValueError("n_components must be >= 1, got %d" % n_components)
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
    # budget holds, so the ground truth is always feasible.  Component i
    # stays only if the support with it is within budget.
    support = np.zeros(k, dtype=int)
    for i in rng.permutation(k):
        support[i] = 1
        support[i] = constraints.within_budget(weights[support == 1], bound)
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
        "X": instance.X,
        "y": instance.y,
    }
    numerics.write_instance(path, doc)


def load_instance(doc):
    """Instance from an instance file's document (`numerics.read_instance`),
    whose arrays are float arrays or nested lists."""
    if doc.get("problem") != "smart-design":
        raise ValueError("not a smart-design instance file")
    return SmartDesignInstance(
        X=doc["X"],
        y=doc["y"],
        components=[Component(numerics.integer(c["size"], "size"),
                              numerics.number(c["weight"], "weight"))
                    for c in doc["components"]],
        bound=numerics.number(doc["B"], "B"),
        noise_sigma=numerics.number(doc.get("noise_sigma", 0.0), "noise_sigma"),
        seed=numerics.integer(doc.get("seed", 0), "seed"),
    )


def fold_split(n_samples, fold, seed):
    """Deterministic 80/20 split for the given fold index."""
    rng = numerics.make_rng([seed, fold, 0x5D])
    perm = rng.permutation(n_samples)
    n_test = max(1, int(round(TEST_FRACTION * n_samples)))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def run_methods(instance, folds=5, stop=None, strategy="dfs", prune=True, trace=None):
    """Solve every fold with each method; returns flat result rows.

    Both repair baselines run first, and the search starts from the one
    with the lower train loss (l2_br on a tie): a bagel row is therefore
    written even when the search opens no node.  The bagel row of a fold
    carries its search's `SearchStats` under "stats"; the baseline rows'
    "stats" is None.

    A fold trains on its rows of `instance.X` in place: one
    `numerics.GramLeastSquares` of the shared X and y at the fold's
    training rows serves both baselines and the search, and no copy of
    the training rows is made.  The methods are scored on the fold's test
    rows by `sd_evaluate`, which reads them in blocks too, so no fold copies
    its test rows either.
    """
    if folds < 1:
        raise ValueError("folds must be >= 1")
    rows = []
    for fold in range(folds):
        train_idx, test_idx = fold_split(len(instance.y), fold, instance.seed)
        solver = numerics.GramLeastSquares(instance.X, instance.y, train_idx)
        problem = SmartDesignProblem(solver, instance.components, instance.bound)
        br, orr = baseline_l2_br(problem), baseline_l2_or(problem)
        better = min((br, orr), key=lambda sol: sol.train_loss)
        best, stats = bagel_search(
            problem, stop=stop, strategy=strategy, prune=prune, trace=trace,
            incumbent=Incumbent(None, better.train_loss, better),
        )
        methods = (("bagel", best.model), ("l2_br", br), ("l2_or", orr))
        test_losses = sd_evaluate([sol for _, sol in methods], instance.X, instance.y, test_idx)
        for (method, sol), test_loss in zip(methods, test_losses):
            searched = method == "bagel"
            rows.append({
                "method": method,
                "fold": fold,
                "train_loss": sol.train_loss,
                "test_loss": test_loss,
                "tightness": sd_tightness(sol.u, problem.weights, problem.bound),
                "nodes": stats.nodes_opened if searched else 0,
                "wall_ms": stats.wall_time * 1000.0 if searched else 0.0,
                "completed": stats.completed if searched else True,
                "stats": stats if searched else None,
            })
    return rows
