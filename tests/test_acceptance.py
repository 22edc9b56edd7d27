"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success)."""

import contextlib
import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from bagel import cli, smart_design
from bagel.constraints import (
    ExtendedTable,
    BOTH,
    ONE,
    ZERO,
    budget_propagate,
    encode_norm_ball_as_et,
    encode_smart_design_as_et,
    et_satisfied,
    lp_cost,
)
from bagel.engine import LEAF, StopCondition, bagel_search
from bagel.numerics import GramLeastSquares, make_rng, nmf_multiplicative
from bagel.prior_nmf import (
    PriorNmfProblem,
    nmf_generate_instance,
    nmf_topic_recovery,
)
from bagel.smart_design import (
    NOISE_SCALE,
    Component,
    SmartDesignProblem,
    run_methods,
    sd_generate_instance,
)
from oracles import brute_force_sd, random_start


def _report(number, description):
    print("[PASS] criterion %d: %s" % (number, description))


def test_criterion_1_brute_force_exactness():
    rng = make_rng(2024)
    for seed in range(50):
        n = int(rng.choice([10, 20, 40]))
        samples = int(rng.choice([100, 200]))
        cost = float(rng.choice([0.30, 0.60, 0.80, 0.90]))
        with (pytest.warns(UserWarning, match="samples=200") if samples == 200
              else contextlib.nullcontext()):  # 200 is off the grid
            inst = sd_generate_instance(n, samples, cost, seed=seed)
        best, stats = bagel_search(SmartDesignProblem.from_instance(inst))
        assert stats.completed
        oracle = brute_force_sd(inst)
        assert abs(best.loss - oracle) <= 1e-9 * max(1.0, abs(oracle))
    _report(1, "exhaustive search equals the brute-force oracle on 50 instances")


FIG2_LOSSES = {
    (): 0.12,
    ((0, 0),): 0.14,
    ((0, 0), (1, 0)): 0.21,
    ((0, 0), (1, 1)): 0.22,
    ((0, 1),): 0.19,
}


class Fig2Problem(SmartDesignProblem):
    """Mock trainer injecting the documented per-node losses."""

    def train(self, node):
        node.model = np.zeros(self.solver.X.shape[1])
        return FIG2_LOSSES[tuple((d.var, d.value) for d in node.trail)]


def test_criterion_2_trace_replay():
    components = [Component(3, 10.0), Component(2, 6.0), Component(2, 5.0), Component(1, 1.0)]
    problem = Fig2Problem(GramLeastSquares(np.zeros((1, 8)), np.zeros(1)), components, 12.0)
    records = []
    best, stats = bagel_search(problem, trace=records.append)
    visited = [(tuple(r["trail"]), r["status"], r["loss"]) for r in records]
    assert visited == [
        ((), "trained", 0.12),
        (("u1=0",), "trained", 0.14),
        (("u1=0", "u2=0"), "leaf", 0.21),
        (("u1=0", "u2=1"), "pruned", 0.22),
        (("u1=1",), "leaf", 0.19),
    ]
    assert best.loss == 0.19
    assert list(best.model.u) == [1, 0, 0, 1]  # propagation fixed u2 = u3 = 0
    assert stats.completed
    _report(2, "documented five-node trace replayed exactly, incumbent 0.19")


@pytest.fixture(scope="module")
def sweep_rows():
    rows = []
    for cost in (0.30, 0.60, 0.80, 0.90):
        for n in (10, 20, 40):
            for samples in (100, 400):
                for seed in (0, 1, 2):
                    inst = sd_generate_instance(n, samples, cost, seed=seed)
                    for row in run_methods(
                        inst, folds=5, stop=StopCondition(wall_seconds=600.0)
                    ):
                        row["cell"] = (cost, n, samples, seed)
                        rows.append(row)
    return rows


def test_criterion_3_baseline_dominance(sweep_rows):
    by_key = {}
    for row in sweep_rows:
        by_key.setdefault((row["cell"], row["fold"]), {})[row["method"]] = row
    for (cell, fold), methods in by_key.items():
        assert set(methods) == {"bagel", "l2_br", "l2_or"}
        if methods["bagel"]["completed"]:
            baseline = min(methods["l2_br"]["train_loss"], methods["l2_or"]["train_loss"])
            assert methods["bagel"]["train_loss"] <= baseline + 1e-9
    mean = lambda m: np.mean([r["test_loss"] for r in sweep_rows if r["method"] == m])
    assert mean("bagel") <= mean("l2_br")
    assert mean("bagel") <= mean("l2_or")
    _report(3, "search dominates both repair baselines on train loss, and on mean test loss")


# Seeds of the dense instances below on which bagel's train loss is
# strictly below both baselines'; on 4 and 7 it equals the better one.
DENSE_STRICT_SEEDS = (1, 2, 3, 5, 6, 8)


def dense_instance(seed):
    """The generator's (40, 400, 0.6) instance with 20 components, its y
    redrawn from a dense theta* ~ N(0, 1) on every feature, so no
    budget-feasible support holds the whole signal."""
    inst = sd_generate_instance(40, 400, 0.6, seed, n_components=20)
    rng = make_rng([seed, 0xD])
    clean = inst.X @ rng.standard_normal(inst.X.shape[1])
    y = clean + NOISE_SCALE * float(np.std(clean)) * rng.standard_normal(len(clean))
    return dataclasses.replace(inst, y=y)


def test_criterion_3_dense_theta_search_beats_both_baselines():
    for seed in range(1, 9):
        rows = {r["method"]: r for r in run_methods(dense_instance(seed), folds=1)}
        bagel = rows["bagel"]["train_loss"]
        baseline = min(rows["l2_br"]["train_loss"], rows["l2_or"]["train_loss"])
        assert rows["bagel"]["completed"]
        assert bagel <= baseline
        if seed in DENSE_STRICT_SEEDS:
            assert bagel < baseline, seed
    _report(3, "with a dense theta*, search beats both repair baselines on train loss")


# (nodes opened under dfs, under best-first, the incumbent's u) of
# run_methods(dense_instance(seed), folds=1) for seeds 1-8.  A new solve
# kernel that rounds differently may not change which nodes the search
# opens or what it picks.
DENSE_SEARCHES = {
    1: (129, 135, "11110111001011001010"),
    2: (139, 65, "11011111111000100110"),
    3: (63, 55, "10110101101001110111"),
    4: (111, 111, "11110110011101101001"),
    5: (149, 127, "11110111010101100101"),
    6: (101, 67, "01101110110100111110"),
    7: (39, 39, "11111111010011010101"),
    8: (157, 101, "11011101010001100111"),
}


@pytest.mark.parametrize("strategy", ["dfs", "best-first"])
def test_dense_searches_keep_their_nodes_and_incumbents(monkeypatch, strategy):
    search, found = smart_design.bagel_search, []

    def spy(*args, **kwargs):
        best, stats = search(*args, **kwargs)
        found.append("".join(map(str, best.model.u)))
        return best, stats

    monkeypatch.setattr(smart_design, "bagel_search", spy)
    for seed, (dfs_nodes, bf_nodes, u) in DENSE_SEARCHES.items():
        (bagel,) = [r for r in run_methods(dense_instance(seed), folds=1, strategy=strategy)
                    if r["method"] == "bagel"]
        assert bagel["nodes"] == (dfs_nodes if strategy == "dfs" else bf_nodes), seed
        assert found[-1] == u, seed


def test_criterion_4_tightness_ordering(sweep_rows):
    for row in sweep_rows:
        assert 0.0 <= row["tightness"] < 1.0
    mean = lambda m: np.mean([r["tightness"] for r in sweep_rows if r["method"] == m])
    assert mean("bagel") >= mean("l2_br")
    assert mean("bagel") >= mean("l2_or")
    _report(4, "mean budget tightness of search solutions >= each baseline, all in [0, 1)")


def test_criterion_5_budget_propagation_soundness():
    rng = make_rng(77)
    for _ in range(200):
        k = int(rng.integers(2, 13))
        w = rng.uniform(0, 5, k)
        b = float(rng.uniform(0.5, w.sum() + 1))
        states = [int(rng.choice([ZERO, ONE, BOTH], p=[0.15, 0.25, 0.6])) for _ in range(k)]
        domains = np.array(states, dtype=np.int8)
        fixings, failed = budget_propagate(domains, w, b)

        def feasible_completions(sts):
            free = [i for i, s in enumerate(sts) if s == BOTH]
            found = []
            for bits in itertools.product((0, 1), repeat=len(free)):
                u = [1 if s == ONE else 0 for s in sts]
                for i, bit in zip(free, bits):
                    u[i] = bit
                if math.fsum(itertools.compress(w, u)) < b:
                    found.append(tuple(u))
            return found

        before = feasible_completions(states)
        if failed:
            assert before == []
            continue
        after = feasible_completions(domains)
        assert set(before) == set(after)  # no feasible completion lost
        for i, _ in fixings:
            assert all(u[i] == 0 for u in before)  # every fixing entailed
    _report(5, "budget propagation sound and completion-preserving on 200 random triples")


def test_criterion_6_nmf_solver_properties():
    rng = make_rng(88)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(2, 31))
        k = int(rng.integers(1, 6))
        A = rng.random((n, m)) * float(rng.uniform(0.5, 3))
        mask = (rng.random((n, k)) < 0.8).astype(float)
        # One sweep per call, each from the previous call's factors: the
        # sweeps of one 25-sweep run, bit for bit.
        W, H = random_start(A, k, make_rng(int(rng.integers(1 << 30))))
        losses = []
        for _ in range(25):
            W, H, loss, _ = nmf_multiplicative(A, k, mask, 1, (W, H))
            assert np.all(W >= 0) and np.all(H >= 0)
            assert np.all(W[mask == 0] == 0.0)
            losses.append(loss)
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev + 1e-12
    _report(6, "masked NMF: monotone loss, non-negative factors, exact mask zeros")


class TopicSetRecorder(PriorNmfProblem):
    """Records each leaf's topic set and trained loss.  A trace trail names
    only the branched columns; the last column can take the one topic left
    without a decision."""

    def __init__(self, instance, **kwargs):
        super().__init__(instance, **kwargs)
        self.leaf_losses = []

    def is_leaf(self, node):
        leaf = super().is_leaf(node)
        if leaf:
            topics = frozenset(self.extract(node).assignment)
            self.leaf_losses.append((topics, node.trained_loss))
        return leaf


def test_criterion_7_planted_nmf_recovery():
    recoveries = []
    for seed in range(10):
        inst = nmf_generate_instance(20, 4, 2, 50, seed=seed, noise_sigma=0.0)
        problem = TopicSetRecorder(inst, iters=2000)
        best, stats = bagel_search(problem, prune=False)
        assert stats.completed
        # every topic set is a leaf exactly once (the search fixes the column
        # order), so the planted set is visited
        losses = dict(problem.leaf_losses)
        assert len(losses) == len(problem.leaf_losses) == stats.leaves
        assert stats.leaves == math.comb(len(inst.db), inst.k) == 15
        planted_leaf_loss = losses.get(frozenset(inst.planted_topics))
        assert planted_leaf_loss is not None
        # incumbent is a min over visited leaves, so it cannot exceed the
        # planted leaf's trained loss
        assert best.loss <= planted_leaf_loss
        assert best.loss <= 1e-3 * np.linalg.norm(inst.A)
        recoveries.append(nmf_topic_recovery(best.model.assignment, inst.planted_topics))
    assert np.mean(recoveries) >= 0.9
    _report(7, "planted topics recovered (mean recovery %.2f) on 10 noiseless instances"
            % float(np.mean(recoveries)))


def test_criterion_8_extended_table_suite():
    rng = make_rng(99)
    # classical-table equivalence at threshold 0 with Euclidean cost
    for _ in range(100):
        arity = int(rng.integers(1, 5))
        tuples = rng.integers(0, 4, size=(int(rng.integers(1, 8)), arity)).astype(float)
        et = ExtendedTable(tuples, lp_cost(2), 0.0)
        y = tuples[int(rng.integers(len(tuples)))] if rng.random() < 0.5 \
            else rng.integers(0, 4, size=arity).astype(float)
        assert et_satisfied(y, et)[0] == any(np.array_equal(y, t) for t in tuples)
    # norm-ball encoding agrees with direct norm evaluation
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        p = float(rng.choice([1, 2, np.inf]))
        lam = float(rng.random() * 2)
        theta = rng.standard_normal(dim)
        et = encode_norm_ball_as_et(p, lam, dim)
        assert et_satisfied(theta, et)[0] == (np.linalg.norm(theta, ord=p) <= lam)
    # budget-selection encoding matches the two defining constraints by brute
    # force on the shrunken toy
    sizes = (3, 2, 2, 1)
    weights = (10.0, 6.0, 5.0, 1.0)
    et = encode_smart_design_as_et(list(zip(sizes, weights)), 12.0)
    assert et.tuples.shape == (9, 8)
    starts = np.cumsum((0,) + sizes)
    for bits in itertools.product((0, 1), repeat=8):
        theta = np.array(bits, dtype=float) * rng.uniform(0.5, 1.5, 8)
        active = [int(np.any(theta[starts[i]:starts[i + 1]] != 0)) for i in range(4)]
        feasible = math.fsum(itertools.compress(weights, active)) < 12.0
        assert et_satisfied(theta, et)[0] == feasible
    _report(8, "extended table suite: classic equivalence, norm ball, budget encoding")


def _rows_without_wall(path):
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in csv.DictReader(fh)]


def test_criterion_9_solve_determinism(tmp_path):
    sd = str(tmp_path / "sd.json")
    cli.main(["generate", "--problem", "smart-design", "--n", "10", "--samples", "100",
              "--cost", "0.6", "--seed", "7", "--out", sd])
    nmf = str(tmp_path / "nmf.json")
    cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--true-topics", "4",
              "--false-topics", "2", "--docs", "50", "--seed", "3", "--noiseless",
              "--out", nmf])
    for inst, extra in ((sd, ["--folds", "3"]), (nmf, ["--iters", "60", "--node-cap", "40"])):
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["solve", "--instance", inst, "--out", o1] + extra) == 0
        assert cli.main(["solve", "--instance", inst, "--out", o2] + extra) == 0
        assert _rows_without_wall(o1) == _rows_without_wall(o2)
    _report(9, "repeated solves are byte-identical outside wall-time fields")


def test_criterion_10_node_bound_and_timeout():
    for seed in range(5):
        inst = sd_generate_instance(20, 100, 0.6, seed=seed)
        k = len(inst.components)
        problem = SmartDesignProblem.from_instance(inst)
        _, stats = bagel_search(problem, stop=StopCondition(wall_seconds=600.0))
        assert stats.completed
        assert stats.nodes_opened <= 2 ** (k + 1) - 1
        # a stop mid-search still yields the best incumbent found so far
        leaves = []
        capped_best, capped_stats = bagel_search(
            SmartDesignProblem.from_instance(inst),
            stop=StopCondition(node_budget=10),
            trace=lambda rec: leaves.append(rec["loss"]) if rec["status"] == LEAF else None,
        )
        assert not capped_stats.completed
        if leaves:
            assert capped_best is not None
            assert capped_best.loss == min(leaves)
        # an expired wall clock stops immediately without error
        timed_best, timed_stats = bagel_search(
            SmartDesignProblem.from_instance(inst),
            stop=StopCondition(wall_seconds=0.0),
        )
        assert not timed_stats.completed
        assert timed_best is None
    _report(10, "node count bounded by 2^(k+1)-1; stops return the incumbent, completed=false")
