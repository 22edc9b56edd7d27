import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bagel import constraints, numerics, smart_design
from bagel.constraints import (
    BOTH,
    ONE,
    ZERO,
    budget_propagate,
    encode_smart_design_as_et,
    et_satisfied,
    within_budget,
)
from bagel.engine import Decision, Incumbent, Node, StopCondition, bagel_search
from bagel.numerics import GramLeastSquares, make_rng, solve_least_squares
from bagel.smart_design import (
    Component,
    SmartDesignInstance,
    SmartDesignProblem,
    baseline_l2_br,
    baseline_l2_or,
    expand_mask,
    fold_split,
    run_methods,
    sd_evaluate,
    sd_generate_instance,
    sd_tightness,
)
from oracles import brute_force_sd, dense_instance

TOY_COMPONENTS = [Component(3, 10.0), Component(2, 6.0), Component(2, 5.0), Component(1, 1.0)]
TOY_BOUND = 12.0


def toy_instance(seed=0, samples=30):
    rng = make_rng(seed)
    d = sum(c.input_size for c in TOY_COMPONENTS)
    X = rng.standard_normal((samples, d))
    theta = np.zeros(d)
    theta[3:5] = rng.standard_normal(2)  # component 2 only (weight 6 < 12)
    y = X @ theta + 0.05 * rng.standard_normal(samples)
    return SmartDesignInstance(X=X, y=y, components=TOY_COMPONENTS, bound=TOY_BOUND, seed=seed)


def boundary_instance(seed=0, samples=30):
    """Integer weights where the signal's components cost exactly the bound."""
    components = [Component(2, 3.0), Component(1, 2.0), Component(2, 4.0), Component(1, 1.0)]
    rng = make_rng(seed)
    X = rng.standard_normal((samples, 6))
    theta = np.zeros(6)
    theta[:3] = rng.standard_normal(3)  # components 1 and 2: 3 + 2 == 5
    y = X @ theta + 0.05 * rng.standard_normal(samples)
    return SmartDesignInstance(X=X, y=y, components=components, bound=5.0, seed=seed)


def node_with(problem, states):
    node = Node(0, 0, (), np.array(states, dtype=np.int8))
    return node


class TestGenerateMask:
    def test_all_free_is_all_ones(self):
        inst = toy_instance()
        problem = SmartDesignProblem.from_instance(inst)
        node = node_with(problem, [BOTH] * 4)
        problem.generate(node)
        assert np.all(node.payload == 1.0)

    def test_first_component_off(self):
        inst = toy_instance()
        problem = SmartDesignProblem.from_instance(inst)
        node = node_with(problem, [ZERO, BOTH, BOTH, BOTH])
        problem.generate(node)
        assert np.all(node.payload[:3] == 0.0)
        assert np.all(node.payload[3:] == 1.0)

    def test_all_off(self):
        inst = toy_instance()
        problem = SmartDesignProblem.from_instance(inst)
        node = node_with(problem, [ZERO] * 4)
        problem.generate(node)
        loss = problem.train(node)
        assert np.all(node.model == 0.0)
        assert loss == pytest.approx(np.linalg.norm(inst.y))


class TestIsLeaf:
    def test_two_off_rest_free_is_leaf(self):
        problem = SmartDesignProblem.from_instance(toy_instance())
        assert problem.is_leaf(node_with(problem, [ZERO, ZERO, BOTH, BOTH]))  # 5+1 < 12

    def test_all_free_not_leaf(self):
        problem = SmartDesignProblem.from_instance(toy_instance())
        assert not problem.is_leaf(node_with(problem, [BOTH] * 4))  # 22 >= 12

    def test_all_fixed_feasible_is_leaf(self):
        problem = SmartDesignProblem.from_instance(toy_instance())
        assert problem.is_leaf(node_with(problem, [ONE, ZERO, ZERO, ONE]))  # 11 < 12

    def test_selection_at_bound_is_not_leaf(self):
        inst = boundary_instance()
        problem = SmartDesignProblem.from_instance(inst)
        assert not problem.is_leaf(node_with(problem, [ONE, ONE, ZERO, ZERO]))  # 3+2 == 5
        assert problem.is_leaf(node_with(problem, [ONE, ZERO, ZERO, ONE]))  # 3+1 < 5


def trained_root(problem):
    root = node_with(problem, [BOTH] * len(problem.components))
    problem.generate(root)
    root.trained_loss = problem.train(root)
    return root


class TestStateIsolation:
    # The toy signal lives in component 2 (index 1), so a trained root
    # branches there.
    def test_apply_returns_a_new_array(self):
        problem = SmartDesignProblem.from_instance(toy_instance())
        root = trained_root(problem)
        parent = root.state
        zero, one = (problem.apply(parent, d) for d in problem.branch(root))
        assert not np.shares_memory(zero, parent) and not np.shares_memory(one, parent)
        assert list(parent) == [BOTH] * 4
        assert list(zero) == [BOTH, ZERO, BOTH, BOTH]
        assert list(one) == [BOTH, ONE, BOTH, BOTH]

    def test_prune_leaves_parent_and_sibling_untouched(self):
        problem = SmartDesignProblem.from_instance(toy_instance())
        root = trained_root(problem)
        zero, one = (Node(i + 1, 1, (d,), problem.apply(root.state, d))
                     for i, d in enumerate(problem.branch(root)))
        assert problem.prune(one)  # u2=1 commits 6 of 12: u1 (10) no longer fits
        assert list(one.state) == [ZERO, ONE, BOTH, BOTH]
        assert list(zero.state) == [BOTH, ZERO, BOTH, BOTH]
        assert list(root.state) == [BOTH] * 4


def signal_problem(column_scale=None):
    """Toy components over orthogonal columns: (X^T X)_ff = column_scale_f^2."""
    scale = np.ones(8) if column_scale is None else np.asarray(column_scale, dtype=float)
    return SmartDesignProblem(GramLeastSquares(np.diag(scale), np.zeros(8)),
                              TOY_COMPONENTS, TOY_BOUND)


def model_node(problem, states, theta):
    node = node_with(problem, states)
    node.model = np.asarray(theta, dtype=float)
    return node


class TestBranch:
    def test_largest_signal_wins(self):
        # Summed over the component: 0.9^2 + 0.9^2 beats component 1's lone 1.0.
        problem = signal_problem()
        decisions = problem.branch(model_node(problem, [BOTH] * 4,
                                              [1.0, 0, 0, 0.9, 0.9, 0, 0, 0]))
        assert [(d.var, d.value, d.label) for d in decisions] == [
            (1, ZERO, "u2=0"), (1, ONE, "u2=1")]
        # Weighted by the Gram diagonal: 0.6^2 * 2^2 beats 1.0^2.
        problem = signal_problem([1, 1, 1, 1, 1, 2, 1, 1])
        decisions = problem.branch(model_node(problem, [BOTH] * 4,
                                              [1.0, 0, 0, 0, 0, 0.6, 0, 0]))
        assert [d.var for d in decisions] == [2, 2]

    def test_ties_go_to_lowest_free_index(self):
        problem = signal_problem()
        decisions = problem.branch(model_node(problem, [ZERO, BOTH, BOTH, BOTH],
                                              [0, 0, 0, 0, 0.5, 0, 0, 0.5]))
        assert decisions[0].var == 1

    def test_all_free_branches_first_var(self):
        # A zero model ties every component: the first free one is split,
        # as in the documented trace replay.
        problem = signal_problem()
        decisions = problem.branch(model_node(problem, [BOTH] * 4, np.zeros(8)))
        assert [(d.var, d.value) for d in decisions] == [(0, 0), (0, 1)]
        assert decisions[0].label == "u1=0"

    def test_skips_fixed(self):
        # Component 1 holds the largest signal but is already fixed.
        problem = signal_problem()
        decisions = problem.branch(model_node(problem, [ONE, BOTH, BOTH, BOTH],
                                              [3.0, 0, 0, 0, 0, 0, 0.1, 0]))
        assert decisions[0].var == 2
        decisions = problem.branch(model_node(problem, [ZERO, BOTH, BOTH, BOTH], np.zeros(8)))
        assert decisions[0].var == 1

    def test_single_free(self):
        problem = signal_problem()
        decisions = problem.branch(model_node(problem, [ONE, ZERO, ZERO, BOTH],
                                              [1.0, 1.0, 1.0, 0, 0, 0, 0, 0]))
        assert [(d.var, d.value) for d in decisions] == [(3, 0), (3, 1)]

    def test_no_free_is_contract_error(self):
        problem = signal_problem()
        with pytest.raises(RuntimeError):
            problem.branch(model_node(problem, [ZERO] * 4, np.zeros(8)))


class TestBaselines:
    def test_feasible_instance_equals_plain_least_squares(self):
        inst = toy_instance()
        loose = SmartDesignInstance(
            X=inst.X, y=inst.y, components=inst.components, bound=1000.0, seed=0
        )
        sol = baseline_l2_br(SmartDesignProblem.from_instance(loose))
        theta, loss = solve_least_squares(loose.X, loose.y, np.ones(8))
        assert np.allclose(sol.theta, theta)
        assert sol.train_loss == pytest.approx(loss)
        assert np.all(sol.u == 1)

    def test_budget_below_every_weight(self):
        inst = toy_instance()
        tight = SmartDesignInstance(
            X=inst.X, y=inst.y, components=inst.components, bound=0.5, seed=0
        )
        for fn in (baseline_l2_br, baseline_l2_or):
            sol = fn(SmartDesignProblem.from_instance(tight))
            assert np.all(sol.u == 0)
            assert np.all(sol.theta == 0)
            assert sol.train_loss == pytest.approx(np.linalg.norm(tight.y))

    def test_br_matches_greedy_oracle_scalar_components(self):
        # independent oracle: hand-coded greedy removal on 3 scalar features
        rng = make_rng(99)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        comps = [Component(1, 2.0), Component(1, 3.0), Component(1, 4.0)]
        bound = 6.0
        theta0 = np.linalg.lstsq(X, y, rcond=None)[0]
        order = np.argsort(np.abs(theta0), kind="stable")
        u = [1, 1, 1]
        w = [2.0, 3.0, 4.0]
        for i in order:
            if math.fsum(itertools.compress(w, u)) < bound:
                break
            u[i] = 0
        cols = [i for i in range(3) if u[i]]
        expect = np.zeros(3)
        if cols:
            expect[cols] = np.linalg.lstsq(X[:, cols], y, rcond=None)[0]
        sol = baseline_l2_br(SmartDesignProblem(GramLeastSquares(X, y), comps, bound))
        assert list(sol.u) == u
        assert np.allclose(sol.theta, expect)

    def test_or_matches_ratio_refit_oracle_scalar_components(self):
        rng = make_rng(101)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        w = np.array([2.0, 3.0, 4.0])
        comps = [Component(1, wi) for wi in w]
        bound = 5.0
        u = np.ones(3, dtype=int)
        theta = np.linalg.lstsq(X, y, rcond=None)[0]
        while math.fsum(itertools.compress(w, u)) >= bound:
            active = np.flatnonzero(u)
            drop = active[np.argmin(np.abs(theta[active]) / w[active])]
            u[drop] = 0
            theta = np.zeros(3)
            cols = np.flatnonzero(u)
            if cols.size:
                theta[cols] = np.linalg.lstsq(X[:, cols], y, rcond=None)[0]
        sol = baseline_l2_or(SmartDesignProblem(GramLeastSquares(X, y), comps, bound))
        assert np.array_equal(sol.u, u)
        assert np.allclose(sol.theta, theta)

    def test_scores_by_largest_coefficient_of_each_component(self):
        # Orthogonal columns, so the full fit is y.  Component 1's largest
        # coefficient (0.6) is below component 2's (1.0), though its sum is not.
        X, y = np.eye(3), np.array([0.6, 0.6, 1.0])
        comps = [Component(2, 1.0), Component(1, 1.0)]
        for fn in (baseline_l2_br, baseline_l2_or):
            sol = fn(SmartDesignProblem(GramLeastSquares(X, y), comps, 1.5))
            assert list(sol.u) == [0, 1]

    def test_equal_weights_same_first_removal_order(self):
        rng = make_rng(102)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        comps = [Component(1, 2.0)] * 3
        problem = SmartDesignProblem(GramLeastSquares(X, y), comps, 4.5)
        br = baseline_l2_br(problem)
        orr = baseline_l2_or(problem)
        assert np.array_equal(br.u, orr.u)


class TestInstanceGenerator:
    def test_determinism(self):
        a = sd_generate_instance(10, 100, 0.6, seed=7)
        b = sd_generate_instance(10, 100, 0.6, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert a.components == b.components
        assert a.bound == b.bound

    def test_shapes(self):
        inst = sd_generate_instance(10, 100, 0.6, seed=7)
        assert inst.X.shape == (100, 10)
        assert inst.y.shape == (100,)
        assert sum(c.input_size for c in inst.components) == 10

    def test_planted_support_is_feasible(self):
        for seed in range(5):
            inst = sd_generate_instance(20, 100, 0.9, seed=seed)
            # the feasible optimum at zero noise would recover the support;
            # here just check some feasible selection exists below the bound
            assert any(w < inst.bound for w in inst.weights)

    def test_invalid_cost_percent(self):
        with pytest.raises(ValueError):
            sd_generate_instance(10, 100, 1.5, seed=0)
        for n_components in (0, -1):
            with pytest.raises(ValueError, match="n_components"):
                sd_generate_instance(10, 100, 0.6, seed=0, n_components=n_components)

    def test_off_grid_warns(self):
        with pytest.warns(UserWarning):
            sd_generate_instance(11, 100, 0.6, seed=0)


class TestMetrics:
    def test_tightness_toy(self):
        w = np.array([10.0, 6.0, 5.0, 1.0])
        assert sd_tightness([1, 0, 0, 1], w, 12.0) == pytest.approx(11 / 12)
        assert sd_tightness([0, 0, 0, 0], w, 12.0) == 0.0
        assert sd_tightness([0, 1, 1, 0], w, 12.0) == pytest.approx(11 / 12)

    def test_evaluate_true_theta_zero_noise(self):
        rng = make_rng(1)
        X = rng.standard_normal((20, 4))
        theta = rng.standard_normal(4)
        sol_cls = type("S", (), {"theta": theta})
        assert sd_evaluate([sol_cls], X, X @ theta) == [pytest.approx(0.0, abs=1e-10)]

    def test_evaluate_zero_theta(self):
        rng = make_rng(2)
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        sol_cls = type("S", (), {"theta": np.zeros(4)})
        assert sd_evaluate([sol_cls], X, y) == [pytest.approx(np.linalg.norm(y))]

    def test_evaluate_matches_norm_oracle(self):
        rng = make_rng(3)
        X = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        theta = rng.standard_normal(3)
        sol_cls = type("S", (), {"theta": theta})
        # one-line independent recomputation
        expect = float(np.sqrt(np.sum((X @ theta - y) ** 2)))
        assert sd_evaluate([sol_cls], X, y) == [pytest.approx(expect, rel=1e-12)]


@st.composite
def scoring_cases(draw):
    """(X, y, rows, thetas, block_rows): Gaussian X with fewer or more rows
    than columns, held-out rows that are one row, all rows, a random
    subset or None (all of X), thetas of which one is 0, and the rows per
    block, 1-5 or the default (None)."""
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-2, 3, d)
    y = rng.standard_normal(m)
    kind = draw(st.sampled_from(["none", "one", "all", "subset"]))
    if kind == "none":
        rows = None
    elif kind == "one":
        rows = np.array([draw(st.integers(0, m - 1))])
    elif kind == "all":
        rows = np.arange(m)
    else:
        keep = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        rows = np.flatnonzero(keep) if any(keep) else np.array([0])
    thetas = [rng.standard_normal(d), np.zeros(d), rng.standard_normal(d) * 1e3]
    return X, y, rows, thetas, draw(st.sampled_from([1, 2, 3, 4, 5, None]))


class TestBlockedScoring:
    """`sd_evaluate` scores held-out rows of X read in place, block by
    block, against the norm of the gathered rows' residual."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scoring_cases())
    def test_matches_the_gathered_rows(self, case):
        X, y, rows, thetas, block_rows = case
        Xr, yr = (X, y) if rows is None else (X[rows], y[rows])
        n, d = Xr.shape
        step = block_rows or n
        with mock.patch.object(numerics, "GRAM_BLOCK_BYTES", 8 * d * step):
            losses = sd_evaluate([type("S", (), {"theta": t}) for t in thetas], X, y, rows)
        eps = np.finfo(float).eps
        for theta, loss in zip(thetas, losses):
            whole = float(np.linalg.norm(Xr @ theta - yr))
            # Each block is scored by the product of that block alone.
            per_block = np.concatenate([Xr[s:s + step] @ theta for s in range(0, n, step)])
            assert loss == float(np.linalg.norm(per_block - yr))
            if n <= step or not theta.any():
                # One block is one product over all the rows, and theta = 0
                # leaves -y exactly: both the gathered rows' norm bit for bit.
                assert loss == whole
            else:
                # A product over a block and one over all the rows may sum a
                # row in different orders (a BLAS kernel of 4 rows at a
                # time, another for the rows left over): each row's sum is
                # within d eps of its absolute sum, and the norm within n eps.
                scale = np.linalg.norm(np.abs(Xr) @ np.abs(theta)) + np.linalg.norm(yr)
                assert abs(loss - whole) <= 4 * (d + n + 2) * eps * scale

    def test_shapes_are_checked(self):
        X, y = np.ones((5, 3)), np.ones(5)
        sol = type("S", (), {"theta": np.ones(3)})
        for args in ((X, np.ones(4)), (np.ones((5, 2)), y), (np.ones(5), y)):
            with pytest.raises(numerics.DimensionError):
                sd_evaluate([sol], *args)
        with pytest.raises(IndexError):
            sd_evaluate([sol], X, y, np.array([5]))


def small_instance(data, weight_choices=(0.0, 1.0, 2.5, 4.0, 7.0)):
    """A random instance of 2-6 components with at least one of weight 0;
    m < d, which makes some masks rank-deficient, is among the draws."""
    k = data.draw(st.integers(2, 6))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    weights = data.draw(st.lists(st.sampled_from(weight_choices), min_size=k, max_size=k))
    weights[data.draw(st.integers(0, k - 1))] = 0.0
    d = sum(sizes)
    m = data.draw(st.integers(2, 2 * d))
    rng = make_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((m, d))
    noise = data.draw(st.sampled_from([0.0, 0.1]))
    y = X @ rng.standard_normal(d) + noise * rng.standard_normal(m)
    bound = data.draw(st.sampled_from([0.5, 3.0, 6.0, 10.0]))
    return SmartDesignInstance(
        X=X, y=y, components=[Component(s, w) for s, w in zip(sizes, weights)],
        bound=bound,
    )


class TestSearchProperties:
    def test_exactness_small_instances(self):
        for seed in range(5):
            inst = sd_generate_instance(20, 100, 0.6, seed=seed)
            best, stats = bagel_search(SmartDesignProblem.from_instance(inst))
            assert stats.completed
            oracle = brute_force_sd(inst)
            assert best.loss == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("prune", [True, False])
    def test_exactness_at_budget_boundary(self, prune):
        for seed in range(3):
            inst = boundary_instance(seed)
            best, stats = bagel_search(SmartDesignProblem.from_instance(inst), prune=prune)
            assert stats.completed
            assert best.loss == pytest.approx(brute_force_sd(inst), rel=1e-9)
            assert math.fsum(itertools.compress(inst.weights, best.model.u)) < inst.bound

    def test_dominance_over_baselines(self):
        inst = sd_generate_instance(10, 100, 0.6, seed=3)
        best, stats = bagel_search(SmartDesignProblem.from_instance(inst))
        assert stats.completed
        problem = SmartDesignProblem.from_instance(inst)
        br = baseline_l2_br(problem)
        orr = baseline_l2_or(problem)
        assert best.loss <= min(br.train_loss, orr.train_loss) + 1e-9

    def test_root_loss_is_lower_bound(self):
        inst = sd_generate_instance(10, 100, 0.6, seed=4)
        losses = []
        bagel_search(
            SmartDesignProblem.from_instance(inst), prune=False,
            trace=lambda rec: losses.append((rec["depth"], rec["loss"], rec["status"])),
        )
        root_loss = next(l for d, l, s in losses if d == 0)
        for _, loss, status in losses:
            if status == "leaf":
                assert root_loss <= loss + 1e-9

    def test_extracted_solution_satisfies_constraints(self):
        inst = sd_generate_instance(10, 100, 0.6, seed=5)
        best, _ = bagel_search(SmartDesignProblem.from_instance(inst))
        sol = best.model
        # budget, exactly
        assert math.fsum(itertools.compress(inst.weights, sol.u)) < inst.bound
        # support coupling, exactly
        sizes = [c.input_size for c in inst.components]
        assert np.all(sol.theta[np.repeat(sol.u, sizes) == 0] == 0.0)
        # and via the table encoding
        et = encode_smart_design_as_et(
            [(c.input_size, c.weight) for c in inst.components], inst.bound
        )
        assert et_satisfied(sol.theta, et)[0]

    def test_child_loss_never_below_parent(self):
        inst = sd_generate_instance(10, 100, 0.6, seed=6)
        _, stats = bagel_search(SmartDesignProblem.from_instance(inst), prune=False)
        assert stats.warnings == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exactness_with_zero_weight_components(self, data):
        inst = small_instance(data)
        best, stats = bagel_search(SmartDesignProblem.from_instance(inst))
        assert stats.completed
        assert stats.warnings == []
        oracle = brute_force_sd(inst)
        assert abs(best.loss - oracle) <= 1e-9 * max(1.0, oracle)


class FirstFreeProblem(SmartDesignProblem):
    """Branches on the lowest-index free component, whatever the model."""

    def branch(self, node):
        i = int(np.flatnonzero(node.state == BOTH)[0])
        return [Decision(i, ZERO, "u%d=0" % (i + 1)), Decision(i, ONE, "u%d=1" % (i + 1))]


class TestSeededSearch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_seeded_and_unseeded_reach_the_optimum(self, data):
        inst = small_instance(data)
        oracle = brute_force_sd(inst)
        solver = GramLeastSquares(inst.X, inst.y)
        seed = min((fn(SmartDesignProblem(solver, inst.components, inst.bound))
                    for fn in (baseline_l2_br, baseline_l2_or)),
                   key=lambda sol: sol.train_loss)
        for strategy in ("dfs", "best-first"):
            for cls, incumbent in ((SmartDesignProblem, Incumbent(None, seed.train_loss, seed)),
                                   (SmartDesignProblem, None),
                                   (FirstFreeProblem, None)):
                problem = cls(solver, inst.components, inst.bound)
                best, stats = bagel_search(problem, strategy=strategy, incumbent=incumbent)
                assert stats.completed
                assert abs(best.loss - oracle) <= 1e-9 * max(1.0, oracle)
                assert math.fsum(itertools.compress(inst.weights, best.model.u)) < inst.bound
                if incumbent is not None:
                    assert best.loss <= seed.train_loss
                    assert (best.node_id is None) == (best is incumbent)


# Left to right, (w0 + w2) + w1 == TIE_BOUND but (w0 + w1) + w2 is one ulp
# below it, so only an order-free total agrees on {0, 1, 2} at this bound.
TIE_WEIGHTS = (5.644617269930908, 2.042790512236933, 6.611407799837504, 1.0)
TIE_BOUND = (TIE_WEIGHTS[0] + TIE_WEIGHTS[2]) + TIE_WEIGHTS[1]
TIE_POOL = (0.1, 0.2, 0.3, 0.7) + TIE_WEIGHTS[:3]


def one_feature_instance(weights, bound, seed, samples=200, theta=None):
    rng = make_rng(seed)
    X = rng.standard_normal((samples, len(weights)))
    theta = rng.standard_normal(len(weights)) if theta is None else np.asarray(theta)
    y = X @ theta + 0.01 * rng.standard_normal(samples)
    return SmartDesignInstance(X=X, y=y, components=[Component(1, w) for w in weights],
                               bound=bound)


def fsum_feasible(u, weights, bound):
    return math.fsum(itertools.compress(weights, u)) < bound


class TestBudgetRule:
    """Propagation, leaf test, baselines and tightness apply one budget rule,
    so the search stays exact when a selection's total ties the bound."""

    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_unseeded_search_exact_at_a_rounding_tie(self, strategy):
        inst = one_feature_instance(TIE_WEIGHTS, TIE_BOUND, seed=0, theta=(3, 0.5, 5, 0.2))
        best, stats = bagel_search(SmartDesignProblem.from_instance(inst), strategy=strategy)
        assert stats.completed
        assert list(best.model.u) == [1, 1, 1, 0]
        assert abs(best.loss - brute_force_sd(inst)) <= 1e-9 * max(1.0, best.loss)

    def test_infinite_weight_is_legal_and_never_selected(self):
        inst = one_feature_instance((np.inf, 1.0, 2.0), 5.0, seed=0, theta=(5, 1, 1))
        for strategy in ("dfs", "best-first"):
            rows = run_methods(inst, folds=1, strategy=strategy)
            assert all(row["tightness"] < 1.0 for row in rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_rule_at_rounding_ties(self, data):
        k = data.draw(st.integers(3, 8))
        weights = data.draw(st.lists(st.sampled_from(TIE_POOL), min_size=k, max_size=k))
        # The bound is a subset's float sum in a random order, or a neighbour.
        bound = 0.0
        for i in data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True)):
            bound += weights[i]
        bound = float(np.nextafter(bound, data.draw(st.sampled_from([0.0, bound, np.inf]))))
        inst = one_feature_instance(weights, bound, data.draw(st.integers(0, 2 ** 32 - 1)),
                                    samples=3 * k)
        oracle = brute_force_sd(inst)
        for strategy in ("dfs", "best-first"):
            best, stats = bagel_search(SmartDesignProblem.from_instance(inst),
                                       strategy=strategy)
            assert stats.completed
            assert abs(best.loss - oracle) <= 1e-9 * max(1.0, oracle)
        problem = SmartDesignProblem.from_instance(inst)
        for baseline in (baseline_l2_br, baseline_l2_or):
            sol = baseline(problem)
            assert within_budget(inst.weights[sol.u == 1], bound)
        # Propagation never removes a value some feasible completion uses.
        states = data.draw(st.lists(st.sampled_from([ZERO, ONE, BOTH]), min_size=k, max_size=k))
        domains = np.array(states, dtype=np.int8)
        fixings, failed = budget_propagate(domains, inst.weights, bound)
        completions = [u for u in itertools.product((0, 1), repeat=k)
                       if all(s == BOTH or s == bit for s, bit in zip(states, u))
                       and fsum_feasible(u, weights, bound)]
        if failed:
            assert completions == []
        for i, _ in fixings:
            assert all(u[i] == 0 for u in completions)
        # Tightness is below 1 exactly when the selection is within budget.
        for u in itertools.product((0, 1), repeat=k):
            u = np.array(u)
            assert (sd_tightness(u, inst.weights, bound) < 1) == fsum_feasible(u, weights, bound)


class AlwaysSolveProblem(SmartDesignProblem):
    """Trains every node, never reusing its parent's answer."""

    def train(self, node):
        theta, loss = self.solver.solve(node.payload)
        node.model = theta
        return loss


class CountingProblem(SmartDesignProblem):
    """Counts trains, and the trains whose mask equals the mask generated
    for the parent trail."""

    def __init__(self, *args):
        super().__init__(*args)
        self.masks, self.trained, self.same_mask = {}, 0, 0

    def generate(self, node):
        super().generate(node)
        self.masks[node.trail] = node.payload

    def train(self, node):
        self.trained += 1
        if node.trail and np.array_equal(self.masks[node.trail[:-1]], node.payload):
            self.same_mask += 1
        return super().train(node)


class TestParentReuse:
    @staticmethod
    def search(problem, strategy, prune):
        """(trail, status, loss) trace records, each trained node's θ by
        trail, and the incumbent of one search."""
        records, models = [], {}
        train = problem.train

        def train_and_keep(node):
            loss = train(node)
            models[tuple(node.trail_labels())] = node.model
            return loss

        problem.train = train_and_keep
        best, _ = bagel_search(
            problem, strategy=strategy, prune=prune,
            trace=lambda r: records.append((r["trail"], r["status"], r["loss"])),
        )
        return records, models, best

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reuse_matches_training_every_node(self, data):
        k = data.draw(st.integers(2, 6))
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
        weights = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0]),
                                     min_size=k, max_size=k))
        d = sum(sizes)
        m = data.draw(st.integers(2, 2 * d))  # m < d makes some masks rank-deficient
        rng = make_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        X = rng.standard_normal((m, d))
        if d > 1 and data.draw(st.booleans()):  # a duplicated column: the lstsq fallback
            X[:, d - 1] = X[:, 0]
        y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m)
        components = [Component(s, w) for s, w in zip(sizes, weights)]
        bound = data.draw(st.sampled_from([0.5, 3.0, 6.0, 10.0]))
        strategy = data.draw(st.sampled_from(["dfs", "best-first"]))
        prune = data.draw(st.booleans())
        (records, models, best), (ref_records, ref_models, ref_best) = [
            self.search(cls(GramLeastSquares(X, y), components, bound), strategy, prune)
            for cls in (SmartDesignProblem, AlwaysSolveProblem)
        ]
        assert records == ref_records
        assert all(np.array_equal(models[t], ref_models[t]) for t in models)
        assert (best is None) == (ref_best is None)
        if best is not None:
            assert best.loss == ref_best.loss
            assert np.array_equal(best.model.theta, ref_best.model.theta)

    def test_solves_skip_exactly_the_parent_masks(self):
        # The sd-many benchmark shape, one search.
        inst = sd_generate_instance(40, 400, 0.6, seed=5, n_components=20)
        problem = CountingProblem(GramLeastSquares(inst.X, inst.y), inst.components, inst.bound)
        solve = problem.solver.solve
        calls = []
        problem.solver.solve = lambda mask: calls.append(mask) or solve(mask)
        _, stats = bagel_search(problem, strategy="best-first")
        assert stats.completed
        assert problem.same_mask > 0
        assert len(calls) == problem.trained - problem.same_mask


class FullPropagationProblem(SmartDesignProblem):
    """Every node propagates and builds its own mask, and a child reuses
    its parent's answer where the two masks compare equal."""

    def prune(self, node):
        _, failed = budget_propagate(node.state, self.weights, self.bound)
        return not failed

    def generate(self, node):
        node.payload = expand_mask(node.state, self.sizes)

    def train(self, node):
        parent = node.parent
        if parent is not None and np.array_equal(node.payload, parent.payload):
            node.model = parent.model
            return parent.trained_loss
        theta, loss = self.solver.solve(node.payload)
        node.model = theta
        return loss


class TestChildBookkeeping:
    @staticmethod
    def trace(cls, inst, strategy):
        """Trace records and incumbent of a search seeded with the better
        repair baseline, as `run_methods` seeds it."""
        problem = cls(GramLeastSquares(inst.X, inst.y), inst.components, inst.bound)
        better = min(baseline_l2_br(problem), baseline_l2_or(problem),
                     key=lambda sol: sol.train_loss)
        records = []
        best, _ = bagel_search(problem, strategy=strategy, trace=records.append,
                               incumbent=Incumbent(None, better.train_loss, better))
        return records, best

    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    @pytest.mark.parametrize("inst", [
        # The sd-many benchmark shape at its library seed, then the dense
        # instances of criterion 3.
        sd_generate_instance(40, 400, 0.6, seed=1, n_components=20),
        *(dense_instance(seed) for seed in range(1, 9)),
    ], ids=["sd-many"] + ["dense%d" % seed for seed in range(1, 9)])
    def test_same_trace_as_full_propagation(self, inst, strategy):
        (records, best), (ref_records, ref_best) = [
            self.trace(cls, inst, strategy)
            for cls in (SmartDesignProblem, FullPropagationProblem)]
        # ids, depths, trails, statuses, and losses bit for bit
        assert records == ref_records
        assert best.loss == ref_best.loss
        assert np.array_equal(best.model.u, ref_best.model.u)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), strategy=st.sampled_from(["dfs", "best-first"]), prune=st.booleans())
    def test_no_node_fails_and_every_trained_node_is_at_the_fixpoint(self, data, strategy,
                                                                    prune):
        # What the u=0 propagation skip and the parent-mask reuse of
        # `prune` rest on.  The bound is the exact total of some of the
        # weights or one float step from it, where the float test and the
        # budget rule can disagree.
        k = data.draw(st.integers(1, 6))
        weights = data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5]),
            st.floats(1e-3, 10.0)), min_size=k, max_size=k))
        chosen = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        total = constraints.budget_total(itertools.compress(weights, chosen))
        bound = data.draw(st.sampled_from(
            [math.nextafter(total, -math.inf), total, math.nextafter(total, math.inf)]))
        assume(bound > 0)
        sizes = data.draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
        rng = make_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        X = rng.standard_normal((2 * sum(sizes), sum(sizes)))
        y = X @ rng.standard_normal(sum(sizes))
        problem = SmartDesignProblem(GramLeastSquares(X, y),
                                     [Component(*c) for c in zip(sizes, weights)], bound)
        trained, train = [], problem.train
        problem.train = lambda node: trained.append(node.state.copy()) or train(node)
        _, stats = bagel_search(problem, strategy=strategy, prune=prune)
        assert stats.completed and stats.nodes_failed == 0
        assert trained and all(budget_propagate(state, problem.weights, bound) == ([], False)
                               for state in trained)

    def test_u1_child_that_fixes_nothing_reuses_its_parent(self, monkeypatch):
        # Three components of weight 1 under a bound of 2.5: the root is no
        # leaf, and a u=1 child commits 1, next to which every other fits.
        rng = make_rng(3)
        X = rng.standard_normal((20, 5))
        y = X @ rng.standard_normal(5)
        components = [Component(2, 1.0), Component(1, 1.0), Component(2, 1.0)]
        problem = SmartDesignProblem(GramLeastSquares(X, y), components, 2.5)
        solve, propagate, solves, propagations = (
            problem.solver.solve, constraints.budget_propagate, [], [])
        problem.solver.solve = lambda mask: solves.append(mask) or solve(mask)
        monkeypatch.setattr(constraints, "budget_propagate",
                            lambda *args: propagations.append(args) or propagate(*args))
        root = Node(0, 0, (), problem.root_state())
        assert problem.prune(root)
        problem.generate(root)
        root.trained_loss = problem.train(root)
        zero, one = (Node(i + 1, 1, (d,), problem.apply(root.state, d), root.trained_loss, root)
                     for i, d in enumerate(problem.branch(root)))
        assert (len(solves), len(propagations)) == (1, 1)

        assert problem.prune(one)
        assert ZERO not in one.state
        problem.generate(one)
        assert one.payload is root.payload
        assert problem.train(one) == root.trained_loss
        assert one.model is root.model
        assert (len(solves), len(propagations)) == (1, 2)

        # The u=0 child propagates nothing and trains its own mask.
        assert problem.prune(zero)
        problem.generate(zero)
        problem.train(zero)
        assert zero.payload is not root.payload
        assert (len(solves), len(propagations)) == (2, 2)


class TestFolds:
    def test_split_deterministic_and_disjoint(self):
        tr1, te1 = fold_split(100, 2, seed=9)
        tr2, te2 = fold_split(100, 2, seed=9)
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
        assert set(tr1).isdisjoint(te1)
        assert len(tr1) + len(te1) == 100
        assert len(te1) == 20

    def test_split_uses_the_whole_seed(self):
        # Seeds that agree on their low 63 bits draw different splits.
        assert not np.array_equal(fold_split(100, 0, 0)[1], fold_split(100, 0, 2 ** 63)[1])

    def test_a_fold_copies_none_of_its_rows(self):
        # numpy reports its buffers to tracemalloc.  A copy of the 8000
        # training rows would be 0.8 X.nbytes, of the 2000 test rows 0.2
        # X.nbytes (1.6 MB).  The Gram and held-out scoring read them
        # through one block buffer: the peak is that buffer and a few
        # float64 vectors over the rows (fold indices, y of the training
        # rows, X theta).
        inst = sd_generate_instance(100, 10000, 0.6, 1, n_components=8)
        tracemalloc.start()
        try:
            run_methods(inst, folds=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < numerics.GRAM_BLOCK_BYTES + 64 * len(inst.y)

    @pytest.mark.parametrize("shape, folds", [((100, 10000, 0.6, 8), 1), ((40, 400, 0.6, 20), 5)],
                             ids=["sd-tall", "sd-many"])
    @pytest.mark.parametrize("order_seed", [1, 2])
    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_training_rows_in_place_search_like_a_gathered_copy(self, shape, folds, order_seed,
                                                                  strategy):
        # The benchmark's instances: library seed 1, rows reordered and the
        # fold seed drawn by the order seed.  The reference solves each
        # fold from a gathered copy of its training rows.
        n, samples, cost, k = shape
        inst = sd_generate_instance(n, samples, cost, 1, n_components=k)
        rng = make_rng(order_seed)
        order = rng.permutation(samples)
        inst.X, inst.y = inst.X[order], inst.y[order]
        inst.seed = int(rng.integers(2 ** 63 - 1))

        def gathered(X, y, rows):
            return GramLeastSquares(X[rows], y[rows])

        def solve(**patch):
            trace = []
            with mock.patch.object(numerics, "GramLeastSquares", **patch) as solver, \
                    mock.patch.object(smart_design, "sd_tightness",
                                      wraps=smart_design.sd_tightness) as tightness:
                rows = run_methods(inst, folds=folds, strategy=strategy, trace=trace.append)
            for row, call in zip(rows, tightness.call_args_list):
                row["u"] = list(call.args[0])
            return rows, trace, solver

        rows, trace, solver = solve(wraps=GramLeastSquares)
        ref_rows, ref_trace, _ = solve(new=gathered)
        assert solver.call_count == folds
        assert all(call.args[0] is inst.X and len(call.args) == 3
                   for call in solver.call_args_list)
        close = lambda a, b: abs(a - b) <= 1e-12 * max(1.0, abs(b))
        assert [(r["trail"], r["status"]) for r in trace] == \
            [(r["trail"], r["status"]) for r in ref_trace]
        for r, ref in zip(trace, ref_trace):
            assert (r["loss"] is None) == (ref["loss"] is None)
            assert r["loss"] is None or close(r["loss"], ref["loss"])
        assert len(rows) == len(ref_rows) == 3 * folds
        for r, ref in zip(rows, ref_rows):
            assert (r["method"], r["fold"], r["nodes"], r["u"]) == \
                (ref["method"], ref["fold"], ref["nodes"], ref["u"])
            assert close(r["train_loss"], ref["train_loss"])

    def test_run_methods_rows(self):
        inst = sd_generate_instance(10, 100, 0.6, seed=7)
        rows = run_methods(inst, folds=2, stop=StopCondition(wall_seconds=60))
        assert len(rows) == 6
        methods = {r["method"] for r in rows}
        assert methods == {"bagel", "l2_br", "l2_or"}
        for r in rows:
            assert 0.0 <= r["tightness"] < 1.0
            assert np.isfinite(r["train_loss"]) and np.isfinite(r["test_loss"])
