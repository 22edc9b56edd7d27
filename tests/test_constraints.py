import itertools
import math

import numpy as np
import pytest

from bagel.constraints import (
    BOTH,
    ONE,
    ZERO,
    CapacityError,
    ExtendedTable,
    MASKED_L0,
    alldifferent_filter,
    budget_propagate,
    encode_norm_ball_as_et,
    encode_smart_design_as_et,
    enumerate_budget_feasible,
    et_rank_tuples,
    et_satisfied,
    lp_cost,
    masked_lp_cost,
    within_budget,
)
from bagel.numerics import DimensionError, make_rng

# classic binary table: difference of -2 or +1
CLASSIC = np.array([(0, 2), (1, 3), (2, 4), (1, 0), (2, 1), (3, 2), (4, 3)], dtype=float)

TOY_WEIGHTS = np.array([10.0, 6.0, 5.0, 1.0])
TOY_BOUND = 12.0
TOY_TS = [
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
    (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1),
]


class TestEtSatisfied:
    def test_classic_member(self):
        et = ExtendedTable(2, CLASSIC, lp_cost(2), 0.0)
        ok, witness = et_satisfied([3, 2], et)
        assert ok and witness == 5

    def test_classic_non_member(self):
        et = ExtendedTable(2, CLASSIC, lp_cost(2), 0.0)
        # derived: the minimum distance from (0,0) to the 7 tuples is 1
        dists = [np.linalg.norm(np.array(t)) for t in CLASSIC]
        assert min(dists) > 0
        ok, witness = et_satisfied([0, 0], et)
        assert not ok and witness is None

    def test_self_tuple(self):
        y = [1.5, -0.3, 2.0]
        et = ExtendedTable(3, np.array([[9, 9, 9], y]), lp_cost(2), 0.0)
        ok, witness = et_satisfied(y, et)
        assert ok and witness == 1

    def test_arity_mismatch(self):
        et = ExtendedTable(2, CLASSIC, lp_cost(2), 0.0)
        with pytest.raises(DimensionError):
            et_satisfied([1, 2, 3], et)

    def test_classic_equivalence_random_tables(self):
        rng = make_rng(20)
        for _ in range(100):
            arity = int(rng.integers(1, 5))
            tuples = rng.integers(0, 4, size=(int(rng.integers(1, 8)), arity)).astype(float)
            et = ExtendedTable(arity, tuples, lp_cost(2), 0.0)
            y = tuples[int(rng.integers(len(tuples)))] if rng.random() < 0.5 \
                else rng.integers(0, 4, size=arity).astype(float)
            member = any(np.array_equal(y, t) for t in tuples)
            ok, _ = et_satisfied(y, et)
            assert ok == member


class TestEtRankTuples:
    def test_masked_norm_ranking(self):
        y = np.array([0.6, 0.3, 0.9, 0, 0])
        t_f = [0, 1, 1, 0, 1]
        t_g = [1, 1, 1, 0, 0]
        et = ExtendedTable(5, np.array([t_f, t_g], dtype=float), MASKED_L0, 0.0)
        ranked = et_rank_tuples(y, et, masked_lp_cost(2))
        assert ranked == [(1, pytest.approx(0.0)), (0, pytest.approx(0.6))]

    def test_single_tuple(self):
        et = ExtendedTable(2, np.array([[1.0, 1.0]]), MASKED_L0, 0.0)
        assert et_rank_tuples([5.0, 5.0], et, masked_lp_cost(2))[0][0] == 0

    def test_zero_vector_tie_break(self):
        et = ExtendedTable(2, np.array([[1, 0], [0, 1], [1, 1]], dtype=float), MASKED_L0, 0.0)
        ranked = et_rank_tuples([0.0, 0.0], et, masked_lp_cost(2))
        assert [idx for idx, _ in ranked] == [0, 1, 2]
        assert all(cost == 0.0 for _, cost in ranked)


class TestNormBallEncoding:
    def test_inside(self):
        et = encode_norm_ball_as_et(1, 1.0, 2)
        assert et_satisfied([0.5, 0.4], et)[0]

    def test_outside(self):
        et = encode_norm_ball_as_et(1, 1.0, 2)
        assert not et_satisfied([1.0, 1.0], et)[0]

    def test_degenerate_ball(self):
        et = encode_norm_ball_as_et(2, 0.0, 3)
        assert et_satisfied([0.0, 0.0, 0.0], et)[0]
        assert not et_satisfied([1e-9, 0.0, 0.0], et)[0]

    def test_agrees_with_direct_norm(self):
        rng = make_rng(30)
        for _ in range(1000):
            dim = int(rng.integers(1, 6))
            p = float(rng.choice([1, 2, 3, np.inf]))
            lam = float(rng.random() * 2)
            theta = rng.standard_normal(dim)
            et = encode_norm_ball_as_et(p, lam, dim)
            direct = np.linalg.norm(theta, ord=p) <= lam
            assert et_satisfied(theta, et)[0] == direct


class TestWithinBudget:
    # Left to right, (w0 + w2) + w1 is one ulp above (w0 + w1) + w2.
    W = (5.644617269930908, 2.042790512236933, 6.611407799837504)

    def test_order_free_at_the_bound(self):
        w0, w1, w2 = self.W
        bound = (w0 + w2) + w1
        assert (w0 + w1) + w2 < bound
        for order in itertools.permutations(self.W):
            assert within_budget(order, bound)
            assert not within_budget(order, (w0 + w1) + w2)

    def test_strict(self):
        assert not within_budget([1.0, 2.0], 3.0)
        assert within_budget([], 1e-300)
        assert not within_budget([], 0.0)


class TestEnumerateBudgetFeasible:
    def test_toy(self):
        assert enumerate_budget_feasible(TOY_WEIGHTS, TOY_BOUND) == TOY_TS

    def test_single(self):
        assert enumerate_budget_feasible([1.0], 12.0) == [(0,), (1,)]

    def test_zero_bound_strict(self):
        assert enumerate_budget_feasible([1.0, 2.0], 0.0) == []

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_budget_feasible(np.ones(26), 100.0)

    def test_downward_closed(self):
        rng = make_rng(40)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            w = rng.uniform(0, 5, k)
            b = float(rng.uniform(0.5, w.sum() + 1))
            feasible = set(enumerate_budget_feasible(w, b))
            for u in feasible:
                for i in range(k):
                    if u[i] == 1:
                        smaller = u[:i] + (0,) + u[i + 1:]
                        assert smaller in feasible


class TestSmartDesignEncoding:
    def test_toy_arity_and_tuple_count(self):
        et = encode_smart_design_as_et(
            [(4096, 10.0), (1024, 6.0), (1024, 5.0), (10, 1.0)], TOY_BOUND
        )
        assert et.arity == 6154
        assert et.tuples.shape[0] == 9

    def test_zero_theta_satisfied(self):
        et = encode_smart_design_as_et([(3, 10.0), (2, 6.0), (2, 5.0), (1, 1.0)], TOY_BOUND)
        assert et_satisfied(np.zeros(8), et)[0]

    def test_overweight_support_violated(self):
        et = encode_smart_design_as_et([(3, 10.0), (2, 6.0), (2, 5.0), (1, 1.0)], TOY_BOUND)
        theta = np.zeros(8)
        theta[0] = 1.0  # component 1
        theta[3] = 1.0  # component 2, total weight 16 >= 12
        assert not et_satisfied(theta, et)[0]

    def test_brute_force_equivalence_on_shrunken_toy(self):
        sizes = (3, 2, 2, 1)
        et = encode_smart_design_as_et(list(zip(sizes, TOY_WEIGHTS)), TOY_BOUND)
        rng = make_rng(50)
        slices = []
        start = 0
        for s in sizes:
            slices.append(slice(start, start + s))
            start += s
        for bits in itertools.product((0, 1), repeat=sum(sizes)):
            theta = np.array(bits, dtype=float) * rng.uniform(0.5, 1.5, len(bits))
            needed = [int(np.any(theta[sl] != 0)) for sl in slices]
            feasible = math.fsum(itertools.compress(TOY_WEIGHTS, needed)) < TOY_BOUND
            assert et_satisfied(theta, et)[0] == feasible


def _domains(states):
    return np.array(states, dtype=np.int8)


class TestBudgetPropagate:
    def test_toy_fixings(self):
        doms = _domains([ONE, BOTH, BOTH, BOTH])
        fixings, failed = budget_propagate(doms, TOY_WEIGHTS, TOY_BOUND)
        assert not failed
        assert fixings == [(1, ZERO), (2, ZERO)]
        assert doms[1] == ZERO and doms[2] == ZERO and doms[3] == BOTH

    def test_exact_fit_is_fixed_to_zero(self):
        # committed 3 + weight 2 == bound 5: the budget rule is strict
        doms = _domains([ONE, BOTH, BOTH])
        fixings, failed = budget_propagate(doms, [3.0, 2.0, 1.0], 5.0)
        assert not failed
        assert fixings == [(1, ZERO)]
        assert list(doms) == [ONE, ZERO, BOTH]

    def test_committed_at_bound_fails(self):
        _, failed = budget_propagate(_domains([ONE, ONE, BOTH]), [3.0, 2.0, 1.0], 5.0)
        assert failed

    def test_no_fixed_ones(self):
        doms = _domains([BOTH] * 4)
        fixings, failed = budget_propagate(doms, TOY_WEIGHTS, TOY_BOUND)
        assert fixings == [] and not failed

    def test_violated_budget_fails(self):
        doms = _domains([ONE, ONE, BOTH, BOTH])
        _, failed = budget_propagate(doms, TOY_WEIGHTS, TOY_BOUND)
        assert failed

    def test_idempotent(self):
        doms = _domains([ONE, BOTH, BOTH, BOTH])
        budget_propagate(doms, TOY_WEIGHTS, TOY_BOUND)
        fixings, failed = budget_propagate(doms, TOY_WEIGHTS, TOY_BOUND)
        assert fixings == [] and not failed

    def test_soundness_brute_force(self):
        rng = make_rng(60)
        for _ in range(50):
            k = int(rng.integers(2, 13))
            w = rng.uniform(0, 5, k)
            b = float(rng.uniform(0.5, w.sum() + 1))
            states = [int(rng.choice([ZERO, ONE, BOTH], p=[0.2, 0.2, 0.6])) for _ in range(k)]
            doms = _domains(states)
            fixings, failed = budget_propagate(doms, w, b)

            def completions(sts):
                free = [i for i, s in enumerate(sts) if s == BOTH]
                for bits in itertools.product((0, 1), repeat=len(free)):
                    u = [1 if s == ONE else 0 for s in sts]
                    for i, bit in zip(free, bits):
                        u[i] = bit
                    if math.fsum(itertools.compress(w, u)) < b:
                        yield tuple(u)

            before = set(completions(states))
            after = set(completions(doms))
            if failed:
                assert not before
            else:
                # sound and complete: no feasible completion lost
                assert before == after
                for i, _ in fixings:
                    assert all(u[i] == 0 for u in before)


class TestAlldifferentFilter:
    def test_singleton_propagation(self):
        doms = [{1}, {1, 2}]
        pruned, failed = alldifferent_filter(doms)
        assert not failed
        assert doms[1] == {2}
        assert pruned == [(1, [1])]

    def test_singleton_collision_fails(self):
        _, failed = alldifferent_filter([{1}, {1}])
        assert failed

    def test_binary_weaker_than_global(self):
        doms = [{1, 2}, {1, 2}, {1, 2}]
        pruned, failed = alldifferent_filter(doms)
        assert pruned == [] and not failed

    def test_idempotent(self):
        doms = [{1}, {1, 2}, {2, 3}]
        alldifferent_filter(doms)
        pruned, failed = alldifferent_filter(doms)
        assert pruned == [] and not failed

    def test_never_removes_supported_value(self):
        rng = make_rng(70)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            nvals = int(rng.integers(k, 9))
            states = [set(int(v) for v in rng.choice(nvals, size=int(rng.integers(1, nvals + 1)),
                                                     replace=False)) for _ in range(k)]
            doms = [set(s) for s in states]
            pruned, failed = alldifferent_filter(doms)

            def supported(var, val):
                others = [sorted(states[j]) for j in range(k) if j != var]
                for combo in itertools.product(*others):
                    picks = list(combo) + [val]
                    if len(set(picks)) == k:
                        return True
                return False

            for var, vals in pruned:
                for val in vals:
                    assert not supported(var, val)
            if failed:
                # no pairwise-distinct completion exists at all, or the pairwise
                # filter hit an empty domain; soundness of removals is all we
                # claim for the binary decomposition
                pass


class TestDomains:
    def test_threshold_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ExtendedTable(2, CLASSIC, lp_cost(2), -1.0)
