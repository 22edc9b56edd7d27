import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from bagel.numerics import DimensionError, DomainError, make_rng

# classic binary table: difference of -2 or +1
CLASSIC = np.array([(0, 2), (1, 3), (2, 4), (1, 0), (2, 1), (3, 2), (4, 3)], dtype=float)

TOY_WEIGHTS = np.array([10.0, 6.0, 5.0, 1.0])
TOY_BOUND = 12.0
TOY_TS = [
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
    (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1),
]


class TestMaskedL0Cost:
    def test_one_word_outside(self):
        y = [0.6, 0.3, 0.9, 0, 0]
        assert MASKED_L0(y, [0, 1, 1, 0, 1]) == 1

    def test_all_ones_mask(self):
        assert MASKED_L0([3.0, -1.0, 2.0], [1, 1, 1]) == 0

    def test_all_zeros_reduces_to_l0(self):
        y = [0.6, 0.3, 0.9, 0, 0]
        assert MASKED_L0(y, [0, 0, 0, 0, 0]) == np.count_nonzero(y)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            MASKED_L0([1.0, 2.0], [1])

    def test_support_partition(self):
        rng = make_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            v = rng.standard_normal(n)
            v[rng.random(n) < 0.3] = 0.0
            t = (rng.random(n) < 0.5).astype(float)
            inside = np.count_nonzero(v * t)
            outside = MASKED_L0(v, t)
            assert inside + outside == np.count_nonzero(v)


class TestLpDistance:
    def test_identity(self):
        assert lp_cost(2)([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_euclidean(self):
        assert lp_cost(2)([3, 2], [1, 3]) == pytest.approx(np.sqrt(5))

    def test_l1(self):
        assert lp_cost(1)([0.5, 0.4], [0, 0]) == pytest.approx(0.9)

    def test_linf(self):
        assert lp_cost(np.inf)([1, 5], [0, 2]) == 3.0

    def test_p_zero_counts_differences(self):
        assert lp_cost(0)([1, 2, 3], [1, 0, 0]) == 2.0

    @pytest.mark.parametrize("p", [0.5, float("nan"), -1.0, -np.inf])
    @pytest.mark.parametrize("make", [lp_cost, masked_lp_cost])
    def test_invalid_p(self, make, p):
        with pytest.raises(DomainError):
            make(p)

    @pytest.mark.parametrize("p", [0.5, float("nan")])
    def test_invalid_p_builds_no_table(self, p):
        with pytest.raises(DomainError):
            encode_norm_ball_as_et(p, 1.0, 2)

    @pytest.mark.parametrize("p, norm, masked", [(0, 2.0, 1.0), (1, 7.0, 3.0), (2, 5.0, 3.0),
                                                 (np.inf, 4.0, 3.0)])
    def test_valid_p_builds_and_evaluates(self, p, norm, masked):
        y = [3.0, -4.0, 0.0]
        assert lp_cost(p)(y, [0.0, 0.0, 0.0]) == norm
        assert masked_lp_cost(p)(y, [0.0, 1.0, 0.0]) == masked
        assert et_satisfied(y, encode_norm_ball_as_et(p, norm, 3)) == (True, 0)
        assert et_satisfied(y, encode_norm_ball_as_et(p, norm - 0.5, 3)) == (False, None)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            lp_cost(2)([1.0], [1.0, 2.0])


class TestEtSatisfied:
    def test_classic_member(self):
        et = ExtendedTable(CLASSIC, lp_cost(2), 0.0)
        ok, witness = et_satisfied([3, 2], et)
        assert ok and witness == 5

    def test_classic_non_member(self):
        et = ExtendedTable(CLASSIC, lp_cost(2), 0.0)
        # derived: the minimum distance from (0,0) to the 7 tuples is 1
        dists = [np.linalg.norm(np.array(t)) for t in CLASSIC]
        assert min(dists) > 0
        ok, witness = et_satisfied([0, 0], et)
        assert not ok and witness is None

    def test_self_tuple(self):
        y = [1.5, -0.3, 2.0]
        et = ExtendedTable(np.array([[9, 9, 9], y]), lp_cost(2), 0.0)
        ok, witness = et_satisfied(y, et)
        assert ok and witness == 1

    def test_arity_mismatch(self):
        et = ExtendedTable(CLASSIC, lp_cost(2), 0.0)
        with pytest.raises(DimensionError):
            et_satisfied([1, 2, 3], et)

    def test_classic_equivalence_random_tables(self):
        rng = make_rng(20)
        for _ in range(100):
            arity = int(rng.integers(1, 5))
            tuples = rng.integers(0, 4, size=(int(rng.integers(1, 8)), arity)).astype(float)
            et = ExtendedTable(tuples, lp_cost(2), 0.0)
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
        et = ExtendedTable(np.array([t_f, t_g], dtype=float), MASKED_L0, 0.0)
        ranked = et_rank_tuples(y, et, masked_lp_cost(2))
        assert ranked == [(1, pytest.approx(0.0)), (0, pytest.approx(0.6))]

    def test_single_tuple(self):
        et = ExtendedTable(np.array([[1.0, 1.0]]), MASKED_L0, 0.0)
        assert et_rank_tuples([5.0, 5.0], et, masked_lp_cost(2))[0][0] == 0

    def test_zero_vector_tie_break(self):
        et = ExtendedTable(np.array([[1, 0], [0, 1], [1, 1]], dtype=float), MASKED_L0, 0.0)
        ranked = et_rank_tuples([0.0, 0.0], et, masked_lp_cost(2))
        assert [idx for idx, _ in ranked] == [0, 1, 2]
        assert all(cost == 0.0 for _, cost in ranked)


# Each table cost beside whether its tuples are binary
TABLE_COSTS = {"masked_l0": (MASKED_L0, True),
               **{"lp_%g" % p: (lp_cost(p), False) for p in (0, 1, 2, 3.5, np.inf)},
               **{"masked_lp_%g" % p: (masked_lp_cost(p), True) for p in (0, 1, 2, 3.5, np.inf)}}
ULPS = 4


def _close(a, b):
    """a and b lie within ULPS units in the last place of the larger."""
    return abs(a - b) <= ULPS * np.spacing(max(abs(a), abs(b)))


class TestTableCosts:
    """A cost over the whole table against the same cost one tuple at a
    time: the sums may round in another order, so each row's cost may
    differ by a few ulp, and ranking and membership may differ only where
    such a difference decides them."""

    @pytest.mark.parametrize("name", sorted(TABLE_COSTS))
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_single_tuples(self, name, data):
        cost, binary = TABLE_COSTS[name]
        n = data.draw(st.integers(1, 12), label="n")
        rows = data.draw(st.integers(1, 8), label="rows")
        values = st.floats(-100, 100, allow_nan=False)
        y = data.draw(arrays(float, n, elements=st.just(0.0) | values), label="y")
        tuples = data.draw(arrays(float, (rows, n), elements=st.sampled_from([0.0, 1.0])
                                  if binary else st.just(0.0) | values), label="tuples")
        singles = [cost(y, t) for t in tuples]
        threshold = data.draw(st.sampled_from([0.0, *singles]) | st.floats(0, 1e3),
                              label="threshold")
        et = ExtendedTable(tuples, cost, threshold)
        ranked = et_rank_tuples(y, et, cost)
        table = dict(ranked)
        assert sorted(table) == list(range(rows))
        for i, single in enumerate(singles):
            assert _close(table[i], single)
        # Rows whose table cost is their single cost compare exactly;
        # elsewhere only pairs that no 4-ulp rounding can swap.
        exact = [table[i] == single for i, single in enumerate(singles)]
        place = {idx: r for r, (idx, _) in enumerate(ranked)}
        for i, j in itertools.combinations(range(rows), 2):
            if (exact[i] and exact[j]) or not (_close(singles[i], singles[j])
                                               or _close(table[i], table[j])):
                assert (place[i] < place[j]) == ((singles[i], i) < (singles[j], j))
        if all(exact[i] or not (_close(single, threshold) or _close(table[i], threshold))
               for i, single in enumerate(singles)):
            witness = next((i for i, single in enumerate(singles) if single <= threshold), None)
            assert et_satisfied(y, et) == (witness is not None, witness)


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


def propagate_by_rule(states, weights, bound):
    """(fixings, failed) of `budget_propagate`'s definition, one
    `within_budget` of the committed weights plus each free weight."""
    committed = [w for w, code in zip(weights, states) if code == ONE]
    if not within_budget(committed, bound):
        return [], True
    return [(i, ZERO) for i, (w, code) in enumerate(zip(weights, states))
            if code == BOTH and not within_budget(committed + [w], bound)], False


# Zero weights, decimals whose float sums round (0.1 + 0.2 > 0.3), and
# magnitudes from 1e-8 to 1e8.
PROPAGATION_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e-8, 1e8]),
    st.floats(1e-8, 1e8),
    st.integers(-8, 8).map(lambda e: 10.0 ** e),
)


@st.composite
def propagation_cases(draw):
    """(states, weights, bound): a bound, half of the time, at the exact
    total of the committed weights and one free weight, or one float step
    from it."""
    k = draw(st.integers(1, 12))
    # Drawn from a pool, so selections repeat values.  The pool holds 1-3
    # ulps of its largest weight over 2, on which total + w rounds twice
    # where the exact total rounds once.
    pool = draw(st.lists(PROPAGATION_WEIGHTS, min_size=1, max_size=3))
    pool += [math.ulp(max(pool)) / 2 * j for j in (1, 2, 3)]
    weights = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    states = draw(st.lists(st.sampled_from([ZERO, ONE, BOTH]), min_size=k, max_size=k))
    committed = [w for w, code in zip(weights, states) if code == ONE]
    free = [w for w, code in zip(weights, states) if code == BOTH]
    tie = math.fsum(committed + [draw(st.sampled_from(free))] if free else committed)
    ties = [tie, math.nextafter(tie, math.inf), math.nextafter(tie, 0.0)]
    bound = draw(st.one_of(st.sampled_from(ties), st.sampled_from(ties),
                           st.sampled_from([0.3, 0.6, 1.0]), st.floats(1e-8, 1e9)))
    return states, weights, bound


class TestBudgetPropagateFastPath:
    @pytest.mark.parametrize("states, weights, bound", [
        ([ONE, BOTH], [0.1, 0.2], 0.3),  # 0.1 + 0.2 rounds above 0.3
        ([ONE, BOTH], [0.1, 0.2], 0.30000000000000004),
        ([ONE, ONE, BOTH], [0.1, 0.2, 0.0], 0.30000000000000004),  # fails
        ([ONE, ONE, BOTH], [0.1, 0.7, 0.2], 1.0),
        # The committed total rounds to 1 and 1 + 2^-53 rounds to 1 again,
        # but the exact total 1 + 2^-52 is the bound: fixed.
        ([ONE, ONE, BOTH], [1.0, 2.0 ** -53, 2.0 ** -53], 1.0 + 2.0 ** -52),
        # total + w rounds to 1e8 + 2 ulps, the exact 1e8 + 2e-8 to 1e8 + 1 ulp.
        ([ONE, ONE, BOTH], [1e8, 1e-8, 1e-8], 1e8 + 2 * math.ulp(1e8)),
        ([BOTH, BOTH], [0.0, 5.0], 5.0),  # exactly at the bound: fixed
    ])
    def test_rounding_ties(self, states, weights, bound):
        doms = _domains(states)
        expected = propagate_by_rule(states, weights, bound)
        assert budget_propagate(doms, weights, bound) == expected
        fixed = {i for i, _ in expected[0]}
        assert list(doms) == [ZERO if i in fixed else code for i, code in enumerate(states)]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=propagation_cases())
    def test_matches_the_rule_weight_by_weight(self, case):
        states, weights, bound = case
        doms = _domains(states)
        fixings, failed = budget_propagate(doms, np.array(weights), bound)
        assert (fixings, failed) == propagate_by_rule(states, weights, bound)
        fixed = {i for i, _ in fixings}
        assert list(doms) == [ZERO if i in fixed else code for i, code in enumerate(states)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=propagation_cases())
    def test_a_zero_child_of_a_fixpoint_fixes_nothing(self, case):
        states, weights, bound = case
        parent = _domains(states)
        _, failed = budget_propagate(parent, weights, bound)
        assume(not failed)
        for i in np.flatnonzero(parent == BOTH):
            child = parent.copy()
            child[i] = ZERO
            assert budget_propagate(child, weights, bound) == ([], False)


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
        for threshold in (-1.0, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                ExtendedTable(CLASSIC, lp_cost(2), threshold)
            with pytest.raises(ValueError, match="lam"):
                encode_norm_ball_as_et(2, threshold, 2)
