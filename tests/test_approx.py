import random
from fractions import Fraction

import pytest

from knapreduce import approx
from knapreduce.approx import (
    ROUNDING_TRIALS,
    _best_solution,
    _repair,
    _rounding_theta,
    approx_2unbounded,
    approx_lp_rounding,
    approx_sqrt_d,
    split_by_boundedness,
)
from knapreduce.generators import (
    gen_vk_2bounded,
    gen_vk_2unbounded,
    gen_vk_mixed,
)
from knapreduce.knapsack import (
    Solution,
    VkInstance,
    check_feasible,
    profit,
    solve_bruteforce,
    solve_bruteforce_bounded_size,
)
from knapreduce.simplex import knapsack_relaxation


class TestSplit:
    def test_zero_costs_are_bounded(self):
        inst = VkInstance((1, 1), ((0, 0), (0, 0)), (4, 4))
        assert split_by_boundedness(inst) == ((0, 1), ())

    def test_full_budget_cost_is_unbounded(self):
        inst = VkInstance((1,), ((4,),), (4,))
        assert split_by_boundedness(inst) == ((), (0,))

    def test_exact_half_is_bounded(self):
        inst = VkInstance((1,), ((2,),), (4,))
        assert split_by_boundedness(inst) == ((0,), ())

    def test_partition(self):
        rng = random.Random(1)
        inst = gen_vk_mixed(12, 3, 20, 9, rng)
        bounded, unbounded = split_by_boundedness(inst)
        assert sorted(bounded + unbounded) == list(range(12))


class TestUnboundedBranch:
    def test_single_item_is_returned(self):
        inst = VkInstance((7,), ((3,),), (4,))
        sol = approx_2unbounded(inst)
        assert sol.chosen == {0}

    def test_rejects_bounded_items(self):
        inst = VkInstance((1,), ((1,),), (4,))
        with pytest.raises(ValueError):
            approx_2unbounded(inst)

    def test_oversized_items_are_dropped(self):
        inst = VkInstance((9, 2), ((9,), (3,)), (4,))
        sol = approx_2unbounded(inst)
        assert sol.chosen == {1}

    def test_feasible_solutions_have_at_most_d_items(self):
        # one coordinate per item is more than half spent, so no feasible
        # set can be larger than the dimension count
        for i in range(10):
            rng = random.Random(3300 + i)
            d = rng.randint(1, 3)
            inst = gen_vk_2unbounded(rng.randint(1, 10), d, rng.randint(2, 12), 9, rng)
            for mask in range(1 << inst.item_count):
                chosen = frozenset(
                    j for j in range(inst.item_count) if (mask >> j) & 1
                )
                if check_feasible(inst, Solution(chosen)):
                    assert len(chosen) <= d

    def test_profit_guarantee_versus_oracle(self):
        for i in range(40):
            rng = random.Random(3400 + i)
            d = rng.randint(1, 4)
            inst = gen_vk_2unbounded(rng.randint(1, 12), d, rng.randint(2, 50), 20, rng)
            sol = approx_2unbounded(inst)
            assert check_feasible(inst, sol)
            achieved = profit(inst, sol)
            opt, _ = solve_bruteforce(inst)
            # achieved >= opt / (10 sqrt d), compared exactly via squares
            assert 100 * d * achieved * achieved >= opt * opt


class TestLpRoundingBranch:
    def test_single_item(self):
        inst = VkInstance((5,), ((1,),), (4,))
        sol = approx_lp_rounding(inst, seed=1)
        assert sol.chosen == {0}

    def test_rejects_unbounded_items(self):
        inst = VkInstance((5,), ((4,),), (4,))
        with pytest.raises(ValueError):
            approx_lp_rounding(inst, seed=1)

    def test_always_feasible_and_at_least_best_singleton(self):
        for i in range(25):
            rng = random.Random(3600 + i)
            inst = gen_vk_2bounded(rng.randint(1, 10), rng.randint(1, 4), 20, 9, rng)
            sol = approx_lp_rounding(inst, seed=90 + i)
            assert check_feasible(inst, sol)
            best_single = max(inst.profits)
            assert profit(inst, sol) >= best_single

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(42)
        inst = gen_vk_2bounded(8, 2, 16, 9, rng)
        assert approx_lp_rounding(inst, seed=5) == approx_lp_rounding(inst, seed=5)

    def test_empty_instance(self):
        inst = VkInstance((), (), (4,))
        assert approx_lp_rounding(inst, seed=0) == Solution()


def reference_lp_rounding(inst, seed, stats):
    """The rounding loop written out plainly: the same single stream, every
    trial repaired and compared through _best_solution.  stats counts the
    repeated draws and the candidates that tie the incumbent's profit."""
    d = inst.dimension
    c = 1
    while c * c < 16 * d:
        c += 1
    _, weights = knapsack_relaxation(inst.profits, inst.costs, inst.budget)
    _, best = solve_bruteforce_bounded_size(inst, 1)
    rng = random.Random(seed)
    seen = set()
    for _ in range(ROUNDING_TRIALS):
        drawn = set()
        for i, w in enumerate(weights):
            if w > 0:
                p = Fraction(1, c) * w
                if rng.randrange(p.denominator) < p.numerator:
                    drawn.add(i)
        stats["repeats"] += frozenset(drawn) in seen
        seen.add(frozenset(drawn))
        candidate = Solution(frozenset(_repair(inst, drawn)))
        stats["ties"] += candidate != best and profit(inst, candidate) == profit(inst, best)
        best = _best_solution(inst, best, candidate)
    return best


class TestExactRounding:
    def test_theta_is_the_largest_unit_fraction_within_the_guarantee(self):
        for d in range(1, 10_001):
            theta = _rounding_theta(d)
            num, den = theta.numerator, theta.denominator
            assert num == 1 and den >= 4
            assert 16 * d * num * num <= den * den  # theta <= 1/(4 sqrt d)
            assert 16 * d > (den - 1) * (den - 1)  # 1/(den - 1) would exceed it

    def test_one_generator_per_call(self, monkeypatch):
        built = []

        class Counting(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(approx.random, "Random", Counting)
        for k in range(10):
            rng = random.Random(4100 + k)
            inst = gen_vk_2bounded(rng.randint(1, 12), rng.randint(1, 4), 20, 9, rng)
            built.clear()
            approx_lp_rounding(inst, seed=k)
            assert built == [(k,)]

    def test_float_draw_is_never_made(self, monkeypatch):
        def refuse(self):
            raise AssertionError("float draw")

        monkeypatch.setattr(random.Random, "random", refuse)
        for k in range(20):
            rng = random.Random(4200 + k)
            n, d = rng.randint(1, 12), rng.randint(1, 4)
            inst = gen_vk_2bounded(n, d, 20, 9, rng)
            assert check_feasible(inst, approx_lp_rounding(inst, seed=k))

    def test_zero_weight_items_take_no_draw(self, monkeypatch):
        calls = []

        class Recording(random.Random):
            def randrange(self, *args):
                calls.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(approx.random, "Random", Recording)
        zero_weights_seen = 0
        for k in range(30):
            rng = random.Random(4300 + k)
            inst = gen_vk_2bounded(rng.randint(2, 14), rng.randint(1, 4), 20, 9, rng)
            _, weights = knapsack_relaxation(inst.profits, inst.costs, inst.budget)
            theta = _rounding_theta(inst.dimension)
            dens = [((theta * w).denominator,) for w in weights if w > 0]
            zero_weights_seen += len(dens) < len(weights)
            calls.clear()
            approx_lp_rounding(inst, seed=k)
            assert calls == dens * ROUNDING_TRIALS, k
        assert zero_weights_seen >= 10

    def test_matches_the_plain_loop(self):
        # profits of at most 3 make equal-profit candidates common
        stats = {"repeats": 0, "ties": 0}
        for k in range(240):
            rng = random.Random(4400 + k)
            inst = gen_vk_2bounded(rng.randint(1, 12), rng.randint(1, 4),
                                   rng.choice((4, 8, 20)), 3, rng)
            expected = reference_lp_rounding(inst, k, stats)
            assert approx_lp_rounding(inst, seed=k) == expected, k
        assert stats["repeats"] > 0 and stats["ties"] > 0, stats


def fraction_repair(inst, chosen):
    """The repair as first written: rank by Fraction(profit, load) and
    drop the minimum (ratio, index) pair until the set is feasible."""
    while True:
        totals = [sum(inst.costs[i][j] for i in chosen) for j in range(inst.dimension)]
        violated = [j for j in range(inst.dimension) if totals[j] > inst.budget[j]]
        if not violated:
            return chosen
        scored = []
        for i in chosen:
            load = sum(inst.costs[i][j] for j in violated)
            if load > 0:
                scored.append((Fraction(inst.profits[i], load), i))
        chosen.discard(min(scored)[1])


class TestRepair:
    def test_matches_fraction_ranking(self):
        # small profits and costs make equal ratios, and so index ties, common
        for k in range(300):
            rng = random.Random(6100 + k)
            inst = gen_vk_2bounded(rng.randint(2, 12), rng.randint(1, 4), rng.choice((4, 8, 60)),
                                   rng.choice((0, 2, 5, 100)), rng)
            chosen = {i for i in range(inst.item_count) if rng.random() < 0.7}
            expected = fraction_repair(inst, set(chosen))
            assert _repair(inst, set(chosen)) == expected, k
            assert check_feasible(inst, Solution(frozenset(expected)))


class TestCombined:
    def test_all_unbounded_matches_that_branch(self):
        rng = random.Random(7)
        inst = gen_vk_2unbounded(8, 2, 10, 9, rng)
        assert approx_sqrt_d(inst, seed=3) == approx_2unbounded(inst)

    def test_all_bounded_matches_that_branch(self):
        rng = random.Random(8)
        inst = gen_vk_2bounded(8, 2, 10, 9, rng)
        assert approx_sqrt_d(inst, seed=3) == approx_lp_rounding(inst, seed=3)

    def test_mixed_instances_feasible_and_dominate_singletons(self):
        for i in range(40):
            rng = random.Random(3800 + i)
            inst = gen_vk_mixed(rng.randint(1, 12), rng.randint(1, 4), 20, 9, rng)
            sol = approx_sqrt_d(inst, seed=60 + i)
            assert check_feasible(inst, sol)
            best_single = max(
                (
                    inst.profits[j]
                    for j in range(inst.item_count)
                    if check_feasible(inst, Solution(frozenset({j})))
                ),
                default=0,
            )
            assert profit(inst, sol) >= best_single

    def test_each_item_tested_once(self, monkeypatch):
        # the branches trust split_by_boundedness instead of testing again
        calls = [0]
        is_bounded = approx._is_bounded

        def counted(inst, i):
            calls[0] += 1
            return is_bounded(inst, i)

        monkeypatch.setattr(approx, "_is_bounded", counted)
        for i in range(20):
            rng = random.Random(4000 + i)
            inst = gen_vk_mixed(rng.randint(2, 10), rng.randint(1, 4), 20, 9, rng)
            calls[0] = 0
            approx_sqrt_d(inst, seed=i)
            assert calls[0] == inst.item_count, i

    def test_empty_instance(self):
        inst = VkInstance((), (), ())
        assert approx_sqrt_d(inst, seed=0) == Solution()

    def test_zero_dimensions_takes_everything(self):
        # no constraints at all: every item is trivially half-fitting
        inst = VkInstance((5, 2), ((), ()), ())
        sol = approx_sqrt_d(inst, seed=0)
        assert sol.chosen == {0, 1}

    def test_ratio_distribution_sane(self):
        ratios = []
        for i in range(60):
            rng = random.Random(3900 + i)
            inst = gen_vk_mixed(rng.randint(2, 10), 4, 16, 9, rng)
            sol = approx_sqrt_d(inst, seed=i)
            opt, _ = solve_bruteforce(inst)
            if opt:
                ratios.append(Fraction(profit(inst, sol), opt))
        median = sorted(ratios)[len(ratios) // 2]
        assert 16 * 4 * median * median >= 1  # median >= 1/(4 sqrt 4)
