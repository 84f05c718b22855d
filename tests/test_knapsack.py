import inspect
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb
from operator import add, gt, le, sub

import pytest

from knapreduce import knapsack
from knapreduce.cli import main
from knapreduce.errors import DEFAULT_NODE_CAP, CapExceededError
from knapreduce.csp import par_bruteforce
from knapreduce.generators import (
    gen_rcsp,
    gen_rcsp_planted,
    gen_vk,
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
    solve_dp,
    subinstance,
)
from knapreduce.reductions import rcsp_to_vk_embed, rcsp_to_vk_simple


def inst_1d(costs, profits, budget):
    return VkInstance(
        tuple(profits), tuple((c,) for c in costs), (budget,)
    )


THREE_ITEMS = inst_1d([2, 3, 4], [3, 4, 5], 6)


def combinations_reference(inst, s_max):
    """The plain enumerator the pruned search replaced: every subset of at
    most s_max items, sums recomputed from scratch, ties to the
    lexicographically smallest sorted index tuple."""
    best_prof, best_items = 0, ()
    for k in range(1, min(s_max, inst.item_count) + 1):
        for items in combinations(range(inst.item_count), k):
            if any(
                sum(inst.costs[i][j] for i in items) > inst.budget[j]
                for j in range(inst.dimension)
            ):
                continue
            prof = sum(inst.profits[i] for i in items)
            if prof > best_prof or (prof == best_prof and items < best_items):
                best_prof, best_items = prof, items
    return best_prof, Solution(frozenset(best_items))


# The tuple-room oracles that the packed-int ones replaced, kept as
# references: the search carries its residual budget as a d-list, the DP
# keys its states by the reached cost tuple.  The search runs on the
# one-argument stack driver of its day, which left node counting to it.
# It shares two bounds with _best_subset, the item count bound and the run
# bound, so that both searches visit the same nodes and trip at the same
# cap; combinations_reference checks the answers independently of either.


def run_depth_first(root) -> None:
    stack = [root]
    while stack:
        for child in stack[-1]:
            stack.append(child)
            break
        else:
            stack.pop()


def _better(prof: int, items: tuple, best_prof: int, best_items: tuple) -> bool:
    return prof > best_prof or (prof == best_prof and items < best_items)


def item_count_bound(inst: VkInstance) -> int:
    """How many of the smallest row sums fit in the summed budget: no
    feasible set holds more items."""
    fill = accumulate(sorted(sum(c) for c in inst.costs))
    return sum(1 for used in fill if used <= sum(inst.budget))


def run_bound(inst: VkInstance) -> list[int]:
    """bound[i] = the sum over runs of each run's largest profit at an
    index >= i.  Runs are built from the last index down: an item that fits
    alone joins the latest run iff it conflicts with each of its members,
    coordinatewise, else it starts a new run; an item that does not fit
    alone joins none.  A feasible set holds at most one item of a run."""
    profits, costs, budget = inst.profits, inst.costs, inst.budget

    def conflict(j, k):
        return any(map(gt, map(add, costs[j], costs[k]), budget))

    runs = []
    for j in reversed(range(inst.item_count)):
        if any(map(gt, costs[j], budget)):
            continue
        if not runs or not all(conflict(j, k) for k in runs[-1]):
            runs.append([])
        runs[-1].append(j)
    return [
        sum(max((profits[k] for k in run if k >= i), default=0) for run in runs)
        for i in range(inst.item_count + 1)
    ]


def suffix_sum_bound(inst: VkInstance) -> list[int]:
    """The bound run_bound replaced: every item still to come adds its profit."""
    return list(accumulate(reversed(inst.profits), initial=0))[::-1]


def tuple_room_best_subset(
    inst: VkInstance, max_size: int, max_nodes: int, remaining=run_bound
) -> tuple[int, Solution]:
    profits, costs, n = inst.profits, inst.costs, inst.item_count
    bound = remaining(inst)
    size = min(max_size, item_count_bound(inst))
    top = list(accumulate(sorted(profits, reverse=True)[:size], initial=0))
    best_prof, best_items = 0, ()
    nodes = 0

    # room is a list: tuple(map(...)) guesses a size and resizes, so each
    # dropped d-tuple would join CPython's per-size tuple free list, which
    # keeps up to 2,000 of them for the life of the process
    def extend(start: int, room, prof: int, items: tuple, slots: int):
        nonlocal best_prof, best_items, nodes
        nodes += 1
        if nodes > max_nodes:
            raise CapExceededError(f"search exceeded node budget {max_nodes}")
        if prof > best_prof:
            best_prof, best_items = prof, items
        for i in range(start, n):
            if prof + top[slots] <= best_prof or prof + bound[i] <= best_prof:
                return
            ci = costs[i]
            if all(map(le, ci, room)):
                yield extend(i + 1, list(map(sub, room, ci)), prof + profits[i], items + (i,), slots - 1)

    run_depth_first(extend(0, inst.budget, 0, (), size))
    return best_prof, Solution(frozenset(best_items))


def tuple_keyed_solve_dp(inst: VkInstance, state_cap: int) -> tuple[int, Solution]:
    budget = inst.budget
    states = {(0,) * inst.dimension: (0, ())}
    for i in range(inst.item_count - 1, -1, -1):
        ci, pi = inst.costs[i], inst.profits[i]
        for cost, (prof, witness) in list(states.items()):
            reached = tuple(map(add, cost, ci))
            if any(map(gt, reached, budget)):
                continue
            candidate = (prof + pi, (i, witness))
            incumbent = states.get(reached)
            if incumbent is None:
                if len(states) >= state_cap:
                    raise CapExceededError(f"reachable cost vectors exceed state cap {state_cap}")
                states[reached] = candidate
            elif _better(*candidate, *incumbent):
                states[reached] = candidate
    value, witness = min(states.values(), key=lambda state: (-state[0], state[1]))
    chosen = []
    while witness:
        i, witness = witness
        chosen.append(i)
    return value, Solution(frozenset(chosen))


def per_dimension_check_feasible(inst: VkInstance, sol: Solution) -> bool:
    """The per-dimension feasibility test check_feasible replaced."""
    for j in range(inst.dimension):
        if sum(inst.costs[i][j] for i in sol.chosen) > inst.budget[j]:
            return False
    return True


def trip_point(run) -> int:
    """The smallest cap at which run(cap) does not raise CapExceededError."""

    def passes(cap):
        try:
            run(cap)
        except CapExceededError:
            return False
        return True

    low, high = 0, 1
    while not passes(high):
        low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        if passes(mid):
            high = mid
        else:
            low = mid + 1
    return low


def assert_same_as_reference(solve, reference, inst, label):
    """solve(inst, cap) matches reference(inst, cap): the same (value,
    Solution) at the reference's trip point, and a refusal one below it."""
    cap = trip_point(lambda c: reference(inst, c))
    assert solve(inst, cap) == reference(inst, cap), label
    if cap:
        with pytest.raises(CapExceededError):
            solve(inst, cap - 1)


def assert_search_matches_reference(inst, label):
    sizes = sorted({0, 1, 2, inst.dimension, inst.item_count})
    for s in sizes:
        assert_same_as_reference(
            lambda i, cap: solve_bruteforce_bounded_size(i, s, max_nodes=cap),
            lambda i, cap: tuple_room_best_subset(i, s, cap),
            inst,
            (label, s),
        )


def assert_oracles_match_references(inst, label):
    assert_search_matches_reference(inst, label)
    assert_same_as_reference(solve_dp, tuple_keyed_solve_dp, inst, (label, "dp"))


def per_row_cost_check(costs, d):
    """The per-row cost check VkInstance ran before its flattened one pass;
    raises for the first faulty item."""
    for i, c in enumerate(costs):
        if len(c) != d:
            raise ValueError(f"cost vector of item {i} has length {len(c)}, expected {d}")
        try:
            integral = type(sum(c)) is int
        except TypeError:
            integral = False
        if not integral:
            raise ValueError(f"cost vector of item {i} has a non-integer coordinate")
        if min(c, default=0) < 0:
            raise ValueError(f"cost vector of item {i} has a negative coordinate")


def outcome(check, *args):
    """None if check(*args) passes, else the type and text of what it raised."""
    try:
        check(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestBasics:
    def test_empty_set_is_feasible(self):
        assert check_feasible(THREE_ITEMS, Solution())

    def test_budget_boundary_is_inclusive(self):
        inst = inst_1d([6], [1], 6)
        assert check_feasible(inst, Solution(frozenset({0})))

    def test_two_full_budget_items_overflow(self):
        inst = inst_1d([6, 6], [1, 1], 6)
        assert not check_feasible(inst, Solution(frozenset({0, 1})))

    def test_unknown_item_rejected(self):
        with pytest.raises(ValueError):
            check_feasible(THREE_ITEMS, Solution(frozenset({9})))

    def test_profit(self):
        assert profit(THREE_ITEMS, Solution()) == 0
        assert profit(THREE_ITEMS, Solution(frozenset({0, 1}))) == 7
        unit = inst_1d([1, 1, 1], [1, 1, 1], 3)
        assert profit(unit, Solution(frozenset({0, 1, 2}))) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            VkInstance((1,), ((1, 2),), (3,))
        with pytest.raises(ValueError):
            VkInstance((-1,), ((1,),), (3,))
        with pytest.raises(ValueError):
            VkInstance((1,), ((-1,),), (3,))

    def test_cost_validation_matches_per_row_reference(self, monkeypatch):
        faults = (True, False, 1.0, 0.5, Fraction(3), Fraction(1, 2), "1", None, -1, -10**30)
        # small slices make one table span several of them
        for row_slice in (1, 2, 3, knapsack.ROW_SLICE):
            monkeypatch.setattr(knapsack, "ROW_SLICE", row_slice)
            seen = set()
            shared_faults = 0
            for trial in range(800):
                rng = random.Random(7300 + trial)
                n, d = rng.randint(0, 6), rng.randint(0, 4)
                costs = [[rng.randint(0, 10 ** rng.randint(1, 30)) for _ in range(d)]
                         for _ in range(n)]
                # one row object at several indices, as the reductions build them
                for _ in range(rng.choice((0, 1, 2)) if n > 1 else 0):
                    costs[rng.randrange(n)] = rng.choice(costs)
                for _ in range(rng.choice((0, 1, 1, 2)) if costs else 0):
                    row = rng.choice(costs)
                    if row and rng.random() < 0.7:
                        row[rng.randrange(len(row))] = rng.choice(faults)
                    elif row and rng.random() < 0.5:
                        row.pop()
                    else:
                        row.append(1)
                as_tuple = {id(row): tuple(row) for row in costs}
                costs = [as_tuple[id(row)] for row in costs]
                if costs and rng.random() < 0.05:
                    costs[rng.randrange(n)] = rng.choice((7, None))  # a row with no length
                costs = tuple(costs)
                expected = outcome(per_row_cost_check, costs, d)
                assert outcome(VkInstance, (1,) * n, costs, (5,) * d) == expected, (trial, costs)
                text = expected[1] if expected else ""
                seen.add(next((k for k in ("length", "integer", "negative", "len()") if k in text),
                              text))
                named = re.search(r"item (\d+)", text)
                if named:
                    # a fault in a shared row names the first index holding it
                    holders = [i for i, c in enumerate(costs) if c is costs[int(named[1])]]
                    assert holders[0] == int(named[1])
                    shared_faults += len(holders) > 1
            assert seen == {"", "length", "integer", "negative", "len()"}
            assert shared_faults >= 20, shared_faults

    def test_float_row_equal_to_an_int_row_is_refused(self):
        # (1.0, 2) == (1, 2), so only identity may dedupe rows
        ints = (1, 2)
        for costs, item in (((ints, (1.0, 2)), 1), ((ints, (1.0, 2), ints), 1),
                            ((ints, ints, (1, 2.0)), 2)):
            with pytest.raises(ValueError, match=f"item {item} has a non-integer"):
                VkInstance((1,) * len(costs), costs, (5, 5))

    def test_validation_transient_memory_is_bounded(self):
        # 250,000 distinct d = 1 rows: one 4,096-row slice at a time peaks near
        # 0.6 MB, and deduping all of them at once near 21 MB
        costs = tuple((i,) for i in range(250_000))
        profits = (1,) * len(costs)
        tracemalloc.start()
        try:
            VkInstance(profits, costs, (1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize(
        "profits, costs, budget",
        [
            ((1.5, 2), ((1,), (1,)), (4,)),
            ((1, 2), ((1,), (1,)), (4.0,)),
            ((1,), ((0.5,),), (4,)),
            ((1,), (("1",),), (4,)),
        ],
    )
    def test_non_integer_entries_rejected(self, profits, costs, budget):
        with pytest.raises(ValueError, match="integer"):
            VkInstance(profits, costs, budget)


class TestBruteForce:
    def test_empty(self):
        assert solve_bruteforce(VkInstance((), (), (1,))) == (0, Solution())

    def test_single_item(self):
        value, sol = solve_bruteforce(inst_1d([2], [4], 5))
        assert value == 4 and sol.chosen == {0}

    def test_three_item_example(self):
        value, sol = solve_bruteforce(THREE_ITEMS)
        assert value == 8
        assert sol.chosen == {0, 2}

    def test_cap(self):
        # every subset of zero-cost items fits: the search visits the six
        # sets (), (0,), ..., (0, 1, 2, 3, 4) before the profit bound cuts
        inst = inst_1d([0] * 5, [1] * 5, 1)
        assert solve_bruteforce(inst, max_nodes=6) == (5, Solution(frozenset(range(5))))
        with pytest.raises(CapExceededError, match="node budget 5"):
            solve_bruteforce(inst, max_nodes=5)

    def test_36_item_packed_targets_at_default_budget(self):
        # 12 cubic vertices, sigma = 3, F = 1.  The optimum is |V| + 2|E|
        # iff a full consistent assignment exists.  That is also the item
        # count bound at the root, so the planted search stops once it finds
        # the optimum; the unplanted one never reaches it.  A vertex's three
        # items pairwise conflict, so the run bound counts one per vertex:
        # 202 and 565 nodes, where the profit sum of every item to come
        # took 9,254 and 25,788.
        planted, _ = gen_rcsp_planted(12, 3, 3, random.Random(0), regular3=True)
        unplanted = gen_rcsp(12, 3, 3, random.Random(1), regular3=True)
        for pi, full_exists, nodes in ((planted, True, 202), (unplanted, False, 565)):
            target, _ = rcsp_to_vk_embed(pi, 1)
            assert target.item_count == 36
            value, sol = solve_bruteforce(target)
            assert solve_bruteforce(target, max_nodes=nodes) == (value, sol)
            with pytest.raises(CapExceededError, match=f"node budget {nodes - 1}$"):
                solve_bruteforce(target, max_nodes=nodes - 1)
            assert check_feasible(target, sol) and profit(target, sol) == value
            full = pi.graph.vertex_count + 2 * len(pi.graph.edge_list)
            assert (par_bruteforce(pi)[0] == pi.graph.vertex_count) == full_exists
            assert (value == full) == full_exists
        # the unplanted target's value and witness, from the second oracle
        assert solve_dp(target) == (value, sol)

    def test_set_deeper_than_the_recursion_limit(self):
        # every subset of zero-cost items fits: one 2001-node path to the optimum
        inst = inst_1d([0] * 2000, [1] * 2000, 0)
        assert solve_bruteforce(inst, max_nodes=2001) == (2000, Solution(frozenset(range(2000))))

    def test_tie_break_is_lexicographic(self):
        # two identical full-budget items: both optima, keep the lower index
        inst = inst_1d([6, 6], [5, 5], 6)
        _, sol = solve_bruteforce(inst)
        assert sol.chosen == {0}
        # a zero-profit item is dropped when it adds nothing
        inst = inst_1d([1, 1], [5, 0], 6)
        _, sol = solve_bruteforce(inst)
        assert sol.chosen == {0}


class TestBoundedSize:
    def test_size_zero(self):
        assert solve_bruteforce_bounded_size(THREE_ITEMS, 0) == (0, Solution())

    def test_full_size_matches_unbounded(self):
        assert solve_bruteforce_bounded_size(THREE_ITEMS, 3) == solve_bruteforce(
            THREE_ITEMS
        )
        assert solve_bruteforce_bounded_size(THREE_ITEMS, 10) == solve_bruteforce(
            THREE_ITEMS
        )

    def test_singletons_only(self):
        value, sol = solve_bruteforce_bounded_size(THREE_ITEMS, 1)
        assert value == 5 and sol.chosen == {2}

    def test_cap(self):
        # zero-cost items of rising profit: every set fits and the incumbent
        # keeps improving, so the search visits 210 of the 211 sets of at
        # most 2 items; only the profit bound skips the last singleton
        inst = inst_1d([0] * 20, range(1, 21), 1)
        assert solve_bruteforce_bounded_size(inst, 2, max_nodes=210) == (39, Solution({18, 19}))
        with pytest.raises(CapExceededError, match="node budget 209"):
            solve_bruteforce_bounded_size(inst, 2, max_nodes=209)

    def test_default_budget_is_the_shared_node_cap(self):
        for search in (solve_bruteforce, solve_bruteforce_bounded_size):
            assert inspect.signature(search).parameters["max_nodes"].default == DEFAULT_NODE_CAP

    def test_matches_combinations_reference(self):
        generators = (gen_vk, gen_vk_2unbounded, gen_vk_mixed)
        for i in range(60):
            rng = random.Random(2100 + i)
            n = rng.randint(0, 10)
            inst = generators[i % 3](n, rng.randint(1, 3), rng.randint(2, 14), rng.randint(0, 4), rng)
            # a zero-profit item and a copy of item 0 force ties; n stays <= 12
            if n:
                inst = VkInstance(
                    inst.profits + (0, inst.profits[0]),
                    inst.costs + (inst.costs[n - 1], inst.costs[0]),
                    inst.budget,
                )
            for s_max in range(inst.item_count + 2):
                expected = combinations_reference(inst, s_max)
                assert solve_bruteforce_bounded_size(inst, s_max) == expected, (i, s_max)
            assert solve_bruteforce(inst) == combinations_reference(inst, inst.item_count), i

    def test_item_count_bound_below_n_and_s_max(self):
        # every row takes a quarter to a half of each budget coordinate, so
        # the item count bound cuts well below n; equal profits, zero-profit
        # and zero-cost items put ties and free items at the cut.  At d = 0
        # every row sums to 0 and the bound is n.
        for i in range(160):
            rng = random.Random(2400 + i)
            n, d, kind = rng.randint(8, 11), rng.randint(1, 3), i % 4
            budget = tuple(rng.randint(8, 40) for _ in range(d))
            costs = [tuple(rng.randint(b // 4, b // 2) for b in budget) for _ in range(n)]
            profits = [5] * n if kind == 0 else [rng.randint(1, 9) for _ in range(n)]
            for j in rng.sample(range(n), 2):
                if kind == 1:
                    profits[j] = 0
                elif kind == 2:
                    costs[j] = (0,) * d
            if kind == 3:
                budget, costs = (), [()] * n
            inst = VkInstance(tuple(profits), tuple(costs), budget)
            bound = item_count_bound(inst)
            s_max = rng.randint(bound + 1, n + 1)
            if kind == 3:
                assert bound == n, i
            else:
                assert bound < min(n, s_max), i
            expected = combinations_reference(inst, n)
            assert solve_bruteforce(inst) == expected, i
            assert solve_bruteforce_bounded_size(inst, s_max) == combinations_reference(inst, s_max), i
            assert solve_bruteforce_bounded_size(inst, bound) == expected, i

    def test_not_item_capped(self):
        # the budget bounds visited sets, not items: 40 items pass a budget
        # of every set of at most 2 items, which the full search exceeds
        rng = random.Random(2200)
        inst = gen_vk_mixed(40, 3, 30, 9, rng)
        budget = sum(comb(40, k) for k in range(3))
        with pytest.raises(CapExceededError):
            solve_bruteforce(inst, max_nodes=budget)
        assert solve_bruteforce_bounded_size(inst, 2, max_nodes=budget) == combinations_reference(inst, 2)

    def test_recursion_depth_follows_subset_size(self):
        rng = random.Random(2300)
        inst = gen_vk_2unbounded(1500, 2, 50, 20, rng)
        assert solve_bruteforce_bounded_size(inst, 1) == combinations_reference(inst, 1)


class TestDp:
    def test_empty(self):
        assert solve_dp(VkInstance((), (), (3,))) == (0, Solution())

    def test_two_dimensional_example(self):
        inst = VkInstance((1, 1), ((1, 2), (2, 1)), (2, 2))
        # exhaustive check over the 4 subsets: only both-feasible at (3,3)? no:
        # {0,1} costs (3,3) > (2,2); each singleton fits; optimum is 1... both
        # fit only if budget allows; verify against brute force instead.
        assert solve_dp(inst) == solve_bruteforce(inst)

    def test_agrees_with_bruteforce_on_seeded_instances(self):
        for i in range(100):
            rng = random.Random(700 + i)
            inst = gen_vk(rng.randint(0, 9), rng.randint(1, 3), rng.randint(1, 9), 10, rng)
            dp_value, dp_sol = solve_dp(inst)
            bf_value, bf_sol = solve_bruteforce(inst)
            assert dp_value == bf_value
            assert check_feasible(inst, dp_sol)
            assert profit(inst, dp_sol) == dp_value
            # the tie-break makes the witnesses identical, not just equal-value
            assert dp_sol == bf_sol

    def test_state_cap(self):
        # eight distinct reachable cost vectors, the empty one included
        inst = VkInstance((1, 1, 1), ((1, 2), (2, 1), (1, 1)), (10, 10))
        assert solve_dp(inst, state_cap=8) == solve_bruteforce(inst)
        with pytest.raises(CapExceededError):
            solve_dp(inst, state_cap=7)

    def test_cli_state_cap_exits_3(self, tmp_path, capsys):
        src = tmp_path / "vk.json"
        main(["gen", "vk", "--n", "6", "--seed", "10", "--out", str(src)])
        assert main(["solve", "dp", "--in", str(src), "--cap-states", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_budget_beyond_machine_word(self):
        rng = random.Random(70)
        big = 1 << 70
        inst = VkInstance(
            tuple(rng.randint(0, 9) for _ in range(10)),
            tuple((rng.randint(0, big // 3), rng.randint(0, big // 2)) for _ in range(10)),
            (big, big),
        )
        assert solve_dp(inst) == solve_bruteforce(inst)

    def test_agrees_with_bruteforce_on_reduction_targets(self):
        for i in range(20):
            rng = random.Random(1500 + i)
            pi, _ = gen_rcsp_planted(
                rng.choice((4, 6)), rng.choice((2, 3)), rng.choice((2, 3)), rng, regular3=True
            )
            plain = rcsp_to_vk_simple(pi)
            packed, _ = rcsp_to_vk_embed(pi, rng.randint(1, 3))
            for target in (plain, packed):
                assert solve_dp(target) == solve_bruteforce(target), i


class TestPackedOracles:
    """The packed-int search and DP against their tuple-room references."""

    def test_seeded_instances_of_every_class(self):
        generators = (gen_vk, gen_vk_mixed, gen_vk_2bounded, gen_vk_2unbounded)
        for i in range(48):
            rng = random.Random(3100 + i)
            # 100 fills the 7 value bits of a one-byte field, 255 needs a second byte
            max_budget = rng.choice((2, 9, 100, 255, 1 << rng.randint(8, 70)))
            inst = generators[i % 4](rng.randint(0, 9), rng.randint(1, 4), max_budget, rng.randint(0, 6), rng)
            assert_oracles_match_references(inst, i)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3])
    def test_digit_packed_targets(self, chunk_size):
        for i in range(4):
            rng = random.Random(3200 + 10 * chunk_size + i)
            vertices, sigma = rng.choice(((4, 2), (4, 3), (6, 2)))
            if i % 2:
                pi = gen_rcsp(vertices, sigma, 2, rng, regular3=True)
            else:
                pi, _ = gen_rcsp_planted(vertices, sigma, 2, rng, regular3=True)
            target, _ = rcsp_to_vk_embed(pi, chunk_size)
            assert_oracles_match_references(target, (chunk_size, i))

    def test_digit_packed_targets_of_20_items_and_more(self):
        # 10 vertices with sigma 2 or 8 with sigma 3, planted and random;
        # the search only, since the DP's trip point takes seconds to find
        for i in range(4):
            rng = random.Random(3400 + i)
            vertices, sigma = ((10, 2), (8, 3))[i % 2]
            if i // 2 % 2:
                pi = gen_rcsp(vertices, sigma, 2, rng, regular3=True)
            else:
                pi, _ = gen_rcsp_planted(vertices, sigma, 2, rng, regular3=True)
            target, _ = rcsp_to_vk_embed(pi, 1 + i % 3)
            assert target.item_count >= 20
            assert_search_matches_reference(target, i)

    @pytest.mark.parametrize(
        "profits, costs, budget",
        [
            pytest.param((3, 4), ((), ()), (), id="d-0"),
            pytest.param((3, 4, 5), ((0, 2), (1, 0), (0, 0)), (0, 5), id="zero-budget-coordinate"),
            pytest.param((9, 4, 5), ((1, 7), (3, 3), (4, 2)), (8, 6), id="over-budget-in-one-coordinate"),
            pytest.param((5, 1, 2), ((True, False), (1, 1), (0, True)), (True, 2), id="bool-entries"),
            pytest.param((0, 2, 1, 0), ((0, 0), (0, 0), (3, 1), (0, 0)), (3, 1), id="zero-cost-items"),
            pytest.param(
                (5, 4, 3, 2),
                (
                    ((1 << 200) + 1, 1 << 201, 1 << 206),
                    (1 << 200, 5, 1 << 207),
                    (3, (1 << 202) - 1, 0),
                    (1 << 199, 1 << 200, (1 << 206) + (1 << 205)),
                ),
                # 207 and 208 bits: the first fills the value bits of a
                # 26-byte field, the second needs a 27th byte
                ((1 << 201) + 1, (1 << 207) - 1, (1 << 207) + 5),
                id="budgets-past-2^200",
            ),
        ],
    )
    def test_edge_cases(self, profits, costs, budget):
        inst = VkInstance(profits, costs, budget)
        assert_oracles_match_references(inst, budget)

    def test_check_feasible_matches_per_dimension_reference(self):
        for i in range(200):
            rng = random.Random(3300 + i)
            n, d = rng.randint(0, 6), rng.randint(0, 3)
            inst = gen_vk(n, d, rng.choice((1, 8, 1 << 90)), 5, rng)
            for size in range(n + 1):
                sol = Solution(frozenset(rng.sample(range(n), size)))
                assert check_feasible(inst, sol) == per_dimension_check_feasible(inst, sol), (i, sol)


class TestRunBound:
    """The run bound against the profit sum it replaced and against
    exhaustive enumeration."""

    def test_never_more_nodes_than_the_profit_sum_bound(self):
        generators = (gen_vk, gen_vk_mixed, gen_vk_2bounded, gen_vk_2unbounded)
        fewer = 0
        for i in range(320):
            rng = random.Random(5100 + i)
            if i % 5 == 4:
                vertices, sigma = rng.choice(((4, 2), (4, 3), (6, 2)))
                pi = gen_rcsp(vertices, sigma, 2, rng, regular3=True)
                inst, _ = rcsp_to_vk_embed(pi, rng.randint(1, 3))
            else:
                max_budget = rng.choice((2, 9, 100, 1 << 40))
                inst = generators[i % 4](rng.randint(0, 10), rng.randint(1, 4), max_budget,
                                         rng.randint(0, 6), rng)
            s = rng.choice((0, 1, 2, inst.dimension, inst.item_count))
            nodes = trip_point(lambda cap: solve_bruteforce_bounded_size(inst, s, max_nodes=cap))
            before = trip_point(lambda cap: tuple_room_best_subset(inst, s, cap, suffix_sum_bound))
            assert nodes <= before, i
            fewer += nodes < before
            assert solve_bruteforce_bounded_size(inst, s) == tuple_room_best_subset(
                inst, s, before, suffix_sum_bound), i
        # it cuts nodes on 56 of them
        assert fewer >= 50, fewer

    def test_items_that_fit_together_stay_in_separate_runs(self):
        # items 1 and 2 fit together, so they start separate runs, and item
        # 0, which conflicts with item 1, joins item 1's run.  One run of all
        # three would bound the root's later items by 4 once {0} holds 5,
        # and lose the optimum {1, 2}.
        inst = inst_1d([10, 5, 5], [5, 4, 4], 10)
        assert run_bound(inst) == [9, 8, 4, 0]
        assert solve_bruteforce(inst) == combinations_reference(inst, 3) == (8, Solution({1, 2}))
        assert_oracles_match_references(inst, "separate runs")

        def one_run(inst):
            return [max(inst.profits[i:], default=0) for i in range(inst.item_count + 1)]

        assert tuple_room_best_subset(inst, 3, 100, one_run) == (5, Solution({0}))

    @pytest.mark.parametrize(
        "profits, costs, budget, bound",
        [
            pytest.param((), (), (3,), [0], id="n-0"),
            # item 1 ties {1} with {1, 2}; item 0 conflicts with item 1 and
            # joins its run, so its zero profit adds nothing
            pytest.param((0, 3, 0), ((5,), (5,), (0,)), (6,), [3, 3, 0, 0], id="zero-profits"),
            # item 1 fits in no set: it joins no run and adds nothing, so
            # items 0 and 2 share a run across it
            pytest.param((4, 9, 3), ((4, 1), (7, 0), (3, 1)), (6, 6), [4, 3, 3, 0],
                         id="never-fits-alone"),
            # item 2 fits in no set, so the root stops at item 1 once {0}
            # holds 2; were its profit counted, the search would visit {1}
            pytest.param((2, 1, 9), ((2,), (1,), (3,)), (2,), [2, 1, 0, 0],
                         id="never-fits-alone-last"),
        ],
    )
    def test_edge_cases(self, profits, costs, budget, bound):
        inst = VkInstance(profits, costs, budget)
        assert run_bound(inst) == bound
        assert solve_bruteforce(inst) == combinations_reference(inst, inst.item_count)
        assert_oracles_match_references(inst, budget)


class TestProperties:
    def test_witness_achieves_value(self):
        for i in range(50):
            rng = random.Random(900 + i)
            inst = gen_vk(rng.randint(0, 10), rng.randint(1, 3), 12, 9, rng)
            value, sol = solve_bruteforce(inst)
            assert check_feasible(inst, sol)
            assert profit(inst, sol) == value

    def test_budget_monotonicity(self):
        for i in range(30):
            rng = random.Random(1100 + i)
            inst = gen_vk(rng.randint(1, 8), rng.randint(1, 3), 10, 9, rng)
            value, _ = solve_bruteforce(inst)
            j = rng.randrange(inst.dimension)
            raised = VkInstance(
                inst.profits,
                inst.costs,
                tuple(b + (3 if k == j else 0) for k, b in enumerate(inst.budget)),
            )
            raised_value, _ = solve_bruteforce(raised)
            assert raised_value >= value

    def test_zero_cost_item_adds_its_profit(self):
        for i in range(30):
            rng = random.Random(1300 + i)
            inst = gen_vk(rng.randint(0, 8), rng.randint(1, 3), 10, 9, rng)
            value, _ = solve_bruteforce(inst)
            bonus = rng.randint(0, 7)
            extended = VkInstance(
                inst.profits + (bonus,),
                inst.costs + ((0,) * inst.dimension,),
                inst.budget,
            )
            extended_value, _ = solve_bruteforce(extended)
            assert extended_value == value + bonus

    def test_subinstance_keeps_order(self):
        sub, order = subinstance(THREE_ITEMS, [2, 0])
        assert order == (0, 2)
        assert sub.profits == (3, 5)
