"""Square-root-of-dimension approximation for vector knapsack.

Items are split by whether every coordinate fits in half its budget.
The half-fitting ("2-bounded") side is handled by randomized rounding of
the exact fractional relaxation with greedy repair: item i is drawn with
the exact rational probability x_i / ceil(4 sqrt(d)) from one seeded
stream, only items with x_i > 0 take a draw, and each distinct draw is
repaired once.  The other side is discretized geometrically,
duplicate-keyed items are pruned, and subsets of at most d items are
enumerated (on that side no feasible solution can be larger, one
coordinate per item being more than half spent).  The combined routine
returns the better branch.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import repeat
from operator import le, mul

from .discretize import gamma_for_dimension, prune_by_discretization
from .knapsack import (
    Solution,
    VkInstance,
    _better,
    profit,
    solve_bruteforce_bounded_size,
    subinstance,
)
from .simplex import knapsack_relaxation

# Rounding draws of approx_lp_rounding, all from one seeded stream; repeated
# draws are skipped and the best repaired one wins.
ROUNDING_TRIALS = 32


def _is_bounded(inst: VkInstance, i: int) -> bool:
    return all(map(le, map(mul, inst.costs[i], repeat(2)), inst.budget))


def split_by_boundedness(inst: VkInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bounded, unbounded): the items by the half-budget test, decided exactly."""
    bounded = []
    unbounded = []
    for i in range(inst.item_count):
        (bounded if _is_bounded(inst, i) else unbounded).append(i)
    return tuple(bounded), tuple(unbounded)


def _best_solution(inst: VkInstance, *solutions: Solution) -> Solution:
    """Highest profit, ties to the lexicographically smallest index set."""
    return min(solutions, key=lambda sol: (-profit(inst, sol), sol.sorted_items()))


def approx_2unbounded(inst: VkInstance, *, _split: bool = False) -> Solution:
    """Discretize, prune duplicate cost keys, enumerate subsets of size <= d.

    Every item must fail the half-budget test in some coordinate; that is
    checked unless _split says approx_sqrt_d has already sorted the items.
    Items that do not fit the budget alone are dropped up front.  The
    enumeration runs on the original, undiscretized costs of the
    survivors, so the output is always feasible.
    """
    d = inst.dimension
    if not _split:
        for i in range(inst.item_count):
            if _is_bounded(inst, i):
                raise ValueError(f"item {i} fits half the budget in every coordinate")
    fitting = [i for i in range(inst.item_count) if all(map(le, inst.costs[i], inst.budget))]
    if not fitting:
        return Solution()
    gamma = gamma_for_dimension(d)
    survivors = prune_by_discretization(
        [(i, inst.profits[i], inst.costs[i]) for i in fitting],
        inst.budget,
        gamma,
    )
    sub, order = subinstance(inst, survivors)
    _, sol = solve_bruteforce_bounded_size(sub, d)
    return Solution(frozenset(order[i] for i in sol.chosen))


def _repair(inst: VkInstance, chosen: set[int]) -> set[int]:
    """Drop the worst profit-per-violation item until the set is feasible.

    Items are ranked by profit / load over the violated coordinates,
    compared by integer cross-multiplication; ties go to the smaller index.
    """
    while True:
        totals = [sum(inst.costs[i][j] for i in chosen) for j in range(inst.dimension)]
        violated = [j for j in range(inst.dimension) if totals[j] > inst.budget[j]]
        if not violated:
            return chosen
        worst, worst_profit, worst_load = None, 0, 0
        for i in chosen:
            load = sum(inst.costs[i][j] for j in violated)
            if load == 0:
                continue
            excess = inst.profits[i] * worst_load - worst_profit * load
            if worst is None or excess < 0 or (excess == 0 and i < worst):
                worst, worst_profit, worst_load = i, inst.profits[i], load
        chosen.discard(worst)


def _rounding_theta(d: int) -> Fraction:
    """1/c for the least c with c*c >= 16*d: the largest 1/c <= 1/(4 sqrt(d))."""
    c = math.isqrt(16 * d)
    return Fraction(1, c if c * c == 16 * d else c + 1)


def approx_lp_rounding(inst: VkInstance, seed: int, *, _split: bool = False) -> Solution:
    """Round the scaled fractional optimum; repair; keep the best of many trials.

    Every item must pass the half-budget test; that is checked unless
    _split says approx_sqrt_d has already sorted the items.  Each trial
    includes item i with probability theta * x_i, theta = 1/ceil(4 sqrt(d))
    exactly, drawn as rng.randrange(den) < num on one random.Random(seed)
    stream; only items with x_i > 0 take a draw.  Infeasible draws are
    repaired by discarding low profit-per-violation items, and a draw equal
    to an earlier one is skipped, its repair being the same.  The best
    feasible single item is always a candidate, as is the empty set, so the
    result is never worse than the best singleton.
    """
    if not _split:
        for i in range(inst.item_count):
            if not _is_bounded(inst, i):
                raise ValueError(f"item {i} exceeds half the budget in some coordinate")
    if inst.item_count == 0:
        return Solution()
    d = inst.dimension
    if d == 0:
        return Solution(frozenset(range(inst.item_count)))
    _, weights = knapsack_relaxation(inst.profits, inst.costs, inst.budget)
    theta = _rounding_theta(d)
    odds = [(i, *(theta * w).as_integer_ratio()) for i, w in enumerate(weights) if w > 0]

    _, best = solve_bruteforce_bounded_size(inst, 1)
    best_profit = profit(inst, best)
    best_items = best.sorted_items()
    rng = random.Random(seed)
    seen = set()
    for _ in range(ROUNDING_TRIALS):
        drawn = frozenset(i for i, num, den in odds if rng.randrange(den) < num)
        if drawn in seen:
            continue
        seen.add(drawn)
        repaired = _repair(inst, set(drawn))
        value = sum(inst.profits[i] for i in repaired)
        if value >= best_profit:  # only a candidate that can win is sorted
            items = tuple(sorted(repaired))
            if _better(value, items, best_profit, best_items):
                best, best_profit, best_items = Solution(frozenset(repaired)), value, items
    return best


def approx_sqrt_d(inst: VkInstance, seed: int) -> Solution:
    """Run both branches on their item classes and keep the better solution."""
    bounded, unbounded = split_by_boundedness(inst)
    candidates = [Solution()]
    if bounded:
        sub, order = subinstance(inst, bounded)
        sol = approx_lp_rounding(sub, seed, _split=True)
        candidates.append(Solution(frozenset(order[i] for i in sol.chosen)))
    if unbounded:
        sub, order = subinstance(inst, unbounded)
        sol = approx_2unbounded(sub, _split=True)
        candidates.append(Solution(frozenset(order[i] for i in sol.chosen)))
    return _best_solution(inst, *candidates)
