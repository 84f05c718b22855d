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
runs each branch over its class's indices of the instance it is given
and returns the better result; only the over-half survivors are copied,
for the bounded-size enumeration.
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


def approx_2unbounded(inst: VkInstance) -> Solution:
    """_over_half on every item; the first item that fits half the budget is refused."""
    bounded, _ = split_by_boundedness(inst)
    if bounded:
        raise ValueError(f"item {bounded[0]} fits half the budget in every coordinate")
    return _over_half(inst, range(inst.item_count))


def _over_half(inst: VkInstance, items) -> Solution:
    """Discretize, prune duplicate cost keys, enumerate subsets of size <= d.

    items are ascending indices of inst; those that do not fit the budget
    alone are dropped up front.  The enumeration runs on a copy of the
    survivors with their original, undiscretized costs, so the output is
    always feasible.
    """
    fitting = [i for i in items if all(map(le, inst.costs[i], inst.budget))]
    if not fitting:
        return Solution()
    d = inst.dimension
    survivors = prune_by_discretization([(i, inst.profits[i], inst.costs[i]) for i in fitting],
                                        inst.budget, gamma_for_dimension(d))
    sub, order = subinstance(inst, survivors)
    _, sol = solve_bruteforce_bounded_size(sub, d)
    return Solution(frozenset(order[i] for i in sol.chosen))


def _repair(inst: VkInstance, chosen: set[int]) -> set[int]:
    """Drop the worst profit-per-violation item until the set is feasible.

    Items are ranked by profit / load over the violated coordinates,
    compared by integer cross-multiplication; ties go to the smaller index.
    """
    costs, budget = inst.costs, inst.budget
    while True:
        # no column totals when chosen is empty, and nothing is violated
        totals = map(sum, zip(*(costs[i] for i in chosen)))
        violated = [j for j, (total, b) in enumerate(zip(totals, budget)) if total > b]
        if not violated:
            return chosen
        worst, worst_profit, worst_load = None, 0, 0
        for i in chosen:
            load = sum(costs[i][j] for j in violated)
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


def approx_lp_rounding(inst: VkInstance, seed: int) -> Solution:
    """_lp_rounding on every item; the first item over half the budget is refused."""
    bounded, unbounded = split_by_boundedness(inst)
    if unbounded:
        raise ValueError(f"item {unbounded[0]} exceeds half the budget in some coordinate")
    return _lp_rounding(inst, bounded, seed)


def _lp_rounding(inst: VkInstance, items, seed: int) -> Solution:
    """Round the scaled fractional optimum; repair; keep the best of many trials.

    items are ascending indices of inst, and the relaxation is taken over
    them alone.  Each trial includes item i with probability theta * x_i =
    num/den in lowest terms, theta = 1/ceil(4 sqrt(d)), worked out in
    integers; only items with x_i > 0 take a draw, in ascending order.
    The draw is r < num, with r =
    getrandbits(den.bit_length()) redrawn while r >= den on one
    random.Random(seed) stream: randrange(den)'s own rejection sampler,
    so the stream is the one randrange(den) gives.  Infeasible draws are
    repaired by discarding low profit-per-violation items, and a draw
    equal to an earlier one is skipped, its repair being the same.  The
    empty set and the first item of largest positive profit, which fits
    alone as every item here does, are candidates too, so the result is
    never worse than the best singleton.
    """
    if not items:
        return Solution()
    d = inst.dimension
    if d == 0:
        return Solution(frozenset(items))
    profits = inst.profits
    _, weights = knapsack_relaxation([profits[i] for i in items],
                                     [inst.costs[i] for i in items], inst.budget)
    c = _rounding_theta(d).denominator
    odds = []
    for i, w in zip(items, weights):
        if w:  # an LP point has no negative entry
            # theta * w = w.numerator / (c * w.denominator), which shares
            # with its denominator only the factors w.numerator shares with c
            g = math.gcd(w.numerator, c)
            den = c // g * w.denominator
            odds.append((i, w.numerator // g, den, den.bit_length()))

    first = max(items, key=profits.__getitem__)  # max keeps the first of equals
    best_profit = profits[first]
    best = Solution(frozenset({first})) if best_profit > 0 else Solution()
    best_items = best.sorted_items()
    getrandbits = random.Random(seed).getrandbits
    seen = set()
    for _ in range(ROUNDING_TRIALS):
        drawn = []
        for i, num, den, k in odds:
            r = getrandbits(k)
            while r >= den:
                r = getrandbits(k)
            if r < num:
                drawn.append(i)
        drawn = frozenset(drawn)
        if drawn in seen:
            continue
        seen.add(drawn)
        repaired = _repair(inst, set(drawn))
        value = sum(profits[i] for i in repaired)
        if value >= best_profit:  # only a candidate that can win is sorted
            ranked = tuple(sorted(repaired))
            if _better(value, ranked, best_profit, best_items):
                best, best_profit, best_items = Solution(frozenset(repaired)), value, ranked
    return best


def approx_sqrt_d(inst: VkInstance, seed: int) -> Solution:
    """Run each branch over its item class and keep the better solution."""
    bounded, unbounded = split_by_boundedness(inst)
    return _best_solution(inst, Solution(), _lp_rounding(inst, bounded, seed),
                          _over_half(inst, unbounded))
