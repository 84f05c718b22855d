"""Vector (d-dimensional) knapsack instances and two exact oracles.

Costs and budgets are plain Python integers and may be arbitrarily large.
The subset brute force is capped by item count and the dynamic program by
the number of distinct reachable cost vectors, so budget magnitude limits
neither; digit-packed targets of the dimension-embedding reduction are
solved by both.

Both solvers break ties between equal-profit optima toward the
lexicographically smallest chosen index set (compared as sorted tuples),
so golden outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import add, gt

from .errors import CapExceededError

DEFAULT_BRUTE_CAP = 22
DEFAULT_BOUNDED_CAP = 2_000_000
# tracemalloc measured up to ~2.2 KB per DP state at 50 cost coordinates (a
# state holds one int per coordinate), so this keeps such a table near 225 MB
DEFAULT_STATE_CAP = 100_000


@dataclass(frozen=True)
class VkInstance:
    """Items with profits and d-coordinate integer costs against a budget vector."""

    profits: tuple[int, ...]
    costs: tuple[tuple[int, ...], ...]
    budget: tuple[int, ...]

    def __post_init__(self):
        d = len(self.budget)
        if len(self.costs) != len(self.profits):
            raise ValueError("profits and costs must have one entry per item")
        if any(p < 0 for p in self.profits):
            raise ValueError("profits must be nonnegative")
        if any(b < 0 for b in self.budget):
            raise ValueError("budgets must be nonnegative")
        for i, c in enumerate(self.costs):
            if len(c) != d:
                raise ValueError(f"cost vector of item {i} has length {len(c)}, expected {d}")
            if any(x < 0 for x in c):
                raise ValueError(f"cost vector of item {i} has a negative coordinate")

    @property
    def item_count(self) -> int:
        return len(self.profits)

    @property
    def dimension(self) -> int:
        return len(self.budget)


@dataclass(frozen=True)
class Solution:
    """A chosen item subset; feasibility is checked, not assumed."""

    chosen: frozenset[int] = field(default_factory=frozenset)

    def sorted_items(self) -> tuple[int, ...]:
        return tuple(sorted(self.chosen))


def _check_items(inst: VkInstance, sol: Solution):
    for i in sol.chosen:
        if not 0 <= i < inst.item_count:
            raise ValueError(f"unknown item index {i}")


def check_feasible(inst: VkInstance, sol: Solution) -> bool:
    """Exact coordinatewise budget test; equality is allowed."""
    _check_items(inst, sol)
    for j in range(inst.dimension):
        if sum(inst.costs[i][j] for i in sol.chosen) > inst.budget[j]:
            return False
    return True


def profit(inst: VkInstance, sol: Solution) -> int:
    _check_items(inst, sol)
    return sum(inst.profits[i] for i in sol.chosen)


def max_budget(inst: VkInstance) -> int:
    """Largest budget coordinate, the W of the instance."""
    if inst.dimension == 0:
        raise ValueError("max budget undefined for a 0-dimensional instance")
    return max(inst.budget)


def _better(prof: int, items: tuple, best_prof: int, best_items: tuple) -> bool:
    return prof > best_prof or (prof == best_prof and items < best_items)


def solve_bruteforce(inst: VkInstance, enum_cap: int = DEFAULT_BRUTE_CAP) -> tuple[int, Solution]:
    """Exact optimum by depth-first subset enumeration.

    Branches are cut when the running cost already exceeds the budget
    (costs are nonnegative) or when the remaining profit cannot beat the
    incumbent strictly.
    """
    n = inst.item_count
    if n > enum_cap:
        raise CapExceededError(f"{n} items exceeds brute-force cap {enum_cap}")
    d = inst.dimension
    budget = inst.budget
    suffix_profit = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_profit[i] = suffix_profit[i + 1] + inst.profits[i]

    best_prof = 0
    best_items: tuple[int, ...] = ()
    running = [0] * d
    current: list[int] = []

    def descend(i: int, prof: int):
        nonlocal best_prof, best_items
        if prof + suffix_profit[i] < best_prof:
            return
        if i == n:
            items = tuple(current)
            if _better(prof, items, best_prof, best_items):
                best_prof, best_items = prof, items
            return
        ci = inst.costs[i]
        if all(running[j] + ci[j] <= budget[j] for j in range(d)):
            for j in range(d):
                running[j] += ci[j]
            current.append(i)
            descend(i + 1, prof + inst.profits[i])
            current.pop()
            for j in range(d):
                running[j] -= ci[j]
        descend(i + 1, prof)

    descend(0, 0)
    return best_prof, Solution(frozenset(best_items))


def solve_bruteforce_bounded_size(
    inst: VkInstance, s_max: int, enum_cap: int = DEFAULT_BOUNDED_CAP
) -> tuple[int, Solution]:
    """Best feasible solution among subsets of at most s_max items."""
    n = inst.item_count
    s_max = max(0, min(s_max, n))
    total = sum(comb(n, k) for k in range(s_max + 1))
    if total > enum_cap:
        raise CapExceededError(f"{total} bounded-size subsets exceeds cap {enum_cap}")
    d = inst.dimension
    best_prof = 0
    best_items: tuple[int, ...] = ()
    for k in range(1, s_max + 1):
        for items in combinations(range(n), k):
            if any(
                sum(inst.costs[i][j] for i in items) > inst.budget[j] for j in range(d)
            ):
                continue
            prof = sum(inst.profits[i] for i in items)
            if _better(prof, items, best_prof, best_items):
                best_prof, best_items = prof, items
    return best_prof, Solution(frozenset(best_items))


def solve_dp(inst: VkInstance, state_cap: int = DEFAULT_STATE_CAP) -> tuple[int, Solution]:
    """Exact optimum by dynamic programming over reachable cost vectors.

    Each exactly reachable cost vector within the budget keeps its best
    (profit, witness) among subsets of the items folded in so far, so the
    table size depends on how many distinct sums occur, never on how large
    the budgets are.  Items are folded in from the last index down, and a
    witness is the pair (smallest index, rest of the witness); nested pairs
    compare like the flat sorted tuples, which reproduces the lexicographic
    tie-break of the brute force while every state shares its tail.
    Refuses with CapExceededError before the table holds more than
    state_cap cost vectors.
    """
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


def subinstance(inst: VkInstance, items) -> tuple[VkInstance, tuple[int, ...]]:
    """Restriction to an item subset, plus the original indices in sub order."""
    order = tuple(sorted(items))
    _check_items(inst, Solution(frozenset(order)))
    sub = VkInstance(
        profits=tuple(inst.profits[i] for i in order),
        costs=tuple(inst.costs[i] for i in order),
        budget=inst.budget,
    )
    return sub, order
