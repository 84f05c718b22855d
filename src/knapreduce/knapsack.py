"""Vector (d-dimensional) knapsack instances and two exact oracles.

Profits, costs and budgets are nonnegative Python integers and may be
arbitrarily large.  One pruned subset search serves both brute forces,
the exact one and the bounded-size one that the approximation's over-half
branch uses; both are capped by the number of sets the search visits.
Two bounds prune it.  Runs of consecutive items that pairwise conflict
(two items conflict when together they exceed the budget) bound what the
items still to come can add: a feasible set holds at most one item of a
run.  An item count bounds what a set can gain: summed over its
coordinates, the budget fits at most as many items as its smallest row
sums fill.  On the digit-packed targets of cubic CSPs the count bound is
|V| + 2|E| at the root, the value of every planted optimum, so the search
stops once it finds one; at chunk sizes 1 and 2 the sigma items of a
vertex pairwise conflict, so the run bound counts about one per vertex.
The dynamic program is capped by the number of distinct reachable cost
vectors, so budget magnitude limits no oracle; digit-packed targets of
the dimension-embedding reduction are solved by the search and the DP.

Both exact oracles pack each vector into one Python int (guard bits, after
Lamport, "Multiple byte processing with full-word instructions", CACM 1975).
Coordinate j owns a field of whole bytes whose top bit, the guard bit, lies
above every bit that b_j and every c_ij use; call the w_j bits below it the
value bits.  A room r <= b carries every guard bit set, a cost carries
none, so each field of room - cost holds 2^w_j + r_j - c_j, which lies in
[1, 2^(w_j + 1)): the exact big-integer subtraction never borrows across
fields.  The cost fits iff every guard bit survives, and then the
difference is the child's packed room.  Whole-byte fields let
int.to_bytes and int.from_bytes pack a vector in time linear in its width,
where shifting each coordinate into place takes time quadratic in d.

All solvers break ties between equal-profit optima toward the
lexicographically smallest chosen index set (compared as sorted tuples),
so golden outputs are stable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import le

from .errors import DEFAULT_NODE_CAP, CapExceededError, search_budget_exceeded

# tracemalloc measured ~0.4 KB per DP state at 50 cost coordinates of 31-bit
# budgets and ~1 KB at 121-bit ones (a state is keyed by one packed int of 50
# whole-byte fields), so this keeps such a table near 40-105 MB
DEFAULT_STATE_CAP = 100_000

# Cost rows that VkInstance validation dedupes at once, which bounds its
# transient memory on a table of any length
ROW_SLICE = 4096


def _integers(row) -> bool:
    """Whether every entry is an int.  One builtin sum keeps this cheap on
    the flattened cost table of thousands of rows that a reduction builds:
    adding a float, a Fraction or any other non-int number to ints never
    gives back an int."""
    try:
        return type(sum(row)) is int
    except TypeError:
        return False


def check_shape(profits, costs, budget, integers_fault: str | None = None) -> None:
    """The shape rule of VkInstance and the LP relaxation: a cost row per
    profit, each as long as the budget, integer entries and nonnegative
    costs (the signs of profits and budgets are each caller's rule).  The
    first fault raises ValueError, worded integers_fault if that is given
    and the fault is a non-integer entry.  Slice by slice, one pass over
    the flattened distinct rows accepts a valid table; any doubt goes to
    the per-row loop, which words the first fault.  Each row object is
    checked once (the reductions share one tuple among equal rows), deduped
    by identity, never by equality: (1.0, 2) == (1, 2) would pass a float."""
    d = len(budget)
    if len(costs) != len(profits):
        raise ValueError("profits and costs must have one entry per item")
    for name, row in (("profits", profits), ("budgets", budget)):
        if not _integers(row):
            raise ValueError(integers_fault or f"{name} must be integers")
    entries = chain.from_iterable
    for start in range(0, len(costs), ROW_SLICE):
        part = costs[start: start + ROW_SLICE]
        rows = dict(zip(map(id, part), part)).values()
        try:
            shaped = set(map(len, rows)) <= {d} and _integers(entries(rows))
            if shaped and min(entries(rows), default=0) >= 0:
                continue
        except TypeError:
            pass
        for i, c in enumerate(part, start):
            if len(c) != d:
                raise ValueError(f"cost vector of item {i} has length {len(c)}, expected {d}")
            if not _integers(c):
                raise ValueError(
                    integers_fault or f"cost vector of item {i} has a non-integer coordinate")
            if min(c, default=0) < 0:
                raise ValueError(f"cost vector of item {i} has a negative coordinate")


@dataclass(frozen=True)
class VkInstance:
    """Items with profits and d-coordinate integer costs against a budget vector."""

    profits: tuple[int, ...]
    costs: tuple[tuple[int, ...], ...]
    budget: tuple[int, ...]

    def __post_init__(self):
        check_shape(self.profits, self.costs, self.budget)
        for name, row in (("profits", self.profits), ("budgets", self.budget)):
            if min(row, default=0) < 0:
                raise ValueError(f"{name} must be nonnegative")

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
    used = map(sum, zip(*map(inst.costs.__getitem__, sol.chosen)))
    return all(map(le, used, inst.budget))


def profit(inst: VkInstance, sol: Solution) -> int:
    _check_items(inst, sol)
    return sum(inst.profits[i] for i in sol.chosen)


def _better(prof: int, items: tuple, best_prof: int, best_items: tuple) -> bool:
    return prof > best_prof or (prof == best_prof and items < best_items)


def _packed(inst: VkInstance) -> tuple[int, list[int], int]:
    """The budget as a packed room, each item's packed cost, and the guard
    mask (see the module docstring): a room fits cost c iff
    (room - c) & guards == guards, and the difference is then the room
    left over."""
    sizes = [max(column).bit_length() // 8 + 1 for column in zip(inst.budget, *inst.costs)]

    def pack(vector) -> int:
        return int.from_bytes(b"".join(map(int.to_bytes, vector, sizes, repeat("little"))), "little")

    guards = pack([1 << (8 * size - 1) for size in sizes])
    return guards + pack(inst.budget), [pack(c) for c in inst.costs], guards


def _best_subset(inst: VkInstance, max_size: int, max_nodes: int) -> tuple[int, Solution]:
    """Best feasible subset of at most max_size items, by depth-first search.

    Each set is extended by one larger index at a time, so sets are visited
    in lexicographic order and the search stack is as deep as the largest
    set.  Since a later set never wins a tie, only a strictly larger profit
    replaces the incumbent, so any subtree whose profits are bounded by the
    incumbent's can be skipped without changing the answer.  A branch
    carries its residual budget, so an item that does not fit is skipped in
    one test (costs are nonnegative, so no superset can fit either).  The
    residual budget is one packed int, so that test and the child's
    residual are one subtraction.

    Two bounds stop a node's index loop: runs of conflicting items, and a
    count.  Items i and k conflict when c_i + c_k exceeds b in some
    coordinate; costs are nonnegative, so no feasible set holds both.  One
    pass from the last index down splits the items that fit alone into
    runs of consecutive indices: an item joins the run of the items after
    it iff it conflicts with each of them, and else starts a new run; an
    item that does not fit alone is in no feasible set, and joins none.  A
    run's members pairwise conflict, so a feasible set holds at most one of
    them, and items i, ..., n - 1 add at most bound[i], the largest profit
    left in i's run plus the largest profit of each later run.  Profits are
    nonnegative, so bound[i] is at most their plain sum: the search visits
    no node that summing every profit still to come would skip, and finds
    the same set.  bound never rises with i, so the first index where it
    fails ends the loop.  With packed rooms the pair test is exact and
    costs one subtraction and one mask: rest = room - c_i is a valid room,
    and i and k conflict iff rest - c_k loses a guard bit.  On a
    digit-packed target item v * sigma + s gives vertex v symbol s; at chunk
    sizes 1 and 2 the sigma items of a vertex pairwise conflict, so the
    bound counts about one item per vertex, the bound of a multiple-choice
    knapsack (after Sinha and Zoltners, Operations Research 1979).

    Summing the budget inequality over its coordinates
    (a surrogate constraint, after Glover, Operations Research 1968) gives
    sum_{i in S} |c_i| <= |b| for every feasible S, |.| summing a vector's
    coordinates.  Any |S| row sums add up to at least the |S| smallest, so
    no feasible set holds more than `size` items, the largest k whose k
    smallest row sums fit in |b|.  A node of k items gains at most
    top[size - k], the sum of the size - k largest profits; its `ceiling`
    is its profit plus that.  At depth size, top[0] = 0 stops the loop, so
    this one test also enforces max_size.

    On a cubic digit-packed target, a chunk's two coordinates add up to the
    sentinel times the item's coverage of the chunk, and each item takes
    part in four constraints, so every row sums to 4 * sentinel and |b| to
    sentinel * (|V| + 2|E|) = sentinel * 4|V|.  So size = |V|, and the
    root's ceiling is |V| + 2|E|, the value of every planted optimum: the
    search stops once it finds one.

    The search is one loop: the current set is `path`, and the stack holds
    one (next index, room, profit, ceiling) frame per item of it, the
    parent's state to resume once the child's subtree ends.  Each visited
    set is one node, the empty root included; refuses with
    CapExceededError once the search visits more than max_nodes of them.
    """
    profits = inst.profits
    room, costs, guards = _packed(inst)
    # the runs, from the last index down: `members` holds the current run's
    # costs, `left` its largest profit so far, `total` the bound at the index
    bound, members, left, total = [0], [], 0, 0
    for cost, gain in zip(reversed(costs), reversed(profits)):
        rest = room - cost
        if rest & guards == guards:
            for member in members:
                if (rest - member) & guards == guards:
                    members, left = [], 0
                    break
            members.append(cost)
            if gain > left:
                total += gain - left
                left = gain
        bound.append(total)
    bound.reverse()
    fill = list(accumulate(sorted(map(sum, inst.costs))))
    size = min(max_size, bisect_right(fill, sum(inst.budget)))
    top = list(accumulate(sorted(profits, reverse=True)[:size], initial=0))
    best_prof, best_items = 0, ()
    if max_nodes < 1:
        raise search_budget_exceeded(max_nodes)
    nodes, path, stack = 1, [], []
    i, prof, ceiling = 0, 0, top[size]
    while True:
        # best_prof >= prof at every node, so bound[n] = 0 stops i at n
        if ceiling > best_prof and prof + bound[i] > best_prof:
            rest = room - costs[i]
            i += 1
            if rest & guards == guards:
                nodes += 1
                if nodes > max_nodes:
                    raise search_budget_exceeded(max_nodes)
                stack.append((i, room, prof, ceiling))
                path.append(i - 1)
                room, prof = rest, prof + profits[i - 1]
                ceiling = prof + top[size - len(path)]
                if prof > best_prof:
                    best_prof, best_items = prof, tuple(path)
            continue
        if not stack:
            return best_prof, Solution(frozenset(best_items))
        i, room, prof, ceiling = stack.pop()
        path.pop()


def solve_bruteforce(inst: VkInstance, max_nodes: int = DEFAULT_NODE_CAP) -> tuple[int, Solution]:
    """Exact optimum by pruned subset search; refuses past max_nodes nodes."""
    return _best_subset(inst, inst.item_count, max_nodes)


def solve_bruteforce_bounded_size(
    inst: VkInstance, s_max: int, max_nodes: int = DEFAULT_NODE_CAP
) -> tuple[int, Solution]:
    """Best feasible solution among subsets of at most s_max items; refuses
    past max_nodes nodes, however many items."""
    return _best_subset(inst, max(0, s_max), max_nodes)


def solve_dp(inst: VkInstance, state_cap: int = DEFAULT_STATE_CAP) -> tuple[int, Solution]:
    """Exact optimum by dynamic programming over reachable cost vectors.

    Each exactly reachable cost vector within the budget keeps its best
    (profit, witness) among subsets of the items folded in so far, so the
    table size depends on how many distinct sums occur, never on how large
    the budgets are.  Items are folded in from the last index down, and a
    witness is the pair (smallest index, rest of the witness); nested pairs
    compare like the flat sorted tuples, which reproduces the lexicographic
    tie-break of the brute force while every state shares its tail.
    A state is keyed by its packed room, budget minus cost vector, which
    is one-to-one with the cost vector.  Refuses with CapExceededError
    before the table holds more than state_cap cost vectors.
    """
    budget, costs, guards = _packed(inst)
    states = {budget: (0, ())}
    for i in range(inst.item_count - 1, -1, -1):
        ci, pi = costs[i], inst.profits[i]
        for room, (prof, witness) in list(states.items()):
            reached = room - ci
            if reached & guards != guards:
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
    restricted = VkInstance(
        profits=tuple(inst.profits[i] for i in order),
        costs=tuple(inst.costs[i] for i in order),
        budget=inst.budget,
    )
    return restricted, order
