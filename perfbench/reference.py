"""Independent references the benchmark checks every op against.

Nothing here imports knapreduce: each check is recomputed from the raw
instance data (profits, costs, budgets, edges, projections, clauses), so a
defect in the code under test cannot also hide in its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def vk_feasible(costs, budget, chosen) -> bool:
    """Exact coordinatewise budget test of an item subset."""
    for j, b in enumerate(budget):
        if sum(costs[i][j] for i in chosen) > b:
            return False
    return True


def vk_profit(profits, chosen) -> int:
    return sum(profits[i] for i in chosen)


def vk_opt_exhaustive(profits, costs, budget) -> int:
    """Exact optimum by enumerating every subset (cut only when over budget)."""
    n, d = len(profits), len(budget)
    best = 0

    def descend(i, used, value):
        nonlocal best
        if i == n:
            best = max(best, value)
            return
        descend(i + 1, used, value)
        row = costs[i]
        grown = [used[j] + row[j] for j in range(d)]
        if all(grown[j] <= budget[j] for j in range(d)):
            descend(i + 1, grown, value + profits[i])

    descend(0, [0] * d, 0)
    return best


def rcsp_consistent(edges, projections, values) -> bool:
    """Every edge with both endpoints assigned has agreeing projections."""
    for (u, v) in edges:
        a, b = values[u], values[v]
        if a is not None and b is not None:
            pu, pv = projections[(u, v)]
            if pu[a] != pv[b]:
                return False
    return True


def rcsp_max_partial(vertex_count, sigma_size, edges, projections) -> int:
    """Largest consistent partial assignment, by plain enumeration of all
    (sigma + 1)^n labelings (None marks an unassigned vertex)."""
    best = 0
    for values in product((None, *range(sigma_size)), repeat=vertex_count):
        size = vertex_count - values.count(None)
        if size > best and rcsp_consistent(edges, projections, values):
            best = size
    return best


def sat_satisfied(clauses, assignment) -> bool:
    """assignment[v - 1] is the 0/1 value of variable v."""
    return all(
        any(bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def lp_bound(profits, costs, budget) -> Fraction:
    """Exact optimum of max p.x s.t. C x <= b, 0 <= x <= 1.

    Bounded-variable primal simplex over Fractions (the x <= 1 bounds are
    handled implicitly, so the tableau has one row per budget coordinate).
    Columns 0..n-1 are the items, n..n+d-1 the slacks; the all-slack basis
    with every item at its lower bound 0 is feasible because b >= 0.
    Entering and leaving choices take the smallest index, which rules out
    cycling.
    """
    n, d = len(profits), len(budget)
    total = n + d
    rows = [
        [Fraction(costs[i][j]) for i in range(n)] + [Fraction(int(k == j)) for k in range(d)]
        for j in range(d)
    ]
    reduced = [Fraction(p) for p in profits] + [Fraction(0)] * d
    value = [Fraction(0)] * n + [Fraction(b) for b in budget]
    basis = list(range(n, total))
    upper = [Fraction(1)] * n + [None] * d
    in_basis = [False] * n + [True] * d
    while True:
        entering = None
        for j in range(total):
            if in_basis[j]:
                continue
            if (reduced[j] > 0 and value[j] == 0) or (reduced[j] < 0 and value[j] == upper[j]):
                entering = j
                break
        if entering is None:
            break
        step_sign = 1 if reduced[entering] > 0 else -1
        # Largest step t keeping every basic variable within its bounds; the
        # entering variable itself may run into its opposite bound (a flip).
        step, leaving_row = upper[entering], None
        for r, var in enumerate(basis):
            rate = rows[r][entering] * step_sign  # basic var moves by -rate * t
            if rate > 0:
                limit = value[var] / rate
            elif rate < 0 and upper[var] is not None:
                limit = (upper[var] - value[var]) / -rate
            else:
                continue
            if step is None or limit < step or (
                limit == step and leaving_row is not None and var < basis[leaving_row]
            ):
                step, leaving_row = limit, r
        if step is None:
            raise ArithmeticError("unbounded direction in a bounded program")
        value[entering] += step_sign * step
        for r, var in enumerate(basis):
            value[var] -= rows[r][entering] * step_sign * step
        if leaving_row is None:
            continue
        pivot_row = rows[leaving_row]
        pivot = pivot_row[entering]
        pivot_row[:] = [x / pivot for x in pivot_row]
        for r in range(d):
            factor = rows[r][entering]
            if r != leaving_row and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], pivot_row)]
        factor = reduced[entering]
        reduced = [x - factor * y for x, y in zip(reduced, pivot_row)]
        in_basis[basis[leaving_row]] = False
        in_basis[entering] = True
        basis[leaving_row] = entering
    return sum(Fraction(p) * x for p, x in zip(profits, value))
