"""Dense fraction-free simplex over the integers, Bland's rule throughout.

Solves max c.x subject to A.x <= b, x >= 0 with b >= 0, which is all the
knapsack relaxation needs: the all-slack basis is feasible, so there is
no phase one, and Bland's pivoting rule guarantees termination without
any tolerance fiddling.

The tableau is kept in integers over one positive common denominator D
(integer-preserving pivoting after Bareiss and Edmonds): a pivot on p
replaces every other row entry x by (p*x - f*y) // D, an exact division,
and then sets D = p.  Entries are subdeterminants of the scaled input,
so they never outgrow it the way unreduced fractions would, and no gcd
is taken in the pivot loop.  Only the returned point is rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import CapExceededError

# Most structural variables (items) of a knapsack relaxation; its dense
# tableau has (d + n) rows of 2n + d + 1 integers.
VARIABLE_CAP = 400


class SimplexError(Exception):
    """Internal invariant failure (an unbounded direction, here impossible)."""


def _integer_row(values) -> list[int]:
    """The row scaled by the lcm of its denominators, a positive factor."""
    exact = [Fraction(v) for v in values]
    scale = lcm(*(f.denominator for f in exact))
    return [f.numerator * (scale // f.denominator) for f in exact]


def simplex_maximize(objective, rows, rhs) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize objective . x over A x <= rhs, x >= 0 (all rhs nonnegative).

    Returns (optimal value, primal point).  Entering variable: smallest
    index with a positive reduced cost; leaving: smallest basic variable
    among the minimum-ratio rows.  Rows and the objective may be rational;
    each is scaled to integers by a positive factor, which changes no sign
    and no ratio, so the pivot sequence is the one over the rationals.
    """
    n = len(objective)
    m = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("constraint rows must match the objective length")
    if any(b < 0 for b in rhs):
        raise ValueError("right-hand sides must be nonnegative")

    # Columns: n structurals then m slacks, then the right-hand side; the
    # basis starts as the slacks, whose identity block makes D = 1.
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        scaled = _integer_row([*row, b])
        tableau.append(scaled[:n] + [int(i == j) for j in range(m)] + scaled[n:])
    cost = _integer_row(objective) + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    total = n + m
    denominator = 1

    while True:
        entering = next((j for j in range(total) if cost[j] > 0), None)
        if entering is None:
            break
        # minimum ratio rhs/a over a > 0, compared by cross-multiplication
        # (D cancels); ties keep the smaller basic variable
        pivot_row = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a <= 0:
                continue
            if pivot_row is not None:
                excess = row[total] * best[entering] - best[total] * a
                if excess > 0 or (excess == 0 and basis[i] > basis[pivot_row]):
                    continue
            pivot_row, best = i, row
        if pivot_row is None:
            raise SimplexError("unbounded direction in a bounded program")
        pivot = best[entering]
        for i in range(m):
            if i != pivot_row:
                tableau[i] = _eliminate(tableau[i], best, entering, pivot, denominator)
        cost = _eliminate(cost, best, entering, pivot, denominator)
        basis[pivot_row] = entering
        denominator = pivot

    point = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            point[var] = Fraction(tableau[i][total], denominator)
    value = sum((Fraction(c) * x for c, x in zip(objective, point)), Fraction(0))
    return value, tuple(point)


def _eliminate(row, pivot_values, entering, pivot, denominator) -> list[int]:
    """One integer-preserving row update; every division is exact."""
    factor = row[entering]
    if factor == 0:
        return [pivot * x // denominator for x in row]
    return [(pivot * x - factor * y) // denominator for x, y in zip(row, pivot_values)]


def knapsack_relaxation(profits, costs, budget) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Fractional relaxation: max p.x, cost constraints, 0 <= x <= 1; exact,
    so never below the integral optimum."""
    n = len(profits)
    if n > VARIABLE_CAP:
        raise CapExceededError(f"{n} variables exceeds the LP cap {VARIABLE_CAP}")
    d = len(budget)
    rows = [[costs[i][j] for i in range(n)] for j in range(d)]
    rows += [[int(i == k) for i in range(n)] for k in range(n)]
    rhs = list(budget) + [1] * n
    return simplex_maximize(list(profits), rows, rhs)
