"""Fraction-free bounded-variable simplex over the integers, Bland's rule.

Solves max c.x subject to A.x <= b, 0 <= x <= 1 with b >= 0, which is all
the knapsack relaxation needs: the all-slack basis with every x at 0 is
feasible, so there is no phase one, and Bland's pivoting rule guarantees
termination without any tolerance fiddling.

The box is handled implicitly (Dantzig's upper-bounding technique), so the
tableau has one row per constraint of A.  A structural variable held at
its upper bound is complemented, x' = 1 - x: its column is negated and
subtracted from the right-hand side, so every nonbasic variable sits at
0.  An entering variable that reaches its own bound first just flips that
way, without a pivot; a basic variable that rises to 1 is complemented in
its row and then leaves at 0.  Bland's rule numbers the variables as the
tableau with explicit x <= 1 rows does: the x_j, then the slacks, then the
box slacks 1 - x_j, which a complemented column stands for.  So the
entering and leaving choices, and the optimum returned, are that
tableau's.

The tableau is kept in integers over one positive common denominator D
(integer-preserving pivoting after Bareiss and Edmonds): a pivot on p
replaces every other row entry x by (p*x - f*y) // D, an exact division,
and then sets D = p.  Entries are subdeterminants of the scaled input,
so they never outgrow it the way unreduced fractions would, and no gcd
is taken in the pivot loop.  Complementing negates a column or, for a
basic variable, its row, which keeps both properties.  Only the returned
point is rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import CapExceededError

# Most structural variables (items) of a knapsack relaxation; its tableau
# has d rows of n + d + 1 integers.
VARIABLE_CAP = 400


class SimplexError(Exception):
    """Internal invariant failure (an unbounded direction, here impossible)."""


def _integer_row(values) -> list[int]:
    """The row scaled by the lcm of its denominators, a positive factor."""
    if all(type(v) is int for v in values):
        return list(values)
    exact = [Fraction(v) for v in values]
    scale = lcm(*(f.denominator for f in exact))
    return [f.numerator * (scale // f.denominator) for f in exact]


def simplex_maximize(objective, rows, rhs) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize objective . x over A x <= rhs, 0 <= x <= 1 (all rhs nonnegative).

    Returns (optimal value, primal point).  Entering variable: smallest
    index with a positive reduced cost; leaving: smallest index among the
    variables that reach a bound first (see the module docstring for the
    numbering).  Rows and the objective may be rational; each is scaled to
    integers by a positive factor, which changes no sign and no ratio, so
    the pivot sequence is the one over the rationals.
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
    cost = _integer_row(objective) + [0] * m
    basis = [n + i for i in range(m)]
    total = n + m
    complemented = [False] * n
    denominator = 1

    def index(j):
        """Bland index of the variable column j stands for."""
        return j + total if j < n and complemented[j] else j

    def partner(j):
        """Bland index of the structural's other bound variable (x_j or 1 - x_j)."""
        return j if complemented[j] else j + total

    while True:
        improving = [j for j, c in enumerate(cost) if c > 0]
        if not improving:
            break
        entering = min(improving, key=index)
        # Largest step: the entering structural's own bound 1, else the
        # first basic variable to fall to 0 (a > 0, ratio rhs/a) or rise to
        # 1 (a < 0, ratio (D - rhs)/-a); ratios are compared by
        # cross-multiplication, ties go to the smaller Bland index.
        pivot_row = None
        if entering < n:
            step, span, least = 1, 1, partner(entering)
        else:
            step = None
        for i, row in enumerate(tableau):
            a = row[entering]
            var = basis[i]
            if a > 0:
                limit, rate, leaving = row[total], a, index(var)
            elif a < 0 and var < n:
                limit, rate, leaving = denominator - row[total], -a, partner(var)
            else:
                continue
            if step is not None:
                excess = limit * span - step * rate
                if excess > 0 or (excess == 0 and leaving > least):
                    continue
            step, span, least, pivot_row, rises = limit, rate, leaving, i, a < 0
        if step is None:
            raise SimplexError("unbounded direction in a bounded program")
        if pivot_row is None:
            # the entering variable reaches its own bound: a flip, no pivot
            _complement_column(tableau, cost, entering)
            complemented[entering] = not complemented[entering]
            continue
        if rises:
            # the leaving variable reaches 1: complemented, it leaves at 0
            var = basis[pivot_row]
            tableau[pivot_row] = _complement_row(tableau[pivot_row], var, denominator)
            complemented[var] = not complemented[var]
        best = tableau[pivot_row]
        pivot = best[entering]
        for i in range(m):
            if i != pivot_row:
                tableau[i] = _eliminate(tableau[i], best, entering, pivot, denominator)
        cost = _eliminate(cost, best, entering, pivot, denominator)
        basis[pivot_row] = entering
        denominator = pivot

    point = [Fraction(int(flag)) for flag in complemented]
    for i, var in enumerate(basis):
        if var < n:
            level = Fraction(tableau[i][total], denominator)
            point[var] = 1 - level if complemented[var] else level
    value = sum((Fraction(c) * x for c, x in zip(objective, point) if x), Fraction(0))
    return value, tuple(point)


def _complement_column(tableau, cost, j) -> None:
    """Swap nonbasic column j for its complement 1 - x_j, in place: the
    column and its reduced cost are negated, and the column is subtracted
    from the right-hand side."""
    for row in tableau:
        row[-1] -= row[j]
        row[j] = -row[j]
    cost[j] = -cost[j]


def _complement_row(row, var, denominator) -> list[int]:
    """The row of basic variable var with var swapped for 1 - var: negated,
    with var's own entry kept at D and the right-hand side D - rhs.  Every
    other row has 0 in var's column, so only this row changes, and an
    entry that was negative becomes a positive pivot."""
    row = [-x for x in row]
    row[var] = denominator
    row[-1] += denominator
    return row


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
    rows = [[costs[i][j] for i in range(n)] for j in range(len(budget))]
    return simplex_maximize(list(profits), rows, list(budget))
