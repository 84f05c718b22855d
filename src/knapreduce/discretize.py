"""Exact geometric discretization of costs and their budget complements.

All rounding is done on the exact rational grid 1, g, g^2, ... for
g = 1 + 1/(10 d).  Exponents are searched in integers only: for g = p/q a
table holds the floors of g^t, extended from one running exact pair
(p^t mod q^t, q^t), and costs and budgets are integers, so g^t >= x
exactly when floor(g^t) >= x.  A binary search over those floors finds
every exponent; no floating-point logarithm is taken and no rational power
is formed, so boundary values bucket deterministically.

A coordinate's discretized value is the smaller of the geometric
round-up of the cost and the budget minus the geometric round-down of
the residual; ties go to the round-up branch.  Each coordinate is first
keyed by (branch, exponent), which fixes its exact value given the budget
and g.  Pruning compares these keys alone and never forms a rational
power; digamma turns each key into its value.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat

from .errors import CapExceededError

ZERO = "zero"
UP = "up"
COMP_DOWN = "comp_down"

CoordKey = tuple  # (ZERO,) | (UP, t) | (COMP_DOWN, t or None)

# Exponents kept per scaling factor.  A budget B needs about ln(B) / ln(g)
# of them: 8,900 for 91-bit budgets at d = 14, and this cap reaches
# 336-bit budgets at d = 14 or 118-bit budgets at d = 40.  A table holds
# floors no wider than its largest budget plus one running pair of
# ~t * log2(10 d + 1) bits, so its memory grows linearly in the exponents
# (~2 MB at the cap); each step multiplies the pair by small integers, so
# filling a table to the cap still takes time quadratic in it, ~1 s on a
# 2-vCPU VM.
FLOOR_TABLE_CAP = 1 << 15
# Scaling factors kept at once; the oldest table is dropped beyond this.
TABLE_COUNT_CAP = 64


class _FloorTable:
    """floor(gamma^t) for t = 0, 1, ..., extended on demand."""

    def __init__(self, gamma: Fraction):
        if gamma <= 1:
            raise ValueError("scaling factor must exceed 1")
        self.gamma = gamma
        self.floors = [1]
        # (r, q^t) for the last t in floors: gamma^t = floors[t] + r / q^t
        self.rest = (0, 1)

    def reach(self, upto: int) -> list[int]:
        """The floors, extended until the last one is at least upto.

        With gamma^t = f + r / q^t and p * f = a * q + b, gamma^(t+1) =
        a + (b * q^t + p * r) / q^(t+1), the last term below 1 + p / q: a
        step multiplies by small integers, never divides two powers.
        """
        floors = self.floors
        p, q = self.gamma.numerator, self.gamma.denominator
        while floors[-1] < upto:
            if len(floors) >= FLOOR_TABLE_CAP:
                raise CapExceededError(
                    f"discretizing a {upto.bit_length()}-bit value at gamma {self.gamma} "
                    f"needs more than {FLOOR_TABLE_CAP} exponents"
                )
            r, scale = self.rest
            f, b = divmod(p * floors[-1], q)
            r = b * scale + p * r
            scale *= q
            while r >= scale:
                r -= scale
                f += 1
            floors.append(f)
            self.rest = (r, scale)
        return floors

    def is_integer(self, t: int) -> bool:
        """Whether gamma^t equals its floor: t = 0, or gamma is an integer."""
        return t == 0 or self.gamma.denominator == 1

    def round_down_exponent(self, x: int) -> int:
        """Largest t with gamma^t <= x, for an integer x >= 1."""
        floors = self.reach(x)
        t = bisect_left(floors, x)
        return t if floors[t] == x and self.is_integer(t) else t - 1

    def sum_at_most(self, t_up: int, t_down, bound: int) -> bool:
        """gamma^t_up + gamma^t_down <= bound, the second term absent when None.

        Each term lies in [floor, floor + 1), and equals its floor only when
        it is an integer.  The floors decide unless the two fractional parts
        could sum to either side of 1; then one big-integer comparison does.
        """
        terms = (t_up,) if t_down is None else (t_up, t_down)
        low = sum(self.floors[t] for t in terms)
        fractional = sum(not self.is_integer(t) for t in terms)
        if low + fractional <= bound:
            return True
        if low >= bound:
            return False
        p, q = self.gamma.numerator, self.gamma.denominator
        top = max(terms)
        return sum(p**t * q ** (top - t) for t in terms) <= bound * q**top


_tables: dict[Fraction, _FloorTable] = {}


def _table(gamma) -> _FloorTable:
    table = _tables.get(gamma)
    if table is None:
        while len(_tables) >= TABLE_COUNT_CAP:
            del _tables[next(iter(_tables))]
        table = _tables[gamma] = _FloorTable(Fraction(gamma))
    return table


def gamma_for_dimension(d: int) -> Fraction:
    """The scaling factor 1 + 1/(10 d), exactly."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return Fraction(10 * d + 1, 10 * d)


def _grid_point(x, gamma: Fraction, exponent) -> Fraction:
    """0 at 0, else gamma ** exponent(table, x) for the table of gamma."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("negative values cannot be discretized")
    if x == 0:
        return Fraction(0)
    table = _table(gamma)
    return table.gamma ** exponent(table, x)


def varpi_up(x: int, gamma: Fraction) -> Fraction:
    """0 at 0, else the smallest gamma power at or above x."""
    return _grid_point(x, gamma, lambda table, x: bisect_left(table.reach(x), x))


def varpi_down(x: int, gamma: Fraction) -> Fraction:
    """0 at 0, else the largest gamma power at or below x."""
    return _grid_point(x, gamma, _FloorTable.round_down_exponent)


def _coordinate_key(table: _FloorTable, x, b: int) -> CoordKey:
    """The branch key of cost x against budget coordinate b."""
    x = operator.index(x)
    if not 0 <= x <= b:
        raise ValueError(f"cost {x} outside the budget range [0, {b}]")
    if x == 0:
        return (ZERO,)
    t_up = bisect_left(table.reach(b), x)
    t_down = None if x == b else table.round_down_exponent(b - x)
    if table.sum_at_most(t_up, t_down, b):
        return (UP, t_up)
    return (COMP_DOWN, t_down)


def _key_value(key: CoordKey, b: int, gamma: Fraction) -> Fraction:
    """The exact discretized coordinate that key stands for against budget b."""
    if key[0] == ZERO:
        return Fraction(0)
    if key[0] == UP:
        return gamma ** key[1]
    if key[1] is None:
        return Fraction(b)
    return b - gamma ** key[1]


def digamma(cost_vector, budget, gamma: Fraction) -> tuple[Fraction, ...]:
    """Discretize one cost vector against its budget, coordinate by coordinate."""
    if len(cost_vector) != len(budget):
        raise ValueError("cost vector and budget must have equal length")
    table = _table(gamma)
    budget = tuple(map(operator.index, budget))
    keys = map(_coordinate_key, repeat(table), cost_vector, budget)
    return tuple(map(_key_value, keys, budget, repeat(table.gamma)))


def prune_by_discretization(items, budget, gamma: Fraction) -> list[int]:
    """Keep one maximum-profit item per full discretization key.

    items is a sequence of (index, profit, cost_vector) triples whose
    costs already fit the budget; profit ties keep the smaller index.
    Returns the surviving indices in ascending order.  Packed costs
    repeat across items, so each distinct (cost, budget) coordinate is
    keyed once per call.
    """
    if not items:
        return []
    table = _table(gamma)
    budget = tuple(map(operator.index, budget))
    seen: dict[tuple[int, int], CoordKey] = {}
    best: dict[tuple[CoordKey, ...], tuple[int, int]] = {}
    for index, item_profit, cost in items:
        if len(cost) != len(budget):
            raise ValueError("cost vector and budget must have equal length")
        key = []
        for x, b in zip(cost, budget):
            x = operator.index(x)
            coord = seen.get((x, b))
            if coord is None:
                coord = seen[x, b] = _coordinate_key(table, x, b)
            key.append(coord)
        key = tuple(key)
        incumbent = best.get(key)
        if incumbent is None or (item_profit, -index) > (incumbent[0], -incumbent[1]):
            best[key] = (item_profit, index)
    return sorted(index for _, index in best.values())
