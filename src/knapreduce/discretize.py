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
power.  digamma turns each key into its value; one call may sweep many
(cost, budget) points, and it finds each distinct exponent and power once
per call.  It forms gamma^t as a Fraction power, which pairs p^t with q^t
and, since gcd(p, q) = 1, skips the gcd that building a Fraction from two
integers always takes; for the exponents of wide budgets that gcd costs
far more than the power.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction

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
    """floor(gamma^t) for t = 0, 1, ..., extended on demand, for gamma = p/q."""

    def __init__(self, gamma: Fraction):
        if gamma <= 1:
            raise ValueError("scaling factor must exceed 1")
        self.gamma = gamma
        self.p, self.q = gamma.numerator, gamma.denominator
        self.floors = [1]
        # (r, q^t) for the last t in floors: gamma^t = floors[t] + r / q^t
        self.rest = (0, 1)

    def reach(self, upto: int) -> list[int]:
        """The floors, extended until the last one is at least upto.

        With gamma^t = f + r / q^t and p * f = a * q + b, gamma^(t+1) =
        a + (b * q^t + p * r) / q^(t+1), the last term below 1 + p / q: a
        step multiplies by small integers, never divides two powers.
        """
        floors, p, q = self.floors, self.p, self.q
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
        return t == 0 or self.q == 1

    def round_down_exponent(self, x: int) -> int:
        """Largest t with gamma^t <= x, for an integer x >= 1."""
        floors = self.reach(x)
        t = bisect_left(floors, x)
        return t if floors[t] == x and self.is_integer(t) else t - 1

    def sum_at_most(self, t_up: int, t_down, bound: int) -> bool:
        """gamma^t_up + gamma^t_down <= bound, the second term absent when None.

        Each term lies in [floor, floor + 1), and equals its floor only when
        it is an integer, so one term is decided by its floor.  For two, the
        floors decide unless the two fractional parts could sum to either
        side of 1; then one big-integer comparison does.
        """
        floors, p, q = self.floors, self.p, self.q
        low = floors[t_up]
        fractional = not self.is_integer(t_up)
        if t_down is None:
            return low + fractional <= bound
        low += floors[t_down]
        fractional += not self.is_integer(t_down)
        if low + fractional <= bound:
            return True
        if low >= bound:
            return False
        top = max(t_up, t_down)
        return p**t_up * q ** (top - t_up) + p**t_down * q ** (top - t_down) <= bound * q**top


# Keyed by (numerator, denominator) of gamma, so a lookup hashes two ints.
_tables: dict[tuple[int, int], _FloorTable] = {}


def _table(gamma) -> _FloorTable:
    try:
        key = gamma.numerator, gamma.denominator
    except AttributeError:
        raise ValueError(f"scaling factor {gamma!r} is not an int or a Fraction") from None
    table = _tables.get(key)
    if table is None:
        while len(_tables) >= TABLE_COUNT_CAP:
            del _tables[next(iter(_tables))]
        table = _tables[key] = _FloorTable(Fraction(*key))
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


def _coordinate_key(table: _FloorTable, x, b: int, t_ups: dict, t_downs: dict) -> CoordKey:
    """The branch key of cost x against budget coordinate b.

    t_ups keeps the round-up exponent by cost and t_downs the round-down
    exponent by residual, for as long as the caller keeps them.
    """
    x = operator.index(x)
    if not 0 <= x <= b:
        raise ValueError(f"cost {x} outside the budget range [0, {b}]")
    if x == 0:
        return (ZERO,)
    floors = table.reach(b)
    t_up = t_ups.get(x)
    if t_up is None:
        t_up = t_ups[x] = bisect_left(floors, x)
    t_down = None
    if x != b:
        rest = b - x
        t_down = t_downs.get(rest)
        if t_down is None:
            t_down = t_downs[rest] = table.round_down_exponent(rest)
    if table.sum_at_most(t_up, t_down, b):
        return (UP, t_up)
    return (COMP_DOWN, t_down)


def digamma(cost_vector, budget, gamma: Fraction) -> tuple[Fraction, ...]:
    """Discretize one cost vector against its budget, coordinate by coordinate.

    The coordinates may carry different budgets, so one call can sweep many
    (cost, budget) points.  Each takes the branch that _coordinate_key
    decides, and each distinct exponent and power is found once per call:
    the round-up exponent by cost, the round-down exponent by residual and
    gamma^t by t are each kept for the call's lifetime.
    """
    if len(cost_vector) != len(budget):
        raise ValueError("cost vector and budget must have equal length")
    table = _table(gamma)
    budget = list(map(operator.index, budget))
    t_ups, t_downs, powers, values = {}, {}, {}, []
    for x, b in zip(cost_vector, budget):
        key = _coordinate_key(table, x, b, t_ups, t_downs)
        if key[0] == ZERO:
            values.append(Fraction(0))
            continue
        branch, t = key
        if t is None:
            values.append(Fraction(b))
            continue
        power = powers.get(t)
        if power is None:
            power = powers[t] = table.gamma**t
        values.append(power if branch == UP else b - power)
    return tuple(values)


def prune_by_discretization(items, budget, gamma: Fraction) -> list[int]:
    """Keep one maximum-profit item per full discretization key.

    items is a sequence of (index, profit, cost_vector) triples whose
    costs already fit the budget; profit ties keep the smaller index.
    Returns the surviving indices in ascending order.  Packed costs
    repeat across items, so each distinct (cost, budget) coordinate is
    keyed, and each distinct exponent searched, once per call.
    """
    if not items:
        return []
    table = _table(gamma)
    budget = tuple(map(operator.index, budget))
    seen: dict[tuple[int, int], CoordKey] = {}
    t_ups, t_downs = {}, {}
    best: dict[tuple[CoordKey, ...], tuple[int, int]] = {}
    for index, item_profit, cost in items:
        if len(cost) != len(budget):
            raise ValueError("cost vector and budget must have equal length")
        key = []
        for x, b in zip(cost, budget):
            x = operator.index(x)
            coord = seen.get((x, b))
            if coord is None:
                coord = seen[x, b] = _coordinate_key(table, x, b, t_ups, t_downs)
            key.append(coord)
        key = tuple(key)
        incumbent = best.get(key)
        if incumbent is None or (item_profit, -index) > (incumbent[0], -incumbent[1]):
            best[key] = (item_profit, index)
    return sorted(index for _, index in best.values())
