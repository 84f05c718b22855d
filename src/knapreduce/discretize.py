"""Exact geometric discretization of costs and their budget complements.

All rounding is done on the exact rational grid 1, g, g^2, ... for
g = 1 + 1/(10 d).  Exponents are searched in integers only: for g = p/q a
table holds the floors of g^t, and costs and budgets are integers, so
g^t >= x exactly when floor(g^t) >= x.  The table steps an integer bracket
of g^t in fixed point, and seeds it again exactly from p^t and q^t
whenever it cannot settle a floor, so every floor equals p^t // q^t.
Each entry also keeps a 64-bit lower bound on the fractional part of g^t,
which settles most sums of two powers that land next to a budget; an
exact comparison of p and q powers settles the rest.  A binary search
over the floors finds every exponent; no floating-point logarithm is
taken, so boundary values bucket deterministically.

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
from array import array
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
# floors no wider than its largest budget, a 64-bit fraction bound each
# and one bracket of about twice the last floor's width plus 64 bits; a
# step costs time linear in the bracket's width, not in the exponent.
# Filled to the cap in a fresh interpreter (2-vCPU x86-64 VM, CPython
# 3.11), a table took 0.018 s and 1.4 MB of peak RSS above the import
# at d = 40, 0.024 s and 1.8 MB at d = 14, and 0.18 s and 10.7 MB at
# d = 1, whose floors reach 4,506 bits.  The worst case across
# TABLE_COUNT_CAP tables, one full table for each d = 1..64, sums to 121 MB.
FLOOR_TABLE_CAP = 1 << 15
# Scaling factors kept at once; the oldest table is dropped beyond this.
TABLE_COUNT_CAP = 64
# Fractional bits of each table's fraction bounds.
FRACTION_BITS = 64
_ONE = 1 << FRACTION_BITS
_FRACTION_MASK = _ONE - 1


class _FloorTable:
    """floor(gamma^t) for t = 0, 1, ..., extended on demand, for gamma = p/q,
    with a lower bound on each fractional part."""

    def __init__(self, gamma: Fraction):
        if gamma <= 1:
            raise ValueError("scaling factor must exceed 1")
        self.gamma = gamma
        p, q = self.p, self.q = gamma.numerator, gamma.denominator
        self.floors = [1]
        # frac(gamma^t) * 2^FRACTION_BITS lies in [fracs[t], fracs[t] + 2)
        self.fracs = array("Q", [0])
        # low <= gamma^t * 2^(FRACTION_BITS + shift) <= high for the last t in
        # floors; see reach for the shift
        self.shift = 0
        self.bracket = (_ONE, _ONE)
        # bits of (p + q) / (p - q) * gamma, the bracket's width over upto
        self._spread_bits = ((p + q) // (p - q)).bit_length() + (p // q).bit_length()

    def _seed(self, t: int) -> tuple[int, int]:
        """The tightest bracket of gamma^t at the current shift, exactly."""
        low, rest = divmod(self.p**t << (FRACTION_BITS + self.shift), self.q**t)
        return low, low + (rest != 0)

    def reach(self, upto: int) -> list[int]:
        """The floors, extended until the last one is at least upto.

        A step maps the bracket [low, high] of gamma^t to [low * p // q,
        high * p // q + 1], which costs O(bits(upto) + FRACTION_BITS) and
        forms no power.  A step multiplies the width by gamma and adds at
        most 2, so from an exact seed the width stays below (p + q) / (p - q)
        * gamma^t < (p + q) / (p - q) * gamma * upto, and the shift is sized
        to keep that below 2^shift.  Shifted right by the shift, low and high
        are then fixed-point values at most 1 apart; when they are, and their
        integer parts agree, the lower one gives the floor and the fraction
        bound.  When they are not, or a larger upto needs a larger shift, the
        bracket is seeded again from p^t and q^t, so every floor equals
        p^t // q^t by construction.
        """
        floors = self.floors
        f = floors[-1]
        if f >= upto:
            return floors
        p, q, mask = self.p, self.q, _FRACTION_MASK
        shift = upto.bit_length() + self._spread_bits
        if shift > self.shift:
            self.shift = shift
            self.bracket = self._seed(len(floors) - 1)
        shift = self.shift
        low, high = self.bracket
        append_floor, append_frac = floors.append, self.fracs.append
        for t in range(len(floors), FLOOR_TABLE_CAP):
            low = low * p // q
            high = high * p // q + 1
            a = low >> shift
            c = high >> shift
            if c != a and (c != a + 1 or a & mask == mask):
                low, high = self._seed(t)
                a = low >> shift
            f = a >> FRACTION_BITS
            append_floor(f)
            append_frac(a & mask)
            if f >= upto:
                break
        self.bracket = low, high
        if f < upto:
            raise CapExceededError(
                f"discretizing a {upto.bit_length()}-bit value at gamma {self.gamma} "
                f"needs more than {FLOOR_TABLE_CAP} exponents"
            )
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
        floors decide unless both terms are fractional and their floors sum
        to bound - 1; then the fraction bounds decide unless the fractional
        parts could sum to either side of 1, and one big-integer comparison
        does.
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
        # each bound lies less than 2 units below its fractional part
        fracs = self.fracs
        lower = fracs[t_up] + fracs[t_down]
        if lower + 4 <= _ONE:
            return True
        if lower > _ONE:
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
