import functools
import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from knapreduce import discretize
from knapreduce.discretize import (
    COMP_DOWN,
    UP,
    ZERO,
    digamma,
    gamma_for_dimension,
    prune_by_discretization,
    varpi_down,
    varpi_up,
)
from knapreduce.errors import CapExceededError
from knapreduce.generators import gen_rcsp_planted
from knapreduce.reductions import rcsp_to_vk_embed


class FractionReference:
    """Keys and values computed directly over exact rational powers."""

    def __init__(self, gamma):
        self.gamma = gamma
        self.power = functools.cache(lambda t: gamma ** t)

    def exponent(self, x):
        """Smallest t >= 0 with gamma^t >= x, by bisection over the powers."""
        hi = 1
        while self.power(hi) < x:
            hi *= 2
        return bisect_left(range(hi + 1), x, key=self.power)

    def digamma(self, cost_vector, budget):
        keys, values = [], []
        for x, b in zip(cost_vector, budget):
            if x == 0:
                keys.append((ZERO,))
                values.append(Fraction(0))
                continue
            t_up = self.exponent(x)
            up = self.power(t_up)
            if x == b:
                t_down, comp = None, Fraction(b)
            else:
                t = self.exponent(b - x)
                t_down = t if self.power(t) == b - x else t - 1
                comp = b - self.power(t_down)
            if up <= comp:
                keys.append((UP, t_up))
                values.append(up)
            else:
                keys.append((COMP_DOWN, t_down))
                values.append(comp)
        return tuple(keys), tuple(values)


def coordinate_keys(cost_vector, budget, gamma):
    """The private per-coordinate keys that pruning compares."""
    table = discretize._table(gamma)
    return tuple(discretize._coordinate_key(table, x, b) for x, b in zip(cost_vector, budget))


def running_pair(table):
    """(p^t, q^t) for the last t in the floors, from floors[-1] and the carried rest."""
    r, scale = table.rest
    return table.floors[-1] * scale + r, scale


def reference_prune(items, budget, gamma):
    """One maximum-profit item per FractionReference key, ties to the smaller index."""
    reference = FractionReference(gamma)
    groups = {}
    for index, item_profit, cost in items:
        keys, _ = reference.digamma(cost, budget)
        groups.setdefault(keys, []).append((item_profit, -index))
    return sorted(-max(group)[1] for group in groups.values())


def packed_target():
    """A 20-item digit-packed target: d = 14, budgets of 12 to 91 bits."""
    rng = random.Random(1)
    pi, _ = gen_rcsp_planted(10, 2, 2, rng, regular3=True)
    inst, _ = rcsp_to_vk_embed(pi, 4)
    return inst


def test_gamma_values():
    assert gamma_for_dimension(1) == Fraction(11, 10)
    assert gamma_for_dimension(4) == Fraction(41, 40)
    with pytest.raises(ValueError):
        gamma_for_dimension(0)


class TestRounding:
    def test_zero_maps_to_zero(self):
        gamma = gamma_for_dimension(2)
        assert varpi_up(0, gamma) == 0
        assert varpi_down(0, gamma) == 0

    def test_one_is_a_grid_point(self):
        gamma = gamma_for_dimension(3)
        assert varpi_up(1, gamma) == 1
        assert varpi_down(1, gamma) == 1

    def test_round_up_of_two_at_dimension_one(self):
        # (11/10)^7 < 2 <= (11/10)^8, checked by exact powers
        gamma = Fraction(11, 10)
        assert gamma ** 7 < 2 <= gamma ** 8
        assert varpi_up(2, gamma) == gamma ** 8
        assert varpi_down(2, gamma) == gamma ** 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varpi_up(-1, gamma_for_dimension(1))

    def test_sandwich_property(self):
        for d in (1, 2, 5):
            gamma = gamma_for_dimension(d)
            for x in range(1, 120):
                down, up = varpi_down(x, gamma), varpi_up(x, gamma)
                assert down <= x <= up
                assert up < gamma * x
                assert down > x / gamma


class TestAgainstFractionReference:
    def test_every_small_point(self):
        for d in range(1, 6):
            gamma = gamma_for_dimension(d)
            reference = FractionReference(gamma)
            for b in range(61):
                for x in range(b + 1):
                    out = coordinate_keys((x,), (b,), gamma), digamma((x,), (b,), gamma)
                    assert out == reference.digamma((x,), (b,)), (d, b, x)
                    assert all(type(v) is Fraction for v in out[1])

    def test_integer_gamma(self):
        # every power of 2 is an integer, so equality with x is reachable at t > 0
        gamma = Fraction(2)
        assert varpi_up(5, gamma) == 8 and varpi_down(5, gamma) == 4
        assert varpi_up(8, gamma) == varpi_down(8, gamma) == 8
        assert coordinate_keys((4,), (8,), gamma) == ((UP, 2),)
        assert coordinate_keys((5,), (8,), gamma) == ((COMP_DOWN, 1),)
        assert digamma((5,), (8,), gamma) == (6,)
        reference = FractionReference(gamma)
        for b in range(61):
            for x in range(b + 1):
                out = coordinate_keys((x,), (b,), gamma), digamma((x,), (b,), gamma)
                assert out == reference.digamma((x,), (b,)), (b, x)
        assert varpi_up(5, 2) == 8

    def test_packed_target(self):
        inst = packed_target()
        gamma = gamma_for_dimension(inst.dimension)
        assert inst.dimension == 14 and max(inst.budget).bit_length() >= 90
        discretize._tables.pop(gamma, None)
        reference = FractionReference(gamma)
        for cost in inst.costs:
            out = coordinate_keys(cost, inst.budget, gamma), digamma(cost, inst.budget, gamma)
            assert out == reference.digamma(cost, inst.budget)
        # the cache holds small floors plus one exact running pair
        table = discretize._tables[gamma]
        widest = max(inst.budget).bit_length()
        assert all(f.bit_length() <= widest for f in table.floors[:-1])
        assert table.floors[-1] < gamma * max(inst.budget) + 1
        top = len(table.floors) - 1
        assert running_pair(table) == (gamma.numerator ** top, gamma.denominator ** top)

    def test_over_cap_request_is_refused(self, monkeypatch):
        gamma = Fraction(101, 100)
        discretize._tables.pop(gamma, None)
        monkeypatch.setattr(discretize, "FLOOR_TABLE_CAP", 100)
        # 1.01^99 < 3, so rounding 3 up needs more than 100 exponents
        with pytest.raises(CapExceededError):
            varpi_up(3, gamma)
        with pytest.raises(CapExceededError):
            digamma((1,), (3,), gamma)
        table = discretize._tables[gamma]
        assert len(table.floors) == 100
        assert running_pair(table) == (101 ** 99, 100 ** 99)
        assert varpi_up(2, gamma) == gamma ** FractionReference(gamma).exponent(2)
        discretize._tables.pop(gamma)

    def test_long_table_equals_direct_floors(self):
        # the floors come from a carried remainder, not from dividing p^t by q^t
        gamma = gamma_for_dimension(14)
        p, q = gamma.numerator, gamma.denominator
        table = discretize._FloorTable(gamma)
        floors = table.reach(p**5000 // q**5000)
        assert len(floors) > 4096
        top = len(floors) - 1
        for t in [*range(50), *range(50, top, 97), top]:
            assert floors[t] == p**t // q**t, t
        assert running_pair(table) == (p**top, q**top)

    def test_table_count_is_bounded(self, monkeypatch):
        monkeypatch.setattr(discretize, "TABLE_COUNT_CAP", 3)
        gammas = [Fraction(k + 1, k) for k in range(991, 996)]
        for gamma in gammas:
            assert varpi_up(2, gamma) == gamma ** FractionReference(gamma).exponent(2)
        assert list(discretize._tables) == gammas[-3:]


class TestDigamma:
    def test_zero_vector(self):
        gamma = gamma_for_dimension(2)
        assert coordinate_keys((0, 0), (5, 9), gamma) == ((ZERO,), (ZERO,))
        assert digamma((0, 0), (5, 9), gamma) == (0, 0)

    def test_full_budget_uses_complement_branch(self):
        gamma = gamma_for_dimension(1)
        key = coordinate_keys((7,), (7,), gamma)[0]
        assert key[0] == COMP_DOWN
        assert key[1] is None
        assert digamma((7,), (7,), gamma)[0] == 7

    def test_tie_prefers_round_up(self):
        # x = 1, budget 2: round-up gives 1, complement gives 2 - 1 = 1
        gamma = gamma_for_dimension(1)
        assert coordinate_keys((1,), (2,), gamma)[0] == (UP, 0)
        assert digamma((1,), (2,), gamma)[0] == 1

    def test_identical_vectors_share_keys(self):
        gamma = gamma_for_dimension(3)
        a = coordinate_keys((4, 9, 0), (10, 20, 5), gamma)
        b = coordinate_keys((4, 9, 0), (10, 20, 5), gamma)
        assert a == b

    def test_cost_above_budget_rejected(self):
        with pytest.raises(ValueError):
            digamma((3,), (2,), gamma_for_dimension(1))

    def test_both_upper_bounds(self):
        for d in (1, 3):
            gamma = gamma_for_dimension(d)
            for b in (1, 7, 40):
                for x in range(b + 1):
                    value = digamma((x,), (b,), gamma)[0]
                    assert value <= gamma * x
                    assert value <= b - Fraction(b - x, 1) / gamma

    def test_key_determines_value(self):
        # same key on the same budget coordinate means the same exact value
        gamma = gamma_for_dimension(2)
        b = 30
        by_key = {}
        for x in range(b + 1):
            key = coordinate_keys((x,), (b,), gamma)[0]
            by_key.setdefault(key, set()).add(digamma((x,), (b,), gamma)[0])
        assert all(len(values) == 1 for values in by_key.values())


class TestPrune:
    def test_distinct_keys_keep_everything(self):
        gamma = gamma_for_dimension(1)
        items = [(0, 5, (1,)), (1, 2, (9,)), (2, 7, (30,))]
        assert prune_by_discretization(items, (40,), gamma) == [0, 1, 2]

    def test_duplicate_keeps_higher_profit(self):
        gamma = gamma_for_dimension(1)
        items = [(0, 3, (10,)), (1, 5, (10,))]
        assert prune_by_discretization(items, (40,), gamma) == [1]

    def test_equal_profit_keeps_smaller_index(self):
        gamma = gamma_for_dimension(1)
        items = [(0, 5, (10,)), (1, 5, (10,))]
        assert prune_by_discretization(items, (40,), gamma) == [0]

    def test_interchangeability_of_equal_keys(self):
        # equal keys mean equal discretized vectors on random pairs
        rng = random.Random(17)
        gamma = gamma_for_dimension(2)
        budget = (25, 25)
        for _ in range(200):
            x = (rng.randint(0, 25), rng.randint(0, 25))
            y = (rng.randint(0, 25), rng.randint(0, 25))
            if coordinate_keys(x, budget, gamma) == coordinate_keys(y, budget, gamma):
                assert digamma(x, budget, gamma) == digamma(y, budget, gamma)

    def test_matches_per_item_reference_on_packed_targets(self):
        rng = random.Random(5)
        merged = set()
        for chunk_size in (1, 2, 3):
            for _ in range(3):
                pi, _ = gen_rcsp_planted(rng.choice((4, 6)), 2, rng.choice((2, 3)), rng, regular3=True)
                inst, _ = rcsp_to_vk_embed(pi, chunk_size)
                gamma = gamma_for_dimension(inst.dimension)
                fitting = [
                    i for i, cost in enumerate(inst.costs)
                    if all(c <= b for c, b in zip(cost, inst.budget))
                ]
                assert fitting
                for profits in (inst.profits, [rng.randint(1, 3) for _ in inst.profits]):
                    items = [(i, profits[i], inst.costs[i]) for i in fitting]
                    expected = reference_prune(items, inst.budget, gamma)
                    assert prune_by_discretization(items, inst.budget, gamma) == expected
                    if len(expected) < len(items):
                        merged.add(chunk_size)
        # every chunk size has some case where two items share a key
        assert merged == {1, 2, 3}

    def test_same_cost_under_two_budgets(self):
        # cost 10 keys differently against budget 11 and budget 100, so the
        # first item must not share the second item's key
        gamma = gamma_for_dimension(2)
        budget = (11, 100)
        first, second = coordinate_keys((10, 10), budget, gamma), coordinate_keys((10, 99), budget, gamma)
        assert first[0] != first[1] and first[0] == second[0] == second[1]
        items = [(0, 1, (10, 10)), (1, 1, (10, 99))]
        assert prune_by_discretization(items, budget, gamma) == [0, 1]
        assert reference_prune(items, budget, gamma) == [0, 1]

    def test_float_cost_rejected_after_equal_integer(self):
        gamma = gamma_for_dimension(1)
        with pytest.raises(TypeError):
            digamma((2.0,), (5,), gamma)
        with pytest.raises(TypeError):
            prune_by_discretization([(0, 1, (2,)), (1, 1, (2.0,))], (5,), gamma)

    def test_cost_above_budget_rejected_like_digamma(self):
        gamma = gamma_for_dimension(1)
        message = r"^cost 3 outside the budget range \[0, 2\]$"
        with pytest.raises(ValueError, match=message):
            digamma((3,), (2,), gamma)
        with pytest.raises(ValueError, match=message):
            prune_by_discretization([(0, 1, (1,)), (1, 1, (3,))], (2,), gamma)

    def test_wrong_length_rejected_for_every_item(self):
        gamma = gamma_for_dimension(2)
        message = "^cost vector and budget must have equal length$"
        with pytest.raises(ValueError, match=message):
            digamma((1,), (5, 5), gamma)
        with pytest.raises(ValueError, match=message):
            prune_by_discretization([(0, 1, (1, 2)), (1, 1, (1,))], (5, 5), gamma)

    def test_empty_items_make_no_table(self):
        gamma = Fraction(1000, 999)
        discretize._tables.pop(gamma, None)
        assert prune_by_discretization([], (5,), gamma) == []
        assert gamma not in discretize._tables
