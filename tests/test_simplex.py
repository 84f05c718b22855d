import random
from fractions import Fraction
from math import lcm

import pytest

from knapreduce import simplex
from knapreduce.errors import CapExceededError
from knapreduce.generators import gen_vk, gen_vk_2bounded
from knapreduce.knapsack import VkInstance, solve_bruteforce
from knapreduce.simplex import knapsack_relaxation


def relaxation_vertex_oracle(profits, costs, budget):
    """Independent check for one-constraint programs with box bounds: the
    optimum sits at a vertex where all but at most one variable is 0/1 and
    the slack variable or one structural is fractional.  Enumerate all
    0/1 patterns plus one fractional coordinate."""
    n = len(profits)
    b = budget[0]
    best = Fraction(0)
    for fractional in range(-1, n):
        fixed = [i for i in range(n) if i != fractional]
        for pattern in range(1 << len(fixed)):
            x = [Fraction(0)] * n
            for pos, i in enumerate(fixed):
                x[i] = Fraction((pattern >> pos) & 1)
            used = sum(costs[i][0] * x[i] for i in range(n))
            if used > b:
                continue
            if fractional >= 0 and costs[fractional][0] > 0:
                x[fractional] = min(Fraction(1), Fraction(b - used, costs[fractional][0]))
            elif fractional >= 0:
                x[fractional] = Fraction(1)
            value = sum(profits[i] * x[i] for i in range(n))
            best = max(best, value)
    return best


def reference_relaxation(profits, costs, budget):
    """Textbook tableau over Fractions for the knapsack LP with its n rows
    x_k <= 1 written out (no implicit bounds): each pivot divides the pivot
    row by the pivot and eliminates the entering column elsewhere (zeros
    are skipped, for speed only).  The code's entering rule: the largest
    reduced cost, ties to the smaller implicit column (x_k and its box
    slack 1 - x_k are column k, budget slack i is column n + i), until the
    first pivot of ratio 0, then Bland's rule (the first positive reduced
    cost).  The leaving row has the least ratio, ties to the smaller basic
    variable.  Returns ((value, point), degenerate pivot count)."""
    n, d = len(profits), len(budget)
    rows = [[c[j] for c in costs] for j in range(d)]
    rows += [[int(i == k) for i in range(n)] for k in range(n)]
    rhs = [*budget, *[1] * n]
    m = d + n
    tableau = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(b)]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    cost = [Fraction(x) for x in profits] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    column = [*range(n + d), *range(n)]
    bland = False
    degenerate = 0
    while True:
        improving = [j for j in range(n + m) if cost[j] > 0]
        if not improving:
            break
        if bland:
            entering = improving[0]
        else:
            entering = max(improving, key=lambda j: (cost[j], -column[j]))
        ratio, _, r = min(
            (tableau[i][-1] / tableau[i][entering], basis[i], i)
            for i in range(m)
            if tableau[i][entering] > 0
        )
        if ratio == 0:
            degenerate += 1
            bland = True
        pivot = tableau[r][entering]
        tableau[r] = [x / pivot for x in tableau[r]]
        for i in range(m):
            f = tableau[i][entering]
            if i != r and f:
                tableau[i] = [x - f * y if y else x for x, y in zip(tableau[i], tableau[r])]
        f = cost[entering]
        cost = [x - f * y for x, y in zip(cost, tableau[r])]
        basis[r] = entering
    point = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            point[var] = tableau[i][-1]
    value = sum(Fraction(c) * x for c, x in zip(profits, point))
    return (value, tuple(point)), degenerate


def workload_shaped(count, seed):
    """2-bounded instances of the shapes of the approx benchmark's LP ops."""
    rng = random.Random(seed)
    return [
        gen_vk_2bounded(rng.randint(15, 25), rng.randint(3, 4), 1000, 100, rng)
        for _ in range(count)
    ]


def counting(monkeypatch, name):
    """Wrap simplex.<name> so that each call is counted; returns the count."""
    calls = [0]
    inner = getattr(simplex, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(simplex, name, wrapper)
    return calls


class TestRelaxation:
    def test_empty_instance(self):
        value, x = knapsack_relaxation((), (), (4,))
        assert value == 0 and isinstance(value, Fraction) and x == ()

    def test_single_item_within_budget(self):
        value, x = knapsack_relaxation((4,), ((2,),), (5,))
        assert value == 4
        assert x == (1,)

    def test_two_item_example_against_vertex_oracle(self):
        profits, costs, budget = (3, 4), ((2,), (3,)), (4,)
        value, x = knapsack_relaxation(profits, costs, budget)
        assert value == relaxation_vertex_oracle(profits, costs, budget) == Fraction(17, 3)
        assert value >= solve_bruteforce(VkInstance(profits, costs, budget))[0]
        assert all(0 <= xi <= 1 for xi in x)

    def test_single_constraint_matches_vertex_oracle(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 5)
            profits = tuple(rng.randint(0, 9) for _ in range(n))
            costs = tuple((rng.randint(0, 6),) for _ in range(n))
            budget = (rng.randint(1, 10),)
            value, x = knapsack_relaxation(profits, costs, budget)
            assert value == relaxation_vertex_oracle(profits, costs, budget)
            assert all(0 <= xi <= 1 for xi in x)
            used = sum(costs[i][0] * x[i] for i in range(n))
            assert used <= budget[0]

    def test_dominates_integer_optimum(self):
        for i in range(30):
            rng = random.Random(2500 + i)
            inst = gen_vk(rng.randint(1, 8), rng.randint(1, 3), 12, 9, rng)
            value, x = knapsack_relaxation(inst.profits, inst.costs, inst.budget)
            opt, _ = solve_bruteforce(inst)
            assert value >= opt
            assert value <= sum(inst.profits)
            for j in range(inst.dimension):
                assert sum(inst.costs[i][j] * x[i] for i in range(inst.item_count)) <= inst.budget[j]

    def test_matches_fraction_tableau_reference(self):
        # small budgets and zero profits make ties and degenerate pivots common
        degenerate = 0
        for i in range(1200):
            rng = random.Random(4100 + i)
            maker = gen_vk if i % 2 == 0 else gen_vk_2bounded
            max_budget = rng.choice((2, 3, 5, 8, 8, 40))
            max_profit = rng.choice((0, 1, 3, 9))
            inst = maker(rng.randint(1, 8), rng.randint(1, 3), max_budget, max_profit, rng)
            expected, degenerate_pivots = reference_relaxation(inst.profits, inst.costs, inst.budget)
            value, x = knapsack_relaxation(inst.profits, inst.costs, inst.budget)
            # an optimal vertex of the box-bounded program ...
            assert value == expected[0], i
            assert all(0 <= xi <= 1 for xi in x), i
            for j in range(inst.dimension):
                assert sum(c[j] * xi for c, xi in zip(inst.costs, x)) <= inst.budget[j], i
            assert sum(p * xi for p, xi in zip(inst.profits, x)) == expected[0], i
            assert sum(xi.denominator > 1 for xi in x) <= inst.dimension, i
            # ... and, the rule and Bland's indices being those of the explicit
            # rows, the same one
            assert x == expected[1], i
            degenerate += degenerate_pivots
        assert degenerate >= 50

    def test_same_point_as_reference_on_workload_shapes(self, monkeypatch):
        runs = counting(monkeypatch, "_vertex")
        for k, inst in enumerate(workload_shaped(200, 4700)):
            expected, _ = reference_relaxation(inst.profits, inst.costs, inst.budget)
            assert knapsack_relaxation(inst.profits, inst.costs, inst.budget) == expected, k
        # one simplex run per program
        assert runs[0] == 200, runs

    def test_tied_optima_match_reference(self):
        # repeated columns and zero profits leave many optimal points; the
        # one returned is the one the reference's rule reaches
        rng = random.Random(61)
        for k in range(150):
            d = rng.randint(1, 3)
            kinds = [(rng.choice((0, 0, 1, 4)), tuple(rng.randint(0, 3) for _ in range(d)))
                     for _ in range(rng.randint(1, 3))]
            items = [rng.choice(kinds) for _ in range(rng.randint(2, 8))]
            profits = tuple(p for p, _ in items)
            costs = tuple(c for _, c in items)
            budget = tuple(rng.randint(0, 6) for _ in range(d))
            expected, _ = reference_relaxation(profits, costs, budget)
            assert knapsack_relaxation(profits, costs, budget) == expected, k

    def test_tied_optimum_is_the_single_runs_vertex(self):
        # items 1 and 3 both earn 1/2 per unit of cost, so the optimum 9/2 is
        # tied.  Dantzig's rule, then Bland's, ends at (1, 0, 0, 1/2); a run
        # by Bland's rule alone would end at (1, 1, 0, 1/6).
        value, x = knapsack_relaxation((3, 1, 0, 3), ((5,), (2,), (5,), (6,)), (8,))
        assert (value, x) == (Fraction(9, 2), (1, 0, 0, Fraction(1, 2)))

    def test_bound_flips_and_upper_leaves_occur(self, monkeypatch):
        flips = counting(monkeypatch, "_complement_column")
        upper_leaves = counting(monkeypatch, "_complement_row")
        for inst in workload_shaped(40, 4900):
            knapsack_relaxation(inst.profits, inst.costs, inst.budget)
        assert flips[0] >= 139 and upper_leaves[0] >= 90, (flips, upper_leaves)

    def test_value_and_point_are_exact_at_a_vertex(self):
        # the value is the point's objective, and every entry but at most d
        # (the basic structurals) sits exactly at a bound
        rng = random.Random(71)
        # per family, the programs with a fractional entry
        families = {"n=0": 0, "d=0": 0, "all fit": 0, "ties": 0, "random": 0}
        for k in range(600):
            family = list(families)[k % len(families)]
            n = 0 if family == "n=0" else rng.randint(1, 9)
            d = 0 if family == "d=0" else rng.randint(1, 4)
            if family == "ties":
                kinds = [(rng.choice((0, 0, 1, 4)), tuple(rng.randint(0, 3) for _ in range(d)))
                         for _ in range(rng.randint(1, 3))]
                profits, costs = map(tuple, zip(*(rng.choice(kinds) for _ in range(n))))
            else:
                profits = tuple(rng.randint(0, 9) for _ in range(n))
                costs = tuple(tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(n))
            if family == "all fit":
                budget = tuple(sum(c[j] for c in costs) for j in range(d))
            else:
                budget = tuple(rng.randint(0, 12) for _ in range(d))
            value, x = knapsack_relaxation(profits, costs, budget)
            assert isinstance(value, Fraction) and all(isinstance(xi, Fraction) for xi in x), k
            assert value == sum((Fraction(p) * xi for p, xi in zip(profits, x)), Fraction(0)), k
            assert len(x) == n and sum(xi not in (0, 1) for xi in x) <= d, k
            if family == "n=0":
                assert (value, x) == (0, ()), k
            if family in ("d=0", "all fit"):
                # nothing binds, so every item of positive profit is taken whole
                assert all(xi == 1 for p, xi in zip(profits, x) if p > 0), k
            families[family] += any(xi not in (0, 1) for xi in x)
        # fractional entries are common where budgets bind, and absent elsewhere
        assert families["ties"] >= 10 and families["random"] >= 40, families
        assert families["n=0"] == families["d=0"] == families["all fit"] == 0, families

    def test_variable_cap(self, monkeypatch):
        n = simplex.VARIABLE_CAP + 1
        with pytest.raises(CapExceededError, match=f"{n} variables"):
            knapsack_relaxation((1,) * n, ((1,),) * n, (5,))
        monkeypatch.setattr(simplex, "VARIABLE_CAP", 5)
        assert knapsack_relaxation((1,) * 5, ((1,),) * 5, (5,))[0] == 5
        with pytest.raises(CapExceededError, match="6 variables"):
            knapsack_relaxation((1,) * 6, ((1,),) * 6, (5,))


def integer_program(objective, rows, rhs):
    """The rational program max objective . x, rows x <= rhs as knapsack
    integers: each row [A_j | b_j] times the lcm of its denominators, and
    the objective times its own, which is returned as the scale.  Positive
    factors change no sign and no ratio, so the value and the feasible points
    are unchanged.  Row scaling rescales slack reduced costs, which can change
    Dantzig's entering choice, so the point is compared with the reference
    on this scaled program, the one the code solves."""

    def scaled(values):
        factor = lcm(*(Fraction(v).denominator for v in values))
        return [int(v * factor) for v in values], factor

    profits, scale = scaled(objective)
    integer_rows = [scaled([*row, b])[0] for row, b in zip(rows, rhs)]
    costs = tuple(zip(*(row[:-1] for row in integer_rows)))
    budget = tuple(row[-1] for row in integer_rows)
    return profits, costs, budget, scale


def refusal(*program):
    """The one-line ValueError message of knapsack_relaxation on program."""
    with pytest.raises(ValueError) as caught:
        knapsack_relaxation(*program)
    message = str(caught.value)
    assert "\n" not in message
    return message


class TestSimplexCore:
    def test_degenerate_program_terminates(self):
        # multiple tight rows at the origin exercise the anti-cycling rule
        value, x = knapsack_relaxation((1, 1), ((1, 1, 0, 1), (0, 0, 1, 1)), (0, 0, 1, 1))
        assert value == 1
        assert x == (0, 1)

    def test_rejects_negative_rhs(self):
        assert refusal((1,), ((1,),), (-1,)) == "budgets must be nonnegative"

    def test_rejects_negative_costs(self):
        # the knapsack shape rule: costs are nonnegative, as in VkInstance
        assert refusal((1, 1), ((1,), (-1,)), (1,)) == "cost vector of item 1 has a negative coordinate"

    def test_rejects_ragged_rows(self):
        # the row [1] under a two-term objective, transposed: item 1 has no cost
        assert refusal((1, 2), ((1,), ()), (1,)) == "cost vector of item 1 has length 0, expected 1"

    def test_rejects_cost_rows_of_the_wrong_length(self):
        # the 5 has no budget to be charged against
        assert refusal((1,), ((1, 5),), (2,)) == "cost vector of item 0 has length 2, expected 1"
        assert refusal((1,), ((),), (2,)) == "cost vector of item 0 has length 0, expected 1"

    @pytest.mark.parametrize("program", [
        ((1, 2), ((1,),), (1,)),
        ((1,), ((1,), (1,)), (1,)),
        ((), ((1,),), (1,)),
    ])
    def test_rejects_a_cost_row_count_unlike_the_profits(self, program):
        assert refusal(*program) == "profits and costs must have one entry per item"

    @pytest.mark.parametrize("program", [
        ((1.0,), ((1,),), (1,)),
        ((Fraction(1, 2),), ((1,),), (1,)),
        ((1,), ((0.5,),), (1,)),
        ((1,), ((Fraction(2),),), (1,)),
        ((1,), ((1,),), (1.0,)),
        ((1,), ((1,),), ("1",)),
    ])
    def test_rejects_non_integer_entries(self, program):
        assert refusal(*program) == "profits, costs and budgets must be integers"

    def test_accepts_what_vk_instance_accepts_and_negative_profits(self):
        inst = VkInstance((True, 3), ((2, False), (1, 1)), (3, 1))
        assert knapsack_relaxation(inst.profits, inst.costs, inst.budget) == (4, (1, 1))
        assert knapsack_relaxation((-1, 2), ((1,), (1,)), (1,)) == (2, (0, 1))

    def test_exactness_no_floats(self):
        value, x = knapsack_relaxation((7, 9), ((13, 19), (17, 23)), (29, 31))
        assert isinstance(value, Fraction)
        assert all(isinstance(v, Fraction) for v in x)
        # both constraints hold exactly
        assert 13 * x[0] + 17 * x[1] <= 29
        assert 19 * x[0] + 23 * x[1] <= 31

    def test_rational_coefficients(self):
        objective = [Fraction(1, 2), Fraction(2, 3), 1]
        rows = [
            [Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)],
            [1, Fraction(5, 7), 0],
            [0, Fraction(3, 2), Fraction(9, 4)],
        ]
        rhs = [Fraction(1, 2), 2, Fraction(7, 5)]
        profits, costs, budget, scale = integer_program(objective, rows, rhs)
        value, x = knapsack_relaxation(profits, costs, budget)
        assert (value, x) == reference_relaxation(profits, costs, budget)[0]
        value /= scale
        assert value == Fraction(101, 90)
        assert all(0 <= xi <= 1 for xi in x)
        for row, b in zip(rows, rhs):
            assert sum(a * xi for a, xi in zip(row, x)) <= b

    def test_rational_programs_match_reference(self):
        rng = random.Random(88)
        for _ in range(100):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            objective = [Fraction(rng.randint(-2, 6), rng.randint(1, 5)) for _ in range(n)]
            rows = [[Fraction(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(m)]
            rhs = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m)]
            program = integer_program(objective, rows, rhs)[:3]
            assert knapsack_relaxation(*program) == reference_relaxation(*program)[0]
