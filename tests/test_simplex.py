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


def reference_simplex(objective, rows, rhs):
    """Textbook Bland's-rule tableau over Fractions with every row written
    out (no implicit bounds): each pivot divides the pivot row by the pivot
    and eliminates the entering column elsewhere (zeros are skipped, for
    speed only).  Returns ((value, point), degenerate pivot count)."""
    n, m = len(objective), len(rows)
    tableau = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(b)]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    cost = [Fraction(x) for x in objective] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    degenerate = 0
    while True:
        entering = next((j for j in range(n + m) if cost[j] > 0), None)
        if entering is None:
            break
        ratio, _, r = min(
            (tableau[i][-1] / tableau[i][entering], basis[i], i)
            for i in range(m)
            if tableau[i][entering] > 0
        )
        degenerate += ratio == 0
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
    value = sum(Fraction(c) * x for c, x in zip(objective, point))
    return (value, tuple(point)), degenerate


def reference_box(objective, rows, rhs):
    """The reference on the same program with its n rows x_k <= 1 appended."""
    n = len(objective)
    box = [[int(i == k) for i in range(n)] for k in range(n)]
    return reference_simplex(objective, [*rows, *box], [*rhs, *[1] * n])


def reference_relaxation(profits, costs, budget):
    n = len(profits)
    rows = [[costs[i][j] for i in range(n)] for j in range(len(budget))]
    return reference_box(list(profits), rows, list(budget))


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

    def test_matches_fraction_tableau_reference(self, monkeypatch):
        # small budgets and zero profits make ties and degenerate pivots common
        runs = counting(monkeypatch, "_vertex")
        degenerate = 0
        for i in range(600):
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
            # ... and, Bland's indices being those of the explicit rows, the same one
            assert x == expected[1], i
            degenerate += degenerate_pivots
        assert degenerate >= 50
        # tied optima are common here, and each one is solved again by Bland's rule
        assert runs[0] - 600 >= 300, runs

    def test_same_point_as_reference_on_workload_shapes(self, monkeypatch):
        runs = counting(monkeypatch, "_vertex")
        for k, inst in enumerate(workload_shaped(200, 4700)):
            expected, _ = reference_relaxation(inst.profits, inst.costs, inst.budget)
            assert knapsack_relaxation(inst.profits, inst.costs, inst.budget) == expected, k
        # every optimum is certified unique: no rerun by Bland's rule
        assert runs[0] == 200, runs

    def test_tied_optima_match_reference(self, monkeypatch):
        # repeated columns and zero profits leave many optimal points; the
        # one returned is still the one Bland's rule reaches
        runs = counting(monkeypatch, "_vertex")
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
        assert runs[0] - 150 >= 120, runs

    def test_bound_flips_and_upper_leaves_occur(self, monkeypatch):
        flips = counting(monkeypatch, "_complement_column")
        upper_leaves = counting(monkeypatch, "_complement_row")
        instances = workload_shaped(40, 4900)
        for inst in instances:
            knapsack_relaxation(inst.profits, inst.costs, inst.budget)
        # the default run, Dantzig's rule while no step is degenerate
        assert flips[0] >= 139 and upper_leaves[0] >= 90, (flips, upper_leaves)
        # Bland's rule throughout, as the rerun of a tied optimum pivots
        flips[0] = upper_leaves[0] = 0
        vertex = simplex._vertex
        monkeypatch.setattr(simplex, "_vertex", lambda gains, rows, _: vertex(gains, rows, True))
        for inst in instances:
            knapsack_relaxation(inst.profits, inst.costs, inst.budget)
        assert flips[0] >= 100 and upper_leaves[0] >= 100, (flips, upper_leaves)

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
    factors change no sign and no ratio, so Bland's point is unchanged."""

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
        value /= scale
        assert (value, x) == reference_box(objective, rows, rhs)[0]
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
            profits, costs, budget, scale = integer_program(objective, rows, rhs)
            value, x = knapsack_relaxation(profits, costs, budget)
            assert (value / scale, x) == reference_box(objective, rows, rhs)[0]
