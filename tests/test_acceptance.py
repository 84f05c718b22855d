"""Acceptance gate: one test per criterion, each printing a PASS line.

Every expected value is produced by an independent oracle (exhaustive
enumeration, exact rational arithmetic, or an algebraic identity) and
compared exactly; ratio thresholds involving square roots are compared
through integer squares, never floats.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from fractions import Fraction
from itertools import product

from knapreduce.csp import (
    csp_opt_bruteforce,
    csp_value,
    is_consistent,
    par_bruteforce,
)
from knapreduce.approx import approx_2unbounded, approx_sqrt_d
from knapreduce.discretize import digamma, gamma_for_dimension, varpi_down, varpi_up
from knapreduce.generators import (
    gen_csp2,
    gen_rcsp,
    gen_rcsp_planted,
    gen_sat_satisfiable,
    gen_vk,
    gen_vk_2unbounded,
    gen_vk_mixed,
)
from knapreduce.knapsack import (
    Solution,
    check_feasible,
    profit,
    solve_bruteforce,
    solve_dp,
)
from knapreduce.reductions import (
    constraint_weight,
    csp2_assignment_from_rcsp,
    csp2_to_rcsp,
    extract_partial_assignment,
    item_of,
    rcsp_to_vk_embed,
    rcsp_to_vk_simple,
    sat_to_rcsp_disperser_route,
    sat_to_rcsp_embedding_route,
    verify_base_q_digits,
    vk_solution_from_assignment,
)

BASE_SEED = 20_240_817


def rng_for(criterion: int, index: int) -> random.Random:
    return random.Random(BASE_SEED + criterion * 1_000_003 + index)


def report(criterion: int, description: str):
    print(f"[PASS] criterion {criterion}: {description}")


def test_criterion_01_simple_reduction_equivalence():
    checked = 0
    for i in range(200):
        rng = rng_for(1, i)
        n = rng.choice((2, 3, 3, 4, 4, 5))
        max_edges = n * (n - 1) // 2
        pi = gen_rcsp(
            n,
            sigma_size=rng.randint(1, 3),
            upsilon_size=rng.randint(1, 3),
            rng=rng,
            edge_count=rng.randint(1, min(max_edges, n + 1)),
        )
        par, _ = par_bruteforce(pi)
        opt, _ = solve_bruteforce(rcsp_to_vk_simple(pi))
        assert par == opt, f"instance {i}: partial {par} != knapsack {opt}"
        checked += 1
    assert checked >= 200
    report(1, f"plain-target optimum equals max partial assignment on {checked} instances")


def test_criterion_02_embed_completeness():
    checked = 0
    for i in range(50):
        rng = rng_for(2, i)
        n = rng.choice((4, 6, 8))
        pi, planted = gen_rcsp_planted(
            n,
            sigma_size=rng.randint(1, 3),
            upsilon_size=rng.randint(1, 3),
            rng=rng,
            regular3=True,
        )
        full = n + 2 * len(pi.graph.edges)
        solution = vk_solution_from_assignment(pi, planted)
        for chunk_size in (1, 2, n):
            target, _ = rcsp_to_vk_embed(pi, chunk_size)
            assert check_feasible(target, solution), (i, chunk_size)
            assert profit(target, solution) == full, (i, chunk_size)
            checked += 1
    report(2, f"planted assignments reach full profit in {checked} packed targets")


def test_criterion_03_embed_soundness():
    subsets_checked = 0
    for i in range(6):
        rng = rng_for(3, i)
        pi, _ = gen_rcsp_planted(
            4,
            sigma_size=rng.randint(1, 2),
            upsilon_size=rng.randint(1, 3),
            rng=rng,
            regular3=True,
        )
        full = 4 + 2 * len(pi.graph.edges)
        for chunk_size in (1, 2):
            target, art = rcsp_to_vk_embed(pi, chunk_size)
            for mask in range(1 << target.item_count):
                solution = Solution(
                    frozenset(j for j in range(target.item_count) if (mask >> j) & 1)
                )
                if not check_feasible(target, solution):
                    continue
                deficit = full - profit(target, solution)
                phi = extract_partial_assignment(
                    pi, chunk_size, solution, precomputed=(target, art)
                )
                assert is_consistent(pi, phi), (i, chunk_size, mask)
                assert phi.size() >= 4 - 2 * deficit * chunk_size, (i, chunk_size, mask)
                subsets_checked += 1
    report(3, f"extraction consistent and size-bounded on {subsets_checked} feasible subsets")


def test_criterion_04_algebraic_identities():
    instances = 0
    for i in range(50):
        rng = rng_for(4, i)
        pi, planted = gen_rcsp_planted(
            4,
            sigma_size=rng.randint(1, 2),
            upsilon_size=rng.randint(1, 3),
            rng=rng,
            regular3=True,
        )
        chunk_size = rng.choice((1, 2, 3))
        target, art = rcsp_to_vk_embed(pi, chunk_size)
        q, big, m = art.base_q, art.sentinel, pi.upsilon_size
        n_items = target.item_count
        planted_items = sorted(vk_solution_from_assignment(pi, planted).chosen)
        exponents = [
            [q ** (pos + 1) for pos in range(len(chunk))] for chunk in art.partition
        ]
        for t in range(1000):
            if t % 2:
                chosen = [j for j in planted_items if rng.getrandbits(1)]
            else:
                chosen = [j for j in range(n_items) if rng.getrandbits(1)]
            pairs = [item_of(pi, j) for j in chosen]
            coverage_total = 0
            feasible = check_feasible(target, Solution(frozenset(chosen)))
            for l, chunk in enumerate(art.partition):
                stacked = sum(
                    constraint_weight(pi, j, v, s) * exponents[l][pos]
                    for pos, j in enumerate(chunk)
                    for v, s in pairs
                )
                covered = sum(art.coverage[l][v] for v, _ in pairs)
                coverage_total += covered
                # packed-cost identities, first and second dimension of the pair
                assert sum(target.costs[j][2 * l] for j in chosen) == stacked
                assert (
                    sum(target.costs[j][2 * l + 1] for j in chosen)
                    == big * covered - stacked
                )
                if feasible:
                    # saturation cap, and forced digit targets at equality
                    assert covered <= art.chunk_totals[l]
                    if covered == art.chunk_totals[l]:
                        weights = [
                            sum(constraint_weight(pi, j, v, s) for v, s in pairs)
                            for j in chunk
                        ]
                        assert all(w == m for w in weights)
                        assert verify_base_q_digits(weights, q, m)
            assert sum(target.profits[j] for j in chosen) == coverage_total
        instances += 1
    assert instances >= 50

    # digit-sum uniqueness, exhaustive over small bases and widths
    for base in range(2, 8):
        for width in range(1, 5):
            for target_digit in range(base):
                for digits in product(range(base), repeat=width):
                    expected = all(a == target_digit for a in digits)
                    assert (
                        verify_base_q_digits(list(digits), base, target_digit)
                        == expected
                    )
    report(4, f"cost/profit identities on {instances} packed instances x 1000 subsets; "
              f"digit-sum uniqueness exhaustive for bases 2..7")


def test_criterion_05_csp_chain():
    checked = 0
    for i in range(100):
        rng = rng_for(5, i)
        gamma = gen_csp2(
            4,
            2 if i % 4 else 3,
            rng,
            regular3=True,
            planted=bool(rng.getrandbits(1)),
        )
        edge_total = len(gamma.graph.edges)
        csp = csp_opt_bruteforce(gamma)
        pi = csp2_to_rcsp(gamma)
        par, witness = par_bruteforce(pi)
        assert (csp == edge_total) == (par == edge_total), i
        deficit = edge_total - par
        lam = csp2_assignment_from_rcsp(gamma, witness)
        assert csp_value(gamma, lam) >= edge_total - 6 * deficit, i
        checked += 1
    assert checked >= 100
    report(5, f"chain equivalence and 6x-deficit extraction bound on {checked} instances")


def test_criterion_06_discretization_bounds():
    points = 0
    for d in range(1, 6):
        gamma = gamma_for_dimension(d)
        for b in range(201):
            for x in range(b + 1):
                down, up = varpi_down(x, gamma), varpi_up(x, gamma)
                assert down <= x <= up
                if x >= 1:
                    assert up < gamma * x
                value = digamma((x,), (b,), gamma)[0]
                assert value <= gamma * x
                assert value <= b - Fraction(b - x, 1) / gamma
                points += 1
    report(6, f"rounding sandwich and both value bounds exact on {points} (d, B, x) points")


def test_criterion_07_unbounded_branch_guarantee():
    checked = 0
    for i in range(100):
        rng = rng_for(7, i)
        d = rng.randint(1, 4)
        inst = gen_vk_2unbounded(
            rng.randint(1, 14), d, rng.randint(2, 50), 20, rng
        )
        solution = approx_2unbounded(inst)
        assert check_feasible(inst, solution), i
        achieved = profit(inst, solution)
        opt, _ = solve_bruteforce(inst)
        # achieved >= opt / (10 sqrt d)  <=>  100 d achieved^2 >= opt^2
        assert 100 * d * achieved * achieved >= opt * opt, (i, achieved, opt, d)
        checked += 1
    assert checked >= 100

    # every feasible subset of an over-half instance has at most d items
    for i in range(10):
        rng = rng_for(7, 10_000 + i)
        d = rng.randint(1, 4)
        inst = gen_vk_2unbounded(rng.randint(4, 10), d, rng.randint(2, 20), 9, rng)
        for mask in range(1 << inst.item_count):
            chosen = frozenset(j for j in range(inst.item_count) if (mask >> j) & 1)
            if len(chosen) <= d:
                continue
            assert not check_feasible(inst, Solution(chosen)), (i, mask)
    report(7, f"over-half branch within 1/(10 sqrt d) of the optimum on {checked} instances; "
              f"feasible-size cap checked exhaustively")


def test_criterion_08_combined_algorithm():
    ratios: dict[int, list[Fraction]] = {1: [], 2: [], 3: [], 4: []}
    checked = 0
    for d in (1, 2, 3, 4):
        for i in range(50):
            rng = rng_for(8, d * 1000 + i)
            inst = gen_vk_mixed(rng.randint(1, 14), d, rng.randint(4, 40), 20, rng)
            solution = approx_sqrt_d(inst, seed=BASE_SEED + i)
            assert check_feasible(inst, solution), (d, i)
            achieved = profit(inst, solution)
            best_single = max(
                (
                    inst.profits[j]
                    for j in range(inst.item_count)
                    if check_feasible(inst, Solution(frozenset({j})))
                ),
                default=0,
            )
            assert achieved >= best_single, (d, i)
            opt, _ = solve_bruteforce(inst)
            if opt:
                ratios[d].append(Fraction(achieved, opt))
            checked += 1
    assert checked >= 200
    for d, values in ratios.items():
        median = sorted(values)[len(values) // 2]
        # median >= 1/(4 sqrt d)  <=>  16 d median^2 >= 1
        assert 16 * d * median * median >= 1, (d, float(median))
    report(8, f"combined algorithm feasible, singleton-dominant, and median ratio "
              f"above 1/(4 sqrt d) on {checked} instances")


def test_criterion_09_oracle_agreement():
    checked = 0
    for i in range(300):
        rng = rng_for(9, i)
        inst = gen_vk(
            rng.randint(0, 9), rng.randint(1, 3), rng.randint(1, 8), 12, rng
        )
        dp_value, dp_solution = solve_dp(inst)
        bf_value, _ = solve_bruteforce(inst)
        assert dp_value == bf_value, i
        assert check_feasible(inst, dp_solution)
        assert profit(inst, dp_solution) == dp_value
        checked += 1
    assert checked >= 300
    report(9, f"dynamic program equals subset brute force on {checked} instances")


def test_criterion_10_sat_reduction_completeness():
    checked = 0
    for i in range(100):
        rng = rng_for(10, i)
        phi, _ = gen_sat_satisfiable(rng.randint(4, 10), rng.randint(2, 5), 4, rng)

        embedded = sat_to_rcsp_embedding_route(phi, 7)
        assert embedded.graph.vertex_count <= 6
        par, _ = par_bruteforce(embedded, max_nodes=4_000_000)
        assert par == embedded.graph.vertex_count, i
        checked += 1

        k = rng.randint(4, 6)
        dispersed = sat_to_rcsp_disperser_route(
            phi, k, 2, Fraction(1, 4), seed=BASE_SEED + i
        )
        assert dispersed.graph.vertex_count == k
        par, _ = par_bruteforce(dispersed, max_nodes=4_000_000)
        assert par == k, i
        checked += 1
    assert checked >= 200
    report(10, f"satisfiable formulas fill the host through both routes ({checked} runs)")
