"""Seeded random instance generators.

Every generator takes a random.Random and is a pure function of its
arguments and that stream, so identical seeds reproduce identical
instances byte for byte.  The planted variants additionally return the
planted witness.
"""

from __future__ import annotations

import random

from .csp import Csp2Instance, PartialAssignment, RcspInstance, SatInstance
from .graphs import Graph, random_graph, random_regular3_graph
from .knapsack import VkInstance

# Fresh starts of the greedy clause sampler before gen_sat gives up.
SAT_RESTART_CAP = 64


def gen_sat(
    n: int, m: int, occurrence_bound: int, rng: random.Random
) -> SatInstance:
    """Random bounded-occurrence 3-SAT; signs uniform."""
    inst, _ = _gen_sat_impl(n, m, occurrence_bound, rng, planted=None)
    return inst


def gen_sat_satisfiable(
    n: int, m: int, occurrence_bound: int, rng: random.Random
) -> tuple[SatInstance, tuple[int, ...]]:
    """Random satisfiable formula: every clause gets one literal agreeing
    with a hidden assignment, which is returned alongside."""
    hidden = tuple(rng.randint(0, 1) for _ in range(n))
    inst, _ = _gen_sat_impl(n, m, occurrence_bound, rng, planted=hidden)
    return inst, hidden


def _gen_sat_impl(n, m, occurrence_bound, rng, planted):
    if 3 * m > n * occurrence_bound:
        raise ValueError("clause budget exceeds total variable occurrences")
    if n < 3 and m > 0:
        raise ValueError("need at least 3 variables for a clause")
    # Greedy sampling can strand occurrence capacity on tight parameters;
    # restart from scratch (same stream, so still deterministic) when it does.
    for _ in range(SAT_RESTART_CAP):
        remaining = {v: occurrence_bound for v in range(1, n + 1)}
        clauses = []
        for _ in range(m):
            available = [v for v, r in remaining.items() if r > 0]
            if len(available) < 3:
                clauses = None
                break
            chosen = rng.sample(available, 3)
            for v in chosen:
                remaining[v] -= 1
            literals = [v if rng.random() < 0.5 else -v for v in chosen]
            if planted is not None and not any(
                (lit > 0) == bool(planted[abs(lit) - 1]) for lit in literals
            ):
                fix = rng.randrange(3)
                v = abs(literals[fix])
                literals[fix] = v if planted[v - 1] else -v
            clauses.append(tuple(literals))
        if clauses is not None:
            return SatInstance(n, tuple(clauses), occurrence_bound), planted
    raise ValueError(f"greedy clause sampler stranded occurrences on fewer than 3 "
                     f"variables in each of {SAT_RESTART_CAP} restarts")


def _random_constraint_graph(
    vertex_count: int, edge_count, regular3: bool, rng: random.Random
) -> Graph:
    if regular3:
        return random_regular3_graph(vertex_count, rng)
    if edge_count is None:
        raise ValueError("edge count required for a non-regular graph")
    return random_graph(vertex_count, edge_count, rng)


def gen_rcsp(
    vertex_count: int,
    sigma_size: int,
    upsilon_size: int,
    rng: random.Random,
    edge_count=None,
    regular3: bool = False,
) -> RcspInstance:
    """Random rectangular CSP with uniform projection maps."""
    graph = _random_constraint_graph(vertex_count, edge_count, regular3, rng)
    projections = {
        e: (
            tuple(rng.randrange(upsilon_size) for _ in range(sigma_size)),
            tuple(rng.randrange(upsilon_size) for _ in range(sigma_size)),
        )
        for e in graph.edge_list
    }
    return RcspInstance(graph, sigma_size, upsilon_size, projections)


def gen_rcsp_planted(
    vertex_count: int,
    sigma_size: int,
    upsilon_size: int,
    rng: random.Random,
    edge_count=None,
    regular3: bool = False,
) -> tuple[RcspInstance, PartialAssignment]:
    """Random rectangular CSP admitting a hidden total consistent assignment."""
    base = gen_rcsp(vertex_count, sigma_size, upsilon_size, rng, edge_count, regular3)
    hidden = tuple(rng.randrange(sigma_size) for _ in range(vertex_count))
    projections = {}
    for (u, v), (pu, pv) in base.projections.items():
        agreed = rng.randrange(upsilon_size)
        pu = pu[: hidden[u]] + (agreed,) + pu[hidden[u] + 1:]
        pv = pv[: hidden[v]] + (agreed,) + pv[hidden[v] + 1:]
        projections[(u, v)] = (pu, pv)
    inst = RcspInstance(base.graph, sigma_size, upsilon_size, projections)
    return inst, PartialAssignment(hidden)


def gen_csp2(
    vertex_count: int,
    sigma_size: int,
    rng: random.Random,
    edge_count=None,
    regular3: bool = True,
    planted: bool = False,
) -> Csp2Instance:
    """Random binary CSP; pairs kept with probability 1/2, never all dropped.

    With planted=True a hidden total assignment satisfies every edge.
    """
    graph = _random_constraint_graph(vertex_count, edge_count, regular3, rng)
    hidden = [rng.randrange(sigma_size) for _ in range(vertex_count)]
    constraints = {}
    for (u, v) in graph.edge_list:
        pairs = {
            (a, b)
            for a in range(sigma_size)
            for b in range(sigma_size)
            if rng.random() < 0.5
        }
        if planted:
            pairs.add((hidden[u], hidden[v]))
        elif not pairs:
            pairs.add((rng.randrange(sigma_size), rng.randrange(sigma_size)))
        constraints[(u, v)] = frozenset(pairs)
    return Csp2Instance(graph, sigma_size, constraints)


def gen_vk(
    n: int,
    dimension: int,
    max_budget: int,
    max_profit: int,
    rng: random.Random,
) -> VkInstance:
    """Random instance; costs land anywhere up to each coordinate budget."""
    budget = tuple(rng.randint(max(1, max_budget // 2), max_budget) for _ in range(dimension))
    costs = tuple(
        tuple(rng.randint(0, budget[j]) for j in range(dimension)) for _ in range(n)
    )
    profits = tuple(rng.randint(0, max_profit) for _ in range(n))
    return VkInstance(profits, costs, budget)


def _gen_vk_classed(n, dimension, max_budget, max_profit, rng, draw_row) -> VkInstance:
    """Budgets in [2, max_budget], then one cost row per item from
    draw_row(budget, rng), then the profits."""
    budget = tuple(rng.randint(2, max_budget) for _ in range(dimension))
    costs = tuple(draw_row(budget, rng) for _ in range(n))
    profits = tuple(rng.randint(0, max_profit) for _ in range(n))
    return VkInstance(profits, costs, budget)


def _half_row(budget, rng) -> tuple[int, ...]:
    return tuple(rng.randint(0, b // 2) for b in budget)


def _heavy_row(budget, rng) -> tuple[int, ...]:
    row = [rng.randint(0, b) for b in budget]
    heavy = rng.randrange(len(budget))
    row[heavy] = rng.randint(budget[heavy] // 2 + 1, budget[heavy])
    return tuple(row)


def _mixed_row(budget, rng) -> tuple[int, ...]:
    return _half_row(budget, rng) if rng.random() < 0.5 else _heavy_row(budget, rng)


def gen_vk_2bounded(n, dimension, max_budget, max_profit, rng) -> VkInstance:
    """Every cost at most half its budget coordinate."""
    return _gen_vk_classed(n, dimension, max_budget, max_profit, rng, _half_row)


def gen_vk_2unbounded(n, dimension, max_budget, max_profit, rng) -> VkInstance:
    """Every item exceeds half the budget in at least one coordinate."""
    return _gen_vk_classed(n, dimension, max_budget, max_profit, rng, _heavy_row)


def gen_vk_mixed(n, dimension, max_budget, max_profit, rng) -> VkInstance:
    """Coin-flip blend of half-fitting and over-half items."""
    return _gen_vk_classed(n, dimension, max_budget, max_profit, rng, _mixed_row)
