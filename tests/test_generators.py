import random

import pytest

from knapreduce import generators
from knapreduce.csp import count_satisfied, csp_value, is_consistent
from knapreduce.generators import (
    gen_csp2,
    gen_rcsp,
    gen_rcsp_planted,
    gen_sat,
    gen_sat_satisfiable,
    gen_vk,
    gen_vk_2bounded,
    gen_vk_2unbounded,
)
from knapreduce.graphs import complete_graph


def test_same_seed_same_instance():
    a = gen_sat(8, 5, 4, random.Random(11))
    b = gen_sat(8, 5, 4, random.Random(11))
    assert a == b
    c = gen_vk(6, 2, 10, 9, random.Random(12))
    d = gen_vk(6, 2, 10, 9, random.Random(12))
    assert c == d


def test_sat_occurrence_bound_respected():
    phi = gen_sat(6, 7, 4, random.Random(13))
    counts = {}
    for clause in phi.clauses:
        for lit in clause:
            counts[abs(lit)] = counts.get(abs(lit), 0) + 1
    assert all(c <= 4 for c in counts.values())


def test_sat_infeasible_parameters():
    with pytest.raises(ValueError):
        gen_sat(3, 10, 2, random.Random(1))


def test_sat_restart_cap_trips_with_a_message_naming_it(monkeypatch):
    # 4 variables of bound 3 cover the 12 occurrences of 4 clauses, but the
    # greedy sampler often strands them on fewer than 3 variables
    monkeypatch.setattr(generators, "SAT_RESTART_CAP", 1)
    failed = []
    for seed in range(50):
        try:
            gen_sat(4, 4, 3, random.Random(seed))
        except ValueError as exc:
            assert str(exc) == ("greedy clause sampler stranded occurrences on fewer "
                                "than 3 variables in each of 1 restarts")
            failed.append(seed)
    assert 0 < len(failed) < 50, failed
    monkeypatch.undo()
    for seed in failed:
        assert gen_sat(4, 4, 3, random.Random(seed)).clause_count == 4


def test_planted_sat_is_satisfied_by_the_hidden_assignment():
    for seed in range(10):
        phi, hidden = gen_sat_satisfiable(7, 5, 4, random.Random(seed))
        assert count_satisfied(phi, [bool(v) for v in hidden]) == phi.clause_count


def test_regular3_on_four_vertices_is_complete():
    pi = gen_rcsp(4, 2, 2, random.Random(14), regular3=True)
    assert pi.graph.edges == complete_graph(4).edges


def test_planted_rcsp_assignment_is_consistent_and_total():
    for seed in range(10):
        pi, hidden = gen_rcsp_planted(6, 3, 3, random.Random(seed), regular3=True)
        assert hidden.size() == 6
        assert is_consistent(pi, hidden)


def test_planted_csp2_is_fully_satisfiable():
    for seed in range(10):
        rng = random.Random(seed)
        gamma = gen_csp2(4, 2, rng, regular3=True, planted=True)
        best = max(
            csp_value(gamma, (a, b, c, d))
            for a in range(2)
            for b in range(2)
            for c in range(2)
            for d in range(2)
        )
        assert best == len(gamma.graph.edges)


def test_vk_class_generators():
    rng = random.Random(15)
    bounded = gen_vk_2bounded(10, 3, 12, 9, rng)
    assert all(
        2 * bounded.costs[i][j] <= bounded.budget[j]
        for i in range(10)
        for j in range(3)
    )
    unbounded = gen_vk_2unbounded(10, 3, 12, 9, rng)
    assert all(
        any(2 * unbounded.costs[i][j] > unbounded.budget[j] for j in range(3))
        for i in range(10)
    )
