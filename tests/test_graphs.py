import random
import tracemalloc

import pytest

from knapreduce import graphs
from knapreduce.errors import ConstructionError
from knapreduce.graphs import (
    Graph,
    circulant_cubic_graph,
    complete_graph,
    graph_from_edges,
    line_graph,
    random_graph,
    random_regular3_graph,
)


def test_edges_are_oriented_low_to_high():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))


def test_graph_from_edges_normalizes():
    g = graph_from_edges(3, [(2, 0), (1, 2)])
    assert g.edge_list == ((0, 2), (1, 2))
    assert len(g.incident[2]) == 2
    assert g.neighbors(2) == (0, 1)


def test_incident_table_serves_degree_and_neighbors():
    rng = random.Random(4)
    for n in (1, 5, 9):
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        assert len(g.incident) == n
        for v in range(n):
            at = tuple(e for e in sorted(g.edges) if v in e)
            assert g.incident[v] == at
            assert g.neighbors(v) == tuple(sorted(u + w - v for (u, w) in at))
    assert Graph(0).incident == () and Graph(0).is_regular(3)
    huge = Graph(10**27)
    assert not huge.is_regular(3) and "incident" not in vars(huge)


def test_equality_ignores_built_tables():
    built = circulant_cubic_graph(6)
    assert built.is_regular(3) and built.edge_list  # builds both tables
    fresh = Graph(6, frozenset(built.edges))
    assert "incident" in vars(built) and "incident" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert {built: 1}[fresh] == 1


def test_regularity_and_edge_count_relation():
    for n in (4, 6, 8, 10):
        g = circulant_cubic_graph(n)
        assert g.is_regular(3)
        # cubic graphs carry exactly 3|V|/2 edges
        assert len(g.edges) == 3 * n // 2


def test_circulant_on_four_vertices_is_complete():
    assert circulant_cubic_graph(4).edges == complete_graph(4).edges


def test_circulant_rejects_odd_or_tiny_sizes():
    for n in (2, 3, 5):
        with pytest.raises(ConstructionError):
            circulant_cubic_graph(n)


def test_line_graph_of_k4():
    lg = line_graph(complete_graph(4))
    assert lg.vertex_count == 6
    assert len(lg.edges) == 12
    assert lg.is_regular(4)


def test_line_graph_edge_rule():
    # path 0-1-2: its two edges share vertex 1 exactly
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    lg = line_graph(g)
    assert lg.vertex_count == 2
    assert lg.edge_list == ((0, 1),)


def test_random_regular3_is_simple_cubic_and_deterministic():
    for n in (4, 6, 8):
        g1 = random_regular3_graph(n, random.Random(42))
        g2 = random_regular3_graph(n, random.Random(42))
        assert g1 == g2
        assert g1.is_regular(3)
    # the only cubic graph on 4 vertices is the complete one
    assert random_regular3_graph(4, random.Random(7)).edges == complete_graph(4).edges


def test_random_regular3_rejects_odd():
    with pytest.raises(ConstructionError):
        random_regular3_graph(5, random.Random(0))


def test_pairing_try_cap_trips_with_a_message_naming_it(monkeypatch):
    monkeypatch.setattr(graphs, "PAIRING_TRY_CAP", 1)
    failed = []
    for seed in range(50):
        try:
            random_regular3_graph(8, random.Random(seed))
        except ConstructionError as exc:
            assert str(exc) == "pairing model failed to produce a simple graph in 1 tries"
            failed.append(seed)
    assert 0 < len(failed) < 50, failed
    monkeypatch.undo()
    for seed in failed:
        assert random_regular3_graph(8, random.Random(seed)).is_regular(3)


def test_random_graph_edge_count():
    g = random_graph(5, 4, random.Random(1))
    assert len(g.edges) == 4
    with pytest.raises(ValueError):
        random_graph(3, 4, random.Random(1))


def _all_pairs_random_graph(n, edge_count, rng):
    """The sampler random_graph replaced: list every pair, then sample."""
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, frozenset(rng.sample(possible, edge_count)))


def test_random_graph_matches_the_all_pairs_sampler():
    for n in range(40):
        top = n * (n - 1) // 2
        for edge_count in sorted({0, min(1, top), top // 3, top // 2, top}):
            for seed in range(3):
                fast, slow = random.Random(seed), random.Random(seed)
                assert random_graph(n, edge_count, fast) == _all_pairs_random_graph(
                    n, edge_count, slow)
                assert fast.random() == slow.random()


def test_random_graph_does_not_list_every_pair():
    tracemalloc.start()
    try:
        g = random_graph(1000, 5, random.Random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # listing all 499,500 pairs would take tens of megabytes
    assert len(g.edges) == 5 and peak < 64 * 1024
