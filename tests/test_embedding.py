import pytest

from knapreduce.embedding import (
    ConnectedEmbedding,
    embedding_violations,
    simple_connected_embedding,
    validate_embedding,
)
from knapreduce.errors import ConstructionError
from knapreduce.graphs import Graph, circulant_cubic_graph, complete_graph, graph_from_edges


def test_identity_embedding_is_valid_with_depth_one():
    h = circulant_cubic_graph(6)
    emb = ConnectedEmbedding(h, h, tuple(frozenset({v}) for v in range(6)))
    assert validate_embedding(emb) == (True, 1)


def test_disconnected_image_is_flagged():
    h = circulant_cubic_graph(8)
    g = graph_from_edges(2, [(0, 1)])
    # vertices 0 and 2 are not adjacent in the host cycle-with-diameters
    emb = ConnectedEmbedding(g, h, (frozenset({0, 2}), frozenset({1})))
    ok, _ = validate_embedding(emb)
    assert not ok
    assert any("disconnected" in msg for msg in embedding_violations(emb))


def test_non_touching_edge_is_flagged():
    h = circulant_cubic_graph(8)
    g = graph_from_edges(2, [(0, 1)])
    # host neighbors of 0 are 1, 7, 4; vertex 2 shares nothing with {0}
    emb = ConnectedEmbedding(g, h, (frozenset({0}), frozenset({2})))
    ok, _ = validate_embedding(emb)
    assert not ok
    assert any("touch" in msg for msg in embedding_violations(emb))


def test_everything_on_one_host_vertex_has_full_depth():
    h = circulant_cubic_graph(6)
    g = complete_graph(4)
    emb = ConnectedEmbedding(g, h, tuple(frozenset({0}) for _ in range(4)))
    assert validate_embedding(emb) == (True, 4)


def test_single_source_vertex():
    g = Graph(1)
    host, emb = simple_connected_embedding(g, 8)
    assert host.vertex_count <= 8
    assert host.is_regular(3)
    assert len(emb.images[0]) == 1
    assert validate_embedding(emb) == (True, 1)


def test_two_vertex_path():
    g = graph_from_edges(2, [(0, 1)])
    host, emb = simple_connected_embedding(g, 8)
    ok, depth = validate_embedding(emb)
    assert ok
    assert depth >= 1


@pytest.mark.parametrize("k", [7, 8, 10, 12])
def test_k4_embeds_validly(k):
    g = complete_graph(4)
    host, emb = simple_connected_embedding(g, k)
    assert host.vertex_count <= k
    assert host.is_regular(3)
    ok, depth = validate_embedding(emb)
    assert ok
    assert depth >= 1


def test_odd_k_uses_next_even_size_down():
    host, _ = simple_connected_embedding(Graph(1), 7)
    assert host.vertex_count == 6


def test_small_k_is_a_construction_error():
    for k in (0, 4, 6):
        with pytest.raises(ConstructionError):
            simple_connected_embedding(Graph(1), k)


def test_deterministic_for_fixed_input():
    g = complete_graph(4)
    _, emb1 = simple_connected_embedding(g, 9)
    _, emb2 = simple_connected_embedding(g, 9)
    assert emb1.images == emb2.images


def test_disconnected_source_graph():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    host, emb = simple_connected_embedding(g, 8)
    ok, _ = validate_embedding(emb)
    assert ok
