import random
from itertools import product

import pytest

from knapreduce.csp import (
    Csp2Instance,
    GcspInstance,
    PartialAssignment,
    csp_opt_bruteforce,
    csp_value,
    is_consistent,
    par_bruteforce,
)
from knapreduce.generators import gen_csp2, gen_gcsp
from knapreduce.graphs import Graph, complete_graph, graph_from_edges
from knapreduce.reductions import (
    csp2_assignment_from_gcsp,
    csp2_assignment_from_rcsp,
    csp2_to_gcsp,
    csp2_to_rcsp,
    gcsp_assignment_from_csp2,
    gcsp_assignment_from_rcsp,
    gcsp_to_rcsp,
    rcsp_assignment_from_csp2,
    rcsp_assignment_from_gcsp,
)


def full_k4_csp(sigma=2):
    """All pairs allowed on every edge of the complete 4-vertex graph."""
    g = complete_graph(4)
    allowed = frozenset(product(range(sigma), repeat=2))
    return Csp2Instance(g, sigma, {e: allowed for e in g.edge_list})


class TestLineGraphForm:
    def test_k4_shape(self):
        delta = csp2_to_gcsp(full_k4_csp())
        assert delta.graph.vertex_count == 6
        assert len(delta.graph.edges) == 12
        assert delta.graph.max_degree() == 4

    def test_requires_cubic_graph(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        gamma = Csp2Instance(g, 2, {e: frozenset({(0, 0)}) for e in g.edge_list})
        with pytest.raises(ValueError):
            csp2_to_gcsp(gamma)

    def test_alphabets_are_the_allowed_pairs(self):
        rng = random.Random(3)
        gamma = gen_csp2(4, 2, rng, regular3=True)
        delta = csp2_to_gcsp(gamma)
        for x, e in enumerate(gamma.graph.edge_list):
            decoded = {divmod(code, gamma.sigma_size) for code in delta.alphabets[x]}
            assert decoded == set(gamma.constraints[e])

    def test_satisfying_assignment_lifts_to_total_labeling(self):
        rng = random.Random(5)
        for i in range(10):
            gamma = gen_csp2(4, 2, rng, regular3=True, planted=True)
            if csp_opt_bruteforce(gamma) != len(gamma.graph.edges):
                continue
            lam = next(
                assignment
                for assignment in product(range(gamma.sigma_size), repeat=4)
                if csp_value(gamma, assignment) == len(gamma.graph.edges)
            )
            delta = csp2_to_gcsp(gamma)
            phi = gcsp_assignment_from_csp2(gamma, lam)
            assert is_consistent(delta, phi)
            assert phi.size() == len(gamma.graph.edges)

    def test_labeling_reads_back(self):
        rng = random.Random(6)
        gamma = gen_csp2(4, 3, rng, regular3=True, planted=True)
        lam = next(
            assignment
            for assignment in product(range(3), repeat=4)
            if csp_value(gamma, assignment) == 6
        )
        phi = gcsp_assignment_from_csp2(gamma, lam)
        assert csp2_assignment_from_gcsp(gamma, phi) == lam


class TestCollapseToSharedAlphabet:
    def test_single_vertex(self):
        delta = GcspInstance(Graph(1), (frozenset({4}),), 2, {})
        pi = gcsp_to_rcsp(delta)
        assert par_bruteforce(pi)[0] == par_bruteforce(delta)[0] == 1

    def test_degree_cap(self):
        star = graph_from_edges(6, [(0, v) for v in range(1, 6)])
        delta = GcspInstance(
            star,
            tuple(frozenset({0}) for _ in range(6)),
            1,
            {e: ({0: 0}, {0: 0}) for e in star.edge_list},
        )
        with pytest.raises(ValueError):
            gcsp_to_rcsp(delta)

    def test_values_agree_on_random_instances(self):
        for i in range(20):
            rng = random.Random(2100 + i)
            delta = gen_gcsp(4, rng.randint(1, 4), 3, 2, rng)
            pi = gcsp_to_rcsp(delta)
            gq, gwit = par_bruteforce(delta)
            rq, rwit = par_bruteforce(pi)
            assert gq == rq
            # backward extraction keeps size and consistency
            back = gcsp_assignment_from_rcsp(delta, rwit)
            assert is_consistent(delta, back)
            assert back.size() == rq
            # forward reindexing keeps size and consistency
            forth = rcsp_assignment_from_gcsp(delta, gwit)
            assert is_consistent(pi, forth)
            assert forth.size() == gq

    def test_out_of_alphabet_symbols_cannot_satisfy_edges(self):
        g = graph_from_edges(2, [(0, 1)])
        delta = GcspInstance(
            g,
            (frozenset({0}), frozenset({1})),
            1,
            {(0, 1): ({0: 0}, {1: 0})},
        )
        pi = gcsp_to_rcsp(delta)
        # shared alphabet is {0, 1}; symbol 1 is outside vertex 0's own set
        assert not is_consistent(pi, PartialAssignment((1, 1)))
        assert is_consistent(pi, PartialAssignment((0, 1)))


class TestFullChain:
    def test_fully_satisfiable_k4_reaches_six(self):
        pi = csp2_to_rcsp(full_k4_csp())
        size, _ = par_bruteforce(pi)
        assert size == 6

    def test_equivalence_and_extraction_bound(self):
        for i in range(40):
            rng = random.Random(3100 + i)
            gamma = gen_csp2(
                4, 2 if i % 3 else 3, rng, regular3=True, planted=bool(i % 2)
            )
            edge_total = len(gamma.graph.edges)
            csp = csp_opt_bruteforce(gamma)
            pi = csp2_to_rcsp(gamma)
            size, witness = par_bruteforce(pi)
            assert (csp == edge_total) == (size == edge_total)
            deficit = edge_total - size
            lam = csp2_assignment_from_rcsp(gamma, witness)
            assert csp_value(gamma, lam) >= edge_total - 6 * deficit

    def test_forward_witness_through_the_chain(self):
        rng = random.Random(4200)
        gamma = gen_csp2(4, 2, rng, regular3=True, planted=True)
        lam = next(
            assignment
            for assignment in product(range(2), repeat=4)
            if csp_value(gamma, assignment) == 6
        )
        pi = csp2_to_rcsp(gamma)
        phi = rcsp_assignment_from_csp2(gamma, lam)
        assert is_consistent(pi, phi)
        assert phi.size() == 6
