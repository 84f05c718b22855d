import random
from itertools import product

import pytest

from knapreduce.csp import (
    Csp2Instance,
    PartialAssignment,
    csp_opt_bruteforce,
    csp_value,
    is_consistent,
    par_bruteforce,
)
from knapreduce.generators import gen_csp2
from knapreduce.graphs import complete_graph, graph_from_edges
from knapreduce.reductions import (
    csp2_assignment_from_rcsp,
    csp2_to_rcsp,
    rcsp_assignment_from_csp2,
)


def full_k4_csp(sigma=2):
    """All pairs allowed on every edge of the complete 4-vertex graph."""
    g = complete_graph(4)
    allowed = frozenset(product(range(sigma), repeat=2))
    return Csp2Instance(g, sigma, {e: allowed for e in g.edge_list})


class TestLineGraphForm:
    def test_k4_shape(self):
        pi = csp2_to_rcsp(full_k4_csp())
        assert pi.graph.vertex_count == 6
        assert len(pi.graph.edges) == 12
        assert pi.graph.is_regular(4)

    def test_requires_cubic_graph(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        gamma = Csp2Instance(g, 2, {e: frozenset({(0, 0)}) for e in g.edge_list})
        with pytest.raises(ValueError):
            csp2_to_rcsp(gamma)

    def test_alphabets_are_the_allowed_pairs(self):
        # decode every projection apart from the reduction: shared symbol s
        # is the pair divmod(order[s], sigma), and it misses the sentinel of
        # line vertex z exactly when z's base edge allows that pair
        for seed in range(3, 8):
            gamma = gen_csp2(4 + 2 * (seed % 2), 2 + seed % 2, random.Random(seed),
                             regular3=True)
            sigma = gamma.sigma_size
            base_edges = gamma.graph.edge_list
            order = sorted({a * sigma + b for allowed in gamma.constraints.values()
                            for a, b in allowed})
            pi = csp2_to_rcsp(gamma)
            assert pi.sigma_size == len(order)
            assert pi.upsilon_size == sigma + len(base_edges)
            for (x, y), sides in pi.projections.items():
                (shared,) = set(base_edges[x]) & set(base_edges[y])
                for z, proj in zip((x, y), sides):
                    e = base_edges[z]
                    for s, image in enumerate(proj):
                        pair = divmod(order[s], sigma)
                        if pair in gamma.constraints[e]:
                            assert image == pair[e.index(shared)]
                        else:
                            assert image == sigma + z

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
            pi = csp2_to_rcsp(gamma)
            phi = rcsp_assignment_from_csp2(gamma, lam)
            assert is_consistent(pi, phi)
            assert phi.size() == len(gamma.graph.edges)

    def test_labeling_reads_back(self):
        rng = random.Random(6)
        gamma = gen_csp2(4, 3, rng, regular3=True, planted=True)
        lam = next(
            assignment
            for assignment in product(range(3), repeat=4)
            if csp_value(gamma, assignment) == 6
        )
        phi = rcsp_assignment_from_csp2(gamma, lam)
        assert csp2_assignment_from_rcsp(gamma, phi) == lam
        # each vertex copies its first labeled incident edge, else 0: here
        # edges (0, 1) and (0, 2) carry the pairs (0, 0) and (1, 1)
        phi = PartialAssignment((0, 3, None, None, None, None))
        assert csp2_assignment_from_rcsp(full_k4_csp(), phi) == (0, 0, 1, 0)


class TestCollapseToSharedAlphabet:
    def test_single_shared_symbol(self):
        # every edge allows only (1, 1): the lone code 3 becomes symbol 0
        g = complete_graph(4)
        gamma = Csp2Instance(g, 2, {e: frozenset({(1, 1)}) for e in g.edge_list})
        pi = csp2_to_rcsp(gamma)
        assert pi.sigma_size == 1
        assert all(sides == ((1,), (1,)) for sides in pi.projections.values())
        size, witness = par_bruteforce(pi)
        assert size == 6
        assert csp2_assignment_from_rcsp(gamma, witness) == (1, 1, 1, 1)

    def test_out_of_alphabet_symbols_cannot_satisfy_edges(self):
        # edge (0, 1) allows (0, 1) and (1, 0), the others only (1, 1): the
        # shared alphabet is the codes {1, 2, 3}, and symbol 2, the pair
        # (1, 1), lies outside line vertex 0's own pairs, so it projects to
        # a sentinel that no neighboring line vertex matches
        g = complete_graph(4)
        gamma = Csp2Instance(g, 2, {
            e: frozenset({(0, 1), (1, 0)} if e == (0, 1) else {(1, 1)}) for e in g.edge_list
        })
        pi = csp2_to_rcsp(gamma)
        assert pi.sigma_size == 3
        # line vertices 1-4 are the edges meeting (0, 1)
        for z in range(1, 5):
            for other in range(3):
                values = [2, None, None, None, None, None]
                values[z] = other
                assert not is_consistent(pi, PartialAssignment(tuple(values)))
        # in-pair symbols agree exactly when the pairs share the endpoint symbol
        assert is_consistent(pi, PartialAssignment((1, 2, None, None, None, None)))
        assert not is_consistent(pi, PartialAssignment((1, None, None, 2, None, None)))
        assert par_bruteforce(pi)[0] == 5
        # read back: the out-of-pair symbol stands for the smallest allowed pair
        phi = PartialAssignment((2, None, None, None, None, None))
        assert csp2_assignment_from_rcsp(gamma, phi) == (0, 1, 0, 0)


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
