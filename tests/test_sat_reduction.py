import math
import random
import warnings
from bisect import bisect_left
from fractions import Fraction
from itertools import product

import pytest

from knapreduce.csp import (
    RcspInstance,
    SatInstance,
    clause_variables,
    count_satisfied,
    is_consistent,
    par_bruteforce,
)
from knapreduce.disperser import build_disperser
from knapreduce.embedding import simple_connected_embedding, validate_embedding
from knapreduce.errors import CapExceededError
from knapreduce.generators import gen_sat, gen_sat_satisfiable
from knapreduce.graphs import Graph, complete_graph, graph_from_edges
from knapreduce.reductions import (
    _codes,
    _host_codes,
    _truth_table,
    build_clause_conflict_graph,
    rcsp_assignment_from_sat,
    sat_to_rcsp,
    sat_to_rcsp_disperser_route,
    sat_to_rcsp_embedding_route,
)


def sat(n, clauses, bound=8):
    return SatInstance(n, tuple(tuple(c) for c in clauses), bound)


def unpack(code, variables):
    t = len(variables)
    return {v: (code >> (t - 1 - i)) & 1 for i, v in enumerate(variables)}


def pack(assignment, variables):
    code = 0
    for v in variables:
        code = (code << 1) | assignment[v]
    return code


def reference_satisfying_codes(phi, clause_indices):
    """Every candidate code unpacked into an assignment dict and tested
    literal by literal."""
    variables = tuple(sorted(set().union(
        *(clause_variables(phi.clauses[c]) for c in clause_indices)
    )))
    good = []
    for code in range(1 << len(variables)):
        assignment = unpack(code, variables)
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in phi.clauses[c])
            for c in clause_indices
        ):
            good.append(code)
    return variables, tuple(good)


def reference_sat_to_rcsp(phi, host, clause_sets):
    """Projections by unpack -> restrict -> repack, code by code."""
    per_vertex = [
        reference_satisfying_codes(phi, tuple(sorted(set(chosen))))
        for chosen in clause_sets
    ]
    sigma_size = max([1] + [len(codes) for _, codes in per_vertex])
    shared = {
        (x, y): tuple(sorted(set(per_vertex[x][0]) & set(per_vertex[y][0])))
        for (x, y) in host.edge_list
    }
    packed_range = 1 << max((len(c) for c in shared.values()), default=0)
    projections = {}
    for (x, y), common in shared.items():
        side = []
        for vertex in (x, y):
            variables, codes = per_vertex[vertex]
            side.append(tuple(
                pack(unpack(codes[s], variables), common) if s < len(codes)
                else packed_range + vertex
                for s in range(sigma_size)
            ))
        projections[(x, y)] = tuple(side)
    return RcspInstance(host, sigma_size, packed_range + host.vertex_count, projections)


def bitwise_projection(variables, codes, common):
    """The one-pass-per-common-variable loop that sat_to_rcsp ran before it
    moved the variables of one shift together, kept verbatim."""
    # each code restricted to the common variables, packed likewise
    t, k = len(variables), len(common)
    proj = [0] * len(codes)
    for j, v in enumerate(common):
        src, dst = t - 1 - variables.index(v), k - 1 - j
        proj = [p | ((code >> src) & 1) << dst for p, code in zip(proj, codes)]
    return proj


def seeded_formulas(base, count):
    for i in range(count):
        rng = random.Random(base + i)
        n, bound = rng.randint(3, 8), rng.randint(3, 4)
        m = rng.randint(0, min(7, n * bound // 3))
        if i % 2:
            phi, _ = gen_sat_satisfiable(n, m, bound, rng)
        else:
            phi = gen_sat(n, m, bound, rng)
        yield phi, rng


def route_clause_sets(base, count):
    """(formula, host, clause sets) of both routes on seeded formulas: the
    embedding route's host, and a disperser family on a complete host."""
    for i, (phi, rng) in enumerate(seeded_formulas(base, count)):
        host, emb = simple_connected_embedding(build_clause_conflict_graph(phi), 8)
        yield phi, host, [
            frozenset(c for c in range(phi.clause_count) if x in emb.images[c])
            for x in range(host.vertex_count)
        ]
        m = phi.clause_count
        if m:
            k, cover, eps = rng.randint(3, 6), 2, Fraction(1, 4)
            set_size = min(m, math.ceil(Fraction(3 * m) / (eps * cover)))
            yield phi, complete_graph(k), build_disperser(m, k, set_size, cover, eps, 80 + i).sets


class TestConflictGraph:
    def test_disjoint_clauses(self):
        phi = sat(6, [(1, 2, 3), (4, 5, 6)])
        assert build_clause_conflict_graph(phi).edges == frozenset()

    def test_shared_variable(self):
        phi = sat(5, [(1, 2, 3), (-1, 4, 5)])
        assert build_clause_conflict_graph(phi).edges == frozenset({(0, 1)})

    def test_pairwise_sharing_triangle(self):
        phi = sat(5, [(1, 2, 3), (1, 4, 5), (2, 4, 3)])
        g = build_clause_conflict_graph(phi)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


class TestCoreReduction:
    def test_single_vertex_all_clauses(self):
        phi = sat(4, [(1, 2, 3), (-2, 3, 4)])
        pi = sat_to_rcsp(phi, Graph(1), [frozenset({0, 1})])
        size, _ = par_bruteforce(pi)
        assert size == 1

    def test_satisfiable_formula_fills_any_host(self):
        rng = random.Random(31)
        for i in range(15):
            phi, hidden = gen_sat_satisfiable(
                rng.randint(4, 8), rng.randint(1, 4), 4, rng
            )
            host = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
            clause_sets = [
                frozenset(
                    c for c in range(phi.clause_count) if rng.random() < 0.7
                )
                for _ in range(3)
            ]
            pi = sat_to_rcsp(phi, host, clause_sets)
            # projecting the hidden assignment yields a total consistent witness
            witness = rcsp_assignment_from_sat(phi, host, clause_sets, hidden)
            assert is_consistent(pi, witness)
            assert witness.size() == host.vertex_count
            size, _ = par_bruteforce(pi, max_nodes=500_000)
            assert size == host.vertex_count

    def test_projection_rejects_a_falsifying_assignment(self):
        # vertex 0 keeps codes 1..7 of (1 2 3), vertex 1 codes 0..6 of
        # (-1 -2 -3): all-false misses below the first, all-true past the last
        phi = sat(3, [(1, 2, 3), (-1, -2, -3)])
        clause_sets = [frozenset({0}), frozenset({1})]
        assert rcsp_assignment_from_sat(phi, Graph(2), clause_sets, [True, False, True]).values == (4, 5)
        with pytest.raises(ValueError, match="vertex 0"):
            rcsp_assignment_from_sat(phi, Graph(2), clause_sets, [False] * 3)
        with pytest.raises(ValueError, match="vertex 1"):
            rcsp_assignment_from_sat(phi, Graph(2), clause_sets, [True] * 3)

    @pytest.mark.parametrize("clause_sets, message", [
        ([[0], [1], [-1]], "^clause index -1 out of range$"),
        ([[0], [1], [99]], "^clause index 99 out of range$"),
        ([[0], [1]], "^one clause set per host vertex required$"),
    ], ids=["negative", "past-the-end", "too-few"])
    def test_both_directions_refuse_invalid_clause_sets(self, clause_sets, message):
        # index -1 must not read the last clause, nor a short list end in IndexError
        phi, hidden = gen_sat_satisfiable(8, 5, 3, random.Random(1))
        host = complete_graph(3)
        with pytest.raises(ValueError, match=message):
            sat_to_rcsp(phi, host, clause_sets)
        with pytest.raises(ValueError, match=message):
            rcsp_assignment_from_sat(phi, host, clause_sets, hidden)

    @pytest.mark.parametrize("length", [7, 9])
    def test_projection_refuses_an_assignment_of_the_wrong_length(self, length):
        phi, hidden = gen_sat_satisfiable(8, 5, 3, random.Random(1))
        assignment = (list(hidden) + [True])[:length]
        with pytest.raises(ValueError, match=f"^assignment length {length} != variable count 8$"):
            rcsp_assignment_from_sat(phi, complete_graph(3), [[0], [1], [2]], assignment)

    def test_unsatisfiable_pattern_instance_cross_checked(self):
        # all 8 sign patterns on 3 variables: no assignment satisfies them all
        phi = sat(3, [
            (s1 * 1, s2 * 2, s3 * 3) for s1, s2, s3 in product((1, -1), repeat=3)
        ])
        host = graph_from_edges(2, [(0, 1)])
        clause_sets = [frozenset(range(4)), frozenset(range(3, 8))]
        pi = sat_to_rcsp(phi, host, clause_sets)
        size, witness = par_bruteforce(pi)
        assert is_consistent(pi, witness)
        # independent oracle: a pair is consistent iff the projections agree;
        # otherwise any single vertex can still be assigned alone
        pu, pv = pi.projections[(0, 1)]
        agreeing = any(
            pu[a] == pv[b] for a in range(pi.sigma_size) for b in range(pi.sigma_size)
        )
        assert size == (2 if agreeing else 1)

    def test_empty_clause_set_gives_free_vertex(self):
        phi = sat(3, [(1, 2, 3)])
        pi = sat_to_rcsp(phi, Graph(2), [frozenset({0}), frozenset()])
        size, _ = par_bruteforce(pi)
        assert size == 2

    def test_unsatisfiable_clause_set_warns(self):
        phi = sat(3, [
            (s1 * 1, s2 * 2, s3 * 3) for s1, s2, s3 in product((1, -1), repeat=3)
        ])
        with pytest.warns(UserWarning, match="unsatisfiable"):
            pi = sat_to_rcsp(phi, Graph(1), [frozenset(range(8))])
        size, _ = par_bruteforce(pi)
        # the lone vertex can still take a (sentinel-projected) symbol
        assert size == 1

    def test_alphabet_cap(self):
        # six disjoint clauses span 18 variables, and 2^18 candidates exceed
        # the 2^16 cap; 300 variables show the check precedes any table
        for clause_count in (6, 100):
            n = 3 * clause_count
            phi = sat(n, [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(clause_count)])
            with pytest.raises(CapExceededError, match=rf"^2\^{n} candidate assignments"):
                sat_to_rcsp(phi, Graph(1), [frozenset(range(clause_count))])

    def test_alphabet_cap_boundary_is_accepted(self):
        # 16 variables: 2^16 candidates are exactly the cap.  The triples
        # 1-3, ..., 10-12 each keep 7 of 8 assignments; on 13-16 the clauses
        # (13 14 15) and (-14 -15 -16) each falsify 2 of 16 and never both
        phi = sat(16, [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(5)] + [(-14, -15, -16)])
        variables, table = _truth_table(phi, tuple(range(6)))
        codes = _codes(table)
        assert variables == tuple(range(1, 17))
        assert len(codes) == 7 ** 4 * (16 - 2 - 2)
        # least and greatest satisfying assignments, variable 1 first
        assert codes[0] == int("001" * 4 + "0010", 2)
        assert codes[-1] == int("111" * 4 + "1110", 2)
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert sat_to_rcsp(phi, Graph(1), [range(6)]).sigma_size == len(codes)

    def test_sentinels_never_agree_across_vertices(self):
        phi = sat(3, [(1, 2, 3)])
        host = graph_from_edges(2, [(0, 1)])
        pi = sat_to_rcsp(phi, host, [frozenset({0}), frozenset({0})])
        pu, pv = pi.projections[(0, 1)]
        spare = range(len(pu))
        # padded symbols (if any) map to distinct per-vertex sentinels
        for s in spare:
            if pu[s] >= pi.upsilon_size - host.vertex_count:
                assert pu[s] != pv[s]


class TestRoutes:
    def test_embedding_route_completeness(self):
        rng = random.Random(77)
        for i in range(10):
            phi, _ = gen_sat_satisfiable(rng.randint(4, 9), rng.randint(2, 5), 4, rng)
            pi = sat_to_rcsp_embedding_route(phi, 7)
            assert pi.graph.vertex_count <= 7
            size, _ = par_bruteforce(pi, max_nodes=2_000_000)
            assert size == pi.graph.vertex_count

    def test_embedding_route_pieces_validate(self):
        rng = random.Random(78)
        phi, _ = gen_sat_satisfiable(6, 4, 4, rng)
        conflict = build_clause_conflict_graph(phi)
        host, emb = simple_connected_embedding(conflict, 7)
        ok, depth = validate_embedding(emb)
        assert ok and depth >= 1

    def test_disperser_route_completeness(self):
        rng = random.Random(79)
        for i in range(8):
            phi, _ = gen_sat_satisfiable(rng.randint(4, 8), rng.randint(2, 4), 4, rng)
            k = rng.randint(4, 6)
            pi = sat_to_rcsp_disperser_route(phi, k, 2, "1/4", seed=500 + i)
            assert pi.graph.vertex_count == k
            size, _ = par_bruteforce(pi, max_nodes=2_000_000)
            assert size == k

    def test_disperser_route_observed_shortfall_on_unsatisfiable(self):
        # heavily contradictory formula: max-partial falls below the host size
        phi = sat(3, [
            (s1 * 1, s2 * 2, s3 * 3) for s1, s2, s3 in product((1, -1), repeat=3)
        ])
        with pytest.warns(UserWarning):
            pi = sat_to_rcsp_disperser_route(phi, 4, 2, "1/4", seed=9)
        size, _ = par_bruteforce(pi, max_nodes=500_000)
        assert size < pi.graph.vertex_count

    def test_zero_clause_formula_through_both_routes(self):
        phi = sat(3, [])
        for pi in (
            sat_to_rcsp_embedding_route(phi, 7),
            sat_to_rcsp_disperser_route(phi, 4, 2, "1/4", seed=1),
        ):
            size, _ = par_bruteforce(pi)
            assert size == pi.graph.vertex_count

    def test_disperser_route_refuses_degenerate_parameters_up_front(self):
        phi, _ = gen_sat_satisfiable(8, 5, 3, random.Random(1))
        # the union of no sets covers none of the 5 clauses, which no draw mends
        with pytest.raises(ValueError, match=r"^cover count r = 0 covers no element, but epsilon "
                                             r"1/4 needs \(1 - epsilon\) \* 5 = 15/4 covered$"):
            sat_to_rcsp_disperser_route(phi, 6, 0, "1/4", seed=1)
        for cover_count in (0, 2):
            with pytest.raises(ValueError, match=r"^host size k must be nonnegative, got -1$"):
                sat_to_rcsp_disperser_route(phi, -1, cover_count, "1/4", seed=1)
            with pytest.raises(ValueError, match=r"^host size k must be nonnegative, got -1$"):
                sat_to_rcsp_disperser_route(sat(3, []), -1, cover_count, "1/4", seed=1)

    def test_disperser_route_with_nothing_to_cover_needs_no_cover_count(self):
        # epsilon = 1 asks for no clause covered, and a clauseless formula has none
        phi, _ = gen_sat_satisfiable(8, 5, 3, random.Random(1))
        pi = sat_to_rcsp_disperser_route(phi, 6, 0, 1, seed=1)
        assert pi == sat_to_rcsp(phi, complete_graph(6), [range(5)] * 6)
        for k in (0, 4):
            pi = sat_to_rcsp_disperser_route(sat(3, []), k, 0, "1/4", seed=1)
            assert pi.graph.vertex_count == k

    def test_routes_are_deterministic(self):
        rng = random.Random(80)
        phi, _ = gen_sat_satisfiable(6, 3, 4, rng)
        a = sat_to_rcsp_disperser_route(phi, 5, 2, "1/4", seed=3)
        b = sat_to_rcsp_disperser_route(phi, 5, 2, "1/4", seed=3)
        assert a.projections == b.projections


class TestAgainstReferenceBuilds:
    def test_satisfying_codes_match_reference_and_clause_count(self):
        for phi, rng in seeded_formulas(8100, 30):
            m = phi.clause_count
            subsets = [(), tuple(range(m))]
            subsets += [tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for _ in range(3)
                        if m]
            for chosen in subsets:
                variables, table = _truth_table(phi, chosen)
                codes = _codes(table)
                assert (variables, codes) == reference_satisfying_codes(phi, chosen)
                sub = SatInstance(phi.variable_count, tuple(phi.clauses[c] for c in chosen),
                                  phi.occurrence_bound)
                for values in product((0, 1), repeat=phi.variable_count):
                    code = pack({v: values[v - 1] for v in variables}, variables)
                    satisfied = count_satisfied(sub, values) == len(chosen)
                    assert (code in codes) == satisfied, (chosen, values)

    def test_embedding_route_matches_reference(self):
        for phi, _ in seeded_formulas(8200, 12):
            host, emb = simple_connected_embedding(build_clause_conflict_graph(phi), 8)
            clause_sets = [
                frozenset(c for c in range(phi.clause_count) if x in emb.images[c])
                for x in range(host.vertex_count)
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unsatisfiable clause sets warn
                assert sat_to_rcsp_embedding_route(phi, 8) == reference_sat_to_rcsp(
                    phi, host, clause_sets
                )

    def test_disperser_route_matches_reference(self):
        for i, (phi, rng) in enumerate(seeded_formulas(8300, 12)):
            m = phi.clause_count
            if m == 0:
                continue
            k, cover, eps = rng.randint(3, 6), 2, Fraction(1, 4)
            set_size = min(m, math.ceil(Fraction(3 * m) / (eps * cover)))
            family = build_disperser(m, k, set_size, cover, eps, 40 + i)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unsatisfiable clause sets warn
                assert sat_to_rcsp_disperser_route(
                    phi, k, cover, eps, 40 + i
                ) == reference_sat_to_rcsp(phi, complete_graph(k), family.sets)

    def test_disperser_route_refuses_a_float_epsilon(self):
        # Fraction(0.7) lies below 7/10, which would give 6-clause sets
        # where 7/10 gives ceil(21 / (7/10 * 6)) = 5
        phi, _ = gen_sat_satisfiable(8, 7, 3, random.Random(5))
        with pytest.raises(ValueError, match=r"^epsilon 0\.7 is a float; pass an int, "
                                             r"a Fraction or 'p/q'$"):
            sat_to_rcsp_disperser_route(phi, 6, 6, 0.7, seed=3)
        family = build_disperser(7, 6, 5, 6, Fraction(7, 10), 3)
        expected = reference_sat_to_rcsp(phi, complete_graph(6), family.sets)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unsatisfiable clause sets warn
            for epsilon in (Fraction(7, 10), "7/10", "0.7"):
                assert sat_to_rcsp_disperser_route(phi, 6, 6, epsilon, seed=3) == expected
            assert sat_to_rcsp_disperser_route(phi, 6, 6, 0, seed=3) == reference_sat_to_rcsp(
                phi, complete_graph(6), build_disperser(7, 6, 7, 6, 0, 3).sets)

    def test_projection_passes_match_the_bitwise_loop_on_both_routes(self):
        hosts = []
        for i, (phi, rng) in enumerate(seeded_formulas(8400, 16)):
            host, emb = simple_connected_embedding(build_clause_conflict_graph(phi), 8)
            hosts.append((phi, host, [
                frozenset(c for c in range(phi.clause_count) if x in emb.images[c])
                for x in range(host.vertex_count)
            ]))
            m = phi.clause_count
            if m:
                k, cover, eps = rng.randint(3, 6), 2, Fraction(1, 4)
                set_size = min(m, math.ceil(Fraction(3 * m) / (eps * cover)))
                family = build_disperser(m, k, set_size, cover, eps, 60 + i)
                hosts.append((phi, complete_graph(k), family.sets))
        all_common = set()
        for phi, host, clause_sets in hosts:
            per_vertex = _host_codes(phi, host, clause_sets)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unsatisfiable clause sets warn
                pi = sat_to_rcsp(phi, host, clause_sets)
            for (x, y), sides in pi.projections.items():
                common = tuple(sorted(set(per_vertex[x][0]) & set(per_vertex[y][0])))
                for vertex, side in zip((x, y), sides):
                    variables, codes = per_vertex[vertex]
                    expected = bitwise_projection(variables, codes, common)
                    assert side[:len(codes)] == tuple(expected), ((x, y), vertex)
                    all_common.add(common == variables)
        # vertices whose variables are all common, and vertices with others
        assert all_common == {True, False}

    def test_forward_map_ranks_match_the_reference_on_both_routes(self):
        # every assignment either projects to each vertex's rank among the
        # reference codes, or is refused at the first vertex it falsifies
        outcomes = set()
        for phi, host, clause_sets in route_clause_sets(8500, 10):
            per_vertex = [reference_satisfying_codes(phi, tuple(sorted(set(chosen))))
                          for chosen in clause_sets]
            for values in product((0, 1), repeat=phi.variable_count):
                assignment = {v: values[v - 1] for v in range(1, phi.variable_count + 1)}
                at = [(pack(assignment, variables), codes) for variables, codes in per_vertex]
                falsified = [x for x, (code, codes) in enumerate(at) if code not in codes]
                outcomes.add(bool(falsified))
                if falsified:
                    first = falsified[0]
                    with pytest.raises(ValueError, match=f"^assignment does not satisfy "
                                                         f"the clause set of vertex {first}$"):
                        rcsp_assignment_from_sat(phi, host, clause_sets, values)
                else:
                    ranks = tuple(bisect_left(codes, code) for code, codes in at)
                    assert rcsp_assignment_from_sat(phi, host, clause_sets, values).values == ranks
        assert outcomes == {True, False}
