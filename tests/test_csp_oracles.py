import dataclasses
import random
from itertools import product

import pytest

from knapreduce.csp import (
    Csp2Instance,
    PartialAssignment,
    RcspInstance,
    SatInstance,
    count_satisfied,
    csp_opt_bruteforce,
    csp_value,
    is_consistent,
    par_bruteforce,
    sat_opt_bruteforce,
)
from knapreduce.errors import DEFAULT_NODE_CAP, CapExceededError
from knapreduce.generators import gen_csp2, gen_rcsp, gen_rcsp_planted, gen_sat_satisfiable
from knapreduce.graphs import Graph, graph_from_edges
from knapreduce.reductions import (
    csp2_to_rcsp,
    sat_to_rcsp_disperser_route,
    sat_to_rcsp_embedding_route,
)


def sat(n, clauses, bound=8):
    return SatInstance(n, tuple(tuple(c) for c in clauses), bound)


def all_sign_patterns():
    """All 8 sign patterns of a clause on variables 1, 2, 3."""
    return [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1, s2, s3 in product((1, -1), repeat=3)
    ]


class TestSat:
    def test_count_satisfied_empty(self):
        assert count_satisfied(sat(3, []), [True, False, True]) == 0

    def test_count_satisfied_singleton(self):
        assert count_satisfied(sat(3, [(1, 2, 3)]), [True] * 3) == 1

    def test_count_satisfied_two_clauses_all_true(self):
        phi = sat(3, [(1, 2, 3), (-1, -2, -3)])
        assert count_satisfied(phi, [True] * 3) == 1

    def test_count_satisfied_length_mismatch(self):
        with pytest.raises(ValueError):
            count_satisfied(sat(3, [(1, 2, 3)]), [True, True])

    def test_opt_empty_and_singleton(self):
        assert sat_opt_bruteforce(sat(3, [])) == 0
        assert sat_opt_bruteforce(sat(3, [(1, 2, 3)])) == 1

    def test_opt_all_patterns_is_seven(self):
        # every assignment falsifies exactly the one pattern it negates
        phi = sat(3, all_sign_patterns())
        assert sat_opt_bruteforce(phi) == 7

    def test_opt_matches_max_of_count(self):
        phi = sat(4, [(1, -2, 3), (-1, 2, 4), (2, 3, -4)], bound=4)
        best = max(
            count_satisfied(phi, [bool((m >> v) & 1) for v in range(4)])
            for m in range(16)
        )
        assert sat_opt_bruteforce(phi) == best

    def test_opt_refuses_above_cap(self):
        with pytest.raises(CapExceededError):
            sat_opt_bruteforce(sat(30, []))

    def test_clause_validation(self):
        with pytest.raises(ValueError):
            sat(3, [(1, 1, 2)])
        with pytest.raises(ValueError):
            sat(2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            SatInstance(3, ((1, 2, 3), (1, 2, 3)), occurrence_bound=1)


class TestCsp2:
    def test_no_edges(self):
        gamma = Csp2Instance(Graph(3), 2, {})
        assert csp_value(gamma, (0, 1, 0)) == 0
        assert csp_opt_bruteforce(gamma) == 0

    def test_always_satisfied_edge(self):
        full = frozenset(product(range(2), repeat=2))
        gamma = Csp2Instance(graph_from_edges(2, [(0, 1)]), 2, {(0, 1): full})
        for a, b in product(range(2), repeat=2):
            assert csp_value(gamma, (a, b)) == 1

    def test_single_pair_constraint(self):
        gamma = Csp2Instance(
            graph_from_edges(2, [(0, 1)]), 2, {(0, 1): frozenset({(0, 0)})}
        )
        assert csp_opt_bruteforce(gamma) == 1
        assert csp_value(gamma, (0, 1)) == 0

    def test_missing_vertex_is_an_error(self):
        gamma = Csp2Instance(Graph(2), 2, {})
        with pytest.raises(ValueError):
            csp_value(gamma, (0,))

    def test_empty_constraint_rejected(self):
        with pytest.raises(ValueError):
            Csp2Instance(graph_from_edges(2, [(0, 1)]), 2, {(0, 1): frozenset()})

    def test_opt_matches_exhaustive(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 4)
            sigma = rng.randint(1, 3)
            edges = graph_from_edges(
                n, rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)],
                              rng.randint(1, n * (n - 1) // 2)),
            )
            constraints = {}
            for e in edges.edge_list:
                pairs = {
                    p for p in product(range(sigma), repeat=2) if rng.random() < 0.6
                }
                constraints[e] = frozenset(pairs or {(0, 0)})
            gamma = Csp2Instance(edges, sigma, constraints)
            expected = max(
                csp_value(gamma, assignment)
                for assignment in product(range(sigma), repeat=n)
            )
            assert csp_opt_bruteforce(gamma) == expected

    def test_node_budget(self):
        # a triangle asking two symbols to differ on every edge: no
        # assignment satisfies all three, so the search never stops early
        triangle = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        differ = frozenset({(0, 1), (1, 0)})
        gamma = Csp2Instance(triangle, 2, {e: differ for e in triangle.edge_list})
        assert csp_opt_bruteforce(gamma, max_nodes=6) == 2
        with pytest.raises(CapExceededError, match="node budget 5"):
            csp_opt_bruteforce(gamma, max_nodes=5)

    def test_search_deeper_than_the_recursion_limit(self):
        path = graph_from_edges(2000, [(v, v + 1) for v in range(1999)])
        gamma = Csp2Instance(path, 1, {e: frozenset({(0, 0)}) for e in path.edge_list})
        assert csp_opt_bruteforce(gamma) == 1999


def swap_instance():
    """Two vertices, one edge; identity projection on one side, swap on the
    other, over a 2-symbol alphabet and 2-element range."""
    g = graph_from_edges(2, [(0, 1)])
    return RcspInstance(g, 2, 2, {(0, 1): ((0, 1), (1, 0))})


class TestRcsp:
    @pytest.mark.parametrize(
        "upsilon, projections, message",
        [
            pytest.param(
                2, {(0, 1): ((0, -1), (0, 1))}, "projection on (0, 1) maps outside the range",
                id="negative-entry",
            ),
            pytest.param(
                2, {(0, 1): ((0, 1), (2, 1))}, "projection on (0, 1) maps outside the range",
                id="entry-at-upsilon",
            ),
            pytest.param(
                2, {(0, 1): ((0, 1), (0,))}, "projection on (0, 1) not total on the alphabet",
                id="wrong-length",
            ),
            pytest.param(
                2, {(0, 2): ((0, 1), (0, 1))}, "projections must be keyed exactly by the edge set",
                id="wrong-keys",
            ),
            pytest.param(
                0, {(0, 1): ((0, 0), (0, 0))}, "upsilon_size must be at least 1",
                id="empty-range",
            ),
        ],
    )
    def test_validation_messages(self, upsilon, projections, message):
        with pytest.raises(ValueError) as excinfo:
            RcspInstance(graph_from_edges(3, [(0, 1)]), 2, upsilon, projections)
        assert str(excinfo.value) == message

    def test_boundary_entries_and_an_empty_alphabet_are_accepted(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        RcspInstance(g, 0, 1, {(0, 1): ((), ()), (1, 2): ((), ())})
        RcspInstance(g, 2, 2, {(0, 1): ((0, 1), (1, 1)), (1, 2): ((1, 0), (0, 0))})

    def test_all_bottom_is_consistent(self):
        pi = swap_instance()
        assert is_consistent(pi, PartialAssignment((None, None)))

    def test_single_vertex_any_symbol(self):
        pi = RcspInstance(Graph(1), 2, 1, {})
        assert is_consistent(pi, PartialAssignment((1,)))

    def test_swap_projections(self):
        pi = swap_instance()
        assert is_consistent(pi, PartialAssignment((0, 1)))
        assert not is_consistent(pi, PartialAssignment((0, 0)))

    def test_symbols_outside_alphabet_are_inconsistent(self):
        g = graph_from_edges(2, [(0, 1)])
        identity = RcspInstance(g, 2, 2, {(0, 1): ((0, 1), (0, 1))})
        # negative symbols must not wrap around to the last projection entry
        assert not is_consistent(identity, PartialAssignment((-1, 1)))
        assert not is_consistent(identity, PartialAssignment((2, 1)))
        assert not is_consistent(identity, PartialAssignment((2, None)))

    def test_par_edgeless(self):
        pi = RcspInstance(Graph(3), 2, 1, {})
        size, witness = par_bruteforce(pi)
        assert size == 3
        assert witness.size() == 3

    def test_par_swap(self):
        size, witness = par_bruteforce(swap_instance())
        assert size == 2
        assert witness.values == (0, 1)

    def test_par_unsatisfiable_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        pi = RcspInstance(g, 2, 2, {(0, 1): ((0, 0), (1, 1))})
        size, witness = par_bruteforce(pi)
        assert size == 1
        assert is_consistent(pi, witness)

    def test_par_witness_and_maximality_by_exhaustion(self):
        rng = random.Random(4)
        for _ in range(15):
            n = rng.randint(2, 4)
            sigma = rng.randint(1, 2)
            upsilon = rng.randint(1, 2)
            pairs = rng.sample(
                [(u, v) for u in range(n) for v in range(u + 1, n)],
                rng.randint(1, n * (n - 1) // 2),
            )
            g = graph_from_edges(n, pairs)
            projections = {
                e: (
                    tuple(rng.randrange(upsilon) for _ in range(sigma)),
                    tuple(rng.randrange(upsilon) for _ in range(sigma)),
                )
                for e in g.edge_list
            }
            pi = RcspInstance(g, sigma, upsilon, projections)
            size, witness = par_bruteforce(pi)
            assert is_consistent(pi, witness)
            assert witness.size() == size
            # exhaustive re-check that nothing bigger is consistent
            best = 0
            for values in product([None, *range(sigma)], repeat=n):
                phi = PartialAssignment(values)
                if is_consistent(pi, phi):
                    best = max(best, phi.size())
            assert best == size

    def test_restriction_of_consistent_stays_consistent(self):
        for i in range(15):
            rng = random.Random(1500 + i)
            n = rng.randint(2, 5)
            g = graph_from_edges(
                n,
                rng.sample(
                    [(u, v) for u in range(n) for v in range(u + 1, n)],
                    rng.randint(1, n * (n - 1) // 2),
                ),
            )
            sigma, upsilon = rng.randint(1, 3), rng.randint(1, 3)
            pi = RcspInstance(
                g,
                sigma,
                upsilon,
                {
                    e: (
                        tuple(rng.randrange(upsilon) for _ in range(sigma)),
                        tuple(rng.randrange(upsilon) for _ in range(sigma)),
                    )
                    for e in g.edge_list
                },
            )
            _, witness = par_bruteforce(pi)
            for _ in range(10):
                values = tuple(
                    s if s is not None and rng.random() < 0.5 else None
                    for s in witness.values
                )
                assert is_consistent(pi, PartialAssignment(values))

    def test_total_consistent_assignment_has_full_size(self):
        pi = swap_instance()
        phi = PartialAssignment((0, 1))
        assert is_consistent(pi, phi)
        assert phi.size() == pi.graph.vertex_count

    def test_par_deeper_than_the_recursion_limit(self):
        pi = RcspInstance(Graph(2000), 1, 1, {})
        assert par_bruteforce(pi) == (2000, PartialAssignment((0,) * 2000))

    def test_par_path_deeper_than_the_recursion_limit(self):
        # a 2000-vertex path of equality edges whose last edge no pair
        # satisfies: the search walks the all-0 chain, backtracks to the
        # root and walks the all-1 chain: 2000 deep, 3,999 nodes
        n = 2000
        g = graph_from_edges(n, [(v, v + 1) for v in range(n - 1)])
        projections = {(v, v + 1): ((0, 1), (0, 1)) for v in range(n - 2)}
        projections[(n - 2, n - 1)] = ((0, 1), (2, 2))
        pi = RcspInstance(g, 2, 3, projections)
        expected = result_and_trip_point(reference_par_bruteforce, pi)
        assert result_and_trip_point(par_bruteforce, pi) == expected
        assert expected == ((n - 1, PartialAssignment((0,) * (n - 1) + (None,))), 2 * n - 1)

    def test_par_node_budget(self):
        pi = RcspInstance(Graph(6), 2, 1, {})
        with pytest.raises(CapExceededError):
            par_bruteforce(pi, max_nodes=2)



# The two CSP searches as they were when each counted its own nodes and
# every leaf and bound-pruned child was a generator of its own, kept
# verbatim as references, with the one-argument stack driver of their day.


def reference_symbol_classes(pi: RcspInstance, v: int):
    """Group vertex v's symbols by their projections on its incident edges.

    An item's cost row depends on its symbol only through v's side of the
    projection on each edge in pi.graph.incident[v], so symbols with one
    key (the tuple of those projections) have equal rows.  Returns
    (columns, width, keys): columns holds v's side on each incident edge
    over the width distinct keys in first-occurrence order, and keys lists
    each symbol's key.  When no key repeats, columns are the projection
    tuples themselves, width is sigma and keys is None.
    """
    sides = [pi.projections[e][e.index(v)] for e in pi.graph.incident[v]]
    keys = list(zip(*sides)) if sides else [()] * pi.sigma_size
    distinct = dict.fromkeys(keys)
    if len(distinct) == pi.sigma_size:
        return sides, pi.sigma_size, None
    return list(zip(*distinct)), len(distinct), keys


def table_hosts():
    """Rectangular CSPs of every shape the knapsack targets are built from:
    cubic random ones, both 3-SAT routes' hosts, binary-CSP line graphs,
    alphabets of sizes 0 and 1, and vertices with no incident edge."""
    for seed in range(6):
        rng = random.Random(7600 + seed)
        yield gen_rcsp(rng.choice((4, 6, 8)), rng.randint(1, 4), rng.randint(1, 5), rng,
                       regular3=True)
    for seed in range(3):
        rng = random.Random(7610 + seed)
        phi, _ = gen_sat_satisfiable(rng.randint(5, 8), rng.randint(3, 6), 3, rng)
        yield sat_to_rcsp_embedding_route(phi, 8)
        yield sat_to_rcsp_disperser_route(phi, 5, 2, "1/4", seed=seed)
    for seed in range(3):
        rng = random.Random(7620 + seed)
        yield csp2_to_rcsp(gen_csp2(rng.choice((4, 6)), rng.randint(1, 3), rng, regular3=True))
    path = graph_from_edges(4, [(0, 1), (1, 2)])  # vertex 3 has no edge
    yield RcspInstance(path, 0, 1, {(0, 1): ((), ()), (1, 2): ((), ())})
    yield RcspInstance(path, 1, 2, {(0, 1): ((1,), (0,)), (1, 2): ((0,), (1,))})
    yield RcspInstance(path, 3, 2, {(0, 1): ((0, 1, 0), (1, 1, 0)), (1, 2): ((0, 0, 1), (1, 0, 1))})
    for sigma in (0, 1, 3):
        yield RcspInstance(Graph(2), sigma, 1, {})


class TestSymbolClasses:
    def test_table_matches_the_reference_grouping(self):
        repeats = set()
        for pi in table_hosts():
            table = pi.symbol_classes
            assert len(table) == pi.graph.vertex_count
            for v, (columns, width, classes) in enumerate(table):
                ref_columns, ref_width, keys = reference_symbol_classes(pi, v)
                assert width == ref_width
                assert list(map(tuple, columns)) == list(map(tuple, ref_columns))
                if keys is None:
                    assert classes is None
                    # the columns are the projection tuples themselves
                    assert all(c is r for c, r in zip(columns, ref_columns))
                else:
                    position = {key: i for i, key in enumerate(dict.fromkeys(keys))}
                    assert list(classes) == [position[key] for key in keys]
                repeats.add(keys is not None)
        assert repeats == {False, True}

    def test_the_table_is_built_once(self):
        pi = swap_instance()
        assert "symbol_classes" not in vars(pi)
        table = pi.symbol_classes
        assert vars(pi)["symbol_classes"] is table and pi.symbol_classes is table

    def test_equality_ignores_the_built_table(self):
        built, fresh = swap_instance(), swap_instance()
        assert built.symbol_classes  # builds the table
        assert "symbol_classes" in vars(built) and "symbol_classes" not in vars(fresh)
        assert built == fresh and repr(built) == repr(fresh)
        copy = dataclasses.replace(built)
        assert copy == built and "symbol_classes" not in vars(copy)


def run_depth_first(root) -> None:
    stack = [root]
    while stack:
        for child in stack[-1]:
            stack.append(child)
            break
        else:
            stack.pop()


def reference_csp_opt_bruteforce(gamma: Csp2Instance, max_nodes: int = DEFAULT_NODE_CAP) -> int:
    n = gamma.graph.vertex_count
    edges = gamma.graph.edge_list
    total = len(edges)
    # Edges whose later endpoint is v, for incremental scoring during DFS.
    closing = [[] for _ in range(n)]
    for e in edges:
        closing[e[1]].append(e)
    remaining_after = [sum(len(closing[w]) for w in range(v + 1, n)) for v in range(n)]
    best = 0
    assignment = [0] * n
    nodes = 0

    def descend(v: int, score: int):
        nonlocal best, nodes
        if v == n:
            best = max(best, score)
            return
        if score + len(closing[v]) + remaining_after[v] <= best:
            return
        nodes += 1
        if nodes > max_nodes:
            raise CapExceededError(f"search exceeded node budget {max_nodes}")
        for s in range(gamma.sigma_size):
            assignment[v] = s
            gained = sum(
                1
                for (u, w) in closing[v]
                if (assignment[u], s) in gamma.constraints[(u, w)]
            )
            yield descend(v + 1, score + gained)
            if best == total:
                return

    run_depth_first(descend(0, 0))
    return best


def reference_par_bruteforce(pi: RcspInstance, max_nodes: int = DEFAULT_NODE_CAP):
    n = pi.graph.vertex_count
    # closing[v] holds (u, proj_u, proj_v) for each edge (u, v) with u < v.
    closing = [[] for _ in range(n)]
    for e in pi.graph.edge_list:
        closing[e[1]].append((e[0], *pi.projections[e]))
    best_size = 0
    best = (None,) * n
    current = [None] * n
    nodes = 0

    def descend(v: int, assigned: int):
        nonlocal best_size, best, nodes
        if v == n:
            if assigned > best_size:
                best_size = assigned
                best = tuple(current)
            return
        if assigned + (n - v) <= best_size:
            return
        nodes += 1
        if nodes > max_nodes:
            raise CapExceededError(f"search exceeded node budget {max_nodes}")
        for s in range(pi.sigma_size):
            for u, pu, pv in closing[v]:
                a = current[u]
                if a is not None and pu[a] != pv[s]:
                    break
            else:
                current[v] = s
                yield descend(v + 1, assigned + 1)
                current[v] = None
                if best_size == n:
                    return
        yield descend(v + 1, assigned)

    run_depth_first(descend(0, 0))
    return best_size, PartialAssignment(best)


def result_and_trip_point(search, instance):
    """The search's result and its trip point, the smallest max_nodes at
    which it does not refuse; every smaller budget must refuse with the
    budget in its message."""
    hi = 1
    while True:
        try:
            result = search(instance, max_nodes=hi)
            break
        except CapExceededError:
            hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            search(instance, max_nodes=mid)
            hi = mid
        except CapExceededError as e:
            assert str(e) == f"search exceeded node budget {mid}"
            lo = mid + 1
    return result, lo


def seeded_graph_shapes():
    """(seed, vertices, sigma, graph keywords): cubic graphs on 4, 6 and 8
    vertices and graphs drawn by edge count on 0 to 8, sigma 1 to 3."""
    cases = []
    for seed in range(240):
        rng = random.Random(7100 + seed)
        n = (0, 1, 2, 4, 6, 8)[seed % 6]
        sigma = 1 + seed // 6 % 3
        if n >= 4 and seed % 4 == 3:
            shape = {"regular3": True}
        else:
            shape = {"edge_count": rng.randint(0, n * (n - 1) // 2), "regular3": False}
        cases.append((rng, n, sigma, shape))
    return cases


class TestSearchesMatchTheirReferences:
    """Each search is now one loop over an explicit stack that counts its
    own nodes, with leaves and bound-pruned children handled in their
    parents; values, witnesses and trip points stay."""

    def test_par_bruteforce(self):
        for i, (rng, n, sigma, shape) in enumerate(seeded_graph_shapes()):
            upsilon = rng.randint(1, 3)
            if i % 2:
                pi, _ = gen_rcsp_planted(n, sigma, upsilon, rng, **shape)
            else:
                pi = gen_rcsp(n, sigma, upsilon, rng, **shape)
            expected = result_and_trip_point(reference_par_bruteforce, pi)
            assert result_and_trip_point(par_bruteforce, pi) == expected
            # only the vertexless instance needs no node
            assert (expected[1] == 0) == (n == 0)

    def test_csp_opt_bruteforce(self):
        for rng, n, sigma, shape in seeded_graph_shapes():
            gamma = gen_csp2(n, sigma, rng, **shape)
            expected = result_and_trip_point(reference_csp_opt_bruteforce, gamma)
            assert result_and_trip_point(csp_opt_bruteforce, gamma) == expected
            # only an edgeless instance needs no node
            assert (expected[1] == 0) == (not gamma.graph.edge_list)

    def test_zero_node_instances_need_no_budget(self):
        assert par_bruteforce(RcspInstance(Graph(0), 2, 1, {}), max_nodes=0) == (
            0, PartialAssignment(()))
        for n in (0, 1, 5):
            gamma = Csp2Instance(Graph(n), 2, {})
            assert csp_opt_bruteforce(gamma, max_nodes=0) == 0
            assert reference_csp_opt_bruteforce(gamma, max_nodes=0) == 0

    def test_the_root_is_a_node(self):
        # one vertex: the root is the only node, and its children are leaves
        pi = RcspInstance(Graph(1), 1, 1, {})
        with pytest.raises(CapExceededError, match="node budget 0"):
            par_bruteforce(pi, max_nodes=0)
        assert par_bruteforce(pi, max_nodes=1) == (1, PartialAssignment((0,)))
        # one edge: the root and the node of vertex 1
        gamma = Csp2Instance(graph_from_edges(2, [(0, 1)]), 1, {(0, 1): frozenset({(0, 0)})})
        with pytest.raises(CapExceededError, match="node budget 1"):
            csp_opt_bruteforce(gamma, max_nodes=1)
        assert csp_opt_bruteforce(gamma, max_nodes=2) == 1
