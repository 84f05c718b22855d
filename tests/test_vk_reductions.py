import dataclasses
import random
from itertools import product

import pytest

from knapreduce import reductions, verify
from knapreduce.csp import (
    PartialAssignment,
    RcspInstance,
    is_consistent,
    par_bruteforce,
)
from knapreduce.errors import CapExceededError
from knapreduce.generators import gen_csp2, gen_rcsp, gen_rcsp_planted, gen_sat_satisfiable
from knapreduce.graphs import Graph, complete_graph, graph_from_edges
from knapreduce.knapsack import (
    Solution,
    VkInstance,
    check_feasible,
    profit,
    solve_bruteforce,
)
from knapreduce.reductions import (
    HOST_CAP,
    TARGET_CAP,
    TARGET_DIGITS_CAP,
    constraint_weight,
    csp2_to_rcsp,
    embed_artifacts,
    extract_partial_assignment,
    item_index,
    item_of,
    rcsp_to_vk_embed,
    rcsp_to_vk_simple,
    sat_to_rcsp_embedding_route,
    verify_base_q_digits,
    vk_solution_from_assignment,
)


def reference_rcsp_to_vk_simple(pi):
    """The plain target filled entry by entry through item_index."""
    n = pi.graph.vertex_count
    edges = pi.graph.edge_list
    m = pi.upsilon_size
    sigma = pi.sigma_size
    d = n + 2 * len(edges)
    costs = [[0] * d for _ in range(n * sigma)]
    for v in range(n):
        for s in range(sigma):
            costs[item_index(pi, v, s)][v] = m
    for t, (u, v) in enumerate(edges):
        proj_u, proj_v = pi.projections[(u, v)]
        for s in range(sigma):
            costs[item_index(pi, u, s)][n + 2 * t] = proj_u[s]
            costs[item_index(pi, u, s)][n + 2 * t + 1] = m - proj_u[s]
            costs[item_index(pi, v, s)][n + 2 * t] = m - proj_v[s]
            costs[item_index(pi, v, s)][n + 2 * t + 1] = proj_v[s]
    return VkInstance((1,) * (n * sigma), tuple(map(tuple, costs)), (m,) * d)


def reference_rcsp_to_vk_embed(pi, chunk_size):
    """The packed target with every item's weight taken from
    constraint_weight on every constraint of every chunk covering it."""
    art = embed_artifacts(pi, chunk_size)
    q, big, r = art.base_q, art.sentinel, art.chunk_count
    powers = [[q ** (pos + 1) for pos in range(len(chunk))] for chunk in art.partition]
    profits, costs = [], []
    for v in range(pi.graph.vertex_count):
        for s in range(pi.sigma_size):
            row = [0] * (2 * r)
            for l, chunk in enumerate(art.partition):
                if art.coverage[l][v] == 0:
                    continue
                packed = sum(
                    constraint_weight(pi, j, v, s) * powers[l][pos]
                    for pos, j in enumerate(chunk)
                )
                row[2 * l] = packed
                row[2 * l + 1] = big * art.coverage[l][v] - packed
            profits.append(sum(art.coverage[l][v] for l in range(r)))
            costs.append(tuple(row))
    budget = []
    for l in range(r):
        packed_budget = sum(pi.upsilon_size * power for power in powers[l])
        budget += [packed_budget, big * art.chunk_totals[l] - packed_budget]
    return VkInstance(tuple(profits), tuple(costs), tuple(budget)), art


def sat_route_hosts():
    """Seeded cubic rectangular CSPs from the 3-SAT embedding route."""
    for seed, (variables, clauses) in enumerate(((6, 4), (7, 5), (8, 7))):
        rng = random.Random(7400 + seed)
        phi, _ = gen_sat_satisfiable(variables, clauses, 3, rng)
        yield sat_to_rcsp_embedding_route(phi, 8)


def cubic_hosts():
    """Seeded cubic rectangular CSPs: random ones and SAT-route ones."""
    for seed in range(6):
        rng = random.Random(7300 + seed)
        yield gen_rcsp(rng.choice((4, 6, 8)), rng.randint(1, 4), rng.randint(1, 5), rng,
                       regular3=True)
    yield from sat_route_hosts()


class TestAgainstReferenceBuilds:
    def test_packed_target_and_artifacts_at_every_chunk_size(self):
        for pi in cubic_hosts():
            constraints = pi.graph.vertex_count + len(pi.graph.edges)
            for chunk_size in range(1, constraints + 1):
                assert rcsp_to_vk_embed(pi, chunk_size) == reference_rcsp_to_vk_embed(
                    pi, chunk_size
                ), chunk_size
                art = embed_artifacts(pi, chunk_size)
                # a vertex constraint covers one vertex, an edge constraint two
                for l, chunk in enumerate(art.partition):
                    vertices = sum(isinstance(j, int) for j in chunk)
                    assert art.chunk_totals[l] == vertices + 2 * (len(chunk) - vertices)
                assert art.sentinel == art.base_q ** (2 * chunk_size)

    def test_plain_target(self):
        hosts = list(cubic_hosts())
        for seed in range(8):
            rng = random.Random(7500 + seed)
            n = rng.randint(1, 6)
            hosts.append(gen_rcsp(n, rng.randint(0, 3), rng.randint(1, 4), rng,
                                  edge_count=rng.randint(0, n * (n - 1) // 2)))
        for pi in hosts:
            assert rcsp_to_vk_simple(pi) == reference_rcsp_to_vk_simple(pi)

    def test_equal_rows_are_one_object_on_sat_route_targets(self):
        # the sentinel-padded symbols of a SAT-route host repeat their
        # projections, and every repeat shares its row tuple
        for pi in sat_route_hosts():
            targets = [rcsp_to_vk_simple(pi)]
            targets += [rcsp_to_vk_embed(pi, chunk_size)[0] for chunk_size in (1, 2, 4)]
            for target in targets:
                costs = target.costs
                assert len(set(map(id, costs))) == len(set(costs)) < len(costs)


def swap_instance():
    g = graph_from_edges(2, [(0, 1)])
    return RcspInstance(g, 2, 2, {(0, 1): ((0, 1), (1, 0))})


def planted_k4(seed, sigma=2, upsilon=2):
    rng = random.Random(seed)
    return gen_rcsp_planted(4, sigma, upsilon, rng, regular3=True)


class TestSimpleTarget:
    def test_dimension_is_vertices_plus_two_per_edge(self):
        target = rcsp_to_vk_simple(swap_instance())
        assert target.dimension == 2 + 2 * 1
        assert target.item_count == 2 * 2
        assert set(target.profits) == {1}

    def test_max_budget_is_the_range_size(self):
        pi = swap_instance()
        assert max(rcsp_to_vk_simple(pi).budget) == pi.upsilon_size

    def test_swap_instance_optimum_matches_par(self):
        pi = swap_instance()
        value, _ = solve_bruteforce(rcsp_to_vk_simple(pi))
        assert value == par_bruteforce(pi)[0] == 2

    def test_roundtrip_on_seeded_instances(self):
        for i in range(60):
            rng = random.Random(5200 + i)
            n = rng.randint(2, 5)
            pi = gen_rcsp(
                n,
                rng.randint(1, 3),
                rng.randint(1, 3),
                rng,
                edge_count=rng.randint(1, min(n * (n - 1) // 2, n + 1)),
            )
            par, witness = par_bruteforce(pi)
            target = rcsp_to_vk_simple(pi)
            opt, solution = solve_bruteforce(target)
            assert par == opt
            extracted = extract_partial_assignment(pi, "simple", solution, target)
            assert is_consistent(pi, extracted)
            assert extracted.size() == opt

    def test_forward_solution_from_total_assignment(self):
        pi = swap_instance()
        sol = vk_solution_from_assignment(pi, PartialAssignment((0, 1)))
        target = rcsp_to_vk_simple(pi)
        assert check_feasible(target, sol)
        assert profit(target, sol) == 2

    def test_forward_rejects_partial_or_inconsistent(self):
        pi = swap_instance()
        with pytest.raises(ValueError):
            vk_solution_from_assignment(pi, PartialAssignment((0, None)))
        with pytest.raises(ValueError):
            vk_solution_from_assignment(pi, PartialAssignment((0, 0)))

    def test_forward_rejects_out_of_alphabet_symbol(self):
        # -1 would index the last projection entry and alias item 1
        g = graph_from_edges(2, [(0, 1)])
        pi = RcspInstance(g, 2, 2, {(0, 1): ((0, 1), (0, 1))})
        with pytest.raises(ValueError):
            vk_solution_from_assignment(pi, PartialAssignment((1, -1)))
        with pytest.raises(ValueError):
            vk_solution_from_assignment(pi, PartialAssignment((1, 2)))

    def test_extract_rejects_infeasible(self):
        pi = swap_instance()
        both_copies = Solution(frozenset({0, 1}))
        with pytest.raises(ValueError):
            extract_partial_assignment(pi, "simple", both_copies, rcsp_to_vk_simple(pi))

    def test_refuses_past_the_target_cap(self):
        # checked before any row is built: the dimension alone, or the
        # cost table of a dimension under the cap
        cap = TARGET_CAP
        for pi in (RcspInstance(Graph(cap + 1), 0, 1, {}), RcspInstance(Graph(cap // 2), 3, 1, {})):
            with pytest.raises(CapExceededError):
                rcsp_to_vk_simple(pi)


class TestEmbedArtifacts:
    def test_k4_single_chunk(self):
        pi, _ = planted_k4(1)
        art = embed_artifacts(pi, 10)
        assert art.chunk_count == 1
        assert art.chunk_totals == (16,)
        assert all(c == 4 for c in art.coverage[0])

    def test_coverage_row_sums(self):
        pi, _ = planted_k4(2)
        for chunk_size in (1, 2, 3, 4, 10):
            art = embed_artifacts(pi, chunk_size)
            # chunk totals add up to one per vertex plus two per edge
            assert sum(art.chunk_totals) == 4 + 2 * 6
            assert all(total <= 2 * chunk_size for total in art.chunk_totals)

    def test_base_constant_example(self):
        # chunk size 1, range 2, four vertices, two symbols
        pi, _ = planted_k4(3, sigma=2, upsilon=2)
        art = embed_artifacts(pi, 1)
        assert art.base_q == 3 * 1 * 2 * 4 * 2 == 48
        assert art.sentinel == 48 ** 2 == 2304

    def test_chunk_size_range(self):
        pi, _ = planted_k4(4)
        with pytest.raises(ValueError):
            embed_artifacts(pi, 0)
        with pytest.raises(ValueError):
            embed_artifacts(pi, 11)

    def test_refuses_past_the_target_cap(self, monkeypatch):
        # K4 with two symbols is 8 items; chunk size 1 gives 10 chunks, 20 dimensions
        pi, _ = planted_k4(5)
        monkeypatch.setattr(reductions, "TARGET_CAP", 8 * 20 - 1)
        with pytest.raises(CapExceededError, match="^packed target of 8 items in 20 dimensions"):
            rcsp_to_vk_embed(pi, 1)
        monkeypatch.setattr(reductions, "TARGET_CAP", 8 * 20)
        assert rcsp_to_vk_embed(pi, 1)[0].dimension == 20

    def test_refuses_entries_past_the_digit_cap(self, monkeypatch):
        # no entry exceeds sentinel * (largest chunk total); a cap of exactly
        # that many digits admits the target, one digit fewer refuses it
        pi, _ = planted_k4(6)
        for chunk_size in (1, 3, 10):
            art = embed_artifacts(pi, chunk_size)
            widest = art.sentinel * max(art.chunk_totals)
            monkeypatch.setattr(reductions, "TARGET_DIGITS_CAP", len(str(widest)))
            target, _ = rcsp_to_vk_embed(pi, chunk_size)
            assert max(max(map(max, target.costs)), max(target.budget)) <= widest
            monkeypatch.setattr(reductions, "TARGET_DIGITS_CAP", len(str(widest)) - 1)
            with pytest.raises(CapExceededError, match="^packed target entries of up to"):
                rcsp_to_vk_embed(pi, chunk_size)

    def test_complete_host_at_the_host_cap_is_refused(self):
        # K128, the disperser route's largest host, is refused before the
        # symbol table: at F = 1 by its 640 x 16512 cost table, and in one
        # chunk of all 8256 constraints by its 571,452-bit entries
        host = complete_graph(HOST_CAP)
        for sigma, chunk_size, message in (
            (5, 1, f"^packed target of 640 items in 16512 dimensions exceeds the cap {TARGET_CAP} "),
            (1, 8256, f"^packed target entries of up to 571452 bits exceed the cap of "
                      f"{TARGET_DIGITS_CAP} decimal digits$"),
        ):
            pi = RcspInstance(host, sigma, 1, {e: ((0,) * sigma, (0,) * sigma) for e in host.edges})
            with pytest.raises(CapExceededError, match=message):
                rcsp_to_vk_embed(pi, chunk_size)
            assert "symbol_classes" not in vars(pi)


class TestEmbedTarget:
    def test_dimension_formula(self):
        pi, _ = planted_k4(5)
        for chunk_size, expected in ((1, 20), (2, 10), (3, 8), (4, 6), (10, 2)):
            target, _ = rcsp_to_vk_embed(pi, chunk_size)
            assert target.dimension == expected

    def test_profits_are_degree_plus_one(self):
        # K4 is cubic; the swap instance's vertices have one edge each, and
        # vertex 2 beside that edge has none
        beside = RcspInstance(graph_from_edges(3, [(0, 1)]), 2, 2, {(0, 1): ((0, 1), (1, 0))})
        for pi, profits in ((planted_k4(6)[0], (4,) * 8), (swap_instance(), (2,) * 4),
                            (beside, (2, 2, 2, 2, 1, 1))):
            target, _ = rcsp_to_vk_embed(pi, 2)
            assert target.profits == profits

    def test_completeness_full_profit_and_tight_weights(self):
        for seed in range(8):
            pi, planted = planted_k4(700 + seed)
            solution = vk_solution_from_assignment(pi, planted)
            pairs = [item_of(pi, i) for i in solution.chosen]
            for chunk_size in (1, 2, 4):
                target, art = rcsp_to_vk_embed(pi, chunk_size)
                assert check_feasible(target, solution)
                assert profit(target, solution) == 16
                # every constraint weight lands exactly on the range size
                for chunk in art.partition:
                    for j in chunk:
                        total = sum(constraint_weight(pi, j, v, s) for v, s in pairs)
                        assert total == pi.upsilon_size

    def test_cost_identities_on_random_subsets(self):
        pi, _ = planted_k4(8)
        for chunk_size in (1, 3):
            target, art = rcsp_to_vk_embed(pi, chunk_size)
            q, big = art.base_q, art.sentinel
            rng = random.Random(chunk_size)
            for _ in range(200):
                chosen = [i for i in range(target.item_count) if rng.getrandbits(1)]
                pairs = [item_of(pi, i) for i in chosen]
                for l, chunk in enumerate(art.partition):
                    stacked = sum(
                        constraint_weight(pi, j, v, s) * q ** (pos + 1)
                        for pos, j in enumerate(chunk)
                        for v, s in pairs
                    )
                    covered = sum(art.coverage[l][v] for v, _ in pairs)
                    assert sum(target.costs[i][2 * l] for i in chosen) == stacked
                    assert (
                        sum(target.costs[i][2 * l + 1] for i in chosen)
                        == big * covered - stacked
                    )
                assert sum(target.profits[i] for i in chosen) == sum(
                    art.coverage[l][v]
                    for l in range(art.chunk_count)
                    for v, _ in pairs
                )

    def test_soundness_exhaustive_on_tiny_instances(self):
        # chunk size 10 puts every constraint in one chunk, the regime where
        # feasible solutions may hold several copies of one vertex
        for seed in (0, 1):
            pi, _ = planted_k4(900 + seed, sigma=2, upsilon=2)
            for chunk_size in (1, 2, 10):
                target, art = rcsp_to_vk_embed(pi, chunk_size)
                full = 16
                multi_copy_seen = False
                for mask in range(1 << target.item_count):
                    solution = Solution(
                        frozenset(i for i in range(target.item_count) if (mask >> i) & 1)
                    )
                    if not check_feasible(target, solution):
                        continue
                    vertices = [item_of(pi, i)[0] for i in solution.chosen]
                    multi_copy_seen |= len(vertices) != len(set(vertices))
                    deficit = full - profit(target, solution)
                    phi = extract_partial_assignment(
                        pi, chunk_size, solution, precomputed=(target, art)
                    )
                    assert is_consistent(pi, phi)
                    assert phi.size() >= 4 - 2 * deficit * chunk_size
                if chunk_size == 10:
                    assert multi_copy_seen  # the regime is actually exercised

    def test_roundtrip_full_assignment_iff_full_profit(self):
        for seed in range(6):
            pi, planted = planted_k4(1000 + seed, sigma=2, upsilon=3)
            par, _ = par_bruteforce(pi)
            assert par == 4  # planted instances admit a total assignment
            target, art = rcsp_to_vk_embed(pi, 2)
            opt, solution = solve_bruteforce(target)
            assert opt == 16
            recovered = extract_partial_assignment(pi, 2, solution, (target, art))
            assert recovered.size() == 4

    def test_roundtrip_equivalence_on_unplanted_instances(self):
        # without planting: full optimum profit iff a total assignment exists
        for seed in range(12):
            rng = random.Random(6100 + seed)
            pi = gen_rcsp(4, 2, rng.randint(1, 3), rng, regular3=True)
            par, _ = par_bruteforce(pi)
            target, _ = rcsp_to_vk_embed(pi, rng.choice((1, 2)))
            opt, _ = solve_bruteforce(target)
            assert (par == 4) == (opt == 16), (seed, par, opt)

    def test_roundtrip_equivalence_on_six_vertex_host(self):
        for seed in range(8):
            rng = random.Random(6400 + seed)
            pi = gen_rcsp(6, 1, rng.randint(1, 2), rng, regular3=True)
            par, _ = par_bruteforce(pi)
            target, art = rcsp_to_vk_embed(pi, rng.choice((1, 3)))
            opt, solution = solve_bruteforce(target)
            full = 6 + 2 * len(pi.graph.edges)
            assert (par == 6) == (opt == full), (seed, par, opt)
            deficit = full - opt
            recovered = extract_partial_assignment(
                pi, art.chunk_size, solution, precomputed=(target, art)
            )
            assert is_consistent(pi, recovered)
            assert recovered.size() >= 6 - 2 * deficit * art.chunk_size

    def test_max_budget_bound(self):
        pi, _ = planted_k4(13)
        for chunk_size in (1, 2, 4, 10):
            target, art = rcsp_to_vk_embed(pi, chunk_size)
            # the largest number in the packed target is a chunk's count budget
            assert max(target.budget) <= 2 * chunk_size * art.sentinel

    def test_extraction_roundtrip_from_planted_solution(self):
        pi, planted = planted_k4(42)
        solution = vk_solution_from_assignment(pi, planted)
        for chunk_size in (1, 2, 4):
            recovered = extract_partial_assignment(
                pi, chunk_size, solution, rcsp_to_vk_embed(pi, chunk_size)
            )
            assert recovered == planted
        simple_recovered = extract_partial_assignment(
            pi, "simple", solution, rcsp_to_vk_simple(pi)
        )
        assert simple_recovered == planted

    def test_extract_rejects_infeasible(self):
        pi, _ = planted_k4(11)
        target, art = rcsp_to_vk_embed(pi, 1)
        everything = Solution(frozenset(range(target.item_count)))
        assert not check_feasible(target, everything)
        with pytest.raises(ValueError):
            extract_partial_assignment(pi, 1, everything, (target, art))

    def test_extract_rejects_mismatched_arguments(self):
        pi, planted = planted_k4(42)
        solution = vk_solution_from_assignment(pi, planted)
        packed = rcsp_to_vk_embed(pi, 2)
        with pytest.raises(ValueError, match="variant 5 is not the artifacts' chunk size 2"):
            extract_partial_assignment(pi, 5, solution, packed)
        with pytest.raises(ValueError, match='"simple" takes the plain target'):
            extract_partial_assignment(pi, "simple", solution, packed)
        with pytest.raises(ValueError, match=r"chunk size 2 takes a \(target, artifacts\) pair"):
            extract_partial_assignment(pi, 2, solution, packed[0])


def any_degree_hosts(seed):
    """(instance, chunk sizes) off the cubic family: random graphs of any
    edge count, planted or not, and complete graphs, up to one chunk of
    every constraint; and csp2 line graphs, which are 4-regular, in chunks
    of at most 3 constraints: in one chunk of all 18 the exhaustive walk
    visits some 50,000 feasible sets."""
    rng = random.Random(seed)
    hosts = []
    for n in range(2, 6):
        edge_count = rng.randint(0, n * (n - 1) // 2)
        hosts.append(gen_rcsp(n, rng.randint(1, 2), rng.randint(1, 3), rng, edge_count=edge_count))
        hosts.append(gen_rcsp_planted(n, rng.randint(1, 2), rng.randint(1, 3), rng,
                                      edge_count=edge_count)[0])
    for k in (2, 3, 4):
        hosts.append(gen_rcsp(k, 2, 2, rng, edge_count=k * (k - 1) // 2))
    for pi in hosts:
        yield pi, sorted({1, 2, pi.graph.vertex_count + len(pi.graph.edges)})
    for planted in (False, True):
        yield csp2_to_rcsp(gen_csp2(4, 2, rng, planted=planted)), (1, 2, 3)


class TestAnyConstraintGraph:
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_verify_checks_hold_at_any_degree(self, seed):
        degrees = set()
        for pi, chunk_sizes in any_degree_hosts(seed):
            n = pi.graph.vertex_count
            full = n + 2 * len(pi.graph.edges)
            degrees.update(map(len, pi.graph.incident))
            par, witness = par_bruteforce(pi)
            for chunk_size in chunk_sizes:
                target, art = rcsp_to_vk_embed(pi, chunk_size)
                assert (target, art) == reference_rcsp_to_vk_embed(pi, chunk_size)
                records = [verify.check_embed_soundness_exhaustive(pi, target, art),
                           *verify.check_digit_identities(pi, chunk_size)]
                if par == n:
                    solution = vk_solution_from_assignment(pi, witness)
                    records.append(verify.check_embed_completeness(pi, solution, chunk_size, target))
                assert all(passed for *_, passed in records), records
                opt, _ = solve_bruteforce(target)
                assert opt <= full and (opt == full) == (par == n), (chunk_size, opt, par)
        assert {0, 1, 2, 3, 4} <= degrees

    def test_profits_forced_to_four_fail_the_coverage_record(self, monkeypatch):
        # a path on three vertices, degrees 1, 2 and 1: profit 4 is a cubic
        # graph's, and the coverage record must catch it
        pi, _ = gen_rcsp_planted(3, 2, 2, random.Random(1), edge_count=2)
        build = verify.rcsp_to_vk_embed

        def cubic_profits(pi, chunk_size):
            target, art = build(pi, chunk_size)
            return dataclasses.replace(target, profits=(4,) * target.item_count), art

        monkeypatch.setattr(verify, "rcsp_to_vk_embed", cubic_profits)
        records = {check: passed for check, _, _, passed in verify.check_digit_identities(pi, 2)}
        assert records == {"packed-first-dimension-F2": True, "packed-second-dimension-F2": True,
                           "profit-equals-coverage-F2": False}


def reference_extract_packed(pi, solution, precomputed):
    """The packed branch of extract_partial_assignment as first written:
    chunks x selected saturation sums, vertices x selected symbol scans."""
    target, art = precomputed
    if not check_feasible(target, solution):
        raise ValueError("solution is infeasible in the packed target")
    selected = [item_of(pi, index) for index in sorted(solution.chosen)]
    saturated = {
        l
        for l in range(art.chunk_count)
        if sum(art.coverage[l][v] for v, _ in selected) == art.chunk_totals[l]
    }
    values = [None] * pi.graph.vertex_count
    for v in range(pi.graph.vertex_count):
        if all(art.placement[j][0] in saturated for j in (v, *pi.graph.incident[v])):
            symbols = [s for (w, s) in selected if w == v]
            if len(symbols) != 1:
                raise ValueError(
                    f"saturation should force exactly one copy of vertex {v}, "
                    f"found {len(symbols)}"
                )
            values[v] = symbols[0]
    return PartialAssignment(tuple(values))


def _outcome(call):
    """The call's result, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as error:
        return str(error)


def _packed_extraction_cases():
    for seed in range(6):
        pi, _ = verify._planted_cubic(4 if seed % 2 else 6, random.Random(6600 + seed))
        constraints = pi.graph.vertex_count + len(pi.graph.edges)
        for chunk_size in (1, 2, 3, constraints):
            yield pi, rcsp_to_vk_embed(pi, chunk_size)


class TestPackedExtraction:
    def test_matches_reference_on_every_feasible_solution(self):
        assigned = 0
        for pi, precomputed in _packed_extraction_cases():
            for _, solution in verify._feasible_subsets(precomputed[0]):
                got = extract_partial_assignment(
                    pi, precomputed[1].chunk_size, solution, precomputed
                )
                assert got == reference_extract_packed(
                    pi, solution, precomputed
                )
                assigned += got.size() > 0
        assert assigned > 100

    def test_matches_reference_errors(self):
        # a target with every budget at its column sum accepts every subset, so
        # saturated vertices with zero or several copies reach the error path
        outcomes = set()
        for k, (pi, (target, art)) in enumerate(_packed_extraction_cases()):
            loose = VkInstance(target.profits, target.costs,
                               tuple(map(sum, zip(*target.costs))))
            rng = random.Random(6700 + k)
            for _ in range(200):
                solution = Solution(frozenset(
                    i for i in range(loose.item_count) if rng.random() < 0.5
                ))
                got = _outcome(lambda: extract_partial_assignment(
                    pi, art.chunk_size, solution, (loose, art)))
                assert got == _outcome(lambda: reference_extract_packed(pi, solution, (loose, art)))
                if isinstance(got, str):
                    outcomes.add("found 0" if got.endswith("found 0") else "found many")
                else:
                    outcomes.add("assigned")
        assert outcomes == {"found 0", "found many", "assigned"}
        pi, (target, art) = next(_packed_extraction_cases())
        everything = Solution(frozenset(range(target.item_count)))
        with pytest.raises(ValueError, match="infeasible in the packed target"):
            extract_partial_assignment(pi, art.chunk_size, everything, (target, art))


def row_sharing(target):
    """Each cost row's first index among the rows that are the same object."""
    first = {}
    return [first.setdefault(id(row), i) for i, row in enumerate(target.costs)]


def count_table_builds(monkeypatch):
    """The instances whose symbol table is built from now on, one entry a build."""
    builds = []
    getter = RcspInstance.symbol_classes.fget

    def counting(pi):
        if "symbol_classes" not in vars(pi):
            builds.append(pi)
        return getter(pi)

    monkeypatch.setattr(RcspInstance, "symbol_classes", property(counting))
    return builds


class TestOneTablePerInstance:
    def test_targets_in_any_order_equal_fresh_builds(self):
        def build(pi, plan):
            """The target of a plan, "plain" or a chunk size, and its row sharing."""
            target = rcsp_to_vk_simple(pi) if plan == "plain" else rcsp_to_vk_embed(pi, plan)[0]
            return target, row_sharing(target)

        for pi in cubic_hosts():
            constraints = pi.graph.vertex_count + len(pi.graph.edges)
            plans = ["plain", *range(1, constraints + 1)]
            fresh = {plan: build(dataclasses.replace(pi), plan) for plan in plans}
            # plain first, packed first, chunk sizes down, and every target twice
            for order in (plans, plans[1:] + plans[:1], plans[::-1], plans + plans):
                shared = dataclasses.replace(pi)
                for plan in order:
                    assert build(shared, plan) == fresh[plan], plan

    def test_a_second_target_reuses_the_table(self, monkeypatch):
        builds = count_table_builds(monkeypatch)
        pi = next(sat_route_hosts())
        rcsp_to_vk_simple(pi)
        assert len(builds) == 1 and builds[0] is pi
        table = vars(pi)["symbol_classes"]
        for chunk_size in (1, 4, 1):
            rcsp_to_vk_embed(pi, chunk_size)
        rcsp_to_vk_simple(pi)
        assert len(builds) == 1 and vars(pi)["symbol_classes"] is table
        # a copy is a new instance, with a table of its own
        rcsp_to_vk_embed(dataclasses.replace(pi), 2)
        assert len(builds) == 2

    def test_refusals_come_before_the_table(self, monkeypatch):
        # the README caps table promises these are checked before any row is built
        def refused(error, build, pi, *args, match=None):
            with pytest.raises(error, match=match):
                build(pi, *args)
            assert "symbol_classes" not in vars(pi)

        for pi in (RcspInstance(Graph(TARGET_CAP + 1), 0, 1, {}),
                   RcspInstance(Graph(TARGET_CAP // 2), 3, 1, {})):
            refused(CapExceededError, rcsp_to_vk_simple, pi, match="^plain target")
        for chunk_size in (0, 11):
            refused(ValueError, rcsp_to_vk_embed, planted_k4(7)[0], chunk_size,
                    match="^chunk size")
        monkeypatch.setattr(reductions, "TARGET_CAP", 8 * 20 - 1)
        refused(CapExceededError, rcsp_to_vk_embed, planted_k4(7)[0], 1,
                match="^packed target of 8 items")
        monkeypatch.undo()
        monkeypatch.setattr(reductions, "TARGET_DIGITS_CAP", 3)  # entries reach 4,608
        refused(CapExceededError, rcsp_to_vk_embed, planted_k4(7)[0], 1,
                match="^packed target entries")


class TestDigitSums:
    def test_all_equal_digits(self):
        assert verify_base_q_digits([3, 3, 3], 5, 3)

    def test_perturbed_digits_detected(self):
        assert not verify_base_q_digits([4, 2], 5, 3)

    def test_out_of_range_digit(self):
        with pytest.raises(ValueError):
            verify_base_q_digits([5], 5, 3)
        with pytest.raises(ValueError):
            verify_base_q_digits([0], 5, 5)

    def test_equivalence_exhaustive_small_bases(self):
        for base in range(2, 8):
            for width in range(1, 5):
                for target in range(base):
                    for digits in product(range(base), repeat=width):
                        expected = all(a == target for a in digits)
                        assert verify_base_q_digits(list(digits), base, target) == expected


def test_item_indexing_roundtrip():
    pi, _ = planted_k4(12, sigma=3)
    for v in range(4):
        for s in range(3):
            assert item_of(pi, item_index(pi, v, s)) == (v, s)
