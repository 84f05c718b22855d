"""The four benchmark workloads: seeded input generation, the op each input
drives through knapreduce, and the independent check of each op's output.

Ops look up every package function through its module at call time
(``K.reductions.rcsp_to_vk_embed``), so the tracer's rebinding of module
attributes is seen by the benchmark's own calls as well as the package's
internal ones.

Each op list is a fixed cycle of input shapes; only the random content
within a shape varies with the seed.  That keeps the op mix, and with it
the latency distribution, the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref


@dataclass
class Op:
    """One pipeline instance.

    run() calls the package; reference() computes the independent reference
    from the inputs alone (the runner caches it); check(output, reference)
    returns (ok, value, bound), where value / bound is the op's quality
    ratio: achieved value over the reference optimum or bound.
    """

    kind: str
    inputs: tuple
    run: Callable
    reference: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int  # ops per pass: a whole number of op-shape cycles, about two passes per 28 s run
    trace_ops: int  # fixed prefix of the op list replayed by the traced run
    build: Callable  # (K, rng, index) -> Op


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _rcsp_data(pi):
    edges = pi.graph.edge_list
    return pi.graph.vertex_count, pi.sigma_size, edges, pi.projections


def _values_ok(pi, values, total: bool) -> bool:
    n, _, edges, projections = _rcsp_data(pi)
    if len(values) != n or (total and any(s is None for s in values)):
        return False
    return ref.rcsp_consistent(edges, projections, values)


# ---------------------------------------------------------------------------
# sat-chain: reduction construction only, no solver
# ---------------------------------------------------------------------------

# (variables, clauses, occurrence bound, host size k, packed chunk sizes)
SAT_EMBED_SHAPES = ((8, 7, 3, 8, (1, 2, 4)), (8, 6, 3, 8, (1, 2, 4)), (7, 5, 3, 8, (1, 2, 4)))
# (variables, clauses, occurrence bound, host size k, cover count r, epsilon)
SAT_DISPERSER_SHAPE = (8, 6, 3, 6, 5, Fraction(4, 5))


def _sat_embed_op(K, rng, shape) -> Op:
    n, m, bound, k, chunks = shape
    phi, hidden = K.generators.gen_sat_satisfiable(n, m, bound, rng)

    def run():
        R = K.reductions
        pi = R.sat_to_rcsp_embedding_route(phi, k)
        conflict = R.build_clause_conflict_graph(phi)
        host, emb = K.embedding.simple_connected_embedding(conflict, k)
        clause_sets = [
            frozenset(c for c in range(phi.clause_count) if x in emb.images[c])
            for x in range(host.vertex_count)
        ]
        packed = [(F, R.rcsp_to_vk_embed(pi, F)) for F in chunks]
        plain = R.rcsp_to_vk_simple(pi)
        assignment = R.rcsp_assignment_from_sat(phi, pi.graph, clause_sets, hidden)
        solution = R.vk_solution_from_assignment(pi, assignment)
        extracted = [
            R.extract_partial_assignment(pi, F, solution, precomputed=target)
            for F, target in packed
        ]
        extracted.append(R.extract_partial_assignment(pi, "simple", solution, precomputed=plain))
        return pi, assignment, solution, [t for _, (t, _) in packed], plain, extracted

    def check(out, witness):
        pi, assignment, solution, targets, plain, extracted = out
        n_vertices = pi.graph.vertex_count
        full = n_vertices + 2 * len(pi.graph.edge_list)
        chosen = solution.chosen
        ok = ref.sat_satisfied(phi.clauses, witness) and _values_ok(pi, assignment.values, True)
        ok = ok and vk_ok(plain, chosen, n_vertices)
        worst = Fraction(ref.vk_profit(plain.profits, chosen), n_vertices)
        for target in targets:
            ok = ok and vk_ok(target, chosen, full)
            worst = min(worst, Fraction(ref.vk_profit(target.profits, chosen), full))
        ok = ok and all(_values_ok(pi, e.values, True) for e in extracted)
        return ok, worst, 1

    return Op("sat-embed", (phi, hidden, k, chunks), run, lambda: hidden, check)


def _sat_disperser_op(K, rng, shape) -> Op:
    n, m, bound, k, cover, eps = shape
    phi, hidden = K.generators.gen_sat_satisfiable(n, m, bound, rng)
    family_seed = rng.randrange(1 << 30)
    set_size = min(m, math.ceil(Fraction(3 * m) / (eps * cover)))

    def run():
        R = K.reductions
        pi = R.sat_to_rcsp_disperser_route(phi, k, cover, eps, family_seed)
        plain = R.rcsp_to_vk_simple(pi)
        family = K.disperser.build_disperser(m, k, set_size, cover, eps, family_seed)
        assignment = R.rcsp_assignment_from_sat(phi, pi.graph, family.sets, hidden)
        solution = R.vk_solution_from_assignment(pi, assignment)
        extracted = R.extract_partial_assignment(pi, "simple", solution, precomputed=plain)
        return pi, assignment, solution, plain, extracted

    def check(out, witness):
        pi, assignment, solution, plain, extracted = out
        n_vertices = pi.graph.vertex_count
        ok = ref.sat_satisfied(phi.clauses, witness) and _values_ok(pi, assignment.values, True)
        ok = ok and vk_ok(plain, solution.chosen, n_vertices)
        ok = ok and _values_ok(pi, extracted.values, True)
        return ok, Fraction(ref.vk_profit(plain.profits, solution.chosen), n_vertices), 1

    return Op("sat-disperser", (phi, hidden, k, cover, eps, family_seed), run, lambda: hidden, check)


def feasible_value(inst, chosen):
    """Profit of an item set with valid indices that fits the budget; else None."""
    if all(0 <= i < len(inst.profits) for i in chosen) and ref.vk_feasible(
        inst.costs, inst.budget, chosen
    ):
        return ref.vk_profit(inst.profits, chosen)
    return None


def vk_ok(inst, chosen, expected_profit) -> bool:
    return feasible_value(inst, chosen) == expected_profit


def build_sat_chain(K, rng, index) -> Op:
    if index % 4 == 3:
        return _sat_disperser_op(K, rng, SAT_DISPERSER_SHAPE)
    return _sat_embed_op(K, rng, SAT_EMBED_SHAPES[index % 4])


# ---------------------------------------------------------------------------
# packed-exact: exact oracles on digit-packed targets, plus lattice DP ops
# ---------------------------------------------------------------------------

# (vertices, alphabet, range, chunk size): 16-18 items, 8-30 packed dimensions
PACKED_SHAPES = (
    (8, 2, 2, 1), (6, 3, 2, 2), (8, 2, 3, 3), (6, 3, 3, 1), (8, 2, 2, 2), (6, 3, 3, 3),
)
# (items, dimension, max budget, max profit)
DP_SHAPES = ((12, 3, 12, 30), (11, 2, 50, 30))


def _packed_op(K, rng, shape, planted: bool) -> Op:
    n, sigma, upsilon, chunk = shape
    if planted:
        pi, _ = K.generators.gen_rcsp_planted(n, sigma, upsilon, rng, regular3=True)
    else:
        pi = K.generators.gen_rcsp(n, sigma, upsilon, rng, regular3=True)

    def run():
        target, art = K.reductions.rcsp_to_vk_embed(pi, chunk)
        opt, solution = K.knapsack.solve_bruteforce(target)
        extracted = K.reductions.extract_partial_assignment(
            pi, chunk, solution, precomputed=(target, art)
        )
        par, witness = K.csp.par_bruteforce(pi)
        return target, opt, solution, extracted, par, witness

    def check(out, ref_par):
        target, opt, solution, extracted, par, witness = out
        full = n + 2 * len(pi.graph.edge_list)
        full_exists = ref_par == n
        ok = (not planted or full_exists) and vk_ok(target, solution.chosen, opt)
        ok = ok and (opt == full) == full_exists
        ok = ok and par == ref_par and _values_ok(pi, witness.values, False)
        ok = ok and sum(s is not None for s in witness.values) == par
        ok = ok and _values_ok(pi, extracted.values, opt == full)
        return ok, par, ref_par

    kind = "packed-planted" if planted else "packed-random"
    return Op(kind, (pi, chunk), run, lambda: ref.rcsp_max_partial(*_rcsp_data(pi)), check)


def _dp_op(K, rng, shape) -> Op:
    inst = K.generators.gen_vk(*shape, rng)

    def run():
        dp_value, dp_solution = K.knapsack.solve_dp(inst)
        bf_value, bf_solution = K.knapsack.solve_bruteforce(inst)
        return dp_value, dp_solution, bf_value, bf_solution

    def check(out, opt):
        dp_value, dp_solution, bf_value, bf_solution = out
        ok = dp_value == opt and bf_value == opt
        ok = ok and vk_ok(inst, dp_solution.chosen, opt) and vk_ok(inst, bf_solution.chosen, opt)
        return ok, dp_value, opt

    return Op("dp", (inst,), run, lambda: ref.vk_opt_exhaustive(inst.profits, inst.costs, inst.budget), check)


def build_packed_exact(K, rng, index) -> Op:
    if index % 4 == 3:
        return _dp_op(K, rng, DP_SHAPES[index // 4 % len(DP_SHAPES)])
    slot = index - (index + 1) // 4  # packed ops before this one
    shape = PACKED_SHAPES[slot % len(PACKED_SHAPES)]
    return _packed_op(K, rng, shape, planted=slot // len(PACKED_SHAPES) % 2 == 0)


# ---------------------------------------------------------------------------
# approx: one entry point, two disjoint internals
# ---------------------------------------------------------------------------

# class (a), 2-bounded items: (items, dimension, max budget, max profit)
APPROX_LP_SHAPES = ((15, 3, 1000, 100), (20, 4, 1000, 100), (25, 3, 1000, 100), (18, 4, 1000, 100))
# class (b), packed targets of planted cubic CSPs: (vertices, alphabet, range, chunk size)
APPROX_PACKED_SHAPES = ((4, 2, 2, 1), (4, 3, 3, 2), (6, 2, 2, 1), (4, 3, 2, 1), (6, 2, 3, 2), (4, 2, 3, 2))


def _approx_op(K, inst, op_seed, kind, reference) -> Op:
    def run():
        return K.approx.approx_sqrt_d(inst, op_seed)

    def check(solution, bound):
        value = feasible_value(inst, solution.chosen)
        return value is not None and value <= bound, value or 0, bound

    return Op(kind, (inst, op_seed), run, reference, check)


def build_approx(K, rng, index) -> Op:
    if index % 2 == 0:
        shape = APPROX_LP_SHAPES[index // 2 % len(APPROX_LP_SHAPES)]
        inst = K.generators.gen_vk_2bounded(*shape, rng)
        return _approx_op(
            K, inst, index, "approx-lp",
            lambda: ref.lp_bound(inst.profits, inst.costs, inst.budget),
        )
    n, sigma, upsilon, chunk = APPROX_PACKED_SHAPES[index // 2 % len(APPROX_PACKED_SHAPES)]
    pi, _ = K.generators.gen_rcsp_planted(n, sigma, upsilon, rng, regular3=True)
    inst, _ = K.reductions.rcsp_to_vk_embed(pi, chunk)
    full = n + 2 * len(pi.graph.edge_list)
    return _approx_op(K, inst, index, "approx-packed", lambda: full)


# ---------------------------------------------------------------------------
# verify-suites: the verify layer, many tiny instances
# ---------------------------------------------------------------------------

# (suite, count choices, records per counted instance; None: fixed 10 records).
# obs-basic, the costliest suite, fills one slot in eleven, so p90 falls among
# the discretize ops, whose cost is set by the count alone, and not inside
# obs-basic, whose cost depends on instance sizes the suite draws itself.
_SUITES = {
    "simple-roundtrip": ((3, 4), 3),
    "embed-roundtrip": ((1, 2), 3),
    "csp-chain": ((3, 4), 2),
    "discretize": ((10, 12), None),
    "vkw": ((1, 2), 2),
    "obs-basic": ((1,), 3),
}
VERIFY_CYCLE = ("simple-roundtrip", "embed-roundtrip", "csp-chain", "discretize", "vkw") * 2 + ("obs-basic",)


def build_verify(K, rng, index) -> Op:
    suite = VERIFY_CYCLE[index % len(VERIFY_CYCLE)]
    counts, per_instance = _SUITES[suite]
    count = rng.choice(counts)
    suite_seed = rng.randrange(1 << 30)
    minimum = 10 if per_instance is None else per_instance * count

    def run():
        return K.verify.run_suite(suite, count, suite_seed)

    def check(report, minimum):
        records = report.records
        passed = sum(1 for r in records if r.passed)
        ok = len(records) >= minimum and passed == len(records) and report.passed
        return ok, passed, max(1, len(records))

    return Op("verify-" + suite, (suite, count, suite_seed), run, lambda: minimum, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sat-chain",
            "3-SAT through both SAT routes and the plain and packed reductions, "
            "forward and back; no solver runs, so reduction construction is the cost",
            size=360, trace_ops=150, build=build_sat_chain,
        ),
        Workload(
            "packed-exact",
            "exact oracles on 16-18 item digit-packed targets (planted and random) "
            "plus small-budget lattice-DP ops that form the latency tail",
            size=800, trace_ops=200, build=build_packed_exact,
        ),
        Workload(
            "approx",
            "approx_sqrt_d alternating 2-bounded items (LP branch) and packed "
            "over-half items (discretize + bounded-size enumeration)",
            size=360, trace_ops=120, build=build_approx,
        ),
        Workload(
            "verify-suites",
            "the six verify suites at small counts over many seeds: many tiny "
            "reductions and small-budget discretization sweeps",
            size=770, trace_ops=240, build=build_verify,
        ),
    )
}


def generate(K, workload: Workload, seed: int) -> list[Op]:
    return [workload.build(K, _rng(seed, workload.name, i), i) for i in range(workload.size)]
