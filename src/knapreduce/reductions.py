"""Constructive reductions between the constraint forms and vector knapsack.

Every reduction here carries both directions: a forward construction that
turns a source solution into a target solution, and a backward extraction
that recovers a source solution from a target one.  The verification
harness exercises both against the brute-force oracles.

Item indexing for both knapsack reductions: the item for (vertex v,
symbol s) is v * sigma_size + s, so solutions transfer between the plain
and the dimension-packed target unchanged.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .csp import (
    Csp2Instance,
    PartialAssignment,
    RcspInstance,
    SatInstance,
    clause_variables,
    is_consistent,
)
from .disperser import build_disperser
from .embedding import simple_connected_embedding
from .errors import CapExceededError
from .graphs import Edge, Graph, complete_graph, graph_from_edges, line_graph
from .knapsack import Solution, VkInstance, check_feasible

# Largest number of candidate assignments, 2^(variables), that
# _satisfying_codes enumerates for one host vertex's clause set.
ALPHABET_CAP = 1 << 16

# Largest dimension, and largest cost-table size (items times dimensions),
# of the plain or the packed target; each cost entry takes at least a
# pointer, so the cap keeps the table near 100 MB.
TARGET_CAP = 10_000_000

# Most decimal digits of a packed target entry: CPython's default limit on
# int <-> str conversion, so every target built can also be written.  As
# log2(10) > 3.32, an entry of at most 3.32 bits per digit is under it.
TARGET_DIGITS_CAP = 4300

# Largest host size k of either 3-SAT route, checked before the covering
# family or the host graph is built.  The disperser route's complete host
# has k(k-1)/2 edges, each with a projection row per endpoint: on the README
# formula (8 variables, 5 clauses, one cover) k = 128 peaks near 100 MB.
HOST_CAP = 128

# Largest projection table, 2 * |E| * sigma entries, that sat_to_rcsp
# builds, checked after the per-vertex codes and before the projections.
# HOST_CAP bounds |E| but not sigma, which reaches ALPHABET_CAP.  Peak RSS of
# reduce sat2rcsp-disperser grows by ~150 bytes an entry (155 MB at 918,592
# entries, 173 MB at 1,038,972), so the cap keeps a run near 175 MB.
PROJECTION_CAP = 1 << 20

# A packed-dimension constraint is either a vertex index or an oriented edge.
Constraint = Union[int, Edge]


# ---------------------------------------------------------------------------
# 3-SAT -> rectangular CSP
# ---------------------------------------------------------------------------

def build_clause_conflict_graph(phi: SatInstance) -> Graph:
    """Graph on clause indices, joined whenever two clauses share a variable."""
    pairs = []
    variables = [clause_variables(c) for c in phi.clauses]
    for i in range(len(variables)):
        for j in range(i + 1, len(variables)):
            if variables[i] & variables[j]:
                pairs.append((i, j))
    return graph_from_edges(phi.clause_count, pairs)


def _satisfying_codes(
    phi: SatInstance, clause_indices
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(ascending variables, codes of assignments satisfying all the clauses).

    A code packs an assignment to the variables first variable in the most
    significant bit, so ascending codes enumerate assignment vectors in
    lexicographic order.  Each clause becomes a pair (mask, falsifying):
    mask holds the bits of its three distinct variables and falsifying the
    bits set by the one assignment of them that makes every literal false
    (the negated variables).  A code satisfies the clause iff
    code & mask != falsifying.
    """
    used: set[int] = set()
    for c in clause_indices:
        used |= clause_variables(phi.clauses[c])
    variables = tuple(sorted(used))
    t = len(variables)
    if 1 << t > ALPHABET_CAP:
        raise CapExceededError(
            f"2^{t} candidate assignments exceed the alphabet cap {ALPHABET_CAP}"
        )
    bit = {v: 1 << (t - 1 - i) for i, v in enumerate(variables)}
    good = range(1 << t)
    for c in clause_indices:
        clause = phi.clauses[c]
        mask = sum(bit[abs(lit)] for lit in clause)
        falsifying = sum(bit[-lit] for lit in clause if lit < 0)
        good = [code for code in good if code & mask != falsifying]
    return variables, tuple(good)


def _host_codes(phi: SatInstance, host: Graph, clause_sets) -> list:
    """Each host vertex's (variables, satisfying codes), after checking that
    there is one clause set per host vertex and each index names a clause."""
    if len(clause_sets) != host.vertex_count:
        raise ValueError("one clause set per host vertex required")
    chosen = [tuple(sorted(set(indices))) for indices in clause_sets]
    for indices in chosen:
        for c in indices:
            if not 0 <= c < phi.clause_count:
                raise ValueError(f"clause index {c} out of range")
    return [_satisfying_codes(phi, indices) for indices in chosen]


def sat_to_rcsp(phi: SatInstance, host: Graph, clause_sets) -> RcspInstance:
    """Rectangular CSP whose vertices carry the satisfying assignments of
    their clause set and whose edges force agreement on shared variables.

    One global alphabet of size max_x |Phi_x| indexes each vertex's
    satisfying assignments in lexicographic order; indices beyond a
    vertex's own count project to a per-vertex sentinel, which can never
    agree with the opposite endpoint.  The shared range packs restrictions
    to the edge's common variables below all sentinels.
    """
    per_vertex = _host_codes(phi, host, clause_sets)
    for x, (_, codes) in enumerate(per_vertex):
        if not codes:
            warnings.warn(
                f"host vertex {x} hosts an unsatisfiable clause set; it has no "
                f"symbol participating in any consistent assignment",
                stacklevel=2,
            )

    sigma_size = max(1, max(len(codes) for _, codes in per_vertex) if per_vertex else 1)
    entries = 2 * len(host.edge_list) * sigma_size
    if entries > PROJECTION_CAP:
        raise CapExceededError(
            f"projection table of {entries} entries exceeds the cap {PROJECTION_CAP}"
        )
    shared: dict[Edge, tuple[int, ...]] = {}
    for (x, y) in host.edge_list:
        vx, _ = per_vertex[x]
        vy, _ = per_vertex[y]
        shared[(x, y)] = tuple(sorted(set(vx) & set(vy)))
    packed_range = 1 << max((len(s) for s in shared.values()), default=0)

    projections = {}
    for (x, y), common in shared.items():
        side = []
        for vertex in (x, y):
            variables, codes = per_vertex[vertex]
            # each code restricted to the common variables, packed likewise:
            # bit src of a code moves to bit dst, and the variables with one
            # shift src - dst move together in one mask-and-shift pass (one
            # pass in all when every variable of the vertex is common)
            t, k = len(variables), len(common)
            masks: dict[int, int] = {}
            for j, v in enumerate(common):
                src = t - 1 - variables.index(v)
                shift = src - (k - 1 - j)
                masks[shift] = masks.get(shift, 0) | 1 << src
            proj = [0] * len(codes)
            for shift, mask in masks.items():
                proj = [p | (code & mask) >> shift for p, code in zip(proj, codes)]
            proj += [packed_range + vertex] * (sigma_size - len(codes))
            side.append(tuple(proj))
        projections[(x, y)] = (side[0], side[1])

    return RcspInstance(
        graph=host,
        sigma_size=sigma_size,
        upsilon_size=packed_range + host.vertex_count,
        projections=projections,
    )


def rcsp_assignment_from_sat(
    phi: SatInstance, host: Graph, clause_sets, assignment
) -> PartialAssignment:
    """Project a satisfying assignment of the formula onto every host vertex.

    Valid (and total) whenever the assignment satisfies all clauses of
    every clause set, in particular whenever it satisfies the formula.
    """
    if len(assignment) != phi.variable_count:
        raise ValueError(
            f"assignment length {len(assignment)} != variable count {phi.variable_count}"
        )
    values = []
    for x, (variables, codes) in enumerate(_host_codes(phi, host, clause_sets)):
        t = len(variables)
        code = sum(1 << (t - 1 - i) for i, v in enumerate(variables) if assignment[v - 1])
        symbol = bisect_left(codes, code)
        if symbol == len(codes) or codes[symbol] != code:
            raise ValueError(f"assignment does not satisfy the clause set of vertex {x}")
        values.append(symbol)
    return PartialAssignment(tuple(values))


def _check_host_size(k: int) -> None:
    if k > HOST_CAP:
        raise CapExceededError(f"host size {k} exceeds the host cap {HOST_CAP}")


def sat_to_rcsp_embedding_route(phi: SatInstance, k: int) -> RcspInstance:
    """Clause-conflict graph, embedded into a small cubic host; each host
    vertex receives the clauses whose image covers it."""
    _check_host_size(k)
    conflict = build_clause_conflict_graph(phi)
    host, emb = simple_connected_embedding(conflict, k)
    clause_sets = [
        frozenset(c for c in range(phi.clause_count) if x in emb.images[c])
        for x in range(host.vertex_count)
    ]
    return sat_to_rcsp(phi, host, clause_sets)


def sat_to_rcsp_disperser_route(
    phi: SatInstance, k: int, cover_count: int, epsilon, seed: int
) -> RcspInstance:
    """Complete host graph on k vertices; clause sets drawn from a verified
    covering family over the clause universe."""
    _check_host_size(k)
    m = phi.clause_count
    eps = Fraction(epsilon)
    if m == 0:
        clause_sets = [frozenset() for _ in range(k)]
    else:
        if eps == 0 or cover_count == 0:
            set_size = m
        else:
            set_size = min(m, math.ceil(Fraction(3 * m) / (eps * cover_count)))
        family = build_disperser(m, k, set_size, cover_count, eps, seed)
        clause_sets = list(family.sets)
    return sat_to_rcsp(phi, complete_graph(k), clause_sets)


# ---------------------------------------------------------------------------
# binary CSP -> rectangular CSP
# ---------------------------------------------------------------------------

def _shared_alphabet(gamma: Csp2Instance) -> tuple[int, ...]:
    """Sorted codes a * sigma_size + b of the pairs allowed on any edge."""
    if not gamma.graph.is_regular(3):
        raise ValueError("constraint graph must be 3-regular")
    sigma = gamma.sigma_size
    codes = {a * sigma + b for allowed in gamma.constraints.values() for a, b in allowed}
    return tuple(sorted(codes))


def csp2_to_rcsp(gamma: Csp2Instance) -> RcspInstance:
    """Rectangular CSP on the line graph of the cubic constraint graph.

    The paper takes two steps.  First, each edge e of the constraint graph
    becomes a line vertex whose alphabet is e's allowed pairs, and two
    adjacent edges must agree on their shared endpoint's symbol.  Second,
    the per-vertex alphabets collapse into one shared alphabet (their
    union, as codes a * sigma + b in ascending order), and a line vertex's
    out-of-alphabet symbols project to a sentinel of its own stacked above
    the symbol range, which no neighbor can match.  Both steps happen at
    once here: line vertex z projects a code whose pair z allows onto that
    pair's entry at the shared endpoint, and any other code onto
    sigma + z.  The line graph of a cubic graph is 4-regular.
    """
    order = _shared_alphabet(gamma)
    sigma = gamma.sigma_size
    base_edges = gamma.graph.edge_list
    pairs = [divmod(code, sigma) for code in order]
    # rows[z][i]: line vertex z's projection onto entry i of its base edge
    rows = [
        tuple(
            tuple(p[i] if p in gamma.constraints[e] else sigma + z for p in pairs)
            for i in (0, 1)
        )
        for z, e in enumerate(base_edges)
    ]
    lgraph = line_graph(gamma.graph)
    projections = {}
    for (x, y) in lgraph.edge_list:
        ex, ey = base_edges[x], base_edges[y]
        (shared,) = set(ex) & set(ey)
        projections[(x, y)] = (rows[x][ex.index(shared)], rows[y][ey.index(shared)])
    return RcspInstance(
        graph=lgraph,
        sigma_size=len(order),
        upsilon_size=sigma + len(base_edges),
        projections=projections,
    )


def rcsp_assignment_from_csp2(gamma: Csp2Instance, assignment) -> PartialAssignment:
    """Total line-vertex labeling induced by a total assignment satisfying
    every edge: each edge is labeled with the code of its endpoint pair."""
    index = {code: i for i, code in enumerate(_shared_alphabet(gamma))}
    values = []
    for (u, v) in gamma.graph.edge_list:
        pair = (assignment[u], assignment[v])
        if pair not in gamma.constraints[(u, v)]:
            raise ValueError(f"assignment violates edge ({u}, {v})")
        values.append(index[pair[0] * gamma.sigma_size + pair[1]])
    return PartialAssignment(tuple(values))


def csp2_assignment_from_rcsp(gamma: Csp2Instance, phi: PartialAssignment) -> tuple[int, ...]:
    """Read a vertex assignment back off a line-vertex labeling.

    A symbol whose pair its edge does not allow (possible only on a line
    vertex with no labeled neighbor) stands for that edge's smallest
    allowed pair.  Each vertex copies its symbol from its first labeled
    incident edge; vertices with no labeled edge default to symbol 0.
    """
    order = _shared_alphabet(gamma)
    base_edges = gamma.graph.edge_list
    labels = {}
    for z, s in enumerate(phi.values):
        if s is not None:
            allowed = gamma.constraints[base_edges[z]]
            pair = divmod(order[s], gamma.sigma_size)
            labels[base_edges[z]] = pair if pair in allowed else min(allowed)
    return tuple(
        next((labels[e][e.index(v)] for e in gamma.graph.incident[v] if e in labels), 0)
        for v in range(gamma.graph.vertex_count)
    )


# ---------------------------------------------------------------------------
# rectangular CSP -> vector knapsack, one dimension per constraint endpoint
# ---------------------------------------------------------------------------

def _check_target_shape(kind: str, items: int, d: int) -> None:
    if max(d, items * d) > TARGET_CAP:
        raise CapExceededError(
            f"{kind} target of {items} items in {d} dimensions exceeds the cap "
            f"{TARGET_CAP} on its dimension and cost-table size"
        )


def item_index(pi: RcspInstance, v: int, s: int) -> int:
    return v * pi.sigma_size + s


def item_of(pi: RcspInstance, index: int) -> tuple[int, int]:
    return divmod(index, pi.sigma_size)


def _symbol_classes(pi: RcspInstance, v: int):
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


def _rows(columns, keys):
    """Each symbol's row from columns over the distinct keys: one tuple
    object per key, put at every symbol with that key."""
    if keys is None:
        return zip(*columns)
    row_of = dict(zip(dict.fromkeys(keys), zip(*columns)))
    return map(row_of.__getitem__, keys)


def rcsp_to_vk_simple(pi: RcspInstance) -> VkInstance:
    """Unit-profit knapsack with one dimension per vertex and two per edge.

    A vertex dimension admits at most one copy of its vertex; the two
    dimensions of an edge are budget-tight exactly when the chosen symbols
    project equally, so feasible solutions are consistent partial
    assignments and vice versa.  Symbols of a vertex with equal projections
    on all its edges have equal rows, and the target holds one tuple for
    them (_symbol_classes).
    """
    n = pi.graph.vertex_count
    sigma = pi.sigma_size
    d = n + 2 * len(pi.graph.edges)
    _check_target_shape("plain", n * sigma, d)
    m = pi.upsilon_size
    index = {e: t for t, e in enumerate(pi.graph.edge_list)}
    costs = []
    for v in range(n):
        sides, width, keys = _symbol_classes(pi, v)
        # vertex v's rows, built column by column from its own constraints
        columns = [(0,) * width] * d
        columns[v] = (m,) * width
        for e, side in zip(pi.graph.incident[v], sides):
            dim = n + 2 * index[e]
            complement = [m - p for p in side]
            if v == e[0]:
                columns[dim], columns[dim + 1] = side, complement
            else:
                columns[dim], columns[dim + 1] = complement, side
        costs += _rows(columns, keys)
    return VkInstance(
        profits=(1,) * (n * sigma),
        costs=tuple(costs),
        budget=(m,) * d,
    )


# ---------------------------------------------------------------------------
# rectangular CSP -> vector knapsack, many constraints packed per dimension
# ---------------------------------------------------------------------------

def constraint_weight(pi: RcspInstance, constraint: Constraint, v: int, s: int) -> int:
    """Per-constraint weight of item (v, s): the full range size on the
    item's own vertex constraint, the projection value on an edge whose
    first endpoint is v, its complement on an edge whose second endpoint
    is v, and zero elsewhere."""
    m = pi.upsilon_size
    if isinstance(constraint, int):
        return m if constraint == v else 0
    a, b = constraint
    proj_a, proj_b = pi.projections[constraint]
    if v == a:
        return proj_a[s]
    if v == b:
        return m - proj_b[s]
    return 0


@dataclass(frozen=True)
class EmbedReductionArtifacts:
    """Everything the packed reduction derived from (instance, chunk size).

    partition lists the constraints chunk by chunk; a constraint's packing
    position within its chunk (1-based) is its digit exponent.  coverage[l][v]
    counts the constraints of chunk l involving vertex v; chunk_totals[l],
    derived, is the sum of that row.  base_q is the digit base and sentinel,
    derived, the high multiplier separating the count digit from the packed
    digits.
    """

    chunk_size: int
    partition: tuple[tuple[Constraint, ...], ...]
    coverage: tuple[tuple[int, ...], ...]
    base_q: int

    @property
    def chunk_count(self) -> int:
        return len(self.partition)

    @cached_property
    def chunk_totals(self) -> tuple[int, ...]:
        return tuple(map(sum, self.coverage))

    @cached_property
    def sentinel(self) -> int:
        return self.base_q ** (2 * self.chunk_size)

    @cached_property
    def placement(self) -> dict[Constraint, tuple[int, int]]:
        """constraint -> (its chunk l, its digit power base_q ** position)."""
        q = self.base_q
        return {
            j: (l, q ** (pos + 1))
            for l, chunk in enumerate(self.partition)
            for pos, j in enumerate(chunk)
        }


def embed_artifacts(pi: RcspInstance, chunk_size: int) -> EmbedReductionArtifacts:
    """Deterministic partition and derived counts for the packed reduction.

    Constraints are ordered vertices-first then edges lexicographically and
    chunked into consecutive blocks; the last block may be smaller.
    """
    n = pi.graph.vertex_count
    edges = pi.graph.edge_list
    if not 1 <= chunk_size <= n + len(edges):
        raise ValueError(
            f"chunk size {chunk_size} outside [1, {n + len(edges)}]"
        )
    ordered: list[Constraint] = list(range(n)) + list(edges)
    partition = tuple(
        tuple(ordered[i: i + chunk_size]) for i in range(0, len(ordered), chunk_size)
    )
    _check_target_shape("packed", n * pi.sigma_size, 2 * len(partition))
    # the cost-table check bounds this table only when sigma >= 1
    if n * len(partition) > TARGET_CAP:
        raise CapExceededError(
            f"packed target's coverage table of {n} vertices by {len(partition)} chunks "
            f"exceeds the cap {TARGET_CAP}"
        )
    coverage = []
    for chunk in partition:
        row = [0] * n
        for constraint in chunk:
            if isinstance(constraint, int):
                row[constraint] += 1
            else:
                row[constraint[0]] += 1
                row[constraint[1]] += 1
        coverage.append(tuple(row))
    return EmbedReductionArtifacts(
        chunk_size=chunk_size,
        partition=partition,
        coverage=tuple(coverage),
        base_q=3 * chunk_size ** 2 * pi.upsilon_size * n * pi.sigma_size,
    )


def rcsp_to_vk_embed(
    pi: RcspInstance, chunk_size: int
) -> tuple[VkInstance, EmbedReductionArtifacts]:
    """Pack many constraints into two dimensions each as base-Q digits.

    The first dimension of a chunk stacks the per-constraint weights into
    separate digits; the second holds the complement against a high
    multiple of the sentinel, which caps how many covered items a feasible
    solution may select and forces every digit to its target once that cap
    is met.  Requires a 3-regular constraint graph.

    Each vertex's rows are built from its own four constraints (the vertex
    and its three edges), placed by art.placement: every other constraint
    weighs zero on the vertex's items (constraint_weight), so only the at
    most four chunks holding them get nonzero entries.  The rows come out
    column by column, one packed column per touched chunk, and symbols of
    a vertex with equal projections on its three edges share one row tuple
    (_symbol_classes).  Every item takes part in four constraints, its
    vertex's and its three edges', which is its profit.
    """
    if not pi.graph.is_regular(3):
        raise ValueError("constraint graph must be 3-regular")
    art = embed_artifacts(pi, chunk_size)
    entry = art.sentinel * max(art.chunk_totals)  # no entry of the target exceeds it
    if entry.bit_length() > TARGET_DIGITS_CAP * 332 // 100 and entry >= 10 ** TARGET_DIGITS_CAP:
        raise CapExceededError(
            f"packed target entries of up to {entry.bit_length()} bits exceed the cap of "
            f"{TARGET_DIGITS_CAP} decimal digits"
        )
    n = pi.graph.vertex_count
    sigma = pi.sigma_size
    m = pi.upsilon_size
    big = art.sentinel
    d = 2 * art.chunk_count
    place = art.placement

    costs = []
    for v in range(n):
        sides, width, keys = _symbol_classes(pi, v)
        l, power = place[v]
        packed = {l: [m * power] * width}  # chunk -> packed digits, key by key
        for j, side in zip(pi.graph.incident[v], sides):
            weights = side if v == j[0] else [m - p for p in side]
            l, power = place[j]
            column = packed.get(l)
            packed[l] = (
                [w * power for w in weights] if column is None
                else [x + w * power for x, w in zip(column, weights)]
            )
        columns = [(0,) * width] * d
        for l, column in packed.items():
            cap = big * art.coverage[l][v]
            columns[2 * l] = column
            columns[2 * l + 1] = [cap - x for x in column]
        costs += _rows(columns, keys)

    # a chunk's packed budget, m in each of its digits, depends on its length alone
    q = art.base_q
    packed_budgets = {
        k: m * sum(q ** i for i in range(1, k + 1)) for k in set(map(len, art.partition))
    }
    budget = []
    for chunk, total in zip(art.partition, art.chunk_totals):
        packed_budget = packed_budgets[len(chunk)]
        budget += (packed_budget, big * total - packed_budget)

    inst = VkInstance(
        profits=(4,) * (n * sigma), costs=tuple(costs), budget=tuple(budget)
    )
    return inst, art


def vk_solution_from_assignment(pi: RcspInstance, phi: PartialAssignment) -> Solution:
    """Item set of a total consistent assignment; feasible in both the plain
    and the packed target, with profit |V| respectively |V| + 2|E|."""
    if len(phi.values) != pi.graph.vertex_count:
        raise ValueError("assignment must cover the vertex set")
    if any(s is None for s in phi.values):
        raise ValueError("assignment must be total")
    if not is_consistent(pi, phi):
        raise ValueError("assignment must be consistent")
    return Solution(
        frozenset(item_index(pi, v, s) for v, s in enumerate(phi.values))
    )


def extract_partial_assignment(
    pi: RcspInstance, variant, solution: Solution, precomputed
) -> PartialAssignment:
    """Consistent partial assignment recovered from a feasible solution.

    variant is the string "simple" for the one-dimension-per-endpoint
    target, or the integer chunk size of the packed target.  For the packed
    target only vertices all of whose constraints sit in budget-saturated
    chunks are assigned; the saturation argument guarantees the result is
    consistent and of size at least |V| - 2 * deficit * chunk_size.

    precomputed is the target that solution was drawn from: the plain
    target for "simple", the (target, artifacts) pair of the packed one
    otherwise, whose chunk size must equal variant.
    """
    plain = isinstance(precomputed, VkInstance)
    if variant == "simple":
        if not plain:
            raise ValueError('"simple" takes the plain target, not a (target, artifacts) pair')
        if not check_feasible(precomputed, solution):
            raise ValueError("solution is infeasible in the plain target")
        chosen_vertices: set[int] = set()
        values: list[Optional[int]] = [None] * pi.graph.vertex_count
        for index in sorted(solution.chosen):
            v, s = item_of(pi, index)
            if v in chosen_vertices:
                raise ValueError(f"feasible solution selects two copies of vertex {v}")
            chosen_vertices.add(v)
            values[v] = s
        return PartialAssignment(tuple(values))

    if plain:
        raise ValueError(f"chunk size {variant} takes a (target, artifacts) pair, not a target")
    target, art = precomputed
    if variant != art.chunk_size:
        raise ValueError(f"variant {variant} is not the artifacts' chunk size {art.chunk_size}")
    if not check_feasible(target, solution):
        raise ValueError("solution is infeasible in the packed target")
    n = pi.graph.vertex_count
    chunks_of = [
        {art.placement[j][0] for j in (v, *pi.graph.incident[v])} for v in range(n)
    ]
    loads = [0] * art.chunk_count
    symbols_of: list[list[int]] = [[] for _ in range(n)]
    for index in sorted(solution.chosen):
        v, s = item_of(pi, index)
        symbols_of[v].append(s)
        for l in chunks_of[v]:
            loads[l] += art.coverage[l][v]
    saturated = {l for l, total in enumerate(art.chunk_totals) if loads[l] == total}
    values = [None] * n
    for v in range(n):
        if chunks_of[v] <= saturated:
            symbols = symbols_of[v]
            if len(symbols) != 1:
                raise ValueError(
                    f"saturation should force exactly one copy of vertex {v}, "
                    f"found {len(symbols)}"
                )
            values[v] = symbols[0]
    return PartialAssignment(tuple(values))


def verify_base_q_digits(digits, base_q: int, target_digit: int) -> bool:
    """True iff the stacked digit sum equals the all-target digit sum.

    Digit stacks with every digit below the base collide only when they
    are identical, so this equality holds exactly when every digit equals
    the target; the exhaustive tests assert that equivalence.
    """
    if base_q < 2:
        raise ValueError("base must be at least 2")
    if not 0 <= target_digit < base_q:
        raise ValueError(f"target digit {target_digit} outside [0, {base_q})")
    for a in digits:
        if not 0 <= a < base_q:
            raise ValueError(f"digit {a} outside [0, {base_q})")
    lhs = sum(a * base_q ** (i + 1) for i, a in enumerate(digits))
    rhs = sum(target_digit * base_q ** (i + 1) for i in range(len(digits)))
    return lhs == rhs

