"""Constraint-problem instance models and exact brute-force oracles.

Three instance forms live here: bounded-occurrence 3-SAT, plain binary CSP
over a constraint graph, and the rectangular variant whose edges compare
two projections into a shared range.  All oracles are exhaustive (with
pruning) and refuse with CapExceededError instead of truncating the
search: the 3-SAT one above a variable count, the two pruned searches once
they visit more nodes than their budget.

Symbols and vertices are dense 0-based integers throughout; the rectangular
range {1..m} of the literature is stored 0-based here and shifted only at
the file-format boundary.  The unassigned marker for partial assignments is
None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DEFAULT_NODE_CAP, CapExceededError, search_budget_exceeded
from .graphs import Edge, Graph

# Most variables whose 2^n assignments sat_opt_bruteforce enumerates.
SAT_ENUM_CAP = 24

Symbol = Optional[int]


@dataclass(frozen=True)
class SatInstance:
    """3-SAT with at most occurrence_bound appearances per variable.

    Literals are nonzero DIMACS-style integers: +v / -v for variable v in
    1..variable_count.  Every clause mentions three distinct variables.
    """

    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]
    occurrence_bound: int

    def __post_init__(self):
        if self.variable_count < 0:
            raise ValueError("variable_count must be nonnegative")
        # counted per occurring variable: variable_count may be huge
        counts: dict[int, int] = {}
        for clause in self.clauses:
            seen = set()
            for lit in clause:
                v = abs(lit)
                if lit == 0 or not 1 <= v <= self.variable_count:
                    raise ValueError(f"literal {lit} out of range")
                seen.add(v)
                counts[v] = counts.get(v, 0) + 1
            if len(seen) != 3:
                raise ValueError(f"clause {clause} does not use 3 distinct variables")
        if any(c > self.occurrence_bound for c in counts.values()):
            raise ValueError("a variable exceeds the occurrence bound")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def clause_variables(clause: tuple[int, int, int]) -> frozenset[int]:
    return frozenset(abs(lit) for lit in clause)


def count_satisfied(phi: SatInstance, assignment) -> int:
    """Number of clauses with at least one true literal under assignment
    (a sequence of bools, index v-1 for variable v)."""
    if len(assignment) != phi.variable_count:
        raise ValueError(
            f"assignment length {len(assignment)} != variable count {phi.variable_count}"
        )
    sat = 0
    for clause in phi.clauses:
        for lit in clause:
            value = assignment[abs(lit) - 1]
            if (lit > 0) == bool(value):
                sat += 1
                break
    return sat


def sat_opt_bruteforce(phi: SatInstance) -> int:
    """Maximum number of simultaneously satisfiable clauses, by full enumeration."""
    n = phi.variable_count
    if n > SAT_ENUM_CAP:
        raise CapExceededError(f"{n} variables exceeds enumeration cap {SAT_ENUM_CAP}")
    best = 0
    m = phi.clause_count
    for mask in range(1 << n):
        assignment = [(mask >> v) & 1 for v in range(n)]
        best = max(best, count_satisfied(phi, assignment))
        if best == m:
            break
    return best


@dataclass(frozen=True)
class Csp2Instance:
    """Binary CSP: each edge carries a nonempty set of allowed symbol pairs."""

    graph: Graph
    sigma_size: int
    constraints: dict[Edge, frozenset[tuple[int, int]]]

    def __post_init__(self):
        if self.sigma_size < 0:
            raise ValueError("sigma_size must be nonnegative")
        if set(self.constraints) != set(self.graph.edges):
            raise ValueError("constraints must be keyed exactly by the edge set")
        for e, allowed in self.constraints.items():
            if not allowed:
                raise ValueError(f"empty constraint on edge {e}")
            for a, b in allowed:
                if not (0 <= a < self.sigma_size and 0 <= b < self.sigma_size):
                    raise ValueError(f"constraint pair ({a}, {b}) outside alphabet")


def csp_value(gamma: Csp2Instance, assignment) -> int:
    """Number of edges whose endpoint pair is allowed under a total assignment."""
    if len(assignment) != gamma.graph.vertex_count:
        raise ValueError("assignment must cover every vertex")
    for a in assignment:
        if not 0 <= a < gamma.sigma_size:
            raise ValueError(f"symbol {a} outside alphabet")
    return sum(
        1
        for (u, v) in gamma.graph.edge_list
        if (assignment[u], assignment[v]) in gamma.constraints[(u, v)]
    )


def csp_opt_bruteforce(gamma: Csp2Instance, max_nodes: int = DEFAULT_NODE_CAP) -> int:
    """Maximum number of satisfiable edges over all total assignments.

    Refuses with CapExceededError once the search expands more than
    max_nodes partial assignments.
    """
    n = gamma.graph.vertex_count
    edges = gamma.graph.edge_list
    total = len(edges)
    if not total:
        return 0
    alphabet = range(gamma.sigma_size)
    # closing[v] holds (u, allowed) for each edge (u, v) with u < v, where
    # allowed[a] is the set of symbols v may take beside symbol a at u.
    closing: list[list[tuple]] = [[] for _ in range(n)]
    for (u, w) in edges:
        allowed: list[set[int]] = [set() for _ in alphabet]
        for a, b in gamma.constraints[(u, w)]:
            allowed[a].add(b)
        closing[w].append((u, allowed))
    remaining_after = [sum(len(closing[w]) for w in range(v + 1, n)) for v in range(n)]
    last = n - 1
    best = 0
    assignment: list[int] = [0] * n
    # One loop over an explicit stack of (vertex, symbol iterator, score)
    # frames, one per expanded vertex above the current one; a resumed
    # frame goes on with the symbols its iterator has left.  A node is
    # counted when it is entered (symbols is None), the root included.  A
    # leaf updates the incumbent in its parent, and a child is entered only
    # if its bound can beat the incumbent.  A full score ends the search.
    nodes, stack = 0, []
    v = score = 0
    symbols = None
    while best < total:
        if symbols is None:
            nodes += 1
            if nodes > max_nodes:
                raise search_budget_exceeded(max_nodes)
            symbols = iter(alphabet)
        for s in symbols:
            assignment[v] = s
            gained = 0
            for u, allowed in closing[v]:
                if s in allowed[assignment[u]]:
                    gained += 1
            if v == last:
                best = max(best, score + gained)
                if best == total:
                    break
            elif score + gained + remaining_after[v] > best:
                stack.append((v, symbols, score))
                v, symbols, score = v + 1, None, score + gained
                break
        else:
            if not stack:
                break
            v, symbols, score = stack.pop()
    return best


@dataclass(frozen=True)
class RcspInstance:
    """Rectangular CSP: edge (u, v) is satisfied by (a, b) iff the two
    endpoint projections agree, proj_u[a] == proj_v[b].

    projections maps each edge to a pair (proj_u, proj_v) of tuples of
    length sigma_size with values in 0..upsilon_size-1; entry order follows
    the stored edge orientation u < v.

    The symbol_classes table is derived from projections on first use and
    kept with the instance, so an instance, its projections dict included,
    must not be mutated after construction (validation assumes as much).
    Equality compares only the fields, and dataclasses.replace gives an
    instance without the table.
    """

    graph: Graph
    sigma_size: int
    upsilon_size: int
    projections: dict[Edge, tuple[tuple[int, ...], tuple[int, ...]]]

    def __post_init__(self):
        if self.sigma_size < 0:
            raise ValueError("sigma_size must be nonnegative")
        if self.upsilon_size < 1:
            raise ValueError("upsilon_size must be at least 1")
        if set(self.projections) != set(self.graph.edges):
            raise ValueError("projections must be keyed exactly by the edge set")
        for e, (pu, pv) in self.projections.items():
            for proj in (pu, pv):
                if len(proj) != self.sigma_size:
                    raise ValueError(f"projection on {e} not total on the alphabet")
                if proj and (min(proj) < 0 or max(proj) >= self.upsilon_size):
                    raise ValueError(f"projection on {e} maps outside the range")

    @property
    def symbol_classes(self) -> tuple:
        """Each vertex's symbols grouped by their projections on its edges.

        The key of symbol s at vertex v is the tuple of v's side of the
        projection at s on each edge in graph.incident[v]; symbols with one
        key are interchangeable at v.  Entry v is (columns, width, classes):
        columns holds v's side on each incident edge over the width
        distinct keys in first-occurrence order, and classes gives each
        symbol's position among them.  When no key repeats (always so for
        sigma_size <= 1), columns are the projection tuples themselves,
        width is sigma_size and classes is None.  The table is read-only.

        It is built on first use and kept in the instance's __dict__ under
        this name, as functools.cached_property would keep it, but without
        the lock that cached_property takes on CPython 3.11 and earlier: on
        CPython 3.11.7 its first access took ~1.1 us against ~0.4 us for
        this property, and a whole plain-target build of a 2-5 vertex
        instance ~28 us.
        """
        table = self.__dict__.get("symbol_classes")
        if table is not None:
            return table
        sigma = self.sigma_size
        projections = self.projections
        table = []
        for v, at in enumerate(self.graph.incident):
            sides = [projections[e][e.index(v)] for e in at]
            if sigma > 1:
                keys = list(zip(*sides)) if sides else [()] * sigma
                distinct = dict.fromkeys(keys)
                if len(distinct) < sigma:
                    for position, key in enumerate(distinct):
                        distinct[key] = position
                    classes = list(map(distinct.__getitem__, keys))
                    table.append((list(zip(*distinct)), len(distinct), classes))
                    continue
            table.append((sides, sigma, None))
        table = self.__dict__["symbol_classes"] = tuple(table)
        return table


@dataclass(frozen=True)
class PartialAssignment:
    """Vertex labeling that may leave vertices unassigned (None)."""

    values: tuple[Symbol, ...]

    def size(self) -> int:
        return sum(1 for s in self.values if s is not None)


def is_consistent(pi: RcspInstance, phi: PartialAssignment) -> bool:
    """True iff every assigned symbol lies in range(sigma_size) and every
    edge with both endpoints assigned has agreeing projections."""
    if len(phi.values) != pi.graph.vertex_count:
        raise ValueError("partial assignment must cover the vertex set")
    for s in phi.values:
        if s is not None and not 0 <= s < pi.sigma_size:
            return False
    for (u, v), (pu, pv) in pi.projections.items():
        a, b = phi.values[u], phi.values[v]
        if a is None or b is None:
            continue
        if pu[a] != pv[b]:
            return False
    return True


def par_bruteforce(
    pi: RcspInstance, max_nodes: int = DEFAULT_NODE_CAP
) -> tuple[int, PartialAssignment]:
    """Maximum size of a consistent partial assignment, with a witness.

    The search assigns vertices in index order, trying the symbols
    ascending before leaving the vertex unassigned.  A branch dies as soon
    as an edge between two assigned vertices is violated or the remaining
    vertices cannot beat the incumbent.  Refuses with CapExceededError once
    the search expands more than max_nodes partial assignments.
    """
    n = pi.graph.vertex_count
    # closing[v] holds (u, proj_u, proj_v) for each edge (u, v) with u < v.
    closing: list[list[tuple]] = [[] for _ in range(n)]
    projections = pi.projections
    for e in pi.graph.edge_list:
        closing[e[1]].append((e[0], *projections[e]))
    best_size = 0
    best: tuple[Symbol, ...] = (None,) * n
    current: list[Symbol] = [None] * n
    last = n - 1
    # One loop over an explicit stack of (vertex, symbol iterator, assigned)
    # frames, one per vertex above the current one that holds a symbol; a
    # resumed frame goes on with the symbols its iterator has left.  A node
    # is counted when it is entered (symbols is None), the root included.
    # A leaf updates the incumbent in its parent, and a child is entered
    # only if its bound can beat the incumbent.  Leaving a vertex
    # unassigned is its last branch, so that child replaces its parent and
    # needs no frame.  A full assignment ends the search.
    alphabet = range(pi.sigma_size)
    nodes, stack = 0, []
    v = assigned = 0
    symbols = None
    while best_size < n:
        if symbols is None:
            nodes += 1
            if nodes > max_nodes:
                raise search_budget_exceeded(max_nodes)
            symbols = iter(alphabet)
        for s in symbols:
            for u, pu, pv in closing[v]:
                a = current[u]
                if a is not None and pu[a] != pv[s]:
                    break
            else:
                if v == last:
                    if assigned + 1 > best_size:
                        current[v] = s
                        best_size, best = assigned + 1, tuple(current)
                        current[v] = None
                        if best_size == n:
                            break
                elif assigned + n - v > best_size:
                    current[v] = s
                    stack.append((v, symbols, assigned))
                    v, symbols, assigned = v + 1, None, assigned + 1
                    break
        else:
            if v < last:
                if assigned + last - v > best_size:
                    v, symbols = v + 1, None
                    continue
            elif assigned > best_size:
                best_size, best = assigned, tuple(current)
            if not stack:
                break
            v, symbols, assigned = stack.pop()
            current[v] = None
    return best_size, PartialAssignment(best)
