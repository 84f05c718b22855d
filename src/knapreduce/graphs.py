"""Simple oriented graphs on dense integer vertices.

Every edge is stored as an ordered pair (u, v) with u < v, so the two
endpoints of an edge have a fixed identity everywhere downstream (cost
tables and projection maps are keyed per endpoint).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConstructionError

Edge = tuple[int, int]

# Pairings drawn before random_regular3_graph gives up.
PAIRING_TRY_CAP = 1000


@dataclass(frozen=True)
class Graph:
    """Simple graph; edges oriented low-to-high vertex index.

    The edge list and the incident-edge table are built once, on first use;
    equality and hashing compare only vertex_count and edges.
    """

    vertex_count: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) is not oriented within range")

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in lexicographic order; the canonical edge indexing."""
        return tuple(sorted(self.edges))

    @cached_property
    def incident(self) -> tuple[tuple[Edge, ...], ...]:
        """incident[v]: the edges at v, in lexicographic order."""
        table: list[list[Edge]] = [[] for _ in range(self.vertex_count)]
        for e in self.edge_list:
            table[e[0]].append(e)
            table[e[1]].append(e)
        return tuple(map(tuple, table))

    def neighbors(self, v: int) -> tuple[int, ...]:
        # edges (u, v) with u < v sort before edges (v, w), so this ascends
        return tuple(u + w - v for (u, w) in self.incident[v])

    def is_regular(self, r: int) -> bool:
        # the edge count refutes most claims before the table is built,
        # which also keeps a huge declared vertex_count from allocating it
        if 2 * len(self.edges) != r * self.vertex_count:
            return False
        return all(len(at) == r for at in self.incident)


def graph_from_edges(vertex_count: int, pairs) -> Graph:
    """Build a Graph from unordered pairs, normalizing the orientation."""
    edges = set()
    for a, b in pairs:
        if a == b:
            raise ValueError(f"self-loop at {a}")
        edges.add((min(a, b), max(a, b)))
    return Graph(vertex_count, frozenset(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def circulant_cubic_graph(n: int) -> Graph:
    """3-regular graph on n vertices: an n-cycle plus the n/2 diameters.

    n must be even and at least 4; n = 4 yields K4.
    """
    if n < 4 or n % 2:
        raise ConstructionError(f"no 3-regular graph on {n} vertices (need even n >= 4)")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, i + n // 2) for i in range(n // 2)]
    return graph_from_edges(n, pairs)


def line_graph(g: Graph) -> Graph:
    """Line graph: vertices are g's edges (in lexicographic order), joined
    when the underlying edges share exactly one endpoint."""
    index = {e: i for i, e in enumerate(g.edge_list)}
    pairs = [
        (index[e], index[f]) for at in g.incident for i, e in enumerate(at) for f in at[i + 1:]
    ]
    return graph_from_edges(len(index), pairs)


def random_regular3_graph(n: int, rng: random.Random) -> Graph:
    """Seeded 3-regular simple graph via the pairing model with rejection."""
    if n < 4 or n % 2:
        raise ConstructionError(f"no 3-regular graph on {n} vertices (need even n >= 4)")
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(PAIRING_TRY_CAP):
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(a == b for a, b in pairs):
            continue
        norm = {(min(a, b), max(a, b)) for a, b in pairs}
        if len(norm) < len(pairs):
            continue
        return Graph(n, frozenset(norm))
    raise ConstructionError(f"pairing model failed to produce a simple graph in {PAIRING_TRY_CAP} tries")


def random_graph(n: int, edge_count: int, rng: random.Random) -> Graph:
    """Seeded graph with exactly edge_count distinct edges.

    Samples positions in the lexicographic list of all pairs (u, v), u < v,
    without building it: rng.sample draws the same positions from any
    population of the same length, and each position is unranked directly.
    """
    pair_count = n * (n - 1) // 2 if n > 1 else 0
    if edge_count > pair_count:
        raise ValueError(f"cannot place {edge_count} edges on {n} vertices")
    if pair_count > sys.maxsize:
        raise ValueError(f"{n} vertices have more pairs than random.sample can index")
    edges = set()
    for position in rng.sample(range(pair_count), edge_count):
        # back pairs follow this one; from the end, the rows u = n-2, n-3, ...
        # hold 1, 2, ... pairs, so it lies in the row u = n-1-size of size pairs
        back = pair_count - 1 - position
        size = (math.isqrt(8 * back + 1) + 1) // 2
        edges.add((n - 1 - size, n - 1 - back + size * (size - 1) // 2))
    return Graph(n, frozenset(edges))
