"""Instance (de)serialization: UTF-8 JSON with a "kind" discriminator.

Layout notes:
  - vertices and symbols are 0-based sizes with implicit indexing;
  - rectangular projection values are written 1-based (the conventional
    range {1..m}) and shifted back to the internal 0-based form on parse;
  - knapsack costs and budgets are decimal strings, since the packed
    reduction produces integers far beyond 64 bits;
  - output is canonical (sorted keys, fixed indentation, trailing
    newline), so identical instances serialize byte for byte;
  - each document kind has one writer that yields that text a table row
    at a time, so writing, joining and hashing never hold a payload.
"""

from __future__ import annotations

import hashlib
import json
import re

from .csp import Csp2Instance, RcspInstance, SatInstance
from .graphs import Graph
from .knapsack import VkInstance
from .reductions import EmbedReductionArtifacts

# decimal text as str(int) writes it: no leading zeros, and 0 unsigned
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _graph_from_payload(kind: str, payload: dict) -> Graph:
    """The document's graph.  Per-edge entries bind to edge_list, the
    sorted edges, so a document whose edges are not strictly ascending is
    refused rather than having its entries land on other edges."""
    edges = _pairs(kind, "edges", payload["edges"])
    for before, after in zip(edges, edges[1:]):
        if before >= after:
            raise ValueError(f"malformed {kind} instance: edges are not strictly ascending: "
                             f"{list(before)} comes before {list(after)}")
    return Graph(payload["vertices"], frozenset(edges))


def _pairs(kind: str, field: str, entries) -> list:
    """entries as 2-tuples; an entry of any other length is refused by name."""
    pairs = [tuple(p) for p in entries]
    for p in pairs:
        if len(p) != 2:
            raise ValueError(f"malformed {kind} instance: {field} entry {list(p)} is not a pair")
    return pairs


def canonical_json(payload) -> str:
    """The one JSON layout written: sorted keys, indent 1, a final newline.
    The document writers below emit the same text without a payload."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _array(items, level: int) -> str:
    """A canonical JSON array of rendered items, each on its own line at
    indent level.  Every item is nonempty text, so an empty join is []."""
    pad = "\n" + " " * level
    body = ("," + pad).join(items)
    return "[" + pad + body + pad[:-1] + "]" if body else "[]"


def _stream(items, level: int):
    """The same array as chunks, one item per chunk, so a table is never
    held as text."""
    pad = "\n" + " " * level
    head = "[" + pad
    for item in items:
        yield head + item
        head = "," + pad
    yield "[]" if head[0] == "[" else pad[:-1] + "]"


_quoted = '"{}"'.format


def _edges(graph: Graph):
    return _stream((_array(map(str, e), 3) for e in graph.edge_list), 2)


def _sat_chunks(phi: SatInstance):
    yield '{\n "clauses": '
    yield from _stream((_array(map(str, c), 3) for c in phi.clauses), 2)
    yield (f',\n "kind": "sat",\n "occurrence_bound": {phi.occurrence_bound},'
           f'\n "variables": {phi.variable_count}\n}}\n')


def _csp2_chunks(gamma: Csp2Instance):
    graph = gamma.graph
    yield '{\n "constraints": '
    yield from _stream(
        (_array([_array(map(str, p), 4) for p in sorted(gamma.constraints[e])], 3)
         for e in graph.edge_list),
        2,
    )
    yield ',\n "edges": '
    yield from _edges(graph)
    yield (f',\n "kind": "csp2",\n "sigma_size": {gamma.sigma_size},'
           f'\n "vertices": {graph.vertex_count}\n}}\n')


def _projection(pu, pv) -> str:
    """One edge's projections, written 1-based."""
    return ('{\n   "u": ' + _array([str(t + 1) for t in pu], 4)
            + ',\n   "v": ' + _array([str(t + 1) for t in pv], 4) + "\n  }")


def _rcsp_chunks(pi: RcspInstance):
    graph = pi.graph
    yield '{\n "edges": '
    yield from _edges(graph)
    yield ',\n "kind": "rcsp",\n "projections": '
    yield from _stream((_projection(*pi.projections[e]) for e in graph.edge_list), 2)
    yield (f',\n "sigma_size": {pi.sigma_size},\n "upsilon_size": {pi.upsilon_size},'
           f'\n "vertices": {graph.vertex_count}\n}}\n')


def _vk_chunks(inst: VkInstance):
    yield '{\n "budget": ' + _array(map(_quoted, inst.budget), 2) + ',\n "costs": '
    yield from _stream((_array(map(_quoted, row), 3) for row in inst.costs), 2)
    yield f',\n "dimension": {inst.dimension},\n "kind": "vk",\n "profits": '
    yield from _stream(map(str, inst.profits), 2)
    yield "\n}\n"


def _constraint(j) -> str:
    """A partition entry: ["v", j] for vertex j, ["e", a, b] for edge (a, b)."""
    return _array(('"v"', str(j)) if isinstance(j, int) else ('"e"', str(j[0]), str(j[1])), 4)


def _artifacts_chunks(art: EmbedReductionArtifacts):
    """Audit record for the packed reduction: the partition (digit exponents
    are the 1-based positions within each chunk), coverage counts, and the
    derived big constants as decimal strings."""
    yield f'{{\n "base_q": "{art.base_q}",\n "chunk_size": {art.chunk_size},\n "chunk_totals": '
    yield from _stream(map(str, art.chunk_totals), 2)
    yield ',\n "coverage": '
    yield from _stream((_array(map(str, row), 3) for row in art.coverage), 2)
    yield ',\n "kind": "embed-artifacts",\n "partition": '
    yield from _stream((_array(map(_constraint, chunk), 3) for chunk in art.partition), 2)
    yield f',\n "sentinel": "{art.sentinel}"\n}}\n'


# Each document kind's chunk writer.  Its chunks joined are the document's
# canonical_json text; a writer reads the object itself, so no payload is
# built and the largest chunk is one row of a table.
_WRITERS = {
    SatInstance: _sat_chunks,
    Csp2Instance: _csp2_chunks,
    RcspInstance: _rcsp_chunks,
    VkInstance: _vk_chunks,
    EmbedReductionArtifacts: _artifacts_chunks,
}


def _chunks(obj):
    writer = _WRITERS.get(type(obj))
    if writer is None:
        raise ValueError(f"cannot serialize {type(obj).__name__}")
    return writer(obj)


def write_instance(obj, out) -> None:
    """Write the canonical document of an instance or of the packed
    reduction's artifacts to the text stream out, chunk by chunk."""
    for chunk in _chunks(obj):
        out.write(chunk)


def serialize_instance(obj) -> str:
    return "".join(_chunks(obj))


def instance_digest(obj) -> str:
    """Short stable digest used by verification records: the sha256 of the
    canonical document, fed chunk by chunk."""
    digest = hashlib.sha256()
    for chunk in _chunks(obj):
        digest.update(chunk.encode())
    return digest.hexdigest()[:12]


def parse_instance(text: str):
    """Instance from its JSON text; any malformed document raises ValueError."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("instance document is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError(f"instance document must be a JSON object, not {type(payload).__name__}")
    kind = payload.get("kind")
    if kind in ("sat", "csp2", "rcsp"):
        for field, value in payload.items():
            if field != "kind":
                _require_integers(kind, field, value)
    try:
        return _instance_from_payload(kind, payload)
    except KeyError as exc:
        raise ValueError(f"malformed {kind} instance: missing key {exc}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"malformed {kind} instance: {exc}") from None


def _per_edge(kind: str, field: str, graph: Graph, entries):
    """Pair entries with the edges in edge_list order, which is the
    document's own order once _graph_from_payload has accepted it.  Any
    other count is refused: zip would drop a surplus or leave edges
    without an entry."""
    if len(entries) != len(graph.edge_list):
        raise ValueError(f"malformed {kind} instance: {field} has {len(entries)} entries "
                         f"for {len(graph.edge_list)} edges")
    return zip(graph.edge_list, entries)


def _refuse_unknown_keys(kind: str, entry: dict, *keys: str) -> None:
    """Refuse a key of entry that kind's writer does not write: it would be
    dropped, so the document would not round-trip."""
    for key in entry:
        if key not in keys:
            raise ValueError(f"malformed {kind} instance: unknown key {key!r}")


def _instance_from_payload(kind, payload: dict):
    if kind == "sat":
        _refuse_unknown_keys(kind, payload, "clauses", "kind", "occurrence_bound",
                             "variables")
        return SatInstance(
            payload["variables"],
            tuple(tuple(c) for c in payload["clauses"]),
            payload["occurrence_bound"],
        )
    if kind == "csp2":
        _refuse_unknown_keys(kind, payload, "constraints", "edges", "kind", "sigma_size",
                             "vertices")
        graph = _graph_from_payload(kind, payload)
        constraints, listed = {}, []
        for e, entries in _per_edge(kind, "constraints", graph, payload["constraints"]):
            pairs = _pairs(kind, "constraints", entries)
            listed.append((e, pairs))
            constraints[e] = frozenset(pairs)
            if len(constraints[e]) < len(pairs):
                # a set would drop the repeat, and the writer would not write it
                repeat = next(p for i, p in enumerate(pairs) if p in pairs[:i])
                raise ValueError(f"malformed csp2 instance: constraints entry {list(repeat)} "
                                 f"repeats on edge {list(e)}")
        gamma = Csp2Instance(graph, payload["sigma_size"], constraints)
        # the writer sorts each edge's pairs, so no other order round-trips;
        # checked once the instance has found every pair an integer in range
        for e, pairs in listed:
            for before, after in zip(pairs, pairs[1:]):
                if before > after:
                    raise ValueError(f"malformed csp2 instance: constraints on edge {list(e)} "
                                     f"are not strictly ascending: {list(before)} comes before "
                                     f"{list(after)}")
        return gamma
    if kind == "rcsp":
        _refuse_unknown_keys(kind, payload, "edges", "kind", "projections", "sigma_size",
                             "upsilon_size", "vertices")
        graph = _graph_from_payload(kind, payload)
        projections = {}
        for e, entry in _per_edge(kind, "projections", graph, payload["projections"]):
            projections[e] = tuple(t - 1 for t in entry["u"]), tuple(t - 1 for t in entry["v"])
            _refuse_unknown_keys(kind, entry, "u", "v")
        return RcspInstance(
            graph, payload["sigma_size"], payload["upsilon_size"], projections
        )
    if kind == "vk":
        _refuse_unknown_keys(kind, payload, "budget", "costs", "dimension", "kind", "profits")
        # dimension is optional on input, since the budget fixes it; refused if it disagrees
        profits, costs, budget = (_vk_array(payload[f], f) for f in ("profits", "costs", "budget"))
        dimension = payload.get("dimension", len(budget))
        if type(dimension) is not int or dimension != len(budget):
            raise ValueError(f"malformed vk instance: dimension {dimension!r} is not "
                             f"the budget length {len(budget)}")
        return VkInstance(
            tuple(_vk_integer(p, "profits", False) for p in profits),
            tuple(tuple(_vk_integer(x, "costs", True) for x in _vk_array(row, "cost row"))
                  for row in costs),
            tuple(_vk_integer(b, "budget", True) for b in budget),
        )
    raise ValueError(f"unknown instance kind {kind!r}")


def _require_integers(kind: str, field: str, value):
    """Every scalar in a sat, csp2 or rcsp document, "kind" aside, is a JSON
    integer; a float, bool, string or null would fail deep in a reduction
    or be written back as another value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _require_integers(kind, field, item)
    elif type(value) is not int:
        raise ValueError(f"malformed {kind} instance: {field} entry {value!r} is not an integer")


def _vk_array(value, field: str) -> list:
    """A JSON array of a vk document; a string would otherwise be read
    character by character, so "55" as a budget would be (5, 5)."""
    if type(value) is not list:
        raise ValueError(f"malformed vk instance: {field} must be a JSON array, "
                         f"not {type(value).__name__}")
    return value


def _vk_integer(value, field: str, decimal_text: bool) -> int:
    """An exact integer entry: a JSON integer (never a bool or a float) or,
    for costs and budgets, whose canonical form is text, a decimal string
    in that form, so that what parses is what the writer writes."""
    if type(value) is int:
        return value
    if decimal_text and isinstance(value, str):
        if _DECIMAL.fullmatch(value):
            return int(value)
        raise ValueError(f"malformed vk instance: {field} entry {value!r} "
                         "is not canonical decimal text")
    raise ValueError(f"malformed vk instance: {field} entry {value!r} is not an integer")
