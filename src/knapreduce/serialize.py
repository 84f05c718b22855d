"""Instance (de)serialization: UTF-8 JSON with a "kind" discriminator.

Layout notes:
  - vertices and symbols are 0-based sizes with implicit indexing;
  - rectangular projection values are written 1-based (the conventional
    range {1..m}) and shifted back to the internal 0-based form on parse;
  - knapsack costs and budgets are decimal strings, since the packed
    reduction produces integers far beyond 64 bits;
  - output is canonical (sorted keys, fixed indentation, trailing
    newline), so identical instances serialize byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re

from .csp import Csp2Instance, RcspInstance, SatInstance
from .graphs import Graph
from .knapsack import VkInstance
from .reductions import EmbedReductionArtifacts

_DECIMAL = re.compile(r"-?[0-9]+")


def _graph_payload(graph: Graph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "edges": [list(e) for e in graph.edge_list],
    }


def _graph_from_payload(kind: str, payload: dict) -> Graph:
    """The document's graph.  Per-edge entries bind to edge_list, the
    sorted edges, so a document whose edges are not strictly ascending is
    refused rather than having its entries land on other edges."""
    edges = [tuple(e) for e in payload["edges"]]
    for before, after in zip(edges, edges[1:]):
        if before >= after:
            raise ValueError(f"malformed {kind} instance: edges are not strictly ascending: "
                             f"{list(before)} comes before {list(after)}")
    return Graph(payload["vertices"], frozenset(edges))


def instance_payload(obj) -> dict:
    if isinstance(obj, SatInstance):
        return {
            "kind": "sat",
            "variables": obj.variable_count,
            "occurrence_bound": obj.occurrence_bound,
            "clauses": [list(c) for c in obj.clauses],
        }
    if isinstance(obj, Csp2Instance):
        return {
            "kind": "csp2",
            **_graph_payload(obj.graph),
            "sigma_size": obj.sigma_size,
            "constraints": [
                sorted([a, b] for (a, b) in obj.constraints[e]) for e in obj.graph.edge_list
            ],
        }
    if isinstance(obj, RcspInstance):
        return {
            "kind": "rcsp",
            **_graph_payload(obj.graph),
            "sigma_size": obj.sigma_size,
            "upsilon_size": obj.upsilon_size,
            "projections": [
                {
                    "u": [t + 1 for t in obj.projections[e][0]],
                    "v": [t + 1 for t in obj.projections[e][1]],
                }
                for e in obj.graph.edge_list
            ],
        }
    if isinstance(obj, VkInstance):
        return {
            "kind": "vk",
            "dimension": obj.dimension,
            "profits": list(obj.profits),
            "costs": [[str(x) for x in row] for row in obj.costs],
            "budget": [str(b) for b in obj.budget],
        }
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def canonical_json(payload) -> str:
    """The one JSON layout written: sorted keys, indent 1, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def serialize_instance(obj) -> str:
    return canonical_json(instance_payload(obj))


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


def _instance_from_payload(kind, payload: dict):
    if kind == "sat":
        return SatInstance(
            payload["variables"],
            tuple(tuple(c) for c in payload["clauses"]),
            payload["occurrence_bound"],
        )
    if kind == "csp2":
        graph = _graph_from_payload(kind, payload)
        constraints = {
            e: frozenset(tuple(p) for p in pairs)
            for e, pairs in _per_edge(kind, "constraints", graph, payload["constraints"])
        }
        return Csp2Instance(graph, payload["sigma_size"], constraints)
    if kind == "rcsp":
        graph = _graph_from_payload(kind, payload)
        projections = {
            e: (
                tuple(t - 1 for t in entry["u"]),
                tuple(t - 1 for t in entry["v"]),
            )
            for e, entry in _per_edge(kind, "projections", graph, payload["projections"])
        }
        return RcspInstance(
            graph, payload["sigma_size"], payload["upsilon_size"], projections
        )
    if kind == "vk":
        # optional on input, since the budget fixes it; refused if it disagrees
        dimension = payload.get("dimension", len(payload["budget"]))
        if type(dimension) is not int or dimension != len(payload["budget"]):
            raise ValueError(f"malformed vk instance: dimension {dimension!r} is not "
                             f"the budget length {len(payload['budget'])}")
        return VkInstance(
            tuple(_vk_integer(p, "profits", False) for p in payload["profits"]),
            tuple(tuple(_vk_integer(x, "costs", True) for x in row) for row in payload["costs"]),
            tuple(_vk_integer(b, "budget", True) for b in payload["budget"]),
        )
    raise ValueError(f"unknown instance kind {kind!r}")


def _require_integers(kind: str, field: str, value):
    """Every number in a sat, csp2 or rcsp document is a JSON integer;
    a float or a bool would fail deep in a reduction or be written back as
    another number."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"malformed {kind} instance: {field} entry {value!r} is not an integer")
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _require_integers(kind, field, item)


def _vk_integer(value, field: str, decimal_text: bool) -> int:
    """An exact integer entry: a JSON integer (never a bool or a float) or,
    for costs and budgets, whose canonical form is text, a decimal string."""
    if type(value) is int:
        return value
    if decimal_text and isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"malformed vk instance: {field} entry {value!r} is not an integer")


def instance_digest(obj) -> str:
    """Short stable digest used by verification records."""
    return hashlib.sha256(serialize_instance(obj).encode()).hexdigest()[:12]


def artifacts_payload(art: EmbedReductionArtifacts) -> dict:
    """Audit record for the packed reduction: the partition (digit exponents
    are the 1-based positions within each chunk), coverage counts, and the
    derived big constants as decimal strings."""
    partition = [
        [["v", j] if isinstance(j, int) else ["e", j[0], j[1]] for j in chunk]
        for chunk in art.partition
    ]
    return {
        "kind": "embed-artifacts",
        "chunk_size": art.chunk_size,
        "partition": partition,
        "coverage": [list(row) for row in art.coverage],
        "chunk_totals": list(art.chunk_totals),
        "base_q": str(art.base_q),
        "sentinel": str(art.sentinel),
    }


def serialize_artifacts(art: EmbedReductionArtifacts) -> str:
    return canonical_json(artifacts_payload(art))
