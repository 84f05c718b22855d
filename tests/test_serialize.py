import hashlib
import io
import json
import random
import tracemalloc
from itertools import combinations

import pytest

from knapreduce.cli import main
from knapreduce.csp import Csp2Instance, RcspInstance, SatInstance
from knapreduce.generators import (
    gen_csp2,
    gen_rcsp,
    gen_rcsp_planted,
    gen_sat,
    gen_vk,
    gen_vk_mixed,
)
from knapreduce.graphs import Graph
from knapreduce.knapsack import VkInstance
from knapreduce.reductions import (
    csp2_to_rcsp,
    embed_artifacts,
    rcsp_to_vk_embed,
    rcsp_to_vk_simple,
    sat_to_rcsp_embedding_route,
)
from knapreduce.serialize import (
    instance_digest,
    parse_instance,
    serialize_instance,
    write_instance,
)


def roundtrip(obj):
    return parse_instance(serialize_instance(obj))


def test_sat_roundtrip():
    inst = gen_sat(6, 4, 4, random.Random(1))
    assert roundtrip(inst) == inst


def test_csp2_roundtrip():
    inst = gen_csp2(4, 3, random.Random(2), regular3=True)
    assert roundtrip(inst) == inst


def test_rcsp_roundtrip_and_external_range_is_one_based():
    inst = gen_rcsp(4, 2, 3, random.Random(3), regular3=True)
    text = serialize_instance(inst)
    assert roundtrip(inst) == inst
    payload = json.loads(text)
    flat = [
        value
        for entry in payload["projections"]
        for side in ("u", "v")
        for value in entry[side]
    ]
    # stored 0..m-1 internally, written 1..m externally
    assert min(flat) >= 1
    assert max(flat) <= inst.upsilon_size
    internal = [
        value
        for e in inst.graph.edge_list
        for side in inst.projections[e]
        for value in side
    ]
    assert min(internal) >= 0
    assert max(internal) <= inst.upsilon_size - 1


def test_vk_roundtrip_with_big_integers():
    pi = gen_rcsp(4, 2, 2, random.Random(5), regular3=True)
    target, _ = rcsp_to_vk_embed(pi, 4)
    assert max(target.budget) > 1 << 64
    restored = roundtrip(target)
    assert restored == target
    payload = json.loads(serialize_instance(target))
    assert all(isinstance(b, str) for b in payload["budget"])
    assert all(isinstance(x, str) for row in payload["costs"] for x in row)


def test_vk_empty_roundtrip():
    inst = VkInstance((), (), (3, 4))
    assert roundtrip(inst) == inst


def test_serialization_is_byte_deterministic():
    a = gen_vk(5, 2, 9, 9, random.Random(6))
    b = gen_vk(5, 2, 9, 9, random.Random(6))
    assert serialize_instance(a) == serialize_instance(b)
    assert instance_digest(a) == instance_digest(b)


def test_parse_then_serialize_is_byte_identity():
    rng = random.Random(8)
    for obj in (
        gen_sat(6, 4, 4, rng),
        gen_csp2(4, 2, rng, regular3=True),
        gen_rcsp(4, 2, 3, rng, regular3=True),
        gen_vk(4, 2, 9, 9, rng),
    ):
        text = serialize_instance(obj)
        assert serialize_instance(parse_instance(text)) == text


def test_unknown_keys_are_refused():
    # the writer writes only its own keys, so any other would be dropped
    rng = random.Random(8)
    for obj in (gen_sat(6, 4, 4, rng), gen_csp2(4, 2, rng, regular3=True),
                gen_rcsp(4, 2, 3, rng, regular3=True), gen_vk(4, 2, 9, 9, rng)):
        payload = json.loads(serialize_instance(obj))
        kind = payload["kind"]
        with pytest.raises(ValueError, match=f"^malformed {kind} instance: unknown key 'extra'$"):
            parse_instance(json.dumps({**payload, "extra": 7}))
        if kind == "rcsp":
            for key in ("w", "kind"):
                entry = payload["projections"][1]
                payload["projections"][1] = {**entry, key: [1]}
                message = f"^malformed rcsp instance: unknown key '{key}'$"
                with pytest.raises(ValueError, match=message):
                    parse_instance(json.dumps(payload))
                payload["projections"][1] = entry
        if kind == "vk":
            # dimension is optional, as the budget fixes it
            del payload["dimension"]
        assert parse_instance(json.dumps(payload)) == obj


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        parse_instance('{"kind": "mystery"}')


def test_gcsp_kind_rejected():
    # no document kind describes per-vertex alphabets: csp2_to_rcsp builds
    # the shared alphabet directly
    document = {"kind": "gcsp", "vertices": 2, "edges": [], "upsilon_size": 1,
                "alphabets": [[0], [0]], "projections": []}
    with pytest.raises(ValueError, match="unknown instance kind 'gcsp'"):
        parse_instance(json.dumps(document))


# Per-edge entries bind to the sorted edges, so a document listing its
# edges in any other order would have its entries land on other edges.
UNSORTED_EDGE_DOCUMENTS = {
    "rcsp": ({"kind": "rcsp", "vertices": 3, "edges": [[1, 2], [0, 1]], "sigma_size": 2,
              "upsilon_size": 2, "projections": [{"u": [1, 2], "v": [1, 1]},
                                                 {"u": [2, 2], "v": [1, 2]}]},
             ["rcsp2vk-simple"]),
    "csp2": ({"kind": "csp2", "vertices": 3, "edges": [[1, 2], [0, 1]], "sigma_size": 2,
              "constraints": [[[0, 1]], [[1, 0], [1, 1]]]},
             ["csp2rcsp"]),
}


@pytest.mark.parametrize("kind", UNSORTED_EDGE_DOCUMENTS)
def test_unsorted_edges_refused(kind):
    document, _ = UNSORTED_EDGE_DOCUMENTS[kind]
    with pytest.raises(ValueError, match=r"not strictly ascending: \[1, 2\] comes before \[0, 1\]"):
        parse_instance(json.dumps(document))
    document = dict(document, edges=[[0, 1], [0, 1]])
    with pytest.raises(ValueError, match=r"\[0, 1\] comes before \[0, 1\]"):
        parse_instance(json.dumps(document))
    document = dict(document, edges=[[0, 1], [1, 2]])
    inst = parse_instance(json.dumps(document))
    assert inst.graph.edge_list == ((0, 1), (1, 2))


@pytest.mark.parametrize("kind", UNSORTED_EDGE_DOCUMENTS)
def test_unsorted_edges_are_a_usage_error(tmp_path, capsys, kind):
    document, route = UNSORTED_EDGE_DOCUMENTS[kind]
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    assert main(["reduce", *route, "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: malformed {kind} instance: edges are not strictly ascending: "
                   "[1, 2] comes before [0, 1]\n")
    assert not out.exists()


def refused_by_reduce(tmp_path, capsys, document, route):
    """reduce's exit code and stderr on document; no output is written."""
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    code = main(["reduce", route, "--in", str(src), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


VK_ARRAYS = {"kind": "vk", "profits": [3, 4], "costs": [["1", "2"], ["2", "1"]],
             "budget": ["5", "5"]}


@pytest.mark.parametrize("field, edit, found", [
    ("profits", {"profits": "34"}, "str"),
    ("budget", {"budget": "55"}, "str"),
    ("cost row", {"costs": ["12", ["2", "1"]]}, "str"),
    ("costs", {"costs": {"0": ["1", "2"], "1": ["2", "1"]}}, "dict"),
], ids=["profits", "budget", "cost-row", "costs"])
def test_vk_text_where_an_array_belongs_is_usage_error(tmp_path, capsys, field, edit, found):
    # read character by character, "55" would be the budget (5, 5)
    src = tmp_path / "vk.json"
    src.write_text(json.dumps(VK_ARRAYS), encoding="utf-8")
    assert main(["solve", "brute", "--in", str(src)]) == 0
    capsys.readouterr()
    src.write_text(json.dumps({**VK_ARRAYS, **edit}), encoding="utf-8")
    assert main(["solve", "brute", "--in", str(src)]) == 2
    assert capsys.readouterr() == (
        "", f"error: malformed vk instance: {field} must be a JSON array, not {found}\n")


@pytest.mark.parametrize("field, text", [
    ("costs", "00"), ("costs", "007"), ("budget", "-0"), ("budget", "+5"), ("costs", " 1"),
])
def test_vk_non_canonical_decimal_text_is_usage_error(tmp_path, capsys, field, text):
    # int() reads each of these, but the writer writes none of them
    document = {**VK_ARRAYS, field: [[text, "2"], ["2", "1"]] if field == "costs" else [text, "5"]}
    src = tmp_path / "vk.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    assert main(["solve", "brute", "--in", str(src)]) == 2
    assert capsys.readouterr() == (
        "", f"error: malformed vk instance: {field} entry {text!r} is not canonical decimal text\n")


EDGELESS_RCSP = {"kind": "rcsp", "vertices": 0, "edges": [], "sigma_size": 0,
                 "upsilon_size": 1, "projections": []}
EDGELESS_CSP2 = {"kind": "csp2", "vertices": 0, "edges": [], "sigma_size": 0, "constraints": []}


@pytest.mark.parametrize("document, route", [
    (EDGELESS_RCSP, "rcsp2vk-simple"),
    (EDGELESS_RCSP, "rcsp2vk-embed"),
    (EDGELESS_CSP2, "csp2rcsp"),
], ids=["rcsp-simple", "rcsp-embed", "csp2"])
def test_negative_sigma_is_usage_error(tmp_path, capsys, document, route):
    assert refused_by_reduce(tmp_path, capsys, dict(document, sigma_size=-1), route) == (
        2, "error: sigma_size must be nonnegative\n")
    # sigma = 0 is a legal, empty alphabet
    assert parse_instance(json.dumps(document)).sigma_size == 0


@pytest.mark.parametrize("document, route, message", [
    (dict(EDGELESS_RCSP, vertices=3, edges=[[0, 1, 2]], projections=[{"u": [], "v": []}]),
     "rcsp2vk-simple", "malformed rcsp instance: edges entry [0, 1, 2] is not a pair"),
    (dict(EDGELESS_CSP2, vertices=2, edges=[[0]], constraints=[[]]),
     "csp2rcsp", "malformed csp2 instance: edges entry [0] is not a pair"),
    (dict(EDGELESS_CSP2, vertices=2, sigma_size=2, edges=[[0, 1]], constraints=[[[0, 1, 1]]]),
     "csp2rcsp", "malformed csp2 instance: constraints entry [0, 1, 1] is not a pair"),
], ids=["rcsp-edge-of-3", "csp2-edge-of-1", "csp2-pair-of-3"])
def test_wrong_length_pair_is_named(tmp_path, capsys, document, route, message):
    assert refused_by_reduce(tmp_path, capsys, document, route) == (2, f"error: {message}\n")


def test_repeated_csp2_pair_is_named(tmp_path, capsys):
    # a set of pairs would keep the repeat once, and csp2rcsp would write the
    # bytes of the document without it
    text = serialize_instance(gen_csp2(4, 2, random.Random(7), regular3=True))
    payload = json.loads(text)
    edge, allowed = payload["edges"][2], payload["constraints"][2]
    payload["constraints"][2] = allowed + [allowed[0]]
    assert refused_by_reduce(tmp_path, capsys, payload, "csp2rcsp") == (
        2, f"error: malformed csp2 instance: constraints entry {allowed[0]} repeats on edge {edge}\n")
    assert serialize_instance(parse_instance(text)) == text


def test_unsorted_csp2_pairs_are_named():
    # the writer sorts each edge's pairs, so [[1, 0], [0, 1]] would be
    # written back as [[0, 1], [1, 0]]
    document = {"kind": "csp2", "vertices": 3, "edges": [[0, 1], [1, 2]], "sigma_size": 2,
                "constraints": [[[0, 0]], [[1, 0], [0, 1]]]}
    with pytest.raises(ValueError, match=r"^malformed csp2 instance: constraints on edge \[1, 2\] "
                                         r"are not strictly ascending: \[1, 0\] comes before "
                                         r"\[0, 1\]$"):
        parse_instance(json.dumps(document))
    document["constraints"][1].reverse()
    text = serialize_instance(parse_instance(json.dumps(document)))
    assert json.loads(text)["constraints"] == document["constraints"]
    assert serialize_instance(parse_instance(text)) == text


def test_artifacts_payload_shape():
    pi = gen_rcsp(4, 2, 2, random.Random(7), regular3=True)
    art = embed_artifacts(pi, 3)
    payload = json.loads(serialize_instance(art))
    assert payload["kind"] == "embed-artifacts"
    assert payload["chunk_size"] == 3
    assert int(payload["base_q"]) == art.base_q
    assert int(payload["sentinel"]) == art.sentinel
    rebuilt = []
    for chunk in payload["partition"]:
        for entry in chunk:
            rebuilt.append(entry[0])
    assert rebuilt.count("v") == 4
    assert rebuilt.count("e") == 6


FUZZ_GEN_ARGS = (
    ["sat", "--n", "6", "--m", "4", "--seed", "1"],
    ["csp2", "--vertices", "4", "--sigma", "2", "--seed", "2"],
    ["rcsp", "--regular3", "--vertices", "4", "--sigma", "2", "--upsilon", "3", "--seed", "3"],
    ["vk", "--n", "4", "--dims", "2", "--seed", "4"],
)
ODD_VALUES = (None, True, 1.5, "x", "12", [], {}, -1, 0)


def json_slots(node, out):
    """Every (container, key) of a JSON tree, parents before children."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in list(keys):
        out.append((node, key))
        json_slots(node[key], out)
    return out


def mutate(text, rng):
    """One random edit: truncate, append, drop a key or entry, swap a value's
    type, or insert +-10^30."""
    op = rng.randrange(5)
    if op == 0:
        return text[: rng.randrange(len(text))]
    if op == 1:
        return text + rng.choice(("}", "]", ",", " 1", "\n", '{"kind": "sat"}'))
    payload = json.loads(text)
    container, key = rng.choice(json_slots(payload, []))
    if op == 2:
        del container[key]
    elif op == 3:
        container[key] = rng.choice(ODD_VALUES)
    elif isinstance(container, list):
        container.insert(key, rng.choice((10**30, -10**30)))
    else:
        container[key] = rng.choice((10**30, -10**30))
    return json.dumps(payload)


def test_mutated_gen_documents_parse_or_raise_value_error(tmp_path):
    texts = []
    for args in FUZZ_GEN_ARGS:
        out = tmp_path / f"{args[0]}.json"
        assert main(["gen", *args, "--out", str(out)]) == 0
        texts.append(out.read_text(encoding="utf-8"))
    rng = random.Random(2024)
    parsed = 0
    for _ in range(8000):
        document = mutate(rng.choice(texts), rng)
        try:
            inst = parse_instance(document)
        except ValueError:
            continue
        except Exception as exc:  # the invariant under test: nothing else escapes
            pytest.fail(f"{type(exc).__name__}: {exc} on {document!r}")
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text, document
        parsed += 1
    assert parsed > 100


# The writer's reference: each document built as a payload and dumped by
# json, the way every document was written before the streaming writer.
def reference_payload(obj) -> dict:
    if isinstance(obj, SatInstance):
        return {
            "kind": "sat",
            "variables": obj.variable_count,
            "occurrence_bound": obj.occurrence_bound,
            "clauses": [list(c) for c in obj.clauses],
        }
    if isinstance(obj, VkInstance):
        return {
            "kind": "vk",
            "dimension": obj.dimension,
            "profits": list(obj.profits),
            "costs": [[str(x) for x in row] for row in obj.costs],
            "budget": [str(b) for b in obj.budget],
        }
    if isinstance(obj, (Csp2Instance, RcspInstance)):
        payload = {
            "vertices": obj.graph.vertex_count,
            "edges": [list(e) for e in obj.graph.edge_list],
            "sigma_size": obj.sigma_size,
        }
        if isinstance(obj, Csp2Instance):
            payload["kind"] = "csp2"
            payload["constraints"] = [
                sorted([a, b] for (a, b) in obj.constraints[e]) for e in obj.graph.edge_list
            ]
        else:
            payload["kind"] = "rcsp"
            payload["upsilon_size"] = obj.upsilon_size
            payload["projections"] = [
                {"u": [t + 1 for t in obj.projections[e][0]],
                 "v": [t + 1 for t in obj.projections[e][1]]}
                for e in obj.graph.edge_list
            ]
        return payload
    return {
        "kind": "embed-artifacts",
        "chunk_size": obj.chunk_size,
        "partition": [
            [["v", j] if isinstance(j, int) else ["e", j[0], j[1]] for j in chunk]
            for chunk in obj.partition
        ],
        "coverage": [list(row) for row in obj.coverage],
        "chunk_totals": list(obj.chunk_totals),
        "base_q": str(obj.base_q),
        "sentinel": str(obj.sentinel),
    }


def reference_text(obj) -> str:
    return json.dumps(reference_payload(obj), sort_keys=True, indent=1) + "\n"


def k4_rcsp(sigma):
    k4 = Graph(4, frozenset(combinations(range(4), 2)))
    return RcspInstance(k4, sigma, 2, {e: ((1,) * sigma, (0,) * sigma) for e in k4.edges})


def csp2_with_an_empty_edge():
    inst = gen_csp2(4, 2, random.Random(9), regular3=True)
    # the instance refuses an empty constraint, so one is put in afterwards
    inst.constraints[inst.graph.edge_list[2]] = frozenset()
    return inst


def edge_cases():
    big = 2**200
    return {
        "vk-empty": VkInstance((), (), ()),
        "vk-no-items": VkInstance((), (), (3, 4)),
        "vk-d0": VkInstance((1, 0, 7), ((), (), ()), ()),
        "vk-big": VkInstance((5, 0), ((big + 1, 0), (3, big * big)), (big * 7, big ** 3)),
        "rcsp-edgeless": RcspInstance(Graph(3), 2, 1, {}),
        "rcsp-no-vertices": RcspInstance(Graph(0), 0, 1, {}),
        "rcsp-sigma0": k4_rcsp(0),
        "rcsp-sigma1": k4_rcsp(1),
        "csp2-edgeless": Csp2Instance(Graph(5), 3, {}),
        "csp2-empty-edge": csp2_with_an_empty_edge(),
        "sat-no-clauses": SatInstance(4, (), 2),
        "sat-negative": SatInstance(4, ((-1, 2, -3), (-4, -2, 1), (3, -4, 2)), 3),
        "artifacts-sigma0": embed_artifacts(k4_rcsp(0), 2),
    }


def generated_documents():
    rng = random.Random(29)
    docs = []
    for _ in range(4):
        phi = gen_sat(8, 6, 4, rng)
        gamma = gen_csp2(6, 3, rng, regular3=True)
        pi = gen_rcsp_planted(6, 3, 2, rng, regular3=True)[0]
        docs += [phi, gamma, pi, gen_vk(6, 3, 50, 9, rng), gen_vk_mixed(5, 2, 9, 9, rng),
                 sat_to_rcsp_embedding_route(phi, 8), csp2_to_rcsp(gamma), rcsp_to_vk_simple(pi),
                 *rcsp_to_vk_embed(pi, rng.randint(1, 3))]
    return docs


@pytest.mark.parametrize("name", edge_cases())
def test_writer_matches_the_reference_on_edge_cases(name):
    obj = edge_cases()[name]
    expected = reference_text(obj)
    assert serialize_instance(obj) == expected
    out = io.StringIO()
    write_instance(obj, out)
    assert out.getvalue() == expected
    assert instance_digest(obj) == hashlib.sha256(expected.encode()).hexdigest()[:12]


def test_writer_matches_the_reference_on_generated_documents():
    kinds = set()
    for obj in generated_documents():
        expected = reference_text(obj)
        kinds.add(json.loads(expected)["kind"])
        assert serialize_instance(obj) == expected
        assert instance_digest(obj) == hashlib.sha256(expected.encode()).hexdigest()[:12]
    assert kinds == {"sat", "csp2", "rcsp", "vk", "embed-artifacts"}


def test_unknown_object_is_refused():
    with pytest.raises(ValueError, match="cannot serialize dict"):
        serialize_instance({"kind": "vk"})


class Discard:
    def write(self, text):
        pass


def test_writing_a_large_target_holds_one_row_at_a_time():
    # 1,000 items by 1,000 dimensions; one shared row keeps the build cheap
    n = d = 1000
    row = tuple(range(10**9, 10**9 + d))
    target = VkInstance((7,) * n, (row,) * n, row)
    row_text = json.dumps([str(x) for x in row], indent=1)
    tracemalloc.start()
    try:
        write_instance(target, Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the table's text is n rows; a bounded writer holds a few rows' worth
    assert peak < 16 * len(row_text) < n * len(row_text) // 50
