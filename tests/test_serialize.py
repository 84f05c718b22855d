import json
import random

import pytest

from knapreduce.cli import main
from knapreduce.generators import (
    gen_csp2,
    gen_rcsp,
    gen_sat,
    gen_vk,
)
from knapreduce.knapsack import VkInstance
from knapreduce.reductions import embed_artifacts, rcsp_to_vk_embed
from knapreduce.serialize import (
    instance_digest,
    parse_instance,
    serialize_artifacts,
    serialize_instance,
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


def test_artifacts_payload_shape():
    pi = gen_rcsp(4, 2, 2, random.Random(7), regular3=True)
    art = embed_artifacts(pi, 3)
    payload = json.loads(serialize_artifacts(art))
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
