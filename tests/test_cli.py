import hashlib
import json
import subprocess
import sys
from itertools import combinations

import pytest

from knapreduce.approx import split_by_boundedness
from knapreduce.cli import main
from knapreduce import reductions
from knapreduce.csp import RcspInstance
from knapreduce.graphs import Graph
from knapreduce.reductions import HOST_CAP, PROJECTION_CAP
from knapreduce.serialize import parse_instance, serialize_instance


def read(path):
    return path.read_text(encoding="utf-8")


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "vk", "--n", "5", "--dims", "2", "--seed", "9",
                     "--out", str(out)]) == 0
    assert read(a) == read(b)


def test_gen_empty_vk(tmp_path):
    out = tmp_path / "empty.json"
    assert main(["gen", "vk", "--n", "0", "--seed", "1", "--out", str(out)]) == 0
    inst = parse_instance(read(out))
    assert inst.item_count == 0


def test_gen_regular3_rcsp_on_four_vertices(tmp_path):
    out = tmp_path / "pi.json"
    assert main(["gen", "rcsp", "--regular3", "--vertices", "4", "--seed", "2",
                 "--out", str(out)]) == 0
    pi = parse_instance(read(out))
    assert pi.graph.is_regular(3)
    assert len(pi.graph.edges) == 6


def test_reduce_simple_dimension(tmp_path):
    src = tmp_path / "pi.json"
    dst = tmp_path / "vk.json"
    main(["gen", "rcsp", "--vertices", "2", "--edges", "1", "--seed", "3",
          "--out", str(src)])
    assert main(["reduce", "rcsp2vk-simple", "--in", str(src), "--out", str(dst)]) == 0
    vk = parse_instance(read(dst))
    assert vk.dimension == 2 + 2 * 1


def test_reduce_embed_writes_artifacts(tmp_path):
    src = tmp_path / "pi.json"
    dst = tmp_path / "vk.json"
    art = tmp_path / "art.json"
    main(["gen", "rcsp", "--regular3", "--vertices", "4", "--seed", "4",
          "--out", str(src)])
    assert main(["reduce", "rcsp2vk-embed", "--in", str(src), "--F", "10",
                 "--out", str(dst), "--artifacts", str(art)]) == 0
    vk = parse_instance(read(dst))
    assert vk.dimension == 2
    payload = json.loads(read(art))
    assert payload["chunk_size"] == 10
    assert len(payload["partition"]) == 1


def test_reduce_csp_chain_line_graph_size(tmp_path):
    src = tmp_path / "gamma.json"
    dst = tmp_path / "pi.json"
    main(["gen", "csp2", "--regular3", "--vertices", "4", "--sigma", "2",
          "--seed", "5", "--out", str(src)])
    assert main(["reduce", "csp2rcsp", "--in", str(src), "--out", str(dst)]) == 0
    pi = parse_instance(read(dst))
    assert pi.graph.vertex_count == 6


def test_reduce_sat_routes(tmp_path):
    src = tmp_path / "phi.json"
    main(["gen", "sat", "--n", "6", "--m", "3", "--bound", "4", "--planted",
          "--seed", "6", "--out", str(src)])
    embed_out = tmp_path / "embed.json"
    assert main(["reduce", "sat2rcsp-embed", "--in", str(src), "--k", "7",
                 "--out", str(embed_out)]) == 0
    assert parse_instance(read(embed_out)).graph.vertex_count <= 7
    disp_out = tmp_path / "disp.json"
    assert main(["reduce", "sat2rcsp-disperser", "--in", str(src), "--k", "4",
                 "--r", "2", "--epsilon", "1/4", "--seed", "6",
                 "--out", str(disp_out)]) == 0
    assert parse_instance(read(disp_out)).graph.vertex_count == 4


@pytest.mark.parametrize("epsilon", ["1/0", "1e-2000000"])
def test_reduce_bad_epsilon_is_usage_error(tmp_path, capsys, epsilon):
    src = tmp_path / "phi.json"
    main(["gen", "sat", "--n", "6", "--m", "3", "--bound", "4", "--seed", "6", "--out", str(src)])
    out = tmp_path / "disp.json"
    assert main(["reduce", "sat2rcsp-disperser", "--in", str(src), "--k", "4", "--r", "2",
                 "--epsilon", epsilon, "--seed", "6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --epsilon ") and err.count("\n") == 1
    assert not out.exists()


def test_sat_clause_set_past_the_alphabet_cap_is_refused(tmp_path, capsys):
    # a host vertex of the 8-vertex embedding collects clauses over 20
    # variables, and 2^20 candidate assignments exceed the 2^16 cap
    src, out = tmp_path / "phi.json", tmp_path / "pi.json"
    assert main(["gen", "sat", "--n", "60", "--m", "40", "--bound", "3", "--seed", "1",
                 "--out", str(src)]) == 0
    assert main(["reduce", "sat2rcsp-embed", "--in", str(src), "--k", "8",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: 2^20 candidate assignments exceed the alphabet cap 65536\n")
    assert not out.exists()


@pytest.mark.parametrize("route", ["sat2rcsp-embed", "sat2rcsp-disperser"])
def test_sat_host_past_the_cap_is_refused(tmp_path, capsys, route):
    src, out = tmp_path / "phi.json", tmp_path / "pi.json"
    assert main(["gen", "sat", "--seed", "1", "--out", str(src)] + GEN_FLAGS["sat"]) == 0
    reduce = ["reduce", route, "--in", str(src), "--r", "1", "--out", str(out), "--k"]
    assert main(reduce + [str(HOST_CAP + 1)]) == 3
    assert capsys.readouterr() == (
        "", f"error: host size {HOST_CAP + 1} exceeds the host cap {HOST_CAP}\n")
    assert not out.exists()
    assert main(reduce + [str(HOST_CAP)]) == 0
    assert parse_instance(read(out)).graph.vertex_count == HOST_CAP


def test_sat_projection_table_past_the_cap_is_refused(tmp_path, capsys, monkeypatch):
    # sigma = 926 on every complete host here, so the table has 926 * k(k - 1) entries
    src, out = tmp_path / "phi.json", tmp_path / "pi.json"
    assert main(["gen", "sat", "--n", "16", "--m", "6", "--bound", "4", "--seed", "1",
                 "--out", str(src)]) == 0
    reduce = ["reduce", "sat2rcsp-disperser", "--in", str(src), "--r", "1", "--out", str(out), "--k"]
    assert main(reduce + ["35"]) == 3
    assert capsys.readouterr() == (
        "", f"error: projection table of 1101940 entries exceeds the cap {PROJECTION_CAP}\n")
    assert not out.exists()
    # a table of exactly the cap's size is built
    monkeypatch.setattr(reductions, "PROJECTION_CAP", 926 * 5 * 4 - 1)
    assert main(reduce + ["5"]) == 3
    assert not out.exists()
    monkeypatch.setattr(reductions, "PROJECTION_CAP", 926 * 5 * 4)
    assert main(reduce + ["5"]) == 0
    assert parse_instance(read(out)).sigma_size == 926


def test_gen_graph_past_the_sample_index_range_is_usage_error(tmp_path, capsys):
    out = tmp_path / "pi.json"
    assert main(["gen", "rcsp", "--vertices", str(1 << 40), "--edges", "3", "--seed", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {1 << 40} vertices ") and err.count("\n") == 1
    assert not out.exists()


def test_solve_brute_empty(tmp_path, capsys):
    src = tmp_path / "vk.json"
    main(["gen", "vk", "--n", "0", "--seed", "7", "--out", str(src)])
    assert main(["solve", "brute", "--in", str(src)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == "0"
    assert record["witness"] == []


def test_solve_dp_matches_brute(tmp_path, capsys):
    src = tmp_path / "vk.json"
    main(["gen", "vk", "--n", "7", "--dims", "2", "--max-cost", "8",
          "--seed", "8", "--out", str(src)])
    main(["solve", "brute", "--in", str(src)])
    brute = json.loads(capsys.readouterr().out)
    main(["solve", "dp", "--in", str(src)])
    dp = json.loads(capsys.readouterr().out)
    assert brute["value"] == dp["value"]


def test_solve_approx_oracle_ratio(tmp_path, capsys):
    src = tmp_path / "vk.json"
    main(["gen", "vk", "--n", "8", "--dims", "2", "--vk-class", "mixed",
          "--seed", "9", "--out", str(src)])
    assert main(["solve", "approx", "--in", str(src), "--seed", "1",
                 "--oracle"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["feasible"] is True
    num, _, den = record["ratio"].partition("/")
    ratio = int(num) / int(den or "1")
    assert 0 < ratio <= 1


def test_solve_cap_exit_code(tmp_path, capsys):
    # every subset of zero-cost items fits: the search visits the seven sets
    # (), (0,), ..., (0, ..., 5) before the profit bound cuts the rest
    src = tmp_path / "vk.json"
    src.write_text(json.dumps({"kind": "vk", "profits": [1] * 6, "costs": [[0]] * 6,
                               "budget": [0]}), encoding="utf-8")
    assert main(["solve", "brute", "--in", str(src), "--cap-nodes", "6"]) == 3
    assert capsys.readouterr().err == "error: search exceeded node budget 6\n"
    assert main(["solve", "brute", "--in", str(src), "--cap-nodes", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "6"


@pytest.mark.parametrize("document", ['{"kind":"vk"}', "[1,2]", '{"kind":"rcsp","vertices":2}',
                                      pytest.param("[" * 200000, id="nested-200000")])
@pytest.mark.parametrize("command", [["solve", "brute"], ["reduce", "rcsp2vk-simple"]],
                         ids=["solve", "reduce"])
def test_malformed_instance_is_usage_error(tmp_path, capsys, document, command):
    src = tmp_path / "bad.json"
    src.write_text(document, encoding="utf-8")
    assert main(command + ["--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--dims", "0"], ["--n", "-3"], ["--vertices", "-1"],
                                   ["--m", "-2"]])
def test_gen_impossible_size_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "vk.json"
    assert main(["gen", "vk", "--seed", "1", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind, flag, value", [
    ("rcsp", "--sigma", "0"), ("rcsp", "--upsilon", "0"), ("rcsp", "--sigma", "-1"),
    ("csp2", "--sigma", "0"), ("csp2", "--sigma", "-1"),
])
def test_gen_empty_alphabet_is_usage_error(tmp_path, capsys, kind, flag, value):
    out = tmp_path / "pi.json"
    assert main(["gen", kind, "--regular3", "--seed", "1", "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--max-cost", "0", "--vk-class", vk_class], "--max-cost")
    for vk_class in ("plain", "mixed", "2bounded", "2unbounded")
] + [
    (["--max-cost", "1", "--vk-class", vk_class], "--max-cost")
    for vk_class in ("mixed", "2bounded", "2unbounded")
] + [(["--max-profit", "-1"], "--max-profit")])
def test_gen_vk_empty_draw_range_is_usage_error(tmp_path, capsys, flags, named):
    out = tmp_path / "vk.json"
    assert main(["gen", "vk", "--seed", "1", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_vk_smallest_draw_ranges(tmp_path):
    out = tmp_path / "vk.json"
    assert main(["gen", "vk", "--seed", "1", "--out", str(out), "--max-cost", "1",
                 "--max-profit", "0"]) == 0
    assert main(["gen", "vk", "--seed", "1", "--out", str(out), "--max-cost", "2",
                 "--vk-class", "2unbounded"]) == 0


VK_ENTRIES = {"profits": [3], "costs": [["1"]], "budget": ["2"]}


@pytest.mark.parametrize("field, entry", [
    ("profits", 1.5), ("profits", True), ("profits", "3"),
    ("costs", 1.0), ("costs", False), ("costs", "1.5"),
    ("budget", 2.5), ("budget", True), ("budget", "2e0"),
])
@pytest.mark.parametrize("command", [["solve", "approx"], ["reduce", "rcsp2vk-simple"]],
                         ids=["solve", "reduce"])
def test_vk_non_integer_entry_is_usage_error(tmp_path, capsys, field, entry, command):
    document = {"kind": "vk", **VK_ENTRIES}
    document[field] = [[entry]] if field == "costs" else [entry]
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    assert main(command + ["--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err


def test_vk_integer_entries_parse(tmp_path, capsys):
    # JSON integers and decimal strings both denote costs and budgets
    src = tmp_path / "vk.json"
    src.write_text(json.dumps({"kind": "vk", "profits": [3], "costs": [[1]], "budget": ["2"]}),
                   encoding="utf-8")
    assert main(["solve", "approx", "--in", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "3"


GEN_FLAGS = {
    "rcsp": ["--regular3", "--vertices", "4", "--sigma", "2", "--upsilon", "2"],
    "csp2": ["--regular3", "--vertices", "4", "--sigma", "2"],
    "sat": ["--n", "6", "--m", "3", "--bound", "4", "--planted"],
    "vk": ["--n", "3", "--dims", "1"],
}


def _set_vertices(doc):
    doc["vertices"] = float(doc["vertices"])


def _set_upsilon(doc):
    doc["upsilon_size"] = True


def _set_projection(doc):
    doc["projections"][0]["u"][0] = 1.0


def _set_constraint(doc):
    doc["constraints"][0][0] = [0, 1.5]


def _set_literal(doc):
    doc["clauses"][0][0] = float(doc["clauses"][0][0])


def _set_bound(doc):
    doc["occurrence_bound"] = True


@pytest.mark.parametrize("kind, edit, route", [
    ("rcsp", _set_vertices, ["rcsp2vk-simple"]),
    ("rcsp", _set_upsilon, ["rcsp2vk-simple"]),
    ("rcsp", _set_projection, ["rcsp2vk-embed", "--F", "2"]),
    ("csp2", _set_constraint, ["csp2rcsp"]),
    ("sat", _set_literal, ["sat2rcsp-embed", "--k", "7"]),
    ("sat", _set_bound, ["sat2rcsp-embed", "--k", "7"]),
], ids=["rcsp-vertices", "rcsp-upsilon", "rcsp-projection", "csp2-pair", "sat-literal",
        "sat-bound"])
def test_non_integer_number_is_usage_error(tmp_path, capsys, kind, edit, route):
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    main(["gen", kind, "--seed", "3", "--out", str(src)] + GEN_FLAGS[kind])
    doc = json.loads(read(src))
    edit(doc)
    src.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["reduce"] + route + ["--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {kind} instance: ") and err.count("\n") == 1
    assert "not an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("kind, field, edit, command", [
    ("rcsp", "projections", lambda doc: doc["projections"].append({"u": [9, 9], "v": [1]}),
     ["reduce", "rcsp2vk-simple"]),
    ("rcsp", "projections", lambda doc: doc["projections"].pop(), ["reduce", "rcsp2vk-simple"]),
    ("csp2", "constraints", lambda doc: doc["constraints"].append([[7, 7]]),
     ["reduce", "csp2rcsp"]),
    ("vk", "dimension", lambda doc: doc.update(dimension=5), ["solve", "brute"]),
    ("vk", "dimension", lambda doc: doc.update(dimension="x"), ["solve", "brute"]),
    ("vk", "dimension", lambda doc: doc.update(dimension=True), ["solve", "brute"]),
], ids=["rcsp-extra-projection", "rcsp-missing-projection", "csp2-extra-constraint",
        "vk-dimension-5", "vk-dimension-text", "vk-dimension-bool"])
def test_entry_count_mismatch_is_usage_error(tmp_path, capsys, kind, field, edit, command):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    main(["gen", kind, "--seed", "3", "--out", str(src)] + GEN_FLAGS[kind])
    doc = json.loads(read(src))
    edit(doc)
    src.write_text(json.dumps(doc), encoding="utf-8")
    assert main(command + ["--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {kind} instance: {field} ") and err.count("\n") == 1
    assert not out.exists()


def test_sat_variable_count_far_above_its_literals_reduces(tmp_path):
    # occurrences are counted per variable that occurs, not in a list sized
    # by the declared count: 10**27 overflowed it, 10**8 allocated it
    small, huge = tmp_path / "small.json", tmp_path / "huge.json"
    main(["gen", "sat", "--seed", "3", "--out", str(small)] + GEN_FLAGS["sat"])
    doc = json.loads(read(small))
    doc["variables"] = 10**27
    huge.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for src in (small, huge):
        out = tmp_path / f"{src.stem}.out.json"
        assert main(["reduce", "sat2rcsp-embed", "--k", "8", "--in", str(src),
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sat_negative_variable_count_is_usage_error(tmp_path, capsys):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps({"kind": "sat", "variables": -1, "clauses": [],
                               "occurrence_bound": 3}), encoding="utf-8")
    assert main(["reduce", "sat2rcsp-embed", "--k", "8", "--in", str(src),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: variable_count must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("document, route", [
    ({"kind": "rcsp", "vertices": 10**27, "edges": [], "sigma_size": 1, "upsilon_size": 1,
      "projections": []}, ["rcsp2vk-embed", "--F", "1"]),
    ({"kind": "csp2", "vertices": 10**27, "edges": [], "sigma_size": 1, "constraints": []},
     ["csp2rcsp"]),
], ids=["rcsp-embed", "csp2"])
def test_huge_vertex_count_fails_the_cubic_check(tmp_path, capsys, document, route):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    assert main(["reduce"] + route + ["--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: constraint graph must be 3-regular\n"


@pytest.mark.parametrize("sigma", [1, 0])
def test_huge_plain_target_is_refused_at_the_cap(tmp_path, capsys, sigma):
    document = {"kind": "rcsp", "vertices": 10**27, "edges": [], "sigma_size": sigma,
                "upsilon_size": 1, "projections": []}
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    assert main(["reduce", "rcsp2vk-simple", "--in", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: plain target of ") and err.count("\n") == 1
    assert not out.exists()


def test_packed_coverage_table_past_the_cap_is_refused(tmp_path, capsys, monkeypatch):
    # sigma = 0 leaves no items, so at F = 1 only K4's coverage table of
    # 4 vertices by 10 chunks meets the cap; its 20 dimensions stay under it
    k4 = Graph(4, frozenset(combinations(range(4), 2)))
    src, out = tmp_path / "pi.json", tmp_path / "vk.json"
    src.write_text(serialize_instance(RcspInstance(k4, 0, 1, {e: ((), ()) for e in k4.edges})),
                   encoding="utf-8")
    reduce = ["reduce", "rcsp2vk-embed", "--in", str(src), "--F", "1", "--out", str(out)]
    monkeypatch.setattr(reductions, "TARGET_CAP", 4 * 10 - 1)
    assert main(reduce) == 3
    assert capsys.readouterr() == (
        "", "error: packed target's coverage table of 4 vertices by 10 chunks exceeds the cap 39\n")
    assert not out.exists()
    monkeypatch.setattr(reductions, "TARGET_CAP", 4 * 10)
    assert main(reduce) == 0
    assert parse_instance(read(out)).dimension == 20


def test_packed_target_past_the_digit_cap_is_refused(tmp_path, capsys):
    # on 120 vertices, F = 300 gives entries of up to ~4,850 digits, more than
    # CPython converts to text by default; 100 vertices at F = 250 stay near 3,940
    src, out = tmp_path / "pi.json", tmp_path / "vk.json"
    for vertices, chunk_size, code in ((120, 300, 3), (100, 250, 0)):
        assert main(["gen", "rcsp", "--regular3", "--vertices", str(vertices), "--seed", "1",
                     "--out", str(src)]) == 0
        capsys.readouterr()
        reduce = ["reduce", "rcsp2vk-embed", "--in", str(src), "--F", str(chunk_size)]
        assert main(reduce + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"error: packed target entries of up to 16179 bits exceed the cap "
                           f"of {reductions.TARGET_DIGITS_CAP} decimal digits\n")
            assert not out.exists()
    assert parse_instance(read(out)).dimension == 2


def test_missing_file_is_usage_error(tmp_path):
    assert main(["solve", "brute", "--in", str(tmp_path / "nope.json")]) == 2


ROUTE_KINDS = {"sat2rcsp-embed": "a sat", "sat2rcsp-disperser": "a sat", "csp2rcsp": "a csp2",
               "rcsp2vk-simple": "an rcsp", "rcsp2vk-embed": "an rcsp"}


def test_wrong_instance_kind_is_usage_error(tmp_path, capsys):
    # every route and solve, given each kind they do not take
    for kind, flags in GEN_FLAGS.items():
        src, out = tmp_path / f"{kind}.json", tmp_path / "out.json"
        assert main(["gen", kind, "--seed", "11", "--out", str(src)] + flags) == 0
        commands = [(["reduce", route], f"route {route} expects {named} instance")
                    for route, named in ROUTE_KINDS.items() if named.split()[1] != kind]
        if kind != "vk":
            commands.append((["solve", "brute"], "solve expects a vk instance"))
        for command, message in commands:
            assert main(command + ["--in", str(src), "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not out.exists()


def test_solve_approx_lp(tmp_path, capsys):
    src = tmp_path / "vk.json"
    assert main(["gen", "vk", "--n", "8", "--dims", "3", "--vk-class", "2bounded",
                 "--seed", "5", "--out", str(src)]) == 0
    inst = parse_instance(read(src))
    assert main(["solve", "approx-lp", "--in", str(src), "--seed", "2", "--oracle"]) == 0
    record = json.loads(capsys.readouterr().out)
    chosen = record["witness"]
    assert record["method"] == "approx-lp" and record["feasible"] is True and chosen
    assert all(sum(inst.costs[i][j] for i in chosen) <= inst.budget[j]
               for j in range(inst.dimension))
    assert record["value"] == str(sum(inst.profits[i] for i in chosen))
    assert 0 < int(record["value"]) <= int(record["oracle_value"])
    # item 1 costs more than half the budget, which the LP branch refuses
    src.write_text(json.dumps({"kind": "vk", "profits": [1, 2], "costs": [["1"], ["3"]],
                               "budget": ["4"]}), encoding="utf-8")
    assert main(["solve", "approx-lp", "--in", str(src)]) == 2
    assert capsys.readouterr() == (
        "", "error: item 1 exceeds half the budget in some coordinate\n")
    # ... and item 0 fits half of it, which the enumeration branch refuses
    assert main(["solve", "approx-unbounded", "--in", str(src)]) == 2
    assert capsys.readouterr() == (
        "", "error: item 0 fits half the budget in every coordinate\n")


def test_unknown_route_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["reduce", "no-such-route", "--in", "x"])
    assert info.value.code == 2


def test_verify_exit_zero_and_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["verify", "vkw", "--count", "2", "--seed", "12",
                 "--format", "csv", "--out", str(out)]) == 0
    assert "checks passed" in capsys.readouterr().out
    assert read(out).startswith("suite,check,instance,passed")


@pytest.mark.parametrize("count", ["0", "-5"])
def test_verify_count_below_one_is_usage_error(count, capsys):
    assert main(["verify", "simple-roundtrip", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_out_without_format_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["verify", "vkw", "--count", "1", "--seed", "7", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out") and captured.err.count("\n") == 1
    assert not out.exists()


def test_artifacts_off_the_embed_route_is_usage_error(tmp_path, capsys):
    src, art = tmp_path / "pi.json", tmp_path / "a.json"
    main(["gen", "rcsp", "--regular3", "--vertices", "4", "--seed", "13", "--out", str(src)])
    capsys.readouterr()
    assert main(["reduce", "rcsp2vk-simple", "--in", str(src), "--artifacts", str(art)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --artifacts") and captured.err.count("\n") == 1
    assert not art.exists()


def test_reduce_is_byte_deterministic(tmp_path):
    src = tmp_path / "pi.json"
    main(["gen", "rcsp", "--regular3", "--vertices", "4", "--seed", "13",
          "--out", str(src)])
    outs = []
    for name in ("a.json", "b.json"):
        dst = tmp_path / name
        assert main(["reduce", "rcsp2vk-embed", "--in", str(src), "--F", "2",
                     "--out", str(dst)]) == 0
        outs.append(read(dst))
    assert outs[0] == outs[1]


def test_gen_rcsp_without_graph_shape_is_usage_error(tmp_path):
    out = tmp_path / "pi.json"
    assert main(["gen", "rcsp", "--vertices", "4", "--seed", "1",
                 "--out", str(out)]) == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "vk.json"
    proc = subprocess.run(
        [sys.executable, "-m", "knapreduce", "gen", "vk", "--n", "2",
         "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_full_pipeline_sat_to_solved_knapsack(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    pi = tmp_path / "pi.json"
    vk = tmp_path / "vk.json"
    main(["gen", "sat", "--n", "6", "--m", "3", "--bound", "4", "--planted",
          "--seed", "21", "--out", str(phi)])
    assert main(["reduce", "sat2rcsp-embed", "--in", str(phi), "--k", "7",
                 "--out", str(pi)]) == 0
    assert main(["reduce", "rcsp2vk-simple", "--in", str(pi), "--out", str(vk)]) == 0
    rcsp = parse_instance(read(pi))
    assert main(["solve", "brute", "--in", str(vk)]) == 0
    record = json.loads(capsys.readouterr().out)
    # the planted formula is satisfiable, so the chain reaches a full assignment
    assert int(record["value"]) == rcsp.graph.vertex_count


# The README CLI examples on their exact paths, each with the sha256 of every
# file it writes; "stdout" is the text report.
README_GOLDEN = [
    (["gen", "rcsp", "--regular3", "--vertices", "4", "--sigma", "2", "--upsilon", "2",
      "--seed", "7", "--out", "pi.json"],
     {"pi.json": "7002cdac78d796fed3277278f66e59d42d61a83a9b81009395f6e44fd8392078"}),
    (["gen", "sat", "--n", "8", "--m", "5", "--bound", "4", "--planted", "--seed", "7",
      "--out", "phi.json"],
     {"phi.json": "49504b1762c956c258931cb4148f268eacb7ef59738b3f74c00ad1640b87228e"}),
    (["gen", "vk", "--n", "10", "--dims", "3", "--vk-class", "mixed", "--seed", "7",
      "--out", "inst.json"],
     {"inst.json": "3eeff93e47be1595734c9c6c09c5d476a4faca2afaf1e1b4919a7f539cfe6493"}),
    (["gen", "csp2", "--vertices", "4", "--sigma", "2", "--seed", "7", "--out", "gamma.json"],
     {"gamma.json": "62ee23b67e4439fb52572d54802735bf6b86153cd485c9dc42e5aedae5c392c8"}),
    (["reduce", "rcsp2vk-simple", "--in", "pi.json", "--out", "vk.json"],
     {"vk.json": "d9b26e516460f24a0a68fdc95a8df0cd1a643411e993dbd423562579961e96d3"}),
    (["reduce", "rcsp2vk-embed", "--in", "pi.json", "--F", "10", "--out", "vk-embed.json",
      "--artifacts", "audit.json"],
     {"vk-embed.json": "a4302db7441e257d5f461ba1c832a45e5e6da7717086bd1b42bf517c8d2ff00b",
      "audit.json": "a19f7111f8ddcc559ef727b939e522b48764efcd5df02288e48eeec657c93682"}),
    (["reduce", "rcsp2vk-embed", "--in", "pi.json", "--F", "1", "--out", "vk-f1.json"],
     {"vk-f1.json": "df0e48e5ce467dd1d8acb75aaa83a35120d10ecd4b2d9d628776adc28f6621e0"}),
    (["solve", "approx-unbounded", "--in", "vk-f1.json"],
     {"stdout": "b96d295aa2ebe1414a826fa94835462830e12c951fd82e1970a243b263b738e6"}),
    (["solve", "approx", "--in", "vk.json", "--seed", "7", "--oracle"],
     {"stdout": "0819c372e066d114d546b17e23b130d9ea32d05bd87f1642551fb9f52ffcb0f5"}),
    (["solve", "approx", "--in", "inst.json", "--seed", "7", "--oracle"],
     {"stdout": "fa52e756a1debb0ace42b82388a4d1d6b69a4ddfd956615ccc484c1deb7d0b6c"}),
    (["reduce", "csp2rcsp", "--in", "gamma.json", "--out", "pi-csp2.json"],
     {"pi-csp2.json": "4307675ef69b1ad71d4ea2244b9062765932551523de2b51a19e8f3d33c5a101"}),
    (["reduce", "sat2rcsp-embed", "--in", "phi.json", "--k", "8", "--out", "pi-embed.json"],
     {"pi-embed.json": "b56922937db30c3a3da32e0a2ed26659dac8b4115ed52c177ecb4ccd4a21315a"}),
    (["reduce", "rcsp2vk-simple", "--in", "pi-embed.json", "--out", "vk-sat.json"],
     {"vk-sat.json": "7bbf80db66027c5a1486e5aab6a296fbe247b3146117b3830da908ef744dd15a"}),
    (["reduce", "rcsp2vk-embed", "--in", "pi-embed.json", "--F", "2", "--out", "vk-sat-f2.json"],
     {"vk-sat-f2.json": "6a9c7ffc43f3d91bdd13be78f93e99c14e8796f4cb920702aa81e932ca74870e"}),
    (["reduce", "sat2rcsp-disperser", "--in", "phi.json", "--k", "5", "--r", "2",
      "--epsilon", "1/4", "--seed", "7", "--out", "pi-disperser.json"],
     {"pi-disperser.json": "668aefa78fbe8517a00cbe44604b79df57119c47a12548529b99c1ea2895aa0d"}),
    (["solve", "brute", "--in", "vk.json", "--out", "brute.json"],
     {"brute.json": "873aa6064361b95aaa56be257382df1c81724d925ac4d33f48704f8b894d4b09"}),
    (["solve", "brute", "--in", "inst.json", "--out", "brute-inst.json"],
     {"brute-inst.json": "c1e2a64a556e7ade4848d0b2da1ada5fe0314d0d34f4756b10d1b1f8668f8550"}),
    (["solve", "dp", "--in", "inst.json", "--cap-states", "500000", "--out", "dp.json"],
     {"dp.json": "4a05ee0a52b60c6b242fcf917493f9daceb6f38c1372fca43246cd742b63072a"}),
    (["solve", "dp", "--in", "vk.json", "--cap-states", "500000", "--out", "dp-vk.json"],
     {"dp-vk.json": "eccedd643f20eefcb631998de1d2c723ba265815d305c63eedada31413294316"}),
    (["verify", "simple-roundtrip", "--count", "20", "--seed", "7"],
     {"stdout": "5f70e9691d3c52348faf70ec635961382f76f83b477ef70a49029069d510c479"}),
    (["verify", "simple-roundtrip", "--count", "20", "--seed", "7", "--format", "json",
      "--out", "simple.json"],
     {"simple.json": "50cc776c5a60f6165e7971e991e3f3c9f8bc848c47f9c8c7b1152cbc27b4a838"}),
    (["verify", "csp-chain", "--count", "10", "--seed", "7", "--format", "csv",
      "--out", "chain.csv"],
     {"chain.csv": "22a69a4a12cf95442f2581d2acaacee63c31e6dcef8c8f3b9aef6f739602f57d",
      "stdout": "0305dcdb5735d6e1e39287f9a08a308652727610e7c6ec88201460cfed415cfe"}),
    (["verify", "discretize", "--count", "12"],
     {"stdout": "8bdc69f43258627ba4fc37e3e3bf0a68b444e9a6cf578b19e25cd84aeba88a84"}),
    (["verify", "embed-roundtrip", "--count", "4", "--seed", "7"],
     {"stdout": "7107484b1fff91ea3105ffed0f060735cdfab8a4e79b6276ad38b9a618a7a7bc"}),
    (["verify", "vkw", "--count", "5", "--seed", "7", "--format", "csv",
      "--out", "report.csv"],
     {"report.csv": "73a36a74e0976d4a48db19182030f06dc33f5081a7ce4b920c16a9416ae3be03",
      "stdout": "efaf6e60785f35220ae381fd7b53e82dfa03edda4505798fc6ddce3324545571"}),
    (["verify", "obs-basic", "--count", "3", "--seed", "7"],
     {"stdout": "8f58e75831950e43e28c52a9f2f9db389337097c093acdfbc32b74d06cfb1ec0"}),
]


def test_readme_examples_write_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, digests in README_GOLDEN:
        assert main(argv) == 0, argv
        stdout = capsys.readouterr().out.encode("utf-8")
        for name, digest in digests.items():
            data = stdout if name == "stdout" else (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (argv, name)
    brute, dp = (json.loads(read(tmp_path / name)) for name in ("brute.json", "dp-vk.json"))
    assert (dp["value"], dp["witness"]) == (brute["value"], brute["witness"])
    # the SAT-route targets repeat rows: most symbols are padding to the shared alphabet
    for name in ("vk-sat.json", "vk-sat-f2.json"):
        costs = parse_instance(read(tmp_path / name)).costs
        assert len(set(costs)) < len(costs)
    # the mixed instance has half-budget items, so its approx digest pins the LP branch
    assert split_by_boundedness(parse_instance(read(tmp_path / "inst.json")))[0]
