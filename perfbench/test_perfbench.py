"""Tests of the benchmark itself (not collected by the package's tier-1 run).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402


def test_off_by_one_reference_is_flagged():
    """Negative control: a check must reject a reference that is off by one."""
    K = run.load_package()
    for index in (0, 3):  # a packed-target op and a lattice-DP op
        op = W.build_packed_exact(K, random.Random(5), index)
        out = op.run()
        assert op.check(out, op.reference())[0], op.kind
        assert not op.check(out, op.reference() + 1)[0], op.kind
    op = W.build_approx(K, random.Random(5), 0)
    solution = op.run()
    value = ref.vk_profit(op.inputs[0].profits, solution.chosen)
    assert op.check(solution, op.reference())[0]
    assert not op.check(solution, value - 1)[0]


def test_zero_attempted_ops_is_not_correct():
    outcomes = run.Outcomes()
    assert outcomes.attempted == 0 and not outcomes.correct


def test_failed_check_and_exception_count_as_failures():
    K = run.load_package()
    ops = [W.build_packed_exact(K, random.Random(1), 3)]
    ops[0].reference = lambda: -1
    ops.append(W.Op("boom", (), lambda: 1 / 0, lambda: 0, lambda out, r: (True, 1, 1)))
    outcomes = run.Outcomes()
    outcomes.run_op(ops, 0)
    outcomes.run_op(ops, 1)
    assert outcomes.attempted == 2 and len(outcomes.failures) == 2 and not outcomes.correct


def test_reference_lp_matches_package_simplex():
    K = run.load_package()
    for seed in range(40):
        rng = random.Random(seed)
        inst = K.generators.gen_vk_2bounded(rng.randint(1, 12), rng.randint(1, 4), 200, 50, rng)
        expected, _ = K.simplex.knapsack_relaxation(inst.profits, inst.costs, inst.budget)
        assert ref.lp_bound(inst.profits, inst.costs, inst.budget) == expected


def test_inputs_depend_on_seed_only():
    for name in W.WORKLOADS:
        workload = W.WORKLOADS[name]
        small = W.Workload(name, workload.why, 12, 4, workload.build)
        first = run.inputs_digest(run.setup(small, 3)[1])
        assert first == run.inputs_digest(run.setup(small, 3)[1])
        assert first != run.inputs_digest(run.setup(small, 4)[1])


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return tracer.span("child", child) + tracer.span("child", child)

    tracer.span("parent", parent)
    stats = tracer.layer_stats()
    p, c = stats["parent"], stats["child"]
    assert c["calls"] == 2 and p["calls"] == 1
    assert abs(p["self_s"] - (p["busy_s"] - c["busy_s"])) < 1e-9
    assert 0 <= p["self_s"] < p["busy_s"]


def test_traced_ops_reach_only_their_layers():
    """Layer separation on a few ops of each workload, through the real wrappers."""
    for name, workload in W.WORKLOADS.items():
        K = run.load_package()
        ops = [workload.build(K, W._rng(1, name, i), i) for i in range(8)]
        tracer = spans.Tracer()
        tracer.install()
        outcomes = run.Outcomes()
        for i in range(len(ops)):
            outcomes.run_op(ops, i, tracer)
        assert outcomes.correct, outcomes.failures
        metrics = tracer.metrics()
        assert run.layer_checks(name, metrics, tracer.wrapped) == []


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    K = run.load_package()
    tracer = spans.Tracer()
    tracer.install()
    reported = set(tracer.metrics()) | {"trace.ops_per_s_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == reported


def test_times_are_scaled_to_reference_speed():
    """A run on a machine twice as slow as the reference reports half its
    measured times; counts, memory and ratios are not scaled."""
    K = run.load_package()
    ops = [W.build_packed_exact(K, W._rng(1, "packed-exact", i), i) for i in range(3)]
    outcomes = run.Outcomes()
    for i in range(len(ops)):
        outcomes.run_op(ops, i)
    measured = run.end_to_end(outcomes, [0.5])
    scaled = run.end_to_end(outcomes, [0.5], scale=0.5)
    assert scaled["setup_s"]["value"] == 0.25
    assert abs(scaled["op_ms_p50"]["value"] - measured["op_ms_p50"]["value"] / 2) < 1e-9
    assert abs(scaled["ops_per_s"]["value"] - measured["ops_per_s"]["value"] * 2) < 1e-6
    for name in ("pass_share", "approx_ratio_p10", "approx_ratio_mean"):
        assert scaled[name] == measured[name]
    probe = speed.Speed()
    probe.maybe_sample()
    probe.maybe_sample()  # within EVERY_S of the first: no second sample
    assert len(probe.samples) == 1
    assert probe.scale() == speed.REFERENCE_S / probe.samples[0]
