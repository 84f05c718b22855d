"""knapreduce benchmark: seeded pipeline workloads, end-to-end metrics, and
an outside-in per-layer trace.

    python3 perfbench/run.py --workload sat-chain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

One run is one process and one thread.  Set-up imports knapreduce fresh
and generates the workload's fixed list of ops from the seed; it is
repeated at least SETUP_REPEATS times and the median reported.  Then a
closed loop with one client runs the op list back to back, pass after
pass, for --seconds (the first pass always completes), timing each op call
alone and checking each output, outside the timed call, against an
independent reference.  Every reported time is scaled to reference speed
by a reference loop timed between ops (speed.py).

With --trace 1 the run instead replays a fixed prefix of the op list
twice, each time after a fresh import: untraced, then traced.  It reports
the per-layer metrics of the traced pass and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A results file with the environment, the seed and a
digest of the generated inputs goes to perfbench/out/.  The exit code is
non-zero when any op fails its check, when no op was attempted, or when a
layer-separation prediction does not hold.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 9
PACKAGE_MODULES = (
    "knapreduce", "knapreduce.generators", "knapreduce.reductions", "knapreduce.embedding",
    "knapreduce.disperser", "knapreduce.csp", "knapreduce.knapsack", "knapreduce.discretize",
    "knapreduce.simplex", "knapreduce.approx", "knapreduce.serialize", "knapreduce.verify",
)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_share", "ratio"),
    ("approx_ratio_p10", "ratio"),
    ("approx_ratio_mean", "ratio"),
)
# Zero-call predictions: each workload must leave these layers untouched.
NO_CALLS = {
    "sat-chain": ("simplex.knapsack_relaxation", "knapsack.solve_bruteforce"),
    "packed-exact": ("simplex.knapsack_relaxation", "reductions.sat_to_rcsp"),
    "approx": (
        "reductions.sat_to_rcsp", "reductions.rcsp_to_vk_embed", "reductions.rcsp_to_vk_simple",
        "reductions.vk_solution_from_assignment", "reductions.extract_partial_assignment",
    ),
    "verify-suites": ("simplex.knapsack_relaxation", "reductions.sat_to_rcsp"),
}
# ...and must reach the layers it is meant to stress.
SOME_CALLS = {
    "sat-chain": ("reductions.sat_to_rcsp", "reductions.rcsp_to_vk_embed", "disperser.build_disperser"),
    "packed-exact": ("knapsack.solve_bruteforce", "knapsack.solve_dp", "csp.par_bruteforce"),
    "approx": ("simplex.knapsack_relaxation", "discretize.prune_by_discretization",
               "knapsack.solve_bruteforce_bounded_size"),
    "verify-suites": ("verify.run_suite", "discretize.digamma", "serialize.instance_digest"),
}


def load_package():
    """Import knapreduce from scratch (module-level caches start empty)."""
    for name in [n for n in sys.modules if n == "knapreduce" or n.startswith("knapreduce.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name.rpartition(".")[2]: importlib.import_module(name) for name in PACKAGE_MODULES
    })


def setup(workload, seed):
    start = time.perf_counter()
    K = load_package()
    ops = generate(K, workload, seed)
    return K, ops, time.perf_counter() - start


def canonical(obj):
    """A hashable, order-independent rendering of generated inputs."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple(sorted((canonical(k), canonical(v)) for k, v in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted(canonical(x) for x in obj))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(x) for x in obj)
    if isinstance(obj, Fraction):
        return ("Fraction", obj.numerator, obj.denominator)
    return obj


def inputs_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.kind, canonical(op.inputs))).encode())
    return h.hexdigest()


class Outcomes:
    """Latencies, failures and quality ratios of the ops a loop ran, by op index."""

    def __init__(self):
        self.times: dict[int, list[float]] = {}
        self.ratios: dict[int, Fraction] = {}
        self.failures: list[str] = []
        self.references: dict[int, object] = {}
        self.attempted = 0

    def run_op(self, ops, index, tracer=None):
        op = ops[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = tracer.span("op." + op.kind, op.run) if tracer else op.run()
        except Exception as exc:  # any exception, CapExceededError included, fails the op
            self.times.setdefault(index, []).append(time.perf_counter() - start)
            self.failures.append(f"op {index} ({op.kind}): {type(exc).__name__}: {exc}")
            return
        self.times.setdefault(index, []).append(time.perf_counter() - start)
        if index not in self.references:
            self.references[index] = op.reference()
        ok, value, bound = op.check(out, self.references[index])
        if not ok:
            self.failures.append(f"op {index} ({op.kind}): output failed its check")
            return
        self.ratios[index] = Fraction(value) / Fraction(bound) if bound else Fraction(1)

    def latencies(self) -> list[float]:
        """One latency per distinct op: the mean of its timed runs."""
        return [statistics.fmean(t) for t in self.times.values()]

    def busy_s(self) -> float:
        return sum(sum(t) for t in self.times.values())

    @property
    def correct(self) -> bool:
        """No vacuous passes: zero attempted ops is a failure."""
        return self.attempted > 0 and not self.failures


def quality_ratios(outcomes: Outcomes) -> list[Fraction]:
    """Value / reference of every op; each run checks every op at least
    once, so the quality metrics depend on the seed alone, not on the speed."""
    return [r for _, r in sorted(outcomes.ratios.items())] or [Fraction(0)]


def end_to_end(outcomes: Outcomes, setup_times, scale=1.0) -> dict:
    """Every end-to-end metric; times are multiplied by scale."""
    lat = [scale * t for t in outcomes.latencies()]
    deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
    ratios = quality_ratios(outcomes)
    p10 = statistics.quantiles(ratios, n=10)[0] if len(ratios) > 1 else ratios[0]
    values = {
        "setup_s": scale * statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": 1000 * statistics.median(lat),
        "op_ms_p90": 1000 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_share": (outcomes.attempted - len(outcomes.failures)) / outcomes.attempted,
        "approx_ratio_p10": float(p10),
        "approx_ratio_mean": float(sum(ratios) / len(ratios)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_untraced(workload, seed, seconds):
    """Passes over one fixed list of workload.size ops, each pass after a
    fresh import and generation, until --seconds have gone by since the
    first timed op; the first pass always completes.  An op's latency is
    the mean of its timings, taken a pass apart.  The op list is the same
    length on every run, so the latency distribution is sampled from the
    same number of distinct inputs however fast the machine is.  Set-up is
    timed as each pass starts and also every seconds / SETUP_REPEATS
    between ops (those inputs are discarded), so that set-up, like the
    ops, is sampled across the whole run and the machine's drift over the
    run reaches both alike."""
    setup_times = []
    outcomes = Outcomes()
    speed = Speed()

    def timed_setup():
        gc.collect()  # the previous set-up's modules and caches go first
        _, new_ops, elapsed = setup(workload, seed)
        setup_times.append(elapsed)
        return new_ops

    ops = timed_setup()
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter() + seconds / SETUP_REPEATS
    passes, i = 1, 0
    while True:
        if i == len(ops):
            if time.perf_counter() >= deadline:
                break
            ops = None
            ops = timed_setup()
            passes, i = passes + 1, 0
        now = time.perf_counter()
        if passes > 1 and now >= deadline:
            break
        if now >= next_setup:
            timed_setup()
            gc.collect()
            next_setup = time.perf_counter() + seconds / SETUP_REPEATS
        speed.maybe_sample()
        outcomes.run_op(ops, i)
        i += 1
    while len(setup_times) < SETUP_REPEATS:
        ops = None
        ops = timed_setup()
    metrics = end_to_end(outcomes, setup_times, speed.scale())
    extra = {"samples": len(outcomes.times), "passes": passes, "setup_times": setup_times,
             "approx_ratio_min": float(min(quality_ratios(outcomes))),
             "speed_scale": speed.scale(), "speed_samples": speed.samples,
             "measured_metrics": end_to_end(outcomes, setup_times)}
    return ops, outcomes, metrics, extra


def layer_checks(workload_name, metrics, wrapped) -> list[str]:
    problems = []
    for fn in NO_CALLS[workload_name]:
        if fn in wrapped and metrics[f"{fn}.calls"][0] != 0:
            problems.append(f"{fn} was called on {workload_name}; predicted 0 calls")
    for fn in SOME_CALLS[workload_name]:
        if fn in wrapped and metrics[f"{fn}.calls"][0] == 0:
            problems.append(f"{fn} was never called on {workload_name}")
    return problems


def run_traced(workload, seed):
    """A fixed prefix of the ops, three times, each after a fresh import:
    a warm-up pass (a process's first pass runs slower, which would bias the
    overhead ratio), an untraced pass and the traced pass."""
    count = workload.trace_ops
    for _ in range(2):
        ops = None
        gc.collect()
        _, ops, _ = setup(workload, seed)
        plain = Outcomes()
        for i in range(count):
            plain.run_op(ops, i)
    ops = None
    gc.collect()
    _, ops, _ = setup(workload, seed)
    tracer = spans.Tracer()
    tracer.install()
    traced = Outcomes()
    for i in range(count):
        traced.run_op(ops, i, tracer)
    raw = tracer.metrics()
    raw["trace.ops_per_s_ratio"] = (plain.busy_s() / traced.busy_s(), "ratio")
    problems = layer_checks(workload.name, raw, tracer.wrapped)
    traced.failures.extend(plain.failures)
    traced.failures.extend(problems)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{workload.name}-seed{seed}.spans.tsv")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}
    extra = {"samples": count, "spans": len(tracer.start), "layer_checks": problems or "hold",
             "layer_seconds": tracer.layer_stats()}
    return ops, traced, metrics, extra


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref_line = head.read_text().strip()
        if ref_line.startswith("ref: "):
            return (ROOT / ".git" / ref_line[5:]).read_text().strip()
        return ref_line
    except OSError:
        return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        origin = Path(importlib.import_module("knapreduce").__file__).resolve()
    except ImportError as exc:
        print(f"cannot import knapreduce from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in origin.parents:
        print(f"knapreduce was imported from {origin}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        ops, outcomes, metrics, extra = run_traced(workload, args.seed)
    else:
        ops, outcomes, metrics, extra = run_untraced(workload, args.seed, args.seconds)
    correct = outcomes.correct
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "inputs_sha256": inputs_digest(ops),
        "ops_generated": len(ops),
        **extra,
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "failures": outcomes.failures[:20],
        "op_ms": [[round(1000 * t, 4) for t in times] for times in outcomes.times.values()],
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print(f"{workload.name:14} {name:52} {m['value']:>14.6g} {m['unit']}")
    for failure in outcomes.failures[:20]:
        print(f"FAIL {failure}")
    print(f"inputs sha256 {record['inputs_sha256']}  seed {args.seed}  results {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one summary table."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed; 7919 is held out for confirming a claimed gain")
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
