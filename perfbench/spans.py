"""Outside-in span tracing of knapreduce's public functions.

The tracer rebinds module attributes to recording wrappers, including the
copies a module imported from another (``knapreduce.approx`` holds its own
name for ``prune_by_discretization``), so calls between layers produce
nested spans.  Spans live in flat in-memory arrays until the run ends.
A function that a later commit drops is skipped: its rows are missing
from the report, and nothing fails.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from math import comb

LAYERS = {
    "reductions": (
        "sat_to_rcsp",
        "rcsp_to_vk_embed",
        "rcsp_to_vk_simple",
        "vk_solution_from_assignment",
        "extract_partial_assignment",
    ),
    "embedding": ("simple_connected_embedding",),
    "disperser": ("build_disperser", "covering_holds"),
    "csp": ("par_bruteforce", "is_consistent"),
    "knapsack": ("solve_bruteforce", "solve_dp", "solve_bruteforce_bounded_size", "check_feasible"),
    "discretize": ("digamma", "prune_by_discretization"),
    "simplex": ("knapsack_relaxation",),
    "approx": ("approx_sqrt_d", "approx_lp_rounding", "approx_2unbounded"),
    "serialize": ("instance_digest",),
    "verify": ("run_suite",),
}
VERIFY_SUITES = ("simple-roundtrip", "embed-roundtrip", "csp-chain", "discretize", "obs-basic", "vkw")
# Busy and self time are reported as shares of the time spent inside ops, so a
# layer that a workload never calls reads 0 as a ratio, not as a constant time;
# trace.op_busy_s gives the total that turns the shares back into seconds.
STATS = (("calls", "count"), ("busy_share", "ratio"), ("self_share", "ratio"), ("fail", "count"))
# (metric, unit, the wrapped function whose calls it is read from)
COUNTERS = (
    ("knapsack.solve_dp.cells", "count", "knapsack.solve_dp"),
    ("knapsack.solve_bruteforce_bounded_size.subsets", "count", "knapsack.solve_bruteforce_bounded_size"),
    ("knapsack.solve_bruteforce.items", "count", "knapsack.solve_bruteforce"),
    ("simplex.knapsack_relaxation.vars", "count", "simplex.knapsack_relaxation"),
    ("simplex.knapsack_relaxation.rows", "count", "simplex.knapsack_relaxation"),
    ("discretize.prune_by_discretization.items_in", "count", "discretize.prune_by_discretization"),
    ("discretize.prune_by_discretization.items_out", "count", "discretize.prune_by_discretization"),
    ("discretize.prune_by_discretization.kept_ratio", "ratio", "discretize.prune_by_discretization"),
    ("reductions.rcsp_to_vk_embed.budget_bits", "bits", "reductions.rcsp_to_vk_embed"),
    ("disperser.accept_ratio", "ratio", "disperser.build_disperser"),
    ("approx.branch_won.lp", "count", "approx.approx_sqrt_d"),
    ("approx.branch_won.unbounded", "count", "approx.approx_sqrt_d"),
    ("approx.branch_won.empty", "count", "approx.approx_sqrt_d"),
    ("verify.checks", "count", "verify.run_suite"),
)
COUNTED = {source for *_, source in COUNTERS}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count(counts, name, args, kwargs, result):
    """Work counts derived from a call's inputs and outputs only."""
    if name == "knapsack.solve_dp":
        inst = args[0]
        volume = 1
        for b in inst.budget:
            volume *= b + 1
        counts["knapsack.solve_dp.cells"] += volume * len(inst.profits)
    elif name == "knapsack.solve_bruteforce_bounded_size":
        n = len(args[0].profits)
        s = max(0, min(_arg(args, kwargs, 1, "s_max"), n))
        counts["knapsack.solve_bruteforce_bounded_size.subsets"] += sum(comb(n, k) for k in range(s + 1))
    elif name == "knapsack.solve_bruteforce":
        counts["knapsack.solve_bruteforce.items"] += len(args[0].profits)
    elif name == "simplex.knapsack_relaxation":
        counts["simplex.knapsack_relaxation.vars"] += len(args[0])
        counts["simplex.knapsack_relaxation.rows"] += len(_arg(args, kwargs, 2, "budget"))
    elif name == "discretize.prune_by_discretization":
        counts["discretize.prune_by_discretization.items_in"] += len(args[0])
        counts["discretize.prune_by_discretization.items_out"] += len(result)
    elif name == "reductions.rcsp_to_vk_embed":
        counts["budget_bits_total"] += max(result[0].budget, default=0).bit_length()
    elif name == "approx.approx_sqrt_d":
        inst, chosen = args[0], result.chosen
        if not chosen:
            branch = "empty"
        else:
            i = min(chosen)
            bounded = all(2 * c <= b for c, b in zip(inst.costs[i], inst.budget))
            branch = "lp" if bounded else "unbounded"
        counts["approx.branch_won." + branch] += 1
    elif name.startswith("verify.run_suite"):
        counts["verify.checks"] += len(result.records)


class Tracer:
    """Span recorder: one row per wrapped call, parent = the enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.wrapped: set[str] = set()

    def _open(self, name: str) -> int:
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, failed: bool = False):
        self.end[index] = time.perf_counter()
        self.stack.pop()
        if failed:
            self.failed[index] = 1

    def span(self, name: str, fn, /, *args, **kwargs):
        """Run fn inside a span nested in the currently open one, if any."""
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(index, failed=True)
            raise
        self._close(index)
        return result

    def _wrapper(self, name: str, fn):
        counted = name in COUNTED
        keyed = name == "verify.run_suite"

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{_arg(args, kwargs, 0, 'suite')}" if keyed else name
            result = self.span(span_name, fn, *args, **kwargs)
            if counted:
                _count(self.counts, span_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "knapreduce"):
        """Wrap every LAYERS function wherever a package module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                name = f"{layer}.{fn_name}"
                wrapper = self._wrapper(name, original)
                self.wrapped.add(name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, inclusive busy time, self time and failures per span name."""
        spans = len(self.start)
        child_time = [0.0] * spans
        for i in range(spans):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        stats: dict[str, dict[str, float]] = {}
        for i in range(spans):
            name = self.names[self.name_of[i]]
            row = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0})
            busy = self.end[i] - self.start[i]
            row["calls"] += 1
            row["busy_s"] += busy
            row["self_s"] += busy - child_time[i]
            row["fail"] += self.failed[i]
        return stats

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer report: (value, unit) by metric name."""
        stats = self.layer_stats()
        op_busy = sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0)
        for row in stats.values():
            row["busy_share"] = row["busy_s"] / op_busy if op_busy else 0.0
            row["self_share"] = row["self_s"] / op_busy if op_busy else 0.0
        suites = [s for s in stats if s.startswith("verify.run_suite.")]
        if "verify.run_suite" in self.wrapped:
            total = {"calls": 0, "busy_share": 0.0, "self_share": 0.0, "fail": 0}
            for s in suites:
                for key in total:
                    total[key] += stats[s][key]
            stats["verify.run_suite"] = total
        out: dict[str, tuple[float, str]] = {"trace.op_busy_s": (op_busy, "s")}
        for name in sorted(self.wrapped):
            row = stats.get(name, {"calls": 0, "busy_share": 0.0, "self_share": 0.0, "fail": 0})
            for stat, unit in STATS:
                out[f"{name}.{stat}"] = (row[stat], unit)
        if "verify.run_suite" in self.wrapped:
            for suite in VERIFY_SUITES:
                row = stats.get(f"verify.run_suite.{suite}", {"calls": 0, "self_share": 0.0})
                out[f"verify.run_suite.{suite}.calls"] = (row["calls"], "count")
                out[f"verify.run_suite.{suite}.self_share"] = (row["self_share"], "ratio")
        c = self.counts
        for name, unit, source in COUNTERS:
            if source in self.wrapped:
                out[name] = (c.get(name, 0), unit)
        items_in = c.get("discretize.prune_by_discretization.items_in", 0)
        if "discretize.prune_by_discretization.kept_ratio" in out:
            kept = c.get("discretize.prune_by_discretization.items_out", 0) / items_in if items_in else 0.0
            out["discretize.prune_by_discretization.kept_ratio"] = (kept, "ratio")
        if "reductions.rcsp_to_vk_embed.budget_bits" in out:
            calls = stats.get("reductions.rcsp_to_vk_embed", {}).get("calls", 0)
            bits = c.get("budget_bits_total", 0) / calls if calls else 0.0
            out["reductions.rcsp_to_vk_embed.budget_bits"] = (bits, "bits")
        if "disperser.accept_ratio" in out:
            holds = stats.get("disperser.covering_holds", {}).get("calls", 0)
            built = stats.get("disperser.build_disperser", {"calls": 0, "fail": 0})
            builds = built["calls"] - built["fail"]
            out["disperser.accept_ratio"] = (builds / holds if holds else 0.0, "ratio")
        return out

    def write_spans(self, path):
        """Every span as a tab-separated row: id, parent, name, start, end, failed."""
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\tfailed\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.failed[i]}\n"
                )
