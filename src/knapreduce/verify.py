"""Property-verification suites behind the CLI's verify command.

Each suite draws seeded random instances, runs one family of checks
against the exact oracles, and yields the fields of one record per
check; run_suite builds the records into a report.  Suites never sample
expected values from the code under test: every expectation comes from
an independent brute-force computation or an algebraic identity
evaluated from first principles.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from operator import le, sub

from .csp import csp_opt_bruteforce, csp_value, is_consistent, par_bruteforce
from .discretize import digamma, gamma_for_dimension, varpi_down, varpi_up
from .generators import gen_csp2, gen_rcsp, gen_rcsp_planted
from .knapsack import Solution, check_feasible, profit, solve_bruteforce
from .reductions import (
    constraint_weight,
    csp2_assignment_from_rcsp,
    csp2_to_rcsp,
    extract_partial_assignment,
    item_index,
    item_of,
    rcsp_to_vk_embed,
    rcsp_to_vk_simple,
    vk_solution_from_assignment,
    verify_base_q_digits,
)
from .serialize import instance_digest


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check: str
    instance: str
    expected: str
    observed: str
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        # a run that performed no checks verified nothing
        return bool(self.records) and all(r.passed for r in self.records)

    def counts(self) -> tuple[int, int]:
        ok = sum(1 for r in self.records if r.passed)
        return ok, len(self.records)


def _derive(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _planted_cubic(n: int, rng: random.Random):
    """The planted 3-regular instance the three packed suites draw."""
    return gen_rcsp_planted(n, rng.randint(1, 2), rng.randint(1, 3), rng, regular3=True)


def _feasible_subsets(target):
    """Yield (mask, solution) for every feasible item subset, in mask order.

    A depth-first walk extends each feasible set by larger indices that
    still fit its residual budget, so it visits only the feasible sets:
    costs are nonnegative, so no superset of an infeasible set fits.  The
    masks are sorted afterwards, which keeps the order of the full
    range(1 << n) filter.  The walk keeps its own coordinatewise fit test
    rather than the oracles' packed one, so the suites stay independent of
    the oracles.  room is a list: tuple(map(...)) guesses a size and
    resizes, so each dropped d-tuple would join CPython's per-size tuple
    free list, which keeps up to 2,000 of them for the life of the process.
    """
    costs, n_items = target.costs, target.item_count
    masks = []
    stack = [(0, 0, list(target.budget))]
    while stack:
        mask, start, room = stack.pop()
        masks.append(mask)
        for i in range(start, n_items):
            ci = costs[i]
            if all(map(le, ci, room)):
                stack.append((mask | 1 << i, i + 1, list(map(sub, room, ci))))
    for mask in sorted(masks):
        yield mask, Solution(frozenset(i for i in range(n_items) if (mask >> i) & 1))


# ---------------------------------------------------------------------------
# plain reduction roundtrip
# ---------------------------------------------------------------------------

def _simple_roundtrip(count: int, seed: int):
    for i in range(count):
        rng = _derive(seed, i)
        n = rng.randint(2, 5)
        max_edges = n * (n - 1) // 2
        pi = gen_rcsp(
            n,
            sigma_size=rng.randint(1, 3),
            upsilon_size=rng.randint(1, 3),
            rng=rng,
            edge_count=rng.randint(1, min(max_edges, n + 1)),
        )
        digest = instance_digest(pi)
        par, witness = par_bruteforce(pi)
        target = rcsp_to_vk_simple(pi)
        opt, opt_solution = solve_bruteforce(target)
        yield (
            digest,
            "values-equal",
            "max partial assignment == knapsack optimum",
            f"{par} vs {opt}",
            par == opt,
        )
        forward = Solution(
            frozenset(
                item_index(pi, v, s) for v, s in enumerate(witness.values) if s is not None
            )
        )
        forward_profit = profit(target, forward)
        yield (
            digest,
            "forward-witness",
            "witness items feasible with equal profit",
            f"profit {forward_profit}",
            is_consistent(pi, witness)
            and check_feasible(target, forward)
            and forward_profit == par,
        )
        extracted = extract_partial_assignment(pi, "simple", opt_solution, target)
        yield (
            digest,
            "backward-extraction",
            "extracted assignment consistent with size == optimum",
            f"size {extracted.size()}",
            is_consistent(pi, extracted) and extracted.size() == opt,
        )


# ---------------------------------------------------------------------------
# packed reduction roundtrip
# ---------------------------------------------------------------------------

def check_embed_completeness(pi, solution, chunk_size, target):
    """Record fields (check, expected, observed, passed): solution, the
    planted assignment's items, is feasible in target with full profit.  A
    negative control passes a deliberately corrupted target to see the
    check fail."""
    full = pi.graph.vertex_count + 2 * len(pi.graph.edges)
    feasible = check_feasible(target, solution)
    observed = (
        f"profit {profit(target, solution)}"
        if feasible
        else "planted solution violates a budget"
    )
    return (
        f"completeness-F{chunk_size}",
        f"planted assignment feasible with profit {full}",
        observed,
        feasible and profit(target, solution) == full,
    )


def check_embed_soundness_exhaustive(pi, target, art):
    """Record fields (check, expected, observed, passed): every feasible
    subset of the packed (target, art) extracts to an assignment of pi that
    is consistent and within the deficit bound.  Exhaustive, so keep the
    instance tiny."""
    full = pi.graph.vertex_count + 2 * len(pi.graph.edges)
    checked = 0
    failures = []
    for mask, solution in _feasible_subsets(target):
        checked += 1
        deficit = full - profit(target, solution)
        phi = extract_partial_assignment(pi, art.chunk_size, solution, (target, art))
        bound = pi.graph.vertex_count - 2 * deficit * art.chunk_size
        if not is_consistent(pi, phi):
            failures.append(f"inconsistent extraction at mask {mask}")
        elif phi.size() < bound:
            failures.append(f"size {phi.size()} below bound {bound} at mask {mask}")
    return (
        f"soundness-exhaustive-F{art.chunk_size}",
        "every feasible subset extracts consistently within the size bound",
        failures[0] if failures else f"{checked} feasible subsets",
        not failures,
    )


def _embed_roundtrip(count: int, seed: int):
    for i in range(count):
        rng = _derive(seed, i)
        n = rng.choice((4, 6))
        pi, planted = _planted_cubic(n, rng)
        digest = instance_digest(pi)
        solution = vk_solution_from_assignment(pi, planted)
        packed = {chunk_size: rcsp_to_vk_embed(pi, chunk_size) for chunk_size in (1, 2, n)}
        for chunk_size, (target, _) in packed.items():
            yield (digest, *check_embed_completeness(pi, solution, chunk_size, target))
        if n == 4:
            yield (digest, *check_embed_soundness_exhaustive(pi, *packed[rng.choice((1, 2))]))


# ---------------------------------------------------------------------------
# binary CSP chain
# ---------------------------------------------------------------------------

def _csp_chain(count: int, seed: int):
    for i in range(count):
        rng = _derive(seed, i)
        sigma = 2 if i % 4 else 3
        gamma = gen_csp2(
            4, sigma, rng, regular3=True, planted=bool(rng.getrandbits(1))
        )
        digest = instance_digest(gamma)
        edge_total = len(gamma.graph.edges)
        csp_opt = csp_opt_bruteforce(gamma)
        par, witness = par_bruteforce(csp2_to_rcsp(gamma))
        yield (
            digest,
            "full-satisfaction-iff-full-assignment",
            f"CSP optimum == {edge_total} iff partial-assignment optimum == {edge_total}",
            f"csp={csp_opt} par={par}",
            (csp_opt == edge_total) == (par == edge_total),
        )
        deficit = edge_total - par
        satisfied = csp_value(gamma, csp2_assignment_from_rcsp(gamma, witness))
        yield (
            digest,
            "extraction-satisfies-enough-edges",
            f"extracted assignment satisfies >= {edge_total} - 6*{deficit}",
            f"satisfied {satisfied}",
            satisfied >= edge_total - 6 * deficit,
        )


# ---------------------------------------------------------------------------
# discretization bounds
# ---------------------------------------------------------------------------

def _discretize(count: int, seed: int):
    """Both bounds on every point (b, x) with 0 <= x <= b <= budget_max, in
    dimensions 1..5, where budget_max is count capped at 200; the sweep is
    exhaustive, so the seed is unused.

    The sandwich test depends on x alone, so it runs once per x and a
    failure counts once for each of the budget_max + 1 - x budgets whose
    sweep contains x; the counts read as those of a per-point sweep.  The
    min bounds depend on the budget, so digamma runs on every point; with
    gamma = p/q, the bound b - (b - x)/gamma is (b*p - (b - x)*q)/p, so it is
    compared in integers and no point forms a Fraction of its own.
    """
    budget_max = min(200, max(1, count))
    sweep = f"exhaustive-B{budget_max}"
    for dimension in range(1, 6):
        gamma = gamma_for_dimension(dimension)
        p, q = gamma.numerator, gamma.denominator
        scaled = [gamma * x for x in range(budget_max + 1)]
        sandwich_failures = 0
        for x in range(budget_max + 1):
            down, up = varpi_down(x, gamma), varpi_up(x, gamma)
            bad = (not down <= x <= up) + (x >= 1 and not up < scaled[x])
            sandwich_failures += bad * (budget_max + 1 - x)
        min_bound_failures = 0
        checked = 0
        for b in range(budget_max + 1):
            budget = (b,)
            for x in range(b + 1):
                checked += 1
                value = digamma((x,), budget, gamma)[0]
                if value > scaled[x]:
                    min_bound_failures += 1
                if value.numerator * p > (b * p - (b - x) * q) * value.denominator:
                    min_bound_failures += 1
        yield (
            sweep,
            f"sandwich-d{dimension}",
            "down <= x <= up < gamma*x on every point",
            f"{checked} points, {sandwich_failures} violations",
            sandwich_failures == 0,
        )
        yield (
            sweep,
            f"min-bounds-d{dimension}",
            "value <= gamma*x and value <= B - (B-x)/gamma on every point",
            f"{checked} points, {min_bound_failures} violations",
            min_bound_failures == 0,
        )


# ---------------------------------------------------------------------------
# packed-cost algebraic identities
# ---------------------------------------------------------------------------

def check_digit_identities(pi, chunk_size):
    """Record fields (check, expected, observed, passed) of the packed
    target's three cost identities, checked item by item.

    For a set S of chosen items, chunk l's first dimension must equal the
    stacked constraint weights sum(weight * q**(pos+1)), its second the
    sentinel times the coverage minus that stack, and the profit the
    coverage summed over the chunks.  Each side of each identity is a sum
    over S of one term per item, so it holds on every subset exactly when
    it holds on every single item.  The terms come from constraint_weight
    and the coverage table alone, never from the target's costs.
    """
    target, art = rcsp_to_vk_embed(pi, chunk_size)
    q = art.base_q
    failures = [0, 0, 0]
    for i, (costs, item_profit) in enumerate(zip(target.costs, target.profits)):
        v, s = item_of(pi, i)
        for l, chunk in enumerate(art.partition):
            stack = sum(constraint_weight(pi, j, v, s) * q ** (pos + 1) for pos, j in enumerate(chunk))
            failures[0] += costs[2 * l] != stack
            failures[1] += costs[2 * l + 1] != art.sentinel * art.coverage[l][v] - stack
        failures[2] += item_profit != sum(row[v] for row in art.coverage)
    names = (
        "packed-first-dimension",
        "packed-second-dimension",
        "profit-equals-coverage",
    )
    return [
        (
            f"{name}-F{chunk_size}",
            "identity holds exactly on every item, so on every subset",
            f"{target.item_count} items in {art.chunk_count} chunks, {bad} violations",
            bad == 0,
        )
        for name, bad in zip(names, failures)
    ]


def _obs_basic(count: int, seed: int):
    for i in range(count):
        rng = _derive(seed, i)
        pi, _ = _planted_cubic(rng.choice((4, 6)), rng)
        digest = instance_digest(pi)
        for fields in check_digit_identities(pi, rng.choice((1, 2, 3))):
            yield (digest, *fields)


# ---------------------------------------------------------------------------
# saturation checks: coverage cap and forced digit targets
# ---------------------------------------------------------------------------

def _vkw(count: int, seed: int):
    """Exhaustive over feasible subsets: per-chunk coverage never exceeds the
    chunk total, and meeting it forces every constraint weight to the
    range size (checked both directly and through the digit-sum utility)."""
    for i in range(count):
        rng = _derive(seed, i)
        pi, _ = _planted_cubic(4, rng)
        chunk_size = rng.choice((1, 2))
        digest = instance_digest(pi)
        target, art = rcsp_to_vk_embed(pi, chunk_size)
        m = pi.upsilon_size
        cap_failures = 0
        forced_failures = 0
        feasible_count = 0
        saturated_count = 0
        for _, solution in _feasible_subsets(target):
            feasible_count += 1
            pairs = [item_of(pi, item) for item in solution.chosen]
            for l, chunk in enumerate(art.partition):
                coverage = sum(art.coverage[l][v] for (v, _) in pairs)
                if coverage > art.chunk_totals[l]:
                    cap_failures += 1
                if coverage == art.chunk_totals[l]:
                    saturated_count += 1
                    weights = [
                        sum(constraint_weight(pi, j, v, s) for (v, s) in pairs)
                        for j in chunk
                    ]
                    if not all(w == m for w in weights):
                        forced_failures += 1
                    if not verify_base_q_digits(weights, art.base_q, m):
                        forced_failures += 1
        yield (
            digest,
            f"coverage-cap-F{chunk_size}",
            "selected coverage never exceeds the chunk total",
            f"{feasible_count} feasible subsets, {cap_failures} violations",
            cap_failures == 0,
        )
        yield (
            digest,
            f"saturation-forces-digit-targets-F{chunk_size}",
            "saturated chunks have every constraint weight at the range size",
            f"{saturated_count} saturated chunks, {forced_failures} violations",
            forced_failures == 0,
        )


# ---------------------------------------------------------------------------
# dispatch and rendering
# ---------------------------------------------------------------------------

# suite name -> (generator taking (count, seed) and yielding the fields
# (instance, check, expected, observed, passed) of each record, default count)
SUITES = {
    "simple-roundtrip": (_simple_roundtrip, 200),
    "embed-roundtrip": (_embed_roundtrip, 40),
    "csp-chain": (_csp_chain, 100),
    "discretize": (_discretize, 200),
    "obs-basic": (_obs_basic, 50),
    "vkw": (_vkw, 25),
}


def run_suite(suite: str, count: int, seed: int) -> VerificationReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    records = [
        CheckRecord(suite, check, instance, expected, str(observed), bool(passed))
        for instance, check, expected, observed, passed in SUITES[suite][0](count, seed)
    ]
    return VerificationReport(suite, records)


def report_text(report: VerificationReport) -> str:
    lines = []
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.suite}/{r.check} instance={r.instance} "
            f"expected: {r.expected}; observed: {r.observed}"
        )
    ok, total = report.counts()
    lines.append(f"{report.suite}: {ok}/{total} checks passed")
    return "\n".join(lines) + "\n"


def report_csv(report: VerificationReport) -> str:
    lines = ["suite,check,instance,passed,expected,observed"]
    for r in report.records:

        def q(text: str) -> str:
            return '"' + text.replace('"', '""') + '"'

        lines.append(
            ",".join(
                [r.suite, r.check, r.instance, str(int(r.passed)), q(r.expected), q(r.observed)]
            )
        )
    return "\n".join(lines) + "\n"


def report_json_payload(report: VerificationReport) -> dict:
    return {
        "suite": report.suite,
        "passed": report.passed,
        "records": [asdict(r) for r in report.records],
    }
