import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from knapreduce import verify
from knapreduce.generators import gen_rcsp_planted
from knapreduce.knapsack import Solution, VkInstance, check_feasible
from knapreduce.reductions import (
    constraint_weight,
    item_of,
    rcsp_to_vk_embed,
    vk_solution_from_assignment,
)
from knapreduce.verify import (
    SUITES,
    VerificationReport,
    check_digit_identities,
    check_embed_completeness,
    check_embed_soundness_exhaustive,
    report_csv,
    report_json_payload,
    report_text,
    run_suite,
)

SMALL_COUNTS = {
    "simple-roundtrip": 12,
    "embed-roundtrip": 4,
    "csp-chain": 12,
    "discretize": 40,
    "obs-basic": 8,
    "vkw": 3,
}


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes_at_small_scale(suite):
    report = run_suite(suite, SMALL_COUNTS[suite], seed=2024)
    assert report.records
    assert report.passed, [r for r in report.records if not r.passed]


def test_suites_are_deterministic():
    a = run_suite("simple-roundtrip", 6, seed=5)
    b = run_suite("simple-roundtrip", 6, seed=5)
    assert a.records == b.records


def test_report_with_no_checks_fails():
    assert not VerificationReport("simple-roundtrip", []).passed
    assert not run_suite("simple-roundtrip", 0, seed=1).passed


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense", 1, 1)


def test_corrupted_budget_negative_control():
    pi, planted = gen_rcsp_planted(4, 2, 2, random.Random(9), regular3=True)
    target, _ = rcsp_to_vk_embed(pi, 2)
    corrupted = VkInstance(
        target.profits,
        target.costs,
        (target.budget[0] - 1,) + target.budget[1:],
    )
    solution = vk_solution_from_assignment(pi, planted)
    check, _, observed, passed = check_embed_completeness(pi, solution, 2, corrupted)
    assert check == "completeness-F2"
    assert not passed
    assert observed == "planted solution violates a budget"


@pytest.mark.parametrize("seed", [0, 1, 3, 4, 5])
@pytest.mark.parametrize("chunk_size", [1, 2])
def test_soundness_negative_control(seed, chunk_size):
    """The packed target of pi extracts the planted symbols, which an
    instance with one edge's u-projection moved by 1 mod m rejects."""
    pi, planted = verify._planted_cubic(4, random.Random(seed))
    m = pi.upsilon_size
    assert m > 1  # seed 2 draws m = 1, where no projection can move
    (u, v), (proj_u, proj_v) = min(pi.projections.items())
    moved = list(proj_u)
    moved[planted.values[u]] = (moved[planted.values[u]] + 1) % m
    corrupted = replace(pi, projections={**pi.projections, (u, v): (tuple(moved), proj_v)})
    target, art = rcsp_to_vk_embed(pi, chunk_size)
    assert check_embed_soundness_exhaustive(pi, target, art)[3]
    check, _, observed, passed = check_embed_soundness_exhaustive(corrupted, target, art)
    assert check == f"soundness-exhaustive-F{chunk_size}"
    assert not passed
    assert observed.startswith("inconsistent extraction at mask ")


def test_embed_roundtrip_builds_each_planted_solution_once(monkeypatch):
    calls = []

    def counted(pi, planted):
        calls.append(pi)
        return vk_solution_from_assignment(pi, planted)

    monkeypatch.setattr(verify, "vk_solution_from_assignment", counted)
    assert run_suite("embed-roundtrip", 3, seed=4).passed
    assert len(calls) == 3


def test_records_pinned_over_many_seeds():
    """Every record byte of every suite at counts 1, 2 and 4, seeds 0-11."""
    digest = hashlib.sha256()
    for suite in SUITES:
        for count in (1, 2, 4):
            for seed in range(12):
                digest.update(report_text(run_suite(suite, count, seed)).encode())
    assert digest.hexdigest() == "9493b1cbfc34a90df7786570dcfbd9daa269e22909ddf2147bbbd68c3f0e38c6"


def test_report_renderers():
    report = run_suite("vkw", 2, seed=3)
    text = report_text(report)
    assert "PASS" in text and "checks passed" in text
    csv_text = report_csv(report)
    header, *rows = csv_text.strip().splitlines()
    assert header == "suite,check,instance,passed,expected,observed"
    assert len(rows) == len(report.records)
    payload = report_json_payload(report)
    assert payload["passed"] is True
    assert len(payload["records"]) == len(report.records)
    json.dumps(payload)  # serializable


def sampled_digit_identities(pi, chunk_size, rng):
    """Reference for check_digit_identities: the three packed identities
    tested on random item subsets.  Returns one verdict per identity."""
    target, art = verify.rcsp_to_vk_embed(pi, chunk_size)
    q = art.base_q
    failures = [0, 0, 0]
    for _ in range(1000):
        chosen = [i for i in range(target.item_count) if rng.getrandbits(1)]
        pairs = [item_of(pi, i) for i in chosen]
        for l, chunk in enumerate(art.partition):
            weight_sum = sum(
                constraint_weight(pi, j, v, s) * q ** (pos + 1)
                for pos, j in enumerate(chunk)
                for (v, s) in pairs
            )
            coverage = sum(art.coverage[l][v] for (v, _) in pairs)
            if sum(target.costs[i][2 * l] for i in chosen) != weight_sum:
                failures[0] += 1
            if sum(target.costs[i][2 * l + 1] for i in chosen) != art.sentinel * coverage - weight_sum:
                failures[1] += 1
        total_coverage = sum(row[v] for row in art.coverage for (v, _) in pairs)
        if sum(target.profits[i] for i in chosen) != total_coverage:
            failures[2] += 1
    return [bad == 0 for bad in failures]


def _shift_item_zero(column, delta):
    """rcsp_to_vk_embed with item 0's cost column (or, for None, its profit)
    moved by delta.  Item 0 belongs to vertex 0, which chunk 0 covers, so
    its second dimension in chunk 0 is positive and stays nonnegative."""

    def corrupted(pi, chunk_size):
        target, art = rcsp_to_vk_embed(pi, chunk_size)
        profits = list(target.profits)
        costs = [list(row) for row in target.costs]
        if column is None:
            profits[0] += delta
        else:
            costs[0][column] += delta
        return VkInstance(tuple(profits), tuple(map(tuple, costs)), target.budget), art

    return corrupted


@pytest.mark.parametrize("corruption, verdicts", [
    (None, [True, True, True]),
    ((0, 1), [False, True, True]),
    ((1, -1), [True, False, True]),
    ((None, 1), [True, True, False]),
], ids=["correct", "first-dimension+1", "second-dimension-1", "profit+1"])
def test_per_item_identities_agree_with_sampled_subsets(monkeypatch, corruption, verdicts):
    if corruption is not None:
        monkeypatch.setattr(verify, "rcsp_to_vk_embed", _shift_item_zero(*corruption))
    for seed in range(10):
        rng = random.Random(seed)
        pi, _ = gen_rcsp_planted(
            rng.choice((4, 6)), rng.randint(1, 2), rng.randint(1, 3), rng, regular3=True
        )
        chunk_size = rng.choice((1, 2, 3))
        observed = [passed for *_, passed in check_digit_identities(pi, chunk_size)]
        assert observed == sampled_digit_identities(pi, chunk_size, rng) == verdicts, seed


def _filtered_masks(target):
    """Reference for _feasible_subsets: every mask that check_feasible accepts."""
    n = target.item_count
    return [
        mask for mask in range(1 << n)
        if check_feasible(target, Solution(frozenset(i for i in range(n) if (mask >> i) & 1)))
    ]


def _walker_targets():
    for seed in range(6):
        pi, _ = verify._planted_cubic(4, random.Random(seed))
        for chunk_size in (1, 2):
            target = rcsp_to_vk_embed(pi, chunk_size)[0]
            yield pytest.param("packed", target, id=f"packed-s{seed}-F{chunk_size}")
    yield pytest.param("no-items", VkInstance((), (), (3, 1)), id="no-items")
    yield pytest.param("zero-budget", VkInstance(
        (1, 2, 3, 4), ((0, 1), (0, 0), (2, 0), (0, 0)), (0, 0)), id="zero-budget")
    yield pytest.param("zero-costs", VkInstance((1,) * 6, ((0, 0),) * 6, (5, 0)), id="zero-costs")


@pytest.mark.parametrize("name, target", list(_walker_targets()))
def test_feasible_walk_matches_the_full_filter(name, target):
    walked = list(verify._feasible_subsets(target))
    masks = [mask for mask, _ in walked]
    assert masks == _filtered_masks(target)
    for mask, solution in walked:
        assert solution.chosen == {i for i in range(target.item_count) if (mask >> i) & 1}
    if name == "zero-costs":
        assert masks == list(range(1 << target.item_count))
    if name == "zero-budget":
        assert masks == [0b0000, 0b0010, 0b1000, 0b1010]


DISCRETIZE_B = 12
DISCRETIZE_POINTS = (DISCRETIZE_B + 1) * (DISCRETIZE_B + 2) // 2


def _discretize_observed(check):
    report = run_suite("discretize", DISCRETIZE_B, seed=0)
    return {r.observed for r in report.records if r.check.startswith(check)}


@pytest.mark.parametrize("wrong_x", [0, 5, DISCRETIZE_B])
def test_sandwich_failure_counts_once_per_budget(monkeypatch, wrong_x):
    """A round-up below x at one x fails on each budget whose sweep holds x."""
    varpi_up = verify.varpi_up
    monkeypatch.setattr(
        verify, "varpi_up",
        lambda x, gamma: Fraction(x - 1) if x == wrong_x else varpi_up(x, gamma),
    )
    weight = DISCRETIZE_B + 1 - wrong_x
    assert _discretize_observed("sandwich") == {f"{DISCRETIZE_POINTS} points, {weight} violations"}
    assert _discretize_observed("min-bounds") == {f"{DISCRETIZE_POINTS} points, 0 violations"}


@pytest.mark.parametrize("b, x, value", [
    (6, 0, Fraction(1, 1000)),  # above gamma*x = 0, below B - B/gamma
    (6, 6, Fraction(6001, 1000)),  # above B - 0, below gamma*x
], ids=["gamma-x", "complement"])
def test_min_bound_failure_counts_once(monkeypatch, b, x, value):
    digamma = verify.digamma
    monkeypatch.setattr(
        verify, "digamma",
        lambda cost, budget, gamma: (value,)
        if (cost, budget) == ((x,), (b,)) else digamma(cost, budget, gamma),
    )
    assert _discretize_observed("min-bounds") == {f"{DISCRETIZE_POINTS} points, 1 violations"}
    assert _discretize_observed("sandwich") == {f"{DISCRETIZE_POINTS} points, 0 violations"}
