import json
import random

import pytest

from knapreduce.generators import gen_rcsp_planted
from knapreduce.knapsack import VkInstance
from knapreduce.reductions import rcsp_to_vk_embed
from knapreduce.verify import (
    SUITES,
    VerificationReport,
    check_embed_completeness,
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
    records = check_embed_completeness(pi, planted, 2, target=corrupted)
    assert not all(r.passed for r in records)
    failing = [r for r in records if not r.passed]
    assert "violates" in failing[0].observed


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
