"""The per-metric verdict of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
SPEC = {
    "throughput_per_s": {"better": "higher", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(parent, change, rss_parent=None, rss_change=None):
    """Runs of both sides, pair by pair; peak RSS is 50 MB unless given."""
    rss_parent = rss_parent or [50.0] * len(parent)
    rss_change = rss_change or [50.0] * len(change)
    return [
        {side: {"metrics": {"throughput_per_s": t, "peak_rss_mb": m}}
         for side, t, m in (("parent", tp, mp), ("change", tc, mc))}
        for tp, tc, mp, mc in zip(parent, change, rss_parent, rss_change)
    ]


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 103.0, 97.0, 100.0]  # q3 - q1 = 1.75


@pytest.mark.parametrize("change, want", [
    # 9 of 10 pairs won, median 120 against 100 with an IQR of 1.75
    ([120.0] * 9 + [90.0], "gain"),
    # every pair won, but the median moves by 1.5, less than the IQR
    ([p + 1.5 for p in PARENT], "within bound"),
    # a large median gain from only 8 wins
    ([130.0] * 8 + [90.0] * 2, "within bound"),
    # the median falls by 30%, more than the 0.25 bound
    ([70.0] * 10, "worse beyond bound"),
    # 20% worse stays within the bound
    ([80.0] * 10, "within bound"),
])
def test_throughput_verdict(bench_pairs, change, want):
    summary = bench_pairs.summarize(pairs(PARENT, change), SPEC)
    assert summary["throughput_per_s"]["verdict"] == want


def test_wide_parent_spread_is_unresolved(bench_pairs):
    parent = [60.0, 140.0] * 5  # q1 60, q3 140: wider than 25% of the median
    summary = bench_pairs.summarize(pairs(parent, [200.0] * 10), SPEC)
    assert summary["throughput_per_s"]["verdict"] == "unresolved"


def test_lower_is_better_metric(bench_pairs):
    runs = pairs(PARENT, PARENT, rss_parent=[50.0] * 10, rss_change=[56.0] * 10)
    summary = bench_pairs.summarize(runs, SPEC)
    cell = summary["peak_rss_mb"]
    assert (cell["change_wins"], cell["verdict"]) == (0, "worse beyond bound")
    runs = pairs(PARENT, PARENT, rss_parent=[50.0] * 10, rss_change=[45.0] * 10)
    assert bench_pairs.summarize(runs, SPEC)["peak_rss_mb"]["verdict"] == "gain"
    # identical runs: no pair won, nothing moved
    assert bench_pairs.summarize(pairs(PARENT, PARENT), SPEC)["throughput_per_s"] == {
        "parent_median": 100.0, "parent_q1": 99.125, "parent_q3": 100.875,
        "change_median": 100.0, "change_q1": 99.125, "change_q3": 100.875,
        "change_wins": 0, "verdict": "within bound",
    }
