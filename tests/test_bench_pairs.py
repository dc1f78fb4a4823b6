"""The per-metric verdict of scripts/bench_pairs.py on synthetic runs, the
tree names and harness digests it records and its exit code."""

import importlib.util
import json
import subprocess
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


@pytest.mark.parametrize("text, seeds", [("51", [51]), ("51-58", list(range(51, 59)))])
def test_seed_range(bench_pairs, text, seeds):
    assert list(bench_pairs.seed_range(text)) == seeds


def test_rss_fit_at_equal_operations(bench_pairs):
    """1 MB per operation on both sides; at equal counts the change holds 2 MB
    more, 2% of the parent's median of 100 MB."""
    runs = [
        {side: {"operations": ops, "metrics": {"peak_rss_mb": rss}}
         for side, ops, rss in (("parent", op, 98.0 + op), ("change", oc, 100.0 + oc))}
        for op, oc in ((1, 3), (2, 4), (3, 5))
    ]
    fit = bench_pairs.rss_fit(runs)
    assert fit["mb_per_operation"] == pytest.approx(1.0)
    assert fit["change_minus_parent_mb"] == pytest.approx(2.0)
    assert fit["change_minus_parent_share"] == pytest.approx(0.02)


def test_git_describe_names_the_tree(bench_pairs, tmp_path):
    """null outside a checkout; the commit, then the commit marked dirty once a
    tracked file changes."""
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.git_describe(plain) is None
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.org",
             *args], check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    (repo / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "one commit")
    head = git("rev-parse", "--short", "HEAD")
    assert bench_pairs.git_describe(repo) == head
    (repo / "tracked.txt").write_text("two\n")
    assert bench_pairs.git_describe(repo) == f"{head}-dirty"


def harness_trees(tmp_path):
    """Two checkouts holding the same BENCHMARK.json and perfbench/ files."""
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    end_to_end = [{"name": name, **spec} for name, spec in SPEC.items()]
    for path in checkouts.values():
        (path / "perfbench").mkdir(parents=True)
        (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": end_to_end}))
        (path / "perfbench" / "run.py").write_text("print('run')\n")
    return checkouts


def stub_runs(bench_pairs, monkeypatch, checkouts, digests=None, failed=None):
    """Replace run_once with three seeds' synthetic runs; the second pair,
    seed 12, carries the given output digests and failures."""
    digests = digests or {"parent": "a", "change": "a"}
    failed = failed or {"parent": 0, "change": 0}
    side_of = {path.resolve(): side for side, path in checkouts.items()}

    def run_once(checkout, workload, seed, seconds):
        side = side_of[checkout]
        second = seed == 12
        return {
            "metrics": {"throughput_per_s": 100.0, "peak_rss_mb": 50.0 + seed},
            "correct": 5, "failed": failed[side] if second else 0, "operations": seed,
            "digests": {"out_sha256": digests[side] if second else "a"},
        }

    monkeypatch.setattr(bench_pairs, "run_once", run_once)


def run_main(bench_pairs, checkouts, report):
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "train",
            "--seeds", "11-13", "--json", str(report)]
    return bench_pairs.main(argv)


@pytest.mark.parametrize("digests, failed, code", [
    ({"parent": "a", "change": "a"}, {"parent": 0, "change": 0}, 0),
    ({"parent": "a", "change": "b"}, {"parent": 0, "change": 0}, 1),  # the numerics drifted
    ({"parent": "a", "change": "a"}, {"parent": 0, "change": 1}, 1),  # the change failed more
    ({"parent": "a", "change": "a"}, {"parent": 2, "change": 1}, 0),
])
def test_exit_code_names_drift_and_failures(bench_pairs, monkeypatch, tmp_path, digests, failed,
                                            code):
    """main exits 1 when a pair's digests differ or the change failed more
    operations than the parent, and writes its JSON either way. The drift
    and the failures sit in the second of three pairs."""
    checkouts = harness_trees(tmp_path)
    stub_runs(bench_pairs, monkeypatch, checkouts, digests, failed)
    report = tmp_path / "bench.json"
    assert run_main(bench_pairs, checkouts, report) == code
    entry = json.loads(report.read_text())["workloads"]["train"]
    assert entry["pairs"] == 3
    assert entry["digests_identical_every_pair"] == (digests["parent"] == digests["change"])
    assert entry["failed_operations"] == failed


def test_a_different_harness_exits_1(bench_pairs, monkeypatch, tmp_path, capsys):
    """Each side's harness digests are recorded; bytecode under __pycache__
    does not count, a changed perfbench/ file makes main exit 1 and is
    named, and the runs are still printed and written."""
    checkouts = harness_trees(tmp_path)
    stub_runs(bench_pairs, monkeypatch, checkouts)
    cache = checkouts["change"] / "perfbench" / "__pycache__"
    cache.mkdir()
    (cache / "run.cpython-311.pyc").write_bytes(b"compiled")
    report = tmp_path / "bench.json"
    assert run_main(bench_pairs, checkouts, report) == 0
    entry = json.loads(report.read_text())["workloads"]["train"]
    assert entry["harness_identical"]
    digests = entry["harness_sha256"]
    assert list(digests["parent"]) == ["BENCHMARK.json", "perfbench/run.py"]
    assert digests["parent"] == digests["change"]
    assert "harness (BENCHMARK.json, perfbench/): identical" in capsys.readouterr().out

    (checkouts["change"] / "perfbench" / "run.py").write_text("print('faster run')\n")
    assert run_main(bench_pairs, checkouts, report) == 1
    assert "DIFFERS in perfbench/run.py" in capsys.readouterr().out
    entry = json.loads(report.read_text())["workloads"]["train"]
    assert not entry["harness_identical"]
    assert entry["pairs"] == 3 and entry["digests_identical_every_pair"]
    digests = entry["harness_sha256"]
    assert digests["parent"]["BENCHMARK.json"] == digests["change"]["BENCHMARK.json"]
    assert digests["parent"]["perfbench/run.py"] != digests["change"]["perfbench/run.py"]
