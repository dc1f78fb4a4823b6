"""Run the benchmark on two checkouts in alternating pairs and compare them.

For each seed, `perfbench/run.py` runs once in each checkout, and the side
that goes first alternates from pair to pair, so a slow phase of a shared
host falls on both sides alike. For every end-to-end metric the script
prints each side's median and quartiles, the number of pairs the change
won (ties count for neither side; the direction and the bound come from the
change's `BENCHMARK.json`) and a verdict:

- `worse beyond bound`: the change's median is worse than the parent's by
  more than the metric's bound, a fraction of the parent's median.
- `unresolved`: the parent's interquartile range is wider than the bound,
  so the runs spread too widely to tell.
- `gain`: the change won at least 9 in 10 pairs and its median is better
  by more than the parent's interquartile range.
- `within bound`: none of these.

Next to `peak_rss_mb` it prints each side's operation
counts, since a run that fits more operations into its time may hold more
memory: for `monitor` an operation is one replay of the stream. It then fits
`peak_rss_mb` against the operation count over every run of both sides, with
one slope and one intercept per side, and prints the slope in MB per
operation and the change's RSS difference at equal operation counts, in MB
and as a share of the parent's median beside the metric's bound: the slope
is memory the harness keeps per operation, the difference the program's
own. It also reports whether the output digests agree in every pair.

Before the runs it hashes each side's harness, `BENCHMARK.json` and every
file under `perfbench/`, and prints whether the two match, naming the files
that differ: runs of two different harnesses do not compare the program
alone.

It exits 1 when the harnesses differ, the output digests differ in any
pair or the change failed more operations than the parent, and 0
otherwise; it prints and writes --json alike either way.

Run from anywhere, with the parent checkout first:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload train \\
        --seeds 21-30 --seconds 20 --json BENCH_11.json

--seeds takes a range, first-last, or a single seed.

With --json the workload's summary and every run's values are written
under "workloads" in that file; the other workloads already in it stay.
Each workload's entry names the two trees it compared under "git_describe":
each side's `git describe --always --dirty`, or null when the side is not a
git checkout or git fails. "harness_sha256" holds each side's sha256 of
every harness file, by path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def git_describe(checkout: Path) -> str | None:
    """`git describe --always --dirty` of checkout; None when checkout is not
    the root of a git checkout or git fails."""
    if not (checkout / ".git").exists():
        return None
    cmd = ["git", "-C", str(checkout), "describe", "--always", "--dirty"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def harness_digests(checkout: Path) -> dict[str, str]:
    """sha256 of BENCHMARK.json and of every file under perfbench/, by path
    relative to checkout; the bytecode a run writes under __pycache__ is
    left out."""
    paths = [checkout / "BENCHMARK.json", *sorted((checkout / "perfbench").rglob("*"))]
    digests = {}
    for path in paths:
        rel = path.relative_to(checkout)
        if path.is_file() and "__pycache__" not in rel.parts:
            digests[rel.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metrics, digests and operation count."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (checkout / "perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "operations": report["operations"],
        "digests": report["digests"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(cell: dict, better: str, bound: float, pairs: int) -> str:
    """The verdict on one metric's summary cell (see the module docstring)."""
    parent = cell["parent_median"]
    spread = cell["parent_q3"] - cell["parent_q1"]
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cell["change_median"] - parent)  # negative when the change is worse
    if -gain > bound * abs(parent):
        return "worse beyond bound"
    if spread > bound * abs(parent):
        return "unresolved"
    if 10 * cell["change_wins"] >= 9 * pairs and gain > spread:
        return "gain"
    return "within bound"


def summarize(runs: list[dict], end_to_end: dict[str, dict]) -> dict:
    """Median, quartiles, the change's wins and the verdict of every
    end-to-end metric; end_to_end maps a name to its BENCHMARK.json entry."""
    out = {}
    for name, spec in end_to_end.items():
        sides = {s: [r[s]["metrics"][name] for r in runs] for s in SIDES}
        cell = {}
        for side, values in sides.items():
            q1, median, q3 = quartiles(values)
            cell.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        sign = 1.0 if spec["better"] == "higher" else -1.0
        cell["change_wins"] = sum(
            1 for p, c in zip(sides["parent"], sides["change"]) if sign * (c - p) > 0.0
        )
        cell["verdict"] = verdict(cell, spec["better"], spec["bound"], len(runs))
        out[name] = cell
    return out


def rss_fit(runs: list[dict]) -> dict | None:
    """Least-squares fit of peak_rss_mb = side intercept + slope * operations.

    The slope comes from the spread of operation counts within each side, so
    a change that fits more operations into a run does not enter it. None
    when no side's runs differ in their operation count."""
    sxx = sxy = 0.0
    means = {}
    for side in SIDES:
        xs = [r[side]["operations"] for r in runs]
        ys = [r[side]["metrics"]["peak_rss_mb"] for r in runs]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx += sum((x - mx) ** 2 for x in xs)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        means[side] = (mx, my)
    if sxx == 0.0:
        return None
    slope = sxy / sxx
    at_equal = {side: my - slope * mx for side, (mx, my) in means.items()}
    diff = at_equal["change"] - at_equal["parent"]
    parent_median = statistics.median(r["parent"]["metrics"]["peak_rss_mb"] for r in runs)
    return {"mb_per_operation": slope, "change_minus_parent_mb": diff,
            "change_minus_parent_share": diff / parent_median}


def seed_range(text: str) -> range:
    """The seeds of "first-last", or of a single "seed"."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 21-30, or one seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)
    first, last = seeds[0], seeds[-1]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    trees = {side: git_describe(path) for side, path in checkouts.items()}
    print("; ".join(f"{side} {trees[side]}" for side in SIDES), flush=True)
    harness = {side: harness_digests(path) for side, path in checkouts.items()}
    differ = sorted(
        name for name in harness["parent"].keys() | harness["change"].keys()
        if harness["parent"].get(name) != harness["change"].get(name)
    )
    print("harness (BENCHMARK.json, perfbench/): "
          + (f"DIFFERS in {', '.join(differ)}" if differ else "identical"), flush=True)

    runs = []
    for i, seed in enumerate(seeds):
        pair = {"seed": seed}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
        pair["digests_identical"] = pair["parent"]["digests"] == pair["change"]["digests"]
        runs.append(pair)
        print(f"seed {seed}: " + "; ".join(
            f"{s} " + " ".join(f"{k}={v:.6g}" for k, v in pair[s]["metrics"].items())
            + f" operations={pair[s]['operations']}" for s in SIDES
        ) + f"; digests {'identical' if pair['digests_identical'] else 'DIFFER'}", flush=True)

    summary = summarize(runs, end_to_end)
    print(f"\n{args.workload}: {len(runs)} pairs, seeds {first}-{last}, {args.seconds:g} s runs")
    for name, cell in summary.items():
        line = f"{name} ({end_to_end[name]['better']} is better): " + "; ".join(
            f"{s} median {cell[f'{s}_median']:.6g} [q1 {cell[f'{s}_q1']:.6g}, q3 {cell[f'{s}_q3']:.6g}]"
            for s in SIDES
        ) + f"; change won {cell['change_wins']} of {len(runs)}; {cell['verdict']}"
        if name == "peak_rss_mb":
            line += "; operations " + ", ".join(
                f"{s} {[r[s]['operations'] for r in runs]}" for s in SIDES
            )
        print(line)
    fit = rss_fit(runs)
    if fit is not None:
        print(f"peak_rss_mb fit over both sides: {fit['mb_per_operation']:.4g} MB per operation; "
              f"change minus parent at equal operations {fit['change_minus_parent_mb']:+.4g} MB, "
              f"{100 * fit['change_minus_parent_share']:+.2f}% of the parent's median "
              f"(bound {100 * end_to_end['peak_rss_mb']['bound']:g}%)")
    failed = {s: sum(r[s]["failed"] for r in runs) for s in SIDES}
    identical = all(r["digests_identical"] for r in runs)
    print(f"failed operations: {failed}; digests identical in every pair: {identical}; "
          f"harness identical: {not differ}")

    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc.setdefault("workloads", {})[args.workload] = {
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
            "git_describe": trees,
            "harness_sha256": harness,
            "harness_identical": not differ,
            "seeds": [first, last],
            "pairs": len(runs),
            "failed_operations": failed,
            "digests_identical_every_pair": identical,
            "summary": summary,
            "peak_rss_fit": fit,
            "runs": runs,
        }
        args.json.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if identical and not differ and failed["change"] <= failed["parent"] else 1


if __name__ == "__main__":
    sys.exit(main())
