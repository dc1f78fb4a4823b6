"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs the benchmark command of ``BENCHMARK.json`` with ``--tiny`` on every
workload, untraced and traced, and checks the result line: it is the last
line of standard output, has exactly the contract's keys, says the outputs
were correct, and names exactly the metrics (with their units) that
``BENCHMARK.json`` declares. Then it checks that the command fails, without a
result, in a directory that holds only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    return subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, declared: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("outputs reported incorrect")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted = {result.get('attempted')!r}")
    if not (isinstance(result.get("failed"), int) and result["failed"] >= 0):
        errors.append(f"failed = {result.get('failed')!r}")
    printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if printed != declared:
        errors.append(f"printed {sorted(printed.items())} != declared {sorted(declared.items())}")
    for name, v in result.get("metrics", {}).items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            errors.append(f"{name} = {v['value']!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(spec, ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            errors = check_result(proc, declared[trace])
            failures += bool(errors)
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAIL'}")
            for e in errors:
                print(f"  {e}")

    bare = ROOT / "perfbench_out" / f"selftest-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
                   "--seconds", "1", "--trace", "0")
        lines = proc.stdout.strip().splitlines()
        refused = proc.returncode != 0 and not (lines and lines[-1].startswith("{"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not refused
    print(f"no sources: {'ok' if refused else 'FAIL'} (exit code {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
