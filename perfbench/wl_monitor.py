"""`monitor` workload: `cli.main(["monitor", ...])` replaying a seeded stream.

The stream is `tds.write_stream` output of several seeded fault simulations
joined end to end, their timestamps shifted so time keeps increasing at the
sampling step. A `topology,remove_line,<l>` record follows the sample at
which each fault clears, and about 1% malformed lines are injected at seeded
positions. The checkpoint is a seeded, untrained model with in_dim 40, which
costs the same to evaluate as a trained one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import re
import time

import numpy as np

from hostclock import now

UNIT = "event"
LATENCY = "gap between consecutive event writes to stdout"
ALIASES = {
    "throughput_per_s": "monitor_events_per_s",
    "latency_p50_ms": "monitor_event_p50_ms",
    "latency_p99_ms": "monitor_event_p99_ms",
}
WINDOW = 20
_LINE_NO = re.compile(r"^line (\d+): ")


class StampedStdout(io.TextIOBase):
    """Keeps the text written to it and stamps the end of every line."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        if s.endswith("\n"):
            self.stamps.append(now())
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


def generate(seed: int, work, tiny: bool) -> dict:
    from tsakit import packaged_network_path
    from tsakit.autodiff_nn import ModelConfig, StabilityModel, save_checkpoint
    from tsakit.dataset import paper_grid
    from tsakit.grid_model import FaultSpec, load_network
    from tsakit.tds import run_simulation, solve_equilibrium, write_stream

    network = load_network(packaged_network_path())
    grid = paper_grid(network)
    rng = np.random.default_rng(seed)
    duration, step = (1.6, 0.01) if tiny else (grid.duration_s, grid.step_s)
    hz = network.nominal_hz
    equilibria: dict = {}
    lines: list[str] = []
    for k in range(1 if tiny else 4):
        frac = float(rng.choice(grid.motor_fractions))
        if frac not in equilibria:
            net_f = network.with_motor_fraction(frac)
            equilibria[frac] = (net_f, solve_equilibrium(net_f))
        net_f, eq = equilibria[frac]
        fault = FaultSpec(int(rng.choice(grid.lines)), float(rng.choice(grid.location_fractions)))
        clear_s = float(rng.choice(grid.clearing_cycles)) / hz
        trace = run_simulation(net_f, eq, fault=fault, clear_s=clear_s,
                               fault_start_s=grid.fault_start_s, duration_s=duration, step_s=step)
        offset = k * (duration + step)
        buf = io.StringIO()
        write_stream(dataclasses.replace(trace, times=trace.times + offset), buf)
        block = buf.getvalue().splitlines()
        cleared = int(np.searchsorted(trace.times, trace.clear_time_s - 1e-9))
        block.insert(cleared + 1, f"topology,remove_line,{fault.line_index}")
        lines.extend(block)

    # Malformed lines: one of each skip reason cli.cmd_monitor logs, in turn.
    n_bad = max(3, len(lines) // 100)
    at = set(int(i) for i in rng.choice(len(lines), size=n_bad, replace=False))
    stream, injected, n_valid, topo = [], set(), 0, []
    removed = None
    for i, line in enumerate(lines):
        if i in at:
            kind = len(injected) % 3
            row = lines[i if not lines[i].startswith("topology") else i - 1].split(",")
            bad = (
                ",".join(row[:-1]) if kind == 0
                else ",".join(row[:5] + ["0.9x"] + row[6:]) if kind == 1
                else "topology,remove_line,L2"
            )
            stream.append(bad)
            injected.add(len(stream))  # 1-based line number, as cli logs it
        stream.append(line)
        if line.startswith("topology,"):
            removed = int(line.split(",")[2])
        else:
            n_valid += 1
            topo.append(removed)
    path = work / "stream.csv"
    path.write_text("\n".join(stream) + "\n")

    ckpt = work / "checkpoint.tsm"
    save_checkpoint(StabilityModel(ModelConfig(in_dim=2 * WINDOW, seed=seed)), ckpt)
    n_events = n_valid - WINDOW + 1
    # the first event assessed against each new topology, plus seeded others
    switched = [k - WINDOW + 1 for k in range(1, n_valid) if topo[k] != topo[k - 1]]
    sampled = set(int(i) for i in rng.choice(n_events, size=8, replace=False))
    return {
        "stream": path, "checkpoint": ckpt, "injected": injected, "n_valid": n_valid,
        "n_lines": len(stream),
        "removed_at": topo, "n_events": n_events,
        "check_events": sorted(sampled.union(j for j in switched if j >= 0)),
    }


def setup(inputs: dict) -> dict:
    import tsakit.cli  # noqa: F401  (the entry point imports every layer)
    from tsakit import packaged_network_path
    from tsakit.autodiff_nn import load_checkpoint
    from tsakit.grid_model import load_network

    return {
        "network": load_network(packaged_network_path()),
        "model": load_checkpoint(inputs["checkpoint"]),
    }


def make_op(env: dict, inputs: dict):
    """One operation: replay the whole stream through `cli.main`."""
    from tsakit import cli

    argv = ["monitor", "--checkpoint", str(inputs["checkpoint"]), "--stream", str(inputs["stream"])]

    def op() -> dict:
        out = StampedStdout()
        t0, w0 = now(), time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        elapsed, wall = now() - t0, time.perf_counter() - w0
        text = out.text()
        return {
            "time_s": elapsed,
            "wall_s": wall,
            "items": len(out.stamps),
            "latency_s": list(np.diff(out.stamps)),  # the first event's wait is start-up
            "digests": {"events_sha256": hashlib.sha256(text.encode()).hexdigest()},
            "exit_code": code,
            "text": text,
        }

    return op


def skip_reason(message: str) -> str:
    if "topology record" in message:
        return "topology"
    if "non-numeric" in message:
        return "non_numeric"
    return "fields"


def check(env: dict, inputs: dict, records: list, warnings: list) -> tuple[dict, list]:
    """Output checks, and failures with their bases: missing events against
    expected events, skips of lines that were not injected against those lines.
    Skips of injected lines are expected and not failures."""
    from tsakit.cli import assess_window, format_event
    from tsakit.grid_model import adjacency_from_network

    network, model = env["network"], env["model"]
    skipped = [int(m.group(1)) for m in map(_LINE_NO.match, warnings) if m]
    unexpected = sum(1 for n in skipped if n not in inputs["injected"])
    expected_skips = len(inputs["injected"]) * len(records)
    missing = sum(max(0, inputs["n_events"] - r["items"]) for r in records)
    event_lines = records[0]["text"].splitlines()

    rows = []
    for line in inputs["stream"].read_text().splitlines():
        fields = line.split(",")
        if len(fields) == 1 + 2 * network.n_bus:
            try:
                rows.append([float(x) for x in fields])
            except ValueError:
                continue

    def reproduces(j: int) -> bool:
        if j >= len(event_lines):
            return False
        win = np.array(rows[j : j + WINDOW])
        removed = inputs["removed_at"][j + WINDOW - 1]
        event = assess_window(
            model, win[:, 1 : 1 + network.n_bus], win[:, 1 + network.n_bus :],
            network.slack_bus, adjacency_from_network(network, without_line=removed),
            win[-1, 0],
        )
        return format_event(event) == event_lines[j]

    checks = {
        "exit_code_zero": all(r["exit_code"] == 0 for r in records),
        "events_equal_valid_lines_minus_window_plus_1": all(
            r["items"] == inputs["n_events"] for r in records
        ),
        "skips_equal_injected_lines": unexpected == 0 and len(skipped) == expected_skips,
        "sampled_windows_reproduce_events": len(rows) == inputs["n_valid"]
        and all(reproduces(j) for j in inputs["check_events"]),
    }
    return checks, [
        ("missing events", missing, inputs["n_events"] * len(records)),
        ("skipped lines not injected", unexpected,
         (inputs["n_lines"] - len(inputs["injected"])) * len(records)),
    ]
