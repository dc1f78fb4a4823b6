"""tsakit benchmark: one command for the `label`, `train` and `monitor` workloads.

    python3 perfbench/run.py --workload label --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run is one process with no threads of its own:

1. generate the workload's inputs from ``--seed`` (untimed);
2. set up ten times (import ``tsakit``, load the inputs the entry point
   loads); eleven more set-ups follow step 3, and the median of all 21
   is ``setup_s``;
3. ``--trace 0``: repeat the workload's operation for ``--seconds`` with no
   spans and report the end-to-end metrics. ``--trace 1``: alternate untraced
   and traced operations (spans from ``spans.py``) for ``--seconds`` and
   report the per-layer metrics of the traced ones, per traced operation, and
   the tracing overhead: traced minus untraced time per operation;
4. check the outputs, print a report, and print one JSON result as the last
   line of standard output.

Every time in the metrics is read from ``hostclock.now``: wall time scaled
by the host's speed, sampled every quarter second, so the shared host's
slow and fast phases do not move it. The report keeps the wall times too.

Reports and span files go to ``perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread, unless the caller chose: a second thread waits for the
# other vCPU of a shared host, and the wait shows as latency spikes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import spans  # noqa: E402
import wl_label  # noqa: E402
import wl_monitor  # noqa: E402
import wl_train  # noqa: E402

WORKLOADS = {"label": wl_label, "train": wl_train, "monitor": wl_monitor}
# Set-ups before and after the operations: the host's speed drifts over
# tens of seconds, and a median over both ends of the run follows it less.
SETUP_BEFORE, SETUP_AFTER = 10, 11

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "tds.solve_equilibrium.calls": "count",
    "tds.solve_equilibrium.s": "s",
    "tds.run_simulation.calls": "count",
    "tds.run_simulation.p50_s": "s",
    "tds.run_simulation.total_s": "s",
    "tds.steps": "count",
    "tds.step_us": "us",
    "tds.diverged": "count",
    "labeling.find_cct_simulated.calls": "count",
    "labeling.find_cct_simulated.self_s": "s",
    "labeling.cct_evaluations": "count",
    "labeling.trace_cache_hit_ratio": "ratio",
    "labeling.sims_per_scenario": "ratio",
    "labeling.tsi.s": "s",
    "labeling.tvs.s": "s",
    "labeling.nonmonotone": "count",
    "labeling.saturated": "count",
    "dataset.build_dataset.self_s": "s",
    "dataset.build_dataset.top_self_share": "ratio",
    "dataset.extract_features.total_s": "s",
    "dataset.save_dataset.s": "s",
    "dataset.bytes": "bytes",
    "autodiff_nn.forward.p50_ms": "ms",
    "autodiff_nn.backward.p50_ms": "ms",
    "autodiff_nn.load_checkpoint.s": "s",
    "training_eval.multitask_loss.p50_ms": "ms",
    "training_eval.adam_step.p50_ms": "ms",
    "training_eval.predict.total_s": "s",
    "training_eval.epochs": "count",
    "training_eval.batches": "count",
    "cli.assess_window.p50_ms": "ms",
    "cli.assess_window.self_us": "us",
    "dataset.features_from_window.p50_us": "us",
    "cli.format_event.p50_us": "us",
    "cli.parse_share": "ratio",
    "cli.events": "count",
    "cli.lines_skipped.fields": "count",
    "cli.lines_skipped.non_numeric": "count",
    "cli.lines_skipped.topology": "count",
    "tracing.overhead_s": "s",
    "tracing.overhead_share": "ratio",
}


class WarningLog(logging.Handler):
    """Warnings from the tsakit.* loggers, kept for the failure accounting."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []
        self.by_logger: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())
        self.by_logger[record.name] += 1

    def take(self) -> list[str]:
        out, self.messages = self.messages, []
        return out


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in threads if k in os.environ},
    }


def purge_tsakit() -> None:
    for name in [n for n in sys.modules if n == "tsakit" or n.startswith("tsakit.")]:
        del sys.modules[name]


def latency_tail(records: list[dict]) -> dict:
    """The p99 latency over the run's pooled samples (one operation can have
    fewer than ten samples beyond its own 99th percentile), with the sample
    count and how many lie beyond it. Printed, not in the result: its spread
    from run to run on a shared host is wider than a bound can hold."""
    pooled = np.array([x for r in records for x in r["latency_s"]])
    p99 = float(np.percentile(pooled, 99))
    return {"latency_p99_ms": 1e3 * p99, "samples": len(pooled),
            "beyond": int(np.sum(pooled > p99))}


def repeat(op, seconds: float, log: WarningLog, tracer: spans.Tracer | None) -> list[dict]:
    """Run operations until `seconds` pass. With a tracer, every second
    operation is traced, and the run ends after a traced one."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install()
        try:
            rec = op()
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        rec["warnings"] = log.take()
        records.append(rec)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return records


def end_to_end(records: list[dict], setup_times: list[float]) -> dict:
    return {
        "throughput_per_s": sum(r["items"] for r in records) / sum(r["time_s"] for r in records),
        # The average of each operation's median weighs every operation
        # alike, however many samples it has.
        "latency_p50_ms": 1e3 * statistics.fmean(statistics.median(r["latency_s"]) for r in records),
        "setup_s": float(statistics.median(setup_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload: str, st: spans.SpanStats, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures of the traced operations. Counts and totals are per
    traced operation (one build, one train call or one replay), so they do
    not depend on --seconds or on how many operations fit in it."""
    n_ops = len(traced)

    def per_op(total):
        return total // n_ops if isinstance(total, int) and total % n_ops == 0 else total / n_ops

    sims = st.calls("tds.run_simulation")
    steps = st.attr_sum("tds.run_simulation", "steps")
    sim_s = st.total_s("tds.run_simulation")
    evals = st.attr_sum("labeling.find_cct_simulated", "evaluations")
    scenarios = st.attr_sum("dataset.build_dataset", "scenarios")
    # one cache lookup per CCT evaluation and per labelled scenario; every miss simulates
    lookups = evals + st.attr_sum("dataset.build_dataset", "samples")
    build_s = st.total_s("dataset.build_dataset")
    top_self = sum(st.self_total_s(n) for n in (
        "tds.run_simulation", "labeling.find_cct_simulated", "dataset.build_dataset"))
    events = st.calls("cli.format_event")
    gaps = [x for r in traced for x in r["latency_s"]] if events else []
    in_spans = st.total_s("cli.assess_window") + st.total_s("cli.format_event")
    skipped = Counter(wl_monitor.skip_reason(m) for r in traced for m in r["warnings"]
                      if m.startswith("line "))
    plain_s = sum(r["time_s"] for r in plain)
    overhead_s = sum(r["time_s"] for r in traced) - plain_s
    forward_parent = "cli.assess_window" if workload == "monitor" else "training_eval.train"
    m = {
        "tds.solve_equilibrium.calls": per_op(st.calls("tds.solve_equilibrium")),
        "tds.solve_equilibrium.s": per_op(st.total_s("tds.solve_equilibrium")),
        "tds.run_simulation.calls": per_op(sims),
        "tds.run_simulation.p50_s": st.p50_s("tds.run_simulation"),
        "tds.run_simulation.total_s": per_op(sim_s),
        "tds.steps": per_op(steps),
        "tds.step_us": 1e6 * sim_s / steps if steps else 0.0,
        "tds.diverged": per_op(st.attr_sum("tds.run_simulation", "diverged")),
        "labeling.find_cct_simulated.calls": per_op(st.calls("labeling.find_cct_simulated")),
        "labeling.find_cct_simulated.self_s": per_op(
            st.self_total_s("labeling.find_cct_simulated")),
        "labeling.cct_evaluations": per_op(evals),
        "labeling.trace_cache_hit_ratio": (lookups - sims) / lookups if lookups else 0.0,
        "labeling.sims_per_scenario": sims / scenarios if scenarios else 0.0,
        "labeling.tsi.s": per_op(st.total_s("labeling.tsi")),
        "labeling.tvs.s": per_op(st.total_s("labeling.tvs")),
        "labeling.nonmonotone": per_op(st.attr_sum("labeling.find_cct_simulated", "nonmonotone")),
        "labeling.saturated": per_op(st.attr_sum("labeling.find_cct_simulated", "saturated")),
        "dataset.build_dataset.self_s": per_op(st.self_total_s("dataset.build_dataset")),
        "dataset.build_dataset.top_self_share": top_self / build_s if build_s else 0.0,
        "dataset.extract_features.total_s": per_op(st.total_s("dataset.extract_features")),
        "dataset.save_dataset.s": st.p50_s("dataset.save_dataset"),
        "dataset.bytes": traced[0].get("dataset_bytes", 0),
        "autodiff_nn.forward.p50_ms": 1e3 * st.p50_s("autodiff_nn.forward", forward_parent),
        "autodiff_nn.backward.p50_ms": 1e3 * st.p50_s("autodiff_nn.backward"),
        "autodiff_nn.load_checkpoint.s": st.p50_s("autodiff_nn.load_checkpoint"),
        "training_eval.multitask_loss.p50_ms": 1e3 * st.p50_s("training_eval.multitask_loss"),
        "training_eval.adam_step.p50_ms": 1e3 * st.p50_s("training_eval.adam_step"),
        "training_eval.predict.total_s": per_op(st.total_s("training_eval.predict")),
        "training_eval.epochs": per_op(st.attr_sum("training_eval.train", "epochs")),
        "training_eval.batches": per_op(st.calls("training_eval.adam_step")),
        "cli.assess_window.p50_ms": 1e3 * st.p50_s("cli.assess_window"),
        "cli.assess_window.self_us": 1e6 * st.self_p50_s("cli.assess_window"),
        "dataset.features_from_window.p50_us": 1e6 * st.p50_s("dataset.features_from_window"),
        "cli.format_event.p50_us": 1e6 * st.p50_s("cli.format_event"),
        # event-gap time spent outside assess_window and format_event (first events excluded)
        "cli.parse_share": (
            1.0 - in_spans * len(gaps) / events / sum(gaps) if gaps else 0.0
        ),
        "cli.events": per_op(events),
        "cli.lines_skipped.fields": per_op(skipped["fields"]),
        "cli.lines_skipped.non_numeric": per_op(skipped["non_numeric"]),
        "cli.lines_skipped.topology": per_op(skipped["topology"]),
        "tracing.overhead_s": per_op(overhead_s),
        "tracing.overhead_share": overhead_s / plain_s,
    }
    return {k: float(v) if isinstance(v, float) else int(v) for k, v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (for the harness self-test; not a benchmark)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tsakit" / "__init__.py").is_file():
        print(f"perfbench: no tsakit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)

    logging.getLogger().addHandler(logging.NullHandler())  # keeps cli.main's basicConfig quiet
    log = WarningLog()
    logging.getLogger("tsakit").addHandler(log)

    out_dir = ROOT / "perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        t0 = time.perf_counter()
        inputs = wl.generate(args.seed, work, args.tiny)
        generate_s = time.perf_counter() - t0
        setup_times, setup_walls = [], []

        def set_up():
            purge_tsakit()
            gc.collect()  # every set-up starts with the same collector state
            env, took, wall = hostclock.CLOCK.time_call(lambda: wl.setup(inputs))
            setup_times.append(took)
            setup_walls.append(wall)
            return env

        hostclock.CLOCK.start()

        for _ in range(SETUP_BEFORE):
            env = set_up()
        import tsakit

        if Path(tsakit.__file__).resolve().parent != (src / "tsakit").resolve():
            print(f"perfbench: tsakit imported from {tsakit.__file__}, not {src}", file=sys.stderr)
            return 2
        log.take()

        tracer = spans.Tracer() if args.trace else None
        records = repeat(wl.make_op(env, inputs), args.seconds, log, tracer)
        plain = [r for r in records if not r["traced"]]
        checks, failures = wl.check(env, inputs, plain, [m for r in plain for m in r["warnings"]])
        # the first base counts the operations' units; every failure counts against it
        attempted, failed = failures[0][2], sum(f for _, f, _ in failures)
        checks["outputs_repeat"] = all(
            len({r["digests"][k] for r in records}) == 1 for k in records[0]["digests"]
        )
        for _ in range(SETUP_AFTER):
            set_up()
        if args.trace:
            traced = [r for r in records if r["traced"]]
            metrics = per_layer(args.workload, spans.SpanStats(tracer.spans), plain, traced)
            tracer.write(out_dir / f"{tag}.spans.jsonl")
        else:
            metrics = end_to_end(plain, setup_times)
            tail = latency_tail(plain)
    finally:
        hostclock.CLOCK.stop()
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_facts(),
        "generate_s_untimed": generate_s,
        "host_clock": hostclock.CLOCK.stats(),
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_walls,
        "operations": len(records),
        "operation_s": [r["time_s"] for r in records],
        "operation_wall_s": [r["wall_s"] for r in records],
        "throughput_unit": f"{wl.UNIT}s per second",
        "latency": wl.LATENCY,
        "latency_samples": sum(len(r["latency_s"]) for r in plain),
        "latency_tail": None if args.trace else tail,
        "checks": checks,
        "failures": {name: {"failed": f, "base": base} for name, f, base in failures},
        "warnings_by_logger": dict(log.by_logger),
        "digests": records[0]["digests"],
        "metrics": metrics,
    }
    if args.trace:
        report["spans"] = len(tracer.spans)
        report["functions_traced"] = tracer.functions
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"# tsakit perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# why: {why}")
    print(f"# machine: {json.dumps(report['machine'])}")
    print(f"# host clock: {json.dumps(report['host_clock'])}; wall time of the operations "
          f"{sum(report['operation_wall_s']):.3f} s, on the host clock "
          f"{sum(report['operation_s']):.3f} s")
    print(f"# inputs generated in {generate_s:.3f} s (untimed); {len(records)} operations "
          f"({'half of them traced' if args.trace else 'untraced'}); latency = "
          f"{wl.LATENCY}, {report['latency_samples']} untraced samples")
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    for name, f, base in failures:
        print(f"# failed_ratio ({name}) = {f}/{base} = {f / base:.6g}")
    print(f"# warnings by logger: {json.dumps(report['warnings_by_logger'])}")
    for name, digest in report["digests"].items():
        print(f"# {name} = {digest}")
    for name, value in metrics.items():
        alias = wl.ALIASES.get(name)  # the workload's own name for this metric
        shown = f"{name} ({alias})" if alias else name
        print(f"{shown} = {value:.6g} {units[name]}")
    if not args.trace:
        alias = wl.ALIASES.get("latency_p99_ms")
        print(f"# latency_p99_ms{f' ({alias})' if alias else ''} = {tail['latency_p99_ms']:.6g} ms "
              f"over {tail['samples']} samples, {tail['beyond']} beyond it (not in the result)")
    result = {
        "correct": all(checks.values()),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
