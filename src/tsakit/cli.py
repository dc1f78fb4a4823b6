"""Command-line pipeline: generate, label, train, eval, and live monitoring.

`tsa generate` sweeps a fault grid into a labeled dataset, `tsa train` fits
the model on it, `tsa eval` prints the test-split report, and `tsa monitor`
replays or ingests a voltage stream and emits one assessment line per
complete window. All commands are deterministic given identical inputs and
seeds.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import packaged_network_path
from .autodiff_nn import TASKS, ModelConfig, load_checkpoint, save_checkpoint
from .dataset import (
    GridConfig,
    StreamWindow,
    build_dataset,
    desk_grid,
    features_from_window,
    load_dataset,
    paper_grid,
    save_dataset,
    split_dataset,
    validate_grid,
    write_labels_csv,
    write_manifest,
)
from .grid_model import adjacency_from_network, load_network
from .training_eval import (
    TrainConfig,
    evaluate,
    format_report,
    report_to_csv,
    train,
    write_training_log,
)

logger = logging.getLogger(__name__)


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Config files: plain "key = value" lines
# ---------------------------------------------------------------------------


def read_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key = key.strip()
        if key in out:
            raise CliError(f"{path}:{lineno}: key {key!r} repeats")
        out[key] = value.strip()
    return out


def _tuple_of(parse):
    return lambda text: tuple(parse(x) for x in text.split(",") if x.strip())


# a config value is parsed by the annotation of the field its key names
_PARSE = {
    int: int, float: float, tuple[int, ...]: _tuple_of(int), tuple[float, ...]: _tuple_of(float),
    float | None: lambda text: None if text.lower() == "none" else float(text),
}


def _settings(overrides: dict, kind: str, *classes) -> tuple[dict, ...]:
    """The overrides parsed into one dict of field values per class. The keys
    are the classes' fields but seed (a flag) and in_dim (fixed by the data)."""
    owners = {
        name: (i, _PARSE[hint])
        for i, cls in enumerate(classes)
        for name, hint in get_type_hints(cls).items()
        if name not in ("seed", "in_dim")
    }
    out = tuple({} for _ in classes)
    for key, value in overrides.items():
        if key not in owners:
            raise CliError(f"unknown {kind} config key: {key}")
        i, parse = owners[key]
        try:
            out[i][key] = parse(value)
        except ValueError as exc:
            raise CliError(f"invalid {kind} config: {key}: {exc}") from exc
    return out


def grid_from_config(base: GridConfig, overrides: dict) -> GridConfig:
    return replace(base, **_settings(overrides, "grid", GridConfig)[0])


def train_settings_from_config(overrides: dict) -> tuple[dict, dict]:
    return _settings(overrides, "training", TrainConfig, ModelConfig)


# ---------------------------------------------------------------------------
# Monitor events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorEvent:
    """One streaming assessment: verdicts first, then their quantification.

    The value is the tanh margin head folded to [0, 1] on the side the
    classifier chose: spare margin when stable, instability degree when not.
    """

    timestamp: float
    tas_decision: str
    tas_value: float
    tvs_decision: str
    tvs_value: float
    gate_weights: dict  # task -> tuple of expert weights


def _fold_margin(stable: bool, margin_hat: float) -> float:
    value = margin_hat if stable else -margin_hat
    return min(max(value, 0.0), 1.0)


@functools.cache
def _event_template(gate_counts: tuple[int, ...]) -> str:
    """The % template of an event line with these numbers of gate weights per task."""
    gates = (f"gates_{task}=" + ",".join(["%.17g"] * n) for task, n in zip(TASKS, gate_counts))
    return "t=%.17g tas=%s tas_value=%.17g tvs=%s tvs_value=%.17g " + " ".join(gates)


def format_event(event: MonitorEvent) -> str:
    weights = [event.gate_weights[task] for task in TASKS]
    return _event_template(tuple(map(len, weights))) % (
        event.timestamp, event.tas_decision, event.tas_value,
        event.tvs_decision, event.tvs_value, *chain.from_iterable(weights),
    )


def parse_event(line: str) -> MonitorEvent:
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed event token: {token!r}")
        fields[key] = value
    try:
        gates = {
            task: tuple(float(x) for x in fields[f"gates_{task}"].split(","))
            for task in TASKS
        }
        return MonitorEvent(
            timestamp=float(fields["t"]),
            tas_decision=fields["tas"],
            tas_value=float(fields["tas_value"]),
            tvs_decision=fields["tvs"],
            tvs_value=float(fields["tvs_value"]),
            gate_weights=gates,
        )
    except KeyError as exc:
        raise ValueError(f"event has no {exc.args[0]!r} field") from None


def assess_window(model, v_mag, v_ang, slack_bus: int, adjacency, timestamp: float) -> MonitorEvent:
    """Classify one full window and quantify the margins, as an event."""
    features, _ = features_from_window(v_mag, v_ang, slack_bus)
    return _event(model, features, model.prepare_graph(adjacency), timestamp)


def _event(model, features, graph, timestamp: float) -> MonitorEvent:
    """The event of one window's float32 features on a prepared graph."""
    out = model.infer(features[None], graph)
    tas_stable, tvs_stable = (bool(v[0]) for v in out.verdicts())
    return MonitorEvent(
        timestamp=timestamp,
        tas_decision="stable" if tas_stable else "unstable",
        tas_value=_fold_margin(tas_stable, float(out.tas_margin_hat[0, 0])),
        tvs_decision="stable" if tvs_stable else "unstable",
        tvs_value=_fold_margin(tvs_stable, float(out.tvs_margin_hat[0, 0])),
        gate_weights={task: tuple(w) for task, w in zip(TASKS, out.gates[:, 0].tolist())},
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _open_input(kind: str, path: Path, reader):
    """reader(path); a path that is missing or cannot be read exits 2 naming it."""
    if not path.exists():
        raise CliError(f"{kind} file not found: {path}")
    try:
        return reader(path)
    except OSError as exc:
        raise CliError(f"cannot read {kind} file: {path}") from exc


def _network_from_args(args):
    path = Path(args.network) if args.network else Path(packaged_network_path())
    return _open_input("network", path, load_network)


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    return out


def _write_output(write, value, path: Path) -> None:
    """write(value, path); a path that cannot be written exits 2 naming it."""
    try:
        write(value, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_generate(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    network = _network_from_args(args)
    cfg = desk_grid(network) if args.grid == "desk" else paper_grid(network)
    if args.config:
        cfg = grid_from_config(cfg, read_config(args.config))
        try:
            validate_grid(cfg, network)
        except ValueError as exc:
            raise CliError(f"invalid grid config: {exc}") from exc
    if args.enumerate_only:
        print(f"scenarios: {cfg.n_scenarios}")
        return 0
    out = _out_dir(args)
    samples, manifest = build_dataset(network, cfg, seed=args.seed, jobs=args.jobs)
    if not samples:
        raise CliError("no scenario produced a sample; see the log", code=1)
    _write_output(save_dataset, samples, out / "dataset.tsd")
    _write_output(write_labels_csv, samples, out / "labels.csv")
    _write_output(write_manifest, manifest, out / "manifest.txt")
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def cmd_label(args) -> int:
    samples, _ = _open_input("dataset", Path(args.data), load_dataset)
    out = Path(args.out) if args.out else Path("labels.csv")
    if out.is_dir():
        out = out / "labels.csv"
    _write_output(write_labels_csv, samples, out)
    print(f"wrote labels for {len(samples)} samples to {out}")
    return 0


def cmd_train(args) -> int:
    samples, _ = _open_input("dataset", Path(args.data), load_dataset)
    overrides = read_config(args.config) if args.config else {}
    train_fields, model_fields = train_settings_from_config(overrides)
    if args.epochs is not None:
        train_fields["epochs"] = args.epochs
    train_cfg = TrainConfig(seed=args.seed, **train_fields)
    model_cfg = ModelConfig(in_dim=samples[0].features.shape[1], seed=args.seed, **model_fields)
    try:
        train_cfg.validate()
        model_cfg.validate()
    except ValueError as exc:
        raise CliError(f"invalid training config: {exc}") from exc
    split = split_dataset([s.joint_label for s in samples], seed=args.seed)
    out = _out_dir(args)

    rows = []
    for repeat in range(args.repeats):
        run_seed = args.seed + repeat
        result = train(
            samples, split, replace(train_cfg, seed=run_seed), replace(model_cfg, seed=run_seed)
        )
        suffix = "" if args.repeats == 1 else f"_seed{run_seed}"
        _write_output(save_checkpoint, result.model, out / f"checkpoint{suffix}.tsm")
        if result.log_rows:  # a run aborted in its first epoch logged none
            _write_output(write_training_log, result.log_rows, out / f"training_log{suffix}.csv")
        report = evaluate(result.model, samples, split.test_ids)
        rows.append(
            {
                "val_joint": result.best_val_joint,
                "tas_acc": report.tas.accuracy,
                "tvs_acc": report.tvs.accuracy,
                "tas_mse": report.tas_mse,
                "tvs_mse": report.tvs_mse,
                "aborted": result.aborted,
            }
        )
        val_joint = "n/a" if result.best_val_joint is None else f"{result.best_val_joint:.4f}"
        state = "aborted" if result.aborted else (
            "early stop" if result.stopped_early else "epoch cap"
        )
        print(
            f"seed {run_seed}: {state} after {len(result.log_rows)} epochs, "
            f"val joint {val_joint}, kept epoch {result.best_epoch}, test acc "
            f"tas {report.tas.accuracy:.4f} tvs {report.tvs.accuracy:.4f}, "
            f"test mse tas {report.tas_mse:.5f} tvs {report.tvs_mse:.5f}"
        )
    if args.repeats > 1:
        for key in ("val_joint", "tas_acc", "tvs_acc", "tas_mse", "tvs_mse"):
            # a run aborted before validating an epoch has no val_joint
            vals = np.array([r[key] for r in rows if r[key] is not None])
            summary = f"{vals.mean():.5f} +/- {vals.std():.5f}" if vals.size else "n/a"
            print(f"aggregate {key}: {summary}")
    return 1 if any(r["aborted"] for r in rows) else 0


def cmd_eval(args) -> int:
    samples, _ = _open_input("dataset", Path(args.data), load_dataset)
    model = _open_input("checkpoint", Path(args.checkpoint), load_checkpoint)
    in_dim = samples[0].features.shape[1]
    if model.config.in_dim != in_dim:
        raise CliError(
            f"checkpoint expects {model.config.in_dim} features per node, "
            f"dataset has {in_dim}"
        )
    split = split_dataset([s.joint_label for s in samples], seed=args.seed)
    ids = split.test_ids if args.split == "test" else (
        split.train_ids if args.split == "train" else split.val_ids
    )
    report = evaluate(model, samples, ids)
    print(format_report(report))
    if args.report_csv:
        _write_output(report_to_csv, report, Path(args.report_csv))
    return 0


def cmd_monitor(args) -> int:
    model = _open_input("checkpoint", Path(args.checkpoint), load_checkpoint)
    if model.config.in_dim % 2:
        raise CliError("checkpoint input dim is odd; not a voltage-window model")
    window_steps = model.config.in_dim // 2
    network = _network_from_args(args)
    n_bus = network.n_bus
    graph = model.prepare_graph(adjacency_from_network(network))

    if args.stream and args.stream != "-":
        stream = _open_input("stream", Path(args.stream), Path.open)
    else:
        stream = sys.stdin

    window = StreamWindow(n_bus, window_steps, network.slack_bus)
    width = 1 + 2 * n_bus
    n_rows = repaired = emitted = topologies = 0
    last_time = -math.inf
    skipped = Counter()
    try:
        for lineno, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("topology,"):
                parts = text.split(",")
                if len(parts) != 3 or parts[1] != "remove_line":
                    logger.warning("line %d: unrecognized topology record", lineno)
                    skipped["topology"] += 1
                    continue
                try:
                    # int() also reads forms no stream writer produces: 1_3, non-ASCII digits
                    if not (parts[2].isascii() and parts[2].isdigit()):
                        raise ValueError(f"line index {parts[2]!r} is not a decimal number")
                    index = int(parts[2])
                    graph = model.prepare_graph(adjacency_from_network(network, without_line=index))
                except ValueError as exc:
                    logger.warning("line %d: bad topology record: %s", lineno, exc)
                    skipped["topology"] += 1
                    continue
                topologies += 1
                continue
            fields = text.split(",")
            if len(fields) != width:
                logger.warning(
                    "line %d: expected %d fields, got %d; skipped",
                    lineno, width, len(fields),
                )
                skipped["fields"] += 1
                continue
            values = None
            # float() also reads forms no CSV writer produces: 1_0, non-ASCII digits
            if text.isascii() and "_" not in text:
                try:
                    values = np.array(fields, dtype=float)
                except ValueError:
                    pass
            if values is None or not math.isfinite(values[0]):
                logger.warning("line %d: non-numeric field or non-finite time; skipped", lineno)
                skipped["non_numeric"] += 1
                continue
            t = float(values[0])
            if t <= last_time:
                logger.warning(
                    "line %d: time %s is not after the previous row's time; skipped", lineno, t,
                )
                skipped["out_of_order"] += 1
                continue
            last_time = t
            repaired += window.push(values[1 : 1 + n_bus], values[1 + n_bus :])
            n_rows += 1
            if window.full:
                features, _ = window.features()
                event = _event(model, features, graph, t)
                print(format_event(event), flush=True)
                emitted += 1
    finally:
        if stream is not sys.stdin:
            stream.close()
    logger.info(
        "stream ended: %d valid rows (%d repaired), %d events, %d topology records applied; "
        "lines skipped: %d fields, %d non-numeric, %d topology, %d out of order",
        n_rows, repaired, emitted, topologies,
        skipped["fields"], skipped["non_numeric"], skipped["topology"], skipped["out_of_order"],
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsa",
        description="Transient stability assessment: simulate, label, learn, monitor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate a fault grid into a dataset")
    gen.add_argument("--grid", choices=("desk", "paper"), default="desk")
    gen.add_argument("--network", help="TSANET file (defaults to the bundled 39-bus system)")
    gen.add_argument("--config", help="key = value grid overrides")
    gen.add_argument("--out", help="output directory (default: current)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--jobs", type=int,
        help="worker processes labelling fault contexts (default: every available CPU); "
        "the output does not depend on it",
    )
    gen.add_argument(
        "--enumerate-only", action="store_true",
        help="print the scenario count and exit without simulating",
    )
    gen.set_defaults(func=cmd_generate)

    lab = sub.add_parser("label", help="rewrite the labels CSV from a dataset file")
    lab.add_argument("--data", required=True, help="dataset .tsd file")
    lab.add_argument("--out", help="labels CSV path (default labels.csv)")
    lab.set_defaults(func=cmd_label)

    tr = sub.add_parser("train", help="fit the model on a dataset")
    tr.add_argument("--data", required=True, help="dataset .tsd file")
    tr.add_argument("--config", help="key = value training overrides")
    tr.add_argument("--out", help="output directory (default: current)")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--repeats", type=int, default=1, help="train this many seeds")
    tr.add_argument("--epochs", type=int, help="override the epoch cap")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="report metrics for a checkpoint on a dataset split")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--seed", type=int, default=0, help="split seed used in training")
    ev.add_argument("--split", choices=("test", "val", "train"), default="test")
    ev.add_argument("--report-csv", help="also write the report as CSV")
    ev.set_defaults(func=cmd_eval)

    mon = sub.add_parser("monitor", help="assess a live or replayed voltage stream")
    mon.add_argument("--checkpoint", required=True)
    mon.add_argument("--network", help="TSANET file (defaults to the bundled 39-bus system)")
    mon.add_argument(
        "--stream", help="stream file; omit or '-' for standard input",
    )
    mon.set_defaults(func=cmd_monitor)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "repeats", 1) < 1:
        print("error: --repeats must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
