"""Scenario grids, feature extraction, stratified splits, and dataset files.

A dataset is built by sweeping a grid of fault scenarios, simulating each
one, labeling the trace with both stability criteria and both margins, and
windowing the bus voltages around fault inception into per-node features.
Files are little-endian float32 records behind a small header, accompanied
by a plain-text manifest; rebuilding with the same configuration reproduces
both byte for byte.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .grid_model import FaultSpec, Network, adjacency_from_network, format_network
from .labeling import (
    CctResult,
    find_ccts,
    margin,
    tsi,
    tvs,
)
from .tds import (
    EquilibriumState,
    PowerFlowError,
    Scenario,
    Trace,
    clearing_time_s,
    solve_equilibrium,
)

logger = logging.getLogger(__name__)

# saturation / quality flags carried per sample
FLAG_TAS_CCT_ABOVE = 1  # angle boundary above the search bracket
FLAG_TAS_CCT_BELOW = 2  # angle boundary below the search bracket
FLAG_TVS_CCT_ABOVE = 4
FLAG_TVS_CCT_BELOW = 8
FLAG_DIVERGED = 16  # the simulation at the scenario clearing time diverged
FLAG_CLAMPED = 32  # feature values were clamped or replaced
FLAG_TAS_NONMONOTONE = 64  # angle verdict not monotone over the bracket
FLAG_TVS_NONMONOTONE = 128

_DATASET_MAGIC = b"TSD1"
_DATASET_VERSION = 1
_LABEL_SCHEMA = 1
_LABEL_FIELDS = 10


@dataclass(frozen=True)
class GridConfig:
    """Cartesian scenario grid over fault position, load mix, and clearing time."""

    lines: tuple[int, ...]
    location_fractions: tuple[float, ...]
    motor_fractions: tuple[float, ...]
    clearing_cycles: tuple[float, ...]
    window_steps: int = 20
    fault_start_s: float = 1.0
    duration_s: float = 10.0
    step_s: float = 0.01

    @property
    def n_scenarios(self) -> int:
        return (
            len(self.lines)
            * len(self.location_fractions)
            * len(self.motor_fractions)
            * len(self.clearing_cycles)
        )


def validate_grid(cfg: GridConfig, network: Network) -> None:
    eligible = set(network.fault_eligible_lines())
    for idx in cfg.lines:
        if idx not in eligible:
            raise ValueError(f"line {idx} is not fault eligible")
    for loc in cfg.location_fractions:
        if not 0.0 < loc < 1.0:
            raise ValueError(f"fault location {loc} outside (0, 1)")
    for frac in cfg.motor_fractions:
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"motor fraction {frac} outside [0, 1]")
    for cyc in cfg.clearing_cycles:
        if not cyc > 0.0:
            raise ValueError(f"clearing time {cyc} cycles must be positive")
    if cfg.window_steps <= 0:
        raise ValueError("window must have at least one step")
    if not (cfg.step_s > 0.0 and cfg.duration_s > 0.0):
        raise ValueError("step_s and duration_s must be positive")
    if not 0.0 <= cfg.fault_start_s < cfg.duration_s:
        raise ValueError(f"fault start {cfg.fault_start_s} s outside [0, duration_s)")
    n_steps = int(round(cfg.duration_s / cfg.step_s)) + 1
    start = int(round(cfg.fault_start_s / cfg.step_s))
    if start + cfg.window_steps > n_steps:
        raise ValueError("feature window does not fit inside the simulation")


def desk_grid(network: Network) -> GridConfig:
    """Small grid for development and acceptance runs: 90 scenarios.

    Two of the six lines stay stable across the whole clearing range, the
    other four cross their stability boundary inside it, so every clearing
    time contributes both classes and a spread of margins.
    """
    cfg = GridConfig(
        lines=(1, 5, 13, 14, 20, 29),
        location_fractions=(0.1, 0.5, 0.9),
        motor_fractions=(0.6,),
        clearing_cycles=(3.0, 5.0, 7.0, 9.0, 11.0),
    )
    validate_grid(cfg, network)
    return cfg


def paper_grid(network: Network) -> GridConfig:
    """Full study grid: every eligible line, 4590 scenarios."""
    cfg = GridConfig(
        lines=tuple(network.fault_eligible_lines()),
        location_fractions=(0.1, 0.3, 0.5, 0.7, 0.9),
        motor_fractions=(0.5, 0.6, 0.7),
        clearing_cycles=tuple(float(c) for c in range(3, 12)),
    )
    validate_grid(cfg, network)
    return cfg


def enumerate_scenarios(cfg: GridConfig) -> list[Scenario]:
    """Expand the grid in deterministic nested order; index = scenario id."""
    out = []
    for line in cfg.lines:
        for loc in cfg.location_fractions:
            for frac in cfg.motor_fractions:
                for cyc in cfg.clearing_cycles:
                    out.append(Scenario(FaultSpec(line, loc), frac, cyc))
    return out


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


class StreamWindow:
    """The newest `steps` rows of a voltage stream, each prepared once.

    `push` prepares one row when it arrives: non-finite values become 0,
    magnitudes are clamped to [0, 2] pu, and the angles are taken relative
    to the slack bus and wrapped to [-pi, pi]. It also keeps the row's
    unwrap correction against the previous row: unwrapping along time is a
    cumulative sum of per-step corrections, and each one depends only on two
    consecutive rows. `features` then assembles the window with one
    cumulative sum, the window's first row uncorrected, which is exactly
    what numpy's `unwrap` along the time axis computes on the window.
    """

    def __init__(self, n_bus: int, steps: int, slack_bus: int):
        if steps <= 0:
            raise ValueError("window must have at least one step")
        if not 0 <= slack_bus < n_bus:
            raise ValueError("slack bus outside the window columns")
        self.n_bus, self.steps, self.slack_bus = n_bus, steps, slack_bus
        # each row is written at slot k % steps and k % steps + steps, so the
        # newest `steps` rows are always one contiguous slice
        self._mag = np.empty((2 * steps, n_bus))
        self._rel = np.empty((2 * steps, n_bus))
        self._corr = np.empty((2 * steps, n_bus))
        self._prev_rel = None
        self._count = 0
        self._last_clamped = -1  # index of the newest row with a value replaced or clamped

    @property
    def full(self) -> bool:
        return self._count >= self.steps

    def push(self, v_mag_row, v_ang_row) -> None:
        """Prepare one (n_bus,) row of magnitudes and angles and make it the newest."""
        mag = np.array(v_mag_row, dtype=float)
        ang = np.array(v_ang_row, dtype=float)
        if mag.shape != (self.n_bus,) or ang.shape != (self.n_bus,):
            raise ValueError(f"a stream row needs {self.n_bus} magnitudes and angles")
        clamped = False
        for arr in (mag, ang):
            bad = ~np.isfinite(arr)
            if bad.any():
                arr[bad] = 0.0
                clamped = True
        if (mag < 0.0).any() or (mag > 2.0).any():
            mag = np.clip(mag, 0.0, 2.0)
            clamped = True
        rel = np.angle(np.exp(1j * (ang - ang[self.slack_bus])))
        corr = np.zeros(self.n_bus)
        if self._prev_rel is not None:
            # numpy's unwrap step with period 2 pi, boundary fix-up included;
            # every correction is 0 unless some step reaches pi
            dd = rel - self._prev_rel
            if (np.abs(dd) >= np.pi).any():
                ddmod = np.mod(dd + np.pi, 2.0 * np.pi) - np.pi
                np.copyto(ddmod, np.pi, where=(ddmod == -np.pi) & (dd > 0))
                corr = ddmod - dd
                np.copyto(corr, 0, where=np.abs(dd) < np.pi)
        slot = self._count % self.steps
        for ring, row in ((self._mag, mag), (self._rel, rel), (self._corr, corr)):
            ring[slot] = row
            ring[slot + self.steps] = row
        if clamped:
            self._last_clamped = self._count
        self._prev_rel = rel
        self._count += 1

    def features(self):
        """(features, clamped) of the newest full window; see features_from_window."""
        if not self.full:
            raise ValueError(f"the window holds {self._count} of {self.steps} rows")
        w = self.steps
        start = self._count % w
        rel = self._rel[start : start + w]
        out = np.empty((self.n_bus, 2 * w), dtype=np.float32)
        out[:, :w] = self._mag[start : start + w].T
        out[:, w] = rel[0]
        out[:, w + 1 :] = (rel[1:] + self._corr[start + 1 : start + w].cumsum(0)).T
        return out, self._last_clamped >= self._count - w


def features_from_window(v_mag, v_ang, slack_bus: int):
    """Per-node feature matrix from a (steps, n_bus) voltage window.

    Row v holds the magnitude series then the slack-relative unwrapped angle
    series, float32 (n_bus, 2 steps). Magnitudes outside [0, 2] pu and
    non-finite values are clamped and reported via the returned flag. The
    rows go through a `StreamWindow`, the online monitor's path, so a
    replayed trace reproduces offline features bit for bit.
    """
    mags = np.asarray(v_mag, dtype=float)
    angs = np.asarray(v_ang, dtype=float)
    if mags.shape != angs.shape or mags.ndim != 2:
        raise ValueError("magnitude and angle windows must share (steps, n_bus)")
    window = StreamWindow(mags.shape[1], mags.shape[0], slack_bus)
    for mag_row, ang_row in zip(mags, angs):
        window.push(mag_row, ang_row)
    return window.features()


def extract_features(trace, window_start: int, window_steps: int):
    """Feature matrix for a window of a simulated trace; see features_from_window."""
    if window_steps <= 0:
        raise ValueError("window must have at least one step")
    if window_start < 0 or window_start + window_steps > trace.n_steps:
        raise ValueError("feature window lies outside the trace")
    sl = slice(window_start, window_start + window_steps)
    return features_from_window(trace.bus_v_mag[sl], trace.bus_v_ang[sl], trace.slack_bus)


# ---------------------------------------------------------------------------
# Samples and splits
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    scenario_id: int
    tas_stable: bool
    tvs_stable: bool
    tas_signed: float  # margin if stable side, minus degree otherwise
    tvs_signed: float
    tsi_deg: float
    v_min_pu: float
    tas_cct_s: float
    tvs_cct_s: float
    flags: int
    adjacency: np.ndarray  # (n, n) int8, post-fault topology
    features: np.ndarray  # (n, 2 T) float32

    @property
    def joint_label(self) -> tuple[bool, bool]:
        return (self.tas_stable, self.tvs_stable)


@dataclass(frozen=True)
class DatasetSplit:
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray
    seed: int


def split_dataset(joint_labels, seed: int, ratios=(0.7, 0.1, 0.2)) -> DatasetSplit:
    """Stratified split by joint class label with exact global sizes.

    Global sizes are fixed first (rounded train and validation shares, the
    remainder tests). Per-stratum quotas start from the proportional ideal,
    rounded so each stratum is fully assigned, then single samples are moved
    between splits of the most over-represented strata until the global sizes
    are met; every stratum ends within one sample of its proportional share.
    Strata smaller than 3 are pooled together first.
    """
    n = len(joint_labels)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    if len(ratios) != 3 or any(r < 0.0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be three nonnegative values summing to 1")
    targets = [int(round(n * ratios[0])), int(round(n * ratios[1]))]
    targets.append(n - targets[0] - targets[1])
    if targets[2] < 0:
        raise ValueError("rounded split sizes exceed the dataset")

    by_label: dict = {}
    for i, lab in enumerate(joint_labels):
        by_label.setdefault(tuple(lab), []).append(i)
    small = [k for k, ids in by_label.items() if len(ids) < 3]
    if small:
        pooled = []
        for k in small:
            pooled.extend(by_label.pop(k))
        logger.info(
            "pooling %d strata with fewer than 3 samples (%d samples total)",
            len(small), len(pooled),
        )
        by_label["pooled"] = pooled
    keys = sorted(by_label.keys(), key=repr)
    strata = [sorted(by_label[k]) for k in keys]

    ideal = np.array(
        [[len(s) * t / n for t in targets] for s in strata], dtype=float
    )
    alloc = np.floor(ideal).astype(int)
    for s_i, s in enumerate(strata):
        short = len(s) - int(alloc[s_i].sum())
        order = np.argsort(-(ideal[s_i] - alloc[s_i]), kind="stable")
        for k in order[:short]:
            alloc[s_i, k] += 1
    for _ in range(n):  # bounded repair loop
        col = alloc.sum(axis=0)
        over = [k for k in range(3) if col[k] > targets[k]]
        under = [k for k in range(3) if col[k] < targets[k]]
        if not over:
            break
        k_from, k_to = over[0], under[0]
        scores = (alloc[:, k_from] - ideal[:, k_from]) - (
            alloc[:, k_to] - ideal[:, k_to]
        )
        scores[alloc[:, k_from] == 0] = -np.inf
        s_i = int(np.argmax(scores))
        alloc[s_i, k_from] -= 1
        alloc[s_i, k_to] += 1

    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for s_i, ids in enumerate(strata):
        perm = rng.permutation(len(ids))
        shuffled = [ids[j] for j in perm]
        a, b = alloc[s_i, 0], alloc[s_i, 0] + alloc[s_i, 1]
        parts[0].extend(shuffled[:a])
        parts[1].extend(shuffled[a:b])
        parts[2].extend(shuffled[b:])
    return DatasetSplit(
        train_ids=np.array(sorted(parts[0]), dtype=int),
        val_ids=np.array(sorted(parts[1]), dtype=int),
        test_ids=np.array(sorted(parts[2]), dtype=int),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Dataset build
# ---------------------------------------------------------------------------


# manifest count_<name> of each per-sample flag, in manifest order
_FLAG_COUNTS = (
    ("tas_cct_above", FLAG_TAS_CCT_ABOVE),
    ("tas_cct_below", FLAG_TAS_CCT_BELOW),
    ("tvs_cct_above", FLAG_TVS_CCT_ABOVE),
    ("tvs_cct_below", FLAG_TVS_CCT_BELOW),
    ("diverged", FLAG_DIVERGED),
    ("clamped", FLAG_CLAMPED),
    ("tas_nonmonotone", FLAG_TAS_NONMONOTONE),
    ("tvs_nonmonotone", FLAG_TVS_NONMONOTONE),
)


@dataclass
class ContextLabels:
    """What label_context returns for one fault context."""

    samples: list[Sample]
    records: list[logging.LogRecord]  # what the labelling logged, in order


class _RecordList(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@contextmanager
def _captured_logs():
    """Collect the records of the tsakit loggers instead of emitting them.

    The package logger is opened to every level meanwhile, so a worker whose
    logging was never configured still records everything; the parent drops
    what its own levels would not have emitted when it replays the records.
    """
    pkg = logging.getLogger("tsakit")
    capture = _RecordList()
    saved = pkg.handlers, pkg.propagate, pkg.level
    pkg.handlers, pkg.propagate = [capture], False
    pkg.setLevel(logging.DEBUG)
    try:
        yield capture.records
    finally:
        pkg.handlers, pkg.propagate = saved[:2]
        pkg.setLevel(saved[2])


def _replay(records: list[logging.LogRecord]) -> None:
    for rec in records:
        log = logging.getLogger(rec.name)
        if log.isEnabledFor(rec.levelno):
            log.handle(rec)


def label_context(
    network: Network,
    eq: EquilibriumState,
    fault: FaultSpec,
    cfg: GridConfig,
    scenarios: list[tuple[int, Scenario]],
) -> ContextLabels:
    """Simulate and label one fault context (line, location and motor share).

    network carries the context's motor share and eq is its equilibrium;
    scenarios are the context's (scenario id, Scenario) pairs, which differ
    only in clearing time. The critical clearing times are searched once
    (labeling.find_ccts) and shared by every scenario. The context takes two
    lockstep batches, and no clearing instant is simulated twice: the coarse
    scan with the grid clearing times, then every probe either bisection can
    make. assemble_samples turns the grid's traces into samples, which hold
    every flag and verdict the manifest counts. The records the labelling
    logs are returned instead of emitted, so a worker can hand them back.
    """
    clears = [clearing_time_s(sc, network.nominal_hz) for _, sc in scenarios]
    with _captured_logs() as records:
        cct_a, cct_v, traces = find_ccts(
            network, eq, fault, clears, cfg.fault_start_s, cfg.duration_s, cfg.step_s
        )
        samples = assemble_samples(
            [sid for sid, _ in scenarios], clears, traces, cct_a, cct_v,
            adjacency_from_network(network, without_line=fault.line_index), cfg,
        )
    return ContextLabels(samples, records)


def _f32(x: float) -> float:
    """x rounded to float32, the precision save_dataset stores a label in."""
    return float(np.float32(x))


def assemble_samples(
    scenario_ids: list[int],
    clear_times: list[float],
    traces: list[Trace],
    cct_a: CctResult,
    cct_v: CctResult,
    adjacency: np.ndarray,
    cfg: GridConfig,
) -> list[Sample]:
    """The samples of one fault context.

    Scenario i cleared clear_times[i] seconds after the fault and gave
    traces[i]; cct_a and cct_v are the context's angle and voltage searches
    and adjacency its post-fault topology. Each sample takes the verdicts of
    its own trace, margins against the searched boundaries, the features of
    cfg's window, and flags for the searches' saturation and monotonicity
    plus its trace's divergence and feature clamping. A verdict that
    disagrees with its margin's side is logged at INFO. The margins are
    computed from the float64 CCTs, then every float label is rounded to
    float32, so a sample holds what save_dataset writes and load_dataset reads.
    """
    window_start = int(round(cfg.fault_start_s / cfg.step_s))
    context_flags = (
        (FLAG_TAS_CCT_ABOVE, cct_a.above_bracket),
        (FLAG_TAS_CCT_BELOW, cct_a.below_bracket),
        (FLAG_TVS_CCT_ABOVE, cct_v.above_bracket),
        (FLAG_TVS_CCT_BELOW, cct_v.below_bracket),
        (FLAG_TAS_NONMONOTONE, cct_a.nonmonotone),
        (FLAG_TVS_NONMONOTONE, cct_v.nonmonotone),
    )
    base_flags = sum(bit for bit, on in context_flags if on)

    samples: list[Sample] = []
    for sid, clear_s, trace in zip(scenario_ids, clear_times, traces):
        angle_res = tsi(trace)
        volt_res = tvs(trace)
        features, clamped = extract_features(trace, window_start, cfg.window_steps)

        m_a = margin(cct_a.t_cct_s, clear_s)
        m_v = margin(cct_v.t_cct_s, clear_s)
        if (m_a.kind == "margin") != angle_res.stable:
            logger.info(
                "scenario %d: angle verdict and boundary side disagree near the "
                "boundary (clear %.4f s, cct %.4f s)", sid, clear_s, cct_a.t_cct_s,
            )
        if (m_v.kind == "margin") != volt_res.stable:
            logger.info(
                "scenario %d: voltage verdict and boundary side disagree near the "
                "boundary (clear %.4f s, cct %.4f s)", sid, clear_s, cct_v.t_cct_s,
            )

        flags = base_flags
        if trace.diverged:
            flags |= FLAG_DIVERGED
        if clamped:
            flags |= FLAG_CLAMPED
        samples.append(
            Sample(
                scenario_id=sid,
                tas_stable=angle_res.stable,
                tvs_stable=volt_res.stable,
                tas_signed=_f32(m_a.signed),
                tvs_signed=_f32(m_v.signed),
                tsi_deg=_f32(angle_res.tsi_deg),
                v_min_pu=_f32(volt_res.v_min_pu),
                tas_cct_s=_f32(cct_a.t_cct_s),
                tvs_cct_s=_f32(cct_v.t_cct_s),
                flags=flags,
                adjacency=adjacency,
                features=features,
            )
        )
    return samples


def _available_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _label_contexts(contexts: list[tuple], workers: int):
    """label_context over argument tuples, results in order.

    Two or more workers run it in a process pool, otherwise in this process.
    """
    if not contexts:
        return
    columns = list(zip(*contexts))
    if workers < 2:
        yield from map(label_context, *columns)
        return
    from concurrent.futures import ProcessPoolExecutor  # only when a pool starts

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(label_context, *columns)


def build_dataset(network: Network, cfg: GridConfig, seed: int = 0, jobs: int | None = None):
    """Simulate and label the whole grid. Returns (samples, manifest dict).

    The grid splits into fault contexts (line, location, motor share), which
    label_context labels independently of each other. They run through an
    ordered process pool of `jobs` workers (None: every CPU this process may
    use), capped at the number of contexts; with one worker they run in this
    process through the same label_context. This function keeps the rest:
    one equilibrium per motor share, the sample order, the progress log and
    the records each context logged (replayed in context order); the
    manifest is dataset_manifest of the samples. The output does not depend
    on jobs.
    """
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be at least 1")
    validate_grid(cfg, network)
    scenarios = enumerate_scenarios(cfg)

    equilibria: dict = {}
    for frac in cfg.motor_fractions:
        if frac in equilibria:
            continue
        net_f = network.with_motor_fraction(frac)
        try:
            equilibria[frac] = (net_f, solve_equilibrium(net_f))
        except PowerFlowError as exc:
            logger.warning("equilibrium failed for motor share %s: %s", frac, exc)
            equilibria[frac] = None

    # enumerate_scenarios keeps a context's scenarios adjacent
    contexts: list[tuple] = []
    failed: list[int] = []
    for (fault, frac), group in groupby(
        enumerate(scenarios), key=lambda item: (item[1].fault, item[1].motor_fraction)
    ):
        group = list(group)
        if equilibria[frac] is None:
            failed.extend(sid for sid, _ in group)
        else:
            net_f, eq = equilibria[frac]
            contexts.append((net_f, eq, fault, cfg, group))

    samples: list[Sample] = []
    workers = min(jobs or _available_cpus(), len(contexts))
    for labels in _label_contexts(contexts, workers):
        _replay(labels.records)
        for sample in labels.samples:
            samples.append(sample)
            done = sample.scenario_id + 1
            if done % 50 == 0 or done == len(scenarios):
                logger.info("labeled %d / %d scenarios", done, len(scenarios))
    return samples, dataset_manifest(network, cfg, seed, samples, failed)


def dataset_manifest(
    network: Network, cfg: GridConfig, seed: int, samples: list[Sample], failed: list[int]
) -> dict:
    """The manifest of a dataset built from cfg: its configuration and counts.

    failed holds the ids of the scenarios that gave no sample. Every count
    is read off the samples: the joint classes, each flag of _FLAG_COUNTS,
    and per criterion the samples whose verdict disagrees with the side of
    their margin (a signed margin >= 0 is the stable side).
    """
    digest = hashlib.sha256()
    digest.update(format_network(network).encode())
    digest.update(repr((cfg.lines, cfg.location_fractions, cfg.motor_fractions,
                        cfg.clearing_cycles, cfg.window_steps, cfg.fault_start_s,
                        cfg.duration_s, cfg.step_s)).encode())
    classes = Counter(s.joint_label for s in samples)
    manifest = {
        "format": "TSD1",
        "label_schema": _LABEL_SCHEMA,
        "seed": seed,
        "config_digest": digest.hexdigest(),
        "n_bus": network.n_bus,
        "window_steps": cfg.window_steps,
        "window_start": int(round(cfg.fault_start_s / cfg.step_s)),
        "fault_start_s": repr(cfg.fault_start_s),
        "duration_s": repr(cfg.duration_s),
        "step_s": repr(cfg.step_s),
        "lines": ",".join(str(i) for i in cfg.lines),
        "location_fractions": ",".join(repr(x) for x in cfg.location_fractions),
        "motor_fractions": ",".join(repr(x) for x in cfg.motor_fractions),
        "clearing_cycles": ",".join(repr(x) for x in cfg.clearing_cycles),
        "n_scenarios": cfg.n_scenarios,
        "n_samples": len(samples),
        "n_failed": len(failed),
        "failed_ids": ",".join(str(i) for i in failed),
        "count_stable_stable": classes[(True, True)],
        "count_stable_unstable": classes[(True, False)],
        "count_unstable_stable": classes[(False, True)],
        "count_unstable_unstable": classes[(False, False)],
    }
    for name, bit in _FLAG_COUNTS:
        manifest[f"count_{name}"] = sum(bool(s.flags & bit) for s in samples)
    manifest["count_tas_disagree"] = sum((s.tas_signed >= 0.0) != s.tas_stable for s in samples)
    manifest["count_tvs_disagree"] = sum((s.tvs_signed >= 0.0) != s.tvs_stable for s in samples)
    return manifest


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_dataset(samples: list[Sample], path: str | Path) -> None:
    """TSD1 binary: header then fixed-size float32 records per sample."""
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    n_bus = samples[0].adjacency.shape[0]
    window = samples[0].features.shape[1] // 2
    head = struct.pack(
        "<4sIIIII", _DATASET_MAGIC, _DATASET_VERSION, len(samples), n_bus,
        window, _LABEL_SCHEMA,
    )
    chunks = [head]
    for s in samples:
        if s.adjacency.shape != (n_bus, n_bus) or s.features.shape != (n_bus, 2 * window):
            raise ValueError(f"sample {s.scenario_id}: inconsistent shapes")
        labels = np.array(
            [
                s.scenario_id, float(s.tas_stable), float(s.tvs_stable),
                s.tas_signed, s.tvs_signed, s.tsi_deg, s.v_min_pu,
                s.tas_cct_s, s.tvs_cct_s, float(s.flags),
            ],
            dtype="<f4",
        )
        chunks.append(labels.tobytes())
        chunks.append(np.ascontiguousarray(s.adjacency, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(s.features, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_dataset(path: str | Path):
    """Read a TSD1 file back into samples plus header metadata."""
    raw = Path(path).read_bytes()
    if raw[:4] != _DATASET_MAGIC:
        raise ValueError(f"{path}: not a TSD1 dataset file")
    off = 24
    if len(raw) < off:
        raise ValueError(f"{path}: truncated dataset header ({len(raw)} bytes, expected {off})")
    version, n_samples, n_bus, window, schema = struct.unpack_from("<IIIII", raw, 4)
    if version != _DATASET_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    if schema != _LABEL_SCHEMA:
        raise ValueError(f"{path}: unsupported label schema {schema}")
    if n_samples == 0:
        raise ValueError(f"{path}: empty dataset (no samples)")
    record = _LABEL_FIELDS + n_bus * n_bus + n_bus * 2 * window
    expect = off + 4 * record * n_samples
    if len(raw) != expect:
        raise ValueError(f"{path}: truncated dataset ({len(raw)} bytes, expected {expect})")
    samples = []
    for _ in range(n_samples):
        vals = np.frombuffer(raw, dtype="<f4", count=record, offset=off)
        off += 4 * record
        lab = vals[:_LABEL_FIELDS]
        adj = vals[_LABEL_FIELDS : _LABEL_FIELDS + n_bus * n_bus]
        feat = vals[_LABEL_FIELDS + n_bus * n_bus :]
        samples.append(
            Sample(
                scenario_id=int(lab[0]),
                tas_stable=bool(lab[1]),
                tvs_stable=bool(lab[2]),
                tas_signed=float(lab[3]),
                tvs_signed=float(lab[4]),
                tsi_deg=float(lab[5]),
                v_min_pu=float(lab[6]),
                tas_cct_s=float(lab[7]),
                tvs_cct_s=float(lab[8]),
                flags=int(lab[9]),
                adjacency=adj.reshape(n_bus, n_bus).astype(np.int8),
                features=feat.reshape(n_bus, 2 * window).copy(),
            )
        )
    meta = {"n_samples": n_samples, "n_bus": n_bus, "window_steps": window}
    return samples, meta


def write_manifest(manifest: dict, path: str | Path) -> None:
    """key = value text, one per line, in insertion order. No timestamps, so
    rebuilding an identical dataset rewrites an identical manifest."""
    lines = [f"{k} = {v}" for k, v in manifest.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


_CSV_COLUMNS = (
    "scenario_id,tas_stable,tvs_stable,tsi_deg,v_min_pu,tas_cct_s,tvs_cct_s,"
    "tas_margin_or_degree,tvs_margin_or_degree,saturation_flags"
)


def write_labels_csv(samples: list[Sample], path: str | Path) -> None:
    rows = [_CSV_COLUMNS]
    for s in samples:
        rows.append(
            f"{s.scenario_id},{int(s.tas_stable)},{int(s.tvs_stable)},"
            f"{s.tsi_deg:.10g},{s.v_min_pu:.10g},{s.tas_cct_s:.10g},"
            f"{s.tvs_cct_s:.10g},{s.tas_signed:.10g},{s.tvs_signed:.10g},{s.flags}"
        )
    Path(path).write_text("\n".join(rows) + "\n")
