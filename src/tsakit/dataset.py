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
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .grid_model import FaultSpec, Network, adjacency_from_network, format_network
from .labeling import (
    CctSearchConfig,
    cached_traces,
    coarse_grid,
    find_cct_simulated,
    margin,
    tsi,
    tvs,
)
from .tds import PowerFlowError, Scenario, clearing_time_s, solve_equilibrium

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
        if cyc <= 0.0:
            raise ValueError(f"clearing time {cyc} cycles must be positive")
    if cfg.window_steps <= 0:
        raise ValueError("window must have at least one step")
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
                    out.append(
                        Scenario(
                            fault=FaultSpec(line, loc),
                            motor_fraction=frac,
                            clearing_cycles=cyc,
                            fault_start_s=cfg.fault_start_s,
                            duration_s=cfg.duration_s,
                            step_s=cfg.step_s,
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


def features_from_window(v_mag, v_ang, slack_bus: int):
    """Per-node feature matrix from a (steps, n_bus) voltage window.

    Row v holds the magnitude series then the slack-relative unwrapped angle
    series, float32 (n_bus, 2 steps). Magnitudes outside [0, 2] pu and
    non-finite values are clamped and reported via the returned flag. The
    online monitor feeds live windows through this same path, so a replayed
    trace reproduces offline features bit for bit.
    """
    mags = np.array(v_mag, dtype=float)
    angs = np.array(v_ang, dtype=float)
    if mags.shape != angs.shape or mags.ndim != 2:
        raise ValueError("magnitude and angle windows must share (steps, n_bus)")
    if not 0 <= slack_bus < mags.shape[1]:
        raise ValueError("slack bus outside the window columns")
    clamped = False
    for arr in (mags, angs):
        bad = ~np.isfinite(arr)
        if bad.any():
            arr[bad] = 0.0
            clamped = True
    if (mags < 0.0).any() or (mags > 2.0).any():
        mags = np.clip(mags, 0.0, 2.0)
        clamped = True
    rel = angs - angs[:, [slack_bus]]
    rel = np.angle(np.exp(1j * rel))  # wrap once, then make continuous in time
    rel = np.unwrap(rel, axis=0)
    features = np.concatenate([mags.T, rel.T], axis=1).astype(np.float32)
    return features, clamped


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


def build_dataset(network: Network, cfg: GridConfig, seed: int = 0):
    """Simulate and label the whole grid. Returns (samples, manifest dict).

    The critical clearing times are found once per fault context (line,
    location, motor share) and shared by every clearing time on that context.
    All traces of a context go through one cache, so grid clearing times that
    coincide with probe points are not simulated twice. The coarse scan and
    the grid clearing times are simulated first, as one lockstep batch.
    """
    validate_grid(cfg, network)
    scenarios = enumerate_scenarios(cfg)
    window_start = int(round(cfg.fault_start_s / cfg.step_s))
    cct_cfg = CctSearchConfig.from_cycles(network.nominal_hz)

    timing = {"fault_start_s": cfg.fault_start_s, "duration_s": cfg.duration_s,
              "step_s": cfg.step_s}
    equilibria: dict = {}
    context = None  # (key, angle CCT, voltage CCT, trace cache) of the current context
    samples: list[Sample] = []
    failed: list[int] = []
    class_counts: dict = {}
    flag_totals = {name: 0 for name in (
        "tas_cct_above", "tas_cct_below", "tvs_cct_above", "tvs_cct_below",
        "diverged", "clamped",
    )}

    for sid, sc in enumerate(scenarios):
        frac = sc.motor_fraction
        if frac not in equilibria:
            net_f = network.with_motor_fraction(frac)
            try:
                equilibria[frac] = (net_f, solve_equilibrium(net_f))
            except PowerFlowError as exc:
                logger.warning("equilibrium failed for motor share %s: %s", frac, exc)
                equilibria[frac] = None
        if equilibria[frac] is None:
            failed.append(sid)
            continue
        net_f, eq = equilibria[frac]

        ckey = (sc.fault.line_index, sc.fault.location_fraction, frac)
        if context is None or context[0] != ckey:
            # enumerate_scenarios keeps a context's scenarios adjacent: drop the
            # previous context's traces before this one's are simulated
            context = trace = None
            cache: dict = {}
            grid_s = [
                clearing_time_s(replace(sc, clearing_cycles=cyc), network.nominal_hz)
                for cyc in cfg.clearing_cycles
            ]
            cached_traces(cache, net_f, eq, sc.fault, coarse_grid(cct_cfg) + grid_s, **timing)
            cct_a = find_cct_simulated(
                net_f, eq, sc.fault, "angle", cfg=cct_cfg, trace_cache=cache, **timing
            )
            cct_v = find_cct_simulated(
                net_f, eq, sc.fault, "voltage", cfg=cct_cfg, trace_cache=cache, **timing
            )
            context = (ckey, cct_a, cct_v, cache)
        _, cct_a, cct_v, cache = context

        clear_s = clearing_time_s(sc, network.nominal_hz)
        trace = cached_traces(cache, net_f, eq, sc.fault, [clear_s], **timing)[0]
        angle_res = tsi(trace)
        volt_res = tvs(trace)
        features, clamped = extract_features(trace, window_start, cfg.window_steps)
        adjacency = adjacency_from_network(network, without_line=sc.fault.line_index)

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

        flags = 0
        if cct_a.above_bracket:
            flags |= FLAG_TAS_CCT_ABOVE
            flag_totals["tas_cct_above"] += 1
        if cct_a.below_bracket:
            flags |= FLAG_TAS_CCT_BELOW
            flag_totals["tas_cct_below"] += 1
        if cct_v.above_bracket:
            flags |= FLAG_TVS_CCT_ABOVE
            flag_totals["tvs_cct_above"] += 1
        if cct_v.below_bracket:
            flags |= FLAG_TVS_CCT_BELOW
            flag_totals["tvs_cct_below"] += 1
        if cct_a.nonmonotone:
            flags |= FLAG_TAS_NONMONOTONE
        if cct_v.nonmonotone:
            flags |= FLAG_TVS_NONMONOTONE
        if trace.diverged:
            flags |= FLAG_DIVERGED
            flag_totals["diverged"] += 1
        if clamped:
            flags |= FLAG_CLAMPED
            flag_totals["clamped"] += 1

        samples.append(
            Sample(
                scenario_id=sid,
                tas_stable=angle_res.stable,
                tvs_stable=volt_res.stable,
                tas_signed=m_a.signed,
                tvs_signed=m_v.signed,
                tsi_deg=angle_res.tsi_deg,
                v_min_pu=volt_res.v_min_pu,
                tas_cct_s=cct_a.t_cct_s,
                tvs_cct_s=cct_v.t_cct_s,
                flags=flags,
                adjacency=adjacency,
                features=features,
            )
        )
        key = (angle_res.stable, volt_res.stable)
        class_counts[key] = class_counts.get(key, 0) + 1
        if (sid + 1) % 50 == 0 or sid + 1 == len(scenarios):
            logger.info("labeled %d / %d scenarios", sid + 1, len(scenarios))

    digest = hashlib.sha256()
    digest.update(format_network(network).encode())
    digest.update(repr((cfg.lines, cfg.location_fractions, cfg.motor_fractions,
                        cfg.clearing_cycles, cfg.window_steps, cfg.fault_start_s,
                        cfg.duration_s, cfg.step_s)).encode())
    manifest = {
        "format": "TSD1",
        "label_schema": _LABEL_SCHEMA,
        "seed": seed,
        "config_digest": digest.hexdigest(),
        "n_bus": network.n_bus,
        "window_steps": cfg.window_steps,
        "window_start": window_start,
        "fault_start_s": repr(cfg.fault_start_s),
        "duration_s": repr(cfg.duration_s),
        "step_s": repr(cfg.step_s),
        "lines": ",".join(str(i) for i in cfg.lines),
        "location_fractions": ",".join(repr(x) for x in cfg.location_fractions),
        "motor_fractions": ",".join(repr(x) for x in cfg.motor_fractions),
        "clearing_cycles": ",".join(repr(x) for x in cfg.clearing_cycles),
        "n_scenarios": len(scenarios),
        "n_samples": len(samples),
        "n_failed": len(failed),
        "failed_ids": ",".join(str(i) for i in failed),
        "count_stable_stable": class_counts.get((True, True), 0),
        "count_stable_unstable": class_counts.get((True, False), 0),
        "count_unstable_stable": class_counts.get((False, True), 0),
        "count_unstable_unstable": class_counts.get((False, False), 0),
    }
    for name, count in flag_totals.items():
        manifest[f"count_{name}"] = count
    return samples, manifest


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
    version, n_samples, n_bus, window, schema = struct.unpack_from("<IIIII", raw, 4)
    if version != _DATASET_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    if schema != _LABEL_SCHEMA:
        raise ValueError(f"{path}: unsupported label schema {schema}")
    off = 24
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
