"""Stability labeling: angle and voltage criteria, critical clearing times, margins.

Two ground-truth verdicts are extracted from every simulated trace. Angle
stability uses the transient stability index, the largest rotor-angle spread
over the run; 180 degrees or more means loss of synchronism. Voltage
stability requires every load bus to recover above a threshold within a
bounded time after the fault clears.

The critical clearing time for either criterion is located by a coarse scan
over the clearing-time bracket followed by bisection down to a fraction of a
cycle. Severity labels are normalized margins relative to that boundary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .grid_model import FaultSpec, Network
from .tds import (
    EquilibriumState,
    Trace,
    clearing_instant,
    run_simulation,
    run_simulations,
)

logger = logging.getLogger(__name__)

TSI_THRESHOLD_DEG = 180.0
V_THRESHOLD_PU = 0.8
RECOVERY_WINDOW_S = 10.0


@dataclass(frozen=True)
class AngleStabilityResult:
    stable: bool
    tsi_deg: float  # largest rotor-angle spread over the trace, degrees


@dataclass(frozen=True)
class VoltageStabilityResult:
    stable: bool
    v_min_pu: float  # lowest load-bus voltage after clearing
    violation_duration_s: float  # longest contiguous below-threshold excursion


def tsi(trace: Trace) -> AngleStabilityResult:
    """Angle criterion: spread of rotor angles must stay below 180 degrees.

    The spread at each step is max minus min over machines, so the index is
    invariant to any common reference shift. Diverged runs are unstable.
    """
    if trace.rotor_angles.shape[1] < 2:
        raise ValueError("angle spread needs at least two machines")
    spread = trace.rotor_angles.max(axis=1) - trace.rotor_angles.min(axis=1)
    tsi_deg = float(np.degrees(spread.max()))
    stable = tsi_deg < TSI_THRESHOLD_DEG and not trace.diverged
    return AngleStabilityResult(stable=stable, tsi_deg=tsi_deg)


def tvs(
    trace: Trace,
    v_threshold: float = V_THRESHOLD_PU,
    recovery_window_s: float = RECOVERY_WINDOW_S,
) -> VoltageStabilityResult:
    """Voltage criterion: every load bus back above the threshold in time.

    Evaluated from the clearing instant (trace start when nothing was
    cleared). A sample exactly at the threshold has not recovered; recovery
    requires strictly greater voltage. An excursion still running at the end
    of the trace counts as a violation, as does an excursion at least as long
    as the recovery window. Diverged runs are unstable.

    When the trace after the clearing instant is shorter than the recovery
    window, no excursion can last the window, so the verdict reduces to: not
    diverged and every load bus strictly above the threshold at the last
    sample. That holds for the desk and paper grids and every clearing time
    their CCT searches probe: with 10 s traces, a fault at 1 s and clearing
    after at least one cycle, at most 8.98 s follow the clearing, against a
    10 s window.
    """
    if v_threshold < 0.0:
        raise ValueError("voltage threshold must be nonnegative")
    if recovery_window_s <= 0.0:
        raise ValueError("recovery window must be positive")
    t0 = trace.clear_time_s if trace.clear_time_s is not None else 0.0
    start = int(np.searchsorted(trace.times, t0, side="left"))
    if start >= trace.n_steps:
        raise ValueError("trace ends before the clearing instant")
    if trace.load_buses.size == 0:
        raise ValueError("trace has no load buses to evaluate")
    times = trace.times[start:]
    volts = trace.bus_v_mag[start:, trace.load_buses]
    v_min = float(volts.min())
    worst = 0.0
    unrecovered = False
    for j in range(volts.shape[1]):
        below = volts[:, j] <= v_threshold
        if not below.any():
            continue
        edges = np.diff(below.astype(np.int8))
        starts = list(np.flatnonzero(edges == 1) + 1)
        if below[0]:
            starts.insert(0, 0)
        ends = list(np.flatnonzero(edges == -1) + 1)  # first recovered sample
        for run_i, s_idx in enumerate(starts):
            if run_i < len(ends):
                duration = float(times[ends[run_i]] - times[s_idx])
            else:
                duration = float(times[-1] - times[s_idx])
                unrecovered = True
            worst = max(worst, duration)
    stable = (
        not trace.diverged and not unrecovered and worst < recovery_window_s
    )
    return VoltageStabilityResult(
        stable=stable, v_min_pu=v_min, violation_duration_s=worst
    )


# ---------------------------------------------------------------------------
# Critical clearing time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CctSearchConfig:
    """Bracket and resolution of the clearing-time search, in seconds.

    Defaults correspond to 1 to 30 cycles at 60 Hz, coarse scan every 2
    cycles, bisection down to a quarter cycle.
    """

    t_min_s: float = 1.0 / 60.0
    t_max_s: float = 30.0 / 60.0
    coarse_step_s: float = 2.0 / 60.0
    tolerance_s: float = 0.25 / 60.0

    @staticmethod
    def from_cycles(
        nominal_hz: float,
        t_min_cycles: float = 1.0,
        t_max_cycles: float = 30.0,
        coarse_step_cycles: float = 2.0,
        tolerance_cycles: float = 0.25,
    ) -> "CctSearchConfig":
        if nominal_hz <= 0.0:
            raise ValueError("nominal frequency must be positive")
        return CctSearchConfig(
            t_min_s=t_min_cycles / nominal_hz,
            t_max_s=t_max_cycles / nominal_hz,
            coarse_step_s=coarse_step_cycles / nominal_hz,
            tolerance_s=tolerance_cycles / nominal_hz,
        )

    def validate(self) -> None:
        if not 0.0 < self.t_min_s < self.t_max_s:
            raise ValueError("need 0 < t_min_s < t_max_s")
        if self.coarse_step_s <= 0.0 or self.tolerance_s <= 0.0:
            raise ValueError("coarse step and tolerance must be positive")


@dataclass(frozen=True)
class CctResult:
    """Outcome of a clearing-time search.

    t_cct_s is the largest probed clearing time that was still stable, so the
    true boundary lies within the search tolerance above it. When the whole
    bracket is stable (above_bracket) it saturates at the bracket top; when
    even the bracket bottom is unstable (below_bracket) it reports the bottom.
    """

    t_cct_s: float
    below_bracket: bool = False
    above_bracket: bool = False
    nonmonotone: bool = False
    evaluations: int = 0


def coarse_grid(cfg: CctSearchConfig) -> list[float]:
    """Clearing times of the coarse scan: bracket bottom, every coarse step, top."""
    cfg.validate()
    grid = [cfg.t_min_s]
    while grid[-1] + cfg.coarse_step_s < cfg.t_max_s - 1e-12:
        grid.append(grid[-1] + cfg.coarse_step_s)
    grid.append(cfg.t_max_s)
    return grid


def find_cct(stable_at: Callable[[float], bool], cfg: CctSearchConfig | None = None) -> CctResult:
    """Locate the stability boundary of a clearing-time predicate.

    The full bracket is scanned at the coarse step first; stability is not
    always monotone in clearing time, and scanning everything both finds the
    first boundary and flags any reversal. Bisection then narrows the first
    stable-to-unstable transition to within the tolerance.
    """
    cfg = cfg or CctSearchConfig()
    grid = coarse_grid(cfg)
    verdicts = [bool(stable_at(t)) for t in grid]
    evaluations = len(grid)
    if not verdicts[0]:
        return CctResult(
            t_cct_s=cfg.t_min_s, below_bracket=True, evaluations=evaluations
        )
    flips = [i for i in range(len(grid) - 1) if verdicts[i] and not verdicts[i + 1]]
    reversals = any(
        not verdicts[i] and verdicts[i + 1] for i in range(len(grid) - 1)
    )
    nonmonotone = reversals or len(flips) > 1
    if nonmonotone:
        logger.warning(
            "stability is not monotone over the clearing-time bracket; "
            "using the first boundary at %.4f s", grid[flips[0]] if flips else grid[-1]
        )
    if not flips:
        return CctResult(
            t_cct_s=cfg.t_max_s, above_bracket=True, evaluations=evaluations
        )
    lo = grid[flips[0]]
    hi = grid[flips[0] + 1]
    while hi - lo > cfg.tolerance_s:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if stable_at(mid):
            lo = mid
        else:
            hi = mid
    return CctResult(t_cct_s=lo, nonmonotone=nonmonotone, evaluations=evaluations)


def cached_traces(
    cache: dict,
    network: Network,
    init: EquilibriumState,
    fault: FaultSpec,
    clear_times: Sequence[float],
    fault_start_s: float = 1.0,
    duration_s: float = 10.0,
    step_s: float = 0.01,
) -> list[Trace]:
    """Traces of one fault context for the given clearing durations.

    The cache maps the absolute clearing instant the simulator integrates
    (tds.clearing_instant) to its trace, so durations share one simulation
    exactly when they give the same trace. The durations the cache lacks
    are simulated in one lockstep batch. A lone one (a bisection probe) goes
    through run_simulation, the same engine with one member, so span traces
    still count single runs under that name.
    """
    keys = [clearing_instant(fault_start_s, c, step_s) for c in clear_times]
    missing: dict = {}
    for key, clear_s in zip(keys, clear_times):
        if key not in cache:
            missing.setdefault(key, clear_s)
    if len(missing) == 1:
        ((key, clear_s),) = missing.items()
        cache[key] = run_simulation(
            network, init, fault, clear_s, fault_start_s, duration_s, step_s
        )
    elif missing:
        traces = run_simulations(
            network, init, fault, list(missing.values()), fault_start_s, duration_s, step_s
        )
        cache.update(zip(missing, traces))
    return [cache[key] for key in keys]


def find_cct_simulated(
    network: Network,
    init: EquilibriumState,
    fault: FaultSpec,
    criterion: str,
    cfg: CctSearchConfig | None = None,
    fault_start_s: float = 1.0,
    duration_s: float = 10.0,
    step_s: float = 0.01,
    trace_cache: dict | None = None,
) -> CctResult:
    """CCT search where the predicate runs a time-domain simulation.

    criterion is "angle" or "voltage". The trace cache (see cached_traces)
    may be shared between the two criteria and with the scenario grid, since
    the trace depends only on the clearing time. The whole coarse scan is
    simulated as one batch up front; bisection probes run one at a time.
    """
    if criterion not in ("angle", "voltage"):
        raise ValueError(f"unknown criterion {criterion!r}")
    cfg = cfg or CctSearchConfig.from_cycles(network.nominal_hz)
    cache = trace_cache if trace_cache is not None else {}

    def traces(clear_times: Sequence[float]) -> list[Trace]:
        return cached_traces(
            cache, network, init, fault, clear_times, fault_start_s, duration_s, step_s
        )

    traces(coarse_grid(cfg))
    if criterion == "angle":
        stable_at = lambda t: tsi(traces([t])[0]).stable
    else:
        stable_at = lambda t: tvs(traces([t])[0]).stable
    return find_cct(stable_at, cfg)


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginLabel:
    """Normalized severity relative to the critical clearing time.

    kind "margin": the case cleared before the boundary; value is the spare
    fraction of the critical time. kind "degree": it cleared after; value is
    the overshoot fraction of the actual clearing time. Both live in [0, 1]
    and meet continuously at 0 on the boundary.
    """

    kind: str  # "margin" | "degree"
    value: float

    @property
    def signed(self) -> float:
        return self.value if self.kind == "margin" else -self.value


def margin(t_cct_s: float, t_clear_s: float) -> MarginLabel:
    """Severity label for an actual clearing time against the critical one."""
    if t_cct_s <= 0.0 or t_clear_s <= 0.0:
        raise ValueError("clearing times must be positive")
    if t_clear_s <= t_cct_s:
        value = (t_cct_s - t_clear_s) / t_cct_s
        return MarginLabel(kind="margin", value=float(np.clip(value, 0.0, 1.0)))
    value = (t_clear_s - t_cct_s) / t_clear_s
    return MarginLabel(kind="degree", value=float(np.clip(value, 0.0, 1.0)))
