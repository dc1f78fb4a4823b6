"""Stability labeling: angle and voltage criteria, critical clearing times, margins.

Two ground-truth verdicts are extracted from every simulated trace. Angle
stability uses the transient stability index, the largest rotor-angle spread
over the run; 180 degrees or more means loss of synchronism. Voltage
stability requires every load bus to recover above a threshold within a
recovery window after the fault clears. Every trace ends inside that window
(dataset.validate_grid enforces it for a grid, tvs for a trace), so the
rule is: not diverged, and every load bus above the threshold at the last
sample.

The critical clearing time for either criterion is searched on a lattice of
quarter cycles, 1 to 30 cycles: a coarse scan every 2 cycles, then an
in-order read of the points inside the first stable-to-unstable step. The
CCT is the lattice point just before the first unstable one, so every CCT is
resolved to exactly a quarter cycle and is the first boundary. A 2-cycle
step holds 7 inner points (the last step, 29 to 30 cycles, holds 3).
Severity labels are normalized margins relative to that boundary.

find_ccts is the one simulated search: it labels both criteria of a fault
context with two lockstep simulation batches, the coarse scan first, then
every lattice point inside either criterion's bracket. Each simulated trace
is reduced to its two verdicts in one map keyed by clearing instant, and
find_cct reads both searches from it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .grid_model import FaultSpec, Network
from .tds import (
    EquilibriumState,
    Trace,
    clearing_instant,
    run_simulations,
)

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


def tvs(trace: Trace) -> VoltageStabilityResult:
    """Voltage criterion: every load bus recovered strictly above the threshold.

    Evaluated from the clearing instant (trace start when nothing was
    cleared). The trace must end less than RECOVERY_WINDOW_S after that
    instant, and dataset.validate_grid rejects a grid that could break this;
    so no excursion can outlast the window, and recovering within it means
    being recovered at the last sample. Stable: the run did not diverge and
    every load bus is strictly above V_THRESHOLD_PU at the last sample; a
    sample exactly at the threshold has not recovered.
    """
    t0 = trace.clear_time_s if trace.clear_time_s is not None else 0.0
    start = int(np.searchsorted(trace.times, t0, side="left"))
    if start >= trace.n_steps:
        raise ValueError("trace ends before the clearing instant")
    if trace.load_buses.size == 0:
        raise ValueError("trace has no load buses to evaluate")
    if trace.times[-1] - trace.times[start] >= RECOVERY_WINDOW_S:
        raise ValueError(
            f"trace runs the {RECOVERY_WINDOW_S} s recovery window or more past clearing"
        )
    volts = trace.bus_v_mag[start:, trace.load_buses]
    stable = not trace.diverged and bool((volts[-1] > V_THRESHOLD_PU).all())
    return VoltageStabilityResult(stable=stable, v_min_pu=float(volts.min()))


# ---------------------------------------------------------------------------
# Critical clearing time
# ---------------------------------------------------------------------------


# The clearing-time search runs on a lattice of quarter cycles of the
# network's nominal frequency f: lattice point k clears k / (4 f) seconds
# after the fault starts. Bracket and coarse scan step in quarter cycles, and
# the read inside a step visits every point, so the resolution is one quarter
# cycle.
QUARTERS_PER_CYCLE = 4
K_MIN = 4  # 1 cycle
K_MAX = 120  # 30 cycles
K_COARSE_STEP = 8  # 2 cycles
# the coarse scan: bracket bottom, every coarse step, top
COARSE_GRID = (*range(K_MIN, K_MAX, K_COARSE_STEP), K_MAX)


def lattice_s(k: int, nominal_hz: float) -> float:
    """Clearing duration of lattice point k in seconds: k quarter cycles.

    A clearing time of c cycles, c / f, is the same double as lattice point
    4 c whenever 4 c is an integer: both round the same rational number.
    """
    if nominal_hz <= 0.0:
        raise ValueError("nominal frequency must be positive")
    return k / (QUARTERS_PER_CYCLE * nominal_hz)


@dataclass(frozen=True)
class CctResult:
    """Outcome of a clearing-time search.

    t_cct_s is the largest probed clearing time that was still stable, so the
    true boundary lies less than a quarter cycle above it. When the whole
    bracket is stable (above_bracket) it saturates at the bracket top; when
    even the bracket bottom is unstable (below_bracket) it reports the bottom.
    """

    t_cct_s: float
    below_bracket: bool = False
    above_bracket: bool = False
    nonmonotone: bool = False


def coarse_bracket(grid: Sequence[int], verdicts: Sequence[bool]) -> tuple[int, int] | None:
    """The coarse step find_cct reads: its first stable-to-unstable step.

    None when there is nothing to read: the scan starts unstable, or no step
    goes from stable to unstable. Reading the step (lo, hi) asks the lattice
    points from lo + 1 up, in increasing order, and stops at hi, a scan
    point, at the latest; so range(lo + 1, hi) holds every point it may ask
    beyond the scan.
    """
    if not verdicts[0]:
        return None
    flip = next((i for i in range(len(grid) - 1) if verdicts[i] and not verdicts[i + 1]), None)
    return None if flip is None else (grid[flip], grid[flip + 1])


def find_cct(stable_at: Callable[[float], bool], nominal_hz: float) -> CctResult:
    """Locate the stability boundary of a clearing-time predicate.

    stable_at takes a clearing duration in seconds and is asked only at
    lattice points. The full bracket is scanned at the coarse step first;
    stability is not always monotone in clearing time, and scanning
    everything both finds the first boundary and flags any reversal in
    CctResult.nonmonotone. The points inside the first stable-to-unstable
    step are then asked in increasing order, and the CCT is the point just
    before the first unstable one; the step's top is unstable, so the read
    stops there at the latest. The search logs nothing; dataset.build_dataset
    reports the flag.
    """
    def stable(k: int) -> bool:
        return bool(stable_at(lattice_s(k, nominal_hz)))

    verdicts = [stable(k) for k in COARSE_GRID]
    if not verdicts[0]:
        return CctResult(t_cct_s=lattice_s(K_MIN, nominal_hz), below_bracket=True)
    bracket = coarse_bracket(COARSE_GRID, verdicts)
    # the scan starts stable, so a second boundary needs a reversal first
    nonmonotone = any(not a and b for a, b in zip(verdicts, verdicts[1:]))
    if bracket is None:
        return CctResult(t_cct_s=lattice_s(K_MAX, nominal_hz), above_bracket=True)
    lo = bracket[0]
    while stable(lo + 1):
        lo += 1
    return CctResult(t_cct_s=lattice_s(lo, nominal_hz), nonmonotone=nonmonotone)


def find_ccts(
    network: Network,
    init: EquilibriumState,
    fault: FaultSpec,
    clear_times: Sequence[float],
    fault_start_s: float,
    duration_s: float,
    step_s: float,
) -> tuple[CctResult, CctResult, list[Trace]]:
    """The angle and the voltage CCT of one fault context, and the traces of clear_times.

    One verdict map holds (angle stable, voltage stable) per clearing
    instant the simulator integrates (tds.clearing_instant), so durations
    share one simulation exactly when they give the same trace. The first
    lockstep batch simulates the coarse scan together with clear_times (the
    scenario grid's clearing times). The traces of clear_times are copied,
    so that the batch's arrays are freed before the second batch. That one
    simulates, for each criterion, every lattice point inside its coarse
    bracket that the map lacks: the 7 points between two scan points 2
    cycles apart, or the 3 of the last, 29 to 30 cycle, step. Both searches
    then read only the map, so the context calls run_simulations at most
    twice, and each CCT is resolved to exactly a quarter cycle.
    """
    hz = network.nominal_hz
    verdicts: dict = {}

    def instant(clear_s: float) -> float:
        return clearing_instant(fault_start_s, clear_s, step_s)

    def simulate(clears: Sequence[float]) -> dict:
        """Traces of the instants the map lacks, as one batch keyed by instant."""
        missing: dict = {}
        for clear_s in clears:
            key = instant(clear_s)
            if key not in verdicts:
                missing.setdefault(key, clear_s)
        if not missing:
            return {}
        batch = dict(zip(missing, run_simulations(
            network, init, fault, list(missing.values()), fault_start_s, duration_s, step_s
        )))
        verdicts.update((key, (tsi(tr).stable, tvs(tr).stable)) for key, tr in batch.items())
        return batch

    grid = [lattice_s(k, hz) for k in COARSE_GRID]
    first = simulate([*grid, *clear_times])
    memo: dict = {}  # one copy per shared trace; it holds the originals too
    traces = [copy.deepcopy(first[instant(c)], memo) for c in clear_times]
    del first, memo
    probes = []
    for which in (0, 1):
        bracket = coarse_bracket(COARSE_GRID, [verdicts[instant(t)][which] for t in grid])
        if bracket is not None:
            probes += (lattice_s(k, hz) for k in range(bracket[0] + 1, bracket[1]))
    simulate(probes)
    cct_a = find_cct(lambda t: verdicts[instant(t)][0], hz)
    cct_v = find_cct(lambda t: verdicts[instant(t)][1], hz)
    return cct_a, cct_v, traces


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------


def margin(t_cct_s: float, t_clear_s: float) -> float:
    """Signed severity of an actual clearing time against the critical one.

    Cleared before the boundary, it is the margin: the spare fraction of
    the critical time. Cleared after, it is minus the degree: the overshoot
    fraction of the actual clearing time. Both fractions live in [0, 1] and
    meet continuously at 0 on the boundary.
    """
    if t_cct_s <= 0.0 or t_clear_s <= 0.0:
        raise ValueError("clearing times must be positive")
    if t_clear_s <= t_cct_s:
        return float(np.clip((t_cct_s - t_clear_s) / t_cct_s, 0.0, 1.0))
    return -float(np.clip((t_clear_s - t_cct_s) / t_clear_s, 0.0, 1.0))
