"""Stability labeling: angle and voltage criteria, critical clearing times, margins.

Two ground-truth verdicts are extracted from every simulated trace. Angle
stability uses the transient stability index, the largest rotor-angle spread
over the run; 180 degrees or more means loss of synchronism. Voltage
stability requires every load bus to recover above a threshold within a
bounded time after the fault clears.

The critical clearing time for either criterion is searched on a lattice of
quarter cycles, 1 to 30 cycles: a coarse scan every 2 cycles, then bisection
of the first stable-to-unstable step down to adjacent lattice points. So
every CCT is resolved to exactly a quarter cycle, and a 2-cycle step holds 7
points a bisection can probe (the last step, 29 to 30 cycles, holds 3).
Severity labels are normalized margins relative to that boundary.

find_ccts is the one simulated search: it labels both criteria of a fault
context with two lockstep simulation batches, the coarse scan first, then
every lattice point inside either criterion's bracket. Each simulated trace
is reduced to its two verdicts in one map keyed by clearing instant, and
find_cct reads both searches from it.
"""

from __future__ import annotations

import copy
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


# The clearing-time search runs on a lattice of quarter cycles of the
# network's nominal frequency f: lattice point k clears k / (4 f) seconds
# after the fault starts. Bracket and coarse scan step in quarter cycles;
# bisection stops at adjacent points, so the resolution is one quarter cycle.
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
    evaluations: int = 0


def coarse_bracket(grid: Sequence[int], verdicts: Sequence[bool]) -> tuple[int, int] | None:
    """The coarse step find_cct bisects: its first stable-to-unstable step.

    None when there is nothing to bisect: the scan starts unstable, or no
    step goes from stable to unstable. Bisecting the step (lo, hi) can probe
    exactly the lattice points range(lo + 1, hi), each for some sequence of
    verdicts.
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
    everything both finds the first boundary and flags any reversal.
    Bisection then narrows the first stable-to-unstable transition to two
    adjacent lattice points, a quarter cycle apart.
    """
    def stable(k: int) -> bool:
        return bool(stable_at(lattice_s(k, nominal_hz)))

    verdicts = [stable(k) for k in COARSE_GRID]
    evaluations = len(COARSE_GRID)
    if not verdicts[0]:
        return CctResult(
            t_cct_s=lattice_s(K_MIN, nominal_hz), below_bracket=True, evaluations=evaluations
        )
    bracket = coarse_bracket(COARSE_GRID, verdicts)
    # the scan starts stable, so a second boundary needs a reversal first
    nonmonotone = any(not a and b for a, b in zip(verdicts, verdicts[1:]))
    if nonmonotone:
        logger.warning(
            "stability is not monotone over the clearing-time bracket; "
            "using the first boundary at %.4f s", lattice_s(bracket[0], nominal_hz)
        )
    if bracket is None:
        return CctResult(
            t_cct_s=lattice_s(K_MAX, nominal_hz), above_bracket=True, evaluations=evaluations
        )
    lo, hi = bracket
    while hi - lo > 1:
        mid = (lo + hi) // 2
        evaluations += 1
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return CctResult(
        t_cct_s=lattice_s(lo, nominal_hz), nonmonotone=nonmonotone, evaluations=evaluations
    )


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
