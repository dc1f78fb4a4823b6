import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsakit import labeling
from tsakit.dataset import desk_grid, paper_grid
from tsakit.grid_model import FaultSpec
from tsakit.labeling import (
    COARSE_GRID,
    K_MAX,
    K_MIN,
    CctResult,
    MarginLabel,
    coarse_bracket,
    find_cct,
    find_ccts,
    lattice_s,
    margin,
    tsi,
    tvs,
)
from tsakit.tds import Scenario, Trace, clearing_instant, clearing_time_s, run_simulation


def make_trace(
    rotor_angles=None,
    bus_v_mag=None,
    times=None,
    load_buses=None,
    clear_time_s=None,
    diverged=False,
    step_s=0.01,
):
    """Synthetic trace with just the channels the labeling functions read."""
    if rotor_angles is None and bus_v_mag is None:
        raise ValueError("give at least one channel")
    n_steps = len(rotor_angles) if rotor_angles is not None else len(bus_v_mag)
    if times is None:
        times = np.arange(n_steps) * step_s
    if rotor_angles is None:
        rotor_angles = np.zeros((n_steps, 2))
    if bus_v_mag is None:
        bus_v_mag = np.ones((n_steps, 1))
    bus_v_mag = np.asarray(bus_v_mag, dtype=float)
    if load_buses is None:
        load_buses = np.arange(bus_v_mag.shape[1])
    return Trace(
        times=np.asarray(times, dtype=float),
        rotor_angles=np.asarray(rotor_angles, dtype=float),
        bus_v_mag=bus_v_mag,
        bus_v_ang=np.zeros_like(bus_v_mag),
        motor_slips=np.zeros((n_steps, 0)),
        step_s=step_s,
        slack_bus=0,
        load_buses=np.asarray(load_buses, dtype=int),
        fault_start_s=None,
        clear_time_s=clear_time_s,
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# Angle criterion
# ---------------------------------------------------------------------------


class TestTsi:
    def test_matches_brute_force_on_random_traces(self, rng):
        for _ in range(30):
            n_steps = int(rng.integers(2, 40))
            n_gen = int(rng.integers(2, 7))
            angles = rng.uniform(-4.0, 4.0, size=(n_steps, n_gen))
            got = tsi(make_trace(rotor_angles=angles))
            worst = 0.0
            for k in range(n_steps):  # oracle: explicit double loop
                for a in range(n_gen):
                    for b in range(n_gen):
                        worst = max(worst, angles[k, a] - angles[k, b])
            assert got.tsi_deg == pytest.approx(np.degrees(worst), abs=1e-9)
            assert got.stable == (np.degrees(worst) < 180.0)

    def test_spread_120_is_stable(self):
        angles = np.zeros((5, 2))
        angles[2, 0] = np.radians(120.0)
        res = tsi(make_trace(rotor_angles=angles))
        assert res.stable
        assert res.tsi_deg == pytest.approx(120.0)

    def test_spread_181_is_unstable(self):
        angles = np.zeros((5, 2))
        angles[3, 1] = -np.radians(181.0)
        res = tsi(make_trace(rotor_angles=angles))
        assert not res.stable
        assert res.tsi_deg == pytest.approx(181.0)

    def test_spread_exactly_180_is_unstable(self):
        angles = np.zeros((4, 3))
        angles[1, 0] = np.radians(180.0)
        res = tsi(make_trace(rotor_angles=angles))
        assert not res.stable
        assert res.tsi_deg == pytest.approx(180.0)

    def test_reference_shift_invariance(self, rng):
        angles = rng.uniform(-1.0, 1.0, size=(50, 5))
        base = tsi(make_trace(rotor_angles=angles)).tsi_deg
        for _ in range(10):
            ramp = rng.uniform(-20.0, 20.0) * np.linspace(0.0, 1.0, 50)
            shifted = angles + ramp[:, None]
            assert tsi(make_trace(rotor_angles=shifted)).tsi_deg == pytest.approx(
                base, abs=1e-9
            )

    def test_diverged_is_unstable_regardless_of_spread(self):
        angles = np.zeros((5, 2))
        res = tsi(make_trace(rotor_angles=angles, diverged=True))
        assert not res.stable

    def test_single_machine_rejected(self):
        with pytest.raises(ValueError, match="two machines"):
            tsi(make_trace(rotor_angles=np.zeros((5, 1))))


# ---------------------------------------------------------------------------
# Voltage criterion
# ---------------------------------------------------------------------------


class TestTvs:
    def test_all_above_threshold_stable(self):
        v = np.full((100, 3), 0.95)
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0))
        assert res.stable
        assert res.violation_duration_s == 0.0
        assert res.v_min_pu == pytest.approx(0.95)

    def test_recovering_dip_duration_measured(self):
        # below threshold from the clearing instant, recovered at t = 3.2 s
        n = 1001
        v = np.full((n, 1), 0.95)
        v[:320, 0] = 0.75
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0))
        assert res.stable
        assert res.violation_duration_s == pytest.approx(3.2, abs=1e-9)
        assert res.v_min_pu == pytest.approx(0.75)

    def test_pinned_low_bus_unstable(self):
        v = np.full((200, 2), 0.95)
        v[:, 1] = 0.7  # never recovers
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0))
        assert not res.stable
        assert res.v_min_pu == pytest.approx(0.7)

    def test_exactly_at_threshold_counts_as_below(self):
        v = np.full((50, 1), 0.8)
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0))
        assert not res.stable

    def test_excursion_as_long_as_window_is_violation(self):
        # recovery exactly at the window bound must not count as in time
        n = 1201
        v = np.full((n, 1), 1.0)
        v[:1000, 0] = 0.75  # below for t in [0, 9.99], first above at 10.0
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0), recovery_window_s=10.0)
        assert res.violation_duration_s == pytest.approx(10.0, abs=1e-9)
        assert not res.stable

    def test_window_starts_at_clearing(self):
        # fault-on depression before clearing must not count
        n = 301
        v = np.full((n, 1), 0.95)
        v[80:110, 0] = 0.3  # dip around the fault window
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=1.1))
        assert res.stable
        assert res.v_min_pu == pytest.approx(0.95)

    def test_worst_bus_governs(self):
        n = 200
        v = np.full((n, 3), 1.0)
        v[:50, 0] = 0.75
        v[:120, 2] = 0.75
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0))
        assert res.violation_duration_s == pytest.approx(1.2, abs=1e-9)

    def test_diverged_is_unstable(self):
        v = np.full((50, 1), 1.0)
        res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0, diverged=True))
        assert not res.stable

    def test_zero_threshold_always_stable_for_positive_voltages(self, rng):
        for _ in range(20):
            v = rng.uniform(0.01, 1.3, size=(int(rng.integers(10, 200)), 4))
            res = tvs(make_trace(bus_v_mag=v, clear_time_s=0.0), v_threshold=0.0)
            assert res.stable

    def test_empty_window_rejected(self):
        v = np.full((10, 1), 1.0)
        with pytest.raises(ValueError, match="clearing"):
            tvs(make_trace(bus_v_mag=v, clear_time_s=5.0))

    def test_bad_parameters_rejected(self):
        v = np.full((10, 1), 1.0)
        with pytest.raises(ValueError):
            tvs(make_trace(bus_v_mag=v, clear_time_s=0.0), v_threshold=-0.1)
        with pytest.raises(ValueError):
            tvs(make_trace(bus_v_mag=v, clear_time_s=0.0), recovery_window_s=0.0)


class TestTvsRule:
    """With a post-clearing trace shorter than the recovery window, TVS is a
    last-sample rule: not diverged and every load bus strictly above the
    threshold at the last sample."""

    @pytest.mark.parametrize("grid", [desk_grid, paper_grid])
    def test_grids_trace_less_than_the_window_after_clearing(self, ieee39, grid):
        cfg = grid(ieee39)
        # the shortest clearing any label build simulates, grid or CCT probe
        shortest = min(lattice_s(K_MIN, ieee39.nominal_hz),
                       min(cfg.clearing_cycles) / ieee39.nominal_hz)
        t_clear = clearing_instant(cfg.fault_start_s, shortest, cfg.step_s)
        times = np.arange(int(round(cfg.duration_s / cfg.step_s)) + 1) * cfg.step_s
        start = int(np.searchsorted(times, t_clear, side="left"))
        assert times[-1] - times[start] < labeling.RECOVERY_WINDOW_S

    def test_verdict_is_the_last_sample_rule(self, rng):
        levels = np.array([0.5, 0.75, 0.8, 0.85, 1.0])
        for _ in range(300):
            n_bus = int(rng.integers(1, 5))
            v = np.empty((1001, n_bus))  # t = 0 .. 10 s
            for j in range(n_bus):
                # a few long flat runs, so excursions of every length occur
                cuts = np.sort(rng.integers(0, 1001, size=int(rng.integers(0, 4))))
                for seg in np.split(np.arange(1001), cuts):
                    v[seg, j] = rng.choice(levels)
            clear = 1.0 + rng.uniform(1.0 / 60.0, 0.5)
            trace = make_trace(bus_v_mag=v, clear_time_s=clear, diverged=rng.random() < 0.1)
            expected = not trace.diverged and bool((v[-1] > labeling.V_THRESHOLD_PU).all())
            assert tvs(trace).stable == expected


# ---------------------------------------------------------------------------
# CCT search
# ---------------------------------------------------------------------------


HZ = 60.0
QUARTER_CYCLE_S = lattice_s(1, HZ)


class TestFindCct:
    def test_step_functions_recovered_within_tolerance(self, rng):
        for _ in range(20):
            threshold = rng.uniform(lattice_s(K_MIN, HZ) + 1e-3, lattice_s(K_MAX, HZ) - 1e-3)
            res = find_cct(lambda t: t <= threshold, HZ)
            assert not res.below_bracket and not res.above_bracket
            assert res.t_cct_s <= threshold
            assert threshold - res.t_cct_s <= QUARTER_CYCLE_S

    def test_below_bracket_flagged(self):
        res = find_cct(lambda t: t <= lattice_s(K_MIN, HZ) / 2.0, HZ)
        assert res.below_bracket
        assert res.t_cct_s == lattice_s(K_MIN, HZ)

    def test_above_bracket_saturates(self):
        res = find_cct(lambda t: True, HZ)
        assert res.above_bracket
        assert res.t_cct_s == lattice_s(K_MAX, HZ)

    def test_nonmonotone_flagged_and_first_boundary_used(self, caplog):
        # at 1 Hz the lattice is 0.25 s: the bracket 1 to 30 s, scan every 2 s;
        # stable, unstable island, stable again, unstable
        pockets = lambda t: t <= 3.2 or 5.8 <= t <= 7.9
        with caplog.at_level("WARNING", logger="tsakit.labeling"):
            res = find_cct(pockets, 1.0)
        assert res.nonmonotone
        assert res.t_cct_s == 3.0  # the last lattice point at or below 3.2 s
        assert any("monotone" in r.message for r in caplog.records)

    def test_evaluation_count_bounded(self):
        calls = 0

        def probe(t):
            nonlocal calls
            calls += 1
            return t <= 0.21

        res = find_cct(probe, HZ)
        assert res.evaluations == calls
        # full coarse scan of 16 points plus three bisection steps
        assert calls == len(COARSE_GRID) + 3 <= 22

    def test_config_validation(self):
        for hz in (0.0, -60.0):
            with pytest.raises(ValueError):
                find_cct(lambda t: True, hz)

    def test_from_cycles(self):
        assert lattice_s(K_MIN, 50.0) == pytest.approx(0.02)
        assert lattice_s(K_MAX, 50.0) == pytest.approx(0.6)
        assert lattice_s(COARSE_GRID[1] - COARSE_GRID[0], 50.0) == pytest.approx(0.04)
        assert lattice_s(1, 50.0) == pytest.approx(0.005)
        cycles = [*range(1, 30, 2), 30]
        assert [lattice_s(k, 50.0) for k in COARSE_GRID] == [c / 50.0 for c in cycles]


class TestBisectionPoints:
    @given(
        hz=st.floats(1.0, 1000.0),
        boundary=st.floats(0.0, 1.0),
        flips=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_tree_holds_every_midpoint_find_cct_visits(self, hz, boundary, flips):
        """A monotone step (no flips) or a predicate that reverses at each
        flip point: find_cct probes only lattice points strictly inside the
        coarse bracket the scan gives, and bisecting a step of 2**d quarter
        cycles takes exactly d probes, whatever the verdicts."""
        t_min, t_max = lattice_s(K_MIN, hz), lattice_s(K_MAX, hz)
        edges = sorted(t_min + (t_max - t_min) * f for f in [boundary, *flips])

        def verdict(t):
            return sum(t > e for e in edges) % 2 == 0

        probed = []
        res = find_cct(lambda t: probed.append(t) or verdict(t), hz)
        grid = [lattice_s(k, hz) for k in COARSE_GRID]
        assert probed[: len(grid)] == grid and len(probed) == res.evaluations
        bracket = coarse_bracket(COARSE_GRID, [verdict(t) for t in grid])
        tree = [] if bracket is None else [lattice_s(k, hz) for k in range(bracket[0] + 1, bracket[1])]
        assert set(probed[len(grid) :]) <= set(tree)
        assert (bracket is None) == (len(probed) == len(grid))
        if bracket is not None:
            assert len(probed) - len(grid) == (bracket[1] - bracket[0]).bit_length() - 1


class TestLattice:
    """The search runs on integer quarter-cycle indices, so every CCT has
    the same resolution and every bracket the same probe set."""

    @pytest.mark.parametrize("hz", [50.0, 60.0])
    def test_every_bracket_probes_7_points_and_the_last_3(self, hz, monkeypatch):
        calls = []

        def batch(network, init, fault, clear_times, *timing):
            calls.append(list(clear_times))
            return [SimpleNamespace(clear_s=c) for c in clear_times]

        monkeypatch.setattr(labeling, "run_simulations", batch)
        monkeypatch.setattr(labeling, "tvs", lambda tr: SimpleNamespace(stable=True))
        for lo, hi in zip(COARSE_GRID, COARSE_GRID[1:]):
            # the angle boundary a tenth of a quarter cycle above the step's bottom
            boundary = lattice_s(lo, hz) + 0.1 * lattice_s(1, hz)
            monkeypatch.setattr(labeling, "tsi",
                                lambda tr: SimpleNamespace(stable=tr.clear_s <= boundary))
            calls.clear()
            cct_a, _, _ = find_ccts(SimpleNamespace(nominal_hz=hz), None, None, [],
                                    1.0, 10.0, 0.01)
            assert len(calls) == 2
            assert len(calls[1]) == (3 if hi == K_MAX else 7)
            assert sorted(calls[1]) == [lattice_s(k, hz) for k in range(lo + 1, hi)]
            assert cct_a.t_cct_s == lattice_s(lo, hz)

    @pytest.mark.parametrize("hz", [50.0, 60.0])
    def test_cct_is_the_lattice_point_below_the_threshold(self, hz, rng):
        for _ in range(200):
            threshold = rng.uniform(lattice_s(K_MIN, hz), lattice_s(K_MAX, hz))
            res = find_cct(lambda t: t <= threshold, hz)
            k = round(res.t_cct_s * 4 * hz)
            assert res.t_cct_s * 4 * hz == pytest.approx(k, abs=1e-9)
            assert res.t_cct_s == lattice_s(k, hz)
            assert k == math.floor(threshold * 4 * hz)

    @pytest.mark.parametrize("hz", [50.0, 60.0])
    def test_quarter_cycle_clearing_times_are_their_lattice_points(self, hz):
        """A grid scenario clearing at a multiple of a quarter cycle gets the
        trace of the lattice point: the same duration, the same instant."""
        for k in range(K_MIN, K_MAX + 1):
            grid_s = clearing_time_s(Scenario(FaultSpec(13, 0.5), 0.6, k / 4.0), hz)
            assert grid_s == lattice_s(k, hz)
            assert clearing_instant(1.0, grid_s, 0.01) == clearing_instant(
                1.0, lattice_s(k, hz), 0.01)


def _verdict_pair(trace):
    return tsi(trace).stable, tvs(trace).stable


class TestFindCctSimulated:
    """find_ccts, the CCT search whose predicate runs simulations."""

    @pytest.mark.slow
    def test_angle_cct_on_bundled_network(self, ieee39_eq06):
        net, eq = ieee39_eq06
        fault = FaultSpec(13, 0.5)
        res, _, _ = find_ccts(net, eq, fault, [], 1.0, 10.0, 0.01)
        assert not res.below_bracket and not res.above_bracket
        hz = net.nominal_hz
        assert lattice_s(K_MIN, hz) < res.t_cct_s < lattice_s(K_MAX, hz)
        # the smoke points bracket the boundary: 5 cycles rode through,
        # 30 cycles lost synchronism
        assert 5.0 / 60.0 <= res.t_cct_s <= 30.0 / 60.0
        # verify the boundary property against direct simulations: stable at
        # the CCT, unstable a quarter cycle later
        k = round(res.t_cct_s * 4 * hz)
        stable_tr = run_simulation(net, eq, fault=fault, clear_s=res.t_cct_s)
        unstable_tr = run_simulation(net, eq, fault=fault, clear_s=lattice_s(k + 1, hz))
        assert tsi(stable_tr).stable
        assert not tsi(unstable_tr).stable

    def test_cache_shared_between_criteria(self, ieee39_eq06, monkeypatch):
        """Both searches read one verdict map: the probe batch is the union
        of the two criteria's bisection trees, each instant once and none
        the first batch simulated."""
        net, eq = ieee39_eq06
        calls, grid_verdicts = [], []
        batch = labeling.run_simulations

        def recording(*args):
            traces = batch(*args)
            calls.append(list(args[3]))
            if len(calls) == 1:
                grid_verdicts.extend(_verdict_pair(t) for t in traces)
            return traces

        monkeypatch.setattr(labeling, "run_simulations", recording)
        find_ccts(net, eq, FaultSpec(13, 0.5), [], 1.0, 1.6, 0.01)
        hz = net.nominal_hz
        grid = [lattice_s(k, hz) for k in COARSE_GRID]
        assert calls[0] == grid
        trees = []
        for which in (0, 1):
            bracket = coarse_bracket(COARSE_GRID, [v[which] for v in grid_verdicts])
            if bracket is not None:
                trees += [lattice_s(k, hz) for k in range(bracket[0] + 1, bracket[1])]
        assert trees

        def instant(c):
            return clearing_instant(1.0, c, 0.01)

        probed = [instant(c) for c in calls[1]]
        assert len(probed) == len(set(probed))
        assert set(probed) == {instant(p) for p in trees} - {instant(t) for t in grid}

    def test_find_ccts_equals_separate_searches_in_two_batches(self, ieee39_eq06,
                                                                monkeypatch):
        net, eq = ieee39_eq06
        fault = FaultSpec(13, 0.5)
        single: dict = {}  # clearing duration -> verdicts of its own simulation

        def verdicts(t):
            if t not in single:
                single[t] = _verdict_pair(
                    run_simulation(net, eq, fault=fault, clear_s=t, duration_s=1.6))
            return single[t]

        separate = tuple(find_cct(lambda t: verdicts(t)[which], net.nominal_hz)
                         for which in (0, 1))
        calls = []
        batch = labeling.run_simulations
        monkeypatch.setattr(labeling, "run_simulations",
                            lambda *a: calls.append(a[3]) or batch(*a))
        clears = [3.0 / 60.0, 4.0 / 60.0]
        cct_a, cct_v, traces = find_ccts(net, eq, fault, clears, 1.0, 1.6, 0.01)
        assert (cct_a, cct_v) == separate
        assert len(calls) == 2
        # the traces of the grid's clearing times, copied out of the first batch
        assert [t.clear_time_s for t in traces] == [clearing_instant(1.0, c, 0.01)
                                                    for c in clears]
        assert all(t.bus_v_mag.base is None for t in traces)
        alone = run_simulation(net, eq, fault=fault, clear_s=clears[1], duration_s=1.6)
        np.testing.assert_array_equal(traces[1].bus_v_mag, alone.bus_v_mag)
        np.testing.assert_array_equal(traces[1].rotor_angles, alone.rotor_angles)

    def test_cache_simulates_only_what_it_lacks(self, monkeypatch):
        """Stub traces and verdicts: each batch holds only the instants the
        verdict map lacks, each once, and the searches read the map alone."""
        calls = []

        def batch(network, init, fault, clear_times, *timing):
            calls.append(list(clear_times))
            return [SimpleNamespace(clear_s=c) for c in clear_times]

        monkeypatch.setattr(labeling, "run_simulations", batch)
        # the angle boundary at 12.6 cycles, the voltage one at 18.3 cycles
        monkeypatch.setattr(labeling, "tsi", lambda tr: SimpleNamespace(stable=tr.clear_s <= 0.21))
        monkeypatch.setattr(labeling, "tvs", lambda tr: SimpleNamespace(stable=tr.clear_s <= 0.305))
        grid = [lattice_s(k, HZ) for k in COARSE_GRID]
        # 0.3 s (18 cycles) is the first midpoint of the voltage bracket
        clears = [0.1, 0.3, 0.1 + 1e-14, grid[3]]
        cct_a, cct_v, traces = find_ccts(SimpleNamespace(nominal_hz=60.0), None, None,
                                         clears, 1.0, 10.0, 0.01)
        assert calls[0] == grid + [0.1, 0.3]
        assert [t.clear_s for t in traces] == [0.1, 0.3, 0.1, grid[3]]
        assert traces[0] is traces[2]

        def instant(c):
            return clearing_instant(1.0, c, 0.01)

        assert len(calls) == 2
        trees = [lattice_s(k, HZ) for k in [*range(COARSE_GRID[5] + 1, COARSE_GRID[6]),
                                            *range(COARSE_GRID[8] + 1, COARSE_GRID[9])]]
        assert instant(0.3) in {instant(p) for p in trees}
        assert sorted(map(instant, calls[1])) == sorted(
            {instant(p) for p in trees} - {instant(c) for c in calls[0]})
        assert cct_a == find_cct(lambda t: t <= 0.21, HZ)
        assert cct_v == find_cct(lambda t: t <= 0.305, HZ)

    @pytest.mark.slow
    def test_desk_context_probes_at_most_7_points_per_criterion(self, ieee39, ieee39_eq06,
                                                                monkeypatch):
        """One desk context: two batches, and the second holds at most the 7
        lattice points inside each bisected criterion's 2-cycle bracket."""
        net, eq = ieee39_eq06
        cfg = desk_grid(ieee39)
        calls, first_verdicts = [], []
        batch = labeling.run_simulations

        def recording(*args):
            traces = batch(*args)
            calls.append(list(args[3]))
            if len(calls) == 1:
                first_verdicts.extend(_verdict_pair(t) for t in traces)
            return traces

        monkeypatch.setattr(labeling, "run_simulations", recording)
        clears = [c / net.nominal_hz for c in cfg.clearing_cycles]
        find_ccts(net, eq, FaultSpec(13, 0.5), clears, cfg.fault_start_s, cfg.duration_s,
                  cfg.step_s)
        assert len(calls) == 2
        # the desk's odd clearing cycles are coarse-scan points
        assert calls[0] == [lattice_s(k, net.nominal_hz) for k in COARSE_GRID]
        bisected = sum(
            coarse_bracket(COARSE_GRID, [v[which] for v in first_verdicts]) is not None
            for which in (0, 1)
        )
        assert 1 <= bisected and len(calls[1]) <= 7 * bisected

    def test_28_cycle_probe_and_grid_value_keep_their_own_traces(self, ieee39_eq06):
        """A float midpoint of 27 and 29 cycles, each summed from 1 cycle in
        2-cycle steps, and 28/60 s agree to 1e-12 but clear one ulp apart,
        so each gets its own trace."""
        net, eq = ieee39_eq06
        summed = [1.0 / 60.0]
        while len(summed) < 15:
            summed.append(summed[-1] + 2.0 / 60.0)
        probe, grid_value = 0.5 * (summed[13] + summed[14]), 28.0 / 60.0
        assert round(probe, 12) == round(grid_value, 12)
        assert 1.0 + probe != 1.0 + grid_value
        _, _, (a, b) = find_ccts(net, eq, FaultSpec(13, 0.5), [probe, grid_value],
                                 1.0, 1.6, 0.01)
        assert a is not b
        assert (a.clear_time_s, b.clear_time_s) == (1.0 + probe, 1.0 + grid_value)

    def test_durations_with_one_clearing_instant_share_a_simulation(self, ieee39_eq06,
                                                                     monkeypatch):
        net, eq = ieee39_eq06
        runs = []
        batch = labeling.run_simulations
        monkeypatch.setattr(labeling, "run_simulations",
                            lambda *a: runs.append(a[3]) or batch(*a))
        # 1.15 s is a sample instant; 5e-10 s off it snaps onto it
        durations = [0.15, 0.15 + 5e-10]
        assert round(durations[0], 12) != round(durations[1], 12)
        _, _, (a, b) = find_ccts(net, eq, FaultSpec(13, 0.5), durations, 1.0, 1.6, 0.01)
        assert a is b
        instants = [clearing_instant(1.0, c, 0.01) for c in runs[0]]
        assert len(instants) == len(set(instants))
        assert instants.count(clearing_instant(1.0, 0.15, 0.01)) == 1
        assert a.clear_time_s == clearing_instant(1.0, 0.15 + 5e-10, 0.01)


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------


class TestMargin:
    def test_stable_side_half(self):
        lab = margin(t_cct_s=0.2, t_clear_s=0.1)
        assert lab.kind == "margin"
        assert lab.value == pytest.approx(0.5)
        assert lab.signed == pytest.approx(0.5)

    def test_unstable_side_half(self):
        lab = margin(t_cct_s=0.2, t_clear_s=0.4)
        assert lab.kind == "degree"
        assert lab.value == pytest.approx(0.5)
        assert lab.signed == pytest.approx(-0.5)

    def test_boundary_is_zero_from_both_formulas(self):
        lab = margin(t_cct_s=0.25, t_clear_s=0.25)
        assert lab.value == 0.0
        assert lab.signed == 0.0

    @given(
        cct=st.floats(0.01, 1.0, allow_nan=False),
        clear=st.floats(0.001, 2.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_definitions_and_stays_bounded(self, cct, clear):
        lab = margin(cct, clear)
        if clear <= cct:
            assert lab.kind == "margin"
            assert lab.value == pytest.approx(min(1.0, (cct - clear) / cct), abs=1e-12)
        else:
            assert lab.kind == "degree"
            assert lab.value == pytest.approx(min(1.0, (clear - cct) / clear), abs=1e-12)
        assert 0.0 <= lab.value <= 1.0
        assert -1.0 <= lab.signed <= 1.0
        # the manifest reads the margin side off the sign
        assert (lab.kind == "margin") == (lab.signed >= 0.0)

    def test_signed_value_monotone_in_clearing_time(self):
        cct = 0.2
        clears = np.linspace(0.01, 0.6, 120)
        signed = [margin(cct, c).signed for c in clears]
        assert all(a >= b - 1e-12 for a, b in zip(signed[:-1], signed[1:]))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            margin(0.0, 0.1)
        with pytest.raises(ValueError):
            margin(0.1, -0.1)

