import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsakit import labeling
from tsakit.dataset import desk_grid, paper_grid
from tsakit.grid_model import FaultSpec
from tsakit.labeling import (
    CctResult,
    CctSearchConfig,
    MarginLabel,
    cached_traces,
    coarse_grid,
    find_cct,
    find_cct_simulated,
    margin,
    tsi,
    tvs,
)
from tsakit.tds import Trace, clearing_instant


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
        cct = CctSearchConfig.from_cycles(ieee39.nominal_hz)
        # the shortest clearing any label build simulates, grid or CCT probe
        shortest = min(cct.t_min_s, min(cfg.clearing_cycles) / ieee39.nominal_hz)
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


class TestFindCct:
    def test_step_functions_recovered_within_tolerance(self, rng):
        cfg = CctSearchConfig()
        for _ in range(20):
            threshold = rng.uniform(cfg.t_min_s + 1e-3, cfg.t_max_s - 1e-3)
            res = find_cct(lambda t: t <= threshold, cfg)
            assert not res.below_bracket and not res.above_bracket
            assert res.t_cct_s <= threshold
            assert threshold - res.t_cct_s <= cfg.tolerance_s

    def test_below_bracket_flagged(self):
        cfg = CctSearchConfig()
        res = find_cct(lambda t: t <= cfg.t_min_s / 2.0, cfg)
        assert res.below_bracket
        assert res.t_cct_s == cfg.t_min_s

    def test_above_bracket_saturates(self):
        cfg = CctSearchConfig()
        res = find_cct(lambda t: True, cfg)
        assert res.above_bracket
        assert res.t_cct_s == cfg.t_max_s

    def test_nonmonotone_flagged_and_first_boundary_used(self, caplog):
        cfg = CctSearchConfig(t_min_s=1.0, t_max_s=10.0, coarse_step_s=1.0, tolerance_s=0.01)
        # stable, unstable island, stable again, unstable
        pockets = lambda t: t <= 3.2 or 5.8 <= t <= 7.9
        with caplog.at_level("WARNING", logger="tsakit.labeling"):
            res = find_cct(pockets, cfg)
        assert res.nonmonotone
        assert abs(res.t_cct_s - 3.2) <= 0.01 + 1e-12
        assert any("monotone" in r.message for r in caplog.records)

    def test_evaluation_count_bounded(self):
        cfg = CctSearchConfig()
        calls = 0

        def probe(t):
            nonlocal calls
            calls += 1
            return t <= 0.21

        res = find_cct(probe, cfg)
        assert res.evaluations == calls
        # full coarse scan of 16 points plus a handful of bisection steps
        assert calls <= 22

    def test_config_validation(self):
        with pytest.raises(ValueError):
            find_cct(lambda t: True, CctSearchConfig(t_min_s=0.5, t_max_s=0.1))
        with pytest.raises(ValueError):
            find_cct(lambda t: True, CctSearchConfig(tolerance_s=0.0))

    def test_from_cycles(self):
        cfg = CctSearchConfig.from_cycles(50.0)
        assert cfg.t_min_s == pytest.approx(0.02)
        assert cfg.t_max_s == pytest.approx(0.6)
        assert cfg.tolerance_s == pytest.approx(0.005)


class TestFindCctSimulated:
    def test_angle_cct_on_bundled_network(self, ieee39_eq06):
        net, eq = ieee39_eq06
        fault = FaultSpec(13, 0.5)
        cache = {}
        res = find_cct_simulated(net, eq, fault, "angle", trace_cache=cache)
        assert not res.below_bracket and not res.above_bracket
        cfg = CctSearchConfig.from_cycles(net.nominal_hz)
        assert cfg.t_min_s < res.t_cct_s < cfg.t_max_s
        # the smoke points bracket the boundary: 5 cycles rode through,
        # 30 cycles lost synchronism
        assert 5.0 / 60.0 <= res.t_cct_s <= 30.0 / 60.0
        # verify the boundary property against direct simulations
        from tsakit.labeling import tsi as tsi_fn
        from tsakit.tds import run_simulation

        stable_tr = run_simulation(net, eq, fault=fault, clear_s=res.t_cct_s)
        unstable_tr = run_simulation(
            net, eq, fault=fault, clear_s=res.t_cct_s + 1.5 * cfg.tolerance_s
        )
        assert tsi_fn(stable_tr).stable
        assert not tsi_fn(unstable_tr).stable

    def test_cache_shared_between_criteria(self, ieee39_eq06):
        net, eq = ieee39_eq06
        fault = FaultSpec(13, 0.5)
        cache = {}
        find_cct_simulated(net, eq, fault, "angle", trace_cache=cache)
        n_after_angle = len(cache)
        find_cct_simulated(net, eq, fault, "voltage", trace_cache=cache)
        # the voltage pass reuses every coarse-scan trace
        assert len(cache) - n_after_angle <= 6

    def test_cache_simulates_only_what_it_lacks(self, monkeypatch):
        calls = []

        def batch(network, init, fault, clear_times, *timing):
            calls.append(("batch", list(clear_times)))
            return [f"trace {c}" for c in clear_times]

        def single(network, init, fault, clear_s, *timing):
            calls.append(("single", clear_s))
            return f"trace {clear_s}"

        monkeypatch.setattr(labeling, "run_simulations", batch)
        monkeypatch.setattr(labeling, "run_simulation", single)
        cache = {clearing_instant(1.0, 0.1, 0.01): "cached"}
        traces = cached_traces(cache, None, None, None, [0.1, 0.2, 0.3, 0.2 + 1e-14])
        assert traces == ["cached", "trace 0.2", "trace 0.3", "trace 0.2"]
        assert calls == [("batch", [0.2, 0.3])]
        assert cached_traces(cache, None, None, None, [0.3, 0.4]) == ["trace 0.3", "trace 0.4"]
        assert calls[-1] == ("single", 0.4)
        assert cached_traces(cache, None, None, None, [0.4]) == ["trace 0.4"]
        assert len(calls) == 2

    def test_28_cycle_probe_and_grid_value_keep_their_own_traces(self, ieee39_eq06):
        """The first bisection midpoint between 27 and 29 cycles and 28/60 s
        agree to 1e-12 but clear one ulp apart, so each gets its own trace."""
        net, eq = ieee39_eq06
        grid = coarse_grid(CctSearchConfig.from_cycles(net.nominal_hz))
        probe, grid_value = 0.5 * (grid[13] + grid[14]), 28.0 / 60.0
        assert round(probe, 12) == round(grid_value, 12)
        assert 1.0 + probe != 1.0 + grid_value
        cache = {}
        a, b = cached_traces(cache, net, eq, FaultSpec(13, 0.5), [probe, grid_value],
                             duration_s=1.6)
        assert len(cache) == 2
        assert (a.clear_time_s, b.clear_time_s) == (1.0 + probe, 1.0 + grid_value)

    def test_durations_with_one_clearing_instant_share_a_simulation(self, ieee39_eq06,
                                                                     monkeypatch):
        net, eq = ieee39_eq06
        runs = []
        batch, single = labeling.run_simulations, labeling.run_simulation
        monkeypatch.setattr(labeling, "run_simulations",
                            lambda *a: runs.append(a[3]) or batch(*a))
        monkeypatch.setattr(labeling, "run_simulation",
                            lambda *a: runs.append([a[3]]) or single(*a))
        # 1.15 s is a sample instant; 5e-10 s off it snaps onto it
        durations = [0.15, 0.15 + 5e-10]
        assert round(durations[0], 12) != round(durations[1], 12)
        a, b = cached_traces({}, net, eq, FaultSpec(13, 0.5), durations, duration_s=1.6)
        assert a is b
        assert runs == [[0.15]]
        assert a.clear_time_s == clearing_instant(1.0, 0.15 + 5e-10, 0.01)

    def test_unknown_criterion_rejected(self, ieee39_eq06):
        net, eq = ieee39_eq06
        with pytest.raises(ValueError, match="criterion"):
            find_cct_simulated(net, eq, FaultSpec(13, 0.5), "frequency")


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
