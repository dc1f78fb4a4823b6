import io
from dataclasses import replace

import numpy as np
import pytest

from tsakit import tds
from tsakit.grid_model import (
    Bus,
    CompositeLoad,
    FaultSpec,
    Generator,
    Line,
    MotorParams,
    Network,
    build_admittance,
)
from tsakit.tds import (
    NOMINAL_SLIP,
    MotorCircuit,
    PowerFlowError,
    Scenario,
    clearing_time_s,
    run_simulation,
    run_simulations,
    solve_equilibrium,
    write_stream,
)

MOTOR = MotorParams(
    stator_r=0.02, stator_x=0.1, rotor_r=0.02, rotor_x=0.12,
    magnetizing_x=3.0, inertia_h=0.6, load_torque_exponent=2.0,
)
CIRCUIT = MotorCircuit(0.02, 0.1, 0.02, 0.12, 3.0)  # MOTOR's equivalent circuit


def circuit_of(mp):
    return MotorCircuit(mp.stator_r, mp.stator_x, mp.rotor_r, mp.rotor_x, mp.magnetizing_x)


def two_bus(p_load=0.8, q_load=0.2, motor_fraction=0.0, x_line=0.2):
    return Network(
        buses=(Bus(0, 345.0, "slack"), Bus(1, 345.0, "pq")),
        lines=(Line(0, 1, complex(0.0, x_line)),),
        generators=(Generator(0, 5.0, 2.0, 0.1, p_load, 1.05),),
        loads=(CompositeLoad(1, p_load, q_load, motor_fraction, MOTOR),)
        if p_load > 0.0
        else (),
    )


def nodal_system(net, eq, rotor_angles, motor_slips, state="prefault", fault=None):
    """Oracle: the full nodal matrix Y and injection I of the dynamic model.

    Y holds the topology, the static loads, the generators' Norton
    admittances and the motors' admittances at the given slips; I the
    generators' Norton currents at the given rotor angles.
    """
    n = net.n_bus
    y = build_admittance(net, state, fault)
    y[np.arange(n), np.arange(n)] += eq.static_admittance
    inj = np.zeros(y.shape[0], dtype=complex)
    for g_i, gen in enumerate(net.generators):
        y_g = 1.0 / (1j * gen.xd_prime)
        y[gen.bus, gen.bus] += y_g
        inj[gen.bus] += eq.gen_e_prime[g_i] * np.exp(1j * rotor_angles[g_i]) * y_g
    motors = [ld.motor_params for ld in net.loads if ld.motor_fraction * ld.p_total > 0.0]
    for i, (b, mp) in enumerate(zip(eq.motor_bus, motors)):
        y[b, b] += eq.motor_scale[i] * circuit_of(mp).admittance(motor_slips[i])
    return y, inj


# ---------------------------------------------------------------------------
# Motor equivalent circuit
# ---------------------------------------------------------------------------


class TestMotorCircuit:
    def circuit_solve(self, rs, xs, rr, xr, xm, s, v):
        """Oracle: direct ladder solve of the equivalent circuit."""
        z_s = complex(rs, xs)
        z_m = complex(0.0, xm)
        z_r = rr / s + 1j * xr
        z_par = z_m * z_r / (z_m + z_r)
        i_in = v / (z_s + z_par)
        v_gap = v - i_in * z_s
        i_r = v_gap / z_r
        return i_in, i_r

    def test_admittance_matches_circuit(self, rng):
        for _ in range(50):
            s = rng.uniform(0.002, 0.95)
            v = rng.uniform(0.5, 1.2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            y = CIRCUIT.admittance(s)
            i_in, _ = self.circuit_solve(0.02, 0.1, 0.02, 0.12, 3.0, s, v)
            assert abs(y * v - i_in) < 1e-12

    def test_torque_matches_circuit(self, rng):
        for _ in range(50):
            s = rng.uniform(0.002, 0.95)
            v = rng.uniform(0.5, 1.2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            t = CIRCUIT.torque(s, v)
            _, i_r = self.circuit_solve(0.02, 0.1, 0.02, 0.12, 3.0, s, v)
            assert abs(t - abs(i_r) ** 2 * 0.02 / s) < 1e-12

    def test_torque_sign_follows_slip(self):
        assert CIRCUIT.torque(0.05, 1.0) > 0.0
        assert CIRCUIT.torque(-0.05, 1.0) < 0.0

    def test_zero_slip_guard_is_finite(self):
        y = CIRCUIT.admittance(0.0)
        t = CIRCUIT.torque(0.0, 1.0)
        assert np.isfinite(y) and np.isfinite(t)
        # rotor branch is essentially open at zero slip
        assert abs(t) < 1e-6

    def test_vectorized_matches_scalar(self, rng):
        slips = rng.uniform(0.01, 0.5, size=8)
        volts = rng.uniform(0.6, 1.1, size=8) * np.exp(1j * rng.uniform(-1, 1, size=8))
        ys = CIRCUIT.admittance(slips)
        ts = CIRCUIT.torque(slips, volts)
        for i in range(8):
            assert abs(ys[i] - CIRCUIT.admittance(slips[i])) < 1e-15
            assert abs(ts[i] - CIRCUIT.torque(slips[i], volts[i])) < 1e-15


# ---------------------------------------------------------------------------
# Equilibrium
# ---------------------------------------------------------------------------


class TestEquilibrium:
    def test_two_bus_against_fixed_point_oracle(self):
        """Independent oracle: Gauss fixed-point iteration on the 2-bus system.

        Source EMF behind xd_prime plus the line gives a single series
        reactance; iterating V = E - Z conj(S / V) converges for light load
        and is an algorithm unrelated to the Newton solve under test.
        """
        p_load, q_load, x_line = 0.8, 0.2, 0.2
        net = two_bus(p_load, q_load, motor_fraction=0.0, x_line=x_line)
        eq = solve_equilibrium(net)
        z = complex(0.0, x_line + 0.1)  # line plus machine reactance
        e = 1.05
        s_load = complex(p_load, q_load)
        v = complex(e, 0.0)
        for _ in range(200):
            v = e - z * np.conj(s_load / v)
        # the oracle frame puts the EMF at angle zero; align before comparing
        v_eq = eq.v_bus[1] * np.exp(-1j * eq.gen_delta[0])
        assert abs(v_eq - v) < 1e-9
        # lossless network: mechanical power equals the load power
        assert abs(eq.gen_p_mech[0] - p_load) < 1e-9

    def test_zero_load_flat_profile(self):
        net = two_bus(p_load=0.0)
        eq = solve_equilibrium(net)
        assert np.max(np.abs(np.abs(eq.v_bus) - 1.05)) < 1e-10
        assert np.max(np.abs(np.angle(eq.v_bus))) < 1e-10
        assert abs(eq.gen_delta[0]) < 1e-10

    def test_ieee39_converges_tight(self, ieee39_eq06):
        _, eq = ieee39_eq06
        assert eq.mismatch_norm < 1e-8
        assert eq.iterations <= 50

    def test_ieee39_voltage_sanity(self, ieee39_eq06):
        _, eq = ieee39_eq06
        vm = np.abs(eq.v_bus)
        assert vm.min() > 0.9 and vm.max() < 1.1

    def test_load_consumption_matches_specification(self, ieee39_eq06):
        """The motor plus static split must draw exactly the specified load."""
        net, eq = ieee39_eq06
        motor_idx = {int(b): i for i, b in enumerate(eq.motor_bus)}
        for ld in net.loads:
            v = eq.v_bus[ld.bus]
            y_total = eq.static_admittance[ld.bus]
            if ld.bus in motor_idx:
                i = motor_idx[ld.bus]
                circuit = circuit_of(ld.motor_params)
                y_total = y_total + eq.motor_scale[i] * circuit.admittance(eq.motor_slip[i])
            s_drawn = abs(v) ** 2 * np.conj(y_total)
            assert abs(s_drawn - complex(ld.p_total, ld.q_total)) < 1e-12

    def test_motor_torque_balance_at_equilibrium(self, ieee39_eq06):
        net, eq = ieee39_eq06
        motors = [ld for ld in net.loads if ld.motor_fraction * ld.p_total > 0.0]
        for i, ld in enumerate(motors):
            mp = ld.motor_params
            t_e = circuit_of(mp).torque(eq.motor_slip[i], eq.v_bus[ld.bus])
            t_l = eq.motor_load_torque[i] * (1.0 - eq.motor_slip[i]) ** mp.load_torque_exponent
            assert abs(t_e - t_l) < 1e-12

    def test_kcl_residual_of_dynamic_model(self, ieee39_eq06):
        """The equilibrium must satisfy the dynamic model's nodal equations."""
        net, eq = ieee39_eq06
        y, inj = nodal_system(net, eq, eq.gen_delta, eq.motor_slip)
        residual = y @ eq.v_bus - inj
        assert np.max(np.abs(residual)) < 1e-9

    def test_motor_count_follows_fraction(self, ieee39):
        eq = solve_equilibrium(ieee39.with_motor_fraction(0.5))
        assert eq.motor_bus.size == len(ieee39.loads)
        eq0 = solve_equilibrium(ieee39.with_motor_fraction(0.0))
        assert eq0.motor_bus.size == 0

    def test_deterministic(self, ieee39):
        net = ieee39.with_motor_fraction(0.6)
        a = solve_equilibrium(net)
        b = solve_equilibrium(net)
        assert np.array_equal(a.v_bus, b.v_bus)
        assert np.array_equal(a.gen_p_mech, b.gen_p_mech)

    def test_infeasible_load_raises(self):
        net = two_bus(p_load=50.0, q_load=10.0)
        with pytest.raises(PowerFlowError):
            solve_equilibrium(net)

    def test_no_generator_at_slack_raises(self):
        net = Network(
            buses=(Bus(0, 345.0, "slack"), Bus(1, 345.0, "pq")),
            lines=(Line(0, 1, complex(0.0, 0.2)),),
            generators=(Generator(1, 5.0, 2.0, 0.1, 0.5, 1.05),),
            loads=(),
        )
        with pytest.raises(PowerFlowError, match="slack"):
            solve_equilibrium(net)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class TestSimulation:
    def test_equilibrium_persists_without_fault(self, ieee39_eq06):
        net, eq = ieee39_eq06
        trace = run_simulation(net, eq, duration_s=10.0)
        assert not trace.diverged
        drift = np.max(np.abs(trace.rotor_angles - trace.rotor_angles[0]))
        assert drift < 1e-8
        assert np.max(np.abs(trace.bus_v_mag - trace.bus_v_mag[0])) < 1e-9
        assert np.max(np.abs(trace.motor_slips - trace.motor_slips[0])) < 1e-10

    def test_two_motor_loads_on_one_bus_stay_at_equilibrium(self, ieee39_eq06):
        """Load 0 split into two half loads on its bus: both motors must count."""
        net, _ = ieee39_eq06
        first = net.loads[0]
        half = replace(first, p_total=0.5 * first.p_total, q_total=0.5 * first.q_total)
        split = replace(net, loads=(half, half, *net.loads[1:]))
        eq = solve_equilibrium(split)
        assert list(eq.motor_bus[:2]) == [first.bus, first.bus]
        trace = run_simulation(split, eq, duration_s=2.0)
        assert not trace.diverged
        drift = np.max(np.abs(trace.rotor_angles - trace.rotor_angles[0]))
        assert drift < 1e-8
        assert np.max(np.abs(trace.bus_v_mag - trace.bus_v_mag[0])) < 1e-9
        assert np.max(np.abs(trace.motor_slips - trace.motor_slips[0])) < 1e-10

    def test_recorded_voltages_solve_the_full_nodal_equations(self, ieee39_eq06):
        """Recorded steps before, during and after the fault satisfy Y V = I.

        Y takes the recorded slips' motor admittances, I the recorded rotor
        angles. The faulted network's midpoint node is not recorded, so its
        voltage is taken from its own (source-free) row.
        """
        net, eq = ieee39_eq06
        fault = FaultSpec(13, 0.5)
        trace = run_simulation(net, eq, fault, clear_s=0.1, duration_s=2.0)
        n = net.n_bus
        for k, state in ((50, "prefault"), (105, "faulted"), (150, "postfault"), (200, "postfault")):
            y, inj = nodal_system(
                net, eq, trace.rotor_angles[k], trace.motor_slips[k], state, fault
            )
            v = trace.bus_v_mag[k] * np.exp(1j * trace.bus_v_ang[k])
            if state == "faulted":
                v = np.append(v, -(y[n, :n] @ v) / y[n, n])
            assert np.max(np.abs(y @ v - inj)[:n]) < 1e-9, (k, state)

    def test_trace_shapes_and_grid(self, ieee39_eq06):
        net, eq = ieee39_eq06
        trace = run_simulation(net, eq, duration_s=2.0, step_s=0.01)
        assert trace.n_steps == 201
        assert trace.rotor_angles.shape == (201, 10)
        assert trace.bus_v_mag.shape == (201, 39)
        assert trace.motor_slips.shape == (201, 19)
        dt = np.diff(trace.times)
        assert np.max(np.abs(dt - 0.01)) < 1e-12
        assert np.all(trace.bus_v_mag >= 0.0)

    def test_cleared_fault_recovers(self, ieee39_eq06):
        net, eq = ieee39_eq06
        sc = Scenario(FaultSpec(13, 0.5), 0.6, clearing_cycles=5.0)
        trace = run_simulation(net, eq, sc.fault, clearing_time_s(sc, net.nominal_hz))
        assert not trace.diverged
        spread = np.degrees(
            trace.rotor_angles.max(axis=1) - trace.rotor_angles.min(axis=1)
        )
        assert spread.max() < 180.0
        # voltage dips hard at the faulted line ends while the fault is on
        k_on = 100  # t = 1.0 s
        assert trace.bus_v_mag[k_on, 7] < 0.6
        # and the system settles near a post-fault operating point: the swing
        # comes back down and every load bus voltage recovers
        assert spread[-1] < spread.max()
        assert trace.bus_v_mag[-1, trace.load_buses].min() > 0.8

    def test_uncleared_fault_loses_synchronism(self, ieee39_eq06):
        net, eq = ieee39_eq06
        trace = run_simulation(
            net, eq, fault=FaultSpec(13, 0.5), clear_s=20.0, duration_s=5.0
        )
        spread = np.degrees(
            trace.rotor_angles.max(axis=1) - trace.rotor_angles.min(axis=1)
        )
        assert spread.max() >= 180.0

    def test_off_grid_clearing_time_is_handled(self, ieee39_eq06):
        """Clearing inside a step splits that step; the grid stays uniform."""
        net, eq = ieee39_eq06
        trace = run_simulation(
            net, eq, fault=FaultSpec(13, 0.5), clear_s=0.08371, duration_s=3.0
        )
        assert not trace.diverged
        assert trace.n_steps == 301
        assert np.max(np.abs(np.diff(trace.times) - 0.01)) < 1e-12
        assert np.all(np.isfinite(trace.bus_v_mag))
        assert trace.clear_time_s == pytest.approx(1.08371)

    def test_severity_orders_with_clearing_time(self, ieee39_eq06):
        net, eq = ieee39_eq06
        spreads = []
        for cycles in (3.0, 9.0):
            sc = Scenario(FaultSpec(13, 0.5), 0.6, clearing_cycles=cycles)
            tr = run_simulation(net, eq, sc.fault, clearing_time_s(sc, net.nominal_hz))
            spreads.append(
                np.degrees(np.max(tr.rotor_angles.max(axis=1) - tr.rotor_angles.min(axis=1)))
            )
        assert spreads[0] < spreads[1]

    def test_motor_fraction_mismatch_rejected(self, ieee39_eq06):
        """A 0.6-share equilibrium on the 0.7-share network: same motor buses,
        other motor scales, so only the share check can catch it."""
        net, eq = ieee39_eq06
        with pytest.raises(ValueError, match="motor fraction"):
            run_simulation(net.with_motor_fraction(0.7), eq, FaultSpec(13, 0.5), 5.0 / 60.0)
        with pytest.raises(ValueError, match="motor fraction"):
            run_simulations(net.with_motor_fraction(0.7), eq, None, [None])

    def test_clearing_time_conversion(self):
        sc = Scenario(None, None, clearing_cycles=6.0)
        assert clearing_time_s(sc, 60.0) == pytest.approx(0.1)
        assert clearing_time_s(sc, 50.0) == pytest.approx(0.12)
        with pytest.raises(ValueError):
            clearing_time_s(sc, 0.0)

    def test_invalid_run_arguments(self, ieee39_eq06):
        net, eq = ieee39_eq06
        with pytest.raises(ValueError):
            run_simulation(net, eq, duration_s=-1.0)
        with pytest.raises(ValueError):
            run_simulation(net, eq, fault=FaultSpec(13, 0.5), clear_s=None)
        with pytest.raises(ValueError):
            run_simulation(net, eq, fault=FaultSpec(13, 0.5), clear_s=0.1, fault_start_s=20.0)


TRACE_FIELDS = ("times", "rotor_angles", "bus_v_mag", "bus_v_ang", "motor_slips")


def same_trace(a, b):
    """Bit-for-bit equality of two traces, signed zeros and NaN payloads included."""
    return (
        all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in TRACE_FIELDS)
        and (a.fault_start_s, a.clear_time_s, a.diverged, a.diverged_step)
        == (b.fault_start_s, b.clear_time_s, b.diverged, b.diverged_step)
    )


class TestLockstep:
    FAULT = FaultSpec(13, 0.5)
    # 1 cycle and 0.08371 s clear inside a step (split), 0.1 s on a grid point;
    # from 1.0167 s to 1.5 s some members are faulted while others are cleared
    CLEARS = [0.05, 1.0 / 60.0, 0.5, 0.08371, 0.1]

    def test_matches_single_runs_bit_for_bit(self, ieee39_eq06):
        net, eq = ieee39_eq06
        batch = run_simulations(net, eq, self.FAULT, self.CLEARS, duration_s=1.6)
        assert len(batch) == len(self.CLEARS)
        for clear_s, trace in zip(self.CLEARS, batch):
            alone = run_simulation(net, eq, self.FAULT, clear_s, duration_s=1.6)
            assert same_trace(trace, alone), clear_s

    def test_both_switching_instants_inside_one_step(self, ieee39_eq06, monkeypatch):
        """Off the sample grid, a 0.004 s fault splits step 100 in three for its
        member; a 0.05 s member clears in a later step."""
        net, eq = ieee39_eq06
        spans = []  # (h, phase) of member 0 in each span of a split step
        rk4 = tds._rk4_span

        def spy(model, phase, h, x, k1):
            if np.ndim(h):
                spans.append((float(h[0, 0]), int(phase[0])))
            return rk4(model, phase, h, x, k1)

        monkeypatch.setattr(tds, "_rk4_span", spy)
        batch = run_simulations(net, eq, self.FAULT, [0.004, 0.05], fault_start_s=1.003,
                                duration_s=1.1)
        assert [phase for _, phase in spans[:3]] == [0, 1, 2]
        assert [h for h, _ in spans[:3]] == pytest.approx([0.003, 0.004, 0.003], abs=1e-12)
        monkeypatch.undo()
        alone = run_simulation(net, eq, self.FAULT, 0.004, fault_start_s=1.003, duration_s=1.1)
        assert same_trace(batch[0], alone)

    def test_member_order_does_not_matter(self, ieee39_eq06):
        net, eq = ieee39_eq06
        forward = run_simulations(net, eq, self.FAULT, self.CLEARS, duration_s=1.3)
        backward = run_simulations(net, eq, self.FAULT, self.CLEARS[::-1], duration_s=1.3)
        for a, b in zip(forward, backward[::-1]):
            assert same_trace(a, b)

    def test_without_fault(self, ieee39_eq06):
        net, eq = ieee39_eq06
        batch = run_simulations(net, eq, None, [None, 0.1], duration_s=0.5)
        alone = run_simulation(net, eq, duration_s=0.5)
        for trace in batch:
            assert trace.clear_time_s is None and trace.fault_start_s is None
            assert same_trace(trace, alone)

    def test_invalid_arguments(self, ieee39_eq06):
        net, eq = ieee39_eq06
        with pytest.raises(ValueError, match="positive"):
            run_simulations(net, eq, self.FAULT, [0.1], duration_s=0.0)
        for clears in ([0.1, None], [0.1, 0.0], [-0.1]):
            with pytest.raises(ValueError, match="clearing"):
                run_simulations(net, eq, self.FAULT, clears)
        with pytest.raises(ValueError, match="fault start"):
            run_simulations(net, eq, self.FAULT, [0.1], fault_start_s=20.0)
        with pytest.raises(ValueError):
            run_simulations(net, eq, FaultSpec(999, 0.5), [0.1])
        assert run_simulations(net, eq, self.FAULT, []) == []

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_stays_with_its_member(self, ieee39_eq06, monkeypatch):
        """A member that loses synchronism is made to blow up; only it stops."""
        net, eq = ieee39_eq06
        clears = [0.3, 0.1, 0.5]
        healthy = run_simulation(net, eq, self.FAULT, 0.1, duration_s=2.0)
        rhs = tds._DynamicModel.rhs

        def blow_up_past_180_degrees(model, phase, x, record=False):
            dx, v = rhs(model, phase, x, record)
            delta = x[:, : model.n_gen]
            dx[delta.max(axis=1) - delta.min(axis=1) > np.pi] = np.nan
            return dx, v

        monkeypatch.setattr(tds._DynamicModel, "rhs", blow_up_past_180_degrees)
        batch = run_simulations(net, eq, self.FAULT, clears, duration_s=2.0)
        alone = [run_simulation(net, eq, self.FAULT, c, duration_s=2.0) for c in clears]
        assert [t.diverged for t in batch] == [True, False, True]
        assert batch[0].diverged_step != batch[2].diverged_step
        for a, b in zip(batch, alone):
            assert same_trace(a, b)
        assert same_trace(batch[1], healthy)
        k = batch[0].diverged_step
        assert np.array_equal(batch[0].rotor_angles[k:], np.repeat(
            batch[0].rotor_angles[k - 1 : k], batch[0].n_steps - k, axis=0))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_singular_post_fault_network_diverges_at_clearing(self):
        """Removing the faulted line strands a bare bus: the post-fault nodal
        matrix is singular, so every member diverges when its fault clears."""
        net = Network(
            buses=(Bus(0, 345.0, "slack"), Bus(1, 345.0, "pq"), Bus(2, 345.0, "pq")),
            lines=(Line(0, 1, complex(0.0, 0.2)), Line(1, 2, complex(0.0, 0.1))),
            generators=(Generator(0, 5.0, 2.0, 0.1, 0.8, 1.05),),
            loads=(CompositeLoad(1, 0.8, 0.2, 0.5, MOTOR),),
        )
        eq = solve_equilibrium(net)
        batch = run_simulations(net, eq, FaultSpec(1, 0.5), [0.05, 0.1], duration_s=1.5)
        assert [t.diverged_step for t in batch] == [105, 110]
        for t in batch:
            assert np.all(np.isfinite(t.bus_v_mag))

    def test_recorded_voltages_reuse_the_first_stage_solve(self, ieee39_eq06, monkeypatch):
        """Four network solves per RK4 step, plus one for the last sample."""
        net, eq = ieee39_eq06
        calls = []
        solve = tds._solve_stack
        monkeypatch.setattr(tds, "_solve_stack", lambda y, inj: calls.append(1) or solve(y, inj))
        trace = run_simulation(net, eq, duration_s=0.1)
        assert len(calls) == 4 * (trace.n_steps - 1) + 1

    def test_singular_member_does_not_fail_the_stack(self, ieee39_eq06, rng):
        """A reduced 19x19 system made singular loses only its own member."""
        net, eq = ieee39_eq06
        model = tds._DynamicModel(net, eq, self.FAULT)
        nm = model.n_motor
        y_motor = rng.uniform(0.5, 2.0, (3, nm)) * np.exp(1j * rng.uniform(-1.0, 0.0, (3, nm)))
        a = model.z_mm[[tds._PRE, tds._FAULT, tds._POST]] * y_motor[:, None, :]
        a[:, np.arange(nm), np.arange(nm)] += 1.0
        a[1, :, 3] = 0.0  # I + Z_MM diag(y_m) with a zero column
        b = rng.standard_normal((3, nm)) + 0j
        v = tds._solve_stack(a, b)
        assert np.all(np.isnan(v[1]))
        for i in (0, 2):
            assert v[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()


# ---------------------------------------------------------------------------
# Monitoring stream
# ---------------------------------------------------------------------------


class TestTraceIO:
    def small_trace(self, ieee39_eq06):
        net, eq = ieee39_eq06
        return run_simulation(
            net, eq, fault=FaultSpec(2, 0.3), clear_s=0.1, duration_s=1.5
        )

    def test_stream_round_trips_exact_values(self, ieee39_eq06):
        trace = self.small_trace(ieee39_eq06)
        buf = io.StringIO()
        write_stream(trace, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == trace.n_steps
        k = 37
        vals = [float(tok) for tok in lines[k].split(",")]
        assert vals[0] == trace.times[k]
        assert vals[1 : 1 + 39] == list(trace.bus_v_mag[k])
        assert vals[1 + 39 :] == list(trace.bus_v_ang[k])
