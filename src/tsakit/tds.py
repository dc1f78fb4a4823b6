"""Time-domain simulation: network equilibrium and transient dynamics.

Machine model is the classical second-order swing equation (constant EMF
behind transient reactance). Composite loads are a first-order induction
motor (slip dynamics, steady-state equivalent circuit) plus a constant
impedance remainder. The network is algebraic: at every integrator stage the
complex nodal equation Y(s) V = I(delta) is solved, with generator internal
sources folded in as Norton equivalents and motor admittances refreshed from
the current slips.

In each topology phase (pre-fault, faulted, post-fault) Y(s) is a constant
matrix plus the motor admittances on the motor buses' diagonals, and current
is injected only at the generator buses. Each phase's constant part is
inverted once, and every stage solves the network reduced to the motor
terminals (the Woodbury identity; network reduction as in Kundur, Power
System Stability and Control, ch. 13): one 19x19 system for the bundled
network, whichever the phase.

Integration is fixed-step RK4, run in lockstep for all clearing times of one
fault context (run_simulations; run_simulation is its one-member case). The
members share one (members, state) array, and each RK4 stage solves all
members' reduced systems as one stacked np.linalg.solve, members in
different phases included. A stacked solve gives the same bits as one solve
per matrix and every product is stacked per member, so every member's trace
is bit for bit its trace run alone. The bus voltages recorded at a step come
from the step's first stage, the only stage that forms all of them.

Topology switches (fault on, fault cleared) that fall inside a step split
that step into exact sub-intervals for the member concerned, so the
recorded grid stays uniform while discontinuities land on stage boundaries.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace
from typing import IO

import numpy as np

from .grid_model import (
    CompositeLoad,
    FaultSpec,
    Network,
    build_admittance,
    validate_fault,
)

# Operating slip assigned to every motor at equilibrium. The motor's MVA scale
# is then chosen so it draws exactly its share of the bus load at this slip.
NOMINAL_SLIP = 0.02

# Guard against division by slip ~ 0 in the rotor branch.
_SLIP_EPS = 1e-9


class PowerFlowError(RuntimeError):
    """Equilibrium solve failed to converge or the network equations are singular."""


@dataclass(frozen=True)
class Scenario:
    """One fault case: where, how the load is composed, and how fast it clears.

    clearing_cycles is a float so continuation searches can probe between the
    integer grid values. motor_fraction None means "keep the shares already in
    the network file".
    """

    fault: FaultSpec | None
    motor_fraction: float | None
    clearing_cycles: float
    fault_start_s: float = 1.0
    duration_s: float = 10.0
    step_s: float = 0.01


def clearing_time_s(scenario: Scenario, nominal_hz: float) -> float:
    """Fault duration in seconds for a clearing time given in cycles."""
    if nominal_hz <= 0.0:
        raise ValueError("nominal frequency must be positive")
    return scenario.clearing_cycles / nominal_hz


@dataclass
class Trace:
    """Sampled trajectory of one simulation on the grid t = 0, step, ..., duration."""

    times: np.ndarray  # (n_steps,)
    rotor_angles: np.ndarray  # (n_steps, n_gen), rad, continuous
    bus_v_mag: np.ndarray  # (n_steps, n_bus), pu
    bus_v_ang: np.ndarray  # (n_steps, n_bus), rad, wrapped
    motor_slips: np.ndarray  # (n_steps, n_motor)
    step_s: float
    slack_bus: int
    load_buses: np.ndarray  # bus ids carrying load, for the voltage criterion
    fault_start_s: float | None
    clear_time_s: float | None  # absolute time the fault is removed
    diverged: bool = False
    diverged_step: int | None = None

    @property
    def n_steps(self) -> int:
        return self.times.shape[0]


# ---------------------------------------------------------------------------
# Induction motor equivalent circuit (machine base)
# ---------------------------------------------------------------------------


def _guard_slip(slip):
    s = np.asarray(slip, dtype=float)
    return np.where(np.abs(s) < _SLIP_EPS, np.where(s < 0.0, -_SLIP_EPS, _SLIP_EPS), s)


class _MotorCircuit:
    """The motor equivalent circuit with its slip-independent parts precomputed.

    The simulator evaluates it at every integrator stage, so the impedances
    that do not depend on slip are formed once.
    """

    def __init__(self, rs, xs, rr, xr, xm):
        self.rr = np.asarray(rr, dtype=float)
        self.j_xr = 1j * np.asarray(xr, dtype=float)
        self.z_mag = 1j * np.asarray(xm, dtype=float)
        self.z_st = np.asarray(rs, dtype=float) + 1j * np.asarray(xs, dtype=float)
        self.z_st_mag = self.z_st + self.z_mag
        self.z_th = self.z_st * self.z_mag / self.z_st_mag

    def admittance(self, slip):
        s = _guard_slip(slip)
        z_rot = self.rr / s + self.j_xr
        return 1.0 / (self.z_st + (self.z_mag * z_rot) / (self.z_mag + z_rot))

    def torque(self, slip, v_term):
        s = _guard_slip(slip)
        v_th = np.asarray(v_term) * self.z_mag / self.z_st_mag
        i_rot = v_th / (self.z_th + self.rr / s + self.j_xr)
        return np.abs(i_rot) ** 2 * self.rr / s


def motor_input_admittance(rs, xs, rr, xr, xm, slip):
    """Admittance seen from the stator terminals at a given slip."""
    return _MotorCircuit(rs, xs, rr, xr, xm).admittance(slip)


def motor_torque(rs, xs, rr, xr, xm, slip, v_term):
    """Electrical (air-gap) torque in machine pu for terminal voltage v_term.

    Uses the Thevenin reduction across the magnetizing branch; torque equals
    air-gap power in pu at synchronous-speed base.
    """
    return _MotorCircuit(rs, xs, rr, xr, xm).torque(slip, v_term)


# ---------------------------------------------------------------------------
# Newton power flow (generic node-type formulation)
# ---------------------------------------------------------------------------

KIND_SLACK, KIND_PV, KIND_PQ = 0, 1, 2


def newton_power_flow(
    y_mat: np.ndarray,
    kinds: np.ndarray,
    p_spec: np.ndarray,
    q_spec: np.ndarray,
    vm: np.ndarray,
    va: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 50,
):
    """Full-Newton polar power flow on an arbitrary node set.

    kinds: per node, 0 slack (V, angle fixed), 1 PV (P, |V| fixed),
    2 PQ (P, Q fixed). Returns (V, mismatch_inf, iterations, converged).
    """
    kinds = np.asarray(kinds)
    vm = np.array(vm, dtype=float)
    va = np.array(va, dtype=float)
    pvpq = np.flatnonzero(kinds != KIND_SLACK)
    pq = np.flatnonzero(kinds == KIND_PQ)
    npvpq = pvpq.size
    v = vm * np.exp(1j * va)
    mismatch = np.inf
    for iteration in range(max_iter + 1):
        i_bus = y_mat @ v
        s_calc = v * np.conj(i_bus)
        f = np.concatenate(
            [s_calc.real[pvpq] - p_spec[pvpq], s_calc.imag[pq] - q_spec[pq]]
        )
        mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        if mismatch < tol:
            return v, mismatch, iteration, True
        if iteration == max_iter:
            break
        v_norm = v / np.abs(v)
        ds_dva = 1j * v[:, None] * np.conj(np.diag(i_bus) - y_mat * v[None, :])
        ds_dvm = v[:, None] * np.conj(y_mat * v_norm[None, :])
        ds_dvm[np.diag_indices_from(ds_dvm)] += np.conj(i_bus) * v_norm
        jac = np.block(
            [
                [ds_dva.real[np.ix_(pvpq, pvpq)], ds_dvm.real[np.ix_(pvpq, pq)]],
                [ds_dva.imag[np.ix_(pq, pvpq)], ds_dvm.imag[np.ix_(pq, pq)]],
            ]
        )
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {iteration}") from exc
        va[pvpq] += dx[:npvpq]
        vm[pq] += dx[npvpq:]
        v = vm * np.exp(1j * va)
    return v, mismatch, max_iter, False


# ---------------------------------------------------------------------------
# Equilibrium
# ---------------------------------------------------------------------------


@dataclass
class EquilibriumState:
    """Consistent pre-fault operating point of the dynamic model.

    Machine powers and the load admittance split are re-derived from the
    solved voltages, so the dynamic equations are stationary at this point to
    rounding accuracy rather than just to power-flow tolerance.
    """

    v_bus: np.ndarray  # (n_bus,) complex terminal voltages
    gen_delta: np.ndarray  # (n_gen,) internal angles, rad
    gen_e_prime: np.ndarray  # (n_gen,) EMF magnitudes
    gen_p_mech: np.ndarray  # (n_gen,) mechanical powers at equilibrium
    motor_bus: np.ndarray  # (n_motor,) bus id per motor
    motor_slip: np.ndarray  # (n_motor,) operating slips
    motor_scale: np.ndarray  # (n_motor,) MVA scale to system base
    motor_torque0: np.ndarray  # (n_motor,) load torque at zero-speed-deviation base
    static_admittance: np.ndarray  # (n_bus,) constant load admittance
    mismatch_norm: float
    iterations: int
    motor_fraction: float | None


def _motor_loads(network: Network) -> list[CompositeLoad]:
    return [ld for ld in network.loads if ld.motor_fraction * ld.p_total > 0.0]


def solve_equilibrium(
    network: Network, tol: float = 1e-10, max_iter: int = 50
) -> EquilibriumState:
    """Solve the pre-fault equilibrium of the full differential-algebraic model.

    The network equations are augmented with one internal node per generator,
    held at its EMF magnitude behind xd_prime (PV node, P = p_mech). The
    machine at the slack bus provides the reference node and absorbs the power
    imbalance. Loads enter as PQ injections and are split into motor and
    static parts afterwards at the solved voltage.
    """
    n = network.n_bus
    gens = network.generators
    ng = len(gens)
    if ng == 0:
        raise PowerFlowError("network has no generators")
    slack = network.slack_bus
    slack_gen = next((i for i, g in enumerate(gens) if g.bus == slack), None)
    if slack_gen is None:
        raise PowerFlowError("no generator at the slack bus")

    size = n + ng
    y_aug = np.zeros((size, size), dtype=complex)
    y_aug[:n, :n] = build_admittance(network, "prefault")
    gb = np.array([g.bus for g in gens])
    y_gen = np.array([1.0 / (1j * g.xd_prime) for g in gens])
    for i, g in enumerate(gens):
        node = n + i
        y_aug[node, node] += y_gen[i]
        y_aug[g.bus, g.bus] += y_gen[i]
        y_aug[node, g.bus] -= y_gen[i]
        y_aug[g.bus, node] -= y_gen[i]

    kinds = np.full(size, KIND_PQ)
    kinds[n:] = KIND_PV
    kinds[n + slack_gen] = KIND_SLACK
    p_spec = np.zeros(size)
    q_spec = np.zeros(size)
    for ld in network.loads:
        p_spec[ld.bus] -= ld.p_total
        q_spec[ld.bus] -= ld.q_total
    for i, g in enumerate(gens):
        p_spec[n + i] = g.p_mech
    vm = np.ones(size)
    vm[n:] = [g.e_prime_mag for g in gens]
    va = np.zeros(size)

    v_aug, mismatch, iterations, converged = newton_power_flow(
        y_aug, kinds, p_spec, q_spec, vm, va, tol=tol, max_iter=max_iter
    )
    if not converged:
        raise PowerFlowError(
            f"equilibrium did not converge in {max_iter} iterations "
            f"(mismatch {mismatch:.3e})"
        )

    v_bus = v_aug[:n]
    e_int = v_aug[n:]
    i_gen = (e_int - v_bus[gb]) * y_gen
    p_mech = np.real(e_int * np.conj(i_gen))

    # Split each load at the solved voltage: the motor draws its power share at
    # the nominal slip, the remainder becomes constant admittance. Consumption
    # at v_bus then matches the specified load exactly.
    motor_bus, motor_slip, motor_scale, motor_t0 = [], [], [], []
    y_static = np.zeros(n, dtype=complex)
    for ld in network.loads:
        v_here = v_bus[ld.bus]
        v2 = abs(v_here) ** 2
        s_total = complex(ld.p_total, ld.q_total)
        s_motor = 0j
        p_motor = ld.motor_fraction * ld.p_total
        if p_motor > 0.0:
            mp = ld.motor_params
            y_machine = motor_input_admittance(
                mp.stator_r, mp.stator_x, mp.rotor_r, mp.rotor_x, mp.magnetizing_x, NOMINAL_SLIP
            )
            scale = p_motor / (v2 * y_machine.real)
            s_motor = v2 * np.conj(scale * y_machine)
            torque = motor_torque(
                mp.stator_r, mp.stator_x, mp.rotor_r, mp.rotor_x, mp.magnetizing_x,
                NOMINAL_SLIP, v_here,
            )
            motor_bus.append(ld.bus)
            motor_slip.append(NOMINAL_SLIP)
            motor_scale.append(scale)
            motor_t0.append(float(torque) / (1.0 - NOMINAL_SLIP) ** mp.load_torque_exponent)
        y_static[ld.bus] += np.conj(s_total - s_motor) / v2

    fractions = {ld.motor_fraction for ld in network.loads}
    uniform = fractions.pop() if len(fractions) == 1 else None
    return EquilibriumState(
        v_bus=v_bus,
        gen_delta=np.angle(e_int),
        gen_e_prime=np.abs(e_int),
        gen_p_mech=p_mech,
        motor_bus=np.array(motor_bus, dtype=int),
        motor_slip=np.array(motor_slip, dtype=float),
        motor_scale=np.array(motor_scale, dtype=float),
        motor_torque0=np.array(motor_t0, dtype=float),
        static_admittance=y_static,
        mismatch_norm=mismatch,
        iterations=iterations,
        motor_fraction=uniform,
    )


# ---------------------------------------------------------------------------
# Transient simulation
# ---------------------------------------------------------------------------

_PRE, _FAULT, _POST = 0, 1, 2


class _DynamicModel:
    """Precomputed arrays and per-phase reduced network blocks for one fault context.

    Each phase's constant admittance (lines, shunts, static loads and the
    generators' Norton admittances) is inverted once into Z. Only the blocks
    the reduced solve uses are kept, stacked along a leading phase axis
    indexed by _PRE, _FAULT and _POST: Z_MM between motors, and the
    transposes of Z_MG, Z_GG, Z_GM and of the bus rows Z[:n, G] and
    Z[:n, M], for row-vector products. G and M index the generators and the
    motors by their buses. The faulted network's midpoint node carries
    neither, so it drops out and every phase reduces to the same size.
    """

    # per-generator and per-motor constants that meet (members, ...) state arrays
    _PER_MACHINE = (
        "e_mag", "y_gen", "p_mech", "damping", "h2", "motor_scale", "motor_t0",
        "m_rs", "m_xs", "m_rr", "m_xr", "m_xm", "m_h2", "m_exp",
    )

    def __init__(self, network: Network, init: EquilibriumState, fault: FaultSpec | None):
        self.n = network.n_bus
        gens = network.generators
        self.gen_bus = np.array([g.bus for g in gens])
        self.y_gen = np.array([1.0 / (1j * g.xd_prime) for g in gens])
        self.e_mag = init.gen_e_prime.copy()
        self.p_mech = init.gen_p_mech.copy()
        self.h2 = np.array([2.0 * g.inertia_h for g in gens])
        self.damping = np.array([g.damping_d for g in gens])
        self.omega_s = 2.0 * np.pi * network.nominal_hz
        self.n_gen = len(gens)

        motors = _motor_loads(network)
        if len(motors) != init.motor_bus.size or any(
            m.bus != b for m, b in zip(motors, init.motor_bus)
        ):
            raise ValueError("equilibrium state does not match the network's motor loads")
        self.motor_bus = init.motor_bus
        self.motor_scale = init.motor_scale
        self.motor_t0 = init.motor_torque0
        self.m_rs = np.array([m.motor_params.stator_r for m in motors])
        self.m_xs = np.array([m.motor_params.stator_x for m in motors])
        self.m_rr = np.array([m.motor_params.rotor_r for m in motors])
        self.m_xr = np.array([m.motor_params.rotor_x for m in motors])
        self.m_xm = np.array([m.motor_params.magnetizing_x for m in motors])
        self.m_h2 = np.array([2.0 * m.motor_params.inertia_h for m in motors])
        self.m_exp = np.array([m.motor_params.load_torque_exponent for m in motors])
        self.n_motor = len(motors)

        def inverse(state: str) -> np.ndarray:
            y = build_admittance(network, state, fault)
            y[np.arange(self.n), np.arange(self.n)] += init.static_admittance
            np.add.at(y, (self.gen_bus, self.gen_bus), self.y_gen)
            try:
                return np.linalg.inv(y)
            except np.linalg.LinAlgError:
                # every member in this phase gets NaN voltages and so diverges
                return np.full(y.shape, np.nan, dtype=complex)

        states = ("prefault",) if fault is None else ("prefault", "faulted", "postfault")
        z = [inverse(state) for state in states]  # indexed by _PRE, _FAULT, _POST
        g, m, bus = self.gen_bus, self.motor_bus, np.arange(self.n)

        def transposed(rows, cols) -> np.ndarray:
            return np.stack([zp[np.ix_(rows, cols)].T for zp in z])

        self.z_mm = np.stack([zp[np.ix_(m, m)] for zp in z])
        self.zt_mg = transposed(m, g)  # zt_xy is the transpose of Z_XY
        self.zt_gg = transposed(g, g)
        self.zt_gm = transposed(g, m)
        self.zt_ng = transposed(bus, g)
        self.zt_nm = transposed(bus, m)
        self._tiles: dict = {}

    def tiled(self, members: int) -> SimpleNamespace:
        """The _PER_MACHINE constants repeated for `members` members, flat.

        The elementwise arithmetic of a batch runs on flat arrays of equal
        shape: at these sizes numpy's broadcasting and multi-dimensional
        casting cost more than the arithmetic. Built once per member count.
        """
        tiles = self._tiles.get(members)
        if tiles is None:
            tiles = SimpleNamespace(
                **{name: np.tile(getattr(self, name), members) for name in self._PER_MACHINE}
            )
            tiles.motors = _MotorCircuit(tiles.m_rs, tiles.m_xs, tiles.m_rr, tiles.m_xr, tiles.m_xm)
            self._tiles[members] = tiles
        return tiles

    def rhs(self, phase: np.ndarray, x: np.ndarray, record: bool = False):
        """State derivatives of a batch of members, and their bus voltages if record.

        phase gives each member's topology phase. The network is solved in
        its reduced form: with I_G the generators' Norton currents and y_m the
        motors' admittances at the current slips, the motor terminal voltages
        solve (I + Z_MM diag(y_m)) V_M = Z_MG I_G, one stacked 19x19 solve for
        all members whatever their phase, and the generator terminal voltages
        are V_G = Z_GG I_G - Z_GM (y_m V_M). This is the nodal solve with the
        19 slip-dependent diagonals moved to the right-hand side (Woodbury),
        and two motors on one bus simply add their currents. The voltages of
        all buses are formed only when record is set, for the step's first
        stage.

        Every product is stacked per member, (members, 1, k) @ (k, m) or
        (members, 1, k) @ (members, k, m), so each member's bits are those
        of its run alone; a 2-D (members, k) @ (k, m) product would not be.
        """
        members, ng, nm = x.shape[0], self.n_gen, self.n_motor
        c = self.tiled(members)
        delta = x[:, :ng].ravel()
        omega = x[:, ng : 2 * ng].ravel()
        slips = x[:, 2 * ng :].ravel()
        # one phase for all members (the usual case) indexes a shared block
        sel = int(phase[0]) if (phase == phase[0]).all() else phase
        e_src = c.e_mag * np.exp(1j * delta)
        src = (e_src * c.y_gen).reshape(members, 1, ng)
        y_motor = (c.motor_scale * c.motors.admittance(slips)).reshape(members, nm)
        a = self.z_mm[sel] * y_motor[:, None, :]
        a[:, np.arange(nm), np.arange(nm)] += 1.0
        v_motor = _solve_stack(a, (src @ self.zt_mg[sel])[:, 0])
        i_motor = (y_motor * v_motor)[:, None, :]
        if record:
            v = (src @ self.zt_ng[sel] - i_motor @ self.zt_nm[sel])[:, 0]
            v_gen = v[:, self.gen_bus].ravel()
        else:
            v = None
            v_gen = (src @ self.zt_gg[sel] - i_motor @ self.zt_gm[sel]).ravel()

        i_gen = (e_src - v_gen) * c.y_gen
        p_elec = np.real(e_src * np.conj(i_gen))
        d_delta = self.omega_s * omega
        d_omega = (c.p_mech - p_elec - c.damping * omega) / c.h2
        if nm:
            t_elec = c.motors.torque(slips, v_motor.ravel())
            t_load = c.motor_t0 * np.clip(1.0 - slips, 0.0, None) ** c.m_exp
            d_slip = (t_load - t_elec) / c.m_h2
            # a stalled rotor stays at standstill instead of spinning backwards
            d_slip = np.where(slips >= 1.0, np.minimum(d_slip, 0.0), d_slip)
        else:
            d_slip = slips
        dx = np.concatenate(
            [d_delta.reshape(members, ng), d_omega.reshape(members, ng),
             d_slip.reshape(members, nm)],
            axis=1,
        )
        return dx, v


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[i] u[i] = b[i] for every i; a singular a[i] gives NaN for that i.

    A stacked solve gives the same bits as one solve per matrix. It fails as
    a whole on one singular matrix, so that case is redone member by member
    and only the singular member is lost (it then counts as diverged).
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        u = np.full(b.shape, np.nan, dtype=complex)
        for i in range(len(a)):
            try:
                u[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return u


def _rk4_span(model: _DynamicModel, phase: np.ndarray, h, x: np.ndarray,
              k1: np.ndarray) -> np.ndarray:
    """One RK4 span per member, of length h (a float or a column), given k1 = f(x)."""
    k2 = model.rhs(phase, x + 0.5 * h * k1)[0]
    k3 = model.rhs(phase, x + 0.5 * h * k2)[0]
    k4 = model.rhs(phase, x + h * k3)[0]
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _snap(t: float, step_s: float) -> float:
    """t moved onto the sample grid when it lies within 1e-9 s of a grid point."""
    on_grid = round(t / step_s) * step_s
    return on_grid if abs(t - on_grid) < 1e-9 else t


def clearing_instant(fault_start_s: float, clear_s: float, step_s: float) -> float:
    """The absolute time at which the simulator removes the fault.

    This is the only place the clearing duration enters the integration, so
    two durations with the same instant give the same trace, and two with
    different instants (even one ulp apart) do not.
    """
    return _snap(fault_start_s + clear_s, step_s)


def run_simulations(
    network: Network,
    init: EquilibriumState,
    fault: FaultSpec | None,
    clear_times: Sequence[float | None],
    fault_start_s: float = 1.0,
    duration_s: float = 10.0,
    step_s: float = 0.01,
) -> list[Trace]:
    """Integrate one fault context for several clearing durations in lockstep.

    Member i clears clear_times[i] seconds after the fault starts. The
    members share one (members, state) array, so each RK4 stage is one
    stacked network solve per topology phase. Each trace is bit for bit the
    one the member gives when run alone: a switching instant that falls
    inside a step splits that step for its own member only, and a member
    that goes non-finite stops there (diverged) without touching the others.

    With fault=None the pre-fault topology runs for the whole window, which
    is the configuration used to check that the equilibrium is stationary;
    the clearing times are then ignored and only set the number of members.
    """
    if duration_s <= 0.0 or step_s <= 0.0:
        raise ValueError("duration and step must be positive")
    if fault is not None:
        validate_fault(network, fault)
        if any(c is None or c <= 0.0 for c in clear_times):
            raise ValueError("a faulted run needs a positive clearing duration")
        if fault_start_s < 0.0 or fault_start_s >= duration_s:
            raise ValueError("fault start must lie inside the simulation window")
    n_members = len(clear_times)
    if n_members == 0:
        return []

    model = _DynamicModel(network, init, fault)
    n_steps = int(round(duration_s / step_s)) + 1
    times = np.arange(n_steps) * step_s

    t_fault = None if fault is None else _snap(fault_start_s, step_s)
    t_clear = [
        None if fault is None else clearing_instant(fault_start_s, c, step_s)
        for c in clear_times
    ]
    fault_on = np.inf if t_fault is None else t_fault
    fault_off = np.array([np.inf if t is None else t for t in t_clear])

    def phase_at(t, rows: np.ndarray) -> np.ndarray:
        return np.where(t < fault_on, _PRE, np.where(t < fault_off[rows], _FAULT, _POST))

    # per member: step index -> its switching instants strictly inside that step
    inner: list[dict] = []
    for t_c in t_clear:
        splits: dict = {}
        for s in (t_fault, t_c):
            if s is not None:
                for k in np.flatnonzero((times[:-1] < s) & (s < times[1:])):
                    splits.setdefault(int(k), []).append(s)
        inner.append(splits)
    split_steps = set().union(*inner)

    ng, n, nm = model.n_gen, model.n, model.n_motor
    # one array per member, so a kept trace does not hold on to its batch
    rotor = [np.zeros((n_steps, ng)) for _ in range(n_members)]
    v_mag = [np.zeros((n_steps, n)) for _ in range(n_members)]
    v_ang = [np.zeros((n_steps, n)) for _ in range(n_members)]
    slips = [np.zeros((n_steps, nm)) for _ in range(n_members)]
    diverged_step: list[int | None] = [None] * n_members
    live = np.arange(n_members)  # members still integrating, rows of x
    x = np.tile(np.concatenate([init.gen_delta, np.zeros(ng), init.motor_slip]), (n_members, 1))

    for k in range(n_steps):
        t_k = k * step_s
        phase = phase_at(t_k, live)
        # k1 of this step's first span; its network solve is also the recorded one
        k1, v = model.rhs(phase, x, record=True)
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1))
        if bad.any():
            if k == 0:
                raise PowerFlowError("network solve failed at t = 0; initial state inconsistent")
            for i in live[bad]:
                for arr in (rotor[i], v_mag[i], v_ang[i], slips[i]):
                    arr[k:] = arr[k - 1]
                diverged_step[i] = k
            keep = ~bad
            live, x, k1, v, phase = live[keep], x[keep], k1[keep], v[keep], phase[keep]
            if live.size == 0:
                break
        mag, ang = np.abs(v), np.angle(v)
        for r, i in enumerate(live):
            rotor[i][k] = x[r, :ng]
            v_mag[i][k] = mag[r]
            v_ang[i][k] = ang[r]
            slips[i][k] = x[r, 2 * ng :]
        if k == n_steps - 1:
            break
        t_next = (k + 1) * step_s
        if k not in split_steps:
            x = _rk4_span(model, phase, t_next - t_k, x, k1)
            continue
        # a member with a switching instant inside this step integrates it as
        # sub-spans; the others take the whole step in the first span
        points = [[t_k, *inner[i].get(k, ()), t_next] for i in live]
        for j in range(max(map(len, points)) - 1):
            rows = np.array([r for r, p in enumerate(points) if len(p) > j + 1])
            a = np.array([points[r][j] for r in rows])
            h = (np.array([points[r][j + 1] for r in rows]) - a)[:, None]
            if j > 0:
                phase = phase_at(a, live[rows])
                k1 = model.rhs(phase, x[rows])[0]
            x[rows] = _rk4_span(model, phase, h, x[rows], k1)

    load_buses = np.unique([ld.bus for ld in network.loads]).astype(int)
    return [
        Trace(
            times=times,
            rotor_angles=rotor[i],
            bus_v_mag=v_mag[i],
            bus_v_ang=v_ang[i],
            motor_slips=slips[i],
            step_s=step_s,
            slack_bus=network.slack_bus,
            load_buses=load_buses,
            fault_start_s=t_fault,
            clear_time_s=t_clear[i],
            diverged=diverged_step[i] is not None,
            diverged_step=diverged_step[i],
        )
        for i in range(n_members)
    ]


def run_simulation(
    network: Network,
    init: EquilibriumState,
    fault: FaultSpec | None = None,
    clear_s: float | None = None,
    fault_start_s: float = 1.0,
    duration_s: float = 10.0,
    step_s: float = 0.01,
) -> Trace:
    """Integrate one scenario and return the sampled trace.

    This is run_simulations with a single member. With fault=None the
    pre-fault topology runs for the whole window.
    """
    return run_simulations(
        network, init, fault, [clear_s], fault_start_s, duration_s, step_s
    )[0]


def simulate(network: Network, scenario: Scenario, init: EquilibriumState) -> Trace:
    """Run one scenario from a matching equilibrium state."""
    net = network
    if scenario.motor_fraction is not None:
        if init.motor_fraction is None or not np.isclose(
            init.motor_fraction, scenario.motor_fraction, rtol=0.0, atol=1e-12
        ):
            raise ValueError(
                "equilibrium was solved for a different motor fraction than the scenario"
            )
        net = network.with_motor_fraction(scenario.motor_fraction)
    clear_s = None
    if scenario.fault is not None:
        clear_s = clearing_time_s(scenario, network.nominal_hz)
    return run_simulation(
        net,
        init,
        fault=scenario.fault,
        clear_s=clear_s,
        fault_start_s=scenario.fault_start_s,
        duration_s=scenario.duration_s,
        step_s=scenario.step_s,
    )


# ---------------------------------------------------------------------------
# Monitoring stream
# ---------------------------------------------------------------------------


def write_stream(trace: Trace, fh: IO[str]) -> None:
    """Write the monitoring stream format: t, bus magnitudes, bus angles.

    Values use full float precision so a replayed stream reproduces the
    simulated voltages bit for bit.
    """
    for k in range(trace.n_steps):
        vals = [trace.times[k], *trace.bus_v_mag[k], *trace.bus_v_ang[k]]
        fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")
