"""Power network model: buses, lines, generators, composite loads, admittance matrices.

The network is a balanced positive-sequence model in per unit on a common MVA
base. Text files use the TSANET format documented in :func:`parse_network`.
All matrices are dense complex numpy arrays; the systems of interest here are
a few dozen buses, so sparsity machinery would be overhead without payoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BUS_KINDS = ("slack", "pv", "pq")

# Bolted three-phase fault modeled as a large shunt admittance at the fault
# point. Large but finite keeps the nodal matrix well conditioned.
DEFAULT_FAULT_ADMITTANCE = complex(0.0, -1.0e6)


class NetworkParseError(ValueError):
    """A network file could not be parsed. Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class NetworkValidationError(ValueError):
    """Parsed network data violates a structural invariant."""


@dataclass(frozen=True)
class Bus:
    id: int
    base_kv: float
    bus_kind: str  # "slack" | "pv" | "pq"
    shunt: complex = 0j  # fixed shunt admittance, pu


@dataclass(frozen=True)
class Line:
    """A branch (AC line or two-winding transformer) between two buses.

    Transformers are flagged so fault placement can exclude them; electrically
    they are stamped like lines (unity turns ratio).
    """

    from_bus: int
    to_bus: int
    series_impedance: complex
    charging_susceptance: float = 0.0  # total line charging B, pu
    has_transformer: bool = False


@dataclass(frozen=True)
class Generator:
    """Classical machine: constant EMF magnitude behind transient reactance."""

    bus: int
    inertia_h: float  # s, on system base
    damping_d: float  # pu torque / pu speed deviation
    xd_prime: float  # pu
    p_mech: float  # pu, mechanical input (dispatch value; slack is resolved)
    e_prime_mag: float  # pu, internal EMF magnitude


@dataclass(frozen=True)
class MotorParams:
    """Single-cage induction motor equivalent circuit, machine base = its own MVA."""

    stator_r: float
    stator_x: float
    rotor_r: float
    rotor_x: float
    magnetizing_x: float
    inertia_h: float  # s
    load_torque_exponent: float  # mechanical torque ~ (1 - s) ** exponent


@dataclass(frozen=True)
class CompositeLoad:
    """Bus load split into an induction-motor share and a static remainder."""

    bus: int
    p_total: float  # pu
    q_total: float  # pu
    motor_fraction: float  # share of p_total drawn by the motor
    motor_params: MotorParams


@dataclass(frozen=True)
class FaultSpec:
    """Bolted three-phase fault on a line at a fractional distance from its from-bus."""

    line_index: int
    location_fraction: float
    fault_admittance: complex = DEFAULT_FAULT_ADMITTANCE


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    loads: tuple[CompositeLoad, ...]
    base_mva: float = 100.0
    nominal_hz: float = 60.0

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def slack_bus(self) -> int:
        for b in self.buses:
            if b.bus_kind == "slack":
                return b.id
        raise NetworkValidationError("network has no slack bus")

    def fault_eligible_lines(self) -> list[int]:
        """Indices into .lines of branches a fault may be placed on."""
        return [i for i, ln in enumerate(self.lines) if not ln.has_transformer]

    def with_motor_fraction(self, fraction: float) -> "Network":
        """Copy of the network with every load's motor share replaced."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"motor fraction {fraction} outside [0, 1]")
        loads = tuple(replace(ld, motor_fraction=fraction) for ld in self.loads)
        return replace(self, loads=loads)


def validate_network(network: Network) -> None:
    """Check structural invariants; raise NetworkValidationError naming the first violated one."""
    n = network.n_bus
    ids = sorted(b.id for b in network.buses)
    if ids != list(range(n)):
        raise NetworkValidationError("bus ids must be unique and contiguous from 0")
    kinds = [b.bus_kind for b in network.buses]
    for k in kinds:
        if k not in BUS_KINDS:
            raise NetworkValidationError(f"unknown bus kind {k!r}")
    if kinds.count("slack") != 1:
        raise NetworkValidationError("exactly one slack bus required")
    for i, ln in enumerate(network.lines):
        if not (0 <= ln.from_bus < n and 0 <= ln.to_bus < n):
            raise NetworkValidationError(f"line {i} references a missing bus")
        if ln.from_bus == ln.to_bus:
            raise NetworkValidationError(f"line {i} connects a bus to itself")
        if abs(ln.series_impedance) <= 0.0:
            raise NetworkValidationError(f"line {i} has zero series impedance")
    for g in network.generators:
        if not 0 <= g.bus < n:
            raise NetworkValidationError(f"generator at missing bus {g.bus}")
        if g.inertia_h <= 0.0:
            raise NetworkValidationError(f"generator at bus {g.bus}: inertia must be positive")
        if g.xd_prime <= 0.0:
            raise NetworkValidationError(f"generator at bus {g.bus}: xd_prime must be positive")
        if g.e_prime_mag <= 0.0:
            raise NetworkValidationError(f"generator at bus {g.bus}: e_prime_mag must be positive")
    for ld in network.loads:
        if not 0 <= ld.bus < n:
            raise NetworkValidationError(f"load at missing bus {ld.bus}")
        if ld.p_total < 0.0:
            raise NetworkValidationError(f"load at bus {ld.bus}: negative p_total")
        if not 0.0 <= ld.motor_fraction <= 1.0:
            raise NetworkValidationError(f"load at bus {ld.bus}: motor_fraction outside [0, 1]")
    if not connected(network):
        raise NetworkValidationError("network graph is not connected")


def connected(network: Network, without_line: int | None = None) -> bool:
    """Whether every bus reaches bus 0, with line without_line out of service."""
    n = network.n_bus
    adj = [[] for _ in range(n)]
    for i, ln in enumerate(network.lines):
        if i == without_line:
            continue
        adj[ln.from_bus].append(ln.to_bus)
        adj[ln.to_bus].append(ln.from_bus)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def validate_fault(network: Network, fault: FaultSpec) -> None:
    if not 0 <= fault.line_index < len(network.lines):
        raise ValueError(f"fault line index {fault.line_index} out of range")
    if network.lines[fault.line_index].has_transformer:
        raise ValueError(f"line {fault.line_index} is a transformer branch, not fault eligible")
    if not 0.0 < fault.location_fraction < 1.0:
        raise ValueError(f"fault location fraction {fault.location_fraction} outside (0, 1)")


# ---------------------------------------------------------------------------
# TSANET text format
# ---------------------------------------------------------------------------
#
#   # comment
#   TSANET,1,<base_mva>,<nominal_hz>
#   [BUS]
#   id,base_kv,kind,shunt
#   [LINE]
#   from,to,series_impedance,charging_b,has_transformer
#   [GEN]
#   bus,inertia_h,damping_d,xd_prime,p_mech,e_prime_mag
#   [LOAD]
#   bus,p_total,q_total,motor_fraction,stator_r,stator_x,rotor_r,rotor_x,magnetizing_x,motor_h,torque_exponent
#
# Complex values are python literals like 0.0035+0.0411j. Floats are written
# with repr so a write/read cycle reproduces values exactly.

_SECTIONS = ("[BUS]", "[LINE]", "[GEN]", "[LOAD]")


def _parse_complex(tok: str, lineno: int) -> complex:
    try:
        return complex(tok)
    except ValueError:
        raise NetworkParseError(lineno, f"bad complex value {tok!r}") from None


def _parse_float(tok: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise NetworkParseError(lineno, f"bad float value {tok!r}") from None


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise NetworkParseError(lineno, f"bad integer value {tok!r}") from None


def parse_network(text: str) -> Network:
    """Parse TSANET text into a validated Network."""
    buses: list[Bus] = []
    lines: list[Line] = []
    gens: list[Generator] = []
    loads: list[CompositeLoad] = []
    base_mva = None
    nominal_hz = None
    section = None
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.split("#", 1)[0].strip()
        if not row:
            continue
        if row.startswith("["):
            if row not in _SECTIONS:
                raise NetworkParseError(lineno, f"unknown section {row!r}")
            section = row
            continue
        fields = [f.strip() for f in row.split(",")]
        if not saw_header:
            if fields[0] != "TSANET":
                raise NetworkParseError(lineno, "file must start with a TSANET header")
            if len(fields) != 4:
                raise NetworkParseError(lineno, f"header needs 4 fields, got {len(fields)}")
            version = _parse_int(fields[1], lineno)
            if version != 1:
                raise NetworkParseError(lineno, f"unsupported format version {version}")
            base_mva = _parse_float(fields[2], lineno)
            nominal_hz = _parse_float(fields[3], lineno)
            saw_header = True
            continue
        if section is None:
            raise NetworkParseError(lineno, "data row before any section")
        if section == "[BUS]":
            if len(fields) != 4:
                raise NetworkParseError(lineno, f"BUS row needs 4 fields, got {len(fields)}")
            kind = fields[2].lower()
            if kind not in BUS_KINDS:
                raise NetworkParseError(lineno, f"unknown bus kind {fields[2]!r}")
            buses.append(
                Bus(
                    id=_parse_int(fields[0], lineno),
                    base_kv=_parse_float(fields[1], lineno),
                    bus_kind=kind,
                    shunt=_parse_complex(fields[3], lineno),
                )
            )
        elif section == "[LINE]":
            if len(fields) != 5:
                raise NetworkParseError(lineno, f"LINE row needs 5 fields, got {len(fields)}")
            lines.append(
                Line(
                    from_bus=_parse_int(fields[0], lineno),
                    to_bus=_parse_int(fields[1], lineno),
                    series_impedance=_parse_complex(fields[2], lineno),
                    charging_susceptance=_parse_float(fields[3], lineno),
                    has_transformer=bool(_parse_int(fields[4], lineno)),
                )
            )
        elif section == "[GEN]":
            if len(fields) != 6:
                raise NetworkParseError(lineno, f"GEN row needs 6 fields, got {len(fields)}")
            gens.append(
                Generator(
                    bus=_parse_int(fields[0], lineno),
                    inertia_h=_parse_float(fields[1], lineno),
                    damping_d=_parse_float(fields[2], lineno),
                    xd_prime=_parse_float(fields[3], lineno),
                    p_mech=_parse_float(fields[4], lineno),
                    e_prime_mag=_parse_float(fields[5], lineno),
                )
            )
        else:  # [LOAD]
            if len(fields) != 11:
                raise NetworkParseError(lineno, f"LOAD row needs 11 fields, got {len(fields)}")
            loads.append(
                CompositeLoad(
                    bus=_parse_int(fields[0], lineno),
                    p_total=_parse_float(fields[1], lineno),
                    q_total=_parse_float(fields[2], lineno),
                    motor_fraction=_parse_float(fields[3], lineno),
                    motor_params=MotorParams(
                        stator_r=_parse_float(fields[4], lineno),
                        stator_x=_parse_float(fields[5], lineno),
                        rotor_r=_parse_float(fields[6], lineno),
                        rotor_x=_parse_float(fields[7], lineno),
                        magnetizing_x=_parse_float(fields[8], lineno),
                        inertia_h=_parse_float(fields[9], lineno),
                        load_torque_exponent=_parse_float(fields[10], lineno),
                    ),
                )
            )
    if not saw_header:
        raise NetworkParseError(1, "empty file, expected a TSANET header")
    network = Network(
        buses=tuple(buses),
        lines=tuple(lines),
        generators=tuple(gens),
        loads=tuple(loads),
        base_mva=base_mva,
        nominal_hz=nominal_hz,
    )
    validate_network(network)
    return network


def load_network(path: str | Path) -> Network:
    return parse_network(Path(path).read_text())


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def format_network(network: Network) -> str:
    """Serialize to TSANET text. repr-based floats round-trip exactly."""
    out = [f"TSANET,1,{_fmt_float(network.base_mva)},{_fmt_float(network.nominal_hz)}"]
    out.append("[BUS]")
    for b in network.buses:
        out.append(f"{b.id},{_fmt_float(b.base_kv)},{b.bus_kind},{_fmt_complex(b.shunt)}")
    out.append("[LINE]")
    for ln in network.lines:
        out.append(
            f"{ln.from_bus},{ln.to_bus},{_fmt_complex(ln.series_impedance)},"
            f"{_fmt_float(ln.charging_susceptance)},{int(ln.has_transformer)}"
        )
    out.append("[GEN]")
    for g in network.generators:
        out.append(
            f"{g.bus},{_fmt_float(g.inertia_h)},{_fmt_float(g.damping_d)},"
            f"{_fmt_float(g.xd_prime)},{_fmt_float(g.p_mech)},{_fmt_float(g.e_prime_mag)}"
        )
    out.append("[LOAD]")
    for ld in network.loads:
        mp = ld.motor_params
        out.append(
            f"{ld.bus},{_fmt_float(ld.p_total)},{_fmt_float(ld.q_total)},"
            f"{_fmt_float(ld.motor_fraction)},{_fmt_float(mp.stator_r)},{_fmt_float(mp.stator_x)},"
            f"{_fmt_float(mp.rotor_r)},{_fmt_float(mp.rotor_x)},{_fmt_float(mp.magnetizing_x)},"
            f"{_fmt_float(mp.inertia_h)},{_fmt_float(mp.load_torque_exponent)}"
        )
    return "\n".join(out) + "\n"


def save_network(network: Network, path: str | Path) -> None:
    Path(path).write_text(format_network(network))


# ---------------------------------------------------------------------------
# Topology edits and admittance assembly
# ---------------------------------------------------------------------------


def split_line(line: Line, fraction: float, midpoint_bus: int) -> tuple[Line, Line, int]:
    """Split a line at a fractional distance from its from-bus.

    Series impedance and charging split proportionally; the two sections in
    series with their charging recombine to the original line parameters.
    Returns (from-section, to-section, midpoint bus id).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction {fraction} outside (0, 1)")
    sec1 = Line(
        from_bus=line.from_bus,
        to_bus=midpoint_bus,
        series_impedance=line.series_impedance * fraction,
        charging_susceptance=line.charging_susceptance * fraction,
        has_transformer=line.has_transformer,
    )
    sec2 = Line(
        from_bus=midpoint_bus,
        to_bus=line.to_bus,
        series_impedance=line.series_impedance * (1.0 - fraction),
        charging_susceptance=line.charging_susceptance * (1.0 - fraction),
        has_transformer=line.has_transformer,
    )
    return sec1, sec2, midpoint_bus


def _stamp_line(y_mat: np.ndarray, ln: Line) -> None:
    y = 1.0 / ln.series_impedance
    half_b = 1j * ln.charging_susceptance / 2.0
    f, t = ln.from_bus, ln.to_bus
    y_mat[f, f] += y + half_b
    y_mat[t, t] += y + half_b
    y_mat[f, t] -= y
    y_mat[t, f] -= y


def build_admittance(
    network: Network,
    state: str = "prefault",
    fault: FaultSpec | None = None,
) -> np.ndarray:
    """Assemble the complex nodal admittance matrix for a topology state.

    state "prefault": all branches in service, size n x n.
    state "faulted": the faulted line is replaced by its two sections joined at
    a midpoint bus appended as id n, and the fault shunt is added there;
    size (n + 1) x (n + 1).
    state "postfault": the faulted line is removed, size n x n. If that
    islands the network the matrix says so silently; see connected().
    """
    if state not in ("prefault", "faulted", "postfault"):
        raise ValueError(f"unknown topology state {state!r}")
    if state != "prefault":
        if fault is None:
            raise ValueError(f"state {state!r} requires a fault spec")
        validate_fault(network, fault)
    n = network.n_bus
    size = n + 1 if state == "faulted" else n
    y_mat = np.zeros((size, size), dtype=complex)
    for i, ln in enumerate(network.lines):
        if fault is not None and i == fault.line_index and state != "prefault":
            continue
        _stamp_line(y_mat, ln)
    for b in network.buses:
        y_mat[b.id, b.id] += b.shunt
    if state == "faulted":
        sec1, sec2, mid = split_line(
            network.lines[fault.line_index], fault.location_fraction, n
        )
        _stamp_line(y_mat, sec1)
        _stamp_line(y_mat, sec2)
        y_mat[mid, mid] += fault.fault_admittance
    return y_mat


def adjacency_from_network(network: Network, without_line: int | None = None) -> np.ndarray:
    """Binary symmetric adjacency over buses; zero diagonal.

    A[i, j] = 1 iff at least one in-service branch connects i and j. Pass
    without_line to get the topology with that branch out of service; an
    index outside the line table raises ValueError.
    """
    if without_line is not None and not 0 <= without_line < len(network.lines):
        raise ValueError(
            f"line index {without_line} outside the network's {len(network.lines)} lines"
        )
    n = network.n_bus
    adj = np.zeros((n, n), dtype=np.int8)
    for i, ln in enumerate(network.lines):
        if i == without_line:
            continue
        adj[ln.from_bus, ln.to_bus] = 1
        adj[ln.to_bus, ln.from_bus] = 1
    return adj
