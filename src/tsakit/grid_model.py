"""Power network model: buses, lines, generators, composite loads, admittance matrices.

The network is a balanced positive-sequence model in per unit on a common MVA
base. Text files use the TSANET format, whose rows are the record classes below.
All matrices are dense complex numpy arrays; the systems of interest here are
a few dozen buses, so sparsity machinery would be overhead without payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

BUS_KINDS = ("slack", "pv", "pq")

# Bolted three-phase fault modeled as a large shunt admittance at the fault
# point. Large but finite keeps the nodal matrix well conditioned.
FAULT_ADMITTANCE = complex(0.0, -1.0e6)


class NetworkParseError(ValueError):
    """A network file could not be parsed. Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class NetworkValidationError(ValueError):
    """Parsed network data violates a structural invariant."""


# Bus, Line, Generator and CompositeLoad are the rows of TSANET files, one
# column per field in field order (a MotorParams field spans its own fields):
# reordering a field changes the file format.


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
    if not (network.base_mva > 0.0 and network.nominal_hz > 0.0):
        raise NetworkValidationError("base_mva and nominal_hz must be positive")
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
    if not connected(adjacency_from_network(network)):
        raise NetworkValidationError("network graph is not connected")


def connected(adjacency: np.ndarray) -> bool:
    """Whether every bus of an adjacency matrix reaches bus 0."""
    reached = np.zeros(len(adjacency), dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = (adjacency[frontier] != 0).any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


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
# Each section's rows are one record class, laid out by the field-order rule
# stated above Bus. The README's "Network file format" section lists them.

_DECODE = {int: int, float: float, complex: complex, str: str.lower,
           bool: lambda token: bool(("0", "1").index(token))}
_ENCODE = {int: lambda n: str(int(n)), float: lambda x: repr(float(x)), str: str,
           bool: lambda b: str(int(b)), complex: lambda z: _complex_text(complex(z))}


def _complex_text(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _decode(kind: type, token: str, lineno: int):
    """token read as a value of the declared type kind; numbers must be finite."""
    try:
        value = _DECODE[kind](token)
        if kind not in (float, complex) or math.isfinite(value.real) and math.isfinite(value.imag):
            return value
    except ValueError:
        pass
    raise NetworkParseError(lineno, f"bad {kind.__name__} value {token!r}")


class _Layout:
    """The columns of a record class, each read and written by its field's type."""

    def __init__(self, cls: type):
        hints = get_type_hints(cls)
        self.cls, self.names = cls, [f.name for f in fields(cls)]
        self.kinds = [_Layout(hints[n]) if is_dataclass(hints[n]) else hints[n] for n in self.names]
        self.width = sum(k.width if isinstance(k, _Layout) else 1 for k in self.kinds)

    def decode(self, tokens, lineno: int):
        return self.cls(*[
            k.decode(tokens, lineno) if isinstance(k, _Layout) else _decode(k, next(tokens), lineno)
            for k in self.kinds
        ])

    def encode(self, record) -> list[str]:
        out = []
        for name, k in zip(self.names, self.kinds):
            value = getattr(record, name)
            out += k.encode(value) if isinstance(k, _Layout) else [_ENCODE[k](value)]
        return out


# section -> (Network field, layout of its rows)
_SECTIONS = {
    "[BUS]": ("buses", _Layout(Bus)),
    "[LINE]": ("lines", _Layout(Line)),
    "[GEN]": ("generators", _Layout(Generator)),
    "[LOAD]": ("loads", _Layout(CompositeLoad)),
}


def parse_network(text: str) -> Network:
    """Parse TSANET text into a validated Network."""
    records = {name: [] for name, _ in _SECTIONS.values()}
    header = section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.split("#", 1)[0].strip()
        if not row:
            continue
        if row.startswith("["):
            if row not in _SECTIONS:
                raise NetworkParseError(lineno, f"unknown section {row!r}")
            section = row
            continue
        tokens = [t.strip() for t in row.split(",")]
        if header is None:
            header = _parse_header(tokens, lineno)
        elif section is None:
            raise NetworkParseError(lineno, "data row before any section")
        else:
            name, layout = _SECTIONS[section]
            if len(tokens) != layout.width:
                raise NetworkParseError(
                    lineno, f"{section[1:-1]} row needs {layout.width} fields, got {len(tokens)}"
                )
            records[name].append(layout.decode(iter(tokens), lineno))
    if header is None:
        raise NetworkParseError(1, "empty file, expected a TSANET header")
    network = Network(**{name: tuple(rows) for name, rows in records.items()}, **header)
    validate_network(network)
    return network


def _parse_header(tokens: list[str], lineno: int) -> dict:
    """base_mva and nominal_hz of a TSANET,1,<base_mva>,<nominal_hz> row."""
    if tokens[0] != "TSANET":
        raise NetworkParseError(lineno, "file must start with a TSANET header")
    if len(tokens) != 4:
        raise NetworkParseError(lineno, f"header needs 4 fields, got {len(tokens)}")
    version = _decode(int, tokens[1], lineno)
    if version != 1:
        raise NetworkParseError(lineno, f"unsupported format version {version}")
    return {"base_mva": _decode(float, tokens[2], lineno),
            "nominal_hz": _decode(float, tokens[3], lineno)}


def load_network(path: str | Path) -> Network:
    return parse_network(Path(path).read_text())


def format_network(network: Network) -> str:
    """Serialize to TSANET text. repr-based floats round-trip exactly."""
    fmt = _ENCODE[float]
    out = [f"TSANET,1,{fmt(network.base_mva)},{fmt(network.nominal_hz)}"]
    for section, (name, layout) in _SECTIONS.items():
        out.append(section)
        out.extend(",".join(layout.encode(r)) for r in getattr(network, name))
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
        y_mat[mid, mid] += FAULT_ADMITTANCE
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
