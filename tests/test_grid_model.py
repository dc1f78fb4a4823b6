import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsakit import packaged_network_path
from tsakit.grid_model import (
    Bus,
    CompositeLoad,
    FaultSpec,
    Generator,
    Line,
    MotorParams,
    Network,
    NetworkParseError,
    NetworkValidationError,
    adjacency_from_network,
    build_admittance,
    connected,
    format_network,
    parse_network,
    split_line,
    validate_fault,
    validate_network,
)

MOTOR = MotorParams(
    stator_r=0.02, stator_x=0.1, rotor_r=0.03, rotor_x=0.12,
    magnetizing_x=3.0, inertia_h=0.6, load_torque_exponent=2.0,
)


def two_bus_network(**kwargs):
    return Network(
        buses=(
            Bus(0, 345.0, "slack"),
            Bus(1, 345.0, "pq", shunt=complex(0.0, 0.05)),
        ),
        lines=(Line(0, 1, complex(0.01, 0.1), 0.2),),
        generators=(Generator(0, 5.0, 2.0, 0.1, 1.0, 1.05),),
        loads=(CompositeLoad(1, 1.0, 0.3, 0.5, MOTOR),),
        **kwargs,
    )


def random_network(rng, n_bus=6, n_extra_lines=4):
    """Connected random network for assembly cross-checks."""
    buses = tuple(
        Bus(i, 138.0, "slack" if i == 0 else "pq",
            shunt=complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.3, 0.3)))
        for i in range(n_bus)
    )
    lines = []
    for i in range(1, n_bus):  # spanning tree keeps it connected
        j = int(rng.integers(0, i))
        lines.append(Line(j, i, complex(rng.uniform(0.001, 0.05), rng.uniform(0.01, 0.3)),
                          rng.uniform(0.0, 1.0)))
    for _ in range(n_extra_lines):
        i, j = rng.choice(n_bus, size=2, replace=False)
        lines.append(Line(int(i), int(j),
                          complex(rng.uniform(0.001, 0.05), rng.uniform(0.01, 0.3)),
                          rng.uniform(0.0, 1.0),
                          has_transformer=bool(rng.integers(0, 2))))
    return Network(
        buses=buses,
        lines=tuple(lines),
        generators=(Generator(0, 5.0, 2.0, 0.1, 1.0, 1.0),),
        loads=(),
    )


def reference_admittance(network):
    """Independent assembly: explicit element-by-element bookkeeping."""
    n = network.n_bus
    y = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                total = network.buses[i].shunt
                for ln in network.lines:
                    if ln.from_bus == i or ln.to_bus == i:
                        total += 1.0 / ln.series_impedance
                        total += 1j * ln.charging_susceptance / 2.0
                y[i, j] = total
            else:
                total = 0.0
                for ln in network.lines:
                    if {ln.from_bus, ln.to_bus} == {i, j}:
                        total -= 1.0 / ln.series_impedance
                y[i, j] = total
    return y


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


class TestFileFormat:
    def test_round_trip_equality(self):
        net = two_bus_network()
        assert parse_network(format_network(net)) == net

    def test_two_bus_minimal_file(self):
        """Every column lands in its field: no two columns of a row hold
        the same value, so a swap of two columns fails."""
        text = "\n".join([
            "# minimal system",
            "TSANET,1,200.0,50.0",
            "[BUS]",
            "0,345.0,slack,0j",
            "1,138.0,PQ,0.0+0.05j",
            "[LINE]",
            "0,1,0.01+0.1j,0.2,1",
            "[GEN]",
            "0,5.0,2.0,0.1,1.0,1.05",
            "[LOAD]",
            "1,1.5,0.3,0.5,0.02,0.1,0.03,0.12,3.0,0.6,2.0",
        ])
        assert parse_network(text) == Network(
            buses=(
                Bus(id=0, base_kv=345.0, bus_kind="slack", shunt=0j),
                Bus(id=1, base_kv=138.0, bus_kind="pq", shunt=complex(0.0, 0.05)),
            ),
            lines=(
                Line(from_bus=0, to_bus=1, series_impedance=complex(0.01, 0.1),
                     charging_susceptance=0.2, has_transformer=True),
            ),
            generators=(
                Generator(bus=0, inertia_h=5.0, damping_d=2.0, xd_prime=0.1,
                          p_mech=1.0, e_prime_mag=1.05),
            ),
            loads=(
                CompositeLoad(
                    bus=1, p_total=1.5, q_total=0.3, motor_fraction=0.5,
                    motor_params=MotorParams(
                        stator_r=0.02, stator_x=0.1, rotor_r=0.03, rotor_x=0.12,
                        magnetizing_x=3.0, inertia_h=0.6, load_torque_exponent=2.0,
                    ),
                ),
            ),
            base_mva=200.0,
            nominal_hz=50.0,
        )

    def test_comments_and_blank_lines_ignored(self):
        net = two_bus_network()
        text = format_network(net)
        noisy = "# leading comment\n\n" + text.replace(
            "[LINE]", "[LINE]  # section note"
        )
        assert parse_network(noisy) == net

    def test_missing_field_reports_line_number(self):
        text = "\n".join([
            "TSANET,1,100.0,60.0",
            "[BUS]",
            "0,345.0,slack,0j",
            "1,345.0,pq",  # one field short, on line 4
        ])
        with pytest.raises(NetworkParseError) as err:
            parse_network(text)
        assert err.value.lineno == 4
        assert "4" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(NetworkParseError):
            parse_network("TSANET,1,100.0,60.0\n[SHUNTS]\n")

    def test_bad_header_rejected(self):
        with pytest.raises(NetworkParseError):
            parse_network("NETDATA,1,100.0,60.0\n")
        with pytest.raises(NetworkParseError):
            parse_network("")

    @pytest.mark.parametrize("row, lineno, message", [
        ("TSANET,1,100.0,nan", 1, "bad float value 'nan'"),
        ("0,inf,2.0,0.1,1.0,1.05", 8, "bad float value 'inf'"),  # a machine that never swings
        ("0,1,0.01+infj,0.2,0", 6, "bad complex value '0.01+infj'"),
        ("0,1,0.01+0.1j,0.2,2", 6, "bad bool value '2'"),
    ], ids=["nan_frequency", "inf_inertia", "inf_reactance", "transformer_flag_2"])
    def test_bad_value_rejected_on_its_line(self, row, lineno, message):
        """Numbers must be finite and flags 0 or 1."""
        lines = format_network(two_bus_network()).splitlines()
        assert lines[7] == "0,5.0,2.0,0.1,1.0,1.05"
        lines[lineno - 1] = row
        with pytest.raises(NetworkParseError) as err:
            parse_network("\n".join(lines))
        assert err.value.lineno == lineno
        assert message in str(err.value)

    def test_bad_complex_value_rejected(self):
        text = "\n".join([
            "TSANET,1,100.0,60.0",
            "[BUS]",
            "0,345.0,slack,zebra",
        ])
        with pytest.raises(NetworkParseError) as err:
            parse_network(text)
        assert err.value.lineno == 3

    @given(
        r=st.floats(1e-6, 10.0, allow_nan=False),
        x=st.floats(1e-6, 10.0, allow_nan=False),
        b=st.floats(0.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_float_values_round_trip_exactly(self, r, x, b):
        net = Network(
            buses=(Bus(0, 345.0, "slack"), Bus(1, 345.0, "pq")),
            lines=(Line(0, 1, complex(r, x), b),),
            generators=(Generator(0, 5.0, 2.0, 0.1, 1.0, 1.0),),
            loads=(),
        )
        back = parse_network(format_network(net))
        assert back.lines[0].series_impedance == complex(r, x)
        assert back.lines[0].charging_susceptance == b


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidation:
    def base(self):
        return two_bus_network()

    def test_valid_network_passes(self):
        validate_network(self.base())

    def test_duplicate_bus_ids(self):
        net = self.base()
        bad = Network(
            buses=(Bus(0, 345.0, "slack"), Bus(0, 345.0, "pq")),
            lines=net.lines, generators=net.generators, loads=net.loads,
        )
        with pytest.raises(NetworkValidationError, match="unique"):
            validate_network(bad)

    def test_exactly_one_slack(self):
        net = self.base()
        bad = Network(
            buses=(Bus(0, 345.0, "slack"), Bus(1, 345.0, "slack")),
            lines=net.lines, generators=net.generators, loads=net.loads,
        )
        with pytest.raises(NetworkValidationError, match="slack"):
            validate_network(bad)

    def test_line_to_missing_bus(self):
        net = self.base()
        bad = Network(
            buses=net.buses,
            lines=(Line(0, 7, complex(0.01, 0.1)),),
            generators=net.generators, loads=net.loads,
        )
        with pytest.raises(NetworkValidationError, match="missing bus"):
            validate_network(bad)

    def test_self_loop_rejected(self):
        net = self.base()
        bad = Network(
            buses=net.buses,
            lines=net.lines + (Line(1, 1, complex(0.01, 0.1)),),
            generators=net.generators, loads=net.loads,
        )
        with pytest.raises(NetworkValidationError, match="itself"):
            validate_network(bad)

    def test_zero_impedance_rejected(self):
        net = self.base()
        bad = Network(
            buses=net.buses,
            lines=(Line(0, 1, 0j),),
            generators=net.generators, loads=net.loads,
        )
        with pytest.raises(NetworkValidationError, match="impedance"):
            validate_network(bad)

    def test_disconnected_rejected(self):
        net = self.base()
        bad = Network(
            buses=net.buses + (Bus(2, 345.0, "pq"),),
            lines=net.lines, generators=net.generators, loads=net.loads,
        )
        with pytest.raises(NetworkValidationError, match="connected"):
            validate_network(bad)

    @pytest.mark.parametrize("field, value", [
        ("base_mva", 0.0), ("base_mva", -100.0), ("nominal_hz", 0.0), ("nominal_hz", float("nan")),
    ])
    def test_non_positive_base_rejected(self, field, value):
        with pytest.raises(NetworkValidationError, match="must be positive"):
            validate_network(two_bus_network(**{field: value}))

    def test_motor_fraction_bounds(self):
        net = self.base()
        bad = Network(
            buses=net.buses, lines=net.lines, generators=net.generators,
            loads=(CompositeLoad(1, 1.0, 0.3, 1.5, MOTOR),),
        )
        with pytest.raises(NetworkValidationError, match="motor_fraction"):
            validate_network(bad)

    def test_with_motor_fraction_replaces_all(self):
        net = self.base().with_motor_fraction(0.7)
        assert all(ld.motor_fraction == 0.7 for ld in net.loads)
        with pytest.raises(ValueError):
            self.base().with_motor_fraction(1.2)


# ---------------------------------------------------------------------------
# Admittance assembly
# ---------------------------------------------------------------------------


class TestAdmittance:
    def test_matches_reference_assembly_on_random_networks(self, rng):
        for _ in range(20):
            net = random_network(rng)
            got = build_admittance(net, "prefault")
            want = reference_admittance(net)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_symmetric(self, rng):
        for _ in range(10):
            net = random_network(rng)
            y = build_admittance(net, "prefault")
            assert np.max(np.abs(y - y.T)) < 1e-12

    def test_row_sums_without_shunts_or_charging(self, rng):
        net = random_network(rng)
        clean = Network(
            buses=tuple(Bus(b.id, b.base_kv, b.bus_kind) for b in net.buses),
            lines=tuple(
                Line(l.from_bus, l.to_bus, l.series_impedance, 0.0, l.has_transformer)
                for l in net.lines
            ),
            generators=net.generators,
            loads=net.loads,
        )
        y = build_admittance(clean, "prefault")
        assert np.max(np.abs(y.sum(axis=1))) < 1e-12

    def test_no_lines_gives_diagonal_of_shunts(self):
        net = Network(
            buses=(Bus(0, 345.0, "slack", shunt=complex(0.1, -0.5)),),
            lines=(),
            generators=(Generator(0, 5.0, 2.0, 0.1, 1.0, 1.0),),
            loads=(),
        )
        y = build_admittance(net, "prefault")
        assert y.shape == (1, 1)
        assert y[0, 0] == complex(0.1, -0.5)

    def test_faulted_has_midpoint_and_fault_shunt(self):
        net = two_bus_network()
        fault = FaultSpec(0, 0.3)
        y_pre = build_admittance(net, "prefault")
        y_flt = build_admittance(net, "faulted", fault)
        assert y_flt.shape == (3, 3)
        # subtracting the section and fault stamps leaves the prefault matrix
        # minus the original line stamp on the original buses
        sec1, sec2, mid = split_line(net.lines[0], 0.3, 2)
        resid = y_flt.copy()
        for sec in (sec1, sec2):
            ys = 1.0 / sec.series_impedance
            hb = 1j * sec.charging_susceptance / 2.0
            resid[sec.from_bus, sec.from_bus] -= ys + hb
            resid[sec.to_bus, sec.to_bus] -= ys + hb
            resid[sec.from_bus, sec.to_bus] += ys
            resid[sec.to_bus, sec.from_bus] += ys
        resid[mid, mid] -= fault.fault_admittance
        # midpoint diagonal cancels a 1e6-scale shunt, so compare relatively
        assert abs(resid[2, 2]) < 1e-12 * abs(fault.fault_admittance)
        assert np.max(np.abs(resid[2, :2])) < 1e-12
        assert np.max(np.abs(resid[:2, 2])) < 1e-12
        ln = net.lines[0]
        bare = y_pre.copy()
        ys = 1.0 / ln.series_impedance
        hb = 1j * ln.charging_susceptance / 2.0
        bare[0, 0] -= ys + hb
        bare[1, 1] -= ys + hb
        bare[0, 1] += ys
        bare[1, 0] += ys
        assert np.max(np.abs(resid[:2, :2] - bare)) < 1e-12

    def test_postfault_removes_line(self):
        net = random_network(np.random.default_rng(7))
        eligible = net.fault_eligible_lines()
        idx = eligible[0]
        fault = FaultSpec(idx, 0.5)
        y_post = build_admittance(net, "postfault", fault)
        without = Network(
            buses=net.buses,
            lines=tuple(l for i, l in enumerate(net.lines) if i != idx),
            generators=net.generators,
            loads=net.loads,
        )
        want = build_admittance(without, "prefault")
        assert np.max(np.abs(y_post - want)) < 1e-12

    def test_fault_on_transformer_rejected(self):
        net = two_bus_network()
        xf = Network(
            buses=net.buses,
            lines=(Line(0, 1, complex(0.0, 0.05), 0.0, has_transformer=True),)
            + net.lines,
            generators=net.generators,
            loads=net.loads,
        )
        with pytest.raises(ValueError, match="transformer"):
            validate_fault(xf, FaultSpec(0, 0.5))
        validate_fault(xf, FaultSpec(1, 0.5))

    def test_fault_location_bounds(self):
        net = two_bus_network()
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                validate_fault(net, FaultSpec(0, frac))

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            build_admittance(two_bus_network(), "collapsed")

    def test_faulted_without_fault_rejected(self):
        with pytest.raises(ValueError):
            build_admittance(two_bus_network(), "faulted")


# ---------------------------------------------------------------------------
# Line splitting
# ---------------------------------------------------------------------------


class TestSplitLine:
    @given(
        frac=st.floats(0.01, 0.99, allow_nan=False),
        r=st.floats(1e-4, 0.1, allow_nan=False),
        x=st.floats(1e-3, 0.5, allow_nan=False),
        b=st.floats(0.0, 2.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_sections_conserve_line_parameters(self, frac, r, x, b):
        line = Line(3, 8, complex(r, x), b)
        s1, s2, mid = split_line(line, frac, 99)
        assert mid == 99
        assert s1.from_bus == 3 and s1.to_bus == 99
        assert s2.from_bus == 99 and s2.to_bus == 8
        assert abs(s1.series_impedance + s2.series_impedance - line.series_impedance) < 1e-12
        assert abs(s1.charging_susceptance + s2.charging_susceptance - b) < 1e-12

    def test_midpoint_split_is_symmetric(self):
        line = Line(0, 1, complex(0.02, 0.2), 0.4)
        s1, s2, _ = split_line(line, 0.5, 2)
        assert s1.series_impedance == s2.series_impedance
        assert s1.charging_susceptance == s2.charging_susceptance

    def test_invalid_fractions_rejected(self):
        line = Line(0, 1, complex(0.02, 0.2), 0.4)
        for frac in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                split_line(line, frac, 2)


# ---------------------------------------------------------------------------
# Adjacency
# ---------------------------------------------------------------------------


class TestAdjacency:
    def test_symmetric_zero_diagonal(self, rng):
        net = random_network(rng)
        adj = adjacency_from_network(net)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert set(np.unique(adj)) <= {0, 1}

    def test_edges_match_line_list(self):
        net = two_bus_network()
        adj = adjacency_from_network(net)
        assert adj[0, 1] == 1 and adj[1, 0] == 1

    def test_without_line_drops_edge_unless_parallel(self):
        buses = tuple(Bus(i, 138.0, "slack" if i == 0 else "pq") for i in range(3))
        lines = (
            Line(0, 1, complex(0.01, 0.1)),
            Line(0, 1, complex(0.01, 0.12)),  # parallel with the first
            Line(1, 2, complex(0.01, 0.1)),
        )
        net = Network(buses=buses, lines=lines,
                      generators=(Generator(0, 5.0, 2.0, 0.1, 1.0, 1.0),), loads=())
        # dropping one of a parallel pair keeps the edge
        adj = adjacency_from_network(net, without_line=0)
        assert adj[0, 1] == 1
        # dropping the only line between 1 and 2 removes the edge
        adj = adjacency_from_network(net, without_line=2)
        assert adj[1, 2] == 0 and adj[2, 1] == 0

    def test_without_line_outside_the_line_table_rejected(self, ieee39):
        for index in (-1, 46, 999):
            with pytest.raises(ValueError, match="outside"):
                adjacency_from_network(ieee39, without_line=index)
        assert adjacency_from_network(ieee39, without_line=45).shape == (39, 39)  # last line


class TestConnected:
    @pytest.mark.parametrize("edges, n, expected", [
        ([(0, 1), (1, 2), (2, 3)], 4, True),  # a path
        ([(0, 1), (2, 3)], 4, False),  # two islands
        ([], 1, True),  # one bus
    ])
    def test_small_graphs(self, edges, n, expected):
        adj = np.zeros((n, n), dtype=np.int8)
        for i, j in edges:
            adj[i, j] = adj[j, i] = 1
        assert connected(adj) is expected

    def test_bundled_network_without_a_line(self, ieee39):
        assert connected(adjacency_from_network(ieee39))
        assert not connected(adjacency_from_network(ieee39, without_line=21))  # a bridge
        assert connected(adjacency_from_network(ieee39, without_line=13))


# ---------------------------------------------------------------------------
# Bundled 39-bus data
# ---------------------------------------------------------------------------


class TestBundledNetwork:
    def test_counts(self, ieee39):
        assert ieee39.n_bus == 39
        assert len(ieee39.lines) == 46
        assert len(ieee39.fault_eligible_lines()) == 34
        assert len(ieee39.generators) == 10
        assert len(ieee39.loads) == 19

    def test_validates(self, ieee39):
        validate_network(ieee39)

    def test_round_trips(self, ieee39):
        assert parse_network(format_network(ieee39)) == ieee39
        assert format_network(ieee39) == Path(packaged_network_path()).read_text()

    def test_generator_script_writes_the_bundled_file(self, tmp_path):
        """scripts/make_ieee39.py regenerates the packaged network byte for byte."""
        script = Path(__file__).resolve().parent.parent / "scripts" / "make_ieee39.py"
        out = tmp_path / "ieee39.net"
        subprocess.run([sys.executable, str(script), str(out)], check=True, capture_output=True)
        assert out.read_bytes() == Path(packaged_network_path()).read_bytes()
