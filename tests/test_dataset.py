"""Scenario grids, features, splits, and dataset file round-trips."""

import itertools
import logging
import math
import os
import struct
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsakit import cli, dataset
from tsakit.dataset import (
    Flag,
    GridConfig,
    Sample,
    build_dataset,
    dataset_manifest,
    desk_grid,
    label_context,
    enumerate_scenarios,
    extract_features,
    load_dataset,
    paper_grid,
    save_dataset,
    split_dataset,
    validate_grid,
    write_labels_csv,
    write_manifest,
)
from tsakit import labeling
from tsakit.grid_model import FaultSpec, adjacency_from_network
from tsakit.labeling import COARSE_GRID, K_MAX, K_MIN, CctResult, lattice_s, margin, tsi, tvs
from tsakit.tds import Trace, clearing_instant, run_simulations


def make_trace(v_mag, v_ang, step_s=0.01, slack_bus=0):
    v_mag = np.asarray(v_mag, dtype=float)
    v_ang = np.asarray(v_ang, dtype=float)
    n_steps, n_bus = v_mag.shape
    times = np.arange(n_steps) * step_s
    return Trace(
        times=times,
        rotor_angles=np.zeros((n_steps, 2)),
        bus_v_mag=v_mag,
        bus_v_ang=v_ang,
        motor_slips=np.zeros((n_steps, 0)),
        step_s=step_s,
        slack_bus=slack_bus,
        load_buses=np.arange(n_bus),
        fault_start_s=None,
        clear_time_s=None,
    )


class TestGrids:
    def test_scenario_order_matches_nested_product(self):
        cfg = GridConfig(
            lines=(3, 7),
            location_fractions=(0.25, 0.75),
            motor_fractions=(0.5, 0.6),
            clearing_cycles=(4.0, 8.0, 12.0),
        )
        scenarios = enumerate_scenarios(cfg)
        expected = list(
            itertools.product(
                cfg.lines, cfg.location_fractions, cfg.motor_fractions, cfg.clearing_cycles
            )
        )
        assert len(scenarios) == len(expected) == cfg.n_scenarios
        for sc, (line, loc, frac, cyc) in zip(scenarios, expected):
            assert sc.fault.line_index == line
            assert sc.fault.location_fraction == loc
            assert sc.motor_fraction == frac
            assert sc.clearing_cycles == cyc

    def test_scenario_id_formula(self):
        # id = ((line_i * n_loc + loc_i) * n_frac + frac_i) * n_cyc + cyc_i
        cfg = GridConfig(
            lines=(0, 1, 2),
            location_fractions=(0.2, 0.5, 0.8),
            motor_fractions=(0.6,),
            clearing_cycles=(3.0, 6.0),
        )
        scenarios = enumerate_scenarios(cfg)
        for li, oi, fi, ci in itertools.product(range(3), range(3), range(1), range(2)):
            sid = ((li * 3 + oi) * 1 + fi) * 2 + ci
            sc = scenarios[sid]
            assert sc.fault.line_index == cfg.lines[li]
            assert sc.fault.location_fraction == cfg.location_fractions[oi]
            assert sc.clearing_cycles == cfg.clearing_cycles[ci]

    def test_desk_grid_has_90_scenarios(self, ieee39):
        cfg = desk_grid(ieee39)
        assert cfg.n_scenarios == 90
        assert len(enumerate_scenarios(cfg)) == 90

    def test_paper_grid_has_4590_scenarios(self, ieee39):
        cfg = paper_grid(ieee39)
        assert cfg.n_scenarios == 4590
        assert len(cfg.lines) == 34
        assert cfg.clearing_cycles == tuple(float(c) for c in range(3, 12))

    def test_desk_lines_are_fault_eligible(self, ieee39):
        eligible = set(ieee39.fault_eligible_lines())
        for idx in desk_grid(ieee39).lines:
            assert idx in eligible

    def test_validate_rejects_transformer_line(self, ieee39):
        transformer = next(
            i for i, ln in enumerate(ieee39.lines) if ln.has_transformer
        )
        cfg = GridConfig(
            lines=(transformer,),
            location_fractions=(0.5,),
            motor_fractions=(0.6,),
            clearing_cycles=(5.0,),
        )
        with pytest.raises(ValueError, match="not fault eligible"):
            validate_grid(cfg, ieee39)

    def test_validate_rejects_endpoint_location(self, ieee39):
        cfg = GridConfig(
            lines=(1,),
            location_fractions=(0.0,),
            motor_fractions=(0.6,),
            clearing_cycles=(5.0,),
        )
        with pytest.raises(ValueError, match="location"):
            validate_grid(cfg, ieee39)

    def test_validate_rejects_window_past_end(self, ieee39):
        cfg = GridConfig(
            lines=(1,),
            location_fractions=(0.5,),
            motor_fractions=(0.6,),
            clearing_cycles=(5.0,),
            window_steps=30,
            fault_start_s=9.9,
        )
        with pytest.raises(ValueError, match="window"):
            validate_grid(cfg, ieee39)

    def test_validate_rejects_trace_past_recovery_window(self, ieee39):
        cfg = desk_grid(ieee39)
        longest = cfg.fault_start_s + labeling.RECOVERY_WINDOW_S
        validate_grid(replace(cfg, duration_s=longest), ieee39)
        for long in (replace(cfg, duration_s=longest + cfg.step_s),
                     replace(cfg, duration_s=12.0, fault_start_s=1.5)):
            with pytest.raises(ValueError, match="recovery window"):
                validate_grid(long, ieee39)

    def test_validate_rejects_fault_start_off_the_sample_grid(self, ieee39):
        # the window would start at the sample nearest the fault, before it
        cfg = desk_grid(ieee39)
        validate_grid(replace(cfg, fault_start_s=1.0 + 5e-10), ieee39)  # tds snaps it
        for off in (1.004, 1.0 + 2e-9, 0.995):
            with pytest.raises(ValueError, match="not a multiple of step_s"):
                validate_grid(replace(cfg, fault_start_s=off), ieee39)

    def test_window_start_is_the_fault_sample(self, ieee39):
        cfg = desk_grid(ieee39)
        assert cfg.window_start == 100
        assert replace(cfg, fault_start_s=0.305, step_s=0.005).window_start == 61


@st.composite
def voltage_rows(draw, min_steps=1, max_steps=25):
    """(v_mag, v_ang, slack_bus): angles that cross +-pi or step by exactly
    pi, non-finite values, and magnitudes outside [0, 2] pu."""
    steps = draw(st.integers(min_steps, max_steps))
    n_bus = draw(st.integers(2, 6))
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    mag = st.one_of(st.floats(-1.0, 3.0), st.just(-0.0), non_finite)
    quarter_turns = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
    ang = st.one_of(st.floats(-10.0, 10.0), quarter_turns, non_finite)
    size = steps * n_bus
    v_mag = np.array(draw(st.lists(mag, min_size=size, max_size=size))).reshape(steps, n_bus)
    v_ang = np.array(draw(st.lists(ang, min_size=size, max_size=size))).reshape(steps, n_bus)
    return v_mag, v_ang, draw(st.integers(0, n_bus - 1))


# slack-relative angles that step by exactly +pi and -pi (np.unwrap's boundary
# fix-up), then cross +-pi
HALF_TURN_STEPS = (
    np.ones((8, 2)),
    np.stack([np.zeros(8), [-math.pi / 2, math.pi / 2] * 2 + [3.0, -3.0] * 2], axis=1),
    0,
)


class TestFeatures:
    def wrap(self, x):
        return math.atan2(math.sin(x), math.cos(x))

    def reference_features(self, v_mag, v_ang, slack, start, steps):
        # loop-level restatement: clamp, slack-relative wrap, cumulative unwrap
        n_bus = v_mag.shape[1]
        out = np.zeros((n_bus, 2 * steps), dtype=np.float32)
        for v in range(n_bus):
            rel = [
                self.wrap(v_ang[start + k, v] - v_ang[start + k, slack])
                for k in range(steps)
            ]
            unwrapped = [rel[0]]
            carry = 0.0
            for k in range(1, steps):
                d = rel[k] - rel[k - 1]
                if d > math.pi:
                    carry -= 2.0 * math.pi
                elif d < -math.pi:
                    carry += 2.0 * math.pi
                unwrapped.append(rel[k] + carry)
            for k in range(steps):
                out[v, k] = min(max(v_mag[start + k, v], 0.0), 2.0)
                out[v, steps + k] = unwrapped[k]
        return out

    def test_matches_reference_on_random_window(self, rng):
        n_steps, n_bus, start, steps = 40, 5, 10, 16
        v_mag = 0.2 + 1.5 * rng.random((n_steps, n_bus))
        v_ang = rng.uniform(-3.0, 3.0, (n_steps, n_bus))
        trace = make_trace(v_mag, v_ang, slack_bus=2)
        feats, clamped = extract_features(trace, start, steps)
        ref = self.reference_features(v_mag, v_ang, 2, start, steps)
        assert feats.shape == (n_bus, 2 * steps)
        assert feats.dtype == np.float32
        np.testing.assert_allclose(feats, ref, atol=1e-6)
        assert not clamped

    def test_slack_angle_row_is_zero(self, rng):
        v_mag = np.ones((30, 4))
        v_ang = rng.uniform(-3.0, 3.0, (30, 4))
        trace = make_trace(v_mag, v_ang, slack_bus=1)
        feats, _ = extract_features(trace, 0, 30)
        np.testing.assert_array_equal(feats[1, 30:], 0.0)

    def test_common_angle_shift_is_removed(self, rng):
        v_mag = np.ones((25, 3))
        v_ang = rng.uniform(-1.0, 1.0, (25, 3))
        shift = rng.uniform(-3.0, 3.0, (25, 1))
        a, _ = extract_features(make_trace(v_mag, v_ang), 0, 25)
        b, _ = extract_features(make_trace(v_mag, v_ang + shift), 0, 25)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_angle_series_continuous_across_wrap(self):
        # relative angle passes +pi between samples; unwrap keeps it continuous
        ang = np.linspace(2.9, 3.6, 8)  # crosses pi ~ 3.1416
        v_ang = np.stack([np.zeros(8), ang], axis=1)
        trace = make_trace(np.ones((8, 2)), v_ang)
        feats, _ = extract_features(trace, 0, 8)
        series = feats[1, 8:]
        np.testing.assert_allclose(series, ang, atol=1e-6)
        assert np.all(np.abs(np.diff(series)) < 0.2)

    def test_magnitude_clamped_and_flagged(self):
        v_mag = np.ones((10, 2))
        v_mag[4, 1] = 2.7
        v_mag[5, 0] = -0.3
        trace = make_trace(v_mag, np.zeros((10, 2)))
        feats, clamped = extract_features(trace, 0, 10)
        assert clamped
        assert feats[1, 4] == 2.0
        assert feats[0, 5] == 0.0

    def test_non_finite_replaced_and_flagged(self):
        v_mag = np.ones((10, 2))
        v_ang = np.zeros((10, 2))
        v_mag[7, 0] = np.nan
        v_ang[8, 1] = np.inf
        trace = make_trace(v_mag, v_ang)
        feats, clamped = extract_features(trace, 0, 10)
        assert clamped
        assert np.all(np.isfinite(feats))
        assert feats[0, 7] == 0.0

    @staticmethod
    def unwrap_features(v_mag, v_ang, slack_bus):
        # the whole-window implementation that per-row preparation replaced
        mags = np.array(v_mag, dtype=float)
        angs = np.array(v_ang, dtype=float)
        clamped = False
        for arr in (mags, angs):
            bad = ~np.isfinite(arr)
            if bad.any():
                arr[bad] = 0.0
                clamped = True
        if (mags < 0.0).any() or (mags > 2.0).any():
            mags = np.clip(mags, 0.0, 2.0)
            clamped = True
        rel = angs - angs[:, [slack_bus]]
        rel = np.angle(np.exp(1j * rel))
        rel = np.unwrap(rel, axis=0)
        return np.concatenate([mags.T, rel.T], axis=1).astype(np.float32), clamped

    @settings(max_examples=120, deadline=None)
    @given(voltage_rows())
    @example(HALF_TURN_STEPS)
    def test_bits_equal_whole_window_unwrap(self, window):
        feats, clamped = dataset.features_from_window(*window)
        ref, ref_clamped = self.unwrap_features(*window)
        assert feats.dtype == np.float32 and feats.shape == ref.shape
        assert feats.tobytes() == ref.tobytes()
        assert clamped == ref_clamped

    @settings(max_examples=60, deadline=None)
    @given(voltage_rows(min_steps=1, max_steps=60), st.integers(1, 8))
    @example(HALF_TURN_STEPS, 4)
    def test_every_stream_window_equals_whole_window_unwrap(self, stream, steps):
        v_mag, v_ang, slack = stream
        window = dataset.StreamWindow(v_mag.shape[1], steps, slack)
        for k in range(len(v_mag)):
            window.push(v_mag[k], v_ang[k])
            assert window.full == (k + 1 >= steps)
            if not window.full:
                continue
            feats, clamped = window.features()
            sl = slice(k + 1 - steps, k + 1)
            ref, ref_clamped = self.unwrap_features(v_mag[sl], v_ang[sl], slack)
            assert feats.tobytes() == ref.tobytes()
            assert clamped == ref_clamped

    def test_stream_window_rejects_bad_rows_and_early_reads(self):
        with pytest.raises(ValueError, match="step"):
            dataset.StreamWindow(3, 0, 0)
        with pytest.raises(ValueError, match="slack"):
            dataset.StreamWindow(3, 2, 3)
        window = dataset.StreamWindow(3, 2, 0)
        with pytest.raises(ValueError, match="3 magnitudes"):
            window.push(np.ones(2), np.zeros(2))
        window.push(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError, match="1 of 2"):
            window.features()

    def test_window_bounds_checked(self):
        trace = make_trace(np.ones((10, 2)), np.zeros((10, 2)))
        with pytest.raises(ValueError, match="window"):
            extract_features(trace, 0, 11)
        with pytest.raises(ValueError, match="window"):
            extract_features(trace, -1, 5)
        with pytest.raises(ValueError, match="window"):
            extract_features(trace, 8, 3)
        extract_features(trace, 8, 2)  # exactly at the end is fine


def split_sizes(n, ratios=(0.7, 0.1, 0.2)):
    tr = round(n * ratios[0])
    va = round(n * ratios[1])
    return tr, va, n - tr - va


class TestSplit:
    def labels(self, counts):
        out = []
        for label, count in counts.items():
            out.extend([label] * count)
        return out

    def test_exact_global_sizes(self):
        labels = self.labels({(True, True): 50, (False, False): 40})
        split = split_dataset(labels, seed=7)
        tr, va, te = split_sizes(90)
        assert (len(split.train_ids), len(split.val_ids), len(split.test_ids)) == (tr, va, te)
        assert (tr, va, te) == (63, 9, 18)

    def test_partition_is_disjoint_and_complete(self):
        labels = self.labels({(True, True): 31, (True, False): 17, (False, False): 12})
        split = split_dataset(labels, seed=3)
        all_ids = np.concatenate([split.train_ids, split.val_ids, split.test_ids])
        assert sorted(all_ids.tolist()) == list(range(60))

    def test_per_stratum_proportions_within_one(self):
        counts = {(True, True): 48, (True, False): 21, (False, True): 9, (False, False): 22}
        labels = self.labels(counts)
        n = len(labels)
        split = split_dataset(labels, seed=11)
        targets = split_sizes(n)
        parts = [set(split.train_ids), set(split.val_ids), set(split.test_ids)]
        start = 0
        for label, count in counts.items():
            ids = set(range(start, start + count))
            start += count
            for k in range(3):
                got = len(ids & parts[k])
                ideal = count * targets[k] / n
                assert abs(got - ideal) <= 1.0 + 1e-9, (label, k, got, ideal)

    def test_same_seed_reproduces(self):
        labels = self.labels({(True, True): 40, (False, False): 25})
        a = split_dataset(labels, seed=5)
        b = split_dataset(labels, seed=5)
        np.testing.assert_array_equal(a.train_ids, b.train_ids)
        np.testing.assert_array_equal(a.val_ids, b.val_ids)
        np.testing.assert_array_equal(a.test_ids, b.test_ids)

    def test_different_seed_differs(self):
        labels = self.labels({(True, True): 40, (False, False): 25})
        a = split_dataset(labels, seed=5)
        b = split_dataset(labels, seed=6)
        assert not np.array_equal(a.train_ids, b.train_ids)

    def test_small_strata_are_pooled(self, caplog):
        labels = self.labels({(True, True): 30, (False, True): 2, (True, False): 1})
        with caplog.at_level(logging.INFO, logger="tsakit.dataset"):
            split = split_dataset(labels, seed=2)
        assert "pooling" in caplog.text
        tr, va, te = split_sizes(33)
        assert len(split.train_ids) == tr
        assert len(split.val_ids) == va
        assert len(split.test_ids) == te

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            split_dataset([(True, True)] * 10, seed=0, ratios=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            split_dataset([(True, True)] * 10, seed=0, ratios=(0.9, -0.1, 0.2))
        with pytest.raises(ValueError):
            split_dataset([], seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_invariants_on_random_strata(self, counts, seed):
        labels = []
        for stratum, count in enumerate(counts):
            labels.extend([(stratum % 2 == 0, stratum < 2)] * count)
        n = len(labels)
        split = split_dataset(labels, seed=seed)
        tr, va, te = split_sizes(n)
        assert len(split.train_ids) == tr
        assert len(split.val_ids) == va
        assert len(split.test_ids) == te
        merged = np.concatenate([split.train_ids, split.val_ids, split.test_ids])
        assert sorted(merged.tolist()) == list(range(n))


def random_samples(rng, count=4, n_bus=6, window=5):
    out = []
    for i in range(count):
        out.append(
            Sample(
                scenario_id=i * 3,
                tas_stable=bool(rng.integers(0, 2)),
                tvs_stable=bool(rng.integers(0, 2)),
                tas_signed=float(np.float32(rng.uniform(-1, 1))),
                tvs_signed=float(np.float32(rng.uniform(-1, 1))),
                tsi_deg=float(np.float32(rng.uniform(0, 4000))),
                v_min_pu=float(np.float32(rng.uniform(0, 1.2))),
                tas_cct_s=float(np.float32(rng.uniform(0.01, 0.5))),
                tvs_cct_s=float(np.float32(rng.uniform(0.01, 0.5))),
                flags=int(rng.integers(0, 64)),
                adjacency=rng.integers(0, 2, (n_bus, n_bus)).astype(np.int8),
                features=rng.random((n_bus, 2 * window)).astype(np.float32),
            )
        )
    return out


class TestDatasetFile:
    def test_roundtrip_is_exact(self, tmp_path, rng):
        samples = random_samples(rng)
        path = tmp_path / "d.tsd"
        save_dataset(samples, path)
        loaded, meta = load_dataset(path)
        assert meta == {"n_samples": 4, "n_bus": 6, "window_steps": 5}
        for a, b in zip(samples, loaded):
            assert a.scenario_id == b.scenario_id
            assert a.tas_stable == b.tas_stable
            assert a.tvs_stable == b.tvs_stable
            assert a.flags == b.flags
            # labels were float32 to begin with, so the trip is exact
            assert a.tas_signed == b.tas_signed
            assert a.tvs_signed == b.tvs_signed
            assert a.tsi_deg == b.tsi_deg
            assert a.v_min_pu == b.v_min_pu
            assert a.tas_cct_s == b.tas_cct_s
            assert a.tvs_cct_s == b.tvs_cct_s
            np.testing.assert_array_equal(a.adjacency, b.adjacency)
            np.testing.assert_array_equal(a.features, b.features)

    def test_rebuild_writes_identical_bytes(self, tmp_path, rng):
        samples = random_samples(rng, count=3)
        p1 = tmp_path / "a.tsd"
        p2 = tmp_path / "b.tsd"
        save_dataset(samples, p1)
        save_dataset(samples, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.tsd"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="TSD1"):
            load_dataset(path)

    def test_rejects_truncated_file(self, tmp_path, rng):
        samples = random_samples(rng, count=2)
        path = tmp_path / "t.tsd"
        save_dataset(samples, path)
        raw = path.read_bytes()
        for data in (raw[:-8], b"TSD1\x01\x00"):  # short records; short header
            path.write_bytes(data)
            with pytest.raises(ValueError, match="truncated"):
                load_dataset(path)

    def test_rejects_a_file_without_samples(self, tmp_path):
        path = tmp_path / "empty.tsd"
        path.write_bytes(struct.pack("<4sIIIII", b"TSD1", 1, 0, 6, 5, 1))
        with pytest.raises(ValueError, match="empty dataset"):
            load_dataset(path)

    def test_rejects_empty_and_mismatched(self, tmp_path, rng):
        with pytest.raises(ValueError, match="empty"):
            save_dataset([], tmp_path / "e.tsd")
        samples = random_samples(rng, count=2)
        samples[1].features = samples[1].features[:, :4]
        with pytest.raises(ValueError, match="inconsistent"):
            save_dataset(samples, tmp_path / "m.tsd")


class TestManifestAndCsv:
    def test_manifest_roundtrip(self, tmp_path):
        manifest = {"format": "TSD1", "seed": 3, "step_s": repr(0.01), "lines": "1,5,13"}
        path = tmp_path / "m.txt"
        write_manifest(manifest, path)
        back = cli.read_config(path)
        assert back == {k: str(v) for k, v in manifest.items()}

    def test_manifest_bytes_stable(self, tmp_path):
        manifest = {"a": 1, "b": "x"}
        p1, p2 = tmp_path / "1.txt", tmp_path / "2.txt"
        write_manifest(manifest, p1)
        write_manifest(manifest, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_labels_csv_header_is_the_label_fields(self, tmp_path, rng):
        path = tmp_path / "labels.csv"
        write_labels_csv(random_samples(rng, count=1), path)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == [name for name, _ in dataset._LABELS]
        assert header.startswith("scenario_id,tas_stable,tvs_stable,tas_signed,tvs_signed,")

    def test_labels_csv_cells_are_the_float32_labels(self, tmp_path, rng):
        samples = random_samples(rng, count=40) + [
            Sample(
                scenario_id=7, tas_stable=True, tvs_stable=False, tas_signed=-0.0,
                tvs_signed=float(np.float32(1 / 3)), tsi_deg=123.5, v_min_pu=0.75,
                tas_cct_s=0.2, tvs_cct_s=float(np.float32(0.1)), flags=Flag.CLAMPED,
                adjacency=np.zeros((2, 2), dtype=np.int8),
                features=np.zeros((2, 4), dtype=np.float32),
            )
        ]
        path = tmp_path / "labels.csv"
        write_labels_csv(samples, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == len(samples)
        for s, row in zip(samples, rows):
            assert len(row) == len(dataset._LABELS)
            for (name, _), cell in zip(dataset._LABELS, row):
                got = np.float32(float(cell))
                assert got.tobytes() == np.float32(getattr(s, name)).tobytes(), (name, cell)
        assert rows[-1] == ["7", "1", "0", "-0", "0.3333333433", "123.5", "0.75", "0.2",
                            "0.1000000015", "32"]

    def test_manifest_grid_keys_give_back_the_grid(self, ieee39, tmp_path):
        base = GridConfig(lines=(0,), location_fractions=(0.25,), motor_fractions=(0.0,),
                          clearing_cycles=(1.0,), window_steps=2, fault_start_s=0.5,
                          duration_s=2.0, step_s=0.02)
        names = [name for name, _ in dataset._GRID_KEYS]
        for cfg in (desk_grid(ieee39), paper_grid(ieee39)):
            path = tmp_path / "manifest.txt"
            write_manifest(dataset_manifest(ieee39, cfg, 0, [], []), path)
            keys = {k: v for k, v in cli.read_config(path).items() if k in names}
            assert list(keys) == [f.name for f in fields(GridConfig)]
            assert cli.grid_from_config(base, keys) == cfg

    def test_equal_grids_share_one_config_digest(self, ieee39):
        ints = GridConfig(lines=(13,), location_fractions=(0.5,), motor_fractions=(1,),
                          clearing_cycles=(3, 5), fault_start_s=1, duration_s=10)
        floats = GridConfig(lines=(13,), location_fractions=(0.5,), motor_fractions=(1.0,),
                            clearing_cycles=(3.0, 5.0), fault_start_s=1.0, duration_s=10.0)
        assert ints == floats
        assert ints.clearing_cycles == (3.0, 5.0)
        assert all(type(c) is float for c in ints.clearing_cycles)
        assert type(ints.duration_s) is float
        assert (dataset_manifest(ieee39, ints, 0, [], [])["config_digest"]
                == dataset_manifest(ieee39, floats, 0, [], [])["config_digest"])


@pytest.fixture(scope="module")
def tiny_build(ieee39):
    cfg = GridConfig(
        lines=(13,),
        location_fractions=(0.5,),
        motor_fractions=(0.6,),
        clearing_cycles=(3.0, 11.0),
    )
    return build_dataset(ieee39, cfg, seed=0), cfg


class TestBuildDataset:
    def test_counts_and_ids(self, tiny_build):
        (samples, manifest), cfg = tiny_build
        assert len(samples) == 2
        assert [s.scenario_id for s in samples] == [0, 1]
        assert manifest["n_scenarios"] == 2
        assert manifest["n_samples"] == 2
        assert manifest["n_failed"] == 0

    def test_labels_bracket_the_boundary(self, tiny_build):
        (samples, _), _ = tiny_build
        fast, slow = samples
        assert fast.tas_stable and fast.tvs_stable
        assert not slow.tas_stable
        assert fast.tas_signed > 0.0
        assert slow.tas_signed < 0.0
        # both scenarios share one fault context, so one boundary each
        assert fast.tas_cct_s == slow.tas_cct_s
        assert fast.tvs_cct_s == slow.tvs_cct_s

    def test_margin_matches_boundary_and_clearing(self, tiny_build):
        (samples, _), _ = tiny_build
        hz = 60.0
        for s, cycles in zip(samples, (3.0, 11.0)):
            # the margin of the float64 lattice CCT, both rounded to float32
            cct = lattice_s(round(s.tas_cct_s * 4 * hz), hz)
            assert s.tas_cct_s == float(np.float32(cct))
            assert s.tas_signed == float(np.float32(margin(cct, cycles / hz)))

    def test_adjacency_is_post_fault(self, tiny_build, ieee39):
        (samples, _), _ = tiny_build
        expected = adjacency_from_network(ieee39, without_line=13)
        for s in samples:
            np.testing.assert_array_equal(s.adjacency, expected)
        with_line = adjacency_from_network(ieee39)
        assert not np.array_equal(expected, with_line)

    def test_features_shape_and_finiteness(self, tiny_build, ieee39):
        (samples, _), cfg = tiny_build
        for s in samples:
            assert s.features.shape == (ieee39.n_bus, 2 * cfg.window_steps)
            assert s.features.dtype == np.float32
            assert np.all(np.isfinite(s.features))
            # fault-on samples inside the window: a magnitude dip is visible
            assert s.features[:, : cfg.window_steps].min() < 0.9

    def test_manifest_class_counts_sum(self, tiny_build):
        (_, manifest), _ = tiny_build
        total = sum(
            manifest[f"count_{k}"]
            for k in ("stable_stable", "stable_unstable", "unstable_stable", "unstable_unstable")
        )
        assert total == manifest["n_samples"]

    def test_manifest_counts_each_flag_in_member_order(self, tiny_build):
        (samples, manifest), _ = tiny_build
        counts = [key for key in manifest if key.startswith("count_")]
        assert counts[4:-2] == [f"count_{bit.name.lower()}" for bit in Flag]
        assert all(type(s.flags) is int for s in samples)

    def test_manifest_counts_nonmonotone_and_disagreeing_samples(self, tiny_build):
        (samples, manifest), _ = tiny_build
        for name, bit in (("tas_nonmonotone", Flag.TAS_NONMONOTONE),
                          ("tvs_nonmonotone", Flag.TVS_NONMONOTONE)):
            assert manifest[f"count_{name}"] == sum(bool(s.flags & bit) for s in samples)
        # 3 cycles clears well before the boundary, 11 cycles well after it
        assert manifest["count_tas_disagree"] == manifest["count_tvs_disagree"] == 0

    def test_contexts_simulate_once_and_release_their_traces(self, ieee39, monkeypatch):
        """Per context: the coarse scan and the grid in one batch, then the
        bracket points of both criteria in a second, no clearing instant
        twice; and no trace of the previous context is alive when the next
        context starts simulating."""
        runs = []  # (fault location, clearing times) per simulation call
        alive = []  # (fault location, weak reference to a trace)
        batch = labeling.run_simulations

        def tracked_batch(network, init, fault, clear_times, *timing):
            loc = fault.location_fraction
            assert all(ref() is None for other, ref in alive if other != loc)
            traces = batch(network, init, fault, clear_times, *timing)
            runs.append((loc, list(clear_times)))
            alive.extend((loc, weakref.ref(t)) for t in traces)
            return traces

        monkeypatch.setattr(labeling, "run_simulations", tracked_batch)
        cfg = GridConfig(
            lines=(13,), location_fractions=(0.1, 0.9), motor_fractions=(0.6,),
            clearing_cycles=(3.0, 4.0), duration_s=1.6,
        )
        build_dataset(ieee39, cfg, seed=0, jobs=1)
        hz = ieee39.nominal_hz
        coarse = [lattice_s(k, hz) for k in COARSE_GRID]
        probes = {lattice_s(k, hz) for k in range(K_MIN, K_MAX) if k not in COARSE_GRID}
        assert [loc for loc, _ in runs] == sorted(loc for loc, _ in runs)
        for loc in cfg.location_fractions:
            calls = [clears for other, clears in runs if other == loc]
            # 3 cycles is a coarse-scan point; 4 cycles is not
            assert len(calls) == 2
            assert calls[0] == coarse + [4.0 / 60.0]
            # the second batch holds bracket points only
            assert calls[1] and set(calls[1]) <= probes
            instants = [clearing_instant(1.0, c, 0.01) for clears in calls for c in clears]
            assert len(instants) == len(set(instants))

    def test_no_simulation_after_the_probe_batch(self, ieee39_eq06, monkeypatch):
        """Both searches read every probe from the cache: a simulation call
        after the second batch fails the test. No trace of the first batch
        is alive when the second starts."""
        net, eq = ieee39_eq06
        calls = []
        first = []  # weak references to the first batch's traces
        batch = labeling.run_simulations

        def two_batches(*args):
            calls.append(args[3])
            assert len(calls) <= 2, "simulated after the probe batch"
            assert all(ref() is None for ref in first), "first batch still alive"
            traces = batch(*args)
            if len(calls) == 1:
                first.extend(weakref.ref(t) for t in traces)
            return traces

        monkeypatch.setattr(labeling, "run_simulations", two_batches)
        cfg = replace(TWO_CONTEXTS, location_fractions=(0.5,))
        samples = label_context(net, eq, FaultSpec(13, 0.5), cfg,
                                list(enumerate(enumerate_scenarios(cfg))))
        assert len(calls) == 2
        assert not any(s.flags & (Flag.TAS_CCT_ABOVE | Flag.TAS_CCT_BELOW) for s in samples)


class TestAssembleSamples:
    """assemble_samples on synthetic traces: no network, no simulation."""

    CFG = GridConfig(lines=(0,), location_fractions=(0.5,), motor_fractions=(0.6,),
                     clearing_cycles=(3.0,), window_steps=4, fault_start_s=0.1,
                     duration_s=0.29, step_s=0.01)

    def traces(self):
        v_mag = np.full((30, 3), 1.0)
        v_mag[10:14] = 0.5  # the fault dip inside the feature window
        calm = make_trace(v_mag, np.zeros((30, 3)))
        broken = v_mag.copy()
        broken[12, 1] = np.nan
        lost = replace(make_trace(broken, np.zeros((30, 3))), diverged=True, diverged_step=20)
        return [calm, lost]

    def test_samples_take_their_traces_and_the_searched_boundaries(self, ieee39):
        cct_a = CctResult(t_cct_s=0.1, above_bracket=True)
        cct_v = CctResult(t_cct_s=0.2, nonmonotone=True)
        adjacency = np.eye(3, dtype=np.int8)
        traces = self.traces()
        samples = dataset.assemble_samples(
            [7, 8], [0.15, 0.3], traces, cct_a, cct_v, adjacency, self.CFG)
        calm, lost = samples
        assert [s.scenario_id for s in samples] == [7, 8]
        assert (calm.tas_stable, calm.tvs_stable) == (True, True)
        assert (lost.tas_stable, lost.tvs_stable) == (False, False)
        # every float label is held as the float32 value the file stores
        f32 = lambda x: float(np.float32(x))
        assert calm.tas_signed == f32(margin(0.1, 0.15))
        assert lost.tvs_signed == f32(margin(0.2, 0.3))
        assert all(s.adjacency is adjacency for s in samples)
        assert all((s.tas_cct_s, s.tvs_cct_s) == (f32(0.1), f32(0.2)) for s in samples)
        assert calm.tsi_deg == f32(tsi(traces[0]).tsi_deg)
        assert calm.v_min_pu == f32(tvs(traces[0]).v_min_pu)
        np.testing.assert_array_equal(calm.features, extract_features(traces[0], 10, 4)[0])
        base = Flag.TAS_CCT_ABOVE | Flag.TVS_NONMONOTONE
        assert calm.flags == base
        assert lost.flags == base | Flag.DIVERGED | Flag.CLAMPED
        counts = dataset_manifest(ieee39, self.CFG, 0, samples, [])
        assert counts["count_tas_cct_above"] == counts["count_tvs_nonmonotone"] == 2
        assert counts["count_diverged"] == counts["count_clamped"] == 1
        assert counts["count_tas_cct_below"] == counts["count_tvs_cct_above"] == 0
        assert (counts["count_stable_stable"], counts["count_unstable_unstable"]) == (1, 1)
        # calm clears after the angle boundary and stays stable
        assert (counts["count_tas_disagree"], counts["count_tvs_disagree"]) == (1, 0)


# two fault contexts of line 13 with 1.6 s traces: about a second each
TWO_CONTEXTS = GridConfig(
    lines=(13,), location_fractions=(0.1, 0.9), motor_fractions=(0.6,),
    clearing_cycles=(3.0, 4.0), duration_s=1.6,
)


class TestContextPool:
    def test_pool_and_serial_builds_are_identical(self, ieee39, tmp_path):
        serial, serial_manifest = build_dataset(ieee39, TWO_CONTEXTS, seed=0, jobs=1)
        pooled, pooled_manifest = build_dataset(ieee39, TWO_CONTEXTS, seed=0, jobs=2)
        save_dataset(serial, tmp_path / "serial.tsd")
        save_dataset(pooled, tmp_path / "pooled.tsd")
        assert (tmp_path / "serial.tsd").read_bytes() == (tmp_path / "pooled.tsd").read_bytes()
        assert serial_manifest == pooled_manifest

    @staticmethod
    def _build_logged(ieee39, monkeypatch, caplog, jobs):
        """Build TWO_CONTEXTS with non-monotone searches whose boundary is
        below every clearing time, so each context logs both non-monotone
        warnings and a disagreement per stable sample and criterion."""
        low = CctResult(t_cct_s=1.0 / 60.0, nonmonotone=True)
        # set before the pool starts, so forked workers inherit it
        monkeypatch.setattr(
            dataset, "find_ccts",
            lambda network, eq, fault, clears, *timing: (
                low, low, run_simulations(network, eq, fault, clears, *timing)),
        )
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="tsakit"):
            samples, _ = build_dataset(ieee39, TWO_CONTEXTS, seed=0, jobs=jobs)
        return samples, list(caplog.records)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_context_warnings_reach_the_caller_once_in_order(self, ieee39, monkeypatch,
                                                             caplog, jobs):
        """The parent logs every record, once per context and criterion, in
        context order, whether one worker labels the contexts or two."""
        samples, records = self._build_logged(ieee39, monkeypatch, caplog, jobs)
        assert all(r.process == os.getpid() for r in records)
        warnings = [r.getMessage().split(":")[0] for r in records if r.levelname == "WARNING"]
        assert warnings == ["line 13 at 0.1, motor share 0.6"] * 2 + [
            "line 13 at 0.9, motor share 0.6"] * 2
        stable = sum(s.tas_stable + s.tvs_stable for s in samples)
        assert stable > 0
        assert sum("disagree" in r.getMessage() for r in records) == stable

    def test_pool_and_serial_log_alike_from_the_parent(self, ieee39, monkeypatch, caplog):
        """One worker or two, the records are the same, in the same order."""
        logs = [[(r.levelname, r.name, r.getMessage())
                 for r in self._build_logged(ieee39, monkeypatch, caplog, jobs)[1]]
                for jobs in (1, 2)]
        assert logs[0] and logs[0] == logs[1]

    def test_islanding_fault_warned_once_per_context(self, ieee39, monkeypatch, caplog):
        """Clearing a fault on line 21 islands four buses. The context takes
        two lockstep batches and is reported once, from the parent."""
        batches = []
        simulate = labeling.run_simulations
        monkeypatch.setattr(labeling, "run_simulations",
                            lambda *args: batches.append(args[3]) or simulate(*args))
        cfg = GridConfig(lines=(21,), location_fractions=(0.5,), motor_fractions=(0.6,),
                         clearing_cycles=(3.0,), duration_s=1.6)
        with caplog.at_level(logging.WARNING, logger="tsakit"):
            build_dataset(ieee39, cfg, seed=0, jobs=1)
        assert len(batches) == 2  # the coarse scan, then the voltage search's probes
        islanded = [r for r in caplog.records if "disconnected" in r.getMessage()]
        assert [(r.name, r.getMessage(), r.process) for r in islanded] == [(
            "tsakit.dataset",
            "line 21 at 0.5, motor share 0.6: the post-fault network is disconnected",
            os.getpid(),
        )]

    def test_rejects_fewer_than_one_job(self, ieee39):
        with pytest.raises(ValueError, match="jobs"):
            build_dataset(ieee39, TWO_CONTEXTS, jobs=0)


def test_label_context_counts_nonmonotone_and_disagreeing_samples(ieee39_eq06, ieee39,
                                                                  monkeypatch, caplog):
    """A boundary below every clearing time puts stable traces on the degree
    side: each sample then disagrees on both criteria and carries both
    non-monotone flags, the manifest counts them, and build_dataset logs an
    INFO line for each."""
    net, eq = ieee39_eq06
    low = CctResult(t_cct_s=1.0 / 60.0, nonmonotone=True)
    monkeypatch.setattr(
        dataset, "find_ccts",
        lambda network, eq, fault, clears, *timing: (
            low, low, run_simulations(network, eq, fault, clears, *timing)),
    )
    cfg = replace(TWO_CONTEXTS, location_fractions=(0.5,))
    samples = label_context(net, eq, FaultSpec(13, 0.5), cfg,
                            list(enumerate(enumerate_scenarios(cfg))))
    assert [s.tas_stable and s.tvs_stable for s in samples] == [True, True]
    nonmonotone = Flag.TAS_NONMONOTONE | Flag.TVS_NONMONOTONE
    assert all(s.flags & nonmonotone == nonmonotone for s in samples)
    counts = dataset_manifest(net, cfg, 0, samples, [])
    assert counts["count_tas_nonmonotone"] == counts["count_tvs_nonmonotone"] == 2
    assert counts["count_tas_disagree"] == counts["count_tvs_disagree"] == 2
    with caplog.at_level(logging.INFO, logger="tsakit.dataset"):
        build_dataset(ieee39, cfg, seed=0, jobs=1)
    disagreements = [r for r in caplog.records if "disagree" in r.getMessage()]
    assert [(r.levelname, r.getMessage().split(" verdict")[0]) for r in disagreements] == [
        ("INFO", "scenario 0: angle"), ("INFO", "scenario 0: voltage"),
        ("INFO", "scenario 1: angle"), ("INFO", "scenario 1: voltage"),
    ]
