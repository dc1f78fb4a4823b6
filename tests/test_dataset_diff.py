import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tsakit.dataset import _LABELS, Sample, save_dataset

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dataset_diff.py"


@pytest.fixture(scope="module")
def dataset_diff():
    spec = importlib.util.spec_from_file_location("dataset_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_samples():
    rng = np.random.default_rng(7)
    adj = np.zeros((3, 3), dtype=np.int8)
    adj[0, 1] = adj[1, 0] = 1
    return [
        Sample(
            scenario_id=i, tas_stable=True, tvs_stable=i == 0, tas_signed=0.5,
            tvs_signed=-0.25, tsi_deg=80.0 + i, v_min_pu=0.75, tas_cct_s=0.2,
            tvs_cct_s=0.125, flags=0, adjacency=adj,
            features=rng.uniform(0.5, 1.0, (3, 4)).astype(np.float32),
        )
        for i in range(2)
    ]


def test_identical_files(dataset_diff, tmp_path, capsys):
    save_dataset(tiny_samples(), tmp_path / "a.tsd")
    save_dataset(tiny_samples(), tmp_path / "b.tsd")
    assert dataset_diff.main([str(tmp_path / "a.tsd"), str(tmp_path / "b.tsd")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["samples: 2 old, 2 new", "bytes: identical"]
    assert "tas_stable flips: 0" in out and "tvs_stable flips: 0" in out
    assert "tas_cct_s max |d|: 0, samples differing: 0" in out
    assert "features max |d|: 0, differing values: 0 of 24" in out
    assert out[-1] == "scenarios with a changed label: 0"


def test_one_report_line_per_label_field(dataset_diff, tmp_path, capsys):
    save_dataset(tiny_samples(), tmp_path / "a.tsd")
    dataset_diff.main([str(tmp_path / "a.tsd"), str(tmp_path / "a.tsd")])
    out = capsys.readouterr().out.splitlines()
    # after the sample count and byte lines, in field order, scenario_id skipped
    assert _LABELS[0][0] == "scenario_id"
    rest = {bool: " flips: 0", int: " differ: 0", float: " max |d|: 0, samples differing: 0"}
    assert out[2 : 1 + len(_LABELS)] == [name + rest[kind] for name, kind in _LABELS[1:]]
    assert out[1 + len(_LABELS)].startswith("adjacency differs")


def test_changed_labels_and_features(dataset_diff, tmp_path, capsys):
    old = tiny_samples()
    features = old[1].features.copy()
    features[2, 3] += 0.5
    new = [
        replace(old[0], tvs_stable=False, tvs_cct_s=0.0625, tvs_signed=-0.5),
        replace(old[1], tsi_deg=old[1].tsi_deg + 2.0, features=features),
    ]
    save_dataset(old, tmp_path / "old.tsd")
    save_dataset(new, tmp_path / "new.tsd")
    assert dataset_diff.main([str(tmp_path / "old.tsd"), str(tmp_path / "new.tsd")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "bytes: differ"
    assert "tas_stable flips: 0" in out and "tvs_stable flips: 1" in out
    assert "tvs_cct_s max |d|: 0.0625, samples differing: 1" in out
    assert "tvs_signed max |d|: 0.25, samples differing: 1" in out
    assert "tsi_deg max |d|: 2, samples differing: 1" in out
    assert "tas_cct_s max |d|: 0, samples differing: 0" in out
    assert "features max |d|: 0.5, differing values: 1 of 24" in out
    # scenario 1 changed its TSI, a label, and a feature value
    assert out[-1] == "scenarios with a changed label: 2 (0, 1)"


def test_changed_scenario_ids_listed_first_20(dataset_diff, tmp_path, capsys):
    base = tiny_samples()[0]
    old = [replace(base, scenario_id=i) for i in range(30)]
    new = [replace(s, tas_cct_s=0.25) if s.scenario_id % 10 else replace(s, flags=1)
           for s in old]
    new[29] = old[29]
    save_dataset(old, tmp_path / "old.tsd")
    save_dataset(new, tmp_path / "new.tsd")
    assert dataset_diff.main([str(tmp_path / "old.tsd"), str(tmp_path / "new.tsd")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "flags differ: 3" in out
    ids = ", ".join(str(i) for i in range(20))
    assert out[-1] == f"scenarios with a changed label: 29 ({ids} and 9 more)"


def test_wrong_argument_count(dataset_diff, capsys):
    assert dataset_diff.main(["only-one.tsd"]) == 2
    assert "usage" in capsys.readouterr().err
