"""Golden digests: the exact bytes a tiny fixed pipeline run writes.

Criterion 8 compares two runs of the same code, so it cannot see numerics
drift from one version to the next; these pinned SHA-256 digests can. A
refactor or speed-up must leave them unchanged. Re-pin them only together
with a stated reason why the numerics changed.
"""

import hashlib

import numpy as np
import pytest

from tsakit.autodiff_nn import ModelConfig, checkpoint_blocks, save_checkpoint
from tsakit.dataset import (
    DatasetSplit,
    GridConfig,
    build_dataset,
    save_dataset,
    write_manifest,
)
from tsakit.training_eval import TrainConfig, train, write_training_log

# one fault context, one clearing time on the CCT coarse scan and one off it;
# the trace ends just after the top of the clearing-time bracket
GRID = GridConfig(
    lines=(13,),
    location_fractions=(0.5,),
    motor_fractions=(0.6,),
    clearing_cycles=(3.0, 4.0),
    duration_s=1.6,
)
DATASET_SHA256 = "2ca465b5c952872d7c34ff93d27b8b0d81d3030e5627e63bbd24b978af9956e7"
# grid keys in GridConfig field order: the lines of cd1e9634..., reordered
MANIFEST_SHA256 = "c8b6ec59597848ff2b8ebe782d17968ea3eea0e9cf5ad01ed57d4ada47edf105"
CHECKPOINT_SHA256 = "a622134d85f14e0cfae766a5ee93e5a3fad87c20be66a7f47e938795a0aca425"
# the float32 checkpoint rounds away last-bit drift in the logged losses,
# which the log digest sees; the weights are trained in float32, so their
# float64 digest changes if any of them leaves float32
PARAMS_F64_SHA256 = "0f32c0ab70c149c590dd111726557e42729f1a35635cf006b06e82aa43ec7592"
TRAINING_LOG_SHA256 = "1acc846551dc516a6be7c316ec854b1e6564f6088c21e00a3d03f8077179c672"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def tiny_run(ieee39, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    samples, manifest = build_dataset(ieee39, GRID, seed=0)
    assert manifest["n_samples"] == 2
    save_dataset(samples, out / "dataset.tsd")
    write_manifest(manifest, out / "manifest.txt")
    both = np.array([0, 1])
    split = DatasetSplit(train_ids=both, val_ids=both, test_ids=np.array([], dtype=int))
    result = train(
        samples, split, TrainConfig(epochs=3, batch_size=2, seed=0),
        ModelConfig(in_dim=2 * GRID.window_steps, hidden_dim=16, expert_hidden=16, seed=0),
    )
    save_checkpoint(result.model, out / "checkpoint.tsm")
    write_training_log(result.log_rows, out / "training_log.csv")
    return out, result.model


def test_tiny_pipeline_bytes_are_pinned(tiny_run):
    out, _ = tiny_run
    assert sha(out / "dataset.tsd") == DATASET_SHA256
    assert sha(out / "manifest.txt") == MANIFEST_SHA256
    assert sha(out / "checkpoint.tsm") == CHECKPOINT_SHA256


def test_tiny_training_float64_bits_are_pinned(tiny_run):
    out, model = tiny_run
    digest = hashlib.sha256()
    for name, a in checkpoint_blocks(model):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert digest.hexdigest() == PARAMS_F64_SHA256
    assert sha(out / "training_log.csv") == TRAINING_LOG_SHA256
