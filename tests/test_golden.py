"""Golden digests: the exact bytes a tiny fixed pipeline run writes.

Criterion 8 compares two runs of the same code, so it cannot see numerics
drift from one version to the next; these pinned SHA-256 digests can. A
refactor or speed-up must leave them unchanged. Re-pin them only together
with a stated reason why the numerics changed.
"""

import hashlib

import numpy as np

from tsakit.autodiff_nn import ModelConfig, save_checkpoint
from tsakit.dataset import DatasetSplit, GridConfig, build_dataset, save_dataset
from tsakit.training_eval import TrainConfig, train

# one fault context, one clearing time on the CCT coarse scan and one off it;
# the trace ends just after the top of the clearing-time bracket
GRID = GridConfig(
    lines=(13,),
    location_fractions=(0.5,),
    motor_fractions=(0.6,),
    clearing_cycles=(3.0, 4.0),
    duration_s=1.6,
)
DATASET_SHA256 = "583cd29a1e83243bcbe875ee54c15e9805c7ae8293e228e031f40c964200b9a9"
CHECKPOINT_SHA256 = "7545897c46d521c3f2af6f24acaa2275f2c1859c94a052fb9b7b952def5bf285"


def test_tiny_pipeline_bytes_are_pinned(ieee39, tmp_path):
    samples, manifest = build_dataset(ieee39, GRID, seed=0)
    assert manifest["n_samples"] == 2
    save_dataset(samples, tmp_path / "dataset.tsd")
    both = np.array([0, 1])
    split = DatasetSplit(train_ids=both, val_ids=both, test_ids=np.array([], dtype=int), seed=0)
    result = train(
        samples, split, TrainConfig(epochs=3, batch_size=2, seed=0),
        ModelConfig(in_dim=2 * GRID.window_steps, hidden_dim=16, expert_hidden=16, seed=0),
    )
    save_checkpoint(result.model, tmp_path / "checkpoint.tsm")

    def sha(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha("dataset.tsd") == DATASET_SHA256
    assert sha("checkpoint.tsm") == CHECKPOINT_SHA256
