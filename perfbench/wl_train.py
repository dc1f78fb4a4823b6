"""`train` workload: `training_eval.train` on seeded synthetic samples.

The samples have the shapes of the desk dataset: 39 buses and a 20-step
window (in_dim 40), each with the bundled network's adjacency minus one
seed-drawn line. Labels and margins follow a seeded rule the features carry:
the angle verdict and margin from a per-sample voltage offset, the voltage
verdict and margin from a per-sample angle drift. Each run calls `train`
repeatedly with the default model, batch 16, accuracy_threshold 1.0 and an
unreachable mse_threshold, so every call runs all its epochs.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from hostclock import now

UNIT = "training sample-epoch"
LATENCY = "gap between consecutive Adam steps of one epoch: one training step"
ALIASES = {"throughput_per_s": "train_samples_per_s"}
N_BUS, WINDOW = 39, 20


def generate(seed: int, work, tiny: bool) -> dict:
    from tsakit import packaged_network_path
    from tsakit.dataset import Sample, save_dataset
    from tsakit.grid_model import adjacency_from_network, load_network

    network = load_network(packaged_network_path())
    if network.n_bus != N_BUS:
        raise ValueError(f"expected the {N_BUS}-bus network, got {network.n_bus} buses")
    eligible = network.fault_eligible_lines()
    rng = np.random.default_rng(seed)
    n = 48 if tiny else 160
    offset = rng.normal(0.0, 1.0, n)  # drives the angle verdict and margin
    drift = rng.normal(0.0, 1.0, n)  # drives the voltage verdict and margin
    steps = np.arange(WINDOW)
    samples = []
    for i in range(n):
        mags = 1.0 + 0.04 * offset[i] + 0.01 * rng.standard_normal((N_BUS, WINDOW))
        angs = 0.02 * drift[i] * steps + 0.01 * rng.standard_normal((N_BUS, WINDOW))
        samples.append(Sample(
            scenario_id=i,
            tas_stable=bool(offset[i] > 0.0),
            tvs_stable=bool(drift[i] < 0.3),
            tas_signed=float(np.clip(offset[i] / 3.0, -1.0, 1.0)),
            tvs_signed=float(np.clip((0.3 - drift[i]) / 3.0, -1.0, 1.0)),
            tsi_deg=0.0, v_min_pu=0.0, tas_cct_s=0.0, tvs_cct_s=0.0, flags=0,
            adjacency=adjacency_from_network(network, without_line=int(rng.choice(eligible))),
            features=np.concatenate([mags, angs], axis=1).astype(np.float32),
        ))
    path = work / "train.tsd"
    save_dataset(samples, path)
    return {"dataset": path, "epochs": 4 if tiny else 8, "seed": seed, "work": work}


def setup(inputs: dict) -> dict:
    import tsakit.cli  # noqa: F401  (the entry point imports every layer)
    from tsakit import packaged_network_path
    from tsakit.dataset import load_dataset, split_dataset
    from tsakit.grid_model import load_network

    load_network(packaged_network_path())
    samples, _ = load_dataset(inputs["dataset"])
    split = split_dataset([s.joint_label for s in samples], seed=inputs["seed"])
    return {"samples": samples, "split": split}


def make_op(env: dict, inputs: dict):
    """One operation: a `train` call (timed), then its checkpoint (untimed).

    Adam.step is wrapped with a bare timestamp, no span, for the step gaps.
    Functions are looked up on their module at each call, so spans see them.
    """
    from tsakit import autodiff_nn, training_eval
    from tsakit.autodiff_nn import ModelConfig
    from tsakit.training_eval import Adam, TrainConfig

    samples, split = env["samples"], env["split"]
    cfg = TrainConfig(
        epochs=inputs["epochs"], batch_size=16, accuracy_threshold=1.0,
        mse_threshold=1e-300, seed=inputs["seed"],
    )
    model_cfg = ModelConfig(in_dim=samples[0].features.shape[1], seed=inputs["seed"])
    steps_per_epoch = -(-len(split.train_ids) // cfg.batch_size)
    path = inputs["work"] / "checkpoint.tsm"

    def op() -> dict:
        stamps: list[float] = []
        step = Adam.step

        def stamped(self):
            step(self)
            stamps.append(now())

        Adam.step = stamped
        try:
            t0, w0 = now(), time.perf_counter()
            result = training_eval.train(samples, split, cfg, model_cfg)
            elapsed, wall = now() - t0, time.perf_counter() - w0
        finally:
            Adam.step = step
        autodiff_nn.save_checkpoint(result.model, path)
        # a gap across an epoch's end also holds the validation pass
        gaps = [g for i, g in enumerate(np.diff(stamps)) if (i + 1) % steps_per_epoch]
        return {
            "time_s": elapsed,
            "wall_s": wall,
            "items": len(split.train_ids) * len(result.log_rows),
            "latency_s": gaps,
            "digests": {"checkpoint_sha256": hashlib.sha256(path.read_bytes()).hexdigest()},
            "aborted": result.aborted,
            "losses": [row["train_loss"] for row in result.log_rows],
        }

    return op


def check(env: dict, inputs: dict, records: list, warnings: list) -> tuple[dict, list]:
    """Output checks, and aborted training runs against runs."""
    losses = [r["losses"] for r in records]
    aborted = sum(1 for r in records if r["aborted"])
    checks = {
        "not_aborted": aborted == 0,
        "loss_finite": all(np.all(np.isfinite(l)) for l in losses),
        "loss_decreases": all(len(l) > 1 and l[-1] < l[0] for l in losses),
    }
    return checks, [("aborted train calls", aborted, len(records))]
