"""Release gate: ten checks covering metric arithmetic, gradient correctness,
gating algebra, CCT search, simulator fidelity, scenario enumeration, the
desk-scale end-to-end pipeline, bit-level determinism, permutation
invariance, and monitor replay.

Each test prints (and registers for the terminal summary) exactly one
"criterion NN: PASS/FAIL" line. Tolerances and runtime bounds are pinned in
the assertions; a failing bound fails the test rather than loosening it.
"""

import contextlib
import hashlib
import math
import time

import numpy as np
import pytest

import acceptance_report
from tsakit import cli
from tsakit.autodiff_nn import (
    TASKS,
    ModelConfig,
    StabilityModel,
    Tensor,
    load_checkpoint,
    moe_combine,
    save_checkpoint,
)
from tsakit.dataset import build_dataset, desk_grid, save_dataset, split_dataset, write_manifest
from tsakit.grid_model import FaultSpec, adjacency_from_network
from tsakit.labeling import K_MAX, K_MIN, find_cct, lattice_s
from tsakit.tds import run_simulation
from tsakit.training_eval import (
    ConfusionMatrix,
    LossWeights,
    TrainConfig,
    evaluate,
    metrics,
    multitask_loss,
    train,
    write_training_log,
)


def _record(n, ok, detail):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_report.LINES.append(line)
    print(line)


@contextlib.contextmanager
def criterion(n, summary):
    """Record one pass/fail line whether the body passes, fails, or crashes."""
    state = {"ok": False, "detail": summary}
    try:
        yield state
    except BaseException as exc:
        if not state["ok"]:
            _record(n, False, f"{state['detail']} [{type(exc).__name__}: {exc}]")
        raise
    _record(n, state["ok"], state["detail"])
    assert state["ok"], state["detail"]


def random_symmetric_adjacency(rng, n):
    upper = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
    return (upper + upper.T).astype(float)


# ---------------------------------------------------------------------------
# Desk-scale pipeline shared by criteria 7, 8, and 10
# ---------------------------------------------------------------------------

DESK_TRAIN = dict(
    epochs=400, batch_size=16, learning_rate=3e-3,
    accuracy_threshold=1.0, mse_threshold=0.005, seed=0,
)
# The desk run's bytes. A refactor or speed-up must leave them unchanged;
# re-pin only with a stated reason why the labels or numerics changed.
DESK_DATASET_SHA256 = "d7014afc938635d994f6419ac15a5453a45a94681be545204131c57d6b476ca9"
DESK_CHECKPOINT_SHA256 = "c9b67515525fcb41dd293e622eb4c4baeeb6b99c6dbc4b2ac50924a60ad65e11"
# The manifest lists the grid keys in GridConfig field order since they are
# written from the fields: same key = value lines as 7e7b30f7..., reordered.
DESK_MANIFEST_SHA256 = "b52277db80d13cedd6ac27250b0527f0bbdcca6eb86b05c359ce55a400a76a45"
# The training log `tsa train` writes beside the checkpoint: the numbers it
# prints per epoch must come from the same run, bit for bit.
DESK_TRAINING_LOG_SHA256 = "f35d24e805066e6f30e7f40ba0649558b38323b2a416a707c8ee827cb64a1965"


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory, ieee39):
    out = tmp_path_factory.mktemp("desk_run")
    cfg = desk_grid(ieee39)
    t0 = time.perf_counter()
    samples, manifest = build_dataset(ieee39, cfg, seed=0)
    build_s = time.perf_counter() - t0
    save_dataset(samples, out / "dataset.tsd")
    write_manifest(manifest, out / "manifest.txt")
    split = split_dataset([s.joint_label for s in samples], seed=0)
    train_cfg = TrainConfig(**DESK_TRAIN)
    model_cfg = ModelConfig(in_dim=2 * cfg.window_steps, seed=0)
    t0 = time.perf_counter()
    result = train(samples, split, train_cfg, model_cfg)
    train_s = time.perf_counter() - t0
    save_checkpoint(result.model, out / "checkpoint.tsm")
    write_training_log(result.log_rows, out / "training_log.csv")
    return {
        "dir": out, "cfg": cfg, "samples": samples, "manifest": manifest,
        "split": split, "train_cfg": train_cfg, "model_cfg": model_cfg,
        "result": result, "build_s": build_s, "train_s": train_s,
    }


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_metric_arithmetic():
    with criterion(1, "metric arithmetic on 1000 random confusion matrices") as res:
        rng = np.random.default_rng(20240101)
        t0 = time.perf_counter()
        for _ in range(1000):
            n00, n01, n10, n11 = (int(x) for x in rng.integers(0, 200, size=4))
            if n00 + n01 + n10 + n11 == 0:
                n00 = 1
            cm = ConfusionMatrix(n00, n01, n10, n11)
            m = metrics(cm)
            total = n00 + n01 + n10 + n11
            acc = (n00 + n11) / total
            mdr = None if n10 + n11 == 0 else n10 / (n10 + n11)
            fpr = None if n00 + n01 == 0 else n01 / (n00 + n01)
            if mdr is None or fpr is None:
                g = None
            else:
                g = math.sqrt((n00 / (n00 + n01)) * (n11 / (n10 + n11)))
            for got, want in ((m.accuracy, acc), (m.mdr, mdr),
                              (m.fpr, fpr), (m.g_mean, g)):
                if want is None:
                    assert got is None
                else:
                    assert got is not None and abs(got - want) <= 1e-12
            assert abs(m.accuracy * total - (n00 + n11)) <= 1e-12 * max(1, total)
            if g is not None:
                assert abs(m.g_mean ** 2 - (1 - m.fpr) * (1 - m.mdr)) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        res["ok"] = True
        res["detail"] = (
            f"1000 matrices match hand-computed values, identities hold to "
            f"1e-12 ({elapsed:.2f}s < 1s)"
        )


def test_criterion_02_gradient_check():
    with criterion(2, "gradients vs central differences on 100 random parameters") as res:
        rng = np.random.default_rng(7)
        model = StabilityModel(ModelConfig(in_dim=12, seed=7))
        batch, n = 3, 6
        features = rng.standard_normal((batch, n, 12))
        adjacency = np.stack([random_symmetric_adjacency(rng, n) for _ in range(batch)])
        targets = {
            "tas_cls": rng.integers(0, 2, size=batch),
            "tvs_cls": rng.integers(0, 2, size=batch),
            "tas_reg": rng.uniform(-1, 1, size=batch),
            "tvs_reg": rng.uniform(-1, 1, size=batch),
        }
        weights = LossWeights()

        def loss_value():
            out = model.forward(features, adjacency)
            loss, _ = multitask_loss(out, targets, weights)
            return float(loss.data)

        for p in model.params.values():
            p.zero_grad()
        out = model.forward(features, adjacency)
        loss, _ = multitask_loss(out, targets, weights)
        loss.backward()

        names = list(model.params)
        sizes = np.array([model.params[k].data.size for k in names])
        bounds = np.cumsum(sizes)
        picks = rng.choice(int(bounds[-1]), size=100, replace=False)

        t0 = time.perf_counter()
        worst = 0.0
        h = 1e-5
        for flat in picks:
            p_idx = int(np.searchsorted(bounds, flat, side="right"))
            local = int(flat - (bounds[p_idx - 1] if p_idx else 0))
            param = model.params[names[p_idx]]
            idx = np.unravel_index(local, param.data.shape)
            keep = param.data[idx]
            param.data[idx] = keep + h
            up = loss_value()
            param.data[idx] = keep - h
            down = loss_value()
            param.data[idx] = keep
            numeric = (up - down) / (2 * h)
            analytic = param.grad[idx]
            rel = abs(analytic - numeric) / max(1e-6, abs(analytic) + abs(numeric))
            worst = max(worst, rel)
            assert rel < 1e-4, f"{names[p_idx]}{idx}: rel err {rel:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        res["ok"] = True
        res["detail"] = (
            f"100 parameters, worst relative error {worst:.1e} < 1e-4 "
            f"({elapsed:.1f}s < 30s)"
        )


def test_criterion_03_gate_simplex_and_moe_algebra():
    with criterion(3, "gate simplex and mixture combination algebra") as res:
        rng = np.random.default_rng(3)
        model = StabilityModel(ModelConfig(in_dim=8, seed=3))
        worst_sum = 0.0
        per_task = 2500  # x4 tasks = 10,000 gate evaluations
        for task in TASKS:
            pooled = Tensor(rng.standard_normal((per_task, 64)) * 2.0)
            gates = model.gate(pooled, task).data
            worst_sum = max(worst_sum, float(np.abs(gates.sum(axis=1) - 1.0).max()))
        assert worst_sum <= 1e-6

        gates = rng.uniform(0.0, 1.0, size=(7, 4))
        gates /= gates.sum(axis=1, keepdims=True)
        outputs = rng.standard_normal((7, 4, 5))
        combined = moe_combine(Tensor(gates), Tensor(outputs)).data
        oracle = np.zeros((7, 5))
        for b in range(7):
            for e in range(4):
                oracle[b] += gates[b, e] * outputs[b, e]
        assert np.abs(combined - oracle).max() <= 1e-12

        for k in range(4):
            one_hot = np.zeros((7, 4))
            one_hot[:, k] = 1.0
            picked = moe_combine(Tensor(one_hot), Tensor(outputs)).data
            assert np.array_equal(picked, outputs[:, k, :])
        res["ok"] = True
        res["detail"] = (
            f"10,000 gate rows sum to 1 (worst dev {worst_sum:.1e} <= 1e-6), "
            f"weighted sum matches oracle to 1e-12, one-hot exact"
        )


def test_criterion_04_cct_search():
    with criterion(4, "CCT search vs exhaustive sweep on 20 step functions") as res:
        rng = np.random.default_rng(4)
        t_min, t_max, quarter = lattice_s(K_MIN, 60.0), lattice_s(K_MAX, 60.0), lattice_s(1, 60.0)
        fine = np.arange(t_min, t_max + 1e-12, quarter / 8.0)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(20):
            t_star = rng.uniform(t_min + 1e-6, t_max - 1e-6)
            found = find_cct(lambda t: t <= t_star, 60.0)
            assert not found.below_bracket and not found.above_bracket
            sweep = fine[fine <= t_star].max()
            err = abs(found.t_cct_s - sweep)
            worst = max(worst, err)
            assert err <= quarter + 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        res["ok"] = True
        res["detail"] = (
            f"20 step functions, worst gap {worst * 60.0:.3f} cycles "
            f"<= 0.25 cycle ({elapsed:.2f}s < 5s)"
        )


def test_criterion_05_equilibrium_persistence(ieee39_eq06):
    with criterion(5, "no-fault equilibrium drift over 10 s") as res:
        net, init = ieee39_eq06
        t0 = time.perf_counter()
        trace = run_simulation(net, init, fault=None, duration_s=10.0, step_s=0.01)
        elapsed = time.perf_counter() - t0
        assert not trace.diverged
        drift = float(np.abs(trace.rotor_angles - trace.rotor_angles[0]).max())
        assert drift < 1e-6
        assert elapsed < 10.0
        res["ok"] = True
        res["detail"] = f"max rotor drift {drift:.1e} rad < 1e-6 ({elapsed:.1f}s < 10s)"


def test_criterion_06_scenario_grid(capsys):
    with criterion(6, "scenario grid enumeration") as res:
        assert cli.main(["generate", "--grid", "paper", "--enumerate-only"]) == 0
        paper_out = capsys.readouterr().out
        assert cli.main(["generate", "--grid", "desk", "--enumerate-only"]) == 0
        desk_out = capsys.readouterr().out
        assert "scenarios: 4590" in paper_out
        assert "scenarios: 90" in desk_out
        res["ok"] = True
        res["detail"] = "paper grid enumerates 4590 scenarios, desk grid 90"


@pytest.mark.slow  # needs the desk build and training (desk_run)
def test_criterion_07_desk_end_to_end(desk_run):
    with criterion(7, "desk-scale dataset + training reaches accuracy/MSE targets") as res:
        report = evaluate(
            desk_run["result"].model, desk_run["samples"], desk_run["split"].test_ids
        )
        total_s = desk_run["build_s"] + desk_run["train_s"]
        assert report.tas.accuracy >= 0.90
        assert report.tvs.accuracy >= 0.90
        assert report.tas_mse <= 0.01
        assert report.tvs_mse <= 0.01
        assert total_s < 600.0
        res["ok"] = True
        res["detail"] = (
            f"test acc TAS {report.tas.accuracy:.3f} / TVS {report.tvs.accuracy:.3f} "
            f">= 0.90, margin MSE {report.tas_mse:.4f} / {report.tvs_mse:.4f} "
            f"<= 0.01 ({total_s:.0f}s < 600s)"
        )


@pytest.mark.slow  # rebuilds and retrains the desk run
def test_criterion_08_determinism(desk_run, ieee39, tmp_path):
    with criterion(8, "bit-identical dataset, checkpoint and training log on repeat run") as res:
        # desk_run labels in a process pool; this rebuild labels in-process
        samples2, manifest2 = build_dataset(ieee39, desk_run["cfg"], seed=0, jobs=1)
        save_dataset(samples2, tmp_path / "dataset.tsd")
        first = (desk_run["dir"] / "dataset.tsd").read_bytes()
        second = (tmp_path / "dataset.tsd").read_bytes()
        assert first == second
        assert manifest2 == desk_run["manifest"]

        split2 = split_dataset([s.joint_label for s in samples2], seed=0)
        result2 = train(samples2, split2, desk_run["train_cfg"], desk_run["model_cfg"])
        save_checkpoint(result2.model, tmp_path / "checkpoint.tsm")
        write_training_log(result2.log_rows, tmp_path / "training_log.csv")
        ck1 = (desk_run["dir"] / "checkpoint.tsm").read_bytes()
        ck2 = (tmp_path / "checkpoint.tsm").read_bytes()
        assert ck1 == ck2
        log = (desk_run["dir"] / "training_log.csv").read_bytes()
        assert log == (tmp_path / "training_log.csv").read_bytes()
        assert hashlib.sha256(first).hexdigest() == DESK_DATASET_SHA256
        assert hashlib.sha256(ck1).hexdigest() == DESK_CHECKPOINT_SHA256
        manifest = (desk_run["dir"] / "manifest.txt").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == DESK_MANIFEST_SHA256
        assert hashlib.sha256(log).hexdigest() == DESK_TRAINING_LOG_SHA256
        res["ok"] = True
        res["detail"] = (
            f"dataset ({len(first)} bytes), manifest, checkpoint ({len(ck1)} bytes) "
            f"and training log bit-identical across runs and equal to the pinned digests"
        )


def test_criterion_09_permutation_invariance():
    with criterion(9, "pooled outputs invariant under node relabeling") as res:
        rng = np.random.default_rng(9)
        model = StabilityModel(ModelConfig(in_dim=10, seed=9))
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(4, 13))
            features = rng.standard_normal((n, 10))
            adjacency = random_symmetric_adjacency(rng, n)
            perm = rng.permutation(n)
            out1 = model.forward(features[None], adjacency[None])
            out2 = model.forward(
                features[perm][None], adjacency[np.ix_(perm, perm)][None]
            )
            for a, b in (
                (out1.tas_logits, out2.tas_logits),
                (out1.tvs_logits, out2.tvs_logits),
                (out1.tas_margin_hat, out2.tas_margin_hat),
                (out1.tvs_margin_hat, out2.tvs_margin_hat),
            ):
                worst = max(worst, float(np.abs(a.data - b.data).max()))
            for task in out1.gate_weights:
                worst = max(worst, float(np.abs(
                    out1.gate_weights[task].data - out2.gate_weights[task].data
                ).max()))
        assert worst <= 1e-9
        res["ok"] = True
        res["detail"] = f"50 random graphs, worst deviation {worst:.1e} <= 1e-9"


@pytest.mark.slow  # needs the desk build and training (desk_run)
def test_criterion_10_monitor_replay(desk_run, ieee39_eq06, tmp_path, capsys):
    with criterion(10, "monitor replay reproduces offline decisions exactly") as res:
        net, init = ieee39_eq06
        trace = run_simulation(
            net, init, fault=FaultSpec(line_index=13, location_fraction=0.5),
            clear_s=5.0 / 60.0, duration_s=10.0, step_s=0.01,
        )
        lines = []
        for i in range(trace.n_steps):
            fields = [trace.times[i], *trace.bus_v_mag[i], *trace.bus_v_ang[i]]
            lines.append(",".join("%.17g" % x for x in fields))
        stream = tmp_path / "stream.csv"
        stream.write_text("\n".join(lines) + "\n")

        ckpt = desk_run["dir"] / "checkpoint.tsm"
        rc = cli.main(["monitor", "--checkpoint", str(ckpt), "--stream", str(stream)])
        out = capsys.readouterr().out
        assert rc == 0
        streamed = [cli.parse_event(line) for line in out.strip().splitlines()]

        window = desk_run["cfg"].window_steps
        expected_count = trace.n_steps - window + 1
        assert len(streamed) == expected_count

        model = load_checkpoint(ckpt)  # the monitor's view of the parameters
        adjacency = adjacency_from_network(net)
        mismatches = 0
        for k, event in enumerate(streamed):
            direct = cli.assess_window(
                model,
                trace.bus_v_mag[k:k + window],
                trace.bus_v_ang[k:k + window],
                trace.slack_bus,
                adjacency,
                float(trace.times[k + window - 1]),
            )
            if event != direct:
                mismatches += 1
        assert mismatches == 0
        res["ok"] = True
        res["detail"] = (
            f"{expected_count} windows streamed, every decision and value "
            f"matches the offline forward exactly"
        )
