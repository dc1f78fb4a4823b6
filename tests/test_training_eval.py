"""Metrics, loss composition, the optimizer, and the training loop."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from toyset import make_toy_samples

from tsakit import training_eval
from tsakit.autodiff_nn import (
    ModelConfig,
    ModelOutput,
    StabilityModel,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)
from tsakit.dataset import load_dataset, save_dataset, split_dataset
from tsakit.training_eval import (
    Adam,
    _arrays_from_samples,
    ConfusionMatrix,
    TrainConfig,
    confusion,
    evaluate,
    format_report,
    metrics,
    multitask_loss,
    predict,
    regression_metrics,
    report_to_csv,
    train,
    write_training_log,
)

SMALL_MODEL = dict(hidden_dim=16, expert_hidden=8)


def toy_setup(n=40, seed=0, **toy_kwargs):
    samples = make_toy_samples(n=n, seed=seed, **toy_kwargs)
    split = split_dataset([s.joint_label for s in samples], seed=seed)
    return samples, split


class TestConfusion:
    def test_all_correct_stable(self):
        cm = confusion([True] * 7, [True] * 7)
        assert (cm.n00, cm.n01, cm.n10, cm.n11) == (7, 0, 0, 0)

    def test_enumerated_2x2(self):
        cm = confusion([True, True, False, False], [True, False, True, False])
        assert (cm.n00, cm.n01, cm.n10, cm.n11) == (1, 1, 1, 1)

    def test_random_against_counting_oracle(self, rng):
        labels = rng.integers(0, 2, 500).astype(bool)
        preds = rng.integers(0, 2, 500).astype(bool)
        cm = confusion(labels, preds)
        want = [[0, 0], [0, 0]]
        for a, p in zip(labels, preds):
            want[0 if a else 1][0 if p else 1] += 1
        assert [[cm.n00, cm.n01], [cm.n10, cm.n11]] == want
        assert cm.total == 500

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal-length"):
            confusion([True, False], [True])


class TestMetrics:
    def test_perfect_classifier(self):
        m = metrics(ConfusionMatrix(50, 0, 0, 50))
        assert (m.accuracy, m.mdr, m.fpr, m.g_mean) == (1.0, 0.0, 0.0, 1.0)

    def test_direct_arithmetic(self):
        m = metrics(ConfusionMatrix(95, 5, 4, 96))
        assert m.accuracy == pytest.approx(0.955, abs=1e-12)
        assert m.mdr == pytest.approx(0.04, abs=1e-12)
        assert m.fpr == pytest.approx(0.05, abs=1e-12)
        assert m.g_mean == pytest.approx(np.sqrt(0.95 * 0.96), abs=1e-12)

    def test_everything_predicted_stable(self):
        m = metrics(ConfusionMatrix(3, 0, 2, 0))
        assert m.mdr == 1.0
        assert m.fpr == 0.0
        assert m.g_mean == 0.0

    def test_undefined_rates_are_none_not_zero(self):
        no_unstable = metrics(ConfusionMatrix(5, 2, 0, 0))
        assert no_unstable.mdr is None
        assert no_unstable.g_mean is None
        assert no_unstable.fpr == pytest.approx(2 / 7)
        no_stable = metrics(ConfusionMatrix(0, 0, 3, 4))
        assert no_stable.fpr is None
        assert no_stable.mdr == pytest.approx(3 / 7)

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    @settings(max_examples=200, deadline=None)
    @given(
        n00=st.integers(0, 500), n01=st.integers(0, 500),
        n10=st.integers(0, 500), n11=st.integers(0, 500),
    )
    def test_identities_on_random_matrices(self, n00, n01, n10, n11):
        cm = ConfusionMatrix(n00, n01, n10, n11)
        if cm.total == 0:
            return
        m = metrics(cm)
        assert m.accuracy * cm.total == pytest.approx(n00 + n11, abs=1e-12)
        if m.fpr is not None and m.mdr is not None:
            assert m.g_mean**2 == pytest.approx((1 - m.fpr) * (1 - m.mdr), abs=1e-12)


class TestRegressionMetrics:
    def test_identical_vectors(self):
        assert regression_metrics([0.3, -0.2], [0.3, -0.2]) == (0.0, 0.0)

    def test_unit_errors(self):
        assert regression_metrics([0.0, 0.0], [1.0, -1.0]) == (1.0, 1.0)

    def test_random_against_two_pass_oracle(self, rng):
        t = rng.standard_normal(64)
        p = rng.standard_normal(64)
        mse, mae = regression_metrics(t, p)
        want_mse = sum((pi - ti) ** 2 for pi, ti in zip(p, t)) / 64
        want_mae = sum(abs(pi - ti) for pi, ti in zip(p, t)) / 64
        assert mse == pytest.approx(want_mse, abs=1e-12)
        assert mae == pytest.approx(want_mae, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            regression_metrics([], [])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal-length"):
            regression_metrics([1.0], [1.0, 2.0])


def synthetic_output(logit_tas, logit_tvs, m_tas, m_tvs, gates=None, n_experts=4):
    batch = len(m_tas)
    if gates is None:
        gates = np.full((batch, n_experts), 1.0 / n_experts)
    return ModelOutput(
        tas_logits=Tensor(np.asarray(logit_tas, dtype=float)),
        tvs_logits=Tensor(np.asarray(logit_tvs, dtype=float)),
        tas_margin_hat=Tensor(np.asarray(m_tas, dtype=float).reshape(-1, 1)),
        tvs_margin_hat=Tensor(np.asarray(m_tvs, dtype=float).reshape(-1, 1)),
        gates=Tensor(np.stack([np.array(gates, dtype=float)] * 4)),
    )


class TestMultitaskLoss:
    def test_perfect_predictions_zero_loss(self):
        out = synthetic_output(
            [[0.0, 40.0], [40.0, 0.0]], [[0.0, 40.0], [40.0, 0.0]],
            [0.5, -0.5], [0.25, -0.75],
        )
        targets = {
            "tas_cls": np.array([1, 0]), "tvs_cls": np.array([1, 0]),
            "tas_reg": np.array([0.5, -0.5]), "tvs_reg": np.array([0.25, -0.75]),
        }
        loss = multitask_loss(out, targets, TrainConfig())
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
        balance = multitask_loss(
            out, targets, TrainConfig(lambda_cls=0.0, lambda_reg=0.0, alpha_balance=1.0)
        )
        assert float(balance.data) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_logits_give_log2_per_task(self):
        out = synthetic_output(
            np.zeros((4, 2)), np.zeros((4, 2)), np.zeros(4), np.zeros(4)
        )
        targets = {
            "tas_cls": np.array([0, 1, 0, 1]), "tvs_cls": np.array([1, 1, 0, 0]),
            "tas_reg": np.zeros(4), "tvs_reg": np.zeros(4),
        }
        cls = multitask_loss(out, targets, TrainConfig(lambda_reg=0.0, alpha_balance=0.0))
        assert float(cls.data) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        reg = multitask_loss(out, targets, TrainConfig(lambda_cls=0.0, alpha_balance=0.0))
        assert float(reg.data) == pytest.approx(0.0, abs=1e-15)

    def test_random_batch_matches_term_oracle(self, rng):
        batch = 6
        logits_a = rng.standard_normal((batch, 2))
        logits_v = rng.standard_normal((batch, 2))
        m_a = rng.uniform(-1, 1, batch)
        m_v = rng.uniform(-1, 1, batch)
        gates = rng.dirichlet(np.ones(4), size=batch)
        out = synthetic_output(logits_a, logits_v, m_a, m_v, gates=gates)
        targets = {
            "tas_cls": rng.integers(0, 2, batch),
            "tvs_cls": rng.integers(0, 2, batch),
            "tas_reg": rng.uniform(-1, 1, batch),
            "tvs_reg": rng.uniform(-1, 1, batch),
        }
        weights = TrainConfig(lambda_cls=0.7, lambda_reg=1.3, alpha_balance=0.05)
        loss = multitask_loss(out, targets, weights)

        def ce(logits, t):
            total = 0.0
            for row, cls in zip(logits, t):
                lse = np.log(np.exp(row - row.max()).sum()) + row.max()
                total += lse - row[cls]
            return total / len(t)

        imp = np.tile(gates, (4, 1)).sum(axis=0)
        balance = imp.var() / imp.mean() ** 2
        want = (
            0.7 * (ce(logits_a, targets["tas_cls"]) + ce(logits_v, targets["tvs_cls"]))
            + 1.3 * (np.mean((m_a - targets["tas_reg"]) ** 2) + np.mean((m_v - targets["tvs_reg"]) ** 2))
            + 0.05 * balance
        )
        assert float(loss.data) == pytest.approx(want, abs=1e-10)

    def test_negative_weights_rejected(self):
        out = synthetic_output(np.zeros((1, 2)), np.zeros((1, 2)), [0.0], [0.0])
        targets = {
            "tas_cls": np.array([0]), "tvs_cls": np.array([0]),
            "tas_reg": np.zeros(1), "tvs_reg": np.zeros(1),
        }
        with pytest.raises(ValueError, match="nonnegative"):
            multitask_loss(out, targets, TrainConfig(lambda_cls=-1.0))


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.25])
        opt = Adam({"p": p}, lr=0.01)
        opt.step()
        # first step moves each weight by about lr against the gradient sign
        np.testing.assert_allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = ((p - 3.0) ** 2).sum()
            loss.backward()
            opt.step()
        assert abs(float(p.data[0]) - 3.0) < 1e-3

    def test_missing_gradient_raises(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam({"p": p})
        with pytest.raises(RuntimeError, match="no gradient"):
            opt.step()

    def test_bad_learning_rate_rejected(self):
        for lr in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive"):
                Adam({}, lr=lr)

    def test_fused_step_matches_per_parameter_loop_bitwise(self):
        def reference(params, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
            """One array per parameter, updated out of place."""
            m = {name: np.zeros_like(x) for name, x in params.items()}
            v = {name: np.zeros_like(x) for name, x in params.items()}
            for t, step_grads in enumerate(grads, start=1):
                for name, g in step_grads.items():
                    m[name] = beta1 * m[name] + (1.0 - beta1) * g
                    v[name] = beta2 * v[name] + (1.0 - beta2) * g**2
                    m_hat = m[name] / (1.0 - beta1**t)
                    v_hat = v[name] / (1.0 - beta2**t)
                    params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            return params

        model = StabilityModel(ModelConfig(in_dim=40, seed=0))
        rng = np.random.default_rng(7)
        grads = []
        for _ in range(50):
            step_grads = {}
            for name, p in model.params.items():
                g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                g[rng.random(p.shape) < 0.1] = 0.0
                step_grads[name] = g
            grads.append(step_grads)
        want = reference({name: p.data.copy() for name, p in model.params.items()}, grads)
        opt = Adam(model.params)
        for step_grads in grads:
            for name, p in model.params.items():
                p.grad = step_grads[name]
            opt.step()
        for name, p in model.params.items():
            assert p.data.tobytes() == want[name].tobytes(), name


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            TrainConfig(epochs=0).validate()

    def test_threshold_range(self):
        TrainConfig(accuracy_threshold=0.0).validate()
        TrainConfig(accuracy_threshold=1.0).validate()
        with pytest.raises(ValueError, match="threshold"):
            TrainConfig(accuracy_threshold=1.5).validate()

    @pytest.mark.parametrize("field", [
        "learning_rate", "lambda_cls", "lambda_reg", "alpha_balance", "mse_threshold",
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value}).validate()


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        samples, split = toy_setup()
        cfg = TrainConfig(epochs=50, accuracy_threshold=1.0, seed=0)
        model_cfg = ModelConfig(in_dim=6, seed=0, **SMALL_MODEL)
        result = train(samples, split, cfg, model_cfg)
        assert result.best_val_joint == 1.0
        assert result.stopped_early
        assert len(result.log_rows) <= 50

    def test_loss_decreases_early(self):
        samples, split = toy_setup()
        cfg = TrainConfig(epochs=10, accuracy_threshold=1.0, learning_rate=3e-4, seed=1)
        model_cfg = ModelConfig(in_dim=6, seed=1, **SMALL_MODEL)
        result = train(samples, split, cfg, model_cfg)
        losses = [r["train_loss"] for r in result.log_rows]
        assert len(losses) >= 3
        for earlier, later in zip(losses, losses[1:]):
            assert later < earlier

    def test_threshold_zero_stops_after_first_epoch(self):
        samples, split = toy_setup()
        cfg = TrainConfig(epochs=30, accuracy_threshold=0.0, seed=0)
        result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        assert len(result.log_rows) == 1
        assert result.stopped_early

    @pytest.mark.parametrize("mse_threshold, kept", [(None, 1), (0.01, 2)])
    def test_retention_ranks_the_mse_target_first(self, monkeypatch, mse_threshold, kept):
        """Scripted validation results, (wrong verdicts, margin error) per
        epoch. Without an MSE target the highest joint accuracy is kept; with
        one, an epoch that meets it outranks epoch 1, and among those joint
        accuracy ranks before the lower error of epoch 4."""
        samples, split = toy_setup()
        script = iter([(1, 0.5), (2, 0.05), (2, 0.08), (3, 0.01)])
        def scripted(model, features, graph, batch_size=64):
            out = predict(model, features, graph, batch_size)
            wrong, error = next(script)
            heads = {}
            for task in ("tas", "tvs"):
                truth = np.array([getattr(samples[i], f"{task}_stable") for i in split.val_ids])
                truth[:wrong] = ~truth[:wrong]
                heads[f"{task}_logits"] = np.eye(2)[truth.astype(int)]  # [0, 1] is stable
                heads[f"{task}_margin_hat"] = np.array(
                    [[getattr(samples[i], f"{task}_signed") + error] for i in split.val_ids])
            return replace(out, **heads)

        monkeypatch.setattr(training_eval, "predict", scripted)
        cfg = TrainConfig(epochs=4, accuracy_threshold=1.0, mse_threshold=mse_threshold, seed=0)
        result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        n_val = len(split.val_ids)
        assert (result.best_epoch, result.stopped_early) == (kept, False)
        assert result.best_val_joint == (n_val - kept) / n_val

    def test_fixed_seed_reproduces_log_and_checkpoint(self, tmp_path):
        samples, split = toy_setup()
        cfg = TrainConfig(epochs=5, accuracy_threshold=1.0, seed=3)
        model_cfg = ModelConfig(in_dim=6, seed=3, **SMALL_MODEL)
        a = train(samples, split, cfg, model_cfg)
        b = train(samples, split, cfg, model_cfg)
        assert a.log_rows == b.log_rows
        pa, pb = tmp_path / "a.tsm", tmp_path / "b.tsm"
        save_checkpoint(a.model, pa)
        save_checkpoint(b.model, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_memory_and_file_samples_train_one_checkpoint(self, tmp_path):
        """The margins a dataset file rounds to float32 train the same model
        as the float64 margins they came from."""
        rng = np.random.default_rng(11)
        samples = [
            replace(s, tas_signed=s.tas_signed * rng.uniform(0.5, 1.0),
                    tvs_signed=s.tvs_signed * rng.uniform(0.5, 1.0))
            for s in make_toy_samples(n=40, seed=0)
        ]
        assert all(float(np.float32(s.tas_signed)) != s.tas_signed for s in samples)
        save_dataset(samples, tmp_path / "toy.tsd")
        reloaded, _ = load_dataset(tmp_path / "toy.tsd")
        split = split_dataset([s.joint_label for s in samples], seed=0)
        cfg = TrainConfig(epochs=20, accuracy_threshold=1.0, seed=0)
        checkpoints = []
        for name, data in (("memory", samples), ("file", reloaded)):
            result = train(data, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
            save_checkpoint(result.model, tmp_path / f"{name}.tsm")
            checkpoints.append((tmp_path / f"{name}.tsm").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergent_loss_aborts_with_finite_model(self, caplog):
        samples, split = toy_setup()
        cfg = TrainConfig(epochs=10, accuracy_threshold=1.0, learning_rate=1e200, seed=0)
        result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        assert result.aborted
        for p in result.model.params.values():
            assert np.all(np.isfinite(p.data))

    def test_empty_split_rejected(self):
        samples, split = toy_setup()
        empty = type(split)(
            train_ids=np.array([], dtype=int), val_ids=split.val_ids,
            test_ids=split.test_ids,
        )
        with pytest.raises(ValueError, match="nonempty"):
            train(samples, empty, TrainConfig())

    def test_mismatched_model_dim_rejected(self):
        samples, split = toy_setup()
        with pytest.raises(ValueError, match="input dim"):
            train(samples, split, TrainConfig(), ModelConfig(in_dim=99))

    def test_kept_epoch_row_is_the_validation_report(self):
        """Validation is scored by evaluate's report: the kept epoch's row
        holds, bit for bit, what evaluate reports for the kept weights. Nine
        validation samples, 7 right after two epochs: 7/9 is no short binary
        fraction."""
        samples, split = toy_setup(n=90)
        cfg = TrainConfig(epochs=2, accuracy_threshold=1.0, seed=0)
        result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        row = result.log_rows[result.best_epoch - 1]
        report = evaluate(result.model, samples, split.val_ids)
        joint = sum(right for right, _ in report.joint_correct.values()) / report.n_samples
        assert (row["val_acc_tas"], row["val_acc_tvs"], row["val_joint_acc"]) == (
            report.tas.accuracy, report.tvs.accuracy, joint)
        assert row["val_joint_acc"] == result.best_val_joint == 7 / 9

    def test_log_columns(self):
        samples, split = toy_setup()
        cfg = TrainConfig(epochs=1, accuracy_threshold=1.0, seed=0)
        result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        row = result.log_rows[0]
        assert list(row.keys()) == [
            "epoch", "train_loss", "val_acc_tas", "val_acc_tvs", "val_joint_acc",
            "balance_loss", "expert_util_0", "expert_util_1", "expert_util_2",
            "expert_util_3",
        ]
        util = sum(row[f"expert_util_{e}"] for e in range(4))
        assert util == pytest.approx(1.0, abs=1e-6)


def varied_samples(n=40, seed=0):
    """Toy samples whose adjacency, node degrees and margins differ from
    sample to sample (some have an isolated node), so a replay that kept
    the first batch's adjacency, inverse degree or targets gives other bits."""
    rng = np.random.default_rng(seed)
    samples = []
    for s in make_toy_samples(n=n, seed=seed):
        adj = s.adjacency.copy()
        i, j = rng.choice(4, size=2, replace=False)
        adj[i, j] = adj[j, i] = 1 - adj[i, j]  # add a chord or cut an edge
        if rng.random() < 0.25:
            adj[i, :] = adj[:, i] = 0
        sign = 1.0 if s.tas_stable else -1.0
        samples.append(replace(
            s, adjacency=adj, tas_signed=sign * rng.uniform(0.1, 0.9),
            tvs_signed=sign * rng.uniform(0.1, 0.9),
        ))
    return samples


def eager_steps(samples, split, cfg, model_cfg):
    """train's steps written out on the eager tape: forward, multitask_loss,
    backward and Adam.step for each batch in train's order, with no early
    stop. Returns each step's loss and parameters after its update,
    then the parameters at the end of each epoch, and the (epoch, batch
    start) of the first non-finite loss, where the steps end, or None."""
    features, adjacency, targets = _arrays_from_samples(samples)
    model = StabilityModel(model_cfg)
    for p in model.params.values():
        p.data = p.data.astype(np.float32)
    optimizer = Adam(model.params, lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    train_ids = np.asarray(split.train_ids)
    steps, epoch_ends = [], []
    for epoch in range(1, cfg.epochs + 1):
        order = train_ids[rng.permutation(len(train_ids))]
        for lo in range(0, len(order), cfg.batch_size):
            ids = order[lo : lo + cfg.batch_size]
            out = model.forward(features[ids], adjacency[ids])
            loss = multitask_loss(out, {k: v[ids] for k, v in targets.items()}, cfg)
            if not np.isfinite(float(loss.data)):
                return steps, epoch_ends, (epoch, lo)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            steps.append((float(loss.data), _snapshot_bytes(model)))
        epoch_ends.append(_snapshot_bytes(model))
    return steps, epoch_ends, None


def _snapshot_bytes(model):
    return {name: p.data.tobytes() for name, p in model.params.items()}


class TestReplayedSteps:
    """train records the first step of each batch size and replays it; every
    step must give the bits of the eager tape."""

    @staticmethod
    def spied_train(monkeypatch, samples, split, cfg, model_cfg):
        """train's loss per batch, the value of its recorded or replayed
        root, and parameters after each Adam.step."""
        losses_seen, params_seen = [], []
        step = Adam.step

        class SpiedProgram(training_eval.Program):
            def __init__(self, fn, arrays):
                super().__init__(fn, arrays)
                losses_seen.append(float(self.root.data))

            def run(self, arrays):
                super().run(arrays)
                losses_seen.append(float(self.root.data))

        def spy_step(self):
            step(self)
            params_seen.append({name: p.data.tobytes() for name, p in self.params.items()})

        monkeypatch.setattr(training_eval, "Program", SpiedProgram)
        monkeypatch.setattr(Adam, "step", spy_step)
        return train(samples, split, cfg, model_cfg), losses_seen, params_seen

    @pytest.mark.parametrize("n, batch_size", [(40, 16), (40, 5), (40, 9), (20, 1)])
    def test_every_step_matches_the_eager_tape_bitwise(self, monkeypatch, n, batch_size):
        """Batches of 16 then a partial 12, of 5 then a partial 3, of 9
        then a last batch of 1, and batches of 1."""
        samples = varied_samples(n=n)
        split = split_dataset([s.joint_label for s in samples], seed=0)
        cfg = TrainConfig(
            epochs=3, batch_size=batch_size, accuracy_threshold=1.0,
            mse_threshold=1e-300, learning_rate=3e-3, seed=0,
        )
        model_cfg = ModelConfig(in_dim=6, seed=0, **SMALL_MODEL)
        want, epoch_ends, stop = eager_steps(samples, split, cfg, model_cfg)
        assert stop is None
        result, losses_seen, params_seen = self.spied_train(
            monkeypatch, samples, split, cfg, model_cfg
        )
        per_epoch = -(-len(split.train_ids) // batch_size)
        assert len(want) == 3 * per_epoch
        assert len(losses_seen) == len(params_seen) == len(want)  # one Adam.step per step
        for k, (loss, params) in enumerate(want):
            assert losses_seen[k] == loss, k
            assert params_seen[k] == params, k
        assert _snapshot_bytes(result.model) == epoch_ends[result.best_epoch - 1]

    def test_every_recorded_node_tracks_a_gradient(self, monkeypatch):
        """A recorded default-model step holds 57 nodes, each on a path from a
        parameter: what reads only the batch's data, such as the first
        layer's neighbour mean or the margin targets, is an input leaf."""
        recorded = []

        class RecordedProgram(training_eval.Program):
            def __init__(self, fn, arrays):
                super().__init__(fn, arrays)
                recorded.append(self)

        monkeypatch.setattr(training_eval, "Program", RecordedProgram)
        samples = varied_samples()
        split = split_dataset([s.joint_label for s in samples], seed=0)
        cfg = TrainConfig(epochs=1, batch_size=16, accuracy_threshold=1.0, mse_threshold=1e-300)
        train(samples, split, cfg)
        assert len(recorded) == 2  # a batch of 16 and the partial last one
        for program in recorded:
            assert len(program._nodes) == 57
            assert all(node.requires_grad for node in program._nodes)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_non_finite_loss_restores_the_eager_weights(self, monkeypatch):
        """A learning rate that makes the loss non-finite in epoch 2, on the
        replayed partial batch: the run aborts at the eager run's batch and
        restores the weights of epoch 1."""
        samples = varied_samples()
        split = split_dataset([s.joint_label for s in samples], seed=0)
        cfg = TrainConfig(
            epochs=5, batch_size=16, accuracy_threshold=1.0, mse_threshold=1e-300,
            learning_rate=1e5, seed=0,
        )
        model_cfg = ModelConfig(in_dim=6, seed=0, **SMALL_MODEL)
        want, epoch_ends, stop = eager_steps(samples, split, cfg, model_cfg)
        assert stop == (2, 16)
        result, losses_seen, params_seen = self.spied_train(
            monkeypatch, samples, split, cfg, model_cfg
        )
        assert result.aborted
        assert (len(result.log_rows), result.best_epoch) == (1, 1)
        assert [loss for loss, _ in want] == losses_seen[:-1]
        assert not np.isfinite(losses_seen[-1])
        assert [params for _, params in want] == params_seen  # no step on the bad batch
        assert _snapshot_bytes(result.model) == epoch_ends[0]


class TestPreparedGraphs:
    """train prepares each sample's graph once per call, with the bits a
    batch or a chunk would prepare for itself."""

    def test_inverse_degree_is_computed_once_per_train_call(self, monkeypatch):
        from tsakit.autodiff_nn import model as model_module

        samples, split = toy_setup()
        inverse_degree, shapes = model_module._inverse_degree, []

        def counting(adj):
            shapes.append(adj.shape)
            return inverse_degree(adj)

        monkeypatch.setattr(model_module, "_inverse_degree", counting)
        seen = {}
        for epochs in (1, 3):
            shapes.clear()
            cfg = TrainConfig(epochs=epochs, accuracy_threshold=1.0, mse_threshold=1e-300, seed=0)
            result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
            assert len(result.log_rows) == epochs
            seen[epochs] = list(shapes)
        n_bus = samples[0].adjacency.shape[0]
        assert seen[1] == seen[3] == [
            (len(samples), n_bus, n_bus), (len(split.val_ids), n_bus, n_bus),
        ]

    def test_predict_on_a_prepared_graph_gives_each_chunks_own_bits(self):
        samples = varied_samples(n=40)
        features, adjacency, _ = _arrays_from_samples(samples)
        model = StabilityModel(ModelConfig(in_dim=6, seed=4, **SMALL_MODEL))
        graph = model.prepare_graph(adjacency)
        for batch_size in (7, 64):  # 40 samples: six chunks of 7 and a partial one, or one
            chunks = [model.infer(features[lo : lo + batch_size], adjacency[lo : lo + batch_size])
                      for lo in range(0, len(samples), batch_size)]
            want = [np.concatenate([c.tas_margin_hat for c in chunks]),
                    np.concatenate([c.tvs_logits for c in chunks]),
                    np.concatenate([c.gates for c in chunks], axis=1)]
            for got in (predict(model, features, graph, batch_size),
                        predict(model, features.astype(np.float64), graph, batch_size)):
                assert isinstance(got, ModelOutput)
                assert got.tas_margin_hat.tobytes() == want[0].tobytes()
                assert got.tvs_logits.tobytes() == want[1].tobytes()
                assert got.gates.tobytes() == want[2].tobytes()


def _report_fields(report):
    fields = asdict(report)
    fields["expert_utilization"] = {k: v.tobytes() for k, v in report.expert_utilization.items()}
    return fields


class TestFloat32Training:
    """train computes in float32, the dtype save_checkpoint writes."""

    def test_every_step_is_float32(self, monkeypatch):
        samples, split = toy_setup()
        steps = []
        step = Adam.step

        def recording_step(self):
            steps.append((self, {name: p.grad.dtype for name, p in self.params.items()}))
            step(self)

        monkeypatch.setattr(Adam, "step", recording_step)
        cfg = TrainConfig(epochs=2, accuracy_threshold=1.0, seed=0)
        result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        assert steps
        for optimizer, grad_dtypes in steps:
            assert set(grad_dtypes.values()) == {np.dtype(np.float32)}
            for buffer in (optimizer._flat, optimizer.m, optimizer.v):
                assert buffer.dtype == np.float32
        for p in result.model.params.values():
            assert p.dtype == np.float32

    def test_trained_model_evaluates_as_its_checkpoint(self, tmp_path):
        samples, split = toy_setup()
        cfg = TrainConfig(epochs=5, accuracy_threshold=1.0, seed=0)
        result = train(samples, split, cfg, ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        save_checkpoint(result.model, tmp_path / "model.tsm")
        loaded = load_checkpoint(tmp_path / "model.tsm")
        for p in loaded.params.values():
            assert p.data.dtype == np.float64  # a checkpoint loads for float64 inference
        for ids in (split.val_ids, split.test_ids, np.arange(len(samples))):
            want = _report_fields(evaluate(loaded, samples, ids))
            assert _report_fields(evaluate(result.model, samples, ids)) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_gradients_match_float64(self, seed):
        """Same weights and batch in both dtypes: each parameter's float32
        gradient is within a norm-wise relative error of 1e-4 of the float64
        one (float32 carries about 7 digits)."""
        features, adjacency, targets = _arrays_from_samples(make_toy_samples(n=16, seed=seed))
        config = ModelConfig(in_dim=6, seed=seed, **SMALL_MODEL)
        models = {np.float32: StabilityModel(config), np.float64: StabilityModel(config)}
        for name, p in models[np.float32].params.items():
            p.data = p.data.astype(np.float32)
            models[np.float64].params[name].data = p.data.astype(np.float64)
        for dtype, model in models.items():
            batch_targets = {
                k: v.astype(dtype) if k.endswith("_reg") else v for k, v in targets.items()
            }
            out = model.forward(features.astype(dtype), adjacency.astype(dtype))
            loss = multitask_loss(out, batch_targets, TrainConfig())
            assert loss.dtype == dtype
            loss.backward()
        for name, p32 in models[np.float32].params.items():
            g32, g64 = p32.grad, models[np.float64].params[name].grad
            assert g32.dtype == np.float32 and g64.dtype == np.float64
            assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64), name


@pytest.fixture(scope="module")
def trained_toy():
    samples, split = toy_setup()
    cfg = TrainConfig(
        epochs=500, accuracy_threshold=1.0, mse_threshold=0.02,
        learning_rate=3e-3, seed=0,
    )
    model_cfg = ModelConfig(in_dim=6, seed=0, **SMALL_MODEL)
    result = train(samples, split, cfg, model_cfg)
    return samples, split, result


class TestEvaluate:
    def test_train_split_perfect_on_toy(self, trained_toy):
        samples, split, result = trained_toy
        report = evaluate(result.model, samples, split.train_ids)
        assert report.tas.accuracy == 1.0
        assert report.tvs.accuracy == 1.0
        assert report.tas_mse < 0.05

    def test_report_composition_identity(self, trained_toy):
        samples, split, result = trained_toy
        report = evaluate(result.model, samples, split.test_ids)
        subset = [samples[i] for i in split.test_ids]
        features, adjacency, targets = _arrays_from_samples(subset)
        tas, tvs = predict(result.model, features, result.model.prepare_graph(adjacency)).verdicts()
        assert report.tas == metrics(confusion(targets["tas_cls"].astype(bool), tas))
        assert report.tvs == metrics(confusion(targets["tvs_cls"].astype(bool), tvs))

    def test_utilization_is_simplex_per_task(self, trained_toy):
        samples, split, result = trained_toy
        report = evaluate(result.model, samples, split.test_ids)
        for task, util in report.expert_utilization.items():
            assert util.shape == (4,)
            assert util.min() >= 0.0
            assert util.sum() == pytest.approx(1.0, abs=1e-6)

    def test_mean_margin_sign_on_toy(self, trained_toy):
        samples, split, result = trained_toy
        report = evaluate(result.model, samples, split.train_ids)
        assert report.mean_margin_tas is not None
        assert report.mean_margin_tas > 0.0

    def test_stable_only_subset_has_undefined_mdr(self, trained_toy):
        samples, _, result = trained_toy
        stable_ids = [i for i, s in enumerate(samples) if s.tas_stable]
        report = evaluate(result.model, samples, stable_ids)
        assert report.tas.mdr is None
        assert "undefined" in format_report(report)

    def test_empty_ids_rejected(self, trained_toy):
        samples, _, result = trained_toy
        with pytest.raises(ValueError, match="at least one"):
            evaluate(result.model, samples, [])

    @pytest.mark.parametrize("stable_logit,want", [
        (50.0, {"SS": (4, 4), "SU": (0, 2), "US": (0, 4), "UU": (0, 2)}),
        (-50.0, {"SS": (0, 4), "SU": (0, 2), "US": (0, 4), "UU": (2, 2)}),
    ])
    def test_joint_class_counts_need_both_verdicts_right(self, stable_logit, want):
        """A model that gives every sample one verdict on both criteria is
        right only on that joint class; the report shows every class."""
        samples = [
            replace(s, tvs_stable=i % 3 != 1) for i, s in enumerate(make_toy_samples(n=12))
        ]
        model = StabilityModel(ModelConfig(in_dim=6, seed=0, **SMALL_MODEL))
        for task in ("tas_cls", "tvs_cls"):
            model.params[f"head.{task}.w"].data[...] = 0.0
            model.params[f"head.{task}.b"].data[...] = [0.0, stable_logit]
        report = evaluate(model, samples, np.arange(12))
        assert report.joint_correct == want
        cells = " ".join(f"{k}={right}/{total}" for k, (right, total) in want.items())
        assert f"joint class, both verdicts right/total: {cells}" in format_report(report)

    def test_report_text_shape(self, trained_toy):
        samples, split, result = trained_toy
        text = format_report(evaluate(result.model, samples, split.test_ids))
        assert text.splitlines()[0].startswith("samples:")
        assert "TAS: A=" in text
        assert "expert utilization tas_cls:" in text


class TestLogAndReportFiles:
    def test_training_log_round_numbers(self, tmp_path):
        rows = [
            {"epoch": 1, "train_loss": 1.5, "val_acc_tas": 0.5, "val_acc_tvs": 0.5,
             "val_joint_acc": 0.25, "balance_loss": 0.01,
             "expert_util_0": 0.25, "expert_util_1": 0.25,
             "expert_util_2": 0.25, "expert_util_3": 0.25},
        ]
        path = tmp_path / "log.csv"
        write_training_log(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("epoch,train_loss,")
        assert lines[1].startswith("1,1.5,0.5,")

    def test_empty_log_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_training_log([], tmp_path / "log.csv")

    def test_report_csv_with_undefined(self, tmp_path, trained_toy):
        samples, _, result = trained_toy
        stable_ids = [i for i, s in enumerate(samples) if s.tas_stable]
        report = evaluate(result.model, samples, stable_ids)
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        header, values = path.read_text().splitlines()
        assert "tas_mdr" in header
        assert "undefined" in values

    def test_report_csv_columns_follow_the_report_fields(self, tmp_path, trained_toy):
        """The header lists EvalReport's scalar fields in field order, each
        Metrics field as <task>_<metric>, and the values row matches it."""
        samples, split, result = trained_toy
        report = evaluate(result.model, samples, split.test_ids)
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        header, values = (line.split(",") for line in path.read_text().splitlines())
        assert header == [
            "n_samples",
            "tas_accuracy", "tas_mdr", "tas_fpr", "tas_g_mean",
            "tvs_accuracy", "tvs_mdr", "tvs_fpr", "tvs_g_mean",
            "tas_mse", "tas_mae", "tvs_mse", "tvs_mae", "mean_margin_tas", "mean_margin_tvs",
        ]
        assert values[0] == str(report.n_samples)
        assert (values[4], values[9]) == ("%.10g" % report.tas.g_mean, "%.10g" % report.tas_mse)
