"""Multi-task training loop, classification metrics, and evaluation reports.

Training minimizes weighted cross-entropy on both stability verdicts plus
squared error on both signed margins plus the gate balance penalty, with
adaptive-moment gradient descent. Validation joint accuracy (both verdicts
correct on a sample) and, when a target is set, the validation margin error
drive early stopping and best-checkpoint retention.
Everything is seeded and single-threaded, so a fixed configuration
reproduces the training log and the checkpoint bit for bit.

Training runs in float32, the dtype the checkpoint stores: the parameters,
the features, the adjacency and the margin targets are cast once, and the
taped forward, the loss, backward and Adam stay float32. The trained model
is therefore the checkpoint it writes, and samples whose margins round to
the same float32 values train the same model, whether they come from
memory or from a dataset file. Prediction and evaluation run infer, in
float64, on those float32 weights.

A training step's graph does not change between batches of one size, so
train records it once and replays it. The first step of each batch size
runs on the eager tape inside a tensor.Program, which records the nodes it
creates; every later step of that size rebinds the program's inputs to the
batch and replays the same numpy calls in the same order, so the
parameters and the checkpoint get the eager bits. The inputs are the
batch's features, adjacency, class targets and margin targets; the
inverse degree and the negated margin targets derived from them are
recomputed nodes, and the parameters are read in place. train still calls
optimizer.step once per step. The programs live only for one train call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff_nn import (
    TASKS,
    ModelConfig,
    ModelOutput,
    Program,
    StabilityModel,
    Tensor,
    load_balance_loss,
)

logger = logging.getLogger(__name__)

STABLE_CLASS = 1  # index into the 2-class logits; class 0 is unstable

# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# Classification and regression metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with rows = actual, columns = predicted, index 0 = stable."""

    n00: int
    n01: int
    n10: int
    n11: int

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


def confusion(labels, predictions) -> ConfusionMatrix:
    """Count verdict agreement; True means stable on both sides."""
    labels = np.asarray(labels, dtype=bool)
    predictions = np.asarray(predictions, dtype=bool)
    if labels.shape != predictions.shape or labels.ndim != 1:
        raise ValueError("labels and predictions must be equal-length vectors")
    n00 = int(np.sum(labels & predictions))
    n01 = int(np.sum(labels & ~predictions))
    n10 = int(np.sum(~labels & predictions))
    n11 = int(np.sum(~labels & ~predictions))
    return ConfusionMatrix(n00=n00, n01=n01, n10=n10, n11=n11)


@dataclass(frozen=True)
class Metrics:
    """Accuracy, missed detection rate, false positive rate, G-mean.

    A rate whose denominator is empty is None, never silently zero: a test
    set with no unstable samples has no defined missed-detection rate.
    """

    accuracy: float
    mdr: float | None
    fpr: float | None
    g_mean: float | None


def metrics(cm: ConfusionMatrix) -> Metrics:
    if cm.total == 0:
        raise ValueError("metrics of an empty confusion matrix")
    if min(cm.n00, cm.n01, cm.n10, cm.n11) < 0:
        raise ValueError("confusion counts must be nonnegative")
    accuracy = (cm.n00 + cm.n11) / cm.total
    actual_unstable = cm.n10 + cm.n11
    actual_stable = cm.n00 + cm.n01
    mdr = cm.n10 / actual_unstable if actual_unstable else None
    fpr = cm.n01 / actual_stable if actual_stable else None
    if actual_stable and actual_unstable:
        g_mean = math.sqrt((cm.n00 / actual_stable) * (cm.n11 / actual_unstable))
    else:
        g_mean = None
    return Metrics(accuracy=accuracy, mdr=mdr, fpr=fpr, g_mean=g_mean)


def regression_metrics(targets, predictions) -> tuple[float, float]:
    """Population MSE and MAE."""
    targets = np.asarray(targets, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if targets.shape != predictions.shape or targets.ndim != 1:
        raise ValueError("targets and predictions must be equal-length vectors")
    if targets.size == 0:
        raise ValueError("regression metrics of an empty batch")
    diff = predictions - targets
    return float(np.mean(diff**2)), float(np.mean(np.abs(diff)))


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 1.0
    lambda_reg: float = 1.0
    alpha_balance: float = 0.01

    def validate(self) -> None:
        if min(self.lambda_cls, self.lambda_reg, self.alpha_balance) < 0.0:
            raise ValueError("loss weights must be nonnegative")


def multitask_loss(outputs: ModelOutput, targets: dict, weights: LossWeights):
    """Weighted sum of both task families plus the balance penalty.

    targets carries "tas_cls"/"tvs_cls" as integer class vectors (1 =
    stable) and "tas_reg"/"tvs_reg" as float vectors in [-1, 1], read in
    the outputs' dtype; any of them may instead be a Tensor leaf, as a
    recorded training step passes them. Returns the scalar loss tensor and
    a float breakdown for logging.
    """
    terms = _loss_terms(outputs, targets, weights)
    return terms["total"], _loss_parts(terms)


def _loss_terms(outputs: ModelOutput, targets: dict, weights: LossWeights) -> dict:
    """Every term of multitask_loss as a Tensor, the weighted total included."""
    weights.validate()
    dtype = outputs.tas_margin_hat.dtype

    def margins(value):
        return value if isinstance(value, Tensor) else np.asarray(value, dtype=dtype)

    terms = {
        "ce_tas": outputs.tas_logits.cross_entropy_logits(targets["tas_cls"]),
        "ce_tvs": outputs.tvs_logits.cross_entropy_logits(targets["tvs_cls"]),
        "reg_tas": ((outputs.tas_margin_hat.reshape(-1) - margins(targets["tas_reg"])) ** 2).mean(),
        "reg_tvs": ((outputs.tvs_margin_hat.reshape(-1) - margins(targets["tvs_reg"])) ** 2).mean(),
        "balance": load_balance_loss(Tensor.stack([outputs.gate_weights[t] for t in TASKS])),
    }
    terms["total"] = (
        weights.lambda_cls * (terms["ce_tas"] + terms["ce_tvs"])
        + weights.lambda_reg * (terms["reg_tas"] + terms["reg_tvs"])
        + weights.alpha_balance * terms["balance"]
    )
    return terms


def _loss_parts(terms: dict) -> dict:
    """The float breakdown of a loss's current term values."""
    return {
        "cls": float(terms["ce_tas"].data) + float(terms["ce_tvs"].data),
        "reg": float(terms["reg_tas"].data) + float(terms["reg_tvs"].data),
        "balance": float(terms["balance"].data),
        "total": float(terms["total"].data),
    }


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive-moment gradient descent over a named parameter dict.

    On construction the parameters become views into one flat buffer, in
    parameter order, beside the flat moment buffers. Each step updates all
    three in place, with the same per-element operations as a loop over the
    parameters, so a parameter must keep its array while it is optimized.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.t = 0
        self._flat = np.concatenate([p.data.reshape(-1) for p in params.values()])
        off = 0
        for p in params.values():
            p.data = self._flat[off : off + p.data.size].reshape(p.data.shape)
            off += p.data.size
        self.m = np.zeros_like(self._flat)
        self.v = np.zeros_like(self._flat)
        self._scratch = (np.empty_like(self._flat), np.empty_like(self._flat))

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise RuntimeError(f"parameter {name} has no gradient")
        self.t += 1
        # b: the gradient, then (1 - beta2) g**2, then sqrt(v_hat) + eps;
        # a: (1 - beta1) g, then the step lr * m_hat / (sqrt(v_hat) + eps)
        m, v, (a, b) = self.m, self.v, self._scratch
        np.concatenate([p.grad.reshape(-1) for p in self.params.values()], out=b)
        np.multiply(b, 1.0 - ADAM_BETA1, out=a)
        m *= ADAM_BETA1
        m += a
        np.square(b, out=b)
        b *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += b
        np.divide(m, 1.0 - ADAM_BETA1**self.t, out=a)
        a *= self.lr
        np.divide(v, 1.0 - ADAM_BETA2**self.t, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        self._flat -= a

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Loop settings. Early stopping triggers once joint validation accuracy
    reaches accuracy_threshold; with mse_threshold set, the worse of the two
    validation regression errors must also be at or below it, which keeps the
    margin heads training after classification saturates on small splits."""

    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    lambda_cls: float = 1.0
    lambda_reg: float = 1.0
    alpha_balance: float = 0.01
    accuracy_threshold: float = 0.95
    mse_threshold: float | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy threshold must lie in [0, 1]")
        if self.mse_threshold is not None and self.mse_threshold <= 0.0:
            raise ValueError("mse threshold must be positive when set")
        LossWeights(self.lambda_cls, self.lambda_reg, self.alpha_balance).validate()

    @property
    def loss_weights(self) -> LossWeights:
        return LossWeights(self.lambda_cls, self.lambda_reg, self.alpha_balance)


@dataclass
class TrainResult:
    model: StabilityModel
    log_rows: list[dict]
    best_epoch: int
    # validation joint accuracy of the retained epoch; None when the run
    # aborted before it validated an epoch
    best_val_joint: float | None
    stopped_early: bool
    aborted: bool


def _arrays_from_samples(samples):
    """float32 features, adjacency and margin targets, as a dataset file stores them."""
    features = np.stack([np.asarray(s.features, dtype=np.float32) for s in samples])
    adjacency = np.stack([np.asarray(s.adjacency, dtype=np.float32) for s in samples])
    targets = {
        "tas_cls": np.array([int(s.tas_stable) for s in samples]),
        "tvs_cls": np.array([int(s.tvs_stable) for s in samples]),
        "tas_reg": np.array([s.tas_signed for s in samples], dtype=np.float32),
        "tvs_reg": np.array([s.tvs_signed for s in samples], dtype=np.float32),
    }
    return features, adjacency, targets


def predict(model: StabilityModel, features, adjacency, batch_size: int = 64) -> dict:
    """Tape-free forward in chunks; bool verdicts, float margins, gate weights per task."""
    n = features.shape[0]
    chunks = []
    for lo in range(0, n, batch_size):
        out = model.infer(features[lo : lo + batch_size], adjacency[lo : lo + batch_size])
        chunks.append(out)
    return {
        "tas_stable": np.concatenate(
            [c.tas_logits.argmax(axis=1) == STABLE_CLASS for c in chunks]
        ),
        "tvs_stable": np.concatenate(
            [c.tvs_logits.argmax(axis=1) == STABLE_CLASS for c in chunks]
        ),
        "tas_margin": np.concatenate([c.tas_margin_hat[:, 0] for c in chunks]),
        "tvs_margin": np.concatenate([c.tvs_margin_hat[:, 0] for c in chunks]),
        "gates": {
            task: np.concatenate([c.gate_weights[task] for c in chunks])
            for task in TASKS
        },
    }


def _snapshot(model: StabilityModel) -> dict:
    return {name: p.data.copy() for name, p in model.params.items()}


def _restore(model: StabilityModel, snapshot: dict) -> None:
    """Copy into the parameter arrays, which may be an optimizer's views."""
    for name, p in model.params.items():
        p.data[...] = snapshot[name]


def train(samples, split, config: TrainConfig, model_config: ModelConfig | None = None) -> TrainResult:
    """Fit the model on the train split, early-stopping on validation.

    The best-validation parameters are retained: after the loop the returned
    model carries the weights of the epoch with the highest joint validation
    accuracy, accuracy ties broken by the lower validation regression error
    (the worse of the two tasks' MSE; remaining ties keep the earlier epoch).
    With mse_threshold set, an epoch whose regression error meets it outranks
    every epoch that does not, so a one-sample accuracy gain on a small
    validation split cannot retain weights whose margins have not converged.
    The epoch that stops the run early always ranks first. A non-finite loss
    aborts the run with those same last-good weights and the aborted flag set.
    """
    config.validate()
    if len(split.train_ids) == 0 or len(split.val_ids) == 0:
        raise ValueError("training needs nonempty train and validation splits")
    features, adjacency, targets = _arrays_from_samples(samples)
    if model_config is None:
        model_config = ModelConfig(in_dim=features.shape[-1], seed=config.seed)
    elif model_config.in_dim != features.shape[-1]:
        raise ValueError("model input dim does not match the sample features")
    model = StabilityModel(model_config)
    for p in model.params.values():
        p.data = p.data.astype(np.float32)
    optimizer = Adam(model.params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    weights = config.loss_weights

    train_ids = np.asarray(split.train_ids)
    val_ids = np.asarray(split.val_ids)
    val_feat, val_adj = features[val_ids], adjacency[val_ids]
    val_cls = {k: targets[k][val_ids] for k in ("tas_cls", "tvs_cls")}
    val_reg = {k: targets[k][val_ids] for k in ("tas_reg", "tvs_reg")}

    best = _snapshot(model)
    best_rank = (True, np.inf, np.inf)  # (misses the MSE target, -joint, MSE)
    best_joint = None
    best_epoch = 0
    log_rows: list[dict] = []
    stopped_early = False
    aborted = False

    def step_loss(inputs: dict):
        out = model.forward(inputs["features"], inputs["adjacency"])
        terms = _loss_terms(out, inputs, weights)
        return terms["total"], terms

    programs: dict[int, Program] = {}  # batch size -> its recorded step
    for epoch in range(1, config.epochs + 1):
        order = train_ids[rng.permutation(len(train_ids))]
        batch_losses = []
        for lo in range(0, len(order), config.batch_size):
            ids = order[lo : lo + config.batch_size]
            batch = {"features": features[ids], "adjacency": adjacency[ids]}
            batch.update((k, v[ids]) for k, v in targets.items())
            program = programs.get(len(ids))
            if program is None:
                program = programs[len(ids)] = Program(step_loss, batch)
            else:
                program.run(batch)
            parts = _loss_parts(program.outputs)
            if not np.isfinite(parts["total"]):
                logger.error(
                    "non-finite loss at epoch %d (batch at %d); restoring the "
                    "best checkpoint and aborting", epoch, lo,
                )
                aborted = True
                break
            optimizer.zero_grad()
            program.backward()
            optimizer.step()
            batch_losses.append(parts["total"])
        if aborted:
            break

        val_pred = predict(model, val_feat, val_adj)
        acc_tas = float(np.mean(val_pred["tas_stable"] == val_cls["tas_cls"].astype(bool)))
        acc_tvs = float(np.mean(val_pred["tvs_stable"] == val_cls["tvs_cls"].astype(bool)))
        joint = float(
            np.mean(
                (val_pred["tas_stable"] == val_cls["tas_cls"].astype(bool))
                & (val_pred["tvs_stable"] == val_cls["tvs_cls"].astype(bool))
            )
        )
        val_mse = max(
            regression_metrics(val_reg["tas_reg"], val_pred["tas_margin"])[0],
            regression_metrics(val_reg["tvs_reg"], val_pred["tvs_margin"])[0],
        )
        gates = np.stack([val_pred["gates"][t] for t in TASKS])
        balance = float(load_balance_loss(Tensor(gates)).data)
        utilization = gates.mean(axis=(0, 1))
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(batch_losses)),
            "val_acc_tas": acc_tas,
            "val_acc_tvs": acc_tvs,
            "val_joint_acc": joint,
            "balance_loss": balance,
        }
        for e, u in enumerate(utilization):
            row[f"expert_util_{e}"] = float(u)
        log_rows.append(row)
        meets_mse = config.mse_threshold is None or val_mse <= config.mse_threshold
        rank = (not meets_mse, -joint, val_mse)
        if rank < best_rank:
            best_rank = rank
            best_joint = joint
            best_epoch = epoch
            best = _snapshot(model)
        if joint >= config.accuracy_threshold and meets_mse:
            stopped_early = True
            break

    _restore(model, best)
    return TrainResult(
        model=model,
        log_rows=log_rows,
        best_epoch=best_epoch,
        best_val_joint=best_joint,
        stopped_early=stopped_early,
        aborted=aborted,
    )


def write_training_log(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ValueError("refusing to write an empty training log")
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for c in columns:
            v = row[c]
            cells.append(str(v) if isinstance(v, int) else f"{v:.10g}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    tas: Metrics
    tvs: Metrics
    tas_mse: float
    tas_mae: float
    tvs_mse: float
    tvs_mae: float
    mean_margin_tas: float | None  # predicted margin averaged over stable samples
    mean_margin_tvs: float | None
    expert_utilization: dict = field(default_factory=dict)  # task -> (N,) array
    n_samples: int = 0
    joint_correct: dict = field(default_factory=dict)  # "SU" etc. -> (both right, total)


def evaluate(model: StabilityModel, samples, ids) -> EvalReport:
    """Full report over the given sample indices.

    Mean margins average the predicted margin over the samples whose
    reference label is stable for that criterion; with no stable samples the
    average is None.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("evaluation needs at least one sample")
    subset = [samples[i] for i in ids]
    features, adjacency, targets = _arrays_from_samples(subset)
    pred = predict(model, features, adjacency)
    tas_actual = targets["tas_cls"].astype(bool)
    tvs_actual = targets["tvs_cls"].astype(bool)
    tas_m = metrics(confusion(tas_actual, pred["tas_stable"]))
    tvs_m = metrics(confusion(tvs_actual, pred["tvs_stable"]))
    tas_mse, tas_mae = regression_metrics(targets["tas_reg"], pred["tas_margin"])
    tvs_mse, tvs_mae = regression_metrics(targets["tvs_reg"], pred["tvs_margin"])
    mm_tas = float(pred["tas_margin"][tas_actual].mean()) if tas_actual.any() else None
    mm_tvs = float(pred["tvs_margin"][tvs_actual].mean()) if tvs_actual.any() else None
    utilization = {task: pred["gates"][task].mean(axis=0) for task in TASKS}
    both_right = (pred["tas_stable"] == tas_actual) & (pred["tvs_stable"] == tvs_actual)
    joint = {}
    for name in ("SS", "SU", "US", "UU"):  # TAS then TVS reference verdict, S = stable
        members = (tas_actual == (name[0] == "S")) & (tvs_actual == (name[1] == "S"))
        joint[name] = (int(both_right[members].sum()), int(members.sum()))
    return EvalReport(
        tas=tas_m,
        tvs=tvs_m,
        tas_mse=tas_mse,
        tas_mae=tas_mae,
        tvs_mse=tvs_mse,
        tvs_mae=tvs_mae,
        mean_margin_tas=mm_tas,
        mean_margin_tvs=mm_tvs,
        expert_utilization=utilization,
        n_samples=int(ids.size),
        joint_correct=joint,
    )


def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def format_report(report: EvalReport) -> str:
    lines = [f"samples: {report.n_samples}"]
    for name, m in (("TAS", report.tas), ("TVS", report.tvs)):
        lines.append(
            f"{name}: A={_fmt(m.accuracy)} MDR={_fmt(m.mdr)} "
            f"FPR={_fmt(m.fpr)} G={_fmt(m.g_mean)}"
        )
    lines.append(f"TAS margin: MSE={report.tas_mse:.6g} MAE={report.tas_mae:.6g}")
    lines.append(f"TVS margin: MSE={report.tvs_mse:.6g} MAE={report.tvs_mae:.6g}")
    lines.append(
        f"mean margin (stable samples): TAS={_fmt(report.mean_margin_tas)} "
        f"TVS={_fmt(report.mean_margin_tvs)}"
    )
    cells = " ".join(f"{k}={right}/{n}" for k, (right, n) in report.joint_correct.items())
    lines.append(f"joint class, both verdicts right/total: {cells}")
    for task, util in report.expert_utilization.items():
        cells = " ".join(f"{u:.4f}" for u in util)
        lines.append(f"expert utilization {task}: {cells}")
    return "\n".join(lines)


def report_to_csv(report: EvalReport, path: str | Path) -> None:
    cells = {
        "n_samples": report.n_samples,
        "tas_accuracy": report.tas.accuracy,
        "tas_mdr": report.tas.mdr,
        "tas_fpr": report.tas.fpr,
        "tas_g": report.tas.g_mean,
        "tvs_accuracy": report.tvs.accuracy,
        "tvs_mdr": report.tvs.mdr,
        "tvs_fpr": report.tvs.fpr,
        "tvs_g": report.tvs.g_mean,
        "tas_mse": report.tas_mse,
        "tas_mae": report.tas_mae,
        "tvs_mse": report.tvs_mse,
        "tvs_mae": report.tvs_mae,
        "mean_margin_tas": report.mean_margin_tas,
        "mean_margin_tvs": report.mean_margin_tvs,
    }
    header = ",".join(cells)
    values = ",".join(
        "undefined" if v is None else (str(v) if isinstance(v, int) else f"{v:.10g}")
        for v in cells.values()
    )
    Path(path).write_text(header + "\n" + values + "\n")
