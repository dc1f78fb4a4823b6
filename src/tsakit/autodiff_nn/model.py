"""Graph encoder with a gated mixture-of-experts multi-task head.

Two GraphSAGE layers embed the bus graph from windowed voltage features,
mean pooling collapses node embeddings to one vector per sample, and four
experts shared across tasks are combined through per-task softmax gates.
Heads emit 2-class logits for the two stability verdicts and tanh-squashed
scalars for the two signed margins. The experts and the gates are stored
stacked, so each of those maps runs as one batched product. Checkpoints are
float32 parameter blocks, one per expert and gate, behind a small
architecture header.

The architecture is defined once. Each piece runs in the form of its input:
a Tensor records a tape against the parameter Tensors (forward, for
training), an ndarray computes plain arrays from the parameters' current
values and records nothing (infer, for prediction and the monitor). Both
forms make the same numpy calls on the same shapes, so on inputs of one
dtype they give the same bits.

forward computes in its inputs' dtype: float32 features, adjacency and
parameters give a float32 graph, as training uses, and float64 inputs give
float64 (a new model's parameters and a loaded checkpoint's are float64).
infer casts the features and the adjacency to float64, so it reads float32
weights exactly as it reads the same weights loaded from their checkpoint.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import Tensor, affine, derived, float_array, relu, softmax, swapaxes, tanh

TASKS = ("tas_cls", "tvs_cls", "tas_reg", "tvs_reg")

_CHECKPOINT_MAGIC = b"TSM1"
_CHECKPOINT_VERSION = 1
_GATE_PER_TASK = 1  # the only gating mode implemented


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    hidden_dim: int = 64
    n_layers: int = 2
    n_experts: int = 4
    expert_hidden: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.in_dim <= 0 or self.hidden_dim <= 0 or self.expert_hidden <= 0:
            raise ValueError("model dimensions must be positive")
        if self.n_layers < 1:
            raise ValueError("the encoder needs at least one layer")
        if self.n_experts < 2:
            raise ValueError("a mixture needs at least two experts")


@dataclass
class ModelOutput:
    """Per-batch results: Tensors on the tape from forward, ndarrays from infer."""

    tas_logits: Tensor | np.ndarray  # (batch, 2), class 1 = stable
    tvs_logits: Tensor | np.ndarray
    tas_margin_hat: Tensor | np.ndarray  # (batch, 1) in [-1, 1]
    tvs_margin_hat: Tensor | np.ndarray
    gate_weights: dict = field(default_factory=dict)  # task -> (batch, n_experts)


def _inverse_degree(adj: np.ndarray) -> np.ndarray:
    """1 / degree of each node, (batch, n, 1); zero for an isolated node."""
    deg = adj.sum(axis=-1, keepdims=True)
    return np.where(deg > 0.0, 1.0 / np.maximum(deg, 1.0), 0.0)


class _ParamArrays:
    """Read-only view of a parameter dict as its current arrays."""

    __slots__ = ("_params",)

    def __init__(self, params: dict[str, Tensor]):
        self._params = params

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name].data


def moe_combine(gates, expert_outputs):
    """Weighted sum over the expert axis: (..., N) x (..., N, D) -> (..., D).

    Tensors in give a taped Tensor, ndarrays an ndarray."""
    if gates.shape[-1] != expert_outputs.shape[-2]:
        raise ValueError("one gate weight per expert output")
    expanded = gates.reshape(*gates.shape, 1)
    return (expanded * expert_outputs).sum(axis=-2)


def load_balance_loss(gate_weights: Tensor) -> Tensor:
    """Squared coefficient of variation of per-expert importance.

    Importance is each expert's total gate mass over everything but the
    expert axis. Zero iff all experts carry equal mass; concentrating on one
    of N experts gives N - 1.
    """
    axes = tuple(range(gate_weights.ndim - 1))
    importance = gate_weights.sum(axis=axes) if axes else gate_weights
    mean = importance.mean()
    var = ((importance - mean) ** 2).mean()
    return var / (mean**2)


class StabilityModel:
    """Parameter container plus the forward graph builders."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._arrays = _ParamArrays(self.params)
        rng = np.random.default_rng(config.seed)

        def weight(fan_in, fan_out):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, (fan_in, fan_out))

        def param(name, data):
            self.params[name] = Tensor(data, requires_grad=True)

        d_in, d_h, d_e = config.in_dim, config.hidden_dim, config.expert_hidden
        n_e = config.n_experts
        for layer in range(config.n_layers):
            src = d_in if layer == 0 else d_h
            param(f"sage{layer}.w_self", weight(src, d_h))
            param(f"sage{layer}.w_neigh", weight(src, d_h))
            param(f"sage{layer}.b", np.zeros(d_h))
        # drawn expert by expert, then gate by gate, so a seed gives the per-name weights
        experts = [(weight(d_h, d_e), weight(d_e, d_h)) for _ in range(n_e)]
        param("experts.w1", np.stack([w1 for w1, _ in experts]))
        param("experts.b1", np.zeros((n_e, 1, d_e)))
        param("experts.w2", np.stack([w2 for _, w2 in experts]))
        param("experts.b2", np.zeros((n_e, 1, d_h)))
        param("gates.w", np.stack([weight(d_h, n_e) for _ in TASKS]))
        param("gates.b", np.zeros((len(TASKS), 1, n_e)))
        for task in TASKS:
            width = 1 if task.endswith("_reg") else 2  # a margin, or 2 logits
            param(f"head.{task}.w", weight(d_h, width))
            param(f"head.{task}.b", np.zeros(width))

    # -- plumbing -----------------------------------------------------------

    def _params_like(self, x):
        """The parameters in x's form: tape leaves for a Tensor, arrays otherwise."""
        return self.params if isinstance(x, Tensor) else self._arrays

    @staticmethod
    def _prepare_adjacency(adjacency):
        """Constant adjacency and safe inverse degree, (batch, n, n) and (batch, n, 1).

        A Tensor adjacency gives a Tensor inverse degree, a node outside the
        gradient that a replay recomputes from the adjacency."""
        adj = adjacency if isinstance(adjacency, Tensor) else float_array(adjacency)
        return adj, derived(_inverse_degree, adj)

    # -- architecture pieces ------------------------------------------------
    # each runs on Tensors (taped) or ndarrays (untaped), the form of its input

    def graphsage_layer(self, h, adj, inv_deg, layer: int, activate: bool = True):
        if h.shape[-2] != adj.shape[-1]:
            raise ValueError("node count of features and adjacency differ")
        p = self._params_like(h)
        neigh = (adj @ h) * inv_deg  # mean over neighbors, zero when isolated
        out = affine(h, p[f"sage{layer}.w_self"], neigh @ p[f"sage{layer}.w_neigh"])
        out = out + p[f"sage{layer}.b"]  # last, as in (h @ W_self + neigh @ W_neigh) + b
        return relu(out) if activate else out

    def encode(self, features, adjacency):
        """Stacked layers then mean pooling: (node embeddings, pooled).

        Tensor features give Tensors on the tape; anything else is read as an
        array (float32 stays float32, the rest is float64) and gives ndarrays.
        The adjacency may be a Tensor leaf (a replay input) or an array."""
        h = features if isinstance(features, Tensor) else float_array(features)
        if h.ndim == 2:
            h = h.reshape(1, *h.shape)
        adj = adjacency if isinstance(adjacency, Tensor) else float_array(adjacency)
        if adj.ndim == 2:
            adj = adj[None, :, :]
        if h.shape[-1] != self.config.in_dim:
            raise ValueError(
                f"feature dim {h.shape[-1]} does not match model input {self.config.in_dim}"
            )
        adj, inv_deg = self._prepare_adjacency(adj)
        last = self.config.n_layers - 1
        for layer in range(self.config.n_layers):
            h = self.graphsage_layer(h, adj, inv_deg, layer, activate=layer < last)
        pooled = h.mean(axis=1)
        return h, pooled

    def gates(self, pooled):
        """Every task's softmax gate, in TASKS order: (tasks, batch, N)."""
        p = self._params_like(pooled)
        return softmax(affine(pooled, p["gates.w"], p["gates.b"]), axis=-1)

    def gate(self, pooled, task: str):
        return self.gates(pooled)[TASKS.index(task)]

    def expert_outputs(self, pooled):
        """All experts applied to the pooled embedding: (batch, N, d_h)."""
        p = self._params_like(pooled)
        hidden = relu(affine(pooled, p["experts.w1"], p["experts.b1"]))
        return swapaxes(affine(hidden, p["experts.w2"], p["experts.b2"]), 0, 1)

    def head(self, combined, task: str):
        """Task head on its gate's mixture: 2 logits, or a tanh margin."""
        p = self._params_like(combined)
        out = combined @ p[f"head.{task}.w"] + p[f"head.{task}.b"]
        return tanh(out) if task.endswith("_reg") else out

    def forward(self, features, adjacency) -> ModelOutput:
        """Full pass on the tape, for training: every field is a Tensor.

        A Program that records this pass passes features and adjacency as
        its Tensor input leaves."""
        h = features if isinstance(features, Tensor) else Tensor(features)
        return self._run(h, adjacency)

    def infer(self, features, adjacency) -> ModelOutput:
        """The same pass without a tape, in float64: every field is a float64 ndarray."""
        return self._run(
            np.asarray(features, dtype=np.float64), np.asarray(adjacency, dtype=np.float64)
        )

    def _run(self, features, adjacency) -> ModelOutput:
        """Encode, apply the experts, mix them per task, then the heads."""
        _, pooled = self.encode(features, adjacency)
        experts = self.expert_outputs(pooled)
        gates = self.gates(pooled)
        combined = moe_combine(gates, experts)
        heads = [self.head(combined[i], task) for i, task in enumerate(TASKS)]
        # ModelOutput's head fields are in TASKS order
        return ModelOutput(*heads, gate_weights={task: gates[i] for i, task in enumerate(TASKS)})


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_blocks(model: StabilityModel) -> list[tuple[str, np.ndarray]]:
    """(name, array view) of every TSM1 parameter block, in file order.

    The file keeps one block per expert and per gate, so the stacked
    parameters appear as their slices: expert0.w1 is experts.w1[0] and
    gate.tas_cls.b is gates.b[0, 0]."""
    p = {name: t.data for name, t in model.params.items()}
    blocks = [(name, a) for name, a in p.items() if name.startswith("sage")]
    for e in range(model.config.n_experts):
        blocks += [
            (f"expert{e}.w1", p["experts.w1"][e]), (f"expert{e}.b1", p["experts.b1"][e, 0]),
            (f"expert{e}.w2", p["experts.w2"][e]), (f"expert{e}.b2", p["experts.b2"][e, 0]),
        ]
    for i, task in enumerate(TASKS):
        blocks += [(f"gate.{task}.w", p["gates.w"][i]), (f"gate.{task}.b", p["gates.b"][i, 0])]
    return blocks + [(name, a) for name, a in p.items() if name.startswith("head")]


def save_checkpoint(model: StabilityModel, path: str | Path) -> None:
    cfg, blocks = model.config, checkpoint_blocks(model)
    payload = bytearray()
    payload += struct.pack("<BB", _CHECKPOINT_VERSION, _GATE_PER_TASK)
    payload += struct.pack(
        "<6I", cfg.n_layers, cfg.in_dim, cfg.hidden_dim, cfg.n_experts,
        cfg.expert_hidden, len(blocks),
    )
    for name, a in blocks:
        encoded = name.encode()
        payload += struct.pack("<H", len(encoded)) + encoded
        payload += struct.pack("<B", a.ndim)
        payload += struct.pack(f"<{a.ndim}I", *a.shape)
        payload += np.ascontiguousarray(a, dtype="<f4").tobytes()
    crc = zlib.crc32(bytes(payload))
    Path(path).write_bytes(_CHECKPOINT_MAGIC + bytes(payload) + struct.pack("<I", crc))


def load_checkpoint(path: str | Path) -> StabilityModel:
    raw = Path(path).read_bytes()
    if raw[:4] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a TSM1 checkpoint")
    payload, (crc,) = raw[4:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != crc:
        raise ValueError(f"{path}: checkpoint CRC mismatch")
    off = 2 + 24
    if len(payload) < off:
        raise ValueError(
            f"{path}: truncated checkpoint ({len(payload)} payload bytes, the header needs {off})"
        )
    version, gate_mode = struct.unpack_from("<BB", payload, 0)
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if gate_mode != _GATE_PER_TASK:
        raise ValueError(f"{path}: unsupported gating mode {gate_mode}")
    n_layers, in_dim, hidden, n_experts, expert_hidden, n_blocks = struct.unpack_from(
        "<6I", payload, 2
    )
    model = StabilityModel(
        ModelConfig(
            in_dim=in_dim, hidden_dim=hidden, n_layers=n_layers,
            n_experts=n_experts, expert_hidden=expert_hidden,
        )
    )
    blocks = checkpoint_blocks(model)
    if n_blocks != len(blocks):
        raise ValueError(f"{path}: expected {len(blocks)} parameter blocks, file has {n_blocks}")

    def field(size: int) -> int:
        """Offset of the next `size` payload bytes, which must all be there."""
        nonlocal off
        if off + size > len(payload):
            raise ValueError(
                f"{path}: truncated checkpoint ({len(payload)} payload bytes, "
                f"parameter {name!r} needs {off + size})"
            )
        off += size
        return off - size

    for name, a in blocks:
        (name_len,) = struct.unpack_from("<H", payload, field(2))
        start = field(name_len)
        stored = payload[start:off].decode()
        if stored != name:
            raise ValueError(f"{path}: parameter order mismatch at {stored!r}")
        (ndim,) = struct.unpack_from("<B", payload, field(1))
        shape = struct.unpack_from(f"<{ndim}I", payload, field(4 * ndim))
        if shape != a.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        count = int(np.prod(shape)) if shape else 1
        block = np.frombuffer(payload, dtype="<f4", count=count, offset=field(4 * count))
        a[...] = block.reshape(shape)
    if off != len(payload):
        raise ValueError(f"{path}: trailing bytes after parameter blocks")
    return model
