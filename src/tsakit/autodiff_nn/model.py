"""Graph encoder with a gated mixture-of-experts multi-task head.

Two GraphSAGE layers embed the bus graph from windowed voltage features,
mean pooling collapses node embeddings to one vector per sample, and four
experts shared across tasks are combined through per-task softmax gates.
Heads emit 2-class logits for the two stability verdicts and tanh-squashed
scalars for the two signed margins. Checkpoints are float32 parameter blocks
in declaration order behind a small architecture header.

The architecture is defined once. Each piece runs in the form of its input:
a Tensor records a tape against the parameter Tensors (forward, for
training), a float64 ndarray computes plain arrays from the parameters'
current values and records nothing (infer, for prediction and the monitor).
Both forms make the same numpy calls on the same shapes, so they give the
same bits.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import Tensor, relu, softmax, stack, tanh

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

        def weight(name, fan_in, fan_out):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-bound, bound, (fan_in, fan_out))
            self.params[name] = Tensor(data, requires_grad=True)

        def bias(name, dim):
            self.params[name] = Tensor(np.zeros(dim), requires_grad=True)

        d_in, d_h = config.in_dim, config.hidden_dim
        for layer in range(config.n_layers):
            src = d_in if layer == 0 else d_h
            weight(f"sage{layer}.w_self", src, d_h)
            weight(f"sage{layer}.w_neigh", src, d_h)
            bias(f"sage{layer}.b", d_h)
        for e in range(config.n_experts):
            weight(f"expert{e}.w1", d_h, config.expert_hidden)
            bias(f"expert{e}.b1", config.expert_hidden)
            weight(f"expert{e}.w2", config.expert_hidden, d_h)
            bias(f"expert{e}.b2", d_h)
        for task in TASKS:
            weight(f"gate.{task}.w", d_h, config.n_experts)
            bias(f"gate.{task}.b", config.n_experts)
        for task in ("tas_cls", "tvs_cls"):
            weight(f"head.{task}.w", d_h, 2)
            bias(f"head.{task}.b", 2)
        for task in ("tas_reg", "tvs_reg"):
            weight(f"head.{task}.w", d_h, 1)
            bias(f"head.{task}.b", 1)

    # -- plumbing -----------------------------------------------------------

    def _params_like(self, x):
        """The parameters in x's form: tape leaves for a Tensor, arrays otherwise."""
        return self.params if isinstance(x, Tensor) else self._arrays

    @staticmethod
    def _prepare_adjacency(adjacency) -> tuple[np.ndarray, np.ndarray]:
        """Constant adjacency and safe inverse degree, both (batch, n, n)/(batch, n, 1)."""
        adj = np.asarray(adjacency, dtype=float)
        deg = adj.sum(axis=-1, keepdims=True)
        inv_deg = np.where(deg > 0.0, 1.0 / np.maximum(deg, 1.0), 0.0)
        return adj, inv_deg

    # -- architecture pieces ------------------------------------------------
    # each runs on Tensors (taped) or ndarrays (untaped), the form of its input

    def graphsage_layer(self, h, adj, inv_deg, layer: int, activate: bool = True):
        if h.shape[-2] != adj.shape[-1]:
            raise ValueError("node count of features and adjacency differ")
        p = self._params_like(h)
        neigh = (adj @ h) * inv_deg  # mean over neighbors, zero when isolated
        out = (
            h @ p[f"sage{layer}.w_self"]
            + neigh @ p[f"sage{layer}.w_neigh"]
            + p[f"sage{layer}.b"]
        )
        return relu(out) if activate else out

    def encode(self, features, adjacency):
        """Stacked layers then mean pooling: (node embeddings, pooled).

        Tensor features give Tensors on the tape; anything else is read as a
        float64 array and gives ndarrays."""
        h = features if isinstance(features, Tensor) else np.asarray(features, dtype=float)
        if h.ndim == 2:
            h = h.reshape(1, *h.shape)
        adj = np.asarray(adjacency, dtype=float)
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

    def gate(self, pooled, task: str):
        p = self._params_like(pooled)
        return softmax(pooled @ p[f"gate.{task}.w"] + p[f"gate.{task}.b"], axis=-1)

    def expert_outputs(self, pooled):
        """All experts applied to the pooled embedding: (batch, N, d_h)."""
        p, outs = self._params_like(pooled), []
        for e in range(self.config.n_experts):
            hidden = relu(pooled @ p[f"expert{e}.w1"] + p[f"expert{e}.b1"])
            outs.append(hidden @ p[f"expert{e}.w2"] + p[f"expert{e}.b2"])
        return stack(outs, axis=1)

    def head(self, combined, task: str):
        """Task head on its gate's mixture: 2 logits, or a tanh margin."""
        p = self._params_like(combined)
        out = combined @ p[f"head.{task}.w"] + p[f"head.{task}.b"]
        return tanh(out) if task.endswith("_reg") else out

    def forward(self, features, adjacency) -> ModelOutput:
        """Full pass on the tape, for training: every field is a Tensor."""
        h = features if isinstance(features, Tensor) else Tensor(features)
        return self._run(h, adjacency)

    def infer(self, features, adjacency) -> ModelOutput:
        """The same pass without a tape: every field is a float64 ndarray."""
        return self._run(np.asarray(features, dtype=float), adjacency)

    def _run(self, features, adjacency) -> ModelOutput:
        """Encode, apply the experts, then gate and head per task."""
        _, pooled = self.encode(features, adjacency)
        experts = self.expert_outputs(pooled)
        heads = {}
        gates = {}
        for task in TASKS:
            gates[task] = self.gate(pooled, task)
            heads[task] = self.head(moe_combine(gates[task], experts), task)
        return ModelOutput(
            tas_logits=heads["tas_cls"],
            tvs_logits=heads["tvs_cls"],
            tas_margin_hat=heads["tas_reg"],
            tvs_margin_hat=heads["tvs_reg"],
            gate_weights=gates,
        )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: StabilityModel, path: str | Path) -> None:
    cfg = model.config
    payload = bytearray()
    payload += struct.pack("<BB", _CHECKPOINT_VERSION, _GATE_PER_TASK)
    payload += struct.pack(
        "<6I", cfg.n_layers, cfg.in_dim, cfg.hidden_dim, cfg.n_experts,
        cfg.expert_hidden, len(model.params),
    )
    for name, p in model.params.items():
        encoded = name.encode()
        payload += struct.pack("<H", len(encoded)) + encoded
        payload += struct.pack("<B", p.data.ndim)
        payload += struct.pack(f"<{p.data.ndim}I", *p.data.shape)
        payload += np.ascontiguousarray(p.data, dtype="<f4").tobytes()
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
    if n_blocks != len(model.params):
        raise ValueError(f"{path}: expected {len(model.params)} parameter blocks, file has {n_blocks}")

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

    for name, p in model.params.items():
        (name_len,) = struct.unpack_from("<H", payload, field(2))
        start = field(name_len)
        stored = payload[start:off].decode()
        if stored != name:
            raise ValueError(f"{path}: parameter order mismatch at {stored!r}")
        (ndim,) = struct.unpack_from("<B", payload, field(1))
        shape = struct.unpack_from(f"<{ndim}I", payload, field(4 * ndim))
        if shape != p.data.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        count = int(np.prod(shape)) if shape else 1
        block = np.frombuffer(payload, dtype="<f4", count=count, offset=field(4 * count))
        p.data = block.reshape(shape).astype(np.float64)
    if off != len(payload):
        raise ValueError(f"{path}: trailing bytes after parameter blocks")
    return model
