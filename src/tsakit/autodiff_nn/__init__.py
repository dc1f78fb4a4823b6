"""Reverse-mode autodiff and the graph mixture-of-experts stability model."""

from .model import (
    TASKS,
    ModelConfig,
    ModelOutput,
    StabilityModel,
    checkpoint_blocks,
    load_balance_loss,
    load_checkpoint,
    moe_combine,
    save_checkpoint,
)
from .tensor import Program, Tensor

__all__ = [
    "TASKS",
    "ModelConfig",
    "ModelOutput",
    "Program",
    "StabilityModel",
    "Tensor",
    "checkpoint_blocks",
    "load_balance_loss",
    "load_checkpoint",
    "moe_combine",
    "save_checkpoint",
]
