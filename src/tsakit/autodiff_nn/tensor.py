"""Dense reverse-mode automatic differentiation over numpy arrays.

Every operation records its inputs and a closure that routes the output
gradient back to them; backward() runs the closures in reverse topological
order. Only the handful of operations the stability model needs exist here,
all in float64. Gradients accumulate into .grad like any tape system, so
training code zeroes parameter gradients between steps. A backward closure
computes an operand's gradient only when that operand requires one, and a
stored gradient array is never written in place, so an array may be shared
between nodes and with the caller's seed.
"""

from __future__ import annotations

import numpy as np


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo broadcasting: reduce grad back to the operand's original shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_tensor(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


class Tensor:
    """Array with an optional gradient and the tape edges that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward_fn) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self, grad=None) -> None:
        """Populate .grad on every tensor this value depends on.

        Leaves accumulate across calls until zero_grad; the .grad of interior
        (computed) nodes holds this call's gradient only.
        """
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor that tracks no gradients")
        if not self._parents:
            raise RuntimeError("backward needs a recorded computation")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward without a seed needs a scalar value")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64).reshape(self.data.shape)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        # interior nodes start from zero on every call, so a second backward
        # of one graph adds its gradients to the leaves only once
        for node in order:
            if node._parents:
                node.grad = None
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data + other.data

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g, other.data.shape))

        return self._result(data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(g):
            self._accumulate(-g)

        return self._result(-self.data, (self,), backward_fn)

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data * other.data

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g * self.data, other.data.shape))

        return self._result(data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data / other.data

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _sum_to_shape(-g * self.data / other.data**2, other.data.shape)
                )

        return self._result(data, (self, other), backward_fn)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward_fn(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._result(data, (self,), backward_fn)

    def __matmul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must have at least 2 dimensions")
        data = self.data @ other.data

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(
                    _sum_to_shape(g @ np.swapaxes(other.data, -1, -2), self.data.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _sum_to_shape(np.swapaxes(self.data, -1, -2) @ g, other.data.shape)
                )

        return self._result(data, (self, other), backward_fn)

    # -- elementwise nonlinearities -----------------------------------------

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward_fn(g):
            self._accumulate(g * (self.data > 0.0))

        return self._result(data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward_fn(g):
            self._accumulate(g * (1.0 - data**2))

        return self._result(data, (self,), backward_fn)

    # -- reductions and shaping ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return self._result(data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward_fn(g):
            self._accumulate(g.reshape(self.data.shape))

        return self._result(data, (self,), backward_fn)

    @staticmethod
    def stack(tensors, axis: int = 0) -> "Tensor":
        tensors = [_as_tensor(t) for t in tensors]
        if not tensors:
            raise ValueError("stack needs at least one tensor")
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward_fn(g):
            pieces = np.split(g, len(tensors), axis=axis)
            for t, piece in zip(tensors, pieces):
                t._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._result(data, tensors, backward_fn)

    # -- fused primitives with known derivatives ----------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        data = e / e.sum(axis=axis, keepdims=True)

        def backward_fn(g):
            inner = (g * data).sum(axis=axis, keepdims=True)
            self._accumulate(data * (g - inner))

        return self._result(data, (self,), backward_fn)

    def cross_entropy_logits(self, targets) -> "Tensor":
        """Mean cross-entropy of integer class targets against logit rows.

        Log-sum-exp is computed against the row maximum, so extreme logits
        stay finite.
        """
        if self.data.ndim != 2:
            raise ValueError("expected a (batch, classes) logit matrix")
        targets = np.asarray(targets, dtype=int)
        if targets.shape != (self.data.shape[0],):
            raise ValueError("one integer target per logit row")
        if targets.min() < 0 or targets.max() >= self.data.shape[1]:
            raise ValueError("target class out of range")
        n, _ = self.data.shape
        shifted = self.data - self.data.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1)) + self.data.max(axis=1)
        picked = self.data[np.arange(n), targets]
        data = (lse - picked).mean()

        def backward_fn(g):
            soft = np.exp(shifted)
            soft /= soft.sum(axis=1, keepdims=True)
            soft[np.arange(n), targets] -= 1.0
            self._accumulate(float(g) * soft / n)

        return self._result(data, (self,), backward_fn)
