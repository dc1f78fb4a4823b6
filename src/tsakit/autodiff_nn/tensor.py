"""Dense reverse-mode automatic differentiation over numpy arrays.

Every operation records its inputs, a forward closure that computes its
value from theirs and a closure that routes the output gradient back to
them; backward() runs the backward closures in reverse topological order.
Only the handful of operations the stability model needs exist here.
Gradients accumulate into .grad like any tape system, so training code
zeroes parameter gradients between steps. A backward closure computes an
operand's gradient only when that operand requires one, and a stored
gradient array is never written in place, so an array may be shared between
nodes and with the caller's seed.

A Tensor holds float32 or float64 data: float32 arrays and numpy float32
scalars stay float32, and anything else becomes float64. A Python number
used as an operand takes the Tensor's dtype, which is numpy's own rule for
Python scalars, so a float32 graph stays float32 through constant factors.
Operands of mixed array dtypes follow numpy's promotion. Gradients, the
backward seed included, take the dtype of the value they belong to.

The functions relu, tanh, softmax, swapaxes and affine take either a
Tensor, which records its tape edge, or an ndarray, which records nothing.
Every other operation the model uses is an operator or method that both
types share, so one model definition serves training (Tensors) and tape-free
inference (arrays). A Tensor method computes its value through the array
branch of the matching function, so both forms give the same bits.

Record and replay. A Program calls a function once on leaf Tensors of its
input arrays, eagerly, and records every node that call creates, in creation
order. Program.run rebinds the input leaves to new arrays of the same shapes
and dtypes and recomputes each recorded node by calling its forward closure
again, in creation order; Program.backward runs the backward closures in the
reverse topological order found once at recording. The numpy calls and their
order are those of an eager pass, so a replay gives the eager bits. Forward
and backward closures therefore read their operands' current data, never
an array captured while the graph was built. The replay's inputs are the
program's input leaves: anything a function derives from them must be a
node computed from them, since a leaf built from an input's array would
stay frozen at its recorded value. Leaves made outside the call, such as
parameters updated in place, are read at their current value; constant
leaves such as Python-number operands keep theirs. One Program records at
a time.
"""

from __future__ import annotations

import numpy as np

_recording: list | None = None  # the nodes a Program is recording, in creation order


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


def float_array(value) -> np.ndarray:
    """value as an ndarray: float32 stays float32, anything else is float64."""
    value = np.asarray(value)
    return value if value.dtype == np.float32 else value.astype(np.float64, copy=False)


def _as_tensor(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


def relu(x):
    """max(x, 0) of a Tensor (taped) or an ndarray (untaped)."""
    return x.relu() if isinstance(x, Tensor) else np.maximum(x, 0.0)


def tanh(x):
    """Elementwise tanh of a Tensor (taped) or an ndarray (untaped)."""
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def softmax(x, axis: int = -1):
    """Softmax along axis of a Tensor (taped) or an ndarray (untaped):
    shift by the maximum, exponentiate, normalise."""
    if isinstance(x, Tensor):
        return x.softmax(axis=axis)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def swapaxes(x, a: int, b: int):
    """Exchange two axes of a Tensor (taped) or an ndarray (untaped)."""
    if not isinstance(x, Tensor):
        return np.swapaxes(x, a, b)
    return x._result(
        lambda: np.swapaxes(x.data, a, b), (x,), lambda g: x._accumulate(np.swapaxes(g, a, b))
    )


def affine(x, w, c):
    """x @ w + c as one tape node for a Tensor x, plain arrays otherwise.

    A stacked weight (S, d, k) applies S maps to one x, slice by slice with
    the 2-D product's numpy call. x receives each slice's gradient in slice
    order, as it would from S separate nodes, so the bits do not change.
    """
    if not isinstance(x, Tensor):
        return x @ w + c
    w, c = _as_tensor(w), _as_tensor(c)

    def backward_fn(g):
        if x.requires_grad:
            gx = g @ np.swapaxes(w.data, -1, -2)
            for part in gx.reshape(-1, *gx.shape[gx.ndim - x.ndim :]):
                x._accumulate(_sum_to_shape(part, x.data.shape))
        if w.requires_grad:
            w._accumulate(_sum_to_shape(np.swapaxes(x.data, -1, -2) @ g, w.data.shape))
        if c.requires_grad:
            c._accumulate(_sum_to_shape(g, c.data.shape))

    return Tensor._result(lambda: affine(x.data, w.data, c.data), (x, w, c), backward_fn)


def _topological_order(root: "Tensor") -> list["Tensor"]:
    """root and every node it reaches through gradient edges, parents first."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
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
    return order


def _backpropagate(root: "Tensor", order: list["Tensor"], grad: np.ndarray) -> None:
    """Seed root with grad and run the backward closures of order, children first."""
    # interior nodes start from zero on every call, so a second backward
    # of one graph adds its gradients to the leaves only once
    for node in order:
        if node._parents:
            node.grad = None
    root._accumulate(grad)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


class Tensor:
    """Array with an optional gradient and the tape edges that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_forward", "_backward")
    # numpy operators defer to this class, so `ndarray @ Tensor` reaches
    # __rmatmul__ and records a tape edge instead of building an object array
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = float_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._forward = None
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(forward_fn, parents, backward_fn) -> "Tensor":
        """The node whose value is forward_fn(), computed now from the parents' data.

        It tracks gradients when a parent does."""
        out = Tensor(forward_fn())
        out._forward = forward_fn
        out._parents = tuple(parents)
        if any(p.requires_grad for p in out._parents):
            out.requires_grad = True
            out._backward = backward_fn
        if _recording is not None:
            _recording.append(out)
        return out

    def _operand(self, value) -> "Tensor":
        """The other operand of a binary operator; a Python number takes self's dtype."""
        if type(value) in (bool, int, float):
            return Tensor(np.asarray(value, dtype=self.data.dtype))
        return _as_tensor(value)

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
        grad = np.asarray(grad, dtype=self.data.dtype).reshape(self.data.shape)
        _backpropagate(self, _topological_order(self), grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __getitem__(self, index) -> "Tensor":
        def backward_fn(g):
            full = np.zeros_like(self.data)
            full[index] = g
            self._accumulate(full)

        return self._result(lambda: self.data[index], (self,), backward_fn)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._operand(other)

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g, other.data.shape))

        return self._result(lambda: self.data + other.data, (self, other), backward_fn)

    def __neg__(self) -> "Tensor":
        def backward_fn(g):
            self._accumulate(-g)

        return self._result(lambda: -self.data, (self,), backward_fn)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._operand(other))

    def __mul__(self, other) -> "Tensor":
        other = self._operand(other)

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g * self.data, other.data.shape))

        return self._result(lambda: self.data * other.data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._operand(other)

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _sum_to_shape(-g * self.data / other.data**2, other.data.shape)
                )

        return self._result(lambda: self.data / other.data, (self, other), backward_fn)

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward_fn(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._result(lambda: self.data**exponent, (self,), backward_fn)

    def __matmul__(self, other) -> "Tensor":
        other = self._operand(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must have at least 2 dimensions")

        def backward_fn(g):
            if self.requires_grad:
                self._accumulate(
                    _sum_to_shape(g @ np.swapaxes(other.data, -1, -2), self.data.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _sum_to_shape(np.swapaxes(self.data, -1, -2) @ g, other.data.shape)
                )

        return self._result(lambda: self.data @ other.data, (self, other), backward_fn)

    def __rmatmul__(self, other) -> "Tensor":
        return _as_tensor(other) @ self

    # -- elementwise nonlinearities -----------------------------------------

    def relu(self) -> "Tensor":
        def backward_fn(g):
            self._accumulate(g * (self.data > 0.0))

        return self._result(lambda: relu(self.data), (self,), backward_fn)

    # tanh and softmax recompute their value in backward from the input's
    # current data, which gives the forward's bits; a closure that read it
    # from its own node would make the two a reference cycle that holds the
    # whole graph until the garbage collector runs

    def tanh(self) -> "Tensor":
        def backward_fn(g):
            self._accumulate(g * (1.0 - tanh(self.data) ** 2))

        return self._result(lambda: tanh(self.data), (self,), backward_fn)

    # -- reductions and shaping ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            full = np.empty_like(self.data)
            full[...] = g
            self._accumulate(full)

        return self._result(lambda: self.data.sum(axis=axis, keepdims=keepdims), (self,), backward_fn)

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

        def backward_fn(g):
            self._accumulate(g.reshape(self.data.shape))

        return self._result(lambda: self.data.reshape(shape), (self,), backward_fn)

    @staticmethod
    def stack(tensors, axis: int = 0) -> "Tensor":
        tensors = [_as_tensor(t) for t in tensors]
        if not tensors:
            raise ValueError("stack needs at least one tensor")

        def backward_fn(g):
            pieces = np.split(g, len(tensors), axis=axis)
            for t, piece in zip(tensors, pieces):
                t._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._result(
            lambda: np.stack([t.data for t in tensors], axis=axis), tensors, backward_fn
        )

    # -- fused primitives with known derivatives ----------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        def backward_fn(g):
            value = softmax(self.data, axis=axis)
            inner = (g * value).sum(axis=axis, keepdims=True)
            self._accumulate(value * (g - inner))

        return self._result(lambda: softmax(self.data, axis=axis), (self,), backward_fn)

    def cross_entropy_logits(self, targets) -> "Tensor":
        """Mean cross-entropy of integer class targets against logit rows.

        targets is an integer vector, or a Tensor holding the class indices
        (as floats, like every Tensor), which a Program can take as an input.
        Log-sum-exp is computed against the row maximum, so extreme logits
        stay finite.
        """
        if self.data.ndim != 2:
            raise ValueError("expected a (batch, classes) logit matrix")
        if not isinstance(targets, Tensor):
            targets = Tensor(np.asarray(targets, dtype=int))
        classes = targets.data.astype(int)
        if classes.shape != (self.data.shape[0],):
            raise ValueError("one integer target per logit row")
        if classes.min() < 0 or classes.max() >= self.data.shape[1]:
            raise ValueError("target class out of range")
        n = self.data.shape[0]
        rows = np.arange(n)

        def forward_fn():
            top = self.data.max(axis=1, keepdims=True)
            lse = np.log(np.exp(self.data - top).sum(axis=1)) + top[:, 0]
            picked = self.data[rows, targets.data.astype(int)]
            return (lse - picked).mean()

        def backward_fn(g):
            soft = np.exp(self.data - self.data.max(axis=1, keepdims=True))
            soft /= soft.sum(axis=1, keepdims=True)
            soft[rows, targets.data.astype(int)] -= 1.0
            self._accumulate(float(g) * soft / n)

        return self._result(forward_fn, (self, targets), backward_fn)


class Program:
    """One graph recorded eagerly, then replayed on new input arrays.

    Program(fn, arrays) makes a leaf Tensor of each named input array and
    calls fn(inputs) -> (root, outputs), where root is the scalar to
    differentiate and outputs any Tensors the caller reads after a pass.
    run(arrays) replays that pass on new arrays of the recorded shapes and
    dtypes; backward() seeds root with one. The recording call is an eager
    pass, so after construction the nodes hold its values and backward()
    may follow at once.
    """

    def __init__(self, fn, arrays: dict):
        global _recording
        if _recording is not None:
            raise RuntimeError("a Program is already recording")
        self.inputs = {name: Tensor(a) for name, a in arrays.items()}
        _recording = nodes = []
        try:
            self.root, self.outputs = fn(self.inputs)
        finally:
            _recording = None
        if not self.root.requires_grad or self.root.data.size != 1:
            raise ValueError("a Program's root must be a scalar that tracks gradients")
        self._nodes = nodes
        self._order = _topological_order(self.root)

    def run(self, arrays: dict) -> None:
        """Rebind the inputs to arrays and recompute every node in creation order."""
        for name, leaf in self.inputs.items():
            a = float_array(arrays[name])
            if a.shape != leaf.data.shape or a.dtype != leaf.data.dtype:
                raise ValueError(
                    f"input {name!r} was recorded as {leaf.data.dtype} {leaf.data.shape}, "
                    f"got {a.dtype} {a.shape}"
                )
            leaf.data = a
        for node in self._nodes:
            node.data = float_array(node._forward())

    def backward(self) -> None:
        """Gradients of root, as Tensor.backward would give them."""
        _backpropagate(self.root, self._order, np.ones_like(self.root.data))
