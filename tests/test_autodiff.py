"""Tape correctness: every operation against central finite differences."""

import numpy as np
import pytest

from tsakit.autodiff_nn.tensor import (
    Program,
    Tensor,
    _sum_to_shape,
    affine,
    relu,
    softmax,
    swapaxes,
    tanh,
)


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    flat = out.reshape(-1)
    base = x.copy().reshape(-1)
    for i in range(base.size):
        keep = base[i]
        base[i] = keep + eps
        hi = f(base.reshape(x.shape))
        base[i] = keep - eps
        lo = f(base.reshape(x.shape))
        base[i] = keep
        flat[i] = (hi - lo) / (2.0 * eps)
    return out


def check_op(build, *shapes, rng, atol=1e-7):
    """Gradient-check a scalar-valued composite against finite differences."""
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for k, (arr, t) in enumerate(zip(arrays, tensors)):
        def f(x, k=k):
            subst = [Tensor(a) for a in arrays]
            subst[k] = Tensor(x)
            return float(build(*subst).data)

        want = numeric_grad(f, arr)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, want, atol=atol, rtol=1e-5)


class TestBasicOps:
    def test_add_broadcast(self, rng):
        check_op(lambda a, b: ((a + b) * (a + b)).sum(), (3, 4), (4,), rng=rng)

    def test_scalar_mixing(self, rng):
        check_op(lambda a: (2.0 * a + 1.0 - a / 3.0).sum(), (5,), rng=rng)

    def test_sub_and_neg(self, rng):
        check_op(lambda a, b: ((a - b) * (-a)).sum(), (2, 3), (2, 3), rng=rng)

    def test_mul_broadcast_column(self, rng):
        check_op(lambda a, b: (a * b).sum(), (4, 3), (4, 1), rng=rng)

    def test_div(self, rng):
        def build(a, b):
            return (a / (b * b + 1.0)).sum()

        check_op(build, (3, 3), (3, 3), rng=rng)

    def test_pow(self, rng):
        check_op(lambda a: (a**3).sum(), (4,), rng=rng)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_2d(self, rng):
        check_op(lambda a, b: (a @ b).sum(), (3, 4), (4, 2), rng=rng)

    def test_matmul_batched_against_loop(self, rng):
        a = rng.standard_normal((5, 3, 4))
        w = rng.standard_normal((4, 2))
        out = Tensor(a) @ Tensor(w)
        for i in range(5):
            np.testing.assert_allclose(out.data[i], a[i] @ w, atol=1e-12)

    def test_matmul_batched_gradients(self, rng):
        check_op(
            lambda a, b: ((a @ b) * (a @ b)).sum(), (4, 3, 2), (2, 5), rng=rng
        )

    def test_matmul_batch_times_batch(self, rng):
        check_op(lambda a, b: (a @ b).sum(), (3, 2, 4), (3, 4, 2), rng=rng)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="2 dimensions"):
            Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])


class TestNonlinearities:
    def test_relu(self, rng):
        # keep activations away from the kink
        a = rng.standard_normal((4, 4))
        a[np.abs(a) < 0.05] = 0.1
        t = Tensor(a, requires_grad=True)
        (t.relu() * t.relu()).sum().backward()
        want = numeric_grad(lambda x: float((np.maximum(x, 0) ** 2).sum()), a)
        np.testing.assert_allclose(t.grad, want, atol=1e-6)

    def test_tanh(self, rng):
        check_op(lambda a: a.tanh().sum(), (3, 3), rng=rng)


class TestReductions:
    def test_sum_all(self, rng):
        check_op(lambda a: (a.sum() * a.sum()), (3, 4), rng=rng)

    def test_sum_axis(self, rng):
        check_op(lambda a: (a.sum(axis=0) ** 2).sum(), (3, 4), rng=rng)

    def test_sum_axis_keepdims(self, rng):
        check_op(lambda a: (a / a.sum(axis=1, keepdims=True)).sum(), (3, 4), rng=rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis, keepdims", [(None, False), (1, False), (1, True), ((0, 2), False)])
    def test_sum_gradient_is_a_writable_array_of_the_operands_dtype(self, rng, dtype, axis,
                                                                    keepdims):
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(dtype), requires_grad=True)
        s = x.sum(axis=axis, keepdims=keepdims)
        seed = (1.0 + np.arange(s.data.size, dtype=dtype)).reshape(s.shape)
        s.backward(seed)
        assert type(x.grad) is np.ndarray and x.grad.dtype == dtype
        assert x.grad.flags.writeable and x.grad.shape == x.shape
        spread = seed if axis is None or keepdims else np.expand_dims(seed, axis)
        assert x.grad.tobytes() == np.broadcast_to(spread, x.shape).tobytes()

    def test_mean_matches_manual(self, rng):
        a = rng.standard_normal((4, 6))
        t = Tensor(a, requires_grad=True)
        m = t.mean(axis=1)
        np.testing.assert_allclose(m.data, a.mean(axis=1), atol=1e-14)
        check_op(lambda x: (x.mean(axis=1) ** 2).sum(), (4, 6), rng=rng)

    def test_mean_axis_tuple(self, rng):
        check_op(lambda a: (a.mean(axis=(0, 2)) ** 2).sum(), (2, 3, 4), rng=rng)

    def test_reshape(self, rng):
        check_op(lambda a: (a.reshape(6) ** 2).sum(), (2, 3), rng=rng)

    def test_stack(self, rng):
        def build(a, b):
            s = Tensor.stack([a, b], axis=0)
            return (s * s).sum()

        check_op(build, (2, 3), (2, 3), rng=rng)

    def test_stack_axis1(self, rng):
        def build(a, b, c):
            return Tensor.stack([a, b, c], axis=1).sum(axis=1).sum()

        check_op(build, (2, 3), (2, 3), (2, 3), rng=rng)


class TestFusedPrimitives:
    def test_softmax_rows_sum_to_one(self, rng):
        t = Tensor(rng.standard_normal((7, 4)))
        s = t.softmax(axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (s.data > 0).all()

    def test_softmax_gradient(self, rng):
        def build(a):
            return (a.softmax(axis=-1) * a.softmax(axis=-1)).sum()

        check_op(build, (3, 5), rng=rng)

    def test_softmax_extreme_logits_finite(self):
        t = Tensor([[1000.0, 0.0, -1000.0]])
        s = t.softmax()
        assert np.isfinite(s.data).all()
        np.testing.assert_allclose(s.data.sum(), 1.0, atol=1e-12)

    def test_cross_entropy_uniform_is_log2(self):
        logits = Tensor(np.zeros((5, 2)), requires_grad=True)
        ce = logits.cross_entropy_logits(np.array([0, 1, 0, 1, 1]))
        np.testing.assert_allclose(ce.data, np.log(2.0), atol=1e-12)

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((6, 3))
        targets = rng.integers(0, 3, 6)
        t = Tensor(logits, requires_grad=True)
        ce = t.cross_entropy_logits(targets)
        # independent restatement with explicit per-row log-sum-exp
        rows = []
        for i in range(6):
            z = logits[i]
            rows.append(np.log(np.exp(z).sum()) - z[targets[i]])
        np.testing.assert_allclose(ce.data, np.mean(rows), atol=1e-12)

    def test_cross_entropy_gradient(self, rng):
        targets = np.array([0, 2, 1, 1])
        a = rng.standard_normal((4, 3))
        t = Tensor(a, requires_grad=True)
        t.cross_entropy_logits(targets).backward()

        def f(x):
            z = x - x.max(axis=1, keepdims=True)
            lse = np.log(np.exp(z).sum(axis=1)) + x.max(axis=1)
            return float(np.mean(lse - x[np.arange(4), targets]))

        np.testing.assert_allclose(t.grad, numeric_grad(f, a), atol=1e-7)

    def test_cross_entropy_shape_checks(self):
        with pytest.raises(ValueError, match="logit matrix"):
            Tensor(np.zeros(3)).cross_entropy_logits(np.array([0]))
        with pytest.raises(ValueError, match="per logit row"):
            Tensor(np.zeros((2, 2))).cross_entropy_logits(np.array([0]))
        with pytest.raises(ValueError, match="out of range"):
            Tensor(np.zeros((2, 2))).cross_entropy_logits(np.array([0, 2]))

    def test_saturated_logits_near_zero_loss(self):
        logits = Tensor(np.array([[40.0, 0.0], [0.0, 40.0]]))
        ce = logits.cross_entropy_logits(np.array([0, 1]))
        assert 0.0 <= float(ce.data) < 1e-12


class TestTapeSemantics:
    def test_backward_without_graph_raises(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="recorded computation"):
            leaf.backward()

    def test_backward_on_untracked_raises(self):
        a = Tensor(np.ones(3))
        b = a + 1.0
        with pytest.raises(RuntimeError, match="tracks no gradients"):
            b.backward()

    def test_backward_nonscalar_needs_seed(self, rng):
        a = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = a * 2.0
        with pytest.raises(ValueError, match="scalar"):
            out.backward()
        out.backward(np.ones((2, 2)))
        np.testing.assert_allclose(a.grad, 2.0 * np.ones((2, 2)), atol=1e-14)

    def test_grad_accumulates_across_backwards(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        (a * 3.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 5.0, atol=1e-14)
        a.zero_grad()
        assert a.grad is None

    def test_second_backward_of_one_graph_counts_once(self):
        a = Tensor(np.ones(2), requires_grad=True)
        scaled = a * 2.0
        out = scaled.sum()
        out.backward()
        out.backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0])
        np.testing.assert_array_equal(scaled.grad, [1.0, 1.0])

    def test_shared_subexpression_counts_both_paths(self, rng):
        # y = x*2 + x*3 must see dy/dx = 5 through the shared leaf
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        y = (x * 2.0 + x * 3.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, 5.0, atol=1e-14)

    def test_diamond_graph(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        h = x * x
        y = (h + h * 2.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, 6.0 * x.data, atol=1e-12)

    def test_constants_get_no_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        (a * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(a.grad, 2.0, atol=1e-14)

    def test_constant_operand_gradient_is_not_evaluated(self):
        # d(a/c)/dc = -a/c**2 would overflow in the square
        a = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 1e200))
        with np.errstate(all="raise"):
            (a / c).sum().backward()
        assert c.grad is None
        np.testing.assert_array_equal(a.grad, 1.0 / 1e200)

    def test_self_sum_gets_both_operand_gradients(self):
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0)

    def test_seed_is_not_mutated(self, rng):
        a = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = a + 0.0
        seed = np.arange(4.0).reshape(2, 2)
        out.backward(seed)
        out.backward(seed)
        np.testing.assert_array_equal(seed, np.arange(4.0).reshape(2, 2))

    def test_stored_gradient_is_not_mutated_by_a_later_backward(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        (a * 3.0).sum().backward()
        first = a.grad
        (a * 2.0).sum().backward()
        np.testing.assert_array_equal(first, 3.0)
        np.testing.assert_array_equal(a.grad, 5.0)

    def test_deep_chain_does_not_overflow(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0001
        y.sum().backward()
        assert x.grad is not None
        np.testing.assert_allclose(x.grad, 1.0001**3000, rtol=1e-9)


class TestAffine:
    def test_matches_finite_differences(self, rng):
        check_op(lambda x, w, c: (affine(x, w, c) ** 2).sum(), (3, 4), (4, 2), (2,), rng=rng)

    def test_stacked_weight_matches_finite_differences(self, rng):
        def build(x, w, c):
            return (swapaxes(affine(x, w, c), 0, 1)[1] ** 2).sum()

        check_op(build, (3, 4), (2, 4, 5), (2, 1, 5), rng=rng)

    def test_array_form_is_the_plain_expression(self, rng):
        x, w, c = rng.standard_normal((3, 4)), rng.standard_normal((2, 4, 5)), rng.standard_normal((2, 1, 5))
        out = affine(x, w, c)
        assert type(out) is np.ndarray
        assert out.tobytes() == (x @ w + c).tobytes()

    @pytest.mark.parametrize("earlier_consumer", [False, True])
    def test_stacked_product_gradients_equal_separate_nodes_bitwise(self, rng, earlier_consumer):
        """A (S, d, k) weight gives the bits of S separate 2-D nodes on one x:
        x receives the slices one by one in slice order, never their sum."""
        n_slices, batch, d, k = 4, 16, 64, 8
        x_data = rng.standard_normal((batch, d))
        w_data = rng.standard_normal((n_slices, d, k)) * 10.0 ** rng.integers(-3, 3, (n_slices, 1, 1))
        c_data = rng.standard_normal((n_slices, 1, k))
        seed = rng.standard_normal((n_slices, batch, k))

        def leaf(data):
            return Tensor(data, requires_grad=True)

        stacked_x, separate_x = leaf(x_data), leaf(x_data)
        if earlier_consumer:
            for x in (stacked_x, separate_x):
                (x * 3.0).sum().backward()
        w, c = leaf(w_data), leaf(c_data)
        stacked = affine(stacked_x, w, c)
        stacked.backward(seed)
        for s in range(n_slices):
            ws, cs = leaf(w_data[s]), leaf(c_data[s, 0])
            out = affine(separate_x, ws, cs)
            assert out.data.tobytes() == stacked.data[s].tobytes()
            out.backward(seed[s])
            assert ws.grad.tobytes() == w.grad[s].tobytes()
            assert cs.grad.tobytes() == c.grad[s, 0].tobytes()
        assert stacked_x.grad.tobytes() == separate_x.grad.tobytes()


# each builds a Tensor from float32 leaves x (3, 4), v (3, 4), w (4, 2) and c (2,)
FLOAT32_OPS = {
    "add": lambda x, v, w, c: x + v,
    "add_number": lambda x, v, w, c: x + 1.5,
    "sub": lambda x, v, w, c: x - v,
    "sub_int": lambda x, v, w, c: x - 2,
    "neg": lambda x, v, w, c: -x,
    "mul": lambda x, v, w, c: x * v,
    "mul_number": lambda x, v, w, c: x * 0.1,
    "number_mul": lambda x, v, w, c: 0.1 * x,
    "mul_float32_scalar": lambda x, v, w, c: x * np.float32(0.1),
    "div": lambda x, v, w, c: x / (v * v + 1.0),
    "div_number": lambda x, v, w, c: x / 3.0,
    "pow": lambda x, v, w, c: x**3,
    "matmul": lambda x, v, w, c: x @ w,
    "array_matmul": lambda x, v, w, c: v.data @ w,
    "relu": lambda x, v, w, c: relu(x),
    "tanh": lambda x, v, w, c: tanh(x),
    "softmax": lambda x, v, w, c: softmax(x, axis=-1),
    "sum": lambda x, v, w, c: x.sum(axis=0),
    "mean": lambda x, v, w, c: x.mean(),
    "mean_axis": lambda x, v, w, c: x.mean(axis=1, keepdims=True),
    "reshape": lambda x, v, w, c: x.reshape(4, 3),
    "index": lambda x, v, w, c: x[1:, ::2],
    "swapaxes": lambda x, v, w, c: swapaxes(x, 0, 1),
    "stack": lambda x, v, w, c: Tensor.stack([x, v]),
    "affine": lambda x, v, w, c: affine(x, w, c),
    "cross_entropy": lambda x, v, w, c: x.cross_entropy_logits([0, 3, 1]),
}


class TestDtypeRule:
    """float32 stays float32 on the tape; everything else is float64."""

    @pytest.mark.parametrize("op", sorted(FLOAT32_OPS))
    def test_float32_values_and_gradients_stay_float32(self, rng, op):
        leaves = [
            Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
            for shape in ((3, 4), (3, 4), (4, 2), (2,))
        ]
        out = FLOAT32_OPS[op](*leaves)
        assert out.dtype == np.float32
        loss = 0.5 * out.sum()
        assert loss.dtype == np.float32
        loss.backward()
        assert loss.grad.dtype == np.float32
        grads = [t.grad for t in leaves if t.grad is not None]
        assert grads
        for g in grads:
            assert g.dtype == np.float32

    @pytest.mark.parametrize(
        "value",
        [[1.0, 2.0], [1, 2], np.arange(3), np.ones(3), np.ones(2, np.float16), 2.0, 3, np.float64(2.0)],
        ids=["float list", "int list", "int array", "float64 array", "float16 array",
             "float", "int", "float64 scalar"],
    )
    def test_everything_else_is_float64(self, value):
        assert Tensor(value).dtype == np.float64

    def test_float32_array_is_kept_not_copied(self):
        a = np.ones((2, 3), dtype=np.float32)
        assert Tensor(a).data is a
        assert Tensor(np.float32(0.5)).dtype == np.float32

    def test_array_operands_promote_as_numpy_does(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * np.full(3, 2.0)  # a float64 array operand
        assert y.dtype == np.float64
        y.sum().backward()
        assert x.grad.dtype == np.float64
        assert (x * np.float64(2.0)).dtype == np.float64  # a numpy scalar is not a Python number

    def test_backward_seed_takes_the_tensors_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = x * 2.0
        y.backward(np.full((2, 2), 0.1))  # a float64 seed
        assert y.grad.dtype == np.float32
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.float32(0.1) * np.float32(2.0))


class TestSumToShape:
    def test_identity(self):
        g = np.ones((3, 4))
        assert _sum_to_shape(g, (3, 4)) is g

    def test_leading_axes_summed(self):
        g = np.ones((5, 3, 4))
        np.testing.assert_allclose(_sum_to_shape(g, (3, 4)), 5.0)

    def test_kept_singleton_axes_summed(self):
        g = np.ones((3, 4))
        out = _sum_to_shape(g, (3, 1))
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out, 4.0)

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = _sum_to_shape(g, ())
        assert out.shape == ()
        assert out == 6.0


def _small_graph(w, v):
    """A loss over every replay-sensitive piece: tanh, softmax and a
    cross-entropy whose targets are an input."""

    def fn(inputs):
        h = tanh(affine(inputs["x"], w, 0.0))
        p = softmax(h @ v, axis=-1)
        loss = h.cross_entropy_logits(inputs["y"]) + ((p - inputs["t"]) ** 2).mean()
        return loss, {"p": p}

    return fn


class TestProgram:
    @staticmethod
    def batch(rng, n=5):
        return {
            "x": rng.standard_normal((n, 4)).astype(np.float32),
            "y": rng.integers(0, 3, n),
            "t": rng.uniform(0.0, 1.0, (n, 2)).astype(np.float32),
        }

    def test_replay_gives_the_eager_bits_on_new_inputs(self, rng):
        w = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        v = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
        fn = _small_graph(w, v)
        program = Program(fn, self.batch(rng))
        for _ in range(3):
            batch = self.batch(rng)
            w.data = w.data * np.float32(0.9)  # parameters move between steps
            program.run(batch)
            w.zero_grad(), v.zero_grad()
            program.backward()
            replayed = (program.root.data.tobytes(), program.outputs["p"].data.tobytes(),
                        w.grad.tobytes(), v.grad.tobytes())
            loss, outputs = fn({k: Tensor(a) for k, a in batch.items()})
            w.zero_grad(), v.zero_grad()
            loss.backward()
            eager = (loss.data.tobytes(), outputs["p"].data.tobytes(),
                     w.grad.tobytes(), v.grad.tobytes())
            assert replayed == eager

    def test_recording_is_an_eager_pass(self, rng):
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        fn, batch = _small_graph(w, v), self.batch(rng)
        program = Program(fn, batch)
        loss, _ = fn({k: Tensor(a) for k, a in batch.items()})
        assert program.root.data.tobytes() == loss.data.tobytes()

    def test_input_of_another_shape_or_dtype_rejected(self, rng):
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        program = Program(_small_graph(w, Tensor(np.ones((3, 2)))), self.batch(rng))
        with pytest.raises(ValueError, match="'x' was recorded"):
            program.run(self.batch(rng, n=6))
        batch = self.batch(rng)
        batch["t"] = batch["t"].astype(np.float64)
        with pytest.raises(ValueError, match="'t' was recorded as float32"):
            program.run(batch)

    def test_root_must_be_a_differentiable_scalar(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            Program(lambda inputs: (inputs["x"] * w, {}), {"x": np.ones(3)})
        with pytest.raises(ValueError, match="scalar"):
            Program(lambda inputs: (inputs["x"].sum(), {}), {"x": np.ones(3)})

    def test_recordings_do_not_nest(self):
        w = Tensor(np.ones(3), requires_grad=True)

        def outer(inputs):
            Program(lambda inner: ((inner["x"] * w).sum(), {}), {"x": np.ones(3)})

        with pytest.raises(RuntimeError, match="already recording"):
            Program(outer, {"x": np.ones(3)})
        Program(lambda inputs: ((inputs["x"] * w).sum(), {}), {"x": np.ones(3)})
