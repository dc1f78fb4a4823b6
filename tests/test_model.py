"""Model architecture: encoder, gates, expert mixing, heads, checkpoints."""

import struct
import zlib

import numpy as np
import pytest

from tsakit.autodiff_nn import (
    STABLE_CLASS,
    TASKS,
    ModelConfig,
    ModelOutput,
    StabilityModel,
    Tensor,
    load_balance_loss,
    load_checkpoint,
    moe_combine,
    save_checkpoint,
)
from tsakit.autodiff_nn.tensor import softmax


def small_model(seed=0, in_dim=6, hidden=8, experts=4, expert_hidden=5):
    return StabilityModel(
        ModelConfig(
            in_dim=in_dim, hidden_dim=hidden, n_experts=experts,
            expert_hidden=expert_hidden, seed=seed,
        )
    )


def random_graph(rng, n, in_dim):
    adj = np.triu(rng.integers(0, 2, (n, n)), 1)
    adj = (adj + adj.T).astype(float)
    x = rng.standard_normal((n, in_dim))
    return x, adj


class TestConfig:
    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            StabilityModel(ModelConfig(in_dim=4, n_layers=0))

    def test_single_expert_rejected(self):
        with pytest.raises(ValueError, match="two experts"):
            StabilityModel(ModelConfig(in_dim=4, n_experts=1))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            StabilityModel(ModelConfig(in_dim=0))

    def test_defaults_match_declared_architecture(self):
        cfg = ModelConfig(in_dim=40)
        assert (cfg.hidden_dim, cfg.n_layers, cfg.n_experts, cfg.expert_hidden) == (64, 2, 4, 64)


class TestGraphSageLayer:
    def test_isolated_node_identity_weights(self):
        model = small_model(in_dim=3, hidden=3)
        model.params["sage0.w_self"].data = np.eye(3)
        model.params["sage0.w_neigh"].data = np.zeros((3, 3))
        model.params["sage0.b"].data = np.zeros(3)
        h = Tensor(np.array([[[0.3, -1.2, 0.8]]]))
        adj_t, inv_deg = model._prepare_adjacency(np.zeros((1, 1, 1)))
        out = model.graphsage_layer(h, adj_t, inv_deg, 0, activate=False)
        np.testing.assert_allclose(out.data, h.data, atol=1e-15)

    def test_star_graph_hand_calculation(self):
        # center node 0 linked to leaves 1 and 2, two features each,
        # all-ones weights, zero bias, positive inputs so relu passes through
        model = small_model(in_dim=2, hidden=2)
        model.params["sage0.w_self"].data = np.ones((2, 2))
        model.params["sage0.w_neigh"].data = np.ones((2, 2))
        model.params["sage0.b"].data = np.zeros(2)
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        adj = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
        adj_t, inv_deg = model._prepare_adjacency(adj[None])
        out = model.graphsage_layer(Tensor(x[None]), adj_t, inv_deg, 0)
        # neighbor means: node0 (4, 5); node1 (1, 2); node2 (1, 2)
        # each output unit = sum(self) + sum(neigh mean)
        want = np.array(
            [
                [1 + 2 + 4 + 5, 1 + 2 + 4 + 5],
                [3 + 4 + 1 + 2, 3 + 4 + 1 + 2],
                [5 + 6 + 1 + 2, 5 + 6 + 1 + 2],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(out.data[0], want, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        model = small_model()
        x, adj = random_graph(rng, 7, 6)
        perm = rng.permutation(7)
        adj_t, inv_deg = model._prepare_adjacency(adj[None])
        base = model.graphsage_layer(Tensor(x[None]), adj_t, inv_deg, 0).data[0]
        padj_t, pinv = model._prepare_adjacency(adj[np.ix_(perm, perm)][None])
        permuted = model.graphsage_layer(Tensor(x[perm][None]), padj_t, pinv, 0).data[0]
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_isolated_nodes_get_zero_aggregate(self, rng):
        model = small_model()
        x = rng.standard_normal((1, 4, 6))
        adj = np.zeros((1, 4, 4))
        adj_t, inv_deg = model._prepare_adjacency(adj)
        out = model.graphsage_layer(Tensor(x), adj_t, inv_deg, 0, activate=False)
        w_self = model.params["sage0.w_self"].data
        b = model.params["sage0.b"].data
        np.testing.assert_allclose(out.data, x @ w_self + b, atol=1e-12)

    def test_dimension_mismatch_raises(self, rng):
        model = small_model()
        adj_t, inv_deg = model._prepare_adjacency(np.zeros((1, 3, 3)))
        with pytest.raises(ValueError, match="node count"):
            model.graphsage_layer(Tensor(np.zeros((1, 5, 6))), adj_t, inv_deg, 0)


class TestEncode:
    def test_vertex_transitive_graph_equal_embeddings(self):
        model = small_model()
        n = 4  # cycle graph, identical features everywhere
        adj = np.zeros((n, n))
        for i in range(n):
            adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
        x = np.tile(np.linspace(0.1, 0.6, 6), (n, 1))
        h, pooled = model.encode(Tensor(x), adj)
        for v in range(1, n):
            np.testing.assert_allclose(h.data[0, v], h.data[0, 0], atol=1e-12)
        np.testing.assert_allclose(pooled.data[0], h.data[0, 0], atol=1e-12)

    def test_pooled_equals_column_means(self, rng):
        model = small_model()
        x, adj = random_graph(rng, 6, 6)
        h, pooled = model.encode(Tensor(x), adj)
        np.testing.assert_allclose(pooled.data[0], h.data[0].mean(axis=0), atol=1e-12)

    def test_wrong_feature_dim_raises(self, rng):
        model = small_model()
        with pytest.raises(ValueError, match="does not match model input"):
            model.encode(np.zeros((3, 9)), np.zeros((3, 3)))


class TestGate:
    def test_zero_parameters_give_uniform(self, rng):
        model = small_model()
        model.params["gates.w"].data[0] = np.zeros((8, 4))
        model.params["gates.b"].data[0, 0] = np.zeros(4)
        g = model.gates(Tensor(rng.standard_normal((5, 8))))[TASKS.index("tas_cls")]
        np.testing.assert_allclose(g.data, 0.25, atol=1e-12)

    def test_dominant_logit_saturates(self):
        model = small_model()
        model.params["gates.w"].data[1] = np.zeros((8, 4))
        model.params["gates.b"].data[1, 0] = np.array([20.0, 0.0, 0.0, 0.0])
        g = model.gates(Tensor(np.zeros((1, 8))))[TASKS.index("tvs_cls")]
        assert g.data[0, 0] > 0.9999

    def test_logit_shift_invariance(self, rng):
        model = small_model()
        pooled = Tensor(rng.standard_normal((4, 8)))
        base = model.gates(pooled)[TASKS.index("tas_reg")].data
        model.params["gates.b"].data[2, 0] = model.params["gates.b"].data[2, 0] + 7.3
        shifted = model.gates(pooled)[TASKS.index("tas_reg")].data
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_simplex_on_random_inputs(self, rng):
        model = small_model(seed=3)
        pooled = Tensor(rng.standard_normal((1000, 8)) * 5.0)
        for task in TASKS:
            g = model.gates(pooled)[TASKS.index(task)].data
            assert g.min() >= 0.0
            np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-6)


class TestMoeCombine:
    def test_one_hot_selects_single_expert(self, rng):
        outputs = Tensor(rng.standard_normal((3, 4, 5)))
        for k in range(4):
            g = np.zeros((3, 4))
            g[:, k] = 1.0
            combined = moe_combine(Tensor(g), outputs)
            np.testing.assert_array_equal(combined.data, outputs.data[:, k])

    def test_uniform_is_arithmetic_mean(self, rng):
        outputs = Tensor(rng.standard_normal((2, 4, 6)))
        g = Tensor(np.full((2, 4), 0.25))
        combined = moe_combine(g, outputs)
        np.testing.assert_allclose(combined.data, outputs.data.mean(axis=1), atol=1e-12)

    def test_matches_weighted_sum_oracle(self, rng):
        g = rng.random((5, 4))
        g /= g.sum(axis=1, keepdims=True)
        outputs = rng.standard_normal((5, 4, 3))
        combined = moe_combine(Tensor(g), Tensor(outputs)).data
        want = np.zeros((5, 3))
        for b in range(5):
            for e in range(4):
                want[b] += g[b, e] * outputs[b, e]
        np.testing.assert_allclose(combined, want, atol=1e-12)

    def test_linear_in_expert_outputs(self, rng):
        g = Tensor(rng.dirichlet(np.ones(4), size=3))
        e1 = rng.standard_normal((3, 4, 5))
        e2 = rng.standard_normal((3, 4, 5))
        a, b = 0.7, -1.3
        lhs = moe_combine(g, Tensor(a * e1 + b * e2)).data
        rhs = a * moe_combine(g, Tensor(e1)).data + b * moe_combine(g, Tensor(e2)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="per expert"):
            moe_combine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4, 5))))


class TestLoadBalance:
    def test_uniform_gates_zero_loss(self):
        g = Tensor(np.full((16, 4), 0.25))
        assert float(load_balance_loss(g).data) == pytest.approx(0.0, abs=1e-15)

    def test_single_expert_concentration_is_n_minus_1(self):
        g = np.zeros((10, 4))
        g[:, 2] = 1.0
        assert float(load_balance_loss(Tensor(g)).data) == pytest.approx(3.0, abs=1e-12)

    def test_batch_size_invariance(self, rng):
        g = rng.dirichlet(np.ones(4), size=6)
        small = float(load_balance_loss(Tensor(g)).data)
        big = float(load_balance_loss(Tensor(np.tile(g, (5, 1)))).data)
        assert small == pytest.approx(big, abs=1e-12)

    def test_nonnegative_and_zero_iff_balanced(self, rng):
        for _ in range(20):
            g = rng.dirichlet(np.ones(4), size=8)
            loss = float(load_balance_loss(Tensor(g)).data)
            assert loss >= 0.0
            balanced = np.allclose(g.sum(axis=0), g.sum(axis=0).mean(), atol=1e-12)
            assert (loss < 1e-20) == balanced

    def test_gradient_flows_to_gates(self, rng):
        g = Tensor(rng.dirichlet(np.ones(4), size=5), requires_grad=True)
        load_balance_loss(g).backward()
        assert g.grad is not None
        assert np.any(g.grad != 0.0)

    def test_array_gates_give_the_tensor_bits(self, rng):
        """Training's validation pass takes the loss of predict's float64 gates
        without a Tensor; the value is the taped one's, bit for bit."""
        for shape in ((4, 37, 4), (16, 4)):
            g = rng.dirichlet(np.ones(4), size=shape[:-1])
            loss = load_balance_loss(g)
            assert isinstance(loss, np.floating)
            assert loss.tobytes() == load_balance_loss(Tensor(g)).data.tobytes()

    def test_stacked_gates_keep_a_float32_loss_and_gradient(self, rng):
        """The loss on a taped float32 (tasks, batch, experts) gate tensor, with
        the gates also feeding another consumer as they feed the expert
        mixture, is float32 in its value and in every gradient."""
        logits = rng.standard_normal((4, 16, 4)).astype(np.float32)
        weights = rng.standard_normal((4, 16, 4)).astype(np.float32)
        leaf = Tensor(logits, requires_grad=True)
        gates = softmax(leaf, axis=-1)
        balance = load_balance_loss(gates)
        ((gates * weights).sum() + balance).backward()
        assert balance.dtype == gates.grad.dtype == leaf.grad.dtype == np.float32

    def test_stacked_task_axis_accepted(self, rng):
        g = rng.dirichlet(np.ones(4), size=(3, 5))
        loss = load_balance_loss(Tensor(g))
        imp = g.sum(axis=(0, 1))
        want = imp.var() / imp.mean() ** 2
        assert float(loss.data) == pytest.approx(want, abs=1e-12)


class TestForward:
    def test_forward_wires_gate_experts_and_head(self, rng):
        """The tas_cls logits are its head applied to its own gate's mixture of
        the experts. TestMoeCombine covers the one-hot selection."""
        model = small_model(seed=5)
        x, adj = random_graph(rng, 6, 6)
        out = model.forward(x[None], adj[None])
        _, pooled = model.encode(Tensor(x[None]), adj[None])
        gate = model.gates(pooled)[TASKS.index("tas_cls")]
        combined = moe_combine(gate, model.expert_outputs(pooled)).data
        w = model.params["head.tas_cls.w"].data
        b = model.params["head.tas_cls.b"].data
        np.testing.assert_array_equal(out.tas_logits.data, combined @ w + b)

    def test_batch_matches_per_sample_loop(self, rng):
        model = small_model(seed=1)
        xs, adjs = [], []
        for _ in range(4):
            x, adj = random_graph(rng, 5, 6)
            xs.append(x)
            adjs.append(adj)
        batch = model.forward(np.stack(xs), np.stack(adjs))
        for i in range(4):
            single = model.forward(xs[i][None], adjs[i][None])
            np.testing.assert_allclose(
                batch.tas_logits.data[i], single.tas_logits.data[0], atol=1e-12
            )
            np.testing.assert_allclose(
                batch.tvs_margin_hat.data[i], single.tvs_margin_hat.data[0], atol=1e-12
            )
            for task in TASKS:
                np.testing.assert_allclose(
                    batch.gate_weights[task].data[i],
                    single.gate_weights[task].data[0],
                    atol=1e-12,
                )

    def test_node_relabeling_invariance(self, rng):
        model = small_model(seed=2)
        x, adj = random_graph(rng, 8, 6)
        perm = rng.permutation(8)
        base = model.forward(x[None], adj[None])
        permuted = model.forward(x[perm][None], adj[np.ix_(perm, perm)][None])
        np.testing.assert_allclose(
            base.tas_logits.data, permuted.tas_logits.data, atol=1e-9
        )
        np.testing.assert_allclose(
            base.tas_margin_hat.data, permuted.tas_margin_hat.data, atol=1e-9
        )

    def test_margins_within_unit_interval(self, rng):
        model = small_model(seed=4)
        x, adj = random_graph(rng, 6, 6)
        out = model.forward(np.stack([x * 50.0]), adj[None])
        assert np.all(np.abs(out.tas_margin_hat.data) <= 1.0)
        assert np.all(np.abs(out.tvs_margin_hat.data) <= 1.0)

    def test_gate_outputs_on_simplex(self, rng):
        model = small_model(seed=6)
        x, adj = random_graph(rng, 6, 6)
        out = model.forward(x[None], adj[None])
        for task in TASKS:
            g = out.gate_weights[task].data
            assert g.min() >= 0.0
            np.testing.assert_allclose(g.sum(axis=-1), 1.0, atol=1e-6)

    def test_loss_gradient_reaches_every_parameter(self, rng):
        model = small_model(seed=7)
        x, adj = random_graph(rng, 5, 6)
        out = model.forward(np.stack([x, x * 0.5]), np.stack([adj, adj]))
        loss = (
            out.tas_logits.cross_entropy_logits(np.array([0, 1]))
            + out.tvs_logits.cross_entropy_logits(np.array([1, 0]))
            + ((out.tas_margin_hat - 0.3) ** 2).mean()
            + ((out.tvs_margin_hat + 0.1) ** 2).mean()
            + load_balance_loss(out.gates)
        )
        loss.backward()
        for name, p in model.params.items():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name

    def test_gradients_match_finite_differences(self, rng):
        model = small_model(seed=11, in_dim=4, hidden=5, expert_hidden=4)
        x, adj = random_graph(rng, 4, 4)
        targets = np.array([1])

        def loss_value():
            out = model.forward(x[None], adj[None])
            loss = (
                out.tas_logits.cross_entropy_logits(targets)
                + out.tvs_logits.cross_entropy_logits(targets)
                + ((out.tas_margin_hat - 0.2) ** 2).mean()
                + ((out.tvs_margin_hat + 0.4) ** 2).mean()
                + 0.01 * load_balance_loss(out.gates)
            )
            return loss

        loss = loss_value()
        loss.backward()
        eps = 1e-5
        checked = 0
        names = sorted(model.params)
        for name in names[:: max(1, len(names) // 8)]:
            p = model.params[name]
            flat_index = int(rng.integers(p.data.size))
            idx = np.unravel_index(flat_index, p.data.shape)
            keep = p.data[idx]
            p.data[idx] = keep + eps
            hi = float(loss_value().data)
            p.data[idx] = keep - eps
            lo = float(loss_value().data)
            p.data[idx] = keep
            want = (hi - lo) / (2 * eps)
            got = p.grad[idx]
            denom = max(abs(want), abs(got), 1e-8)
            assert abs(want - got) / denom < 1e-4, (name, idx, want, got)
            checked += 1
        assert checked >= 6


class TestInfer:
    """The tape-free pass is the taped forward's values, byte for byte."""

    @staticmethod
    def graphs(rng, batch, n=6, in_dim=6):
        """Random graphs; the first has an isolated node, the second a removed edge."""
        xs, adjs = [], []
        for i in range(batch):
            x, adj = random_graph(rng, n, in_dim)
            if i == 0:
                adj[2, :] = adj[:, 2] = 0.0
            if i == 1:
                a, b = np.argwhere(np.triu(adj, 1))[0]
                adj[a, b] = adj[b, a] = 0.0
            xs.append(x)
            adjs.append(adj)
        return np.stack(xs), np.stack(adjs)

    @staticmethod
    def fields(out):
        heads = [out.tas_logits, out.tvs_logits, out.tas_margin_hat, out.tvs_margin_hat]
        return heads + [out.gate_weights[task] for task in TASKS]

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("seed,n_layers,experts", [(0, 2, 4), (1, 1, 2), (2, 3, 3)])
    def test_outputs_equal_the_taped_forward(self, batch, seed, n_layers, experts):
        rng = np.random.default_rng(seed)
        model = StabilityModel(ModelConfig(
            in_dim=6, hidden_dim=8, n_layers=n_layers, n_experts=experts,
            expert_hidden=5, seed=seed,
        ))
        x, adj = self.graphs(rng, batch)
        taped = self.fields(model.forward(x, adj))
        untaped = self.fields(model.infer(x, adj))
        for t, a in zip(taped, untaped):
            assert type(a) is np.ndarray
            assert a.dtype == np.float64 and a.shape == t.shape
            assert a.tobytes() == t.data.tobytes()

    def test_bundled_network_with_a_removed_line(self, ieee39):
        from tsakit.grid_model import adjacency_from_network

        rng = np.random.default_rng(3)
        model = StabilityModel(ModelConfig(in_dim=10, seed=3))
        adj = np.stack([adjacency_from_network(ieee39, without_line=k) for k in (None, 13)])
        x = rng.standard_normal((2, ieee39.n_bus, 10))
        for t, a in zip(self.fields(model.forward(x, adj)), self.fields(model.infer(x, adj))):
            assert a.tobytes() == t.data.tobytes()

    def test_predict_matches_the_taped_forward(self, rng):
        from tsakit.training_eval import predict

        model = small_model(seed=8)
        x, adj = self.graphs(rng, 4)
        pred = predict(model, x, model.prepare_graph(adj))
        out = model.forward(x, adj)
        assert isinstance(pred, ModelOutput)
        for got, want in zip(self.fields(pred), self.fields(out)):
            assert got.tobytes() == want.data.tobytes()
        assert pred.gates.tobytes() == out.gates.data.tobytes()
        tas, tvs = pred.verdicts()
        assert np.array_equal(tas, out.tas_logits.data.argmax(axis=1) == STABLE_CLASS)
        assert np.array_equal(tvs, out.tvs_logits.data.argmax(axis=1) == STABLE_CLASS)

    def test_verdicts_read_the_stable_class(self):
        """A verdict is stable where the stable class's logit is the larger;
        a tie reads as the first class, unstable."""
        logits = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        gates = np.full((len(TASKS), 3, 2), 0.5)
        out = ModelOutput(logits, logits[::-1], np.zeros((3, 1)), np.zeros((3, 1)), gates)
        tas, tvs = out.verdicts()
        assert tas.tolist() == [True, False, False]
        assert tvs.tolist() == [False, False, True]

    def test_reads_the_current_parameter_values(self, rng):
        """infer reads the parameters' current arrays, as training replaces them."""
        model = small_model(seed=9)
        x, adj = self.graphs(rng, 2)
        before = model.infer(x, adj).tas_logits
        for p in model.params.values():
            p.data = p.data * 0.5
        after = model.infer(x, adj).tas_logits
        assert not np.array_equal(before, after)
        assert after.tobytes() == model.forward(x, adj).tas_logits.data.tobytes()

    def test_float32_weights_and_inputs_give_the_float64_pass(self, rng):
        """infer computes in float64 whatever the dtype of its inputs and of the
        weights, so float32 training weights read as their loaded checkpoint does."""
        model, reference = small_model(seed=10), small_model(seed=10)
        for name, p in model.params.items():
            p.data = p.data.astype(np.float32)
            reference.params[name].data = p.data.astype(np.float64)
        x, adj = self.graphs(rng, 4)
        x = x.astype(np.float32)
        # a degree of 3 or 5 has a reciprocal that float32 rounds
        assert np.isin(adj.sum(axis=-1), (3.0, 5.0)).any()
        want = self.fields(reference.forward(x.astype(np.float64), adj))
        for adjacency in (adj, adj.astype(np.float32), adj.astype(np.int8)):
            for got, w in zip(self.fields(model.infer(x, adjacency)), want):
                assert got.dtype == np.float64
                assert got.tobytes() == w.data.tobytes()

    def test_prepared_graph_gives_the_raw_adjacency_bits(self, rng):
        """A graph prepared once, as the monitor keeps it, gives infer the bits
        of the taped forward on the raw float64 adjacency, whatever the dtype
        of the adjacency it was prepared from."""
        model = small_model(seed=10)
        x, adj = self.graphs(rng, 4)
        assert np.isin(adj.sum(axis=-1), (3.0, 5.0)).any()
        want = self.fields(model.forward(x, adj))
        for adjacency in (adj, adj.astype(np.float32), adj.astype(np.int8)):
            graph = model.prepare_graph(adjacency)
            assert graph.adjacency.dtype == graph.inv_degree.dtype == np.float64
            for got, w in zip(self.fields(model.infer(x, graph)), want):
                assert got.tobytes() == w.data.tobytes()


class TestCheckpoint:
    def test_roundtrip_preserves_quantized_parameters(self, tmp_path):
        model = small_model(seed=9)
        path = tmp_path / "m.tsm"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config.in_dim == model.config.in_dim
        assert back.config.n_experts == model.config.n_experts
        for name, p in model.params.items():
            stored = p.data.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(back.params[name].data, stored)

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = small_model(seed=10)
        p1, p2 = tmp_path / "a.tsm", tmp_path / "b.tsm"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_seed_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.tsm", tmp_path / "b.tsm"
        save_checkpoint(small_model(seed=12), p1)
        save_checkpoint(small_model(seed=12), p2)
        assert p1.read_bytes() == p2.read_bytes()
        save_checkpoint(small_model(seed=13), tmp_path / "c.tsm")
        assert p1.read_bytes() != (tmp_path / "c.tsm").read_bytes()

    def test_corrupted_crc_rejected(self, tmp_path):
        path = tmp_path / "m.tsm"
        save_checkpoint(small_model(), path)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        # an empty payload matches its all-zero CRC, so only the length check stops it
        for data, match in ((bytes(raw), "CRC"), (b"TSM1\0\0\0\0", "truncated")):
            path.write_bytes(data)
            with pytest.raises(ValueError, match=match):
                load_checkpoint(path)

    @pytest.mark.parametrize("cut", [27, 44])
    def test_payload_cut_inside_the_parameter_table_rejected(self, tmp_path, cut):
        """A payload that ends inside the parameter blocks but carries its own
        CRC (a faulty writer, not a file cut on disk) is reported as truncated."""
        path = tmp_path / "m.tsm"
        save_checkpoint(small_model(), path)
        payload = path.read_bytes()[4:-4][:cut]
        path.write_bytes(b"TSM1" + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.tsm"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="TSM1"):
            load_checkpoint(path)

    def test_reloaded_model_forward_matches_quantized(self, tmp_path, rng):
        model = small_model(seed=14)
        for p in model.params.values():
            p.data = p.data.astype(np.float32).astype(np.float64)
        x, adj = random_graph(rng, 5, 6)
        want = model.forward(x[None], adj[None]).tas_logits.data
        path = tmp_path / "m.tsm"
        save_checkpoint(model, path)
        got = load_checkpoint(path).forward(x[None], adj[None]).tas_logits.data
        np.testing.assert_array_equal(got, want)
