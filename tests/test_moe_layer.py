import numpy as np
import pytest

from avmoe import tensor as T
from avmoe.moe_layer import ExpertFFN, MoELayer, MoELayerConfig, flops_report
from avmoe.routing import MOD_AUDIO, MOD_AV, MOD_VIDEO, RoutingConfigError
from avmoe.tensor import Tensor, grad_check
from chains import tmean


def mse(pred, target):
    d = T.sub(pred, target)
    return tmean(T.mul(d, d))


def gelu_oracle(x):
    """tanh-approximated GELU, written out in numpy."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def make_layer(mode, seed=0, **kw):
    cfg = MoELayerConfig(mode=mode, d=6, h=8, **kw)
    return MoELayer(cfg, np.random.default_rng(seed))


class TestExpertFFN:
    def test_zero_parameters_zero_output(self):
        e = ExpertFFN(Tensor.param(np.zeros((4, 6))), Tensor.param(np.zeros(6)),
                      Tensor.param(np.zeros((6, 4))), Tensor.param(np.zeros(4)))
        out = e.forward(Tensor(np.ones((3, 4))))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_identity_construction(self):
        d = 4
        e = ExpertFFN(Tensor.param(np.eye(d)), Tensor.param(np.zeros(d)),
                      Tensor.param(np.eye(d)), Tensor.param(np.zeros(d)))
        x = np.random.default_rng(0).normal(size=(2, d))
        assert np.allclose(e.forward(Tensor(x)).data, gelu_oracle(x), atol=1e-12)

    def test_compositional_oracle(self):
        rng = np.random.default_rng(1)
        e = ExpertFFN.init(5, 7, rng)
        x = rng.normal(size=(3, 5))
        got = e.forward(Tensor(x)).data
        want = gelu_oracle(x @ e.W1.data + e.b1.data) @ e.W2.data + e.b2.data
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("shape,rows", [((1, 5), 1), ((3, 5), 3), ((2, 3, 5), 6),
                                            ((1, 4, 5), 4)])
    def test_eval_count_adds_one_per_row(self, shape, rows):
        e = ExpertFFN.init(5, 7, np.random.default_rng(2))
        e.forward(Tensor(np.ones(shape)))
        e.forward(Tensor(np.ones(shape)))
        assert e.eval_count == 2 * rows

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        e = ExpertFFN.init(4, 6, rng)
        target = Tensor(rng.normal(size=(3, 4)))
        x = Tensor(rng.normal(size=(3, 4)))
        assert grad_check(lambda t: mse(e.forward(t), target), x, eps=1e-4) < 1e-4


class TestMoEForward:
    def test_k1_equals_single_expert(self):
        layer = make_layer("sparse_topk", n_experts=4, k=1)
        X = Tensor(np.random.default_rng(3).normal(size=(5, 6)))
        out, routing, _ = layer.forward(X)
        for t in range(5):
            e = routing.selected[t, 0]
            want = layer.experts[e].forward(Tensor(X.data[t:t + 1]))
            assert np.allclose(out.data[t], want.data[0], atol=1e-12)

    def test_identical_experts_routing_independent(self):
        layer = make_layer("sparse_topk", n_experts=4, k=2)
        proto = layer.experts[0]
        for e in layer.experts[1:]:
            e.W1.data[:] = proto.W1.data
            e.b1.data[:] = proto.b1.data
            e.W2.data[:] = proto.W2.data
            e.b2.data[:] = proto.b2.data
        X = Tensor(np.random.default_rng(4).normal(size=(4, 6)))
        out, _, _ = layer.forward(X)
        want = proto.forward(X)
        assert np.max(np.abs(out.data - want.data)) < 1e-12

    def test_dense_evaluation_oracle(self):
        layer = make_layer("sparse_topk", n_experts=4, k=2, seed=5)
        X = Tensor(np.random.default_rng(6).normal(size=(6, 6)))
        out, routing, _ = layer.forward(X)
        probs = routing.expert_probs[0].data[0]
        for t in range(6):
            dense = np.zeros(6)
            ids = routing.selected[t]
            for e in ids:
                y = layer.experts[e].forward(Tensor(X.data[t:t + 1])).data[0]
                dense += probs[t, e] / probs[t, ids].sum() * y
            assert np.max(np.abs(out.data[t] - dense)) < 1e-12

    def test_sparsity_contract(self):
        layer = make_layer("sparse_topk", n_experts=8, k=2, seed=7)
        before = sum(layer.eval_counts())
        X = Tensor(np.random.default_rng(8).normal(size=(10, 6)))
        layer.forward(X)
        assert sum(layer.eval_counts()) - before == 10 * 2

    def test_hierarchical_sparsity_contract(self):
        layer = make_layer("hierarchical", n_groups=2, n_per_group=4, m=2, seed=9)
        before = sum(layer.eval_counts())
        X = Tensor(np.random.default_rng(10).normal(size=(7, 6)))
        layer.forward(X)
        assert sum(layer.eval_counts()) - before == 7 * 2  # m=2 groups x 1 expert

    def test_hard_audiovisual_mean_of_groups(self):
        layer = make_layer("hard", n_groups=2, n_per_group=4, k=2, seed=11)
        X = Tensor(np.random.default_rng(12).normal(size=(3, 6)))
        out, routing, _ = layer.forward(X, modalities=[MOD_AV] * 3)
        for t in range(3):
            acc = np.zeros(6)
            for gid, e in enumerate(routing.selected[t]):
                # one expert per group: its within-group weight is 1
                assert e // 4 == gid
                acc += 0.5 * layer.experts[e].forward(Tensor(X.data[t:t + 1])).data[0]
            assert np.max(np.abs(out.data[t] - acc)) < 1e-12

    def test_hard_unimodal_group_confinement(self):
        layer = make_layer("hard", n_groups=2, n_per_group=4, k=2, seed=13)
        X = Tensor(np.random.default_rng(14).normal(size=(4, 6)))
        _, routing, _ = layer.forward(X, modalities=[MOD_AUDIO, MOD_VIDEO] * 2)
        for ids, tag in zip(routing.selected, [MOD_AUDIO, MOD_VIDEO] * 2):
            lo, hi = (0, 4) if tag == MOD_AUDIO else (4, 8)
            assert all(lo <= e < hi for e in ids)

    def test_unselected_experts_zero_gradient(self):
        layer = make_layer("sparse_topk", n_experts=4, k=1, seed=15)
        X = Tensor(np.random.default_rng(16).normal(size=(2, 6)))
        out, routing, _ = layer.forward(X)
        loss = T.tsum(T.mul(out, out))
        loss.backward()
        selected = set(routing.selected.ravel().tolist())
        for i, e in enumerate(layer.experts):
            if i in selected:
                assert e.W1.grad is not None
            else:
                assert e.W1.grad is None

    def test_selected_gradients_match_finite_differences(self):
        layer = make_layer("sparse_topk", n_experts=3, k=2, seed=17)
        rng = np.random.default_rng(18)
        X_data = rng.normal(size=(3, 6))
        e0 = layer.experts[0]

        def loss_of(w1: Tensor):
            saved = e0.W1
            e0.W1 = w1
            try:
                out, _, _ = layer.forward(Tensor(X_data))
                return mse(out, Tensor(np.zeros_like(out.data)))
            finally:
                e0.W1 = saved

        assert grad_check(loss_of, Tensor(e0.W1.data.copy()), eps=1e-4) < 1e-4

    def test_expert_permutation_invariance(self):
        layer = make_layer("sparse_topk", n_experts=4, k=2, seed=19)
        X = Tensor(np.random.default_rng(20).normal(size=(5, 6)))
        out1, _, _ = layer.forward(X)
        perm = [2, 0, 3, 1]
        layer.experts = [layer.experts[p] for p in perm]
        # permute router columns consistently
        layer.router.weight = Tensor.param(layer.router.weight.data[..., perm])
        out2, _, _ = layer.forward(X)
        assert np.max(np.abs(out1.data - out2.data)) < 1e-12

    def test_hierarchical_g1_reduces_to_sparse(self):
        cfg_h = MoELayerConfig(mode="hierarchical", d=6, h=8, n_groups=1,
                               n_per_group=4, m=1, k_per_group=2)
        layer_h = MoELayer(cfg_h, np.random.default_rng(21))
        cfg_s = MoELayerConfig(mode="sparse_topk", d=6, h=8, n_experts=4, k=2)
        layer_s = MoELayer(cfg_s, np.random.default_rng(22))
        # share parameters
        layer_s.router.weight = layer_h.intra_routers[0].weight
        layer_s.experts = layer_h.experts
        X = Tensor(np.random.default_rng(23).normal(size=(6, 6)))
        out_h, _, _ = layer_h.forward(X)
        out_s, _, _ = layer_s.forward(X)
        assert np.array_equal(out_h.data, out_s.data)

    @pytest.mark.parametrize("mode, kw, other", [
        ("sparse_topk", {"n_experts": 4, "k": 2}, {"n_experts": 6}),
        ("sparse_topk", {"n_experts": 6, "k": 2}, {"n_experts": 4}),
        ("hard", {"n_per_group": 3, "k": 2}, {"n_per_group": 4}),
        ("hierarchical", {"n_groups": 2, "n_per_group": 4}, {"n_groups": 3}),
    ])
    def test_combine_rejects_routing_of_another_expert_count(self, mode, kw, other):
        layer = make_layer(mode, seed=24, **kw)
        router_source = make_layer(mode, seed=25, **{**kw, **other})
        X = Tensor(np.random.default_rng(26).normal(size=(5, 6)))
        routing = router_source.route(X, [MOD_AUDIO] * 5)
        with pytest.raises(RoutingConfigError, match="experts does not match"):
            layer.combine(X, routing)
        assert sum(layer.eval_counts()) == 0

    def test_advance_center_is_a_per_segment_ema_at_momentum_0_99(self):
        """Each segment's row mean moves the center by 1% of the way, one
        segment after the other; each row is routed against the center its
        own segment left."""
        layer = make_layer("hierarchical", seed=27)
        rng = np.random.default_rng(28)
        start, X = rng.normal(size=6), rng.normal(size=(5, 6))
        layer.inter_center = start.copy()
        centers = layer._advance_center(X, np.array([0, 0, 0, 1, 1]))
        first = 0.99 * start + 0.01 * X[:3].mean(axis=0)
        second = 0.99 * first + 0.01 * X[3:].mean(axis=0)
        assert np.allclose(centers, [first] * 3 + [second] * 2, rtol=0, atol=1e-14)
        assert np.allclose(layer.inter_center, second, rtol=0, atol=1e-14)


class TestCombine:
    """``combine`` is one tape node, and it keeps the expert ledger."""

    def make(self):
        return make_layer("hierarchical", seed=29, n_groups=2, n_per_group=4, m=2,
                          k_per_group=2)

    def test_one_tape_node_per_combine(self, monkeypatch):
        layer = self.make()
        made, inside = [], []
        make, combine = T._make, layer.combine

        def counted_make(data, parents, backward):
            if inside:
                made.append(parents)
            return make(data, parents, backward)

        def traced_combine(X, routing):
            inside.append(True)
            try:
                return combine(X, routing)
            finally:
                inside.pop()

        monkeypatch.setattr(T, "_make", counted_make)
        layer.combine = traced_combine
        X = Tensor.param(np.random.default_rng(30).normal(size=(7, 6)))
        out, _, _ = layer.forward(X, modalities=[MOD_AUDIO, MOD_VIDEO, MOD_AV] * 2 + [MOD_AV])
        T.tsum(T.mul(out, out)).backward()
        # the node's parents: X, the combine weights, then each selected
        # expert's four parameters
        assert len(made) == 1
        used = [e for e in layer.experts if e.eval_count]
        assert made[0][0] is X and made[0][2:] == tuple(p for e in used for p in e.params())
        assert X.grad is not None and all(e.W1.grad is not None for e in used)

    @pytest.mark.parametrize("tape", [True, False])
    def test_eval_counts_are_selected_rows_and_match_flops_report(self, tape):
        layer = self.make()
        rng = np.random.default_rng(31)
        for B in (1, 5, 9):
            before = np.array(layer.eval_counts())
            X = Tensor.param(rng.normal(size=(B, 6)))
            if tape:
                _, routing, _ = layer.forward(X)
            else:
                with T.no_grad():
                    _, routing, _ = layer.forward(X)
            added = np.array(layer.eval_counts()) - before
            assert np.array_equal(added, np.bincount(routing.selected.ravel(), minlength=8))
            # every selection is one expert evaluation: 2 groups x 2 experts
            per_expert = 2 * (6 * 8 + 8 * 6)
            router = 2 * 6 * 2 + 2 * 2 * 6 * 4
            assert added.sum() == B * 4
            assert (added.sum() * per_expert + B * router
                    == flops_report(layer.cfg, B)["activated_flops"])


class TestFlops:
    def test_dense_ratio_one(self):
        cfg = MoELayerConfig(mode="dense_ffn", d=32, h=64)
        assert flops_report(cfg, 100)["ratio"] == 1.0

    def test_sparse_8_2_slightly_above_two(self):
        cfg = MoELayerConfig(mode="sparse_topk", d=32, h=64, n_experts=8, k=2)
        r = flops_report(cfg, 1000)["ratio"]
        assert 2.0 < r < 2.3

    def test_activated_vs_total_parameter_flops(self):
        cfg = MoELayerConfig(mode="hierarchical", d=32, h=64, n_groups=2,
                             n_per_group=4, m=2, k_per_group=1)
        rep = flops_report(cfg, 10)
        # total spans 8 experts, activated-per-token expert work spans 2
        assert rep["total_param_flops"] == 8 * rep["dense_ffn_flops"]
        expert_only = rep["activated_flops"] - (2 * 32 * 2 + 2 * 2 * 32 * 4) * 10
        assert expert_only == 2 * rep["dense_ffn_flops"]

    def test_invalid_tokens(self):
        with pytest.raises(ValueError):
            flops_report(MoELayerConfig(), 0)
