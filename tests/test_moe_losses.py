import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe.model import sequence_mean_weights
from avmoe.moe_losses import (
    DEFAULT_C_B, DEFAULT_C_S, DEFAULT_C_Z, UnsupportedConfigError, load_balancing_loss,
    load_biasing_loss,
    router_z_loss, total_aux_loss,
)
from avmoe.routing import (
    AUDIO_GROUP, MOD_AUDIO, MOD_AV, MOD_VIDEO, MODALITIES, VIDEO_GROUP, DispatchStats,
    RouterParams, dispatch_stats, route_hard, route_hierarchical, route_sparse,
)
from avmoe.tensor import Tensor, grad_check
from avmoe.trainer import TrainConfig, _supervised_step, build_model
from test_fused_ops import chain_mean_probs, chain_router_loss_total, chain_squared_logsumexp


def stats_with(g, Q, counts, n_groups=2):
    """Stats whose subset means are ``Q``: one row of group probabilities per
    subset."""
    tags = list(Q)
    return DispatchStats(expert_f=[], g=g, counts=counts, n_groups=n_groups,
                         group_probs=Tensor(np.array([Q[t] for t in tags])) if tags else None,
                         subsets={t: np.array([i]) for i, t in enumerate(tags)})


class TestLoadBalancing:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_uniform_equals_one(self, n):
        f = np.full(n, 1 / n)
        P = Tensor(np.full(n, 1 / n))
        assert float(load_balancing_loss(f, P).data) == pytest.approx(1.0, abs=1e-9)

    def test_collapsed_equals_n(self):
        f = np.array([1.0, 0, 0, 0])
        P = Tensor(np.array([1.0, 0, 0, 0]))
        assert float(load_balancing_loss(f, P).data) == pytest.approx(4.0)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(size=8)
        f /= f.sum()
        P = rng.uniform(size=8)
        P /= P.sum()
        got = float(load_balancing_loss(f, Tensor(P)).data)
        want = 8 * sum(f[i] * P[i] for i in range(8))
        assert abs(got - want) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(T.ShapeError):
            load_balancing_loss(np.ones(3) / 3, Tensor(np.ones(4) / 4))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.uniform(size=6)
            f /= f.sum()
            P = rng.uniform(size=6)
            P /= P.sum()
            assert float(load_balancing_loss(f, Tensor(P)).data) >= 0.0

    def test_gradient_flows_through_P_only(self):
        f = np.array([0.5, 0.3, 0.2])
        x = Tensor(np.array([0.2, 0.3, 0.5]))
        err = grad_check(lambda t: load_balancing_loss(f, t), x, eps=1e-4)
        assert err < 1e-7


class TestRouterZLoss:
    def test_zero_logits_closed_form(self):
        got = float(router_z_loss(Tensor(np.zeros((1, 8)))).data)
        assert got == pytest.approx(math.log(8) ** 2, abs=1e-9)

    def test_single_expert(self):
        got = float(router_z_loss(Tensor(np.array([[3.5]]))).data)
        assert got == pytest.approx(3.5 ** 2, abs=1e-12)

    def test_two_tokens_extended_precision_oracle(self):
        rows = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.25]])
        got = float(router_z_loss(Tensor(rows)).data)
        import mpmath
        mpmath.mp.dps = 50
        acc = mpmath.mpf(0)
        for row in rows:
            lse = mpmath.log(sum(mpmath.e ** mpmath.mpf(v) for v in row))
            acc += lse ** 2
        assert abs(got - float(acc / 2)) < 1e-10

    def test_uniform_logits_shift_identity(self):
        for n in (2, 4, 8, 16):
            for c in (-3.0, 0.7, 100.0):
                got = float(router_z_loss(Tensor(np.full((1, n), c))).data)
                assert got == pytest.approx((c + math.log(n)) ** 2, abs=1e-10)

    def test_stable_for_large_logits(self):
        got = float(router_z_loss(Tensor(np.array([[700.0, 699.0]]))).data)
        assert np.isfinite(got)

    @pytest.mark.parametrize("shape", [(8,), (), (2, 1, 8)])
    def test_needs_a_logit_matrix(self, shape):
        with pytest.raises(T.ShapeError, match="logit matrix"):
            router_z_loss(Tensor(np.zeros(shape)))


class TestLoadBiasing:
    def test_perfect_specialization_zero(self):
        stats = stats_with(
            g={MOD_AUDIO: np.array([1.0, 0.0]), MOD_VIDEO: np.array([0.0, 1.0])},
            Q={MOD_AUDIO: np.array([1.0, 0.0]), MOD_VIDEO: np.array([0.0, 1.0])},
            counts={MOD_AUDIO: 3, MOD_VIDEO: 3, MOD_AV: 0})
        assert float(load_biasing_loss(stats).data) == pytest.approx(0.0, abs=1e-12)

    def test_indifferent_router(self):
        stats = stats_with(
            g={MOD_AUDIO: np.array([0.5, 0.5]), MOD_VIDEO: np.array([0.5, 0.5])},
            Q={MOD_AUDIO: np.array([0.5, 0.5]), MOD_VIDEO: np.array([0.5, 0.5])},
            counts={MOD_AUDIO: 2, MOD_VIDEO: 2, MOD_AV: 0})
        assert float(load_biasing_loss(stats).data) == pytest.approx(1.5, abs=1e-12)

    def test_av_only_batch_contributes_zero(self):
        stats = stats_with(g={MOD_AV: np.array([0.5, 0.5])},
                           Q={MOD_AV: np.array([0.5, 0.5])},
                           counts={MOD_AUDIO: 0, MOD_VIDEO: 0, MOD_AV: 4})
        assert float(load_biasing_loss(stats).data) == 0.0

    def test_more_than_two_groups_rejected(self):
        stats = stats_with(g={}, Q={}, counts={MOD_AUDIO: 0, MOD_VIDEO: 0, MOD_AV: 1},
                           n_groups=3)
        with pytest.raises(UnsupportedConfigError):
            load_biasing_loss(stats)

    @pytest.mark.parametrize("mode", ["hard", "sparse_topk"])
    def test_stats_without_group_routing_rejected(self, mode):
        rng = np.random.default_rng(5)
        routers = [RouterParams(Tensor.param(rng.normal(size=(4, 2)))) for _ in range(2)]
        X = Tensor(rng.normal(size=(4, 4)))
        tags = [MOD_AUDIO, MOD_AUDIO, MOD_VIDEO, MOD_AV]
        routing = (route_hard(tags, tuple(routers), X, k=2) if mode == "hard"
                   else route_sparse(routers[0], X, k=1, modalities=tags))
        with pytest.raises(UnsupportedConfigError):
            load_biasing_loss(dispatch_stats(routing))

    def test_range_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            qa = rng.uniform(size=2)
            qa /= qa.sum()
            qv = rng.uniform(size=2)
            qv /= qv.sum()
            ga = np.zeros(2)
            ga[rng.integers(0, 2)] = 1.0
            gv = np.zeros(2)
            gv[rng.integers(0, 2)] = 1.0
            stats = stats_with(g={MOD_AUDIO: ga, MOD_VIDEO: gv},
                               Q={MOD_AUDIO: qa, MOD_VIDEO: qv},
                               counts={MOD_AUDIO: 1, MOD_VIDEO: 1, MOD_AV: 0})
            val = float(load_biasing_loss(stats).data)
            assert 0.0 <= val <= 2.0

    def test_gradient_through_Q_via_router(self):
        # loss path: inter-router params -> q -> Q -> L_S, checked numerically
        rng = np.random.default_rng(3)
        intras = [RouterParams(Tensor.param(rng.normal(size=(4, 3)))) for _ in range(2)]
        X = Tensor(rng.normal(size=(4, 4)))
        tags = [MOD_AUDIO, MOD_AUDIO, MOD_VIDEO, MOD_VIDEO]

        def loss_of(weight: Tensor):
            inter = RouterParams(weight)
            routing = route_hierarchical(inter, intras, X, m=2, modalities=tags)
            return load_biasing_loss(dispatch_stats(routing))

        W = Tensor(rng.normal(size=(4, 2)))
        assert grad_check(loss_of, W, eps=1e-4) < 1e-4


class TestTotalAuxLoss:
    def test_reference_coefficients(self):
        bundle = total_aux_loss(2.0, 1.0, 1.5, 4.0)
        assert float(bundle.total.data) == pytest.approx(2.029, abs=1e-12)
        assert DEFAULT_C_B == 1e-2 and DEFAULT_C_S == 1e-2 and DEFAULT_C_Z == 1e-3

    def test_zero_coefficients(self):
        bundle = total_aux_loss(3.0, 1.0, 1.0, 0.0, c_balance=0, c_bias=0)
        assert float(bundle.total.data) == 3.0

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ce, b, s, z = rng.uniform(size=4)
            cb, cs = rng.uniform(size=2)
            bundle = total_aux_loss(ce, b, s, z, c_balance=cb, c_bias=cs)
            assert abs(float(bundle.total.data)
                       - (ce + cb * b + cs * s + DEFAULT_C_Z * z)) < 1e-15

    def test_bundle_invariant(self):
        bundle = total_aux_loss(1.0, 2.0, 3.0, 4.0)
        recomputed = (float(bundle.ce.data) + DEFAULT_C_B * float(bundle.balance.data)
                      + DEFAULT_C_S * float(bundle.bias.data)
                      + DEFAULT_C_Z * float(bundle.z.data))
        assert abs(float(bundle.total.data) - recomputed) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(T.NumericError):
            total_aux_loss(float("nan"), 0.0, 0.0, 0.0)


# -- the supervised step against the chains it fused ---------------------------

def chain_supervised_step(model, cfg, batch):
    """The supervised step as it ran before its loss terms were fused: P and
    Q as ``mean_axis0``/``index_rows`` nodes over the stats' probability
    tensors (``chain_mean_probs``), each loss term a chain of primitive ops,
    and the means and the weighted total add and scale chains."""
    audios, videos, labels, tags = (list(col) for col in zip(*batch))
    feats, _ = model.encode(audios, videos)
    _, ce, aux = model.decode_train(feats, labels, modality=tags,
                                    feature_lengths=[a.shape[0] for a in audios])
    stats = [layer_aux["stats"] for layer_aux in aux if layer_aux["stats"] is not None]
    balance = []
    for s in stats:
        total = None
        for f, P in zip(s.expert_f, chain_mean_probs(s)[0]):
            term = load_balancing_loss(f, P)
            total = term if total is None else T.add(total, term)
        balance.append(total)
    bias = []
    if stats and stats[0].n_groups == 2 and stats[0].g:
        for s in stats:
            Q = chain_mean_probs(s)[1]
            total = Tensor(0.0)
            for tag, group in ((MOD_AUDIO, AUDIO_GROUP), (MOD_VIDEO, VIDEO_GROUP)):
                if s.counts.get(tag, 0) > 0:
                    q = T.take(Q[tag], [group])
                    total = T.add(total, T.sub(Tensor(1.0),
                                               T.scale(T.tsum(q), float(s.g[tag][group]))))
            bias.append(total)
    row_weights = sequence_mean_weights([len(seq) + 1 for seq in labels])
    z = [chain_squared_logsumexp(rows, row_weights)
         for layer_aux in aux for rows in layer_aux["logit_rows"]]
    total, means = chain_router_loss_total(ce, balance, bias, z, cfg.c_balance, cfg.c_bias,
                                           DEFAULT_C_Z)
    scalars = {"L_CE": float(ce.data), "L_B": float(means[0]), "L_S": float(means[1]),
               "L_Z": float(means[2]), "total": float(total.data)}
    return scalars, total


STEP_MOE = {
    "dense_ffn": {},
    "sparse_topk": {"n_experts": 4, "k": 2},
    "hard": {"n_groups": 2, "n_per_group": 3, "k": 2},
    "hierarchical": {"n_groups": 2, "n_per_group": 3},
    "hierarchical_three_groups": {"mode": "hierarchical", "n_groups": 3, "n_per_group": 2},
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(moe=st.sampled_from(sorted(STEP_MOE)), m=st.integers(1, 2),
       k_per_group=st.integers(1, 2), n_dec=st.integers(1, 3),
       lengths=st.lists(st.integers(1, 5), min_size=1, max_size=6),
       tags=st.lists(st.sampled_from(MODALITIES), min_size=6, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_supervised_step_is_bitwise_the_chain_step(moe, m, k_per_group, n_dec, lengths,
                                                   tags, seed):
    """Each loss term one node: the same scalars, total and parameter
    gradients, bit for bit and stride for stride, as the chains of primitive
    ops, whose backward walk adds three or more gradients into the MoE
    inputs and the group probabilities."""
    fields = dict(STEP_MOE[moe])
    mode = fields.pop("mode", moe)
    if mode == "hierarchical":
        fields |= {"m": min(m, fields["n_groups"]), "k_per_group": k_per_group}
    cfg = TrainConfig.from_dict({
        "regime": "supervised_moe", "steps": 1, "batch_size": 1, "seed": seed % 97,
        "model": {"dim_audio": 6, "dim_video": 6, "d": 8, "h": 8, "n_enc": 1,
                  "n_dec": n_dec, "vocab": 6, "topk_blocks": 1,
                  "moe": {"mode": mode, "d": 8, "h": 8, **fields}},
        "generator": {"vocab": 6, "dim_audio": 6, "dim_video": 6}})
    rng = np.random.default_rng(seed)
    batch = [(rng.normal(size=(2 * n, 6)), rng.normal(size=(2 * n, 6)),
              rng.integers(0, 6, size=n), tag) for n, tag in zip(lengths, tags)]
    center = rng.normal(size=8)
    # trained inter routers: at init they are zero, and so is the gradient
    # they pass on to the MoE input, whatever the order it is added in
    inter = rng.normal(size=(n_dec, 8, fields.get("n_groups", 1)))
    runs = []
    for step in (_supervised_step, chain_supervised_step):
        model = build_model(cfg)
        for blk, w in zip(model.decoder_blocks, inter):
            blk.moe.inter_center = center.copy()
            if blk.moe.inter_router is not None:
                blk.moe.inter_router.weight.data[:] = w
        scalars, total = step(model, cfg, batch)[:2]
        total.backward()
        runs.append((scalars, total.data.tobytes(), model.named_params()))
    (got, got_total, got_params), (want, want_total, want_params) = runs
    assert got == want and got_total == want_total
    for name, p in got_params.items():
        g, w = p.grad, want_params[name].grad
        assert (g is None) == (w is None), name
        if g is not None:
            assert g.tobytes() == w.tobytes() and g.strides == w.strides, name
