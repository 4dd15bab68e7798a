"""Property test: the batched MoE layer against a plain-numpy per-token oracle.

For random layer shapes, router scales and modality tags, every row of a
batched forward must match routing each token on its own: stable top-k of the
softmax (lowest index wins ties), weights renormalized over the selection,
each selected expert evaluated on the token. Router scales of 0 force exact
ties; 1e4 saturates the softmax so that some selected weights underflow to 0,
and those experts must still run.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from avmoe.moe_layer import MoELayer, MoELayerConfig
from avmoe.routing import MOD_AUDIO, MOD_AV, MOD_VIDEO, MODALITIES
from avmoe.tensor import Tensor

SCALES = (0.0, 1.0, 1e4)


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _topk(p, k):
    return [int(i) for i in np.argsort(-p, kind="stable")[:k]]


def _renorm(p, ids):
    return [p[i] / p[ids].sum() for i in ids]


def _expert(e, x):
    z = x @ e.W1.data + e.b1.data
    h = 0.5 * z * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (z + 0.044715 * z ** 3)))
    return h @ e.W2.data + e.b2.data


def _route_token(layer, x, tag):
    """(flat expert ids in selection order, their combine weights)."""
    cfg = layer.cfg
    if cfg.mode == "sparse_topk":
        p = _softmax(x @ layer.router.weight.data)
        ids = _topk(p, cfg.k)
        return ids, _renorm(p, ids)
    if cfg.mode == "hard":
        n = cfg.n_per_group
        pa, pv = (_softmax(x @ r.weight.data) for r in layer.intra_routers)
        plan = {MOD_AUDIO: [(pa, 0, cfg.k, 1.0)], MOD_VIDEO: [(pv, n, cfg.k, 1.0)],
                MOD_AV: [(pa, 0, cfg.k // 2, 0.5), (pv, n, cfg.k // 2, 0.5)]}[tag]
        ids, weights = [], []
        for p, offset, k, share in plan:
            local = _topk(p, k)
            ids += [offset + i for i in local]
            weights += [share * w for w in _renorm(p, local)]
        return ids, weights
    q = _softmax((x - layer.inter_center) @ layer.inter_router.weight.data)
    groups = _topk(q, cfg.m)
    ids, weights = [], []
    for q_g, g in zip(_renorm(q, groups), groups):
        p = _softmax(x @ layer.intra_routers[g].weight.data)
        local = _topk(p, cfg.k_per_group)
        inner = [1.0] if cfg.k_per_group == 1 else _renorm(p, local)
        ids += [g * cfg.n_per_group + i for i in local]
        weights += [q_g * w for w in inner]
    return ids, weights


@st.composite
def layer_cases(draw):
    mode = draw(st.sampled_from(["sparse_topk", "hard", "hierarchical"]))
    B = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    G = 2 if mode == "hard" else draw(st.integers(1, 4))
    k = draw(st.integers(1, n if mode == "hard" else G * n))
    m = draw(st.integers(1, G))
    k_per_group = draw(st.integers(1, n))
    tags_from = MODALITIES if mode != "hard" or k % 2 == 0 else (MOD_AUDIO, MOD_VIDEO)
    tags = draw(st.lists(st.sampled_from(tags_from), min_size=B, max_size=B))
    cfg = MoELayerConfig(mode=mode, d=d, h=3, n_experts=G * n, k=k, n_groups=G,
                         n_per_group=n, m=m, k_per_group=k_per_group)
    return (cfg, B, tags, draw(st.integers(0, 2 ** 31 - 1)),
            draw(st.sampled_from(SCALES)), draw(st.sampled_from(SCALES)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layer_cases())
def test_batched_layer_matches_per_token_oracle(case):
    cfg, B, tags, seed, router_scale, inter_scale = case
    rng = np.random.default_rng(seed)
    layer = MoELayer(cfg, rng)
    for r in [layer.router] + layer.intra_routers:
        if r is not None:
            r.weight.data[:] = router_scale * rng.normal(size=r.weight.data.shape)
    if layer.inter_router is not None:
        w = layer.inter_router.weight.data
        w[:] = inter_scale * rng.normal(size=w.shape)
        layer.inter_center = rng.normal(size=cfg.d)
    for e in layer.experts:
        e.b1.data[:] = rng.normal(size=e.b1.data.shape)
        e.b2.data[:] = rng.normal(size=e.b2.data.shape)
    X = rng.normal(size=(B, cfg.d))

    out, routing, _ = layer.forward(Tensor(X), modalities=tags)

    # forward updates the running center before routing, so the oracle
    # reads the center after the call
    counts = np.zeros(len(layer.experts), dtype=np.int64)
    for t in range(B):
        ids, weights = _route_token(layer, X[t], tags[t])
        assert routing.selected[t].tolist() == ids
        want_w = np.zeros(len(layer.experts))
        want_w[ids] = weights
        assert np.max(np.abs(routing.weights.data[t] - want_w)) <= 1e-12
        want = sum(w * _expert(layer.experts[e], X[t]) for e, w in zip(ids, weights))
        assert np.max(np.abs(out.data[t] - want)) <= 1e-12
        counts[ids] += 1
    assert layer.eval_counts() == counts.tolist()
    per_token = cfg.m * cfg.k_per_group if cfg.mode == "hierarchical" else cfg.k
    assert sum(layer.eval_counts()) == B * per_token


def test_underflowed_group_weight_still_evaluates():
    cfg = MoELayerConfig(mode="hierarchical", d=4, h=3, n_groups=3, n_per_group=2,
                         m=2, k_per_group=2)
    rng = np.random.default_rng(0)
    layer = MoELayer(cfg, rng)
    layer.inter_router.weight.data[:] = 1e4 * rng.normal(size=(4, 3))
    _, routing, _ = layer.forward(Tensor(rng.normal(size=(5, 4))))
    picked = np.take_along_axis(routing.weights.data, routing.selected, axis=1)
    assert (picked == 0.0).any()
    assert sum(layer.eval_counts()) == 5 * 2 * 2
