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

from avmoe import tensor as T
from avmoe.moe_layer import MoELayer, MoELayerConfig
from avmoe.moe_losses import load_balancing_from_stats, load_biasing_loss, router_z_loss
from avmoe.routing import (
    MOD_AUDIO, MOD_AV, MOD_VIDEO, MODALITIES, Routing, dispatch_stats, select_topk,
    topk_ids,
)
from avmoe.tensor import Tensor
from chains import (
    chain_load_balancing, chain_router_softmaxes, chain_squared_logsumexp, concat_cols,
    concat_rows, scatter_rows, stack,
)

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
        p = _softmax(x @ layer.router.weight.data[0])
        ids = _topk(p, cfg.k)
        return ids, _renorm(p, ids)
    if cfg.mode == "hard":
        n = cfg.n_per_group
        pa, pv = (_softmax(x @ r.weight.data[0]) for r in layer.intra_routers)
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
        p = _softmax(x @ layer.intra_routers[0].weight.data[g])
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


def _random_layer(cfg, seed, router_scale, inter_scale):
    """A layer with the given router scales and random expert biases, plus
    the rng that drew it."""
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
    return layer, rng


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layer_cases())
def test_batched_layer_matches_per_token_oracle(case):
    cfg, B, tags, seed, router_scale, inter_scale = case
    layer, rng = _random_layer(cfg, seed, router_scale, inter_scale)
    X = rng.normal(size=(B, cfg.d))

    out, routing, _ = layer.forward(Tensor(X), modalities=tags)
    assert routing.weights.data.shape == routing.selected.shape

    # forward updates the running center before routing, so the oracle
    # reads the center after the call
    counts = np.zeros(len(layer.experts), dtype=np.int64)
    for t in range(B):
        ids, weights = _route_token(layer, X[t], tags[t])
        assert routing.selected[t].tolist() == ids
        assert np.max(np.abs(routing.weights.data[t] - weights)) <= 1e-12
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
    assert routing.weights.data.shape == (5, 4)
    assert (routing.weights.data == 0.0).any()
    assert sum(layer.eval_counts()) == 5 * 2 * 2


# -- the dense [B x E] combine matrix, as routing built it before it kept
# weights in selection order; the layer must reproduce it bit for bit --------

def _dense_topk(probs, k):
    """select_topk with the weights spread into a matrix of probs' shape."""
    ids, w = select_topk(probs, k)
    B, n = probs.data.shape
    return ids, T.scatter(w, ids + n * np.arange(B)[:, None], (B, n))


def _routers(family, X):
    """(logits, probs) of each router of ``family`` from the router op, on
    its own: its [d x n] weight the ``stack_slice`` of the family's."""
    W = family.weight
    return [T.router_softmaxes(X, T.stack_slice(W, g)) for g in range(W.data.shape[0])]


def _dense_route(layer, X, tags, centers):
    cfg = layer.cfg
    B = X.data.shape[0]
    if cfg.mode == "sparse_topk":
        (logits, probs), = _routers(layer.router, X)
        ids, weights = _dense_topk(probs, cfg.k)
        return Routing(tags, [stack([logits])], [stack([probs])], ids, weights)
    if cfg.mode == "hard":
        (lg_a, p_a), (lg_v, p_v) = (_routers(r, X)[0] for r in layer.intra_routers)
        n_a, k = cfg.n_per_group, cfg.k
        E = 2 * n_a
        plans = {MOD_AUDIO: [(p_a, 0, k, 1.0)], MOD_VIDEO: [(p_v, n_a, k, 1.0)],
                 MOD_AV: [(p_a, 0, k // 2, 0.5), (p_v, n_a, k // 2, 0.5)]}
        selected = np.zeros((B, k), dtype=np.int64)
        weights = None
        for tag, plan in plans.items():
            rows = np.flatnonzero(np.asarray(tags) == tag)
            if rows.size == 0:
                continue
            col = 0
            for probs, offset, kg, share in plan:
                ids, w = select_topk(T.index_rows(probs, rows), kg)
                selected[rows, col:col + kg] = offset + ids
                col += kg
                part = T.scatter(w if share == 1.0 else T.scale(w, share),
                                 rows[:, None] * E + offset + ids, (B, E))
                weights = part if weights is None else T.add(weights, part)
        return Routing(tags, [stack([lg_a]), stack([lg_v])], [stack([p_a]), stack([p_v])],
                       selected, weights)
    G, n = cfg.n_groups, cfg.n_per_group
    _, q = T.router_softmaxes(T.sub(X, Tensor(centers)), layer.inter_router.weight)
    group_ids, q_tilde = select_topk(q, cfg.m)
    q_full = T.scatter(q_tilde, group_ids + G * np.arange(B)[:, None], (B, G))
    logits, probs, flat_ids, inner = [], [], [], []
    for g, (lg, p) in enumerate(_routers(layer.intra_routers[0], X)):
        if cfg.k_per_group == 1:
            ids = topk_ids(p.data, 1)
            w = Tensor(np.eye(n)[ids[:, 0]])
        else:
            ids, w = _dense_topk(p, cfg.k_per_group)
        logits.append(lg)
        probs.append(p)
        flat_ids.append(g * n + ids)
        inner.append(w)
    group_of = np.repeat(np.arange(G), n)
    q_per_expert = T.take(q_full, G * np.arange(B)[:, None] + group_of)
    weights = T.mul(q_per_expert, concat_cols(inner))
    selected = np.stack(flat_ids, axis=1)[np.arange(B)[:, None], group_ids].reshape(B, -1)
    return Routing(tags, [stack(logits)], [stack(probs)], selected, weights, group_probs=q)


def _dense_combine(layer, X, routing):
    B, E = routing.weights.data.shape
    experts = routing.selected.ravel()
    order = np.argsort(experts, kind="stable")
    experts = experts[order]
    rows = np.repeat(np.arange(B), routing.selected.shape[1])[order]
    bounds = np.flatnonzero(np.diff(experts)) + 1
    outputs = [layer.experts[e[0]].forward(T.index_rows(X, r))
               for e, r in zip(np.split(experts, bounds), np.split(rows, bounds))]
    w = T.take(routing.weights, (rows * E + experts)[:, None])
    return scatter_rows(T.mul(concat_rows(outputs), w), rows, B)


def _train_loss(layer, out, routing, R):
    """The layer's share of a supervised loss: a projection of the output,
    load balancing through P, the z-loss and, with two groups, biasing."""
    stats = dispatch_stats(routing)
    loss = T.add(T.tsum(T.mul(out, Tensor(R))), load_balancing_from_stats(stats))
    for lg in routing.logits:
        for i in range(lg.data.shape[0]):
            loss = T.add(loss, router_z_loss(lg, i))
    if layer.cfg.mode == "hierarchical" and layer.cfg.n_groups == 2:
        loss = T.add(loss, load_biasing_loss(stats))
    return loss


def _grads(layer, X, R, tags, centers, route, combine):
    params = [X] + layer.params()
    for p in params:
        p.grad = None
    routing = route(layer, X, tags, centers)
    out = combine(layer, X, routing)
    _train_loss(layer, out, routing, R).backward()
    return out.data, routing.selected, [p.grad for p in params]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layer_cases())
def test_selection_order_weights_match_dense_combine_matrix(case):
    cfg, B, tags, seed, router_scale, inter_scale = case
    layer, rng = _random_layer(cfg, seed, router_scale, inter_scale)
    X = Tensor.param(rng.normal(size=(B, cfg.d)))
    R = rng.normal(size=(B, cfg.d))
    centers = rng.normal(size=(B, cfg.d)) if cfg.mode == "hierarchical" else None

    out, selected, grads = _grads(layer, X, R, tags, centers,
                                  lambda lay, x, t, c: lay.route(x, t, c),
                                  lambda lay, x, r: lay.combine(x, r))
    want_out, want_selected, want_grads = _grads(layer, X, R, tags, centers,
                                                 _dense_route, _dense_combine)
    assert np.array_equal(selected, want_selected)
    assert np.array_equal(out, want_out)
    # q~ sums its k_per_group contributions in selection order rather than
    # expert order, which only 3 or more terms can tell apart
    exact = cfg.mode != "hierarchical" or cfg.k_per_group <= 2
    for g, want in zip(grads, want_grads):
        assert (g is None) == (want is None)
        if want is None:
            continue
        if exact:
            assert np.array_equal(g, want)
        else:
            assert np.max(np.abs(g - want)) <= 1e-15 * np.max(np.abs(want))


# -- topk_ids' k == 1 argmax against the stable argsort; _dense_route calls
# topk_ids itself, so only a direct comparison sees a change in tie order ---

TIE_VALUES = (0.0, 0.25, 0.5, 1.0)


@st.composite
def tie_heavy_probs(draw):
    """[B x n] or [G x B x n] finite values drawn from a small set with 0.0 in
    it, some of the rows all equal."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=3)))
    size = int(np.prod(shape))
    p = np.array(draw(st.lists(st.sampled_from(TIE_VALUES), min_size=size,
                               max_size=size))).reshape(shape)
    rows = p.reshape(-1, shape[-1])  # a view: writes reach p
    for r in draw(st.lists(st.integers(0, len(rows) - 1), max_size=len(rows))):
        rows[r] = rows[r, 0]
    return p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tie_heavy_probs())
def test_top1_ids_equal_the_stable_argsort(p):
    want = np.argsort(-p, axis=-1, kind="stable")[..., :1]
    got = topk_ids(p, 1)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


# -- a router family's one logits node and one probabilities node against
# each router's own matmul and softmax nodes ----------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), B=st.integers(1, 79), d=st.sampled_from([8, 16, 32]),
       n=st.sampled_from([2, 3, 4, 8]), G=st.integers(1, 3))
def test_router_family_equals_the_per_router_chain(seed, B, d, n, G):
    """A route's shape: X feeds a residual product, the inter router (one
    [d x G] router, drawn non-zero) and a family of G intra routers, so it
    takes G + 2 gradient terms, at least three, and an ordering error does
    not add zeros. The family is read as a supervised step reads it: each
    router's z-loss and the balancing of all. Its one logits node and one
    probabilities node must give the values, X's gradient and each router
    weight's gradient of the routers' own matmul and softmax nodes
    (``chains.chain_router_softmaxes``), bit for bit and stride for stride;
    the family weight is the chains' ``stack`` of the routers' weights."""
    rng = np.random.default_rng(seed)
    X0, C = rng.normal(size=(B, d)), rng.normal(size=(B, d))
    W_inter, Ws = rng.normal(size=(d, G)), [rng.normal(size=(d, n)) for _ in range(G)]
    Q, f = rng.normal(size=(B, G)), rng.random((G, n))

    def run(family):
        X, inter = Tensor.param(X0), Tensor.param(W_inter)
        W = [Tensor.param(w) for w in Ws]
        _, q = T.router_softmaxes(X, inter)
        loss = T.add(T.tsum(T.mul(X, Tensor(C))), T.tsum(T.mul(q, Tensor(Q))))
        if family:
            logits, probs = T.router_softmaxes(X, stack(W))
            terms = [router_z_loss(logits, g) for g in range(G)]
            terms.append(T.load_balancing([probs], f))
            values = [logits.data, probs.data]
        else:
            logits, probs = chain_router_softmaxes(X, W)
            terms = [chain_squared_logsumexp(lg) for lg in logits]
            terms.append(chain_load_balancing(probs, f))
            values = [np.stack([t.data for t in logits]), np.stack([t.data for t in probs])]
        for term in terms:
            loss = T.add(loss, term)
        loss.backward()
        return values + [q.data, loss.data, X.grad, inter.grad] + [w.grad for w in W]

    for got, want in zip(run(True), run(False), strict=True):
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
