"""The fused ops against the chains of primitive ops they stand for.

The encoder's ``input_fusion`` and the sub-blocks ``attention_block`` and
``ffn_block``, ``ffn``, ``standardize_rows`` with a residual,
``moe_combine``, the router-loss ops ``load_balancing``, ``load_biasing``
and ``squared_logsumexp``, and the losses ``cross_entropy_rows``,
``head_mse`` and ``loss_total`` (checked in both training steps' forms)
are one tape node each, with a hand-written backward that runs the chain's numpy
arithmetic in the chain's order; ``router_softmaxes``
runs several routers' forward in one stacked pass and builds the chain's own
nodes. Their outputs and every operand gradient must therefore equal the
chain's bit for bit, with constant operands getting no gradient in either.
Each gradient must also have the chain's memory order (its strides): the ops
that consume a gradient further down a training step can round differently
on another layout, though no value here differs.
"""

import contextlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avmoe import tensor as T
from avmoe.model import AttentionBlock, Encoder, FFNBlock, Model, ModelConfig
from avmoe.moe_layer import MoELayer, MoELayerConfig
from avmoe.moe_losses import DEFAULT_C_Z, total_aux_loss
from avmoe.routing import MODALITIES, RouterParams, route_dense
from avmoe.tensor import Tensor


def chain_ffn(x, W1, b1, W2, b2):
    hidden = T.gelu(T.add(T.matmul(x, W1), b1))
    return T.add(T.matmul(hidden, W2), b2)


def transpose(a):
    """The chain's transpose node, of the last two axes: its backward passes
    the transposed view of ``g`` on, whose memory order ``attention``'s K
    gradient keeps."""
    if not T._track(a):
        return Tensor(a.data.swapaxes(-1, -2))
    return T._make(a.data.swapaxes(-1, -2), (a,), lambda g: a._accum(g.swapaxes(-1, -2)))


def stack_matmul(a, b):
    """The chain's product of two [n x ...] stacks, slice by slice; ``T.matmul``
    takes a stack only on the left of a matrix."""
    if not T._track(a, b):
        return Tensor(a.data @ b.data)

    def backward(g):
        if T._needs_grad(a):
            a._accum(g @ b.data.swapaxes(-1, -2))
        if T._needs_grad(b):
            b._accum(a.data.swapaxes(-1, -2) @ g)

    return T._make(a.data @ b.data, (a, b), backward)


def concat_rows(parts):
    """The chain's concatenation of 2-D tensors along axis 0."""
    data = np.concatenate([p.data for p in parts], axis=0)
    if not T._track(*parts):
        return Tensor(data)
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, n in zip(parts, sizes):
            if T._needs_grad(p):
                p._accum(g[off:off + n])
            off += n

    return T._make(data, tuple(parts), backward)


def scatter_rows(rows, idx, n_rows):
    """The chain's scatter-add of ``rows`` into an all-zero [n_rows x d]
    tensor at positions ``idx``, the adjoint of ``T.index_rows``."""
    data = np.zeros((n_rows, rows.data.shape[1]))
    np.add.at(data, idx, rows.data)
    if not T._track(rows):
        return Tensor(data)
    return T._make(data, (rows,), lambda g: rows._accum(g[idx]))


def chain_attention(Q, K, V, mask):
    """softmax(Q K^T / sqrt(d) + mask) V, the attention of 2-D operands or
    of [n x T x d] stacks, slice by slice."""
    matmul = T.matmul if Q.data.ndim == 2 else stack_matmul
    scores = T.scale(matmul(Q, transpose(K)), 1.0 / math.sqrt(Q.data.shape[-1]))
    if mask is not None:
        scores = T.add(scores, Tensor(mask))
    return matmul(T.softmax(scores), V)


def chain_standardize(a, residual):
    return T.standardize_rows(T.add(a, residual))


# -- the encoder's input stage and the sub-blocks, as the model ran them
# before each was one node

def chain_attention_block(X, Wq, Wk, Wv, Wo, mask=None, kv=None):
    """The products by Wq, Wk and Wv (or the given keys and values), the
    attention, the product by Wo and the residual standardization."""
    q = T.matmul(X, Wq)
    K, V = (T.matmul(X, Wk), T.matmul(X, Wv)) if kv is None else kv
    return T.standardize_rows(X, T.matmul(chain_attention(q, K, V, mask), Wo))


def chain_ffn_block(X, W1, b1, W2, b2):
    return T.standardize_rows(X, T.ffn(X, W1, b1, W2, b2))


def chain_input_fusion(A, V, Wa, Wv, Wf):
    return T.matmul(T.concat_cols([T.matmul(A, Wa), T.matmul(V, Wv)]), Wf)


def chain_encode(model, audio, video, mask=None, stacks=None):
    """``Encoder._encode_frames`` as the chains above: (features, per-block
    outputs) of [T x D] frames, or of an [n x T x D] stack."""
    assert stacks is None, "the chains have no stack list form"
    X = chain_input_fusion(Tensor(audio), Tensor(video), model.audio_proj, model.video_proj,
                           model.fusion)
    per_block = []
    for blk in model.encoder_blocks:
        X = chain_attention_block(X, *blk.attn.params(), mask=mask)
        X = chain_ffn_block(X, *blk.ffn.params())
        per_block.append(X)
    return X, per_block


def chain_attention_forward(block, X, memory=None, mask=None, kv=None, stacks=None):
    """``AttentionBlock.forward`` as ``chain_attention_block``."""
    assert stacks is None, "the chains have no stack list form"
    if kv is None and memory is not None:
        kv = block.keys_values(memory)
    return chain_attention_block(X, *block.params(), mask=mask, kv=kv)


@contextlib.contextmanager
def chain_model():
    """Every ``Encoder`` and ``Model`` runs its input stage and sub-blocks as
    the chains above inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Encoder, "_encode_frames", chain_encode)
        mp.setattr(AttentionBlock, "forward", chain_attention_forward)
        mp.setattr(FFNBlock, "forward", lambda block, X: chain_ffn_block(X, *block.params()))
        yield


def chain_moe_combine(X, weights, selected, experts):
    """Each expert's FFN on its gathered rows, experts in ascending order,
    weighted and scattered back."""
    B, k = selected.shape
    order = np.argsort(selected.ravel(), kind="stable")
    ids = selected.ravel()[order]
    rows = order // k
    bounds = np.flatnonzero(np.diff(ids)) + 1
    outputs = [T.ffn(T.index_rows(X, r), *experts[e[0]])
               for e, r in zip(np.split(ids, bounds), np.split(rows, bounds))]
    w = T.take(weights, order[:, None])
    return scatter_rows(T.mul(concat_rows(outputs), w), rows, B)


def run(op, arrays, trainable, weight):
    """Output and operand gradients of ``op`` on fresh tensors, backpropagated
    from the sum of the output weighted by ``weight``."""
    operands = [Tensor(a.copy(), requires_grad=g) for a, g in zip(arrays, trainable)]
    out = op(*operands)
    if any(trainable):
        T.tsum(T.mul(out, Tensor(weight))).backward()
    return out.data, [t.grad for t in operands]


def assert_bitwise_equal(fused, chain):
    """Equal bytes, so the sign of a zero counts too, and equal strides."""
    (out_f, grads_f), (out_c, grads_c) = fused, chain
    assert out_f.shape == out_c.shape and out_f.tobytes() == out_c.tobytes()
    for g_f, g_c in zip(grads_f, grads_c):
        assert (g_f is None) == (g_c is None)
        if g_f is not None:
            assert g_f.shape == g_c.shape and g_f.tobytes() == g_c.tobytes()
            assert g_f.strides == g_c.strides, (g_f.strides, g_c.strides)


def normal(rng, *shape):
    return rng.normal(size=shape)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 5), d=st.integers(1, 5),
       h=st.integers(1, 6), n=st.integers(0, 3),
       trainable=st.lists(st.booleans(), min_size=5, max_size=5))
def test_ffn_equals_its_chain(seed, rows, d, h, n, trainable):
    """[rows x d] inputs (n 0) and [n x rows x d] stacks."""
    rng = np.random.default_rng(seed)
    x = normal(rng, *((n,) if n else ()), rows, d)
    arrays = [x, normal(rng, d, h), normal(rng, h), normal(rng, h, d), normal(rng, d)]
    weight = normal(rng, *x.shape)
    fused = run(T.ffn, arrays, trainable, weight)
    chain = run(chain_ffn, arrays, trainable, weight)
    assert_bitwise_equal(fused, chain)


def with_earlier(block, C):
    """``block`` whose first operand X also feeds X * C, added to the block's
    output: X then takes that gradient too, in the walk's order; ``block``
    itself when C is None."""
    if C is None:
        return block
    return lambda X, *rest: T.add(T.mul(X, Tensor(C)), block(X, *rest))


@settings(max_examples=240, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 3), tq=st.integers(1, 5),
       tk=st.integers(1, 6), d=st.integers(1, 5), given_kv=st.booleans(),
       mask_kind=st.sampled_from(["none", "causal", "random"]), earlier=st.booleans(),
       trainable=st.lists(st.booleans(), min_size=5, max_size=5))
def test_attention_equals_its_chain(seed, n, tq, tk, d, given_kv, mask_kind, earlier,
                                    trainable):
    """The attention sub-block of 2-D rows (n 0) and of [n x T x d] stacks,
    its keys and values computed from X, or given as operands (constants
    among them, as in decoding from a cache); -inf masks included. X takes
    four terms from the block, and ``earlier`` gives it a fifth consumer."""
    rng = np.random.default_rng(seed)
    stack = (n,) if n else ()
    tk = tk if given_kv else tq
    mask = None
    if mask_kind != "none":
        allowed = (np.tri(tq, tk, dtype=bool) if mask_kind == "causal"
                   else rng.random((tq, tk)) < 0.5)
        allowed[:, 0] = True  # every query row keeps a key
        mask = np.where(allowed, 0.0, -np.inf)
    arrays = [normal(rng, *stack, tq, d)]
    if given_kv:
        arrays += [normal(rng, *stack, tk, d), normal(rng, *stack, tk, d)]
        arrays += [normal(rng, d, d), normal(rng, d, d)]

        def op(block):
            return lambda X, K, V, Wq, Wo: block(X, Wq, None, None, Wo, mask=mask, kv=(K, V))
    else:
        arrays += [normal(rng, d, d) for _ in range(4)]

        def op(block):
            return lambda *ops: block(*ops, mask=mask)
    weight = normal(rng, *stack, tq, d)
    C = normal(rng, *stack, tq, d) if earlier else None
    fused = run(with_earlier(op(T.attention_block), C), arrays, trainable, weight)
    chain = run(with_earlier(op(chain_attention_block), C), arrays, trainable, weight)
    assert_bitwise_equal(fused, chain)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 5), d=st.integers(1, 5),
       h=st.integers(1, 6), n=st.integers(0, 3), earlier=st.booleans(),
       trainable=st.lists(st.booleans(), min_size=5, max_size=5))
def test_ffn_block_equals_its_chain(seed, rows, d, h, n, earlier, trainable):
    """The FFN sub-block of [rows x d] inputs (n 0) and [n x rows x d]
    stacks; ``earlier`` gives X a third consumer."""
    rng = np.random.default_rng(seed)
    x = normal(rng, *((n,) if n else ()), rows, d)
    arrays = [x, normal(rng, d, h), normal(rng, h), normal(rng, h, d), normal(rng, d)]
    weight = normal(rng, *x.shape)
    C = normal(rng, *x.shape) if earlier else None
    fused = run(with_earlier(T.ffn_block, C), arrays, trainable, weight)
    chain = run(with_earlier(chain_ffn_block, C), arrays, trainable, weight)
    assert_bitwise_equal(fused, chain)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 5), n=st.integers(0, 3),
       widths=st.lists(st.integers(1, 5), min_size=5, max_size=5),
       trainable=st.lists(st.booleans(), min_size=5, max_size=5))
def test_input_fusion_equals_its_chain(seed, rows, n, widths, trainable):
    """Audio and video frames of their own widths through projectors of
    their own widths and the fusion, as [rows x D] frames (n 0) and
    [n x rows x D] stacks; frames that take a gradient included."""
    rng = np.random.default_rng(seed)
    da, dv, wa, wv, d = widths
    stack = (n,) if n else ()
    arrays = [normal(rng, *stack, rows, da), normal(rng, *stack, rows, dv), normal(rng, da, wa),
              normal(rng, dv, wv), normal(rng, wa + wv, d)]
    weight = normal(rng, *stack, rows, d)
    fused = run(T.input_fusion, arrays, trainable, weight)
    chain = run(chain_input_fusion, arrays, trainable, weight)
    assert_bitwise_equal(fused, chain)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 5), d=st.integers(1, 6),
       trainable=st.lists(st.booleans(), min_size=2, max_size=2))
def test_standardize_with_residual_equals_its_chain(seed, rows, d, trainable):
    rng = np.random.default_rng(seed)
    arrays = [normal(rng, rows, d), normal(rng, rows, d)]
    weight = normal(rng, rows, d)
    fused = run(T.standardize_rows, arrays, trainable, weight)
    chain = run(chain_standardize, arrays, trainable, weight)
    assert_bitwise_equal(fused, chain)


# routed layers of every mode: (mode, MoELayerConfig fields)
MOE_LAYERS = [
    ("sparse_topk", {"n_experts": 4, "k": 2}),
    ("sparse_topk", {"n_experts": 3, "k": 1}),
    ("hard", {"n_groups": 2, "n_per_group": 3, "k": 2}),
    ("hierarchical", {"n_groups": 2, "n_per_group": 3, "m": 2, "k_per_group": 1}),
    ("hierarchical", {"n_groups": 3, "n_per_group": 3, "m": 2, "k_per_group": 2}),
    ("hierarchical", {"n_groups": 2, "n_per_group": 2, "m": 1, "k_per_group": 2}),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), layer=st.sampled_from(MOE_LAYERS),
       B=st.integers(1, 7), d=st.integers(1, 4), h=st.integers(1, 5),
       tape=st.booleans(), zeros=st.booleans(), earlier=st.booleans(),
       trainable=st.lists(st.booleans(), min_size=2, max_size=2))
def test_moe_combine_equals_its_chain(seed, layer, B, d, h, tape, zeros, earlier,
                                      trainable):
    """A routed layer's own selection and weights, with or without a tape.

    ``zeros`` puts 0.0 and -0.0 among the combine weights and the upstream
    gradient, and ``earlier`` gives X a gradient (with signed zeros) before
    the combine's arrives, so that the zero-filled buffers of the chain's
    scatter-adds are pinned down to the sign of a zero."""
    mode, fields = layer
    rng = np.random.default_rng(seed)
    moe = MoELayer(MoELayerConfig(mode=mode, d=d, h=h, **fields), rng)
    X = normal(rng, B, d)
    tags = [MODALITIES[i] for i in rng.integers(0, len(MODALITIES), B)]
    with T.no_grad():
        routing = moe.route(Tensor(X), tags)
    selected, weights = routing.selected, routing.weights.data.copy()
    E = len(moe.experts)
    weight, C = normal(rng, B, d), normal(rng, B, d)
    if zeros:
        for a in (weights, weight, C):
            a[rng.random(a.shape) < 0.3] = 0.0
            a[rng.random(a.shape) < 0.3] = -0.0
    arrays = [X, weights] + [p.data for e in moe.experts for p in e.params()]
    flags = trainable + list(rng.random(4 * E) < 0.7)

    counts = np.bincount(selected.ravel(), minlength=E).tolist()
    fused_combine = partial(T.moe_combine, counts=counts)

    def op(combine):
        def forward(X, weights, *params):
            experts = [params[4 * e:4 * e + 4] for e in range(E)]
            out = combine(X, weights, selected, experts)
            return T.add(T.mul(X, Tensor(C)), out) if earlier else out
        return forward

    if tape:
        fused = run(op(fused_combine), arrays, flags, weight)
        chain = run(op(chain_moe_combine), arrays, flags, weight)
        assert_bitwise_equal(fused, chain)
        return
    with T.no_grad():
        fused = op(fused_combine)(*(Tensor(a, requires_grad=g) for a, g in zip(arrays, flags)))
        chain = op(chain_moe_combine)(*(Tensor(a) for a in arrays))
    assert fused._parents == () and fused._backward is None
    assert fused.data.tobytes() == chain.data.tobytes()


def made(build):
    """``build()``'s result and the tape nodes ``T._make`` built meanwhile."""
    nodes, make = [], T._make

    def recorded(data, parents, backward):
        nodes.append(make(data, parents, backward))
        return nodes[-1]
    T._make = recorded
    try:
        return build(), nodes
    finally:
        T._make = make


def chain_router_softmaxes(X, weights):
    """Each router's own ``route_dense``: a matmul node under a softmax node."""
    logits, probs = zip(*(route_dense(RouterParams(W), X) for W in weights))
    return list(logits), list(probs)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(seed=0, B=1, G=2, n=4, d=6, tape=True, x_trainable=True, frozen=1)
@example(seed=1, B=1, G=3, n=5, d=3, tape=True, x_trainable=False, frozen=0)
@given(seed=st.integers(0, 2 ** 16), B=st.integers(1, 40), G=st.integers(1, 3),
       n=st.integers(1, 5), d=st.integers(1, 6), tape=st.booleans(),
       x_trainable=st.booleans(), frozen=st.integers(-1, 2))
def test_router_softmaxes_equal_their_chain(seed, B, G, n, d, tape, x_trainable, frozen):
    """G routers in one stacked pass against one ``route_dense`` per router,
    with a tape and under ``no_grad``; router ``frozen`` (none when it is -1
    or past G) is a constant, which gets no gradient and, when X is one too,
    no node."""
    rng = np.random.default_rng(seed)
    arrays = [normal(rng, B, d)] + [normal(rng, d, n) for _ in range(G)]
    flags = [x_trainable] + [g != frozen for g in range(G)]
    upstream = [(normal(rng, B, n), normal(rng, B, n)) for _ in range(G)]

    def run_routers(op):
        X, *Ws = (Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags))
        with contextlib.ExitStack() as stack:
            if not tape:
                stack.enter_context(T.no_grad())
            (logits, probs), nodes = made(lambda: op(X, Ws)[:2])
        loss = None
        for z, p, (u, v) in zip(logits, probs, upstream):
            term = T.add(T.tsum(T.mul(z, Tensor(u))), T.tsum(T.mul(p, Tensor(v))))
            loss = term if loss is None else T.add(loss, term)
        if loss._backward is not None:
            loss.backward()
        return X, Ws, logits, probs, nodes

    X_f, Ws_f, logits_f, probs_f, nodes_f = run_routers(T.router_softmaxes)
    X_c, Ws_c, logits_c, probs_c, nodes_c = run_routers(chain_router_softmaxes)
    for f, c in zip(logits_f + probs_f, logits_c + probs_c):
        assert f.data.shape == c.data.shape and f.data.tobytes() == c.data.tobytes()
        assert f.data.strides == c.data.strides
    # the same nodes, with the same parents: the operands, or the logits node
    assert len(nodes_f) == len(nodes_c) == (2 * sum(x_trainable or f for f in flags[1:])
                                            if tape else 0)
    operands_f, operands_c = [X_f, *Ws_f], [X_c, *Ws_c]
    for f, c in zip(logits_f + probs_f, logits_c + probs_c):
        assert [operands_f.index(p) if p in operands_f else logits_f.index(p)
                for p in f._parents] == [operands_c.index(p) if p in operands_c
                                         else logits_c.index(p) for p in c._parents]
    for f, c, trainable in zip(operands_f, operands_c, flags):
        assert (f.grad is None) == (c.grad is None)
        if not (tape and trainable):
            assert f.grad is None
        if f.grad is not None:
            assert f.grad.tobytes() == c.grad.tobytes() and f.grad.strides == c.grad.strides


def tiny_model(seed, n_enc, n_dec, mode="dense_ffn"):
    moe = MoELayerConfig(mode=mode, n_groups=2, n_per_group=2, m=2, k_per_group=1)
    cfg = ModelConfig(dim_audio=5, dim_video=3, d=6, h=7, n_enc=n_enc, n_dec=n_dec, vocab=5,
                      topk_blocks=1, moe=moe)
    return Model(cfg, seed=seed)


def grads_of(model):
    """Each parameter's gradient, cleared."""
    out = [p.grad for p in model.params()]
    for p in model.params():
        p.zero_grad()
    return out


def assert_same_grads(fused, chain):
    for f, c in zip(fused, chain, strict=True):
        assert (f is None) == (c is None)
        if f is not None:
            assert f.tobytes() == c.tobytes() and f.strides == c.strides, (f.strides, c.strides)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n_enc=st.integers(1, 3), n=st.integers(0, 3),
       lengths=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_encoder_block_equals_its_chain(seed, n_enc, n, lengths):
    """A whole encode, input stage and every block, against the chains:
    sequences packed with a mask (n 0) or an [n x T x D] stack. Each block
    input past the first is an interior node, so its gradient sums the
    block's four terms; the features, every block output and every
    parameter gradient must be the chain's bit for bit."""
    rng = np.random.default_rng(seed)
    model = tiny_model(seed, n_enc, 1)
    if n:
        audio, video = normal(rng, n, lengths[0], 5), normal(rng, n, lengths[0], 3)
    else:
        audio = [normal(rng, t, 5) for t in lengths]
        video = [normal(rng, t, 3) for t in lengths]
    runs = []
    for chains in (contextlib.nullcontext(), chain_model()):
        with chains:
            feats, per_block = model.encode(audio, video)
        weights = np.random.default_rng(seed + 1)
        loss = T.tsum(T.mul(feats, Tensor(weights.normal(size=feats.shape))))
        for X in per_block[:-1]:  # an earlier consumer of each block output
            loss = T.add(loss, T.tsum(T.mul(X, Tensor(weights.normal(size=X.shape)))))
        loss.backward()
        runs.append(([X.data for X in per_block], grads_of(model)))
    (blocks_f, grads_f), (blocks_c, grads_c) = runs
    assert [b.tobytes() for b in blocks_f] == [b.tobytes() for b in blocks_c]
    assert_same_grads(grads_f, grads_c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n_dec=st.integers(2, 3),
       mode=st.sampled_from(["hierarchical", "dense_ffn"]),
       lengths=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1,
                        max_size=3))
def test_decoder_features_gradient_equals_the_chain(seed, n_dec, mode, lengths):
    """Packed sequences through an encoder and two or three decoder layers,
    fused against the chains: the features take two key and value
    gradients per decoder layer, layer 1's first, in the chain's walk
    order. The hierarchical layers' inter routers are drawn, not left at
    their zero init, under which every gradient through them is zero and an
    order error adds zeros."""
    rng = np.random.default_rng(seed)
    audio = [normal(rng, t, 5) for t, _ in lengths]
    video = [normal(rng, t, 3) for t, _ in lengths]
    labels = [rng.integers(0, 5, size=m).tolist() for _, m in lengths]
    tags = [MODALITIES[i] for i in rng.integers(0, len(MODALITIES), len(lengths))]
    inter = [normal(rng, 6, 2) for _ in range(n_dec)]
    runs = []
    for chains in (contextlib.nullcontext(), chain_model()):
        # a model of its own: a hierarchical layer's forward moves its centre
        model = tiny_model(seed, 1, n_dec, mode)
        for blk, weight in zip(model.decoder_blocks, inter):
            if blk.moe.inter_router is not None:
                blk.moe.inter_router.weight.data[:] = weight
        with chains:
            feats, _ = model.encode(audio, video)
            _, ce, _ = model.decode_train(feats, labels, tags,
                                          feature_lengths=[t for t, _ in lengths])
        ce.backward()
        runs.append((ce.data.tobytes(), feats.grad, grads_of(model)))
    (ce_f, feats_f, grads_f), (ce_c, feats_c, grads_c) = runs
    assert ce_f == ce_c
    assert feats_f.tobytes() == feats_c.tobytes() and feats_f.strides == feats_c.strides
    assert_same_grads(grads_f, grads_c)


# -- router losses: the chains the supervised step built before they were fused

def chain_load_balancing(probs, f):
    """Per group, ``scale(tsum(mul(f, mean_axis0(probs))), n)``, added in
    group order: the balancing over ``dispatch_stats``'s P nodes."""
    total = None
    for p, fg in zip(probs, f):
        fg = np.asarray(fg, dtype=np.float64)
        term = T.scale(T.tsum(T.mul(Tensor(fg), T.mean_axis0(p))), float(fg.shape[0]))
        total = term if total is None else T.add(total, term)
    return total


def chain_mean_probs(stats):
    """The mean probabilities of a ``DispatchStats`` as ``mean_axis0`` nodes
    over its probability tensors: P per expert group, and Q per modality
    subset, after ``index_rows`` of the subset's rows (none without group
    probabilities)."""
    q = stats.group_probs
    return [T.mean_axis0(p) for p in stats.expert_probs], {} if q is None else {
        tag: T.mean_axis0(q if rows is None else T.index_rows(q, rows))
        for tag, rows in stats.subsets.items()}


def chain_load_biasing(q, terms):
    """Per (rows, group, w) term, 1 - w * Q[group] with Q the ``mean_axis0``
    of ``index_rows`` of the rows (of q itself when rows is None), added in
    order to a constant 0."""
    total = Tensor(0.0)
    for rows, group, w in terms:
        Q = T.mean_axis0(q if rows is None else T.index_rows(q, rows))
        total = T.add(total, T.sub(Tensor(1.0), T.scale(T.tsum(T.take(Q, [group])), w)))
    return total


def chain_squared_logsumexp(a, row_weights=None):
    lse = T.logsumexp(a)
    sq = T.mul(lse, lse)
    if row_weights is None:
        return T.tmean(sq)
    return T.tsum(T.mul(sq, Tensor(np.asarray(row_weights, dtype=np.float64))))


def chain_mean(ts):
    """The mean of scalar tensors as an add chain and a scale (0 for none)."""
    if not ts:
        return Tensor(np.zeros(()))
    total = ts[0]
    for t in ts[1:]:
        total = T.add(total, t)
    return T.scale(total, 1.0 / len(ts))


def chain_router_loss_total(ce, balance, bias, z, c_balance, c_bias, c_z):
    means = [chain_mean(ts) for ts in (balance, bias, z)]
    total = T.add(T.add(ce, T.scale(means[0], c_balance)),
                  T.add(T.scale(means[1], c_bias), T.scale(means[2], c_z)))
    return total, [m.data for m in means]


def signed_zeros(rng, a, share=0.3):
    """``a`` with about ``share`` of its entries set to 0.0 and as many to -0.0."""
    a = np.array(a, dtype=np.float64)
    a[rng.random(a.shape) < share] = 0.0
    a[rng.random(a.shape) < share] = -0.0
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), B=st.integers(1, 12), G=st.integers(1, 3),
       n=st.integers(1, 5), zeros=st.booleans(), trainable=st.lists(st.booleans(),
                                                                     min_size=3, max_size=3))
def test_load_balancing_equals_its_chain(seed, B, G, n, zeros, trainable):
    """Softmax rows of G groups against top-1 frequencies; ``zeros`` puts
    signed zeros among the frequencies and makes the upstream gradient one."""
    rng = np.random.default_rng(seed)
    probs = [T._softmax_rows(normal(rng, B, n), None) for _ in range(G)]
    f = np.stack([np.bincount(p.argmax(axis=1), minlength=n) / B for p in probs])
    weight = normal(rng)
    if zeros:
        f, weight = signed_zeros(rng, f), signed_zeros(rng, weight, 0.5)
    fused = run(lambda *ps: T.load_balancing(list(ps), f), probs, trainable[:G], weight)
    chain = run(lambda *ps: chain_load_balancing(ps, f), probs, trainable[:G], weight)
    assert_bitwise_equal(fused, chain)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), B=st.integers(1, 12), G=st.integers(1, 3),
       n_terms=st.integers(0, 3), whole=st.booleans(), zeros=st.booleans(),
       trainable=st.booleans())
def test_load_biasing_equals_its_chain(seed, B, G, n_terms, whole, zeros, trainable):
    """Terms over disjoint row subsets, or (``whole``) one term over every
    row, as a one-subset batch has; ``zeros`` puts signed zeros among the
    weights w and the upstream gradient."""
    rng = np.random.default_rng(seed)
    q = T._softmax_rows(normal(rng, B, G), None)
    owner = rng.integers(0, max(n_terms, 1), B)
    subsets = ([None] if whole else
               [np.flatnonzero(owner == i) for i in range(n_terms)])
    terms = [(rows, int(rng.integers(0, G)), float(rng.random()))
             for rows in subsets if rows is None or rows.size]
    weight = normal(rng)
    if zeros:
        ws = signed_zeros(rng, [w for _, _, w in terms], 0.5)
        terms = [(rows, group, float(w)) for (rows, group, _), w in zip(terms, ws)]
        weight = signed_zeros(rng, weight, 0.5)
    fused = run(lambda q: T.load_biasing(q, terms), [q], [trainable], weight)
    chain = run(lambda q: chain_load_biasing(q, terms), [q], [trainable], weight)
    assert_bitwise_equal(fused, chain)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 12), n=st.integers(1, 5),
       weighted=st.booleans(), scale=st.sampled_from([1.0, 30.0, 700.0]),
       zeros=st.booleans(), trainable=st.booleans())
def test_squared_logsumexp_equals_its_chain(seed, rows, n, weighted, scale, zeros, trainable):
    """Mean or weighted z-loss of logits up to a scale that overflows a
    plain exp; ``zeros`` puts signed zeros among the logits and the row
    weights."""
    rng = np.random.default_rng(seed)
    logits = scale * normal(rng, rows, n)
    w = rng.random(rows) if weighted else None
    if zeros:
        logits = signed_zeros(rng, logits)
        w = None if w is None else signed_zeros(rng, w)
    weight = normal(rng)
    fused = run(lambda a: T.squared_logsumexp(a, w), [logits], [trainable], weight)
    chain = run(lambda a: chain_squared_logsumexp(a, w), [logits], [trainable], weight)
    assert_bitwise_equal(fused, chain)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), sizes=st.lists(st.integers(0, 3), min_size=3, max_size=3),
       coefs=st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 0.37, 2.0]), min_size=2, max_size=2),
       zeros=st.booleans(), data=st.data())
def test_router_loss_total_equals_its_chain(seed, sizes, coefs, zeros, data):
    """``total_aux_loss``'s columns through ``loss_total``: lists of 0-3
    layer terms each, some constant, and every mean returned beside the
    total, the CE column's included. ``zeros`` puts signed zeros in the CE
    and the upstream gradient, which the CE's weight of 1.0 must pass on
    as they are."""
    rng = np.random.default_rng(seed)
    arrays = [normal(rng)] + [normal(rng) for _ in range(sum(sizes))]
    weight = normal(rng)
    if zeros:
        arrays[0], weight = signed_zeros(rng, arrays[0], 0.5), signed_zeros(rng, weight, 0.5)
    trainable = data.draw(st.lists(st.booleans(), min_size=len(arrays),
                                   max_size=len(arrays)))
    means = {}

    def op(total):
        def forward(ce, *terms):
            groups, start = [], 0
            for size in sizes:
                groups.append(list(terms[start:start + size]))
                start += size
            out, means[total] = total(ce, *groups)
            return out
        return forward

    fused_op = partial(total_aux_loss, c_balance=coefs[0], c_bias=coefs[1])
    chain_op = partial(chain_router_loss_total, c_balance=coefs[0], c_bias=coefs[1],
                       c_z=DEFAULT_C_Z)
    fused = run(op(fused_op), arrays, trainable, weight)
    chain = run(op(chain_op), arrays, trainable, weight)
    assert_bitwise_equal(fused, chain)
    # the chain's CE is the operand itself
    for got, want in zip(means[fused_op], [arrays[0], *means[chain_op]], strict=True):
        assert got.shape == want.shape == () and got.tobytes() == want.tobytes()


# -- the losses: the chains the training steps built before they were fused --

def chain_cross_entropy_rows(logits, target_ids, row_weights=None):
    """``logsumexp`` and ``take`` of the target logits, then the mean of
    their difference, or its sum weighted by the rows."""
    n_rows, n_cls = logits.data.shape
    lse = T.logsumexp(logits)
    picked = T.take(logits, np.asarray(target_ids) + np.arange(n_rows) * n_cls)
    if row_weights is None:
        return T.scale(T.sub(T.tsum(lse), T.tsum(picked)), 1.0 / n_rows)
    return T.tsum(T.mul(T.sub(lse, picked), Tensor(np.asarray(row_weights, dtype=np.float64))))


def chain_head_mse(features, head, targets, rows):
    """``head_mse`` of the [T x d] ``features`` (a ``stack_slice`` node): the
    product by the head over all T rows, then ``index_rows`` of ``rows``,
    ``sub`` of the same rows of the constant ``targets``, ``mul`` and
    ``tmean``."""
    d = T.sub(T.index_rows(T.matmul(features, head), rows), Tensor(targets[rows]))
    return T.tmean(T.mul(d, d))


def chain_cav2vec_total(acp, vcp, mask, mlm, weights=(1.0, 1.0, 1.0, 2.0)):
    """The weighted sum of the four column means, each scaled, added in pairs."""
    w = weights
    return T.add(T.add(T.scale(acp, w[0]), T.scale(vcp, w[1])),
                 T.add(T.scale(mask, w[2]), T.scale(mlm, w[3])))


def chain_task_loss_total(columns, weights):
    """Each (loss, share) term scaled by its share (kept when 1), each column's
    ``chain_mean``, and ``chain_cav2vec_total`` of the means."""
    means = [chain_mean([loss if share == 1 else T.scale(loss, share)
                         for loss, share in column]) for column in columns]
    return chain_cav2vec_total(*means, weights=weights), [m.data for m in means]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 8), n=st.integers(1, 6),
       weighted=st.booleans(), scale=st.sampled_from([1.0, 30.0, 700.0]),
       zeros=st.booleans(), trainable=st.booleans())
def test_cross_entropy_rows_equals_its_chain(seed, rows, n, weighted, scale, zeros, trainable):
    """Plain and row-weighted, on logits up to a scale that overflows a plain
    exp; ``zeros`` puts signed zeros among the logits and the row weights."""
    rng = np.random.default_rng(seed)
    logits = scale * normal(rng, rows, n)
    ids = rng.integers(0, n, rows)
    w = rng.random(rows) if weighted else None
    if zeros:
        logits = signed_zeros(rng, logits)
        w = None if w is None else signed_zeros(rng, w)
    weight = normal(rng)
    fused = run(lambda a: T.cross_entropy_rows(a, ids, w), [logits], [trainable], weight)
    chain = run(lambda a: chain_cross_entropy_rows(a, ids, w), [logits], [trainable], weight)
    assert_bitwise_equal(fused, chain)


def frame_lists(n_frames):
    """Non-empty sorted lists of distinct frames, as ``corrupted_frames``
    gives them: one frame, every frame, or any subset."""
    return st.one_of(st.lists(st.integers(0, n_frames - 1), min_size=1, unique=True).map(sorted),
                     st.just(list(range(n_frames))),
                     st.integers(0, n_frames - 1).map(lambda f: [f]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), frames=st.integers(1, 6),
       d=st.integers(1, 5), m=st.integers(1, 5), n_losses=st.integers(1, 5),
       n_heads=st.integers(1, 3), zeros=st.booleans(), data=st.data())
def test_head_mse_equals_its_chain(seed, n, frames, d, m, n_losses, n_heads, zeros, data):
    """Losses on slices of one [n x T x d] stack through a few heads, summed,
    against their chains, whose losses on one slice share its
    ``stack_slice`` node: slices with three or more losses, heads with three
    or more, one-frame stacks and frozen heads or stacks among them.
    ``zeros`` puts signed zeros among the stack, the targets and the upstream
    gradient."""
    rng = np.random.default_rng(seed)
    losses = [(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n_heads - 1)),
               data.draw(frame_lists(frames))) for _ in range(n_losses)]
    stack, heads = normal(rng, n, frames, d), [normal(rng, d, m) for _ in range(n_heads)]
    targets = [normal(rng, frames, m) for _ in losses]
    weight = normal(rng)
    if zeros:
        stack, weight = signed_zeros(rng, stack), signed_zeros(rng, weight, 0.5)
        targets = [signed_zeros(rng, t) for t in targets]
    trainable = data.draw(st.lists(st.booleans(), min_size=1 + n_heads, max_size=1 + n_heads))

    def summed(loss):
        def forward(stack, *heads):
            rows = {i: T.stack_slice(stack, i) for i in range(n)}
            total = None
            for (i, h, frames_), t in zip(losses, targets):
                term = loss(stack, rows, i, heads[h], t, frames_)
                total = term if total is None else T.add(total, term)
            return total
        return forward

    fused = run(summed(lambda stack, rows, i, head, t, f: T.head_mse(stack, i, head, t, f)),
                [stack, *heads], trainable, weight)
    chain = run(summed(lambda stack, rows, i, head, t, f: chain_head_mse(rows[i], head, t, f)),
                [stack, *heads], trainable, weight)
    assert_bitwise_equal(fused, chain)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), data=st.data(),
       weights=st.lists(st.sampled_from([0.0, 0.37, 1.0, 2.0]), min_size=4, max_size=4))
def test_task_loss_total_equals_its_chain(seed, data, weights):
    """Losses that all read one parameter, so it takes their gradients in
    the order the backward walk reaches them; each is a term of a column, or
    with a share of 0.5 of two, and some are constants. The means returned
    beside the total must be the chain's too."""
    rng = np.random.default_rng(seed)
    n_losses = data.draw(st.integers(0, 8))
    placed = [data.draw(st.one_of(
        st.tuples(st.integers(0, 3)).map(lambda c: [(c[0], 1.0)]),
        st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True).map(
            lambda cs: [(c, 0.5) for c in cs]))) for _ in range(n_losses)]
    constant = data.draw(st.lists(st.booleans(), min_size=n_losses, max_size=n_losses))
    coefs = [normal(rng, 3) for _ in range(n_losses)]
    order = data.draw(st.permutations(range(n_losses)))  # terms' order within columns
    means = {}

    def op(total):
        def forward(x):
            losses = [Tensor(float(c.sum())) if const else T.tsum(T.mul(x, Tensor(c)))
                      for c, const in zip(coefs, constant)]
            columns = [[] for _ in range(4)]
            for j in order:
                for c, share in placed[j]:
                    columns[c].append((losses[j], share))
            out, means[total] = total(columns, weights)
            return out
        return forward

    weight = normal(rng)
    x = normal(rng, 3)
    fused = run(op(T.loss_total), [x], [True], weight)
    chain = run(op(chain_task_loss_total), [x], [True], weight)
    assert_bitwise_equal(fused, chain)
    for got, want in zip(means[T.loss_total], means[chain_task_loss_total], strict=True):
        assert got.shape == want.shape == () and got.tobytes() == want.tobytes()


def test_fused_ops_reject_mismatched_shapes():
    rng = np.random.default_rng(0)
    x, W1, b1, W2, b2 = (Tensor(normal(rng, *s)) for s in [(3, 4), (4, 5), (5,), (5, 4), (4,)])
    for bad in [(Tensor(normal(rng, 3, 3)), W1, b1, W2, b2),
                (x, W1, Tensor(np.zeros(4)), W2, b2),
                (x, W1, b1, Tensor(normal(rng, 4, 4)), b2),
                (x, W1, b1, W2, Tensor(np.zeros(5)))]:
        for op in (T.ffn, T.ffn_block):
            with pytest.raises(T.ShapeError):
                op(*bad)
    with pytest.raises(T.ShapeError):  # an output of another width than x
        T.ffn_block(x, W1, b1, Tensor(normal(rng, 5, 3)), Tensor(np.zeros(3)))
    with pytest.raises(T.ShapeError):
        T.standardize_rows(x, Tensor(normal(rng, 1, 4)))
    sq = Tensor(normal(rng, 4, 4))
    for Wq, kv in [(Tensor(normal(rng, 4, 3)), None), (W1, None),
                   (sq, (Tensor(normal(rng, 2, 3)), Tensor(normal(rng, 2, 4)))),
                   (sq, (Tensor(normal(rng, 2, 4)), Tensor(normal(rng, 3, 4))))]:
        with pytest.raises(T.ShapeError):
            T.attention_block(x, Wq, sq, sq, sq, kv=kv)
    with pytest.raises(T.ShapeError):
        T.attention_block(Tensor(np.zeros((2, 0))), *[Tensor(np.zeros((0, 0)))] * 4)
    A, V = Tensor(normal(rng, 3, 5)), Tensor(normal(rng, 3, 2))
    Wa, Wv, Wf = Tensor(normal(rng, 5, 4)), Tensor(normal(rng, 2, 3)), Tensor(normal(rng, 7, 4))
    for bad in [(A, Tensor(normal(rng, 2, 2)), Wa, Wv, Wf),
                (A, V, Tensor(normal(rng, 4, 4)), Wv, Wf),
                (A, V, Wa, Tensor(normal(rng, 3, 3)), Wf),
                (A, V, Wa, Wv, Tensor(normal(rng, 8, 4))),
                (Tensor(normal(rng, 5)), Tensor(normal(rng, 2)), Wa, Wv, Wf)]:
        with pytest.raises(T.ShapeError):
            T.input_fusion(*bad)
    experts = [(W1, b1, W2, b2)] * 2
    selected = np.array([[0, 1], [1, 0], [0, 1]])
    for X, weights, sel in [(x, Tensor(normal(rng, 3, 1)), selected),
                            (x, Tensor(normal(rng, 2, 2)), selected[:2]),
                            (Tensor(normal(rng, 1, 3, 4)), Tensor(normal(rng, 3, 2)), selected),
                            (x, Tensor(normal(rng, 6)), selected.ravel())]:
        with pytest.raises(T.ShapeError):
            T.moe_combine(X, weights, sel, experts, [3, 3])
    # expert counts that are not selected's: too few rows, one expert too many
    weights = Tensor(normal(rng, 3, 2))
    for counts in ([3, 2], [3, 3, 0]):
        with pytest.raises(T.ShapeError):
            T.moe_combine(x, weights, selected, experts, counts)
    # routers of two sizes, a row batch too narrow for them, and no router
    for X, Ws in [(x, [W1, Tensor(normal(rng, 4, 3))]), (x, [W1, Tensor(normal(rng, 3, 5))]),
                  (Tensor(normal(rng, 3, 3)), [W1, W1]), (x, []),
                  (Tensor(normal(rng, 2, 3, 4)), [W1]), (x, [Tensor(normal(rng, 4))])]:
        with pytest.raises(T.ShapeError):
            T.router_softmaxes(X, Ws)
    # frequencies of another width or group count, and a stack of probs
    p = Tensor(normal(rng, 3, 4))
    for probs, f in [([p], np.ones((1, 3))), ([p, p], np.ones((1, 4))),
                     ([Tensor(normal(rng, 2, 3, 4))], np.ones((1, 4))), ([], np.ones((0, 4)))]:
        with pytest.raises(T.ShapeError):
            T.load_balancing(probs, f)
    for q, terms in [(p, [(None, 4, 1.0)]), (Tensor(normal(rng, 4)), [(None, 0, 1.0)])]:
        with pytest.raises(T.ShapeError):
            T.load_biasing(q, terms)
    for a, w in [(Tensor(normal(rng, 4)), None), (Tensor(np.zeros((0, 3))), None),
                 (p, np.ones(4))]:
        with pytest.raises(T.ShapeError):
            T.squared_logsumexp(a, w)
    with pytest.raises(T.ShapeError):  # a non-scalar CE in the supervised step's form
        total_aux_loss(p, [], [], [])
    scalar = Tensor(1.0)
    for columns, weights in [([[(scalar, 1.0)]] * 3, [1.0] * 3), ([[]] * 4, [1.0] * 3),
                             ([[(p, 1.0)], [], [], []], [1.0] * 4)]:
        with pytest.raises(T.ShapeError):
            T.loss_total(columns, weights)


def test_stacked_ops_reject_mismatched_ranks():
    rng = np.random.default_rng(1)
    stack, mat = Tensor(normal(rng, 2, 3, 4)), Tensor(normal(rng, 4, 5))
    # a 3-D right operand, a 4-D left one, and a stack times a vector
    for a, b in [(Tensor(normal(rng, 3, 4)), Tensor(normal(rng, 2, 4, 5))),
                 (stack, Tensor(normal(rng, 2, 4, 5))),
                 (Tensor(normal(rng, 1, 2, 3, 4)), mat),
                 (stack, Tensor(normal(rng, 4)))]:
        with pytest.raises(T.ShapeError):
            T.matmul(a, b)
    x2, k2, v2 = (Tensor(normal(rng, 3, 4)) for _ in range(3))
    x3, k3, v3 = (Tensor(normal(rng, 2, 3, 4)) for _ in range(3))
    W = Tensor(normal(rng, 4, 4))
    # keys or values of another rank than X, or stacks of another count
    for X, K, V in [(x3, k2, v2), (x2, k3, v2), (x2, k2, v3), (x3, k3, v2),
                    (x3, Tensor(normal(rng, 3, 3, 4)), Tensor(normal(rng, 3, 3, 4)))]:
        with pytest.raises(T.ShapeError):
            T.attention_block(X, W, W, W, W, kv=(K, V))
    with pytest.raises(T.ShapeError):
        T.attention_block(Tensor(normal(rng, 1, 2, 3, 4)), W, W, W, W)
    for op in (T.ffn, T.ffn_block):
        with pytest.raises(T.ShapeError):
            op(Tensor(normal(rng, 1, 2, 3, 4)), mat, Tensor(np.zeros(5)),
               Tensor(normal(rng, 5, 4)), Tensor(np.zeros(4)))
    with pytest.raises(T.ShapeError):  # audio and video stacks of other lengths
        T.input_fusion(Tensor(normal(rng, 2, 3, 5)), Tensor(normal(rng, 2, 4, 2)),
                       Tensor(normal(rng, 5, 4)), Tensor(normal(rng, 2, 3)),
                       Tensor(normal(rng, 7, 4)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), rows=st.integers(1, 5),
       d=st.integers(1, 5))
def test_stacked_forward_equals_each_slice(seed, n, rows, d):
    """Each slice of a stacked op's output equals the 2-D op on that slice,
    bit for bit."""
    rng = np.random.default_rng(seed)
    X, Y, Z = (normal(rng, n, rows, d) for _ in range(3))
    W1, b1, W2, b2 = (Tensor(a) for a in (normal(rng, d, 3), normal(rng, 3), normal(rng, 3, d),
                                          normal(rng, d)))
    Wq, Wk, Wv, Wo = (Tensor(normal(rng, d, d)) for _ in range(4))
    Wf = Tensor(normal(rng, 2 * d, d))
    ops = [
        lambda x, y, z: T.matmul(x, W1),
        lambda x, y, z: T.attention_block(x, Wq, Wk, Wv, Wo),
        lambda x, y, z: T.attention_block(x, Wq, None, None, Wo, kv=(y, z)),
        lambda x, y, z: T.ffn(x, W1, b1, W2, b2),
        lambda x, y, z: T.ffn_block(x, W1, b1, W2, b2),
        lambda x, y, z: T.input_fusion(x, y, Wq, Wk, Wf),
        lambda x, y, z: T.standardize_rows(x, y),
        lambda x, y, z: T.concat_cols([x, y]),
    ]
    for op in ops:
        stacked = op(*(Tensor(a) for a in (X, Y, Z))).data
        for i in range(n):
            assert np.array_equal(stacked[i], op(*(Tensor(a[i]) for a in (X, Y, Z))).data)


def test_backward_from_a_leaf_is_a_no_op():
    for requires_grad in (False, True):
        x = Tensor(np.array(2.0), requires_grad=requires_grad)
        x.backward()
        assert x.grad == 1.0


# -- the in-place kernels against the plain expressions they stand for ---------

GELU_C = math.sqrt(2.0 / math.pi)


def plain_gelu(x):
    t = np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def plain_gelu_derivative(g, x, t):
    dinner = GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def plain_standardize(x, g, eps=1e-6):
    """standardize_rows's output and input gradient for the upstream g."""
    n = x.shape[-1]
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    gm = np.add.reduce(g, axis=-1, keepdims=True) / n
    gy = np.add.reduce(g * y, axis=-1, keepdims=True) / n
    return y, inv * (g - gm - y * gy)


# values across the range, subnormals and signed zeros included
VALUES = st.one_of(st.floats(-30, 30), st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-200]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(1, 1), (3, 5), (2, 3, 4)]), data=st.data())
def test_in_place_kernels_equal_their_plain_expressions(shape, data):
    """GELU and its derivative, the softmax derivative and standardize_rows
    forward and backward compute in place; each gives its plain expression's
    bytes, and leaves its inputs as they were."""
    size = math.prod(shape)
    x, g, r = (np.array(data.draw(st.lists(VALUES, min_size=size, max_size=size))).reshape(shape)
               for _ in range(3))
    kept = [a.copy() for a in (x, g, r)]
    y, t = T._gelu_forward(x)
    want_y, want_t = plain_gelu(x)
    assert y.tobytes() == want_y.tobytes() and t.tobytes() == want_t.tobytes()
    got = T._gelu_derivative(g, x, t)
    assert got.tobytes() == plain_gelu_derivative(g, x, want_t).tobytes()
    p = T._softmax_rows(x, None)
    dot = (g * p).sum(axis=-1, keepdims=True)
    assert T._softmax_derivative(g, p).tobytes() == (p * (g - dot)).tobytes()
    for residual in (None, r):
        a = Tensor(x, requires_grad=True)
        out = T.standardize_rows(a, None if residual is None else Tensor(residual))
        out._backward(g)
        want_y, want_g = plain_standardize(x if residual is None else x + residual, g)
        assert out.data.tobytes() == want_y.tobytes()
        assert a.grad.tobytes() == want_g.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip((x, g, r), kept))
