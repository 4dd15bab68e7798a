"""The fused ops against the chains of primitive ops they stand for.

The encoder's ``input_fusion`` and the sub-blocks ``attention_block`` and
``ffn_block``, ``ffn``, ``standardize_rows`` with a residual,
``moe_combine``, the router-loss ops ``load_balancing``, ``load_biasing``
and ``squared_logsumexp``, and the losses ``cross_entropy_rows``,
``head_mse`` and ``loss_total`` (in both training steps' forms) are one
tape node each, with a hand-written backward that runs the chain's numpy
arithmetic in the chain's order; ``router_softmaxes`` runs a router family
held as one [G x d x n] parameter in one logits node and one probabilities
node, which stand for each router's own matmul and softmax nodes, and the
ops that read a family (``load_balancing``, ``squared_logsumexp``) read it
whole or by router. A family's rows hold its routers stacked (the chains'
``stack``), so the chain runs each router on its own.
Their outputs and every operand gradient must therefore equal the chain's
bit for bit, with constant operands getting no gradient in either. Each
output and gradient must also have the chain's memory order (its strides):
the ops that consume a gradient further down a training step can round
differently on another layout, though no value here differs.

``TABLE`` has one row per op: the op, its chain (from ``chains.py``), its
parameters' strategies, the builder of its operands and its example count.
``check_row`` makes each row a test, named after its op. The whole encode
and the decoder features have tests of their own, and so do both training
steps, against the whole-step oracles of ``chains.py``.
"""

import contextlib
import math
from collections import namedtuple
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avmoe import tensor as T
from avmoe.distill import DistillHeads, make_centroids, make_teacher
from avmoe.model import Model, ModelConfig
from avmoe.moe_layer import MoELayer, MoELayerConfig
from avmoe.moe_losses import total_aux_loss
from avmoe.routing import MODALITIES
from avmoe.tensor import Tensor
from avmoe.trainer import (
    TrainConfig, _supervised_step, _uptrain_step, build_model, seed_streams,
)
from chains import (
    UPTRAIN_TASKS, chain_attention_block, chain_cross_entropy_rows, chain_ffn,
    chain_ffn_block, chain_head_mse, chain_input_fusion, chain_load_balancing,
    chain_load_biasing, chain_model, chain_moe_combine, chain_router_loss_total,
    chain_router_softmaxes, chain_squared_logsumexp, chain_standardize,
    chain_supervised_step, chain_task_loss_total, chain_uptrain_step, concat_cols, stack,
    standardize,
)


# a run of an op or its chain: its outputs, operand gradients, operands and nodes
Run = namedtuple("Run", "outputs grads operands nodes", defaults=((), ()))


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


def run(op, arrays, trainable, weights, tape=True):
    """Outputs and operand gradients of ``op`` on fresh tensors, with or
    without a tape, and the nodes it made. ``op`` returns a tensor or a list
    of outputs, tensors or arrays; the gradients are backpropagated from the
    sum of the first ``len(weights)`` outputs, each weighted by its entry of
    ``weights``, and the rest are compared as they are. An operand that is
    not trainable, or any operand with no tape, gets no gradient."""
    operands = [Tensor(a.copy(), requires_grad=g) for a, g in zip(arrays, trainable)]
    with contextlib.nullcontext() if tape else T.no_grad():
        outs, nodes = made(lambda: op(*operands))
    outs = [outs] if isinstance(outs, Tensor) else list(outs)
    loss = None
    for out, w in zip(outs, weights):
        term = T.tsum(T.mul(out, Tensor(w)))
        loss = term if loss is None else T.add(loss, term)
    if tape and any(trainable):
        loss.backward()
    assert all(t.grad is None for t, g in zip(operands, trainable) if not (tape and g))
    return Run([o.data if isinstance(o, Tensor) else o for o in outs],
               [t.grad for t in operands], operands, nodes)


def assert_bitwise_equal(fused, chain):
    """Equal bytes, so the sign of a zero counts too, and equal strides."""
    assert len(fused.outputs) == len(chain.outputs) and len(fused.grads) == len(chain.grads)
    for out_f, out_c in zip(fused.outputs, chain.outputs):
        assert out_f.shape == out_c.shape and out_f.tobytes() == out_c.tobytes()
        assert out_f.strides == out_c.strides, (out_f.strides, out_c.strides)
    for g_f, g_c in zip(fused.grads, chain.grads):
        assert (g_f is None) == (g_c is None)
        if g_f is not None:
            assert g_f.shape == g_c.shape and g_f.tobytes() == g_c.tobytes()
            assert g_f.strides == g_c.strides, (g_f.strides, g_c.strides)


def parents(r):
    """Each node's parents, as their places among the operands and the nodes."""
    known = r.operands + r.nodes
    return [[known.index(p) for p in node._parents] for node in r.nodes]


def normal(rng, *shape):
    return rng.normal(size=shape)


def signed_zeros(rng, a, share=0.3):
    """``a`` with about ``share`` of its entries set to 0.0 and as many to -0.0."""
    a = np.array(a, dtype=np.float64)
    a[rng.random(a.shape) < share] = 0.0
    a[rng.random(a.shape) < share] = -0.0
    return a


def with_earlier(block, C):
    """``block`` whose first operand X also feeds X * C, added to the block's
    output: X then takes that gradient too, in the walk's order; ``block``
    itself when C is None."""
    if C is None:
        return block
    return lambda X, *rest: T.add(T.mul(X, Tensor(C)), block(X, *rest))


class Case(NamedTuple):
    """One example of a row: the operands, which are trainable, the upstream
    weights, ``wrap`` (the op or its chain to the function of the operands
    that runs it; none for the op itself), whether a tape records, and how
    many nodes an op that builds its chain's own nodes builds."""
    arrays: list
    trainable: list
    weights: list
    wrap: Callable | None = None
    tape: bool = True
    nodes: int | None = None


# a row of the table: the op, its chain, the strategies of the builder's
# parameters, the builder, the example count and explicit examples
Row = namedtuple("Row", "fused chain params build examples explicit", defaults=((),))


def check_row(row):
    """The test of one row: for each drawn example, the op and its chain
    give the same bytes and strides (``assert_bitwise_equal``); with no tape
    neither makes a node, and an op that builds its chain's nodes builds
    as many, with the same parents."""
    @settings(max_examples=row.examples, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 16), **row.params)
    def test(seed, **params):
        case = row.build(np.random.default_rng(seed), **params)
        wrap = case.wrap or (lambda op: op)
        fused, chain = (run(wrap(op), case.arrays, case.trainable, case.weights, case.tape)
                        for op in (row.fused, row.chain))
        assert_bitwise_equal(fused, chain)
        if not case.tape:
            assert fused.nodes == chain.nodes == []
        if case.nodes is not None:
            assert len(fused.nodes) == case.nodes
            assert parents(fused) == parents(chain)

    for params in row.explicit:
        test = example(**params)(test)
    return test


def flags(n):
    return st.lists(st.booleans(), min_size=n, max_size=n)


# -- the builders of the rows' examples ----------------------------------------

def ffn_case(rng, rows, d, h, n, trainable, earlier=False):
    """[rows x d] inputs (n 0) and [n x rows x d] stacks; ``earlier`` gives X
    another consumer."""
    x = normal(rng, *((n,) if n else ()), rows, d)
    arrays = [x, normal(rng, d, h), normal(rng, h), normal(rng, h, d), normal(rng, d)]
    weight = normal(rng, *x.shape)
    C = normal(rng, *x.shape) if earlier else None
    return Case(arrays, trainable, [weight], lambda op: with_earlier(op, C))


def attention_case(rng, n, tq, tk, d, given_kv, mask_kind, earlier, trainable):
    """The attention sub-block of 2-D rows (n 0) and of [n x T x d] stacks,
    its keys and values computed from X, or given as operands (constants
    among them, as in decoding from a cache); -inf masks included. X takes
    four terms from the block, and ``earlier`` gives it a fifth consumer."""
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
    return Case(arrays, trainable, [weight], lambda block: with_earlier(op(block), C))


def input_fusion_case(rng, rows, n, widths, trainable):
    """Audio and video frames of their own widths through projectors of
    their own widths and the fusion, as [rows x D] frames (n 0) and
    [n x rows x D] stacks; frames that take a gradient included."""
    da, dv, wa, wv, d = widths
    stack = (n,) if n else ()
    arrays = [normal(rng, *stack, rows, da), normal(rng, *stack, rows, dv), normal(rng, da, wa),
              normal(rng, dv, wv), normal(rng, wa + wv, d)]
    return Case(arrays, trainable, [normal(rng, *stack, rows, d)])


def standardize_case(rng, rows, d, trainable):
    return Case([normal(rng, rows, d), normal(rng, rows, d)], trainable, [normal(rng, rows, d)])


# routed layers of every mode: (mode, MoELayerConfig fields)
MOE_LAYERS = [
    ("sparse_topk", {"n_experts": 4, "k": 2}),
    ("sparse_topk", {"n_experts": 3, "k": 1}),
    ("hard", {"n_groups": 2, "n_per_group": 3, "k": 2}),
    ("hierarchical", {"n_groups": 2, "n_per_group": 3, "m": 2, "k_per_group": 1}),
    ("hierarchical", {"n_groups": 3, "n_per_group": 3, "m": 2, "k_per_group": 2}),
    ("hierarchical", {"n_groups": 2, "n_per_group": 2, "m": 1, "k_per_group": 2}),
]


def fused_moe_combine(X, weights, selected, experts):
    """``moe_combine`` with the expert counts of ``selected``."""
    counts = np.bincount(selected.ravel(), minlength=len(experts)).tolist()
    return T.moe_combine(X, weights, selected, experts, counts)


def moe_combine_case(rng, layer, B, d, h, tape, zeros, earlier, trainable):
    """A routed layer's own selection and weights, with or without a tape.

    ``zeros`` puts 0.0 and -0.0 among the combine weights and the upstream
    gradient, and ``earlier`` gives X a gradient (with signed zeros) before
    the combine's arrives, so that the zero-filled buffers of the chain's
    scatter-adds are pinned down to the sign of a zero."""
    mode, fields = layer
    moe = MoELayer(MoELayerConfig(mode=mode, d=d, h=h, **fields), rng)
    X = normal(rng, B, d)
    tags = [MODALITIES[i] for i in rng.integers(0, len(MODALITIES), B)]
    with T.no_grad():
        routing = moe.route(Tensor(X), tags)
    selected, weights = routing.selected, routing.weights.data.copy()
    E = len(moe.experts)
    weight, C = normal(rng, B, d), normal(rng, B, d)
    if zeros:
        weights, weight, C = (signed_zeros(rng, a) for a in (weights, weight, C))
    arrays = [X, weights] + [p.data for e in moe.experts for p in e.params()]

    def wrap(combine):
        def forward(X, weights, *params):
            experts = [params[4 * e:4 * e + 4] for e in range(E)]
            out = combine(X, weights, selected, experts)
            return T.add(T.mul(X, Tensor(C)), out) if earlier else out
        return forward

    return Case(arrays, trainable + list(rng.random(4 * E) < 0.7), [weight], wrap, tape)


def router_softmaxes_case(rng, B, G, n, d, tape, x_trainable, frozen, family):
    """A family of G routers, stacked into one [G x d x n] weight, against
    each router's own matmul node under a softmax node, with a tape and
    under ``no_grad``; router ``frozen`` (none when it is -1 or past G) is a
    constant, which gets no gradient. Without ``family``, one [d x n] router
    on its own. X takes the G routers' gradients in the chain's walk order."""
    G = G if family else 1
    arrays = [normal(rng, B, d)] + [normal(rng, d, n) for _ in range(G)]
    trainable = [x_trainable] + [g != frozen for g in range(G)]
    shape = (G, B, n) if family else (B, n)
    weights = [normal(rng, *shape) for _ in range(2)]  # the logits', the probs'

    def wrap(op):
        if op is T.router_softmaxes:
            return lambda X, *Ws: list(op(X, stack(Ws) if family else Ws[0]))
        return lambda X, *Ws: [stack(t) if family else t[0] for t in op(X, Ws)]

    return Case(arrays, trainable, weights, wrap, tape)


def load_balancing_case(rng, B, G, n, zeros, trainable, families):
    """Softmax rows of G groups against top-1 frequencies, the groups one
    family, or (``families``) each a family of its own, as hard routing's
    two are; ``zeros`` puts signed zeros among the frequencies and makes
    the upstream gradient one."""
    probs = [T._softmax_rows(normal(rng, B, n), None) for _ in range(G)]
    f = np.stack([np.bincount(p.argmax(axis=1), minlength=n) / B for p in probs])
    weight = normal(rng)
    if zeros:
        f, weight = signed_zeros(rng, f), signed_zeros(rng, weight, 0.5)

    def wrap(op):
        if op is T.load_balancing:
            return lambda *ps: op([stack([p]) for p in ps] if families else [stack(ps)], f)
        return lambda *ps: op(list(ps), f)

    return Case(probs, trainable[:G], [weight], wrap)


def load_biasing_case(rng, B, G, n_terms, whole, zeros, trainable):
    """Terms over disjoint row subsets, or (``whole``) one term over every
    row, as a one-subset batch has; ``zeros`` puts signed zeros among the
    weights w and the upstream gradient."""
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
    return Case([q], [trainable], [weight], lambda op: lambda q: op(q, terms))


def logit_rows_case(rng, rows, n, weighted, scale, zeros, trainable, targets=False):
    """Logits up to a scale that overflows a plain exp, plain or with row
    weights (and with target ids when ``targets``); ``zeros`` puts signed
    zeros among the logits and the row weights."""
    logits = scale * normal(rng, rows, n)
    ids = [rng.integers(0, n, rows)] if targets else []
    w = rng.random(rows) if weighted else None
    if zeros:
        logits = signed_zeros(rng, logits)
        w = None if w is None else signed_zeros(rng, w)
    return Case([logits], [trainable], [normal(rng)], lambda op: lambda a: op(a, *ids, w))


def router_loss_total_case(rng, sizes, coefs, zeros, data):
    """``total_aux_loss``'s columns through ``loss_total``: lists of 0-3
    layer terms each, some constant, and every mean returned beside the
    total, the CE column's included. ``zeros`` puts signed zeros in the CE
    and the upstream gradient, which the CE's weight of 1.0 must pass on
    as they are."""
    arrays = [normal(rng)] + [normal(rng) for _ in range(sum(sizes))]
    weight = normal(rng)
    if zeros:
        arrays[0], weight = signed_zeros(rng, arrays[0], 0.5), signed_zeros(rng, weight, 0.5)
    trainable = data.draw(flags(len(arrays)))

    def wrap(total):
        def forward(ce, *terms):
            rest = iter(terms)
            groups = [[next(rest) for _ in range(size)] for size in sizes]
            out, means = total(ce, *groups, c_balance=coefs[0], c_bias=coefs[1])
            return [out, *means]
        return forward

    return Case(arrays, trainable, [weight], wrap)


def frame_lists(n_frames):
    """Non-empty sorted lists of distinct frames, as ``corrupted_frames``
    gives them: one frame, every frame, or any subset."""
    return st.one_of(st.lists(st.integers(0, n_frames - 1), min_size=1, unique=True).map(sorted),
                     st.just(list(range(n_frames))),
                     st.integers(0, n_frames - 1).map(lambda f: [f]))


def head_mse_case(rng, n, frames, d, m, n_losses, n_heads, zeros, data):
    """Losses on slices of one [n x T x d] stack through a few heads, summed,
    against their chains, whose losses on one slice share its
    ``stack_slice`` node: slices with three or more losses, heads with three
    or more, one-frame stacks and frozen heads or stacks among them.
    ``zeros`` puts signed zeros among the stack, the targets and the upstream
    gradient."""
    losses = [(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n_heads - 1)),
               data.draw(frame_lists(frames))) for _ in range(n_losses)]
    stack, heads = normal(rng, n, frames, d), [normal(rng, d, m) for _ in range(n_heads)]
    targets = [normal(rng, frames, m) for _ in losses]
    weight = normal(rng)
    if zeros:
        stack, weight = signed_zeros(rng, stack), signed_zeros(rng, weight, 0.5)
        targets = [signed_zeros(rng, t) for t in targets]
    trainable = data.draw(flags(1 + n_heads))

    def summed(loss):
        def forward(stack, *heads):
            slices = {i: T.stack_slice(stack, i) for i in range(n)}
            total = None
            for (i, h, frames_), t in zip(losses, targets):
                term = loss(stack, slices, i, heads[h], t, frames_)
                total = term if total is None else T.add(total, term)
            return total
        return forward

    return Case([stack, *heads], trainable, [weight], summed)


def task_loss_total_case(rng, data, weights, zeros):
    """Losses that all read one parameter, so it takes their gradients in
    the order the backward walk reaches them; each is a term of a column, or
    with a share of 0.5 of two, and some are constants. The means returned
    beside the total must be the chain's too. ``zeros`` makes the upstream
    gradient a signed zero, most of the time."""
    n_losses = data.draw(st.integers(0, 8))
    placed = [data.draw(st.one_of(
        st.tuples(st.integers(0, 3)).map(lambda c: [(c[0], 1.0)]),
        st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True).map(
            lambda cs: [(c, 0.5) for c in cs]))) for _ in range(n_losses)]
    constant = data.draw(flags(n_losses))
    coefs = [normal(rng, 3) for _ in range(n_losses)]
    order = data.draw(st.permutations(range(n_losses)))  # terms' order within columns

    def wrap(total):
        def forward(x):
            losses = [Tensor(float(c.sum())) if const else T.tsum(T.mul(x, Tensor(c)))
                      for c, const in zip(coefs, constant)]
            columns = [[] for _ in range(4)]
            for j in order:
                for c, share in placed[j]:
                    columns[c].append((losses[j], share))
            out, means = total(columns, weights)
            return [out, *means]
        return forward

    weight = signed_zeros(rng, normal(rng), 0.5) if zeros else normal(rng)
    return Case([normal(rng, 3)], [True], [weight], wrap)


# -- the table: each row's test keeps the name of the single-op test it replaced

ROWS = {"rows": st.integers(1, 5), "d": st.integers(1, 5),
        "h": st.integers(1, 6), "n": st.integers(0, 3), "trainable": flags(5)}
LOGIT_ROWS = {"n": st.integers(1, 5), "weighted": st.booleans(),
              "scale": st.sampled_from([1.0, 30.0, 700.0]), "zeros": st.booleans(),
              "trainable": st.booleans()}

TABLE = {
    "test_ffn_equals_its_chain": Row(T.ffn, chain_ffn, ROWS, ffn_case, 120),
    "test_attention_equals_its_chain": Row(
        T.attention_block, chain_attention_block,
        {"n": st.integers(0, 3), "tq": st.integers(1, 5), "tk": st.integers(1, 6),
         "d": st.integers(1, 5), "given_kv": st.booleans(),
         "mask_kind": st.sampled_from(["none", "causal", "random"]), "earlier": st.booleans(),
         "trainable": flags(5)},
        attention_case, 240),
    "test_ffn_block_equals_its_chain": Row(
        T.ffn_block, chain_ffn_block, {**ROWS, "earlier": st.booleans()}, ffn_case, 120),
    "test_input_fusion_equals_its_chain": Row(
        T.input_fusion, chain_input_fusion,
        {"rows": st.integers(1, 5), "n": st.integers(0, 3),
         "widths": st.lists(st.integers(1, 5), min_size=5, max_size=5), "trainable": flags(5)},
        input_fusion_case, 120),
    "test_standardize_with_residual_equals_its_chain": Row(
        T.standardize_rows, chain_standardize,
        {"rows": st.integers(1, 5), "d": st.integers(1, 6), "trainable": flags(2)},
        standardize_case, 80),
    "test_moe_combine_equals_its_chain": Row(
        fused_moe_combine, chain_moe_combine,
        {"layer": st.sampled_from(MOE_LAYERS), "B": st.integers(1, 7),
         "d": st.integers(1, 4), "h": st.integers(1, 5), "tape": st.booleans(),
         "zeros": st.booleans(), "earlier": st.booleans(), "trainable": flags(2)},
        moe_combine_case, 200),
    "test_router_softmaxes_equal_their_chain": Row(
        T.router_softmaxes, chain_router_softmaxes,
        {"B": st.integers(1, 40), "G": st.integers(1, 3), "n": st.integers(1, 5),
         "d": st.integers(1, 6), "tape": st.booleans(), "x_trainable": st.booleans(),
         "frozen": st.integers(-1, 2), "family": st.booleans()},
        router_softmaxes_case, 200,
        explicit=({"seed": 0, "B": 1, "G": 2, "n": 4, "d": 6, "tape": True,
                   "x_trainable": True, "frozen": 1, "family": True},
                  {"seed": 1, "B": 1, "G": 3, "n": 5, "d": 3, "tape": True,
                   "x_trainable": True, "frozen": -1, "family": True})),
    "test_load_balancing_equals_its_chain": Row(
        T.load_balancing, chain_load_balancing,
        {"B": st.integers(1, 12), "G": st.integers(1, 3), "n": st.integers(1, 5),
         "zeros": st.booleans(), "trainable": flags(3), "families": st.booleans()},
        load_balancing_case, 150),
    "test_load_biasing_equals_its_chain": Row(
        T.load_biasing, chain_load_biasing,
        {"B": st.integers(1, 12), "G": st.integers(1, 3),
         "n_terms": st.integers(0, 3), "whole": st.booleans(), "zeros": st.booleans(),
         "trainable": st.booleans()},
        load_biasing_case, 150),
    "test_squared_logsumexp_equals_its_chain": Row(
        # router 1 of a family whose router 0 is a constant
        lambda a, w: T.squared_logsumexp(stack([Tensor(np.zeros(a.data.shape)), a]), 1, w),
        chain_squared_logsumexp,
        {**LOGIT_ROWS, "rows": st.integers(1, 12)}, logit_rows_case, 150),
    "test_router_loss_total_equals_its_chain": Row(
        total_aux_loss, chain_router_loss_total,
        {"sizes": st.lists(st.integers(0, 3), min_size=3, max_size=3),
         "coefs": st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 0.37, 2.0]), min_size=2,
                           max_size=2),
         "zeros": st.booleans(), "data": st.data()},
        router_loss_total_case, 150),
    "test_cross_entropy_rows_equals_its_chain": Row(
        T.cross_entropy_rows, chain_cross_entropy_rows,
        {**LOGIT_ROWS, "rows": st.integers(1, 8), "n": st.integers(1, 6)},
        partial(logit_rows_case, targets=True), 150),
    "test_head_mse_equals_its_chain": Row(
        lambda stack, slices, i, *rest: T.head_mse(stack, i, *rest),
        lambda stack, slices, i, *rest: chain_head_mse(slices[i], *rest),
        {"n": st.integers(1, 3), "frames": st.integers(1, 6),
         "d": st.integers(1, 5), "m": st.integers(1, 5), "n_losses": st.integers(1, 5),
         "n_heads": st.integers(1, 3), "zeros": st.booleans(), "data": st.data()},
        head_mse_case, 120),
    "test_task_loss_total_equals_its_chain": Row(
        T.loss_total, chain_task_loss_total,
        {"data": st.data(), "zeros": st.booleans(),
         "weights": st.lists(st.sampled_from([0.0, 0.37, 1.0, 2.0]), min_size=4, max_size=4)},
        task_loss_total_case, 100),
}

globals().update({name: check_row(row) for name, row in TABLE.items()})


# -- whole models: the encode and the decoder features against the chains -----

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
        runs.append(Run([X.data for X in per_block], grads_of(model)))
    assert_bitwise_equal(*runs)


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
        runs.append(Run([ce.data, feats.grad], grads_of(model)))
    assert_bitwise_equal(*runs)


# -- the training steps against their whole-step oracles ----------------------

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
        scalars, total = step(model, cfg, batch)
        total.backward()
        runs.append((scalars, total.data.tobytes(), model.params()))
    (got, got_total, got_params), (want, want_total, want_params) = runs
    assert got == want and got_total == want_total
    for j, (p, q) in enumerate(zip(got_params, want_params)):
        g, w = p.grad, q.grad
        assert (g is None) == (w is None), j
        if g is not None:
            assert g.tobytes() == w.tobytes() and g.strides == w.strides, j


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tasks=st.lists(st.sampled_from(list(UPTRAIN_TASKS)), min_size=1, max_size=7,
                      unique=True),
       seed=st.integers(0, 2 ** 16), batch_size=st.integers(1, 5),
       dropout=st.sampled_from([0.0, 0.25, 0.5]), n_enc=st.integers(1, 3),
       topk=st.integers(1, 3), frames_per_token=st.sampled_from([1, 3]))
@example(tasks=["MASK"], seed=0, batch_size=3, dropout=0.25, n_enc=2, topk=2,
         frames_per_token=3)
@example(tasks=["AVCP", "mACP", "mVCP"], seed=2, batch_size=3, dropout=0.0, n_enc=2,
         topk=2, frames_per_token=3)
def test_uptrain_step_is_bitwise_the_chain_step(tasks, seed, batch_size, dropout, n_enc,
                                                topk, frames_per_token):
    """The uptraining step against ``chains.chain_uptrain_step``, which
    spells out the draws, the seven tasks and the teacher's targets: the
    same scalars, total, draws (both RNG states) and every model and head
    gradient, bit for bit and stride for stride. So it checks the task
    table, one teacher encode per step against one 2-D encode per mode,
    each pair's student inputs as one stack, masked input first, and the
    fused encoder and losses against their chains, for any ordered set of
    tasks, one-frame pairs included, the targets averaging the top
    ``topk`` blocks (at most all). The examples: MASK alone, a stack of
    one slice; and seed 2, where each of the three pairs' audio-visual
    slice takes three gradients, from AVCP, mACP and mVCP."""
    cfg = TrainConfig.from_dict({
        "regime": "cav2vec_uptrain", "steps": 1, "batch_size": batch_size, "seed": seed,
        "tokens_min": 1, "tokens_max": 4, "tasks": tasks,
        "modality_dropout": dropout, "n_centroids": 4,
        "model": {"dim_audio": 5, "dim_video": 4, "d": 8, "h": 12, "n_enc": n_enc,
                  "n_dec": 1, "vocab": 4, "topk_blocks": min(topk, n_enc),
                  "moe": {"mode": "dense_ffn"}},
        "generator": {"vocab": 4, "dim_audio": 5, "dim_video": 4,
                      "frames_per_token": frames_per_token},
    })
    model = build_model(cfg)
    teacher = make_teacher(model, total_steps=1)
    for p in teacher.encoder.encoder_params():  # a teacher distinct from the student
        p.data += 0.01
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids, seed=seed)
    centroids = make_centroids(cfg.n_centroids, cfg.model.d, seed=1)
    runs, draws = [], []
    for step in (_uptrain_step, chain_uptrain_step):
        streams = seed_streams(cfg.seed)
        data_rng = np.random.default_rng(streams["data"])
        corr_rng = np.random.default_rng(streams["corruption"])
        scalars, total = step(model, teacher, heads, centroids, cfg, data_rng, corr_rng)
        total.backward()
        runs.append(Run([total.data], grads_of(model) + [h.grad for h in heads.params()]))
        draws.append((scalars, data_rng.bit_generator.state, corr_rng.bit_generator.state))
        for h in heads.params():
            h.zero_grad()
    assert draws[0] == draws[1]
    assert_bitwise_equal(*runs)


def assert_rejected(op, *calls):
    """``op`` raises ShapeError on each tuple of arguments in ``calls``."""
    for args in calls:
        with pytest.raises(T.ShapeError):
            op(*args)


def test_fused_ops_reject_mismatched_shapes():
    rng = np.random.default_rng(0)
    x, W1, b1, W2, b2 = (Tensor(normal(rng, *s)) for s in [(3, 4), (4, 5), (5,), (5, 4), (4,)])
    bad = [(Tensor(normal(rng, 3, 3)), W1, b1, W2, b2), (x, W1, Tensor(np.zeros(4)), W2, b2),
           (x, W1, b1, Tensor(normal(rng, 4, 4)), b2), (x, W1, b1, W2, Tensor(np.zeros(5)))]
    assert_rejected(T.ffn, *bad)
    assert_rejected(T.ffn_block, *bad)
    # an output of another width than x
    assert_rejected(T.ffn_block, (x, W1, b1, Tensor(normal(rng, 5, 3)), Tensor(np.zeros(3))))
    assert_rejected(T.standardize_rows, (x, Tensor(normal(rng, 1, 4))))
    sq = Tensor(normal(rng, 4, 4))
    assert_rejected(lambda Wq, kv: T.attention_block(x, Wq, sq, sq, sq, kv=kv),
                    (Tensor(normal(rng, 4, 3)), None), (W1, None),
                    (sq, (Tensor(normal(rng, 2, 3)), Tensor(normal(rng, 2, 4)))),
                    (sq, (Tensor(normal(rng, 2, 4)), Tensor(normal(rng, 3, 4)))))
    assert_rejected(T.attention_block,
                    (Tensor(np.zeros((2, 0))), *[Tensor(np.zeros((0, 0)))] * 4))
    A, V = Tensor(normal(rng, 3, 5)), Tensor(normal(rng, 3, 2))
    Wa, Wv, Wf = Tensor(normal(rng, 5, 4)), Tensor(normal(rng, 2, 3)), Tensor(normal(rng, 7, 4))
    assert_rejected(T.input_fusion, (A, Tensor(normal(rng, 2, 2)), Wa, Wv, Wf),
                    (A, V, Tensor(normal(rng, 4, 4)), Wv, Wf),
                    (A, V, Wa, Tensor(normal(rng, 3, 3)), Wf),
                    (A, V, Wa, Wv, Tensor(normal(rng, 8, 4))),
                    (Tensor(normal(rng, 5)), Tensor(normal(rng, 2)), Wa, Wv, Wf))
    experts = [(W1, b1, W2, b2)] * 2
    selected = np.array([[0, 1], [1, 0], [0, 1]])
    assert_rejected(lambda X, weights, sel: T.moe_combine(X, weights, sel, experts, [3, 3]),
                    (x, Tensor(normal(rng, 3, 1)), selected),
                    (x, Tensor(normal(rng, 2, 2)), selected[:2]),
                    (Tensor(normal(rng, 1, 3, 4)), Tensor(normal(rng, 3, 2)), selected),
                    (x, Tensor(normal(rng, 6)), selected.ravel()))
    # expert counts that are not selected's: too few rows, one expert too many
    weights = Tensor(normal(rng, 3, 2))
    assert_rejected(lambda counts: T.moe_combine(x, weights, selected, experts, counts),
                    ([3, 2],), ([3, 3, 0],))
    # a row batch too narrow for a router or a family, a stack of rows, a
    # vector and a 4-D weight
    fam = Tensor(normal(rng, 2, 4, 3))
    assert_rejected(T.router_softmaxes, (Tensor(normal(rng, 3, 3)), W1),
                    (Tensor(normal(rng, 3, 3)), fam), (Tensor(normal(rng, 2, 3, 4)), W1),
                    (x, Tensor(normal(rng, 4))), (x, Tensor(normal(rng, 1, 2, 4, 3))))
    # frequencies of another width or group count, families of other row
    # counts, bare [B x n] probs and no family
    p = Tensor(normal(rng, 3, 4))
    p3 = Tensor(normal(rng, 1, 3, 4))
    assert_rejected(T.load_balancing, ([p3], np.ones((1, 3))), ([p3, p3], np.ones((1, 4))),
                    ([p3, Tensor(normal(rng, 1, 2, 4))], np.ones((2, 4))),
                    ([p], np.ones((1, 4))), ([], np.ones((0, 4))))
    assert_rejected(T.load_biasing, (p, [(None, 4, 1.0)]),
                    (Tensor(normal(rng, 4)), [(None, 0, 1.0)]))
    assert_rejected(T.squared_logsumexp, (p, 0, None), (Tensor(np.zeros((1, 0, 3))), 0, None),
                    (p3, 1, None), (p3, 0, np.ones(4)))
    # a non-scalar CE in the supervised step's form
    assert_rejected(total_aux_loss, (p, [], [], []))
    scalar = Tensor(1.0)
    assert_rejected(T.loss_total, ([[(scalar, 1.0)]] * 3, [1.0] * 3), ([[]] * 4, [1.0] * 3),
                    ([[(p, 1.0)], [], [], []], [1.0] * 4))


def test_stacked_ops_reject_mismatched_ranks():
    rng = np.random.default_rng(1)
    stack, mat = Tensor(normal(rng, 2, 3, 4)), Tensor(normal(rng, 4, 5))
    # a 3-D right operand, a 4-D left one, and a stack times a vector
    assert_rejected(T.matmul, (Tensor(normal(rng, 3, 4)), Tensor(normal(rng, 2, 4, 5))),
                    (stack, Tensor(normal(rng, 2, 4, 5))),
                    (Tensor(normal(rng, 1, 2, 3, 4)), mat), (stack, Tensor(normal(rng, 4))))
    x2, k2, v2 = (Tensor(normal(rng, 3, 4)) for _ in range(3))
    x3, k3, v3 = (Tensor(normal(rng, 2, 3, 4)) for _ in range(3))
    W = Tensor(normal(rng, 4, 4))
    # keys or values of another rank than X, or stacks of another count
    assert_rejected(lambda X, K, V: T.attention_block(X, W, W, W, W, kv=(K, V)),
                    (x3, k2, v2), (x2, k3, v2), (x2, k2, v3), (x3, k3, v2),
                    (x3, Tensor(normal(rng, 3, 3, 4)), Tensor(normal(rng, 3, 3, 4))))
    assert_rejected(T.attention_block, (Tensor(normal(rng, 1, 2, 3, 4)), W, W, W, W))
    bad = (Tensor(normal(rng, 1, 2, 3, 4)), mat, Tensor(np.zeros(5)), Tensor(normal(rng, 5, 4)),
           Tensor(np.zeros(4)))
    assert_rejected(T.ffn, bad)
    assert_rejected(T.ffn_block, bad)
    # audio and video stacks of other lengths
    assert_rejected(T.input_fusion, (Tensor(normal(rng, 2, 3, 5)), Tensor(normal(rng, 2, 4, 2)),
                                     Tensor(normal(rng, 5, 4)), Tensor(normal(rng, 2, 3)),
                                     Tensor(normal(rng, 7, 4))))


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
        lambda x, y, z: concat_cols([x, y]),
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
        out = standardize(a) if residual is None else T.standardize_rows(a, Tensor(residual))
        out._backward(g)
        want_y, want_g = plain_standardize(x if residual is None else x + residual, g)
        assert out.data.tobytes() == want_y.tobytes()
        assert a.grad.tobytes() == want_g.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip((x, g, r), kept))
