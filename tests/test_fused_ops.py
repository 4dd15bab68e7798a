"""The fused ops against the chains of primitive ops they stand for.

``attention``, ``ffn`` and ``standardize_rows`` with a residual are one tape
node each, with a hand-written backward that runs the chain's numpy
arithmetic in the chain's order. Their outputs and every operand gradient
must therefore equal the chain's bit for bit, with constant operands getting
no gradient in either. Each gradient must also have the chain's memory order
(its strides): the ops that consume a gradient further down a training step
can round differently on another layout, though no value here differs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
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


def chain_attention(Q, K, V, mask):
    matmul = T.matmul if Q.data.ndim == 2 else stack_matmul
    scores = T.scale(matmul(Q, transpose(K)), 1.0 / math.sqrt(Q.data.shape[-1]))
    return matmul(T.softmax(scores, mask), V)


def chain_standardize(a, residual):
    return T.standardize_rows(T.add(a, residual))


def run(op, arrays, trainable, weight):
    """Output and operand gradients of ``op`` on fresh tensors, backpropagated
    from the sum of the output weighted by ``weight``."""
    operands = [Tensor(a.copy(), requires_grad=g) for a, g in zip(arrays, trainable)]
    out = op(*operands)
    if any(trainable):
        T.tsum(T.mul(out, Tensor(weight))).backward()
    return out.data, [t.grad for t in operands]


def assert_bitwise_equal(fused, chain):
    (out_f, grads_f), (out_c, grads_c) = fused, chain
    assert np.array_equal(out_f, out_c)
    for g_f, g_c in zip(grads_f, grads_c):
        assert (g_f is None) == (g_c is None)
        if g_f is not None:
            assert g_f.shape == g_c.shape and np.array_equal(g_f, g_c)
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


@settings(max_examples=240, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 3), tq=st.integers(1, 5),
       tk=st.integers(1, 6), d=st.integers(1, 5),
       mask_kind=st.sampled_from(["none", "causal", "random"]),
       trainable=st.lists(st.booleans(), min_size=3, max_size=3))
def test_attention_equals_its_chain(seed, n, tq, tk, d, mask_kind, trainable):
    """2-D operands (n 0) and [n x T x d] stacks; constant keys and values (as
    in decoding from a cache) and -inf masks included."""
    rng = np.random.default_rng(seed)
    stack = (n,) if n else ()
    arrays = [normal(rng, *stack, tq, d), normal(rng, *stack, tk, d),
              normal(rng, *stack, tk, d)]
    mask = None
    if mask_kind != "none":
        allowed = (np.tri(tq, tk, dtype=bool) if mask_kind == "causal"
                   else rng.random((tq, tk)) < 0.5)
        allowed[:, 0] = True  # every query row keeps a key
        mask = np.where(allowed, 0.0, -np.inf)
    weight = normal(rng, *stack, tq, d)
    fused = run(lambda *t: T.attention(*t, mask=mask), arrays, trainable, weight)
    chain = run(lambda *t: chain_attention(*t, mask), arrays, trainable, weight)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 4), d=st.integers(2, 5))
def test_encoder_block_equals_its_chain(seed, rows, d):
    """Attention, residual norm, FFN and residual norm over shared interior
    operands: the gradient reaching the block input sums four contributions,
    in the same order as the chain's."""
    rng = np.random.default_rng(seed)
    names = ["X", "Wq", "Wk", "Wv", "W1", "b1", "W2", "b2"]
    arrays = [normal(rng, rows, d)] + [normal(rng, d, d) for _ in range(3)] + [
        normal(rng, d, 3), normal(rng, 3), normal(rng, 3, d), normal(rng, d)]

    def block(attention, ffn, standardize):
        def forward(*ops):
            t = dict(zip(names, ops))
            X = T.gelu(t["X"])  # an interior block input
            att = attention(T.matmul(X, t["Wq"]), T.matmul(X, t["Wk"]),
                            T.matmul(X, t["Wv"]), None)
            X = standardize(X, att)
            return standardize(X, ffn(X, t["W1"], t["b1"], t["W2"], t["b2"]))
        return forward

    weight = normal(rng, rows, d)
    fused = run(block(T.attention, T.ffn, T.standardize_rows), arrays, [True] * 8, weight)
    chain = run(block(chain_attention, chain_ffn, chain_standardize), arrays, [True] * 8,
                weight)
    assert_bitwise_equal(fused, chain)


def test_fused_ops_reject_mismatched_shapes():
    rng = np.random.default_rng(0)
    x, W1, b1, W2, b2 = (Tensor(normal(rng, *s)) for s in [(3, 4), (4, 5), (5,), (5, 4), (4,)])
    for bad in [(Tensor(normal(rng, 3, 3)), W1, b1, W2, b2),
                (x, W1, Tensor(np.zeros(4)), W2, b2),
                (x, W1, b1, Tensor(normal(rng, 4, 4)), b2),
                (x, W1, b1, W2, Tensor(np.zeros(5)))]:
        with pytest.raises(T.ShapeError):
            T.ffn(*bad)
    with pytest.raises(T.ShapeError):
        T.standardize_rows(x, Tensor(normal(rng, 1, 4)))
    with pytest.raises(T.ShapeError):
        T.attention(x, Tensor(normal(rng, 2, 3)), Tensor(normal(rng, 2, 4)))


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
    q2, k2, v2 = (Tensor(normal(rng, 3, 4)) for _ in range(3))
    q3, k3, v3 = (Tensor(normal(rng, 2, 3, 4)) for _ in range(3))
    for Q, K, V in [(q3, k2, v2), (q2, k3, v2), (q2, k2, v3), (q3, k3, v2),
                    (q3, Tensor(normal(rng, 3, 3, 4)), Tensor(normal(rng, 3, 3, 4)))]:
        with pytest.raises(T.ShapeError):
            T.attention(Q, K, V)
    with pytest.raises(T.ShapeError):
        T.ffn(Tensor(normal(rng, 1, 2, 3, 4)), mat, Tensor(np.zeros(5)),
              Tensor(normal(rng, 5, 4)), Tensor(np.zeros(4)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), rows=st.integers(1, 5),
       d=st.integers(1, 5))
def test_stacked_forward_equals_each_slice(seed, n, rows, d):
    """Each slice of a stacked op's output equals the 2-D op on that slice,
    bit for bit."""
    rng = np.random.default_rng(seed)
    X, Y, Z = (normal(rng, n, rows, d) for _ in range(3))
    W1, b1, W2, b2 = normal(rng, d, 3), normal(rng, 3), normal(rng, 3, d), normal(rng, d)
    ops = [
        (lambda x, y, z: T.matmul(x, Tensor(W1)), (X, Y, Z)),
        (lambda x, y, z: T.attention(x, y, z), (X, Y, Z)),
        (lambda x, y, z: T.ffn(x, Tensor(W1), Tensor(b1), Tensor(W2), Tensor(b2)),
         (X, Y, Z)),
        (lambda x, y, z: T.standardize_rows(x, y), (X, Y, Z)),
        (lambda x, y, z: T.concat_cols([x, y]), (X, Y, Z)),
    ]
    for op, arrays in ops:
        stacked = op(*(Tensor(a) for a in arrays)).data
        for i in range(n):
            assert np.array_equal(stacked[i], op(*(Tensor(a[i]) for a in arrays)).data)


def test_backward_from_a_leaf_is_a_no_op():
    for requires_grad in (False, True):
        x = Tensor(np.array(2.0), requires_grad=requires_grad)
        x.backward()
        assert x.grad == 1.0
