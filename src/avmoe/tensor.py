"""Minimal dense tensor algebra with reverse-mode gradient accumulation.

Everything downstream (routers, experts, the toy encoder/decoder, all losses)
computes through the ops defined here. Values are float64 numpy arrays; each
op optionally records a backward closure on an implicit tape (the graph of
``_parents`` links), replayed in reverse topological order by
``Tensor.backward``. ``_make`` is the one constructor of tape nodes, and
each op has one spelling, a function of this module: ``Tensor`` overloads
no arithmetic operator.

A leading stack axis runs n equally long sequences side by side: ``matmul``
takes an [n x T x k] left operand with a [k x m] right one, and
``attention``, ``ffn``, ``standardize_rows`` and ``concat_cols`` work on
[n x T x d] operands, each slice with the arithmetic of the 2-D op, so a
stacked forward equals the per-slice forwards bit for bit. A weight's
gradient is one gemm over all n*T rows. ``stack_slice`` hands slice i of a
stack on as a [T x d] tensor. With no tape, ``attention`` also reads
[R x d] operands as stacks of any lengths laid end to end (its ``stacks``
argument), each attending on its own, so the ops around it can run once
over the rows of all of them.

The model's hot layers are fused ops, one node each with a hand-written
backward: ``attention`` (scores, softmax and the value product), ``ffn``
(both projections, biases and the GELU between them), ``standardize_rows``
with an optional residual operand (the add before the norm) and
``moe_combine`` (every routed expert's FFN on its rows, with one GELU over
all of them, weighted and summed per row). So is each router-loss term of
the supervised step: ``load_balancing`` (into each group's probabilities),
``load_biasing`` (into the inter-router probabilities of each subset's
rows), ``squared_logsumexp`` (the z-loss, into the logits) and
``router_loss_total`` (the layer means and the weighted total). Each runs
the numpy arithmetic of the primitive-op chain it stands for, in the same
order, and hands each operand the gradient that chain's backward would;
``tests/test_fused_ops.py`` builds those chains and checks the fused ops
against them bit for bit. ``router_softmaxes`` fuses only the forward: it
computes the logits and softmaxes of several routers in one stacked pass,
and with a tape it still builds each router's own matmul and softmax
nodes, so its gradients are the per-router chain's.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (teacher/eval forward passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """A float64 array with an optional gradient buffer.

    ``data`` is never mutated by ops after construction; optimizers update
    parameter tensors in place between steps, which is the one sanctioned
    mutation point.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def param(data) -> "Tensor":
        return Tensor(data, requires_grad=True)

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autodiff core --------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        self.grad = np.ones_like(self.data)
        if self._backward is None:
            return
        # depth-first post-order of the interior nodes; a leaf (parameter or
        # constant) has no backward, so it is never pushed
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif node not in visited:
                visited.add(node)
                stack.append((node, True))
                for p in node._parents:
                    if p._backward is not None and p not in visited:
                        stack.append((p, False))
        # every op hands each interior operand a gradient
        # (tests/test_tensor.py::test_every_interior_node_takes_a_gradient)
        for node in reversed(topo):
            node._backward(node.grad)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g


def _needs_grad(t: Tensor) -> bool:
    """Whether a gradient reaching ``t`` can reach a parameter; constant
    operands (positions, routing centers, row weights, input frames) get none."""
    return bool(t.requires_grad or t._parents)


def _track(*tensors: Tensor) -> bool:
    if not _GRAD_ENABLED:
        return False
    return any(_needs_grad(t) for t in tensors)


def _make(data, parents, backward) -> Tensor:
    return Tensor(data, _parents=parents, _backward=backward)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- elementwise arithmetic ---------------------------------------------------

def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a: Tensor, b: Tensor, data, da, db) -> Tensor:
    if not _track(a, b):
        return Tensor(data)

    def backward(g):
        if _needs_grad(a):
            a._accum(_unbroadcast(da(g), a.data.shape))
        if _needs_grad(b):
            b._accum(_unbroadcast(db(g), b.data.shape))

    return _make(data, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    if not _track(a):
        return Tensor(a.data * c)
    return _make(a.data * c, (a,), lambda g: a._accum(g * c))


# -- linear algebra -----------------------------------------------------------

def _weight_grad(x, g):
    """Gradient of W in ``x @ W`` from the upstream ``g``: one gemm over all
    rows of the [n x k] ``x``, or of the slices of an [n x T x k] stack."""
    if x.ndim == 3:
        x, g = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    return x.T @ g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of [rows x k] and [k x m] operands, or of an
    [n x T x k] stack with a [k x m] matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != 2:
        raise ShapeError(f"matmul takes a matrix or a 3-D stack, and a matrix: "
                         f"{ad.shape} vs {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {ad.shape} vs {bd.shape}")
    data = ad @ bd
    if not _track(a, b):
        return Tensor(data)
    return _make(data, (a, b), _matmul_backward(a, b))


def _matmul_backward(a: Tensor, b: Tensor):
    """The backward of the node ``a @ b``."""
    def backward(g):
        if _needs_grad(a):
            a._accum(g @ b.data.T)
        if _needs_grad(b):
            b._accum(_weight_grad(a.data, g))

    return backward


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum()
    if not _track(a):
        return Tensor(data)
    return _make(data, (a,), lambda g: a._accum(np.full_like(a.data, g)))


def tmean(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    data = a.data.mean()
    if not _track(a):
        return Tensor(data)
    return _make(data, (a,), lambda g: a._accum(np.full_like(a.data, g / n)))


def mean_axis0(a: Tensor) -> Tensor:
    """Column means of a 2-D tensor."""
    a = _as_tensor(a)
    n = a.data.shape[0]
    data = np.add.reduce(a.data, axis=0) / n
    if not _track(a):
        return Tensor(data)
    return _make(data, (a,), lambda g: a._accum(np.broadcast_to(g / n, a.data.shape)))


# -- nonlinearities -----------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


# The kernels below compute in place on their own temporaries, with the ops
# of the plain expressions in their comments in the same order (a product
# or sum with its operands swapped is the same IEEE operation).

def _gelu_forward(x):
    # t = tanh(C * (x + 0.044715 * (x * x * x))); y = 0.5 * x * (1.0 + t)
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= 0.5 * x
    return y, t


def _gelu_derivative(g, x, t):
    # dinner = C * (1.0 + 3 * 0.044715 * (x * x))
    # g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)
    dinner = x * x
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= _GELU_C
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    half_x = 0.5 * x
    half_x *= slope
    half_x *= dinner
    d = t + 1.0
    d *= 0.5
    d += half_x
    d *= g
    return d


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU."""
    a = _as_tensor(a)
    y, t = _gelu_forward(a.data)
    if not _track(a):
        return Tensor(y)
    return _make(y, (a,), lambda g: a._accum(_gelu_derivative(g, a.data, t)))


# -- softmax family -----------------------------------------------------------

def _softmax_rows(x, mask):
    if x.size == 0:
        raise ShapeError("softmax of an empty tensor")
    # one new array, updated in place: attention over a packed batch is [T x T];
    # the reductions skip the Python-level wrappers of x.max and x.sum
    if mask is None:
        y = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    else:
        y = x + mask
        y -= np.maximum.reduce(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y


def _softmax_derivative(g, y):
    # y * (g - (g * y).sum(axis=-1, keepdims=True))
    d = g * y
    np.subtract(g, np.add.reduce(d, axis=-1, keepdims=True), out=d)
    d *= y
    return d


def softmax(a: Tensor) -> Tensor:
    """Row-wise (last axis) softmax with max subtraction."""
    a = _as_tensor(a)
    y = _softmax_rows(a.data, None)
    if not _track(a):
        return Tensor(y)
    return _make(y, (a,), _softmax_backward(a, y))


def _softmax_backward(a: Tensor, y):
    """The backward of the node ``y``, the softmax of ``a``."""
    return lambda g: a._accum(_softmax_derivative(g, y))


def router_softmaxes(X: Tensor, weights: list[Tensor]):
    """The logits ``matmul(X, W)`` and their row softmaxes for G [d x n]
    routers W over one [B x d] batch, computed in one pass: one product of X
    with the [G x d x n] stack of the weights and one softmax over the
    [G x B x n] logits, whose slices equal the per-router ops bit for bit.

    Returns (logits, probs, the [G x B x n] probs): one Tensor per router in
    each list, which with a tape are the per-router chain's own nodes, a
    matmul node of parents (X, W) under a softmax node, each with that op's
    backward; a router that no gradient can reach builds neither."""
    X = _as_tensor(X)
    shapes = [W.data.shape for W in weights]
    if not (shapes and X.data.ndim == 2 and shapes.count(shapes[0]) == len(shapes)
            and len(shapes[0]) == 2 and shapes[0][0] == X.data.shape[1]):
        raise ShapeError(f"token batch shape {X.data.shape} incompatible with routers "
                         f"{shapes}")
    logits = X.data @ np.array([W.data for W in weights])
    probs = _softmax_rows(logits, None)
    logit_nodes, prob_nodes = [], []
    for W, z, p in zip(weights, logits, probs):
        if _track(X, W):
            z = _make(z, (X, W), _matmul_backward(X, W))
            p = _make(p, (z,), _softmax_backward(z, p))
        else:
            z, p = Tensor(z), Tensor(p)
        logit_nodes.append(z)
        prob_nodes.append(p)
    return logit_nodes, prob_nodes, probs


def normalize_rows(a: Tensor) -> Tensor:
    """Divide each row (last axis) by its sum."""
    a = _as_tensor(a)
    total = np.add.reduce(a.data, axis=-1, keepdims=True)
    y = a.data / total
    if not _track(a):
        return Tensor(y)
    return _make(y, (a,), lambda g: a._accum(
        (g - np.add.reduce(g * y, axis=-1, keepdims=True)) / total))


def logsumexp(a: Tensor) -> Tensor:
    """Row-wise (last axis) logsumexp; returns shape ``a.shape[:-1]``."""
    a = _as_tensor(a)
    if a.data.size == 0:
        raise ShapeError("logsumexp of an empty tensor")
    m = a.data.max(axis=-1, keepdims=True)
    s = np.exp(a.data - m).sum(axis=-1, keepdims=True)
    data = (m + np.log(s)).squeeze(-1)
    if not _track(a):
        return Tensor(data)

    def backward(g):
        soft = np.exp(a.data - m) / s
        a._accum(np.expand_dims(g, -1) * soft)

    return _make(data, (a,), backward)


# -- losses -------------------------------------------------------------------

def mse(pred: Tensor, target: Tensor) -> Tensor:
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse shape mismatch: {pred.data.shape} vs {target.data.shape}")
    d = sub(pred, target)
    return tmean(mul(d, d))


def cross_entropy_rows(logits: Tensor, target_ids, row_weights=None) -> Tensor:
    """Mean cross-entropy over rows of a 2-D logit matrix, or, given
    ``row_weights``, the sum of the rows' cross-entropies weighted by them."""
    logits = _as_tensor(logits)
    n_rows, n_cls = logits.data.shape
    ids = np.asarray(target_ids, dtype=np.int64)
    if ids.shape != (n_rows,):
        raise ShapeError(f"need {n_rows} targets, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= n_cls:
        raise IndexError(f"target id out of range for {n_cls} classes")
    lse = logsumexp(logits)  # [rows]
    flat = ids + np.arange(n_rows) * n_cls
    picked = take(logits, flat)
    if row_weights is None:
        return scale(sub(tsum(lse), tsum(picked)), 1.0 / n_rows)
    w = np.asarray(row_weights, dtype=np.float64)
    if w.shape != (n_rows,):
        raise ShapeError(f"need {n_rows} row weights, got shape {w.shape}")
    return tsum(mul(sub(lse, picked), Tensor(w)))


# -- indexing -----------------------------------------------------------------

def index_rows(a: Tensor, idx) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]
    if not _track(a):
        return Tensor(data)

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        a._accum(buf)

    return _make(data, (a,), backward)


def take(a: Tensor, flat_idx) -> Tensor:
    """Gather elements by flat (row-major) index; backward scatter-adds."""
    a = _as_tensor(a)
    flat_idx = np.asarray(flat_idx, dtype=np.int64)
    data = a.data.reshape(-1)[flat_idx]
    if not _track(a):
        return Tensor(data)

    def backward(g):
        buf = np.zeros(a.data.size)
        np.add.at(buf, flat_idx, g)
        a._accum(buf.reshape(a.data.shape))

    return _make(data, (a,), backward)


def scatter(values: Tensor, flat_idx, shape) -> Tensor:
    """Place ``values`` at flat (row-major) positions of an all-zero tensor
    of ``shape``; ``flat_idx`` has the shape of ``values``.

    Duplicate indices add, making this the adjoint of take.
    """
    values = _as_tensor(values)
    flat_idx = np.asarray(flat_idx, dtype=np.int64)
    if flat_idx.shape != values.data.shape:
        raise ShapeError(f"{flat_idx.shape} indices for values of shape {values.data.shape}")
    data = np.bincount(flat_idx.reshape(-1), weights=values.data.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)
    if not _track(values):
        return Tensor(data)
    return _make(data, (values,), lambda g: values._accum(g.reshape(-1)[flat_idx]))


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenate tensors along their last axis."""
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=-1)
    if not _track(*parts):
        return Tensor(data)
    widths = [p.data.shape[-1] for p in parts]

    def backward(g):
        off = 0
        for p, w in zip(parts, widths):
            if _needs_grad(p):
                p._accum(g[..., off:off + w])
            off += w

    return _make(data, tuple(parts), backward)


def stack_slice(stack: Tensor, i: int) -> Tensor:
    """Slice ``i`` of a stack along its leading axis; backward places the
    gradient in that slice of an all-zero stack."""
    stack = _as_tensor(stack)
    data = stack.data[i]
    if not _track(stack):
        return Tensor(data)

    def backward(g):
        buf = np.zeros_like(stack.data)
        buf[i] = g
        stack._accum(buf)

    return _make(data, (stack,), backward)


# -- normalization ------------------------------------------------------------

def standardize_rows(a: Tensor, residual: Tensor | None = None) -> Tensor:
    """Zero-mean unit-variance per row (last axis) of ``a``, or of
    ``a + residual`` (same shape) as one node, with no learned affine; the
    variance takes an epsilon of 1e-6."""
    a = _as_tensor(a)
    x, operands = a.data, (a,)
    if residual is not None:
        residual = _as_tensor(residual)
        if residual.data.shape != x.shape:
            raise ShapeError(f"residual {residual.data.shape} for rows of shape {x.shape}")
        x, operands = x + residual.data, (a, residual)
    n = x.shape[-1]
    # the arithmetic of x.mean and x.var without their Python-level wrappers:
    # centered = x - mean, inv = 1.0 / sqrt(var + 1e-6), y = centered * inv.
    # Only the row-sized arrays are updated in place: on a one-element array
    # (the statistics of one row) an in-place op costs more than a new one.
    mean = np.add.reduce(x, axis=-1, keepdims=True) / n
    if residual is None:
        y = x - mean
    else:  # x is this op's own sum
        y = x
        y -= mean
    inv = 1.0 / np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True) / n + 1e-6)
    y *= inv
    if not _track(*operands):
        return Tensor(y)

    def backward(g):
        # gx = inv * (g - gm - y * gy), gm and gy the row means of g and g * y
        gm = np.add.reduce(g, axis=-1, keepdims=True) / n
        gyy = g * y
        gy = np.add.reduce(gyy, axis=-1, keepdims=True) / n
        gx = g - gm
        gx -= np.multiply(y, gy, out=gyy)
        gx *= inv
        for t in operands:
            if _needs_grad(t):
                t._accum(gx)

    return _make(y, operands, backward)


# -- fused layers -------------------------------------------------------------
# One node each, with the numpy arithmetic, in the same order, of the chain of
# primitive ops it stands for, so results agree with that chain bit for bit.

def attention(Q: Tensor, K: Tensor, V: Tensor, mask=None, stacks=None) -> Tensor:
    """Single-head scaled dot-product attention, softmax(Q K^T / sqrt(d) +
    mask) V, of 2-D operands or of [n x T x d] stacks, slice by slice.

    ``mask`` is an optional [Tq x Tk] array of 0/-inf added to the scores
    (causal decoding, and keeping packed sequences apart). Only operands
    that can reach a parameter get a gradient, so cached keys and values
    stay constants.

    ``stacks``, a list of (n, T), reads [R x d] operands as stacks laid end
    to end, R the sum of n * T: each run of n * T rows attends as its own
    [n x T x d] stack, with no mask, into the same rows of the [R x d]
    result. That form has no backward: under a tape it raises ShapeError.
    """
    Q, K, V = _as_tensor(Q), _as_tensor(K), _as_tensor(V)
    if stacks is not None:
        return _stacks_attention(Q, K, V, mask, stacks)
    qs, ks, vs = Q.data.shape, K.data.shape, V.data.shape
    rank = len(qs)
    if not (rank == len(ks) == len(vs) and rank in (2, 3)):
        raise ShapeError(f"attention expects 2-D Q, K, V, or three 3-D stacks: "
                         f"Q {qs}, K {ks}, V {vs}")
    d = qs[-1]
    if d == 0:
        raise ShapeError("attention feature dimension must be positive")
    if (ks[-1] != d or vs[-2] != ks[-2]
            or rank == 3 and not qs[0] == ks[0] == vs[0]):
        raise ShapeError(f"attention dims disagree: Q {qs}, K {ks}, V {vs}")
    c = 1.0 / math.sqrt(d)
    scores = Q.data @ K.data.swapaxes(-1, -2)
    scores *= c
    p = _softmax_rows(scores, mask)
    data = p @ V.data
    if not _track(Q, K, V):
        return Tensor(data)

    def backward(g):
        if _needs_grad(V):
            V._accum(p.swapaxes(-1, -2) @ g)
        if not (_needs_grad(Q) or _needs_grad(K)):
            return
        gs = _softmax_derivative(g @ V.data.swapaxes(-1, -2), p) * c
        if _needs_grad(Q):
            Q._accum(gs @ K.data)
        if _needs_grad(K):
            # a transposed view, as the transpose node of the chain in
            # tests/test_fused_ops.py passes it on: the copy _accum makes
            # keeps that memory order
            K._accum((Q.data.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))

    return _make(data, (Q, K, V), backward)


def _stacks_attention(Q: Tensor, K: Tensor, V: Tensor, mask, stacks) -> Tensor:
    """``attention`` of [R x d] operands read as the (n, T) ``stacks``."""
    shape = Q.data.shape
    if mask is not None or _track(Q, K, V):
        raise ShapeError("attention over stacks takes no mask and has no backward")
    if not (len(shape) == 2 and K.data.shape == V.data.shape == shape
            and stacks and all(n >= 1 and t >= 1 for n, t in stacks)
            and sum(n * t for n, t in stacks) == shape[0]):
        raise ShapeError(f"stacks {stacks} do not tile Q {shape}, K {K.data.shape}, "
                         f"V {V.data.shape}")
    out = np.empty(shape)
    start = 0
    for n, t in stacks:
        end = start + n * t
        view = (n, t, shape[1])
        q, k, v = (x.data[start:end].reshape(view) for x in (Q, K, V))
        out[start:end] = attention(q, k, v).data.reshape(-1, shape[1])
        start = end
    return Tensor(out)


def ffn(x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer GELU feed-forward network gelu(x W1 + b1) W2 + b2 of an
    [n x d] row batch or an [n x T x d] stack."""
    x, W1, b1, W2, b2 = (_as_tensor(t) for t in (x, W1, b1, W2, b2))
    if not (x.data.ndim in (2, 3) and W1.data.ndim == 2 and W2.data.ndim == 2
            and x.data.shape[-1] == W1.data.shape[0] and b1.data.shape == W1.data.shape[1:]
            and W2.data.shape[0] == W1.data.shape[1] and b2.data.shape == W2.data.shape[1:]):
        raise ShapeError(f"ffn shapes disagree: x {x.data.shape}, W1 {W1.data.shape}, "
                         f"b1 {b1.data.shape}, W2 {W2.data.shape}, b2 {b2.data.shape}")
    pre = x.data @ W1.data + b1.data
    hidden, t = _gelu_forward(pre)
    data = hidden @ W2.data + b2.data
    if not _track(x, W1, b1, W2, b2):
        return Tensor(data)

    def backward(g):
        if _needs_grad(b2):
            b2._accum(_unbroadcast(g, b2.data.shape))
        if _needs_grad(W2):
            W2._accum(_weight_grad(hidden, g))
        if not (_needs_grad(x) or _needs_grad(W1) or _needs_grad(b1)):
            return
        gpre = _gelu_derivative(g @ W2.data.T, pre, t)
        if _needs_grad(b1):
            b1._accum(_unbroadcast(gpre, b1.data.shape))
        if _needs_grad(x):
            x._accum(gpre @ W1.data.T)
        if _needs_grad(W1):
            W1._accum(_weight_grad(x.data, gpre))

    return _make(data, (x, W1, b1, W2, b2), backward)


def moe_combine(X: Tensor, weights: Tensor, selected, experts, counts) -> Tensor:
    """Routed expert mixture of a [B x d] batch: row t is the sum over j of
    weights[t, j] * ffn_e(x_t), e = selected[t, j], where ``experts[e]`` is
    expert e's (W1, b1, W2, b2) and no row selects one expert twice.
    ``counts`` is the list of how many rows select each expert
    (``selected``'s bincount over all experts).

    Each selected expert runs once, on the rows that selected it, and one
    GELU runs over all of those rows. The chain it stands for gathers each
    expert's rows (``index_rows``), runs ``ffn`` on them, weights the
    concatenated outputs (``take`` and ``mul``) and scatter-adds them into
    [B x d], experts in ascending order.
    """
    X, weights = _as_tensor(X), _as_tensor(weights)
    selected = np.asarray(selected, dtype=np.int64)
    if not (selected.ndim == 2 and weights.data.shape == selected.shape
            and X.data.ndim == 2 and X.data.shape[0] == selected.shape[0]):
        raise ShapeError(f"moe_combine shapes disagree: X {X.data.shape}, weights "
                         f"{weights.data.shape}, selected {selected.shape}")
    B, k = selected.shape
    flat = selected.ravel()
    # selection positions grouped by expert in ascending order, with tokens
    # ascending inside each group; expert e holds positions s:t of them
    order = np.argsort(flat, kind="stable")
    rows = order // k
    if len(counts) != len(experts) or sum(counts) != flat.size:
        raise ShapeError(f"{len(counts)} expert counts of {sum(counts)} rows for "
                         f"{len(experts)} experts and {flat.size} selections")
    spans, end = [], 0
    for e, n in enumerate(counts):
        if n:
            spans.append((experts[e], end, end + n))
            end += n
    xs = X.data[rows]
    pre = np.concatenate([xs[s:t] @ W1.data + b1.data for (W1, b1, _, _), s, t in spans])
    hidden, tanh = _gelu_forward(pre)
    out = np.concatenate([hidden[s:t] @ W2.data + b2.data
                          for (_, _, W2, b2), s, t in spans])
    w = weights.data.reshape(-1)[order, None]
    weighted = out * w
    data = np.zeros((B, X.data.shape[1]))
    for _, s, t in spans:
        data[rows[s:t]] += weighted[s:t]
    params = [p for ps, _, _ in spans for p in ps]
    if not _track(X, weights, *params):
        return Tensor(data)

    def backward(g):
        gm = g[rows]
        if _needs_grad(weights):
            buf = np.zeros(B * k)
            buf[order] += (gm * out).sum(axis=1)
            weights._accum(buf.reshape(B, k))
        gout = gm * w
        first_layer = _needs_grad(X) or any(
            _needs_grad(p) for ps, _, _ in spans for p in ps[:2])
        ghidden = []
        for (_, _, W2, b2), s, t in spans:
            if _needs_grad(b2):
                b2._accum(_unbroadcast(gout[s:t], b2.data.shape))
            if _needs_grad(W2):
                W2._accum(hidden[s:t].T @ gout[s:t])
            if first_layer:
                ghidden.append(gout[s:t] @ W2.data.T)
        if not first_layer:
            return
        gpre = _gelu_derivative(np.concatenate(ghidden), pre, tanh)
        # X's rows are added expert by expert, as the chain's index_rows
        # backwards add their zero-filled buffers; the + 0.0 is their
        # zeros' effect on a -0.0 gradient
        gX = None
        if _needs_grad(X):
            gX = np.zeros_like(X.data) if X.grad is None else X.grad + 0.0
        for (W1, b1, _, _), s, t in spans:
            if _needs_grad(b1):
                b1._accum(_unbroadcast(gpre[s:t], b1.data.shape))
            if gX is not None:
                gX[rows[s:t]] += gpre[s:t] @ W1.data.T
            if _needs_grad(W1):
                W1._accum(xs[s:t].T @ gpre[s:t])
        if gX is not None:
            X.grad = gX

    return _make(data, (X, weights, *params), backward)


# -- router losses ------------------------------------------------------------
# One node per loss term, in the pattern of the fused layers: the forward runs
# the numpy arithmetic of the primitive-op chain, and the backward hands each
# operand the array, and in the order, that the chain's backward would.

def load_balancing(probs: list[Tensor], f) -> Tensor:
    """Switch-style load balancing summed over expert groups: n * sum_i
    f[g, i] P_i for each group g, P the column means of the [B x n]
    ``probs[g]`` and f a constant [G x n] array of top-1 frequencies.

    The chain it stands for is ``scale(tsum(mul(f[g], mean_axis0(probs[g]))),
    n)`` per group, added in group order."""
    probs = [_as_tensor(p) for p in probs]
    f = np.asarray(f, dtype=np.float64)
    if not (probs and len(f) == len(probs)
            and all(p.data.ndim == 2 and p.data.shape[1:] == fg.shape
                    for p, fg in zip(probs, f))):
        raise ShapeError(f"load balancing of probs {[p.data.shape for p in probs]} "
                         f"against frequencies {f.shape}")
    total = None
    for p, fg in zip(probs, f):
        P = np.add.reduce(p.data, axis=0) / p.data.shape[0]
        term = (fg * P).sum() * float(fg.shape[0])
        total = term if total is None else total + term
    if not _track(*probs):
        return Tensor(total)

    def backward(g):
        for p, fg in zip(probs, f):
            if _needs_grad(p):
                # the chain's np.full_like(fg, g * n) * fg, one product per entry
                gP = (g * float(fg.shape[0])) * fg
                p._accum(np.broadcast_to(gP / p.data.shape[0], p.data.shape))

    return _make(total, tuple(probs), backward)


def load_biasing(q: Tensor, terms) -> Tensor:
    """The sum, from 0, of 1 - w * Q[group] over ``terms`` of (rows, group,
    w), Q the column means of the rows ``rows`` of the [B x G] ``q`` (all of
    them when rows is None) and w a constant.

    The chain it stands for is ``index_rows`` of the rows (none for all),
    ``mean_axis0``, ``take`` of the group, ``tsum``, ``scale`` by w and
    ``sub`` from 1, each term added in order to a constant 0."""
    q = _as_tensor(q)
    if q.data.ndim != 2 or not all(0 <= group < q.data.shape[1] for _, group, _ in terms):
        raise ShapeError(f"load biasing terms {[t[1] for t in terms]} for group "
                         f"probabilities of shape {q.data.shape}")
    terms = [(None if rows is None else np.asarray(rows, dtype=np.int64), group, w)
             for rows, group, w in terms]
    total = np.asarray(0.0)
    for rows, group, w in terms:
        x = q.data if rows is None else q.data[rows]
        Q = np.add.reduce(x, axis=0) / x.shape[0]
        # a one-entry sum, as the chain's take and tsum: -0.0 becomes 0.0
        total = total + (np.asarray(1.0) - Q[group:group + 1].sum() * w)
    if not (terms and _track(q)):
        return Tensor(total)

    def backward(g):
        for rows, group, w in terms:
            gQ = np.zeros(q.data.shape[1])
            gQ[group] += (-g) * w
            gQ = gQ / (q.data.shape[0] if rows is None else rows.size)
            if rows is None:
                q._accum(np.broadcast_to(gQ, q.data.shape))
            else:  # the zero-filled scatter of index_rows' backward
                buf = np.zeros_like(q.data)
                buf[rows] += gQ
                q._accum(buf)

    return _make(total, (q,), backward)


def squared_logsumexp(a: Tensor, row_weights=None) -> Tensor:
    """Router z-loss of a [rows x n] logit matrix: the squared logsumexp of
    each row, averaged, or summed weighted by the constant ``row_weights``.

    The chain it stands for is ``logsumexp``, ``mul`` of it with itself, then
    ``tmean``, or ``mul`` by the weights and ``tsum``."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.size == 0:
        raise ShapeError(f"squared logsumexp needs a non-empty [rows x n] logit matrix, "
                         f"got shape {a.data.shape}")
    w = None if row_weights is None else np.asarray(row_weights, dtype=np.float64)
    if w is not None and w.shape != a.data.shape[:1]:
        raise ShapeError(f"{w.shape} row weights for {a.data.shape[0]} rows")
    m = np.maximum.reduce(a.data, axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    lse = (m + np.log(s)).squeeze(-1)
    sq = lse * lse
    data = sq.mean() if w is None else (sq * w).sum()
    if not _track(a):
        return Tensor(data)

    def backward(g):
        gsq = np.full_like(sq, g / sq.size) if w is None else g * w
        # the product's backward adds its two equal halves
        glse = gsq * lse
        glse += glse
        a._accum(glse[:, None] * (e / s))

    return _make(data, (a,), backward)


def router_loss_total(ce: Tensor, balance: list[Tensor], bias: list[Tensor],
                      z: list[Tensor], c_balance: float, c_bias: float, c_z: float):
    """(ce + c_balance * B) + (c_bias * S + c_z * Z) as one node, B, S and Z
    the means of the scalar tensors in ``balance``, ``bias`` and ``z``
    (0 for an empty list). Returns the total and the three means.

    The chain it stands for adds each list in order and scales the sum by
    1 / its length, then scales and adds the terms in the order above. Its
    arithmetic is on Python floats, the same IEEE doubles as numpy's."""
    ce = _as_tensor(ce)
    groups = [[_as_tensor(t) for t in ts] for ts in (balance, bias, z)]
    coefs = (c_balance, c_bias, c_z)
    operands = (ce, *(t for ts in groups for t in ts))
    if any(t.data.shape != () for t in operands):
        raise ShapeError("router loss total takes scalar terms")
    means = []
    for ts in groups:
        acc = 0.0
        if ts:
            acc = float(ts[0].data)
            for t in ts[1:]:
                acc += float(t.data)
            acc *= 1.0 / len(ts)
        means.append(acc)
    (b, s, zm), (cb, cs, cz) = means, coefs
    data = (float(ce.data) + b * cb) + (s * cs + zm * cz)
    means = [np.asarray(m) for m in means]
    if not _track(*operands):
        return Tensor(data), means

    def backward(g):
        if _needs_grad(ce):
            ce._accum(g)
        for ts, c in zip(groups, coefs):
            if ts:
                gt = (float(g) * c) * (1.0 / len(ts))
                for t in ts:
                    if _needs_grad(t):
                        t._accum(gt)

    return _make(data, operands, backward), means


# -- gradient checking --------------------------------------------------------

def grad_check(f, x: Tensor, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor. Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if not np.isfinite(out.data).all():
        raise NumericError("function value is not finite at x")
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(Tensor(flat.reshape(x.data.shape))).data)
            flat[i] = orig - eps
            fm = float(f(Tensor(flat.reshape(x.data.shape))).data)
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericError(f"non-finite evaluation at coordinate {i}")
            numeric[i] = (fp - fm) / (2 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
