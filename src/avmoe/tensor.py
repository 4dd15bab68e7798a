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
stack on as a [T x d] tensor.

The model's hot layers are fused ops, one node each with a hand-written
backward: ``attention`` (scores, softmax and the value product), ``ffn``
(both projections, biases and the GELU between them) and
``standardize_rows`` with an optional residual operand (the add before the
norm). Each runs the numpy arithmetic of the primitive-op chain it stands
for, in the same order; ``tests/test_fused_ops.py`` builds those chains and
checks the fused ops against them bit for bit.
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
        for node in reversed(topo):
            if node.grad is not None:
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

    def backward(g):
        if _needs_grad(a):
            a._accum(g @ b.data.T)
        if _needs_grad(b):
            b._accum(_weight_grad(a.data, g))

    return _make(data, (a, b), backward)


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


def _gelu_forward(x):
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t), t


def _gelu_derivative(g, x, t):
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return g * d


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
    # one new array, updated in place: attention over a packed batch is [T x T]
    if mask is None:
        y = x - x.max(axis=-1, keepdims=True)
    else:
        y = x + mask
        y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_derivative(g, y):
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def softmax(a: Tensor, mask=None) -> Tensor:
    """Row-wise (last axis) softmax with max subtraction, of ``a + mask``
    when a constant ``mask`` is given."""
    a = _as_tensor(a)
    y = _softmax_rows(a.data, mask)
    if not _track(a):
        return Tensor(y)
    return _make(y, (a,), lambda g: a._accum(_softmax_derivative(g, y)))


def normalize_rows(a: Tensor) -> Tensor:
    """Divide each row (last axis) by its sum."""
    a = _as_tensor(a)
    total = a.data.sum(axis=-1, keepdims=True)
    y = a.data / total
    if not _track(a):
        return Tensor(y)
    return _make(y, (a,), lambda g: a._accum(
        (g - (g * y).sum(axis=-1, keepdims=True)) / total))


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


def scatter_rows(rows: Tensor, idx, n_rows: int) -> Tensor:
    """Place ``rows`` at positions ``idx`` of an all-zero [n_rows x d] tensor.

    Duplicate indices add, making this the adjoint of index_rows.
    """
    rows = _as_tensor(rows)
    idx = np.asarray(idx, dtype=np.int64)
    data = np.zeros((n_rows, rows.data.shape[1]))
    np.add.at(data, idx, rows.data)
    if not _track(rows):
        return Tensor(data)
    return _make(data, (rows,), lambda g: rows._accum(g[idx]))


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=0)
    if not _track(*parts):
        return Tensor(data)
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, n in zip(parts, sizes):
            if _needs_grad(p):
                p._accum(g[off:off + n])
            off += n

    return _make(data, tuple(parts), backward)


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

def standardize_rows(a: Tensor, residual: Tensor | None = None,
                     eps: float = 1e-6) -> Tensor:
    """Zero-mean unit-variance per row (last axis) of ``a``, or of
    ``a + residual`` (same shape) as one node, with no learned affine."""
    a = _as_tensor(a)
    x, operands = a.data, (a,)
    if residual is not None:
        residual = _as_tensor(residual)
        if residual.data.shape != x.shape:
            raise ShapeError(f"residual {residual.data.shape} for rows of shape {x.shape}")
        x, operands = x + residual.data, (a, residual)
    n = x.shape[-1]
    # the arithmetic of x.mean and x.var without their Python-level wrappers
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    if not _track(*operands):
        return Tensor(y)

    def backward(g):
        gm = np.add.reduce(g, axis=-1, keepdims=True) / n
        gy = np.add.reduce(g * y, axis=-1, keepdims=True) / n
        gx = inv * (g - gm - y * gy)
        for t in operands:
            if _needs_grad(t):
                t._accum(gx)

    return _make(y, operands, backward)


# -- fused layers -------------------------------------------------------------
# One node each, with the numpy arithmetic, in the same order, of the chain of
# primitive ops it stands for, so results agree with that chain bit for bit.

def attention(Q: Tensor, K: Tensor, V: Tensor, mask=None) -> Tensor:
    """Single-head scaled dot-product attention, softmax(Q K^T / sqrt(d) +
    mask) V, of 2-D operands or of [n x T x d] stacks, slice by slice.

    ``mask`` is an optional [Tq x Tk] array of 0/-inf added to the scores
    (causal decoding, and keeping packed sequences apart). Only operands
    that can reach a parameter get a gradient, so cached keys and values
    stay constants.
    """
    Q, K, V = _as_tensor(Q), _as_tensor(K), _as_tensor(V)
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
    p = _softmax_rows((Q.data @ K.data.swapaxes(-1, -2)) * c, mask)
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
