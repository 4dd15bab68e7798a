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
``input_fusion``, ``attention_block``, ``ffn_block``, ``ffn`` and
``standardize_rows`` work on [n x T x d] operands, each
slice with the arithmetic of the 2-D op, so a stacked forward equals the
per-slice forwards bit for bit. A weight's gradient is one gemm over all
n*T rows. ``stack_slice`` hands slice i of a stack on as a [T x d] tensor.
With no tape, ``attention_block`` also reads an [R x d] input as stacks of
any lengths laid end to end (its ``stacks`` argument): its products run
once over the rows of all of them, and each stack attends on its own.

The model's hot layers are fused ops, one node each with a hand-written
backward: the encoder's input stage ``input_fusion`` (both modality
projections, their concatenation and the fusion product), the sub-blocks
``attention_block`` (the Q, K and V products, scores, softmax, the value
and output products, the residual add and the standardization; keys and
values computed inside or passed in as operands) and ``ffn_block`` (the
FFN, the residual add and the standardization), ``ffn`` (both
projections, biases and the GELU between them), ``standardize_rows`` (the
residual add and the norm after it) and ``moe_combine`` (every routed
expert's FFN on its rows, with one GELU over all of them, weighted and
summed per row). So is each router-loss term of
the supervised step: ``load_balancing`` (into each group's slice of the
stacked probabilities), ``load_biasing`` (into the inter-router
probabilities of each subset's rows) and ``squared_logsumexp`` (the z-loss,
into one router's slice of the stacked logits), and so are
the other losses: ``cross_entropy_rows``, ``head_mse`` (one uptraining
task's head product, frame gather and MSE, read from its slice of the
student stack) and ``loss_total``, the weighted total of four loss
columns' means that ends both training steps (the CE and the router losses'
layer means, or the uptraining task columns). Each runs the numpy
arithmetic of the primitive-op chain it stands for, in the same order, and
hands each operand the gradient that chain's backward would. The chains
are the tests' oracle: ``tests/chains.py`` builds them, with the primitive
ops that only they use (``tmean``, ``mean_axis0``, ``logsumexp``,
``softmax``, ``concat_cols`` and ``standardize``, the one-operand norm,
which no run calls), and ``tests/test_fused_ops.py`` checks each fused op
against its chain bit for bit. ``router_softmaxes`` is the
one router op: one logits node and one probabilities node for a family of
routers held as one [G x d x n] parameter, standing for each router's own
matmul and softmax nodes; the ops that read one router read its slice by
index, with no slice node.
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

    No op writes the ``data`` of an operand or of a tensor it made. Only
    parameters are written, in place and off the tape: by the optimizers'
    steps, ``distill.make_teacher`` and ``distill.ema_update``,
    ``Model.load_state_dict`` and ``trainer.build_model``'s identical-expert
    init. The optimizers' constructor rebinds each parameter's ``data`` to a
    view of one packed vector; every later writer writes into ``data``.

    ``grad_out`` is None, or the array an optimizer bound the parameter to:
    its slice of the optimizer's gradient vector. The first gradient
    contribution of a backward pass is copied there instead of into a new
    array, and each later one is added into it in place, the same IEEE sum
    as the new array ``grad + g`` any other tensor makes.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "grad_out")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self.grad_out = None

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
            if self.grad_out is None:
                self.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                self.grad_out[...] = g
                self.grad = self.grad_out
        elif self.grad is self.grad_out:
            np.add(self.grad, g, out=self.grad)
        else:
            self.grad = self.grad + g

    def _accum_at(self, i, g):
        """Add ``g`` into slice i of the gradient, as ``stack_slice`` would."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            self.grad[i] = g
        else:
            self.grad[i] += g


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
    # np.add.reduce is the reduction ndarray.sum calls, without its wrapper
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = np.add.reduce(g, axis=ax, keepdims=True)
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


def router_softmaxes(X: Tensor, W: Tensor):
    """The logits ``X @ W`` of one [B x d] batch and their row softmaxes,
    for one [d x n] router or a [G x d x n] family of routers: the op of
    every router. Each slice equals its router's own matmul and softmax bit
    for bit.

    Returns (logits, probs), with a tape a logits node of parents (X, W)
    under a probs node. The logits' backward gives W its gradient in one
    batched product, and X one term per router in router order, as the
    per-router chain's walk reaches each router's matmul node."""
    X, W = _as_tensor(X), _as_tensor(W)
    xd, wd = X.data, W.data
    if not (xd.ndim == 2 and wd.ndim in (2, 3) and wd.shape[-2] == xd.shape[1]):
        raise ShapeError(f"token batch shape {xd.shape} incompatible with routers {wd.shape}")
    logits = xd @ wd
    probs = _softmax_rows(logits, None)
    if not _track(X, W):
        return Tensor(logits), Tensor(probs)

    def backward(g):
        if _needs_grad(X):
            n = wd.shape[-1]
            for gi, Wi in zip(g.reshape(-1, xd.shape[0], n), wd.reshape(-1, xd.shape[1], n)):
                X._accum(gi @ Wi.T)
        if _needs_grad(W):
            W._accum(np.matmul(xd.T, g))

    z = _make(logits, (X, W), backward)
    return z, _make(probs, (z,), lambda g: z._accum(_softmax_derivative(g, probs)))


def normalize_rows(a: Tensor) -> Tensor:
    """Divide each row (last axis) by its sum."""
    a = _as_tensor(a)
    total = np.add.reduce(a.data, axis=-1, keepdims=True)
    y = a.data / total
    if not _track(a):
        return Tensor(y)
    return _make(y, (a,), lambda g: a._accum(
        (g - np.add.reduce(g * y, axis=-1, keepdims=True)) / total))


def _logsumexp_rows(a):
    """Row-wise (last axis) logsumexp of the array ``a``, with e = exp(a - max)
    and its row sums s, whose ratio e / s is the rows' softmax."""
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    e = np.exp(a - m)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    return (m + np.log(s)).squeeze(-1), e, s


# -- losses -------------------------------------------------------------------
# One node per loss, in the pattern of the fused layers below: the forward runs
# the numpy arithmetic of the primitive-op chain, and the backward hands each
# operand the array, and in the order, that the chain's backward would.

def cross_entropy_rows(logits: Tensor, target_ids, row_weights=None) -> Tensor:
    """Mean cross-entropy over rows of a 2-D logit matrix, or, given
    ``row_weights``, the sum of the rows' cross-entropies weighted by them.

    The chain it stands for is ``logsumexp`` of the rows and ``take`` of each
    row's target logit, then ``scale(sub(tsum(lse), tsum(picked)), 1 / rows)``,
    or ``tsum(mul(sub(lse, picked), row_weights))``."""
    logits = _as_tensor(logits)
    a = logits.data
    n_rows, n_cls = a.shape
    ids = np.asarray(target_ids, dtype=np.int64)
    if ids.shape != (n_rows,):
        raise ShapeError(f"need {n_rows} targets, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= n_cls:
        raise IndexError(f"target id out of range for {n_cls} classes")
    w = None if row_weights is None else np.asarray(row_weights, dtype=np.float64)
    if w is not None and w.shape != (n_rows,):
        raise ShapeError(f"need {n_rows} row weights, got shape {w.shape}")
    lse, e, s = _logsumexp_rows(a)
    flat = ids + np.arange(n_rows) * n_cls
    picked = a.reshape(-1)[flat]
    if w is None:
        data = (lse.sum() - picked.sum()) * (1.0 / n_rows)
    else:
        data = ((lse - picked) * w).sum()
    if not _track(logits):
        return Tensor(data)

    def backward(g):
        glse = np.full_like(lse, g * (1.0 / n_rows)) if w is None else np.full_like(lse, g) * w
        # take's zero-filled scatter of -glse, added to logsumexp's gradient
        gpicked = np.zeros(a.size)
        gpicked[flat] += -glse
        ga = np.expand_dims(glse, -1) * (e / s)
        ga += gpicked.reshape(a.shape)
        logits._accum(ga)

    return _make(data, (logits,), backward)


def head_mse(stack: Tensor, i: int, head: Tensor, targets, rows) -> Tensor:
    """mean(((stack[i] @ head)[rows] - targets[rows]) ** 2): the mean squared
    error between the rows ``rows`` (distinct) of slice i of an [n x T x d]
    stack through a [d x m] head and the same rows of the constant [T x m]
    ``targets``.

    The chain it stands for is ``stack_slice``, ``matmul`` by the head over
    all T rows (a one-row product takes another BLAS path than a gemm row),
    ``index_rows``, then ``sub`` of the targets, ``mul`` by itself and
    ``tmean``. The slice's gradient is added into the stack's, from zeros,
    as ``stack_slice``'s zero-filled buffers add up; for a stack of one
    slice the chain passes it on as is, which is the same, since a product
    (this gradient is one) never gives -0.0."""
    stack, head = _as_tensor(stack), _as_tensor(head)
    idx = np.asarray(rows, dtype=np.int64)
    n, t, d = stack.data.shape if stack.data.ndim == 3 else (0, 0, 0)
    if not (0 <= i < n and head.data.ndim == 2 and head.data.shape[0] == d
            and np.shape(targets) == (t, head.data.shape[1]) and idx.ndim == 1 and idx.size):
        raise ShapeError(f"head MSE of slice {i} of {stack.data.shape} through "
                         f"{head.data.shape} against {np.shape(targets)} on {idx.size} rows")
    x = stack.data[i]
    z = x @ head.data
    diff = z[idx] - targets[idx]
    sq = diff * diff
    data = sq.mean()
    if not _track(stack, head):
        return Tensor(data)

    def backward(g):
        # tmean's share of g, times both factors of the product, added
        gdiff = diff * (g / sq.size)
        gdiff += gdiff
        gz = np.zeros_like(z)
        gz[idx] += gdiff
        if _needs_grad(stack):
            stack._accum_at(i, gz @ head.data.T)
        if _needs_grad(head):
            head._accum(x.T @ gz)

    return _make(data, (stack, head), backward)


def loss_total(columns, weights):
    """(w0 * L0 + w1 * L1) + (w2 * L2 + w3 * L3) as one node, L_c the mean
    of the four ``columns``' terms and w the four ``weights``. A column is a
    list of (loss, share) terms, each a scalar tensor times a constant share,
    and its mean is 0 when it has none; one loss may be a term of two
    columns. Returns the total and the four means. A one-term column of
    weight 1.0 and share 1.0 adds its loss as it is, since x * 1.0 is x.

    The chain it stands for scales a term by its share (none when it is 1),
    adds a column's terms in order and scales the sum by 1 / their number,
    then scales and adds the means as above; its arithmetic is on Python
    floats, the same IEEE doubles as numpy's. That chain's backward walk
    reaches the columns' losses column by column, and a loss of two columns
    in its place in the later one; the operands are listed in that order,
    which is the order they take their gradients in."""
    if len(columns) != 4 or len(weights) != 4:
        raise ShapeError(f"loss total takes four columns and four weights, got "
                         f"{len(columns)} and {len(weights)}")
    terms = [(c, k, loss, share) for c, column in enumerate(columns)
             for k, (loss, share) in enumerate(column)]
    if any(loss.data.shape != () for _, _, loss, _ in terms):
        raise ShapeError("loss total takes scalar losses")
    means = []
    for column in columns:
        acc = 0.0
        if column:
            acc = float(column[0][0].data) * column[0][1]
            for loss, share in column[1:]:
                acc += float(loss.data) * share
            acc *= 1.0 / len(column)
        means.append(acc)
    w = weights
    data = (means[0] * w[0] + means[1] * w[1]) + (means[2] * w[2] + means[3] * w[3])
    means = [np.asarray(m) for m in means]
    # each loss at its last column's place
    last = {id(loss): (c, k, loss) for c, k, loss, _ in terms}
    operands = tuple(loss for _, _, loss in sorted(last.values(), key=lambda v: v[:2]))
    if not _track(*operands):
        return Tensor(data), means

    def backward(g):
        for column, wc in zip(columns, w):
            if column:
                gc = (float(g) * wc) * (1.0 / len(column))
                for loss, share in column:
                    if _needs_grad(loss):
                        loss._accum(gc * share)

    return _make(data, operands, backward), means


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

def _standardize_forward(x):
    """The rows of ``x``, an array of the caller's own, standardized in place,
    and the per-row 1 / std: (y, inv)."""
    n = x.shape[-1]
    # the arithmetic of x.mean and x.var without their Python-level wrappers:
    # centered = x - mean, inv = 1.0 / sqrt(var + 1e-6), y = centered * inv.
    # Only the row-sized arrays are updated in place: on a one-element array
    # (the statistics of one row) an in-place op costs more than a new one.
    mean = np.add.reduce(x, axis=-1, keepdims=True) / n
    x -= mean
    inv = 1.0 / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / n + 1e-6)
    x *= inv
    return x, inv


def _standardize_derivative(g, y, inv):
    # gx = inv * (g - gm - y * gy), gm and gy the row means of g and g * y
    n = y.shape[-1]
    gm = np.add.reduce(g, axis=-1, keepdims=True) / n
    gyy = g * y
    gy = np.add.reduce(gyy, axis=-1, keepdims=True) / n
    gx = g - gm
    gx -= np.multiply(y, gy, out=gyy)
    gx *= inv
    return gx


def standardize_rows(a: Tensor, residual: Tensor) -> Tensor:
    """Zero-mean unit-variance per row (last axis) of ``a + residual`` (same
    shape) as one node, with no learned affine; the variance takes an
    epsilon of 1e-6."""
    a, residual = _as_tensor(a), _as_tensor(residual)
    if residual.data.shape != a.data.shape:
        raise ShapeError(f"residual {residual.data.shape} for rows of shape {a.data.shape}")
    y, inv = _standardize_forward(a.data + residual.data)
    if not _track(a, residual):
        return Tensor(y)

    def backward(g):
        gx = _standardize_derivative(g, y, inv)
        for t in (a, residual):
            if _needs_grad(t):
                t._accum(gx)

    return _make(y, (a, residual), backward)


# -- fused layers -------------------------------------------------------------
# One node each, with the numpy arithmetic, in the same order, of the chain of
# primitive ops it stands for, so results agree with that chain bit for bit.

def _attend(q, k, v, mask):
    """softmax(q k^T / sqrt(d) + mask) v of 2-D operands or of [n x T x d]
    stacks, slice by slice: (the result, the softmax p, 1 / sqrt(d))."""
    c = 1.0 / math.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2)
    scores *= c
    p = _softmax_rows(scores, mask)
    return p @ v, p, c


def attention_block(X: Tensor, Wq: Tensor, Wk: Tensor | None, Wv: Tensor | None, Wo: Tensor,
                    mask=None, kv=None, stacks=None) -> Tensor:
    """The attention sub-block standardize_rows(X, A Wo) of a [T x d] row
    batch or an [n x T x d] stack, slice by slice: A is single-head scaled
    dot-product attention softmax(Q K^T / sqrt(d) + mask) V, Q = X Wq, and
    the weights are [d x d].

    K and V are X Wk and X Wv, or the tensors ``kv`` = (K, V) when given,
    of X's rank (the keys and values of cross-attention's memory, or of a
    decoding cache); Wk and Wv then take no part. ``mask`` is an optional
    [Tq x Tk] array of 0/-inf added to the scores (causal decoding, and
    keeping packed sequences apart). Only operands that can reach a
    parameter get a gradient, so cached keys and values stay constants.

    ``stacks``, a list of (n, T), reads a [R x d] X as stacks laid end to
    end, R the sum of n * T: the products run once over all rows, and each
    run of n * T rows attends as its own [n x T x d] stack into the same
    rows of A. That form takes no mask or ``kv`` and has no backward: under
    a tape it raises ShapeError.

    The chain it stands for is the products X Wq, X Wk and X Wv, attention
    (scores, softmax and the value product), the product by Wo and
    ``standardize_rows`` with X as the residual. Its backward hands X four
    terms in this order: the residual's, then the Q, K and V products'."""
    X, Wq, Wo = _as_tensor(X), _as_tensor(Wq), _as_tensor(Wo)
    x = X.data
    if kv is None:
        Wk, Wv = _as_tensor(Wk), _as_tensor(Wv)
        weights, operands = (Wq, Wk, Wv, Wo), (X, Wq, Wk, Wv, Wo)
    else:
        K, V = kv
        K, V = _as_tensor(K), _as_tensor(V)
        weights, operands = (Wq, Wo), (X, K, V, Wq, Wo)
    d = x.shape[-1]
    if not (x.ndim in (2, 3) and d >= 1 and Wq.data.shape == Wo.data.shape == (d, d)
            and (kv is not None or Wk.data.shape == Wv.data.shape == (d, d))):
        raise ShapeError(f"attention block of rows {x.shape} with weights "
                         f"{[W.data.shape for W in weights]}")
    q = x @ Wq.data
    if kv is None:
        k, v = x @ Wk.data, x @ Wv.data
    else:
        k, v = K.data, V.data
        if not (k.shape == v.shape and k.ndim == x.ndim and k.shape[-1] == d
                and k.shape[:-2] == x.shape[:-2]):
            raise ShapeError(f"attention block of rows {x.shape} over keys {k.shape} "
                             f"and values {v.shape}")
    if stacks is None:
        att, p, c = _attend(q, k, v, mask)
    elif mask is not None or kv is not None or _track(*operands):
        raise ShapeError("attention over stacks takes no mask or given keys and values, "
                         "and has no backward")
    else:
        att = _attend_stacks(q, k, v, stacks)
    o = att @ Wo.data
    o += x  # the residual sum, x + o
    y, inv = _standardize_forward(o)
    if not _track(*operands):
        return Tensor(y)
    # which of the chain's product and attention nodes exist
    q_node = _needs_grad(X) or _needs_grad(Wq)
    if kv is None:
        k_node = _needs_grad(X) or _needs_grad(Wk)
        v_node = _needs_grad(X) or _needs_grad(Wv)
    else:
        k_node, v_node = _needs_grad(K), _needs_grad(V)
    att_node = q_node or k_node or v_node

    def backward(g):
        gx = _standardize_derivative(g, y, inv)
        if _needs_grad(X):
            X._accum(gx)
        if _needs_grad(Wo):
            Wo._accum(_weight_grad(att, gx))
        if not att_node:
            return
        gatt = gx @ Wo.data.T
        gq = gk = gv = None
        if v_node:
            gv = p.swapaxes(-1, -2) @ gatt
        if q_node or k_node:
            gs = _softmax_derivative(gatt @ v.swapaxes(-1, -2), p) * c
            if q_node:
                gq = gs @ k
            if k_node:
                # a transposed view, as the chain's transpose node passes it
                # on: the copy _accum makes of it keeps that memory order
                gk = (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        products = [(Wq, gq)]
        if kv is None:
            products += [(Wk, gk), (Wv, gv)]
        else:
            if v_node:
                V._accum(gv)
            if k_node:
                K._accum(gk)
        for W, gw in products:
            if gw is not None:
                if _needs_grad(X):
                    X._accum(gw @ W.data.T)
                if _needs_grad(W):
                    W._accum(_weight_grad(x, gw))

    return _make(y, operands, backward)


def _attend_stacks(q, k, v, stacks):
    """``_attend``'s result for [R x d] operands read as the (n, T) ``stacks``."""
    if not (q.ndim == 2 and stacks and all(n >= 1 and t >= 1 for n, t in stacks)
            and sum(n * t for n, t in stacks) == q.shape[0]):
        raise ShapeError(f"stacks {stacks} do not tile rows {q.shape}")
    d = q.shape[1]
    out = np.empty(q.shape)
    start = 0
    for n, t in stacks:
        rows = slice(start, start + n * t)
        view = (n, t, d)
        out[rows] = _attend(q[rows].reshape(view), k[rows].reshape(view),
                            v[rows].reshape(view), None)[0].reshape(-1, d)
        start = rows.stop
    return out


def _ffn_forward(x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor):
    """``ffn``'s output, and what its backward reads: (out, (pre, hidden, t))."""
    if not (x.data.ndim in (2, 3) and W1.data.ndim == 2 and W2.data.ndim == 2
            and x.data.shape[-1] == W1.data.shape[0] and b1.data.shape == W1.data.shape[1:]
            and W2.data.shape[0] == W1.data.shape[1] and b2.data.shape == W2.data.shape[1:]):
        raise ShapeError(f"ffn shapes disagree: x {x.data.shape}, W1 {W1.data.shape}, "
                         f"b1 {b1.data.shape}, W2 {W2.data.shape}, b2 {b2.data.shape}")
    pre = x.data @ W1.data + b1.data
    hidden, t = _gelu_forward(pre)
    return hidden @ W2.data + b2.data, (pre, hidden, t)


def _ffn_backward(g, x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor, saved):
    pre, hidden, t = saved
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


def ffn(x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer GELU feed-forward network gelu(x W1 + b1) W2 + b2 of an
    [n x d] row batch or an [n x T x d] stack."""
    operands = tuple(_as_tensor(t) for t in (x, W1, b1, W2, b2))
    data, saved = _ffn_forward(*operands)
    if not _track(*operands):
        return Tensor(data)
    return _make(data, operands, lambda g: _ffn_backward(g, *operands, saved))


def ffn_block(X: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor) -> Tensor:
    """The FFN sub-block standardize_rows(X, ffn(X, W1, b1, W2, b2)) of an
    [n x d] row batch or an [n x T x d] stack.

    The chain it stands for is ``ffn`` and ``standardize_rows`` with X as
    the residual; its backward hands X the residual's term, then the FFN's."""
    X, W1, b1, W2, b2 = operands = tuple(_as_tensor(t) for t in (X, W1, b1, W2, b2))
    out, saved = _ffn_forward(*operands)
    if out.shape != X.data.shape:
        raise ShapeError(f"ffn block output {out.shape} for rows of shape {X.data.shape}")
    out += X.data  # the residual sum, X + out
    y, inv = _standardize_forward(out)
    if not _track(*operands):
        return Tensor(y)

    def backward(g):
        gx = _standardize_derivative(g, y, inv)
        if _needs_grad(X):
            X._accum(gx)
        _ffn_backward(gx, *operands, saved)

    return _make(y, operands, backward)


def input_fusion(A: Tensor, V: Tensor, Wa: Tensor, Wv: Tensor, Wf: Tensor) -> Tensor:
    """The encoder's input stage concat_cols([A Wa, V Wv]) Wf: audio frames
    A and video frames V ([T x D] rows, or [n x T x D] stacks) through their
    projectors, concatenated along the features and fused by Wf.

    The chain it stands for is the three ``matmul`` nodes and the
    ``concat_cols`` node between them, whose backward hands each projection
    a copy of its half of the gradient."""
    A, V, Wa, Wv, Wf = operands = tuple(_as_tensor(t) for t in (A, V, Wa, Wv, Wf))
    if not (A.data.ndim in (2, 3) and V.data.shape[:-1] == A.data.shape[:-1]
            and Wa.data.ndim == Wv.data.ndim == Wf.data.ndim == 2
            and Wa.data.shape[0] == A.data.shape[-1] and Wv.data.shape[0] == V.data.shape[-1]
            and Wf.data.shape[0] == Wa.data.shape[1] + Wv.data.shape[1]):
        raise ShapeError(f"input fusion shapes disagree: audio {A.data.shape} by "
                         f"{Wa.data.shape}, video {V.data.shape} by {Wv.data.shape}, "
                         f"fusion {Wf.data.shape}")
    c = np.concatenate([A.data @ Wa.data, V.data @ Wv.data], axis=-1)
    data = c @ Wf.data
    if not _track(*operands):
        return Tensor(data)
    w = Wa.data.shape[1]
    halves = [(A, Wa, np.s_[..., :w]), (V, Wv, np.s_[..., w:])]
    # which of the chain's projection nodes exist
    nodes = [(frames, W, half) for frames, W, half in halves if _track(frames, W)]

    def backward(g):
        gc = g @ Wf.data.T if nodes else None
        if _needs_grad(Wf):
            Wf._accum(_weight_grad(c, g))
        for frames, W, half in nodes:
            gh = np.array(gc[half])  # the copy the chain's _accum makes
            if _needs_grad(frames):
                frames._accum(gh @ W.data.T)
            if _needs_grad(W):
                W._accum(_weight_grad(frames.data, gh))

    return _make(data, operands, backward)


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
    # ufunc.at applies its updates in index order, experts ascending, and a
    # row appears at most once per expert: the bits of a per-expert fancy
    # += loop. (Its fast path came with NumPy 1.25; 1.24 is correct but slower.)
    data = np.zeros((B, X.data.shape[1]))
    np.add.at(data, rows, weighted)
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
        # X's rows are added expert by expert (one add.at, as in the
        # forward), as the chain's index_rows backwards add their zero-filled
        # buffers; the + 0.0 is their zeros' effect on a -0.0 gradient
        gxs = []
        for (W1, b1, _, _), s, t in spans:
            if _needs_grad(b1):
                b1._accum(_unbroadcast(gpre[s:t], b1.data.shape))
            if _needs_grad(X):
                gxs.append(gpre[s:t] @ W1.data.T)
            if _needs_grad(W1):
                W1._accum(xs[s:t].T @ gpre[s:t])
        if gxs:
            gX = np.zeros_like(X.data) if X.grad is None else X.grad + 0.0
            np.add.at(gX, rows, np.concatenate(gxs))
            X.grad = gX

    return _make(data, (X, weights, *params), backward)


# -- router losses ------------------------------------------------------------
# One node per loss term, in the pattern of the fused layers: the forward runs
# the numpy arithmetic of the primitive-op chain, and the backward hands each
# operand the array, and in the order, that the chain's backward would.

def load_balancing(probs: list[Tensor], f) -> Tensor:
    """Switch-style load balancing summed over expert groups: n * sum_i
    f[g, i] P_i for each group g, P the column means of group g's [B x n]
    probabilities, slice g of the router families' [G_j x B x n] ``probs``
    laid end to end, and f a constant [G x n] array of top-1 frequencies.

    The chain it stands for is ``scale(tsum(mul(f[g], mean_axis0(p_g))),
    n)`` per group, added in group order."""
    probs = [_as_tensor(p) for p in probs]
    f = np.asarray(f, dtype=np.float64)
    shapes = [p.data.shape for p in probs]
    if not (probs and all(len(s) == 3 and s[1:] == shapes[0][1:] for s in shapes)
            and f.shape == (sum(s[0] for s in shapes), shapes[0][2])):
        raise ShapeError(f"load balancing of probs {shapes} against frequencies {f.shape}")
    B = shapes[0][1]
    total = None
    for p, fg in zip((p for family in probs for p in family.data), f):
        P = np.add.reduce(p, axis=0) / B
        term = (fg * P).sum() * float(fg.shape[0])
        total = term if total is None else total + term
    if not _track(*probs):
        return Tensor(total)

    def backward(g):
        # per group the chain's np.full_like(fg, g * n) * fg, over its B rows
        gP = (g * float(f.shape[1])) * f / B
        start = 0
        for p in probs:
            G = p.data.shape[0]
            if _needs_grad(p):
                p._accum(np.broadcast_to(gP[start:start + G, None, :], p.data.shape))
            start += G

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


def squared_logsumexp(a: Tensor, i: int, row_weights=None) -> Tensor:
    """Router z-loss of router i's [rows x n] logits, slice i of a family's
    [G x rows x n] ``a``: the squared logsumexp of each row, averaged, or
    summed weighted by the constant ``row_weights``.

    The chain it stands for is ``logsumexp`` of router i's own logits,
    ``mul`` of it with itself, then ``tmean``, or ``mul`` by the weights and
    ``tsum``."""
    a = _as_tensor(a)
    if not (a.data.ndim == 3 and 0 <= i < a.data.shape[0] and a.data[i].size):
        raise ShapeError(f"squared logsumexp needs router {i}'s non-empty logit matrix "
                         f"of [G x rows x n] logits, got shape {a.data.shape}")
    w = None if row_weights is None else np.asarray(row_weights, dtype=np.float64)
    if w is not None and w.shape != a.data.shape[1:2]:
        raise ShapeError(f"{w.shape} row weights for {a.data.shape[1]} rows")
    lse, e, s = _logsumexp_rows(a.data[i])
    sq = lse * lse
    data = sq.mean() if w is None else (sq * w).sum()
    if not _track(a):
        return Tensor(data)

    def backward(g):
        gsq = np.full_like(sq, g / sq.size) if w is None else g * w
        # the product's backward adds its two equal halves
        glse = gsq * lse
        glse += glse
        a._accum_at(i, glse[:, None] * (e / s))

    return _make(data, (a,), backward)


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
