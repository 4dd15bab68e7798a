import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from avmoe import tensor as T
from avmoe.gradcheck import CASES, TOLERANCE, run
from avmoe.tensor import (
    Tensor, ShapeError, attention_block, cross_entropy_rows, grad_check, head_mse, matmul,
)
from avmoe.trainer import TrainConfig, train
from chains import concat_cols, logsumexp, softmax, standardize, tmean
from test_golden import CONFIGS as GOLDEN_CONFIGS


def test_matmul_identity():
    A = Tensor(np.eye(2))
    B = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(A, B).data, B.data)


def test_matmul_zero():
    A = Tensor(np.zeros((2, 3)))
    B = Tensor(np.ones((3, 2)))
    assert np.array_equal(matmul(A, B).data, np.zeros((2, 2)))


def test_matmul_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    got = matmul(Tensor(a), Tensor(b)).data
    want = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            for t in range(3):
                want[i, j] += a[i, t] * b[t, j]
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def router_softmax(v):
    """The softmax of one router whose logits are exactly ``v``: the
    ``router_softmaxes`` of a [1 x 1] batch holding 1 and the weight [v]."""
    _, probs = T.router_softmaxes(Tensor([[1.0]]), Tensor(np.reshape(v, (1, -1))))
    return probs.data[0]


def test_softmax_symmetry():
    out = router_softmax([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, 0.25, atol=1e-12)


def test_softmax_closed_form():
    out = router_softmax([0.0, math.log(3.0)])
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    v = rng.normal(size=7)
    for c in (-100.0, 3.5, 250.0):
        a = router_softmax(v)
        b = router_softmax(v + c)
        assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(scale=10.0, size=rng.integers(1, 12))
        assert abs(router_softmax(v).sum() - 1.0) < 1e-9


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        router_softmax(np.zeros(0))


def attention(Q, K, V):
    """The attention inside ``attention_block``, of 2-D arrays."""
    return Tensor(T._attend(Q.data, K.data, V.data, None)[0])


def test_attention_limiting_case():
    K = Tensor(np.eye(3))
    V = Tensor(np.arange(9.0).reshape(3, 3))
    Q = Tensor(100.0 * np.eye(3)[1:2])
    out = attention(Q, K, V).data
    assert np.allclose(out[0], V.data[1], atol=1e-8)


def test_attention_single_row():
    rng = np.random.default_rng(3)
    Q = Tensor(rng.normal(size=(1, 4)))
    K = Tensor(rng.normal(size=(1, 4)))
    V = Tensor(rng.normal(size=(1, 4)))
    assert np.allclose(attention(Q, K, V).data, V.data, atol=1e-12)


def test_attention_scalar_loop_oracle():
    rng = np.random.default_rng(4)
    q, k, v = (rng.normal(size=(3, 2)) for _ in range(3))
    got = attention(Tensor(q), Tensor(k), Tensor(v)).data
    want = np.zeros((3, 2))
    for i in range(3):
        scores = [sum(q[i, t] * k[j, t] for t in range(2)) / math.sqrt(2) for j in range(3)]
        m = max(scores)
        w = [math.exp(s - m) for s in scores]
        z = sum(w)
        for j in range(3):
            for t in range(2):
                want[i, t] += (w[j] / z) * v[j, t]
    assert np.max(np.abs(got - want)) < 1e-10


def test_attention_zero_dim_rejected():
    with pytest.raises(ShapeError):
        attention_block(Tensor(np.zeros((2, 0))), *[Tensor(np.zeros((0, 0)))] * 4)


def test_mse_identical_and_closed_form():
    x = np.arange(6.0).reshape(2, 3)
    assert float(head_mse(Tensor(x[None]), 0, Tensor(np.eye(3)), x, [0, 1]).data) == 0.0
    got = head_mse(Tensor(np.ones((1, 1, 2))), 0, Tensor(np.eye(2)), np.zeros((1, 2)), [0])
    assert float(got.data) == pytest.approx(1.0)


def test_mse_summation_oracle():
    rng = np.random.default_rng(5)
    x, head = rng.normal(size=(2, 6, 3)), rng.normal(size=(3, 5))
    b = rng.normal(size=(6, 5))
    rows = [0, 2, 3, 5]
    got = float(head_mse(Tensor(x), 1, Tensor(head), b, rows).data)
    a = x[1] @ head
    acc = 0.0
    for i in rows:
        for j in range(5):
            acc += (a[i, j] - b[i, j]) ** 2
    assert abs(got - acc / 20) < 1e-12


def test_mse_shape_mismatch():
    x, head = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5)))
    for bad in [(Tensor(np.zeros((3, 4))), 0, head, np.zeros((3, 5)), [0]),
                (x, 2, head, np.zeros((3, 5)), [0]),
                (x, 0, Tensor(np.zeros((3, 5))), np.zeros((3, 5)), [0]),
                (x, 0, head, np.zeros((3, 4)), [0]),
                (x, 0, head, np.zeros((3, 5)), [])]:
        with pytest.raises(ShapeError):
            head_mse(*bad)


def test_cross_entropy_limiting():
    logits = Tensor([[100.0] + [0.0] * 7, [0.0] * 3 + [100.0] + [0.0] * 4])
    assert float(cross_entropy_rows(logits, [0, 3]).data) < 1e-6


def test_cross_entropy_uniform():
    got = float(cross_entropy_rows(Tensor(np.zeros((3, 8))), [3, 0, 7]).data)
    assert got == pytest.approx(math.log(8), abs=1e-12)


def naive_cross_entropy(logits):
    """-log softmax per row and class, by the textbook formula."""
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return -np.log(probs)


def test_cross_entropy_naive_oracle():
    rng = np.random.default_rng(6)
    logits = rng.normal(scale=3.0, size=(4, 10))
    want = naive_cross_entropy(logits)
    for r in range(4):
        for t in range(10):
            got = float(cross_entropy_rows(Tensor(logits[r:r + 1]), [t]).data)
            assert abs(got - want[r, t]) < 1e-9
    ids = [7, 0, 9, 4]
    got = float(cross_entropy_rows(Tensor(logits), ids).data)
    assert abs(got - want[np.arange(4), ids].mean()) < 1e-9


def test_cross_entropy_row_weights_give_the_weighted_sum():
    rng = np.random.default_rng(10)
    logits = rng.normal(scale=3.0, size=(5, 6))
    ids = [2, 5, 0, 0, 3]
    w = [0.5, 0.0, 2.0, 1.0, 0.25]
    per_row = naive_cross_entropy(logits)[np.arange(5), ids]
    got = float(cross_entropy_rows(Tensor(logits), ids, row_weights=w).data)
    assert abs(got - sum(wi * li for wi, li in zip(w, per_row))) < 1e-9


def test_cross_entropy_out_of_range():
    for ids in ([0, 4], [-1, 0]):
        with pytest.raises(IndexError):
            cross_entropy_rows(Tensor(np.zeros((2, 4))), ids)


def test_grad_check_quadratic():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    err = grad_check(lambda t: T.tsum(T.mul(t, t)), x, eps=1e-4)
    assert err < 1e-7


def test_grad_check_matmul_mse_chain():
    rng = np.random.default_rng(7)
    W = Tensor(rng.normal(size=(3, 3)))
    target = Tensor(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=(3, 3)))
    # x as a stack of one slice
    err = grad_check(lambda t: head_mse(t, 0, W, target.data, [0, 1, 2]),
                     Tensor(x.data[None]), eps=1e-4)
    assert err < 1e-4


def test_grad_check_constant():
    x = Tensor(np.ones(4))
    assert grad_check(lambda t: T.add(Tensor(2.0), T.mul(T.tsum(t), 0.0)), x, eps=1e-4) == 0.0


PRIMITIVES = {
    "matmul": lambda t, rng: T.tsum(T.mul(matmul(t, Tensor(rng.normal(size=(4, 3)))),
                                          Tensor(rng.normal(size=(3, 3))))),
    "softmax": lambda t, rng: T.tsum(T.mul(softmax(t), Tensor(rng.normal(size=t.shape)))),
    "logsumexp": lambda t, rng: T.tsum(logsumexp(t)),
    "attention": lambda t, rng: T.tsum(T.mul(
        attention_block(t, *(Tensor(rng.normal(size=(4, 4))) for _ in range(4))),
        Tensor(rng.normal(size=t.shape)))),
    "gelu": lambda t, rng: T.tsum(T.gelu(t)),
    "standardize": lambda t, rng: T.tsum(T.mul(standardize(t),
                                               Tensor(rng.normal(size=t.shape)))),
    "mse": lambda t, rng: head_mse(Tensor(rng.normal(size=(2, 5, 3))), 1, t,
                                   rng.normal(size=(5, 4)), [0, 2, 4]),
    "mean": lambda t, rng: tmean(t),
    "concat_cols": lambda t, rng: T.tsum(T.mul(concat_cols([Tensor(rng.normal(size=(3, 2))), t]),
                                               Tensor(rng.normal(size=(3, 6))))),
    "index_rows": lambda t, rng: T.tsum(T.mul(T.index_rows(t, [0, 2, 2, 1]),
                                              Tensor(rng.normal(size=(4, 4))))),
    "cross_entropy_rows": lambda t, rng: T.cross_entropy_rows(t, rng.integers(0, 4, size=3)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_20_seeds(name):
    fn = PRIMITIVES[name]
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(size=(3, 4)))
        err = grad_check(lambda t: fn(t, np.random.default_rng(200 + seed)), x, eps=1e-4)
        assert err < 1e-4, f"{name} seed {seed}: {err}"


def test_accumulation_order_independent():
    rng = np.random.default_rng(8)
    xd = rng.normal(size=(3, 3))
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))

    def run(order):
        x = Tensor(xd, requires_grad=True)
        branch_a = T.tsum(matmul(x, Tensor(a)))
        branch_b = T.tsum(matmul(Tensor(b), x))
        loss = T.add(branch_a, branch_b) if order else T.add(branch_b, branch_a)
        loss.backward()
        return x.grad.copy()

    assert np.max(np.abs(run(True) - run(False))) < 1e-12


def test_value_reused_twice_gets_sum_of_contributions():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.tsum(T.add(T.mul(x, x), T.mul(x, 3.0)))
    y.backward()
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.tsum(T.mul(x, x))
    assert y._parents == ()


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    h = T.gelu(x)  # a non-leaf operand still gets its gradient
    consts = {name: Tensor(rng.normal(size=shape)) for name, shape in
              [("add", (3, 4)), ("mul", (4,)), ("left", (2, 3)), ("right", (4, 5)),
               ("cols", (3, 2)), ("weights", (3, 1)), ("W1", (4, 2)), ("b1", (2,)),
               ("W2", (2, 4)), ("b2", (4,))]}
    c = consts
    expert = [(c["W1"], c["b1"], c["W2"], c["b2"])]
    outs = [T.add(x, c["add"]), T.mul(c["mul"], h), matmul(c["left"], x),
            matmul(h, c["right"]), concat_cols([c["cols"], h]),
            T.moe_combine(h, c["weights"], np.zeros((3, 1), dtype=np.int64), expert, [3])]
    total = T.tsum(outs[0])
    for o in outs[1:]:
        total = T.add(total, T.tsum(o))
    total.backward()
    assert x.grad is not None
    assert {name: t.grad for name, t in consts.items() if t.grad is not None} == {}


def _walked(root):
    """The nodes ``root.backward()`` walks: every node with a backward that
    the parents lead to from ``root``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node._backward is not None and node not in seen:
            seen.add(node)
            stack.extend(node._parents)
    return seen


def test_every_interior_node_takes_a_gradient(monkeypatch):
    """No op's backward leaves an interior operand without a gradient, so
    ``Tensor.backward`` runs each walked node's backward unguarded: after
    every backward of every gradcheck case, with the checked tensor made an
    interior operand, and of every training step of the golden configs (all
    three regimes), each walked node holds a gradient."""
    walks, missing = [], []
    backward = Tensor.backward

    def checked(self):
        backward(self)
        nodes = _walked(self)
        walks.append(len(nodes))
        missing.extend(n._backward.__qualname__ for n in nodes if n.grad is None)

    monkeypatch.setattr(Tensor, "backward", checked)
    n_cases = 0
    for cases in CASES.values():
        for _, build in cases:
            f, x = build(0)
            f(T.scale(Tensor(x.data, requires_grad=True), 1.0)).backward()
            n_cases += 1
    for config in GOLDEN_CONFIGS.values():
        train(TrainConfig.from_dict(config))
    assert missing == []
    assert len(walks) > n_cases and min(walks) >= 2


# the public ops of avmoe.tensor: its functions that return a Tensor
PUBLIC_OPS = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and not name.startswith("_")
              and inspect.signature(fn).return_annotation == "Tensor"}


def test_every_public_op_has_a_gradcheck_case():
    """Each public op has a "tensor" gradcheck case named after it or
    prefixed ``<op>_``; tsum, with which every case ends, needs none of its
    own."""
    assert {"add", "attention_block", "cross_entropy_rows", "ffn", "tsum"} <= PUBLIC_OPS
    cases = [name for name, _ in CASES["tensor"]]
    missing = sorted(op for op in PUBLIC_OPS - {"tsum"}
                     if not any(c == op or c.startswith(op + "_") for c in cases))
    assert missing == []


def test_every_public_op_is_run_by_the_program_or_a_demo():
    """Each public op is named in ``avmoe`` outside tensor.py and
    gradcheck.py, or in a demo: an op that only gradcheck and the tests'
    chains call belongs with the chains, in ``tests/chains.py``. tsum is
    exempt, since ending every gradcheck probe is its one use."""
    root = Path(__file__).resolve().parents[1]
    files = [f for f in (root / "src" / "avmoe").glob("*.py")
             if f.name not in ("tensor.py", "gradcheck.py")]
    nodes = [node for f in files + list((root / "demos").glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text()))]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names |= {node.name for node in nodes if isinstance(node, ast.alias)}
    assert sorted(PUBLIC_OPS - {"tsum"} - names) == []


def _ignoring_upstream(op):
    """``op`` whose node backpropagates an all-ones upstream gradient in
    place of the one it is given."""
    def mutant(*args, **kwargs):
        out = op(*args, **kwargs)
        backward = out._backward
        if backward is not None:
            out._backward = lambda g: backward(np.ones_like(g))
        return out
    return mutant


@pytest.mark.parametrize("op", ["scale", "squared_logsumexp"])
def test_an_ops_own_case_catches_a_backward_that_ignores_its_upstream_gradient(
        monkeypatch, op):
    """Every "tensor" case sums its output against a random upstream
    gradient, so the op's own case, not only the loss cases that happen to
    scale their terms, fails a backward that drops it."""
    assert run("tensor", seeds=3)[f"tensor.{op}"] < TOLERANCE
    monkeypatch.setattr(T, op, _ignoring_upstream(getattr(T, op)))
    assert run("tensor", seeds=3)[f"tensor.{op}"] > TOLERANCE
