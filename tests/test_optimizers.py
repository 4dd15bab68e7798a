"""Packed optimizers against the per-parameter loops they replaced.

``SGD`` and ``Adam`` copy their parameters into one flat vector and update
runs of live parameters in place. The reference below is the
per-parameter update each used before, kept here verbatim in arithmetic.
Parameters, ``m`` and ``v`` must agree bit for bit, whether a gradient is
set by hand, left by ``backward()`` in the parameter's slice of the
optimizer's gradient vector, or summed from several contributions.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe import trainer
from avmoe.distill import ema_update, make_teacher
from avmoe.model import Model, ModelConfig
from avmoe.moe_layer import MoELayerConfig
from avmoe.tensor import Tensor
from avmoe.trainer import SGD, Adam, TrainConfig, build_model, make_optimizer


def reference_sgd_step(params, lr, lr_scales):
    for p in params:
        if p.grad is not None:
            p.data -= lr * lr_scales.get(id(p), 1.0) * p.grad
            p.grad = None


class ReferenceAdam:
    """Adam with its state in dicts keyed by id(param), created on a
    parameter's first live step."""

    def __init__(self, lr, lr_scales, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.lr_scales = lr, lr_scales
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, params):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            if p.grad is None:
                continue
            key = id(p)
            m = self.m.setdefault(key, np.zeros_like(p.data))
            v = self.v.setdefault(key, np.zeros_like(p.data))
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= (self.lr * self.lr_scales.get(key, 1.0)
                       * m_hat / (np.sqrt(v_hat) + self.eps))
            p.grad = None


def flat_state(state, params):
    """A reference Adam state dict in the packed layout: zeros for a
    parameter that was never live."""
    return np.concatenate([state.get(id(p), np.zeros_like(p.data)).ravel() for p in params])


shapes = st.one_of(st.tuples(st.integers(1, 5)),
                   st.tuples(st.integers(1, 4), st.integers(1, 4)))


# how a parameter's gradient arrives before a step: none (dead), set by hand,
# one backward() (left in its slice), two contributions within one
# backward(), or two backward() calls
SOURCES = ("dead", "hand", "backward", "two_in_one", "two_backwards")


def give_gradient(p, source, consts):
    """Give ``p`` the gradient ``source`` names, from the constant arrays
    ``consts``: each backward contribution is exactly one of them."""
    c1, c2 = (Tensor(c) for c in consts)
    if source == "hand":
        p.grad = consts[0].copy()
    elif source == "backward":
        T.tsum(T.mul(p, c1)).backward()
    elif source == "two_in_one":
        T.add(T.tsum(T.mul(p, c1)), T.tsum(T.mul(p, c2))).backward()
    elif source == "two_backwards":
        T.tsum(T.mul(p, c1)).backward()
        T.tsum(T.mul(p, c2)).backward()


@settings(max_examples=160, deadline=None, derandomize=True)
@given(name=st.sampled_from(["sgd", "adam"]), lr=st.sampled_from([1e-3, 0.1]),
       shape_list=st.lists(shapes, min_size=1, max_size=8),
       scales=st.lists(st.sampled_from([None, 0.5, 3.0, 10.0]), min_size=8, max_size=8),
       sources=st.lists(st.lists(st.sampled_from(SOURCES), min_size=8, max_size=8),
                        min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_packed_step_equals_per_parameter_step(name, lr, shape_list, scales, sources, seed):
    """The packed steps equal the reference steps on the same gradients,
    which reach the reference's unbound parameters the same way; a gradient
    from backward, of one contribution or several added in place, is the
    parameter's slice of ``grad``."""
    rng = np.random.default_rng(seed)
    init = [rng.normal(size=s) for s in shape_list]
    ref = [Tensor.param(a.copy()) for a in init]
    packed = [Tensor.param(a.copy()) for a in init]
    ref_scales = {id(p): s for p, s in zip(ref, scales) if s is not None}
    packed_scales = {id(p): s for p, s in zip(packed, scales) if s is not None}
    if name == "sgd":
        opt = SGD(packed, lr, packed_scales)
        ref_step = partial(reference_sgd_step, ref, lr, ref_scales)
    else:
        opt = Adam(packed, lr, lr_scales=packed_scales)
        ref_opt = ReferenceAdam(lr, ref_scales)
        ref_step = partial(ref_opt.step, ref)
    for step_sources in sources:
        for p, q, source in zip(ref, packed, step_sources):
            consts = [rng.normal(size=p.data.shape) for _ in range(2)]
            give_gradient(p, source, consts)
            give_gradient(q, source, consts)
            if source == "dead":
                assert q.grad is None
                continue
            assert q.grad.tobytes() == p.grad.tobytes()
            bound = q.grad is q.grad_out
            assert bound == (source != "hand")
            assert np.shares_memory(q.grad, opt.grad) == bound
            assert not np.shares_memory(p.grad, opt.grad)
        dead = [(q, q.data.copy()) for q, source in zip(packed, step_sources)
                if source == "dead"]
        ref_step()
        opt.step()
        for q, before in dead:
            assert q.data.tobytes() == before.tobytes()
        assert all(p.grad is None for p in ref + packed)
    for p, q in zip(ref, packed):
        assert q.data.tobytes() == p.data.tobytes()
        assert np.shares_memory(q.data, opt.flat)
    if name == "adam":
        assert opt.m.tobytes() == flat_state(ref_opt.m, ref).tobytes()
        assert opt.v.tobytes() == flat_state(ref_opt.v, ref).tobytes()


@pytest.mark.parametrize("name", ["sgd", "adam"])
def test_a_later_optimizer_takes_the_binding(name):
    """Packing a parameter again (a new phase's optimizer) binds it to the
    new optimizer's gradient vector; the old one's is not written."""
    p = Tensor.param(np.arange(3.0))
    first = SGD([p], 0.1)
    first.grad[...] = 7.0
    second = {"sgd": SGD, "adam": Adam}[name]([p], 0.1)
    T.tsum(T.mul(p, Tensor(np.ones(3)))).backward()
    assert p.grad is p.grad_out
    assert np.shares_memory(p.grad, second.grad)
    assert first.grad.tolist() == [7.0] * 3


@pytest.mark.parametrize("name", ["sgd", "adam"])
def test_step_refuses_a_rebound_parameter(name):
    a, b = Tensor.param(np.zeros(2)), Tensor.param(np.zeros(2))
    step = make_optimizer(name, 0.1, [a, b])
    b.data = b.data.copy()
    a.grad, b.grad = np.ones(2), np.ones(2)
    with pytest.raises(RuntimeError, match="rebound"):
        step()


# -- writers of parameters keep p.data ------------------------------------------

def small_model(seed):
    cfg = ModelConfig(dim_audio=4, dim_video=4, d=8, h=8, n_enc=1, topk_blocks=1, vocab=6,
                      moe=MoELayerConfig(mode="hierarchical", d=8, h=8, n_per_group=2))
    return Model(cfg, seed=seed)


def test_load_state_dict_writes_in_place():
    model, other = small_model(0), small_model(1)
    before = [p.data for p in model.params()]
    model.load_state_dict({name: a.copy() for name, a in other.state_dict().items()})
    assert all(p.data is b for p, b in zip(model.params(), before, strict=True))
    for p, q in zip(model.params(), other.params()):
        assert p.data.tobytes() == q.data.tobytes()


def test_ema_update_writes_in_place():
    student = small_model(0)
    teacher = make_teacher(small_model(1), total_steps=4)
    before = [p.data for p in teacher.encoder.encoder_params()]
    ema_update(teacher, student, 0.5)
    assert all(p.data is b
               for p, b in zip(teacher.encoder.encoder_params(), before, strict=True))


def test_identical_expert_init_writes_in_place(monkeypatch):
    built = []

    class Recorded(Model):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append([[p.data for p in e.params()]
                          for blk in self.decoder_blocks for e in blk.moe.experts])
    monkeypatch.setattr(trainer, "Model", Recorded)
    model = build_model(TrainConfig.from_dict({
        "identical_expert_init": True,
        "model": {"moe": {"mode": "hierarchical", "n_per_group": 2}}}))
    experts = [e for blk in model.decoder_blocks for e in blk.moe.experts]
    (arrays,) = built
    for e, before in zip(experts, arrays):
        assert all(p.data is a for p, a in zip(e.params(), before))
    assert experts[1].W1.data.tobytes() == experts[0].W1.data.tobytes()
