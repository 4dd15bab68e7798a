"""Packed optimizers against the per-parameter loops they replaced.

``SGD`` and ``Adam`` copy their parameters into one flat vector and update
runs of live parameters in place. The reference below is the
per-parameter update each used before, kept here verbatim in arithmetic.
Parameters, ``m`` and ``v`` must agree bit for bit.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(["sgd", "adam"]), lr=st.sampled_from([1e-3, 0.1]),
       shape_list=st.lists(shapes, min_size=1, max_size=8),
       scales=st.lists(st.sampled_from([None, 0.5, 3.0, 10.0]), min_size=8, max_size=8),
       live=st.lists(st.lists(st.booleans(), min_size=8, max_size=8),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_packed_step_equals_per_parameter_step(name, lr, shape_list, scales, live, seed):
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
    for mask in live:
        for p, q, is_live in zip(ref, packed, mask):
            g = rng.normal(size=p.data.shape) if is_live else None
            p.grad, q.grad = g, None if g is None else g.copy()
        dead = [(q, q.data.copy()) for q, is_live in zip(packed, mask) if not is_live]
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
    before = {name: p.data for name, p in model.named_params().items()}
    model.load_state_dict({name: p.data.copy() for name, p in other.named_params().items()})
    for name, p in model.named_params().items():
        assert p.data is before[name]
        assert p.data.tobytes() == other.named_params()[name].data.tobytes()


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
