"""Stacked encoding: n equally long sequences through one encoder call.

A stack runs each slice with the arithmetic of the 2-D ops, so its features
and every per-block output must equal n single-sequence encodes bit for bit.
A weight's gradient is one gemm over all n*T rows, which adds the slices'
contributions in another order than n encodes summed on the tape: the
gradients must agree to 1e-12, and bit for bit for one slice.

The teacher's targets of all of a step's pairs come from one encode of the
stack list form: the row-wise layers once over the rows of all stacks,
attention per stack. They must equal one call per pair and one 2-D encode
per mode (``chains.per_mode_targets``) bit for bit. The uptraining step
that uses both is checked whole in ``test_fused_ops.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import distill
from avmoe import tensor as T
from avmoe.distill import MODE_A_ONLY, MODE_AV, MODE_V_ONLY, teacher_targets
from avmoe.model import Model, ModelConfig
from avmoe.tensor import Tensor
from chains import chain_attention_block, per_mode_targets

TOL = 1e-12
MODES = (MODE_AV, MODE_A_ONLY, MODE_V_ONLY)


def tiny_model(seed, n_enc, d=8):
    cfg = ModelConfig(dim_audio=5, dim_video=3, d=d, h=12, n_enc=n_enc, n_dec=1,
                      vocab=4, topk_blocks=1)
    return Model(cfg, seed=seed)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL * max(1.0, np.max(np.abs(want)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4), frames=st.integers(1, 12),
       n_enc=st.integers(1, 3))
def test_stacked_encode_equals_single_encodes(seed, n, frames, n_enc):
    rng = np.random.default_rng(seed)
    model = tiny_model(seed, n_enc)
    audio, video = rng.normal(size=(n, frames, 5)), rng.normal(size=(n, frames, 3))
    w_feat, w_first = rng.normal(size=(n, frames, 8)), rng.normal(size=(n, frames, 8))

    feats, per_block = model.encode(audio, video)
    assert feats.data.shape == (n, frames, 8) and len(per_block) == n_enc
    # a random linear functional of every slice's features and first block
    loss = T.tsum(T.mul(per_block[0], Tensor(w_first)))
    for i in range(n):
        loss = T.add(loss, T.tsum(T.mul(T.stack_slice(feats, i), Tensor(w_feat[i]))))
    loss.backward()
    stacked_grads = [p.grad for p in model.params()]
    for p in model.params():
        p.zero_grad()

    ref_loss = Tensor(np.zeros(()))
    for i in range(n):
        f, blocks = model.encode(audio[i], video[i])
        assert np.array_equal(feats.data[i], f.data)
        for stacked, single in zip(per_block, blocks):
            assert np.array_equal(stacked.data[i], single.data)
        ref_loss = T.add(ref_loss, T.add(T.tsum(T.mul(blocks[0], Tensor(w_first[i]))),
                                         T.tsum(T.mul(f, Tensor(w_feat[i])))))
    ref_loss.backward()
    for name, (got, p) in enumerate(zip(stacked_grads, model.params())):
        if p.grad is None:  # the decoder
            assert got is None, name
        elif n == 1:
            assert np.array_equal(got, p.grad), name
        else:
            assert_close(got, p.grad)


def test_stacked_encode_rejects_mismatched_stacks():
    model = tiny_model(0, 1)
    rng = np.random.default_rng(0)
    audio = rng.normal(size=(2, 3, 5))
    for video in (rng.normal(size=(2, 4, 3)), rng.normal(size=(3, 3, 3)),
                  [rng.normal(size=(3, 3))] * 2, rng.normal(size=(2, 3))):
        with pytest.raises(T.ShapeError):
            model.encode(audio, video)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), frames=st.integers(1, 12), n_enc=st.integers(1, 3),
       modes=st.lists(st.sampled_from(MODES), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_multi_mode_teacher_targets_equal_per_mode_calls(seed, frames, n_enc, modes, data):
    topk = data.draw(st.integers(1, n_enc))
    rng = np.random.default_rng(seed)
    teacher = tiny_model(seed, n_enc)
    A, V = rng.normal(size=(frames, 5)), rng.normal(size=(frames, 3))
    (stacked,) = teacher_targets(teacher, [(A, V, modes)], topk)
    assert len(stacked) == len(modes)
    for mode, got in zip(modes, stacked):
        ((single,),) = teacher_targets(teacher, [(A, V, [mode])], topk)
        old = per_mode_targets(teacher, A, V, topk, mode)
        assert isinstance(got, np.ndarray) and got.shape == (frames, 8)
        assert np.array_equal(got, single)
        assert np.array_equal(single, old)
    assert all(p.grad is None for p in teacher.params())


# -- the stack list form: every pair's target modes in one teacher encode ------

def per_pair_teacher_targets(teacher, A, V, topk, modes):
    """``teacher_targets`` of one pair as it was: one 3-D stack of its modes,
    through ``np.stack(...).mean`` and the ``mean``/``var`` wrappers."""
    inputs = [distill._apply_mode(A, V, m) for m in modes]
    with T.no_grad():
        _, per_block = teacher.encode(np.stack([a for a, _ in inputs]),
                                      np.stack([v for _, v in inputs]))
    avg = np.stack([b.data for b in per_block[-topk:]]).mean(axis=0)
    mu, var = avg.mean(axis=-1, keepdims=True), avg.var(axis=-1, keepdims=True)
    return list((avg - mu) / np.sqrt(var + 1e-6))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n_enc=st.integers(1, 3), data=st.data(),
       pairs=st.lists(st.tuples(st.sampled_from([1, 1, 2, 3, 5, 8, 12]),
                                st.lists(st.sampled_from(MODES), max_size=3, unique=True)),
                      min_size=1, max_size=5))
def test_batched_teacher_targets_equal_one_call_per_pair(seed, n_enc, data, pairs):
    """Pairs of 1-12 frames, one-frame pairs among them, each with a mode
    subset (none included): one call over all of them equals one call per
    pair, and the per-pair call as it was, bit for bit."""
    topk = data.draw(st.integers(1, n_enc))
    rng = np.random.default_rng(seed)
    teacher = tiny_model(seed, n_enc)
    triples = [(rng.normal(size=(t, 5)), rng.normal(size=(t, 3)), modes) for t, modes in pairs]
    batched = teacher_targets(teacher, triples, topk)
    assert len(batched) == len(triples)
    for (A, V, modes), got in zip(triples, batched):
        (alone,) = teacher_targets(teacher, [(A, V, modes)], topk)
        old = per_pair_teacher_targets(teacher, A, V, topk, modes) if modes else []
        assert len(got) == len(alone) == len(old) == len(modes)
        for g, a, o in zip(got, alone, old):
            assert isinstance(g, np.ndarray) and g.shape == (A.shape[0], 8)
            assert np.array_equal(g, a) and np.array_equal(g, o)
    assert all(p.grad is None for p in teacher.params())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n_enc=st.integers(1, 3),
       stacks=st.lists(st.tuples(st.integers(1, 3), st.integers(2, 12)), min_size=1,
                       max_size=4))
def test_stack_list_encode_equals_each_stack_alone(seed, n_enc, stacks):
    """The stack list form lays the stacks' rows end to end: each stack's
    rows of the features and of every block output are its own 3-D encode's
    bit for bit."""
    rng = np.random.default_rng(seed)
    model = tiny_model(seed, n_enc)
    audio = [rng.normal(size=(n, t, 5)) for n, t in stacks]
    video = [rng.normal(size=(n, t, 3)) for n, t in stacks]
    with T.no_grad():
        feats, per_block = model.encode(audio, video)
        alone = [model.encode(a, v) for a, v in zip(audio, video)]
    assert feats.data.shape == (sum(n * t for n, t in stacks), 8)
    start = 0
    for (n, t), (f, blocks) in zip(stacks, alone):
        rows = slice(start, start + n * t)
        assert np.array_equal(feats.data[rows], f.data.reshape(-1, 8))
        for got, want in zip(per_block, blocks, strict=True):
            assert np.array_equal(got.data[rows], want.data.reshape(-1, 8))
        start += n * t


def test_stack_list_encode_rejects_one_frame_stacks_and_a_tape():
    model = tiny_model(0, 1)
    rng = np.random.default_rng(0)
    audio, video = [rng.normal(size=(2, 3, 5))], [rng.normal(size=(2, 3, 3))]
    bad = ([rng.normal(size=(2, 1, 5))], [rng.normal(size=(2, 1, 3))])
    for a, v in ((audio, [rng.normal(size=(2, 4, 3))]), bad,
                 (audio, [rng.normal(size=(6, 3))]), (audio + audio, video)):
        with T.no_grad(), pytest.raises(T.ShapeError):
            model.encode(a, v)
    with pytest.raises(T.ShapeError, match="no backward"):
        model.encode(audio, video)


def test_stacks_attention_runs_each_stack_and_never_drops_a_gradient():
    """The stack list form of ``attention_block``: the products once over all
    rows, attention per stack, each stack's rows its own 3-D call's and the
    chain's bit for bit; under a tape, with a mask or with given keys and
    values it raises."""
    rng = np.random.default_rng(1)
    stacks = [(2, 3), (1, 4), (3, 2)]
    X = rng.normal(size=(16, 6))
    weights = [rng.normal(size=(6, 6)) for _ in range(4)]
    got = T.attention_block(Tensor(X), *map(Tensor, weights), stacks=stacks)  # no tape
    start = 0
    for n, t in stacks:
        view = Tensor(X[start:start + n * t].reshape(n, t, 6))
        for block in (T.attention_block, chain_attention_block):
            want = block(view, *map(Tensor, weights)).data.reshape(-1, 6)
            assert got.data[start:start + n * t].tobytes() == want.tobytes()
        start += n * t
    for i in range(5):  # any operand a gradient could reach
        ops = [Tensor(x, requires_grad=(j == i)) for j, x in enumerate([X] + weights)]
        with pytest.raises(T.ShapeError, match="no backward"):
            T.attention_block(*ops, stacks=stacks)
        with T.no_grad():
            assert np.array_equal(T.attention_block(*ops, stacks=stacks).data, got.data)
    ops = [Tensor(X)] + [Tensor(w) for w in weights]
    for bad in ([(2, 3), (1, 4)], [(2, 3), (1, 4), (3, 2), (1, 1)], [(0, 3), (1, 4), (3, 2)],
                []):
        with pytest.raises(T.ShapeError):
            T.attention_block(*ops, stacks=bad)
    with pytest.raises(T.ShapeError):
        T.attention_block(*ops, mask=np.zeros((16, 16)), stacks=stacks)
    with pytest.raises(T.ShapeError):
        T.attention_block(*ops, kv=(Tensor(X), Tensor(X)), stacks=stacks)
    with pytest.raises(T.ShapeError):
        T.attention_block(Tensor(X.reshape(2, 8, 6)), *ops[1:], stacks=[(2, 8)])
