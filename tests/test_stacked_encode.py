"""Stacked encoding: n equally long sequences through one encoder call.

A stack runs each slice with the arithmetic of the 2-D ops, so its features
and every per-block output must equal n single-sequence encodes bit for bit.
A weight's gradient is one gemm over all n*T rows, which adds the slices'
contributions in another order than n encodes summed on the tape: the
gradients must agree to 1e-12, and bit for bit for one slice.

The uptraining step encodes each pair as two stacks (the teacher's target
modes, the student's task inputs); its reference here is the step it
replaced, which encoded every task's input and target on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe.corruption import (
    AUDIO_MASK_PROB, AUDIO_MASK_SPAN, DROP_AUDIO, DROP_VIDEO, VIDEO_MASK_PROB,
    VIDEO_MASK_SPAN, allocate_masks, apply_modality_dropout, corrupt_pair, sample_plan_preset,
)
from avmoe.distill import (
    MODE_A_ONLY, MODE_AV, MODE_V_ONLY, TASK_WEIGHTS, VARIANTS, DistillHeads,
    make_centroids, make_teacher, masked_prediction_loss, mlm_loss, teacher_targets,
)
from avmoe.model import Model, ModelConfig
from avmoe.streams import generate_pair
from avmoe.tensor import Tensor
from avmoe.trainer import (
    AV_SNR_CHOICES, CORRUPTION_PRESET, TrainConfig, _mean_scalars, _uptrain_step,
    build_model, seed_streams,
)

TOL = 1e-12
MODES = (MODE_AV, MODE_A_ONLY, MODE_V_ONLY)
TASKS = ("MASK", "MLM", "AVCP", "mACP", "mVCP", "ACP", "VCP")


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
    for name, got, p in zip(model.named_params(), stacked_grads, model.params()):
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


def per_mode_targets(teacher, A, V, topk, mode):
    """``teacher_targets`` as it was: one 2-D encode per mode."""
    a, v = {MODE_AV: (A, V), MODE_A_ONLY: (A, np.zeros_like(V)),
            MODE_V_ONLY: (np.zeros_like(A), V)}[mode]
    with T.no_grad():
        _, per_block = teacher.encode(a, v)
    avg = np.stack([b.data for b in per_block[-topk:]]).mean(axis=0)
    return (avg - avg.mean(axis=1, keepdims=True)) / np.sqrt(
        avg.var(axis=1, keepdims=True) + 1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), frames=st.integers(1, 12), n_enc=st.integers(1, 3),
       modes=st.lists(st.sampled_from(MODES), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_multi_mode_teacher_targets_equal_per_mode_calls(seed, frames, n_enc, modes, data):
    topk = data.draw(st.integers(1, n_enc))
    rng = np.random.default_rng(seed)
    teacher = tiny_model(seed, n_enc)
    A, V = rng.normal(size=(frames, 5)), rng.normal(size=(frames, 3))
    stacked = teacher_targets(teacher, A, V, topk, modes=modes)
    assert len(stacked) == len(modes)
    for mode, got in zip(modes, stacked):
        (single,) = teacher_targets(teacher, A, V, topk, modes=[mode])
        old = per_mode_targets(teacher, A, V, topk, mode)
        assert isinstance(got, np.ndarray) and got.shape == (frames, 8)
        assert np.array_equal(got, single)
        assert np.array_equal(single, old)
    assert all(p.grad is None for p in teacher.params())


# -- the uptraining step against the per-sequence step it replaced -----------

def per_sequence_uptrain_step(model, teacher, heads, centroids, cfg, data_rng, corr_rng):
    """The uptraining step before stacking: each task encodes its own student
    input and its own teacher target, one sequence per call."""
    topk = model.cfg.topk_blocks
    zero = Tensor(np.zeros(()))
    acps, vcps, masks, mlms = [], [], [], []
    for _ in range(cfg.batch_size):
        length = int(data_rng.integers(cfg.tokens_min, cfg.tokens_max + 1))
        pair = generate_pair(cfg.generator, length, int(data_rng.integers(2 ** 31)))
        A, V = pair.audio, pair.video
        plan = sample_plan_preset(CORRUPTION_PRESET, A.shape[0],
                                  int(corr_rng.integers(2 ** 31)),
                                  drop_prob=cfg.modality_dropout)
        plan = allocate_masks(plan, AUDIO_MASK_PROB, AUDIO_MASK_SPAN,
                              VIDEO_MASK_PROB, VIDEO_MASK_SPAN,
                              int(corr_rng.integers(2 ** 31)))
        snr = float(corr_rng.choice(np.asarray(AV_SNR_CHOICES)))
        A_corr, V_corr = corrupt_pair(A, V, plan, int(corr_rng.integers(2 ** 31)),
                                      audio_snr_db=snr)
        A_corr, V_corr = apply_modality_dropout(A_corr, V_corr, plan)
        A_in, V_in = A_corr.copy(), V_corr.copy()
        A_in[plan.audio_mask] = 0.0
        V_in[plan.video_mask] = 0.0
        mask_idx = sorted(set(plan.audio_mask.tolist()) | set(plan.video_mask.tolist()))
        if "MASK" in cfg.tasks:
            mode = {DROP_AUDIO: MODE_V_ONLY, DROP_VIDEO: MODE_A_ONLY}.get(
                plan.modality_drop, MODE_AV)
            targets = per_mode_targets(teacher.encoder, A, V, topk, mode)
            feats, _ = model.encode(A_in, V_in)
            masks.append(masked_prediction_loss(T.matmul(feats, heads.heads["MASK"]),
                                                targets, mask_idx) if mask_idx else zero)
        for name in cfg.tasks:
            if name not in VARIANTS:
                continue
            variant = VARIANTS[name]
            audio, video = set(plan.audio_corrupt.tolist()), set(plan.video_corrupt.tolist())
            idx = sorted({"union": audio | video, "audio": audio,
                          "video": video}[variant.index_set])
            loss = zero
            if idx:
                targets = per_mode_targets(teacher.encoder, A, V, topk, variant.target_mode)
                a, v = {MODE_AV: (A_corr, V_corr),
                        MODE_A_ONLY: (A_corr, np.zeros_like(V_corr)),
                        MODE_V_ONLY: (np.zeros_like(A_corr), V_corr)}[variant.input_mode]
                feats, _ = model.encode(a, v)
                loss = masked_prediction_loss(T.matmul(feats, heads.heads[name]),
                                              targets, idx)
            if variant.target_mode == MODE_A_ONLY:
                acps.append(loss)
            elif variant.target_mode == MODE_V_ONLY:
                vcps.append(loss)
            else:
                acps.append(T.scale(loss, 0.5))
                vcps.append(T.scale(loss, 0.5))
        if "MLM" in cfg.tasks:
            t_feats = per_mode_targets(teacher.encoder, A, V, topk, MODE_AV)
            feats, _ = model.encode(A_in, V_in)
            mlms.append(mlm_loss(feats, centroids, t_feats, mask_idx, heads.heads["MLM"])
                        if mask_idx else zero)
    parts = [_mean_scalars(ts) if ts else zero for ts in (acps, vcps, masks, mlms)]
    w = TASK_WEIGHTS
    total = T.add(T.add(T.scale(parts[0], w["acp"]), T.scale(parts[1], w["vcp"])),
                  T.add(T.scale(parts[2], w["mask"]), T.scale(parts[3], w["mlm"])))
    return [float(p.data) for p in parts] + [float(total.data)], total


def _uptrain_setup(tasks, seed, batch_size, dropout, n_enc):
    cfg = TrainConfig.from_dict({
        "regime": "cav2vec_uptrain", "steps": 1, "batch_size": batch_size, "seed": seed,
        "tokens_min": 1, "tokens_max": 4, "tasks": list(tasks),
        "modality_dropout": dropout, "n_centroids": 4,
        "model": {"dim_audio": 5, "dim_video": 4, "d": 8, "h": 12, "n_enc": n_enc,
                  "n_dec": 1, "vocab": 4, "topk_blocks": n_enc,
                  "moe": {"mode": "dense_ffn"}},
        "generator": {"vocab": 4, "dim_audio": 5, "dim_video": 4},
    })
    model = build_model(cfg)
    teacher = make_teacher(model, total_steps=1)
    for p in teacher.encoder.encoder_params():  # a teacher distinct from the student
        p.data += 0.01
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids, seed=seed)
    centroids = make_centroids(cfg.n_centroids, cfg.model.d, seed=1)
    return cfg, model, teacher, heads, centroids


def _run_step(step, cfg, model, teacher, heads, centroids):
    streams = seed_streams(cfg.seed)
    data_rng = np.random.default_rng(streams["data"])
    corr_rng = np.random.default_rng(streams["corruption"])
    scalars, total = step(model, teacher, heads, centroids, cfg, data_rng, corr_rng)
    if isinstance(scalars, dict):
        scalars = [scalars[k] for k in ("L_ACP", "L_VCP", "L_MASK", "L_MLM", "total")]
    total.backward()
    params = model.params() + heads.params()
    grads = [p.grad for p in params]
    for p in params:
        p.zero_grad()
    return scalars, grads, (data_rng.bit_generator.state, corr_rng.bit_generator.state)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tasks=st.lists(st.sampled_from(TASKS), min_size=1, max_size=7, unique=True),
       seed=st.integers(0, 2 ** 16), batch_size=st.integers(1, 3),
       dropout=st.sampled_from([0.0, 0.25, 0.5]), n_enc=st.integers(1, 2))
def test_stacked_uptrain_step_matches_the_per_sequence_step(tasks, seed, batch_size,
                                                            dropout, n_enc):
    """Same RNG draws, losses bit for bit (every forward slice is exact),
    gradients to 1e-12."""
    setup = _uptrain_setup(tasks, seed, batch_size, dropout, n_enc)
    got, got_grads, got_rng = _run_step(_uptrain_step, *setup)
    want, want_grads, want_rng = _run_step(per_sequence_uptrain_step, *setup)
    assert got == want and got_rng == want_rng
    for g, w in zip(got_grads, want_grads):
        assert (g is None) == (w is None)
        if g is not None:
            assert_close(g, w)


@pytest.mark.parametrize("seed", range(4))
def test_mask_only_uptrain_step_is_bitwise_the_per_sequence_step(seed):
    """One student input and one teacher mode per pair: stacks of one slice,
    so the gradients are the per-sequence step's bit for bit too."""
    setup = _uptrain_setup(("MASK",), seed, 3, 0.25, 2)
    got, got_grads, _ = _run_step(_uptrain_step, *setup)
    want, want_grads, _ = _run_step(per_sequence_uptrain_step, *setup)
    assert got == want
    for g, w in zip(got_grads, want_grads):
        assert (g is None) == (w is None)
        assert g is None or np.array_equal(g, w)
