"""Packed sequences: a supervised batch runs as one masked sequence.

The property test keeps the per-sequence supervised step as the reference:
each sequence encoded and decoded on its own, CE the mean of per-sequence
means, the z-loss the mean over (sequence, layer, router) logit matrices.
The packed step reorders float sums (attention rows with masked zeros,
weighted row sums), so it must agree to 1e-12, not bit for bit; one
segment runs exactly the old single-sequence ops and must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe.model import Model, ModelConfig, segment_mask
from avmoe.moe_layer import CENTER_MOMENTUM
from avmoe.moe_losses import (
    ROUTER_COLUMNS, load_balancing_from_stats, load_biasing_loss, router_z_loss, total_aux_loss,
)
from avmoe.routing import MODALITIES, Routing, dispatch_stats
from avmoe.tensor import Tensor
from avmoe.trainer import TrainConfig, _step_scalars, _supervised_step, build_model
from chains import chain_mean, concat_rows

TOL = 1e-12
FPT = 2  # frames per token
MOE = {
    "dense_ffn": {},
    "sparse_topk": {"n_experts": 4, "k": 2},
    "hard": {"n_groups": 2, "n_per_group": 3, "k": 2},
    "hierarchical": {"n_groups": 2, "n_per_group": 3},
}


def _cfg(mode, **moe_kw) -> TrainConfig:
    return TrainConfig.from_dict({
        "regime": "supervised_moe", "steps": 1, "batch_size": 1, "seed": 3,
        "model": {"dim_audio": 6, "dim_video": 6, "d": 8, "h": 12, "n_enc": 1,
                  "n_dec": 2, "vocab": 6, "topk_blocks": 1,
                  "moe": {"mode": mode, **MOE[mode], **moe_kw}},
        "generator": {"vocab": 6, "dim_audio": 6, "dim_video": 6},
    })


def laid_end_to_end(records):
    """One Routing over the rows of several, in order."""
    def rows(tensors):
        return concat_rows(list(tensors))
    first = records[0]
    return Routing([t for r in records for t in r.modalities],
                   [rows(ps) for ps in zip(*(r.logits for r in records))],
                   [rows(ps) for ps in zip(*(r.expert_probs for r in records))],
                   np.concatenate([r.stacked_probs for r in records], axis=1),
                   np.concatenate([r.selected for r in records]),
                   rows(r.weights for r in records),
                   group_probs=(None if first.group_probs is None
                                else rows(r.group_probs for r in records)))


def per_sequence_step(model, cfg, batch):
    """The supervised step before packing: one encode and decode per sequence."""
    ces, layer_routings, logit_rows = [], {}, []
    for audio, video, labels, tag in batch:
        feats, _ = model.encode(audio, video)
        _, ce, aux = model.decode_train(feats, [labels], modality=tag,
                                        feature_lengths=[feats.data.shape[0]])
        ces.append(ce)
        for li, layer_aux in enumerate(aux):
            if layer_aux["routing"] is not None:
                layer_routings.setdefault(li, []).append(layer_aux["routing"])
            logit_rows.extend(layer_aux["logit_rows"])
    zero = Tensor(np.zeros(()))
    balance = bias = zero
    if layer_routings:
        stats = [dispatch_stats(laid_end_to_end(r)) for r in layer_routings.values()]
        balance = chain_mean([load_balancing_from_stats(s) for s in stats])
        if stats[0].n_groups == 2 and stats[0].g:
            bias = chain_mean([load_biasing_loss(s) for s in stats])
    z = chain_mean([router_z_loss(r) for r in logit_rows]) if logit_rows else zero
    total, means = total_aux_loss(chain_mean(ces), [balance], [bias], [z],
                                  c_balance=cfg.c_balance, c_bias=cfg.c_bias)
    return _step_scalars(ROUTER_COLUMNS, means, total), total


def _close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))))


def _run(step, cfg, batch, center):
    model = build_model(cfg)
    for blk in model.decoder_blocks:
        blk.moe.inter_center = center.copy()
    scalars, total = step(model, cfg, batch)[:2]
    total.backward()
    return model, scalars


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mode=st.sampled_from(sorted(MOE)), m=st.integers(1, 2), k_per_group=st.integers(1, 2),
       lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
       tags=st.lists(st.sampled_from(MODALITIES), min_size=6, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_packed_step_matches_per_sequence_sum(mode, m, k_per_group, lengths, tags, seed):
    kw = {"m": m, "k_per_group": k_per_group} if mode == "hierarchical" else {}
    cfg = _cfg(mode, **kw)
    rng = np.random.default_rng(seed)
    batch = [(rng.normal(size=(FPT * n, 6)), rng.normal(size=(FPT * n, 6)),
              rng.integers(0, 6, size=n), tag) for n, tag in zip(lengths, tags)]
    center = rng.normal(size=8)
    ref, ref_scalars = _run(per_sequence_step, cfg, batch, center)
    packed, scalars = _run(_supervised_step, cfg, batch, center)

    assert scalars.keys() == ref_scalars.keys()
    for key, value in scalars.items():
        assert _close(value, ref_scalars[key]), key
    ref_params = ref.named_params()
    for name, p in packed.named_params().items():
        want = ref_params[name].grad
        assert (p.grad is None) == (want is None), name
        if want is not None:
            assert _close(p.grad, want), name
    for blk, ref_blk in zip(packed.decoder_blocks, ref.decoder_blocks):
        assert _close(blk.moe.inter_center, ref_blk.moe.inter_center)
        assert blk.moe.eval_counts() == ref_blk.moe.eval_counts()


def old_encode(model, audio, video):
    a = T.matmul(Tensor(audio), model.audio_proj)
    v = T.matmul(Tensor(video), model.video_proj)
    X = T.matmul(T.concat_cols([a, v]), model.fusion)
    for blk in model.encoder_blocks:
        X = blk.ffn.forward(blk.attn.forward(X))
    return X


def old_decode_train(model, feats, labels, tag):
    """Single-sequence decoding as it ran before packing, including the
    hierarchical layer's center update from the batch mean."""
    inputs = [model.cfg.bos_id] + labels
    n = len(inputs)
    X = T.add(T.index_rows(model.token_emb, inputs), Tensor(model.positions[:n]))
    mask = np.triu(np.full((n, n), -np.inf), k=1)
    for blk in model.decoder_blocks:
        X = blk.self_attn.forward(X, mask=mask)
        X = blk.cross_attn.forward(X, memory=feats)
        layer = blk.moe
        if layer.cfg.mode == "dense_ffn":
            out = layer.experts[0].forward(X)
        else:
            if layer.cfg.mode == "hierarchical":
                mom = CENTER_MOMENTUM
                layer.inter_center = (mom * layer.inter_center
                                      + (1 - mom) * X.data.mean(axis=0))
            out = layer.combine(X, layer.route(X, [tag] * n))
        X = T.standardize_rows(T.add(X, out))
    logits = T.matmul(X, model.head)
    return logits, T.cross_entropy_rows(logits, labels + [model.cfg.eos_id])


@pytest.mark.parametrize("mode", sorted(MOE))
def test_one_segment_runs_the_single_sequence_ops_bit_for_bit(mode):
    cfg = _cfg(mode, **({"m": 2} if mode == "hierarchical" else {}))
    rng = np.random.default_rng(11)
    audio, video = rng.normal(size=(8, 6)), rng.normal(size=(8, 6))
    labels, tag = [1, 4, 0, 5], MODALITIES[0]
    new, old = build_model(cfg), build_model(cfg)

    feats, _ = new.encode(audio, video)
    logits, ce, _ = new.decode_train(feats, [labels], modality=tag, feature_lengths=[8])
    ce.backward()
    old_feats = old_encode(old, audio, video)
    old_logits, old_ce = old_decode_train(old, old_feats, labels, tag)
    old_ce.backward()

    assert np.array_equal(feats.data, old_feats.data)
    assert np.array_equal(logits.data, old_logits.data)
    assert float(ce.data) == float(old_ce.data)
    old_params = old.named_params()
    for name, p in new.named_params().items():
        want = old_params[name].grad
        assert (p.grad is None) == (want is None), name
        if want is not None:
            assert np.array_equal(p.grad, want), name
    for blk, old_blk in zip(new.decoder_blocks, old.decoder_blocks):
        assert np.array_equal(blk.moe.inter_center, old_blk.moe.inter_center)


def test_packed_segment_frame_mismatch_raises():
    model = Model(ModelConfig(dim_audio=5, dim_video=5, d=8, h=12, vocab=4), seed=0)
    rng = np.random.default_rng(0)
    with pytest.raises(T.ShapeError, match="5 frames, video has 4"):
        model.encode([rng.normal(size=(3, 5)), rng.normal(size=(5, 5))],
                     [rng.normal(size=(3, 5)), rng.normal(size=(4, 5))])


def test_packed_decode_rejects_segments_that_do_not_cover_features():
    model = Model(ModelConfig(dim_audio=5, dim_video=5, d=8, h=12, vocab=4), seed=0)
    rng = np.random.default_rng(1)
    feats, _ = model.encode([rng.normal(size=(3, 5))] * 2, [rng.normal(size=(3, 5))] * 2)
    with pytest.raises(T.ShapeError):
        model.decode_train(feats, [[1], [2]], feature_lengths=[3, 2])


def test_segment_masks():
    inf = -np.inf
    assert segment_mask([4], [7]) is None
    assert np.array_equal(segment_mask([2, 1], [1, 2]),
                          [[0, inf, inf], [0, inf, inf], [inf, 0, 0]])
    assert np.array_equal(segment_mask([2, 2], [2, 2], causal=True),
                          [[0, inf, inf, inf], [0, 0, inf, inf],
                           [inf, inf, 0, inf], [inf, inf, 0, 0]])
    assert np.array_equal(segment_mask([3], [3], causal=True),
                          np.triu(np.full((3, 3), -np.inf), k=1))
