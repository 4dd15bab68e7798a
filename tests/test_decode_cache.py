"""Incremental greedy decoding against the full-prefix decoder it replaced,
and lockstep decoding of packed sequences against one call per sequence.

The oracle re-runs ``decode_step`` over the whole prefix at every token and
takes the last row's argmax. The cached decoder computes each new row's keys
and values with a [1 x d] matmul instead of a row of a [n x d] one, so its
logits agree to 1e-12, not bit for bit. Lockstep decoding runs every live
sequence's row in one matmul and masks the other sequences' rows out of each
softmax, so it too agrees with per-sequence calls to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe.model import Model, ModelConfig
from avmoe.moe_layer import MoELayerConfig
from avmoe.routing import MODALITIES
from avmoe.tensor import Tensor

TOL = 1e-12
MOE = {
    "dense_ffn": {},
    "sparse_topk": {"n_experts": 4, "k": 2},
    "hard": {"n_groups": 2, "n_per_group": 3, "k": 2},
    "hierarchical": {"n_groups": 2, "n_per_group": 3, "m": 2, "k_per_group": 1},
}


def evals_per_token(cfg: MoELayerConfig) -> int:
    if cfg.mode == "dense_ffn":
        return 1
    if cfg.mode == "hierarchical":
        return cfg.m * cfg.k_per_group
    return cfg.k


def make_model(mode: str, seed: int, n_dec: int = 2, max_len: int = 24) -> Model:
    cfg = ModelConfig(dim_audio=5, dim_video=5, d=8, h=12, n_enc=1, n_dec=n_dec,
                      vocab=6, topk_blocks=1, max_len=max_len,
                      moe=MoELayerConfig(mode=mode, **MOE[mode]))
    return Model(cfg, seed=seed)


def features(model: Model, frames: int, seed: int):
    rng = np.random.default_rng(seed)
    with T.no_grad():
        feats, _ = model.encode(rng.normal(size=(frames, 5)), rng.normal(size=(frames, 5)))
    return feats


def full_prefix_greedy(model: Model, feats, max_len: int, modality: str):
    """(tokens, last-row logits of every step) of the full-prefix decoder."""
    tokens, steps = [model.cfg.bos_id], []
    with T.no_grad():
        for _ in range(max_len):
            logits, _ = model.decode_step(feats, tokens, modality)
            steps.append(logits.data[-1].copy())
            nxt = int(np.argmax(steps[-1]))
            if nxt == model.cfg.eos_id:
                break
            tokens.append(nxt)
    return tokens[1:], steps


def cached_greedy(model: Model, feats, max_len: int, modality: str):
    """(tokens, last-row logits of every step, tape nodes built) of
    ``decode_greedy``."""
    steps, nodes = [], []
    decode, make = model._decode, T._make

    def spy_decode(*args, **kwargs):
        logits, aux = decode(*args, **kwargs)
        steps.append(logits.data[-1].copy())
        return logits, aux

    def spy_make(data, parents, backward):
        if parents:
            nodes.append(data)
        return make(data, parents, backward)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "_decode", spy_decode)
        m.setattr(T, "_make", spy_make)
        tokens, = model.decode_greedy(feats, [max_len], modality,
                                      feature_lengths=[feats.data.shape[0]])
    return tokens, steps, len(nodes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(sorted(MOE)), seed=st.integers(0, 2 ** 16),
       n_dec=st.integers(1, 3), frames=st.integers(1, 9), max_len=st.sampled_from(range(1, 25)),
       modality=st.sampled_from(MODALITIES), head_scale=st.sampled_from([1.0, 0.0]),
       center=st.booleans())
def test_cached_decoder_matches_full_prefix(mode, seed, n_dec, frames, max_len, modality,
                                            head_scale, center):
    model = make_model(mode, seed, n_dec)
    # a zero EOS column makes long transcripts likely, so the cache fills up
    model.head.data[:, model.cfg.eos_id] *= head_scale
    rng = np.random.default_rng(seed + 1)
    if center:
        for blk in model.decoder_blocks:
            blk.moe.inter_center = rng.normal(size=model.cfg.d)
    centers = [blk.moe.inter_center.copy() for blk in model.decoder_blocks]
    feats = features(model, frames, seed + 2)
    want_tokens, want_steps = full_prefix_greedy(model, feats, max_len, modality)
    tokens, steps, nodes = cached_greedy(model, feats, max_len, modality)
    assert tokens == want_tokens
    assert len(steps) == len(want_steps)
    for got, want in zip(steps, want_steps):
        assert np.max(np.abs(got - want)) <= TOL
    for blk, before in zip(model.decoder_blocks, centers):
        assert np.array_equal(blk.moe.inter_center, before)
    assert nodes == 0


def lockstep_greedy(model: Model, feats: list, bounds: list[int], tags: list[str]):
    """(transcripts, per-sequence logits of every step, tape nodes built) of
    one ``decode_greedy`` call over the sequences ``feats``, packed."""
    steps, nodes = [[] for _ in feats], []
    decode, make = model._decode, T._make

    def spy_decode(features, token_ids, lengths, feature_lengths, modalities, cache, live):
        logits, aux = decode(features, token_ids, lengths, feature_lengths, modalities,
                             cache, live)
        for i, row in zip(live, logits.data):
            steps[i].append(row.copy())
        return logits, aux

    def spy_make(data, parents, backward):
        if parents:
            nodes.append(data)
        return make(data, parents, backward)

    packed = Tensor(np.concatenate([f.data for f in feats]))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "_decode", spy_decode)
        m.setattr(T, "_make", spy_make)
        tokens = model.decode_greedy(packed, bounds, tags,
                                     feature_lengths=[f.data.shape[0] for f in feats])
    return tokens, steps, len(nodes)


def summed_eval_counts(model: Model) -> list[int]:
    return [n for blk in model.decoder_blocks for n in blk.moe.eval_counts()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(sorted(MOE)), seed=st.integers(0, 2 ** 16),
       n_dec=st.integers(1, 3),
       seqs=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 24),
                               st.sampled_from(MODALITIES)), min_size=1, max_size=5),
       head_scale=st.sampled_from([1.0, 0.3, 0.0]), center=st.booleans())
def test_lockstep_decoding_matches_one_call_per_sequence(mode, seed, n_dec, seqs,
                                                         head_scale, center):
    model = make_model(mode, seed, n_dec)
    # a shrunk EOS column mixes early EOS with transcripts that run to their bound
    model.head.data[:, model.cfg.eos_id] *= head_scale
    if center:
        rng = np.random.default_rng(seed + 1)
        for blk in model.decoder_blocks:
            blk.moe.inter_center = rng.normal(size=model.cfg.d)
    centers = [blk.moe.inter_center.copy() for blk in model.decoder_blocks]
    feats = [features(model, frames, seed + 2 + i) for i, (frames, _, _) in enumerate(seqs)]
    bounds = [bound for _, bound, _ in seqs]
    tags = [tag for _, _, tag in seqs]

    start = summed_eval_counts(model)
    want = [cached_greedy(model, f, bound, tag) for f, bound, tag in zip(feats, bounds, tags)]
    mid = summed_eval_counts(model)
    tokens, steps, nodes = lockstep_greedy(model, feats, bounds, tags)

    assert tokens == [w_tokens for w_tokens, _, _ in want]
    for got, (_, want_steps, _) in zip(steps, want):
        assert len(got) == len(want_steps)
        for g, w in zip(got, want_steps):
            assert np.max(np.abs(g - w)) <= TOL
    assert (np.subtract(summed_eval_counts(model), mid).tolist()
            == np.subtract(mid, start).tolist())
    for blk, before in zip(model.decoder_blocks, centers):
        assert np.array_equal(blk.moe.inter_center, before)
    assert nodes == 0


def test_decoding_past_model_max_len_raises():
    model = make_model("hierarchical", seed=4, max_len=6)
    model.head.data[:] = 0.0
    model.head.data[:, 2] = 5.0  # never emits EOS
    feats = features(model, 5, seed=4)
    assert [len(t) for t in model.decode_greedy(feats, [6], feature_lengths=[5])] == [6]
    with pytest.raises(T.ShapeError):
        model.decode_greedy(feats, [7], feature_lengths=[5])
    # packed: only the sequence whose bound passes max_len runs past it
    packed = Tensor(np.concatenate([feats.data, feats.data[:3]]))
    assert [len(t) for t in model.decode_greedy(packed, [6, 2], feature_lengths=[5, 3])] == [6, 2]
    with pytest.raises(T.ShapeError):
        model.decode_greedy(packed, [2, 7], feature_lengths=[5, 3])


def test_packed_decoding_checks_its_arguments():
    model = make_model("sparse_topk", seed=5)
    feats = features(model, 4, seed=5)
    packed = Tensor(np.concatenate([feats.data, feats.data]))
    with pytest.raises(T.ShapeError):
        model.decode_greedy(packed, [3], feature_lengths=[4, 4])
    with pytest.raises(T.ShapeError):
        model.decode_greedy(packed, [3, 3], ["av"], feature_lengths=[4, 4])
    with pytest.raises(T.ShapeError):
        model.decode_greedy(packed, [3, 3], feature_lengths=[4, 3])
    with pytest.raises(ValueError):
        model.decode_greedy(packed, [3, 0], feature_lengths=[4, 4])


@pytest.mark.parametrize("mode", sorted(MOE))
def test_one_decoder_position_per_step(mode):
    """Each step feeds one row through every layer: expert evaluations are
    steps x the evaluations one token costs."""
    model = make_model(mode, seed=7)
    model.head.data[:, model.cfg.eos_id] = 0.0
    feats = features(model, 6, seed=7)
    before = [sum(blk.moe.eval_counts()) for blk in model.decoder_blocks]
    max_len = 12
    tokens, = model.decode_greedy(feats, [max_len], feature_lengths=[6])
    steps = len(tokens) + (len(tokens) < max_len)  # plus the step that emitted EOS
    assert steps > 1
    for blk, start in zip(model.decoder_blocks, before):
        assert sum(blk.moe.eval_counts()) - start == steps * evals_per_token(model.cfg.moe)
