"""The oracle of the fused ops: the chains of primitive ops they stand for.

Each fused op of ``avmoe.tensor`` runs the numpy arithmetic of its chain in
the chain's order, so its output and operand gradients equal the chain's
bit for bit (``test_fused_ops.py``). The chains use the ops below, which no
run calls, so the package does not ship them: ``tmean``, ``mean_axis0``,
``logsumexp``, ``softmax``, ``transpose``, ``stack_matmul``, ``concat_rows``
and ``scatter_rows``, each one node made with ``tensor._make``.

The two whole-step oracles end the file: ``chain_supervised_step`` and
``chain_uptrain_step``, the training steps built from the chains. The
uptraining one also spells out the pair draw, the seven tasks and the
teacher's targets (``per_mode_targets``) without ``avmoe.distill``'s
helpers, so it checks them too.
"""

import contextlib
import math

import numpy as np
import pytest

from avmoe import tensor as T
from avmoe.corruption import (
    AUDIO_MASK_PROB, AUDIO_MASK_SPAN, DROP_AUDIO, DROP_VIDEO, VIDEO_MASK_PROB,
    VIDEO_MASK_SPAN, allocate_masks, apply_modality_dropout, corrupt_pair, sample_plan_preset,
)
from avmoe.model import AttentionBlock, Encoder, FFNBlock, sequence_mean_weights
from avmoe.moe_losses import DEFAULT_C_Z, ROUTER_COLUMNS
from avmoe.routing import AUDIO_GROUP, MOD_AUDIO, MOD_VIDEO, VIDEO_GROUP
from avmoe.streams import generate_pair
from avmoe.tensor import Tensor
from avmoe.trainer import AV_SNR_CHOICES, CORRUPTION_PRESET


def tmean(a: Tensor) -> Tensor:
    a = T._as_tensor(a)
    n = a.data.size
    data = a.data.mean()
    if not T._track(a):
        return Tensor(data)
    return T._make(data, (a,), lambda g: a._accum(np.full_like(a.data, g / n)))


def mean_axis0(a: Tensor) -> Tensor:
    """Column means of a 2-D tensor."""
    a = T._as_tensor(a)
    n = a.data.shape[0]
    data = np.add.reduce(a.data, axis=0) / n
    if not T._track(a):
        return Tensor(data)
    return T._make(data, (a,), lambda g: a._accum(np.broadcast_to(g / n, a.data.shape)))


def logsumexp(a: Tensor) -> Tensor:
    """Row-wise (last axis) logsumexp; returns shape ``a.shape[:-1]``."""
    a = T._as_tensor(a)
    if a.data.size == 0:
        raise T.ShapeError("logsumexp of an empty tensor")
    data, e, s = T._logsumexp_rows(a.data)
    if not T._track(a):
        return Tensor(data)
    return T._make(data, (a,), lambda g: a._accum(np.expand_dims(g, -1) * (e / s)))


def softmax(a: Tensor) -> Tensor:
    """Row-wise (last axis) softmax, the node each router's softmax in
    ``router_softmaxes`` is."""
    a = T._as_tensor(a)
    y = T._softmax_rows(a.data, None)
    if not T._track(a):
        return Tensor(y)
    return T._make(y, (a,), T._softmax_backward(a, y))


def transpose(a):
    """The chain's transpose node, of the last two axes: its backward passes
    the transposed view of ``g`` on, whose memory order ``attention``'s K
    gradient keeps."""
    if not T._track(a):
        return Tensor(a.data.swapaxes(-1, -2))
    return T._make(a.data.swapaxes(-1, -2), (a,), lambda g: a._accum(g.swapaxes(-1, -2)))


def stack_matmul(a, b):
    """The chain's product of two [n x ...] stacks, slice by slice; ``T.matmul``
    takes a stack only on the left of a matrix."""
    if not T._track(a, b):
        return Tensor(a.data @ b.data)

    def backward(g):
        if T._needs_grad(a):
            a._accum(g @ b.data.swapaxes(-1, -2))
        if T._needs_grad(b):
            b._accum(a.data.swapaxes(-1, -2) @ g)

    return T._make(a.data @ b.data, (a, b), backward)


def concat_rows(parts):
    """The chain's concatenation of 2-D tensors along axis 0."""
    data = np.concatenate([p.data for p in parts], axis=0)
    if not T._track(*parts):
        return Tensor(data)
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, n in zip(parts, sizes):
            if T._needs_grad(p):
                p._accum(g[off:off + n])
            off += n

    return T._make(data, tuple(parts), backward)


def scatter_rows(rows, idx, n_rows):
    """The chain's scatter-add of ``rows`` into an all-zero [n_rows x d]
    tensor at positions ``idx``, the adjoint of ``T.index_rows``."""
    data = np.zeros((n_rows, rows.data.shape[1]))
    np.add.at(data, idx, rows.data)
    if not T._track(rows):
        return Tensor(data)
    return T._make(data, (rows,), lambda g: rows._accum(g[idx]))


# -- the encoder's input stage and the sub-blocks, as the model ran them
# before each was one node

def chain_ffn(x, W1, b1, W2, b2):
    hidden = T.gelu(T.add(T.matmul(x, W1), b1))
    return T.add(T.matmul(hidden, W2), b2)


def chain_attention(Q, K, V, mask):
    """softmax(Q K^T / sqrt(d) + mask) V, the attention of 2-D operands or
    of [n x T x d] stacks, slice by slice."""
    matmul = T.matmul if Q.data.ndim == 2 else stack_matmul
    scores = T.scale(matmul(Q, transpose(K)), 1.0 / math.sqrt(Q.data.shape[-1]))
    if mask is not None:
        scores = T.add(scores, Tensor(mask))
    return matmul(softmax(scores), V)


def chain_standardize(a, residual):
    return T.standardize_rows(T.add(a, residual))


def chain_attention_block(X, Wq, Wk, Wv, Wo, mask=None, kv=None):
    """The products by Wq, Wk and Wv (or the given keys and values), the
    attention, the product by Wo and the residual standardization."""
    q = T.matmul(X, Wq)
    K, V = (T.matmul(X, Wk), T.matmul(X, Wv)) if kv is None else kv
    return T.standardize_rows(X, T.matmul(chain_attention(q, K, V, mask), Wo))


def chain_ffn_block(X, W1, b1, W2, b2):
    return T.standardize_rows(X, T.ffn(X, W1, b1, W2, b2))


def chain_input_fusion(A, V, Wa, Wv, Wf):
    return T.matmul(T.concat_cols([T.matmul(A, Wa), T.matmul(V, Wv)]), Wf)


def chain_encode(model, audio, video, mask=None, stacks=None):
    """``Encoder._encode_frames`` as the chains above: (features, per-block
    outputs) of [T x D] frames, or of an [n x T x D] stack."""
    assert stacks is None, "the chains have no stack list form"
    X = chain_input_fusion(Tensor(audio), Tensor(video), model.audio_proj, model.video_proj,
                           model.fusion)
    per_block = []
    for blk in model.encoder_blocks:
        X = chain_attention_block(X, *blk.attn.params(), mask=mask)
        X = chain_ffn_block(X, *blk.ffn.params())
        per_block.append(X)
    return X, per_block


def chain_attention_forward(block, X, memory=None, mask=None, kv=None, stacks=None):
    """``AttentionBlock.forward`` as ``chain_attention_block``."""
    assert stacks is None, "the chains have no stack list form"
    if kv is None and memory is not None:
        kv = block.keys_values(memory)
    return chain_attention_block(X, *block.params(), mask=mask, kv=kv)


@contextlib.contextmanager
def chain_model():
    """Every ``Encoder`` and ``Model`` runs its input stage and sub-blocks as
    the chains above inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Encoder, "_encode_frames", chain_encode)
        mp.setattr(AttentionBlock, "forward", chain_attention_forward)
        mp.setattr(FFNBlock, "forward", lambda block, X: chain_ffn_block(X, *block.params()))
        yield


def chain_moe_combine(X, weights, selected, experts):
    """Each expert's FFN on its gathered rows, experts in ascending order,
    weighted and scattered back."""
    B, k = selected.shape
    order = np.argsort(selected.ravel(), kind="stable")
    ids = selected.ravel()[order]
    rows = order // k
    bounds = np.flatnonzero(np.diff(ids)) + 1
    outputs = [T.ffn(T.index_rows(X, r), *experts[e[0]])
               for e, r in zip(np.split(ids, bounds), np.split(rows, bounds))]
    w = T.take(weights, order[:, None])
    return scatter_rows(T.mul(concat_rows(outputs), w), rows, B)


def chain_router_softmaxes(X, weights):
    """Each router's own matmul node under a softmax node, router by router."""
    logits, probs = [], []
    for W in weights:
        logits.append(T.matmul(X, W))
        probs.append(softmax(logits[-1]))
    return logits, probs


# -- router losses: the chains the supervised step built before they were fused

def chain_load_balancing(probs, f):
    """Per group, ``scale(tsum(mul(f, mean_axis0(probs))), n)``, added in
    group order: the balancing over ``dispatch_stats``'s P nodes."""
    total = None
    for p, fg in zip(probs, f):
        fg = np.asarray(fg, dtype=np.float64)
        term = T.scale(T.tsum(T.mul(Tensor(fg), mean_axis0(p))), float(fg.shape[0]))
        total = term if total is None else T.add(total, term)
    return total


def chain_mean_probs(stats):
    """The mean probabilities of a ``DispatchStats`` as ``mean_axis0`` nodes
    over its probability tensors: P per expert group, and Q per modality
    subset, after ``index_rows`` of the subset's rows (none without group
    probabilities)."""
    q = stats.group_probs
    return [mean_axis0(p) for p in stats.expert_probs], {} if q is None else {
        tag: mean_axis0(q if rows is None else T.index_rows(q, rows))
        for tag, rows in stats.subsets.items()}


def chain_load_biasing(q, terms):
    """Per (rows, group, w) term, 1 - w * Q[group] with Q the ``mean_axis0``
    of ``index_rows`` of the rows (of q itself when rows is None), added in
    order to a constant 0."""
    total = Tensor(0.0)
    for rows, group, w in terms:
        Q = mean_axis0(q if rows is None else T.index_rows(q, rows))
        total = T.add(total, T.sub(Tensor(1.0), T.scale(T.tsum(T.take(Q, [group])), w)))
    return total


def chain_squared_logsumexp(a, row_weights=None):
    lse = logsumexp(a)
    sq = T.mul(lse, lse)
    if row_weights is None:
        return tmean(sq)
    return T.tsum(T.mul(sq, Tensor(np.asarray(row_weights, dtype=np.float64))))


def chain_mean(ts):
    """The mean of scalar tensors as an add chain and a scale (0 for none)."""
    if not ts:
        return Tensor(np.zeros(()))
    total = ts[0]
    for t in ts[1:]:
        total = T.add(total, t)
    return T.scale(total, 1.0 / len(ts))


def chain_router_loss_total(ce, balance, bias, z, c_balance, c_bias, c_z=DEFAULT_C_Z):
    """The three lists' means, scaled and added to the CE in pairs; returns
    the total and the four column means (the CE's is the CE)."""
    means = [chain_mean(ts) for ts in (balance, bias, z)]
    total = T.add(T.add(ce, T.scale(means[0], c_balance)),
                  T.add(T.scale(means[1], c_bias), T.scale(means[2], c_z)))
    return total, [ce.data] + [m.data for m in means]


# -- the losses: the chains the training steps built before they were fused --

def chain_cross_entropy_rows(logits, target_ids, row_weights=None):
    """``logsumexp`` and ``take`` of the target logits, then the mean of
    their difference, or its sum weighted by the rows."""
    n_rows, n_cls = logits.data.shape
    lse = logsumexp(logits)
    picked = T.take(logits, np.asarray(target_ids) + np.arange(n_rows) * n_cls)
    if row_weights is None:
        return T.scale(T.sub(T.tsum(lse), T.tsum(picked)), 1.0 / n_rows)
    return T.tsum(T.mul(T.sub(lse, picked), Tensor(np.asarray(row_weights, dtype=np.float64))))


def chain_head_mse(features, head, targets, rows):
    """``head_mse`` of the [T x d] ``features`` (a ``stack_slice`` node): the
    product by the head over all T rows, then ``index_rows`` of ``rows``,
    ``sub`` of the same rows of the constant ``targets``, ``mul`` and
    ``tmean``."""
    d = T.sub(T.index_rows(T.matmul(features, head), rows), Tensor(targets[rows]))
    return tmean(T.mul(d, d))


def chain_cav2vec_total(acp, vcp, mask, mlm, weights=(1.0, 1.0, 1.0, 2.0)):
    """The weighted sum of the four column means, each scaled, added in pairs."""
    w = weights
    return T.add(T.add(T.scale(acp, w[0]), T.scale(vcp, w[1])),
                 T.add(T.scale(mask, w[2]), T.scale(mlm, w[3])))


def chain_task_loss_total(columns, weights):
    """Each (loss, share) term scaled by its share (kept when 1), each column's
    ``chain_mean``, and ``chain_cav2vec_total`` of the means."""
    means = [chain_mean([loss if share == 1 else T.scale(loss, share)
                         for loss, share in column]) for column in columns]
    return chain_cav2vec_total(*means, weights=weights), [m.data for m in means]


# -- the whole training steps, built from the chains --------------------------

def chain_supervised_step(model, cfg, batch):
    """The supervised step as it ran before its loss terms were fused: P and
    Q as ``mean_axis0``/``index_rows`` nodes over the stats' probability
    tensors, each loss term a chain of primitive ops, and the means and the
    weighted total add and scale chains."""
    audios, videos, labels, tags = (list(col) for col in zip(*batch))
    feats, _ = model.encode(audios, videos)
    _, ce, aux = model.decode_train(feats, labels, modality=tags,
                                    feature_lengths=[a.shape[0] for a in audios])
    stats = [layer_aux["stats"] for layer_aux in aux if layer_aux["stats"] is not None]
    balance = [chain_load_balancing(s.expert_probs, s.expert_f) for s in stats]
    bias = []
    if stats and stats[0].n_groups == 2 and stats[0].g:
        bias = [chain_load_biasing(s.group_probs, [
            (s.subsets[tag], group, float(s.g[tag][group]))
            for tag, group in ((MOD_AUDIO, AUDIO_GROUP), (MOD_VIDEO, VIDEO_GROUP))
            if s.counts.get(tag, 0) > 0]) for s in stats]
    row_weights = sequence_mean_weights([len(seq) + 1 for seq in labels])
    z = [chain_squared_logsumexp(rows, row_weights)
         for layer_aux in aux for rows in layer_aux["logit_rows"]]
    total, means = chain_router_loss_total(ce, balance, bias, z, cfg.c_balance, cfg.c_bias)
    return {**dict(zip(ROUTER_COLUMNS, map(float, means))), "total": float(total.data)}, total


# each uptraining task: (student input, teacher target, frames scored,
# steps.csv columns sharing its loss). "masked" is the corrupted pair with its
# masked frames zeroed, "kept" the modality a dropout kept (AV without one);
# "union", "audio" and "video" are corrupted frames
UPTRAIN_TASKS = {
    "AVCP": ("AV", "AV", "union", ("L_ACP", "L_VCP")),
    "mACP": ("AV", "A_only", "video", ("L_ACP",)),
    "mVCP": ("AV", "V_only", "audio", ("L_VCP",)),
    "ACP": ("V_only", "A_only", "video", ("L_ACP",)),
    "VCP": ("A_only", "V_only", "audio", ("L_VCP",)),
    "MASK": ("masked", "kept", "masked", ("L_MASK",)),
    "MLM": ("masked", "AV", "masked", ("L_MLM",)),
}


def with_mode(A, V, mode):
    """(A, V) with the modality a unimodal mode leaves out zeroed."""
    return {"AV": (A, V), "A_only": (A, np.zeros_like(V)),
            "V_only": (np.zeros_like(A), V)}[mode]


def per_mode_targets(teacher, A, V, topk, mode):
    """The teacher's [T x d] targets of the clean pair in one mode, from one
    2-D encode: the mean of the top ``topk`` block outputs, standardized per
    frame."""
    a, v = with_mode(A, V, mode)
    with T.no_grad():
        _, per_block = teacher.encode(a, v)
    avg = np.stack([b.data for b in per_block[-topk:]]).mean(axis=0)
    return (avg - avg.mean(axis=1, keepdims=True)) / np.sqrt(
        avg.var(axis=1, keepdims=True) + 1e-6)


def chain_uptrain_step(model, teacher, heads, centroids, cfg, data_rng, corr_rng):
    """The uptraining step, pair by pair: draw the pair and its corruption,
    score each task of ``cfg.tasks`` on its frames against
    ``per_mode_targets``, and add 0 for a task with none. A pair's distinct
    student inputs, masked first, are one ``chain_encode`` stack and a
    ``stack_slice`` node each; an MSE task is ``chain_head_mse``, MLM the
    cross-entropy chain of its nearest-centroid ids, AVCP's halves ``scale``
    nodes, and the column means and weighted total add and scale chains."""
    topk = model.cfg.topk_blocks
    # a weight gradient sums the student stack's rows in order, so the
    # masked input leads it
    names = sorted(cfg.tasks, key=lambda name: UPTRAIN_TASKS[name][0] != "masked")
    zero = Tensor(np.zeros(()))
    losses = {column: [] for column in ("L_ACP", "L_VCP", "L_MASK", "L_MLM")}
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
        audio, video = set(plan.audio_corrupt.tolist()), set(plan.video_corrupt.tolist())
        index_sets = {"masked": set(plan.audio_mask.tolist()) | set(plan.video_mask.tolist()),
                      "union": audio | video, "audio": audio, "video": video}
        kept = {DROP_AUDIO: "V_only", DROP_VIDEO: "A_only"}.get(plan.modality_drop, "AV")
        frames = {name: sorted(index_sets[UPTRAIN_TASKS[name][2]]) for name in names}

        inputs, targets = {}, {}
        for name in names:
            if frames[name]:
                mode = UPTRAIN_TASKS[name][0]
                inputs.setdefault(mode, (A_in, V_in) if mode == "masked"
                                  else with_mode(A_corr, V_corr, mode))
        if inputs:
            feats, _ = chain_encode(model, np.stack([a for a, _ in inputs.values()]),
                                    np.stack([v for _, v in inputs.values()]))
            rows = {mode: T.stack_slice(feats, i) for i, mode in enumerate(inputs)}
        for name in names:
            input_mode, target_mode, _, columns = UPTRAIN_TASKS[name]
            idx, loss = frames[name], zero
            if idx:
                mode = kept if target_mode == "kept" else target_mode
                if mode not in targets:
                    targets[mode] = per_mode_targets(teacher.encoder, A, V, topk, mode)
                head = heads.heads[name]
                if name == "MLM":
                    dist = ((targets[mode][idx][:, None, :] - centroids[None]) ** 2).sum(axis=2)
                    loss = chain_cross_entropy_rows(
                        T.matmul(T.index_rows(rows[input_mode], idx), head),
                        np.argmin(dist, axis=1))
                else:
                    loss = chain_head_mse(rows[input_mode], head, targets[mode], idx)
            for column in columns:
                losses[column].append(loss if len(columns) == 1
                                      else T.scale(loss, 1 / len(columns)))
    parts = {column: chain_mean(ts) for column, ts in losses.items()}
    total = chain_cav2vec_total(*parts.values())
    parts["total"] = total
    return {name: float(part.data) for name, part in parts.items()}, total
