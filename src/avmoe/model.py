"""Desk-scale multimodal encoder/decoder.

Encoder: per-modality linear projectors, concatenation fusion, then blocks of
single-head self-attention + FFN with residuals and per-feature
standardization. Decoder: causal self-attention, cross-attention to the
encoder features, and an FFN position that is either a plain FFN or a MoE
layer. An absent modality is passed as all-zero frames.

Several sequences run as one by packing: their rows are laid end to end and
0/-inf attention masks built from per-row segment ids keep them apart
(encoder self-attention block-diagonal, decoder self-attention block-diagonal
and causal, decoder segment i attending to encoder segment i only), while
decoder positions restart in each segment. One sequence is the one-segment
case: no encoder or cross-attention mask.

Greedy decoding is incremental: each step runs one decoder position, the
newest token, against per-layer caches of the earlier positions' keys and
values and of the encoder features' cross-attention keys and values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .metrics import atomic_open
from .moe_layer import ExpertFFN, MoELayer, MoELayerConfig
from .routing import MOD_AV
from .tensor import Tensor

CHECKPOINT_FORMAT = "avmoe-checkpoint-v1"


@dataclass
class ModelConfig:
    dim_audio: int = 16
    dim_video: int = 16
    d: int = 32
    h: int = 64
    n_enc: int = 2
    n_dec: int = 2
    vocab: int = 16
    topk_blocks: int = 2
    max_len: int = 160
    moe: MoELayerConfig = field(default_factory=lambda: MoELayerConfig(mode="dense_ffn"))

    def __post_init__(self):
        if min(self.dim_audio, self.dim_video, self.d, self.h, self.n_enc,
               self.n_dec, self.vocab, self.topk_blocks, self.max_len) < 1:
            raise ValueError("all model dimensions must be positive")
        if self.topk_blocks > self.n_enc:
            raise ValueError("topk_blocks cannot exceed encoder depth")
        # keep the MoE layer dims in lockstep with the model width
        self.moe.d = self.d
        self.moe.h = self.h

    @property
    def bos_id(self) -> int:
        return self.vocab

    @property
    def eos_id(self) -> int:
        return self.vocab + 1

    @property
    def n_classes(self) -> int:
        return self.vocab + 2


def sinusoidal_positions(max_len: int, d: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def segment_ids(lengths) -> np.ndarray:
    """Segment id of each row of sequences of ``lengths`` packed end to end."""
    return np.repeat(np.arange(len(lengths)), lengths)


def segment_mask(q_lengths, k_lengths, causal: bool = False) -> np.ndarray | None:
    """0/-inf attention mask letting each query row of a packed sequence see
    only the key rows of its own segment and, when ``causal``, no later row.

    None (attend everywhere) for one non-causal segment."""
    if len(q_lengths) != len(k_lengths):
        raise T.ShapeError(
            f"{len(q_lengths)} query segments against {len(k_lengths)} key segments")
    if len(q_lengths) == 1 and not causal:
        return None
    q, k = segment_ids(q_lengths), segment_ids(k_lengths)
    allowed = q[:, None] == k[None, :]
    if causal:
        allowed &= np.tri(q.size, k.size, dtype=bool)
    return np.where(allowed, 0.0, -np.inf)


def sequence_mean_weights(lengths) -> np.ndarray:
    """Row weights that turn a weighted row sum into the mean over sequences
    of each sequence's mean over its own rows."""
    lengths = np.asarray(lengths)
    return np.repeat(1.0 / (lengths.size * lengths), lengths)


def _linear(rng, n_in, n_out, scale=None):
    scale = scale if scale is not None else 1.0 / np.sqrt(n_in)
    return Tensor.param(scale * rng.normal(size=(n_in, n_out)))


class AttentionBlock:
    """Single-head attention with residual + standardization."""

    def __init__(self, d: int, rng):
        self.Wq = _linear(rng, d, d)
        self.Wk = _linear(rng, d, d)
        self.Wv = _linear(rng, d, d)
        self.Wo = _linear(rng, d, d)

    def keys_values(self, memory: Tensor) -> tuple[Tensor, Tensor]:
        return T.matmul(memory, self.Wk), T.matmul(memory, self.Wv)

    def forward(self, X: Tensor, memory: Tensor | None = None, mask=None,
                kv: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """Attend from ``X`` to ``memory`` (default ``X`` itself), or to the
        precomputed keys and values ``kv`` when given."""
        q = T.matmul(X, self.Wq)
        K, V = self.keys_values(X if memory is None else memory) if kv is None else kv
        att = T.attention(q, K, V, mask=mask)
        return T.standardize_rows(T.add(X, T.matmul(att, self.Wo)))

    def params(self):
        return [self.Wq, self.Wk, self.Wv, self.Wo]


class FFNBlock:
    def __init__(self, d: int, h: int, rng):
        self.ffn = ExpertFFN.init(d, h, rng)

    def forward(self, X: Tensor) -> Tensor:
        return T.standardize_rows(T.add(X, self.ffn.forward(X)))

    def params(self):
        return self.ffn.params()


class EncoderBlock:
    def __init__(self, d: int, h: int, rng):
        self.attn = AttentionBlock(d, rng)
        self.ffn = FFNBlock(d, h, rng)

    def forward(self, X: Tensor, mask=None) -> Tensor:
        return self.ffn.forward(self.attn.forward(X, mask=mask))

    def params(self):
        return self.attn.params() + self.ffn.params()


class LayerCache:
    """One decoder layer's keys and values during incremental decoding: the
    self-attention rows of every position fed so far, appended into
    preallocated [rows x d] arrays, and the cross-attention keys and values
    of the encoder features, computed once."""

    def __init__(self, block: "DecoderBlock", features: Tensor, rows: int):
        d = features.data.shape[1]
        self.keys = np.empty((rows, d))
        self.values = np.empty((rows, d))
        self.length = 0
        self.cross = block.cross_attn.keys_values(features)

    def append(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append the newest rows; returns the keys and values of all rows."""
        n = self.length + k.data.shape[0]
        self.keys[self.length:n] = k.data
        self.values[self.length:n] = v.data
        self.length = n
        return Tensor(self.keys[:n]), Tensor(self.values[:n])


class DecoderBlock:
    """Causal self-attention, cross-attention, then the (MoE) FFN position."""

    def __init__(self, cfg: ModelConfig, rng):
        d = cfg.d
        self.self_attn = AttentionBlock(d, rng)
        self.cross_attn = AttentionBlock(d, rng)
        self.moe = MoELayer(cfg.moe, rng)

    def forward(self, X: Tensor, memory: Tensor, self_mask, cross_mask, modalities,
                segments, cache: LayerCache | None = None):
        """With ``cache``, ``X`` is the row after the cached ones: its keys
        and values are appended, and it attends to every cached row."""
        self_kv = cross_kv = None
        if cache is not None:
            self_kv = cache.append(*self.self_attn.keys_values(X))
            cross_kv = cache.cross
        X = self.self_attn.forward(X, mask=self_mask, kv=self_kv)
        X = self.cross_attn.forward(X, memory=memory, mask=cross_mask, kv=cross_kv)
        out, routing, stats = self.moe.forward(X, modalities=modalities, segments=segments)
        logit_rows = [] if routing is None else self.moe.router_logit_rows(routing)
        X = T.standardize_rows(T.add(X, out))
        return X, routing, logit_rows, stats

    def params(self):
        return self.self_attn.params() + self.cross_attn.params() + self.moe.params()


class Model:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d = cfg.d
        self.audio_proj = _linear(rng, cfg.dim_audio, d)
        self.video_proj = _linear(rng, cfg.dim_video, d)
        self.fusion = _linear(rng, 2 * d, d)
        self.encoder_blocks = [EncoderBlock(d, cfg.h, rng) for _ in range(cfg.n_enc)]
        self.token_emb = Tensor.param(0.1 * rng.normal(size=(cfg.n_classes, d)))
        self.decoder_blocks = [DecoderBlock(cfg, rng) for _ in range(cfg.n_dec)]
        self.head = _linear(rng, d, cfg.n_classes)
        self.positions = sinusoidal_positions(cfg.max_len, d)

    # -- parameters -----------------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        out = {"audio_proj": self.audio_proj, "video_proj": self.video_proj,
               "fusion": self.fusion, "token_emb": self.token_emb, "head": self.head}
        for i, blk in enumerate(self.encoder_blocks):
            for j, p in enumerate(blk.params()):
                out[f"enc{i}.p{j}"] = p
        for i, blk in enumerate(self.decoder_blocks):
            for j, p in enumerate(blk.params()):
                out[f"dec{i}.p{j}"] = p
        return out

    def params(self) -> list[Tensor]:
        return list(self.named_params().values())

    def encoder_params(self) -> list[Tensor]:
        out = [self.audio_proj, self.video_proj, self.fusion]
        for blk in self.encoder_blocks:
            out.extend(blk.params())
        return out

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_params().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        named = self.named_params()
        if set(state) != set(named):
            missing = set(named) ^ set(state)
            raise KeyError(f"state dict keys mismatch: {sorted(missing)[:5]}")
        for name, values in state.items():
            p = named[name]
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != p.data.shape:
                raise T.ShapeError(f"{name}: checkpoint {arr.shape} vs model {p.data.shape}")
            p.data[:] = arr

    # -- encoder --------------------------------------------------------------

    def encode(self, audio, video):
        """Encode one sequence, or a list of sequences packed into one.

        ``audio`` and ``video`` are [T x D] frame arrays, or equally long
        lists of them; packed sequences attend only within themselves.
        Returns (final features [sum of T x d], per-block outputs)."""
        audios = [audio] if isinstance(audio, np.ndarray) else list(audio)
        videos = [video] if isinstance(video, np.ndarray) else list(video)
        if len(audios) != len(videos):
            raise T.ShapeError(f"{len(audios)} audio against {len(videos)} video sequences")
        for a, v in zip(audios, videos):
            if a.shape[0] != v.shape[0]:
                raise T.ShapeError(
                    f"audio has {a.shape[0]} frames, video has {v.shape[0]}")
        lengths = [a.shape[0] for a in audios]
        mask = segment_mask(lengths, lengths)
        a = T.matmul(Tensor(np.concatenate(audios)), self.audio_proj)
        v = T.matmul(Tensor(np.concatenate(videos)), self.video_proj)
        X = T.matmul(T.concat_cols([a, v]), self.fusion)
        per_block = []
        for blk in self.encoder_blocks:
            X = blk.forward(X, mask=mask)
            per_block.append(X)
        return X, per_block

    # -- decoder --------------------------------------------------------------

    def _decode(self, features: Tensor, token_ids: list[int], lengths, feature_lengths,
                modalities: list[str], cache: list[LayerCache] | None = None):
        """Teacher-forced pass over token sequences of ``lengths`` packed end
        to end, segment i attending to the ``feature_lengths[i]`` rows of
        segment i of ``features``; returns (logits, moe aux per layer).

        With ``cache`` (one LayerCache per decoder layer), ``token_ids`` is
        one token of one sequence, at the position after the cached rows."""
        if max(token_ids) >= self.cfg.n_classes or min(token_ids) < 0:
            raise IndexError(f"token id outside [0, {self.cfg.n_classes})")
        offset = 0 if cache is None else cache[0].length
        if offset + max(lengths) > self.cfg.max_len:
            raise T.ShapeError(f"sequence of {offset + max(lengths)} tokens exceeds "
                               f"max_len={self.cfg.max_len}")
        if sum(feature_lengths) != features.data.shape[0]:
            raise T.ShapeError(f"segments of {sum(feature_lengths)} rows for "
                               f"{features.data.shape[0]} feature rows")
        segments = segment_ids(lengths)
        starts = np.cumsum(lengths) - lengths
        positions = self.positions[offset + np.arange(segments.size) - starts[segments]]
        X = T.add(T.index_rows(self.token_emb, token_ids), Tensor(positions))
        # the newest row of a causal prefix attends to every cached row
        self_mask = segment_mask(lengths, lengths, causal=True) if cache is None else None
        cross_mask = segment_mask(lengths, feature_lengths)
        caches = [None] * len(self.decoder_blocks) if cache is None else cache
        aux = []
        for blk, layer_cache in zip(self.decoder_blocks, caches):
            X, routing, logit_rows, stats = blk.forward(
                X, features, self_mask, cross_mask, modalities, segments, layer_cache)
            aux.append({"routing": routing, "logit_rows": logit_rows, "stats": stats})
        return T.matmul(X, self.head), aux

    def decode_step(self, features: Tensor, token_ids: list[int], modality: str):
        """One teacher-forced decoder pass; returns (logits, moe aux per layer).

        Each layer's aux holds its Routing and its DispatchStats (both None
        in dense mode) and its expert-router logit matrices."""
        n = len(token_ids)
        return self._decode(features, token_ids, [n], [features.data.shape[0]],
                            [modality] * n)

    def decode_train(self, features: Tensor, labels, modality=MOD_AV,
                     feature_lengths=None):
        """Teacher-forced next-token prediction.

        With ``feature_lengths`` None, ``labels`` is one label sequence over
        all of ``features``. Otherwise ``labels`` is a list of sequences
        packed into one pass, sequence i attending to the next
        ``feature_lengths[i]`` rows of ``features`` (as ``encode`` packs
        them), and ``modality`` is one tag, or one tag per sequence.

        Returns (logits [sum of (L + 1) x n_classes], the mean over
        sequences of each one's mean cross-entropy, moe aux)."""
        if feature_lengths is None:
            labels, feature_lengths = [labels], [features.data.shape[0]]
        seqs = [[int(t) for t in seq] for seq in labels]
        tags = [modality] * len(seqs) if isinstance(modality, str) else list(modality)
        if len(tags) != len(seqs):
            raise T.ShapeError(f"{len(tags)} modality tags for {len(seqs)} sequences")
        if any(t < 0 or t >= self.cfg.vocab for seq in seqs for t in seq):
            raise IndexError(f"label outside vocab of size {self.cfg.vocab}")
        inputs, targets, lengths, modalities = [], [], [], []
        for seq, tag in zip(seqs, tags):
            inputs += [self.cfg.bos_id] + seq
            targets += seq + [self.cfg.eos_id]
            lengths.append(len(seq) + 1)
            modalities += [tag] * (len(seq) + 1)
        logits, aux = self._decode(features, inputs, lengths, feature_lengths, modalities)
        weights = None if len(seqs) == 1 else sequence_mean_weights(lengths)
        ce = T.cross_entropy_rows(logits, targets, row_weights=weights)
        return logits, ce, aux

    def decode_greedy(self, features: Tensor, max_len: int, modality: str = MOD_AV) -> list[int]:
        """Greedy transcript of at most ``max_len`` tokens, decoded
        incrementally: each step feeds only the newest token through the
        decoder, against the cached keys and values of the earlier ones."""
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        n_feat = features.data.shape[0]
        nxt = self.cfg.bos_id
        out: list[int] = []
        with T.no_grad():
            rows = min(max_len, self.cfg.max_len)
            cache = [LayerCache(blk, features, rows) for blk in self.decoder_blocks]
            for _ in range(max_len):
                logits, _ = self._decode(features, [nxt], [1], [n_feat], [modality], cache)
                nxt = int(np.argmax(logits.data[-1]))
                if nxt == self.cfg.eos_id:
                    break
                out.append(nxt)
        return out

    # -- checkpoints ----------------------------------------------------------

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state that still affects inference."""
        return {f"dec{i}.moe_center": blk.moe.inter_center
                for i, blk in enumerate(self.decoder_blocks)}

    def save_checkpoint(self, path: str):
        payload = {"format": CHECKPOINT_FORMAT,
                   "params": {name: {"shape": list(arr.shape), "values": arr.reshape(-1).tolist()}
                              for name, arr in self.state_dict().items()},
                   "buffers": {name: arr.tolist()
                               for name, arr in self.buffers().items()}}
        # json.dump streams; json.dumps would hold the whole text in memory
        with atomic_open(path) as f:
            json.dump(payload, f)

    def load_checkpoint(self, path: str):
        with open(path) as f:
            payload = json.load(f)
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unknown checkpoint format {payload.get('format')!r}")
        state = {name: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
                 for name, entry in payload["params"].items()}
        self.load_state_dict(state)
        for i, blk in enumerate(self.decoder_blocks):
            key = f"dec{i}.moe_center"
            if key in payload.get("buffers", {}):
                blk.moe.inter_center = np.asarray(payload["buffers"][key], dtype=np.float64)
