"""Desk-scale multimodal encoder/decoder.

``Encoder``: per-modality linear projectors, concatenation fusion, then blocks
of single-head self-attention + FFN with residuals and per-feature
standardization; an EMA teacher holds one alone. ``Model`` adds the decoder:
causal self-attention, cross-attention to the encoder features, and an FFN
position that is either a plain FFN or a MoE layer. An absent modality is
passed as all-zero frames.

Each of these stages is one tape node: the input stage
(``tensor.input_fusion``), each attention sub-block, the decoder's
included (``tensor.attention_block``), and each encoder FFN sub-block
(``tensor.ffn_block``). Cross-attention's keys and values of the encoder
features are their own product nodes (``AttentionBlock.keys_values``),
passed to the attention node as operands, so the features take them in
the order the primitive-op chain's backward walk did.

``Encoder.encode`` takes four input forms: one sequence ([T x D] frames), a
stack of n sequences of one length ([n x T x D], encoded side by side along
a leading axis with no mask: the student's inputs of one uptraining pair), a
list of sequences of any lengths, packed, and, under ``no_grad``, a list of
stacks of any lengths (the EMA teacher's target modes of every pair of an
uptraining step). The last runs the row-wise layers (projections, fusion,
the Q/K/V/output products, FFNs and standardizations) once over the rows of
all stacks laid end to end, and attention per stack on its own
[n x T x d] view, with no mask and no padding. A gemm row does not depend
on how many rows the product has, so each stack's rows equal the stack's
own encode bit for bit; a one-row product takes another BLAS path, so every
stack of that form needs T >= 2.

Several sequences run as one by packing: their rows are laid end to end and
0/-inf attention masks built from per-row segment ids keep them apart
(encoder self-attention block-diagonal, decoder self-attention block-diagonal
and causal, decoder segment i attending to encoder segment i only), while
decoder positions restart in each segment. One sequence is the one-segment
case: no encoder or cross-attention mask.

Greedy decoding is incremental: each step runs one decoder position per
sequence, its newest token, against per-layer caches of the earlier
positions' keys and values and of the encoder features' cross-attention keys
and values. Packed sequences decode in lockstep: every cached row records its
sequence, 0/-inf masks keep each new row on its own cached rows and its own
encoder segment, and a sequence leaves the step's rows once it emits EOS or
reaches its own length bound. One sequence builds no mask.

Checkpoints (format v2, the one format written and read) are one JSON object
whose arrays are base64 text of their little-endian float64 bytes, so a save
and load round trip is exact.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .metrics import atomic_open
from .moe_layer import ExpertFFN, MoELayer, MoELayerConfig
from .routing import MOD_AV
from .tensor import Tensor

CHECKPOINT_FORMAT = "avmoe-checkpoint-v2"


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
        # the MoE layers take the model's width, in a copy of their own
        self.moe = replace(self.moe, d=self.d, h=self.h)

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
    return owner_mask(segment_ids(q_lengths), segment_ids(k_lengths), causal)


def owner_mask(q_owners: np.ndarray, k_owners: np.ndarray, causal: bool = False) -> np.ndarray:
    """0/-inf attention mask letting query row i see only the key rows with
    the same owner (sequence) as itself and, when ``causal``, no later row."""
    allowed = q_owners[:, None] == k_owners[None, :]
    if causal:
        allowed &= np.tri(q_owners.size, k_owners.size, dtype=bool)
    return np.where(allowed, 0.0, -np.inf)


def sequence_mean_weights(lengths) -> np.ndarray:
    """Row weights that turn a weighted row sum into the mean over sequences
    of each sequence's mean over its own rows."""
    lengths = np.asarray(lengths)
    return np.repeat(1.0 / (lengths.size * lengths), lengths)


def _linear(rng, n_in, n_out):
    return Tensor.param((1.0 / np.sqrt(n_in)) * rng.normal(size=(n_in, n_out)))


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
                kv: tuple[Tensor, Tensor] | None = None, stacks=None) -> Tensor:
        """Attend from ``X`` to ``memory`` (default ``X`` itself), or to the
        precomputed keys and values ``kv`` when given; ``stacks`` as in
        ``T.attention_block``. A memory's keys and values are their own
        product nodes, passed to the block's node as operands."""
        if kv is None and memory is not None:
            kv = self.keys_values(memory)
        return T.attention_block(X, self.Wq, self.Wk, self.Wv, self.Wo, mask=mask, kv=kv,
                                 stacks=stacks)

    def params(self):
        return [self.Wq, self.Wk, self.Wv, self.Wo]


class FFNBlock:
    def __init__(self, d: int, h: int, rng):
        self.ffn = ExpertFFN.init(d, h, rng)

    def forward(self, X: Tensor) -> Tensor:
        return T.ffn_block(X, *self.ffn.params())

    def params(self):
        return self.ffn.params()


class EncoderBlock:
    def __init__(self, d: int, h: int, rng):
        self.attn = AttentionBlock(d, rng)
        self.ffn = FFNBlock(d, h, rng)

    def forward(self, X: Tensor, mask=None, stacks=None) -> Tensor:
        return self.ffn.forward(self.attn.forward(X, mask=mask, stacks=stacks))

    def params(self):
        return self.attn.params() + self.ffn.params()


class LayerCache:
    """One decoder layer's keys and values during incremental decoding: the
    self-attention rows of every position fed so far, of every sequence
    decoding in lockstep, appended into preallocated [rows x d] arrays with
    the sequence each row belongs to, and the cross-attention keys and
    values of the encoder features, computed once."""

    def __init__(self, block: "DecoderBlock", features: Tensor, rows: int):
        d = features.data.shape[1]
        self.keys = np.empty((rows, d))
        self.values = np.empty((rows, d))
        self.owners = np.empty(rows, dtype=np.int64)
        self.length = 0
        self.steps = 0  # appends so far: the position of the next rows
        self.attn = block.self_attn
        self.cross = block.cross_attn.keys_values(features)

    def append(self, X: Tensor, owners: np.ndarray) -> tuple[Tensor, Tensor]:
        """Append the keys and values of the newest rows ``X``, one per
        sequence in ``owners``, their products by the self-attention's Wk and
        Wv written straight into the cache; returns the keys and values of
        all rows."""
        n = self.length + X.data.shape[0]
        np.matmul(X.data, self.attn.Wk.data, out=self.keys[self.length:n])
        np.matmul(X.data, self.attn.Wv.data, out=self.values[self.length:n])
        self.owners[self.length:n] = owners
        self.length = n
        self.steps += 1
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
        """With ``cache``, ``X`` holds the next row of each sequence in
        ``segments``: its keys and values are appended, and it attends to the
        cached rows ``self_mask`` lets it see."""
        self_kv = cross_kv = None
        if cache is not None:
            self_kv = cache.append(X, segments)
            cross_kv = cache.cross
        X = self.self_attn.forward(X, mask=self_mask, kv=self_kv)
        X = self.cross_attn.forward(X, memory=memory, mask=cross_mask, kv=cross_kv)
        out, routing, stats = self.moe.forward(X, modalities=modalities, segments=segments)
        logit_rows = [] if routing is None else self.moe.router_logit_rows(routing)
        X = T.standardize_rows(X, out)
        return X, routing, logit_rows, stats

    def params(self):
        return self.self_attn.params() + self.cross_attn.params() + self.moe.params()


class Encoder:
    """Per-modality projectors, concatenation fusion and the encoder blocks:
    the part of a ``Model`` that an EMA teacher holds."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        d = cfg.d
        self.audio_proj = _linear(rng, cfg.dim_audio, d)
        self.video_proj = _linear(rng, cfg.dim_video, d)
        self.fusion = _linear(rng, 2 * d, d)
        self.encoder_blocks = [EncoderBlock(d, cfg.h, rng) for _ in range(cfg.n_enc)]

    def encoder_params(self) -> list[Tensor]:
        out = [self.audio_proj, self.video_proj, self.fusion]
        for blk in self.encoder_blocks:
            out.extend(blk.params())
        return out

    def encode(self, audio, video):
        """Encode one sequence, a stack of equally long sequences, a list of
        sequences packed into one, or a list of stacks.

        ``audio`` and ``video`` are [T x D] frame arrays; or [n x T x D]
        stacks, whose n sequences run side by side with no mask; or equally
        long lists of [T x D] arrays, packed, each attending only within
        itself; or, under ``no_grad``, equally long lists of [n x T x D]
        stacks with T >= 2, each run as a stack (see the module docstring).
        Returns (final features, per-block outputs): [n x T x d] for a
        stack, [sum of T x d] for sequences, [sum of n * T x d] for stacks,
        laid end to end."""
        if isinstance(audio, np.ndarray) and audio.ndim == 3:
            if not (isinstance(video, np.ndarray) and video.ndim == 3
                    and video.shape[:2] == audio.shape[:2]):
                raise T.ShapeError(f"audio stack {audio.shape} against video {np.shape(video)}")
            return self._encode_frames(audio, video, None)
        audios = [audio] if isinstance(audio, np.ndarray) else list(audio)
        videos = [video] if isinstance(video, np.ndarray) else list(video)
        if not audios or len(audios) != len(videos):
            raise T.ShapeError(f"{len(audios)} audio against {len(videos)} video sequences")
        if audios[0].ndim == 3:
            return self._encode_stacks(audios, videos)
        for a, v in zip(audios, videos):
            if a.shape[0] != v.shape[0]:
                raise T.ShapeError(
                    f"audio has {a.shape[0]} frames, video has {v.shape[0]}")
        lengths = [a.shape[0] for a in audios]
        return self._encode_frames(np.concatenate(audios), np.concatenate(videos),
                                   segment_mask(lengths, lengths))

    def _encode_stacks(self, audios: list, videos: list):
        """Encode a list of stacks, each of the [n x T x D] form, as one
        [sum of n * T x D] row batch whose attention runs stack by stack."""
        if not all(a.ndim == v.ndim == 3 and a.shape[:2] == v.shape[:2] and a.shape[1] >= 2
                   for a, v in zip(audios, videos)):
            raise T.ShapeError(f"stacks of audio {[np.shape(a) for a in audios]} against "
                               f"video {[np.shape(v) for v in videos]}: the stack list "
                               f"form takes 3-D stacks of T >= 2")
        stacks = [a.shape[:2] for a in audios]
        return self._encode_frames(np.concatenate([a.reshape(-1, a.shape[2]) for a in audios]),
                                   np.concatenate([v.reshape(-1, v.shape[2]) for v in videos]),
                                   None, stacks)

    def _encode_frames(self, audio: np.ndarray, video: np.ndarray, mask, stacks=None):
        X = T.input_fusion(audio, video, self.audio_proj, self.video_proj, self.fusion)
        per_block = []
        for blk in self.encoder_blocks:
            X = blk.forward(X, mask=mask, stacks=stacks)
            per_block.append(X)
        return X, per_block


class Model(Encoder):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        super().__init__(cfg, rng)
        d = cfg.d
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

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copy ``state`` into the parameters, after checking every name and
        shape, so that a rejected state changes nothing."""
        named = self.named_params()
        if set(state) != set(named):
            raise KeyError(f"state dict keys mismatch: {sorted(set(named) ^ set(state))[:5]}")
        arrays = {name: np.asarray(values, dtype=np.float64) for name, values in state.items()}
        for name, arr in arrays.items():
            if arr.shape != named[name].data.shape:
                raise T.ShapeError(
                    f"{name}: checkpoint {arr.shape} vs model {named[name].data.shape}")
        for name, arr in arrays.items():
            named[name].data[:] = arr

    # -- decoder --------------------------------------------------------------

    def _decode(self, features: Tensor, token_ids: list[int], lengths, feature_lengths,
                modalities: list[str], cache: list[LayerCache] | None = None,
                live: np.ndarray | None = None):
        """Teacher-forced pass over token sequences of ``lengths`` packed end
        to end, segment i attending to the ``feature_lengths[i]`` rows of
        segment i of ``features``; returns (logits, moe aux per layer).

        With ``cache`` (one LayerCache per decoder layer), ``token_ids`` is
        the next token of each sequence in ``live`` (ascending indices into
        ``feature_lengths``; ``lengths`` is all ones), at the position after
        the cached rows. Sequence i attends to its own cached rows and to
        segment i of ``features``."""
        if max(token_ids) >= self.cfg.n_classes or min(token_ids) < 0:
            raise IndexError(f"token id outside [0, {self.cfg.n_classes})")
        offset = 0 if cache is None else cache[0].steps
        if offset + max(lengths) > self.cfg.max_len:
            raise T.ShapeError(f"sequence of {offset + max(lengths)} tokens exceeds "
                               f"max_len={self.cfg.max_len}")
        if sum(feature_lengths) != features.data.shape[0]:
            raise T.ShapeError(f"segments of {sum(feature_lengths)} rows for "
                               f"{features.data.shape[0]} feature rows")
        if cache is None:
            segments = segment_ids(lengths)
            starts = np.cumsum(lengths) - lengths
            positions = self.positions[np.arange(segments.size) - starts[segments]]
            self_mask = segment_mask(lengths, lengths, causal=True)
            cross_mask = segment_mask(lengths, feature_lengths)
            caches = [None] * len(self.decoder_blocks)
        else:
            segments, caches = live, cache
            positions = self.positions[offset]  # every live row's, broadcast
            # one sequence owns every cached and feature row: no mask
            self_mask = cross_mask = None
            if len(feature_lengths) > 1:
                owners = np.concatenate([cache[0].owners[:cache[0].length], live])
                self_mask = owner_mask(live, owners)
                cross_mask = owner_mask(live, segment_ids(feature_lengths))
        X = T.add(T.index_rows(self.token_emb, token_ids), Tensor(positions))
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

    def decode_train(self, features: Tensor, labels, modality=MOD_AV, *,
                     feature_lengths):
        """Teacher-forced next-token prediction of the label sequences
        ``labels``, packed into one pass: sequence i attends to the next
        ``feature_lengths[i]`` rows of ``features`` (as ``encode`` packs
        them), and ``modality`` is one tag, or one tag per sequence.

        Returns (logits [sum of (L + 1) x n_classes], the mean over
        sequences of each one's mean cross-entropy, moe aux)."""
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

    def decode_greedy(self, features: Tensor, max_len, modality=MOD_AV, *,
                      feature_lengths):
        """Greedy transcripts, decoded incrementally: each step feeds only
        the newest token of each sequence through the decoder, against the
        cached keys and values of the earlier ones.

        The sequences are packed as ``encode`` packs them, sequence i over
        the next ``feature_lengths[i]`` rows, and decoded in lockstep:
        ``max_len`` holds one length bound per sequence, ``modality`` is one
        tag or one per sequence, and the result is one transcript per
        sequence. A sequence stops at EOS or at its bound."""
        bounds = list(max_len)
        tags = [modality] * len(bounds) if isinstance(modality, str) else list(modality)
        if not len(bounds) == len(tags) == len(feature_lengths):
            raise T.ShapeError(f"{len(bounds)} length bounds and {len(tags)} modality "
                               f"tags for {len(feature_lengths)} sequences")
        if min(bounds) < 1:
            raise ValueError("max_len must be >= 1")
        outs: list[list[int]] = [[] for _ in bounds]
        going = list(range(len(bounds)))  # the sequences still decoding
        nxt = [self.cfg.bos_id] * len(going)
        eos = self.cfg.eos_id
        with T.no_grad():
            rows = sum(min(n, self.cfg.max_len) for n in bounds)
            cache = [LayerCache(blk, features, rows) for blk in self.decoder_blocks]
            while going:
                logits, _ = self._decode(features, nxt, [1] * len(going), feature_lengths,
                                         [tags[i] for i in going], cache,
                                         np.array(going, dtype=np.int64))
                kept = []
                for i, token in zip(going, logits.data.argmax(axis=1).tolist()):
                    if token != eos:
                        outs[i].append(token)
                        if len(outs[i]) < bounds[i]:
                            kept.append(i)
                going = kept
                nxt = [outs[i][-1] for i in going]
        return outs

    # -- checkpoints ----------------------------------------------------------

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state that still affects inference."""
        return {f"dec{i}.moe_center": blk.moe.inter_center
                for i, blk in enumerate(self.decoder_blocks)}

    def save_checkpoint(self, path: str):
        """Write every parameter and buffer to ``path`` as one JSON object
        (format v2: see ``_encode_array``)."""
        payload = {"format": CHECKPOINT_FORMAT,
                   "params": {name: _encode_array(p.data)
                              for name, p in self.named_params().items()},
                   "buffers": {name: _encode_array(arr)
                               for name, arr in self.buffers().items()}}
        # json.dump streams; json.dumps would hold the whole text in memory
        with atomic_open(path) as f:
            json.dump(payload, f)

    def load_checkpoint(self, path: str):
        """Load a format v2 checkpoint. Any other format tag (v1 included), a
        malformed checkpoint, or one whose buffers do not match the model's
        raises ValueError or ShapeError, and parameter names that do not
        match raise KeyError; the model is then left unchanged."""
        with open(path) as f:
            payload = json.load(f)
        if not isinstance(payload, dict):
            raise ValueError(f"checkpoint holds a JSON {type(payload).__name__}, not an object")
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unknown checkpoint format {payload.get('format')!r}")
        state = {name: _decode_array(entry)
                 for name, entry in _checkpoint_section(payload, "params").items()}
        buffers = {name: _decode_array(entry)
                   for name, entry in _checkpoint_section(payload, "buffers").items()}
        named = self.buffers()
        if set(buffers) != set(named):
            raise ValueError(f"checkpoint buffers {sorted(buffers)} do not match "
                             f"the model's {sorted(named)}")
        for name, arr in buffers.items():
            if arr.shape != named[name].shape:
                raise T.ShapeError(
                    f"{name}: checkpoint {arr.shape} vs model {named[name].shape}")
        self.load_state_dict(state)
        for name, arr in buffers.items():
            named[name][...] = arr


def _encode_array(arr: np.ndarray) -> dict:
    """Checkpoint entry of a float64 array: its shape, and its little-endian
    float64 bytes in C order as base64 text. The round trip is exact, and
    equal arrays give equal text."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode_array(entry) -> np.ndarray:
    """The array of an ``_encode_array`` entry, as a new native float64 array;
    ValueError when the entry is malformed."""
    if not isinstance(entry, dict) or set(entry) != {"shape", "f8"}:
        raise ValueError("checkpoint array entry must be an object with 'shape' and 'f8'")
    shape, text = entry["shape"], entry["f8"]
    if (not isinstance(shape, list) or not isinstance(text, str)
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError("checkpoint array entry needs a list of sizes and a base64 string")
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} bytes of float64 data for shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _checkpoint_section(payload: dict, key: str) -> dict:
    section = payload.get(key)
    if not isinstance(section, dict):
        raise ValueError(f"checkpoint {key!r} must be a JSON object")
    return section
