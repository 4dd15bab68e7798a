"""Corruption protocol: the three named plan presets, span masks over their
clean frames, and the corruption operators (SNR-targeted additive noise on
audio; zeroing, -10 dB additive noise, a 3-frame temporal blur or a frame
shuffle on video).

A ``CorruptionPlan`` holds four index sets over its ``seq_len`` frames, each a
sorted, unique int64 array: the corrupted and the masked frames of each
modality. Masked and corrupted index sets are kept disjoint: masks are sampled
after corruption and any colliding index is removed. The set arithmetic runs
on boolean frame marks of length ``seq_len``: mark the indices, combine the
marks, and read the indices back with ``nonzero``. That gives the sorted,
unique sets numpy's set routines give, at a fraction of their per-call cost
on sequences of a few dozen frames.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

DROP_NONE = "none"
DROP_AUDIO = "drop_audio"
DROP_VIDEO = "drop_video"

# the video operators corrupt_pair draws from, in draw order
VIDEO_OPS = ("zero", "additive_noise", "blur", "shuffle")
VIDEO_NOISE_SNR_DB = -10.0
BLUR_WINDOW = 3
# the span masks of the uptraining pairs, per modality: the expected share of
# frames masked and the span length (see allocate_masks)
AUDIO_MASK_PROB, AUDIO_MASK_SPAN = 0.3, 3
VIDEO_MASK_PROB, VIDEO_MASK_SPAN = 0.2, 2


class DegenerateNoiseError(ValueError):
    """Noise has zero energy over the span to corrupt."""


@dataclass
class CorruptionPlan:
    seq_len: int
    audio_corrupt: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    video_corrupt: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    audio_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    video_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    modality_drop: str = DROP_NONE

    def __post_init__(self):
        if not isinstance(self.seq_len, numbers.Integral) or self.seq_len < 0:
            raise ValueError(f"seq_len must be an integer >= 0, got {self.seq_len!r}")
        marks = []
        for name in ("audio_corrupt", "video_corrupt", "audio_mask", "video_mask"):
            idx = np.asarray(getattr(self, name))
            if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
                raise ValueError(f"{name} must be a 1-D array of integer frame indices, "
                                 f"got shape {idx.shape} and dtype {idx.dtype}")
            mark = np.zeros(self.seq_len, dtype=bool)
            if idx.size:
                if idx.min() < 0 or idx.max() >= self.seq_len:
                    raise ValueError(f"{name} indices outside [0, {self.seq_len})")
                mark[idx] = True
            setattr(self, name, mark.nonzero()[0])
            marks.append(mark)
        if self.modality_drop not in (DROP_NONE, DROP_AUDIO, DROP_VIDEO):
            raise ValueError(f"unknown modality_drop {self.modality_drop!r}")
        audio_corrupt, video_corrupt, audio_mask, video_mask = marks
        if ((audio_mask | video_mask) & (audio_corrupt | video_corrupt)).any():
            raise ValueError("masked and corrupted index sets overlap")


# -- plan sampling ------------------------------------------------------------

def _sample_chunk(rng, T: int, count: int) -> np.ndarray:
    """One contiguous chunk of ``count`` frames at a uniform start."""
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    start = int(rng.integers(0, T - count + 1, size=1)[0])
    return np.arange(start, start + count, dtype=np.int64)


def _sample_mask(rng, T: int, prob: float, span: int) -> np.ndarray:
    """Span-based masking: each frame starts a span with probability
    prob/span. Returns the [T] bool mark of the frames the spans cover."""
    started = (rng.uniform(size=T) < prob / span).cumsum()
    # frame t is covered when a span starts in (t - span, t]
    in_span = started.copy()
    in_span[span:] -= started[:-span]
    return in_span > 0


def allocate_masks(plan: CorruptionPlan, audio_mask_prob: float, audio_span: int,
                   video_mask_prob: float, video_span: int, rng_seed: int) -> CorruptionPlan:
    """Sample span masks, then drop any index colliding with a corrupted one."""
    if audio_span < 1 or video_span < 1:
        raise ValueError("mask spans must be >= 1")
    if not (0.0 <= audio_mask_prob <= 1.0 and 0.0 <= video_mask_prob <= 1.0):
        raise ValueError("mask probabilities must be in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    corrupted = np.zeros(plan.seq_len, dtype=bool)
    corrupted[plan.audio_corrupt] = True
    corrupted[plan.video_corrupt] = True
    clean = ~corrupted
    audio = _sample_mask(rng, plan.seq_len, audio_mask_prob, audio_span) & clean
    video = _sample_mask(rng, plan.seq_len, video_mask_prob, video_span) & clean
    return replace(plan, audio_mask=audio.nonzero()[0], video_mask=video.nonzero()[0])


# -- corruption operators -----------------------------------------------------

def mix_at_snr(frames: np.ndarray, noise: np.ndarray, snr_db: float,
               indices) -> np.ndarray:
    """Add noise scaled so the indexed span hits the target SNR in dB."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return frames.copy()
    if idx.min() < 0 or idx.max() >= frames.shape[0]:
        raise ValueError("corruption indices outside the sequence")
    if noise.shape[0] < idx.size:
        raise ValueError(f"noise has {noise.shape[0]} frames, need {idx.size}")
    sig = frames[idx]
    noi = noise[:idx.size]
    e_s = float(np.mean(sig ** 2))
    e_n = float(np.mean(noi ** 2))
    if e_n == 0.0:
        raise DegenerateNoiseError("noise has zero energy over the corrupted span")
    alpha = np.sqrt(e_s / (e_n * 10.0 ** (snr_db / 10.0)))
    out = frames.copy()
    out[idx] = sig + alpha * noi
    return out


def _contiguous_runs(idx: np.ndarray):
    """The maximal runs of consecutive values of the ascending, non-empty
    ``idx``."""
    breaks = np.flatnonzero(np.diff(idx) > 1)
    start = 0
    for b in breaks:
        yield idx[start:b + 1]
        start = b + 1
    yield idx[start:]


def corrupt_video(frames: np.ndarray, kind: str, indices,
                  rng_seed: int = 0) -> np.ndarray:
    """Apply the video operator ``kind`` (one of ``VIDEO_OPS``) to the
    indexed frames only (each frame once, however often it is listed)."""
    if kind not in VIDEO_OPS:
        raise ValueError(f"unknown corruption kind {kind!r}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= frames.shape[0]):
        raise ValueError("corruption indices outside the sequence")
    out = frames.copy()
    if idx.size == 0:
        return out
    mark = np.zeros(frames.shape[0], dtype=bool)
    mark[idx] = True
    idx = mark.nonzero()[0]
    rng = np.random.default_rng(rng_seed)
    if kind == "zero":
        out[idx] = 0.0
    elif kind == "additive_noise":
        noise = rng.normal(size=(idx.size, frames.shape[1]))
        out = mix_at_snr(out, noise, VIDEO_NOISE_SNR_DB, idx)
    elif kind == "shuffle":
        perm = rng.permutation(idx.size)
        out[idx] = out[idx][perm]
    else:
        half = BLUR_WINDOW // 2
        kernel = np.ones(BLUR_WINDOW) / BLUR_WINDOW
        for run in _contiguous_runs(idx):
            seg = frames[run]
            padded = np.pad(seg, ((half, half), (0, 0)), mode="reflect")
            blurred = np.stack([np.convolve(padded[:, c], kernel, mode="valid")
                                for c in range(seg.shape[1])], axis=1)
            out[run] = blurred
    return out


def _check_frames(audio: np.ndarray, video: np.ndarray, plan: CorruptionPlan):
    if not audio.shape[0] == video.shape[0] == plan.seq_len:
        raise ValueError(f"the plan covers {plan.seq_len} frames, the pair has "
                         f"{audio.shape[0]} audio and {video.shape[0]} video frames")


def apply_modality_dropout(audio: np.ndarray, video: np.ndarray,
                           plan: CorruptionPlan):
    """Replace the dropped modality with all-zero frames; never both."""
    _check_frames(audio, video, plan)
    if plan.modality_drop == DROP_AUDIO:
        return np.zeros_like(audio), video.copy()
    if plan.modality_drop == DROP_VIDEO:
        return audio.copy(), np.zeros_like(video)
    return audio.copy(), video.copy()


# -- presets ------------------------------------------------------------------

PRESETS = ("train-default", "eval-fullnoise", "none")


def sample_plan_preset(name: str, T: int, rng_seed: int,
                       drop_prob: float = 0.25) -> CorruptionPlan:
    """The corruption plan of one named regime over ``T`` frames.

    train-default: one contiguous chunk per modality, floor(ratio * T) frames
    long with the audio ratio drawn from U(0.3, 0.5) and then the video ratio
    from U(0.1, 0.5); then modality dropout: audio with probability
    ``drop_prob``, video with probability ``drop_prob``, never both.
    eval-fullnoise: whole-sequence audio corruption plus one video chunk whose
    length fraction is Beta(2,2)-distributed; no dropout.
    none: nothing corrupted.
    """
    if name == "none":
        return CorruptionPlan(seq_len=T)
    if name == "train-default":
        if not 0.0 <= drop_prob <= 0.5:
            raise ValueError("drop_prob must be in [0, 0.5] (each modality, never both)")
        rng = np.random.default_rng(rng_seed)
        audio_ratio = rng.uniform(0.3, 0.5)
        video_ratio = rng.uniform(0.1, 0.5)
        audio_idx = _sample_chunk(rng, T, int(np.floor(audio_ratio * T)))
        video_idx = _sample_chunk(rng, T, int(np.floor(video_ratio * T)))
        u = rng.uniform()
        drop = (DROP_AUDIO if u < drop_prob else
                DROP_VIDEO if u < 2 * drop_prob else DROP_NONE)
        return CorruptionPlan(seq_len=T, audio_corrupt=audio_idx, video_corrupt=video_idx,
                              modality_drop=drop)
    if name == "eval-fullnoise":
        rng = np.random.default_rng(rng_seed)
        frac = rng.beta(2.0, 2.0)
        video_idx = _sample_chunk(rng, T, int(np.floor(frac * T)))
        return CorruptionPlan(seq_len=T, audio_corrupt=np.arange(T, dtype=np.int64),
                              video_corrupt=video_idx)
    raise ValueError(f"unknown corruption preset {name!r}; expected one of {PRESETS}")


def corrupt_pair(audio: np.ndarray, video: np.ndarray, plan: CorruptionPlan,
                 rng_seed: int, audio_snr_db: float = -10.0):
    """Apply the full protocol to one pair: audio noise mixing at the target
    SNR on C^a, one sampled video operator on C^v. Returns (audio~, video~)."""
    _check_frames(audio, video, plan)
    rng = np.random.default_rng(rng_seed)
    out_audio = audio.copy()
    if plan.audio_corrupt.size:
        noise = rng.normal(size=(plan.audio_corrupt.size, audio.shape[1]))
        out_audio = mix_at_snr(audio, noise, audio_snr_db, plan.audio_corrupt)
    video_kind = VIDEO_OPS[rng.integers(0, len(VIDEO_OPS))]
    out_video = corrupt_video(video, video_kind, plan.video_corrupt,
                              rng_seed=int(rng.integers(0, 2 ** 31)))
    return out_audio, out_video
