"""Corruption protocol: sampling corruption/mask index sets over frame
sequences and applying the corruption operators (SNR-targeted additive noise,
zeroing, temporal blur, frame shuffle).

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


class InfeasiblePlanError(ValueError):
    """Requested corruption layout cannot fit in the sequence."""


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


@dataclass(frozen=True)
class CorruptionOp:
    kind: str                   # "additive_noise" | "zero" | "blur" | "shuffle"
    snr_db: float = 0.0
    window: int = 3

    def __post_init__(self):
        if self.kind not in ("additive_noise", "zero", "blur", "shuffle"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.kind == "blur":
            if not isinstance(self.window, numbers.Integral):
                raise ValueError(f"blur window must be an integer, got {self.window!r}")
            if self.window < 1 or self.window % 2 == 0:
                raise ValueError(f"blur window must be odd and >= 1, got {self.window}")


# -- plan sampling ------------------------------------------------------------

def _sample_chunks(rng, T: int, count: int, events: int) -> np.ndarray:
    """Disjoint contiguous chunks totaling ``count`` frames, uniform starts."""
    if count <= 0 or events <= 0:
        return np.zeros(0, dtype=np.int64)
    count = min(count, T)
    events = min(events, count)
    # near-equal chunk sizes, remainder to earlier chunks
    sizes = [count // events + (1 if i < count % events else 0) for i in range(events)]
    # distribute the T - count free frames into events+1 gaps uniformly: chunk
    # i starts after the free frames up to its sorted cut and the i chunks
    # before it
    cuts = sorted(rng.integers(0, T - count + 1, size=events).tolist())
    out = []
    for cut, size in zip(cuts, sizes):
        start = cut + len(out)
        out.extend(range(start, start + size))
    return np.asarray(out, dtype=np.int64)


def sample_corruption_plan(T: int, video_ratio_range, audio_ratio_range,
                           events: int, drop_prob: float, rng_seed: int) -> CorruptionPlan:
    """Sample disjoint contiguous corruption chunks per modality plus the
    modality-dropout flag (audio and video never dropped together)."""
    for lo, hi in (video_ratio_range, audio_ratio_range):
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"ratio range [{lo}, {hi}] invalid")
    if events < 0:
        raise ValueError("events must be >= 0")
    if not 0.0 <= drop_prob <= 0.5:
        raise ValueError("drop_prob must be in [0, 0.5] (each modality, never both)")
    if events > T:
        raise InfeasiblePlanError(f"{events} corruption events cannot fit in {T} frames")
    rng = np.random.default_rng(rng_seed)
    a_lo, a_hi = audio_ratio_range
    v_lo, v_hi = video_ratio_range
    audio_ratio = rng.uniform(a_lo, a_hi)
    video_ratio = rng.uniform(v_lo, v_hi)
    audio_idx = _sample_chunks(rng, T, int(np.floor(audio_ratio * T)), events)
    video_idx = _sample_chunks(rng, T, int(np.floor(video_ratio * T)), events)
    u = rng.uniform()
    if u < drop_prob:
        drop = DROP_AUDIO
    elif u < 2 * drop_prob:
        drop = DROP_VIDEO
    else:
        drop = DROP_NONE
    return CorruptionPlan(seq_len=T, audio_corrupt=audio_idx, video_corrupt=video_idx,
                          modality_drop=drop)


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
    if idx.size == 0:
        return
    breaks = np.flatnonzero(np.diff(idx) > 1)
    start = 0
    for b in breaks:
        yield idx[start:b + 1]
        start = b + 1
    yield idx[start:]


def corrupt_video(frames: np.ndarray, op: CorruptionOp, indices,
                  rng_seed: int = 0) -> np.ndarray:
    """Apply a video corruption operator to the indexed frames only (each
    frame once, however often it is listed)."""
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
    if op.kind == "zero":
        out[idx] = 0.0
    elif op.kind == "additive_noise":
        noise = rng.normal(size=(idx.size, frames.shape[1]))
        out = mix_at_snr(out, noise, op.snr_db, idx)
    elif op.kind == "shuffle":
        perm = rng.permutation(idx.size)
        out[idx] = out[idx][perm]
    elif op.kind == "blur":
        half = op.window // 2
        for run in _contiguous_runs(idx):
            seg = frames[run]
            padded = np.pad(seg, ((half, half), (0, 0)), mode="reflect") if half else seg
            kernel = np.ones(op.window) / op.window
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
    """Named corruption regimes.

    train-default: one contiguous chunk per modality, video ratio 10-50%,
    audio ratio 30-50%, modality dropout at ``drop_prob`` per modality.
    eval-fullnoise: whole-sequence audio corruption plus one video chunk whose
    length fraction is Beta(2,2)-distributed; no dropout.
    """
    if name == "none":
        return CorruptionPlan(seq_len=T)
    if name == "train-default":
        return sample_corruption_plan(T, video_ratio_range=(0.1, 0.5),
                                      audio_ratio_range=(0.3, 0.5), events=1,
                                      drop_prob=drop_prob, rng_seed=rng_seed)
    if name == "eval-fullnoise":
        rng = np.random.default_rng(rng_seed)
        frac = rng.beta(2.0, 2.0)
        video_idx = _sample_chunks(rng, T, int(np.floor(frac * T)), 1)
        return CorruptionPlan(seq_len=T, audio_corrupt=np.arange(T, dtype=np.int64),
                              video_corrupt=video_idx)
    raise ValueError(f"unknown corruption preset {name!r}; expected one of {PRESETS}")


VIDEO_OPS = (CorruptionOp("zero"), CorruptionOp("additive_noise", snr_db=-10.0),
             CorruptionOp("blur", window=3), CorruptionOp("shuffle"))


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
    video_op = VIDEO_OPS[rng.integers(0, len(VIDEO_OPS))]
    out_video = corrupt_video(video, video_op, plan.video_corrupt,
                              rng_seed=int(rng.integers(0, 2 ** 31)))
    return out_audio, out_video
