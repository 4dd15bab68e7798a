"""Synthetic paired audio/visual frame streams over a shared latent token
transcript, plus the token error rate used in place of WER.

Each vocabulary token owns one row in a per-modality codebook (orthonormal
rows plus a shared modality-typical offset); frames are codebook rows plus
isotropic Gaussian noise, so noise scale has a clean geometric (SNR-like)
meaning and clean frames decode exactly by nearest centroid. The shared
offset plays the role of the energy floor of real speech/lip features: how
much of it survives in a frame is a linear readout of how intact that frame
is, which additive noise dilutes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GeneratorConfig:
    vocab: int = 16
    frames_per_token: int = 3
    dim_audio: int = 16
    dim_video: int = 16
    sigma_audio: float = 0.1
    sigma_video: float = 0.1
    offset_scale: float = 1.0
    codebook_seed: int = 7

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError(f"vocab must be >= 2, got {self.vocab}")
        if self.frames_per_token < 1:
            raise ValueError("frames_per_token must be >= 1")
        if not all(0.0 <= s < math.inf for s in (self.sigma_audio, self.sigma_video)):
            raise ValueError("noise scales must be finite and nonnegative")
        if not 0.0 <= self.offset_scale < math.inf:
            raise ValueError("offset_scale must be finite and nonnegative")
        if self.vocab > min(self.dim_audio, self.dim_video):
            raise ValueError("orthonormal codebook needs vocab <= min(dim_audio, dim_video)")


@dataclass
class SyntheticPair:
    labels: np.ndarray   # [L] token ids
    audio: np.ndarray    # [T x D_a]
    video: np.ndarray    # [T x D_v]
    frames_per_token: int
    seed: int

    @property
    def num_frames(self) -> int:
        return self.audio.shape[0]


@functools.lru_cache(maxsize=8)
def codebooks(cfg: GeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-modality codebooks, deterministic in codebook_seed.

    Rows are orthogonal with unit RMS, shifted by a common offset direction
    per modality (scaled by offset_scale). The offset cancels in
    nearest-centroid distances, so decoding is unaffected.

    Built once per config (the QR factorizations cost most of a
    ``generate_pair`` call); every caller shares the same read-only arrays."""
    rng = np.random.default_rng(cfg.codebook_seed)
    audio = _orthonormal_rows(rng, cfg.vocab, cfg.dim_audio)
    video = _orthonormal_rows(rng, cfg.vocab, cfg.dim_video)
    audio = audio + cfg.offset_scale * _unit_rms(rng, cfg.dim_audio)
    video = video + cfg.offset_scale * _unit_rms(rng, cfg.dim_video)
    audio.setflags(write=False)
    video.setflags(write=False)
    return audio, video


def _unit_rms(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.sqrt((v ** 2).mean())


def _orthonormal_rows(rng, k: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, k)))
    return q.T[:k] * np.sqrt(d)  # unit RMS per coordinate, rows orthogonal


def generate_pair(cfg: GeneratorConfig, length: int, rng_seed: int) -> SyntheticPair:
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(rng_seed)
    cb_a, cb_v = codebooks(cfg)
    labels = rng.integers(0, cfg.vocab, size=length)
    frame_labels = np.repeat(labels, cfg.frames_per_token)
    audio = cb_a[frame_labels] + cfg.sigma_audio * rng.normal(size=(frame_labels.size, cfg.dim_audio))
    video = cb_v[frame_labels] + cfg.sigma_video * rng.normal(size=(frame_labels.size, cfg.dim_video))
    return SyntheticPair(labels=labels, audio=audio, video=video,
                         frames_per_token=cfg.frames_per_token, seed=rng_seed)


def nearest_centroid_decode(frames: np.ndarray, codebook: np.ndarray,
                            frames_per_token: int) -> np.ndarray:
    """Decode frames back to token ids by nearest codebook row, majority-free:
    per-token frames are averaged before the nearest-centroid lookup."""
    T = frames.shape[0]
    if T % frames_per_token != 0:
        raise ValueError(f"{T} frames not divisible by frames_per_token={frames_per_token}")
    pooled = frames.reshape(T // frames_per_token, frames_per_token, -1).mean(axis=1)
    d2 = ((pooled[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def edit_distance(hyp, ref) -> int:
    """Levenshtein distance over token ids, unit costs."""
    hyp, ref = list(hyp), list(ref)
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (h != r))
        prev = cur
    return prev[len(ref)]


def token_error_rate(hyp, ref) -> float:
    """(substitutions + deletions + insertions) / len(ref); may exceed 1."""
    ref = list(ref)
    if not ref:
        raise ValueError("reference sequence must be non-empty")
    return edit_distance(hyp, ref) / len(ref)
