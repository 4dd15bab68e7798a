"""Masking and corruption planning for paired audio-visual streams.

A plan first reserves corrupted frame indices (additive noise at a target
SNR for audio, one of four video operators), then span masks are drawn
around them so the two sets never overlap. The demo verifies the achieved
SNR and shows the named presets.
"""

import numpy as np

from avmoe.corruption import (
    PRESETS, allocate_masks, corrupt_pair, mix_at_snr, sample_plan_preset,
)

rng = np.random.default_rng(7)
T_frames = 48

plan = sample_plan_preset("train-default", T_frames, rng_seed=1)
plan = allocate_masks(plan, audio_mask_prob=0.3, audio_span=3,
                      video_mask_prob=0.2, video_span=2, rng_seed=2)
print("train-default plan over 48 frames:")
print(f"  audio corrupt: {plan.audio_corrupt.tolist()}")
print(f"  audio mask:    {plan.audio_mask.tolist()}")
print(f"  video corrupt: {plan.video_corrupt.tolist()}")
print(f"  video mask:    {plan.video_mask.tolist()}")
overlap = np.intersect1d(np.union1d(plan.audio_mask, plan.video_mask),
                         np.union1d(plan.audio_corrupt, plan.video_corrupt))
print(f"  mask/corrupt overlap: {overlap.size} indices (always 0 by construction)")

# SNR mixing scales the noise so the corrupted span hits the target exactly.
frames = rng.normal(size=(T_frames, 20)) + 0.4
noise = rng.normal(size=(T_frames, 20))
for target in (-10.0, 0.0, 10.0):
    mixed = mix_at_snr(frames, noise, target, np.arange(T_frames))
    resid = mixed - frames
    achieved = 10 * np.log10(np.mean(frames ** 2) / np.mean(resid ** 2))
    print(f"target {target:+.0f} dB -> achieved {achieved:+.3f} dB")

# corrupt_pair corrupts the plan's corrupted frames: noise mixing on audio and
# one video operator it draws (zeroing, -10 dB noise, a 3-frame blur or a
# shuffle). It leaves masked frames as they are; the uptraining student input
# zeroes those (distill.student_input).
audio = rng.normal(size=(T_frames, 20))
video = rng.normal(size=(T_frames, 12))
a_out, v_out = corrupt_pair(audio, video, plan, rng_seed=3, audio_snr_db=-5.0)
changed_a = int((np.abs(a_out - audio).sum(axis=1) > 0).sum())
changed_v = int((np.abs(v_out - video).sum(axis=1) > 0).sum())
print(f"corrupt_pair touched {changed_a} audio frames and {changed_v} video frames")

print(f"available presets: {sorted(PRESETS)}")
full = sample_plan_preset("eval-fullnoise", T_frames, rng_seed=0)
print(f"eval-fullnoise corrupts every audio frame: "
      f"{full.audio_corrupt.size == T_frames}")
