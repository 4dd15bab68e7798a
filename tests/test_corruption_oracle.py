"""The corruption protocol against a set-operation oracle.

``avmoe.corruption`` builds its index sets on boolean frame marks. The
oracle below is the earlier implementation, which built them with numpy's
set routines (``np.unique``, ``union1d``, ``setdiff1d``, ``intersect1d``),
kept here as the reference, with its own copy of the protocol's constants:
the preset ratio ranges, the video operators in draw order, their -10 dB
noise and 3-frame blur. Plans, masks, corrupted pairs and ``corrupt_video``
outputs must equal it in values and dtypes, with every RNG draw in the same
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import corruption as C

INDEX_SETS = ("audio_corrupt", "video_corrupt", "audio_mask", "video_mask")
KINDS = ("zero", "additive_noise", "blur", "shuffle")  # corrupt_pair's draw order
VIDEO_NOISE_SNR_DB = -10.0
BLUR_WINDOW = 3


# -- the oracle ---------------------------------------------------------------

def oracle_index_sets(**sets):
    """The four index sets a plan stores, or ValueError when they overlap."""
    out = {name: np.unique(np.asarray(sets.get(name, []), dtype=np.int64))
           for name in INDEX_SETS}
    masked = np.union1d(out["audio_mask"], out["video_mask"])
    corrupted = np.union1d(out["audio_corrupt"], out["video_corrupt"])
    if np.intersect1d(masked, corrupted).size:
        raise ValueError("masked and corrupted index sets overlap")
    return out


def oracle_chunk(rng, T, count):
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    start = int(rng.integers(0, T - count + 1, size=1)[0])
    return np.asarray(range(start, start + count), dtype=np.int64)


def oracle_train_default(T, drop_prob, seed):
    rng = np.random.default_rng(seed)
    audio_ratio = rng.uniform(0.3, 0.5)
    video_ratio = rng.uniform(0.1, 0.5)
    audio = oracle_chunk(rng, T, int(np.floor(audio_ratio * T)))
    video = oracle_chunk(rng, T, int(np.floor(video_ratio * T)))
    u = rng.uniform()
    drop = (C.DROP_AUDIO if u < drop_prob else
            C.DROP_VIDEO if u < 2 * drop_prob else C.DROP_NONE)
    return oracle_index_sets(audio_corrupt=audio, video_corrupt=video), drop


def oracle_preset(name, T, seed, drop_prob):
    if name == "none":
        return oracle_index_sets(), C.DROP_NONE
    if name == "train-default":
        return oracle_train_default(T, drop_prob, seed)
    rng = np.random.default_rng(seed)
    video = oracle_chunk(rng, T, int(np.floor(rng.beta(2.0, 2.0) * T)))
    return oracle_index_sets(audio_corrupt=np.arange(T, dtype=np.int64),
                             video_corrupt=video), C.DROP_NONE


def oracle_span_mask(rng, T, prob, span):
    starts = np.flatnonzero(rng.uniform(size=T) < prob / span)
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    idx = (starts[:, None] + np.arange(span)[None, :]).reshape(-1)
    return np.unique(idx[idx < T])


def oracle_masks(sets, T, audio_prob, audio_span, video_prob, video_span, seed):
    rng = np.random.default_rng(seed)
    corrupted = np.union1d(sets["audio_corrupt"], sets["video_corrupt"])
    audio = np.setdiff1d(oracle_span_mask(rng, T, audio_prob, audio_span), corrupted)
    video = np.setdiff1d(oracle_span_mask(rng, T, video_prob, video_span), corrupted)
    return oracle_index_sets(audio_corrupt=sets["audio_corrupt"],
                             video_corrupt=sets["video_corrupt"],
                             audio_mask=audio, video_mask=video)


def oracle_mix(frames, noise, snr_db, idx):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return frames.copy()
    sig = frames[idx]
    noi = noise[:idx.size]
    alpha = np.sqrt(float(np.mean(sig ** 2)) / (float(np.mean(noi ** 2))
                                               * 10.0 ** (snr_db / 10.0)))
    out = frames.copy()
    out[idx] = sig + alpha * noi
    return out


def oracle_corrupt_video(frames, kind, indices, seed):
    idx = np.unique(np.asarray(indices, dtype=np.int64))
    out = frames.copy()
    if idx.size == 0:
        return out
    rng = np.random.default_rng(seed)
    if kind == "zero":
        out[idx] = 0.0
    elif kind == "additive_noise":
        out = oracle_mix(out, rng.normal(size=(idx.size, frames.shape[1])),
                         VIDEO_NOISE_SNR_DB, idx)
    elif kind == "shuffle":
        out[idx] = out[idx][rng.permutation(idx.size)]
    else:
        half = BLUR_WINDOW // 2
        for run in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1):
            seg = frames[run]
            padded = np.pad(seg, ((half, half), (0, 0)), mode="reflect")
            kernel = np.ones(BLUR_WINDOW) / BLUR_WINDOW
            out[run] = np.stack([np.convolve(padded[:, c], kernel, mode="valid")
                                 for c in range(seg.shape[1])], axis=1)
    return out


def oracle_corrupt_pair(audio, video, sets, seed, snr_db):
    rng = np.random.default_rng(seed)
    out_audio = audio.copy()
    if sets["audio_corrupt"].size:
        noise = rng.normal(size=(sets["audio_corrupt"].size, audio.shape[1]))
        out_audio = oracle_mix(audio, noise, snr_db, sets["audio_corrupt"])
    kind = KINDS[rng.integers(0, len(KINDS))]
    out_video = oracle_corrupt_video(video, kind, sets["video_corrupt"],
                                     int(rng.integers(0, 2 ** 31)))
    return out_audio, out_video


# -- comparisons --------------------------------------------------------------

def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_frames(got, want):
    """Equal frames down to their bytes and memory order: ``np.array_equal``
    takes -0.0 for 0.0, and the blur's sum can differ from the oracle's
    ``np.convolve`` in the sign of a zero alone."""
    assert_same_array(got, want)
    assert got.strides == want.strides, (got.strides, want.strides)
    assert got.tobytes() == want.tobytes()


def assert_plan_equals(plan, sets, drop):
    for name in INDEX_SETS:
        assert_same_array(getattr(plan, name), sets[name])
    assert plan.modality_drop == drop


seeds = st.integers(0, 2 ** 31 - 1)
probs = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(C.PRESETS), T=st.integers(0, 64), seed=seeds,
       drop_prob=st.floats(0.0, 0.5))
def test_preset_plans_equal_the_oracle(name, T, seed, drop_prob):
    plan = C.sample_plan_preset(name, T, seed, drop_prob=drop_prob)
    assert_plan_equals(plan, *oracle_preset(name, T, seed, drop_prob))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(C.PRESETS), T=st.integers(1, 64), plan_seed=seeds,
       audio_prob=probs, audio_span=st.integers(1, 12), video_prob=probs,
       video_span=st.integers(1, 12), seed=seeds)
def test_masks_equal_the_oracle(name, T, plan_seed, audio_prob, audio_span, video_prob,
                                video_span, seed):
    plan = C.sample_plan_preset(name, T, plan_seed)
    got = C.allocate_masks(plan, audio_prob, audio_span, video_prob, video_span, seed)
    sets, drop = oracle_preset(name, T, plan_seed, 0.25)
    want = oracle_masks(sets, T, audio_prob, audio_span, video_prob, video_span, seed)
    assert_plan_equals(got, want, drop)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(T=st.integers(0, 12), data=st.data())
def test_constructed_plans_equal_the_oracle(T, data):
    """Unsorted index lists with repeats are sorted and de-duplicated, and an
    overlap raises, as in the oracle."""
    frames = st.lists(st.integers(0, max(T - 1, 0)), max_size=2 * T if T else 0)
    sets = {name: data.draw(frames, label=name) for name in INDEX_SETS}
    try:
        want = oracle_index_sets(**sets)
    except ValueError:
        with pytest.raises(ValueError, match="overlap"):
            C.CorruptionPlan(seq_len=T, **sets)
        return
    assert_plan_equals(C.CorruptionPlan(seq_len=T, **sets), want, C.DROP_NONE)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(T=st.integers(1, 40), kind=st.sampled_from(KINDS), d=st.integers(1, 6), seed=seeds,
       data=st.data())
def test_corrupt_video_equals_the_oracle(T, kind, d, seed, data):
    """Every operator, on unsorted index lists with repeats."""
    indices = data.draw(st.lists(st.integers(0, T - 1), max_size=2 * T), label="indices")
    frames = np.random.default_rng(seed).normal(size=(T, d))
    assert_same_frames(C.corrupt_video(frames, kind, indices, seed),
                       oracle_corrupt_video(frames, kind, indices, seed))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(T=st.integers(1, 40), d=st.integers(1, 16), seed=seeds, zero_share=st.floats(0.0, 1.0),
       data=st.data())
def test_blur_equals_convolve_to_the_byte(T, d, seed, zero_share, data):
    """The blur's shifted sum against the oracle's per-channel ``np.convolve``,
    on frames where a share of the entries are 0.0 or -0.0, so that whole
    windows of signed zeros occur."""
    indices = data.draw(st.lists(st.integers(0, T - 1), max_size=2 * T), label="indices")
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(T, d))
    frames[rng.random((T, d)) < zero_share] = 0.0
    frames[rng.random((T, d)) < zero_share] = -0.0
    assert_same_frames(C.corrupt_video(frames, "blur", indices),
                       oracle_corrupt_video(frames, "blur", indices, 0))


@pytest.mark.parametrize("T, indices", [
    (1, [0]), (2, [0, 1]), (2, [1]), (3, [1]), (4, [0, 1]), (4, [2, 3]), (5, [1, 2]),
    (6, [0, 2, 3, 5]), (7, [0, 1, 3, 5, 6]), (9, [0, 2, 3, 4, 6, 8])])
def test_blur_of_one_and_two_frame_runs_equals_the_oracle(T, indices):
    """Runs of one frame (reflect padding repeats the frame) and of two (it
    swaps them), at both ends of the sequence, between other runs and as the
    whole sequence, on frames holding signed zeros."""
    rng = np.random.default_rng(T)
    frames = rng.normal(size=(T, 5))
    frames[:, 0], frames[:, 1] = 0.0, -0.0
    assert_same_frames(C.corrupt_video(frames, "blur", indices),
                       oracle_corrupt_video(frames, "blur", indices, 0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(C.PRESETS), T=st.integers(1, 48), d_audio=st.integers(1, 8),
       d_video=st.integers(1, 8), plan_seed=seeds, seed=seeds,
       snr_db=st.sampled_from([-10.0, -5.0, 0.0, 5.0, 10.0]))
def test_corrupted_pairs_equal_the_oracle(name, T, d_audio, d_video, plan_seed, seed,
                                          snr_db):
    rng = np.random.default_rng(plan_seed)
    audio, video = rng.normal(size=(T, d_audio)), rng.normal(size=(T, d_video))
    plan = C.allocate_masks(C.sample_plan_preset(name, T, plan_seed), 0.3, 3, 0.2, 2, seed)
    sets = oracle_masks(oracle_preset(name, T, plan_seed, 0.25)[0], T, 0.3, 3, 0.2, 2, seed)
    got = C.corrupt_pair(audio, video, plan, seed, audio_snr_db=snr_db)
    want = oracle_corrupt_pair(audio, video, sets, seed, snr_db)
    for g, w in zip(got, want):
        assert_same_frames(g, w)
