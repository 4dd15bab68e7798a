import numpy as np
import pytest

from avmoe.corruption import (
    DROP_AUDIO, DROP_NONE, DROP_VIDEO, CorruptionPlan, DegenerateNoiseError,
    allocate_masks, apply_modality_dropout, corrupt_pair, corrupt_video,
    mix_at_snr, sample_plan_preset,
)


def measured_snr_db(mixed, clean, idx):
    noise = mixed[idx] - clean[idx]
    return 10.0 * np.log10(np.mean(clean[idx] ** 2) / np.mean(noise ** 2))


def train_default(T, seed, drop_prob=0.25):
    return sample_plan_preset("train-default", T, rng_seed=seed, drop_prob=drop_prob)


class TestSamplePlan:
    def test_zero_range_empty(self):
        """A chunk of floor(ratio * T) = 0 frames is empty: on 0 or 1 frames
        train-default corrupts nothing."""
        for T in (0, 1):
            plan = train_default(T, seed=0)
            assert plan.seq_len == T
            assert plan.audio_corrupt.size == 0 and plan.video_corrupt.size == 0

    def test_floor_rule(self):
        for seed in range(20):
            plan = train_default(100, seed)
            rng = np.random.default_rng(seed)
            audio_ratio, video_ratio = rng.uniform(0.3, 0.5), rng.uniform(0.1, 0.5)
            assert plan.audio_corrupt.size == int(np.floor(audio_ratio * 100))
            assert plan.video_corrupt.size == int(np.floor(video_ratio * 100))

    def test_chunks_contiguous_and_count(self):
        for seed in range(50):
            plan = train_default(60, seed)
            for idx in (plan.audio_corrupt, plan.video_corrupt):
                assert idx.size > 0
                assert np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size))

    def test_drop_rates_and_exclusivity(self):
        counts = {DROP_NONE: 0, DROP_AUDIO: 0, DROP_VIDEO: 0}
        for seed in range(4000):
            counts[train_default(20, seed).modality_drop] += 1
        assert abs(counts[DROP_AUDIO] / 4000 - 0.25) < 0.03
        assert abs(counts[DROP_VIDEO] / 4000 - 0.25) < 0.03

    def test_determinism(self):
        a = train_default(80, seed=9)
        b = train_default(80, seed=9)
        assert a.seq_len == b.seq_len and a.modality_drop == b.modality_drop
        for name in ("audio_corrupt", "video_corrupt", "audio_mask", "video_mask"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestAllocateMasks:
    def test_fully_corrupted_leaves_nothing(self):
        plan = CorruptionPlan(seq_len=30, audio_corrupt=np.arange(30))
        plan = allocate_masks(plan, 0.8, 10, 0.3, 5, rng_seed=0)
        assert plan.audio_mask.size == 0 and plan.video_mask.size == 0

    def test_zero_prob_empty(self):
        plan = allocate_masks(CorruptionPlan(seq_len=30), 0.0, 10, 0.0, 5, rng_seed=0)
        assert plan.audio_mask.size == 0 and plan.video_mask.size == 0

    def test_effective_ratio_matches_resimulation_oracle(self):
        # independent oracle: re-simulate the same sampling rule directly
        T, prob, span = 200, 0.8, 10
        base = CorruptionPlan(seq_len=T, audio_corrupt=np.arange(0, 80))
        got, want = [], []
        for seed in range(500):
            plan = allocate_masks(base, prob, span, 0.0, 5, rng_seed=seed)
            got.append(plan.audio_mask.size / T)
            rng = np.random.default_rng(seed)
            starts = np.flatnonzero(rng.uniform(size=T) < prob / span)
            covered = set()
            for s in starts:
                covered.update(range(s, min(s + span, T)))
            covered -= set(range(0, 80))
            want.append(len(covered) / T)
            rng2 = np.random.default_rng(seed)  # video mask consumes same stream order
        mean_got, mean_want = np.mean(got), np.mean(want)
        assert mean_got < 0.8
        assert abs(mean_got - mean_want) < 0.02

    def test_disjointness_invariant_10000_seeds(self):
        for seed in range(10_000):
            plan = train_default(48, seed)
            plan = allocate_masks(plan, 0.8, 10, 0.3, 5, rng_seed=seed + 1)
            masked = np.union1d(plan.audio_mask, plan.video_mask)
            corrupted = np.union1d(plan.audio_corrupt, plan.video_corrupt)
            assert np.intersect1d(masked, corrupted).size == 0


class TestCorruptAudio:
    def test_empty_indices_unchanged(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(20, 4))
        out = mix_at_snr(frames, rng.normal(size=(20, 4)), -10.0, [])
        assert np.array_equal(out, frames)

    def test_alpha_closed_forms(self):
        frames = np.ones((8, 2))
        noise = np.ones((8, 2))
        out0 = mix_at_snr(frames, noise, 0.0, np.arange(8))
        assert np.allclose(out0[0], 1.0 + 1.0)  # alpha = 1
        outm10 = mix_at_snr(frames, noise, -10.0, np.arange(8))
        assert np.allclose(outm10[0], 1.0 + np.sqrt(10.0), atol=1e-12)

    @pytest.mark.parametrize("snr", [-10, -5, 0, 5, 10])
    def test_measured_snr_within_tolerance(self, snr):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            frames = rng.normal(size=(128, 6))
            noise = rng.normal(size=(128, 6))
            idx = np.arange(20, 20 + 64)
            out = mix_at_snr(frames, noise, float(snr), idx)
            assert abs(measured_snr_db(out, frames, idx) - snr) < 0.05
            untouched = np.setdiff1d(np.arange(128), idx)
            assert np.array_equal(out[untouched], frames[untouched])

    def test_zero_energy_noise_rejected(self):
        with pytest.raises(DegenerateNoiseError):
            mix_at_snr(np.ones((4, 2)), np.zeros((4, 2)), 0.0, np.arange(4))


class TestCorruptVideo:
    def test_zero_all(self):
        frames = np.random.default_rng(0).normal(size=(10, 3))
        out = corrupt_video(frames, "zero", np.arange(10))
        assert np.array_equal(out, np.zeros((10, 3)))

    def test_blur_window3_ramp_convolution_oracle(self):
        ramp = np.arange(12.0)[:, None]
        idx = np.arange(2, 9)
        out = corrupt_video(ramp, "blur", idx)
        seg = ramp[idx, 0]
        padded = np.concatenate(([seg[1]], seg, [seg[-2]]))  # reflect
        want = np.array([padded[i:i + 3].mean() for i in range(seg.size)])
        assert np.max(np.abs(out[idx, 0] - want)) < 1e-12
        outside = np.setdiff1d(np.arange(12), idx)
        assert np.array_equal(out[outside], ramp[outside])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            corrupt_video(np.ones((4, 2)), "occlude", [1])

    def test_shuffle_permutes_locally(self):
        frames = np.random.default_rng(2).normal(size=(10, 3))
        idx = np.arange(3, 8)
        out = corrupt_video(frames, "shuffle", idx, rng_seed=5)
        outside = np.setdiff1d(np.arange(10), idx)
        assert np.array_equal(out[outside], frames[outside])
        assert np.allclose(np.sort(out[idx], axis=0), np.sort(frames[idx], axis=0))

    def test_additive_noise_locality(self):
        frames = np.random.default_rng(3).normal(size=(10, 3))
        idx = np.array([1, 2, 3])
        out = corrupt_video(frames, "additive_noise", idx, rng_seed=4)
        outside = np.setdiff1d(np.arange(10), idx)
        assert np.array_equal(out[outside], frames[outside])
        assert measured_snr_db(out, frames, idx) == pytest.approx(-10.0, abs=1e-9)


class TestModalityDropout:
    def test_drop_audio(self):
        rng = np.random.default_rng(0)
        A, V = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        plan = CorruptionPlan(seq_len=6, modality_drop=DROP_AUDIO)
        a2, v2 = apply_modality_dropout(A, V, plan)
        assert np.array_equal(a2, np.zeros_like(A))
        assert np.array_equal(v2, V)

    def test_none_untouched(self):
        rng = np.random.default_rng(1)
        A, V = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        a2, v2 = apply_modality_dropout(A, V, CorruptionPlan(seq_len=6))
        assert np.array_equal(a2, A) and np.array_equal(v2, V)

    def test_drop_video_audio_bitwise_equal(self):
        rng = np.random.default_rng(2)
        A, V = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        plan = CorruptionPlan(seq_len=6, modality_drop=DROP_VIDEO)
        a2, v2 = apply_modality_dropout(A, V, plan)
        assert np.array_equal(a2, A)
        assert np.array_equal(v2, np.zeros_like(V))


class TestPresetsAndSerialization:
    def test_train_default_ranges(self):
        for seed in range(100):
            plan = sample_plan_preset("train-default", 100, rng_seed=seed)
            assert 30 <= plan.audio_corrupt.size <= 50
            assert 10 <= plan.video_corrupt.size <= 50

    def test_eval_fullnoise_covers_audio(self):
        plan = sample_plan_preset("eval-fullnoise", 64, rng_seed=0)
        assert np.array_equal(plan.audio_corrupt, np.arange(64))
        assert plan.audio_mask.size == 0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            sample_plan_preset("nope", 10, rng_seed=0)

    def test_plan_invariant_enforced(self):
        with pytest.raises(ValueError):
            CorruptionPlan(seq_len=10, audio_corrupt=np.array([1, 2]),
                           audio_mask=np.array([2, 3]))

    def test_corrupt_pair_determinism(self):
        rng = np.random.default_rng(0)
        A, V = rng.normal(size=(20, 4)), rng.normal(size=(20, 4))
        plan = sample_plan_preset("train-default", 20, rng_seed=1)
        a1, v1 = corrupt_pair(A, V, plan, rng_seed=2)
        a2, v2 = corrupt_pair(A, V, plan, rng_seed=2)
        assert np.array_equal(a1, a2) and np.array_equal(v1, v2)


class TestInputContract:
    @pytest.mark.parametrize("seq_len", [-3, 4.0])
    def test_plan_rejects_seq_len_not_a_count(self, seq_len):
        with pytest.raises(ValueError, match="seq_len"):
            CorruptionPlan(seq_len=seq_len)

    @pytest.mark.parametrize("bad", [[1.7], np.array([1.0, 2.0]), np.array([[1, 2]]), 3,
                                     np.array([True, False])])
    def test_plan_rejects_indices_not_1d_integers(self, bad):
        with pytest.raises(ValueError, match="1-D array of integer frame indices"):
            CorruptionPlan(seq_len=6, audio_corrupt=bad)

    def test_plan_accepts_empty_lists(self):
        plan = CorruptionPlan(seq_len=0, audio_corrupt=[], video_corrupt=[],
                              audio_mask=[], video_mask=[])
        for name in ("audio_corrupt", "video_corrupt", "audio_mask", "video_mask"):
            idx = getattr(plan, name)
            assert idx.dtype == np.int64 and idx.shape == (0,)

    @pytest.mark.parametrize("audio_frames, video_frames", [(6, 6), (3, 6), (6, 3)])
    def test_plan_length_must_match_both_streams(self, audio_frames, video_frames):
        rng = np.random.default_rng(0)
        A, V = rng.normal(size=(audio_frames, 2)), rng.normal(size=(video_frames, 2))
        plan = CorruptionPlan(seq_len=3, audio_corrupt=[0, 1], video_corrupt=[2],
                              modality_drop=DROP_AUDIO)
        with pytest.raises(ValueError, match="covers 3 frames"):
            corrupt_pair(A, V, plan, rng_seed=0)
        with pytest.raises(ValueError, match="covers 3 frames"):
            apply_modality_dropout(A, V, plan)

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_rejected(self, snr):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            mix_at_snr(np.ones((4, 2)), np.ones((4, 2)), snr, np.arange(4))
