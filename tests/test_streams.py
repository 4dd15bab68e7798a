import numpy as np
import pytest

from avmoe.streams import (
    GeneratorConfig, codebooks, edit_distance, generate_pair,
    nearest_centroid_decode, token_error_rate,
)


def test_zero_noise_frames_equal_codebook_rows():
    cfg = GeneratorConfig(sigma_audio=0.0, sigma_video=0.0)
    pair = generate_pair(cfg, 5, rng_seed=11)
    cb_a, cb_v = codebooks(cfg)
    frame_labels = np.repeat(pair.labels, cfg.frames_per_token)
    assert np.array_equal(pair.audio, cb_a[frame_labels])
    assert np.array_equal(pair.video, cb_v[frame_labels])


def test_codebooks_cached_read_only_and_equal_to_a_fresh_build():
    cfg = GeneratorConfig(vocab=5, offset_scale=0.5)
    cached = codebooks(cfg)
    assert codebooks(GeneratorConfig(vocab=5, offset_scale=0.5)) is cached
    for arr, fresh in zip(cached, codebooks.__wrapped__(cfg)):
        assert np.array_equal(arr, fresh)
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_same_seed_bit_identical():
    cfg = GeneratorConfig()
    a = generate_pair(cfg, 8, rng_seed=3)
    b = generate_pair(cfg, 8, rng_seed=3)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.audio, b.audio)
    assert np.array_equal(a.video, b.video)


def test_frame_count_invariant():
    cfg = GeneratorConfig(frames_per_token=4)
    pair = generate_pair(cfg, 6, rng_seed=0)
    assert pair.num_frames == 4 * 6


def test_nearest_centroid_recovers_labels_at_low_noise():
    cfg = GeneratorConfig(sigma_audio=0.1, sigma_video=0.1)
    cb_a, _ = codebooks(cfg)
    wrong = 0
    for seed in range(1000):
        pair = generate_pair(cfg, 4, rng_seed=seed)
        decoded = nearest_centroid_decode(pair.audio, cb_a, cfg.frames_per_token)
        wrong += int(not np.array_equal(decoded, pair.labels))
    assert wrong == 0


def test_decode_error_monotone_in_noise():
    rates = []
    for sigma in (0.0, 0.5, 1.0, 2.0):
        cfg = GeneratorConfig(sigma_audio=sigma)
        cb_a, _ = codebooks(cfg)
        errors = 0
        total = 0
        for seed in range(1000):
            pair = generate_pair(cfg, 1, rng_seed=seed)
            decoded = nearest_centroid_decode(pair.audio, cb_a, cfg.frames_per_token)
            errors += int(decoded[0] != pair.labels[0])
            total += 1
        rates.append(errors / total)
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_ter_trivial_cases():
    assert token_error_rate([1, 2, 3], [1, 2, 3]) == 0.0
    assert token_error_rate([], [5, 6, 7]) == 1.0


def test_ter_known_alignment():
    assert token_error_rate(["a", "x", "c", "y"], ["a", "b", "c"]) == pytest.approx(2 / 3)


def test_ter_empty_ref_rejected():
    with pytest.raises(ValueError):
        token_error_rate([1], [])


def _brute_force_edit_distance(hyp, ref):
    # full DP oracle written independently (recursive with memo)
    from functools import lru_cache
    hyp, ref = tuple(hyp), tuple(ref)

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (hyp[i - 1] != ref[j - 1]))

    return d(len(hyp), len(ref))


def test_edit_distance_exhaustive_small_alphabet():
    from itertools import product
    seqs = []
    for n in range(0, 4):
        seqs.extend(product(range(3), repeat=n))
    rng = np.random.default_rng(0)
    # exhaustive over lengths <= 3; random sample of the length <= 6 universe
    for h in seqs:
        for r in seqs:
            assert edit_distance(h, r) == _brute_force_edit_distance(h, r)
    for _ in range(500):
        h = tuple(rng.integers(0, 3, size=rng.integers(0, 7)))
        r = tuple(rng.integers(0, 3, size=rng.integers(1, 7)))
        assert edit_distance(h, r) == _brute_force_edit_distance(h, r)
        assert token_error_rate(h, r) * len(r) == pytest.approx(_brute_force_edit_distance(h, r))


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(vocab=1)
    with pytest.raises(ValueError):
        GeneratorConfig(sigma_audio=-0.1)
    with pytest.raises(ValueError):
        generate_pair(GeneratorConfig(), 0, rng_seed=0)
