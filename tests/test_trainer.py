import collections
import json
import os

import numpy as np
import pytest

import avmoe.trainer as trainer_mod
from avmoe import tensor as T
from avmoe.metrics import coeff_of_variation, read_table
from avmoe.routing import MOD_AUDIO, MOD_AV, MOD_VIDEO
from avmoe.tensor import Tensor
from avmoe.trainer import (
    Adam, ConfigError, DivergenceError, TrainConfig, _sample_batch,
    build_model, eval_group_load_vs_snr, eval_ter, group_affinity,
    make_optimizer, repr_distance_report, seed_streams, sgd_step, train,
)


def _cfg(**over):
    base = {
        "regime": "supervised_moe", "steps": 5, "batch_size": 2,
        "lr": 1e-3, "optimizer": "adam", "seed": 0,
        "model": {"moe": {"mode": "hierarchical", "n_groups": 2,
                          "n_per_group": 4, "m": 2, "k_per_group": 1}},
        "generator": {"vocab": 16},
    }
    base.update(over)
    return TrainConfig.from_dict(base)


# -- config ------------------------------------------------------------------

def test_config_rejects_unknown_regime():
    with pytest.raises(ConfigError):
        _cfg(regime="finetune_gpu")


def test_config_rejects_zero_steps():
    with pytest.raises(ConfigError):
        _cfg(steps=0)


def test_config_rejects_bad_optimizer():
    with pytest.raises(ConfigError):
        _cfg(optimizer="rmsprop")


def test_config_rejects_out_of_range_dropout():
    with pytest.raises(ConfigError):
        _cfg(modality_dropout=0.6)
    with pytest.raises(ConfigError):
        _cfg(modality_dropout=-0.1)


def test_config_rejects_wrong_schema_version():
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"schema_version": 99})


def test_config_rejects_unknown_task():
    with pytest.raises(ConfigError):
        _cfg(tasks=("MASK", "XYZ"))


@pytest.mark.parametrize("pairs", [0, -3])
def test_config_rejects_eval_pairs_below_one(pairs):
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"eval_pairs": pairs})


def test_config_reads_legacy_router_tune_steps():
    # config.json files of earlier runs carry the removed field as 0
    assert TrainConfig.from_dict({"router_tune_steps": 0}) == TrainConfig()
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"router_tune_steps": 5})


def test_config_round_trips_through_dict():
    cfg = _cfg(steps=7, c_bias=0.5)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again.steps == 7
    assert again.c_bias == 0.5
    assert again.model.moe.mode == "hierarchical"


def test_config_vocab_mismatch_rejected():
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"model": {"vocab": 16}, "generator": {"vocab": 8}})


@pytest.mark.parametrize("key, value", [
    ("eval_pairs", 2.5), ("batch_size", 2.0), ("steps", True), ("seed", False),
    ("tokens_max", "5"), ("n_centroids", 4.0), ("audio_mask_span", None),
    ("uptrain_steps", 1.5), ("freeze_encoder_steps", 1.0), ("router_warmup_steps", [2]),
])
def test_config_rejects_non_integer_counts(key, value):
    with pytest.raises(ConfigError, match=key):
        TrainConfig.from_dict({key: value})


def test_config_accepts_numpy_integer_counts():
    cfg = TrainConfig.from_dict({"steps": np.int64(3), "batch_size": np.int32(2),
                                 "seed": np.uint16(4)})
    assert (cfg.steps, cfg.batch_size, cfg.seed) == (3, 2, 4)


@pytest.mark.parametrize("over", [
    {"n_centroids": 1}, {"n_centroids": 33}, {"n_centroids": 9, "model": {"d": 8}},
    {"audio_mask_span": 0}, {"video_mask_span": -1},
    {"audio_mask_prob": -0.1}, {"video_mask_prob": 1.5}, {"audio_mask_prob": float("nan")},
    {"av_snr_choices": []},
    {"regime": "combined_pipeline", "uptrain_steps": 0},
])
def test_config_rejects_bad_uptraining_and_sampling_settings(over):
    with pytest.raises(ConfigError):
        TrainConfig.from_dict(over)


def test_config_accepts_edge_uptraining_settings():
    TrainConfig.from_dict({"n_centroids": 2, "audio_mask_prob": 0.0, "video_mask_prob": 1.0,
                           "audio_mask_span": 1, "av_snr_choices": [0.0]})
    TrainConfig.from_dict({"n_centroids": 8, "model": {"d": 8}})
    TrainConfig.from_dict({"regime": "supervised_moe", "uptrain_steps": 0})


# -- parameter layout --------------------------------------------------------

def _layout_cfg(mode, seed=0):
    return TrainConfig.from_dict({
        "seed": seed, "generator": {"vocab": 7},
        "model": {"dim_audio": 5, "dim_video": 6, "d": 8, "h": 12, "n_enc": 1,
                  "n_dec": 2, "vocab": 7, "topk_blocks": 1,
                  "moe": {"mode": mode, "n_experts": 5, "k": 2, "n_groups": 2,
                          "n_per_group": 3, "m": 1, "k_per_group": 1}},
    })


_ATTN = [(8, 8)] * 4
_FFN = [(8, 12), (12,), (12, 8), (8,)]
_MOE_LAYOUT = {
    "dense_ffn": _FFN,
    "sparse_topk": _FFN * 5 + [(8, 5)],
    "hard": _FFN * 6 + [(8, 3), (8, 3)],
    "hierarchical": _FFN * 6 + [(8, 2), (8, 3), (8, 3)],
}


@pytest.mark.parametrize("mode", sorted(_MOE_LAYOUT))
def test_named_params_layout(mode):
    """Checkpoints store parameters under these names, in this order: per
    decoder block self- and cross-attention, the experts, then the sparse,
    inter and intra routers."""
    model = build_model(_layout_cfg(mode))
    want = [("audio_proj", (5, 8)), ("video_proj", (6, 8)), ("fusion", (16, 8)),
            ("token_emb", (9, 8)), ("head", (8, 9))]
    want += [(f"enc0.p{j}", shape) for j, shape in enumerate(_ATTN + _FFN)]
    for i in range(2):
        want += [(f"dec{i}.p{j}", shape)
                 for j, shape in enumerate(_ATTN * 2 + _MOE_LAYOUT[mode])]
    assert [(name, p.data.shape) for name, p in model.named_params().items()] == want


@pytest.mark.parametrize("mode", ["sparse_topk", "hard", "hierarchical"])
def test_build_model_draws_routers_from_routing_init_stream(mode):
    model = build_model(_layout_cfg(mode, seed=3))
    rng = np.random.default_rng(seed_streams(3)["routing_init"])
    for blk in model.decoder_blocks:
        moe = blk.moe
        if mode == "sparse_topk":
            assert np.array_equal(moe.router.weight.data, 0.02 * rng.normal(size=(8, 5)))
            assert moe.intra_routers == []
        else:
            assert moe.router is None
            assert len(moe.intra_routers) == 2
            for r in moe.intra_routers:
                assert np.array_equal(r.weight.data, 0.02 * rng.normal(size=(8, 3)))
        if mode == "hierarchical":
            assert np.array_equal(moe.inter_router.weight.data, np.zeros((8, 2)))
        else:
            assert moe.inter_router is None


# -- seed streams ------------------------------------------------------------

def test_seed_streams_deterministic_and_distinct():
    a = seed_streams(3)
    b = seed_streams(3)
    assert a == b
    assert len(set(a.values())) == len(a)
    assert set(a) == {"model_init", "routing_init", "data", "corruption"}


def test_different_seeds_give_different_streams():
    assert seed_streams(0)["data"] != seed_streams(1)["data"]


# -- optimizers --------------------------------------------------------------

def test_sgd_step_matches_closed_form():
    p = Tensor.param(np.array([1.0, 2.0]))
    p.grad = np.array([0.5, -1.0])
    sgd_step([p], lr=0.1)
    assert np.allclose(p.data, [0.95, 2.1])
    assert p.grad is None


def test_adam_first_step_is_signed_lr():
    # with bias correction the first update is lr * sign(grad)
    p = Tensor.param(np.array([0.0, 0.0]))
    p.grad = np.array([3.0, -0.001])
    Adam(lr=0.01).step([p])
    assert np.allclose(p.data, [-0.01, 0.01], atol=1e-6)


def test_lr_scales_multiply_the_update():
    a = Tensor.param(np.zeros(2))
    b = Tensor.param(np.zeros(2))
    a.grad = np.array([1.0, 1.0])
    b.grad = np.array([1.0, 1.0])
    opt = Adam(lr=0.01, lr_scales={id(b): 5.0})
    opt.step([a, b])
    assert np.allclose(b.data, 5.0 * a.data)


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ConfigError):
        make_optimizer("newton", 0.1)


# -- batches -----------------------------------------------------------------

def test_sample_batch_zero_dropout_all_av():
    cfg = _cfg(modality_dropout=0.0, batch_size=8, av_corrupt_prob=0.0)
    rng = np.random.default_rng(0)
    batch = _sample_batch(cfg, rng, np.random.default_rng(1))
    assert all(tag == MOD_AV for _, _, _, tag in batch)


def test_sample_batch_dropout_zeroes_one_modality():
    cfg = _cfg(modality_dropout=0.5, batch_size=64, av_corrupt_prob=0.0)
    batch = _sample_batch(cfg, np.random.default_rng(0), np.random.default_rng(1))
    tags = collections.Counter(tag for _, _, _, tag in batch)
    assert tags[MOD_AUDIO] > 0 and tags[MOD_VIDEO] > 0
    for audio, video, _, tag in batch:
        if tag == MOD_AUDIO:
            assert not video.any()
        elif tag == MOD_VIDEO and audio.any():
            # noise-swamped variant: audio present but video still clean
            assert video.any()


def test_sample_batch_deterministic():
    cfg = _cfg(batch_size=4)
    b1 = _sample_batch(cfg, np.random.default_rng(7), np.random.default_rng(9))
    b2 = _sample_batch(cfg, np.random.default_rng(7), np.random.default_rng(9))
    for (a1, v1, l1, t1), (a2, v2, l2, t2) in zip(b1, b2):
        assert np.array_equal(a1, a2) and np.array_equal(v1, v2)
        assert np.array_equal(l1, l2) and t1 == t2


# -- training runs -----------------------------------------------------------

def test_steps_one_logs_exactly_one_row(tmp_path):
    report = train(_cfg(steps=1), str(tmp_path / "run"))
    assert len(report.steps_table) == 1


def test_run_artifacts_written(tmp_path):
    run_dir = tmp_path / "run"
    train(_cfg(steps=2), str(run_dir))
    names = {"steps.csv", "summary.json", "expert_load.csv",
             "group_load_vs_snr.csv", "checkpoint.json", "config.json"}
    assert set(os.listdir(run_dir)) == names  # no temp file left behind
    summary = json.loads((run_dir / "summary.json").read_text())
    for key in ("loss_curves", "expert_load", "group_load_vs_snr",
                "flops", "ter"):
        assert key in summary


def test_same_config_byte_identical_steps_csv(tmp_path):
    cfg = _cfg(steps=4)
    train(cfg, str(tmp_path / "a"))
    train(cfg, str(tmp_path / "b"))
    assert (tmp_path / "a" / "steps.csv").read_bytes() == \
           (tmp_path / "b" / "steps.csv").read_bytes()


def test_different_seed_changes_losses(tmp_path):
    r0 = train(_cfg(steps=3, seed=0))
    r1 = train(_cfg(steps=3, seed=1))
    assert r0.final_losses != r1.final_losses


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_aborts_with_step_index():
    cfg = _cfg(steps=20, lr=1e300, optimizer="sgd",
               model={"moe": {"mode": "dense_ffn"}})
    with pytest.raises(DivergenceError) as exc:
        train(cfg)
    assert 0 <= exc.value.step < 20


def test_uptrain_regime_logs_distill_columns(tmp_path):
    run_dir = tmp_path / "run"
    train(_cfg(regime="cav2vec_uptrain", steps=3,
               model={"moe": {"mode": "dense_ffn"}}), str(run_dir))
    table = read_table(str(run_dir / "steps.csv"))
    assert table.column("L_MASK")[0] > 0.0
    assert all(v == 0.0 for v in table.column("L_CE"))


def test_combined_pipeline_runs_both_phases(tmp_path):
    run_dir = tmp_path / "run"
    cfg = _cfg(regime="combined_pipeline", steps=3, uptrain_steps=2,
               model={"moe": {"mode": "dense_ffn"}})
    train(cfg, str(run_dir))
    table = read_table(str(run_dir / "steps.csv"))
    assert len(table) == 5
    assert table.column("L_MASK")[0] > 0.0    # uptraining rows first
    assert table.column("L_CE")[-1] > 0.0     # supervised rows after


def test_combined_pipeline_starts_with_the_uptraining_run(tmp_path):
    """The uptraining rows of a combined run are, byte for byte, the rows of
    an uptraining run of ``uptrain_steps`` steps with the same seed."""
    train(_cfg(regime="combined_pipeline", steps=2, uptrain_steps=3, seed=4, eval_pairs=2),
          str(tmp_path / "both"))
    train(_cfg(regime="cav2vec_uptrain", steps=3, seed=4, eval_pairs=2), str(tmp_path / "up"))
    both = (tmp_path / "both" / "steps.csv").read_bytes().splitlines(keepends=True)
    up = (tmp_path / "up" / "steps.csv").read_bytes().splitlines(keepends=True)
    assert len(up) == 4 and len(both) == 6
    assert both[:4] == up


@pytest.mark.parametrize("regime, step_fn, fail_call, want_step", [
    ("cav2vec_uptrain", "_uptrain_step", 3, 2),
    ("combined_pipeline", "_supervised_step", 2, 4),   # after 3 uptraining steps
    ("combined_pipeline", "_uptrain_step", 1, 0),
])
def test_divergence_reports_the_global_step(monkeypatch, regime, step_fn, fail_call,
                                            want_step):
    real, calls = getattr(trainer_mod, step_fn), []

    def diverging(*args):
        calls.append(None)
        if len(calls) == fail_call:
            raise T.NumericError("injected")
        return real(*args)
    monkeypatch.setattr(trainer_mod, step_fn, diverging)
    with pytest.raises(DivergenceError) as exc:
        train(_cfg(regime=regime, steps=3, uptrain_steps=3, eval_pairs=2))
    assert exc.value.step == want_step


def test_freeze_encoder_keeps_encoder_params():
    cfg = _cfg(steps=3, freeze_encoder_steps=3)
    model = build_model(cfg)
    before = [p.data.copy() for p in model.encoder_params()]
    # drive the same model through the training loop by reusing internals
    from avmoe.trainer import _train_supervised
    from avmoe.metrics import CsvTable
    from avmoe.trainer import STEP_COLUMNS
    _train_supervised(model, cfg, CsvTable(STEP_COLUMNS))
    for prev, p in zip(before, model.encoder_params()):
        assert np.array_equal(prev, p.data)


def test_router_warmup_moves_only_routers():
    cfg = _cfg(steps=3, router_warmup_steps=3)
    model = build_model(cfg)
    router_ids = set(id(r.weight) for blk in model.decoder_blocks
                     for r in [blk.moe.inter_router] + blk.moe.intra_routers)
    before = {name: p.data.copy() for name, p in model.named_params().items()}
    from avmoe.trainer import _train_supervised
    from avmoe.metrics import CsvTable
    from avmoe.trainer import STEP_COLUMNS
    _train_supervised(model, cfg, CsvTable(STEP_COLUMNS))
    for name, p in model.named_params().items():
        if id(p) not in router_ids:
            assert np.array_equal(before[name], p.data), name


def test_identical_expert_init_copies_weights():
    model = build_model(_cfg(identical_expert_init=True))
    for blk in model.decoder_blocks:
        proto = blk.moe.experts[0]
        for e in blk.moe.experts[1:]:
            for a, b in zip(proto.params(), e.params()):
                assert np.array_equal(a.data, b.data)


# -- evaluation metrics ------------------------------------------------------

def test_eval_ter_deterministic_and_bounded():
    model = build_model(_cfg())
    t1 = eval_ter(model, _cfg().generator, pairs=3, preset="none", seed=4)
    t2 = eval_ter(model, _cfg().generator, pairs=3, preset="none", seed=4)
    assert t1 == t2
    assert t1 >= 0.0


def test_eval_ter_builds_no_tape(monkeypatch):
    model = build_model(_cfg())
    make, nodes = T._make, []

    def counted(data, parents, backward):
        nodes.extend([data] if parents else [])
        return make(data, parents, backward)
    monkeypatch.setattr(T, "_make", counted)
    eval_ter(model, _cfg().generator, pairs=2, preset="eval-fullnoise", seed=4)
    assert nodes == []


def test_group_load_curve_shape_and_range():
    cfg = _cfg()
    model = build_model(cfg)
    table = eval_group_load_vs_snr(model, cfg.generator, [-10, 0, 10],
                                   pairs=3, seed=2)
    assert table.header == ["snr", "mean_qV", "std_qV"]
    assert len(table) == 3
    assert all(0.0 <= v <= 1.0 for v in table.column("mean_qV"))


def test_symmetric_init_group_weight_is_half():
    # zero-initialized inter router gives q = (0.5, 0.5) for every token
    cfg = _cfg()
    model = build_model(cfg)
    table = eval_group_load_vs_snr(model, cfg.generator, [0], pairs=3, seed=2)
    assert table.column("mean_qV")[0] == pytest.approx(0.5)
    aff = group_affinity(model, cfg.generator, pairs=3, seed=2)
    assert aff["audio_group_on_audio_tokens"] == pytest.approx(0.5)


def test_repr_distance_zero_without_corruption():
    cfg = _cfg()
    m = build_model(cfg)
    rep = repr_distance_report(m, m, cfg.generator, pairs=2, preset="none")
    assert rep["d_before"] == 0.0
    assert rep["d_after"] == 0.0
    assert rep["relative_change"] == 0.0


def test_repr_distance_matches_manual_recomputation():
    cfg = _cfg()
    model = build_model(cfg)
    rep = repr_distance_report(model, model, cfg.generator, pairs=2,
                               preset="eval-fullnoise", seed=5)
    assert rep["d_before"] == pytest.approx(rep["d_after"])
    assert rep["relative_change"] == pytest.approx(0.0)
    # recompute the distance for the same pairs/corruption by hand
    from avmoe.corruption import corrupt_pair, sample_plan_preset
    from avmoe.trainer import _eval_pairs
    rng = np.random.default_rng(5)
    acc = 0.0
    for pair in _eval_pairs(cfg.generator, 2, 5 + 13):
        plan = sample_plan_preset("eval-fullnoise", pair.num_frames,
                                  int(rng.integers(2 ** 31)), drop_prob=0.0)
        audio, video = corrupt_pair(pair.audio, pair.video, plan,
                                    int(rng.integers(2 ** 31)),
                                    audio_snr_db=-10.0)
        with T.no_grad():
            clean, _ = model.encode(pair.audio, pair.video)
            corr, _ = model.encode(audio, video)
        cn = clean.data / np.linalg.norm(clean.data, axis=1, keepdims=True)
        xn = corr.data / np.linalg.norm(corr.data, axis=1, keepdims=True)
        acc += float(np.mean(np.linalg.norm(cn - xn, axis=1)))
    assert rep["d_before"] == pytest.approx(acc / 2, abs=1e-12)


# -- balance property --------------------------------------------------------

def test_within_group_load_cv_below_half():
    # token counts averaged over the last 10% of steps, per layer and group
    cfg = _cfg(steps=300, batch_size=12, lr=3e-3, c_balance=1.0,
               model={"moe": {"mode": "sparse_topk", "n_experts": 4, "k": 2}})
    report = train(cfg)
    assert report.expert_load_tail
    for key, freqs in report.expert_load_tail.items():
        assert coeff_of_variation(freqs) < 0.5, (key, freqs)


def test_hierarchical_within_group_load_cv_below_half():
    cfg = _cfg(steps=300, batch_size=8, c_balance=0.1,
               identical_expert_init=True, freeze_experts_steps=300,
               router_warmup_steps=300, inter_lr_scale=10.0)
    report = train(cfg)
    assert set(report.expert_load_tail) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for key, freqs in report.expert_load_tail.items():
        assert coeff_of_variation(freqs) < 0.5, (key, freqs)
