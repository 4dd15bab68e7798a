import collections
import csv
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import avmoe.trainer as trainer_mod
from avmoe import tensor as T
from avmoe.moe_layer import MoELayerConfig
from avmoe.routing import MOD_AUDIO, MOD_AV, MOD_VIDEO
from avmoe.corruption import CorruptionPlan, corrupt_pair, sample_plan_preset
from avmoe.distill import DistillHeads, make_centroids, make_teacher
from avmoe.model import Encoder
from avmoe.streams import token_error_rate
from avmoe.tensor import Tensor
from avmoe.trainer import (
    Adam, ConfigError, DivergenceError, SGD, TrainConfig, _eval_pairs, _sample_batch,
    build_model, eval_group_load_vs_snr, eval_ter, expert_load_table, group_affinity,
    make_optimizer, repr_distance_report, seed_streams, train,
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


@pytest.mark.parametrize("regime", ["cav2vec_uptrain", "combined_pipeline"])
def test_config_rejects_no_tasks_when_uptraining(regime):
    # uptraining without a task would train nothing: every row all zeros
    with pytest.raises(ConfigError, match="at least one distillation task"):
        _cfg(regime=regime, tasks=[])
    with pytest.raises(ConfigError, match="at least one distillation task"):
        TrainConfig(regime=regime, tasks=())


def test_supervised_regime_needs_no_tasks():
    assert _cfg(tasks=[]).tasks == ()


@pytest.mark.parametrize("regime", ["supervised_moe", "cav2vec_uptrain", "combined_pipeline"])
@pytest.mark.parametrize("tasks", [("ACP", "ACP"), ("MASK", "VCP", "MLM", "VCP")])
def test_config_rejects_a_repeated_task(regime, tasks):
    with pytest.raises(ConfigError, match="repeated distillation task"):
        _cfg(regime=regime, tasks=list(tasks))


@pytest.mark.parametrize("pairs", [0, -3])
def test_config_rejects_eval_pairs_below_one(pairs):
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"eval_pairs": pairs})


def test_config_reads_legacy_router_tune_steps():
    # config.json files of earlier runs carry the removed field as 0
    assert TrainConfig.from_dict({"router_tune_steps": 0}) == TrainConfig()
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"router_tune_steps": 5})


# the config.json written for TrainConfig() while the retired settings were
# fields, plus the two keys retired before them at the values runs wrote
LEGACY_DEFAULT_CONFIG_JSON = """{
  "audio_mask_prob": 0.3,
  "audio_mask_span": 3,
  "av_corrupt_prob": 0.5,
  "av_snr_choices": [
    -10.0,
    -5.0,
    0.0,
    5.0,
    10.0
  ],
  "batch_size": 4,
  "c_balance": 0.01,
  "c_bias": 0.01,
  "c_z": 0.001,
  "corruption_preset": "train-default",
  "eval_pairs": 16,
  "freeze_encoder_steps": 0,
  "freeze_experts_steps": 0,
  "generator": {
    "codebook_seed": 7,
    "dim_audio": 16,
    "dim_video": 16,
    "frames_per_token": 3,
    "offset_scale": 1.0,
    "sigma_audio": 0.1,
    "sigma_video": 0.1,
    "vocab": 16
  },
  "identical_expert_init": false,
  "inter_lr_scale": 1.0,
  "lr": 0.1,
  "modality_dropout": 0.25,
  "model": {
    "d": 32,
    "dim_audio": 16,
    "dim_video": 16,
    "h": 64,
    "max_len": 160,
    "moe": {
      "activation": "gelu",
      "d": 32,
      "h": 64,
      "k": 2,
      "k_per_group": 1,
      "m": 2,
      "mode": "dense_ffn",
      "n_experts": 8,
      "n_groups": 2,
      "n_per_group": 4
    },
    "n_dec": 2,
    "n_enc": 2,
    "topk_blocks": 2,
    "vocab": 16
  },
  "n_centroids": 8,
  "optimizer": "sgd",
  "regime": "supervised_moe",
  "router_tune_steps": 0,
  "router_warmup_steps": 0,
  "schema_version": 1,
  "seed": 0,
  "steps": 200,
  "task_weights": {
    "acp": 1.0,
    "mask": 1.0,
    "mlm": 2.0,
    "vcp": 1.0
  },
  "tasks": [
    "MASK",
    "ACP",
    "VCP"
  ],
  "tokens_max": 5,
  "tokens_min": 3,
  "uptrain_steps": 100,
  "video_mask_prob": 0.2,
  "video_mask_span": 2
}"""

# each retired key at a value no run used
RETIRED_OTHER_VALUES = {
    "router_tune_steps": 5, "av_corrupt_prob": 0.0, "av_snr_choices": [0.0],
    "c_z": 0.0, "task_weights": {"acp": 1.0, "vcp": 1.0, "mask": 1.0, "mlm": 1.0},
    "corruption_preset": "none", "audio_mask_prob": 0.0, "audio_mask_span": 1,
    "video_mask_prob": 0.0, "video_mask_span": 1, "model.moe.activation": "tanh",
}


def _nested(dotted: str, value) -> dict:
    *path, key = dotted.split(".")
    d = {key: value}
    for name in reversed(path):
        d = {name: d}
    return d


def test_legacy_config_json_loads_without_its_retired_keys():
    legacy = json.loads(LEGACY_DEFAULT_CONFIG_JSON)
    want = json.loads(LEGACY_DEFAULT_CONFIG_JSON)
    for key in trainer_mod.RETIRED:  # every retired key is in the file
        *path, name = key.split(".")
        level = want
        for part in path:
            level = level[part]
        del level[name]
    got = TrainConfig.from_dict(legacy).to_dict()
    assert json.loads(json.dumps(got)) == want
    assert got == TrainConfig().to_dict()


@pytest.mark.parametrize("key", sorted(RETIRED_OTHER_VALUES))
def test_retired_key_at_another_value_is_refused_by_name(key):
    assert set(RETIRED_OTHER_VALUES) == set(trainer_mod.RETIRED)
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        TrainConfig.from_dict(_nested(key, RETIRED_OTHER_VALUES[key]))
    TrainConfig.from_dict(_nested(key, trainer_mod.RETIRED[key]))  # the old value loads


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
    # a bool setting takes only true or false, and tasks only a list of names
    ("identical_expert_init", "false"), ("identical_expert_init", 0),
    ("identical_expert_init", 2), ("identical_expert_init", None),
    ("identical_expert_init", [1]), ("tasks", "MASK"), ("tasks", None),
    ("tasks", ["MASK", 1]),
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


@pytest.mark.parametrize("k", [1, 3])
def test_config_rejects_odd_k_in_hard_mode(k):
    moe = {"mode": "hard", "n_groups": 2, "n_per_group": 4, "k": k}
    with pytest.raises(ConfigError, match=f"k={k}"):
        TrainConfig.from_dict({"model": {"moe": moe}})
    # a layer that only ever routes unimodal tokens may use odd k
    assert MoELayerConfig(**moe).k == k
    TrainConfig.from_dict({"model": {"moe": {**moe, "k": 2}}})


def test_config_rejects_unknown_activation():
    """Every expert is a GELU FFN: an old config's "gelu" loads, and any
    other activation is refused by name."""
    moe = {"mode": "sparse_topk", "n_experts": 4, "k": 2}
    for name in ("swish", "tanh", "relu", "linear"):
        with pytest.raises(ConfigError, match=name):
            TrainConfig.from_dict({"model": {"moe": {**moe, "activation": name}}})
    TrainConfig.from_dict({"model": {"moe": {**moe, "activation": "gelu"}}})


def test_config_accepts_edge_uptraining_settings():
    TrainConfig.from_dict({"n_centroids": 2})
    TrainConfig.from_dict({"n_centroids": 8, "model": {"d": 8}})
    TrainConfig.from_dict({"regime": "supervised_moe", "uptrain_steps": 0})


# -- parameter layout --------------------------------------------------------

def _layout_cfg(mode, seed=0):
    return TrainConfig.from_dict({
        "seed": seed, "generator": {"vocab": 5, "dim_audio": 5, "dim_video": 6},
        "model": {"dim_audio": 5, "dim_video": 6, "d": 8, "h": 12, "n_enc": 1,
                  "n_dec": 2, "vocab": 5, "topk_blocks": 1,
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
    inter and intra routers, a router family's routers one by one."""
    model = build_model(_layout_cfg(mode))
    want = [("audio_proj", (5, 8)), ("video_proj", (6, 8)), ("fusion", (16, 8)),
            ("token_emb", (7, 8)), ("head", (8, 7))]
    want += [(f"enc0.p{j}", shape) for j, shape in enumerate(_ATTN + _FFN)]
    for i in range(2):
        want += [(f"dec{i}.p{j}", shape)
                 for j, shape in enumerate(_ATTN * 2 + _MOE_LAYOUT[mode])]
    assert [(name, a.shape) for name, a in model.state_dict().items()] == want


@pytest.mark.parametrize("mode", ["sparse_topk", "hard", "hierarchical"])
def test_build_model_draws_routers_from_routing_init_stream(mode):
    model = build_model(_layout_cfg(mode, seed=3))
    rng = np.random.default_rng(seed_streams(3)["routing_init"])
    for blk in model.decoder_blocks:
        moe = blk.moe
        if mode == "sparse_topk":
            assert np.array_equal(moe.router.weight.data, 0.02 * rng.normal(size=(1, 8, 5)))
            assert moe.intra_routers == []
        else:
            assert moe.router is None
            # hard routing's two routers are a family each, the intra routers one
            assert len(moe.intra_routers) == (2 if mode == "hard" else 1)
            got = np.concatenate([r.weight.data for r in moe.intra_routers])
            assert np.array_equal(got, 0.02 * rng.normal(size=(2, 8, 3)))
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
    SGD([p], lr=0.1).step()
    assert np.allclose(p.data, [0.95, 2.1])
    assert p.grad is None


def test_adam_first_step_is_signed_lr():
    # with bias correction the first update is lr * sign(grad)
    p = Tensor.param(np.array([0.0, 0.0]))
    p.grad = np.array([3.0, -0.001])
    Adam([p], lr=0.01).step()
    assert np.allclose(p.data, [-0.01, 0.01], atol=1e-6)


def test_lr_scales_multiply_the_update():
    a = Tensor.param(np.zeros(2))
    b = Tensor.param(np.zeros(2))
    a.grad = np.array([1.0, 1.0])
    b.grad = np.array([1.0, 1.0])
    Adam([a, b], lr=0.01, lr_scales={id(b): 5.0}).step()
    assert np.allclose(b.data, 5.0 * a.data)


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ConfigError):
        make_optimizer("newton", 0.1, [])


# -- batches -----------------------------------------------------------------

def test_sample_batch_zero_dropout_all_av():
    cfg = _cfg(modality_dropout=0.0, batch_size=8)
    rng = np.random.default_rng(0)
    batch = _sample_batch(cfg, rng, np.random.default_rng(1))
    assert all(tag == MOD_AV for _, _, _, tag in batch)


def test_sample_batch_dropout_zeroes_one_modality():
    cfg = _cfg(modality_dropout=0.5, batch_size=64)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(frames=st.integers(0, 12), dim_audio=st.integers(1, 6), dim_video=st.integers(1, 6),
       silent=st.booleans(),
       snr=st.one_of(st.sampled_from(trainer_mod.AV_SNR_CHOICES),
                     st.floats(-40.0, 40.0, allow_nan=False)),
       seed=st.integers(0, 2 ** 63 - 1))
def test_corrupt_all_audio_is_the_corruption_plan_route(frames, dim_audio, dim_video,
                                                        silent, snr, seed):
    """The all-audio noise equals ``corrupt_pair`` under a plan that
    corrupts every audio frame and no video: the same audio and video
    bytes, one draw from the caller's generator."""
    data = np.random.default_rng(seed ^ 0x55)
    audio = np.zeros((frames, dim_audio)) if silent else data.normal(size=(frames, dim_audio))
    video = data.normal(size=(frames, dim_video))
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    plan = CorruptionPlan(seq_len=frames, audio_corrupt=np.arange(frames))
    want = corrupt_pair(audio, video, plan, int(ref_rng.integers(2 ** 31)), audio_snr_db=snr)
    got = trainer_mod._corrupt_all_audio(audio, video, rng, snr)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert got[1] is video
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_corrupt_all_audio_refuses_unequal_frame_counts():
    ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
    audio, video = np.ones((4, 2)), np.ones((5, 2))
    plan = CorruptionPlan(seq_len=4, audio_corrupt=np.arange(4))
    with pytest.raises(ValueError, match="frames"):
        corrupt_pair(audio, video, plan, int(ref_rng.integers(2 ** 31)))
    with pytest.raises(ValueError, match="4 audio and 5 video frames"):
        trainer_mod._corrupt_all_audio(audio, video, rng, -5.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def _read_steps(run_dir) -> list[dict]:
    """The rows of a run's steps.csv, each cell parsed as a float."""
    with open(run_dir / "steps.csv", newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def test_uptrain_regime_logs_distill_columns(tmp_path):
    run_dir = tmp_path / "run"
    train(_cfg(regime="cav2vec_uptrain", steps=3,
               model={"moe": {"mode": "dense_ffn"}}), str(run_dir))
    rows = _read_steps(run_dir)
    assert rows[0]["L_MASK"] > 0.0
    assert all(row["L_CE"] == 0.0 for row in rows)


def _record_uptrain_step(monkeypatch, **over):
    """Run one uptraining step and log what it called, in order: ("pair",)
    per pair drawn, ("teacher", each pair's mode list) per teacher_targets
    call and ("encode", grad enabled, stack sizes) per encode, the stack
    sizes a list for the stack list form."""
    cfg = _cfg(regime="cav2vec_uptrain", steps=1, batch_size=4, tokens_min=4,
               tokens_max=8, model={"moe": {"mode": "dense_ffn"}}, **over)
    model = build_model(cfg)
    calls = []
    real_pair, real_targets = trainer_mod.generate_pair, trainer_mod.teacher_targets
    real_encode = Encoder.encode

    def generate_pair(*args, **kw):
        calls.append(("pair",))
        return real_pair(*args, **kw)

    def teacher_targets(teacher, pairs, topk):
        calls.append(("teacher", [list(modes) for _, _, modes in pairs]))
        return real_targets(teacher, pairs, topk)

    def encode(self, audio, video):
        sizes = [a.shape[0] for a in audio] if isinstance(audio, list) else audio.shape[0]
        calls.append(("encode", T.grad_enabled(), sizes))
        return real_encode(self, audio, video)

    monkeypatch.setattr(trainer_mod, "generate_pair", generate_pair)
    monkeypatch.setattr(trainer_mod, "teacher_targets", teacher_targets)
    # the student (a Model) and the teacher (an Encoder) both find it here
    monkeypatch.setattr(Encoder, "encode", encode)
    streams = seed_streams(cfg.seed)
    teacher = make_teacher(model, total_steps=1)
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids)
    centroids = make_centroids(cfg.n_centroids, cfg.model.d)
    trainer_mod._uptrain_step(model, teacher, heads, centroids, cfg,
                              np.random.default_rng(streams["data"]),
                              np.random.default_rng(streams["corruption"]))
    return calls


@pytest.mark.parametrize("tasks", [("MASK",), ("MASK", "ACP", "VCP"),
                                   ("MASK", "MLM", "AVCP", "mACP", "mVCP", "ACP", "VCP")])
@pytest.mark.parametrize("seed", [0, 1])
def test_uptrain_step_encodes_each_pair_as_two_stacks(monkeypatch, tasks, seed):
    """The four pairs are drawn first; then one teacher_targets call takes
    every pair's target modes, no mode repeated, and encodes each working
    pair's modes as one stack of one no-grad encode of the stack list form;
    then each working pair makes one grad-enabled student encode. AVCP,
    mACP and mVCP share one student input, MASK and MLM another."""
    calls = _record_uptrain_step(monkeypatch, tasks=tasks, seed=seed)
    assert calls[:4] == [("pair",)] * 4
    (_, modes), teacher_call, *student_calls = calls[4:]
    working = [m for m in modes if m]
    assert len(modes) == 4 and working  # a pair may draw no mask and no corruption
    for m in working:
        assert 1 <= len(m) == len(set(m)) <= 3
    assert teacher_call == ("encode", False, [len(m) for m in working])
    assert len(student_calls) == len(working)
    for _, grad, n in student_calls:
        assert grad and 1 <= n <= min(len(tasks), 4)


def test_uptrain_step_skips_tasks_with_no_frames_to_score(monkeypatch):
    """No mask and no corruption: every task adds 0, and nothing encodes."""
    def empty_plan(name, n_frames, rng_seed, drop_prob):
        return CorruptionPlan(seq_len=n_frames)

    def no_masks(plan, *args):
        return plan
    monkeypatch.setattr(trainer_mod, "sample_plan_preset", empty_plan)
    monkeypatch.setattr(trainer_mod, "allocate_masks", no_masks)
    calls = _record_uptrain_step(monkeypatch, tasks=("MASK", "MLM", "AVCP", "ACP"))
    assert calls == [("pair",)] * 4 + [("teacher", [[]] * 4)]


def test_combined_pipeline_runs_both_phases(tmp_path):
    run_dir = tmp_path / "run"
    cfg = _cfg(regime="combined_pipeline", steps=3, uptrain_steps=2,
               model={"moe": {"mode": "dense_ffn"}})
    train(cfg, str(run_dir))
    rows = _read_steps(run_dir)
    assert len(rows) == 5
    assert rows[0]["L_MASK"] > 0.0    # uptraining rows first
    assert rows[-1]["L_CE"] > 0.0     # supervised rows after


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


@pytest.mark.parametrize("tasks", [("MASK",), ("VCP", "MLM", "AVCP"), ("mVCP", "AVCP")])
def test_uptrain_phase_trains_the_encoder_and_the_configured_heads(tasks):
    """The encoder's parameters, then one head per configured task with the
    values the default (every task) heads have; no decoder parameter."""
    cfg = _cfg(regime="cav2vec_uptrain", tasks=list(tasks), seed=3)
    model = build_model(cfg)
    params = trainer_mod._uptrain_phase(model, cfg, cfg.steps)[0]
    encoder = model.encoder_params()
    assert [id(p) for p in params[:len(encoder)]] == [id(p) for p in encoder]
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids,
                              seed=seed_streams(cfg.seed)["model_init"] ^ 0x5F)
    assert [p.data.tobytes() for p in params[len(encoder):]] == \
           [heads.heads[name].data.tobytes() for name in tasks]
    decoder = {id(p) for p in model.params()} - {id(p) for p in encoder}
    assert decoder and not decoder & {id(p) for p in params}


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


@pytest.mark.parametrize("step_fn, fail_call, want_step", [
    ("_uptrain_step", 2, 1),     # the last uptraining step
    ("_supervised_step", 1, 2),  # the first finetuning step
])
def test_divergence_at_the_phase_boundary_keeps_the_last_losses(monkeypatch, step_fn,
                                                                fail_call, want_step):
    """A divergence on either side of the combined_pipeline boundary carries
    the scalars of the row before it."""
    from avmoe.metrics import CsvTable
    from avmoe.trainer import STEP_COLUMNS, _train
    cfg = _cfg(regime="combined_pipeline", steps=2, uptrain_steps=2,
               model={"moe": {"mode": "dense_ffn"}})
    table = CsvTable(STEP_COLUMNS)
    _train(build_model(cfg), cfg, table)
    real, calls = getattr(trainer_mod, step_fn), []

    def diverging(*args):
        calls.append(None)
        if len(calls) == fail_call:
            raise T.NumericError("injected")
        return real(*args)
    monkeypatch.setattr(trainer_mod, step_fn, diverging)
    with pytest.raises(DivergenceError) as exc:
        _train(build_model(cfg), cfg, CsvTable(STEP_COLUMNS))
    assert exc.value.step == want_step
    assert isinstance(exc.value.__cause__, T.NumericError)
    previous = dict(zip(STEP_COLUMNS, table.rows[want_step - 1]))
    assert exc.value.last_losses
    assert exc.value.last_losses == {k: previous[k] for k in exc.value.last_losses}


def test_freeze_encoder_keeps_encoder_params():
    cfg = _cfg(steps=3, freeze_encoder_steps=3)
    model = build_model(cfg)
    before = [p.data.copy() for p in model.encoder_params()]
    # drive the same model through the training loop by reusing internals
    from avmoe.trainer import _train
    from avmoe.metrics import CsvTable
    from avmoe.trainer import STEP_COLUMNS
    _train(model, cfg, CsvTable(STEP_COLUMNS))
    for prev, p in zip(before, model.encoder_params()):
        assert np.array_equal(prev, p.data)


def test_router_warmup_moves_only_routers():
    cfg = _cfg(steps=3, router_warmup_steps=3)
    model = build_model(cfg)
    router_ids = set(id(r.weight) for blk in model.decoder_blocks
                     for r in [blk.moe.inter_router] + blk.moe.intra_routers)
    before = [p.data.copy() for p in model.params()]
    from avmoe.trainer import _train
    from avmoe.metrics import CsvTable
    from avmoe.trainer import STEP_COLUMNS
    _train(model, cfg, CsvTable(STEP_COLUMNS))
    for name, (b, p) in enumerate(zip(before, model.params())):
        if id(p) not in router_ids:
            assert np.array_equal(b, p.data), name


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


def per_pair_eval_ter(model, gen_cfg, pairs, preset, seed, snr_db=-10.0):
    """The per-pair loop lockstep ``eval_ter`` replaced: corrupt, encode and
    decode one pair at a time."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for pair in _eval_pairs(gen_cfg, pairs, seed + 1):
        plan = sample_plan_preset(preset, pair.num_frames,
                                  int(rng.integers(2 ** 31)), drop_prob=0.0)
        audio, video = corrupt_pair(pair.audio, pair.video, plan,
                                    int(rng.integers(2 ** 31)), audio_snr_db=snr_db)
        with T.no_grad():
            feats, _ = model.encode(audio, video)
        hyp, = model.decode_greedy(feats, [len(pair.labels) + 4],
                                   feature_lengths=[pair.num_frames])
        total += token_error_rate(hyp, pair.labels)
    return total / pairs


@pytest.mark.parametrize("mode, seed, eos_scale, preset, pairs", [
    ("hierarchical", 2, 1.0, "eval-fullnoise", 6), ("sparse_topk", 2, 2.0, "none", 6),
    ("dense_ffn", 1, 3.0, "none", 6), ("dense_ffn", 1, 3.0, "none", 1),
])
def test_eval_ter_matches_the_per_pair_loop(mode, seed, eos_scale, preset, pairs):
    moe = {"hierarchical": {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4,
                            "m": 2, "k_per_group": 1},
           "sparse_topk": {"mode": "sparse_topk", "n_experts": 4, "k": 2},
           "dense_ffn": {"mode": "dense_ffn"}}[mode]
    cfg = _cfg(model={"moe": moe}, seed=seed)
    model = build_model(cfg)
    # a stronger EOS column makes some pairs stop early and others run to
    # their bound, so the lockstep live set shrinks unevenly
    model.head.data[:, model.cfg.eos_id] *= eos_scale
    want = per_pair_eval_ter(model, cfg.generator, pairs, preset, seed=7)
    assert eval_ter(model, cfg.generator, pairs, preset, seed=7) == want


@pytest.mark.parametrize("pairs", [0, -2])
def test_eval_ter_rejects_pairs_below_one(pairs):
    with pytest.raises(ValueError, match="pairs"):
        eval_ter(build_model(_cfg()), _cfg().generator, pairs, "none")


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


@pytest.mark.parametrize("probe", [
    lambda m, g: eval_ter(m, g, pairs=0, preset="none"),
    lambda m, g: expert_load_table(m, g, pairs=0),
    lambda m, g: group_affinity(m, g, pairs=0),
    lambda m, g: eval_group_load_vs_snr(m, g, [0.0], pairs=0),
], ids=["eval_ter", "expert_load_table", "group_affinity", "eval_group_load_vs_snr"])
def test_probes_reject_zero_pairs(probe):
    cfg = _cfg()
    with pytest.raises(ValueError, match="pairs must be >= 1, got 0"):
        probe(build_model(cfg), cfg.generator)


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
        assert np.std(freqs) / np.mean(freqs) < 0.5, (key, freqs)


def test_hierarchical_within_group_load_cv_below_half():
    cfg = _cfg(steps=300, batch_size=8, c_balance=0.1,
               identical_expert_init=True, freeze_experts_steps=300,
               router_warmup_steps=300, inter_lr_scale=10.0)
    report = train(cfg)
    assert set(report.expert_load_tail) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for key, freqs in report.expert_load_tail.items():
        assert np.std(freqs) / np.mean(freqs) < 0.5, (key, freqs)
