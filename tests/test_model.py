import base64
import json
import math

import numpy as np
import pytest

from avmoe import tensor as T
from avmoe.cli import EXIT_CONFIG, EXIT_OK, main
from avmoe.model import Encoder, Model, ModelConfig, sinusoidal_positions
from avmoe.moe_layer import MoELayerConfig
from avmoe.routing import MOD_AV
from avmoe.tensor import Tensor
from avmoe.trainer import TrainConfig, build_model


def tiny_cfg(mode="dense_ffn", **moe_kw):
    return ModelConfig(dim_audio=5, dim_video=5, d=8, h=12, n_enc=2, n_dec=1,
                       vocab=6, max_len=32,
                       moe=MoELayerConfig(mode=mode, **moe_kw))


def rand_pair(rng, t=6, dim=5):
    return rng.normal(size=(t, dim)), rng.normal(size=(t, dim))


class TestEncode:
    def test_zero_parameters_zero_features(self):
        model = Model(tiny_cfg(), seed=0)
        for p in model.encoder_params():
            p.data[:] = 0.0
        A, V = rand_pair(np.random.default_rng(0))
        feats, _ = model.encode(A, V)
        assert np.array_equal(feats.data, np.zeros_like(feats.data))

    def test_zeroed_video_equals_explicit_zero_frames(self):
        model = Model(tiny_cfg(), seed=1)
        A, V = rand_pair(np.random.default_rng(1))
        f1, _ = model.encode(A, np.zeros_like(V))
        f2, _ = model.encode(A, 0.0 * V)
        assert np.array_equal(f1.data, f2.data)

    def test_per_block_outputs_shape_walk(self):
        cfg = tiny_cfg()
        model = Model(cfg, seed=2)
        A, V = rand_pair(np.random.default_rng(2), t=7)
        _, per_block = model.encode(A, V)
        assert len(per_block) == cfg.n_enc
        for blk in per_block:
            assert blk.data.shape == (7, cfg.d)

    def test_length_mismatch(self):
        model = Model(tiny_cfg(), seed=3)
        rng = np.random.default_rng(3)
        with pytest.raises(T.ShapeError):
            model.encode(rng.normal(size=(4, 5)), rng.normal(size=(5, 5)))

    def test_no_sequences(self):
        with pytest.raises(T.ShapeError):
            Model(tiny_cfg(), seed=3).encode([], [])

    def test_deterministic(self):
        A, V = rand_pair(np.random.default_rng(4))
        f1, _ = Model(tiny_cfg(), seed=5).encode(A, V)
        f2, _ = Model(tiny_cfg(), seed=5).encode(A, V)
        assert np.array_equal(f1.data, f2.data)


class TestDecodeTrain:
    def test_uniform_logits_closed_form(self):
        model = Model(tiny_cfg(), seed=6)
        model.head.data[:] = 0.0  # logits all zero -> uniform over classes
        A, V = rand_pair(np.random.default_rng(6), t=4)
        feats, _ = model.encode(A, V)
        _, ce, _ = model.decode_train(feats, [1, 2, 3])
        assert float(ce.data) == pytest.approx(math.log(model.cfg.n_classes), abs=1e-9)

    def test_replay_oracle_without_tape(self):
        model = Model(tiny_cfg(), seed=7)
        A, V = rand_pair(np.random.default_rng(7), t=5)
        feats, _ = model.encode(A, V)
        logits, ce, _ = model.decode_train(feats, [0, 4, 2])
        with T.no_grad():
            feats2, _ = model.encode(A, V)
            logits2, ce2, _ = model.decode_train(feats2, [0, 4, 2])
        assert np.array_equal(logits.data, logits2.data)
        assert float(ce.data) == float(ce2.data)

    def test_logits_cover_inputs_plus_one(self):
        model = Model(tiny_cfg(), seed=8)
        A, V = rand_pair(np.random.default_rng(8), t=4)
        feats, _ = model.encode(A, V)
        logits, _, _ = model.decode_train(feats, [1, 2])
        assert logits.data.shape == (3, model.cfg.n_classes)

    def test_label_out_of_range(self):
        model = Model(tiny_cfg(), seed=9)
        A, V = rand_pair(np.random.default_rng(9))
        feats, _ = model.encode(A, V)
        with pytest.raises(IndexError):
            model.decode_train(feats, [0, 6])

    def test_gradient_reaches_every_parameter(self):
        model = Model(tiny_cfg(mode="sparse_topk", n_experts=2, k=2), seed=10)
        A, V = rand_pair(np.random.default_rng(10), t=4)
        feats, _ = model.encode(A, V)
        _, ce, _ = model.decode_train(feats, [1, 0, 3])
        ce.backward()
        missing = [name for name, p in model.named_params().items() if p.grad is None]
        assert missing == []

    def test_moe_aux_reports_decisions(self):
        model = Model(tiny_cfg(mode="sparse_topk", n_experts=4, k=2), seed=11)
        A, V = rand_pair(np.random.default_rng(11), t=4)
        feats, _ = model.encode(A, V)
        _, _, aux = model.decode_train(feats, [1, 2, 3], modality=MOD_AV)
        assert len(aux) == model.cfg.n_dec
        # BOS + 3 labels = 4 decoder tokens, each with a routing row
        assert aux[0]["routing"].selected.shape == (4, 2)
        assert aux[0]["routing"].weights.data.shape == (4, 2)
        assert aux[0]["logit_rows"][0].data.shape == (4, 4)


class TestDecodeGreedy:
    def test_constant_eos_logits_empty_transcript(self):
        model = Model(tiny_cfg(), seed=12)
        model.head.data[:] = 0.0
        # every position now argmaxes to a fixed class; force it to EOS
        model.head.data[:, model.cfg.eos_id] = 10.0
        A, V = rand_pair(np.random.default_rng(12))
        feats, _ = model.encode(A, V)
        assert model.decode_greedy(feats, max_len=10) == []

    def test_two_runs_bit_identical(self):
        model = Model(tiny_cfg(), seed=13)
        A, V = rand_pair(np.random.default_rng(13))
        feats, _ = model.encode(A, V)
        assert model.decode_greedy(feats, 8) == model.decode_greedy(feats, 8)

    def test_respects_max_len(self):
        model = Model(tiny_cfg(), seed=14)
        model.head.data[:] = 0.0
        model.head.data[:, 2] = 5.0  # never emits EOS
        A, V = rand_pair(np.random.default_rng(14))
        feats, _ = model.encode(A, V)
        assert len(model.decode_greedy(feats, 5)) == 5


class TestDenseMoEEquivalence:
    def test_identical_experts_match_dense_ffn(self):
        cfg_m = tiny_cfg(mode="sparse_topk", n_experts=3, k=2)
        moe_model = Model(cfg_m, seed=15)
        dense_model = Model(tiny_cfg(), seed=15)
        dense_model.load_state_dict(
            {k: v for k, v in dense_model.state_dict().items()})
        # copy all shared weights across, then make every expert equal the
        # dense model's single FFN
        src = dense_model.named_params()
        dst = moe_model.named_params()
        for name, p in src.items():
            if name in dst and dst[name].data.shape == p.data.shape:
                dst[name].data[:] = p.data
        dense_ffn = dense_model.decoder_blocks[0].moe.experts[0]
        for e in moe_model.decoder_blocks[0].moe.experts:
            e.W1.data[:] = dense_ffn.W1.data
            e.b1.data[:] = dense_ffn.b1.data
            e.W2.data[:] = dense_ffn.W2.data
            e.b2.data[:] = dense_ffn.b2.data
        A, V = rand_pair(np.random.default_rng(15), t=5)
        fd, _ = dense_model.encode(A, V)
        fm, _ = moe_model.encode(A, V)
        ld, _, _ = dense_model.decode_train(fd, [1, 2])
        lm, _, _ = moe_model.decode_train(fm, [1, 2])
        assert np.max(np.abs(ld.data - lm.data)) < 1e-9


class TestParameterAccounting:
    def test_hierarchical_total_vs_activated_expert_params(self):
        cfg = tiny_cfg(mode="hierarchical", n_groups=2, n_per_group=4, m=2,
                       k_per_group=1)
        model = Model(cfg, seed=16)
        layer = model.decoder_blocks[0].moe
        per_expert = sum(p.data.size for p in layer.experts[0].params())
        total = sum(sum(p.data.size for p in e.params()) for e in layer.experts)
        assert total == 8 * per_expert
        activated = cfg.moe.m * cfg.moe.k_per_group * per_expert
        assert activated == 2 * per_expert

    def test_param_count_positive_and_reported(self):
        model = Model(tiny_cfg(), seed=17)
        count = model.param_count()
        assert count == sum(p.data.size for p in model.params())
        assert count > 0

    def test_configs_sharing_a_moe_config_keep_their_own_widths(self):
        """Each ModelConfig takes its own copy of the MoE config it is given:
        building a second, wider config from it leaves the first model's
        experts at the first model's width."""
        moe = MoELayerConfig(mode="sparse_topk", n_experts=2, k=1)
        narrow = ModelConfig(dim_audio=5, dim_video=5, d=16, h=24, n_enc=1, n_dec=1,
                             vocab=6, topk_blocks=1, moe=moe)
        wide = ModelConfig(dim_audio=5, dim_video=5, d=32, h=64, n_enc=1, n_dec=1,
                           vocab=6, topk_blocks=1, moe=moe)
        for cfg, shape in ((narrow, (16, 24)), (wide, (32, 64))):
            assert (cfg.moe.d, cfg.moe.h) == shape
            for expert in Model(cfg, seed=0).decoder_blocks[0].moe.experts:
                assert expert.W1.data.shape == shape
        assert moe.mode == "sparse_topk" and narrow.moe is not wide.moe

    def test_model_draws_its_encoder_first(self):
        """A Model's encoder parameters are those of an Encoder built from
        a generator of the same seed: the encoder takes the first draws."""
        cfg = tiny_cfg(mode="hierarchical", n_groups=2, n_per_group=2, m=1,
                       k_per_group=1)
        encoder = Encoder(cfg, np.random.default_rng(18))
        model = Model(cfg, seed=18)
        for ep, mp in zip(encoder.encoder_params(), model.encoder_params(), strict=True):
            assert np.array_equal(ep.data, mp.data)
        assert list(model.named_params())[:5] == [
            "audio_proj", "video_proj", "fusion", "token_emb", "head"]


def write_v1_checkpoint(model: Model, path):
    """A checkpoint as the format-v1 writer produced it: decimal float lists."""
    payload = {"format": "avmoe-checkpoint-v1",
               "params": {name: {"shape": list(arr.shape), "values": arr.reshape(-1).tolist()}
                          for name, arr in model.state_dict().items()},
               "buffers": {name: arr.tolist() for name, arr in model.buffers().items()}}
    path.write_text(json.dumps(payload))


def nonzero_centers(model: Model, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    for blk in model.decoder_blocks:
        blk.moe.inter_center = rng.normal(size=model.cfg.d)
    return model


def assert_same_state(a: Model, b: Model):
    for name, arr in a.state_dict().items():
        assert arr.tobytes() == b.state_dict()[name].tobytes(), name
    for name, arr in a.buffers().items():
        assert arr.tobytes() == b.buffers()[name].tobytes(), name


def _edit_payload(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _wrong_shape_buffer(payload):
    name = sorted(payload["buffers"])[0]
    values = np.frombuffer(base64.b64decode(payload["buffers"][name]["f8"]), dtype="<f8")[:-1]
    payload["buffers"][name] = {"shape": [values.size],
                                "f8": base64.b64encode(values.tobytes()).decode()}


def _rename_buffer(payload):
    name = sorted(payload["buffers"])[0]
    payload["buffers"]["dec9.moe_center"] = payload["buffers"].pop(name)


def _drop_buffer(payload):
    payload["buffers"].pop(sorted(payload["buffers"])[0])


# the loader faults: each one must be refused, never loaded
CHECKPOINT_FAULTS = {
    "wrong_shape_buffer": lambda path: _edit_payload(path, _wrong_shape_buffer),
    "unknown_buffer": lambda path: _edit_payload(path, _rename_buffer),
    "missing_buffer": lambda path: _edit_payload(path, _drop_buffer),
    "not_an_object": lambda path: path.write_text(
        json.dumps([json.loads(path.read_text())])),
}


def fault_id(fault: str) -> str:
    """Test id of a fault: its name and v2, the one checkpoint format."""
    return f"{fault}-v2"


class TestCheckpoints:
    def test_round_trip_bitexact(self, tmp_path):
        model = nonzero_centers(Model(tiny_cfg(mode="sparse_topk", n_experts=2, k=1), seed=18), 18)
        path = str(tmp_path / "ckpt.json")
        model.save_checkpoint(path)
        other = Model(model.cfg, seed=99)
        other.load_checkpoint(path)
        assert_same_state(model, other)

    def test_two_saves_give_identical_bytes(self, tmp_path):
        model = nonzero_centers(Model(tiny_cfg(mode="hierarchical"), seed=23), 23)
        model.save_checkpoint(str(tmp_path / "a.json"))
        model.save_checkpoint(str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["format"] == "avmoe-checkpoint-v2"
        assert set(payload["buffers"]) == set(model.buffers())

    def test_v1_checkpoint_is_refused(self, tmp_path):
        model = nonzero_centers(Model(tiny_cfg(mode="hierarchical"), seed=24), 24)
        path = tmp_path / "v1.json"
        write_v1_checkpoint(model, path)
        other = nonzero_centers(Model(model.cfg, seed=98), 98)
        before = nonzero_centers(Model(model.cfg, seed=98), 98)
        with pytest.raises(ValueError, match="avmoe-checkpoint-v1"):
            other.load_checkpoint(str(path))
        assert_same_state(other, before)

    def test_interrupted_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        model = Model(tiny_cfg(), seed=22)
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(str(path))
        before = path.read_bytes()

        def failing_dump(obj, f):
            f.write('{"format": ')
            raise OSError("disk full")
        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError):
            model.save_checkpoint(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        model = Model(tiny_cfg(), seed=19)
        for tag in ("something-else", "avmoe-checkpoint-v1"):
            path.write_text(json.dumps({"format": tag, "params": {}}))
            with pytest.raises(ValueError):
                model.load_checkpoint(str(path))

    @pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS), ids=fault_id)
    def test_faulty_checkpoint_leaves_the_model_unchanged(self, tmp_path, fault):
        model = Model(tiny_cfg(mode="hierarchical"), seed=25)
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(str(path))
        CHECKPOINT_FAULTS[fault](path)
        other = nonzero_centers(Model(model.cfg, seed=97), 97)
        before = nonzero_centers(Model(model.cfg, seed=97), 97)
        with pytest.raises(ValueError):  # ShapeError is a ValueError
            other.load_checkpoint(str(path))
        assert_same_state(other, before)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = Model(tiny_cfg(), seed=20)
        path = str(tmp_path / "ckpt.json")
        model.save_checkpoint(path)
        bigger = Model(tiny_cfg(), seed=21)
        bigger.audio_proj = Tensor.param(np.zeros((9, 8)))
        with pytest.raises((T.ShapeError, KeyError, ValueError)):
            bigger.load_checkpoint(path)


EVAL_CONFIG = {"regime": "supervised_moe", "steps": 1, "batch_size": 2, "seed": 0,
               "model": {"moe": {"mode": "hierarchical", "n_groups": 2,
                                 "n_per_group": 4, "m": 2, "k_per_group": 1}},
               "generator": {"vocab": 16}}


def eval_args(tmp_path, path) -> list:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(EVAL_CONFIG))
    return ["eval", "--checkpoint", str(path), "--config", str(cfg_path), "--pairs", "2"]


def assert_refused(capsys, args):
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "cannot load checkpoint" in captured.err and "Traceback" not in captured.err
    assert "ter[" not in captured.out


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS), ids=fault_id)
def test_avmoe_eval_refuses_a_faulty_checkpoint(tmp_path, capsys, fault):
    path = tmp_path / "checkpoint.json"
    build_model(TrainConfig.from_dict(EVAL_CONFIG)).save_checkpoint(str(path))
    args = eval_args(tmp_path, path)
    assert main(args) == EXIT_OK
    capsys.readouterr()
    CHECKPOINT_FAULTS[fault](path)
    assert_refused(capsys, args)


def test_avmoe_eval_refuses_a_v1_checkpoint(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    write_v1_checkpoint(build_model(TrainConfig.from_dict(EVAL_CONFIG)), path)
    assert_refused(capsys, eval_args(tmp_path, path))


class TestPositions:
    def test_sinusoidal_bounded(self):
        enc = sinusoidal_positions(50, 16)
        assert enc.shape == (50, 16)
        assert np.abs(enc).max() <= 1.0 + 1e-12

    def test_first_row_alternates_zero_one(self):
        enc = sinusoidal_positions(4, 6)
        assert np.allclose(enc[0, 0::2], 0.0)
        assert np.allclose(enc[0, 1::2], 1.0)
