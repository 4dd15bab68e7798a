import json

import pytest

from avmoe.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main


NAN = float("nan")
HIER = {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4, "m": 2, "k_per_group": 1}


def _write_config(path, **over):
    cfg = {
        "regime": "supervised_moe", "steps": 3, "batch_size": 2,
        "lr": 1e-3, "optimizer": "adam", "seed": 0,
        "model": {"moe": HIER},
        "generator": {"vocab": 16},
    }
    cfg.update(over)
    path.write_text(json.dumps(cfg))
    return cfg


def test_train_writes_run_and_exits_zero(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    run_dir = tmp_path / "out"
    assert main(["train", str(cfg_path), "--run-dir", str(run_dir)]) == EXIT_OK
    assert (run_dir / "summary.json").exists()
    assert "final" in capsys.readouterr().out


def test_train_malformed_json_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"steps": }')
    assert main(["train", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_train_missing_config_file(tmp_path):
    assert main(["train", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_train_invalid_config_value(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, optimizer="quantum")
    assert main(["train", str(cfg_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("over", [
    {"eval_pairs": 2.5}, {"batch_size": 2.0}, {"steps": True},
    {"n_centroids": 64}, {"audio_mask_span": 0}, {"video_mask_prob": 1.5},
    {"av_snr_choices": []}, {"regime": "combined_pipeline", "uptrain_steps": 0},
    {"model": {"max_len": 6}}, {"model": {"max_len": 8}},
    {"model": {"max_len": 9}, "tokens_max": 9},
    {"regime": "combined_pipeline", "model": {"max_len": 9}, "tokens_max": 9},
    {"av_snr_choices": ["loud"]}, {"av_corrupt_prob": 1.5}, {"av_corrupt_prob": -0.1},
    {"generator": {"vocab": 16, "dim_audio": 20}}, {"generator": {"vocab": 16, "dim_video": 20}},
    {"seed": -1}, {"lr": NAN}, {"lr": float("inf")}, {"c_balance": NAN}, {"c_bias": NAN},
    {"c_z": NAN}, {"task_weights": {"mlm": NAN}}, {"task_weights": {"acp": float("inf")}},
    {"generator": {"vocab": 16, "sigma_audio": NAN}},
    {"generator": {"vocab": 16, "sigma_video": NAN}},
    {"generator": {"vocab": 16, "offset_scale": NAN}},
    {"av_snr_choices": [0.0, NAN]}, {"av_snr_choices": [float("-inf")]},
    {"inter_lr_scale": -1.0}, {"inter_lr_scale": 0.0}, {"inter_lr_scale": NAN},
    {"model": {"moe": {**HIER, "h": 128}}}, {"model": {"d": 16, "moe": {**HIER, "d": 32}}},
    # the nested configs' counts and floats get the top-level type checks
    {"generator": {"vocab": 16, "codebook_seed": -1}},
    {"generator": {"vocab": 16, "codebook_seed": 1.5}},
    {"generator": {"vocab": 16, "frames_per_token": 1.5}},
    {"generator": {"vocab": 16, "sigma_audio": True}},
    {"model": {"d": 32.0, "moe": HIER}}, {"model": {"n_enc": True, "topk_blocks": 1}},
    {"model": {"moe": {"mode": "sparse_topk", "n_experts": 4, "k": 1.5}}},
    {"model": {"moe": {**HIER, "n_per_group": 2.0}}}, {"task_weights": {"acp": True}},
    # a bool setting takes only true or false, and tasks only a list of names
    {"identical_expert_init": "false"}, {"identical_expert_init": 0},
    {"identical_expert_init": 2}, {"identical_expert_init": None},
    {"identical_expert_init": [1]}, {"tasks": "MASK"}, {"tasks": None},
])
def test_train_rejects_bad_counts_and_settings_before_training(tmp_path, capsys, over):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, **over)
    assert main(["train", str(cfg_path), "--run-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert list(over)[-1] in err and "Traceback" not in err


def test_uptraining_alone_may_draw_sequences_longer_than_max_len():
    """Only a supervised phase feeds the training labels to the decoder."""
    from avmoe.trainer import TrainConfig
    cfg = TrainConfig.from_dict({"regime": "cav2vec_uptrain", "tokens_max": 12,
                                 "model": {"max_len": 9}})
    assert cfg.tokens_max + 1 > cfg.model.max_len


def test_train_numeric_abort_exit_code(tmp_path, monkeypatch):
    """A run that aborts leaves no run directory, here the default one."""
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lr=1e300, optimizer="sgd", steps=10,
                  model={"moe": {"mode": "dense_ffn"}})
    monkeypatch.chdir(tmp_path)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", str(cfg_path)]) == EXIT_NUMERIC
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_run_dir_it_cannot_create_before_training(tmp_path, monkeypatch,
                                                                  capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    (tmp_path / "file").write_text("")

    def no_training(*args, **kwargs):
        raise AssertionError("trained although the run directory cannot be made")
    monkeypatch.setattr("avmoe.cli.train", no_training)
    for run_dir in (tmp_path / "file", tmp_path / "file" / "sub"):
        assert main(["train", str(cfg_path), "--run-dir", str(run_dir)]) == EXIT_CONFIG
        assert f"error: cannot create run directory {run_dir}" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == ""


def test_seed_flag_changes_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    main(["train", str(cfg_path), "--run-dir", str(tmp_path / "a"), "--seed", "5"])
    saved = json.loads((tmp_path / "a" / "config.json").read_text())
    assert saved["seed"] == 5


def test_env_seed_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, seed=0)
    monkeypatch.setenv("AVMOE_SEED", "9")
    main(["train", str(cfg_path), "--run-dir", str(tmp_path / "a")])
    saved = json.loads((tmp_path / "a" / "config.json").read_text())
    assert saved["seed"] == 9


def test_explicit_seed_beats_env(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    monkeypatch.setenv("AVMOE_SEED", "9")
    main(["train", str(cfg_path), "--run-dir", str(tmp_path / "a"), "--seed", "4"])
    saved = json.loads((tmp_path / "a" / "config.json").read_text())
    assert saved["seed"] == 4


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["train", str(cfg_path), "--run-dir", str(out), "--seed", "-1"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_negative_env_seed_is_config_error(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    monkeypatch.setenv("AVMOE_SEED", "-1")
    out = tmp_path / "out"
    assert main(["train", str(cfg_path), "--run-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_bad_env_seed_is_config_error(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    monkeypatch.setenv("AVMOE_SEED", "not-a-number")
    assert main(["train", str(cfg_path)]) == EXIT_CONFIG


def test_eval_roundtrip_with_snr_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    run_dir = tmp_path / "out"
    main(["train", str(cfg_path), "--run-dir", str(run_dir)])
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
               "--preset", "eval-fullnoise", "--snr-sweep", "--pairs", "4"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "ter[eval-fullnoise]" in out
    assert "snr,mean_qV,std_qV" in out


def test_eval_reproduces_the_runs_own_ter_and_group_load(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, seed=1, eval_pairs=6)
    run_dir = tmp_path / "out"
    main(["train", str(cfg_path), "--run-dir", str(run_dir)])
    capsys.readouterr()
    summary = json.loads((run_dir / "summary.json").read_text())
    for preset, ter in summary["ter"].items():
        args = ["eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--preset", preset]
        assert main(args + ["--snr-sweep"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"ter[{preset}]: {ter:.4f}"
        assert out[1:] == (run_dir / "group_load_vs_snr.csv").read_text().splitlines()


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_eval_rejects_pairs_below_one(tmp_path, capsys, pairs):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, steps=1)
    run_dir = tmp_path / "out"
    main(["train", str(cfg_path), "--run-dir", str(run_dir)])
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
               "--pairs", pairs])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "--pairs" in captured.err
    assert "ter[" not in captured.out


def test_eval_refuses_a_retired_setting_at_another_value(tmp_path, capsys):
    """A run's config.json may carry a retired setting at the value every
    run used, and no other."""
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, steps=1, eval_pairs=2)
    run_dir = tmp_path / "out"
    assert main(["train", str(cfg_path), "--run-dir", str(run_dir)]) == EXIT_OK
    saved = json.loads((run_dir / "config.json").read_text())
    args = ["eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--config", str(cfg_path)]
    cfg_path.write_text(json.dumps({**saved, "av_corrupt_prob": 0.5, "c_z": 0.001}))
    assert main(args) == EXIT_OK
    cfg_path.write_text(json.dumps({**saved, "av_corrupt_prob": 0.0}))
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "av_corrupt_prob" in err and "Traceback" not in err


def test_eval_missing_checkpoint(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    rc = main(["eval", "--checkpoint", str(tmp_path / "none.json"),
               "--config", str(cfg_path)])
    assert rc == EXIT_CONFIG


def test_gradcheck_passes_and_prints_errors(capsys):
    rc = main(["gradcheck", "--module", "losses", "--seeds", "2"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "losses.router_z_through_router" in out
    assert "ok:" in out


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_gradcheck_rejects_seeds_below_one(capsys, seeds):
    rc = main(["gradcheck", "--module", "losses", "--seeds", seeds])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "--seeds" in captured.err
    assert "ok:" not in captured.out


def test_gradcheck_unknown_module_is_usage_error():
    assert main(["gradcheck", "--module", "nonsense"]) == EXIT_CONFIG


def test_report_prints_summary_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    run_dir = tmp_path / "out"
    main(["train", str(cfg_path), "--run-dir", str(run_dir)])
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    for key in ("loss_curves", "expert_load", "group_load_vs_snr",
                "flops", "ter"):
        assert key in summary


def test_report_missing_run_dir(tmp_path):
    assert main(["report", "--run-dir", str(tmp_path / "ghost")]) == EXIT_CONFIG


@pytest.mark.parametrize("summary, message", [
    (5, "holds a JSON int, not an object"),
    ({"loss_curves": {}, "expert_load": {"file": 7}, "flops": {}, "ter": {}},
     "file reference 7 is not a string"),
])
def test_report_malformed_summary_is_config_error(tmp_path, capsys, summary, message):
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert main(["report", "--run-dir", str(tmp_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gradcheck", "--turbo"]) == EXIT_CONFIG


def test_gradcheck_run_unknown_module_raises_config_error():
    from avmoe.gradcheck import run
    from avmoe.trainer import ConfigError
    with pytest.raises(ConfigError):
        run(module="nonsense", seeds=1)


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    import avmoe.trainer as trainer

    def broken_step(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(trainer, "_supervised_step", broken_step)
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    # an internal bug propagates with its traceback instead of exiting 2
    with pytest.raises(ValueError, match="broadcast"):
        main(["train", str(cfg_path), "--run-dir", str(tmp_path / "out")])


def test_eval_unknown_preset_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    rc = main(["eval", "--checkpoint", str(tmp_path / "none.json"),
               "--config", str(cfg_path), "--preset", "nonsense"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("moe", [
    {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4, "m": 3},
    {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4, "k_per_group": 5},
    {"mode": "sparse_topk", "n_experts": 4, "k": 5},
    {"mode": "hard", "n_groups": 3, "n_per_group": 4, "k": 2},
])
def test_infeasible_routing_shape_is_config_error(tmp_path, moe):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, model={"moe": moe})
    assert main(["train", str(cfg_path), "--run-dir", str(tmp_path / "out")]) == EXIT_CONFIG


def test_odd_k_hard_routing_of_audiovisual_tokens_is_config_error(tmp_path, capsys):
    """Every run decodes audio-visual tokens in its eval probe, so odd k is
    refused before training starts."""
    cfg_path = tmp_path / "cfg.json"
    for regime in ("supervised_moe", "cav2vec_uptrain"):
        _write_config(cfg_path, regime=regime, modality_dropout=0.0,
                      model={"moe": {"mode": "hard", "n_per_group": 4, "k": 3}})
        assert main(["train", str(cfg_path), "--run-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "k=3" in err and "Traceback" not in err


def test_unknown_activation_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, model={"moe": {"mode": "sparse_topk", "n_experts": 4, "k": 2,
                                           "activation": "swish"}})
    assert main(["train", str(cfg_path), "--run-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "swish" in err and "Traceback" not in err


def test_config_json_with_gelu_activation_still_loads(tmp_path, capsys):
    """config.json files written while the activation was a field carry
    "gelu"; they load, and the field is gone from the loaded config."""
    cfg_path = tmp_path / "cfg.json"
    moe = {"mode": "sparse_topk", "n_experts": 4, "k": 2}
    _write_config(cfg_path, model={"moe": {**moe, "activation": "gelu"}})
    assert main(["train", str(cfg_path), "--run-dir", str(tmp_path / "out")]) == EXIT_OK
    saved = json.loads((tmp_path / "out" / "config.json").read_text())
    assert "activation" not in saved["model"]["moe"]
    _write_config(cfg_path, model={"moe": {**moe, "activation": "tanh"}})
    assert main(["train", str(cfg_path), "--run-dir", str(tmp_path / "out2")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "tanh" in err and "Traceback" not in err
