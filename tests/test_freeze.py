"""Frozen parameters as tape constants against the loop they replaced.

The reference loop backpropagates into every parameter, leaves the ones
frozen for the step out of the optimizer call, and then clears every
gradient. ``_train_supervised`` instead marks frozen parameters as
constants, so their ops build no tape node and get no gradient. The
trained parameters and the steps table must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe import trainer
from avmoe.metrics import CsvTable
from avmoe.trainer import (
    STEP_COLUMNS, DivergenceError, TrainConfig, _sample_batch, _supervised_step,
    _train_supervised, build_model, make_optimizer, seed_streams,
)

MOE = {
    "dense_ffn": {},
    "sparse_topk": {"n_experts": 4, "k": 2},
    "hard": {"n_groups": 2, "n_per_group": 2, "k": 2},
    "hierarchical": {"n_groups": 2, "n_per_group": 2, "m": 2, "k_per_group": 1},
}


def make_cfg(mode, optimizer, warmup, freeze_encoder, freeze_experts, seed):
    return TrainConfig.from_dict({
        "regime": "supervised_moe", "steps": 4, "batch_size": 2, "tokens_min": 2,
        "tokens_max": 3, "optimizer": optimizer, "lr": 1e-2 if optimizer == "adam" else 0.1,
        "seed": seed, "inter_lr_scale": 3.0, "identical_expert_init": True,
        "router_warmup_steps": warmup, "freeze_encoder_steps": freeze_encoder,
        "freeze_experts_steps": freeze_experts, "n_centroids": 4,
        "model": {"dim_audio": 6, "dim_video": 6, "d": 8, "h": 8, "n_enc": 1, "n_dec": 2,
                  "vocab": 6, "topk_blocks": 1, "moe": {"mode": mode, **MOE[mode]}},
        "generator": {"vocab": 6, "frames_per_token": 2, "dim_audio": 6, "dim_video": 6},
    })


def reference_train(model, cfg, table):
    """Every gradient computed, the frozen ones filtered out of the
    optimizer call, then every gradient cleared."""
    streams = seed_streams(cfg.seed)
    data_rng = np.random.default_rng(streams["data"])
    corr_rng = np.random.default_rng(streams["corruption"])
    params = model.params()
    encoder = set(id(p) for p in model.encoder_params())
    experts = set(id(p) for blk in model.decoder_blocks
                  for e in blk.moe.experts for p in e.params())
    lr_scales = {id(blk.moe.inter_router.weight): cfg.inter_lr_scale
                 for blk in model.decoder_blocks if blk.moe.inter_router is not None}
    routers = set(id(p) for blk in model.decoder_blocks for p in blk.moe.router_params())
    opt = make_optimizer(cfg.optimizer, cfg.lr, lr_scales)
    for step in range(cfg.steps):
        batch = _sample_batch(cfg, data_rng, corr_rng)
        scalars, total, _ = _supervised_step(model, cfg, batch)
        total.backward()
        skip = set()
        if step < cfg.router_warmup_steps:
            skip |= set(id(p) for p in params) - routers
        if step < cfg.freeze_encoder_steps:
            skip |= encoder
        if step < cfg.freeze_experts_steps:
            skip |= experts
        opt([p for p in params if id(p) not in skip])
        for p in params:
            p.grad = None
        table.append([step, scalars["L_CE"], scalars["L_B"], scalars["L_S"],
                      scalars["L_Z"], 0.0, 0.0, 0.0, 0.0, scalars["total"]])


def assert_released(model):
    for p in model.params():
        assert p.requires_grad
        assert p.grad is None


counts = st.integers(0, 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mode=st.sampled_from(sorted(MOE)), optimizer=st.sampled_from(["sgd", "adam"]),
       warmup=counts, freeze_encoder=counts, freeze_experts=counts,
       seed=st.integers(0, 2 ** 16))
def test_constant_freeze_matches_filtered_optimizer(mode, optimizer, warmup, freeze_encoder,
                                                    freeze_experts, seed):
    cfg = make_cfg(mode, optimizer, warmup, freeze_encoder, freeze_experts, seed)
    want_model, want = build_model(cfg), CsvTable(STEP_COLUMNS)
    reference_train(want_model, cfg, want)
    model, table = build_model(cfg), CsvTable(STEP_COLUMNS)
    _train_supervised(model, cfg, table)
    assert table.rows == want.rows
    for name, p in model.named_params().items():
        assert p.data.tobytes() == want_model.named_params()[name].data.tobytes(), name
    assert_released(model)


@pytest.mark.parametrize("mode", sorted(MOE))
def test_flags_are_released_after_divergence(mode, monkeypatch):
    cfg = make_cfg(mode, "adam", 4, 3, 4, seed=1)
    model = build_model(cfg)
    real, calls = trainer._supervised_step, []

    def diverging(*args):
        calls.append(None)
        if len(calls) == 3:
            assert any(not p.requires_grad for p in model.params())
            raise T.NumericError("injected")
        return real(*args)
    monkeypatch.setattr(trainer, "_supervised_step", diverging)
    with pytest.raises(DivergenceError) as exc:
        _train_supervised(model, cfg, CsvTable(STEP_COLUMNS))
    assert exc.value.step == 2
    assert_released(model)


def test_warmup_step_records_no_node_for_frozen_ops(monkeypatch):
    """On the README quick-start model, a router warm-up step records at most
    60% of the tape nodes of the loop that backpropagates into everything."""
    cfg = TrainConfig.from_dict({
        "regime": "supervised_moe", "steps": 1, "batch_size": 6, "lr": 1e-3,
        "optimizer": "adam", "identical_expert_init": True, "router_warmup_steps": 1,
        "freeze_experts_steps": 1, "inter_lr_scale": 10.0, "c_bias": 1e-2,
        "model": {"moe": {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4,
                          "m": 2, "k_per_group": 1}},
        "generator": {"vocab": 16}})
    nodes, make = [], T._make

    def counted(data, parents, backward):
        nodes.append(None)
        return make(data, parents, backward)
    monkeypatch.setattr(T, "_make", counted)
    per_run = []
    for loop in (reference_train, _train_supervised):
        nodes.clear()
        loop(build_model(cfg), cfg, CsvTable(STEP_COLUMNS))
        per_run.append(len(nodes))
    assert per_run[1] <= 0.6 * per_run[0], per_run
