"""Frozen parameters as tape constants.

The training loop, ``_train``, marks the parameters frozen for a step as
constants, so their ops build no tape node and get no gradient; that it
trains as the reference trainer, which clears their gradients instead, is
``test_train_loop.py``'s check. Here: every freeze flag is released after a
divergence, and a router warm-up step records only the nodes the router
weights reach.
"""

import pytest

from avmoe import tensor as T
from avmoe import trainer
from avmoe.metrics import CsvTable
from avmoe.trainer import STEP_COLUMNS, DivergenceError, TrainConfig, _train, build_model
from test_train_loop import MOE, reference_train


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
        _train(model, cfg, CsvTable(STEP_COLUMNS))
    assert exc.value.step == 2
    for p in model.params():
        assert p.requires_grad
        assert p.grad is None


def reaches(nodes, targets) -> list[bool]:
    """Whether each node has a tensor of ``targets`` (by id) among its
    ancestors."""
    memo: dict[int, bool] = {}
    for root in nodes:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            pending = [p for p in node._parents if id(p) not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[id(node)] = any(id(p) in targets or memo[id(p)] for p in node._parents)
            stack.pop()
    return [memo[id(n)] for n in nodes]


def test_warmup_step_records_no_node_for_frozen_ops(monkeypatch):
    """On the README quick-start model, every node a router warm-up step
    records has a router weight among its ancestors, and there are as many
    of them as the reference loop, which backpropagates into everything,
    records with a router-weight ancestor."""
    cfg = TrainConfig.from_dict({
        "regime": "supervised_moe", "steps": 1, "batch_size": 6, "lr": 1e-3,
        "optimizer": "adam", "identical_expert_init": True, "router_warmup_steps": 1,
        "freeze_experts_steps": 1, "inter_lr_scale": 10.0, "c_bias": 1e-2,
        "model": {"moe": {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4,
                          "m": 2, "k_per_group": 1}},
        "generator": {"vocab": 16}})
    nodes, make = [], T._make

    def recorded(data, parents, backward):
        nodes.append(make(data, parents, backward))
        return nodes[-1]
    monkeypatch.setattr(T, "_make", recorded)
    per_run = []
    for loop in (reference_train, _train):
        nodes.clear()
        model = build_model(cfg)
        loop(model, cfg, CsvTable(STEP_COLUMNS))
        routers = set(id(p) for blk in model.decoder_blocks for p in blk.moe.router_params())
        per_run.append((len(nodes), sum(reaches(nodes, routers))))
    (ref_total, ref_routed), (total, routed) = per_run
    assert routed == total, per_run
    assert total == ref_routed < ref_total, per_run
