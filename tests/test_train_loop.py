"""The one training loop against the reference trainer.

``reference_train`` has one loop for the supervised regime, one for
uptraining, and a dispatch that runs combined_pipeline as an uptraining run
of ``uptrain_steps`` steps followed by a supervised run numbered after it.
Its supervised loop backpropagates into every parameter and clears the
gradients of the ones frozen for the step before the optimizer step, which
leaves them dead for it. The training loop, ``_train``, instead marks frozen
parameters as constants, so their ops build no tape node and get no
gradient. Every regime must give the same step rows, final losses,
expert-load tail, parameter bytes and inter-router centers bit for bit, and
release every freeze flag.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe.distill import (
    MODE_MASKED, TASKS as TASK_TABLE, DistillHeads, ema_update, eta_schedule, make_centroids,
    make_teacher,
)
from avmoe.metrics import CsvTable
from avmoe.trainer import (
    REGIMES, STEP_COLUMNS, DivergenceError, TrainConfig, _sample_batch, _supervised_step,
    _train, _uptrain_step, build_model, make_optimizer, seed_streams,
)

MOE = {
    "dense_ffn": {},
    "sparse_topk": {"n_experts": 4, "k": 2},
    "hard": {"n_groups": 2, "n_per_group": 2, "k": 2},
    "hierarchical": {"n_groups": 2, "n_per_group": 2, "m": 2, "k_per_group": 1},
}
TASKS = sorted(name for name, task in TASK_TABLE.items()
               if task.input_mode != MODE_MASKED) + ["MASK", "MLM"]


def _train_supervised(model, cfg, table, step_offset=0):
    streams = seed_streams(cfg.seed)
    data_rng = np.random.default_rng(streams["data"])
    corr_rng = np.random.default_rng(streams["corruption"])
    params = model.params()
    blocks = model.decoder_blocks
    routers = set(id(p) for blk in blocks for p in blk.moe.router_params())
    freezes = [(cfg.router_warmup_steps, set(id(p) for p in params) - routers),
               (cfg.freeze_encoder_steps, set(id(p) for p in model.encoder_params())),
               (cfg.freeze_experts_steps,
                set(id(p) for blk in blocks for e in blk.moe.experts for p in e.params()))]
    lr_scales = {id(blk.moe.inter_router.weight): cfg.inter_lr_scale
                 for blk in blocks if blk.moe.inter_router is not None}
    opt = make_optimizer(cfg.optimizer, cfg.lr, params, lr_scales)
    last_finite = {}
    tail_start = cfg.steps - max(1, cfg.steps // 10)
    tail_f = {}
    tail_n = 0
    for step in range(cfg.steps):
        batch = _sample_batch(cfg, data_rng, corr_rng)
        try:
            scalars, total, stats = _supervised_step(model, cfg, batch)
        except T.NumericError:
            raise DivergenceError(step_offset + step, last_finite)
        if not np.isfinite(float(total.data)):
            raise DivergenceError(step_offset + step, last_finite)
        if step >= tail_start and stats:
            for li, s in stats.items():
                for gi, f in enumerate(s.expert_f):
                    tail_f[li, gi] = tail_f.get((li, gi), 0.0) + f
            tail_n += 1
        total.backward()
        frozen = set().union(*(ids for until, ids in freezes if step < until))
        for p in params:
            if id(p) in frozen:
                p.grad = None
        opt()
        last_finite = scalars
        table.append([step_offset + step, scalars["L_CE"], scalars["L_B"],
                      scalars["L_S"], scalars["L_Z"], 0.0, 0.0, 0.0, 0.0,
                      scalars["total"]])
    tail = {key: f / tail_n for key, f in tail_f.items()} if tail_n else {}
    return last_finite, tail


def _train_uptrain(model, cfg, table):
    streams = seed_streams(cfg.seed)
    data_rng = np.random.default_rng(streams["data"])
    corr_rng = np.random.default_rng(streams["corruption"])
    teacher = make_teacher(model, total_steps=cfg.steps)
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids,
                              seed=seed_streams(cfg.seed)["model_init"] ^ 0x5F)
    centroids = make_centroids(cfg.n_centroids, cfg.model.d,
                               seed=cfg.generator.codebook_seed)
    params = model.params() + heads.params()
    opt = make_optimizer(cfg.optimizer, cfg.lr, params)
    last_finite = {}
    for step in range(cfg.steps):
        try:
            scalars, total = _uptrain_step(model, teacher, heads, centroids,
                                           cfg, data_rng, corr_rng)
        except T.NumericError:
            raise DivergenceError(step, last_finite)
        if not np.isfinite(float(total.data)):
            raise DivergenceError(step, last_finite)
        total.backward()
        opt()
        teacher.current_step = step
        ema_update(teacher, model, eta_schedule(teacher))
        last_finite = scalars
        table.append([step, 0.0, 0.0, 0.0, 0.0,
                      scalars["L_ACP"], scalars["L_VCP"], scalars["L_MASK"],
                      scalars["L_MLM"], scalars["total"]])
    return last_finite


def reference_train(model, cfg, table):
    load_tail = {}
    if cfg.regime == "supervised_moe":
        final, load_tail = _train_supervised(model, cfg, table)
    elif cfg.regime == "cav2vec_uptrain":
        final = _train_uptrain(model, cfg, table)
    else:
        _train_uptrain(model, replace(cfg, steps=cfg.uptrain_steps), table)
        final, load_tail = _train_supervised(model, cfg, table,
                                             step_offset=cfg.uptrain_steps)
    return final, load_tail


counts = st.integers(0, 4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(regime=st.sampled_from(REGIMES), mode=st.sampled_from(sorted(MOE)),
       optimizer=st.sampled_from(["sgd", "adam"]), steps=st.integers(1, 4),
       uptrain_steps=st.integers(1, 3), warmup=counts, freeze_encoder=counts,
       freeze_experts=counts, tokens_min=st.integers(1, 2),
       tasks=st.lists(st.sampled_from(TASKS), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2 ** 16))
def test_one_loop_matches_the_two_loops(regime, mode, optimizer, steps, uptrain_steps,
                                        warmup, freeze_encoder, freeze_experts, tokens_min,
                                        tasks, seed):
    cfg = TrainConfig.from_dict({
        "regime": regime, "steps": steps, "uptrain_steps": uptrain_steps,
        "batch_size": 2, "tokens_min": tokens_min, "tokens_max": 3, "optimizer": optimizer,
        "lr": 1e-2 if optimizer == "adam" else 0.1, "seed": seed, "tasks": tasks,
        "inter_lr_scale": 3.0, "identical_expert_init": True,
        "router_warmup_steps": warmup, "freeze_encoder_steps": freeze_encoder,
        "freeze_experts_steps": freeze_experts, "n_centroids": 4,
        "model": {"dim_audio": 6, "dim_video": 6, "d": 8, "h": 8, "n_enc": 1, "n_dec": 2,
                  "vocab": 6, "topk_blocks": 1, "moe": {"mode": mode, **MOE[mode]}},
        "generator": {"vocab": 6, "frames_per_token": 2, "dim_audio": 6, "dim_video": 6},
    })
    want_model, want = build_model(cfg), CsvTable(STEP_COLUMNS)
    want_final, want_tail = reference_train(want_model, cfg, want)
    model, table = build_model(cfg), CsvTable(STEP_COLUMNS)
    final, tail = _train(model, cfg, table)

    assert table.rows == want.rows
    assert final == want_final
    assert tail.keys() == want_tail.keys()
    for key, f in tail.items():
        assert f.tobytes() == want_tail[key].tobytes(), key
    for name, p in model.named_params().items():
        assert p.data.tobytes() == want_model.named_params()[name].data.tobytes(), name
    for blk, want_blk in zip(model.decoder_blocks, want_model.decoder_blocks):
        assert blk.moe.inter_center.tobytes() == want_blk.moe.inter_center.tobytes()
    for p in model.params():
        assert p.requires_grad
        assert p.grad is None
