"""The distillation task table and the uptraining step that loops over it.

``branchy_uptrain_step`` is a copy of the step before the table: MASK, MLM
and the corrupted-prediction variants each on their own path. The table's
one loop must draw the same randomness and give the same scalars and every
gradient bit for bit, for any set and order of tasks.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe.corruption import (
    AUDIO_MASK_PROB, AUDIO_MASK_SPAN, DROP_AUDIO, DROP_NONE, DROP_VIDEO, VIDEO_MASK_PROB,
    VIDEO_MASK_SPAN, CorruptionPlan, allocate_masks, apply_modality_dropout, corrupt_pair,
    sample_plan_preset,
)
from avmoe.distill import (
    LOSS_COLUMNS, MODE_A_ONLY, MODE_AV, MODE_V_ONLY, TASKS, VARIANTS, DistillHeads,
    corrupted_frames, make_centroids, make_teacher, mlm_loss, student_input, teacher_mode,
    teacher_targets,
)
from avmoe.streams import generate_pair
from avmoe.tensor import Tensor
from avmoe.trainer import (
    AV_SNR_CHOICES, CORRUPTION_PRESET, STEP_COLUMNS, TrainConfig, _uptrain_step,
    build_model, seed_streams,
)
from chains import chain_cav2vec_total, chain_head_mse, chain_mean

OLD_VARIANTS = {  # name: (input mode, target mode, index set)
    "AVCP": (MODE_AV, MODE_AV, "union"), "mACP": (MODE_AV, MODE_A_ONLY, "video"),
    "mVCP": (MODE_AV, MODE_V_ONLY, "audio"), "ACP": (MODE_V_ONLY, MODE_A_ONLY, "video"),
    "VCP": (MODE_A_ONLY, MODE_V_ONLY, "audio"),
}


def _apply_mode(A, V, mode):
    return {MODE_AV: (A, V), MODE_A_ONLY: (A, np.zeros_like(V)),
            MODE_V_ONLY: (np.zeros_like(A), V)}[mode]


def branchy_uptrain_step(model, teacher, heads, centroids, cfg, data_rng, corr_rng):
    """The uptraining step as it was before the task table."""
    topk = model.cfg.topk_blocks
    variants = [name for name in cfg.tasks if name in OLD_VARIANTS]
    zero = Tensor(np.zeros(()))
    acps, vcps, masks, mlms = [], [], [], []
    for _ in range(cfg.batch_size):
        length = int(data_rng.integers(cfg.tokens_min, cfg.tokens_max + 1))
        pair = generate_pair(cfg.generator, length, int(data_rng.integers(2 ** 31)))
        A, V = pair.audio, pair.video
        n_frames = A.shape[0]
        plan = sample_plan_preset(CORRUPTION_PRESET, n_frames,
                                  int(corr_rng.integers(2 ** 31)),
                                  drop_prob=cfg.modality_dropout)
        plan = allocate_masks(plan, AUDIO_MASK_PROB, AUDIO_MASK_SPAN,
                              VIDEO_MASK_PROB, VIDEO_MASK_SPAN,
                              int(corr_rng.integers(2 ** 31)))
        snr = float(corr_rng.choice(np.asarray(AV_SNR_CHOICES)))
        A_corr, V_corr = corrupt_pair(A, V, plan, int(corr_rng.integers(2 ** 31)),
                                      audio_snr_db=snr)
        A_corr, V_corr = apply_modality_dropout(A_corr, V_corr, plan)
        A_in, V_in = A_corr.copy(), V_corr.copy()
        if plan.audio_mask.size:
            A_in[plan.audio_mask] = 0.0
        if plan.video_mask.size:
            V_in[plan.video_mask] = 0.0
        mask_idx = sorted(set(plan.audio_mask.tolist()) | set(plan.video_mask.tolist()))
        mask_mode = {DROP_AUDIO: MODE_V_ONLY, DROP_VIDEO: MODE_A_ONLY}.get(
            plan.modality_drop, MODE_AV)

        audio, video = set(plan.audio_corrupt.tolist()), set(plan.video_corrupt.tolist())
        frames = {name: sorted({"union": audio | video, "audio": audio,
                                "video": video}[OLD_VARIANTS[name][2]])
                  for name in variants}
        inputs, modes = {}, []
        if mask_idx:
            for name, mode in (("MASK", mask_mode), ("MLM", MODE_AV)):
                if name in cfg.tasks:
                    inputs["masked"] = (A_in, V_in)
                    modes.append(mode)
        for name in variants:
            if frames[name]:
                input_mode, target_mode, _ = OLD_VARIANTS[name]
                inputs.setdefault(input_mode, _apply_mode(A_corr, V_corr, input_mode))
                modes.append(target_mode)
        targets, rows = {}, {}
        if inputs:
            modes = list(dict.fromkeys(modes))
            (found,) = teacher_targets(teacher.encoder, [(A, V, modes)], topk)
            targets = dict(zip(modes, found))
            feats, _ = model.encode(np.stack([a for a, _ in inputs.values()]),
                                    np.stack([v for _, v in inputs.values()]))
            rows = {key: T.stack_slice(feats, i) for i, key in enumerate(inputs)}

        if "MASK" in cfg.tasks:
            masks.append(chain_head_mse(rows["masked"], heads.heads["MASK"],
                                        targets[mask_mode], mask_idx) if mask_idx else zero)
        for name in variants:
            input_mode, target_mode, _ = OLD_VARIANTS[name]
            loss = zero
            if frames[name]:
                loss = chain_head_mse(rows[input_mode], heads.heads[name],
                                      targets[target_mode], frames[name])
            if target_mode == MODE_A_ONLY:
                acps.append(loss)
            elif target_mode == MODE_V_ONLY:
                vcps.append(loss)
            else:
                acps.append(T.scale(loss, 0.5))
                vcps.append(T.scale(loss, 0.5))
        if "MLM" in cfg.tasks:
            mlms.append(mlm_loss(rows["masked"], centroids, targets[MODE_AV],
                                 mask_idx, heads.heads["MLM"]) if mask_idx else zero)
    acp, vcp, mask, mlm = (chain_mean(ts) for ts in (acps, vcps, masks, mlms))
    total = chain_cav2vec_total(acp, vcp, mask, mlm)
    scalars = {"L_ACP": float(acp.data), "L_VCP": float(vcp.data),
               "L_MASK": float(mask.data), "L_MLM": float(mlm.data),
               "total": float(total.data)}
    return scalars, total


def _setup(tasks, seed, batch_size, dropout, n_enc):
    cfg = TrainConfig.from_dict({
        "regime": "cav2vec_uptrain", "steps": 1, "batch_size": batch_size, "seed": seed,
        "tokens_min": 1, "tokens_max": 4, "tasks": list(tasks),
        "modality_dropout": dropout, "n_centroids": 4,
        "model": {"dim_audio": 5, "dim_video": 4, "d": 8, "h": 12, "n_enc": n_enc,
                  "n_dec": 1, "vocab": 4, "topk_blocks": n_enc,
                  "moe": {"mode": "dense_ffn"}},
        "generator": {"vocab": 4, "dim_audio": 5, "dim_video": 4},
    })
    model = build_model(cfg)
    teacher = make_teacher(model, total_steps=1)
    for p in teacher.encoder.encoder_params():  # a teacher distinct from the student
        p.data += 0.01
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids, seed=seed)
    centroids = make_centroids(cfg.n_centroids, cfg.model.d, seed=1)
    return cfg, model, teacher, heads, centroids


def _run(step, cfg, model, teacher, heads, centroids):
    streams = seed_streams(cfg.seed)
    data_rng = np.random.default_rng(streams["data"])
    corr_rng = np.random.default_rng(streams["corruption"])
    scalars, total = step(model, teacher, heads, centroids, cfg, data_rng, corr_rng)
    total.backward()
    params = model.params() + heads.params()
    grads = [p.grad for p in params]
    for p in params:
        p.zero_grad()
    return scalars, grads, (data_rng.bit_generator.state, corr_rng.bit_generator.state)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(tasks=st.lists(st.sampled_from(sorted(TASKS)), min_size=1, max_size=7, unique=True),
       seed=st.integers(0, 2 ** 16), batch_size=st.integers(1, 4),
       dropout=st.sampled_from([0.0, 0.25, 0.5]), n_enc=st.integers(1, 3))
def test_table_step_is_bitwise_the_branchy_step(tasks, seed, batch_size, dropout, n_enc):
    setup = _setup(tasks, seed, batch_size, dropout, n_enc)
    got, got_grads, got_rng = _run(_uptrain_step, *setup)
    want, want_grads, want_rng = _run(branchy_uptrain_step, *setup)
    assert got == want
    assert got_rng == want_rng
    for g, w in zip(got_grads, want_grads):
        assert (g is None) == (w is None)
        assert g is None or (g.tobytes() == w.tobytes() and g.strides == w.strides)


def test_table_rows():
    assert list(TASKS) == ["AVCP", "mACP", "mVCP", "ACP", "VCP", "MASK", "MLM"]
    assert sorted(VARIANTS) == sorted(OLD_VARIANTS)
    for name, (input_mode, target_mode, index_set) in OLD_VARIANTS.items():
        task = VARIANTS[name]
        assert (task.input_mode, task.target_mode, task.index_set) == (
            input_mode, target_mode, index_set)
    assert STEP_COLUMNS[5:9] == list(LOSS_COLUMNS)
    assert {c for task in TASKS.values() for c in task.columns} == set(LOSS_COLUMNS)
    # the heads, and so their draws, are the ones allocated before the table
    heads = DistillHeads.init(8, 4)
    assert list(heads.heads) == ["AVCP", "mACP", "mVCP", "ACP", "VCP", "MASK", "MLM"]
    assert heads.heads["MLM"].data.shape == (8, 4)


def test_masked_rows_read_the_plan():
    rng = np.random.default_rng(0)
    A, V = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    for drop, mode in ((DROP_NONE, MODE_AV), (DROP_AUDIO, MODE_V_ONLY),
                       (DROP_VIDEO, MODE_A_ONLY)):
        plan = CorruptionPlan(seq_len=6, audio_mask=np.array([1, 2]),
                              video_mask=np.array([2, 4]), audio_corrupt=np.array([0]),
                              modality_drop=drop)
        assert teacher_mode("MASK", plan) == mode
        assert teacher_mode("MLM", plan) == MODE_AV
        assert corrupted_frames("MASK", plan) == corrupted_frames("MLM", plan) == [1, 2, 4]
        A_in, V_in = student_input("MLM", A, V, plan)
        assert not A_in[[1, 2]].any() and not V_in[[2, 4]].any()
        assert np.array_equal(A_in[[0, 3, 4, 5]], A[[0, 3, 4, 5]])
        assert np.array_equal(V_in[[0, 1, 3, 5]], V[[0, 1, 3, 5]])
        assert A_in is not A and V_in is not V
