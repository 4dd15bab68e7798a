"""The distillation task table, ``distill.TASKS``.

Its rows must be the seven tasks that ``chains.UPTRAIN_TASKS`` spells out,
in their order, and its per-plan helpers must read a pair's plan as the
oracle does. The uptraining step that loops over the table is checked
whole, bit for bit, against ``chains.chain_uptrain_step`` in
``test_fused_ops.py``.
"""

import numpy as np

from avmoe.corruption import DROP_AUDIO, DROP_NONE, DROP_VIDEO, CorruptionPlan
from avmoe.distill import (
    LOSS_COLUMNS, MODE_A_ONLY, MODE_AV, MODE_V_ONLY, TASKS, DistillHeads, corrupted_frames,
    student_input, teacher_mode,
)
from avmoe.trainer import STEP_COLUMNS
from chains import UPTRAIN_TASKS


def test_table_rows():
    assert list(TASKS) == list(UPTRAIN_TASKS)
    for name, task in TASKS.items():
        assert (task.input_mode, task.target_mode, task.index_set, task.columns) == (
            UPTRAIN_TASKS[name])
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
