"""Self-distillation with an exponential-moving-average teacher.

The teacher is a copy of the student's encoder (`model.Encoder`) that
follows the student's by `ema_update`. Targets are [T x d] arrays: the
teacher's features of clean inputs, averaged over the last few encoder
blocks and standardized per frame. The task losses predict those targets
from masked or corrupted student inputs, restricted to the masked or
corrupted frames, each task through its own `DistillHeads` head.

The losses take features and targets; they encode nothing themselves. One
pair's inputs all have the pair's length, so a caller encodes them as
stacks. `teacher_targets` takes every pair of a step with its target modes
and runs them in one no-grad encode of the encoder's stack list form: one
stack of modes per pair, the row-wise layers once over all of their rows
and attention per stack (one-frame pairs run apart, as one stack). The
student's task inputs of a pair (`student_input`) go through one encode of
a 3-D stack, whose slices (`tensor.stack_slice`) feed the task losses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corruption import DROP_AUDIO, DROP_NONE, DROP_VIDEO, CorruptionPlan
from .model import Encoder
from .tensor import Tensor

MODE_AV = "AV"
MODE_A_ONLY = "A_only"
MODE_V_ONLY = "V_only"
MODE_MASKED = "masked"  # student input: the corrupted pair, masked frames zeroed
MODE_KEPT = "kept"      # teacher target: the modality a dropout kept, else AV
# the task losses' steps.csv columns, in cav2vec_total_loss's argument order
LOSS_COLUMNS = ("L_ACP", "L_VCP", "L_MASK", "L_MLM")
# cav2vec_total_loss's weight of each task loss
TASK_WEIGHTS = {"acp": 1.0, "vcp": 1.0, "mask": 1.0, "mlm": 2.0}
_KEPT_MODES = {DROP_NONE: MODE_AV, DROP_AUDIO: MODE_V_ONLY, DROP_VIDEO: MODE_A_ONLY}
ETA_START, ETA_END = 0.99, 0.999  # the EMA rate's linear ramp over the teacher's steps


class VariantError(ValueError):
    """Unknown distillation task."""


@dataclass(frozen=True)
class Task:
    """One row of `TASKS`: how a task reads a pair, and where its loss goes."""

    name: str
    input_mode: str   # MODE_MASKED, or a modality mode of the corrupted pair
    target_mode: str  # MODE_KEPT, or a modality mode of the clean pair
    index_set: str    # "masked" (M^a u M^v), "union" (C^a u C^v), "audio", "video"
    columns: tuple[str, ...]  # steps.csv columns, sharing the loss equally
    loss: str = "corrupted"   # scored by {masked,corrupted}_prediction_loss or mlm_loss


TASKS = {task.name: task for task in (
    Task("AVCP", MODE_AV, MODE_AV, "union", ("L_ACP", "L_VCP")),
    Task("mACP", MODE_AV, MODE_A_ONLY, "video", ("L_ACP",)),
    Task("mVCP", MODE_AV, MODE_V_ONLY, "audio", ("L_VCP",)),
    Task("ACP", MODE_V_ONLY, MODE_A_ONLY, "video", ("L_ACP",)),
    Task("VCP", MODE_A_ONLY, MODE_V_ONLY, "audio", ("L_VCP",)),
    Task("MASK", MODE_MASKED, MODE_KEPT, "masked", ("L_MASK",), loss="masked"),
    Task("MLM", MODE_MASKED, MODE_AV, "masked", ("L_MLM",), loss="mlm"),
)}
VARIANTS = {name: task for name, task in TASKS.items() if task.input_mode != MODE_MASKED}


@dataclass
class TeacherState:
    encoder: Encoder
    total_steps: int = 1
    current_step: int = 0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def make_teacher(student: Encoder, total_steps: int) -> TeacherState:
    """Snapshot the student's encoder as the initial teacher."""
    encoder = Encoder(student.cfg, np.random.default_rng(0))
    for tp, sp in zip(encoder.encoder_params(), student.encoder_params(), strict=True):
        tp.data[:] = sp.data
    return TeacherState(encoder=encoder, total_steps=total_steps)


def eta_schedule(state: TeacherState) -> float:
    """Linear ramp from ETA_START to ETA_END, clamped at the endpoints."""
    frac = state.current_step / state.total_steps
    frac = min(max(frac, 0.0), 1.0)
    return ETA_START + frac * (ETA_END - ETA_START)


def ema_update(teacher: TeacherState, student: Encoder, eta: float) -> TeacherState:
    """teacher <- eta * teacher + (1 - eta) * student, elementwise, over the
    encoder parameters."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta {eta} outside [0, 1]")
    for tp, sp in zip(teacher.encoder.encoder_params(), student.encoder_params(), strict=True):
        if tp.data.shape != sp.data.shape:
            raise T.ShapeError(f"encoder: teacher {tp.data.shape} vs student {sp.data.shape}")
        tp.data[:] = eta * tp.data + (1.0 - eta) * sp.data
    return teacher


def _apply_mode(A: np.ndarray, V: np.ndarray, mode: str, plan: CorruptionPlan | None = None):
    if mode == MODE_AV:
        return A, V
    if mode == MODE_A_ONLY:
        return A, np.zeros_like(V)
    if mode == MODE_V_ONLY:
        return np.zeros_like(A), V
    if mode == MODE_MASKED:  # copies with the plan's masked frames zeroed
        A, V = A.copy(), V.copy()
        A[plan.audio_mask] = 0.0
        V[plan.video_mask] = 0.0
        return A, V
    raise ValueError(f"unknown modality mode {mode!r}")


def _standardize_frames(X: np.ndarray) -> np.ndarray:
    """(X - mean) / sqrt(var + 1e-6) per row (last axis), in place on X, with
    the arithmetic of X.mean and X.var without their Python-level wrappers."""
    n = X.shape[-1]
    X -= np.add.reduce(X, axis=-1, keepdims=True) / n
    X /= np.sqrt(np.add.reduce(X * X, axis=-1, keepdims=True) / n + 1e-6)
    return X


def teacher_targets(teacher: Encoder, pairs: Sequence,
                    topk_blocks: int) -> list[list[np.ndarray]]:
    """Clean teacher features, averaged over the last topk_blocks encoder
    blocks and standardized per frame; the absent modality is zeroed in
    unimodal modes. ``pairs`` holds (A, V, modes) triples; each gets a list
    of one gradient-free [T x d] array per mode in its ``modes``.

    One no-grad encode runs the pairs of two or more frames, each as the
    stack of its modes, through the encoder's stack list form (row-wise
    layers over all rows at once, attention per stack). A one-row product
    takes another BLAS path than a gemm row, so the one-frame pairs run as
    one [N x 1 x D] stack of their own, whose slices are one-row products
    as they are alone. A pair with no modes encodes nothing."""
    if topk_blocks < 1:
        raise ValueError("topk_blocks must be >= 1")
    if topk_blocks > len(teacher.encoder_blocks):
        raise ValueError(f"topk_blocks {topk_blocks} exceeds encoder depth "
                         f"{len(teacher.encoder_blocks)}")
    inputs = {i: [_apply_mode(A, V, m) for m in modes]
              for i, (A, V, modes) in enumerate(pairs) if modes}
    out = [[] for _ in pairs]
    for one_frame in (False, True):
        group = [i for i in inputs if (len(pairs[i][0]) == 1) == one_frame]
        if not group:
            continue
        audio = [np.stack([a for a, _ in inputs[i]]) for i in group]
        video = [np.stack([v for _, v in inputs[i]]) for i in group]
        if one_frame:
            audio, video = np.concatenate(audio), np.concatenate(video)
        with T.no_grad():
            _, per_block = teacher.encode(audio, video)
        # the mean over the top blocks, summed in block order
        blocks = per_block[-topk_blocks:]
        avg = blocks[0].data.copy()
        for b in blocks[1:]:
            avg += b.data
        avg /= topk_blocks
        rows = _standardize_frames(avg).reshape(-1, avg.shape[-1])
        start = 0
        for i in group:
            n, t = len(inputs[i]), len(pairs[i][0])
            out[i] = list(rows[start:start + n * t].reshape(n, t, -1))
            start += n * t
    return out


def _frame_indices(M, n: int) -> list[int]:
    """The distinct frame indices in M, ascending; ValueError when M is
    empty, IndexError when one lies outside [0, n)."""
    idx = sorted(set(int(i) for i in M))
    if not idx:
        raise ValueError("no frames to score")
    if idx[0] < 0 or idx[-1] >= n:
        raise IndexError(f"mask index outside [0, {n})")
    return idx


def masked_prediction_loss(student_out: Tensor, targets: np.ndarray, M) -> Tensor:
    """MSE between student features and targets over the frames in M, which
    must not be empty."""
    idx = _frame_indices(M, student_out.data.shape[0])
    picked = T.index_rows(student_out, idx)
    return T.mse(picked, Tensor(targets[idx]))


def _task(name: str) -> Task:
    if name not in TASKS:
        raise VariantError(f"unknown distillation task {name!r}")
    return TASKS[name]


def corrupted_frames(task: str, plan: CorruptionPlan) -> list[int]:
    """The frames a task's loss runs over: its masked or corrupted index set."""
    sets = {"masked": (plan.audio_mask, plan.video_mask),
            "union": (plan.audio_corrupt, plan.video_corrupt),
            "audio": (plan.audio_corrupt,), "video": (plan.video_corrupt,)}
    return sorted(set().union(*(frames.tolist() for frames in sets[_task(task).index_set])))


def student_input(task: str, A_corr: np.ndarray, V_corr: np.ndarray,
                  plan: CorruptionPlan | None = None):
    """The task's student input (A, V): a modality mode of the corrupted pair,
    or for MODE_MASKED a copy with ``plan``'s masked frames zeroed."""
    return _apply_mode(A_corr, V_corr, _task(task).input_mode, plan)


def teacher_mode(task: str, plan: CorruptionPlan) -> str:
    """The modality mode of the task's teacher target on a pair with ``plan``."""
    mode = _task(task).target_mode
    return _KEPT_MODES[plan.modality_drop] if mode == MODE_KEPT else mode


def corrupted_prediction_loss(features: Tensor, targets: np.ndarray,
                              frames: list[int], head: Tensor) -> Tensor:
    """One corrupted-prediction task: the MSE over ``frames``, a variant's
    corrupted index set (``corrupted_frames``, not empty), between the
    student's ``features`` of the variant's input (``student_input``),
    through the variant's ``head``, and the clean teacher ``targets`` of its
    target mode."""
    return masked_prediction_loss(T.matmul(features, head), targets, frames)


def make_centroids(n_centroids: int, d: int, seed: int = 0) -> np.ndarray:
    """Fixed random orthonormal centroids (rows)."""
    if n_centroids < 2:
        raise ValueError("need at least 2 centroids")
    if n_centroids > d:
        raise ValueError(f"cannot fit {n_centroids} orthonormal rows in R^{d}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, n_centroids)))
    return q.T[:n_centroids]


def nearest_centroid_ids(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared-Euclidean nearest centroid per row, lowest id on ties."""
    d2 = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def mlm_loss(student_features: Tensor, centroids: np.ndarray,
             teacher_features: np.ndarray, M, head: Tensor) -> Tensor:
    """Cross-entropy against the teacher feature's nearest centroid id, over
    the masked frames M only, which must not be empty."""
    if centroids.shape[0] < 2:
        raise ValueError("need at least 2 centroids")
    idx = _frame_indices(M, student_features.data.shape[0])
    target_ids = nearest_centroid_ids(teacher_features[idx], centroids)
    logits = T.matmul(T.index_rows(student_features, idx), head)
    return T.cross_entropy_rows(logits, [int(t) for t in target_ids])


def cav2vec_total_loss(acp: Tensor, vcp: Tensor, mask: Tensor, mlm: Tensor) -> Tensor:
    """The task losses' sum, each weighted by its ``TASK_WEIGHTS`` entry."""
    w = TASK_WEIGHTS
    for name, v in (("acp", acp), ("vcp", vcp), ("mask", mask), ("mlm", mlm)):
        if not np.isfinite(v.data).all():
            raise T.NumericError(f"non-finite {name} loss component")
    return T.add(T.add(T.scale(acp, w["acp"]), T.scale(vcp, w["vcp"])),
                 T.add(T.scale(mask, w["mask"]), T.scale(mlm, w["mlm"])))


@dataclass
class DistillHeads:
    """Single-layer predictor heads, one per task, discarded after training."""

    heads: dict[str, Tensor] = field(default_factory=dict)

    @staticmethod
    def init(d: int, n_centroids: int, seed: int = 0, tasks: Sequence[str] = tuple(TASKS)):
        # every row's head is drawn, in table order, so none depends on the
        # tasks kept; MLM's scores the n_centroids centroid ids
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(d)
        drawn = {name: scale * rng.normal(size=(d, n_centroids if task.loss == "mlm" else d))
                 for name, task in TASKS.items()}
        return DistillHeads({name: Tensor.param(drawn[_task(name).name]) for name in tasks})

    def params(self) -> list[Tensor]:
        return list(self.heads.values())
