"""Training regimes, evaluation metrics, and run artifacts.

One training loop, ``_train``, runs each regime as a list of phases:

- supervised_moe: token cross-entropy plus the router losses (balance, bias,
  z), with modality dropout and optional audio corruption on AV sequences so
  the routers see both unimodal and noisy inputs. A parameter frozen for a
  step is a constant on that step's tape: no tape node, no gradient.
- cav2vec_uptrain: self-distillation of the encoder, through one head per
  configured row of ``distill.TASKS`` (masked and corrupted prediction
  tasks), against an EMA teacher: a copy of the student's encoder.
- combined_pipeline: an uptraining phase of ``uptrain_steps`` and then a
  supervised phase that finetunes the same model.

Each phase starts the data and corruption streams afresh from the config
seed and builds its optimizer over the parameters it trains. ``SGD`` and
``Adam`` pack those parameters, in order, into one flat float64 vector and
make each ``p.data`` a view of its slice; backward lands each parameter's
gradient in its slice of a second vector of the same layout. A step
updates each run of consecutive parameters that got a gradient and share
a step size in place, and a parameter without one keeps its data and
optimizer state. The supervised phase lists its inter routers last, so the
parameters of one step size are packed together.

Every run writes steps.csv, expert_load.csv, summary.json, and (for
hierarchical models) group_load_vs_snr.csv into its run directory, plus a
checkpoint. All randomness flows from four named streams derived from the
config seed: model-init, routing-init, data, corruption.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .corruption import (
    AUDIO_MASK_PROB, AUDIO_MASK_SPAN, VIDEO_MASK_PROB, VIDEO_MASK_SPAN, allocate_masks,
    apply_modality_dropout, corrupt_pair, mix_at_snr, sample_plan_preset,
)
from .distill import (
    LOSS_COLUMNS, MODE_MASKED, TASK_WEIGHTS, TASKS, DistillHeads, cav2vec_total_loss,
    corrupted_frames, corrupted_prediction_loss, ema_update, eta_schedule,
    make_centroids, make_teacher, masked_prediction_loss, mlm_loss, student_input,
    teacher_mode, teacher_targets,
)
from .metrics import CsvTable, atomic_open, write_table
from .model import Model, ModelConfig, sequence_mean_weights
from .moe_layer import MoELayerConfig, flops_report
from .moe_losses import (
    DEFAULT_C_B, DEFAULT_C_S, DEFAULT_C_Z, ROUTER_COLUMNS, load_balancing_from_stats,
    load_biasing_loss, router_z_loss, total_aux_loss, UnsupportedConfigError,
)
from .routing import (
    AUDIO_GROUP, MOD_AUDIO, MOD_AV, MOD_VIDEO, VIDEO_GROUP, dispatch_stats,
)
from .streams import GeneratorConfig, generate_pair, token_error_rate
from .tensor import Tensor

SCHEMA_VERSION = 1
REGIMES = ("supervised_moe", "cav2vec_uptrain", "combined_pipeline")
EVAL_SEED_OFFSET = 101  # a run's post-training evaluations use seed + this
EVAL_TOKENS = (3, 5)    # label lengths of the evaluation pairs, inclusive
EVAL_DECODE_SLACK = 4   # eval_ter decodes up to this many tokens past the labels
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# supervised batches: the probability that an AV sequence gets its audio
# fully corrupted, and the SNRs in dB drawn for it (the lowest one also
# swamps half of the dropped-audio sequences); the group-load table sweeps them
AV_CORRUPT_PROB = 0.5
AV_SNR_CHOICES = (-10.0, -5.0, 0.0, 5.0, 10.0)
CORRUPTION_PRESET = "train-default"  # the plans of the uptraining pairs
EVAL_SNR_DB = -10.0  # audio SNR of eval_ter's and repr_distance_report's corruption

# settings that are no longer fields, each with the one value every run
# used: from_dict drops such a key when it holds that value, so every
# config.json written so far still loads, and refuses any other value
RETIRED = {
    "router_tune_steps": 0,
    "av_corrupt_prob": AV_CORRUPT_PROB,
    "av_snr_choices": list(AV_SNR_CHOICES),
    "c_z": DEFAULT_C_Z,
    "task_weights": TASK_WEIGHTS,
    "corruption_preset": CORRUPTION_PRESET,
    "audio_mask_prob": AUDIO_MASK_PROB,
    "audio_mask_span": AUDIO_MASK_SPAN,
    "video_mask_prob": VIDEO_MASK_PROB,
    "video_mask_span": VIDEO_MASK_SPAN,
    "model.moe.activation": "gelu",
}

STEP_COLUMNS = ["step", *ROUTER_COLUMNS, *LOSS_COLUMNS, "total"]


class ConfigError(ValueError):
    """Invalid or unparseable training configuration."""


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _check_field_types(cfg, prefix: str = ""):
    """ConfigError unless each int field of the dataclass ``cfg`` holds an
    integer, each float field a finite number, a bool being neither, and
    each bool field a bool."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.type == "int" and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ConfigError(f"{prefix}{f.name} must be an integer, got {v!r}")
        if f.type == "float" and not _finite(v):
            raise ConfigError(f"{prefix}{f.name} must be a finite number, got {v!r}")
        if f.type == "bool" and not isinstance(v, bool):
            raise ConfigError(f"{prefix}{f.name} must be true or false, got {v!r}")


def _drop_retired(d: dict, prefix: str = "") -> dict:
    """A copy of the config level ``d`` (at the dotted ``prefix``) without
    its ``RETIRED`` keys; ConfigError naming a key whose value is not the
    retired one."""
    d = dict(d)
    for key in [key for key in d if f"{prefix}{key}" in RETIRED]:
        name, value = f"{prefix}{key}", d.pop(key)
        if value != RETIRED[name]:
            raise ConfigError(f"{name} is no longer a setting: a config may give it "
                              f"only as {RETIRED[name]!r}, got {value!r}")
    return d


class DivergenceError(RuntimeError):
    """Non-finite loss; carries the step index and last finite losses."""

    def __init__(self, step: int, last_losses: dict):
        super().__init__(f"non-finite loss at step {step}; "
                         f"last finite losses: {last_losses}")
        self.step = step
        self.last_losses = last_losses


@dataclass
class TrainConfig:
    regime: str = "supervised_moe"
    steps: int = 200
    batch_size: int = 4
    lr: float = 0.1
    optimizer: str = "sgd"
    seed: int = 0
    tokens_min: int = 3
    tokens_max: int = 5
    modality_dropout: float = 0.25
    c_balance: float = DEFAULT_C_B
    c_bias: float = DEFAULT_C_S
    # uptraining regime
    tasks: tuple = ("MASK", "ACP", "VCP")
    n_centroids: int = 8
    uptrain_steps: int = 100  # combined_pipeline: uptraining portion
    freeze_encoder_steps: int = 0
    # keep expert FFNs frozen early so router specialization is driven by the
    # bias loss rather than transient expert-quality differences
    freeze_experts_steps: int = 0
    # start all experts of a layer from the same weights; symmetry is broken
    # by routing once they unfreeze
    identical_expert_init: bool = False
    # first N steps update only the router weights, giving the bias loss a
    # stationary representation to specialize against before the task loss
    # starts moving everything else
    router_warmup_steps: int = 0
    # step-size multiplier for the inter-modal router weights; the bias loss
    # gradient is c_S-scaled and needs a faster router to act within budget
    inter_lr_scale: float = 1.0
    eval_pairs: int = 16
    model: ModelConfig = field(default_factory=ModelConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    def __post_init__(self):
        for cfg, prefix in ((self, ""), (self.model, "model."), (self.model.moe, "model.moe."),
                            (self.generator, "generator.")):
            _check_field_types(cfg, prefix)
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be >= 1")
        if self.regime == "combined_pipeline" and self.uptrain_steps < 1:
            raise ConfigError("combined_pipeline needs uptrain_steps >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.generator.codebook_seed < 0:
            raise ConfigError(
                f"generator.codebook_seed must be >= 0, got {self.generator.codebook_seed}")
        if min(self.lr, self.inter_lr_scale) <= 0:
            raise ConfigError("lr and inter_lr_scale must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.eval_pairs < 1:
            raise ConfigError("eval_pairs must be >= 1")
        if min(self.c_balance, self.c_bias) < 0:
            raise ConfigError("loss coefficients must be nonnegative")
        if not 1 <= self.tokens_min <= self.tokens_max:
            raise ConfigError("need 1 <= tokens_min <= tokens_max")
        if not 0.0 <= self.modality_dropout <= 0.5:
            raise ConfigError("modality_dropout must lie in [0, 0.5]")
        longest = EVAL_TOKENS[1] + EVAL_DECODE_SLACK
        if self.model.max_len < longest:
            raise ConfigError(f"model.max_len {self.model.max_len} is below {longest}, the "
                              f"longest transcript eval_ter decodes")
        if self.regime != "cav2vec_uptrain" and self.tokens_max + 1 > self.model.max_len:
            # a supervised step feeds the decoder BOS and up to tokens_max labels
            raise ConfigError(f"tokens_max + 1 = {self.tokens_max + 1} exceeds "
                              f"model.max_len {self.model.max_len}")
        moe = self.model.moe
        if moe.mode == "hard" and moe.k % 2:
            # every run decodes audio-visual tokens in eval_ter, and hard
            # routing splits their k experts evenly between the two groups
            raise ConfigError(
                f"hard routing of audio-visual tokens needs an even k, got k={moe.k}")
        if not 2 <= self.n_centroids <= self.model.d:
            raise ConfigError(f"n_centroids must lie in [2, model.d={self.model.d}]")
        if (not isinstance(self.tasks, (list, tuple))
                or not all(isinstance(t, str) for t in self.tasks)):
            raise ConfigError(f"tasks must be a list of task names, got {self.tasks!r}")
        self.tasks = tuple(self.tasks)
        for t in self.tasks:
            if t not in TASKS:
                raise ConfigError(f"unknown distillation task {t!r}")
        if len(set(self.tasks)) < len(self.tasks):
            raise ConfigError(f"repeated distillation task in {list(self.tasks)}")
        if not self.tasks and self.regime != "supervised_moe":
            raise ConfigError(f"{self.regime} needs at least one distillation task")
        for key in ("vocab", "dim_audio", "dim_video"):
            if getattr(self.generator, key) != getattr(self.model, key):
                raise ConfigError(f"generator {key} {getattr(self.generator, key)} "
                                  f"!= model {key} {getattr(self.model, key)}")

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError("config root must be a JSON object")
        d = _drop_retired(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        try:
            if "model" in d:
                md = _drop_retired(d["model"], "model.")
                if "moe" in md:
                    moe = _drop_retired(md["moe"], "model.moe.")
                    for key in ("d", "h"):  # the model sets them; a config.json repeats them
                        width = md.get(key, getattr(ModelConfig, key))
                        if moe.get(key, width) != width:
                            raise ConfigError(f"model.moe.{key} {moe[key]} != model.{key} "
                                              f"{width}; the MoE layers take the model's")
                    md["moe"] = MoELayerConfig(**moe)
                d["model"] = ModelConfig(**md)
            if "generator" in d:
                try:
                    d["generator"] = GeneratorConfig(**d["generator"])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"generator: {exc}") from exc
            return TrainConfig(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


@dataclass
class MetricsReport:
    final_losses: dict
    steps_table: CsvTable
    expert_load: CsvTable
    group_load: CsvTable | None
    ter: dict
    flops: dict
    group_affinity: dict
    # the trained model, for in-process callers
    model: Model | None = None
    # (layer, group) -> mean within-group top-1 frequency vector over the
    # last 10% of supervised steps; empty for pure uptraining runs
    expert_load_tail: dict = field(default_factory=dict)


# -- seed streams -------------------------------------------------------------

def seed_streams(seed: int) -> dict:
    """Independent named integer seeds derived from one config seed."""
    ss = np.random.SeedSequence(seed)
    names = ("model_init", "routing_init", "data", "corruption")
    children = ss.spawn(len(names))
    return {name: int(child.generate_state(1)[0])
            for name, child in zip(names, children)}


def build_model(cfg: TrainConfig) -> Model:
    streams = seed_streams(cfg.seed)
    model = Model(cfg.model, seed=streams["model_init"])
    rng = np.random.default_rng(streams["routing_init"])
    for blk in model.decoder_blocks:
        blk.moe.init_routers(rng)
        if cfg.identical_expert_init and len(blk.moe.experts) > 1:
            proto = blk.moe.experts[0]
            for e in blk.moe.experts[1:]:
                for dst, src in zip(e.params(), proto.params()):
                    dst.data[:] = src.data
    return model


# -- optimizers ---------------------------------------------------------------

class _PackedOptimizer:
    """The parameter and gradient layout SGD and Adam share.

    The constructor copies the parameters, in list order, into one
    contiguous float64 vector ``flat`` and makes each ``p.data`` a reshaped
    view of its slice, so an update of a slice of ``flat`` is an in-place
    update of the parameter. Whatever writes a parameter afterwards must
    write into ``p.data`` too; a step raises if a live parameter's ``data``
    was rebound. It binds each parameter to its slice of the gradient
    vector ``grad`` (``p.grad_out``), so backward copies a parameter's
    first gradient contribution straight into the layout a step reads. A
    step works in that vector, so a gradient read before it is kept only
    as a copy.

    A step works on runs: maximal runs of consecutive live parameters
    (``grad`` not None) that share one ``lr_scales`` factor. ``lr_scales``
    maps id(param) to a step-size multiplier; the parameters are packed in
    the order given, so a caller lists those of one factor together
    (``_supervised_phase`` puts the inter routers last). A dead parameter
    (an unselected expert, a frozen parameter) ends a run and keeps its data
    and optimizer state untouched."""

    def __init__(self, params: list[Tensor], lr: float, lr_scales: dict | None = None):
        lr_scales = lr_scales or {}
        self.lr = lr
        self.flat = np.empty(sum(p.data.size for p in params))
        # the live gradients, in the same layout, so a run's arithmetic reads
        # one slice and may overwrite it
        self.grad = np.empty_like(self.flat)
        self._slots = []
        start = 0
        for p in params:
            end = start + p.data.size
            view = self.flat[start:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p.grad_out = self.grad[start:end].reshape(view.shape)
            self._slots.append((p, view, p.grad_out, start, end, lr_scales.get(id(p), 1.0)))
            start = end

    def _live_runs(self) -> list[list]:
        """Stage and clear every live gradient; return the runs as
        [start, end, lr scale]. A gradient that backward left in its slice
        is staged already; any other (set by hand, or the sum of several
        contributions) is copied there."""
        runs: list[list] = []
        for p, view, grad, start, end, scale in self._slots:
            if p.grad is None:
                continue
            if p.data is not view:
                raise RuntimeError("a parameter's data was rebound after the optimizer "
                                   "packed it; write into p.data[...] instead")
            if p.grad is not grad:
                grad[...] = p.grad
            p.grad = None
            if runs and runs[-1][1] == start and runs[-1][2] == scale:
                runs[-1][1] = end
            else:
                runs.append([start, end, scale])
        return runs


class SGD(_PackedOptimizer):
    """Plain gradient descent on packed parameters (see ``_PackedOptimizer``)."""

    def step(self):
        for start, end, scale in self._live_runs():
            g = self.grad[start:end]
            g *= self.lr * scale
            self.flat[start:end] -= g


class Adam(_PackedOptimizer):
    """Standard Adam with bias correction, ``ADAM_BETA1``, ``ADAM_BETA2``
    and ``ADAM_EPS``, on packed parameters (see ``_PackedOptimizer``).

    ``m`` and ``v`` are flat vectors in the parameter layout, so the state
    of a parameter is its slice. A run is updated in place through one
    scratch vector and the staged gradient; a dead run keeps its ``m`` and
    ``v``. ``lr_scales`` scales the update, not the gradient, since Adam is
    invariant to gradient scaling."""

    def __init__(self, params: list[Tensor], lr: float, lr_scales: dict | None = None):
        super().__init__(params, lr, lr_scales)
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = np.empty_like(self.flat)

    def step(self):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for start, end, scale in self._live_runs():
            g, m, v = self.grad[start:end], self.m[start:end], self.v[start:end]
            u = self._scratch[start:end]
            m *= b1
            m += np.multiply(1 - b1, g, out=u)
            v *= b2
            g *= g
            g *= 1 - b2
            v += g
            m_hat = np.divide(m, c1, out=u)
            v_hat = np.divide(v, c2, out=g)
            denom = np.sqrt(v_hat, out=g)
            denom += ADAM_EPS
            m_hat *= self.lr * scale
            m_hat /= denom
            self.flat[start:end] -= m_hat


def make_optimizer(name: str, lr: float, params: list[Tensor],
                   lr_scales: dict | None = None):
    """Packs ``params`` into the optimizer (each ``p.data`` becomes a view
    of its optimizer's flat vector) and returns its ``step()``, which updates
    the live ones."""
    if name == "sgd":
        return SGD(params, lr, lr_scales).step
    if name == "adam":
        return Adam(params, lr, lr_scales=lr_scales).step
    raise ConfigError(f"unknown optimizer {name!r}; expected 'sgd' or 'adam'")


# -- data sampling ------------------------------------------------------------

def _corrupt_all_audio(audio: np.ndarray, video: np.ndarray, rng, snr_db: float):
    """Mix noise into every audio frame at ``snr_db``, seeded by one draw
    from ``rng``; the video is returned as is. The noise and the draw are
    ``corrupt_pair``'s under a plan that corrupts all audio and no video."""
    seed = int(rng.integers(2 ** 31))
    if audio.shape[0] != video.shape[0]:
        raise ValueError(f"the pair has {audio.shape[0]} audio and "
                         f"{video.shape[0]} video frames")
    noise = np.random.default_rng(seed).normal(size=audio.shape)
    return mix_at_snr(audio, noise, snr_db, np.arange(audio.shape[0])), video


def _sample_batch(cfg: TrainConfig, data_rng, corr_rng):
    """One supervised batch: list of (audio, video, labels, modality tag)."""
    batch = []
    p = cfg.modality_dropout
    for _ in range(cfg.batch_size):
        length = int(data_rng.integers(cfg.tokens_min, cfg.tokens_max + 1))
        pair = generate_pair(cfg.generator, length, int(data_rng.integers(2 ** 31)))
        audio, video = pair.audio, pair.video
        u = data_rng.uniform()
        if u < p:      # drop audio: tokens are video-only
            # half of the dropped-audio tokens carry noise-swamped audio
            # rather than silence, so the routers learn that an unusable
            # audio stream (not just an absent one) calls for the visual
            # group; this is what lets group load shift with noise level
            if corr_rng.uniform() < 0.5:
                audio, video = _corrupt_all_audio(audio, video, corr_rng,
                                                  min(AV_SNR_CHOICES))
            else:
                audio = np.zeros_like(audio)
            tag = MOD_VIDEO
        elif u < 2 * p:  # drop video: tokens are audio-only
            video = np.zeros_like(video)
            tag = MOD_AUDIO
        else:
            tag = MOD_AV
            if corr_rng.uniform() < AV_CORRUPT_PROB:
                snr = float(corr_rng.choice(np.asarray(AV_SNR_CHOICES)))
                audio, video = _corrupt_all_audio(audio, video, corr_rng, snr)
        batch.append((audio, video, pair.labels, tag))
    return batch


def _step_scalars(columns, means, total: Tensor) -> dict[str, float]:
    """A step's ``steps.csv`` scalars: each loss column's mean, then the
    total; a non-finite one raises ``NumericError``, naming the first."""
    scalars = {**{column: float(m) for column, m in zip(columns, means)},
               "total": float(total.data)}
    for name, value in scalars.items():
        if not math.isfinite(value):
            raise T.NumericError(f"non-finite {name} loss component")
    return scalars


# -- supervised regime --------------------------------------------------------

def _supervised_step(model: Model, cfg: TrainConfig, batch):
    """Forward one batch, packed into one sequence; returns (scalars, total
    loss Tensor, the DispatchStats of each MoE layer keyed by layer index).

    CE and the z-loss weigh every sequence equally, as the mean of
    per-sequence means."""
    audios, videos, labels, tags = (list(col) for col in zip(*batch))
    feats, _ = model.encode(audios, videos)
    _, ce, aux = model.decode_train(feats, labels, modality=tags,
                                    feature_lengths=[a.shape[0] for a in audios])
    stats = {li: layer_aux["stats"] for li, layer_aux in enumerate(aux)
             if layer_aux["stats"] is not None}
    first = next(iter(stats.values()), None)
    balance = [load_balancing_from_stats(s) for s in stats.values()]
    bias = ([load_biasing_loss(s) for s in stats.values()]
            if first is not None and first.n_groups == 2 and first.g else [])
    row_weights = sequence_mean_weights([len(seq) + 1 for seq in labels])
    logit_rows = [rows for layer_aux in aux for rows in layer_aux["logit_rows"]]
    z = [router_z_loss(rows, row_weights) for rows in logit_rows]
    total, means = total_aux_loss(ce, balance, bias, z, c_balance=cfg.c_balance,
                                  c_bias=cfg.c_bias)
    return _step_scalars(ROUTER_COLUMNS, means, total), total, stats


def _supervised_phase(model: Model, cfg: TrainConfig, steps: int) -> tuple:
    """Finetuning: every model parameter, under the config's freezes, with
    the inter routers' step scaled by ``inter_lr_scale``. The inter routers
    come last, so the optimizer packs each step size's parameters together."""
    blocks = model.decoder_blocks
    inter = [blk.moe.inter_router.weight for blk in blocks if blk.moe.inter_router is not None]
    lr_scales = {id(p): cfg.inter_lr_scale for p in inter}
    params = [p for p in model.params() if id(p) not in lr_scales] + inter
    routers = set(id(p) for blk in blocks for p in blk.moe.router_params())
    freezes = ((cfg.router_warmup_steps, set(id(p) for p in params) - routers),
               (cfg.freeze_encoder_steps, set(id(p) for p in model.encoder_params())),
               (cfg.freeze_experts_steps,
                set(id(p) for blk in blocks for e in blk.moe.experts for p in e.params())))

    def take_step(data_rng, corr_rng):
        return _supervised_step(model, cfg, _sample_batch(cfg, data_rng, corr_rng))
    return params, take_step, freezes, lr_scales, None


# -- uptraining regime --------------------------------------------------------

def _draw_uptrain_pair(cfg: TrainConfig, tasks: list, data_rng, corr_rng):
    """Draw one uptraining pair and its corruption plan; returns the clean
    frames (A, V), each task's frames to score, the distinct student inputs
    of the tasks with frames to score and each such task's teacher mode."""
    length = int(data_rng.integers(cfg.tokens_min, cfg.tokens_max + 1))
    pair = generate_pair(cfg.generator, length, int(data_rng.integers(2 ** 31)))
    A, V = pair.audio, pair.video
    plan = sample_plan_preset(CORRUPTION_PRESET, A.shape[0],
                              int(corr_rng.integers(2 ** 31)),
                              drop_prob=cfg.modality_dropout)
    plan = allocate_masks(plan, AUDIO_MASK_PROB, AUDIO_MASK_SPAN,
                          VIDEO_MASK_PROB, VIDEO_MASK_SPAN,
                          int(corr_rng.integers(2 ** 31)))
    snr = float(corr_rng.choice(np.asarray(AV_SNR_CHOICES)))
    A_corr, V_corr = corrupt_pair(A, V, plan, int(corr_rng.integers(2 ** 31)),
                                  audio_snr_db=snr)
    A_corr, V_corr = apply_modality_dropout(A_corr, V_corr, plan)

    frames = {task.name: corrupted_frames(task.name, plan) for task in tasks}
    inputs, modes = {}, {}
    for task in tasks:
        if frames[task.name]:
            inputs.setdefault(task.input_mode, student_input(task.name, A_corr, V_corr, plan))
            modes[task.name] = teacher_mode(task.name, plan)
    return A, V, frames, inputs, modes


def _uptrain_step(model: Model, teacher, heads: DistillHeads,
                  centroids: np.ndarray, cfg: TrainConfig, data_rng, corr_rng):
    """One uptraining step over the rows of ``distill.TASKS`` in
    ``cfg.tasks``. Every pair is drawn first (the teacher draws nothing, so
    the draws keep their order); one no-grad ``teacher_targets`` call
    encodes the distinct target modes of every pair; then each pair, in
    order, makes one student encode of its distinct inputs and adds its
    task losses. A task with no frames to score adds 0."""
    topk = model.cfg.topk_blocks
    # the masked input, when scored, leads the student stack: a weight
    # gradient sums the stack's rows in order, so the order sets its rounding
    tasks = sorted((TASKS[name] for name in cfg.tasks),
                   key=lambda task: task.input_mode != MODE_MASKED)
    zero = Tensor(np.zeros(()))
    # (loss, share) terms per column, as cav2vec_total_loss takes them
    losses = {column: [] for column in LOSS_COLUMNS}
    pairs = [_draw_uptrain_pair(cfg, tasks, data_rng, corr_rng)
             for _ in range(cfg.batch_size)]
    wanted = [(A, V, list(dict.fromkeys(modes.values()))) for A, V, _, _, modes in pairs]
    for (*_, frames, inputs, modes), (*_, distinct), found in zip(
            pairs, wanted, teacher_targets(teacher.encoder, wanted, topk)):
        if inputs:
            targets = dict(zip(distinct, found))
            feats, _ = model.encode(np.stack([a for a, _ in inputs.values()]),
                                    np.stack([v for _, v in inputs.values()]))
            slot = {key: i for i, key in enumerate(inputs)}

        for task in tasks:
            idx, loss = frames[task.name], zero
            if idx:
                i, target = slot[task.input_mode], targets[modes[task.name]]
                head = heads.heads[task.name]
                if task.loss == "mlm":
                    loss = mlm_loss(T.stack_slice(feats, i), centroids, target, idx, head)
                elif task.loss == "masked":
                    loss = masked_prediction_loss(feats, i, target, idx, head)
                else:
                    loss = corrupted_prediction_loss(feats, i, target, idx, head)
            share = 1 / len(task.columns)  # AVCP's loss adds a half to each half
            for column in task.columns:
                losses[column].append((loss, share))
    total, means = cav2vec_total_loss(*losses.values())
    return _step_scalars(LOSS_COLUMNS, means, total), total


def _uptrain_phase(model: Model, cfg: TrainConfig, steps: int) -> tuple:
    """Uptraining: the encoder and one head per configured task, against an
    EMA teacher snapshotted now from the student's encoder."""
    teacher = make_teacher(model, total_steps=steps)
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids, tasks=cfg.tasks,
                              seed=seed_streams(cfg.seed)["model_init"] ^ 0x5F)
    centroids = make_centroids(cfg.n_centroids, cfg.model.d,
                               seed=cfg.generator.codebook_seed)

    def take_step(data_rng, corr_rng):
        return *_uptrain_step(model, teacher, heads, centroids, cfg, data_rng, corr_rng), {}

    def follow_student(step: int):
        teacher.current_step = step
        ema_update(teacher, model, eta_schedule(teacher))
    return model.encoder_params() + heads.params(), take_step, (), None, follow_student


# -- the training loop --------------------------------------------------------

def _train(model: Model, cfg: TrainConfig, table: CsvTable) -> tuple[dict, dict]:
    """Train ``model`` through the phases of ``cfg.regime``, one ``table``
    row per step, numbered (as is a DivergenceError's step) by the rows
    before it; returns the last finite scalars and the expert-load tail."""
    phases = {"supervised_moe": [(_supervised_phase, cfg.steps)],
              "cav2vec_uptrain": [(_uptrain_phase, cfg.steps)],
              "combined_pipeline": [(_uptrain_phase, cfg.uptrain_steps),
                                    (_supervised_phase, cfg.steps)]}[cfg.regime]
    last_finite: dict = {}
    # within-group top-1 frequencies over the last 10% of a phase's steps,
    # keyed (layer, group); only supervised steps report them
    tail_f: dict = {}
    tail_n = 0
    for make_phase, steps in phases:
        # the phase's parameters; take_step(data_rng, corr_rng) -> (scalars,
        # loss, stats by layer); freezes (N, ids frozen for N steps); lr_scales
        params, take_step, freezes, lr_scales, after_step = make_phase(model, cfg, steps)
        streams = seed_streams(cfg.seed)
        data_rng = np.random.default_rng(streams["data"])
        corr_rng = np.random.default_rng(streams["corruption"])
        opt = make_optimizer(cfg.optimizer, cfg.lr, params, lr_scales)
        tail_start = steps - max(1, steps // 10)
        try:
            for step in range(steps):
                frozen = set().union(*(ids for until, ids in freezes if step < until))
                for p in params:
                    p.requires_grad = id(p) not in frozen
                try:
                    scalars, total, stats = take_step(data_rng, corr_rng)
                except T.NumericError as exc:
                    raise DivergenceError(len(table), last_finite) from exc
                if step >= tail_start and stats:
                    for li, s in stats.items():
                        for gi, f in enumerate(s.expert_f):
                            tail_f[li, gi] = tail_f.get((li, gi), 0.0) + f
                    tail_n += 1
                total.backward()
                opt()
                if after_step is not None:
                    after_step(step)
                last_finite = scalars
                table.append([len(table)] + [scalars.get(c, 0.0) for c in STEP_COLUMNS[1:]])
        finally:
            for p in params:
                p.requires_grad = True
    tail = {key: f / tail_n for key, f in tail_f.items()} if tail_n else {}
    return last_finite, tail


# -- evaluation ---------------------------------------------------------------

def _eval_pairs(cfg_gen: GeneratorConfig, n: int, seed: int):
    if n < 1:
        raise ValueError(f"pairs must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(EVAL_TOKENS[0], EVAL_TOKENS[1] + 1))
        out.append(generate_pair(cfg_gen, length, int(rng.integers(2 ** 31))))
    return out


def eval_ter(model: Model, gen_cfg: GeneratorConfig, pairs: int, preset: str,
             seed: int = 0) -> float:
    """Mean token error rate of greedy decoding under a corruption preset,
    its audio noise at ``EVAL_SNR_DB``.

    Every pair is corrupted first, then all are encoded packed in one
    no-grad pass and decoded together in lockstep, each up to
    ``EVAL_DECODE_SLACK`` tokens past its label length."""
    eval_pairs = _eval_pairs(gen_cfg, pairs, seed + 1)
    rng = np.random.default_rng(seed)
    audios, videos = [], []
    for pair in eval_pairs:
        plan = sample_plan_preset(preset, pair.num_frames,
                                  int(rng.integers(2 ** 31)), drop_prob=0.0)
        audio, video = corrupt_pair(pair.audio, pair.video, plan,
                                    int(rng.integers(2 ** 31)), audio_snr_db=EVAL_SNR_DB)
        audios.append(audio)
        videos.append(video)
    with T.no_grad():
        feats, _ = model.encode(audios, videos)
    bounds = [len(p.labels) + EVAL_DECODE_SLACK for p in eval_pairs]
    hyps = model.decode_greedy(feats, bounds, feature_lengths=[a.shape[0] for a in audios])
    return sum((token_error_rate(hyp, p.labels) for hyp, p in zip(hyps, eval_pairs)),
               0.0) / pairs


def _collect_routings(model: Model, audios, videos, labels, tags) -> list:
    """The Routing of every decoder layer (None in dense layers) on one
    teacher-forced pass over all the given sequences, packed."""
    with T.no_grad():
        feats, _ = model.encode(audios, videos)
        _, _, aux = model.decode_train(feats, labels, modality=tags,
                                       feature_lengths=[a.shape[0] for a in audios])
    return [layer_aux["routing"] for layer_aux in aux]


def _is_hierarchical(model: Model) -> bool:
    return any(b.moe.cfg.mode == "hierarchical" for b in model.decoder_blocks)


def eval_group_load_vs_snr(model: Model, gen_cfg: GeneratorConfig,
                           snr_list, pairs: int, seed: int = 0) -> CsvTable:
    """Mean inter-router visual-group weight on AV tokens per audio SNR."""
    if not _is_hierarchical(model):
        raise UnsupportedConfigError("group load curve needs a hierarchical model")
    table = CsvTable(["snr", "mean_qV", "std_qV"])
    eval_pairs = _eval_pairs(gen_cfg, pairs, seed)
    for snr in snr_list:
        rng = np.random.default_rng(seed + 7)
        audios, videos = zip(*[_corrupt_all_audio(p.audio, p.video, rng, float(snr))
                               for p in eval_pairs])
        routings = _collect_routings(model, list(audios), list(videos),
                                     [p.labels for p in eval_pairs], MOD_AV)
        arr = np.concatenate([r.group_probs.data[:, VIDEO_GROUP] for r in routings
                              if r is not None and r.group_probs is not None])
        table.append([float(snr), float(arr.mean()), float(arr.std())])
    return table


def group_affinity(model: Model, gen_cfg: GeneratorConfig, pairs: int,
                   seed: int = 0) -> dict:
    """Mean inter-router weight of the matching group on unimodal tokens."""
    if not _is_hierarchical(model):
        raise UnsupportedConfigError("group affinity needs a hierarchical model")
    eval_pairs = _eval_pairs(gen_cfg, pairs, seed)
    # every pair twice: audio only, then video only
    audios = ([p.audio for p in eval_pairs]
              + [np.zeros_like(p.audio) for p in eval_pairs])
    videos = ([np.zeros_like(p.video) for p in eval_pairs]
              + [p.video for p in eval_pairs])
    labels = [p.labels for p in eval_pairs] * 2
    tags = [MOD_AUDIO] * pairs + [MOD_VIDEO] * pairs
    routings = [r for r in _collect_routings(model, audios, videos, labels, tags)
                if r is not None]
    out = {}
    for key, tag, gid in (("audio_group_on_audio_tokens", MOD_AUDIO, AUDIO_GROUP),
                          ("video_group_on_video_tokens", MOD_VIDEO, VIDEO_GROUP)):
        rows = np.asarray(routings[0].modalities) == tag
        out[key] = float(np.mean(np.concatenate(
            [r.group_probs.data[rows, gid] for r in routings])))
    return out


def expert_load_table(model: Model, gen_cfg: GeneratorConfig, pairs: int,
                      seed: int = 0) -> CsvTable:
    """Raw and q-weighted per-expert top-1 load histograms per layer/group."""
    table = CsvTable(["layer", "group", "expert", "raw_freq", "weighted_freq"])
    eval_pairs = _eval_pairs(gen_cfg, pairs, seed)
    routings = _collect_routings(model, [p.audio for p in eval_pairs],
                                 [p.video for p in eval_pairs],
                                 [p.labels for p in eval_pairs], MOD_AV)
    for li, r in enumerate(routings):
        if r is None:
            continue
        raw_f = dispatch_stats(r).expert_f
        for gi, (n_exp, raw) in enumerate(zip(r.group_sizes, raw_f)):
            top = r.expert_probs[gi].data.argmax(axis=1)
            q = r.group_probs.data[:, gi] if r.group_probs is not None else np.ones(top.size)
            weighted = np.bincount(top, weights=q, minlength=n_exp)
            if weighted.sum() > 0:
                weighted /= weighted.sum()
            for e in range(n_exp):
                table.append([li, gi, e, float(raw[e]), float(weighted[e])])
    return table


def repr_distance_report(model_before: Model, model_after: Model,
                         gen_cfg: GeneratorConfig, pairs: int, preset: str,
                         seed: int = 0) -> dict:
    """Mean L2 distance between frame-normalized clean and corrupted
    features (audio noise at ``EVAL_SNR_DB``), for both models, plus the
    relative change."""
    def distance(model: Model) -> float:
        rng = np.random.default_rng(seed)
        acc = 0.0
        for pair in _eval_pairs(gen_cfg, pairs, seed + 13):
            plan = sample_plan_preset(preset, pair.num_frames,
                                      int(rng.integers(2 ** 31)), drop_prob=0.0)
            audio, video = corrupt_pair(pair.audio, pair.video, plan,
                                        int(rng.integers(2 ** 31)),
                                        audio_snr_db=EVAL_SNR_DB)
            with T.no_grad():
                clean, _ = model.encode(pair.audio, pair.video)
                corr, _ = model.encode(audio, video)
            acc += float(np.mean(np.linalg.norm(
                _unit_rows(clean.data) - _unit_rows(corr.data), axis=1)))
        return acc / pairs

    d_before = distance(model_before)
    d_after = distance(model_after)
    rel = 0.0 if d_before == 0.0 else (d_after - d_before) / d_before
    return {"d_before": d_before, "d_after": d_after, "relative_change": rel}


def _unit_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(norms, 1e-12)


# -- entry point --------------------------------------------------------------

def train(cfg: TrainConfig, run_dir: str | None = None) -> MetricsReport:
    """Run a regime end to end and emit the report artifacts."""
    model = build_model(cfg)
    table = CsvTable(STEP_COLUMNS)
    final, load_tail = _train(model, cfg, table)

    eval_seed = cfg.seed + EVAL_SEED_OFFSET
    ter = {"none": eval_ter(model, cfg.generator, cfg.eval_pairs, "none", eval_seed),
           "eval-fullnoise": eval_ter(model, cfg.generator, cfg.eval_pairs,
                                      "eval-fullnoise", eval_seed)}
    expert_load = expert_load_table(model, cfg.generator, cfg.eval_pairs, eval_seed)
    group_load = None
    affinity: dict = {}
    if _is_hierarchical(model):
        group_load = eval_group_load_vs_snr(model, cfg.generator,
                                            list(AV_SNR_CHOICES),
                                            max(cfg.eval_pairs // 2, 4), eval_seed)
        affinity = group_affinity(model, cfg.generator,
                                  max(cfg.eval_pairs // 2, 4), eval_seed)
    flops = flops_report(cfg.model.moe, tokens=100)

    report = MetricsReport(final_losses=final, steps_table=table,
                           expert_load=expert_load, group_load=group_load,
                           ter=ter, flops=flops, group_affinity=affinity,
                           model=model, expert_load_tail=load_tail)
    if run_dir is not None:
        _write_run(report, model, cfg, run_dir)
    return report


def _write_run(report: MetricsReport, model: Model, cfg: TrainConfig, run_dir: str):
    os.makedirs(run_dir, exist_ok=True)
    write_table(report.steps_table, os.path.join(run_dir, "steps.csv"))
    write_table(report.expert_load, os.path.join(run_dir, "expert_load.csv"))
    if report.group_load is not None:
        write_table(report.group_load, os.path.join(run_dir, "group_load_vs_snr.csv"))
    model.save_checkpoint(os.path.join(run_dir, "checkpoint.json"))
    with atomic_open(os.path.join(run_dir, "config.json")) as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "regime": cfg.regime,
        "loss_curves": {"file": "steps.csv", "final": report.final_losses},
        "expert_load": {"file": "expert_load.csv"},
        "group_load_vs_snr": ({"file": "group_load_vs_snr.csv"}
                              if report.group_load is not None else None),
        "flops": report.flops,
        "ter": report.ter,
        "group_affinity": report.group_affinity,
        "param_count": model.param_count(),
    }
    with atomic_open(os.path.join(run_dir, "summary.json")) as f:
        json.dump(summary, f, indent=2, sort_keys=True)
