"""Training regimes, evaluation metrics, and run artifacts.

Two training loops serve three regimes:

- supervised_moe: token cross-entropy plus the router losses (balance, bias,
  z), with modality dropout and optional audio corruption on AV sequences so
  the routers see both unimodal and noisy inputs. A parameter frozen for a
  step is a constant on that step's tape: no tape node, no gradient.
- cav2vec_uptrain: encoder-only self-distillation against an EMA teacher with
  masked and corrupted prediction tasks.
- combined_pipeline: both loops on one config, uptraining for
  ``uptrain_steps`` and then supervised finetuning of the same model.

Every run writes steps.csv, expert_load.csv, summary.json, and (for
hierarchical models) group_load_vs_snr.csv into its run directory, plus a
checkpoint. All randomness flows from four named streams derived from the
config seed: model-init, routing-init, data, corruption.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .corruption import (
    DROP_AUDIO, DROP_VIDEO, CorruptionPlan, allocate_masks,
    apply_modality_dropout, corrupt_pair, sample_plan_preset, PRESETS,
)
from .distill import (
    MODE_A_ONLY, MODE_AV, MODE_V_ONLY, VARIANTS, DistillHeads, TaskWeights,
    cav2vec_total_loss, corrupted_prediction_loss, ema_update, eta_schedule,
    make_centroids, make_teacher, masked_prediction_loss, mlm_loss,
    teacher_targets,
)
from .metrics import CsvTable, atomic_open, write_table
from .model import Model, ModelConfig, sequence_mean_weights
from .moe_layer import MoELayerConfig, flops_report
from .moe_losses import (
    DEFAULT_C_B, DEFAULT_C_S, DEFAULT_C_Z, load_balancing_from_stats,
    load_biasing_loss, router_z_loss, total_aux_loss, UnsupportedConfigError,
)
from .routing import (
    AUDIO_GROUP, MOD_AUDIO, MOD_AV, MOD_VIDEO, VIDEO_GROUP, dispatch_stats,
)
from .streams import GeneratorConfig, generate_pair, token_error_rate
from .tensor import Tensor

SCHEMA_VERSION = 1
REGIMES = ("supervised_moe", "cav2vec_uptrain", "combined_pipeline")

STEP_COLUMNS = ["step", "L_CE", "L_B", "L_S", "L_Z",
                "L_ACP", "L_VCP", "L_MASK", "L_MLM", "total"]


class ConfigError(ValueError):
    """Invalid or unparseable training configuration."""


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
    schema_version: int = SCHEMA_VERSION
    tokens_min: int = 3
    tokens_max: int = 5
    modality_dropout: float = 0.25
    # supervised regime: probability that an AV sequence gets its audio fully
    # corrupted, and the SNRs drawn for it
    av_corrupt_prob: float = 0.5
    av_snr_choices: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0)
    c_balance: float = DEFAULT_C_B
    c_bias: float = DEFAULT_C_S
    c_z: float = DEFAULT_C_Z
    # uptraining regime
    tasks: tuple = ("MASK", "ACP", "VCP")
    task_weights: TaskWeights = field(default_factory=TaskWeights)
    corruption_preset: str = "train-default"
    audio_mask_prob: float = 0.3
    audio_mask_span: int = 3
    video_mask_prob: float = 0.2
    video_mask_span: int = 2
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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int" and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                raise ConfigError(f"{f.name} must be an integer, got {v!r}")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be >= 1")
        if self.regime == "combined_pipeline" and self.uptrain_steps < 1:
            raise ConfigError("combined_pipeline needs uptrain_steps >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.eval_pairs < 1:
            raise ConfigError("eval_pairs must be >= 1")
        if min(self.c_balance, self.c_bias, self.c_z) < 0:
            raise ConfigError("loss coefficients must be nonnegative")
        if not 1 <= self.tokens_min <= self.tokens_max:
            raise ConfigError("need 1 <= tokens_min <= tokens_max")
        if not 0.0 <= self.modality_dropout <= 0.5:
            raise ConfigError("modality_dropout must lie in [0, 0.5]")
        if self.corruption_preset not in PRESETS:
            raise ConfigError(f"unknown corruption preset {self.corruption_preset!r}")
        if not self.av_snr_choices:
            raise ConfigError("av_snr_choices must not be empty")
        if min(self.audio_mask_span, self.video_mask_span) < 1:
            raise ConfigError("audio_mask_span and video_mask_span must be >= 1")
        if not (0.0 <= self.audio_mask_prob <= 1.0 and 0.0 <= self.video_mask_prob <= 1.0):
            raise ConfigError("audio_mask_prob and video_mask_prob must lie in [0, 1]")
        if not 2 <= self.n_centroids <= self.model.d:
            raise ConfigError(f"n_centroids must lie in [2, model.d={self.model.d}]")
        for t in self.tasks:
            if t not in VARIANTS and t not in ("MASK", "MLM"):
                raise ConfigError(f"unknown distillation task {t!r}")
        if self.generator.vocab != self.model.vocab:
            raise ConfigError(
                f"generator vocab {self.generator.vocab} != model vocab {self.model.vocab}")

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError("config root must be a JSON object")
        d = dict(d)
        version = d.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        # config.json files written before the field was removed carry it as 0
        if d.pop("router_tune_steps", 0):
            raise ConfigError("router_tune_steps is no longer supported")
        try:
            if "model" in d:
                md = dict(d["model"])
                if "moe" in md:
                    md["moe"] = MoELayerConfig(**md["moe"])
                d["model"] = ModelConfig(**md)
            if "generator" in d:
                d["generator"] = GeneratorConfig(**d["generator"])
            if "task_weights" in d:
                d["task_weights"] = TaskWeights(**d["task_weights"])
            for key in ("tasks", "av_snr_choices"):
                if key in d:
                    d[key] = tuple(d[key])
            return TrainConfig(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricsReport:
    final_losses: dict
    steps_table: CsvTable
    expert_load: CsvTable
    group_load: CsvTable | None
    ter: dict
    flops: dict
    group_affinity: dict
    run_dir: str | None = None
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

def sgd_step(params: list[Tensor], lr: float, lr_scales: dict | None = None):
    lr_scales = lr_scales or {}
    for p in params:
        if p.grad is not None:
            p.data -= lr * lr_scales.get(id(p), 1.0) * p.grad
            p.grad = None


class Adam:
    """Standard Adam with bias correction; state is keyed by parameter.

    ``lr_scales`` maps id(param) to a step-size multiplier (Adam itself is
    invariant to gradient scaling, so per-parameter rates must scale the
    update, not the gradient)."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, lr_scales: dict | None = None):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.lr_scales = lr_scales or {}
        self.t = 0
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}

    def step(self, params: list[Tensor]):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            if p.grad is None:
                continue
            key = id(p)
            m = self.m.setdefault(key, np.zeros_like(p.data))
            v = self.v.setdefault(key, np.zeros_like(p.data))
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= (self.lr * self.lr_scales.get(key, 1.0)
                       * m_hat / (np.sqrt(v_hat) + self.eps))
            p.grad = None


def make_optimizer(name: str, lr: float, lr_scales: dict | None = None):
    """Returns a step(params) callable for the configured optimizer."""
    if name == "sgd":
        return lambda params: sgd_step(params, lr, lr_scales)
    if name == "adam":
        return Adam(lr, lr_scales=lr_scales).step
    raise ConfigError(f"unknown optimizer {name!r}; expected 'sgd' or 'adam'")


def _mean_scalars(ts: list[Tensor]) -> Tensor:
    total = ts[0]
    for t in ts[1:]:
        total = T.add(total, t)
    return T.scale(total, 1.0 / len(ts))


# -- data sampling ------------------------------------------------------------

def _corrupt_all_audio(audio: np.ndarray, video: np.ndarray, rng, snr_db: float):
    """Mix noise into every audio frame at ``snr_db``, seeded by one draw
    from ``rng``."""
    plan = CorruptionPlan(seq_len=audio.shape[0], audio_corrupt=np.arange(audio.shape[0]))
    return corrupt_pair(audio, video, plan, int(rng.integers(2 ** 31)), audio_snr_db=snr_db)


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
                                                  min(cfg.av_snr_choices))
            else:
                audio = np.zeros_like(audio)
            tag = MOD_VIDEO
        elif u < 2 * p:  # drop video: tokens are audio-only
            video = np.zeros_like(video)
            tag = MOD_AUDIO
        else:
            tag = MOD_AV
            if corr_rng.uniform() < cfg.av_corrupt_prob:
                snr = float(corr_rng.choice(np.asarray(cfg.av_snr_choices)))
                audio, video = _corrupt_all_audio(audio, video, corr_rng, snr)
        batch.append((audio, video, pair.labels, tag))
    return batch


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
    zero = Tensor(np.zeros(()))
    stats = {li: layer_aux["stats"] for li, layer_aux in enumerate(aux)
             if layer_aux["stats"] is not None}
    first = next(iter(stats.values()), None)
    balance = (_mean_scalars([load_balancing_from_stats(s) for s in stats.values()])
               if stats else zero)
    bias = (_mean_scalars([load_biasing_loss(s) for s in stats.values()])
            if first is not None and first.n_groups == 2 and first.g else zero)
    row_weights = sequence_mean_weights([len(seq) + 1 for seq in labels])
    logit_rows = [rows for layer_aux in aux for rows in layer_aux["logit_rows"]]
    z = (_mean_scalars([router_z_loss(rows, row_weights) for rows in logit_rows])
         if logit_rows else zero)
    bundle = total_aux_loss(ce, balance, bias, z, c_balance=cfg.c_balance,
                            c_bias=cfg.c_bias, c_z=cfg.c_z)
    return bundle.scalars(), bundle.total, stats


def _train_supervised(model: Model, cfg: TrainConfig, table: CsvTable,
                      step_offset: int = 0):
    streams = seed_streams(cfg.seed)
    data_rng = np.random.default_rng(streams["data"])
    corr_rng = np.random.default_rng(streams["corruption"])
    params = model.params()
    blocks = model.decoder_blocks
    routers = set(id(p) for blk in blocks for p in blk.moe.router_params())
    # (steps, ids) of each freeze; a frozen parameter is a constant on the
    # tape of each of those steps, so it gets no tape node and no gradient
    freezes = [(cfg.router_warmup_steps, set(id(p) for p in params) - routers),
               (cfg.freeze_encoder_steps, set(id(p) for p in model.encoder_params())),
               (cfg.freeze_experts_steps,
                set(id(p) for blk in blocks for e in blk.moe.experts for p in e.params()))]
    lr_scales = {id(blk.moe.inter_router.weight): cfg.inter_lr_scale
                 for blk in blocks if blk.moe.inter_router is not None}
    opt = make_optimizer(cfg.optimizer, cfg.lr, lr_scales)
    last_finite: dict = {}
    # within-group top-1 frequencies averaged over the last 10% of steps,
    # keyed (layer, group); the balance invariant is checked against these
    tail_start = cfg.steps - max(1, cfg.steps // 10)
    tail_f: dict = {}
    tail_n = 0
    try:
        for step in range(cfg.steps):
            frozen = set().union(*(ids for until, ids in freezes if step < until))
            for p in params:
                p.requires_grad = id(p) not in frozen
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
            opt([p for p in params if p.requires_grad])
            last_finite = scalars
            table.append([step_offset + step, scalars["L_CE"], scalars["L_B"],
                          scalars["L_S"], scalars["L_Z"], 0.0, 0.0, 0.0, 0.0,
                          scalars["total"]])
    finally:
        for p in params:
            p.requires_grad = True
    tail = {key: f / tail_n for key, f in tail_f.items()} if tail_n else {}
    return last_finite, tail


# -- uptraining regime --------------------------------------------------------

def _uptrain_step(model: Model, teacher, heads: DistillHeads,
                  centroids: np.ndarray, cfg: TrainConfig, data_rng, corr_rng):
    weights = cfg.task_weights
    acps, vcps, masks, mlms = [], [], [], []
    for _ in range(cfg.batch_size):
        length = int(data_rng.integers(cfg.tokens_min, cfg.tokens_max + 1))
        pair = generate_pair(cfg.generator, length, int(data_rng.integers(2 ** 31)))
        A, V = pair.audio, pair.video
        n_frames = A.shape[0]
        plan = sample_plan_preset(cfg.corruption_preset, n_frames,
                                  int(corr_rng.integers(2 ** 31)),
                                  drop_prob=cfg.modality_dropout)
        plan = allocate_masks(plan, cfg.audio_mask_prob, cfg.audio_mask_span,
                              cfg.video_mask_prob, cfg.video_mask_span,
                              int(corr_rng.integers(2 ** 31)))
        snr = float(corr_rng.choice(np.asarray(cfg.av_snr_choices)))
        A_corr, V_corr = corrupt_pair(A, V, plan, int(corr_rng.integers(2 ** 31)),
                                      audio_snr_db=snr)
        A_corr, V_corr = apply_modality_dropout(A_corr, V_corr, plan)
        # masked student input: masked frames zeroed per modality
        A_in, V_in = A_corr.copy(), V_corr.copy()
        if plan.audio_mask.size:
            A_in[plan.audio_mask] = 0.0
        if plan.video_mask.size:
            V_in[plan.video_mask] = 0.0
        topk = model.cfg.topk_blocks
        mask_idx = sorted(set(plan.audio_mask.tolist()) | set(plan.video_mask.tolist()))
        if "MASK" in cfg.tasks:
            # when a modality is dropped the clean target uses the kept one
            mode = {DROP_AUDIO: MODE_V_ONLY, DROP_VIDEO: MODE_A_ONLY}.get(
                plan.modality_drop, MODE_AV)
            targets = teacher_targets(teacher.model, A, V, topk, mode=mode)
            feats, _ = model.encode(A_in, V_in)
            pred = T.matmul(feats, heads.heads["MASK"])
            masks.append(masked_prediction_loss(pred, targets, mask_idx))
        for name in cfg.tasks:
            if name not in VARIANTS:
                continue
            loss = corrupted_prediction_loss(name, model, teacher.model,
                                             A, A_corr, V, V_corr, plan,
                                             head=heads.heads[name],
                                             topk_blocks=topk)
            target_mode = VARIANTS[name].target_mode
            if target_mode == MODE_A_ONLY:
                acps.append(loss)
            elif target_mode == MODE_V_ONLY:
                vcps.append(loss)
            else:  # AV target counts toward both halves
                acps.append(T.scale(loss, 0.5))
                vcps.append(T.scale(loss, 0.5))
        if "MLM" in cfg.tasks:
            t_feats = teacher_targets(teacher.model, A, V, topk).vectors
            feats, _ = model.encode(A_in, V_in)
            mlms.append(mlm_loss(feats, centroids, t_feats, mask_idx,
                                 heads.mlm_head))
    zero = Tensor(np.zeros(()))
    acp = _mean_scalars(acps) if acps else zero
    vcp = _mean_scalars(vcps) if vcps else zero
    mask = _mean_scalars(masks) if masks else zero
    mlm = _mean_scalars(mlms) if mlms else zero
    total = cav2vec_total_loss(acp, vcp, mask, mlm, weights)
    scalars = {"L_ACP": float(acp.data), "L_VCP": float(vcp.data),
               "L_MASK": float(mask.data), "L_MLM": float(mlm.data),
               "total": float(total.data)}
    return scalars, total


def _train_uptrain(model: Model, cfg: TrainConfig, table: CsvTable):
    streams = seed_streams(cfg.seed)
    data_rng = np.random.default_rng(streams["data"])
    corr_rng = np.random.default_rng(streams["corruption"])
    teacher = make_teacher(model, total_steps=cfg.steps)
    heads = DistillHeads.init(cfg.model.d, cfg.n_centroids,
                              seed=seed_streams(cfg.seed)["model_init"] ^ 0x5F)
    centroids = make_centroids(cfg.n_centroids, cfg.model.d,
                               seed=cfg.generator.codebook_seed)
    params = model.params() + heads.params()
    opt = make_optimizer(cfg.optimizer, cfg.lr)
    last_finite: dict = {}
    for step in range(cfg.steps):
        try:
            scalars, total = _uptrain_step(model, teacher, heads, centroids,
                                           cfg, data_rng, corr_rng)
        except T.NumericError:
            raise DivergenceError(step, last_finite)
        if not np.isfinite(float(total.data)):
            raise DivergenceError(step, last_finite)
        total.backward()
        opt(params)
        teacher.current_step = step
        ema_update(teacher, model, eta_schedule(teacher))
        last_finite = scalars
        table.append([step, 0.0, 0.0, 0.0, 0.0,
                      scalars["L_ACP"], scalars["L_VCP"], scalars["L_MASK"],
                      scalars["L_MLM"], scalars["total"]])
    return last_finite


# -- evaluation ---------------------------------------------------------------

def _eval_pairs(cfg_gen: GeneratorConfig, n: int, seed: int,
                tokens: tuple[int, int] = (3, 5)):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(tokens[0], tokens[1] + 1))
        out.append(generate_pair(cfg_gen, length, int(rng.integers(2 ** 31))))
    return out


def eval_ter(model: Model, gen_cfg: GeneratorConfig, pairs: int, preset: str,
             seed: int = 0, snr_db: float = -10.0) -> float:
    """Mean token error rate of greedy decoding under a corruption preset."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for pair in _eval_pairs(gen_cfg, pairs, seed + 1):
        plan = sample_plan_preset(preset, pair.num_frames,
                                  int(rng.integers(2 ** 31)), drop_prob=0.0)
        audio, video = corrupt_pair(pair.audio, pair.video, plan,
                                    int(rng.integers(2 ** 31)), audio_snr_db=snr_db)
        with T.no_grad():
            feats, _ = model.encode(audio, video)
        hyp = model.decode_greedy(feats, max_len=len(pair.labels) + 4)
        total += token_error_rate(hyp, pair.labels)
    return total / pairs


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
        raw_f = dispatch_stats([r]).expert_f
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
                         seed: int = 0, snr_db: float = -10.0) -> dict:
    """Mean L2 distance between frame-normalized clean and corrupted
    features, for both models, plus the relative change."""
    def distance(model: Model) -> float:
        rng = np.random.default_rng(seed)
        acc = 0.0
        for pair in _eval_pairs(gen_cfg, pairs, seed + 13):
            plan = sample_plan_preset(preset, pair.num_frames,
                                      int(rng.integers(2 ** 31)), drop_prob=0.0)
            audio, video = corrupt_pair(pair.audio, pair.video, plan,
                                        int(rng.integers(2 ** 31)),
                                        audio_snr_db=snr_db)
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


def _unit_rows(X: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(norms, eps)


# -- entry point --------------------------------------------------------------

def train(cfg: TrainConfig, run_dir: str | None = None) -> MetricsReport:
    """Run a regime end to end and emit the report artifacts."""
    model = build_model(cfg)
    table = CsvTable(STEP_COLUMNS)
    load_tail: dict = {}
    if cfg.regime == "supervised_moe":
        final, load_tail = _train_supervised(model, cfg, table)
    elif cfg.regime == "cav2vec_uptrain":
        final = _train_uptrain(model, cfg, table)
    else:  # combined_pipeline: uptrain, then supervised finetune
        _train_uptrain(model, replace(cfg, steps=cfg.uptrain_steps), table)
        final, load_tail = _train_supervised(model, cfg, table,
                                             step_offset=cfg.uptrain_steps)

    eval_seed = cfg.seed + 101
    ter = {"none": eval_ter(model, cfg.generator, cfg.eval_pairs, "none", eval_seed),
           "eval-fullnoise": eval_ter(model, cfg.generator, cfg.eval_pairs,
                                      "eval-fullnoise", eval_seed)}
    expert_load = expert_load_table(model, cfg.generator, cfg.eval_pairs, eval_seed)
    group_load = None
    affinity: dict = {}
    if _is_hierarchical(model):
        group_load = eval_group_load_vs_snr(model, cfg.generator,
                                            list(cfg.av_snr_choices),
                                            max(cfg.eval_pairs // 2, 4), eval_seed)
        affinity = group_affinity(model, cfg.generator,
                                  max(cfg.eval_pairs // 2, 4), eval_seed)
    flops = flops_report(cfg.model.moe, tokens=100)

    report = MetricsReport(final_losses=final, steps_table=table,
                           expert_load=expert_load, group_load=group_load,
                           ter=ter, flops=flops, group_affinity=affinity,
                           run_dir=run_dir, model=model,
                           expert_load_tail=load_tail)
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
        "schema_version": cfg.schema_version,
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
