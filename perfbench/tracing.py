"""Outside-in hooks for the avmoe benchmark.

The benchmark never edits the package. It replaces functions and methods of
each avmoe layer, for the duration of one repetition, at the name its caller
looks up: ``dispatch_stats`` is imported by name into both ``avmoe.trainer``
and ``avmoe.moe_layer``, so both names are wrapped; a method is wrapped on its
class. Every original is put back when the repetition ends, and the restore is
verified.

Two hook sets exist:

- ``gate`` (always on): return timestamps of ``Tensor.backward`` (one per
  training step, which is how step time is measured from outside ``train()``),
  each followed by one run of the reference kernel, and an
  expert-evaluation ledger check around ``MoELayer.forward``.
- ``trace`` (traced repetitions only): spans (name, start, end, parent) kept
  in memory at every layer boundary listed in ``SPANS``, plus counters for
  tape nodes and greedy-decode positions.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import avmoe.distill as distill
import avmoe.model as model_mod
import avmoe.moe_layer as moe_layer
import avmoe.tensor as tensor
import avmoe.trainer as trainer

# (owner, attribute, span name): the owner is the module or class the caller
# looks the name up in at call time.
SPANS = [
    (moe_layer, "route_hierarchical", "routing.route"),
    (moe_layer, "route_sparse", "routing.route"),
    (moe_layer, "route_hard", "routing.route"),
    (moe_layer.MoELayer, "combine", "moe_layer.combine"),
    (moe_layer.MoELayer, "router_logit_rows", "moe_layer.router_logits"),
    (trainer, "load_balancing_from_stats", "moe_losses"),
    (trainer, "load_biasing_loss", "moe_losses"),
    (trainer, "router_z_loss", "moe_losses"),
    (trainer, "total_aux_loss", "moe_losses"),
    (model_mod.Model, "encode", "model.encode"),
    (model_mod.Model, "decode_train", "model.decode_train"),
    (model_mod.Model, "decode_greedy", "model.decode_greedy"),
    (model_mod.Model, "save_checkpoint", "model.save_checkpoint"),
    (trainer, "write_table", "metrics.write_table"),
    (trainer, "generate_pair", "streams.generate_pair"),
    (trainer, "sample_plan_preset", "corruption.plan"),
    (trainer, "allocate_masks", "corruption.plan"),
    (trainer, "corrupt_pair", "corruption.corrupt_pair"),
    (trainer, "teacher_targets", "distill.teacher_targets"),
    (distill, "teacher_targets", "distill.teacher_targets"),
    (trainer, "ema_update", "distill.ema_update"),
    (trainer, "masked_prediction_loss", "distill.losses"),
    (trainer, "corrupted_prediction_loss", "distill.losses"),
    (trainer, "mlm_loss", "distill.losses"),
    (trainer, "cav2vec_total_loss", "distill.losses"),
    (trainer.Adam, "step", "trainer.optimizer"),
    (trainer, "eval_ter", "trainer.probes"),
    (trainer, "expert_load_table", "trainer.probes"),
    (trainer, "eval_group_load_vs_snr", "trainer.probes"),
    (trainer, "group_affinity", "trainer.probes"),
]
# dispatch_stats is wrapped under both names with its caller recorded, so the
# share of calls whose result the trainer uses can be reported.
DISPATCH_CALLERS = [(trainer, "trainer"), (moe_layer, "moe_layer")]
PROBES = "trainer.probes"
ROOT = "bench.op"
KERNEL = "bench.kernel"
NOT_LAYERS = (ROOT, KERNEL)

_rng = np.random.default_rng(0)
_KA, _KB, _KX, _KS = (_rng.normal(size=s)
                      for s in ((32, 64), (64, 32), (6, 32), (40, 32)))


def reference_kernel() -> float:
    """A fixed mix of small numpy ops and Python glue, about 1.4 ms on a
    2.1 GHz x86_64 core, that uses no avmoe code: token-sized FFN rows, a
    frame-sized attention block, dict and list work.

    It runs after every op. The host's speed drifts by up to 2x over tens
    of seconds, while the op-to-kernel time ratio drifts by about 4%, so the
    end-to-end timings are scaled by it."""
    x, acc = _KX, {}
    for i in range(20):
        y = np.tanh(x @ _KA) @ _KB
        x = (y - y.mean(axis=1, keepdims=True)) / (y.std(axis=1, keepdims=True) + 1e-6)
        scores = (_KS @ _KS.T) / 8.0
        att = np.exp(scores - scores.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        acc[i % 7] = acc.get(i % 7, 0.0) + float(x[0, 0]) + float((att @ _KS)[0, 0])
        acc[7] = [j * 2 for j in range(50)]
    return acc[0]


class GateError(AssertionError):
    """A benchmark correctness check failed."""


class Recorder:
    """In-memory spans and counters for one repetition.

    Counters are kept twice: ``total`` over the whole repetition and ``loop``
    until the first post-train probe starts, which is the training loop on
    the training workloads and everything on ``eval_decode``."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.loop_end_ns: int | None = None
        self.step_ends: list[int] = []  # when each op (or backward) returned
        self.kernel_ns: list[int] = []  # the reference kernel run after it
        self.resumed: list[int] = []    # when that kernel run ended
        self.total: Counter = Counter()
        self.loop: Counter = Counter()
        self.ledger_failures: list[int] = []  # step index (op index) of each failure

    def open(self, name: str) -> int:
        idx = len(self.names)
        now = time.perf_counter_ns()
        if name == PROBES and self.loop_end_ns is None:
            self.loop_end_ns = now
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(now)
        self.ends.append(now)
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, n: int = 1):
        self.total[key] += n
        if self.loop_end_ns is None:
            self.loop[key] += n

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def end_op(self):
        """Record the end of an op, then time one reference kernel run."""
        self.step_ends.append(time.perf_counter_ns())
        idx = self.open(KERNEL)
        reference_kernel()
        self.close(idx)
        self.kernel_ns.append(self.ends[idx] - self.starts[idx])
        self.resumed.append(self.ends[idx])

    def step_ms(self) -> list[float]:
        """Time from the end of each kernel run to the end of the next op."""
        return [(b - a) / 1e6 for a, b in zip(self.resumed, self.step_ends[1:])]


def _span(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapped


def _counted_span(rec: Recorder, name: str, key: str, fn):
    inner = _span(rec, name, fn)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        rec.count(key)
        return inner(*args, **kwargs)
    return wrapped


def evals_per_token(cfg) -> int:
    """Expert evaluations each routed token must cost (acceptance 4)."""
    if cfg.mode == "dense_ffn":
        return 1
    if cfg.mode == "hierarchical":
        return cfg.m * cfg.k_per_group
    raise ValueError(f"no ledger rule for MoE mode {cfg.mode!r}")


def counted_flops(layer, tokens: int, evals: int) -> int:
    """Counted evaluations priced per expert from the weight shapes, plus
    every router the mode runs per token."""
    e = layer.experts[0]
    per_expert = 2 * (e.W1.data.size + e.W2.data.size)
    routers = [r for r in [layer.router, layer.inter_router, *layer.intra_routers]
               if r is not None]
    router = 2 * sum(r.weight.data.size for r in routers)
    return evals * per_expert + tokens * router


def _gate_hooks(rec: Recorder):
    orig_backward = tensor.Tensor.backward
    orig_forward = moe_layer.MoELayer.forward
    forward = (_span(rec, "moe_layer.forward", orig_forward) if rec.spans_on
               else orig_forward)
    backward = (_span(rec, "tensor.backward", orig_backward) if rec.spans_on
                else orig_backward)

    @functools.wraps(orig_backward)
    def stamped_backward(self):
        backward(self)
        rec.end_op()

    @functools.wraps(orig_forward)
    def ledgered_forward(self, X, *args, **kwargs):
        before = sum(self.eval_counts())
        out = forward(self, X, *args, **kwargs)
        tokens = X.data.shape[0]
        evals = sum(self.eval_counts()) - before
        counted = counted_flops(self, tokens, evals)
        ledger = moe_layer.flops_report(self.cfg, tokens)["activated_flops"]
        rec.count("moe.tokens", tokens)
        rec.count("moe.evals", evals)
        rec.count("moe.counted_flops", counted)
        rec.count("moe.ledger_flops", ledger)
        if evals != tokens * evals_per_token(self.cfg) or counted != ledger:
            rec.ledger_failures.append(len(rec.step_ends))
        return out

    return [(tensor.Tensor, "backward", stamped_backward),
            (moe_layer.MoELayer, "forward", ledgered_forward)]


def _trace_hooks(rec: Recorder):
    hooks = [(owner, attr, _span(rec, name, getattr(owner, attr)))
             for owner, attr, name in SPANS]
    for owner, caller in DISPATCH_CALLERS:
        hooks.append((owner, "dispatch_stats",
                      _counted_span(rec, "routing.dispatch_stats",
                                    f"dispatch_stats.{caller}",
                                    owner.dispatch_stats)))
    orig_make = tensor._make

    # _make is the one constructor of tape nodes in avmoe.tensor
    @functools.wraps(orig_make)
    def counted_make(data, parents, backward):
        if parents:
            rec.count("tape_nodes")
        return orig_make(data, parents, backward)
    hooks.append((tensor, "_make", counted_make))

    orig_step = model_mod.Model.decode_step

    @functools.wraps(orig_step)
    def counted_step(self, features, token_ids, modality):
        if rec.stack and rec.names[rec.stack[-1]] == "model.decode_greedy":
            rec.count("greedy.positions", len(token_ids))
            rec.count("greedy.tokens")
        return orig_step(self, features, token_ids, modality)
    hooks.append((model_mod.Model, "decode_step", counted_step))
    return hooks


@contextmanager
def installed(rec: Recorder):
    """Install the gate hooks, and the trace hooks when ``rec`` records
    spans; restore every original on exit and verify the restore."""
    hooks = (_trace_hooks(rec) if rec.spans_on else []) + _gate_hooks(rec)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in hooks]
    try:
        for owner, attr, fn in hooks:
            setattr(owner, attr, fn)
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    for owner, attr, orig in saved:
        if getattr(owner, attr) is not orig:
            raise GateError(f"{owner.__name__}.{attr} was not restored")


def self_times(rec: Recorder) -> list[int]:
    """Per-span duration minus the part its child spans cover."""
    dur = [e - s for s, e in zip(rec.starts, rec.ends)]
    own = list(dur)
    for i, p in enumerate(rec.parents):
        if p >= 0:
            own[p] -= dur[i]
    return own
