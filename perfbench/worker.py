"""Runs one avmoe benchmark workload in this process and prints its raw
results as one JSON line on stdout.

Started by run.py, which pins BLAS/OpenMP threads and times set-up from
process start. A workload is a closed loop with one caller: each training
step or eval pair waits for the previous one. Every repetition uses the
workload seed, so repetitions must agree byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from avmoe.distill import DistillHeads, make_centroids, make_teacher  # noqa: E402
from avmoe.trainer import TrainConfig, build_model, eval_ter, train  # noqa: E402

from tracing import (  # noqa: E402
    KERNEL, NOT_LAYERS, PROBES, ROOT, Recorder, installed, reference_kernel,
    self_times,
)

MIN_SAMPLES = 200   # p95 then has at least ten samples beyond it
HARD_CAP_S = 110.0  # no repetition starts later than this
EVAL_PRESET = "eval-fullnoise"
# End-to-end timings are reported in ref_ms: milliseconds scaled so that the
# reference kernel (tracing.reference_kernel) takes REF_KERNEL_MS.
REF_KERNEL_MS = 1.4
KERNEL_WINDOW = 5  # an op is scaled by the median of the 2 * 5 + 1 nearest kernel runs


def sup_hier_config(seed: int, steps: int, eval_pairs: int) -> dict:
    """The README quick-start model with every parameter family training."""
    return {
        "regime": "supervised_moe", "steps": steps, "batch_size": 6,
        "lr": 1e-3, "optimizer": "adam", "seed": seed, "modality_dropout": 0.25,
        "identical_expert_init": True, "freeze_experts_steps": 0,
        "router_warmup_steps": 0, "inter_lr_scale": 10.0, "c_bias": 1e-2,
        "eval_pairs": eval_pairs,
        "model": {"moe": {"mode": "hierarchical", "n_groups": 2,
                          "n_per_group": 4, "m": 2, "k_per_group": 1}},
        "generator": {"vocab": 16},
    }


def uptrain_long_config(seed: int, steps: int, eval_pairs: int) -> dict:
    """Uptraining with a dense decoder on sequences of 8-16 tokens."""
    return {
        "regime": "cav2vec_uptrain", "steps": steps, "batch_size": 4,
        "lr": 1e-3, "optimizer": "adam", "seed": seed,
        "tokens_min": 8, "tokens_max": 16, "tasks": ["MASK", "ACP", "VCP"],
        "corruption_preset": "train-default", "eval_pairs": eval_pairs,
        "model": {"moe": {"mode": "dense_ffn"}},
        "generator": {"vocab": 16},
    }


COMMON_SPANS = {"model.encode", "model.decode_greedy", "moe_layer.forward",
                "streams.generate_pair", "corruption.plan",
                "corruption.corrupt_pair"}
TRAIN_SPANS = COMMON_SPANS | {"tensor.backward", "trainer.optimizer",
                              "trainer.probes", "model.decode_train",
                              "model.save_checkpoint", "metrics.write_table"}
ROUTED_SPANS = {"routing.route", "routing.dispatch_stats", "moe_layer.combine",
                "moe_layer.router_logits"}

# steps per repetition and the spans that must fire on each workload
WORKLOADS = {
    "sup_hier": {"config": sup_hier_config, "steps": 100,
                 "spans": TRAIN_SPANS | ROUTED_SPANS | {"moe_losses"}},
    "uptrain_long": {"config": uptrain_long_config, "steps": 100,
                     "spans": TRAIN_SPANS | {"distill.teacher_targets",
                                             "distill.ema_update",
                                             "distill.losses"}},
    # a fresh random model either emits EOS early or decodes to max_len, so
    # the workload seed draws only the pairs, and a fixed set of seeded
    # models shares them; otherwise the decode work per seed varies by 20%
    "eval_decode": {"config": sup_hier_config, "models": 16, "pairs": 256,
                    "spans": COMMON_SPANS | ROUTED_SPANS},
}

# per-op counts that must repeat exactly for one seed
COUNT_METRICS = ("tensor.tape_nodes", "routing.route_calls",
                 "routing.dispatch_stats_calls", "moe_layer.expert_evals",
                 "model.encode_calls", "model.decode_positions_per_token",
                 "distill.teacher_targets_calls", "streams.generate_pair_calls")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, ops: int) -> tuple[dict, set]:
    """Per-layer metrics of one traced repetition, and the span names that
    fired.

    Per-op figures cover the loop window (the training loop, or every eval
    pair); per-run figures cover the post-train probes and artifact writes;
    ratios cover the whole repetition."""
    own = self_times(rec)
    roots = [i for i, n in enumerate(rec.names) if n == ROOT]
    loop_end = rec.loop_end_ns if rec.loop_end_ns is not None else max(rec.ends)
    loop_self: dict = defaultdict(int)
    loop_calls: Counter = Counter()
    all_self: dict = defaultdict(int)
    all_calls: Counter = Counter()
    probes_incl = 0
    covered = covered_loop = 0
    kernels = kernels_loop = 0
    for i, name in enumerate(rec.names):
        dur = rec.ends[i] - rec.starts[i]
        in_loop = rec.starts[i] < loop_end
        if name in NOT_LAYERS:
            if name == KERNEL and rec.parents[i] >= 0:  # inside a training run
                kernels += dur
                kernels_loop += dur if in_loop else 0
            continue
        all_self[name] += own[i]
        all_calls[name] += 1
        if in_loop:
            loop_self[name] += own[i]
            loop_calls[name] += 1
        p = rec.parents[i]
        if p < 0 or rec.names[p] == ROOT:  # outermost layer span
            covered += dur
            covered_loop += dur if in_loop else 0
            if name == PROBES:
                probes_incl += dur
    wall = sum(rec.ends[i] - rec.starts[i] for i in roots) - kernels
    loop_wall = (sum(min(rec.ends[i], loop_end) - rec.starts[i] for i in roots)
                 - kernels_loop)
    loop, total = rec.loop, rec.total

    def per_op_ms(name):
        return loop_self[name] / 1e6 / ops

    def per_op(name):
        return loop_calls[name] / ops

    dispatch_all = loop["dispatch_stats.trainer"] + loop["dispatch_stats.moe_layer"]
    return {
        "tensor.backward_ms": per_op_ms("tensor.backward"),
        "tensor.tape_nodes": loop["tape_nodes"] / ops,
        "routing.route_ms": per_op_ms("routing.route"),
        "routing.route_calls": per_op("routing.route"),
        "routing.dispatch_stats_ms": per_op_ms("routing.dispatch_stats"),
        "routing.dispatch_stats_calls": per_op("routing.dispatch_stats"),
        "routing.dispatch_stats_used_ratio": _ratio(loop["dispatch_stats.trainer"],
                                                    dispatch_all),
        "moe_layer.forward_ms": per_op_ms("moe_layer.forward"),
        "moe_layer.combine_ms": per_op_ms("moe_layer.combine"),
        "moe_layer.router_logits_ms": per_op_ms("moe_layer.router_logits"),
        "moe_layer.expert_evals": loop["moe.evals"] / ops,
        "moe_layer.expert_evals_per_token": _ratio(total["moe.evals"],
                                                   total["moe.tokens"]),
        "moe_layer.flops_ledger_ratio": _ratio(total["moe.counted_flops"],
                                               total["moe.ledger_flops"]),
        "moe_losses.ms": per_op_ms("moe_losses"),
        "model.encode_ms": per_op_ms("model.encode"),
        "model.encode_calls": per_op("model.encode"),
        "model.decode_train_ms": per_op_ms("model.decode_train"),
        "model.decode_greedy_ms": _ratio(all_self["model.decode_greedy"] / 1e6,
                                         all_calls["model.decode_greedy"]),
        "model.decode_positions_per_token": _ratio(total["greedy.positions"],
                                                   total["greedy.tokens"]),
        "model.save_checkpoint_ms": all_self["model.save_checkpoint"] / 1e6,
        "metrics.write_table_ms": all_self["metrics.write_table"] / 1e6,
        "streams.generate_pair_ms": per_op_ms("streams.generate_pair"),
        "streams.generate_pair_calls": per_op("streams.generate_pair"),
        "corruption.plan_ms": per_op_ms("corruption.plan"),
        "corruption.corrupt_pair_ms": per_op_ms("corruption.corrupt_pair"),
        "distill.teacher_targets_ms": per_op_ms("distill.teacher_targets"),
        "distill.teacher_targets_calls": per_op("distill.teacher_targets"),
        "distill.ema_update_ms": per_op_ms("distill.ema_update"),
        "distill.losses_ms": per_op_ms("distill.losses"),
        "trainer.optimizer_ms": per_op_ms("trainer.optimizer"),
        "trainer.probes_ms": probes_incl / 1e6,
        "trainer.unaccounted_ms": (loop_wall - covered_loop) / 1e6 / ops,
        "trace.coverage_pct": 100.0 * _ratio(covered, wall),
    }, set(all_calls)


class Run:
    """Op accounting and correctness problems shared by both loops."""

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_ms = {False: [], True: []}  # traced? -> op times
        self.scaled_ms: list[float] = []     # untraced op times in ref_ms
        self.kernel_ms: list[float] = []     # untraced reference kernel runs
        self.run_s: list[float] = []
        self.scaled_run_s: list[float] = []  # untraced repetitions in ref_s
        self.layers: list[dict] = []

    def problem(self, msg: str):
        self.problems.append(msg)
        print(f"perfbench: {self.workload}: {msg}", file=sys.stderr)

    def finish_traced(self, rec: Recorder, ops: int) -> bool:
        """Derive the layer metrics; True when a trace check failed."""
        before = len(self.problems)
        metrics, fired = layer_metrics(rec, ops)
        missing = WORKLOADS[self.workload]["spans"] - fired
        if missing:
            self.problem(f"expected spans never fired: {sorted(missing)}")
        if self.layers:
            for name in COUNT_METRICS:
                if metrics[name] != self.layers[0][name]:
                    self.problem(f"{name} differs between traced repetitions: "
                                 f"{self.layers[0][name]} vs {metrics[name]}")
        self.layers.append(metrics)
        return len(self.problems) > before

    def record_scaled(self, op_ms: list[float], kernel_ns: list[int], offset: int):
        """Keep an untraced repetition's op and run times in reference units."""
        self.scaled_ms.extend(scaled_ms(op_ms, kernel_ns, offset))
        self.kernel_ms.extend(k / 1e6 for k in kernel_ns)
        median_ms = float(np.median(kernel_ns)) / 1e6
        self.scaled_run_s.append(self.run_s[-1] * REF_KERNEL_MS / median_ms)

    def more(self, started: float, seconds: float, smoke: bool) -> bool:
        reps = len(self.run_s)
        min_reps = 4 if self.trace else 2
        elapsed = time.perf_counter() - started
        if self.problems or elapsed > HARD_CAP_S:
            return False
        if reps < min_reps:
            return True
        if smoke:
            return False
        if not self.trace and len(self.op_ms[False]) < MIN_SAMPLES:
            return True
        return elapsed + elapsed / reps <= seconds


def scaled_ms(op_ms: list[float], kernel_ns: list[int], offset: int) -> list[float]:
    """Op times in ref_ms. Op i is followed by kernel run i + offset, and
    is scaled by the median of the kernel runs around that one."""
    k = np.asarray(kernel_ns) / 1e6
    w = KERNEL_WINDOW
    return [ms * REF_KERNEL_MS / float(np.median(k[max(0, j - w):j + w + 1]))
            for ms, j in zip(op_ms, range(offset, len(k)))]


def _finite_row(line: str) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in line.split(","))
    except ValueError:
        return False


def run_training(run: Run, cfg: TrainConfig, out_dir: Path, seconds: float,
                 smoke: bool) -> float:
    """Repeat train() with the workload seed; returns the mean of the
    ``total`` column over all steps of a repetition."""
    steps = cfg.steps
    ref_rows = None
    started = time.perf_counter()
    while run.more(started, seconds, smoke):
        traced = run.trace and len(run.run_s) % 2 == 1
        rec = Recorder(spans=traced)
        run_dir = out_dir / f"rep{len(run.run_s)}"
        run.attempted += steps
        t0 = time.perf_counter_ns()
        try:
            with installed(rec), rec.span(ROOT):
                train(cfg, str(run_dir))
        except Exception:
            traceback.print_exc()
            run.failed += steps
            run.problem("train() raised")
            break
        run.run_s.append((time.perf_counter_ns() - t0 - sum(rec.kernel_ns)) / 1e9)
        bad = {min(i, steps - 1) for i in rec.ledger_failures}
        if bad:
            run.problem(f"expert evaluations disagree with the ledger at steps {sorted(bad)}")
        rows = (run_dir / "steps.csv").read_text().splitlines()[1:]
        shutil.rmtree(run_dir)
        if len(rows) != steps or len(rec.step_ends) != steps:
            run.problem(f"{len(rows)} rows and {len(rec.step_ends)} backward "
                        f"calls for {steps} steps")
            run.failed += steps
            break
        bad |= {i for i, row in enumerate(rows) if not _finite_row(row)}
        if ref_rows is None:
            ref_rows = rows
        else:
            differ = {i for i, (a, b) in enumerate(zip(rows, ref_rows)) if a != b}
            if differ:
                run.problem(f"steps.csv differs from the first repetition "
                            f"at {len(differ)} rows")
            bad |= differ
        if traced and run.finish_traced(rec, steps):
            bad.add(steps - 1)
        run.failed += len(bad)
        # the time before the first backward holds build_model: not a step
        run.op_ms[traced].extend(rec.step_ms())
        if not traced:
            run.record_scaled(rec.step_ms(), rec.kernel_ns, 1)
    if not ref_rows:
        return math.nan
    return float(np.mean([float(row.split(",")[-1]) for row in ref_rows]))


def run_eval(run: Run, models: list, cfg: TrainConfig, seed: int, pairs: int,
             seconds: float, smoke: bool) -> float:
    """Repeat one pass of greedy decoding over the same seeded pairs, one
    eval_ter call per pair, pair i on model i mod len(models); returns the
    pass's mean token error rate."""
    pair_seeds = [int(s) for s in
                  np.random.SeedSequence(seed).generate_state(pairs)]
    ref = None
    started = time.perf_counter()
    while run.more(started, seconds, smoke):
        traced = run.trace and len(run.run_s) % 2 == 1
        rec = Recorder(spans=traced)
        ters, times = [], []
        run.attempted += pairs
        t_pass = time.perf_counter_ns()
        try:
            with installed(rec):
                for i, s in enumerate(pair_seeds):
                    model = models[i % len(models)]
                    t0 = time.perf_counter_ns()
                    with rec.span(ROOT):
                        ters.append(eval_ter(model, cfg.generator, 1, EVAL_PRESET,
                                             seed=s))
                    times.append((time.perf_counter_ns() - t0) / 1e6)
                    rec.end_op()
        except Exception:
            traceback.print_exc()
            run.failed += pairs
            run.problem("eval_ter() raised")
            break
        run.run_s.append((time.perf_counter_ns() - t_pass - sum(rec.kernel_ns)) / 1e9)
        bad = set(rec.ledger_failures)
        if bad:
            run.problem(f"expert evaluations disagree with the ledger at pairs {sorted(bad)}")
        bad |= {i for i, t in enumerate(ters) if not math.isfinite(t)}
        if ref is None:
            ref = ters
        elif ters != ref:
            run.problem("token error rates differ from the first pass")
            bad |= {i for i, (a, b) in enumerate(zip(ters, ref)) if a != b}
        if traced and run.finish_traced(rec, pairs):
            bad.add(pairs - 1)
        run.failed += len(bad)
        run.op_ms[traced].extend(times)
        if not traced:
            run.record_scaled(times, rec.kernel_ns, 0)
    return float(np.mean(ref)) if ref else math.nan


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the launcher just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    steps = 4 if args.smoke else wl.get("steps", 1)
    eval_pairs = 4 if args.smoke else 16
    cfg = TrainConfig.from_dict(wl["config"](args.seed, steps, eval_pairs))
    if "models" in wl:
        models = [build_model(TrainConfig.from_dict(wl["config"](s, 1, eval_pairs)))
                  for s in range(2 if args.smoke else wl["models"])]
    else:
        model = build_model(cfg)
    if cfg.regime == "cav2vec_uptrain":
        make_teacher(model, total_steps=cfg.steps)
        DistillHeads.init(cfg.model.d, cfg.n_centroids, seed=cfg.seed)
        make_centroids(cfg.n_centroids, cfg.model.d, seed=cfg.generator.codebook_seed)
    setup_s = time.monotonic() - args.spawned_at
    kernel_ns = []
    for _ in range(2 * KERNEL_WINDOW + 1):
        t0 = time.perf_counter_ns()
        reference_kernel()
        kernel_ns.append(time.perf_counter_ns() - t0)
    setup = {"setup_s": setup_s,
             "setup_ref_s": scaled_ms([setup_s], kernel_ns, KERNEL_WINDOW)[0]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run = Run(args.workload, bool(args.trace))
    (HERE / ".out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".out"))
    try:
        if "pairs" in wl:
            pairs = 2 if args.smoke else wl["pairs"]
            quality = run_eval(run, models, cfg, args.seed, pairs, args.seconds,
                               args.smoke)
            seqs_per_op = 1
        else:
            quality = run_training(run, cfg, out_dir, args.seconds, args.smoke)
            seqs_per_op = cfg.batch_size
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    untraced = np.asarray(run.op_ms[False])
    samples = {"op_ms": len(untraced), "run_s": len(run.run_s)}
    raw: dict = {}
    if args.trace:
        traced = np.asarray(run.op_ms[True])
        metrics = {name: float(np.median([m[name] for m in run.layers]))
                   for name in run.layers[0]} if run.layers else {}
        if len(traced) and len(untraced):
            metrics["trace.overhead_pct"] = 100.0 * (
                np.median(traced) / np.median(untraced) - 1.0)
        samples["traced_reps"] = len(run.layers)
    elif len(untraced):
        scaled = np.asarray(run.scaled_ms)
        samples["kernel_ms"] = len(run.kernel_ms)
        raw = {"op_ms_p50": float(np.median(untraced)),
               "op_ms_p95": float(np.percentile(untraced, 95)),
               "seqs_per_s": float(seqs_per_op * 1000.0 * len(untraced) / untraced.sum()),
               "run_s": float(np.median(run.run_s)),
               "kernel_ms": float(np.median(run.kernel_ms))}
        metrics = {
            "op_ms_p50": float(np.median(scaled)),
            "op_ms_p95": float(np.percentile(scaled, 95)),
            "seqs_per_s": float(seqs_per_op * 1000.0 * len(scaled) / scaled.sum()),
            "run_s": float(np.median(run.scaled_run_s)),
            "mean_loss": quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {}
    print(json.dumps({"attempted": run.attempted, "failed": run.failed,
                      "problems": run.problems, "metrics": metrics,
                      "samples": samples, "raw": raw, **setup,
                      "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
