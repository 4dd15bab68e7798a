"""Command-line entry point.

Subcommands:
  train <config.json> [--run-dir DIR] [--seed N]
  eval --checkpoint CKPT [--config CFG] [--preset P] [--snr-sweep] [--pairs N] [--seed N]
  gradcheck [--module M] [--seeds N]
  report --run-dir DIR

Exit codes: 0 success, 2 configuration/usage error, 3 numeric abort. Any
other exception is an internal error and propagates with its traceback.
The AVMOE_SEED environment variable overrides the config seed; an explicit
--seed flag wins over both. `eval` uses the eval seed and pair count of
`train`, so it reproduces a run's reported TERs and group-load table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from .corruption import PRESETS
from .gradcheck import CASES, DEFAULT_SEEDS, TOLERANCE
from .gradcheck import run as run_gradcheck
from .moe_losses import UnsupportedConfigError
from .routing import RoutingConfigError
from .tensor import NumericError, ShapeError
from .trainer import (
    AV_SNR_CHOICES, EVAL_SEED_OFFSET, ConfigError, DivergenceError, TrainConfig,
    build_model, eval_group_load_vs_snr, eval_ter, train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="avmoe")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training regime from a JSON config")
    p_train.add_argument("config")
    p_train.add_argument("--run-dir", default="run")
    p_train.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", default=None,
                        help="config JSON; defaults to config.json beside the checkpoint")
    p_eval.add_argument("--preset", choices=PRESETS, default="none")
    p_eval.add_argument("--snr-sweep", action="store_true",
                        help="emit the group load vs SNR table")
    p_eval.add_argument("--pairs", type=int, default=None,
                        help="eval pairs; defaults to the config's eval_pairs")
    p_eval.add_argument("--seed", type=int, default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--module", choices=sorted(CASES), default=None)
    p_grad.add_argument("--seeds", type=int, default=DEFAULT_SEEDS)

    p_report = sub.add_parser("report", help="print the summary of a finished run")
    p_report.add_argument("--run-dir", required=True)
    return parser


def _load_config(path: str, seed_override: int | None) -> TrainConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if seed_override is not None:
        raw["seed"] = seed_override
    elif "AVMOE_SEED" in os.environ:
        try:
            raw["seed"] = int(os.environ["AVMOE_SEED"])
        except ValueError:
            raise ConfigError(
                f"AVMOE_SEED={os.environ['AVMOE_SEED']!r} is not an integer")
    return TrainConfig.from_dict(raw)


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    made = not os.path.isdir(args.run_dir)
    try:
        os.makedirs(args.run_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create run directory {args.run_dir}: {e}")
    try:
        report = train(cfg, run_dir=args.run_dir)
    except BaseException:
        if made:  # a failed run leaves no directory behind
            shutil.rmtree(args.run_dir, ignore_errors=True)
        raise
    print(f"run written to {args.run_dir}")
    for name, value in sorted(report.final_losses.items()):
        print(f"  final {name}: {value:.6f}")
    for preset, value in sorted(report.ter.items()):
        print(f"  ter[{preset}]: {value:.4f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.pairs is not None and args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
    config_path = args.config or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "config.json")
    cfg = _load_config(config_path, args.seed)
    model = build_model(cfg)
    try:
        model.load_checkpoint(args.checkpoint)
    except (OSError, KeyError, ValueError, ShapeError) as e:
        raise ConfigError(f"cannot load checkpoint: {e}")
    pairs = cfg.eval_pairs if args.pairs is None else args.pairs
    seed = cfg.seed + EVAL_SEED_OFFSET
    ter = eval_ter(model, cfg.generator, pairs, args.preset, seed=seed)
    print(f"ter[{args.preset}]: {ter:.4f}")
    if args.snr_sweep:
        table = eval_group_load_vs_snr(model, cfg.generator, list(AV_SNR_CHOICES),
                                       pairs=max(pairs // 2, 4), seed=seed)
        print(",".join(table.header))
        for row in table.rows:
            print(",".join(repr(float(v)) for v in row))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(module=args.module, seeds=args.seeds)
    worst = 0.0
    for name, err in sorted(results.items()):
        print(f"{name}: {err:.3e}")
        worst = max(worst, err)
    if worst >= TOLERANCE:
        print(f"FAIL: max relative error {worst:.3e} >= {TOLERANCE:.0e}")
        return EXIT_NUMERIC
    print(f"ok: {len(results)} cases, max relative error {worst:.3e}")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = os.path.join(args.run_dir, "summary.json")
    try:
        with open(path) as f:
            summary = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read run summary: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}")
    if not isinstance(summary, dict):
        raise ConfigError(f"{path} holds a JSON {type(summary).__name__}, not an object")
    for key in ("loss_curves", "expert_load", "flops", "ter"):
        if key not in summary:
            raise ConfigError(f"summary is missing key {key!r}")
    for entry in (summary.get("loss_curves"), summary.get("expert_load"),
                  summary.get("group_load_vs_snr")):
        if isinstance(entry, dict) and "file" in entry:
            if not isinstance(entry["file"], str):
                raise ConfigError(f"summary file reference {entry['file']!r} is not a string")
            ref = os.path.join(args.run_dir, entry["file"])
            if not os.path.exists(ref):
                raise ConfigError(f"summary references missing file {entry['file']}")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    handlers = {"train": _cmd_train, "eval": _cmd_eval,
                "gradcheck": _cmd_gradcheck, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except (ConfigError, UnsupportedConfigError, RoutingConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NumericError) as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
