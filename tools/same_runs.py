"""Check that a change leaves training runs byte-identical to another revision.

It extracts ``REV``'s ``src/`` with ``git archive`` into a temporary
directory, trains every config of ``CONFIGS`` once with that tree and once
with this working tree's ``src/``, and compares the two run directories of
each config file by file. Each run is its own ``python -m avmoe.cli train``
subprocess with ``PYTHONHASHSEED=0``, one BLAS thread and no ``AVMOE_SEED``.

Usage, from the repository root (about 20 s on one core)::

    python tools/same_runs.py --against HEAD
    python tools/same_runs.py --against 776d069

It prints one line per config and exits 0 when every artifact
(``checkpoint.json`` included) is byte-identical, and 1 after naming every
file that differs or exists on one side only, and every run that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MOE = {
    "dense_ffn": {"mode": "dense_ffn"},
    "sparse_topk": {"mode": "sparse_topk", "n_experts": 4, "k": 2},
    "hard": {"mode": "hard", "n_groups": 2, "n_per_group": 2, "k": 2},
    "hierarchical": {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4, "m": 2,
                     "k_per_group": 1},
}
BASE = {
    "regime": "supervised_moe", "steps": 8, "batch_size": 2, "lr": 1e-3,
    "optimizer": "adam", "seed": 0, "eval_pairs": 4, "uptrain_steps": 4,
    "model": {"moe": MOE["hierarchical"]}, "generator": {"vocab": 16},
}
UPTRAIN = {"regime": "cav2vec_uptrain"}
COMBINED = {"regime": "combined_pipeline"}

# name -> overrides of BASE
CONFIGS = {
    "supervised_hierarchical": {},
    "supervised_dense_ffn_sgd": {"optimizer": "sgd", "lr": 0.1,
                                 "model": {"moe": MOE["dense_ffn"]}},
    "supervised_sparse_topk": {"model": {"moe": MOE["sparse_topk"]}},
    "supervised_hard_sgd": {"optimizer": "sgd", "lr": 0.1, "model": {"moe": MOE["hard"]}},
    "supervised_kpg2_identical_experts": {
        "identical_expert_init": True, "inter_lr_scale": 10.0,
        "model": {"moe": {**MOE["hierarchical"], "k_per_group": 2}}},
    "freeze_router_warmup": {"router_warmup_steps": 3},
    # SGD with a scaled inter router during and after a router warm-up: the
    # packed runs of one step size meet frozen and unselected parameters
    "sgd_scaled_router_warmup": {"optimizer": "sgd", "lr": 0.1, "inter_lr_scale": 10.0,
                                 "router_warmup_steps": 3},
    "freeze_encoder": {"freeze_encoder_steps": 3},
    "freeze_experts": {"freeze_experts_steps": 3, "identical_expert_init": True},
    "uptrain_default_tasks": UPTRAIN,
    "uptrain_sgd": {**UPTRAIN, "optimizer": "sgd", "lr": 0.1},
    "uptrain_acp_mlm": {**UPTRAIN, "tasks": ["ACP", "MLM"]},
    "uptrain_mask_only": {**UPTRAIN, "tasks": ["MASK"]},
    # no masked input: the variant heads only
    "uptrain_variants_only": {**UPTRAIN, "tasks": ["AVCP", "mVCP"]},
    # perfbench/worker.py's uptrain_long workload at its seed-1 settings
    "uptrain_long": {**UPTRAIN, "steps": 100, "batch_size": 4, "seed": 1,
                     "tokens_min": 8, "tokens_max": 16, "tasks": ["MASK", "ACP", "VCP"],
                     "eval_pairs": 16, "model": {"moe": MOE["dense_ffn"]}},
    # one frame per token and 1-3 tokens: one-frame pairs that score frames,
    # whose teacher products are one-row products
    "uptrain_one_frame_pairs": {**UPTRAIN, "steps": 40, "batch_size": 4, "tokens_min": 1,
                                "tokens_max": 3,
                                "generator": {"vocab": 16, "frames_per_token": 1}},
    "combined_seven_tasks": {**COMBINED, "tasks": ["VCP", "MLM", "mACP", "ACP", "MASK",
                                                   "AVCP", "mVCP"]},
    "combined_sparse_topk_sgd": {**COMBINED, "optimizer": "sgd", "lr": 0.1,
                                 "model": {"moe": MOE["sparse_topk"]}},
    "combined_kpg2_mlm_vcp_sgd": {**COMBINED, "optimizer": "sgd", "lr": 0.1,
                                  "tasks": ["MLM", "VCP"],
                                  "model": {"moe": {**MOE["hierarchical"], "k_per_group": 2}}},
    # three encoder and three decoder layers: gradient walks deeper than two
    # layers, the features taking three layers' cross-attention keys and values
    "combined_three_layers": {**COMBINED, "model": {"n_enc": 3, "n_dec": 3,
                                                    "moe": MOE["hierarchical"]}},
    "supervised_seed1": {"seed": 1},
    "combined_seed2": {**COMBINED, "seed": 2},
}


def train_all(src: Path, out: Path) -> dict[str, str]:
    """Train every config with the package in ``src`` into ``out/<name>``;
    returns the last stderr line of each run that failed."""
    env = {k: v for k, v in os.environ.items() if k != "AVMOE_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = {}
    for name, over in CONFIGS.items():
        cfg_path = out / f"{name}.json"
        cfg_path.write_text(json.dumps({**BASE, **over}))
        proc = subprocess.run(
            [sys.executable, "-m", "avmoe.cli", "train", str(cfg_path),
             "--run-dir", str(out / name)],
            env=env, cwd=out, capture_output=True, text=True)
        if proc.returncode:
            failed[name] = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
    return failed


def differing_files(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side only)."""
    files = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    diff = [str(rel) for rel in files
            if not ((a / rel).is_file() and (b / rel).is_file()
                    and (a / rel).read_bytes() == (b / rel).read_bytes())]
    return len(files), diff


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision whose src/ the runs are compared with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_runs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                                  args.against, "src"], capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive.stdout,
                       check=True)
        runs = {}
        for side, src in (("rev", tmp / "rev" / "src"), ("tree", ROOT / "src")):
            (tmp / side / "runs").mkdir(parents=True)
            runs[side] = train_all(src, tmp / side / "runs")
        bad = 0
        for name in CONFIGS:
            failures = [f"{side}: {runs[side][name]}" for side in runs if name in runs[side]]
            if failures:
                bad += 1
                print(f"FAILED {name}: " + "; ".join(failures))
                continue
            n, diff = differing_files(tmp / "rev" / "runs" / name, tmp / "tree" / "runs" / name)
            bad += bool(diff)
            print(f"{'same' if not diff else 'DIFFERS'} {name}: {n} files"
                  + "".join(f"\n  differs: {name}/{rel}" for rel in diff))
    print(f"{len(CONFIGS) - bad} of {len(CONFIGS)} runs byte-identical to {args.against}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
