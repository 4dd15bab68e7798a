"""Benchmark launcher for avmoe.

    python3 perfbench/run.py --workload sup_hier --seed 1 --seconds 30 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) in a fresh
worker process pinned to one BLAS/OpenMP thread. With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics; the
last line of stdout is the JSON result. The command exits non-zero when a
correctness check fails, and prints no result when the program cannot run.
Only the standard library is imported here, so the worker alone pays for
numpy and avmoe.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUDGET_S = 170.0      # every process this run starts ends within this
SETUP_PROBES = 5      # extra fresh processes that only time set-up
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    """A worker process failed before producing a result."""


def _spawn(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON result line."""
    env = {**os.environ, **PINNED}
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _units() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="a few steps per repetition, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        common.append("--smoke")
    try:
        units = _units()
        setups = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_PROBES):
                setups.append(_spawn(common + ["--setup-only"], deadline))
        result = _spawn(common, deadline)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    samples = result["samples"]
    if not args.trace:
        setups.append(result)
        metrics["setup_s"] = statistics.median(s["setup_ref_s"] for s in setups)
        result["raw"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        samples["setup_s"] = len(setups)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={json.dumps(samples)}")
    print(f"# env {json.dumps(result['env'])}")
    if result["raw"]:
        print(f"# unscaled {json.dumps(result['raw'])}")
    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:14.6g} {units.get(name, '')}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
