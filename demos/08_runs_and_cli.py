"""Run artifacts, determinism, and the command-line front end.

Every training run writes a self-contained directory: the resolved config,
a per-step loss table, a checkpoint, and a summary with FLOPs and error
rates. Identical configs reproduce the loss table byte for byte. The same
operations are reachable through the `avmoe` CLI.
"""

import json
import os
import tempfile

from avmoe.cli import main

with tempfile.TemporaryDirectory() as work:
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as f:
        json.dump({
            "regime": "supervised_moe", "steps": 30, "batch_size": 4,
            "lr": 1e-3, "optimizer": "adam", "seed": 0,
            "model": {"moe": {"mode": "hierarchical", "n_groups": 2,
                              "n_per_group": 4, "m": 2, "k_per_group": 1}},
            "generator": {"vocab": 16},
        }, f)

    run_a = os.path.join(work, "run_a")
    run_b = os.path.join(work, "run_b")
    print("=== avmoe train ===")
    rc = main(["train", cfg_path, "--run-dir", run_a])
    print(f"exit code {rc}; artifacts: {sorted(os.listdir(run_a))}")

    main(["train", cfg_path, "--run-dir", run_b])
    with open(os.path.join(run_a, "steps.csv"), "rb") as f:
        bytes_a = f.read()
    with open(os.path.join(run_b, "steps.csv"), "rb") as f:
        bytes_b = f.read()
    print(f"reruns byte-identical: {bytes_a == bytes_b}")

    print("=== avmoe eval (checkpoint round trip, full-noise preset) ===")
    main(["eval", "--checkpoint", os.path.join(run_a, "checkpoint.json"),
          "--preset", "eval-fullnoise", "--pairs", "4"])

    print("=== avmoe gradcheck --module losses ===")
    main(["gradcheck", "--module", "losses", "--seeds", "2"])

    print("=== error handling ===")
    bad = os.path.join(work, "bad.json")
    with open(bad, "w") as f:
        f.write('{"steps": }')
    rc = main(["train", bad])
    print(f"malformed config exits with code {rc} (2 = config error, 3 = numeric abort)")
