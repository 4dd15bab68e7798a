"""Golden trajectories: one small run per regime matches committed values.

Every ``steps.csv`` cell and both summary TERs of each run in ``CONFIGS``
must equal the values in ``golden.json`` beside this file to a relative
tolerance of 1e-9. Bytes are not compared, so a last-bit BLAS difference
passes, but a changed constant (an init scale, a momentum, an eval seed)
does not.

A change that moves a trajectory on purpose rewrites the values by running
this module as a script from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from avmoe.trainer import TrainConfig, train

GOLDEN = Path(__file__).resolve().parent / "golden.json"

BASE = {
    "steps": 8, "batch_size": 2, "lr": 1e-3, "optimizer": "adam", "seed": 0,
    "eval_pairs": 4, "uptrain_steps": 4, "generator": {"vocab": 16},
    "model": {"moe": {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4, "m": 2,
                      "k_per_group": 1}},
}
# no identical_expert_init: it amplifies rounding differences
CONFIGS = {
    "supervised_moe": {**BASE, "regime": "supervised_moe"},
    "cav2vec_uptrain": {**BASE, "regime": "cav2vec_uptrain"},
    "combined_pipeline": {**BASE, "regime": "combined_pipeline"},
}


def trajectory(config: dict) -> dict:
    """The step table and the summary TERs of one in-process run."""
    report = train(TrainConfig.from_dict(config))
    return {"header": report.steps_table.header, "rows": report.steps_table.rows,
            "ter": report.ter}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trajectory_matches_golden_values(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = trajectory(CONFIGS[name])
    assert got["header"] == want["header"]
    assert len(got["rows"]) == len(want["rows"])
    for i, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        for column, v, w in zip(want["header"], row, ref):
            assert math.isclose(v, w, rel_tol=1e-9), (name, i, column, v, w)
    assert set(got["ter"]) == set(want["ter"])
    for preset, w in want["ter"].items():
        assert math.isclose(got["ter"][preset], w, rel_tol=1e-9), (name, preset)


def main() -> int:
    values = {name: trajectory(config) for name, config in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
