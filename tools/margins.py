"""Acceptance criteria 6, 7 and 8 measured at several seeds.

The measurements are ``specialization`` and ``criterion_8`` of
``tests/test_acceptance.py``, the ones ``test_06``, ``test_07`` and
``test_08`` assert on at their own seed, and the thresholds are that file's
constants, so the configs, probe settings and thresholds cannot drift from
the tests'. For each seed it trains:

- the biased and the control run of ``SPECIALIZATION_BASE`` (criteria 6
  and 7): group affinities of both, and the biased run's Spearman rho
  between audio SNR and visual group load;
- the full (MASK, ACP, VCP) and the MASK-only control uptraining runs
  (criterion 8): the representation distance change, then both fine-tuned
  through ``combined_pipeline`` and scored by eval-fullnoise TER.

A positive margin means the seed passes:

- affinity margin = the smaller biased affinity - MIN_AFFINITY (0.9);
- control margin = how far the nearer control affinity sits inside
  CONTROL_AFFINITY ([0.35, 0.65]);
- rho margin = MAX_RHO (-0.8) - rho;
- distance margin = MAX_DISTANCE_CHANGE (-0.30) - relative change;
- TER margin = control TER - full TER (the test needs full < control).

It also counts the seeds at which the full TER is below the control TER.

Usage, from the repository root (about 80 s per seed on one core)::

    python tools/margins.py --seeds 0 1 2 3
    python tools/margins.py --seeds 0 1 2 3 --out MARGINS.json --label mine

With ``--out``, the results are stored under ``--label`` in that JSON file,
next to whatever other labels it already holds. The runs are deterministic,
so a rerun at a seed gives the same numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import (  # noqa: E402
    CONTROL_AFFINITY, MAX_DISTANCE_CHANGE, MAX_RHO, MIN_AFFINITY, criterion_8,
    specialization,
)


def margins(seed: int) -> dict:
    spec = specialization(seed)
    biased, control = spec["biased"], spec["control"]
    low, high = CONTROL_AFFINITY
    result = criterion_8(seed)
    change = result["distance"]["relative_change"]
    full_ter, ctrl_ter = result["full_ter"], result["ctrl_ter"]
    return {"affinity_audio": biased["audio_group_on_audio_tokens"],
            "affinity_video": biased["video_group_on_video_tokens"],
            "affinity_margin": min(biased.values()) - MIN_AFFINITY,
            "control_audio": control["audio_group_on_audio_tokens"],
            "control_video": control["video_group_on_video_tokens"],
            "control_margin": min(min(v - low, high - v) for v in control.values()),
            "rho": spec["rho"], "rho_margin": MAX_RHO - spec["rho"],
            "distance_change": change,
            "distance_margin": MAX_DISTANCE_CHANGE - change,
            "full_ter": full_ter, "ctrl_ter": ctrl_ter,
            "ter_margin": ctrl_ter - full_ter}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--out", help="JSON file to store the results in")
    ap.add_argument("--label", default="current", help="key of the results in --out")
    args = ap.parse_args(argv)
    results = {}
    print("seed  affinity  margin  control      margin     rho  margin  "
          "distance  margin  full_ter  ctrl_ter  margin")
    for seed in args.seeds:
        r = results[str(seed)] = margins(seed)
        print(f"{seed:>4}  {min(r['affinity_audio'], r['affinity_video']):.3f}  "
              f"{r['affinity_margin']:+.3f}    "
              f"{r['control_audio']:.3f}/{r['control_video']:.3f}  {r['control_margin']:+.3f}  {r['rho']:+.3f}  {r['rho_margin']:+.3f}    "
              f"{r['distance_change']:+.3f}  {r['distance_margin']:+.3f}     "
              f"{r['full_ter']:.3f}     {r['ctrl_ter']:.3f}  {r['ter_margin']:+.3f}",
              flush=True)
    wins = sum(r["full_ter"] < r["ctrl_ter"] for r in results.values())
    print(f"full TER below control TER at {wins} of {len(results)} seeds")
    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text()) if out.exists() else {}
        stored[args.label] = results
        out.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
