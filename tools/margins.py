"""Acceptance criterion 8 (uptraining tightens corrupted representations and
lowers fine-tuned TER) measured at several seeds.

The measurement is ``criterion_8`` of ``tests/test_acceptance.py``, the one
``test_08_representation_tightening`` asserts on at its own seed, so the
configs, probe settings and threshold cannot drift from the test's. For
each seed it trains the full (MASK, ACP, VCP) and the MASK-only control
uptraining runs, measures the representation distance change, then
fine-tunes both through ``combined_pipeline`` and scores eval-fullnoise TER.
A positive margin means the seed passes:

- distance margin = MAX_DISTANCE_CHANGE (-0.30) - relative change;
- TER margin = control TER - full TER (the test needs full < control).

Usage, from the repository root (about 40 s per seed on one core)::

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

from test_acceptance import MAX_DISTANCE_CHANGE, criterion_8  # noqa: E402


def margins(seed: int) -> dict:
    result = criterion_8(seed)
    change = result["distance"]["relative_change"]
    full_ter, ctrl_ter = result["full_ter"], result["ctrl_ter"]
    return {"distance_change": change,
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
    print("seed  distance  margin   full_ter  ctrl_ter  margin")
    for seed in args.seeds:
        r = results[str(seed)] = margins(seed)
        print(f"{seed:>4}  {r['distance_change']:+.3f}  {r['distance_margin']:+.3f}   "
              f"{r['full_ter']:.3f}     {r['ctrl_ter']:.3f}     {r['ter_margin']:+.3f}",
              flush=True)
    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text()) if out.exists() else {}
        stored[args.label] = results
        out.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
