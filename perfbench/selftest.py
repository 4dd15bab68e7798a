"""Self-test of the avmoe benchmark.

    python3 perfbench/selftest.py

For each workload it makes a few-step smoke run untraced and two traced
smoke runs with the same seed, and checks that every run passes its
correctness gate, emits exactly the metrics BENCHMARK.json names, and
that the count metrics repeat exactly. It also checks that the benchmark
fails, printing no result, in a directory that holds only BENCHMARK.json
and the benchmark. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import COUNT_METRICS, WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout


def check(cond: bool, msg: str):
    if not cond:
        sys.exit(f"selftest FAILED: {msg}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from worker.WORKLOADS")
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    check(set(COUNT_METRICS) <= expected[1], "count metrics missing from per_layer")
    for workload in sorted(WORKLOADS):
        results = {}
        for trace, tag in ((0, "untraced"), (1, "traced"), (1, "traced again")):
            code, out = run(workload, trace)
            check(code == 0, f"{workload} {tag}: exit code {code}")
            result = json.loads(out.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} {tag}: correctness gate failed")
            check(set(result["metrics"]) == expected[trace],
                  f"{workload} {tag}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ expected[trace])}")
            results[tag] = {k: v["value"] for k, v in result["metrics"].items()}
        for name in COUNT_METRICS:
            a, b = results["traced"][name], results["traced again"][name]
            check(a == b, f"{workload}: {name} does not repeat ({a} vs {b})")
        print(f"selftest {workload}: ok")

    with tempfile.TemporaryDirectory(dir=HERE / ".out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        code, out = run("sup_hier", 0, cwd=Path(bare))
        check(code != 0 and not out.strip(),
              f"bare directory: exit code {code}, output {out!r}")
    print("selftest bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
