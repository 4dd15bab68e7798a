"""List the lines of ``src/avmoe`` that no entry point runs.

It line-traces, in this one process, every entry point a user or the
benchmark has:

- ``python -m avmoe.cli train`` on each config of ``tools/same_runs.py``,
  plus one run with ``--seed`` and one with ``AVMOE_SEED`` set;
- ``avmoe eval`` (with and without ``--snr-sweep``) and ``avmoe report`` on
  four of those runs;
- ``avmoe gradcheck --seeds 1``;
- ``perfbench/worker.py --setup-only`` and ``--smoke`` on each workload;
- the demos.

Then it prints each never-run line of ``src/avmoe`` that is not part of a
``raise`` statement or an ``except`` handler, grouped by the function or
class that holds it, and the totals. Tests are not entry points: a line
only a test runs is listed.

Usage, from the repository root (about 35 s on one core)::

    python tools/reach.py

It takes no options and always exits 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avmoe"
EVALUATED = ("supervised_hierarchical", "supervised_dense_ffn_sgd",
             "uptrain_default_tasks", "combined_seven_tasks")


def classify(source: str) -> dict[int, tuple[str, bool]]:
    """Each executable line of ``source`` -> (qualified name of the
    innermost function or class holding it, or ``<module>``; whether it is
    part of a ``raise`` statement or an ``except`` handler)."""
    tree = ast.parse(source)
    owner: dict[int, str] = {}
    error_path: set[int] = set()

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # the def line and its decorators run in the enclosing scope
                inner = f"{scope}.{child.name}" if scope != "<module>" else child.name
                for line in range(child.body[0].lineno, child.end_lineno + 1):
                    owner[line] = inner
            if isinstance(child, (ast.Raise, ast.ExceptHandler)):
                error_path.update(range(child.lineno, child.end_lineno + 1))
            visit(child, inner)

    visit(tree, "<module>")
    lines: set[int] = set()
    stack = [compile(tree, "<source>", "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
        lines |= {line for _, _, line in code.co_lines()
                  if line and (code.co_name == "<module>" or line != code.co_firstlineno)}
    return {line: (owner.get(line, "<module>"), line in error_path) for line in sorted(lines)}


def _tracer(hits: dict[str, set[int]]):
    """A ``sys.settrace`` function that records into ``hits`` the lines run
    by the code of every file under ``PACKAGE``."""
    prefix = str(PACKAGE) + os.sep
    wanted: dict = {}  # code object -> its file's hit set, or None

    def global_trace(frame, event, arg):
        code = frame.f_code
        seen = wanted.get(code, False)
        if seen is False:
            seen = wanted[code] = (hits.setdefault(code.co_filename, set())
                                   if code.co_filename.startswith(prefix) else None)
        if seen is None:
            return None

        def local_trace(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local_trace
        return local_trace

    return global_trace


def _run_entry_points(work: Path) -> list[str]:
    """Run every entry point of the module docstring, with ``work`` as
    scratch space and the working directory; returns a line for each one
    that raised."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools"), str(ROOT / "perfbench")]
    import same_runs
    import worker

    failed = []

    def attempt(label: str, run, *args):
        try:
            run(*args)
        except SystemExit:
            pass
        except Exception as exc:  # noqa: BLE001 - the scan goes on and reports it
            failed.append(f"{label}: {type(exc).__name__}: {exc}")

    def avmoe(*args: str):
        sys.argv = ["avmoe", *args]
        attempt(" ".join(sys.argv), runpy.run_module, "avmoe.cli", None, "__main__")

    runs = work / "runs"
    for name, over in same_runs.CONFIGS.items():
        (work / f"{name}.json").write_text(json.dumps({**same_runs.BASE, **over}))
        avmoe("train", f"{name}.json", "--run-dir", str(runs / name))
    avmoe("train", "supervised_hierarchical.json", "--seed", "3", "--run-dir", "seed3")
    os.environ["AVMOE_SEED"] = "4"
    avmoe("train", "supervised_hierarchical.json", "--run-dir", "seed4")
    del os.environ["AVMOE_SEED"]
    for name in EVALUATED:
        avmoe("eval", "--checkpoint", str(runs / name / "checkpoint.json"))
        avmoe("eval", "--checkpoint", str(runs / name / "checkpoint.json"), "--snr-sweep")
        avmoe("report", "--run-dir", str(runs / name))
    avmoe("gradcheck", "--seeds", "1")
    for workload in sorted(worker.WORKLOADS):
        for mode in ("--setup-only", "--smoke"):
            attempt(f"worker.py --workload {workload} {mode}", worker.main,
                    ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace",
                     "0", "--spawned-at", str(time.monotonic()), mode])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        attempt(f"demos/{demo.name}", runpy.run_path, str(demo), None, "__main__")
    return failed


def main() -> int:
    hits: dict[str, set[int]] = {}
    cwd, argv = os.getcwd(), sys.argv
    with tempfile.TemporaryDirectory(prefix="reach_") as work:
        os.chdir(work)
        sys.settrace(_tracer(hits))
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                failed = _run_entry_points(Path(work))
        finally:
            sys.settrace(None)
            os.chdir(cwd)
            sys.argv = argv

    total = run = error_path = 0
    for path in sorted(PACKAGE.glob("*.py")):
        seen = hits.get(str(path), set())
        missed: dict[str, list[int]] = {}
        for line, (owner, is_error_path) in classify(path.read_text()).items():
            total += 1
            if line in seen:
                run += 1
            elif is_error_path:
                error_path += 1
            else:
                missed.setdefault(owner, []).append(line)
        for owner, lines in missed.items():
            print(f"{path.relative_to(ROOT / 'src')} {owner}: "
                  + ", ".join(map(str, lines)))
    for line in failed:
        print(f"entry point failed, so its lines may be missing: {line}")
    listed = total - run - error_path
    print(f"{total} executable lines in src/avmoe, {run} run; of the "
          f"{total - run} never run, {error_path} are in a raise statement or an "
          f"except handler and {listed} are listed above")
    return 0


if __name__ == "__main__":
    sys.exit(main())
