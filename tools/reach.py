"""List what of ``src/avmoe`` no entry point runs or varies.

It traces, in this one process, every entry point a user or the benchmark
has:

- ``python -m avmoe.cli train`` on each config of ``tools/same_runs.py``,
  plus one run with ``--seed`` and one with ``AVMOE_SEED`` set;
- ``avmoe eval`` (with and without ``--snr-sweep``) and ``avmoe report`` on
  four of those runs;
- ``avmoe gradcheck --seeds 1``;
- ``perfbench/worker.py --setup-only`` and ``--smoke`` on each workload;
- the demos.

The one traced pass records the lines each frame runs, its line-to-line
arcs, and the arguments of each call. Then it prints three lists:

1. each never-run line of ``src/avmoe`` that is not part of a ``raise``
   statement or an ``except`` handler, grouped by the function or class that
   holds it, and the line totals;
2. each ``if`` statement that ran but whose true or false arm no entry point
   took, except a guard whose body is one ``raise``;
3. each defaulted parameter of a module-level function or a method that
   every call left at its default value.

Tests are not entry points: a line, an arm or an argument that only a test
runs or passes is listed.

Usage, from the repository root (about 40 s on one core)::

    python tools/reach.py
    python tools/reach.py --keep tools/reach_keep.json

Without options it exits 0. With ``--keep`` it then checks every listed
entry against the keep list: a JSON list of entries, each giving the
``file`` (relative to ``src/``), the qualified ``name`` of the function or
class that holds it, its ``kind`` (``line``, ``arm`` or ``parameter``), its
``text`` (the never-run line's source, stripped; the arm as listed, such as
``never true: if idx.size == 0``; or ``parameter=default``) and the
``reason`` it stays. No entry holds a line number, so an entry still
matches after its lines move. It prints each listed entry the keep list
lacks and each keep entry that no longer appears, and exits 1 when the
keep list lacks any.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avmoe"
EVALUATED = ("supervised_hierarchical", "supervised_dense_ffn_sgd",
             "uptrain_default_tasks", "combined_seven_tasks")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
RETURN = 0  # the arc target of a frame's return


def _walk(node: ast.AST, scope: str = "<module>"):
    """Each node below ``node``, with the qualified name of the innermost
    function or class holding it, or ``<module>``; a def line and its
    decorators are held by the enclosing scope."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        if isinstance(child, SCOPES):
            yield from _walk(child, f"{scope}.{child.name}" if scope != "<module>"
                             else child.name)
        else:
            yield from _walk(child, scope)


def classify(source: str) -> dict[int, tuple[str, bool]]:
    """Each executable line of ``source`` -> (qualified name of the
    innermost function or class holding it, or ``<module>``; whether it is
    part of a ``raise`` statement or an ``except`` handler)."""
    tree = ast.parse(source)
    owner: dict[int, str] = {}
    error_path: set[int] = set()
    for node, scope in _walk(tree):
        if isinstance(node, SCOPES):
            inner = f"{scope}.{node.name}" if scope != "<module>" else node.name
            for line in range(node.body[0].lineno, node.end_lineno + 1):
                owner[line] = inner
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            error_path.update(range(node.lineno, node.end_lineno + 1))
    lines: set[int] = set()
    stack = [compile(tree, "<source>", "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
        lines |= {line for _, _, line in code.co_lines()
                  if line and (code.co_name == "<module>" or line != code.co_firstlineno)}
    return {line: (owner.get(line, "<module>"), line in error_path) for line in sorted(lines)}


def untaken_arms(source: str, arcs: set[tuple[int, int]]) -> list[tuple[int, str, str, str]]:
    """(line, holder, arm, test) of each ``if`` statement of ``source`` that
    ``arcs`` leave from but never along its ``arm``, "true" or "false"; an
    ``if`` whose body is one ``raise`` is left out.

    The true arm is taken by an arc from a line of the test into the body,
    and the false arm by one from the test to anywhere else: the ``else``
    block, the next statement, or the frame's return (``RETURN``)."""
    untaken = []
    for node, scope in _walk(ast.parse(source)):
        if not isinstance(node, ast.If) or (
                len(node.body) == 1 and isinstance(node.body[0], ast.Raise)):
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        targets = [after for before, after in arcs if before in test and after not in test]
        if not targets:
            continue  # never run: the line list shows it
        text = ast.get_source_segment(source, node.test).split("\n")[0]
        for arm, taken in (("true", any(t in body for t in targets)),
                           ("false", any(t not in body for t in targets))):
            if not taken:
                untaken.append((node.lineno, scope, arm, text))
    return untaken


def _defaults(code, namespace: dict) -> list[list]:
    """[name, default, calls, calls at the default] for each defaulted
    parameter of the function of ``code``, found by its qualified name in its
    module's ``namespace``; none for a nested function or a lambda."""
    target = namespace
    for part in code.co_qualname.split("."):
        target = (target if isinstance(target, dict) else getattr(target, "__dict__", {})
                  ).get(part)
    target = getattr(target, "__func__", target)  # a staticmethod's function
    if getattr(target, "__code__", None) is not code:
        return []
    positional = code.co_varnames[:code.co_argcount]
    defaults = dict(zip(positional[len(positional) - len(target.__defaults__ or ()):],
                        target.__defaults__ or ()))
    return [[name, default, 0, 0]
            for name, default in {**defaults, **(target.__kwdefaults__ or {})}.items()]


def _at_default(value, default) -> bool:
    return value is default or (type(value) is type(default)
                                and isinstance(default, (int, float, str))
                                and value == default)


@dataclass
class Trace:
    """What the traced code of one file set ran, keyed by file name."""

    lines: dict[str, set[int]] = field(default_factory=dict)
    # (line, next line run in the same frame, or RETURN)
    arcs: dict[str, set[tuple[int, int]]] = field(default_factory=dict)
    # function qualname -> its _defaults rows
    params: dict[str, dict[str, list[list]]] = field(default_factory=dict)


@contextlib.contextmanager
def traced(prefix: str):
    """Trace, into the ``Trace`` it yields, the code of every file whose name
    starts with ``prefix`` that the block calls."""
    trace = Trace()
    wanted: dict = {}  # code object -> (line set, arc set, defaults), or None

    def records(name, code, namespace):
        # a comprehension's or a lambda's frame holds no if statement, but
        # shares its lines with one's test
        arcs = (set() if code.co_name.startswith("<") and code.co_name != "<module>"
                else trace.arcs.setdefault(name, set()))
        defaults = _defaults(code, namespace)
        if defaults:  # a module that runs again shares its functions' counts
            defaults = trace.params.setdefault(name, {}).setdefault(code.co_qualname, defaults)
        return trace.lines.setdefault(name, set()), arcs, defaults

    def global_trace(frame, event, arg):
        code = frame.f_code
        seen = wanted.get(code, False)
        if seen is False:
            name = code.co_filename
            seen = wanted[code] = None if not name.startswith(prefix) else records(
                name, code, frame.f_globals)
        if seen is None:
            return None
        lines, arcs, defaults = seen
        if defaults:
            values = frame.f_locals
            for row in defaults:
                row[2] += 1
                row[3] += _at_default(values.get(row[0]), row[1])
        last = frame.f_lineno

        def local_trace(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                lines.add(line)
                arcs.add((last, line))
                last = line
            elif event == "return":
                arcs.add((last, RETURN))
            return local_trace
        return local_trace

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        yield trace
    finally:
        sys.settrace(previous)


def always_default(params: dict[str, list[list]]) -> list[tuple[str, str, int]]:
    """(function, parameter=default, calls) of each parameter in ``params``
    (a ``Trace.params`` entry) that every call left at its default."""
    return [(function, f"{name}={default!r}", calls)
            for function, rows in params.items()
            for name, default, calls, at_default in rows if calls and calls == at_default]


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


class Finding(NamedTuple):
    """One listed entry, as the keep list names it: no line number."""

    file: str
    name: str
    kind: str  # line | arm | parameter
    text: str


@dataclass
class Scan:
    """What ``scan_file`` found in one file: the listed entries, each with
    where it is (line numbers or a call count) for the report, and the line
    and ``if`` totals."""

    findings: list[tuple[Finding, str]] = field(default_factory=list)
    total: int = 0
    run: int = 0
    error_path: int = 0
    ifs: int = 0


def scan_file(name: str, source: str, seen: set[int], arcs: set[tuple[int, int]],
              params: dict[str, list[list]]) -> Scan:
    """The entries of one file of ``source``, named ``name``, given the
    lines, arcs and ``Trace.params`` entry its traced run recorded."""
    scan = Scan()
    lines = source.splitlines()
    for line, (owner, is_error_path) in classify(source).items():
        scan.total += 1
        if line in seen:
            scan.run += 1
        elif is_error_path:
            scan.error_path += 1
        else:
            scan.findings.append((Finding(name, owner, "line", lines[line - 1].strip()),
                                  str(line)))
    scan.ifs = sum(isinstance(node, ast.If) and node.lineno in seen
                   for node in ast.walk(ast.parse(source)))
    scan.findings += [(Finding(name, owner, "arm", f"never {arm}: if {test}"), str(line))
                      for line, owner, arm, test in untaken_arms(source, arcs)]
    scan.findings += [(Finding(name, function, "parameter", param), f"{calls} calls")
                      for function, param, calls in always_default(params)]
    return scan


def check_keep(found: list[Finding], keep: list[dict]) -> tuple[list[Finding], list[Finding]]:
    """(each found entry the keep list lacks, each kept entry not found),
    counted as multisets: a line's text may appear twice in one function."""
    kept = Counter(Finding(e["file"], e["name"], e["kind"], e["text"]) for e in keep)
    found = Counter(found)
    return sorted((found - kept).elements()), sorted((kept - found).elements())


def report(scans: list[Scan], failed: list[str]) -> None:
    """Print the three lists and their totals."""
    for scan in scans:
        held: dict[tuple[str, str], list[str]] = {}
        for finding, where in scan.findings:
            if finding.kind == "line":
                held.setdefault((finding.file, finding.name), []).append(where)
        for (file, owner), lines in held.items():
            print(f"{file} {owner}: " + ", ".join(lines))
    for line in failed:
        print(f"entry point failed, so its lines may be missing: {line}")
    total, run, error_path = (sum(getattr(s, a) for s in scans)
                              for a in ("total", "run", "error_path"))
    entries = [(f, where) for s in scans for f, where in s.findings]
    arms = [f"{f.file} {f.name} {where}: {f.text}" for f, where in entries if f.kind == "arm"]
    params = [f"{f.file} {f.name}({f.text}): {where}" for f, where in entries
              if f.kind == "parameter"]
    print(f"{total} executable lines in src/avmoe, {run} run; of the "
          f"{total - run} never run, {error_path} are in a raise statement or an "
          f"except handler and {total - run - error_path} are listed above")
    print("\n".join(["", *arms]))
    print(f"{sum(s.ifs for s in scans)} if statements run; {len(arms)} above have an arm no "
          f"entry point takes (a guard whose body is one raise is not listed)")
    print("\n".join(["", *params]))
    print(f"{len(params)} defaulted parameters above are left at their default "
          f"by every call")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="List what of src/avmoe no entry point "
                                                 "runs or varies.")
    parser.add_argument("--keep", type=Path, help="check the listed entries against this "
                                                  "keep list (JSON); exit 1 on one it lacks")
    args = parser.parse_args(argv)
    keep = None if args.keep is None else json.loads(args.keep.read_text())
    cwd, sys_argv = os.getcwd(), sys.argv
    with tempfile.TemporaryDirectory(prefix="reach_") as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    traced(str(PACKAGE) + os.sep) as trace:
                failed = _run_entry_points(Path(work))
        finally:
            os.chdir(cwd)
            sys.argv = sys_argv

    scans = [scan_file(str(path.relative_to(ROOT / "src")), path.read_text(),
                       trace.lines.get(str(path), set()), trace.arcs.get(str(path), set()),
                       trace.params.get(str(path), {}))
             for path in sorted(PACKAGE.glob("*.py"))]
    report(scans, failed)
    if keep is None:
        return 0
    unlisted, stale = check_keep([f for s in scans for f, _ in s.findings], keep)
    print()
    for f in unlisted:
        print(f"not on the keep list: {f.file} {f.name} {f.kind}: {f.text}")
    for f in stale:
        print(f"stale keep entry, no longer listed: {f.file} {f.name} {f.kind}: {f.text}")
    print(f"{len(keep)} keep entries; {len(unlisted)} listed entries not on the keep list, "
          f"{len(stale)} stale keep entries")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
