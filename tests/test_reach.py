"""tools/reach.py: its classifier finds each executable line, the function or
class that holds it, and whether it belongs to an error path; its keep list
names entries without line numbers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import reach  # noqa: E402


def test_lines_are_classified_by_owner_and_error_path():
    source = ("import os\n"
              "def f(x):\n"
              "    '''Doc.'''\n"
              "    try:\n"
              "        return g(\n"
              "            x)\n"
              "    except KeyError:\n"
              "        pass\n"
              "    raise ValueError(\n"
              "        'no')\n"
              "\n"
              "class C:\n"
              "    def m(self):\n"
              "        return [y for y in self]\n")
    assert reach.classify(source) == {
        1: ("<module>", False), 2: ("<module>", False),
        4: ("f", False), 5: ("f", False), 6: ("f", False),
        7: ("f", True), 8: ("f", True), 9: ("f", True), 10: ("f", True),
        12: ("<module>", False), 13: ("C", False), 14: ("C.m", False)}


TRACED = ("def f(x, scale=2.0, eps=1e-6):\n"
          "    if x > 0:\n"
          "        y = x\n"
          "    else:\n"
          "        y = -x\n"
          "    if any(v >= 0 for v in [y]):\n"
          "        y = y * scale\n"
          "    if y is None:\n"
          "        raise ValueError('no')\n"
          "    return y + eps\n"
          "\n"
          "def g(flag):\n"
          "    if flag:\n"
          "        return 1\n"
          "\n"
          "f(1.0)\n"
          "f(-1.0, scale=3.0)\n"
          "g(True)\n"
          "g(False)\n")


def test_arcs_and_arguments_find_untaken_arms_and_unvaried_defaults(tmp_path):
    """Both arms of ``x > 0`` and of ``flag`` (its false arm returns) are
    taken, the test of line 6 is never false (the return of its generator's
    own frame is no arm of it), the guard before a raise is not listed, and
    of f's defaults only ``eps`` is never passed."""
    name = str(tmp_path / "tiny.py")
    with reach.traced(str(tmp_path)) as trace:
        exec(compile(TRACED, name, "exec"), {})
    assert reach.untaken_arms(TRACED, trace.arcs[name]) == [(6, "f", "false", "any(v >= 0 for v in [y])")]
    assert reach.always_default(trace.params[name]) == [("f", "eps=1e-06", 2)]
    assert trace.lines[name] >= {3, 5, 7, 10, 14} and 9 not in trace.lines[name]


KEPT = ("def f(x):\n"
        "    if x > 0:\n"
        "        return x\n"
        "    return -x\n"
        "\n"
        "f(1.0)\n")
MOVED = "import math\n\n\ndef g():\n    return math.pi\n\n\n" + KEPT + "g()\n"


def _found(tmp_path, source, file_name):
    """The entries ``scan_file`` lists for ``source`` run as a module."""
    path = str(tmp_path / file_name)
    with reach.traced(str(tmp_path)) as trace:
        exec(compile(source, path, "exec"), {})
    scan = reach.scan_file("mod.py", source, trace.lines[path], trace.arcs[path],
                           trace.params.get(path, {}))
    return [finding for finding, _ in scan.findings]


def test_keep_list_follows_moved_lines_and_fails_a_new_unrun_line(tmp_path):
    """A kept entry matches by file, holder, kind and text, so it still
    matches after lines are added above it; a new never-run line (and the
    arm before it) is not on the list, and an entry no longer found is
    stale."""
    found = _found(tmp_path, KEPT, "kept.py")
    assert found == [reach.Finding("mod.py", "f", "line", "return -x"),
                     reach.Finding("mod.py", "f", "arm", "never false: if x > 0")]
    keep = [{**finding._asdict(), "reason": "kept"} for finding in found]
    assert reach.check_keep(_found(tmp_path, MOVED, "moved.py"), keep) == ([], [])
    grown = MOVED.replace("    return math.pi\n",
                          "    if math.pi < 3:\n        return 3\n    return math.pi\n")
    unlisted, stale = reach.check_keep(_found(tmp_path, grown, "grown.py"), keep)
    assert unlisted == [reach.Finding("mod.py", "g", "arm", "never true: if math.pi < 3"),
                        reach.Finding("mod.py", "g", "line", "return 3")]
    assert stale == []
    fixed = MOVED.replace("f(1.0)\n", "f(1.0)\nf(-1.0)\n")
    assert reach.check_keep(_found(tmp_path, fixed, "fixed.py"), keep) == ([], found[::-1])
