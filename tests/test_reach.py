"""tools/reach.py: its classifier finds each executable line, the function or
class that holds it, and whether it belongs to an error path."""

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
