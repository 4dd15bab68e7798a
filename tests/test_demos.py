"""Every fast demo runs to completion against the current API.

Demos 06 (about 5 s) and 07 (about 40 s) train for hundreds of steps and are
left out to keep the suite quick."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-58]_*.py"))


def test_fast_demo_set_is_complete():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "08"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
