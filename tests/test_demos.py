"""Every demo script runs to completion.

Each demo runs in a child interpreter, which finds the checkout's src/
through the PYTHONPATH that conftest.py sets.  Demos 02 and 03 drive
delete, unlearn_batch and eager mode on forests larger than the unit
tests build.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, demo], cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
