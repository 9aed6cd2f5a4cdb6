"""Smoke test for the narrative scripts under demos/: each runs to the end.

Each demo runs in a fresh interpreter from an empty directory, with the
afsat package under test on ``PYTHONPATH`` and the temporary directory
pointed at an empty directory of its own, which must stay empty: a demo
cleans up what it writes there.
"""

import os
import subprocess
import sys

import pytest

import afsat

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")
# the directory the afsat package under test was imported from
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(afsat.__file__)))


@pytest.mark.parametrize("demo", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_runs(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT, TMPDIR=str(tmpdir))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert os.listdir(tmpdir) == []
