"""Smoke runs of the demos that train a grounder and learn a machine."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, line", [
    ("03_offline_grounding.py", "shortcut-corrected:"),
    ("04_learning_machines_from_traces.py", "equivalent to the target: True"),
])
def test_demo_runs(tmp_path, demo, line):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout
