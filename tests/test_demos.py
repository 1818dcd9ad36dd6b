"""Every demo script runs to the end without a numpy RuntimeWarning."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import planemix

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy, so the SVGs a demo writes beside itself land in tmp_path
    script = shutil.copy(demo, tmp_path)
    src = str(Path(planemix.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
