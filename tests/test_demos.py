"""Every narrative demo runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr[-2000:]
