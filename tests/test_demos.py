"""Every narrative demo runs to completion against this checkout and
prints its golden output, byte for byte (`tests/golden/demo-*.text`;
rewritten with the other golden files by `tests/test_golden.py`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def golden_of(demo: Path) -> Path:
    return GOLDEN / f"demo-{demo.stem}.text"


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=cwd, env=env)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    res = run_demo(demo, tmp_path)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout == golden_of(demo).read_text()
