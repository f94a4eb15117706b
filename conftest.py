"""Put `src` on the import path of the `multispec` subprocesses the tests
start, as `pythonpath` in pyproject.toml does for the test process, so that
plain `python -m pytest` from the repository root runs the whole suite."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
