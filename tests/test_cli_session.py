"""The benchmark's `cli-session` calls give their recorded outputs.

Each call of `perfbench/corpus.py`'s `cli_corpus()` runs in-process as
`main(["--format", "json", *args])`, with the map spec written to a
temporary file, and its exit status and the sha256 of its stdout are
compared with `tests/golden/cli-session.json`.  The corpus is only read.

To rewrite the digests from the code on the path:

    PYTHONPATH=src python tests/test_cli_session.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import pytest

from multispec.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).parent / "golden" / "cli-session.json"


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CORPUS = _corpus()
CALLS = CORPUS.cli_corpus()


def digest_of(args, tmp: Path) -> dict:
    """The exit status and the sha256 of stdout of one call."""
    spec = tmp / "map-spec.json"
    spec.write_text(json.dumps(CORPUS.MAP_SPEC))
    argv = ["--format", "json",
            *[str(spec) if a == "MAP_SPEC" else a for a in args]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return {"status": status,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_every_call_has_a_digest():
    ids = [call["id"] for call in CALLS]
    assert len(set(ids)) == len(ids)
    assert sorted(ids) == sorted(json.loads(DIGESTS.read_text()))


@pytest.mark.parametrize("call", CALLS, ids=[call["id"] for call in CALLS])
# random matrices may repeat a row, which the loader warns about on stderr
@pytest.mark.filterwarnings("ignore:rows .* coincide:UserWarning")
def test_output_matches_digest(call, tmp_path):
    want = json.loads(DIGESTS.read_text())[call["id"]]
    assert digest_of(call["args"], tmp_path) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {call["id"]: digest_of(call["args"], Path(tmp))
                   for call in CALLS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
