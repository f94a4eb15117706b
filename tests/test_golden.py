"""Byte-for-byte golden outputs: `multispec fixtures` and the text and json
stdout of the subcommands on the README worked examples. `probe` and
`verify` sample from a seeded generator, so their outputs are fixed too.

To rewrite the files in `tests/golden/` from the code on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from multispec.cli import main

GOLDEN = Path(__file__).parent / "golden"
# The README scenario (a fixed point) and the same matrix off the zero
# pattern, where level functions exist.
RUNNING = json.dumps({"A": [["1", "0", "1"], ["0", "1", "1"]],
                      "blocks": [1, 1, 1], "zeros": [1, 2]})
FREE = json.dumps({"A": [["1", "0", "1"], ["0", "1", "1"]]})
# Larger level trees: two stress matrices of the eliminate benchmark
# (8x3-2 and 6x4-4) and one of its 5x3 generalized instances.
STRESS_8X3 = json.dumps({"A": [[0, 0, 2], [2, 1, 0], [2, 2, 1], [1, 0, 1],
                               [2, 2, 1], [0, 1, 1], [1, 0, 1], [0, 1, 0]]})
STRESS_6X4 = json.dumps({"A": [[1, 1, 2, 2], [0, 2, 2, 0], [2, 1, 2, 0],
                               [1, 2, 0, 2], [1, 2, 0, 1], [0, 0, 0, 2]]})
GENERALIZED_5X3 = json.dumps({"A": [[0, 2, 1], [2, 1, 0], [1, 0, 1],
                                    [2, 2, 1], [2, 0, 1]]})
MAP_SPEC = {"source": {"A": [["1", "0"], ["0", "1"]]},
            "target": {"A": [["3", "2"], ["1", "1"]]},
            "components": ["z1^3*z2", "z1^2*z2"]}
CALLS = {
    "pipeline": ["pipeline", RUNNING],
    "levels": ["levels", FREE, "--generalized"],
    "levels-8x3": ["levels", STRESS_8X3],
    "levels-6x4": ["levels", STRESS_6X4],
    "levels-5x3-generalized": ["levels", GENERALIZED_5X3, "--generalized"],
    "multicone": ["multicone", RUNNING],
    "closure": ["closure", RUNNING],
    "project": ["project", RUNNING, "--drop", "1"],
    "restrict": ["restrict", "--matrix", RUNNING, "--beta", "1,1,1"],
    "expand": ["expand", RUNNING, "--N", "3,2"],
    "expand-free": ["expand", FREE, "--N", "3,2"],
    "analyze": ["analyze", RUNNING],
    "analyze-free": ["analyze", FREE, "--generalized"],
    "map-check": ["map-check", "MAP_SPEC"],
    "classify2": ["classify2", "--matrix", "[[1,2],[0,1]]"],
    "probe": ["probe", RUNNING, "--zset", "z3=z1*z2", "--samples", "400"],
    "probe-free": ["probe", FREE, "--zset", "z3=z1*z2", "--samples", "400"],
    "verify": ["verify", FREE, "--function", "z1*z2 - 2/3*z1^3",
               "--N", "2,1", "--samples", "300"],
    "verify-low": ["verify", FREE, "--function", "z1*z2 - 2/3*z1^3",
                   "--N", "1,0", "--samples", "300"],
}
CASES = [("fixtures", "text", ["fixtures"])] + [
    (name, fmt, ["--format", fmt, *args])
    for name, args in CALLS.items() for fmt in ("text", "json")]


def stdout_of(argv, tmp: Path) -> str:
    spec = tmp / "map.json"
    spec.write_text(json.dumps(MAP_SPEC))
    argv = [str(spec) if a == "MAP_SPEC" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name, fmt, argv", CASES,
                         ids=[f"{name}-{fmt}" for name, fmt, _ in CASES])
# the 8x3 stress matrix repeats two rows, which the loader warns about on
# stderr; only stdout is compared
@pytest.mark.filterwarnings("ignore:rows .* coincide:UserWarning")
def test_output_matches_golden(name, fmt, argv, tmp_path):
    want = (GOLDEN / f"{name}.{fmt}").read_text()
    assert stdout_of(argv, tmp_path) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, fmt, argv in CASES:
            (GOLDEN / f"{name}.{fmt}").write_text(stdout_of(argv, Path(tmp)))
