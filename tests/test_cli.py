import json
import os
import re
import subprocess
import sys

import pytest

from multispec.cli import main
from test_golden import FREE, RUNNING

SC_RUNNING = json.dumps({"A": [["1", "0", "1"], ["0", "1", "1"]],
                         "zeros": [1, 2]})


def run(*args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "multispec.cli", *args],
                          capture_output=True, text=True, env=env)


def test_pipeline_text_and_json():
    res = run("pipeline", SC_RUNNING)
    assert res.returncode == 0
    assert "Fq" in res.stdout and "t1*t2*t3^(-1)" in res.stdout
    res = run("--format", "json", "pipeline", SC_RUNNING)
    payload = json.loads(res.stdout)
    assert payload["q"] == 2
    assert {"exponents": {"tau:1": "1"}, "value": "0"} in payload["Fq"]


def test_pipeline_does_not_load_numpy():
    # numpy is imported only by the subcommands and functions that sample;
    # the fixtures also evaluate multicone membership
    code = ("import sys, multispec.cli; "
            "rc = multispec.cli.main(sys.argv[1:]); "
            "print('numpy' in sys.modules)")
    for args, expect in ((["pipeline", SC_RUNNING], "Fq"),
                         (["fixtures"], " 0 failures")):
        res = subprocess.run([sys.executable, "-c", code, *args],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert expect in res.stdout
        assert res.stdout.splitlines()[-1] == "False"


BASE_LAYERS = {"multispec", "multispec.cli", "multispec.monomials",
               "multispec.deformation", "multispec.semigroup",
               "multispec.linear"}
# asymptotics loads levels and multicone only in the functions that run them
ASYMPTOTICS_LAYERS = BASE_LAYERS | {"multispec.asymptotics",
                                    "multispec.polynomials"}
EXPANSION_LAYERS = ASYMPTOTICS_LAYERS | {"multispec.levels",
                                         "multispec.multicone"}
SC_PLANE = json.dumps({"A": [["3", "2"], ["1", "1"]]})
MAP_SPEC = {
    "source": {"A": [["1", "0"], ["0", "1"]]},
    "target": {"A": [["3", "2"], ["1", "1"]]},
    "components": ["z1^3*z2", "z1^2*z2"],
}


LAYER_CASES = [
    (["pipeline", SC_RUNNING], BASE_LAYERS),
    (["levels", SC_PLANE, "--generalized"],
     BASE_LAYERS | {"multispec.levels"}),
    (["multicone", SC_RUNNING], BASE_LAYERS | {"multispec.multicone"}),
    (["closure", SC_RUNNING], BASE_LAYERS | {"multispec.multicone"}),
    (["project", SC_PLANE, "--drop", "1"],
     BASE_LAYERS | {"multispec.multicone"}),
    (["restrict", "--matrix", SC_RUNNING, "--beta", "1,0,0"],
     BASE_LAYERS | {"multispec.restriction"}),
    (["probe", SC_RUNNING, "--zset", "z3=0", "--samples", "50"],
     ASYMPTOTICS_LAYERS | {"multispec.multicone"}),
    (["expand", SC_PLANE, "--N", "2,1"],
     ASYMPTOTICS_LAYERS | {"multispec.levels"}),
    (["map-check", "MAP_SPEC"], ASYMPTOTICS_LAYERS),
    (["classify2", "--matrix", "[[1, 2], [0, 1]]"], EXPANSION_LAYERS),
    (["verify", SC_PLANE, "--function", "z1*z2", "--N", "1,1",
      "--samples", "50"], EXPANSION_LAYERS),
    (["analyze", SC_RUNNING], EXPANSION_LAYERS),
    (["fixtures", "--filter", "pipeline-two-actions"],
     EXPANSION_LAYERS | {"multispec.restriction", "multispec.fixtures"}),
]


@pytest.mark.parametrize("args, layers", LAYER_CASES,
                         ids=[args[0] for args, _ in LAYER_CASES])
def test_subcommand_loads_only_its_layers(args, layers, tmp_path):
    # a cold call compiles only the modules its subcommand runs
    spec = tmp_path / "map.json"
    spec.write_text(json.dumps(MAP_SPEC))
    args = [str(spec) if a == "MAP_SPEC" else a for a in args]
    code = ("import sys, multispec.cli; "
            "rc = multispec.cli.main(sys.argv[1:]); "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multispec'))); "
            "sys.exit(rc)")
    res = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert set(res.stdout.splitlines()[-1].split()) == layers


def test_env_var_format():
    res = run("pipeline", SC_RUNNING, env_extra={"MULTISPEC_FORMAT": "json"})
    json.loads(res.stdout)


def test_malformed_scenario_exits_2():
    res = run("pipeline", "{not json")
    assert res.returncode == 2
    assert "parse" in res.stderr


@pytest.mark.parametrize("scenario", [
    {"A": [["1/0", "1"]]},
    {"A": [["1", "0"], ["0", "1"]], "norms": {"1": "1/0"}},
], ids=["entry", "norm"])
def test_zero_denominator_is_an_invalid_scenario(scenario):
    res = run("pipeline", json.dumps(scenario))
    assert res.returncode == 2
    assert res.stderr.startswith("error: invalid scenario: ")
    assert "Traceback" not in res.stderr


def test_levels_and_multicone():
    sc = json.dumps({"A": [["1", "1"], ["0", "1"]]})
    res = run("levels", sc)
    assert res.returncode == 0 and "strict: True" in res.stdout
    res = run("multicone", sc)
    assert "|z2| < eps*|z1|" in res.stdout
    res = run("--format", "latex", "multicone", sc)
    assert "\\epsilon" in res.stdout


def test_levels_generalized():
    # action 3 is not strict, but every member of the generalized family is
    sc = json.dumps({"A": [["1", "0", "0"], ["0", "1", "0"],
                           ["1", "1", "1"], ["1", "1", "0"],
                           ["0", "1", "1"]]})
    res = run("levels", sc, "--generalized")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "rho[3] = 1   strict: False" in lines
    hats = [ln for ln in lines if ln.startswith("rho^[")]
    assert len(hats) == 5 and all(ln.endswith("strict: True") for ln in hats)
    payload = json.loads(run("--format", "json", "levels", sc,
                             "--generalized").stdout)
    assert set(payload) == {"rho", "rho_hat"}


def test_closure_subcommand():
    # the closure gains both flags; a second round adds their product
    sc = json.dumps({"A": [["1", "0", "1"], ["0", "1", "1"],
                           ["1", "1", "1"]]})
    res = run("closure", sc)
    assert res.returncode == 0
    one = res.stdout.splitlines()
    assert "|z1| <= eps^2" in one and "|z2| <= eps^2" in one
    two = run("closure", sc, "--rounds", "2").stdout.splitlines()
    assert two[:len(one)] == one
    assert two[len(one):] == ["|z3| <= eps^3"]
    payload = json.loads(run("--format", "json", "closure", sc).stdout)
    assert len(payload["inequalities"]) == len(one)


class _ClosedPipe:
    """A stdout whose reader has gone: a write (or, for a buffered stream,
    only the flush) raises BrokenPipeError."""

    def __init__(self, fd, buffered):
        self.fd, self.buffered = fd, buffered

    def write(self, text):
        if not self.buffered:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("buffered", [False, True])
def test_closed_stdout_exits_quietly(tmp_path, monkeypatch, capsys, buffered):
    # `multispec closure ... | head -1`: no traceback, status 1, and stdout
    # pointed at devnull for Python's flush at exit
    from multispec.cli import main

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, buffered))
        assert main(["closure", SC_RUNNING]) == 1
        assert capsys.readouterr().err == ""
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_restrict_subcommand():
    sc = json.dumps({"A": [["1", "1", "0"], ["0", "1", "1"]], "zeros": [2]})
    res = run("restrict", "--matrix", sc, "--beta", "1,0,0")
    assert res.returncode == 0
    assert "holds: False" in res.stdout
    assert "t1^(-1)*t2" in res.stdout


def test_expand_and_classify_and_verify():
    sc = json.dumps({"A": [["3", "2"], ["1", "1"]]})
    res = run("expand", sc, "--N", "4,2")
    assert "3*|a1| + 2*|a2| < n1" in res.stdout
    res = run("classify2", "--matrix", "[[1, 2], [0, 1]]")
    assert "m=2,N=3" in res.stdout
    res = run("verify", sc, "--function", "z1*z2", "--N", "1,1",
              "--samples", "150")
    assert "PASS: True" in res.stdout and "skipped" not in res.stdout


def test_verify_reports_points_whose_bound_underflows():
    # at orders this large every sampled remainder bound is 0.0
    args = ("verify", SC_PLANE, "--function", "z1*z2", "--N", "200,200",
            "--samples", "40")
    res = run(*args)
    assert res.returncode == 0
    assert "skipped: 80 sampled points whose remainder bound is 0.0" \
        in res.stdout
    assert json.loads(run("--format", "json", *args).stdout)["skipped"] == 80


def test_verify_fails_when_no_point_bounds_the_remainder():
    # a fit whose every bound is 0.0 has fitted nothing, so it cannot pass
    args = ("verify", SC_PLANE, "--function", "z1*z2", "--N", "200,200",
            "--samples", "40")
    assert "PASS: False" in run(*args).stdout.splitlines()
    assert json.loads(run("--format", "json", *args).stdout)["passed"] is False


def test_probe_subcommand():
    sc = json.dumps({"A": [["1", "0", "1"], ["0", "1", "1"]],
                     "norms": {"3": "1"}})
    res = run("probe", sc, "--zset", "z3=z1*z2", "--samples", "800")
    assert res.returncode == 0 and "in-cone" in res.stdout
    res = run("probe", sc, "--zset", "z3=0", "--samples", "200")
    assert "not-in-cone" in res.stdout


def test_norms_are_rational_strings_or_numbers():
    outs = {run("pipeline", json.dumps(
        {"A": [["1", "0", "1"], ["0", "1", "1"]], "normalized": False,
         "norms": {"3": norm}})).stdout for norm in ("3/2", 1.5)}
    assert len(outs) == 1 and "x3" in outs.pop()


def test_project_subcommand():
    sc = json.dumps({"A": [["1", "1"], ["0", "1"]]})
    res = run("project", sc, "--drop", "1")
    assert res.returncode == 0 and "|z2| < eps^2" in res.stdout


def test_project_output_is_reproducible():
    # two rows share the monomial 1; their order must not follow hashing
    sc = json.dumps({"A": [["2", "1", "2"]]})
    outs = [run("project", sc, "--drop", "1",
                env_extra={"PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "2")]
    assert outs[0] == outs[1]
    ones = [ln for ln in outs[0].splitlines() if " < 1 < " in ln]
    assert ones == ["(1-eps) < 1 < (x2^(-1)+eps)*(x2+eps)",
                    "(1-eps) < 1 < (x3^(-1)+eps)*(x3+eps)"]


def test_expand_at_a_fixed_point():
    res = run("expand", SC_RUNNING, "--N", "2,2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "+ T_{1}: |a1| + |a3| < n1   (3 indices)"
    assert lines[2].startswith("- T_{1,2}: |a1| + |a3| < n1; |a2| + |a3| < n2")
    assert lines[-1] == ("remainder exponent unavailable: level functions "
                         "need a point outside fixed points")
    payload = json.loads(run("--format", "json", "expand", SC_RUNNING,
                             "--N", "2,2").stdout)
    assert payload["remainder"] is None
    assert len(payload["J_terms"]) == 3


def test_map_check_subcommand(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(MAP_SPEC))
    res = run("map-check", str(path))
    assert res.returncode == 0 and "z1^3*z2" in res.stdout


def test_analyze_deterministic():
    a = run("analyze", SC_RUNNING)
    b = run("analyze", SC_RUNNING)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "classification: non-degenerate" in a.stdout


def _main(capsys, *argv):
    """Status, stdout and stderr of one in-process call."""
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def _sections(text: str) -> dict:
    """`analyze` text as its header (key None) and its named sections,
    each section's lines without their indent."""
    sections, name = {None: []}, None
    for line in text.splitlines():
        heading = re.fullmatch(r"(\w+):", line)
        if heading:
            name = heading[1]
            assert name not in sections
            sections[name] = []
        elif name is None:
            sections[None].append(line)
        else:
            assert line.startswith("  ")
            sections[name].append(line[2:])
    return sections


@pytest.mark.parametrize("generalized", [False, True],
                         ids=["plain", "generalized"])
@pytest.mark.parametrize("scenario", [RUNNING, FREE], ids=["running", "free"])
def test_analyze_sections_are_the_subcommands_outputs(scenario, generalized,
                                                      capsys):
    # each section is what its subcommand prints, in text and in json;
    # expand runs at unit orders
    flags = ["--generalized"] if generalized else []
    rc, text, _ = _main(capsys, "analyze", scenario, *flags)
    assert rc == 0
    payload = json.loads(_main(capsys, "--format", "json", "analyze",
                               scenario, *flags)[1])
    sections = _sections(text)
    header = sections.pop(None)
    assert list(sections) == ["pipeline", "levels", "multicone", "closure",
                              "expand"]
    assert set(payload) == {"scenario", *sections}
    assert header[0] == \
        f"classification: {payload['scenario']['classification']}"
    ones = ",".join("1" for _ in json.loads(scenario)["A"])
    calls = {"pipeline": [], "levels": flags, "multicone": [],
             "closure": [], "expand": ["--N", ones]}
    failed = []
    for name, extra in calls.items():
        rc, sub_text, _ = _main(capsys, name, scenario, *extra)
        if rc != 0:
            failed.append(name)
            continue
        assert sections[name] == sub_text.splitlines()
        sub_json = _main(capsys, "--format", "json", name, scenario, *extra)[1]
        assert payload[name] == json.loads(sub_json)
    # only the level functions need a point off the fixed locus
    assert failed == (["levels"] if scenario == RUNNING else [])


def test_analyze_at_a_fixed_point_gives_the_reason(capsys):
    # `levels` exits 1; `analyze` and `expand` print why
    reason = "level functions need a point outside fixed points"
    assert _main(capsys, "levels", RUNNING) == (1, "", f"error: {reason}\n")
    sections = _sections(_main(capsys, "analyze", RUNNING)[1])
    assert sections["levels"] == [f"unavailable: {reason}"]
    assert sections["expand"][-1] == \
        f"remainder exponent unavailable: {reason}"
    payload = json.loads(_main(capsys, "--format", "json", "analyze",
                               RUNNING)[1])
    assert payload["levels"] == {"unavailable": reason}
    assert payload["expand"]["remainder_unavailable"] == reason
    rc, out, _ = _main(capsys, "expand", RUNNING, "--N", "1,1")
    assert rc == 0 and out.splitlines()[-1] == sections["expand"][-1]


@pytest.mark.parametrize("scenario, drop", [
    (FREE, "1"),
    (json.dumps({"A": [["1", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]]}),
     "3"),
], ids=["free", "three-lines"])
def test_closure_and_project_render_a_product_alike(scenario, drop, capsys):
    # a balanced product that both take has one bound: equal values merged
    # into one power, factors ordered by value
    closed = _main(capsys, "closure", scenario)[1].splitlines()
    projected = [ln.replace(" < ", " <= ")
                 for ln in _main(capsys, "project", scenario, "--drop",
                                 drop)[1].splitlines() if " in W" not in ln]
    assert projected and set(projected) <= set(closed)


def test_fixture_runner():
    res = run("fixtures", "--filter", "pipeline-two-actions")
    assert res.returncode == 0
    assert "0 failures" in res.stdout
    res = run("fixtures", "--filter", "no-such-fixture-exists")
    assert res.returncode == 0 and res.stdout == ""
    assert res.stderr == "warning: no fixtures match the filter\n"


def test_scenario_with_k_sets_and_blocks():
    sc = json.dumps({"A": [["1", "1"], ["0", "1"]], "blocks": [2, 1],
                     "K": [[1, 2], [2]]})
    res = run("analyze", sc, "--generalized")
    assert res.returncode == 0
    assert "classification: normal" in res.stdout
    bad = json.dumps({"A": [["1", "1"], ["0", "1"]], "K": [[1], [2]]})
    res = run("pipeline", bad)
    assert res.returncode == 2


@pytest.mark.parametrize("args, message", [
    (["classify2", "--matrix", '[["1/0","1"],["0","1"]]'], "invalid matrix"),
    (["map-check", "NO_TARGET"], "invalid map spec: 'target'"),
    (["map-check", "MISSING"], "cannot parse"),
    (["verify", SC_PLANE, "--function", "z9", "--N", "1,1"],
     "no coordinate z9"),
    (["verify", SC_PLANE, "--function", "z1_2", "--N", "1,1"],
     "no coordinate z1_2"),
    (["verify", SC_PLANE, "--function", "z1*", "--N", "1,1"],
     "invalid --function"),
    (["verify", SC_PLANE, "--function", "z1", "--N", "1"], "one per action"),
    (["expand", SC_PLANE, "--N", "1"], "one per action"),
    (["expand", SC_PLANE, "--N", "1,x"], "invalid --N"),
    (["expand", SC_PLANE, "--N", "1.5,1"],
     "invalid --N: need 2 natural orders, one per action"),
    (["verify", SC_PLANE, "--function", "z1", "--N", "a,1"],
     "invalid --N: need 2 natural orders, one per action"),
    (["expand", SC_PLANE, "--N", "1,,1"],
     "invalid --N: need 2 natural orders, one per action"),
    (["verify", SC_PLANE, "--function", "z1", "--N", "1.0,1"],
     "invalid --N: need 2 natural orders, one per action"),
    (["probe", SC_RUNNING, "--zset", "z9=z1"], "invalid --zset"),
    (["probe", SC_RUNNING, "--zset", "z1"], "invalid --zset"),
    (["probe", SC_RUNNING, "--zset", "z3=z1*z2", "--zset", "z3=z1"],
     "invalid --zset: z3 is the target of two equations"),
    (["probe", SC_RUNNING, "--zset", "z2=z1", "--zset", "z3=z2*z1"],
     "invalid --zset: the right side of z3 names z2, the target of an "
     "equation"),
    (["restrict", "--matrix", SC_RUNNING, "--beta", "1/0,1,1"],
     "invalid --beta"),
    (["restrict", "--matrix", SC_RUNNING, "--beta", "1,1"], "one per block"),
    (["restrict", "--matrix", SC_RUNNING, "--beta=-1,1,1"],
     "invalid --beta: action exponents must be non-negative"),
    (["restrict", "--matrix", SC_RUNNING, "--beta", "0,0,0"],
     "invalid --beta: the added row is zero, so the new action would be the "
     "identity"),
    (["probe", SC_RUNNING, "--zset", "z3=z1*z2", "--samples", "0"],
     "invalid --samples: need at least 1, got 0"),
    (["verify", SC_PLANE, "--function", "z1", "--N", "1,1", "--samples", "0"],
     "invalid --samples: need at least 1, got 0"),
    (["probe", SC_RUNNING, "--zset", "z3=z1*z2", "--seed", "-1"],
     "invalid --seed: need at least 0, got -1"),
    (["verify", SC_PLANE, "--function", "z1", "--N", "1,1", "--seed", "-1"],
     "invalid --seed: need at least 0, got -1"),
    (["closure", SC_RUNNING, "--rounds", "-2"],
     "invalid --rounds: need at least 0, got -2"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "zeros": [3]}'],
     "invalid scenario: zero block 3 out of range"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "zeros": [1.5]}'],
     "invalid scenario: zero block 1.5 out of range"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "zeros": [true]}'],
     "invalid scenario: zero block true out of range"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "zeros": ["1"]}'],
     'invalid scenario: zero block "1" out of range'),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "zeros": [[1]]}'],
     "invalid scenario: zero block [1] out of range"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "norms": {"x": 1}}'],
     'invalid scenario: norm of block "x" out of range'),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "norms": {"1": [1]}}'],
     "invalid scenario: norm of block 1 must be a rational or a number, "
     "not [1]"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "norms": {"1": "abc"}}'],
     "invalid scenario: norm of block 1 must be a rational or a number, "
     'not "abc"'),
    (["pipeline", '{"A": [["1","0"]]}'],
     "invalid scenario: block 2 has a zero column, so its direction must "
     "vanish"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "norms": {"1": "-2"}}'],
     "invalid scenario: norm of block 1 is -2.0, not positive"),
    (["multicone", '{"A": [["1","0"],["0","1"]], "norms": {"2": "0"}}'],
     "invalid scenario: norm of block 2 is 0.0, not positive"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "norms": {"9": "1"}}'],
     "invalid scenario: norm of block 9 out of range"),
    (["expand", '{"A": [["1"]], "blocks": [2.5]}', "--N", "1"],
     "invalid scenario: block_dims must list a natural number of at least 1 "
     "per block, not [2.5]"),
    (["pipeline", '{"A": [["1"]], "blocks": [true]}'],
     "invalid scenario: block_dims must list a natural number of at least 1 "
     "per block, not [true]"),
    (["verify", '{"A": [["1"]], "blocks": ["2"]}', "--function", "z1",
      "--N", "1"],
     "invalid scenario: block_dims must list a natural number of at least 1 "
     'per block, not ["2"]'),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "normalized": "false"}'],
     'invalid scenario: normalized must be true or false, not "false"'),
    (["pipeline",
      '{"A": [["1","0","1"],["0","1","1"]], "norms": {"3": true}}'],
     "invalid scenario: norm of block 3 must be a rational or a number, "
     "not true"),
    (["pipeline",
      '{"A": [["1","0","1"],["0","1","1"]], "norms": {"3": 1e400}}'],
     "invalid scenario: cannot convert Infinity to integer ratio"),
    (["pipeline", '{"A": [[1e400, 1]]}'],
     "invalid scenario: cannot convert Infinity to integer ratio"),
    (["classify2", "--matrix", "[[1, 1e400],[0,1]]"],
     "invalid matrix: cannot convert Infinity to integer ratio"),
    (["pipeline", '{"A": [["1","1","0"],["0","1","1"]], '
      '"K": [[true,2],[2,3]]}'],
     "invalid scenario: K must list one set of blocks 1..3 per action, "
     "not [[true, 2], [2, 3]]"),
    (["pipeline", '{"A": [["1","1","0"],["0","1","1"]], '
      '"K": [["1",2],[2,3]]}'],
     "invalid scenario: K must list one set of blocks 1..3 per action, "
     'not [["1", 2], [2, 3]]'),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "complement": ["x", true]}'],
     "invalid scenario: complement must list natural numbers of at least 1, "
     'not ["x", true]'),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "complement": 5}'],
     "invalid scenario: complement must list natural numbers of at least 1, "
     "not 5"),
    (["pipeline", '{"A": ["12", "01"]}'],
     "invalid scenario: the action matrix must be a list of rows, each a "
     'list, not ["12", "01"]'),
    (["map-check", json.dumps({**MAP_SPEC, "target": {"A": ["10", "01"]}})],
     "invalid map spec: the action matrix must be a list of rows, each a "
     'list, not ["10", "01"]'),
    (["classify2", "--matrix", '["12","01"]'],
     "invalid matrix: the action matrix must be a list of rows, each a "
     'list, not ["12", "01"]'),
    (["classify2", "--matrix", "[[1,-1],[0,1]]"],
     "invalid matrix: action exponents must be non-negative"),
    (["classify2", "--matrix", "[[1,0],[0]]"],
     "invalid matrix: ragged action matrix"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "blocks": []}'],
     "invalid scenario: block_dims must list a natural number of at least 1 "
     "per block, not []"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "blocks": 5}'],
     "invalid scenario: block_dims must list a natural number of at least 1 "
     "per block, not 5"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "zeros": 5}'],
     "invalid scenario: zeros must list blocks, not 5"),
    (["pipeline", '{"A": [["1","0"],["0","1"]], "norms": [1]}'],
     "invalid scenario: norms must map blocks to norms, not [1]"),
    (["pipeline", "[1, 2]"],
     "invalid scenario: a scenario is a JSON object, not [1, 2]"),
    (["pipeline", '{"B": 1}'],
     'invalid scenario: the scenario has no action matrix "A"'),
], ids=["classify2-zero-denominator", "map-without-target", "missing-map",
        "function-block", "function-offset", "function-syntax",
        "verify-orders", "expand-orders", "expand-order-syntax",
        "expand-order-fraction", "verify-order-name", "expand-order-empty",
        "verify-order-float",
        "zset-block", "zset-form", "zset-repeated-target",
        "zset-target-on-a-right-side", "beta-zero-denominator", "beta-length",
        "beta-negative", "beta-zero",
        "probe-samples", "verify-samples", "probe-seed", "verify-seed",
        "closure-rounds", "zero-block-range", "zero-block-fraction",
        "zeros-boolean", "zeros-string", "zeros-list", "norm-block-name",
        "norm-list", "norm-string",
        "zero-column", "norm-negative", "norm-zero", "norm-block-range",
        "block-size-float", "block-size-boolean", "block-size-string",
        "normalized-string", "norm-boolean", "norm-infinite",
        "matrix-infinite", "classify2-infinite", "K-boolean", "K-string",
        "complement-string", "complement-not-a-list", "matrix-string-rows",
        "map-string-rows", "classify2-string-rows", "classify2-negative",
        "classify2-ragged", "blocks-empty", "blocks-not-a-list",
        "zeros-not-a-list", "norms-not-an-object", "scenario-not-an-object",
        "scenario-without-matrix"])
def test_malformed_input_exits_2(args, message, tmp_path):
    spec = tmp_path / "map.json"
    spec.write_text(json.dumps({k: v for k, v in MAP_SPEC.items()
                                if k != "target"}))
    names = {"NO_TARGET": str(spec), "MISSING": str(tmp_path / "none.json")}
    res = run(*[names.get(a, a) for a in args])
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and message in res.stderr
    assert "Traceback" not in res.stderr


def test_a_warning_is_one_line_on_stderr():
    res = run("levels", '{"A": [["1","1"],["1","1"]]}')
    assert res.returncode == 0
    assert res.stdout == ("rho[1] = 1   strict: False\n"
                          "rho[2] = t1   strict: True\n")
    assert res.stderr == ("warning: rows 1 and 2 coincide; duplicated "
                          "actions are allowed in the local model but can be "
                          "eliminated\n")


def test_a_json_argument_that_is_no_file_names_it(tmp_path):
    missing = str(tmp_path / "none.json")
    res = run("map-check", missing)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith(
        f"error: cannot parse JSON {missing!r}: no such file, and not JSON "
        "text: ")
    # an existing file is read as JSON, and its own error is given
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    res = run("map-check", str(bad))
    assert res.returncode == 2
    assert "no such file" not in res.stderr
    assert res.stderr.startswith(f"error: cannot parse JSON {str(bad)!r}: ")


def test_classify2_rejection_outside_the_catalogue_exits_1():
    res = run("classify2", "--matrix", "[[2,0],[0,1]]")
    assert res.returncode == 1
    assert res.stderr == ("error: normalize the matrix first: unit diagonal "
                          "via row scaling and column order\n")


def test_repeated_drop_projects_every_block(capsys):
    # each --drop adds its blocks to the list, as one --drop naming them all
    both = _main(capsys, "project", SC_RUNNING, "--drop", "1", "2")
    assert both[0] == 0 and "|z1| < eps" not in both[1]
    assert _main(capsys, "project", SC_RUNNING, "--drop", "1",
                 "--drop", "2") == both
    assert _main(capsys, "project", SC_RUNNING, "--drop", "2")[1] != both[1]
    assert _main(capsys, "project", SC_RUNNING, "--drop", "1",
                 "--drop", "1") == \
        (1, "", "error: block 1 is not a block of the system\n")


def test_project_rejects_a_block_it_does_not_have():
    for drop in ("7", "1 1"):
        res = run("project", SC_PLANE, "--drop", *drop.split())
        assert res.returncode == 1
        assert res.stderr == \
            f"error: block {drop[-1]} is not a block of the system\n"
