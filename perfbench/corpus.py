"""Seeded corpora for the four benchmark workloads.

Every instance is generated from its own string seed, so the corpora are
the same on every machine and in every run; nothing measured today is
stored.  Instances that today's code does not finish within a run are
listed in LEFT_OUT with the step where they stall, and skipped.

    python3 perfbench/corpus.py                 # every corpus as JSON
    python3 perfbench/corpus.py --workload decide
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

# Exponents of the random action matrices.  The half-integer set is the one
# of the worked examples; the stress tier draws zero half of the time so
# its stages stay within reach of today's elimination.
HALF_STEPS = ("0", "1/2", "1", "3/2", "2", "3")
STRESS_STEPS = ("0", "0", "1", "2")

# (rows, columns, instances).  The cheap 3x3 tier is larger so that the
# median operation sits in a dense band of similar operations.
DECIDE_SHAPES = ((2, 3, 8), (2, 4, 8), (3, 3, 16), (3, 4, 8), (5, 3, 8))
CONTROLS = 8
# The decide instance whose stage cone has a lineality space the radical
# search must explore (a small stand-in for the 2x4 case of the roadmap).
LINEALITY_INSTANCE = "decide-3x4-3"

STRESS_SHAPES = ((8, 3, 12), (6, 4, 12), (8, 4, 8), (10, 4, 8))
GENERALIZED_SHAPES = ((4, 3), (5, 3), (5, 4), (6, 3))
GENERALIZED_PER_SHAPE = 2
# Orders of the remainder exponent in the eliminate chain: one on the first
# two actions.  All-one orders multiply every level tree and reach tens of
# thousands of leaves on the 6x4 tier.
REMAINDER_ORDERS = 2

# Instance id -> the step where today's code stalls.  An instance is left
# out when its one operation takes more than 2 s today, so that every run
# repeats the whole corpus several times; README.md gives the times.
LEFT_OUT = {
    "decide-5x3-2": "equivalent: the capped radical search takes 7.3 s",
    "decide-5x3-4": "equivalent: the capped radical search takes 13.7 s",
    "decide-5x3-6": "equivalent: the capped radical search takes 6.3 s",
    "decide-5x3-7": "equivalent: the capped radical search takes 2.6 s",
    "eliminate-8x4-6": "closure (2.7 s) and remainder_exponent (6.6 s)",
    "eliminate-10x4-1": "remainder_exponent: not done after 16 s",
    "eliminate-10x4-2": "remainder_exponent: not done after 16 s",
    "eliminate-10x4-3": "closure: not done after 16 s",
    "eliminate-10x4-6": "build_levels: not done after 16 s",
}

# The criterion-7 rigs of the acceptance suite, run with fixed seeds.
CONTRACTION_RIGS = ([[1, 0], [0, 1]], [[3, 2], [1, 1]],
                    [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]])
BOUNDEDNESS_RIGS = ([[3, 2], [1, 1]], [[1, 1], [0, 1]],
                    [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
ROUNDTRIP_RIGS = ([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]],
                  [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
                  [[3, 2], [1, 1]],
                  [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
ESTIMATE_RIGS = ([[3, 2], [1, 1]], [[1, 1], [0, 1]])
# Function -> orders.  The exp(z1 + z2) truncation costs ten times the
# monomial, so it runs at the diagonal orders only.
ESTIMATE_FUNCTIONS = {
    "z1*z2": ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)),
    "exp8": ((1, 1), (2, 2), (3, 3)),
}
# Normal-cone probes on the worked example with a unit third block.
PROBES = (
    ({"A": [["1", "0", "1"], ["0", "1", "1"]], "norms": {"3": "1"}},
     "z3=z1*z2", 800, "in-cone"),
    ({"A": [["1", "0", "1"], ["0", "1", "1"]], "norms": {"3": "1"}},
     "z3=0", 200, "not-in-cone"),
)
CONTRACTION_SAMPLES = 300
MEMBER_SAMPLES = 300
ESTIMATE_SAMPLES = 60
# Stress-tier systems whose exponents reach the hundreds: linear-domain
# evaluation underflows and every candidate is rejected, so each of these
# contraction checks returns fewer points than requested.  The first is
# given in full (exponents up to 7,590); the others are seeded 8x3 draws
# with exponents up to 14,112,800 and 380.
UNDERFLOW_SYSTEMS = (
    [["1/2", "3", "3"], ["0", "2", "1/2"], ["2", "0", "3"], ["1", "2", "1"],
     ["2", "3", "3/2"], ["3/2", "0", "1"], ["1", "2", "2"], ["0", "3/2", "3"]],
)
UNDERFLOW_SEEDED = ("underflow-8x3-0", "underflow-8x3-2")
UNDERFLOW_SAMPLES = 20
UNDERFLOW_SEED = 1

# The fixture configurations of the acceptance suite (criterion 8).
CONFIGS = (
    ("two-actions", [[1, 0, 1], [0, 1, 1]], (1, 2)),
    ("four-actions", [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]], ()),
    ("five-actions", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
     ()),
    ("five-actions-nonstrict", [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0],
                                [0, 1, 1]], ()),
    ("clean-two-plane-a", [[1, 1, 0], [0, 1, 1]], (1,)),
    ("clean-two-plane-b", [[1, 1, 0], [0, 1, 1]], (2,)),
    ("clean-two-plane-c", [[1, 1, 0], [0, 1, 1]], (3,)),
    ("clean-two-plane-d", [[1, 1, 0], [0, 1, 1]], (1, 3)),
    ("three-planes", [[1, 0, 1], [0, 1, 1], [0, 0, 1]], ()),
    ("separated-2", [[1, 0], [0, 1]], ()),
    ("staircase-2", [[1, 1], [0, 1]], ()),
    ("cusp", [[3, 2], [1, 1]], ()),
    ("clean-2", [[1, 1, 0], [0, 1, 1]], ()),
    ("separated-3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ()),
    ("staircase-3", [[1, 1, 1], [0, 1, 1], [0, 0, 1]], ()),
    ("clean-3", [[1, 1, 0], [0, 1, 1], [1, 0, 1]], ()),
    ("mixed-a", [[1, 1, 1], [0, 1, 0], [0, 0, 1]], ()),
    ("mixed-b", [[1, 1, 0], [0, 1, 1], [0, 0, 1]], ()),
    ("four-block", [[1, 1, 0, 1], [0, 1, 1, 0]], (3,)),
)
CLI_SAMPLES = 200
MAP_SPEC = {"source": {"A": [["1", "0"], ["0", "1"]]},
            "target": {"A": [["3", "2"], ["1", "1"]]},
            "components": ["z1^3*z2", "z1^2*z2"]}


def random_matrix(rng: random.Random, ell: int, m: int, steps) -> list[list[str]]:
    """Rows and columns that are not all zero, entries drawn from steps."""
    while True:
        a = [[rng.choice(steps) for _ in range(m)] for _ in range(ell)]
        if all(any(x != "0" for x in row) for row in a) and \
                all(any(a[j][k] != "0" for j in range(ell)) for k in range(m)):
            return a


def scenario(rows, zeros=()) -> dict:
    return {"A": [[str(Fraction(x)) for x in row] for row in rows],
            "zeros": sorted(zeros)}


def decide_corpus() -> list[dict]:
    """Small matrices with random zero patterns: each block vanishes with
    probability 0.4."""
    out = []
    for ell, m, count in DECIDE_SHAPES:
        for i in range(count):
            name = f"decide-{ell}x{m}-{i}"
            rng = random.Random(name)
            a = random_matrix(rng, ell, m, HALF_STEPS)
            zeros = [k for k in range(1, m + 1) if rng.random() < 0.4]
            if name not in LEFT_OUT:
                out.append({"id": name, **scenario(a, zeros)})
    return out


def eliminate_corpus() -> list[dict]:
    """The stress tier at the generic point (no zero blocks, off the fixed
    locus), then smaller matrices for the generalized level family."""
    out = []
    for ell, m, count in STRESS_SHAPES:
        for i in range(count):
            name = f"eliminate-{ell}x{m}-{i}"
            a = random_matrix(random.Random(name), ell, m, STRESS_STEPS)
            if name not in LEFT_OUT:
                out.append({"id": name, "kind": "chain", **scenario(a)})
    for ell, m in GENERALIZED_SHAPES:
        for i in range(GENERALIZED_PER_SHAPE):
            name = f"generalized-{ell}x{m}-{i}"
            a = random_matrix(random.Random(name), ell, m, STRESS_STEPS)
            if name not in LEFT_OUT:
                out.append({"id": name, "kind": "generalized", **scenario(a)})
    return out


def sample_corpus() -> list[dict]:
    out = []
    for i, rows in enumerate(CONTRACTION_RIGS):
        out.append({"id": f"contraction-{i}", "kind": "contraction",
                    **scenario(rows), "samples": CONTRACTION_SAMPLES,
                    "rng_seed": 100 + i})
    for i, rows in enumerate(BOUNDEDNESS_RIGS + ROUNDTRIP_RIGS):
        out.append({"id": f"members-{i}", "kind": "members", **scenario(rows),
                    "samples": MEMBER_SAMPLES, "rng_seed": 500 + i})
    for i, rows in enumerate(ESTIMATE_RIGS):
        for f, orders in ESTIMATE_FUNCTIONS.items():
            for n in orders:
                tag = f"{i}-{f}-{n[0]}{n[1]}"
                out.append({"id": f"estimate-{tag}", "kind": "estimate",
                            **scenario(rows), "function": f, "N": list(n),
                            "samples": ESTIMATE_SAMPLES, "rng_seed": 13})
                out.append({"id": f"template-{tag}", "kind": "template",
                            **scenario(rows), "function": f, "N": list(n)})
    for i, (sc, zset, samples, want) in enumerate(PROBES):
        out.append({"id": f"probe-{i}", "kind": "probe", **sc, "zeros": [],
                    "zset": zset, "samples": samples, "expect": want})
    seeded = [random_matrix(random.Random(name), 8, 3, HALF_STEPS)
              for name in UNDERFLOW_SEEDED]
    for i, rows in enumerate(UNDERFLOW_SYSTEMS + tuple(seeded)):
        out.append({"id": f"underflow-{i}", "kind": "contraction",
                    **scenario(rows), "samples": UNDERFLOW_SAMPLES,
                    "rng_seed": UNDERFLOW_SEED, "underflow": True})
    return out


def cli_corpus() -> list[dict]:
    """One session: every subcommand over the fixture configurations, with
    small sample counts, ending with the fixture runner."""
    calls = []

    def call(name, args):
        calls.append({"id": f"{args[0]}-{name}", "args": args})

    for name, rows, zeros in CONFIGS:
        sc = json.dumps(scenario(rows, zeros))
        call(name, ["pipeline", sc])
        call(name, ["multicone", sc])
    # Levels and expand need a point off the fixed locus.
    for name, rows, zeros in CONFIGS[8:11]:
        sc = json.dumps(scenario(rows, zeros))
        call(name, ["levels", sc])
        call(name, ["expand", sc, "--N", ",".join("2" * len(rows))])
    for name, rows, zeros in CONFIGS[:3]:
        call(name, ["analyze", json.dumps(scenario(rows, zeros))])
    for name, rows, zeros in CONFIGS[:2]:
        call(name, ["closure", json.dumps(scenario(rows, zeros))])
    call("staircase-2", ["project", json.dumps(scenario([[1, 1], [0, 1]])),
                         "--drop", "1"])
    call("clean-two-plane-b", ["restrict", "--matrix",
                               json.dumps(scenario([[1, 1, 0], [0, 1, 1]],
                                                   (2,))),
                               "--beta", "1,0,0"])
    call("two-actions", ["probe", json.dumps(PROBES[0][0]), "--zset",
                         PROBES[0][1], "--samples", str(CLI_SAMPLES)])
    call("map", ["map-check", "MAP_SPEC"])
    call("staircase", ["classify2", "--matrix", "[[1, 2], [0, 1]]"])
    call("cusp", ["verify", json.dumps(scenario([[3, 2], [1, 1]])),
                  "--function", "z1*z2", "--N", "1,1",
                  "--samples", str(CLI_SAMPLES)])
    call("all", ["fixtures"])
    return calls


CORPORA = {"cli-session": cli_corpus, "decide": decide_corpus,
           "eliminate": eliminate_corpus, "sample": sample_corpus}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(CORPORA))
    args = ap.parse_args()
    names = [args.workload] if args.workload else sorted(CORPORA)
    print(json.dumps({n: CORPORA[n]() for n in names}, indent=1))


if __name__ == "__main__":
    main()
