"""Built-in worked configurations with their expected outputs.

Each fixture bundles an action matrix, a base-point zero pattern, and the
documented expectations (stage sets, restriction verdicts, level trees,
multicone systems, expansion data).  The test suite and the command-line
`fixtures` command both run this corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .asymptotics import (index_set, structure_of, remainder_exponent,
                          check_map, PolyMapSpec, classify_two_manifolds)
from .deformation import deformation, point, rank_and_normalize
from .levels import (build_levels, build_generalized_levels, canonical,
                     level_eq, lmax, lmono, lpow, lprod)
from .monomials import (Pair, Monomial, ONE, UNIT_VALUE, mono, pair,
                        render_genset, tau)
from .multicone import build_multicone, closure, project
from .polynomials import poly_monomial
from .restriction import check_restriction, extended_matrix
from .semigroup import run_pipeline, eliminate, radical_member, Verdict


def gs(*specs):
    """Expected generator set from compact strings: "f" or ("f", "v")."""
    out = []
    for s in specs:
        if isinstance(s, tuple):
            out.append(pair(s[0], s[1]))
        else:
            out.append(pair(s))
    return frozenset(out)


@dataclass
class CheckResult:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Fixture:
    name: str
    tags: tuple[str, ...]
    run: Callable[[], list[CheckResult]]


def _eq_sets(label, got, want) -> CheckResult:
    ok = got == want
    detail = "" if ok else f"got {render_genset(got)}, want {render_genset(want)}"
    return CheckResult(label, ok, detail)


FIXTURES: list[Fixture] = []


def fixture(name, *tags):
    def deco(fn):
        FIXTURES.append(Fixture(name, tags, fn))
        return fn
    return deco


UNIT_ONE = Pair(ONE, UNIT_VALUE)


# ---------------------------------------------------------------- pipeline

def two_block_three_coord():
    """The running example: two actions on three blocks, base point with
    only the third direction nonzero."""
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(zero_blocks={1, 2})
    return d, p


@fixture("pipeline-two-actions-three-blocks", "pipeline")
def _fx_226():
    d, p = two_block_three_coord()
    pl = run_pipeline(d, None, p)
    out: list[CheckResult] = []
    out.append(_eq_sets("F0", pl.F0, gs(
        "t1", "t2", ("t3/(t1*t2)", "x3"), ("t1*t2/t3", "x3^(-1)"))))
    f1 = eliminate(pl.F0, tau(1))
    out.append(_eq_sets("F1", f1, gs(
        "t1", "t2", "t1*t2/t3", "t3/t2") | {UNIT_ONE}))
    f2 = eliminate(f1, tau(2))
    out.append(_eq_sets("F2", f2, gs(
        "t1", "t2", "t1*t2/t3", "t3") | {UNIT_ONE}))
    out.append(_eq_sets("Fq", pl.Fq, f2))
    return out


@fixture("pipeline-five-actions-elimination", "pipeline")
def _fx_326():
    d = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    pl = run_pipeline(d, None, point())
    out = [_eq_sets("G", pl.G, gs("t1/l4", "t2/l5", "t3/(l4*l5)", "l4", "l5"))]
    stages = dict(pl.F0_stages)
    out.append(_eq_sets("F0,4", stages[4], gs("t1", "t2/l5", "t3/l5", "l5")))
    out.append(_eq_sets("F0,5", stages[5], gs("t1", "t2", "t3")))
    return out


@fixture("pipeline-four-actions-elimination", "pipeline")
def _fx_325():
    d = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    pl = run_pipeline(d, None, point())
    out = [_eq_sets("G", pl.G, gs("t1/l4", "t2/l4", "t3*l4/(t1*t2)", "l4"))]
    out.append(_eq_sets("F0,4", pl.Fq, gs("t1", "t2", "t3/t2", "t3/t1")))
    return out


@fixture("pipeline-clean-two-plane-patterns", "pipeline")
def _fx_249_patterns():
    d = deformation([[1, 1, 0], [0, 1, 1]])
    expect = {
        frozenset({1}): gs("t1", "t2", "t3", "t1*t3/t2", "t2/t3") | {UNIT_ONE},
        frozenset({2}): gs("t1", "t2/t1", "t3", "t2/(t1*t3)") | {UNIT_ONE},
        frozenset({3}): gs("t1", "t2/t1", "t1*t3/t2"),
        frozenset({1, 3}): gs("t1", "t2", "t3", "t1*t3/t2"),
    }
    out = []
    for zeros, want in expect.items():
        pl = run_pipeline(d, None, point(zero_blocks=zeros))
        out.append(_eq_sets(f"Fq zeros={sorted(zeros)}", pl.Fq, want))
    return out


@fixture("pipeline-separated", "pipeline")
def _fx_separated():
    for n in (2, 3):
        d = deformation([[int(i == j) for j in range(n)] for i in range(n)])
        pl = run_pipeline(d, None, point())
        want = frozenset(pair(f"t{k}") for k in range(1, n + 1))
        if pl.Fq != want:
            return [CheckResult(f"separated-{n}", False, render_genset(pl.Fq))]
    return [CheckResult("separated-identity", True)]


# -------------------------------------------------------------- restriction

def _verdict_check(label, verdict, want_holds, want_witnesses=()):
    ok = verdict.holds == want_holds
    got_w = {str(w.pair.f) for w in verdict.witnesses}
    for w in want_witnesses:
        ok = ok and str(mono(w)) in got_w
    return CheckResult(label, ok,
                       "" if ok else f"holds={verdict.holds} witnesses={got_w}")


@fixture("restriction-three-flags-center", "restriction")
def _fx_241():
    d = deformation([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    v = check_restriction(run_pipeline(d, None, point()), [1, 1, 1])
    return [
        _verdict_check("same-rank holds", v, True),
        CheckResult("non-negative combination", bool(v.sufficient_nonneg_combination)),
    ]


@fixture("restriction-three-planes-center", "restriction")
def _fx_242():
    d = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    beta = [1, 1, 1]
    cases = [
        (frozenset(), False, ("t3/(t1*t2)",)),
        (frozenset({3}), False, ("t3/(t1*t2)",)),
        (frozenset({2}), True, ()),
        (frozenset({1}), True, ()),
    ]
    out = []
    for zeros, want, wits in cases:
        p = point(zero_blocks=zeros)
        v = check_restriction(run_pipeline(d, None, p), beta)
        out.append(_verdict_check(f"zeros={sorted(zeros)}", v, want, wits))
        if wits:
            d_b = extended_matrix(d, beta)
            pl_b = run_pipeline(d_b, None, p)
            res = radical_member(pair(wits[0]), pl_b.Fq)
            out.append(CheckResult(
                f"witness outside extended semigroup zeros={sorted(zeros)}",
                res.verdict is Verdict.NO, res.verdict.value))
    return out


@fixture("restriction-nested-families", "restriction")
def _fx_248():
    cases = [
        ("separated", [[1, 0, 0], [0, 1, 0]], [0, 0, 1]),
        ("chain-a", [[1, 1, 1], [0, 1, 1]], [0, 0, 1]),
        ("chain-b", [[1, 1, 0], [0, 1, 0]], [1, 1, 1]),
        ("chain-c", [[1, 1, 1], [0, 1, 0]], [0, 1, 1]),
        ("mixed-a", [[1, 1, 1], [0, 1, 0]], [0, 0, 1]),
        ("mixed-b", [[1, 0, 0], [0, 1, 0]], [1, 1, 1]),
    ]
    out = []
    p = point(zero_blocks={3})
    for label, rows, beta in cases:
        v = check_restriction(run_pipeline(deformation(rows), None, p), beta)
        out.append(_verdict_check(label, v, True))
    return out


@fixture("restriction-clean-two-plane", "restriction")
def _fx_249_restrict():
    d = deformation([[1, 1, 0], [0, 1, 1]])
    bullets = [
        ([1, 0, 0], {1}, True, ()),
        ([1, 0, 0], {2}, False, ("t2/t1",)),
        ([1, 0, 0], {3}, False, ("t2/t1",)),
        ([0, 1, 0], {1}, False, ("t1*t3/t2",)),
        ([0, 1, 0], {2}, True, ()),
        ([0, 1, 0], {3}, False, ("t1*t3/t2",)),
        ([0, 0, 1], {1}, False, ("t2/t3",)),
        # Here the documented counterexample monomial t2/t3 is a semigroup
        # element rather than a stage element; the stage witness differs but
        # the probe below still confirms the documented exclusion.
        ([0, 0, 1], {2}, False, ("t2/(t1*t3)",), "t2/t3"),
        ([0, 0, 1], {3}, True, ()),
        ([1, 0, 1], {1}, False, ("t2/t3",)),
        ([1, 0, 1], {2}, False, ("t2/(t1*t3)",)),
        ([1, 0, 1], {3}, False, ("t2/t1",)),
        ([1, 0, 1], {1, 3}, True, ()),
        ([1, 1, 1], {1}, True, ()),
        ([1, 1, 1], {2}, False, ("t2/(t1*t3)",)),
        ([1, 1, 1], {3}, True, ()),
    ]
    out = []
    for bullet in bullets:
        beta, zeros, want, wits = bullet[:4]
        probes = list(wits) + list(bullet[4:])
        p = point(zero_blocks=zeros)
        v = check_restriction(run_pipeline(d, None, p), beta)
        out.append(_verdict_check(f"beta={beta} zeros={sorted(zeros)}",
                                  v, want, wits))
        if probes:
            d_b = extended_matrix(d, beta)
            pl_b = run_pipeline(d_b, None, p)
            for probe in probes:
                res = radical_member(pair(probe), pl_b.Fq)
                out.append(CheckResult(
                    f"{probe} excluded beta={beta} zeros={sorted(zeros)}",
                    res.verdict is Verdict.NO, res.verdict.value))
    return out


@fixture("restriction-four-block", "restriction")
def _fx_250():
    d = deformation([[1, 1, 0, 1], [0, 1, 1, 0]])
    p = point(zero_blocks={3})
    pl = run_pipeline(d, None, p)
    out = []
    v = check_restriction(pl, [0, 1, 0, 0])
    out.append(_verdict_check("beta=0100", v, False, ("t1*t3/t2",)))
    v = check_restriction(pl, [0, 1, 0, 1])
    out.append(_verdict_check("beta=0101", v, False, ("t1/t4",)))
    v = check_restriction(pl, [1, 1, 1, 0])
    out.append(_verdict_check("beta=1110", v, False, ("t1/t4",)))
    v = check_restriction(pl, [1, 1, 1, 1])
    out.append(_verdict_check("beta=1111", v, True))

    # The documented confirmations: against beta = (0,1,0,1) the quotient
    # pair with its norm value has no power in the extended stage; against
    # beta = (1,1,1,0) the zero-valued quotient does lie in it.
    d_b = extended_matrix(d, [0, 1, 0, 1])
    pl_b = run_pipeline(d_b, None, p)
    res = radical_member(pair("t1/t4", "x4^(-1)"), pl_b.Fq)
    out.append(CheckResult("beta=0101 witness excluded",
                           res.verdict is Verdict.NO, res.verdict.value))
    d_b = extended_matrix(d, [1, 1, 1, 0])
    pl_b = run_pipeline(d_b, None, p)
    res = radical_member(pair("t1/t4"), pl_b.Fq,
                         zero_slack=pl_b.zero_cols_L)
    out.append(CheckResult("beta=1110 zero-valued member included",
                           res.verdict is Verdict.YES))
    return out

# ------------------------------------------------------------------ levels

def _t(s):
    return lmono(s)


@fixture("levels-normal-type", "levels")
def _fx_324():
    d = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    fam = build_levels(run_pipeline(d, None, point()))
    want = {1: _t("t1"), 2: _t("t2"), 3: _t("t3/(t1*t2)")}
    out = [CheckResult(f"rho{j}", level_eq(fam.rho_Lambda[j], want[j]))
           for j in want]
    out.append(CheckResult("all strict", all(fam.strict.values())))
    return out


@fixture("levels-four-actions", "levels")
def _fx_325_levels():
    d = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    fam = build_levels(run_pipeline(d, None, point()))
    mx = lmax(_t("t1"), _t("t2"))
    want = {
        1: lprod(_t("t1"), lpow(mx, -1)),
        2: lprod(_t("t2"), lpow(mx, -1)),
        3: lprod(_t("t3/(t1*t2)"), mx),
        4: mx,
    }
    out = [CheckResult(f"rho{j}", level_eq(fam.rho_Lambda[j], want[j]),
                       str(canonical(fam.rho_Lambda[j])))
           for j in want]
    out.append(CheckResult("all strict", all(fam.strict.values())))
    return out


@fixture("levels-five-actions", "levels")
def _fx_326_levels():
    d = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    fam = build_levels(run_pipeline(d, None, point()))
    r5 = lmax(_t("t2"), _t("t3"))
    r4 = lmax(_t("t1"), lprod(_t("t3"), lpow(r5, -1)))
    want = {
        1: lprod(_t("t1"), lpow(r4, -1)),
        2: lprod(_t("t2"), lpow(r5, -1)),
        3: lprod(_t("t3"), lpow(lmax(lprod(_t("t1"), r5), _t("t3")), -1)),
        4: r4,
        5: r5,
    }
    out = [CheckResult(f"rho{j}", level_eq(fam.rho_Lambda[j], want[j]),
                       str(canonical(fam.rho_Lambda[j])))
           for j in want]
    out.append(CheckResult("all strict", all(fam.strict.values())))
    return out


@fixture("levels-non-strict-action", "levels")
def _fx_327_levels():
    d = deformation([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    pl = run_pipeline(d, None, point())
    fam = build_levels(pl)
    want = {
        1: lpow(lmax(_t("1"), _t("t2/(t1*t3)")), -1),
        2: lpow(lmax(_t("1"), _t("t1*t3/t2")), -1),
        3: _t("1"),
        4: lmax(_t("t1"), _t("t2/t3")),
        5: _t("t3"),
    }
    out = [CheckResult(f"rho{j}", level_eq(fam.rho_Lambda[j], want[j]),
                       str(canonical(fam.rho_Lambda[j])))
           for j in want]
    out.append(CheckResult("action 3 not strict", fam.strict[3] is False))
    out.append(CheckResult("others strict",
                           all(fam.strict[j] for j in (1, 2, 4, 5))))
    ghat = build_generalized_levels(d, rank_and_normalize(d, point()), point())
    out.append(CheckResult("generalized family all strict",
                           all(ghat.strict.values())))
    return out


# --------------------------------------------------------------- multicone

def _primitive(m: Monomial):
    """Integer exponent vector scaled primitively, for notation-free
    comparison of cone inequalities."""
    if m.is_one:
        return ()
    exps = [(v, e) for v, e in m.exps]
    den = lcm(*(e.denominator for _, e in exps))
    ints = [int(e * den) for _, e in exps]
    g = gcd(*ints)
    return tuple((str(v), x // g) for (v, _), x in zip(exps, ints))


def _system_signature(system):
    return {( _primitive(i.f), str(i.value)) for i in system.inequalities}


def _want_signature(specs):
    out = set()
    for s in specs:
        if isinstance(s, tuple):
            out.add((_primitive(mono(s[0])), s[1]))
        else:
            out.add((_primitive(mono(s)), "0"))
    return out


def _system_check(label, pipeline, p, specs):
    system = build_multicone(pipeline, p, check_equivalence=False)
    got = _system_signature(system)
    want = _want_signature(specs)
    ok = got == want
    return CheckResult(label, ok, "" if ok else f"got {sorted(got)}")


@fixture("multicone-displays", "multicone")
def _fx_multicone_displays():
    out = []
    # three flags in general position
    d36 = deformation([[0, 1, 1], [1, 0, 1], [0, 0, 1]], complement_block={1})
    out.append(_system_check(
        "three-submanifolds", run_pipeline(d36, None, point()), point(),
        ["t1", "t2", "t3/(t1*t2)"]))
    # four actions on four blocks
    d37 = deformation([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]],
                      complement_block={1})
    out.append(_system_check(
        "four-submanifolds", run_pipeline(d37, None, point()), point(),
        ["t1*t4/(t2*t3)", "t2*t4/(t1*t3)", "t3*t4/(t1*t2)", "t1*t2*t3/t4"]))
    # two actions, one nonzero direction
    d226, p226 = two_block_three_coord()
    pl = run_pipeline(d226, None, p226)
    system = build_multicone(pl, p226, check_equivalence=False)
    got = _system_signature(system)
    want = _want_signature(["t1", "t2", "t1*t2/t3", "t3", ("1", "1")])
    out.append(CheckResult("two-actions-system", got == want,
                           "" if got == want else str(sorted(got))))
    key = (_primitive(mono("t1*t2/t3")), "0")
    out.append(CheckResult("two-actions key inequality", key in got))
    return out


@fixture("multicone-plane-catalogue", "multicone")
def _fx_52_53():
    out = []
    cases = [
        ("separated-2", [[1, 0], [0, 1]], ["t1", "t2"]),
        ("staircase-2", [[1, 1], [0, 1]], ["t1", "t2/t1"]),
        ("cusp", [[3, 2], [1, 1]], ["t1/t2", "t2^3/t1^2"]),
        ("clean-2", [[1, 1, 0], [0, 1, 1]],
         ["t1", "t2/t1", ("t1*t3/t2", "x3"), ("t2/(t1*t3)", "x3^(-1)")]),
        ("separated-3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["t1", "t2", "t3"]),
        ("staircase-3", [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
         ["t1", "t2/t1", "t3/t2"]),
        ("clean-3", [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
         ["t1*t2/t3", "t2*t3/t1", "t1*t3/t2"]),
        ("mixed-separated-staircase", [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
         ["t1", "t2/t1", "t3/t1"]),
        ("mixed-clean-staircase", [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
         ["t1", "t2/t1", "t1*t3/t2"]),
    ]
    for label, rows, specs in cases:
        d = deformation(rows)
        pl = run_pipeline(d, None, point())
        out.append(_system_check(label, pl, point(), specs))
    return out


@fixture("multicone-closure-boundary", "multicone")
def _fx_closure():
    d = deformation([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    pl = run_pipeline(d, None, point())
    cl = closure(pl)
    out = [CheckResult("closure gains both flags",
                       {str(e.pair.f) for e in cl.entries} >=
                       {"t1", "t2"})]
    out.append(CheckResult("excludes (0, 0.2, 0) at eps 0.1",
                           not cl.system.member({1: 0.0, 2: 0.2, 3: 0.0}, 0.1)))
    out.append(CheckResult("keeps (0, 0.005, 0) at eps 0.1",
                           cl.system.member({1: 0.0, 2: 0.005, 3: 0.0}, 0.1)))
    d226, p226 = two_block_three_coord()
    cl226 = closure(run_pipeline(d226, None, p226))
    out.append(CheckResult("running-example closure keeps t3",
                           pair("t3") in cl226.K))
    return out


@fixture("multicone-projection", "multicone")
def _fx_projection():
    dtak = deformation([[1, 1], [0, 1]])
    system = build_multicone(run_pipeline(dtak, None, point()), point(),
                             check_equivalence=False)
    pr2 = project(system, 2, k_in_JZ=True)
    pr1 = project(system, 1, k_in_JZ=False)
    out = [
        CheckResult("drop block 2", _system_signature(pr2) ==
                    _want_signature(["t1"])),
        CheckResult("drop block 1 pairs up",
                    _system_signature(pr1) == _want_signature(["t2"])),
        CheckResult("paired bound is squared",
                    pr1.member({2: 0.1 * 0.1 * 0.9}, 0.1) and
                    not pr1.member({2: 0.1 * 0.1 * 1.1}, 0.1)),
    ]
    return out


# -------------------------------------------------------------- asymptotics

@fixture("asymptotics-index-sets", "asymptotics")
def _fx_index_sets():
    out = []
    dmaj = deformation([[1, 0], [0, 1]])
    rmaj = rank_and_normalize(dmaj, point())
    iset = index_set(dmaj, rmaj, {1}, (3, 0))
    out.append(CheckResult("separate flags", set(iset.members) ==
                           {(0, 0), (1, 0), (2, 0)}))
    dc = deformation([[3, 2], [1, 1]])
    rc = rank_and_normalize(dc, point())
    iset = index_set(dc, rc, {1}, (7, 0))
    want = {(a1, a2) for a1 in range(3) for a2 in range(4)
            if 3 * a1 + 2 * a2 < 7}
    out.append(CheckResult("weighted grading", set(iset.members) == want))
    out.append(CheckResult("zero orders empty",
                           index_set(dc, rc, {1, 2}, (0, 0)).members == ()))
    dcl = deformation([[1, 1, 0], [0, 1, 1]])
    rcl = rank_and_normalize(dcl, point())
    iset = index_set(dcl, rcl, {1, 2}, (2, 2))
    want = {(b1, b2, b3) for b1 in range(3) for b2 in range(3)
            for b3 in range(3) if b1 + b2 < 2 and b2 + b3 < 2}
    out.append(CheckResult("clean-two-plane joint constraint",
                           set(iset.members) == want))
    return out


@fixture("asymptotics-remainders", "asymptotics")
def _fx_remainders():
    out = []
    p0 = point()
    dc = deformation([[3, 2], [1, 1]])
    plc = run_pipeline(dc, None, p0)
    famc = build_levels(plc)
    for N in [(1, 1), (3, 2), (4, 1)]:
        rem = remainder_exponent(famc, N, plc.r.sigma_A)
        want = lmono(mono(f"t1^({N[0] - 2 * N[1]})*t2^({3 * N[1] - N[0]})"))
        out.append(CheckResult(f"cusp N={N}", level_eq(rem, want)))
    dtak = deformation([[1, 1], [0, 1]])
    plt = run_pipeline(dtak, None, p0)
    famt = build_levels(plt)
    for N in [(1, 1), (3, 2)]:
        rem = remainder_exponent(famt, N, plt.r.sigma_A)
        want = lmono(mono(f"t1^({N[0] - N[1]})*t2^({N[1]})"))
        out.append(CheckResult(f"staircase N={N}", level_eq(rem, want)))
    # general two-block with rational entries
    b, c = Fraction(1, 2), Fraction(1, 3)
    dgen = deformation([[1, b], [c, 1]])
    rgen = rank_and_normalize(dgen, p0)
    famg = build_levels(run_pipeline(dgen, rgen, p0))
    ddet = 1 / (1 - b * c)
    sig = rgen.sigma_A
    for N in [(1, 1), (2, 5)]:
        rem = remainder_exponent(famg, N, sig)
        e1 = (N[0] - b * N[1]) * ddet / sig
        e2 = (N[1] - c * N[0]) * ddet / sig
        want = lmono(mono(f"t1^({e1})*t2^({e2})"))
        out.append(CheckResult(f"general two-block N={N}", level_eq(rem, want)))
    dmix = deformation([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    plm = run_pipeline(dmix, None, p0)
    famm = build_levels(plm)
    for N in [(2, 1, 1)]:
        rem = remainder_exponent(famm, N, plm.r.sigma_A)
        want = lmono(mono(f"t1^({N[0] - N[1] - N[2]})*t2^({N[1]})*t3^({N[2]})"))
        out.append(CheckResult(f"mixed N={N}", level_eq(rem, want)))
    return out


@fixture("asymptotics-induced-maps", "maps")
def _fx_maps():
    out = []
    dM = deformation([[1, 1, 0], [0, 1, 1]])
    dN = deformation([[1, 1], [0, 1]], block_dims=[1, 2])
    sM = structure_of(dM)
    x1 = poly_monomial(sM, (1, 0, 0))
    x2 = poly_monomial(sM, (0, 1, 0))
    x3 = poly_monomial(sM, (0, 0, 1))
    res = check_map(PolyMapSpec(dM, dN, (x1, x1 * x3 + x2, x1 * x3)))
    out.append(CheckResult("blowdown-style map", res.ok and
                           [str(t) for t in res.induced] ==
                           ["z1", "z2 + z1*z3", "z1*z3"]))
    dM2 = deformation([[1, 0], [0, 1]])
    dN2 = deformation([[3, 2], [1, 1]])
    s2 = structure_of(dM2)
    res2 = check_map(PolyMapSpec(dM2, dN2, (poly_monomial(s2, (3, 1)),
                                            poly_monomial(s2, (2, 1)))))
    out.append(CheckResult("cusp desingularisation", res2.ok and
                           [str(t) for t in res2.induced] ==
                           ["z1^3*z2", "z1^2*z2"]))
    res3 = check_map(PolyMapSpec(dM2, dN2, (poly_monomial(s2, (1, 0)),
                                            poly_monomial(s2, (0, 1)))))
    out.append(CheckResult("identity into the cusp fails", not res3.ok))
    return out


@fixture("asymptotics-classification", "classification")
def _fx_classify():
    out = []
    case = classify_two_manifolds([[1, 0], [0, 1]])
    out.append(CheckResult("m=2 N=2", case.label == "m=2,N=2"))
    case = classify_two_manifolds([[1, 2], [0, 1]])
    out.append(CheckResult("m=2 N=3", case.label == "m=2,N=3"))
    case = classify_two_manifolds([[1, Fraction(1, 2)],
                                   [Fraction(1, 3), 1]])
    out.append(CheckResult("m=2 N=4", case.label == "m=2,N=4"))
    case = classify_two_manifolds([[1, 0, 2], [0, 1, 0]])
    out.append(CheckResult("m=3 N=3", case.label == "m=3,N=3"))
    case = classify_two_manifolds([[1, 1, 2], [0, 1, 0]])
    out.append(CheckResult("m=3 N=4a", case.label == "m=3,N=4a"))
    case = classify_two_manifolds([[1, 1, 0], [0, 1, 2]])
    out.append(CheckResult("m=3 N=4b", case.label == "m=3,N=4b"))
    case = classify_two_manifolds([[1, 1, 3], [0, 1, 1]])
    out.append(CheckResult("m=3 N=5", case.label == "m=3,N=5"))
    case = classify_two_manifolds([[1, Fraction(1, 2), 1],
                                   [Fraction(1, 2), 1, 1]])
    out.append(CheckResult("m=3 N=6", case.label == "m=3,N=6"))
    for bad in ([[1, 1], [1, 1]], [[1, 1, 1], [0, 1, 1]], [[1, 0, 1], [0, 1, 0]]):
        try:
            classify_two_manifolds(bad)
            out.append(CheckResult(f"rejects {bad}", False))
        except ValueError:
            out.append(CheckResult(f"rejects {bad}", True))
    return out


def run_fixtures(filter_text: str = "") -> list[tuple[str, CheckResult]]:
    results = []
    for fx in FIXTURES:
        if filter_text and filter_text not in fx.name and \
                filter_text not in " ".join(fx.tags):
            continue
        for check in fx.run():
            results.append((fx.name, check))
    return results
