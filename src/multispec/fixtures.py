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


def _pipeline(rows, zeros=(), **deformation_kwargs):
    """The pipeline of the matrix rows at the base point whose zero blocks
    are zeros; deformation_kwargs go to `deformation`."""
    return run_pipeline(deformation(rows, **deformation_kwargs), None,
                        point(zero_blocks=zeros))


def _running_example():
    """The running example: two actions on three blocks, base point with
    only the third direction nonzero."""
    return _pipeline([[1, 0, 1], [0, 1, 1]], {1, 2})


# ---------------------------------------------------------------- pipeline

@fixture("pipeline-two-actions-three-blocks", "pipeline")
def _fx_226():
    pl = _running_example()
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
    pl = _pipeline([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    out = [_eq_sets("G", pl.G, gs("t1/l4", "t2/l5", "t3/(l4*l5)", "l4", "l5"))]
    stages = dict(pl.F0_stages)
    out.append(_eq_sets("F0,4", stages[4], gs("t1", "t2/l5", "t3/l5", "l5")))
    out.append(_eq_sets("F0,5", stages[5], gs("t1", "t2", "t3")))
    return out


@fixture("pipeline-four-actions-elimination", "pipeline")
def _fx_325():
    pl = _pipeline([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    out = [_eq_sets("G", pl.G, gs("t1/l4", "t2/l4", "t3*l4/(t1*t2)", "l4"))]
    out.append(_eq_sets("F0,4", pl.Fq, gs("t1", "t2", "t3/t2", "t3/t1")))
    return out


@fixture("pipeline-clean-two-plane-patterns", "pipeline")
def _fx_249_patterns():
    expect = {
        frozenset({1}): gs("t1", "t2", "t3", "t1*t3/t2", "t2/t3") | {UNIT_ONE},
        frozenset({2}): gs("t1", "t2/t1", "t3", "t2/(t1*t3)") | {UNIT_ONE},
        frozenset({3}): gs("t1", "t2/t1", "t1*t3/t2"),
        frozenset({1, 3}): gs("t1", "t2", "t3", "t1*t3/t2"),
    }
    out = []
    for zeros, want in expect.items():
        pl = _pipeline([[1, 1, 0], [0, 1, 1]], zeros)
        out.append(_eq_sets(f"Fq zeros={sorted(zeros)}", pl.Fq, want))
    return out


@fixture("pipeline-separated", "pipeline")
def _fx_separated():
    for n in (2, 3):
        pl = _pipeline([[int(i == j) for j in range(n)] for i in range(n)])
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


def _radical_check(label, pl, beta, probe, want=Verdict.NO):
    """The radical verdict on the pair probe in the last stage of pl's
    matrix extended by beta, at pl's base point.  An exclusion (NO) asks
    for no power in the stage's bracket; an inclusion (YES) lets the
    zero-pattern blocks absorb a zero-valued probe, as the generated
    semigroup does (`zero_slack`)."""
    ext = run_pipeline(extended_matrix(pl.d, beta), None, pl.p)
    got = radical_member(probe, ext.Fq, zero_slack=ext.zero_cols_L
                         if want is Verdict.YES else ()).verdict
    return CheckResult(label, got is want, got.value)


@fixture("restriction-three-flags-center", "restriction")
def _fx_241():
    v = check_restriction(_pipeline([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
                          [1, 1, 1])
    return [
        _verdict_check("same-rank holds", v, True),
        CheckResult("non-negative combination", bool(v.sufficient_nonneg_combination)),
    ]


@fixture("restriction-three-planes-center", "restriction")
def _fx_242():
    beta = [1, 1, 1]
    cases = [
        (frozenset(), False, ("t3/(t1*t2)",)),
        (frozenset({3}), False, ("t3/(t1*t2)",)),
        (frozenset({2}), True, ()),
        (frozenset({1}), True, ()),
    ]
    out = []
    for zeros, want, wits in cases:
        pl = _pipeline([[1, 0, 1], [0, 1, 1], [0, 0, 1]], zeros)
        out.append(_verdict_check(f"zeros={sorted(zeros)}",
                                  check_restriction(pl, beta), want, wits))
        if wits:
            out.append(_radical_check(
                f"witness outside extended semigroup zeros={sorted(zeros)}",
                pl, beta, pair(wits[0])))
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
    return [_verdict_check(label, check_restriction(_pipeline(rows, {3}),
                                                    beta), True)
            for label, rows, beta in cases]


@fixture("restriction-clean-two-plane", "restriction")
def _fx_249_restrict():
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
        pl = _pipeline([[1, 1, 0], [0, 1, 1]], zeros)
        out.append(_verdict_check(f"beta={beta} zeros={sorted(zeros)}",
                                  check_restriction(pl, beta), want, wits))
        out += [_radical_check(
            f"{probe} excluded beta={beta} zeros={sorted(zeros)}", pl, beta,
            pair(probe)) for probe in probes]
    return out


@fixture("restriction-four-block", "restriction")
def _fx_250():
    pl = _pipeline([[1, 1, 0, 1], [0, 1, 1, 0]], {3})
    cases = [
        ([0, 1, 0, 0], False, ("t1*t3/t2",)),
        ([0, 1, 0, 1], False, ("t1/t4",)),
        ([1, 1, 1, 0], False, ("t1/t4",)),
        ([1, 1, 1, 1], True, ()),
    ]
    out = [_verdict_check("beta=" + "".join(map(str, beta)),
                          check_restriction(pl, beta), want, wits)
           for beta, want, wits in cases]
    # The documented confirmations: against beta = (0,1,0,1) the quotient
    # pair with its norm value has no power in the extended stage; against
    # beta = (1,1,1,0) the zero-valued quotient does lie in it.
    out.append(_radical_check("beta=0101 witness excluded", pl, [0, 1, 0, 1],
                              pair("t1/t4", "x4^(-1)")))
    out.append(_radical_check("beta=1110 zero-valued member included", pl,
                              [1, 1, 1, 0], pair("t1/t4"), Verdict.YES))
    return out


# ------------------------------------------------------------------ levels

def _t(s):
    return lmono(s)


def _level_checks(pl, want):
    """Each action's level in pl's plain family against its expected tree,
    and the family itself for the strictness checks."""
    fam = build_levels(pl)
    return fam, [CheckResult(f"rho{j}", level_eq(fam.rho_Lambda[j], want[j]),
                             str(canonical(fam.rho_Lambda[j])))
                 for j in want]


@fixture("levels-normal-type", "levels")
def _fx_324():
    fam, out = _level_checks(_pipeline([[1, 0, 1], [0, 1, 1], [0, 0, 1]]), {
        1: _t("t1"), 2: _t("t2"), 3: _t("t3/(t1*t2)")})
    return out + [CheckResult("all strict", all(fam.strict.values()))]


@fixture("levels-four-actions", "levels")
def _fx_325_levels():
    mx = lmax(_t("t1"), _t("t2"))
    fam, out = _level_checks(
        _pipeline([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]]), {
            1: lprod(_t("t1"), lpow(mx, -1)),
            2: lprod(_t("t2"), lpow(mx, -1)),
            3: lprod(_t("t3/(t1*t2)"), mx),
            4: mx,
        })
    return out + [CheckResult("all strict", all(fam.strict.values()))]


@fixture("levels-five-actions", "levels")
def _fx_326_levels():
    r5 = lmax(_t("t2"), _t("t3"))
    r4 = lmax(_t("t1"), lprod(_t("t3"), lpow(r5, -1)))
    fam, out = _level_checks(
        _pipeline([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]), {
            1: lprod(_t("t1"), lpow(r4, -1)),
            2: lprod(_t("t2"), lpow(r5, -1)),
            3: lprod(_t("t3"), lpow(lmax(lprod(_t("t1"), r5), _t("t3")), -1)),
            4: r4,
            5: r5,
        })
    return out + [CheckResult("all strict", all(fam.strict.values()))]


@fixture("levels-non-strict-action", "levels")
def _fx_327_levels():
    pl = _pipeline([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    fam, out = _level_checks(pl, {
        1: lpow(lmax(_t("1"), _t("t2/(t1*t3)")), -1),
        2: lpow(lmax(_t("1"), _t("t1*t3/t2")), -1),
        3: _t("1"),
        4: lmax(_t("t1"), _t("t2/t3")),
        5: _t("t3"),
    })
    out.append(CheckResult("action 3 not strict", fam.strict[3] is False))
    out.append(CheckResult("others strict",
                           all(fam.strict[j] for j in (1, 2, 4, 5))))
    ghat = build_generalized_levels(pl.d, pl.r, pl.p)
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


def _cone(pl):
    return build_multicone(pl, pl.p, check_equivalence=False)


def _system_check(label, system, specs):
    got = _system_signature(system)
    want = _want_signature(specs)
    ok = got == want
    return CheckResult(label, ok, "" if ok else f"got {sorted(got)}")


@fixture("multicone-displays", "multicone")
def _fx_multicone_displays():
    running = _cone(_running_example())
    return [
        # three flags in general position
        _system_check("three-submanifolds", _cone(_pipeline(
            [[0, 1, 1], [1, 0, 1], [0, 0, 1]], complement_block={1})),
            ["t1", "t2", "t3/(t1*t2)"]),
        # four actions on four blocks
        _system_check("four-submanifolds", _cone(_pipeline(
            [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]],
            complement_block={1})),
            ["t1*t4/(t2*t3)", "t2*t4/(t1*t3)", "t3*t4/(t1*t2)",
             "t1*t2*t3/t4"]),
        # two actions, one nonzero direction
        _system_check("two-actions-system", running,
                      ["t1", "t2", "t1*t2/t3", "t3", ("1", "1")]),
        CheckResult("two-actions key inequality",
                    (_primitive(mono("t1*t2/t3")), "0")
                    in _system_signature(running)),
    ]


@fixture("multicone-plane-catalogue", "multicone")
def _fx_52_53():
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
    return [_system_check(label, _cone(_pipeline(rows)), specs)
            for label, rows, specs in cases]


@fixture("multicone-closure-boundary", "multicone")
def _fx_closure():
    cl = closure(_pipeline([[1, 0, 1], [0, 1, 1], [1, 1, 1]]))
    return [
        CheckResult("closure gains both flags",
                    {str(e.pair.f) for e in cl.entries} >= {"t1", "t2"}),
        CheckResult("excludes (0, 0.2, 0) at eps 0.1",
                    not cl.system.member({1: 0.0, 2: 0.2, 3: 0.0}, 0.1)),
        CheckResult("keeps (0, 0.005, 0) at eps 0.1",
                    cl.system.member({1: 0.0, 2: 0.005, 3: 0.0}, 0.1)),
        CheckResult("running-example closure keeps t3",
                    pair("t3") in closure(_running_example()).K),
    ]


@fixture("multicone-projection", "multicone")
def _fx_projection():
    system = _cone(_pipeline([[1, 1], [0, 1]]))
    pr1 = project(system, 1, k_in_JZ=False)
    return [
        _system_check("drop block 2", project(system, 2, k_in_JZ=True),
                      ["t1"]),
        _system_check("drop block 1 pairs up", pr1, ["t2"]),
        CheckResult("paired bound is squared",
                    pr1.member({2: 0.1 * 0.1 * 0.9}, 0.1) and
                    not pr1.member({2: 0.1 * 0.1 * 1.1}, 0.1)),
    ]


# -------------------------------------------------------------- asymptotics

@fixture("asymptotics-index-sets", "asymptotics")
def _fx_index_sets():
    def members(rows, J, N):
        d = deformation(rows)
        return set(index_set(d, rank_and_normalize(d, point()), J, N).members)

    cusp = [[3, 2], [1, 1]]
    return [
        CheckResult("separate flags", members([[1, 0], [0, 1]], {1}, (3, 0))
                    == {(0, 0), (1, 0), (2, 0)}),
        CheckResult("weighted grading", members(cusp, {1}, (7, 0)) == {
            (a1, a2) for a1 in range(3) for a2 in range(4)
            if 3 * a1 + 2 * a2 < 7}),
        CheckResult("zero orders empty",
                    members(cusp, {1, 2}, (0, 0)) == set()),
        CheckResult("clean-two-plane joint constraint",
                    members([[1, 1, 0], [0, 1, 1]], {1, 2}, (2, 2)) == {
                        (b1, b2, b3) for b1 in range(3) for b2 in range(3)
                        for b3 in range(3) if b1 + b2 < 2 and b2 + b3 < 2}),
    ]


def _remainder_checks(label, rows, orders, want):
    """The remainder exponent of the plain levels at each order N against
    the monomial want(N)."""
    pl = _pipeline(rows)
    fam = build_levels(pl)
    return [CheckResult(f"{label} N={N}", level_eq(
        remainder_exponent(fam, N, pl.r.sigma_A), lmono(mono(want(N)))))
        for N in orders]


@fixture("asymptotics-remainders", "asymptotics")
def _fx_remainders():
    # general two-block with rational entries, whose sigma_A is 6
    b, c = Fraction(1, 2), Fraction(1, 3)
    ddet = 1 / (1 - b * c) / 6
    cases = [
        ("cusp", [[3, 2], [1, 1]], [(1, 1), (3, 2), (4, 1)],
         lambda N: f"t1^({N[0] - 2 * N[1]})*t2^({3 * N[1] - N[0]})"),
        ("staircase", [[1, 1], [0, 1]], [(1, 1), (3, 2)],
         lambda N: f"t1^({N[0] - N[1]})*t2^({N[1]})"),
        ("general two-block", [[1, b], [c, 1]], [(1, 1), (2, 5)],
         lambda N: f"t1^({(N[0] - b * N[1]) * ddet})"
                   f"*t2^({(N[1] - c * N[0]) * ddet})"),
        ("mixed", [[1, 1, 1], [0, 1, 0], [0, 0, 1]], [(2, 1, 1)],
         lambda N: f"t1^({N[0] - N[1] - N[2]})*t2^({N[1]})*t3^({N[2]})"),
    ]
    return [check for case in cases for check in _remainder_checks(*case)]


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


def _class_check(label, rows):
    """The catalogue case of a two-row matrix against its label, which the
    check's name repeats with a space for the comma."""
    return CheckResult(label.replace(",", " "),
                       classify_two_manifolds(rows).label == label)


@fixture("asymptotics-classification", "classification")
def _fx_classify():
    half, third = Fraction(1, 2), Fraction(1, 3)
    out = [_class_check(label, rows) for label, rows in [
        ("m=2,N=2", [[1, 0], [0, 1]]),
        ("m=2,N=3", [[1, 2], [0, 1]]),
        ("m=2,N=4", [[1, half], [third, 1]]),
        ("m=3,N=3", [[1, 0, 2], [0, 1, 0]]),
        ("m=3,N=4a", [[1, 1, 2], [0, 1, 0]]),
        ("m=3,N=4b", [[1, 1, 0], [0, 1, 2]]),
        ("m=3,N=5", [[1, 1, 3], [0, 1, 1]]),
        ("m=3,N=6", [[1, half, 1], [half, 1, 1]]),
    ]]
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
