"""Each output check accepts a known-good output and rejects a tampered one.

The good outputs come from the program on corpus entries; each tampered
output changes one thing the check is there to catch.
"""

import json
import random
from dataclasses import replace

import pytest

import checks
import corpus
from spans import NullTracer
from workloads import CliSession, Decide, Eliminate, Sample
from multispec.levels import lmono, lpow, lprod
from multispec.monomials import ZERO, Monomial, Pair, lam, tau
from multispec.multicone import ClosureEntry, ProbeOutcome
from multispec.polynomials import poly_monomial
from multispec.semigroup import Verdict


def rng():
    return random.Random(7)


def run(wl, op_id):
    return dict(wl.ops)[op_id]()


@pytest.fixture(scope="module")
def decide():
    return Decide(NullTracer())


@pytest.fixture(scope="module")
def eliminate():
    return Eliminate(NullTracer())


@pytest.fixture(scope="module")
def sample():
    return Sample(NullTracer())


def test_decide_yes(decide):
    pl, verdict = out = run(decide, "decide-2x4-4")
    assert decide.check("decide-2x4-4", out, rng()) == []
    assert decide.check("decide-2x4-4", (pl, Verdict.NO), rng())
    outside = Decide.outside_generator(pl)
    assert decide.check("decide-2x4-4", (replace(pl, Fq=pl.Fq | {outside}),
                                         verdict), rng())


def test_decide_lineality(decide):
    op_id = corpus.LINEALITY_INSTANCE
    assert decide.check(op_id, run(decide, op_id), rng()) == []
    assert checks.has_lineality([{"tau:1": 1}, {"tau:1": -1}])
    assert not checks.has_lineality([{"tau:1": 1}, {"tau:2": 1}])


def test_decide_control(decide):
    op_id = next(iter(decide.controls))
    out = run(decide, op_id)
    assert decide.check(op_id, out, rng()) == []
    assert decide.check(op_id, Verdict.YES, rng())
    a, b, slack, extra = decide.controls[op_id]
    inside = next(q for q in b if not any(v.kind == "lam" for v, _ in q.f.exps))
    decide.controls[op_id] = (a, b, slack, inside)
    try:
        assert decide.check(op_id, out, rng())
    finally:
        decide.controls[op_id] = (a, b, slack, extra)


def test_eliminate_chain(eliminate):
    op_id = "eliminate-8x4-3"
    pl, fam, cl, k, proj, rem = out = run(eliminate, op_id)
    assert eliminate.check(op_id, out, rng()) == []
    lam_pair = Pair(Monomial.from_dict({lam(1): 1}), ZERO)
    bad_pl = replace(pl, Fq=pl.Fq | {lam_pair})
    assert eliminate.check(op_id, (bad_pl, fam, cl, k, proj, rem), rng())
    outside = Pair(Monomial.from_dict({tau(1): -7, tau(2): -7}), ZERO)
    j, _ = pl.F0_stages[0]
    bad_pl = replace(pl, F0_stages=((j, frozenset({outside})),)
                     + pl.F0_stages[1:])
    assert eliminate.check(op_id, (bad_pl, fam, cl, k, proj, rem), rng())
    rho = dict(fam.rho_Lambda)
    j = next(j for j in rho if any(pl.d.entry(j, c) for c in pl.r.sel_cols))
    rho[j] = lprod(rho[j], lmono(Monomial.from_dict({tau(1): 1})))
    bad_fam = replace(fam, rho_Lambda=rho)
    assert eliminate.check(op_id, (pl, bad_fam, cl, k, proj, rem), rng())
    e = next(e for e in cl.entries if len(e.factors) > 1)
    bad_e = ClosureEntry(e.pair, e.factors[:-1])
    bad_cl = replace(cl, entries=tuple(bad_e if x is e else x
                                       for x in cl.entries))
    assert eliminate.check(op_id, (pl, fam, bad_cl, k, proj, rem), rng())
    assert eliminate.check(op_id, (pl, fam, cl, k, cl.system, rem), rng())


def test_eliminate_generalized(eliminate):
    op_id = "generalized-4x3-0"
    out = run(eliminate, op_id)
    assert eliminate.check(op_id, out, rng()) == []
    rho = {j: lpow(e, -1) for j, e in out.rho_Lambda.items()}
    assert eliminate.check(op_id, replace(out, rho_Lambda=rho), rng())


def test_sample_contraction(sample):
    rep = run(sample, "contraction-1")
    assert sample.check("contraction-1", rep, rng()) == []
    assert sample.check("contraction-1", replace(rep, violations=1), rng())
    assert sample.check("contraction-1", replace(rep, sampled=rep.sampled - 1,
                                                 checked=rep.sampled - 1),
                        rng())


def test_sample_underflow_counts_as_failed(sample):
    op_id = "underflow-0"
    assert sample.failed(op_id, run(sample, op_id))


def test_sample_members(sample):
    pts, levels = out = run(sample, "members-3")
    assert sample.check("members-3", out, rng()) == []
    moved = [dict(q) for q in pts]
    moved[0] = {k: 10 * v for k, v in moved[0].items()}
    assert sample.check("members-3", (moved, levels), rng())
    off = [dict(x) for x in levels]
    off[0] = {j: 1.01 * v for j, v in off[0].items()}
    assert sample.check("members-3", (pts, off), rng())
    assert sample.check("members-3", (pts[1:], levels[1:]), rng())


def test_sample_estimate_template_probe(sample):
    est = "estimate-0-z1*z2-11"
    rep = run(sample, est)
    assert sample.check(est, rep, rng()) == []
    assert sample.check(est, replace(rep, passed=False), rng())
    tpl = "template-0-exp8-33"
    t = run(sample, tpl)
    assert sample.check(tpl, t, rng()) == []
    extra = poly_monomial(t.struct, (5, 0))
    assert sample.check(tpl, t + extra, rng())
    res = run(sample, "probe-1")
    assert sample.check("probe-1", res, rng()) == []
    assert sample.check("probe-1", replace(res,
                                           outcome=ProbeOutcome.IN_CONE),
                        rng())


def test_cli_outputs():
    wl = CliSession(NullTracer())
    op_id = "pipeline-four-block"
    rc, stdout, stderr = out = run(wl, op_id)
    assert wl.check(op_id, out, rng()) == []
    payload = json.loads(stdout)
    payload["Fq"][0]["exponents"]["lam:1"] = "1"
    assert wl.check(op_id, (0, json.dumps(payload), ""), rng())
    assert wl.check(op_id, (1, stdout, "error"), rng())
    assert wl.check("analyze-x", (0, "{not json", ""), rng())
    assert wl.check("fixtures-all", (0, "130 checks, 0 failures\n", ""),
                    rng()) == []
    assert wl.check("fixtures-all", (0, "130 checks, 2 failures\n", ""),
                    rng())
