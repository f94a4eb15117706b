"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget."""

import math
import time

import numpy as np

from multispec.deformation import deformation, point, rank_and_normalize
from multispec.fixtures import run_fixtures
from multispec.levels import build_levels, evaluate_level
from multispec.monomials import tau, lam, Var
from multispec.multicone import (build_multicone, closure,
                                 contraction_stable_check, sample_members)
from multispec.polynomials import poly_monomial, exp_truncation
from multispec.semigroup import (run_pipeline, equivalent, radical_member,
                                 eliminate_lambda, Verdict)
from multispec.asymptotics import structure_of, verify_estimate
from oracles import semigroup_probes


def _report(n, label, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.2f}s" + (f" < {budget}s)" if budget else ")")
    print(f"[criterion {n}] {status}: {label}{extra}")
    assert ok, f"criterion {n} failed: {label}"
    if budget is not None:
        assert elapsed < budget, f"criterion {n} over budget: {elapsed:.2f}s"


# The fixture configurations behind criteria 1-5, reused by criterion 8.
CONFIGS = [
    ("two-actions", [[1, 0, 1], [0, 1, 1]], {1, 2}),
    ("four-actions", [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]], set()),
    ("five-actions", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
     set()),
    ("five-actions-nonstrict", [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0],
                                [0, 1, 1]], set()),
    ("clean-two-plane-a", [[1, 1, 0], [0, 1, 1]], {1}),
    ("clean-two-plane-b", [[1, 1, 0], [0, 1, 1]], {2}),
    ("clean-two-plane-c", [[1, 1, 0], [0, 1, 1]], {3}),
    ("clean-two-plane-d", [[1, 1, 0], [0, 1, 1]], {1, 3}),
    ("three-planes", [[1, 0, 1], [0, 1, 1], [0, 0, 1]], set()),
    ("separated-2", [[1, 0], [0, 1]], set()),
    ("staircase-2", [[1, 1], [0, 1]], set()),
    ("cusp", [[3, 2], [1, 1]], set()),
    ("clean-2", [[1, 1, 0], [0, 1, 1]], set()),
    ("separated-3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], set()),
    ("staircase-3", [[1, 1, 1], [0, 1, 1], [0, 0, 1]], set()),
    ("clean-3", [[1, 1, 0], [0, 1, 1], [1, 0, 1]], set()),
    ("mixed-a", [[1, 1, 1], [0, 1, 0], [0, 0, 1]], set()),
    ("mixed-b", [[1, 1, 0], [0, 1, 1], [0, 0, 1]], set()),
    ("four-block", [[1, 1, 0, 1], [0, 1, 1, 0]], {3}),
]


def test_criterion_1_pipeline_exactness():
    t0 = time.monotonic()
    results = run_fixtures("pipeline")
    ok = all(c.ok for _, c in results) and results
    elapsed = time.monotonic() - t0
    _report(1, f"stage sets byte-exact ({len(results)} checks)", ok,
            elapsed, budget=1.0)


def test_criterion_2_restriction_verdicts():
    t0 = time.monotonic()
    results = run_fixtures("restriction")
    ok = bool(results) and all(c.ok for _, c in results)
    elapsed = time.monotonic() - t0
    _report(2, f"restriction verdicts and witnesses ({len(results)} checks)",
            ok, elapsed, budget=5.0)


def test_criterion_3_level_functions():
    t0 = time.monotonic()
    results = run_fixtures("levels")
    ok = bool(results) and all(c.ok for _, c in results)
    elapsed = time.monotonic() - t0
    _report(3, f"level trees and strictness ({len(results)} checks)", ok,
            elapsed, budget=1.0)


def test_criterion_4_multicone_systems():
    t0 = time.monotonic()
    results = run_fixtures("multicone")
    ok = bool(results) and all(c.ok for _, c in results)
    elapsed = time.monotonic() - t0
    _report(4, f"multicone displays and closure exclusion "
               f"({len(results)} checks)", ok, elapsed)


def test_criterion_5_asymptotics(capsys=None):
    import tests.test_asymptotics as ta
    t0 = time.monotonic()
    results = run_fixtures("asymptotics")
    ok = bool(results) and all(c.ok for _, c in results)
    ta.test_oracle_equivalence_random()   # 50 random instances per rig
    ta.test_derivative_identity_random()  # >= 20 random instances
    elapsed = time.monotonic() - t0
    _report(5, "index sets, remainders, oracle equivalence, derivative "
               "identity", ok, elapsed, budget=10.0)


def test_criterion_6_induced_maps():
    t0 = time.monotonic()
    results = run_fixtures("maps")
    ok = bool(results) and all(c.ok for _, c in results)
    elapsed = time.monotonic() - t0
    _report(6, f"induced-map displays and the failing identity map "
               f"({len(results)} checks)", ok, elapsed)


def _contraction_suite():
    systems = []
    for rows in ([[1, 0], [0, 1]], [[3, 2], [1, 1]],
                 [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]):
        d = deformation(rows)
        pl = run_pipeline(d, None, point())
        systems.append(build_multicone(pl, check_equivalence=False))
    per = 10000 // len(systems) + 1
    total = violations = 0
    passed = True
    for i, system in enumerate(systems):
        rep = contraction_stable_check(system, per, rng_seed=100 + i)
        total += rep.checked
        violations += rep.violations
        passed = passed and rep.passed
    return total, violations, passed


def _boundedness_suite():
    total = violations = 0
    for idx, rows in enumerate(([[3, 2], [1, 1]], [[1, 1], [0, 1]],
                                [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])):
        d = deformation(rows)
        pl = run_pipeline(d, None, point())
        fam = build_levels(pl)
        system = build_multicone(pl, check_equivalence=False)
        rng = np.random.default_rng(500 + idx)
        pts = sample_members(system, 10000 // 3 + 1, 0.1, rng)
        half = len(pts) // 2
        values = {gen: [] for gen in pl.G}

        def gen_value(gen, norms):
            assign = {Var("tau", k): v for k, v in norms.items()}
            for j in range(1, d.ell + 1):
                assign[Var("lam", j)] = evaluate_level(fam.rho_Lambda[j], norms)
            return gen.f.evaluate(assign)

        fitted = {}
        for gen in pl.G:
            sample_vals = [gen_value(gen, q) for q in pts[:half]]
            fitted[gen] = 1.05 * max(sample_vals) if sample_vals else 1.0
        for q in pts[half:]:
            for gen in pl.G:
                total += 1
                if gen_value(gen, q) > fitted[gen]:
                    violations += 1
        # two-sided bound for the nonzero-valued quotients
        for gen in pl.G:
            if gen.v.is_zero:
                continue
            lows = [gen_value(gen, q) for q in pts]
            if lows:
                c = fitted[gen]
                total += len(lows)
                violations += sum(1 for v in lows if v < 1.0 / (c * 1.05))
    return total, violations


def _roundtrip_suite():
    rng = np.random.default_rng(77)
    total = bad = 0
    rigs = ([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
            [[3, 2], [1, 1]],
            [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    per = 10000 // len(rigs) + 1
    for rows in rigs:
        d = deformation(rows)
        pl = run_pipeline(d, None, point())
        fam = build_levels(pl)
        for _ in range(per):
            taus = {k: float(np.exp(rng.uniform(-2, 2)))
                    for k in pl.r.sel_cols}
            lam_vals = {j: evaluate_level(fam.rho_Lambda[j], taus)
                        for j in range(1, d.ell + 1)}
            for k in pl.r.sel_cols:
                phi_k = 1.0
                for j in range(1, d.ell + 1):
                    phi_k *= lam_vals[j] ** float(d.entry(j, k))
                total += 1
                if not math.isclose(phi_k, taus[k], rel_tol=1e-10):
                    bad += 1
    return total, bad


def _estimate_suite():
    ok = True
    for rows in ([[3, 2], [1, 1]], [[1, 1], [0, 1]]):
        d = deformation(rows)
        r = rank_and_normalize(d, point())
        s = structure_of(d)
        functions = [poly_monomial(s, (1, 1)), exp_truncation(s, 8)]
        orders = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]
        for f in functions:
            for N in orders:
                rep = verify_estimate(d, r, point(), f, N, samples=350,
                                      seed=13)
                ok = ok and rep.passed
    return ok


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    c_total, c_bad, c_passed = _contraction_suite()
    b_total, b_bad = _boundedness_suite()
    r_total, r_bad = _roundtrip_suite()
    est_ok = _estimate_suite()
    elapsed = time.monotonic() - t0
    ok = (c_passed and c_total >= 10000 and c_bad == 0 and
          b_total >= 5000 and b_bad == 0 and
          r_total >= 10000 and r_bad == 0 and est_ok)
    _report(7, f"contraction {c_total}/{c_bad} bad, boundedness "
               f"{b_total}/{b_bad} bad, round-trip {r_total}/{r_bad} bad, "
               f"estimates {est_ok}", ok, elapsed, budget=60.0)


def test_criterion_8_radical_property():
    t0 = time.monotonic()
    ok = True
    details = []
    for name, rows, zeros in CONFIGS:
        d = deformation(rows)
        p = point(zero_blocks=zeros)
        pl = run_pipeline(d, None, p)
        verdict = equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L)
        if verdict is not Verdict.YES:
            ok = False
            details.append(f"{name}: equivalence {verdict.value}")
            continue
        probes = semigroup_probes(eliminate_lambda(pl.G), pl.zero_cols_L)
        for probe in probes:
            res = radical_member(probe, pl.Fq, zero_slack=pl.zero_cols_L)
            if res.verdict is not Verdict.YES or res.power > 64:
                ok = False
                details.append(f"{name}: {probe} -> {res.verdict.value}")
    elapsed = time.monotonic() - t0
    _report(8, f"radical power <= 64 and stage/semigroup equivalence on "
               f"{len(CONFIGS)} configurations {details}", ok, elapsed)
