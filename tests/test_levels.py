import copy
import math
import pickle
import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multispec import levels
from multispec.asymptotics import remainder_exponent
from multispec.deformation import (deformation, is_fixed_point, point,
                                   rank_and_normalize)
from multispec.levels import (build_levels, build_generalized_levels,
                              canonical, effective_exponent, evaluate_level,
                              is_strict, level_eq, lmax, lmin, lmono, lpow,
                              lprod, LevelExpr, LevelFamily,
                              PermutationBudgetExceeded, _combine)
from multispec.linear import rank
from multispec.monomials import Monomial, Pair, lam, mono, tau
from multispec.semigroup import eliminate, run_pipeline
from strategies import moving_scenarios, pipeline_of, scenarios


def fam_for(rows, zeros=frozenset()):
    d = deformation(rows)
    pl = run_pipeline(d, None, point(zero_blocks=zeros))
    return d, build_levels(pl)


def test_levels_normal_type():
    d, fam = fam_for([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert level_eq(fam.rho_Lambda[1], lmono("t1"))
    assert level_eq(fam.rho_Lambda[2], lmono("t2"))
    assert level_eq(fam.rho_Lambda[3], lmono("t3/(t1*t2)"))


def test_levels_transitive_families():
    d, fam = fam_for([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    mx = lmax(lmono("t1"), lmono("t2"))
    assert level_eq(fam.rho_Lambda[1], lprod(lmono("t1"), lpow(mx, -1)))
    assert level_eq(fam.rho_Lambda[4], mx)

    d, fam = fam_for([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    assert level_eq(fam.rho_Lambda[1],
                    lpow(lmax(lmono("1"), lmono("t2/(t1*t3)")), -1))
    assert level_eq(fam.rho_Lambda[3], lmono("1"))
    assert level_eq(fam.rho_Lambda[5], lmono("t3"))


def test_empty_branch_set_gives_one():
    # A parameter that no pair of its stage holds with a negative exponent
    # has no branches: its level is the constant, and restriction sets it to
    # 1 in the other levels.  No drawn scenario has such a stage, so the
    # pairs with l4 in the denominator are taken out by hand.
    pl = run_pipeline(deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1],
                                   [1, 1, 1]]), None, point())
    assert pl.elim_order == (4,)
    cut = replace(pl, G=frozenset(q for q in pl.G
                                  if q.f.exponent(lam(4)) >= 0))
    fam = build_levels(cut)
    assert fam.rho_Lambda == {1: lmono("t1"), 2: lmono("t2"),
                              3: lmono("t3/(t1*t2)"), 4: lmono("1")}


def test_levels_require_non_fixed_point():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    pl = run_pipeline(d, None, point(zero_blocks={1, 2}))
    with pytest.raises(ValueError):
        build_levels(pl)


def test_effective_exponent_examples():
    e = lmax(lmono("t1"), lmono("t2"))
    assert effective_exponent(e, {1: Fraction(1)}) == 0
    assert effective_exponent(lmono("1"), {1: Fraction(5)}) == 0
    e = lmin(lmono("1"), lmono("t1*t3/t2"))
    assert effective_exponent(e, {1: Fraction(1)}) == 1


def test_is_strict_examples():
    d, fam = fam_for([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    assert fam.strict == {1: True, 2: True, 3: False, 4: True, 5: True}
    d, fam = fam_for([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    assert all(fam.strict.values())
    d, fam = fam_for([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    assert all(fam.strict.values())


def test_last_action_always_strict():
    for rows in ([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]],
                 [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]):
        d, fam = fam_for(rows)
        last = fam.elim_order[-1] if fam.elim_order else d.ell
        assert fam.strict[last]


def test_non_degenerate_always_strict():
    for rows in ([[1, 0], [0, 1]], [[3, 2], [1, 1]],
                 [[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [0, 1, 1], [0, 0, 1]]):
        d, fam = fam_for(rows)
        assert all(fam.strict.values())


def test_generalized_levels():
    d = deformation([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    p = point()
    ghat = build_generalized_levels(d, rank_and_normalize(d, p), p)
    assert all(ghat.strict.values())
    # the problematic action gains a genuine decay branch
    assert not level_eq(ghat.rho_Lambda[3], lmono("1"))

    # single action: only the identity ordering
    d1 = deformation([[1, 1]])
    g1 = build_generalized_levels(d1, rank_and_normalize(d1, p), p)
    f1 = build_levels(run_pipeline(d1, None, p))
    assert level_eq(g1.rho_Lambda[1], f1.rho_Lambda[1])

    # the generalized family of a non-degenerate action equals the plain one
    d324 = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    g = build_generalized_levels(d324, rank_and_normalize(d324, p), p)
    f = build_levels(run_pipeline(d324, None, p))
    for j in range(1, 4):
        assert level_eq(g.rho_Lambda[j], f.rho_Lambda[j])


def test_generalized_levels_refuse_more_orderings_than_the_budget(
        monkeypatch):
    # 8 actions have 8! = 40,320 orderings, over MAX_ORDERINGS = 5040: the
    # budget raises before any pipeline is built
    d = deformation([[1, 0], [0, 1], [1, 1], [2, 1], [1, 2], [3, 1], [1, 3],
                     [2, 3]])
    p = point()
    r = rank_and_normalize(d, p)

    def no_pipeline(*args):
        raise AssertionError("a pipeline was built")

    monkeypatch.setattr(levels, "run_pipeline", no_pipeline)
    with pytest.raises(PermutationBudgetExceeded, match="40320 orderings"):
        build_generalized_levels(d, r, p)


def test_generalized_levels_match_every_ordering():
    # reference: the pointwise minimum over all ell! orderings, each with its
    # leading rows as the minor and the rest eliminated in order
    d = deformation([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    p = point()
    r = rank_and_normalize(d, p)
    branches = {j: [] for j in range(1, d.ell + 1)}
    for theta in permutations(range(1, d.ell + 1)):
        lead = theta[:r.L]
        if rank([list(d.row(j)) for j in lead]) < r.L:
            continue
        rr = rank_and_normalize(d, p, fixed_rows=lead)
        fam = build_levels(run_pipeline(d, rr, p).reordered(theta[r.L:]))
        for j in branches:
            branches[j].append(fam.rho_Lambda[j])
    ghat = build_generalized_levels(d, r, p)
    for j, exprs in branches.items():
        assert ghat.rho_Lambda[j] == canonical(lmin(exprs))


def test_evaluate_level_examples():
    d, fam = fam_for([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    assert math.isclose(evaluate_level(fam.rho_Lambda[4], {1: 2, 2: 5, 3: 1}), 5.0)
    assert evaluate_level(lmono("1"), {1: 3}) == 1.0
    d, fam = fam_for([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert math.isclose(evaluate_level(fam.rho_Lambda[3], {1: 2, 2: 3, 3: 12}), 2.0)
    with pytest.raises(ValueError):
        evaluate_level(fam.rho_Lambda[3], {1: 2, 2: 0.0, 3: 12})


def _scalar_level(e, tau_values):
    """The tree evaluated from its exact exponents at every node."""
    if e.kind == "mono":
        out = 1.0
        for v, x in e.mono.exps:
            base = float(tau_values[v.index])
            if base <= 0:
                raise ValueError(f"nonpositive value for {v}")
            out *= base ** float(x)
        return out
    vals = [_scalar_level(c, tau_values) for c in e.children]
    if e.kind == "max":
        return max(vals)
    if e.kind == "min":
        return min(vals)
    if e.kind == "prod":
        out = 1.0
        for v in vals:
            out *= v
        return out
    return vals[0] ** float(e.exp)


def test_evaluate_level_matches_scalar_oracle():
    d = deformation([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    p = point()
    trees = list(build_generalized_levels(d, rank_and_normalize(d, p),
                                          p).rho_Lambda.values())
    trees += list(fam_for([[1, 0, 1], [0, 1, 1], [0, 0, 1],
                           [1, 1, 1]])[1].rho_Lambda.values())
    # uncanonicalised trees keep their product and power nodes
    trees.append(lprod(lpow(lmax("t1", "t2/t3"), Fraction(-3, 2)),
                       lmin("t1*t3", "t2^(1/2)"), "t3^(2/3)"))
    rng = np.random.default_rng(11)
    for e in trees:
        for _ in range(40):
            taus = {k: float(np.exp(rng.uniform(-6, 2))) for k in (1, 2, 3)}
            assert evaluate_level(e, taus) == _scalar_level(e, taus)


def test_canonical_identities():
    # products and powers distribute through the lattice nodes
    e1 = lprod(lmono("t1"), lpow(lmax(lmono("t1"), lmono("t2")), -1))
    assert level_eq(e1, lmin(lmono("1"), lmono("t1/t2")))
    e2 = lpow(lmax(lmono("1"), lmono("t2/(t1*t3)")), -1)
    assert level_eq(e2, lmin(lmono("1"), lmono("t1*t3/t2")))
    # operand order is irrelevant
    assert level_eq(lmax(lmono("t1"), lmono("t2")),
                    lmax(lmono("t2"), lmono("t1")))


def test_roundtrip_scales_numerically():
    # evaluating the restricted levels reproduces the selected scales
    rng = np.random.default_rng(42)
    for rows in ([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
                 [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]]):
        d = deformation(rows)
        pl = run_pipeline(d, None, point())
        fam = build_levels(pl)
        for _ in range(100):
            taus = {k: float(np.exp(rng.uniform(-2, 2)))
                    for k in pl.r.sel_cols}
            lam_vals = {j: evaluate_level(fam.rho_Lambda[j], taus)
                        for j in range(1, d.ell + 1)}
            for kpos, k in enumerate(pl.r.sel_cols):
                phi_k = 1.0
                for j in range(1, d.ell + 1):
                    phi_k *= lam_vals[j] ** float(d.entry(j, k))
                assert math.isclose(phi_k, taus[k], rel_tol=1e-10)


def test_effective_exponent_matches_numeric_slope():
    rng = np.random.default_rng(7)
    for rows in ([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]],
                 [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]]):
        d = deformation(rows)
        pl = run_pipeline(d, None, point())
        fam = build_levels(pl)
        t = 1e-6
        for j in range(1, d.ell + 1):
            taus = {k: float(np.exp(rng.uniform(-0.5, 0.5)))
                    for k in pl.r.sel_cols}
            scaled = {k: taus[k] * t ** float(d.entry(j, k))
                      for k in pl.r.sel_cols}
            base = evaluate_level(fam.rho_Lambda[j], taus)
            moved = evaluate_level(fam.rho_Lambda[j], scaled)
            slope = math.log(moved / base) / math.log(t)
            exact = effective_exponent(
                fam.rho_Lambda[j],
                {k: d.entry(j, k) for k in range(1, d.m + 1)})
            assert abs(slope - float(exact)) < 0.05


def _nodes(e):
    yield e
    for c in e.children:
        yield from _nodes(c)


def test_two_sided_scaling_bound():
    # scaling one selected coordinate moves each level by at most its
    # leaf-exponent bound in either direction
    rng = np.random.default_rng(11)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]
    d = deformation(rows)
    pl = run_pipeline(d, None, point())
    fam = build_levels(pl)
    for j, e in fam.rho_Lambda.items():
        n_bound = max((abs(n.mono.exponent(tau(k))) for n in _nodes(e)
                       if n.kind == "mono" for k in pl.r.sel_cols),
                      default=Fraction(0))
        for t in (2.0, 10.0, 100.0):
            for k in pl.r.sel_cols:
                taus = {kk: float(np.exp(rng.uniform(-1, 1)))
                        for kk in pl.r.sel_cols}
                scaled = dict(taus)
                scaled[k] = taus[k] * t
                r0 = evaluate_level(e, taus)
                r1 = evaluate_level(e, scaled)
                bound = t ** float(n_bound)
                assert r1 <= r0 * bound * (1 + 1e-9)
                assert r1 >= r0 / bound * (1 - 1e-9)


def _trees():
    """Level trees built by every constructor, canonical or not; the second
    list still holds action parameters, so it cannot be evaluated."""
    d = deformation([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
    fam = build_levels(run_pipeline(d, None, point()))
    return list(fam.rho_Lambda.values()) + [
        lprod(lpow(lmax("t1", "t2/t3"), Fraction(-3, 2)),
              lmin("t1*t3", "t2^(1/2)"), "t3^(2/3)"),
        lmin(lmax("t1", lmax("t2", "t1")), "t3"),
        lpow(lmin("1", "t1/t2"), 0),
        lmono("t1/t2")], [
        lmax("t1*l5/t3", lmin("t2/t3", "l4^(1/2)*t1"))]


TAUS = {1: 2.0, 2: 3.0, 3: 5.0}


def test_canonical_form_is_kept_and_fixed():
    for e in sum(_trees(), []):
        c = canonical(e)
        assert canonical(c) is c
        assert canonical(e) is c
        assert canonical(canonical(e)) is canonical(e)
        # a fresh copy of the same tree finds the same form
        assert canonical(copy.deepcopy(e)) == c


def test_equal_trees_hash_alike():
    a = lmax(lmono("t1"), lmono(mono("t2") * mono("t3^(-1)")))
    b = lmax("t1", "t2/t3")
    c = canonical(lmax("t2/t3", lmin("t1", "t1")))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    e1 = lprod(lmono("t1"), lpow(lmax(lmono("t1"), lmono("t2")), -1))
    e2 = lmin(lmono("1"), lmono("t1/t2"))
    assert hash(canonical(e1)) == hash(canonical(e2))
    # caches take part in no comparison
    evaluate_level(a, TAUS)
    assert a == b and hash(a) == hash(b)


def test_level_trees_survive_pickle_and_deepcopy():
    plain, with_params = _trees()
    for e in plain + with_params:
        hash(e)
        canonical(e)
        if e in plain:
            evaluate_level(e, TAUS)
        for back in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert back == e
            assert hash(back) == hash(e)
            assert str(back) == str(e)
            assert canonical(back) == canonical(e)


def test_level_trees_have_no_instance_dict():
    # The hash, canonical form and float tree live in slots.  Setting them
    # with object.__setattr__ on instances that have a __dict__ breaks
    # CPython's key-sharing instance dicts, which cost about 15% more peak
    # memory on the benchmark's elimination workload.
    for e in _trees()[0]:
        hash(e)
        evaluate_level(e, TAUS)
        assert not hasattr(e, "__dict__")
        assert not hasattr(canonical(e), "__dict__")


def _per_ordering_generalized_levels(d, r, p):
    """Oracle: a full pipeline and level family per (leading rows, order of
    the rest), minimised; build_generalized_levels shares one pipeline per
    set of leading rows instead."""
    families = []
    seen = set()
    for lead in combinations(range(1, d.ell + 1), r.L):
        if rank([list(d.row(j)) for j in lead]) < r.L:
            continue
        rr = rank_and_normalize(d, p, fixed_rows=lead)
        rest = [j for j in range(1, d.ell + 1) if j not in lead]
        for order in permutations(rest):
            fam = build_levels(run_pipeline(d, rr, p).reordered(order))
            key = tuple(canonical(fam.rho_Lambda[j])
                        for j in range(1, d.ell + 1))
            if key not in seen:
                seen.add(key)
                families.append(fam)
    rho_hat = {j: canonical(lmin([fam.rho_Lambda[j] for fam in families]))
               for j in range(1, d.ell + 1)}
    strict = {j: is_strict(rho_hat[j], d, j) for j in range(1, d.ell + 1)}
    return LevelFamily(rho_hat, strict, ())


def _check_generalized_against_oracle(d, p):
    r = rank_and_normalize(d, p)
    got = build_generalized_levels(d, r, p)
    want = _per_ordering_generalized_levels(d, r, p)
    assert got.rho_Lambda == want.rho_Lambda
    assert got.strict == want.strict
    # every reordered pipeline eliminates the parameters in that order
    for lead in combinations(range(1, d.ell + 1), r.L):
        if rank([list(d.row(j)) for j in lead]) < r.L:
            continue
        rr = rank_and_normalize(d, p, fixed_rows=lead)
        base = run_pipeline(d, rr, p)
        rest = [j for j in range(1, d.ell + 1) if j not in lead]
        for order in permutations(rest):
            moved = base.reordered(order)
            want = _stages_in_order(base, order)
            for f in fields(moved):
                assert getattr(moved, f.name) == \
                    want.get(f.name, getattr(base, f.name)), f.name


def _stages_in_order(pl, order):
    """The elimination stages of pl redone step by step from G: the
    parameters in the given order, then the zero-pattern columns."""
    stage, f0_stages, f_stages = pl.G, [], []
    for j in order:
        stage = eliminate(stage, lam(j))
        f0_stages.append((j, stage))
    for k in pl.zero_cols_L:
        stage = eliminate(stage, tau(k))
        f_stages.append((k, stage))
    return {"F0_stages": tuple(f0_stages), "F_stages": tuple(f_stages),
            "Fq": stage, "elim_order": tuple(order)}


@pytest.mark.parametrize("rows, zeros", [
    ([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]], ()),
    ([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]], ()),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], ()),
    # zero patterns with zero-pattern stages after the parameter stages
    ([[1, 0, 1], [2, 0, 2], [1, 1, 2], [0, 1, 1]], {2}),
    ([[0, 2, 0], [2, 1, 2], [0, 1, 0], [1, 0, 1]], {1}),
    ([[1, 1]], ()),
])
def test_generalized_levels_match_per_ordering_route(rows, zeros):
    _check_generalized_against_oracle(deformation(rows),
                                      point(zero_blocks=zeros))


@settings(max_examples=40, deadline=None)
@given(scenarios(max_rows=5, max_cols=4))
def test_generalized_levels_match_per_ordering_route_at_random(sc):
    rows, zeros = sc
    if len(rows) < 3:
        rows = rows + [[a + b for a, b in zip(rows[0], rows[1])]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = deformation(rows)
    p = point(zero_blocks=zeros)
    if is_fixed_point(d, p):
        with pytest.raises(ValueError, match="outside fixed points"):
            build_generalized_levels(d, rank_and_normalize(d, p), p)
        return
    _check_generalized_against_oracle(d, p)


def test_generalized_levels_reject_a_fixed_point():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(zero_blocks={1, 2})
    with pytest.raises(ValueError, match="outside fixed points"):
        build_generalized_levels(d, rank_and_normalize(d, p), p)


# Oracles for the memoised level-tree kernel: the restriction substituted
# parameter by parameter over the whole tree, and strictness evaluated
# afresh at every node.

def sol_lambda(f, j: int) -> Monomial:
    """The parameter level solved from a negative-exponent monomial:
    lam_j * f^{1/|a|}, which no longer involves lam_j."""
    m = f.f if isinstance(f, Pair) else f
    a = m.exponent(lam(j))
    if a >= 0:
        raise ValueError("solving requires a negative parameter exponent")
    out = Monomial.from_dict({lam(j): 1}) * (m ** (Fraction(1) / -a))
    assert out.exponent(lam(j)) == 0
    return out


def _drop(m: Monomial, v) -> Monomial:
    return Monomial(tuple((w, x) for w, x in m.exps if w != v))


def test_sol_lambda_examples():
    assert sol_lambda(mono("t1/l4"), 4) == mono("t1")
    assert sol_lambda(mono("t3/(l4*l5)"), 4) == mono("t3/l5")
    assert sol_lambda(mono("l4^(-1)"), 4) == mono("1")
    with pytest.raises(ValueError):
        sol_lambda(mono("t1*l4"), 4)


def subst_lambda(e, j, replacement):
    """Substitute a parameter inside a monomial-leaf tree, branching the
    leaf when the replacement is itself a lattice node."""
    v = lam(j)
    if e.kind == "mono":
        exp = e.mono.exponent(v)
        if exp == 0:
            return e
        return _combine(_drop(e.mono, v), replacement, exp)
    if e.kind in ("max", "min"):
        return LevelExpr(e.kind, children=tuple(subst_lambda(c, j, replacement)
                                                for c in e.children))
    raise ValueError("substitution expects a lattice tree")


def _sequential_level_trees(pl):
    """Every leaf substituted one eliminated parameter at a time, over the
    whole tree, then canonicalised."""
    rho_raw = {}
    for j in pl.elim_order:
        branches = sorted({sol_lambda(pr, j)
                           for pr in pl.stage_before_lambda(j)
                           if pr.f.exponent(lam(j)) < 0},
                          key=lambda m: m.sort_key())
        rho_raw[j] = (lmax([lmono(b) for b in branches]) if branches
                      else lmono("1"))

    def restrict(e):
        for j in pl.elim_order:
            e = subst_lambda(e, j, rho_raw[j])
        return canonical(e)

    rho = {j: restrict(lmono(pl.derived.phi_inv[j])) for j in pl.r.sel_rows}
    rho.update({j: restrict(rho_raw[j]) for j in pl.elim_order})
    return rho, rho_raw


def _tree_exponent(e, scaling):
    """effective_exponent recomputed at every node, shared or not."""
    if e.kind == "mono":
        return sum((Fraction(scaling.get(v.index, 0)) * x
                    for v, x in e.mono.exps if v.kind == "tau"), Fraction(0))
    vals = [_tree_exponent(c, scaling) for c in e.children]
    if e.kind == "max":
        return min(vals)
    if e.kind == "min":
        return max(vals)
    if e.kind == "prod":
        return sum(vals, Fraction(0))
    return e.exp * vals[0]


def _nested_key(e):
    if e.kind == "mono":
        return (0, e.mono.sort_key())
    order = {"max": 1, "min": 2, "prod": 3, "pow": 4}[e.kind]
    return (order, tuple(_nested_key(c) for c in e.children),
            (e.exp.numerator, e.exp.denominator) if e.exp else ())


def _branch_monomial(vec, variables) -> Monomial:
    nums, den = vec
    return Monomial(tuple((v, Fraction(n, den))
                          for v, n in zip(variables, nums) if n))


def _leaves(e):
    return [n for n in _nodes(e) if n.kind == "mono"]


def _same_leaf(a, b):
    assert a == b
    assert hash(a) == hash(b)
    assert a.sort_key() == b.sort_key()
    assert str(a) == str(b)
    assert a.json() == b.json()


def check_levels_against_oracles(pl, fam):
    """The family equals the sequential restriction, leaf for leaf, and its
    strictness the per-node exponent along each action's own orbit; the
    branches of each step are those of the sequential route."""
    rho, rho_raw = _sequential_level_trees(pl)
    assert fam.rho_Lambda == rho
    for j, e in fam.rho_Lambda.items():
        # vector leaves against leaves built from Monomials
        for a, b in zip(_leaves(e), _leaves(rho[j]), strict=True):
            _same_leaf(a, b)
    _, variables, steps = levels._level_trees(pl)
    assert {j: lmax([lmono(_branch_monomial(b, variables))
                     for b in branches]) if branches else lmono("1")
            for j, (_, branches) in zip(pl.elim_order, steps)} == rho_raw
    d = pl.d
    for j, e in fam.rho_Lambda.items():
        orbit = {k: d.entry(j, k) for k in range(1, d.m + 1)}
        want = _tree_exponent(e, orbit)
        assert effective_exponent(e, orbit) == want
        assert fam.strict[j] is (want > 0)


def _moving_pipeline(sc):
    pl = pipeline_of(*sc)
    assert not is_fixed_point(pl.d, pl.p)
    return pl


# Two stress matrices of the eliminate benchmark (8x3-2 and 6x4-4): longer
# exponent vectors than the drawn scenarios, and minor inverses with
# denominators up to 4 and 12.
STRESS_8X3 = [[0, 0, 2], [2, 1, 0], [2, 2, 1], [1, 0, 1],
              [2, 2, 1], [0, 1, 1], [1, 0, 1], [0, 1, 0]]
STRESS_6X4 = [[1, 1, 2, 2], [0, 2, 2, 0], [2, 1, 2, 0],
              [1, 2, 0, 2], [1, 2, 0, 1], [0, 0, 0, 2]]


@settings(max_examples=40, deadline=None)
@given(moving_scenarios(max_rows=5, max_cols=4))
@example((STRESS_8X3, set()))
@example((STRESS_6X4, set()))
def test_restriction_matches_sequential_substitution(sc):
    pl = _moving_pipeline(sc)
    check_levels_against_oracles(pl, build_levels(pl))


def test_final_leaf_outside_the_minor_is_named():
    # With column 2 taken out of the minor, restricting l4 = max(t1, t2)
    # into the level t1/l4 of action 1 leaves the leaf t1/t2.
    pl = run_pipeline(deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1],
                                   [1, 1, 1]]), None, point())
    assert pl.elim_order == (4,) and pl.r.sel_cols == (1, 2, 3)
    bad = replace(pl, r=replace(pl.r, sel_cols=(1, 3)))
    with pytest.raises(AssertionError, match=re.escape(
            f"level for action 1 involves {[tau(2)]}")):
        build_levels(bad)


@settings(max_examples=40, deadline=None)
@given(moving_scenarios(max_rows=5, max_cols=4),
       st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 3]),
                min_size=4, max_size=4))
def test_effective_exponent_matches_per_node_oracle(sc, s):
    pl = _moving_pipeline(sc)
    fam = build_levels(pl)
    scaling = dict(enumerate(s, start=1))
    plain, with_params = _trees()
    for e in list(fam.rho_Lambda.values()) + plain + with_params:
        assert effective_exponent(e, scaling) == _tree_exponent(e, scaling)


def test_sort_key_is_the_nested_key():
    plain, with_params = _trees()
    for e in plain + with_params:
        for n in (e, canonical(e)):
            want = _nested_key(n)
            assert n.sort_key() == want
            assert n.sort_key() == want  # the cached key


CACHES = ("_hash", "_sort_key", "_canonical", "_tree", "_mono", "_taus")


def test_pickle_drops_every_cache():
    plain, with_params = _trees()
    for e in plain + with_params:
        for n in _nodes(e):
            hash(n)
            n.sort_key()
            canonical(n)
        if e in plain:
            evaluate_level(e, TAUS)
        assert all(getattr(e, name) is not None for name in CACHES[:3])
        for back in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            for n in _nodes(back):
                assert all(getattr(n, name) is None for name in CACHES)
            assert back == e


@settings(max_examples=40, deadline=None)
@given(moving_scenarios(max_rows=5, max_cols=4))
@example((STRESS_6X4, set()))
def test_vector_leaves_match_their_monomials(sc):
    # every final leaf, against lmono of its Monomial and of its printed
    # form, and against a copy without caches
    pl = _moving_pipeline(sc)
    for e in build_levels(pl).rho_Lambda.values():
        for leaf in _leaves(e):
            _same_leaf(leaf, lmono(leaf.mono))
            _same_leaf(leaf, lmono(mono(str(leaf))))
            _same_leaf(leaf, pickle.loads(pickle.dumps(leaf)))


def test_leaves_from_monomials_keep_them():
    m = mono("t1^(3/2)*l2/x3")
    assert lmono(m).mono is m
    assert lmono(m).key == m.sort_key()
    assert lmono("1").key == () and lmono("1").mono.is_one
    assert LevelExpr("max", children=(lmono(m),)).mono is None


@settings(max_examples=25, deadline=None)
@given(moving_scenarios(max_rows=4, max_cols=3),
       st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 3]),
                min_size=3, max_size=3),
       st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_integer_exponent_matches_fraction_oracle(sc, s, orders):
    # generalized levels, and remainders factored (vector leaves under POW
    # and PROD nodes) and multiplied out (leaves built from Monomials)
    pl = _moving_pipeline(sc)
    d = pl.d
    ghat = build_generalized_levels(d, pl.r, pl.p)
    fam = build_levels(pl)
    rem = remainder_exponent(fam, orders[:d.ell], pl.r.sigma_A)
    trees = list(ghat.rho_Lambda.values()) + [rem, canonical(rem)]
    scalings = [dict(enumerate(s, start=1))] + [
        {k: d.entry(j, k) for k in range(1, d.m + 1)}
        for j in range(1, d.ell + 1)]
    for e in trees:
        for scaling in scalings:
            assert effective_exponent(e, scaling) == \
                _tree_exponent(e, scaling)
