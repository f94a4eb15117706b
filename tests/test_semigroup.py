from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from multispec.deformation import (deformation, point, rank_and_normalize,
                                   check_point)
from multispec.monomials import (Monomial, Pair, Value, ONE, UNIT_VALUE, ZERO,
                                 XI, mono, pair, fraction_closure, tau, lam,
                                 xi)
from multispec.semigroup import (eliminate, run_pipeline, radical_member,
                                 equivalent, eliminate_lambda, norm_value,
                                 Verdict, MembershipResult, layout, pair_of,
                                 _answers)
import multispec.semigroup
import oracles
from multispec.linear import cone_feasible, nonneg_solution
from multispec.multicone import build_multicone
from oracles import (balanced, exponent_vectors, pair_power, pair_product,
                     value_power, value_times)
from strategies import pipeline_of, scenarios

UNIT_ONE = Pair(ONE, UNIT_VALUE)


def build_G_hat(d, p) -> frozenset[Pair]:
    """The graph variant of G: t_k over the full action monomial, tagged
    with the block norm symbol (zero on the zero pattern), plus every
    parameter."""
    check_point(d, p)
    phi = oracles.phi(d)
    pairs = []
    for k in range(1, d.m + 1):
        f = Monomial.from_dict({tau(k): 1}) * phi[k].inv()
        v = ZERO if k in p.zero_blocks else Value(Monomial.from_dict({xi(k): 1}))
        pairs.append(Pair(f, v))
    for j in range(1, d.ell + 1):
        pairs.append(Pair(Monomial.from_dict({lam(j): 1}), ZERO))
    return fraction_closure(pairs)


class NotRepresentable(ValueError):
    pass


def value_of(f: Monomial, pipeline) -> Value:
    """Oracle: the unique value making (f, v) an element of the generated
    semigroup.

    Uses the unique exponent form over the solved inverses, the psi
    quotients, and the leftover parameters; integrality and the sign
    constraints decide representability exactly.
    """
    d, r, p = pipeline.d, pipeline.r, pipeline.p
    derived = pipeline.derived
    if f.has_kind(XI):
        raise NotRepresentable("norm symbols cannot appear in queries")

    alpha_unsel: dict[int, Fraction] = {}
    g = f
    for k, psi_k in derived.psi.items():
        e = f.exponent(tau(k))
        if e != 0:
            if e.denominator != 1:
                raise NotRepresentable(f"fractional power of block {k} quotient")
            if k in p.zero_blocks and e < 0:
                raise NotRepresentable(f"negative power of zero block {k}")
            alpha_unsel[k] = e
            g = g * (psi_k ** (-e))

    w = [g.exponent(tau(k)) for k in r.sel_cols]
    if any(g.exponent(tau(k)) != 0 for k in range(1, d.m + 1)
           if k not in r.sel_cols):
        raise NotRepresentable("unreduced scale variables outside the minor")
    minor = [[d.entry(j, k) for k in r.sel_cols] for j in r.sel_rows]
    alpha_sel = [sum(minor[jpos][kpos] * w[kpos] for kpos in range(r.L))
                 for jpos in range(r.L)]
    for a in alpha_sel:
        if a.denominator != 1 or a < 0:
            raise NotRepresentable("selected-inverse exponents must be "
                                   "non-negative integers")

    for j in r.sel_rows:
        if g.exponent(lam(j)) != 0:
            raise NotRepresentable("solved parameters cannot appear in queries")
    beta: dict[int, Fraction] = {}
    for j in range(1, d.ell + 1):
        if j in r.sel_rows:
            continue
        contrib = sum(alpha_sel[jpos] * derived.phi_inv[jj].exponent(lam(j))
                      for jpos, jj in enumerate(r.sel_rows))
        b = g.exponent(lam(j)) - contrib
        if b.denominator != 1 or b < 0:
            raise NotRepresentable("parameter exponents must be non-negative "
                                   "integers")
        beta[j] = b

    if any(a > 0 for a in alpha_sel) or any(b > 0 for b in beta.values()):
        return ZERO
    if any(f.exponent(tau(k)) > 0 for k in pipeline.zero_cols_L):
        return ZERO
    v = UNIT_VALUE
    for k, e in alpha_unsel.items():
        n_k = norm_value(derived.psi[k], k, d, r, p)
        if n_k.is_zero and e > 0:
            return ZERO
        v = value_times(v, value_power(n_k, e))
    return v


def gs(*specs):
    return frozenset(pair(*s) if isinstance(s, tuple) else pair(s)
                     for s in specs)


@pytest.fixture
def running():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(zero_blocks={1, 2})
    return d, p, run_pipeline(d, None, p)


def test_build_G_examples(running):
    d, p, pl = running
    assert pl.G == gs("t1", "t2", ("t3/(t1*t2)", "x3"),
                      ("t1*t2/t3", "x3^(-1)"))
    d326 = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    pl326 = run_pipeline(d326, None, point())
    assert pl326.G == gs("t1/l4", "t2/l5", "t3/(l4*l5)", "l4", "l5")
    dmaj = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert run_pipeline(dmaj, None, point()).Fq == gs("t1", "t2", "t3")


def test_build_G_hat_examples(running):
    d, p, pl = running
    dmaj = deformation([[1, 0], [0, 1]])
    ghat = build_G_hat(dmaj, point())
    assert ghat == gs(("t1/l1", "x1"), ("l1/t1", "x1^(-1)"),
                      ("t2/l2", "x2"), ("l2/t2", "x2^(-1)"),
                      "l1", "l2")
    ghat226 = build_G_hat(d, p)
    assert pair("t1/l1") in ghat226 and pair("t2/l2") in ghat226
    assert pair("t3/(l1*l2)", "x3") in ghat226
    assert all(pair(f"l{j}") in ghat226 for j in (1, 2))


def test_apply_Lk_examples(running):
    d, p, pl = running
    f1 = eliminate(pl.F0, tau(1))
    assert f1 == gs("t1", "t2", "t1*t2/t3", "t3/t2") | {UNIT_ONE}
    f2 = eliminate(f1, tau(2))
    assert f2 == gs("t1", "t2", "t1*t2/t3", "t3") | {UNIT_ONE}
    untouched = gs("t2", "t3/t2")
    assert eliminate(untouched, tau(1)) == untouched


def test_apply_Lj_lambda_examples():
    d326 = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    pl = run_pipeline(d326, None, point())
    stages = dict(pl.F0_stages)
    assert stages[4] == gs("t1", "t2/l5", "t3/l5", "l5")
    assert stages[5] == gs("t1", "t2", "t3")
    d325 = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    pl325 = run_pipeline(d325, None, point())
    assert pl325.Fq == gs("t1", "t2", "t3/t2", "t3/t1")


def test_pipeline_2_49(running):
    d249 = deformation([[1, 1, 0], [0, 1, 1]])
    pl = run_pipeline(d249, None, point(zero_blocks={1}))
    assert pl.Fq == gs("t1", "t2", "t3", "t1*t3/t2", "t2/t3") | {UNIT_ONE}
    pl = run_pipeline(d249, None, point(zero_blocks={3}))
    assert pl.Fq == gs("t1", "t2/t1", "t1*t3/t2")
    pl = run_pipeline(d249, None, point(zero_blocks={1, 3}))
    assert pl.Fq == gs("t1", "t2", "t3", "t1*t3/t2")


def test_pipeline_idempotence(running):
    _, _, pl = running
    for k in pl.zero_cols_L:
        once = eliminate(fraction_closure(pl.F0), tau(k))
        assert eliminate(once, tau(k)) == once


def test_pipeline_invariants(running):
    d, p, pl = running
    # fraction-closure stability of every stage
    assert fraction_closure(pl.F0) == pl.F0
    for _, stage in pl.F_stages:
        assert fraction_closure(stage) == stage
    # zero-pattern exponent sign and value conditions on the final stage
    for pr in pl.Fq:
        for k in p.zero_blocks:
            assert pr.f.exponent(tau(k)) >= 0
            if not pr.v.is_zero:
                assert pr.f.exponent(tau(k)) == 0


def test_value_of_examples(running):
    _, _, pl = running
    assert value_of(ONE, pl) == UNIT_VALUE
    assert str(value_of(mono("t3/(t1*t2)"), pl)) == "x3"
    assert value_of(mono("t1"), pl).is_zero
    with pytest.raises(NotRepresentable):
        value_of(mono("t1^(1/2)"), pl)


def test_scale_powers_reach_zero_values(running):
    # every block scale has a power in the semigroup, with value zero
    for rows, zeros in (
            ([[1, 0, 1], [0, 1, 1]], {1, 2}),
            ([[3, 2], [1, 1]], set()),
            ([[1, 1, 0], [0, 1, 1]], {3}),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], set())):
        d = deformation(rows)
        pl = run_pipeline(d, None, point(zero_blocks=zeros))
        for k in range(1, d.m + 1):
            for n in range(1, 65):
                try:
                    v = value_of(mono(f"t{k}") ** n, pl)
                except NotRepresentable:
                    continue
                assert v.is_zero
                break
            else:
                raise AssertionError(f"no power of t{k} is representable")


def test_radical_member_examples(running):
    _, _, pl = running
    probes = oracles.semigroup_probes(eliminate_lambda(pl.G), pl.zero_cols_L)
    assert probes  # the well-defined semigroup elements of the generator set
    for probe in probes:
        res = radical_member(probe, pl.Fq, zero_slack=pl.zero_cols_L)
        assert res.verdict is Verdict.YES and res.power <= 4
    dmaj = deformation([[1, 0], [0, 1]])
    plmaj = run_pipeline(dmaj, None, point())
    assert radical_member(pair("t1^(-1)"), plmaj.Fq).verdict is Verdict.NO
    # three planes with the center added: the deep quotient is excluded
    d = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    pl_b = run_pipeline(d, None, point())
    assert radical_member(pair("t3/(t1*t2)"), pl_b.Fq).verdict is Verdict.NO


def test_equivalent_examples(running):
    d, p, pl = running
    assert equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L) is Verdict.YES
    dmaj = deformation([[1, 0], [0, 1]])
    rmaj = rank_and_normalize(dmaj, point())
    plmaj = run_pipeline(dmaj, rmaj, point())
    ghat = build_G_hat(dmaj, point())
    assert equivalent(plmaj.G, ghat) is Verdict.YES
    assert equivalent(gs("t1"), gs("t2")) is Verdict.NO


def test_equivalent_symmetric_reflexive(running):
    _, _, pl = running
    assert equivalent(pl.Fq, pl.Fq, zero_slack=pl.zero_cols_L) is Verdict.YES
    a = equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L)
    b = equivalent(pl.G, pl.Fq, zero_slack=pl.zero_cols_L)
    assert a == b


def _modified_Lk(F, k: int) -> frozenset[Pair]:
    """Oracle: the closure-flavoured block-scale step with the extra inverse
    and quotient branches; agrees with eliminate on fraction-closed
    inputs."""
    v = tau(k)
    zero_e = [p for p in F if p.f.exponent(v) == 0]
    f0p = [p for p in F if p.v.is_zero and p.f.exponent(v) > 0]
    f0n = [p for p in F if p.v.is_zero and p.f.exponent(v) < 0]
    fxp = [p for p in F if not p.v.is_zero and p.f.exponent(v) > 0]
    fxn = [p for p in F if not p.v.is_zero and p.f.exponent(v) < 0]
    out: set[Pair] = set(zero_e)
    for p in f0p + fxp:
        out.add(Pair(p.f, ZERO))
    for p in fxn:
        out.add(Pair(p.f.inv(), ZERO))
    for p in f0p + fxp:
        for q in f0n + fxn:
            a, b = balanced(p.f.exponent(v), q.f.exponent(v))
            out.add(pair_product(((p, a), (q, b))))
    for p in f0p + fxp:
        for q in fxp:
            a, b = balanced(p.f.exponent(v), -q.f.exponent(v))
            out.add(pair_product(((p, a), (q.inv(), b))))
    for p in f0n + fxn:
        for q in fxn:
            a, b = balanced(-p.f.exponent(v), q.f.exponent(v))
            out.add(pair_product(((p, a), (q.inv(), b))))
    return frozenset(out)


def _modified_Lj_lambda(F, j: int) -> frozenset[Pair]:
    """Oracle: the closure-flavoured action-parameter step."""
    v = lam(j)
    zero_e = [p for p in F if p.f.exponent(v) == 0]
    f0p = [p for p in F if p.v.is_zero and p.f.exponent(v) > 0]
    f0n = [p for p in F if p.v.is_zero and p.f.exponent(v) < 0]
    fxp = [p for p in F if not p.v.is_zero and p.f.exponent(v) > 0]
    fxn = [p for p in F if not p.v.is_zero and p.f.exponent(v) < 0]
    out: set[Pair] = set(zero_e)
    lam_j = Pair(Monomial.from_dict({v: 1}), ZERO)

    def lam_balance(p: Pair):
        e = abs(p.f.exponent(v))
        out.add(pair_product(((lam_j, e.numerator), (p, e.denominator))))

    for p in f0n + fxn:
        lam_balance(p)
    for p in fxp:
        lam_balance(p.inv())
    for p in f0p + fxp:
        for q in f0n + fxn:
            a, b = balanced(p.f.exponent(v), q.f.exponent(v))
            out.add(pair_product(((p, a), (q, b))))
    for p in f0p + fxp:
        for q in fxp:
            a, b = balanced(p.f.exponent(v), -q.f.exponent(v))
            out.add(pair_product(((p, a), (q.inv(), b))))
    for p in f0n + fxn:
        for q in fxn:
            a, b = balanced(-p.f.exponent(v), q.f.exponent(v))
            out.add(pair_product(((p, a), (q.inv(), b))))
    return frozenset(out)


def _dfs(cols, target, budget, check_leaf, idx=0, partial=None):
    """A non-negative integer combination of cols, at most budget of them
    counted with multiplicity, that hits target and that check_leaf accepts
    (its answer), depth first with exact rational-cone pruning; the first
    one found is the lexicographically smallest.  None when there is none
    within the budget."""
    partial = partial or []
    if all(x == 0 for x in target):
        done = check_leaf(partial + [0] * (len(cols) - idx))
        if done:
            return done
    if idx == len(cols):
        return None
    if not cone_feasible(cols[idx:], target):
        return None
    # A zero column changes only the value tag; using it more than once is
    # never needed.
    cap = 1 if all(c == 0 for c in cols[idx]) else budget
    a = 0
    while a <= min(cap, budget):
        residual = [t - a * c for t, c in zip(target, cols[idx])]
        found = _dfs(cols, residual, budget - a, check_leaf, idx + 1, partial + [a])
        if found:
            return found
        a += 1
    return None


def _searched_radical_member(probe: Pair, H, max_N: int = 64,
                             bound: int = 200,
                             zero_slack=()) -> MembershipResult | None:
    """Oracle: smallest N <= max_N with probe^N in the bracket of H, by a
    depth-first search with a step budget; None when the caps run out."""
    ordered = sorted(H, key=lambda p: p.sort_key())
    cols, target1 = exponent_vectors([p.f for p in ordered], probe.f)
    if not cone_feasible(cols, target1):
        return MembershipResult(Verdict.NO)
    slacked = probe.v.is_zero and any(probe.f.exponent(tau(k)) > 0
                                      for k in zero_slack)
    for n in range(1, max_N + 1):
        powered = pair_power(probe, n)
        cols, target = exponent_vectors([p.f for p in ordered], powered.f)

        def leaf(alpha, _target_v=powered.v):
            witness = tuple((p, a) for p, a in zip(ordered, alpha))
            value = UNIT_VALUE
            for p, a in witness:
                value = value_times(value, value_power(p.v, a))
            if slacked or value == _target_v:
                return witness
            return None

        found = _dfs(cols, target, bound, leaf)
        if found is not None:
            return MembershipResult(Verdict.YES, witness=found, power=n)
    return None


def test_modified_operations_agree(running):
    _, _, pl = running
    assert _modified_Lk(pl.F0, 1) == eliminate(pl.F0, tau(1))
    d326 = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    pl326 = run_pipeline(d326, None, point())
    G = fraction_closure(pl326.G)
    assert _modified_Lj_lambda(G, 4) == eliminate(G, lam(4))
    only_pos = gs("t1")
    assert _modified_Lk(only_pos, 1) == gs("t1")


def test_eliminate_lambda():
    d326 = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]])
    pl = run_pipeline(d326, None, point())
    free = eliminate_lambda(pl.G)
    assert free == gs("t1", "t2", "t3")


ALL_CONFIGS = [
    ([[1, 0, 1], [0, 1, 1]], {1, 2}),
    ([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]], set()),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], set()),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]], set()),
    ([[1, 1, 0], [0, 1, 1]], {1}),
    ([[1, 1, 0], [0, 1, 1]], {2}),
    ([[1, 1, 0], [0, 1, 1]], {3}),
    ([[1, 1, 0], [0, 1, 1]], {1, 3}),
    ([[1, 0, 1], [0, 1, 1], [0, 0, 1]], set()),
    ([[3, 2], [1, 1]], set()),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], set()),
    ([[1, 1, 0, 1], [0, 1, 1, 0]], {3}),
]


def test_stage_closure_and_value_consistency_everywhere():
    # every stage is fraction-closed, every final pair carries exactly the
    # value the semigroup assigns to its monomial, and re-eliminating a
    # block is idempotent
    for rows, zeros in ALL_CONFIGS:
        d = deformation(rows)
        pl = run_pipeline(d, None, point(zero_blocks=zeros))
        stages = [pl.F0] + [s for _, s in pl.F_stages]
        for stage in stages:
            assert fraction_closure(stage) == stage
        for pr in pl.Fq:
            assert value_of(pr.f, pl) == pr.v
        for k in pl.zero_cols_L:
            once = eliminate(pl.F0, tau(k))
            assert eliminate(once, tau(k)) == once


def test_equivalence_everywhere():
    for rows, zeros in ALL_CONFIGS:
        d = deformation(rows)
        pl = run_pipeline(d, None, point(zero_blocks=zeros))
        assert equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L) is Verdict.YES


def test_random_pipelines_keep_invariants():
    # seeded fuzz over small rational matrices and admissible zero patterns
    import numpy as np
    from fractions import Fraction
    from multispec.deformation import IdentityActionError, check_point
    import warnings

    rng = np.random.default_rng(4242)
    built = 0
    while built < 40:
        ell = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        rows = [[Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 3)))
                 for _ in range(m)] for _ in range(ell)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                d = deformation(rows)
        except IdentityActionError:
            continue
        zeros = {k for k in range(1, m + 1) if rng.random() < 0.3}
        zeros |= {k for k in range(1, m + 1)
                  if not any(row[k - 1] for row in d.ints)}
        p = point(zero_blocks=zeros)
        pl = run_pipeline(d, None, p)
        built += 1
        for stage in [pl.F0] + [s for _, s in pl.F_stages]:
            assert fraction_closure(stage) == stage
        for pr in pl.Fq:
            for k in zeros:
                e = pr.f.exponent(tau(k))
                assert e >= 0
                if not pr.v.is_zero:
                    assert e == 0
            assert value_of(pr.f, pl) == pr.v


def test_two_by_four_case_with_lineality():
    # the stage cone of this 2x4 case has a lineality space
    d = deformation([[2, 1, Fraction(3, 2), 1], [2, Fraction(1, 2), 2, 0]])
    pl = run_pipeline(d, None, point(zero_blocks={2}))
    assert equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L) is Verdict.YES
    assert build_multicone(pl).inequalities


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_final_stage_radical_is_the_semigroup(sc):
    pl = pipeline_of(*sc)
    assert equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L) is Verdict.YES


@settings(max_examples=60, deadline=None)
@given(scenarios(max_rows=3, max_cols=3), st.data())
def test_lp_radical_member_agrees_with_search(sc, data):
    pl = pipeline_of(*sc)
    slack = pl.zero_cols_L
    free_G = eliminate_lambda(pl.G)
    H = data.draw(st.sampled_from([pl.Fq, free_G]))
    pool = sorted(pl.Fq | free_G, key=Pair.sort_key)
    factors = data.draw(st.lists(st.tuples(
        st.sampled_from(pool),
        st.sampled_from([-1, 1, 2, Fraction(1, 2)])), max_size=3))
    f, value = ONE, UNIT_VALUE
    for q, e in factors:
        f = f * q.f ** e
        value = ZERO if q.v.is_zero or value.is_zero else \
            value_times(value, value_power(q.v, e))
    probe = Pair(f, data.draw(st.sampled_from([value, ZERO, UNIT_VALUE])))

    res = radical_member(probe, H, zero_slack=slack)
    ref = _searched_radical_member(probe, H, max_N=6, bound=30,
                                   zero_slack=slack)
    if ref is not None:
        assert res.verdict is ref.verdict
    if res:
        got = pair_product(res.witness)
        want = pair_power(probe, res.power)
        slacked = probe.v.is_zero and any(f.exponent(tau(k)) > 0
                                          for k in slack)
        assert got.f == want.f and (slacked or got.v == want.v)


def _outside_generator(pl):
    """A zero-valued unit scale monomial outside the rational cone of the
    parameter-free part of G that stays a probe under the zero pattern, or
    None."""
    free = eliminate_lambda(pl.G)
    for k in range(1, pl.d.m + 1):
        for sign in (1, -1):
            if sign < 0 and k in pl.zero_cols_L:
                continue
            g = Pair(Monomial.from_dict({tau(k): sign}), ZERO)
            cols, target = exponent_vectors([q.f for q in free], g.f)
            if not cone_feasible(cols, target):
                return g
    return None


def _row_answers(A, B, zero_slack):
    """equivalent's answers on every probe of both directions, its rows
    read back as Pairs, in the oracle's form."""
    columns, width, _ = layout([*A, *B])

    def back(row):
        return pair_of(row, columns, width)

    return [(back(probe), None if found is None else (
        tuple((back(row), a) for row, a in found[0]), found[1]))
        for probe, found in _answers(A, B, zero_slack)]


def _oracle_answers(A, B, zero_slack):
    return [(probe, (res.witness, res.power) if res else None)
            for probe, res in oracles.answers(A, B, zero_slack)]


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_equivalent_agrees_with_an_lp_on_every_probe(sc):
    # verdict, witness and power of every probe, both directions, from the
    # row-level equivalent and from radical_member, against the Fraction
    # bodies they replaced
    pl = pipeline_of(*sc)
    slack = pl.zero_cols_L
    assert equivalent(pl.Fq, pl.G, zero_slack=slack) \
        is oracles.equivalent(pl.Fq, pl.G, zero_slack=slack) is Verdict.YES
    assert _row_answers(pl.Fq, pl.G, slack) == \
        _oracle_answers(pl.Fq, pl.G, slack)
    free_G = eliminate_lambda(pl.G)
    for probes, H in ((eliminate_lambda(pl.Fq), free_G),
                      (free_G, pl.Fq)):
        for probe in oracles.semigroup_probes(probes, slack):
            res = radical_member(probe, H, zero_slack=slack)
            ref = oracles.radical_member(probe, H, zero_slack=slack)
            assert (res.verdict, res.witness, res.power) == \
                (ref.verdict, ref.witness, ref.power)
            # the skipped LPs would give the same verdict
            assert res.verdict is oracles.radical_member(
                probe, H, zero_slack=slack, shortcuts=False).verdict
            if probe in H:
                assert res.power == 1
    # negative control: a unit generator outside the cone
    g = _outside_generator(pl)
    if g is not None:
        a = pl.Fq | {g}
        assert equivalent(a, pl.G, zero_slack=slack) \
            is oracles.equivalent(a, pl.G, zero_slack=slack) is Verdict.NO
        assert _row_answers(a, pl.G, slack) == _oracle_answers(a, pl.G, slack)


def _oracle_simplex(columns, target):
    """The Fraction simplex of the oracles in the kernel's form: integer
    numerators over one positive denominator, or None."""
    x = oracles.nonneg_solution(columns, target)
    if x is None:
        return None
    d = lcm(*(a.denominator for a in x))
    return [int(a * d) for a in x], d


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.data())
def test_radical_answers_agree_on_the_oracle_simplex(sc, data):
    # verdict, witness and power of equivalent (every probe, both
    # directions) and of radical_member (generators of either side and a
    # drawn product), once on the kernel and once on the oracle simplex
    pl = pipeline_of(*sc)
    slack = pl.zero_cols_L
    free_G = eliminate_lambda(pl.G)
    pool = sorted(pl.Fq | free_G, key=Pair.sort_key)
    f, value = ONE, UNIT_VALUE
    for q, e in data.draw(st.lists(st.tuples(
            st.sampled_from(pool), st.sampled_from([-1, 1, 2])), max_size=3)):
        f = f * q.f ** e
        value = ZERO if q.v.is_zero or value.is_zero else \
            value_times(value, value_power(q.v, e))
    drawn = Pair(f, data.draw(st.sampled_from([value, ZERO])))
    g = _outside_generator(pl)
    sides = [(pl.Fq, pl.G)] + ([(pl.Fq | {g}, pl.G)] if g else [])

    def answers():
        out = [(equivalent(a, b, zero_slack=slack), _row_answers(a, b, slack))
               for a, b in sides]
        for probe, H in [(drawn, pl.Fq), (drawn, free_G)] + [
                (p, free_G) for p in sorted(pl.Fq, key=Pair.sort_key)] + [
                (p, pl.Fq) for p in sorted(free_G, key=Pair.sort_key)]:
            res = radical_member(probe, H, zero_slack=slack)
            out.append((res.verdict, res.witness, res.power))
        return out

    kernel = answers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multispec.semigroup, "nonneg_solution", _oracle_simplex)
        assert answers() == kernel


def _counting_lps(monkeypatch):
    calls = []

    def counting(columns, target):
        calls.append(target)
        return nonneg_solution(columns, target)

    monkeypatch.setattr(multispec.semigroup, "nonneg_solution", counting)
    return calls


def test_generator_probe_needs_no_lp(monkeypatch, running):
    _, _, pl = running
    calls = _counting_lps(monkeypatch)
    ordered = sorted(pl.Fq, key=Pair.sort_key)
    for probe in ordered:
        res = radical_member(probe, pl.Fq, zero_slack=pl.zero_cols_L)
        assert res.verdict is Verdict.YES and res.power == 1
        assert res.witness == tuple((q, int(q == probe)) for q in ordered)
    assert calls == []


def test_witness_check_compares_every_part(monkeypatch):
    # a solver that answers every LP with the first pair alone: each
    # probe is wrong in one part only, the monomial, the value, the zero
    # flag of a nonzero-valued probe and that of a zero-valued one
    monkeypatch.setattr(multispec.semigroup, "nonneg_solution",
                        lambda columns, target:
                        ([1] + [0] * (len(columns) - 1), 1))
    for probe, H in ((pair("t1*t2"), gs("t1", "t2")),
                     (pair("t1", "x2^2"), gs(("t1", "x1"), ("t1", "x2"))),
                     (Pair(mono("t1"), UNIT_VALUE), gs("t1")),
                     (pair("t1^2"), gs(("t1", "x1")))):
        with pytest.raises(AssertionError, match="radical witness"):
            radical_member(probe, H)
    with pytest.raises(AssertionError, match="radical witness"):
        equivalent(gs(("t1", "x2^2")), gs(("t1", "x1"), ("t1", "x2")))
    # in the slack a zero-valued probe takes any value
    res = radical_member(pair("t1"), gs(("t1", "x1")), zero_slack=(1,))
    assert res.verdict is Verdict.YES and res.power == 1


def test_zero_valued_support_skips_the_homogenised_lp(monkeypatch):
    H = gs("t1", ("t2", "x2"), ("t2^(-1)", "x2^(-1)"))
    probe = pair("t1*t2")
    calls = _counting_lps(monkeypatch)
    res = radical_member(probe, H)
    assert len(calls) == 1
    assert res.verdict is Verdict.YES and res.power == 1
    assert dict(res.witness) == {pair("t1"): 1, pair("t2", "x2"): 1,
                                 pair("t2^(-1)", "x2^(-1)"): 0}
    # without a zero-valued pair in the first solution the second LP runs
    calls.clear()
    assert radical_member(pair("t2"), H).verdict is Verdict.NO
    assert len(calls) == 2


def test_zero_slack_decides_a_probe_of_an_eliminated_stage():
    # decide-2x3-0 of the benchmark corpus with block 1 on the zero
    # pattern: the zero-valued probe, positive in block 1, is the monomial
    # of the pair with value x3^(-1), and no combination with a zero-valued
    # pair gives it, so only the slack of block 1 makes it a member
    d = deformation([["3/2", "2", "1/2"], ["2", "3/2", "2"]])
    H = eliminate_lambda(run_pipeline(d, None, point({1})).G)
    probe = pair("t1^(13/7)*t2^(-8/7)*t3^(-1)")
    res = radical_member(probe, H, zero_slack=(1,))
    assert res.verdict is Verdict.YES and res.power == 1
    assert dict(res.witness)[pair("t1^(13/7)*t2^(-8/7)*t3^(-1)",
                                  "x3^(-1)")] == 1
    assert radical_member(probe, H, zero_slack=()).verdict is Verdict.NO


def test_homogenised_lp_with_a_positive_scale():
    # the first LP combines the zero-valued probe t1 from (t1, x1) alone;
    # the homogenised second LP needs a zero-valued pair and finds t1^2
    # with scale s = 2, so t1^2 is the witness at power 2
    res = radical_member(pair("t1"), gs(("t1", "x1"), "t1^2"))
    assert res.verdict is Verdict.YES and res.power == 2
    assert dict(res.witness) == {pair("t1", "x1"): 0, pair("t1^2"): 1}
    # without t1^2 no zero-valued pair is left to combine
    assert radical_member(pair("t1"), gs(("t1", "x1"))).verdict is Verdict.NO
