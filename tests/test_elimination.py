"""The integer elimination kernel (`semigroup.balance`) and the integer
`derive_monomials` against the Fraction bodies they replaced (oracles.py):
the pipeline's stages in every order, `eliminate` and `eliminate_lambda`,
`closure`, `project`, and the derived monomials."""

import sys
import warnings
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import example, given, settings

import oracles
from multispec import multicone
from multispec.deformation import (RankData, deformation, derive_monomials,
                                   point, rank_and_normalize)
from multispec.monomials import lam, pair, tau
from multispec.multicone import (ClosureCapExceeded, build_multicone, closure,
                                 project)
from multispec.semigroup import (_stages, balance, eliminate,
                                 eliminate_lambda, eliminate_rows, layout,
                                 pair_of, row_of)
from oracles import pair_product
from strategies import moving_scenarios, pipeline_of, scenarios

RUNNING = ([[1, 0, 1], [0, 1, 1], [1, 1, 1]], set())


def _row(p, index):
    return row_of(p.f, p.v, index)


def _rows_and_back(pairs):
    columns, width, index = layout(pairs)
    rows = [_row(p, index) for p in pairs]
    return rows, [pair_of(row, columns, width) for row in rows]


def test_rows_round_trip_and_are_canonical():
    pairs = [pair("t1^(1/2)*l2^(-3)/t3", "x1^(2/3)"), pair("t3^2", "0"),
             pair("l2", "1"), pair("1", "x2^-1")]
    rows, back = _rows_and_back(pairs)
    assert back == pairs
    # columns t1, t3, l2, x1, x2
    assert rows == [((3, -6, -18, 4, 0), 6, False), ((0, 2, 0, 0, 0), 1, True),
                    ((0, 0, 1, 0, 0), 1, False), ((0, 0, 0, 0, -1), 1, False)]
    for nums, den, _ in rows:
        assert den > 0 and gcd(den, *nums) == 1


def test_balance_examples():
    # t1^(1/2)*l1 against t2/l1^(3/2): 3 of the first and 2 of the second
    pairs = [pair("t1^(1/2)*l1", "x1"), pair("t2*l1^(-3/2)", "0")]
    columns, width, index = layout(pairs)
    p, q = (_row(x, index) for x in pairs)
    a, b, row = balance(p, q, index[lam(1).key()], width)
    assert (a, b) == (3, 2)
    assert pair_of(row, columns, width) == \
        pair_product(((pairs[0], 3), (pairs[1], 2))) == pair("t1^(3/2)*t2^2", "0")
    # a nonzero value survives a product of nonzero values
    pairs = [pair("t1*t2^-2", "x1"), pair("t2^3", "x2^(1/2)")]
    columns, width, index = layout(pairs)
    a, b, row = balance(_row(pairs[1], index), _row(pairs[0], index),
                        1, width)
    assert (a, b) == (2, 3)
    assert pair_of(row, columns, width) == pair("t1^3", "x1^3*x2")


def _check_stages(sc):
    pl = pipeline_of(*sc)
    for order in permutations(pl.elim_order):
        want = oracles.stages(pl, order)
        got = _stages(pl.G, pl.d, pl.r, pl.p, order, pl.zero_cols_L)
        assert got == (want["F0_stages"], want["F_stages"], want["Fq"])


@settings(max_examples=40, deadline=None)
@given(scenarios())
@example(RUNNING)
def test_stages_match_the_oracle_in_every_order(sc):
    _check_stages(sc)


@settings(max_examples=40, deadline=None)
@given(moving_scenarios())
@example(([[1, 0, 1], [2, 0, 2], [1, 1, 2], [0, 1, 1]], {2}))
def test_stages_match_the_oracle_off_the_fixed_points(sc):
    _check_stages(sc)


@settings(max_examples=40, deadline=None)
@given(scenarios())
@example(RUNNING)
def test_eliminate_matches_the_oracle(sc):
    pl = pipeline_of(*sc)
    for stage in (pl.G, pl.F0, pl.Fq):
        assert eliminate_lambda(stage) == oracles.eliminate_lambda(stage)
        variables = {v for p in stage for v, _ in p.f.exps}
        for v in variables | {tau(9)}:
            assert eliminate(stage, v) == oracles.eliminate(stage, v)


@settings(max_examples=30, deadline=None)
@given(scenarios(max_rows=4, max_cols=3))
@example(RUNNING)
def test_closure_matches_the_oracle(sc):
    # same entries, each with the factors found first
    pl = pipeline_of(*sc)
    for rounds in (1, 2):
        assert closure(pl, rounds=rounds).entries == \
            oracles.closure_entries(pl, rounds)


@settings(max_examples=40, deadline=None)
@given(scenarios())
@example(RUNNING)
def test_project_matches_the_oracle(sc):
    pl = pipeline_of(*sc)
    system = build_multicone(pl, check_equivalence=False)
    if not system.one_sided:
        return
    for k in system.blocks:
        _same_rows(project(system, k, k_in_JZ=False).inequalities,
                   oracles.project(system, k))
        # and once more on the projection, whose bounds hold products
        once = project(system, k, k_in_JZ=False)
        for kk in once.blocks:
            _same_rows(project(once, kk, k_in_JZ=False).inequalities,
                       oracles.project(once, kk))


def _same_rows(got, want):
    # equal rows, printed alike, with positive integer bound exponents
    assert got == want
    assert [i.text() for i in got] == [i.text() for i in want]
    assert all(type(a) is int and a > 0
               for i in got for _, a in i.bound.factors)


@settings(max_examples=60, deadline=None)
@given(scenarios(max_rows=5, max_cols=4))
@example(([["1/2", "3", "0"], ["2/3", "1", "5/7"], ["0", "3/2", "1"]], set()))
def test_derive_monomials_matches_the_oracle(sc):
    rows, zeros = sc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = deformation(rows)
    p = point(zero_blocks=zeros)
    r = rank_and_normalize(d, p)
    for lead in combinations(range(1, d.ell + 1), r.L):
        rr = oracles.rank_data(d, lead)
        if rr is not None:
            assert derive_monomials(d, rr) == oracles.derive_monomials(d, rr)


def test_derive_monomials_checks_its_identities(monkeypatch):
    # a column outside a minor that is too small is not spanned by it
    d = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(AssertionError, match="column 3 is not spanned"):
        derive_monomials(d, RankData(2, (1, 2), (1, 2), Fraction(1)))
    # an inverse off in one entry breaks the round trip
    module = sys.modules["multispec.deformation"]
    exact = module.adjugate

    def off(a):
        adj, det = exact(a)
        adj[0][0] += 1
        return adj, det

    monkeypatch.setattr(module, "adjugate", off)
    with pytest.raises(AssertionError, match="round-trip identity failed"):
        derive_monomials(d, rank_and_normalize(d, point()))


def test_values_of_products_follow_zero():
    # a zero value absorbs, and a zero row keeps no norm-symbol columns
    pairs = [pair("t1", "x1^2"), pair("t1^-1*t2", "0")]
    columns, width, index = layout(pairs)
    _, _, row = balance(_row(pairs[0], index), _row(pairs[1], index),
                        0, width)
    assert row == ((0, 1, 0), 1, True)
    assert pair_of(row, columns, width) == pair("t2", "0")


def test_a_block_scale_step_keeps_positive_rows_canonical():
    # zeroing x1^(1/3) leaves t1*t2^(1/2) over 2, not over 6
    pairs = [pair("t1*t2^(1/2)", "x1^(1/3)"), pair("t1^-1", "x2")]
    columns, width, index = layout(pairs)
    rows = {_row(p, index) for p in pairs}
    want = [pair("t1*t2^(1/2)", "0"), pair("t2^(1/2)", "x1^(1/3)*x2")]
    assert eliminate_rows(rows, 0, width, True) == \
        {_row(p, index) for p in want}
    assert eliminate_rows(rows, 0, width, False) == {_row(want[1], index)}


# A stress matrix left out of the benchmark corpus, as perfbench/corpus.py
# rebuilds it: random_matrix(random.Random("eliminate-10x4-3"), 10, 4,
# STRESS_STEPS).
STRESS_10X4_3 = [[0, 1, 1, 1], [0, 0, 1, 0], [1, 2, 0, 0], [0, 0, 2, 0],
                 [1, 0, 2, 1], [2, 0, 2, 1], [0, 2, 0, 0], [0, 0, 2, 1],
                 [2, 1, 0, 1], [1, 0, 0, 2]]


def test_closure_of_a_stress_matrix_passes_the_cap_at_its_entry_count(
        monkeypatch):
    # One round of the closure makes 29,812 entries (the Fraction oracle's
    # count), over CLOSURE_CAP.  The cap is checked entry by entry, so the
    # closure raises exactly when the count passes the cap.
    pl = pipeline_of(STRESS_10X4_3, set())
    assert [len(s) for _, s in pl.F0_stages] == [9, 10, 13, 17, 52, 390]
    with pytest.raises(ClosureCapExceeded,
                       match=f"exceeded {multicone.CLOSURE_CAP} elements"):
        closure(pl, rounds=1)
    monkeypatch.setattr(multicone, "CLOSURE_CAP", 29812 - 1)
    with pytest.raises(ClosureCapExceeded, match="exceeded 29811 elements"):
        closure(pl, rounds=1)
    monkeypatch.setattr(multicone, "CLOSURE_CAP", 29812)
    assert len(closure(pl, rounds=1).entries) == 29812
