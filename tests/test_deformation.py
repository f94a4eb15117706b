import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings

import oracles
from multispec.deformation import (deformation, point, build_from_index_family,
                                   classify_action, is_fixed_point,
                                   minor_columns, rank_and_normalize,
                                   derive_monomials, bundle_decomposition,
                                   ActionClass, IdentityActionError)
from multispec.linear import pivots, nonneg_solution
from multispec.monomials import mono, tau, lam
from strategies import scenarios


def test_build_from_index_family_examples():
    d = build_from_index_family([{1, 2}, {2, 3}])
    assert d.block_dims == (1, 1, 1)
    assert [[int(x) for x in row] for row in d.A] == [[1, 1, 0], [0, 1, 1]]

    d = build_from_index_family([{1}, {2}, {3}])
    assert [[int(x) for x in row] for row in d.A] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]

    with pytest.warns(UserWarning):
        d = build_from_index_family([{1}, {1}])
    assert d.m == 1 and [[int(x) for x in row] for row in d.A] == [[1], [1]]

    d = build_from_index_family([{2, 3}, {3, 4}])
    assert d.complement_block == {1}

    with pytest.raises(ValueError):
        build_from_index_family([set(), set()])


def test_validation():
    with pytest.raises(IdentityActionError):
        deformation([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        deformation([[1, -1]])
    with pytest.raises(ValueError):
        deformation([[1, 0], [0, 1]], K_sets=[{1, 2}, {2}])
    d = deformation([[1, 1], [0, 1]], K_sets=[{1, 2}, {2}])
    assert d.support(2) == {2}


def test_classify_examples():
    assert classify_action(deformation([[1, 1, 0], [0, 1, 1]])) is \
        ActionClass.NON_DEGENERATE
    d325 = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])
    assert classify_action(d325) is ActionClass.TRANSITIVE
    assert classify_action(deformation([[1, 0], [0, 1]])) is ActionClass.NORMAL
    with pytest.warns(UserWarning):
        degenerate = deformation([[1, 1], [1, 1], [1, 1]])
    assert classify_action(degenerate) is ActionClass.DEGENERATE


def test_classify_invariant_under_row_scaling():
    rows = [[1, 1, 0], [0, 1, 1]]
    scaled = [[Fraction(3, 2), Fraction(3, 2), 0], [0, 1, 1]]
    assert classify_action(deformation(rows)) is \
        classify_action(deformation(scaled))


def test_fixed_point_examples():
    d = deformation([[1, 1, 0], [0, 1, 1]])
    r = rank_and_normalize(d, point())
    assert is_fixed_point(d, point(zero_blocks={1, 3}), r)
    assert not is_fixed_point(d, point(zero_blocks={3}), r)
    assert not is_fixed_point(d, point(), r)


def test_fixed_point_permutation_invariant():
    d = deformation([[1, 1, 0], [0, 1, 1]])
    d_perm = deformation([[0, 1, 1], [1, 1, 0]])  # rows swapped
    r, r_perm = (rank_and_normalize(e, point()) for e in (d, d_perm))
    for zeros in [set(), {1}, {3}, {1, 3}]:
        assert is_fixed_point(d, point(zero_blocks=zeros), r) == \
            is_fixed_point(d_perm, point(zero_blocks=zeros), r_perm)


def test_sigma_examples():
    # sigma_A from the integer rows: their denominator over their gcd
    for rows, sigma in [([[3, 2], [1, 1]], 1),
                        ([[Fraction(1, 2), 1], [0, 1]], 2),
                        ([[Fraction(2, 3), Fraction(4, 3)]], Fraction(3, 2)),
                        ([[2, 4]], Fraction(1, 2))]:
        d = deformation(rows)
        assert rank_and_normalize(d, point()).sigma_A == sigma
        assert oracles.sigma_for(d.A) == sigma


def test_rank_and_normalize():
    d = deformation([[3, 2], [1, 1]])
    r = rank_and_normalize(d, point())
    assert r.L == 2 and r.sigma_A == 1

    d3 = deformation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r3 = rank_and_normalize(d3, point(zero_blocks={3}))
    assert r3.L == 3 and r3.sel_cols == (1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(scenarios(max_rows=5, max_cols=5))
@example(([[0, 1, 1], [0, 2, 2], [1, 0, 0]], {1}))
@example(([[1, 1, 0], [2, 2, 0], [0, 0, 1], [1, 1, 1]], set()))
@example(([["1/2", "3/2", "0"], ["1", "3", "0"], ["0", "0", "2"]], {3}))
def test_pivot_minor_matches_the_search(sc):
    # the rows of the minor are the pivot rows and its columns their pivot
    # columns; for every set of rank-many lead rows, their pivot columns
    # are the search's minor on those rows, and there are fewer exactly
    # where the search finds none.  The rank data (sigma_A included), the
    # fixed-point test and the class, all read off the integer rows, are
    # the Fraction oracles'.
    rows, zeros = sc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = deformation(rows)
    p = point(zero_blocks=zeros)
    r = rank_and_normalize(d, p)
    assert r == oracles.rank_data(d)
    assert is_fixed_point(d, p, r) == oracles.is_fixed_point(d, p)
    assert classify_action(d) is oracles.classify_action(d)
    for lead in combinations(range(1, d.ell + 1), r.L):
        want = oracles.rank_data(d, lead)
        cols = minor_columns(d, lead)
        if want is None:
            assert len(cols) < r.L
        else:
            assert replace(r, sel_rows=lead, sel_cols=cols) == want


def test_derive_monomials_examples():
    d324 = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    der = derive_monomials(d324, rank_and_normalize(d324, point()))
    assert der.phi_inv[1] == mono("t1")
    assert der.phi_inv[2] == mono("t2")
    assert der.phi_inv[3] == mono("t3/(t1*t2)")

    d53 = deformation([[1, 1, 0], [0, 1, 1]])
    der = derive_monomials(d53, rank_and_normalize(d53, point()))
    assert der.psi[3] == mono("t1*t3/t2")

    dcusp = deformation([[3, 2], [1, 1]])
    der = derive_monomials(dcusp, rank_and_normalize(dcusp, point()))
    assert der.phi_inv[1] == mono("t1/t2")
    assert der.phi_inv[2] == mono("t2^3/t1^2")


def test_derived_monomials_invariants():
    for rows in ([[1, 1, 0], [0, 1, 1]],
                 [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                 [[3, 2], [1, 1]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]):
        d = deformation(rows)
        r = rank_and_normalize(d, point())
        der = derive_monomials(d, r)
        # round trip is asserted inside derive_monomials; psi is lambda-free
        for k, psi in der.psi.items():
            assert all(v.kind == "tau" for v, _ in psi.exps)
            for j in range(1, d.ell + 1):
                assert psi.exponent(lam(j)) == 0


def test_bundle_decomposition_examples():
    # three flags through a common center
    d = build_from_index_family([{1, 3}, {2, 3}, {1, 2, 3}])
    summands = bundle_decomposition(d)
    texts = {s.text for s in summands}
    assert "T_M M2" in texts and "T_M M1" in texts
    big = next(s for s in summands if s.ambient == "X")
    assert "TM1×M + TM2×M" in big.text

    d2 = build_from_index_family([{1, 2}, {2, 3}, {1, 3}])
    texts = {s.text for s in bundle_decomposition(d2)}
    assert texts == {"T_M M1", "T_M M2", "T_M M3"}

    d1 = build_from_index_family([{1, 2, 3}])
    s = bundle_decomposition(d1)
    assert len(s) == 1 and s[0].B_k == {1} and s[0].text == "T_M X"

    d_bad = build_from_index_family([{1, 3}, {2, 3}])  # clean, not transverse
    with pytest.raises(ValueError):
        bundle_decomposition(d_bad)


def test_nonneg_solution():
    cols = [[1, 0], [1, 1]]
    x, d = nonneg_solution(cols, [3, 2])
    assert d > 0 and x[0] + x[1] == 3 * d and x[1] == 2 * d
    assert nonneg_solution(cols, [-1, 0]) is None
    assert pivots([[1, 2], [2, 4]]) == [0]
