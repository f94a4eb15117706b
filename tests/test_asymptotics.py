import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multispec.deformation import (DeformationData, RankData, deformation,
                                   point, rank_and_normalize)
from multispec.levels import (build_levels, canonical, evaluate_level,
                              level_eq, lmono, lpow, lprod)
from multispec.monomials import mono
from multispec.multicone import build_multicone, sample_members
from multispec.semigroup import run_pipeline
from multispec.asymptotics import (index_set, constraint_text, subset_label,
                                   structure_of, canonical_family,
                                   CoefficientFamily, app_template,
                                   remainder_exponent,
                                   check_map, PolyMapSpec,
                                   classify_two_manifolds, verify_estimate,
                                   EstimateReport, subsets_of_actions,
                                   weight_vector)
from multispec.polynomials import (BlockPolynomial, BlockStructure,
                                   poly_monomial, poly_const,
                                   exp_truncation)

import oracles
from oracles import diff, diff_multi, family_at, t_poly
from strategies import pipeline_of, scenarios
from test_levels import check_levels_against_oracles

P0 = point()


def random_polynomial(struct: BlockStructure, rng, max_degree: int = 3,
                      terms: int = 5) -> BlockPolynomial:
    d = {}
    for _ in range(terms):
        idx = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(struct.n))
        d[idx] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return BlockPolynomial.from_dict(struct, d)


def rigs():
    out = {}
    for name, rows in [
            ("separated2", [[1, 0], [0, 1]]),
            ("staircase2", [[1, 1], [0, 1]]),
            ("cusp", [[3, 2], [1, 1]]),
            ("clean2", [[1, 1, 0], [0, 1, 1]]),
            ("rational", [[1, Fraction(1, 2)], [0, 1]])]:
        d = deformation(rows)
        out[name] = (d, rank_and_normalize(d, P0))
    return out


RIGS = rigs()


def _weight_vector_members(d, r, J, N):
    """Oracle: the members found by recomputing weight_vector for every
    candidate index, which index_set replaced by incremental weights."""
    struct = structure_of(d)
    K_J = set().union(*(d.support(j) for j in J))
    coords = [c for c in range(struct.n) if struct.block_of(c) in K_J]

    def below(idx) -> bool:
        w = weight_vector(d, struct, tuple(idx), r.sigma_A)
        return all(w[j - 1] < N[j - 1] for j in J)

    members = []

    def rec(pos, idx):
        if pos == len(coords):
            members.append(tuple(idx))
            return
        v = 0
        while True:
            nxt = idx[:]
            nxt[coords[pos]] = v
            if not below(nxt):
                break
            rec(pos + 1, nxt)
            v += 1

    if any(n > 0 for n in N) and below([0] * struct.n):
        rec(0, [0] * struct.n)
    return tuple(sorted(members))


def test_index_set_matches_weight_vector_route():
    # the criterion-7 rigs, a rational matrix and blocks of size two
    rigs = [deformation(rows) for rows in (
        [[1, 0], [0, 1]], [[3, 2], [1, 1]], [[1, 1], [0, 1]],
        [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]],
        [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]],
        [[1, Fraction(1, 2)], [0, 1]])]
    rigs.append(deformation([[1, 1, 0], [0, 1, 1]], block_dims=(2, 1, 2)))
    for d in rigs:
        r = rank_and_normalize(d, P0)
        for J in subsets_of_actions(d.ell):
            for N in ((0,) * d.ell, (1,) * d.ell, (3,) * d.ell,
                      tuple(range(2, d.ell + 2)),
                      tuple(range(d.ell + 1, 1, -1)),
                      (4,) + (0,) * (d.ell - 1)):
                got = index_set(d, r, J, N).members
                assert got == _weight_vector_members(d, r, J, N)


def test_index_set_examples():
    d, r = RIGS["separated2"]
    assert set(index_set(d, r, {1}, (3, 7)).members) == {(0, 0), (1, 0), (2, 0)}
    d, r = RIGS["cusp"]
    got = set(index_set(d, r, {1}, (6, 9)).members)
    assert got == {(a, b) for a in range(2) for b in range(3)
                   if 3 * a + 2 * b < 6}
    assert index_set(d, r, {1, 2}, (0, 0)).members == ()
    with pytest.raises(ValueError):
        index_set(d, r, set(), (1, 1))


def test_index_set_rational_orders():
    d, r = RIGS["rational"]
    assert r.sigma_A == 2
    got = set(index_set(d, r, {1}, (4, 9)).members)
    # weight 2*(a1 + a2/2) = 2 a1 + a2 < 4
    assert got == {(a, b) for a in range(2) for b in range(4)
                   if 2 * a + b < 4}


def test_index_set_monotone():
    d, r = RIGS["clean2"]
    small = set(index_set(d, r, {1, 2}, (2, 2)).members)
    large = set(index_set(d, r, {1, 2}, (3, 4)).members)
    assert small <= large


def test_app_separated_plane():
    d, r = RIGS["separated2"]
    s = structure_of(d)
    f = poly_monomial(s, (1, 1))  # z1*z2
    fam = canonical_family(f, d)
    # the three-term inclusion-exclusion collapses to the plain product jet
    t1 = t_poly(d, r, frozenset({1}), (2, 0), fam, s)
    assert t1.terms == poly_monomial(s, (1, 1)).terms
    app = app_template(d, r, (2, 2), fam)
    assert app.terms == f.terms
    app0 = app_template(d, r, (1, 1), fam)
    assert app0.is_zero


@st.composite
def _families(draw, d):
    """A coefficient family on any indices, not only the acting ones: a
    few random entries per action subset."""
    struct = structure_of(d)
    small = st.lists(st.integers(0, 2), min_size=struct.n, max_size=struct.n)
    fam = {}
    for J in subsets_of_actions(d.ell):
        fam[J] = {tuple(alpha): BlockPolynomial.from_dict(
                      struct, {tuple(idx): Fraction(c) for idx, c in terms})
                  for alpha, terms in draw(st.lists(st.tuples(
                      small, st.lists(st.tuples(small, st.integers(-3, 3)),
                                      max_size=2)), max_size=3))}
    return fam


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.integers(0, 2 ** 32 - 1), st.data())
def test_app_template_matches_the_index_set_route(sc, seed, data):
    pl = pipeline_of(*sc)
    d, r = pl.d, pl.r
    N = tuple(data.draw(st.lists(st.integers(0, 4), min_size=d.ell,
                                 max_size=d.ell)))
    f = random_polynomial(structure_of(d), np.random.default_rng(seed),
                          max_degree=3, terms=5)
    for fam in (canonical_family(f, d), data.draw(_families(d))):
        assert app_template(d, r, N, fam).terms == \
            oracles.app_template(d, r, N, fam).terms


def test_app_clean2_constraints():
    d, r = RIGS["clean2"]
    iset = index_set(d, r, {1, 2}, (2, 2))
    want = {(b1, b2, b3) for b1 in range(3) for b2 in range(3)
            for b3 in range(3) if b1 + b2 < 2 and b2 + b3 < 2}
    assert set(iset.members) == want
    txt = constraint_text(d, {1, 2}, r.sigma_A)
    assert txt == ["|a1| + |a2| < n1", "|a2| + |a3| < n2"]
    assert subset_label({1, 2}) == "{1,2}"


def taylor_oracle(d: DeformationData, r: RankData, J, N,
                  f: BlockPolynomial) -> BlockPolynomial:
    """Independent route to the truncated polynomial: push the action into
    the argument and read off parameter weights; a monomial survives when
    every acting weight stays below its order."""
    J = frozenset(J)
    N = tuple(int(n) for n in N)
    struct = f.struct
    sigma = r.sigma_A
    d_terms = {}
    for idx, c in f.terms:
        w = weight_vector(d, struct, idx, sigma)
        for j in J:
            if w[j - 1].denominator != 1:
                raise AssertionError("scaled weights must be integers")
        if all(w[j - 1] < N[j - 1] for j in J):
            d_terms[idx] = c
    return BlockPolynomial.from_dict(struct, d_terms)


def derivative_shift(d: DeformationData, r: RankData, N, k: int) -> tuple[int, ...]:
    """Orders after differentiating in a coordinate of block k."""
    if not 1 <= k <= d.m:
        raise ValueError(f"block index {k} out of range")
    N = tuple(int(n) for n in N)
    shift = [r.sigma_A * d.entry(j, k) for j in range(1, d.ell + 1)]
    if any(s.denominator != 1 for s in shift):
        raise AssertionError("scaled column must be integral")
    return tuple(n + int(s) for n, s in zip(N, shift))


def family_shift(fam: CoefficientFamily, d: DeformationData,
                 struct: BlockStructure, coord: int) -> CoefficientFamily:
    """Re-index the family under one coordinate derivative: differentiate
    coefficients when the block is inactive for the subset, shift the index
    down when it is active."""
    k = struct.block_of(coord)
    out: CoefficientFamily = {}
    for J, entries in fam.items():
        if k not in d.k_union(J):
            out[J] = {alpha: diff(poly, coord)
                      for alpha, poly in entries.items()}
        else:
            new_entries = {}
            for alpha, poly in entries.items():
                if alpha[coord] >= 1:
                    shifted = list(alpha)
                    shifted[coord] -= 1
                    new_entries[tuple(shifted)] = poly
            out[J] = new_entries
    return out


def derivative_identity_holds(d: DeformationData, r: RankData,
                              f: BlockPolynomial, N, coord: int) -> bool:
    """d/dz_i of the template at shifted orders equals the template of the
    shifted family at the original orders."""
    k = f.struct.block_of(coord)
    n_plus = derivative_shift(d, r, N, k)
    fam = canonical_family(f, d)
    lhs = diff(app_template(d, r, n_plus, fam), coord)
    fam_shifted = family_shift(fam, d, f.struct, coord)
    rhs = app_template(d, r, N, fam_shifted)
    return lhs.terms == rhs.terms


@dataclass(frozen=True)
class ConsistencyReport:
    holds: bool
    mismatches: tuple[str, ...]


def consistency_C1(family: CoefficientFamily,
                   d: DeformationData) -> ConsistencyReport:
    """Families attached to subsets with the same vanishing locus must agree;
    for polynomial data the recursive condition reduces to the restriction/
    differentiation compatibility across nested subsets, checked too."""
    struct = structure_of(d)
    mismatches = []
    subsets = subsets_of_actions(d.ell)
    for i, J in enumerate(subsets):
        for Jp in subsets[i + 1:]:
            if d.k_union(J) != d.k_union(Jp):
                continue
            keys = set(family.get(J, {})) | set(family.get(Jp, {}))
            for alpha in keys:
                if family_at(family, struct, J, alpha).terms != \
                        family_at(family, struct, Jp, alpha).terms:
                    mismatches.append(
                        f"J={sorted(J)} vs J'={sorted(Jp)} at alpha={alpha}")

    # Restriction/differentiation compatibility (polynomial route).
    for J in subsets:
        for R in subsets:
            if not (J < R):
                continue
            kj, kr = d.k_union(J), d.k_union(R)
            j_coords = [c for c in range(struct.n) if struct.block_of(c) in kj]
            keys = set(family.get(R, {}))
            for alpha, poly in family.get(J, {}).items():
                # any gamma = alpha + beta with beta outside the J-blocks
                for gamma in keys:
                    if all(gamma[c] == alpha[c] for c in j_coords) and all(
                            struct.block_of(c) in kr for c in range(struct.n)
                            if gamma[c] != alpha[c]):
                        beta = tuple(g - a for g, a in zip(gamma, alpha))
                        if any(b < 0 for b in beta):
                            continue
                        expected = diff_multi(poly, beta).restrict_zero(kr)
                        got = family_at(family, struct, R, gamma)
                        if expected.terms != got.terms:
                            mismatches.append(
                                f"J={sorted(J)} -> R={sorted(R)} at "
                                f"gamma={gamma}")
    return ConsistencyReport(not mismatches, tuple(sorted(set(mismatches))))


def test_taylor_oracle_examples():
    d, r = RIGS["cusp"]
    s = structure_of(d)
    z1z2 = poly_monomial(s, (1, 1))
    assert taylor_oracle(d, r, {1}, (1, 1), z1z2).is_zero  # weight 5 >= 1
    dm, rm = RIGS["separated2"]
    sm = structure_of(dm)
    f = poly_monomial(sm, (1, 1))
    got = taylor_oracle(dm, rm, {1}, (2, 0), f)
    assert got.terms == f.terms


def test_oracle_equivalence_random():
    rng = np.random.default_rng(2024)
    for name, (d, r) in RIGS.items():
        s = structure_of(d)
        fam_cache = {}
        for _ in range(50):
            f = random_polynomial(s, rng, max_degree=4, terms=4)
            key = f.terms
            fam = fam_cache.get(key) or canonical_family(f, d)
            fam_cache[key] = fam
            J = frozenset({1}) if rng.integers(2) else frozenset({1, 2})
            N = (int(rng.integers(0, 7)), int(rng.integers(0, 7)))
            a = t_poly(d, r, J, N, fam, s)
            b = taylor_oracle(d, r, J, N, f)
            assert a.terms == b.terms, (name, J, N)


def test_derivative_shift_examples():
    d, r = RIGS["separated2"]
    assert derivative_shift(d, r, (1, 1), 1) == (2, 1)
    d, r = RIGS["cusp"]
    assert derivative_shift(d, r, (2, 1), 1) == (5, 2)
    assert derivative_shift(d, r, (2, 1), 2) == (4, 2)


def test_derivative_identity_random():
    rng = np.random.default_rng(55)
    count = 0
    for name, (d, r) in RIGS.items():
        s = structure_of(d)
        for _ in range(4):
            f = random_polynomial(s, rng, max_degree=3, terms=3)
            N = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            coord = int(rng.integers(0, s.n))
            assert derivative_identity_holds(d, r, f, N, coord), (name, N)
            count += 1
    assert count >= 20


def test_consistency_examples():
    # a family generated by one polynomial is always consistent
    d, r = RIGS["staircase2"]
    s = structure_of(d)
    f = poly_monomial(s, (2, 1)) + \
        poly_monomial(s, (0, 1)).scale(Fraction(1, 2))
    fam = canonical_family(f, d)
    assert consistency_C1(fam, d).holds

    # breaking the matching-locus equality is caught: for the flag pair the
    # subsets {1} and {1,2} share the same vanishing locus
    bad = {J: dict(entries) for J, entries in fam.items()}
    key = next(iter(bad[frozenset({1})]))
    bad[frozenset({1})][key] = bad[frozenset({1})][key] + poly_const(s, 1)
    rep = consistency_C1(bad, d)
    assert not rep.holds

    # the cusp identifies all three subsets
    d, r = RIGS["cusp"]
    s = structure_of(d)
    fam = canonical_family(poly_monomial(s, (1, 1)), d)
    ksets = {frozenset(J): frozenset().union(*(d.support(j) for j in J))
             for J in subsets_of_actions(2)}
    assert len(set(ksets.values())) == 1
    assert consistency_C1(fam, d).holds


def test_check_map_examples():
    dM = deformation([[1, 1, 0], [0, 1, 1]])
    dN = deformation([[1, 1], [0, 1]], block_dims=[1, 2])
    sM = structure_of(dM)
    x1 = poly_monomial(sM, (1, 0, 0))
    x2 = poly_monomial(sM, (0, 1, 0))
    x3 = poly_monomial(sM, (0, 0, 1))
    res = check_map(PolyMapSpec(dM, dN, (x1, x1 * x3 + x2, x1 * x3)))
    assert res.ok
    assert [str(t) for t in res.induced] == ["z1", "z2 + z1*z3", "z1*z3"]

    dM2 = deformation([[1, 0], [0, 1]])
    dN2 = deformation([[3, 2], [1, 1]])
    s2 = structure_of(dM2)
    res = check_map(PolyMapSpec(dM2, dN2, (poly_monomial(s2, (3, 1)),
                                           poly_monomial(s2, (2, 1)))))
    assert res.ok
    assert [str(t) for t in res.induced] == ["z1^3*z2", "z1^2*z2"]

    res = check_map(PolyMapSpec(dM2, dN2, (poly_monomial(s2, (1, 0)),
                                           poly_monomial(s2, (0, 1)))))
    assert not res.ok


def test_check_map_weight_witness():
    # with both target manifolds at the origin the image check passes and
    # the weight condition carries the failure
    dM2 = deformation([[1, 0], [0, 1]])
    dN2 = deformation([[3, 2], [1, 1]], K_sets=[{1, 2}, {1, 2}])
    s2 = structure_of(dM2)
    f = (poly_monomial(s2, (1, 1)), poly_monomial(s2, (1, 1)))
    res = check_map(PolyMapSpec(dM2, dN2, f))
    assert not res.ok and res.witness is not None
    coord, idx, row = res.witness
    assert coord == 0 and idx == (1, 1) and row == 1


def test_induced_map_grading_homogeneous():
    from multispec.asymptotics import weight_vector
    dM = deformation([[1, 1, 0], [0, 1, 1]])
    dN = deformation([[1, 1], [0, 1]], block_dims=[1, 2])
    sM = structure_of(dM)
    x1 = poly_monomial(sM, (1, 0, 0))
    x2 = poly_monomial(sM, (0, 1, 0))
    x3 = poly_monomial(sM, (0, 0, 1))
    extra = x2 * x3  # weight (1, 2) > column (1, 1), kept by 4.3, dropped by T
    res = check_map(PolyMapSpec(dM, dN, (x1, x1 * x3 + x2 + extra, x1 * x3)))
    assert res.ok
    tstruct = structure_of(dN)
    for coord, comp in enumerate(res.induced):
        k = tstruct.block_of(coord)
        col = tuple(dN.entry(j, k) for j in (1, 2))
        for idx, _ in comp.terms:
            assert weight_vector(dM, sM, idx, Fraction(1)) == col


def test_remainder_exponents():
    d, r = RIGS["cusp"]
    fam = build_levels(run_pipeline(d, r, P0))
    for N in [(1, 1), (3, 2), (4, 1), (0, 0)]:
        rem = remainder_exponent(fam, N, r.sigma_A)
        if N == (0, 0):
            assert level_eq(rem, lmono("1"))
        else:
            want = lmono(mono(f"t1^({N[0] - 2 * N[1]})*t2^({3 * N[1] - N[0]})"))
            assert level_eq(rem, want)


# Worked-example remainders: rows, orders, and the remainder's monomial.
B, C = Fraction(1, 2), Fraction(1, 3)
WORKED_REMAINDERS = [
    ([[3, 2], [1, 1]], (1, 1), "t1^(-1)*t2^2"),
    ([[3, 2], [1, 1]], (3, 2), "t1^(-1)*t2^3"),
    ([[3, 2], [1, 1]], (4, 1), "t1^2*t2^(-1)"),
    ([[1, 1], [0, 1]], (1, 1), "t2"),
    ([[1, 1], [0, 1]], (3, 2), "t1*t2^2"),
    ([[1, B], [C, 1]], (1, 1), f"t1^({(1 - B) / (1 - B * C) / 6})*"
                               f"t2^({(1 - C) / (1 - B * C) / 6})"),
    ([[1, B], [C, 1]], (2, 5), f"t1^({(2 - 5 * B) / (1 - B * C) / 6})*"
                               f"t2^({(5 - 2 * C) / (1 - B * C) / 6})"),
    ([[1, 1, 1], [0, 1, 0], [0, 0, 1]], (2, 1, 1), "t2*t3"),
]
# Scenarios whose remainders are lattice trees, not single monomials.
TREE_SCENARIOS = [
    [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
    [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]],
]
STRESS_STEPS = ("0", "0", "1", "2")


def stress_matrix(name, ell, m):
    """A stress-tier action matrix drawn from its seed string: entries from
    STRESS_STEPS, no zero row or column."""
    rng = random.Random(name)
    while True:
        a = [[rng.choice(STRESS_STEPS) for _ in range(m)] for _ in range(ell)]
        if all(any(x != "0" for x in row) for row in a) and \
                all(any(row[k] != "0" for row in a) for k in range(m)):
            return [[Fraction(x) for x in row] for row in a]


def _stress_pipeline(name, ell, m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicated rows
        return run_pipeline(deformation(stress_matrix(name, ell, m)), None, P0)


STRESS = [("eliminate-8x3-4", 8, 3), ("eliminate-8x4-2", 8, 4),
          ("eliminate-10x4-7", 10, 4)]


def _expanded_remainder(fam, N, sigma):
    """The remainder multiplied out at once."""
    factors = [lpow(e, Fraction(N[j - 1]) / sigma)
               for j, e in sorted(fam.rho_Lambda.items()) if N[j - 1]]
    return canonical(lprod(factors)) if factors else lmono("1")


def _remainder_cases():
    for rows, N, _ in WORKED_REMAINDERS:
        yield run_pipeline(deformation(rows), None, P0), N
    for rows in TREE_SCENARIOS:
        for N in ((1,) * len(rows), (2,) + (0,) * (len(rows) - 1)):
            yield run_pipeline(deformation(rows), None, P0), N
    for name, ell, m in STRESS:
        yield _stress_pipeline(name, ell, m), (1, 1) + (0,) * (ell - 2)


def test_worked_remainders_from_the_factored_form():
    for rows, N, want in WORKED_REMAINDERS:
        pl = run_pipeline(deformation(rows), None, P0)
        rem = remainder_exponent(build_levels(pl), N, pl.r.sigma_A)
        assert rem.kind in ("prod", "pow")
        assert level_eq(rem, lmono(want))


def test_factored_remainder_expands_to_the_product():
    rng = np.random.default_rng(5)
    for pl, N in _remainder_cases():
        fam = build_levels(pl)
        rem = remainder_exponent(fam, N, pl.r.sigma_A)
        expanded = _expanded_remainder(fam, N, pl.r.sigma_A)
        assert canonical(rem) == expanded
        for _ in range(20):
            taus = {k: float(np.exp(rng.uniform(-1, 1)))
                    for k in pl.r.sel_cols}
            assert math.isclose(evaluate_level(rem, taus),
                                evaluate_level(expanded, taus),
                                rel_tol=1e-12)


@pytest.mark.parametrize("name, ell, m", STRESS, ids=[s[0] for s in STRESS])
def test_stress_levels_and_remainders_match_the_oracles(name, ell, m):
    # pipeline -> levels -> remainder, against the sequential restriction,
    # the per-node strictness and the remainder multiplied out at once
    pl = _stress_pipeline(name, ell, m)
    fam = build_levels(pl)
    check_levels_against_oracles(pl, fam)
    N = (1, 1) + (0,) * (ell - 2)
    assert (canonical(remainder_exponent(fam, N, pl.r.sigma_A))
            == _expanded_remainder(fam, N, pl.r.sigma_A))


def test_verify_estimate_positive():
    d, r = RIGS["cusp"]
    s = structure_of(d)
    rep = verify_estimate(d, r, P0, poly_monomial(s, (1, 1)), (1, 1),
                          samples=300)
    assert rep.passed
    # exact reproduction: all weights below the orders leave zero remainder
    rep = verify_estimate(d, r, P0, poly_monomial(s, (1, 1)), (6, 3),
                          samples=100)
    assert rep.passed and rep.C_fit == 0.0


def _per_point_verify_estimate(d, r, p, f, N, samples, eps, seed):
    """verify_estimate as written per point: the orders and sigma_A
    converted to float, and the coordinates rebuilt from the block
    structure, at every sampled point and level."""
    pipeline = run_pipeline(d, r, p)
    family = build_levels(pipeline)
    diffp = f - app_template(d, r, N, canonical_family(f, d))
    system = build_multicone(pipeline, p, check_equivalence=False)
    rng = np.random.default_rng(seed)

    def fit(scale, n):
        worst, skipped = 0.0, 0
        pts = sample_members(system, n, scale, rng)
        for norms in pts:
            struct = structure_of(d)
            coords = [0.0] * struct.n
            for k in range(1, d.m + 1):
                for c in struct.coords_of(k):
                    coords[c] = float(norms.get(k, 0.0))
            val = abs(diffp.evaluate(coords))
            rem = 1.0
            for j, e in family.rho_Lambda.items():
                nj = float(N[j - 1])
                if nj:
                    rem *= evaluate_level(e, norms) ** (nj / float(r.sigma_A))
            if rem == 0.0:
                skipped += 1
                continue
            worst = max(worst, val / rem)
        return worst, skipped, len(pts)

    (c_full, skip_full, n_full), (c_half, skip_half, n_half) = \
        fit(eps, samples), fit(eps / 2.0, samples)
    # a fit with no usable point fails
    return EstimateReport(c_full, c_half, samples,
                          skip_full < n_full and skip_half < n_half
                          and c_half <= 2.0 * c_full + 1e-12,
                          skipped=skip_full + skip_half)


def test_verify_estimate_matches_per_point_oracle():
    wide = deformation([[1, 1, 0], [0, 1, 1]], block_dims=(2, 1, 2))
    cases = [(RIGS["cusp"], (1, 1)), (RIGS["rational"], (2, 3)),
             (RIGS["staircase2"], (0, 2)), (RIGS["clean2"], (3, 1)),
             ((wide, rank_and_normalize(wide, P0)), (2, 2))]
    rng = np.random.default_rng(4)
    for seed, ((d, r), N) in enumerate(cases, start=30):
        s = structure_of(d)
        for f in (random_polynomial(s, rng), exp_truncation(s, 4)):
            for eps in (0.1, 0.05):
                got = verify_estimate(d, r, P0, f, N, samples=80, eps=eps,
                                      seed=seed)
                assert got == _per_point_verify_estimate(
                    d, r, P0, f, N, 80, eps, seed)


def test_verify_estimate_counts_points_whose_bound_underflows():
    d, r = RIGS["cusp"]
    f = poly_monomial(structure_of(d), (1, 1))
    assert verify_estimate(d, r, P0, f, (1, 1), samples=50).skipped == 0
    # large orders send some remainder bounds to 0.0, then all of them
    some = verify_estimate(d, r, P0, f, (50, 50), samples=50, seed=3)
    assert some == _per_point_verify_estimate(d, r, P0, f, (50, 50), 50,
                                              0.1, 3)
    assert 0 < some.skipped < 100
    every = verify_estimate(d, r, P0, f, (200, 200), samples=50)
    assert every.skipped == 100 and every.C_fit == every.C_half == 0.0
    # with no point left to fit, the estimate fails
    assert not every.passed
    assert every == _per_point_verify_estimate(d, r, P0, f, (200, 200), 50,
                                               0.1, 0)



@pytest.mark.parametrize("samples, eps, message", [
    (0, 0.1, "need at least one sample, got 0"),
    (-3, 0.1, "need at least one sample, got -3"),
    (50, 0.0, "eps must be finite and positive, got 0.0"),
    (50, -0.1, "eps must be finite and positive, got -0.1"),
    (50, math.nan, "eps must be finite and positive, got nan"),
    (50, math.inf, "eps must be finite and positive, got inf"),
], ids=["no-samples", "negative-samples", "zero-eps", "negative-eps",
        "nan-eps", "infinite-eps"])
def test_verify_estimate_rejects_what_it_cannot_sample(samples, eps,
                                                       message):
    # no samples is a bad argument, not a starved sampler
    d, r = RIGS["cusp"]
    f = poly_monomial(structure_of(d), (1, 1))
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_estimate(d, r, P0, f, (1, 1), samples=samples, eps=eps)

def test_classify_catalogue():
    assert classify_two_manifolds(
        deformation([[1, 0], [0, 1]])).label == "m=2,N=2"
    case = classify_two_manifolds(deformation([[1, 2], [0, 1]]))
    assert case.label == "m=2,N=3"
    assert case.remainder_text() == "|z1|^(n1 + (-2)*n2)*|z2|^(n2)"
    assert classify_two_manifolds(deformation(
        [[1, Fraction(1, 2)], [Fraction(1, 3), 1]])).label == "m=2,N=4"
    assert classify_two_manifolds(
        deformation([[1, 0, 2], [0, 1, 0]])).label == "m=3,N=3"
    assert classify_two_manifolds(
        deformation([[1, 1, 2], [0, 1, 0]])).label == "m=3,N=4a"
    assert classify_two_manifolds(
        deformation([[1, 1, 0], [0, 1, 2]])).label == "m=3,N=4b"
    assert classify_two_manifolds(
        deformation([[1, 1, 3], [0, 1, 1]])).label == "m=3,N=5"
    assert classify_two_manifolds(deformation(
        [[1, Fraction(1, 2), 1], [Fraction(1, 2), 1, 1]])).label == "m=3,N=6"


def test_classify_rejections():
    with pytest.raises(ValueError):
        classify_two_manifolds(deformation([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        # duplicated block
        classify_two_manifolds(deformation([[1, 0, 1], [0, 1, 0]]))
    with pytest.raises(ValueError):
        # proportional block
        classify_two_manifolds(deformation([[1, 1, 1], [0, 1, 1]]))
    with pytest.raises(ValueError):
        classify_two_manifolds(deformation([[2, 0], [0, 1]]))  # not normalized
    with pytest.raises(ValueError):
        classify_two_manifolds(deformation([[1, 0], [0, 1], [1, 1]]))


def _derivative_family(f, d):
    """canonical_family entry by entry: differentiate, then restrict."""
    struct = f.struct
    fam = {}
    for J in subsets_of_actions(d.ell):
        K_J = set()
        for j in J:
            K_J |= set(d.support(j))
        coords = [c for c in range(struct.n) if struct.block_of(c) in K_J]
        entries = {}
        for idx, _ in f.terms:
            alpha = tuple(idx[c] if c in coords else 0
                          for c in range(struct.n))
            if alpha not in entries:
                entries[alpha] = diff_multi(f, alpha).restrict_zero(K_J)
        fam[J] = entries
    return fam


@st.composite
def _small_deformations(draw):
    ell, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.sampled_from([0, 0, 1, 2, Fraction(1, 2)]),
                   min_size=m, max_size=m).filter(any)
    rows = draw(st.lists(row, min_size=ell, max_size=ell))
    dims = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return deformation(rows, block_dims=dims)


@settings(max_examples=80, deadline=None)
@given(_small_deformations(), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.integers(1, 8))
def test_canonical_family_matches_derivative_route(d, seed, degree, terms):
    f = random_polynomial(structure_of(d), np.random.default_rng(seed),
                          max_degree=degree, terms=terms)
    got, want = canonical_family(f, d), _derivative_family(f, d)
    assert list(got) == list(want)
    for J, entries in want.items():
        assert list(got[J]) == list(entries)
        for alpha, poly in entries.items():
            assert got[J][alpha].terms == poly.terms


@settings(max_examples=60, deadline=None)
@given(_small_deformations(), st.integers(0, 2 ** 32 - 1), st.data())
def test_polynomial_evaluate_matches_exact_terms(d, seed, data):
    s = structure_of(d)
    f = random_polynomial(s, np.random.default_rng(seed), max_degree=4,
                          terms=6)
    values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=s.n,
                                max_size=s.n))
    want = 0.0
    for idx, c in f.terms:
        term = float(c)
        for coord, e in enumerate(idx):
            if e:
                term *= values[coord] ** e
        want += term
    assert f.evaluate(values) == want
