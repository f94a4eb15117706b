
import warnings
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multispec.deformation import (PointPattern, build_from_index_family,
                                   deformation, point, rank_and_normalize,
                                   derive_monomials)
from multispec.linear import pivots
from multispec.monomials import mono
from multispec.restriction import (log_at_exp_beta, check_restriction,
                                   extended_matrix, RestrictionCase)
from multispec.semigroup import run_pipeline, radical_member, Verdict
from oracles import sufficient_nonneg_combination
from strategies import HALVES, pipeline_of, scenarios


@dataclass(frozen=True)
class H2Report:
    holds: bool
    failing_pairs: tuple[tuple[int, int], ...]
    steps: tuple[dict, ...]


def _h2_pairwise(sets) -> tuple[tuple[int, int], ...]:
    bad = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = set(sets[i]), set(sets[j])
            if not (a <= b or b <= a or not (a & b)):
                bad.append((i + 1, j + 1))
    return tuple(bad)


def check_H2_subfamily(I_sets_B, subset) -> H2Report:
    """Pairwise nesting-or-disjointness for the family, plus the per-removal
    pairing conditions that make restriction to the subfamily compatible.

    For each manifold outside the subfamily (removed one at a time, largest
    index first) the removed row must pair to zero or one against every
    solved inverse (the phi logs) and every quotient (the psi logs) of the
    family without it.
    """
    sets = [frozenset(s) for s in I_sets_B]
    bad = _h2_pairwise(sets)
    if bad:
        return H2Report(False, bad, ())

    subset = sorted(set(subset))
    if not set(subset) <= set(range(1, len(sets) + 1)):
        raise ValueError("subfamily indices out of range")
    keep = list(range(1, len(sets) + 1))
    steps = []
    ok = True
    for removed in sorted(set(keep) - set(subset), reverse=True):
        d_full = build_from_index_family([sets[i - 1] for i in keep])
        row_pos = keep.index(removed) + 1
        beta = list(d_full.A[row_pos - 1])
        rows_A = [list(d_full.A[i - 1]) for i in range(1, d_full.ell + 1)
                  if i != row_pos]
        d_A = deformation(rows_A, block_dims=d_full.block_dims)
        # The restriction locus kills the directions only the removed
        # manifold acted on (the zero columns of the reduced matrix).
        dead = frozenset(k for k in range(1, d_A.m + 1)
                         if not any(row[k - 1] for row in d_A.ints))
        p0 = PointPattern(dead)
        r_A = rank_and_normalize(d_A, p0)
        derived = derive_monomials(d_A, r_A)
        logs_phi = {j: log_at_exp_beta(m, beta)
                    for j, m in derived.phi_inv.items()}
        logs_psi = {k: log_at_exp_beta(m, beta) for k, m in derived.psi.items()}
        step_ok = all(v in (0, 1) for v in logs_phi.values()) and \
            all(v in (0, 1) for v in logs_psi.values())
        closed_form = _closed_form_inverses([sets[i - 1] for i in keep])
        steps.append({"removed": removed, "phi_logs": logs_phi,
                      "psi_logs": logs_psi, "ok": step_ok,
                      "closed_form": closed_form})
        ok = ok and step_ok
        keep.remove(removed)
    return H2Report(ok, (), tuple(steps))


def _closed_form_inverses(sets) -> dict[int, str]:
    """Under the nesting condition: tau_j alone when the j-th index set is
    maximal, else tau_j over the scale of the smallest strict superset."""
    out = {}
    for j, s in enumerate(sets, start=1):
        supers = [i for i, t in enumerate(sets, start=1)
                  if i != j and set(s) < set(t)]
        if not supers:
            out[j] = f"t{j}"
        else:
            kj = min(supers, key=lambda i: (len(sets[i - 1]), i))
            out[j] = f"t{j}/t{kj}"
    return out


def test_log_at_exp_beta():
    assert log_at_exp_beta(mono("t2/(t1*t3)"), [1, 1, 1]) == -1
    assert log_at_exp_beta(mono("t1*t3/t2"), [0, 1, 0]) == -1
    assert log_at_exp_beta(mono("1"), [1, 2, 3]) == 0
    # parameter exponents are dropped
    assert log_at_exp_beta(mono("t1/l4"), [2, 0, 0]) == 2


def test_row_pairings():
    for rows in ([[1, 1, 0], [0, 1, 1]], [[3, 2], [1, 1]],
                 [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                 [[1, 1, 0, 1], [0, 1, 1, 0]]):
        d = deformation(rows)
        r = rank_and_normalize(d, point())
        der = derive_monomials(d, r)
        # solved inverses pair with the selected rows by Kronecker delta
        for jpos, j in enumerate(r.sel_rows):
            for ipos, i in enumerate(r.sel_rows):
                got = log_at_exp_beta(der.phi_inv[j], list(d.A[i - 1]))
                assert got == (1 if i == j else 0)
        # quotients pair to zero with every row of the matrix
        for k, psi in der.psi.items():
            for i in range(1, d.ell + 1):
                assert log_at_exp_beta(psi, list(d.A[i - 1])) == 0


def test_value_log_dichotomy():
    # zero-valued stage pairs pair non-negatively with the matrix rows,
    # nonzero-valued ones pair to zero
    for rows, zeros in (([[1, 1, 0], [0, 1, 1]], set()),
                        ([[1, 1, 0, 1], [0, 1, 1, 0]], {3})):
        d = deformation(rows)
        p = point(zero_blocks=zeros)
        pl = run_pipeline(d, None, p)
        for pr in pl.Fq:
            for i in range(1, d.ell + 1):
                lv = log_at_exp_beta(pr.f, list(d.A[i - 1]))
                if pr.v.is_zero:
                    assert lv >= 0
                else:
                    assert lv == 0


def test_same_rank_examples():
    d = deformation([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    p = point()
    v = check_restriction(run_pipeline(d, None, p), [1, 1, 1])
    assert v.holds and v.sufficient_nonneg_combination
    assert v.case is RestrictionCase.SAME_RANK

    d242 = deformation([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    p = point()
    v = check_restriction(run_pipeline(d242, None, p), [1, 1, 1])
    assert not v.holds
    assert any(str(w.pair.f) == "t1^(-1)*t2^(-1)*t3" for w in v.witnesses)
    p = point(zero_blocks={2})
    v = check_restriction(run_pipeline(d242, None, p), [1, 1, 1])
    assert v.holds


def test_rank_plus_one_examples():
    dM = deformation([[1, 0, 0], [0, 1, 0]])
    p = point(zero_blocks={3})
    v = check_restriction(run_pipeline(dM, None, p), [0, 0, 1])
    assert v.holds and v.pivot == 3

    d250 = deformation([[1, 1, 0, 1], [0, 1, 1, 0]])
    p = point(zero_blocks={3})
    pl = run_pipeline(d250, None, p)
    v = check_restriction(pl, [1, 1, 1, 0])
    assert not v.holds
    assert any(str(w.pair.f) == "t1*t4^(-1)" and "nonzero" in w.condition
               for w in v.witnesses)
    v = check_restriction(pl, [1, 1, 1, 1])
    assert v.holds


def _transformed(pl, v):
    """The solved inverses and quotients of the extended matrix, from the
    verdict's pairings and pivot: each old one times the pivot quotient
    psi_p to minus its pairing over b_p, and the new action's inverse
    psi_p^(1/b_p)."""
    derived, bp = pl.derived, v.b_values[v.pivot]
    psi_p = derived.psi[v.pivot]
    unsel = [k for k in range(1, pl.d.m + 1) if k not in pl.r.sel_cols]
    return {
        "phi_inv": {j: derived.phi_inv[j] * psi_p ** (-v.b_values[j] / bp)
                    for j in pl.r.sel_rows},
        "phi_inv_new": {pl.d.ell + 1: psi_p ** (1 / bp)},
        "psi": {k: derived.psi[k] * psi_p ** (-v.b_values[k] / bp)
                for k in unsel if k != v.pivot}}


def test_transformed_monomials():
    dM = deformation([[1, 0, 0], [0, 1, 0]])
    p = point(zero_blocks={3})
    pl = run_pipeline(dM, None, p)
    t = _transformed(pl, check_restriction(pl, [0, 0, 1]))
    assert t["phi_inv"][1] == mono("t1")
    assert t["phi_inv_new"][3] == mono("t3")


def test_dispatch():
    d = deformation([[1, 1, 0], [0, 1, 1]])
    p = point(zero_blocks={3})
    pl = run_pipeline(d, None, p)
    v = check_restriction(pl, [1, 1, 1])
    assert v.case is RestrictionCase.RANK_PLUS_ONE and v.holds
    # the sum of the two rows keeps the rank
    assert check_restriction(pl, [1, 2, 1]).case is RestrictionCase.SAME_RANK


def test_restriction_verdicts_match_membership():
    # a failing verdict's witness has no power in the extended stage
    d = deformation([[1, 1, 0], [0, 1, 1]])
    p = point(zero_blocks={3})
    v = check_restriction(run_pipeline(d, None, p), [1, 0, 0])
    assert not v.holds
    d_b = extended_matrix(d, [1, 0, 0])
    pl_b = run_pipeline(d_b, None, p)
    for w in v.witnesses:
        if w.pair.v.is_zero:
            assert radical_member(w.pair, pl_b.Fq).verdict is Verdict.NO


def test_h2_subfamily():
    rep = check_H2_subfamily([{1}, {2}, {3}], {1, 2})
    assert rep.holds and not rep.failing_pairs
    rep = check_H2_subfamily([{1, 2, 3}, {2, 3}, {3}], {1, 2})
    assert rep.holds
    assert rep.steps[0]["closed_form"] == {1: "t1", 2: "t2/t1", 3: "t3/t2"}
    rep = check_H2_subfamily([{1, 2}, {2, 3}], {1})
    assert not rep.holds and rep.failing_pairs == ((1, 2),)


def test_h2_step_rule_is_zero_or_one_for_every_log():
    # The rule: a removal step holds exactly when every phi log and every
    # psi log is 0 or 1.  Passing steps have psi logs of one, not only zero,
    # and a log of -1 fails its step.
    seen_psi_one = seen_failing_step = False
    for sets, subset in (([{1}, {2}, {3}], {1, 2}),
                         ([{1, 2, 3}, {2, 3}, {3}], {1, 2}),
                         ([{1, 2, 3}, {2, 3}, {3}], {1}),
                         ([{1, 2, 3}, {2, 3}, {3}], {3}),
                         ([{1, 2, 3}, {1}, {2}], {1})):
        rep = check_H2_subfamily(sets, subset)
        assert rep.steps
        for step in rep.steps:
            logs = list(step["phi_logs"].values()) + \
                list(step["psi_logs"].values())
            assert step["ok"] == all(v in (0, 1) for v in logs)
            seen_psi_one |= step["ok"] and 1 in step["psi_logs"].values()
            seen_failing_step |= not step["ok"]
        assert rep.holds == all(step["ok"] for step in rep.steps)
    assert seen_psi_one and seen_failing_step


def test_a_zero_row_is_rejected_as_the_identity():
    d = deformation([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="the added row is zero, so the new "
                       "action would be the identity"):
        extended_matrix(d, [0, 0])


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.data())
def test_same_rank_combination_matches_the_adjugate_route(sc, data):
    # beta is a combination of the rows with some negative coefficients,
    # kept when it is a valid row, or a row drawn outright
    rows, zeros = sc
    coeffs = data.draw(st.lists(st.sampled_from(
        [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
        min_size=len(rows), max_size=len(rows)))
    beta = [sum(c * row[k] for c, row in zip(coeffs, rows))
            for k in range(len(rows[0]))]
    if min(beta) < 0 or not any(beta):
        beta = data.draw(st.lists(st.sampled_from(HALVES), min_size=len(beta),
                                  max_size=len(beta)).filter(any))
    pl = pipeline_of(rows, zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        same_rank = len(pivots(extended_matrix(pl.d, beta).ints)) == pl.r.L
    if same_rank:
        v = check_restriction(pl, beta)
        assert v.case is RestrictionCase.SAME_RANK
        assert v.sufficient_nonneg_combination == \
            sufficient_nonneg_combination(pl, beta)
