"""Decide whether adding a submanifold row to the action matrix preserves
the multicone family, by evaluating the log conditions on the final stage."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .deformation import (DeformationData, PointPattern, deformation,
                          build_from_index_family, rank_and_normalize,
                          derive_monomials)
from .linear import adjugate, fr, pivots
from .monomials import Monomial, Pair, TAU
from .semigroup import PipelineResult, norm_value


def log_at_exp_beta(f: Monomial, beta) -> Fraction:
    """Exponent pairing of the scale part of f with the candidate row;
    parameter exponents are dropped (they are set to one)."""
    beta = [fr(x) for x in beta]
    out = Fraction(0)
    for v, e in f.exps:
        if v.kind == TAU:
            out += e * beta[v.index - 1]
    return out


class RestrictionCase(Enum):
    SAME_RANK = "same-rank"
    RANK_PLUS_ONE = "rank-plus-one"


@dataclass(frozen=True)
class Witness:
    pair: Pair
    condition: str
    log_value: Fraction


@dataclass(frozen=True)
class RestrictionVerdict:
    case: RestrictionCase
    holds: bool
    b_values: dict[int, Fraction]
    witnesses: tuple[Witness, ...]
    sufficient_nonneg_combination: bool | None = None
    pivot: int | None = None
    transformed: dict[str, dict[int, Monomial]] = field(default_factory=dict)

    def json(self):
        return {
            "case": self.case.value,
            "holds": self.holds,
            "b": {j: str(v) for j, v in sorted(self.b_values.items())},
            "witnesses": [{"pair": str(w.pair), "condition": w.condition,
                           "log": str(w.log_value)} for w in self.witnesses],
            "pivot": self.pivot,
            "sufficient_nonneg_combination": self.sufficient_nonneg_combination,
        }


def extended_matrix(d: DeformationData, beta) -> DeformationData:
    """The action matrix with beta appended as a new last row."""
    beta = [fr(x) for x in beta]
    if not any(beta):
        raise ValueError("the added row is zero, so the new action would be "
                         "the identity")
    rows = [list(row) for row in d.A] + [beta]
    with warnings.catch_warnings():
        # adding an existing manifold again is a legitimate probe here
        warnings.simplefilter("ignore")
        return deformation(rows, block_dims=d.block_dims,
                           complement_block=d.complement_block)


def check_same_rank(pipeline: PipelineResult, beta) -> RestrictionVerdict:
    """The rank-preserving case: zero-valued stage pairs must pair
    non-negatively with the new row."""
    d_A, r_A = pipeline.d, pipeline.r
    beta = [fr(x) for x in beta]
    if len(pivots(extended_matrix(d_A, beta).A)) != r_A.L:
        raise ValueError("the added row increases the rank; use the "
                         "rank-plus-one check instead")
    b_values = {j: log_at_exp_beta(pipeline.derived.phi_inv[j], beta)
                for j in r_A.sel_rows}
    witnesses = []
    for pr in sorted(pipeline.Fq, key=lambda x: x.sort_key()):
        if pr.v.is_zero:
            lv = log_at_exp_beta(pr.f, beta)
            if lv < 0:
                witnesses.append(Witness(pr, "zero-value log >= 0", lv))

    # Sufficient condition: the new row is a non-negative combination of the
    # selected rows (then nothing can fail).  The minor is invertible: the
    # pipeline solved it.
    adj, det = adjugate([[d_A.entry(j, k) for j in r_A.sel_rows]
                         for k in r_A.sel_cols])
    coeffs = [sum(x * beta[k - 1] for x, k in zip(row, r_A.sel_cols)) / det
              for row in adj]
    reconstructed = [sum(c * d_A.entry(j, k)
                         for c, j in zip(coeffs, r_A.sel_rows))
                     for k in range(1, d_A.m + 1)]
    suff = reconstructed == beta and all(c >= 0 for c in coeffs)

    return RestrictionVerdict(
        RestrictionCase.SAME_RANK, holds=not witnesses, b_values=b_values,
        witnesses=tuple(witnesses), sufficient_nonneg_combination=suff)


def check_rank_plus_one(pipeline: PipelineResult, beta) -> RestrictionVerdict:
    """The rank-increasing case: three conditions over the final stage plus
    the pivot bookkeeping for the transformed monomials."""
    d_A, r_A, p, derived = pipeline.d, pipeline.r, pipeline.p, pipeline.derived
    beta = [fr(x) for x in beta]
    if len(pivots(extended_matrix(d_A, beta).A)) != r_A.L + 1:
        raise ValueError("the added row does not increase the rank; use the "
                         "same-rank check instead")
    b_values: dict[int, Fraction] = {}
    for j in r_A.sel_rows:
        b_values[j] = log_at_exp_beta(derived.phi_inv[j], beta)
    unsel_cols = [k for k in range(1, d_A.m + 1) if k not in r_A.sel_cols]
    for k in unsel_cols:
        b_values[k] = log_at_exp_beta(derived.psi[k], beta)

    pivot = next((k for k in unsel_cols if b_values[k] != 0), None)
    if pivot is None:
        raise RuntimeError(
            "all quotient pairings vanish, which would keep the rank fixed; "
            "inconsistent with the rank increase")

    witnesses = []
    for pr in sorted(pipeline.Fq, key=lambda x: x.sort_key()):
        lv = log_at_exp_beta(pr.f, beta)
        if pr.v.is_zero:
            if lv < 0:
                witnesses.append(Witness(pr, "zero-value log >= 0", lv))
        elif lv != 0:
            witnesses.append(Witness(pr, "nonzero-value log == 0", lv))
    for k in unsel_cols:
        if k == pivot or k in p.zero_blocks:
            continue
        if b_values[k] != 0:
            v_k = norm_value(derived.psi[k], k, d_A, r_A, p)
            witnesses.append(Witness(Pair(derived.psi[k], v_k),
                                     "non-pivot quotient pairing == 0",
                                     b_values[k]))

    bp = b_values[pivot]
    psi_p = derived.psi[pivot]
    transformed = {
        "phi_inv": {j: derived.phi_inv[j] * (psi_p ** (-b_values[j] / bp))
                    for j in r_A.sel_rows},
        "phi_inv_new": {d_A.ell + 1: psi_p ** (Fraction(1) / bp)},
        "psi": {k: derived.psi[k] * (psi_p ** (-b_values[k] / bp))
                for k in unsel_cols if k != pivot},
    }
    return RestrictionVerdict(
        RestrictionCase.RANK_PLUS_ONE, holds=not witnesses, b_values=b_values,
        witnesses=tuple(witnesses), pivot=pivot, transformed=transformed)


def check_restriction(pipeline: PipelineResult, beta) -> RestrictionVerdict:
    """Dispatch on the rank of the extended matrix."""
    if len(pivots(extended_matrix(pipeline.d, beta).A)) == pipeline.r.L:
        return check_same_rank(pipeline, beta)
    return check_rank_plus_one(pipeline, beta)


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
        beta = list(d_full.row(row_pos))
        rows_A = [list(d_full.row(i)) for i in range(1, d_full.ell + 1)
                  if i != row_pos]
        d_A = deformation(rows_A, block_dims=d_full.block_dims)
        # The restriction locus kills the directions only the removed
        # manifold acted on (the zero columns of the reduced matrix).
        dead = frozenset(k for k in range(1, d_A.m + 1)
                         if all(x == 0 for x in d_A.column(k)))
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
