"""Decide whether adding a submanifold row to the action matrix preserves
the multicone family, by evaluating the log conditions on the final stage."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .deformation import DeformationData, deformation
from .linear import cone_feasible, fr, pivots
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


def _same_rank(pipeline: PipelineResult, beta) -> RestrictionVerdict:
    """The rank-preserving case: zero-valued stage pairs must pair
    non-negatively with the new row."""
    d_A, r_A = pipeline.d, pipeline.r
    b_values = {j: log_at_exp_beta(pipeline.derived.phi_inv[j], beta)
                for j in r_A.sel_rows}
    witnesses = []
    for pr in sorted(pipeline.Fq, key=lambda x: x.sort_key()):
        if pr.v.is_zero:
            lv = log_at_exp_beta(pr.f, beta)
            if lv < 0:
                witnesses.append(Witness(pr, "zero-value log >= 0", lv))

    # Sufficient condition: the new row is a non-negative combination of the
    # selected rows (then nothing can fail).  The integer rows are d_A.den
    # times the matrix rows, a positive scale that keeps the answer.
    suff = cone_feasible([d_A.ints[j - 1] for j in r_A.sel_rows], beta)

    return RestrictionVerdict(
        RestrictionCase.SAME_RANK, holds=not witnesses, b_values=b_values,
        witnesses=tuple(witnesses), sufficient_nonneg_combination=suff)


def _rank_plus_one(pipeline: PipelineResult, beta) -> RestrictionVerdict:
    """The rank-increasing case: three conditions over the final stage, and
    the pivot, the first unselected column with a nonzero pairing."""
    d_A, r_A, p, derived = pipeline.d, pipeline.r, pipeline.p, pipeline.derived
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

    return RestrictionVerdict(
        RestrictionCase.RANK_PLUS_ONE, holds=not witnesses, b_values=b_values,
        witnesses=tuple(witnesses), pivot=pivot)


def check_restriction(pipeline: PipelineResult, beta) -> RestrictionVerdict:
    """The verdict for adding beta as a new row: the same-rank case when the
    extended matrix (`extended_matrix`, which rejects a zero or malformed
    row with ValueError) keeps the pipeline's rank, else the rank-plus-one
    case."""
    beta = [fr(x) for x in beta]
    if len(pivots(extended_matrix(pipeline.d, beta).ints)) == pipeline.r.L:
        return _same_rank(pipeline, beta)
    return _rank_plus_one(pipeline, beta)
