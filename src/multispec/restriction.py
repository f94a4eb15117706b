"""Decide whether adding a submanifold row to the action matrix preserves
the multicone family, by evaluating the log conditions on the final stage."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .deformation import DeformationData, deformation
from .linear import cone_feasible, fr
from .monomials import Monomial, Pair, TAU, sorted_pairs
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
    """b_values pairs the solved inverse of each selected row j with the
    candidate row, quotient_values the quotient of each unselected
    column k."""

    case: RestrictionCase
    holds: bool
    b_values: dict[int, Fraction]
    quotient_values: dict[int, Fraction]
    witnesses: tuple[Witness, ...]
    sufficient_nonneg_combination: bool | None = None
    pivot: int | None = None

    def json(self):
        return {
            "case": self.case.value,
            "holds": self.holds,
            "b": {j: str(v) for j, v in sorted(self.b_values.items())},
            "b_quotient": {k: str(v) for k, v in
                           sorted(self.quotient_values.items())},
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


def check_restriction(pipeline: PipelineResult, beta) -> RestrictionVerdict:
    """The verdict for adding beta as a new row (`extended_matrix` rejects
    a zero or malformed row with ValueError).

    The quotients span the annihilator of the matrix's rows, so beta keeps
    the rank exactly when every quotient pairs with it to zero; otherwise
    the pivot is the first unselected column with a nonzero pairing.  A
    zero-valued stage pair must pair non-negatively with beta in both
    cases; in the rank-plus-one case a nonzero-valued pair, and the
    quotient of every non-pivot column off the zero pattern, must pair to
    zero."""
    beta = [fr(x) for x in beta]
    extended_matrix(pipeline.d, beta)  # the row's checks only
    d, r, p, derived = pipeline.d, pipeline.r, pipeline.p, pipeline.derived
    b_values = {j: log_at_exp_beta(derived.phi_inv[j], beta)
                for j in r.sel_rows}
    quotient_values = {k: log_at_exp_beta(psi, beta)
                       for k, psi in derived.psi.items()}
    pivot = next((k for k, b in quotient_values.items() if b), None)

    witnesses = []
    for pr in sorted_pairs(pipeline.Fq):
        lv = log_at_exp_beta(pr.f, beta)
        if pr.v.is_zero and lv < 0:
            witnesses.append(Witness(pr, "zero-value log >= 0", lv))
        elif not pr.v.is_zero and lv and pivot is not None:
            witnesses.append(Witness(pr, "nonzero-value log == 0", lv))
    for k, b in quotient_values.items():
        if b and k != pivot and k not in p.zero_blocks:
            psi = derived.psi[k]
            witnesses.append(Witness(Pair(psi, norm_value(psi, k, d, r, p)),
                                     "non-pivot quotient pairing == 0", b))

    if pivot is not None:
        return RestrictionVerdict(
            RestrictionCase.RANK_PLUS_ONE, not witnesses, b_values,
            quotient_values, tuple(witnesses), pivot=pivot)
    # Sufficient condition: the new row is a non-negative combination of the
    # selected rows (then nothing can fail).  The integer rows are d.den
    # times the matrix rows, a positive scale that keeps the answer.
    suff = cone_feasible([d.ints[j - 1] for j in r.sel_rows], beta)
    return RestrictionVerdict(
        RestrictionCase.SAME_RANK, not witnesses, b_values, quotient_values,
        tuple(witnesses), sufficient_nonneg_combination=suff)
