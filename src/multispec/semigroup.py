"""Generator sets, the elimination pipeline, and exact decision procedures:
integer semigroup membership by a pruned search, and whether some power of
a pair is a member (hence equivalence) by exact rational-cone LPs."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, prod

from .deformation import (DeformationData, PointPattern, RankData, DerivedMonomials,
                          derive_monomials, rank_and_normalize, check_point)
from .linear import cone_feasible, nonneg_solution
from .monomials import (Monomial, Pair, Value, Var, ONE, ZERO, UNIT_VALUE,
                        TAU, LAM, XI, tau, lam, xi, fraction_closure)


# A row: a pair (f, v) as integer exponent numerators over one positive
# denominator, gcd-reduced with it, over the columns of `layout`, and whether
# v is zero (its columns are then zero); equal pairs have equal rows.
Row = tuple[tuple[int, ...], int, bool]


def layout(pairs) -> tuple[tuple[Var, ...], int, dict[Var, int]]:
    """Row columns for the pairs: their monomials' variables in Var key
    order (taus, then lams), then their values' norm symbols; the number of
    monomial columns; and each column's position."""
    f = sorted({v for p in pairs for v, _ in p.f.exps})
    x = sorted({v for p in pairs if not p.v.is_zero for v, _ in p.v.mono.exps})
    return tuple(f + x), len(f), {v: i for i, v in enumerate(f + x)}


def row_of(f: Monomial, v: Value, index: dict[Var, int]) -> Row:
    """The row of the pair (f, v); index maps their variables to columns."""
    exps = f.exps + (() if v.is_zero else v.mono.exps)
    den = lcm(*(e.denominator for _, e in exps))
    nums = [0] * len(index)
    for x, e in exps:
        nums[index[x]] = e.numerator * (den // e.denominator)
    return tuple(nums), den, v.is_zero


def pair_of(row: Row, columns, width: int) -> Pair:
    """The pair of a row over the columns, the first width the monomial's."""
    nums, den, zero = row

    def mono(cols: slice) -> Monomial:
        return Monomial(tuple((v, Fraction(n, den))
                              for v, n in zip(columns[cols], nums[cols]) if n))

    return Pair(mono(slice(width)),
                ZERO if zero else Value(mono(slice(width, None))))


def balance(p: Row, q: Row, i: int, width: int) -> tuple[int, int, Row]:
    """The one Fourier-Motzkin step of elimination, closure and projection:
    for rows p positive and q negative in column i, coprime naturals a, b
    and the row of p^a * q^b, which is free of column i.  The first width
    columns are the monomial's."""
    (pn, pd, pz), (qn, qd, qz) = p, q
    x, y = pn[i], -qn[i]
    den = gcd(y * pd, x * qd)
    nums = [y * s + x * t for s, t in zip(pn, qn)]
    if pz or qz:
        nums[width:] = [0] * (len(nums) - width)
    g = gcd(den, *nums)
    return y * pd // den, x * qd // den, (tuple(n // g for n in nums),
                                          den // g, pz or qz)


def eliminate_rows(rows, i: int, width: int, zero_positive: bool) -> set[Row]:
    """One elimination step in column i: the rows free of it and the
    balanced product of each positive row with each negative one; with
    zero_positive (a block scale), the positive rows too, with value zero."""
    out = {row for row in rows if not row[0][i]}
    pos = [row for row in rows if row[0][i] > 0]
    neg = [row for row in rows if row[0][i] < 0]
    if zero_positive:
        for nums, den, _ in pos:
            nums = nums[:width] + (0,) * (len(nums) - width)
            g = gcd(den, *nums)
            out.add((tuple(n // g for n in nums), den // g, True))
    out.update(balance(p, q, i, width)[2] for p in pos for q in neg)
    return out


def _eliminations(F, variables):
    """The stages of F after an elimination step (see `eliminate`) in each
    variable in turn.  The steps run on rows; each distinct row becomes one
    Pair, shared by every stage that holds it, and F keeps its own."""
    columns, width, index = layout(F)
    pairs = {row_of(p.f, p.v, index): p for p in F}
    rows, stage = set(pairs), frozenset(F)
    for v in variables:
        if v in index:
            rows = eliminate_rows(rows, index[v], width, v.kind == TAU)
            stage = frozenset(pairs.get(row) or pairs.setdefault(
                row, pair_of(row, columns, width)) for row in rows)
        yield stage


def eliminate(F, v: Var) -> frozenset[Pair]:
    """One elimination step in the variable v: keep the pairs free of v and
    balance opposite signs.  A block scale (kind TAU) also keeps its
    positive pairs with value zero; an action parameter is eliminated
    completely."""
    return next(_eliminations(F, [v]))


def norm_value(psi_k: Monomial, k: int, d: DeformationData, r: RankData,
               p: PointPattern) -> Value:
    """The value tag of a psi generator: its monomial with each scale
    replaced by the corresponding norm symbol, unit for normalized selected
    blocks and for zero-pattern selected blocks, zero if the block itself
    vanishes."""
    if k in p.zero_blocks:
        return ZERO
    sel = set(r.sel_cols)
    exps = {}
    for v, e in psi_k.exps:
        i = v.index
        if i in p.zero_blocks and i in sel:
            continue  # substituted by 1
        if p.normalized and i in sel and i not in p.zero_blocks:
            continue  # unit norm after normalization
        exps[xi(i)] = e
    return Value(Monomial.from_dict(exps))


def build_G(d: DeformationData, r: RankData, p: PointPattern,
            derived: DerivedMonomials) -> frozenset[Pair]:
    """The fraction-closed initial generator set: solved inverses with value
    zero, the psi quotients tagged with their norm values, and the leftover
    action parameters."""
    check_point(d, p)
    pairs = [Pair(derived.phi_inv[j], ZERO) for j in r.sel_rows]
    for k, psi_k in derived.psi.items():
        pairs.append(Pair(psi_k, norm_value(psi_k, k, d, r, p)))
    for j in range(1, d.ell + 1):
        if j not in r.sel_rows:
            pairs.append(Pair(Monomial.from_dict({lam(j): 1}), ZERO))
    return fraction_closure(pairs)


def build_G_hat(d: DeformationData, r: RankData,
                p: PointPattern) -> frozenset[Pair]:
    """The graph variant: t_k over the full action monomial, tagged with the
    block norm symbol (zero on the zero pattern), plus every parameter."""
    check_point(d, p)
    phi = derive_monomials(d, r).phi
    pairs = []
    for k in range(1, d.m + 1):
        f = Monomial.from_dict({tau(k): 1}) * phi[k].inv()
        v = ZERO if k in p.zero_blocks else Value(Monomial.from_dict({xi(k): 1}))
        pairs.append(Pair(f, v))
    for j in range(1, d.ell + 1):
        pairs.append(Pair(Monomial.from_dict({lam(j): 1}), ZERO))
    return fraction_closure(pairs)


@dataclass(frozen=True)
class PipelineResult:
    d: DeformationData
    r: RankData
    p: PointPattern
    derived: DerivedMonomials
    G: frozenset[Pair]
    F0_stages: tuple[tuple[int, frozenset[Pair]], ...]  # (eliminated j, stage)
    F_stages: tuple[tuple[int, frozenset[Pair]], ...]   # (eliminated k, stage)
    Fq: frozenset[Pair]
    zero_cols_L: tuple[int, ...]
    elim_order: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.zero_cols_L)

    @property
    def F0(self) -> frozenset[Pair]:
        return self.F0_stages[-1][1] if self.F0_stages else self.G


def _stages(G, d: DeformationData, r: RankData, p: PointPattern,
            order: tuple[int, ...], zero_cols: tuple[int, ...]):
    """The elimination stages from G, each unselected parameter in the
    given order and then each zero-pattern column of the minor, and the
    final stage."""
    unselected = tuple(j for j in range(1, d.ell + 1) if j not in r.sel_rows)
    if tuple(sorted(order)) != unselected:
        raise ValueError("elimination order must list the unselected rows")
    stages = [G, *_eliminations(G, [lam(j) for j in order]
                                + [tau(k) for k in zero_cols])]
    if any(v.kind == LAM for pr in stages[len(order)] for v, _ in pr.f.exps):
        raise AssertionError("lambda variables survived the elimination")

    for pr in stages[-1]:
        for k in p.zero_blocks:
            e = pr.f.exponent(tau(k))
            if e < 0:
                raise AssertionError("negative zero-pattern exponent in F^q")
            if e > 0 and not pr.v.is_zero:
                raise AssertionError("nonzero value with positive zero-pattern "
                                     "exponent in F^q")
    return (tuple(zip(order, stages[1:])),
            tuple(zip(zero_cols, stages[len(order) + 1:])), stages[-1])


def run_pipeline(d: DeformationData, r: RankData | None = None,
                 p: PointPattern | None = None) -> PipelineResult:
    """The pipeline eliminating the unselected parameters in increasing
    order."""
    p = p if p is not None else PointPattern(frozenset())
    r = r or rank_and_normalize(d, p)
    derived = derive_monomials(d, r)
    G = build_G(d, r, p, derived)
    elim_order = tuple(j for j in range(1, d.ell + 1) if j not in r.sel_rows)
    zero_cols = tuple(sorted(k for k in r.sel_cols if k in p.zero_blocks))
    f0_stages, f_stages, fq = _stages(G, d, r, p, elim_order, zero_cols)

    # Shortcut cross-check: an action of full row rank (non-degenerate or
    # normal, L = ell) has no parameters left to eliminate, and an empty
    # zero pattern on the minor leaves G as is.
    if r.L == d.ell and not zero_cols:
        if fq != G:
            raise AssertionError("shortcut failed: F^q should equal G for a "
                                 "non-degenerate action with no zero-pattern "
                                 "columns in the minor")

    return PipelineResult(d, r, p, derived, G, f0_stages, f_stages, fq,
                          zero_cols, elim_order)


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MembershipResult:
    verdict: Verdict
    witness: tuple[tuple[Pair, int], ...] | None = None
    power: int | None = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.YES


def _exponent_vectors(monos, extra: Monomial):
    all_vars = sorted({v for f in monos for v, _ in f.exps}
                      | {v for v, _ in extra.exps}, key=lambda v: v.key())
    cols = [[f.exponent(v) for v in all_vars] for f in monos]
    target = [extra.exponent(v) for v in all_vars]
    return cols, target


def _dfs(cols, target, budget, check_leaf, idx=0, partial=None):
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


SEARCH_BOUND = 200


def mono_membership(f: Monomial, H) -> MembershipResult:
    """Is f a non-negative-integer combination of the monomials of H?

    Depth-first search over exponent vectors with exact rational-cone
    pruning; the first witness found is the lexicographically smallest.
    Unknown when no witness uses at most SEARCH_BOUND generators, counted
    with multiplicity.
    """
    ordered = sorted(H, key=lambda p: p.sort_key())
    cols, target = _exponent_vectors([p.f for p in ordered], f)
    if not cone_feasible(cols, target):
        return MembershipResult(Verdict.NO)

    def leaf(alpha):
        return tuple((p, a) for p, a in zip(ordered, alpha))

    found = _dfs(cols, target, SEARCH_BOUND, leaf)
    if found is not None:
        return MembershipResult(Verdict.YES, witness=found)
    return MembershipResult(Verdict.UNKNOWN)


def radical_member(probe: Pair, H, zero_slack=()) -> MembershipResult:
    """A power N with probe^N in the bracket of H, values included, decided
    by exact LPs: a rational x >= 0 combining H into probe, times the lcm N
    of its denominators, combines H into probe^N.  A nonzero value stacks
    norm-symbol exponents under the scale exponents and excludes zero-valued
    pairs; a zero value needs some zero-valued pair.  zero_slack lists
    zero-pattern blocks: a zero-valued probe positive in one of them matches
    whatever the combination's value (the value-zeroing branch of the
    generated semigroup).

    LPs whose answer is known are skipped.  A probe that is a pair of H
    gets power 1 and the unit witness (1 on the probe, 0 elsewhere) with
    no LP.  A zero-valued probe whose first solution already uses a
    zero-valued pair keeps that solution, times N, as its witness: zero
    absorbs in products, so the homogenised second LP is not posed.  The
    witness is checked exactly before Yes."""
    ordered = sorted(H, key=lambda p: p.sort_key())
    slacked = probe.v.is_zero and any(probe.f.exponent(tau(k)) > 0
                                      for k in zero_slack)
    if probe in H:
        x = [Fraction(p == probe) for p in ordered]
    elif not probe.v.is_zero:
        cols, target = _exponent_vectors([p.f for p in ordered], probe.f)
        # the last row sums the use of zero-valued pairs and must be zero
        vcols, vtarget = _exponent_vectors(
            [p.v.mono or ONE for p in ordered], probe.v.mono)
        x = nonneg_solution([c + vc + [Fraction(p.v.is_zero)] for c, vc, p
                             in zip(cols, vcols, ordered)],
                            target + vtarget + [Fraction(0)])
    else:
        cols, target = _exponent_vectors([p.f for p in ordered], probe.f)
        x = nonneg_solution(cols, target)
        if x is not None and not slacked and not any(
                a and p.v.is_zero for a, p in zip(x, ordered)):
            # homogenised: A y = s*probe, zero-valued part of y summing to
            # one; s = 0 leaves a recession direction to add to x
            y = nonneg_solution(
                [c + [Fraction(p.v.is_zero)] for c, p in zip(cols, ordered)]
                + [[-t for t in target] + [Fraction(0)]],
                [Fraction(0)] * len(target) + [Fraction(1)])
            if y is None:
                x = None
            elif y[-1]:
                x = [a / y[-1] for a in y[:-1]]
            else:
                x = [a + b for a, b in zip(x, y[:-1])]
    if x is None:
        return MembershipResult(Verdict.NO)
    power = lcm(*(a.denominator for a in x))
    witness = tuple((p, int(a * power)) for p, a in zip(ordered, x))
    # pairs used zero times contribute the identity
    got = prod((p ** a for p, a in witness if a),
               start=Pair(ONE, UNIT_VALUE))
    want = probe ** power
    if got.f != want.f or not (slacked or got.v == want.v):
        raise AssertionError(f"radical witness does not reproduce {probe}^{power}")
    return MembershipResult(Verdict.YES, witness=witness, power=power)


def eliminate_lambda(F) -> frozenset[Pair]:
    """Fraction-close, then eliminate every action parameter present,
    in increasing index order."""
    out = fraction_closure(F)
    lams = sorted({v for pr in out for v, _ in pr.f.exps if v.kind == LAM})
    return [out, *_eliminations(out, lams)][-1]


def _semigroup_probes(free, zero_slack) -> list[Pair]:
    """Parameter-free pairs as elements of the generated semigroup: drop
    the ones that are undefined on the zero pattern and force the value of
    the ones the zero pattern annihilates."""
    probes = []
    for p in free:
        if any(p.f.exponent(tau(k)) < 0 for k in zero_slack):
            continue
        if not p.v.is_zero and any(p.f.exponent(tau(k)) > 0 for k in zero_slack):
            p = Pair(p.f, ZERO)
        probes.append(p)
    return sorted(set(probes), key=lambda p: p.sort_key())


def equivalent(A, B, zero_slack=()) -> Verdict:
    """Mutual radical membership of the parameter-free parts of two
    generating sets; parameters are eliminated first, so the comparison is
    between the induced scale-only semigroups.  zero_slack carries the
    shared zero pattern restricted to the chosen minor columns."""
    slack = tuple(zero_slack)
    a_free = eliminate_lambda(A)
    b_free = eliminate_lambda(B)
    for probes, H in ((a_free, b_free), (b_free, a_free)):
        for probe in _semigroup_probes(probes, slack):
            if not radical_member(probe, H, zero_slack=slack):
                return Verdict.NO
    return Verdict.YES


class NotRepresentable(ValueError):
    pass


def value_of(f: Monomial, pipeline: PipelineResult) -> Value:
    """The unique value making (f, v) an element of the generated semigroup.

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
        v = v * (n_k ** e)
    return v
