"""Generator sets, the elimination pipeline, and the exact decision
procedure: whether some power of a pair is a member of a generated
semigroup (hence equivalence), by exact rational-cone LPs.  The pipeline,
radical membership and equivalence run on integer rows (`Row`), with one
elimination step (`balance`) and integer LPs (`_radical`)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import gcd, lcm

from .deformation import (DeformationData, PointPattern, RankData, DerivedMonomials,
                          derive_monomials, rank_and_normalize, check_point)
# perfbench/worker.py traces `semigroup.cone_feasible`; nothing here calls it
from .linear import cone_feasible, nonneg_solution  # noqa: F401
from .monomials import (KINDS, Monomial, Pair, Value, Var, ZERO, TAU, LAM, XI,
                        tau, lam, fraction_closure, vector_key)


# An exponent vector (numerators, denominator) over a fixed list of
# variable keys: the monomial whose exponent of variables[i] is
# numerators[i] / denominator (`vector_key`).  The denominator is positive
# and its gcd with all the numerators is 1, so equal monomials have equal
# vectors.
Vector = tuple[tuple[int, ...], int]
# A row: a pair (f, v) as one vector over the columns of `layout`, and
# whether v is zero (its columns are then zero); equal pairs have equal rows.
Row = tuple[tuple[int, ...], int, bool]
# A row column: the key (`Var.key`) of the variable it holds.
Column = tuple[int, int]
_TAU, _XI, _LAM = KINDS.index(TAU), KINDS.index(XI), KINDS.index(LAM)


def reduced(nums, den: int) -> Vector:
    g = gcd(*nums, den)
    if g == 1:
        return tuple(nums), den
    return tuple([n // g for n in nums]), den // g


def layout(pairs) -> tuple[tuple[Column, ...], int, dict[Column, int]]:
    """Row columns for the pairs: the variable keys of their monomials in
    order (taus, then lams), then those of their values' norm symbols; the
    number of monomial columns; and each column's position."""
    f, x = set(), set()
    for p in pairs:
        k = p.f.key
        f.update(zip(k[::4], k[1::4]))
        if not p.v.is_zero:
            k = p.v.mono.key
            x.update(zip(k[::4], k[1::4]))
    columns = (*sorted(f), *sorted(x))
    return columns, len(f), {v: i for i, v in enumerate(columns)}


def row_of(f: Monomial, v: Value, index: dict[Column, int]) -> Row:
    """The row of the pair (f, v), read off their keys; index maps their
    variable keys to columns."""
    k = f.key if v.is_zero else f.key + v.mono.key
    den = lcm(*k[3::4])
    nums = [0] * len(index)
    for i in range(0, len(k), 4):
        nums[index[k[i], k[i + 1]]] = k[i + 2] * (den // k[i + 3])
    return tuple(nums), den, v.is_zero


def pair_of(row: Row, columns, width: int) -> Pair:
    """The pair of a row over the columns, the first width the monomial's,
    with the keys of its monomials (`vector_key`)."""
    nums, den, zero = row
    return Pair(Monomial(vector_key((nums[:width], den), columns)),
                ZERO if zero else Value(Monomial(
                    vector_key((nums[width:], den), columns[width:]))))


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
    return y * pd // den, x * qd // den, (*reduced(nums, den), pz or qz)


def _valued_zero(row: Row, width: int) -> Row:
    """The row with its value forced to zero."""
    nums, den, _ = row
    return *reduced(nums[:width] + (0,) * (len(nums) - width), den), True


def eliminate_rows(rows, i: int, width: int, zero_positive: bool) -> set[Row]:
    """One elimination step in column i: the rows free of it and the
    balanced product of each positive row with each negative one; with
    zero_positive (a block scale), the positive rows too, with value zero."""
    out = {row for row in rows if not row[0][i]}
    pos = [row for row in rows if row[0][i] > 0]
    neg = [row for row in rows if row[0][i] < 0]
    if zero_positive:
        out.update(_valued_zero(row, width) for row in pos)
    out.update(balance(p, q, i, width)[2] for p in pos for q in neg)
    return out


def _row_key(row: Row, columns, width: int) -> tuple:
    """The row's `Pair.sort_key` over the columns."""
    nums, den, zero = row
    return (vector_key((nums[:width], den), columns[:width]),
            (0,) if zero else (1, *vector_key((nums[width:], den),
                                              columns[width:])))


def _eliminations(F, variables):
    """The stages of F after an elimination step (see `eliminate`) in each
    variable in turn.  The steps run on rows; each distinct row becomes one
    Pair, shared by every stage that holds it, and F keeps its own."""
    columns, width, index = layout(F)
    pairs = {row_of(p.f, p.v, index): p for p in F}
    rows, stage = set(pairs), frozenset(F)
    for v in variables:
        if v.key() in index:
            rows = eliminate_rows(rows, index[v.key()], width, v.kind == TAU)
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
    key = psi_k.key  # of scales only, so the norm symbols keep its order
    out = []
    for i in range(0, len(key), 4):
        b = key[i + 1]
        if b in sel and (b in p.zero_blocks or p.normalized):
            continue  # substituted by 1, or a unit norm after normalization
        out += (_XI, b, key[i + 2], key[i + 3])
    return Value(Monomial(tuple(out)))


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
    if any(pr.f.has_kind(LAM) for pr in stages[len(order)]):
        raise AssertionError("lambda variables survived the elimination")

    for pr in stages[-1]:
        f = pr.f.key  # the sign of each zero block's numerator
        for e in (f[i + 2] for i in range(0, len(f), 4)
                  if f[i] == _TAU and f[i + 1] in p.zero_blocks):
            if e < 0:
                raise AssertionError("negative zero-pattern exponent in F^q")
            if not pr.v.is_zero:
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


@dataclass(frozen=True)
class MembershipResult:
    verdict: Verdict
    witness: tuple[tuple[Pair, int], ...] | None = None
    power: int | None = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.YES


def _radical(rows, key, live, width: int):
    """Radical membership in the rows H (`radical_member`) on the live
    columns, as a function of a probe row and the slack columns: None, or
    the witness (H in sort_key order, key giving each row's `_row_key`,
    with coefficients) and the power.  H is sorted and scaled to integers
    once, by the lcm S of its denominators; positive scalings keep Bland's
    path, so with the probe's numerators over pd as targets a solution y
    maps back to x = S*y/pd."""
    ordered = sorted(rows, key=key)
    S = lcm(*(den for _, den, _ in ordered))
    w = sum(i < width for i in live)
    # monomial and value columns, and a last row counting zero values
    cols = [[nums[i] * (S // den) for i in live] + [S * zero]
            for nums, den, zero in ordered]
    mono = [c[:w] for c in cols]

    def solve(t, pd: int, pz: bool, slacked: bool):
        """x >= 0 combining H into the probe with target t, or None."""
        if not pz:
            return nonneg_solution(cols, t)
        x = nonneg_solution(mono, t[:w])
        if not x or slacked or any(a and c[-1] for a, c in zip(x[0], cols)):
            return x
        # homogenised: A y = s*probe, zero-valued part of y summing to one;
        # s = 0 leaves a recession direction to add to x
        y = nonneg_solution([c[:w] + c[-1:] for c in cols]
                            + [[-e for e in t[:w]] + [0]], [0] * w + [1])
        if y is None:
            return None
        if y[0][-1]:
            return y[0][:-1], y[0][-1]
        (xn, xd), (yn, yd) = x, y
        return [a * yd + b * xd * pd for a, b in zip(xn, yn)], xd * yd

    def member(probe: Row, slack):
        pn, pd, pz = probe
        t = [pn[i] for i in live] + [0]
        slacked = pz and any(pn[i] > 0 for i in slack)
        if probe in rows:  # the unit witness
            witness, power = tuple([int(row == probe) for row in ordered]), 1
        elif (x := solve(t, pd, pz, slacked)) is None:
            return None
        else:
            witness, power = reduced([S * a for a in x[0]], pd * x[1])
        got = [0] * len(t)  # pd times the sum of the pairs used
        for a, c in zip(witness, cols):
            if a:
                a *= pd
                got = [g + a * e for g, e in zip(got, c)]
        want = [power * S * e for e in t]
        if not (got[:w] == want[:w] and (slacked or got[-1]) if pz
                else got == want):
            raise AssertionError(f"radical witness fails at power {power}")
        return list(zip(ordered, witness)), power

    return member


def radical_member(probe: Pair, H, zero_slack=()) -> MembershipResult:
    """A power N with probe^N in the bracket of H, values included, decided
    by exact LPs on the rows of H and the probe (`_radical`): x >= 0
    combining H into probe, times the lcm N of its denominators, combines
    H into probe^N.  A nonzero value stacks norm-symbol exponents under the
    scale exponents and excludes zero-valued pairs; a zero value needs some
    zero-valued pair.  zero_slack lists zero-pattern blocks: a zero-valued
    probe positive in one of them matches whatever the combination's value
    (the value-zeroing branch of the generated semigroup).  A probe in H
    gets power 1 and the unit witness with no LP; a zero-valued probe whose
    first solution uses a zero-valued pair keeps it (zero absorbs), with no
    second LP.  The witness, H in sort_key order, is checked before Yes."""
    columns, width, index = layout([*H, probe])
    pairs = {row_of(p.f, p.v, index): p for p in H}
    found = _radical(pairs, lambda row: _row_key(row, columns, width),
                     range(len(columns)), width)(
        row_of(probe.f, probe.v, index),
        [index[tau(k).key()] for k in zero_slack if tau(k).key() in index])
    if found is None:
        return MembershipResult(Verdict.NO)
    return MembershipResult(Verdict.YES, tuple(
        (pairs[row], a) for row, a in found[0]), found[1])


def _free_rows(F, width: int, index: dict[Column, int]) -> set[Row]:
    """The rows of F fraction-closed (each nonzero-valued row negated as
    well), then freed of every action parameter in increasing index order."""
    rows = {row_of(p.f, p.v, index) for p in F}
    rows |= {(tuple(-n for n in nums), den, False)
             for nums, den, zero in rows if not zero}
    for v, i in index.items():
        if v[0] == _LAM:
            rows = eliminate_rows(rows, i, width, False)
    return rows


def eliminate_lambda(F) -> frozenset[Pair]:
    """Fraction-close, then eliminate every action parameter present,
    in increasing index order (`_free_rows`)."""
    columns, width, index = layout(F)
    return frozenset(pair_of(row, columns, width)
                     for row in _free_rows(F, width, index))


def _answers(A, B, zero_slack):
    """(probe row, `_radical` answer) for each probe of A in B, then of B
    in A, on one layout of both, each side fraction-closed and freed of
    parameters (`_free_rows`).  A side's probes, in sort_key order, are its rows in the
    generated semigroup: none negative on a zero-pattern block, and value
    zero where positive on one."""
    columns, width, index = layout([*A, *B])
    slack = [index[tau(k).key()] for k in zero_slack if tau(k).key() in index]
    sides = [_free_rows(F, width, index) for F in (A, B)]
    live = [i for i, v in enumerate(columns) if v[0] != _LAM]
    # each row's key once, for the sorts of H and of the probes
    key = cache(lambda row: _row_key(row, columns, width))
    for probes, H in (sides, sides[::-1]):
        member = _radical(H, key, live, width)
        if slack:
            probes = {row if row[2] or not any(row[0][i] > 0 for i in slack)
                      else _valued_zero(row, width) for row in probes
                      if not any(row[0][i] < 0 for i in slack)}
        for probe in sorted(probes, key=key):
            yield probe, member(probe, slack)


def equivalent(A, B, zero_slack=()) -> Verdict:
    """Mutual radical membership of the parameter-free parts of two
    generating sets, on integer rows (`_answers`); parameters are
    eliminated first, so the comparison is between the induced scale-only
    semigroups.  zero_slack carries the shared zero pattern restricted to
    the chosen minor columns."""
    return Verdict.YES if all(found for _, found in _answers(
        A, B, zero_slack)) else Verdict.NO
