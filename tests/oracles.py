"""Oracles: the Fraction bodies that the integer elimination kernel
(`semigroup.balance` and its callers), the integer `derive_monomials`, the
fraction-free `pivots` and `adjugate`, the pivot minor, sigma_A, the
fixed-point test and the classification on the integer action matrix, the
integer simplex, the row-level radical membership and equivalence, the
integer monomial key (`Monomial`) and the integer bound exponents of
`project` replaced, and the float-product candidates and contraction
moves that the log-domain samplers replaced, kept to check them against;
and the routes that `app_template` (an index-set lookup per subset), the
same-rank restriction test (an adjugate solve) and `canonical_family`
(derivatives) no longer take, with the Pair and Value arithmetic that only
tests use."""

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from typing import Mapping

import numpy as np

from multispec.asymptotics import (index_set, structure_of,
                                   subsets_of_actions)
from multispec.deformation import ActionClass, DerivedMonomials, RankData
from multispec.linear import adjugate, fr
from multispec.monomials import (LAM, ONE, TAU, UNIT_VALUE, ZERO, Monomial,
                                 Pair, Value, Var, fraction_closure, lam,
                                 read_expr, tau)
from multispec.polynomials import (BlockPolynomial, factorial_multi,
                                   poly_monomial)
from multispec.multicone import (BoundFactors, ClosureEntry,
                                 ContractionReport, Inequality,
                                 MulticoneSystem)
from multispec.semigroup import MembershipResult, Verdict


def value_times(a: Value, b: Value) -> Value:
    """The product of two limit values; the zero value is absorbing."""
    if a.is_zero or b.is_zero:
        return ZERO
    return Value(a.mono * b.mono)


def value_power(v: Value, r) -> Value:
    """v^r for a rational r: the unit for r = 0, and zero for the zero
    value, which has no negative power."""
    if type(r) is not int:
        r = fr(r)
    if r == 0:
        return UNIT_VALUE
    if v.is_zero:
        if r < 0:
            raise ZeroDivisionError("negative power of the zero value")
        return ZERO
    return Value(v.mono ** r)


def pair_power(p: Pair, n) -> Pair:
    """p^n for a rational n >= 0."""
    if type(n) is not int:
        n = fr(n)
    if n < 0:
        raise ValueError("pair powers must be non-negative")
    return Pair(p.f ** n, value_power(p.v, n))


def pair_product(powers) -> Pair:
    """The semigroup product of p^n over the (p, n) of powers; the unit
    pair when there are none."""
    out = Pair(ONE, UNIT_VALUE)
    for p, n in powers:
        q = pair_power(p, n)
        out = Pair(out.f * q.f, value_times(out.v, q.v))
    return out


_NO_EXPONENT = Fraction(0)


@dataclass(frozen=True, slots=True)
class FractionMonomial:
    """The Fraction body of `Monomial`: exps lists (variable, nonzero
    Fraction exponent) in increasing variable order, products merge the two
    lists, and the sort key is built from them on first use."""

    exps: tuple[tuple[Var, Fraction], ...]
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)
    _sort_key: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.exps,))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def from_dict(d: Mapping[Var, Fraction | int]) -> "FractionMonomial":
        items = tuple(sorted(((v, fr(e)) for v, e in d.items() if e != 0),
                             key=lambda p: p[0].key()))
        return FractionMonomial(items)

    def exponent(self, var: Var) -> Fraction:
        key = var.key()
        for v, e in self.exps:
            if v.key() == key:
                return e
        return _NO_EXPONENT

    @property
    def is_one(self) -> bool:
        return not self.exps

    def __mul__(self, other: "FractionMonomial") -> "FractionMonomial":
        # merge the two sorted exponent lists, dropping cancelled variables
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (va, ea), (vb, eb) = a[i], b[j]
            if va.key() < vb.key():
                out.append(a[i])
                i += 1
            elif vb.key() < va.key():
                out.append(b[j])
                j += 1
            else:
                e = ea + eb
                if e:
                    out.append((va, e))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return FractionMonomial(tuple(out))

    def __pow__(self, r) -> "FractionMonomial":
        if type(r) is not int:
            r = fr(r)
        if r == 1:
            return self
        if r == 0:
            return FractionMonomial(())
        return FractionMonomial(tuple((v, e * r) for v, e in self.exps))

    def inv(self) -> "FractionMonomial":
        return self ** Fraction(-1)

    def __truediv__(self, other: "FractionMonomial") -> "FractionMonomial":
        return self * other.inv()

    def sort_key(self):
        k = self._sort_key
        if k is None:
            k = tuple(x for v, e in self.exps
                      for x in (*v.key(), e.numerator, e.denominator))
            object.__setattr__(self, "_sort_key", k)
        return k

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for v, e in self.exps:
            if e == 1:
                parts.append(str(v))
            elif e.denominator == 1:
                parts.append(f"{v}^{e}" if e > 0 else f"{v}^({e})")
            else:
                parts.append(f"{v}^({e})")
        return "*".join(parts)

    def json(self) -> dict:
        return {v.json_key(): str(e) for v, e in self.exps}


_LETTER_KIND = {"t": TAU, "l": LAM, "x": "xi"}


def _fraction_leaf(name: str) -> FractionMonomial:
    m = re.fullmatch(r"([tlx])(\d+)", name, re.ASCII)
    if not m:
        raise ValueError(f"unknown variable {name}")
    return FractionMonomial(((Var(_LETTER_KIND[m[1]], int(m[2])),
                              Fraction(1)),))


def _fraction_const(c: Fraction) -> FractionMonomial:
    if c != 1:
        raise ValueError(f"the only constant of a monomial is 1, not {c}")
    return FractionMonomial(())


def fraction_mono(text: str) -> FractionMonomial:
    """`monomials.mono` over FractionMonomial."""
    return read_expr(text, _fraction_leaf, _fraction_const)


def merge_bounds(a: BoundFactors, na, b: BoundFactors, nb) -> BoundFactors:
    """The Fraction body of `multicone._merge((a, na), (b, nb))`: a^na *
    b^nb with the exponents of each value summed as Fractions."""
    acc: dict = {}
    for bf, n in ((a, na), (b, nb)):
        for v, e in bf.factors:
            acc[v] = acc.get(v, Fraction(0)) + e * Fraction(n)
    return BoundFactors(tuple(sorted(((v, e) for v, e in acc.items() if e != 0),
                                     key=lambda t: t[0].sort_key())))


def rank(a) -> int:
    """Gauss-Jordan elimination over Fractions."""
    if not a or not a[0]:
        return 0
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def inverse(a):
    """Gauss-Jordan elimination over Fractions on [a | I]; raises
    ValueError if a is singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def sigma_for(entries) -> Fraction:
    """Smallest positive rational s with s*a integral for all a and gcd 1.

    With D the lcm of denominators and g the gcd of the integers D*a, the
    answer is D/g.  All-zero input returns 1.
    """
    fracs = [fr(a) for row in entries for a in row]
    nonzero = [a for a in fracs if a != 0]
    if not nonzero:
        return Fraction(1)
    d = lcm(*(a.denominator for a in nonzero))
    g = 0
    for a in nonzero:
        g = gcd(g, abs(int(a * d)))
    return Fraction(d, g)


def is_fixed_point(d, p) -> bool:
    """The action loses rank on the point's live blocks, over Fractions."""
    live = [[d.entry(j, k) for k in range(1, d.m + 1)
             if k not in p.zero_blocks] for j in range(1, d.ell + 1)]
    return rank(live) < rank(d.A)


def classify_action(d) -> ActionClass:
    """The class of the action from the Fraction rank of its matrix."""
    r = rank(d.A)
    if r == d.ell == d.m:
        return ActionClass.NORMAL
    if r == d.ell < d.m:
        return ActionClass.NON_DEGENERATE
    if r == d.m < d.ell:
        return ActionClass.TRANSITIVE
    return ActionClass.DEGENERATE


def rank_data(d, fixed_rows=None) -> RankData | None:
    """The minor by search, as rank_and_normalize chose it before the pivot
    minor: the lexicographically first L columns that give an invertible
    L x L minor on fixed_rows, or else on the lexicographically first L
    rows that give one; None when fixed_rows give none."""
    L = rank(d.A)

    def invertible(rows, cols):
        return rank([[d.entry(j, k) for k in cols] for j in rows]) == L

    for cols in combinations(range(1, d.m + 1), L):
        for rows in ([tuple(fixed_rows)] if fixed_rows is not None
                     else combinations(range(1, d.ell + 1), L)):
            if invertible(rows, cols):
                return RankData(L, rows, cols, sigma_for(d.A))
    return None


def balanced(e_pos: Fraction, e_neg: Fraction) -> tuple[int, int]:
    """Coprime naturals a, b with a*e_pos = b*|e_neg|."""
    ratio = -e_neg / e_pos
    return ratio.numerator, ratio.denominator


def eliminate(F, v) -> frozenset[Pair]:
    """One elimination step on Pairs: keep the pairs free of v and balance
    opposite signs; a block scale also keeps its positive pairs with value
    zero."""
    out: set[Pair] = set()
    pos, neg = [], []
    for p in F:
        e = p.f.exponent(v)
        if e == 0:
            out.add(p)
        elif e > 0:
            if v.kind == TAU:
                out.add(Pair(p.f, ZERO))
            pos.append((p, e))
        else:
            neg.append((p, e))
    for p, ep in pos:
        for q, eq in neg:
            a, b = balanced(ep, eq)
            out.add(pair_product(((p, a), (q, b))))
    return frozenset(out)


def stages(pl, order):
    """The elimination stages of pl redone step by step from G with the
    oracle step: the parameters in the given order, then the zero-pattern
    columns; as the fields of a PipelineResult."""
    stage, f0_stages, f_stages = pl.G, [], []
    for j in order:
        stage = eliminate(stage, lam(j))
        f0_stages.append((j, stage))
    for k in pl.zero_cols_L:
        stage = eliminate(stage, tau(k))
        f_stages.append((k, stage))
    return {"F0_stages": tuple(f0_stages), "F_stages": tuple(f_stages),
            "Fq": stage, "elim_order": tuple(order)}


def reordered(pl, order):
    """pl with its parameters eliminated in another order."""
    return replace(pl, **stages(pl, order))


def eliminate_lambda(F) -> frozenset[Pair]:
    out = fraction_closure(F)
    for j in sorted({v.index for pr in out for v, _ in pr.f.exps
                     if v.kind == LAM}):
        out = eliminate(out, lam(j))
    return out


def closure_entries(pl, rounds):
    """The closure entries of pl by the product loop on Pairs: each round
    balances the frontier against the stage and then the stage against the
    frontier, on every selected column of opposite signs; a product met
    again keeps its first factors."""
    base = [ClosureEntry(pr, ((pr, 1),))
            for pr in sorted(pl.Fq, key=Pair.sort_key)]
    entries = {e.pair: e for e in base}
    taus = [tau(k) for k in pl.r.sel_cols]

    def products(pool_a, pool_b):
        exps_b = [(eb, [eb.pair.f.exponent(t) for t in taus]) for eb in pool_b]
        new = []
        for ea in pool_a:
            exps_a = [ea.pair.f.exponent(t) for t in taus]
            for eb, exps in exps_b:
                for ef, eg in zip(exps_a, exps):
                    if ef > 0 and eg < 0:
                        a, b = balanced(ef, eg)
                        prod = pair_product(((ea.pair, a), (eb.pair, b)))
                        if prod not in entries:
                            fac: dict[Pair, int] = {}
                            for q, n in ea.factors:
                                fac[q] = fac.get(q, 0) + n * a
                            for q, n in eb.factors:
                                fac[q] = fac.get(q, 0) + n * b
                            new.append(ClosureEntry(
                                prod, tuple(sorted(fac.items(),
                                                   key=lambda t: t[0].sort_key()))))
        return new

    frontier = base
    for _ in range(rounds):
        if not frontier:
            break
        fresh = []
        made = products(frontier, base)
        if frontier is not base:
            made += products(base, frontier)
        for e in made:
            if e.pair not in entries:
                entries[e.pair] = e
                fresh.append(e)
        frontier = fresh
    return tuple(sorted(entries.values(), key=lambda e: e.pair.sort_key()))


def project(system: MulticoneSystem, k: int) -> tuple[Inequality, ...]:
    """The inequalities of the projection of a one-sided system along a
    block that cannot vanish, by pairing opposite-sign inequalities on
    Fractions."""
    v = tau(k)
    keep, pos, neg = [], [], []
    for ineq in system.inequalities:
        e = ineq.f.exponent(v)
        if e == 0:
            keep.append(ineq)
        elif e > 0:
            pos.append((ineq, e))
        else:
            neg.append((ineq, e))
    new = list(keep)
    for gneg, en in neg:
        for gpos, ep in pos:
            a, b = balanced(ep, en)
            f = (gpos.f ** a) * (gneg.f ** b)
            bound = merge_bounds(gpos.bound, a, gneg.bound, b)
            value = value_times(value_power(gpos.value, a),
                                value_power(gneg.value, b))
            new.append(Inequality(f, bound, value))
    return tuple(sorted(set(new), key=Inequality.sort_key))



def product_sample_members(system: MulticoneSystem, n: int, eps: float,
                           rng) -> list[dict[int, float]]:
    """`multicone.sample_members` with each candidate's block norms formed
    as floats, base * prod_j lam_j^(a_jk) * jitter, from the exponentials
    of the log draws: the same draws and rewinds, in batches of up to 64, each
    candidate checked as a batch of one."""
    ell = len(system.action_rows)
    # per block: its base norm (None on the zero pattern, where a base norm
    # is drawn) and the (action, exponent) pairs of its nonzero exponents
    cols = [(None if k in system.zero_blocks
             else float(system.norms.get(k, 1.0)),
             tuple((j, float(row[k - 1]))
                   for j, row in enumerate(system.action_rows)
                   if row[k - 1]))
            for k in system.blocks]
    nzero = sum(base is None for base, _ in cols)
    bases = ell + len(cols)
    width = bases + nzero
    lam_lo, lam_hi = np.log(eps * 1e-3), np.log(eps * 0.9)
    zero_lo, zero_hi = np.log(1e-6), np.log(0.5)
    low = np.array([lam_lo] * ell + [0.9] * len(cols) + [zero_lo] * nzero)
    span = np.array([lam_hi - lam_lo] * ell + [1.1 - 0.9] * len(cols)
                    + [zero_hi - zero_lo] * nzero)
    drawn = iter(range(bases, width))
    spec = [(base, next(drawn) if base is None else None, pos, col)
            for pos, (base, col) in enumerate(cols, start=ell)]
    out: list[dict[int, float]] = []
    tries = 0
    check = system.check(eps * (1.0 - 0.05))
    while len(out) < n and tries < 200 * n:
        state = rng.bit_generator.state
        draws = low + span * rng.random((min(64, 200 * n - tries), width))
        exps = np.exp(draws)
        exps[:, ell:bases] = draws[:, ell:bases]
        rows = exps.tolist()
        for used, row in enumerate(rows, start=1):
            vals = []
            for base, at, pos, col in spec:
                scale = 1.0
                for j, a in col:
                    scale *= row[j] ** a
                vals.append((row[at] if base is None else base) * scale
                            * row[pos])
            if check([[v] for v in vals], 1):
                out.append(dict(zip(system.blocks, vals)))
                if len(out) == n:
                    break
        tries += used
        if used < len(rows):
            rng.bit_generator.state = state
            rng.random(used * width)
    return out


def product_contraction_check(system: MulticoneSystem, samples: int,
                              rng_seed: int, eps: float = 0.1):
    """`multicone.contraction_stable_check` over `product_sample_members`,
    each point moved as norm * prod_j lam_j^(a_jk) in floats."""
    rng = np.random.default_rng(rng_seed)
    pts = product_sample_members(system, samples, eps, rng)
    lam_rows = rng.uniform(0.05, 1.0, (len(pts), len(system.action_rows)))
    check = system.check(eps)
    failures = []
    for norms, lams, lam_vec in zip(pts, lam_rows.tolist(), lam_rows):
        moved = [norms[k] * prod(lams[j] ** float(row[k - 1])
                                 for j, row in enumerate(system.action_rows)
                                 if row[k - 1])
                 for k in system.blocks]
        if not check([[v] for v in moved], 1):
            failures.append((norms, tuple(lam_vec)))
    return ContractionReport(samples, len(pts), len(pts), len(failures),
                             failures)


def phi(d) -> dict:
    """phi_k, the action monomial prod_j lam_j^(a_jk) of each block, in
    Fraction arithmetic."""
    return {k: Monomial.from_dict({lam(j): d.entry(j, k)
                                   for j in range(1, d.ell + 1)})
            for k in range(1, d.m + 1)}


def derive_monomials(d, r) -> DerivedMonomials:
    """The solved inverses and the quotients in Fraction arithmetic, from
    the inverse of the minor."""
    sel_rows, sel_cols = r.sel_rows, r.sel_cols
    minor_inv = inverse([[d.entry(j, k) for k in sel_cols] for j in sel_rows])
    unsel_rows = [j for j in range(1, d.ell + 1) if j not in sel_rows]
    lower = [[d.entry(j, k) for k in sel_cols] for j in unsel_rows]

    phi_inv = {}
    for jpos, j in enumerate(sel_rows):
        exps = {}
        for kpos, k in enumerate(sel_cols):
            exps[tau(k)] = minor_inv[kpos][jpos]
        for ipos, i in enumerate(unsel_rows):
            exps[lam(i)] = -sum(lower[ipos][kpos] * minor_inv[kpos][jpos]
                                for kpos in range(r.L))
        phi_inv[j] = Monomial.from_dict(exps)

    for k in sel_cols:
        acc = Monomial.from_dict({lam(i): d.entry(i, k) for i in unsel_rows})
        for j in sel_rows:
            acc = acc * (phi_inv[j] ** d.entry(j, k))
        assert acc == Monomial.from_dict({tau(k): 1}), "round trip failed"

    psi = {}
    for k in range(1, d.m + 1):
        if k in sel_cols:
            continue
        top = [d.entry(j, k) for j in sel_rows]
        alpha = [sum(minor_inv[i][jpos] * top[jpos] for jpos in range(r.L))
                 for i in range(r.L)]
        exps = {tau(k): Fraction(1)}
        for kpos, kk in enumerate(sel_cols):
            exps[tau(kk)] = exps.get(tau(kk), Fraction(0)) - alpha[kpos]
        psi[k] = Monomial.from_dict(exps)
    return DerivedMonomials(phi_inv, psi)


def nonneg_solution(columns, target):
    """The phase-one simplex over Fractions (Bland's rule, ratios as
    Fractions, ties to the least basic column) that the integer tableau of
    `linear.nonneg_solution` must pivot identically to: rational x >= 0
    with sum x_i * columns[i] = target, or None."""
    m = len(target)
    n = len(columns)
    # Tableau rows: [A | I | b] with b >= 0 after sign flips.
    a = [[Fraction(columns[j][i]) for j in range(n)] for i in range(m)]
    b = [Fraction(t) for t in target]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    total = n + m
    rows = [a[i] + [Fraction(int(k == i)) for k in range(m)] + [b[i]]
            for i in range(m)]
    basis = [n + i for i in range(m)]
    # Objective: minimise the sum of artificials.
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    z = [Fraction(0)] * (total + 1)
    for i in range(m):
        for k in range(total + 1):
            z[k] += rows[i][k]
    # reduced costs: cost - z for structural part; objective value = z[-1]
    while True:
        enter = None
        for j in range(total):
            if cost[j] - z[j] < 0:
                enter = j
                break
        if enter is None:
            break
        ratios = [(rows[i][total] / rows[i][enter], basis[i], i)
                  for i in range(m) if rows[i][enter] > 0]
        if not ratios:
            break  # unbounded: cannot happen for phase one
        _, _, leave = min(ratios)
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        basis[leave] = enter
        z = [Fraction(0)] * (total + 1)
        for i in range(m):
            if cost[basis[i]] != 0:
                for k in range(total + 1):
                    z[k] += cost[basis[i]] * rows[i][k]
    if z[total] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][total]
        elif rows[i][total] != 0:
            return None  # artificial stuck at a nonzero level
    return x


def exponent_vectors(monos, extra):
    """The Fraction exponent vectors of monos and of extra over their
    variables."""
    all_vars = sorted({v for f in monos for v, _ in f.exps}
                      | {v for v, _ in extra.exps}, key=lambda v: v.key())
    return ([[f.exponent(v) for v in all_vars] for f in monos],
            [extra.exponent(v) for v in all_vars])


def radical_member(probe, H, zero_slack=(),
                   shortcuts=True) -> MembershipResult:
    """radical_member on Pairs and Fractions, as it was before it ran on
    integer rows: Fraction columns per probe, the Fraction simplex, and
    the witness checked by Pair products.  Without shortcuts, as it was
    before it skipped LPs whose answer is known: one LP for every probe,
    and the homogenised second LP for every zero-valued probe outside the
    slack."""
    ordered = sorted(H, key=lambda p: p.sort_key())
    slacked = probe.v.is_zero and any(probe.f.exponent(tau(k)) > 0
                                      for k in zero_slack)
    if shortcuts and probe in H:
        x = [Fraction(p == probe) for p in ordered]
    elif not probe.v.is_zero:
        cols, target = exponent_vectors([p.f for p in ordered], probe.f)
        # the last row sums the use of zero-valued pairs and must be zero
        vcols, vtarget = exponent_vectors(
            [p.v.mono or ONE for p in ordered], probe.v.mono)
        x = nonneg_solution([c + vc + [Fraction(p.v.is_zero)] for c, vc, p
                             in zip(cols, vcols, ordered)],
                            target + vtarget + [Fraction(0)])
    else:
        cols, target = exponent_vectors([p.f for p in ordered], probe.f)
        x = nonneg_solution(cols, target)
        if x is not None and not slacked and not (shortcuts and any(
                a and p.v.is_zero for a, p in zip(x, ordered))):
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
    got = pair_product((p, a) for p, a in witness if a)
    want = pair_power(probe, power)
    if got.f != want.f or not (slacked or got.v == want.v):
        raise AssertionError(f"radical witness does not reproduce {probe}^{power}")
    return MembershipResult(Verdict.YES, witness=witness, power=power)


def semigroup_probes(free, zero_slack) -> list[Pair]:
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


def answers(A, B, zero_slack=()):
    """(probe, radical_member answer) for each probe of A in B, then of B
    in A, on Pairs; equivalent is Yes when every answer is."""
    a_free, b_free = eliminate_lambda(A), eliminate_lambda(B)
    return [(probe, radical_member(probe, H, zero_slack))
            for probes, H in ((a_free, b_free), (b_free, a_free))
            for probe in semigroup_probes(probes, zero_slack)]


def equivalent(A, B, zero_slack=()) -> Verdict:
    """equivalent on Pairs: mutual radical membership of every probe."""
    return Verdict.YES if all(res for _, res in answers(A, B, zero_slack)) \
        else Verdict.NO


def family_at(fam, struct, J, alpha) -> BlockPolynomial:
    """The family's coefficient at (J, alpha); zero where it has none."""
    return fam.get(frozenset(J), {}).get(tuple(alpha),
                                         BlockPolynomial(struct, ()))


def t_poly(d, r, J, N, fam, struct) -> BlockPolynomial:
    """One truncated block-Taylor polynomial assembled from the family by
    looking up every member of J's index set."""
    out = BlockPolynomial(struct, ())
    for alpha in index_set(d, r, J, N).members:
        coeff = family_at(fam, struct, J, alpha)
        if coeff.is_zero:
            continue
        out = out + (coeff * poly_monomial(struct, alpha).scale(
            Fraction(1, factorial_multi(alpha))))
    return out


def app_template(d, r, N, fam) -> BlockPolynomial:
    """The template as the signed sum of one t_poly per action subset."""
    struct = structure_of(d)
    out = BlockPolynomial(struct, ())
    for J in subsets_of_actions(d.ell):
        sign = 1 if len(J) % 2 == 1 else -1
        out = out + t_poly(d, r, J, N, fam, struct).scale(sign)
    return out


def diff(poly: BlockPolynomial, coord: int, times: int = 1) -> BlockPolynomial:
    """The derivative of poly in one coordinate, taken times times."""
    out = poly
    for _ in range(times):
        d = {}
        for i, c in out.terms:
            if i[coord] > 0:
                j = list(i)
                j[coord] -= 1
                d[tuple(j)] = d.get(tuple(j), Fraction(0)) + c * i[coord]
        out = BlockPolynomial.from_dict(poly.struct, d)
    return out


def diff_multi(poly: BlockPolynomial, alpha) -> BlockPolynomial:
    """The derivative of order alpha, one coordinate at a time."""
    out = poly
    for coord, times in enumerate(alpha):
        if times:
            out = diff(out, coord, times)
    return out


def sufficient_nonneg_combination(pipeline, beta) -> bool:
    """Is beta a non-negative combination of the pipeline's selected rows?
    The coefficients solve the selected minor by its adjugate (invertible:
    the pipeline solved it; its integer rows are d.den times it), and they
    must rebuild beta on every column."""
    d, r = pipeline.d, pipeline.r
    beta = [fr(x) for x in beta]
    adj, det = adjugate([[d.ints[j - 1][k - 1] for j in r.sel_rows]
                         for k in r.sel_cols])
    coeffs = [d.den * sum(x * beta[k - 1] for x, k in zip(row, r.sel_cols))
              / det for row in adj]
    rebuilt = [sum(c * d.entry(j, k) for c, j in zip(coeffs, r.sel_rows))
               for k in range(1, d.m + 1)]
    return rebuilt == beta and all(c >= 0 for c in coeffs)
