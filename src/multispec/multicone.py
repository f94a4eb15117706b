"""Multicone inequality systems, closures, projections, numeric membership,
contraction stability, and the sampling oracle for the normal cone."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import mul
from typing import TYPE_CHECKING

from .monomials import Monomial, Pair, Value, tau, sorted_pairs
from .deformation import PointPattern
from .semigroup import (PipelineResult, Verdict, balance, equivalent,
                        fraction_closure, layout, pair_of, row_of)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BoundFactors:
    """A formal product of (value +/- eps)^a factors bounding a monomial.
    Every exponent a is a positive integer: a stage pair's bound is its one
    factor, and closure and projection take products of positive integer
    powers."""

    factors: tuple[tuple[Value, int], ...]

    def describe(self) -> str:
        parts = []
        for v, a in self.factors:
            core = "eps" if v.is_zero else f"({v}+eps)"
            parts.append(core if a == 1 else f"{core}^{a}")
        return "*".join(parts) if parts else "1"


def _single(v: Value) -> BoundFactors:
    return BoundFactors(((v, 1),))


def _merge(*powers: tuple[BoundFactors, int]) -> BoundFactors:
    """The factors of the product of the powers bf^n: the integer exponents
    of each value summed, keyed and ordered by the value's sort key."""
    acc: dict[tuple, list] = {}
    for bf, n in powers:
        for v, e in bf.factors:
            key = v.sort_key()
            if key in acc:
                acc[key][1] += e * n
            else:
                acc[key] = [v, e * n]
    return BoundFactors(tuple((v, e) for _, (v, e) in sorted(acc.items())))


@dataclass(frozen=True)
class Inequality:
    f: Monomial
    bound: BoundFactors
    value: Value  # the nominal centre (product of factor values)

    def split(self) -> tuple[Monomial, Monomial]:
        num = Monomial.from_dict({v: e for v, e in self.f.exps if e > 0})
        den = Monomial.from_dict({v: -e for v, e in self.f.exps if e < 0})
        return num, den

    def sort_key(self):
        """Total order: monomial, then value, then bound factors."""
        return (self.f.key, self.value.sort_key(),
                tuple((v.sort_key(), a) for v, a in self.bound.factors))

    def text(self, strict: bool = True) -> str:
        num, den = self.split()
        lt = "<" if strict else "<="
        den_txt = "" if den.is_one else f"*{_norm_text(den)}"
        rhs = self.bound.describe() + den_txt
        if self.value.is_zero:
            return f"{_norm_text(num)} {lt} {rhs}"
        lower = f"({self.value}-eps)" + den_txt
        return f"{lower} {lt} {_norm_text(num)} {lt} {rhs}"


def _norm_text(m: Monomial) -> str:
    if m.is_one:
        return "1"
    parts = []
    for v, e in m.exps:
        base = f"|z{v.index}|"
        parts.append(base if e == 1 else f"{base}^{e}" if e.denominator == 1
                     else f"{base}^({e})")
    return "*".join(parts)


class SystemKind(Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class MulticoneSystem:
    """The region where each generator monomial stays eps-close to its value,
    intersected with directional cones on the nonzero blocks.

    `text()` renders the cones as "z_k in W_k"; `member` tests block norms
    only, and `normal_cone_probe` tests sample directions against given
    cone axes."""

    inequalities: tuple[Inequality, ...]
    zero_blocks: frozenset[int]
    blocks: tuple[int, ...]
    norms: dict[int, float]
    action_rows: tuple[tuple[Fraction, ...], ...]
    one_sided: bool
    has_x0: bool
    kind: SystemKind = SystemKind.OPEN

    def member(self, norms, eps: float) -> bool:
        """All inequalities hold at the given block norms (max-norm per
        block) and eps; zero norms are only legal on the zero pattern, and a
        block missing from norms has norm zero.  A batch of one for the
        compiled `check`."""
        return bool(self.check(eps)([[float(norms.get(k, 0.0))]
                                     for k in self.blocks], 1))

    def check(self, eps: float):
        """The membership test at eps, compiled once per eps: a function of
        a batch of candidates, given as block columns (one list of floats
        per block, in `blocks` order) and their number, which a system
        without blocks cannot read off its columns.  It returns the
        positions of the candidates that pass, in order.

        A bound factor whose lower base is not positive sends lo to -inf,
        or to 0 in a closed system, and a power of a norm that overflows is
        +inf, as the power of an infinite norm is.  Each candidate meets
        the floats of a test on it alone, in the same order: block
        legality first, then the rows in order, each side's product taken
        factor by factor, and it leaves the batch at its first failed
        row."""
        eps = float(eps)
        check = self._checks.get(eps)
        if check is not None:
            return check
        open_kind = self.kind is SystemKind.OPEN
        rows, bounds = self._rows, []  # bounds: (lo, hi) per row
        for _, _, factors in rows:
            hi = lo = 1.0
            for v, a in factors:
                hi *= (v + eps) ** a
            for v, a in factors:
                base = v - eps
                if base <= 0:
                    lo = -math.inf if open_kind else 0.0
                    break
                lo *= base ** a
            bounds.append((lo, hi))
        nonzero = tuple(open_kind and k not in self.zero_blocks
                        for k in self.blocks)

        def check(cols, size: int) -> list[int]:
            alive = list(range(size))
            for col, nz in zip(cols, nonzero):
                # `not <=`, not `>`: a NaN norm is not rejected here
                alive = ([i for i in alive if not col[i] <= 0.0] if nz
                         else [i for i in alive if not col[i] < 0])
            if len(alive) < size:
                cols = [[col[i] for i in alive] for col in cols]
            for (num, den, _), (lo, hi) in zip(rows, bounds):
                if not alive:
                    break
                # Denominator-cleared comparison: valid at vanishing norms.
                nv = _products(cols, num, len(alive))
                dv = _products(cols, den, len(alive))
                keep = ([lo * d < v < hi * d for v, d in zip(nv, dv)]
                        if open_kind else
                        [lo * d <= v <= hi * d for v, d in zip(nv, dv)])
                if not all(keep):
                    alive = list(compress(alive, keep))
                    cols = [list(compress(col, keep)) for col in cols]
            return alive

        self._checks[eps] = check
        return check

    @cached_property
    def _rows(self) -> tuple:
        """Each inequality as floats: the (block position, exponent) factors
        of the numerator and the denominator of its monomial, and the
        (value at the base point, exponent) factors of its bound."""
        at = {k: i for i, k in enumerate(self.blocks)}
        rows = []
        for ineq in self.inequalities:
            num, den = ineq.split()
            rows.append((tuple((at[v.index], float(e)) for v, e in num.exps),
                         tuple((at[v.index], float(e)) for v, e in den.exps),
                         tuple((v.evaluate(self.norms), float(a))
                               for v, a in ineq.bound.factors)))
        return tuple(rows)

    @cached_property
    def _checks(self) -> dict:
        return {}

    @cached_property
    def _table(self) -> tuple:
        """For the samplers, with one column per block in `blocks` order:
        the float action exponents, one row per action, and the log of each
        block's base norm, 0.0 on the zero pattern, where a base norm is
        drawn."""
        import numpy as np

        acts = np.array([[float(row[k - 1]) for k in self.blocks]
                         for row in self.action_rows])
        log_norms = np.log([1.0 if k in self.zero_blocks
                            else float(self.norms.get(k, 1.0))
                            for k in self.blocks])
        return acts, log_norms

    def text(self) -> list[str]:
        lines = []
        for k in self.blocks:
            if k not in self.zero_blocks:
                lines.append(f"z{k} in W{k}")
        if self.has_x0:
            lines.append("|z0| < eps")
        strict = self.kind is SystemKind.OPEN
        for ineq in self.inequalities:
            lines.append(ineq.text(strict=strict))
        return lines

    def json(self) -> dict:
        return {
            "inequalities": [
                {"monomial": i.f.json(), "value": i.value.json(),
                 "bound": i.bound.describe()} for i in self.inequalities],
            "zero_blocks": sorted(self.zero_blocks),
            "cones": [k for k in self.blocks if k not in self.zero_blocks],
            "kind": self.kind.value,
        }


def _products(cols, factors, size: int) -> list[float]:
    """Per candidate, the product of its block norms' powers over the
    (block position, exponent) factors, multiplied in factor order; 1.0
    without factors."""
    out = None
    for i, e in factors:
        try:
            powers = list(map(pow, cols[i], repeat(e)))
        except OverflowError:
            powers = [_power(x, e) for x in cols[i]]
        out = powers if out is None else list(map(mul, out, powers))
    return [1.0] * size if out is None else out


def _power(x: float, e: float) -> float:
    """x ** e, or +inf where that overflows."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def build_multicone(pipeline: PipelineResult, p: PointPattern | None = None,
                    check_equivalence: bool = True) -> MulticoneSystem:
    """Inequality system over the pipeline's final stage.

    The one-sided rendering is available exactly when the stage is
    fraction-closed; the generated-semigroup equivalence precondition is
    checked unless explicitly skipped.
    """
    p = p or pipeline.p
    if check_equivalence:
        verdict = equivalent(pipeline.Fq, pipeline.G,
                             zero_slack=pipeline.zero_cols_L)
        if verdict is not Verdict.YES:
            raise ValueError(f"stage/semigroup equivalence check came back "
                             f"{verdict.value}")
    ineqs = tuple(Inequality(pr.f, _single(pr.v), pr.v)
                  for pr in sorted_pairs(pipeline.Fq))
    one_sided = fraction_closure(pipeline.Fq) == pipeline.Fq
    d = pipeline.d
    return MulticoneSystem(
        inequalities=ineqs,
        zero_blocks=frozenset(p.zero_blocks),
        blocks=tuple(range(1, d.m + 1)),
        norms=dict(p.norms),
        action_rows=d.A,
        one_sided=one_sided,
        has_x0=bool(d.complement_block),
    )


class ClosureCapExceeded(RuntimeError):
    pass


CLOSURE_CAP = 10000


@dataclass(frozen=True)
class ClosureEntry:
    pair: Pair
    factors: tuple[tuple[Pair, int], ...]


@dataclass(frozen=True)
class ClosureSystem:
    entries: tuple[ClosureEntry, ...]
    system: MulticoneSystem

    @property
    def K(self) -> frozenset[Pair]:
        return frozenset(e.pair for e in self.entries)


def closure(pipeline: PipelineResult, rounds: int = 1) -> ClosureSystem:
    """Close the final stage under the balanced-product operation and emit
    the denominator-cleared non-strict system describing the closure.

    rounds counts the product rounds: the first multiplies stage pairs,
    each later one multiplies the previous round's new entries with the
    stage pairs, and the closure stops early once a round adds nothing.
    More than CLOSURE_CAP entries raise ClosureCapExceeded.
    """
    stage = sorted_pairs(pipeline.Fq)
    columns, width, index = layout(stage)
    cols = [index[tau(k).key()] for k in pipeline.r.sel_cols
            if tau(k).key() in index]
    base = [(row_of(pr.f, pr.v, index), ClosureEntry(pr, ((pr, 1),)))
            for pr in stage]
    entries = dict(base)

    def products(pool_a, pool_b):
        # the row of ea^a * eb^b, a, ea, b and eb for each couple and
        # selected column of opposite signs, unless already an entry
        return [(row, a, ea, b, eb) for ra, ea in pool_a for rb, eb in pool_b
                for i in cols if ra[0][i] > 0 and rb[0][i] < 0
                for a, b, row in [balance(ra, rb, i, width)]
                if row not in entries]

    frontier = base
    for _ in range(rounds):
        if not frontier:
            break
        fresh = []
        made = products(frontier, base)
        if frontier is not base:
            made += products(base, frontier)
        for row, a, ea, b, eb in made:
            if row not in entries:
                fac: dict[Pair, int] = {}
                for q, n in ea.factors:
                    fac[q] = fac.get(q, 0) + n * a
                for q, n in eb.factors:
                    fac[q] = fac.get(q, 0) + n * b
                e = ClosureEntry(pair_of(row, columns, width),
                                 tuple(sorted(fac.items(),
                                              key=lambda t: t[0].sort_key())))
                entries[row] = e
                fresh.append((row, e))
                if len(entries) > CLOSURE_CAP:
                    raise ClosureCapExceeded(
                        f"closure exceeded {CLOSURE_CAP} elements; the "
                        "balanced products do not stabilise")
        frontier = fresh

    ordered = tuple(sorted(entries.values(), key=lambda e: e.pair.sort_key()))
    # an entry's bound is the product of its factors' own bounds
    ineqs = tuple(Inequality(e.pair.f, _merge(*((_single(q.v), n)
                                                for q, n in e.factors)),
                             e.pair.v)
                  for e in ordered)
    sys0 = build_multicone(pipeline, check_equivalence=False)
    closed = replace(sys0, inequalities=ineqs, kind=SystemKind.CLOSED)
    return ClosureSystem(ordered, closed)


def project(system: MulticoneSystem, k: int, k_in_JZ: bool | None = None) -> MulticoneSystem:
    """Eliminate one block from a one-sided system.

    When the dropped norm can vanish, rows not involving it survive
    unchanged and positive rows drop; otherwise opposite-sign rows pair
    into balanced products with multiplied bounds.
    """
    if not system.one_sided:
        raise ValueError("projection needs a fraction-closed one-sided system")
    if k not in system.blocks:
        raise ValueError(f"block {k} is not a block of the system")
    if k_in_JZ is None:
        k_in_JZ = k in system.zero_blocks
    v = tau(k)
    keep, pos, neg = [], [], []
    for ineq in system.inequalities:
        e = ineq.f.exponent(v)
        if e == 0:
            keep.append(ineq)
        elif e > 0:
            pos.append(ineq)
        else:
            neg.append(ineq)
    if k_in_JZ:
        if neg:
            raise ValueError("negative exponents on a vanishing block")
        new = keep
    else:
        new = list(keep)
        pairs = [Pair(ineq.f, ineq.value) for ineq in pos + neg]
        columns, width, index = layout(pairs)
        rows = [row_of(pr.f, pr.v, index) for pr in pairs]
        for gneg, rn in zip(neg, rows[len(pos):]):
            for gpos, rp in zip(pos, rows):
                a, b, row = balance(rp, rn, index[v.key()], width)
                pr = pair_of(row, columns, width)
                bound = _merge((gpos.bound, a), (gneg.bound, b))
                new.append(Inequality(pr.f, bound, pr.v))
    return MulticoneSystem(
        inequalities=tuple(sorted(set(new), key=Inequality.sort_key)),
        zero_blocks=system.zero_blocks - {k},
        blocks=tuple(b for b in system.blocks if b != k),
        norms={b: n for b, n in system.norms.items() if b != k},
        action_rows=system.action_rows,
        one_sided=True,
        has_x0=system.has_x0,
        kind=system.kind,
    )


# Candidates drawn per RNG call by sample_members, and the most it draws
# at once while it has accepted nothing.
_BATCH = 64
_MAX_BATCH = 8 * _BATCH


def sample_members(system: MulticoneSystem, n: int, eps: float,
                   rng: np.random.Generator) -> list[dict[int, float]]:
    """Rejection-sample member points via the contraction parametrisation.

    Base norms follow the stored block norms (tiny log-uniform values on the
    zero pattern), pushed through random contractions with log-uniform
    parameters below eps and a multiplicative jitter; candidates are
    accepted when they satisfy the system at eps shrunk by 5%, so the
    samples sit strictly inside.  At most 200 * n candidates are drawn.

    A candidate's block norms are formed in the log domain, as
    exp(log base + log jitter + sum_j a_jk log lam_j) with the sum taken in
    action order, where a zero-pattern block's log base is its own draw.
    Candidates are drawn in batches, one `rng.random` call per batch, and
    each batch is tested by one call of the compiled `check`.  A batch
    holds 64 candidates; while nothing has been accepted, each batch is
    twice the last, up to 512.  The points and the generator's final
    position are those of drawing one candidate at a time: per candidate,
    `uniform` over the log parameters, then over the jitters, then one
    draw per zero-pattern block; the doubles of a batch's rows past the
    n-th point are given back."""
    import numpy as np

    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    acts, log_norms = system._table
    ell, m = acts.shape
    zero = [pos for pos, k in enumerate(system.blocks)
            if k in system.zero_blocks]
    # a row holds the log parameters, the jitters, then the zero-pattern
    # log bases
    bases = ell + m
    width = bases + len(zero)
    lam_lo, lam_hi = np.log(eps * 1e-3), np.log(eps * 0.9)
    zero_lo, zero_hi = np.log(1e-6), np.log(0.5)
    # uniform(low, high) is low + (high - low) * u, column by column
    low = np.array([lam_lo] * ell + [0.9] * m + [zero_lo] * len(zero))
    span = np.array([lam_hi - lam_lo] * ell + [1.1 - 0.9] * m
                    + [zero_hi - zero_lo] * len(zero))
    out: list[dict[int, float]] = []
    tries, batch = 0, _BATCH
    check = system.check(eps * (1.0 - 0.05))
    while len(out) < n and tries < 200 * n:
        state = rng.bit_generator.state
        size = min(batch, 200 * n - tries)
        draws = low + span * rng.random((size, width))
        logs = np.log(draws[:, ell:bases]) + log_norms
        logs[:, zero] += draws[:, bases:]
        # elementwise multiply-adds, not `@`, keep each candidate's sum in
        # action order
        for j in range(ell):
            logs += draws[:, j, None] * acts[j]
        norms = np.exp(logs)
        hits = check(norms.T.tolist(), size)[:n - len(out)]
        out += [dict(zip(system.blocks, vals))
                for vals in norms[hits].tolist()]
        used = hits[-1] + 1 if len(out) == n else size
        tries += used
        if used < size:
            rng.bit_generator.state = state
            rng.random(used * width)
        batch = _BATCH if out else min(2 * batch, _MAX_BATCH)
    return out


@dataclass(frozen=True)
class ContractionReport:
    requested: int
    sampled: int
    checked: int
    violations: int
    failures: list

    @property
    def passed(self) -> bool:
        """False when the sampler starved or any contraction left the system."""
        return self.sampled >= self.requested and self.violations == 0


def contraction_stable_check(system: MulticoneSystem, samples: int,
                             rng_seed: int, eps: float = 0.1) -> ContractionReport:
    """Member points stay members under every contraction of the actions.

    Each sampled point moves in one pass, as norm * exp(sum_j a_jk log
    lam_j) with the sum taken in action order."""
    import numpy as np

    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(rng_seed)
    pts = sample_members(system, samples, eps, rng)
    acts, _ = system._table
    lam_rows = rng.uniform(0.05, 1.0, (len(pts), len(acts)))
    moves = np.zeros((len(pts), acts.shape[1]))
    for j, lam_log in enumerate(np.log(lam_rows).T):
        moves += lam_log[:, None] * acts[j]
    moved = np.array([list(norms.values()) for norms in pts],
                     dtype=float).reshape(moves.shape) * np.exp(moves)
    passing = set(system.check(eps)(moved.T.tolist(), len(pts)))
    failures = [(norms, tuple(lam_vec))
                for i, (norms, lam_vec) in enumerate(zip(pts, lam_rows))
                if i not in passing]
    return ContractionReport(samples, len(pts), len(pts), len(failures),
                             failures)


class ProbeOutcome(Enum):
    IN_CONE = "in-cone"
    NOT_IN_CONE = "not-in-cone"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeResult:
    outcome: ProbeOutcome
    eps: float | None = None
    radius: float | None = None
    hits: dict = field(default_factory=dict)


_APERTURE = 0.5  # radians


def normal_cone_probe(pipeline: PipelineResult, p: PointPattern, Z,
                      samples: int = 4000, seed: int = 0,
                      directions=None) -> ProbeResult:
    """Numerical oracle for the normal-cone membership characterisation.

    Z provides `sample(rng, scale)` a candidate generator and `contains`
    a predicate; membership of the base point in the cone of Z is probed
    by intersecting Z points with multicones at shrinking scales.  Each
    scale tries at most `samples` points and stops at its first member, so
    `hits` maps every scale to 1 (a member found) or 0.  The points of a
    scale are drawn in chunks of 1, 2, 4, ... up to 64, and each chunk's
    points that pass the filters are tested by one call of the compiled
    `check`; a chunk with a member is drawn again up to that member, so
    the generator moves on as if drawing had stopped there.  Not a decision
    procedure: a clean miss at one scale reports not-in-cone, hits at
    every scale report in-cone, anything else is inconclusive.

    directions maps blocks to cone axes, the numeric form of the cones
    W_k: a sample counts only when each such block off the zero pattern is
    nonzero and within 0.5 radians of its axis.  Directions on zero-pattern
    blocks are ignored.
    """
    import numpy as np

    if samples < 1:
        raise ValueError(f"need at least one sample per scale, got {samples}")
    system = build_multicone(pipeline, p, check_equivalence=False)
    rng = np.random.default_rng(seed)
    axes = [(k, np.atleast_1d(np.asarray(direction, dtype=float)))
            for k, direction in (directions or {}).items()
            if k in system.blocks and k not in system.zero_blocks]
    scales = (0.5, 0.2, 0.1, 0.05)  # eps, largest first; ball radius 4 * eps
    hits = {}
    for eps in scales:
        radius = 4.0 * eps
        check = system.check(eps)
        found = tried = 0
        chunk = 1
        while not found and tried < samples:
            state = rng.bit_generator.state
            size = min(chunk, samples - tried)
            at, cands = [], []  # chunk positions and norms of the survivors
            for pos in range(size):
                z = Z.sample(rng, eps)
                if z is None or not Z.contains(z):
                    continue
                norms = {k: abs(float(v)) if isinstance(v, float)
                         else float(np.max(np.abs(np.atleast_1d(v))))
                         for k, v in z.items()}
                if any(norms[k] > radius for k in norms):
                    continue
                if all(_within(z[k], axis) for k, axis in axes):
                    at.append(pos)
                    cands.append([norms.get(k, 0.0) for k in system.blocks])
            passing = check(list(zip(*cands)), len(cands))
            tried += size
            if passing:
                found = 1
                used = at[passing[0]] + 1
                if used < size:  # redraw the chunk up to its first member
                    rng.bit_generator.state = state
                    for _ in range(used):
                        Z.sample(rng, eps)
            chunk = min(2 * chunk, _BATCH)
        hits[eps] = found
    if all(v > 0 for v in hits.values()):
        return ProbeResult(ProbeOutcome.IN_CONE, hits=hits)
    for eps in scales:
        if all(hits[e] == 0 for e in scales if e <= eps):
            return ProbeResult(ProbeOutcome.NOT_IN_CONE, eps=eps,
                               radius=4.0 * eps, hits=hits)
    return ProbeResult(ProbeOutcome.INCONCLUSIVE, hits=hits)


def _within(v, axis) -> bool:
    """v is nonzero and within the aperture of a nonzero axis."""
    import numpy as np

    vec = np.atleast_1d(np.asarray(v, dtype=float))
    nv, nd = np.linalg.norm(vec), np.linalg.norm(axis)
    if nv == 0 or nd == 0:
        return False
    cosang = float(np.dot(vec, axis) / (nv * nd))
    return math.acos(max(-1.0, min(1.0, cosang))) <= _APERTURE
