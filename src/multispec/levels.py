"""Level functions: max/min expression trees measuring per-action decay,
their restriction to the scale graph, strictness, and the permutation-
minimised generalised family."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

from .deformation import (DeformationData, PointPattern, RankData,
                          is_fixed_point, rank_and_normalize)
from .linear import fr, rank
from .monomials import Monomial, ONE, Var, LAM, TAU, XI, lam, tau
from .semigroup import PipelineResult, run_pipeline

MONO, MAX, MIN, PROD, POW = "mono", "max", "min", "prod", "pow"
_FLIP = {MAX: MIN, MIN: MAX}
_ORDER = {MAX: 1, MIN: 2, PROD: 3, POW: 4}
# Variable kinds by the first entry of their sort key.
_KINDS = {Var(kind, 1).key()[0]: kind for kind in (TAU, LAM, XI)}
_TAU = tau(1).key()[0]


@dataclass(frozen=True, slots=True)
class LevelExpr:
    """A level tree node.  A MONO leaf is the integer key of its monomial
    (Monomial.sort_key), on which it compares, hashes and sorts, so a leaf
    built from an exponent vector equals lmono of the same Monomial; `mono`
    is made on first use.  Other nodes hold children, a POW node its
    exponent."""

    kind: str
    key: tuple[int, ...] = ()
    children: tuple["LevelExpr", ...] = ()
    exp: Fraction | None = None
    # Caches filled on first use, outside every comparison: a leaf's
    # Monomial and its tau exponents over one denominator (see
    # effective_exponent); the hash, the sort key, the canonical form (see
    # canonical) and the float tree (see evaluate_level).
    _mono: Monomial | None = field(default=None, init=False, repr=False,
                                   compare=False)
    _taus: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)
    _sort_key: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)
    _canonical: "LevelExpr | None" = field(default=None, init=False,
                                           repr=False, compare=False)
    _tree: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.key, self.children, self.exp))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return LevelExpr, (self.kind, self.key, self.children, self.exp)

    @property
    def mono(self) -> Monomial | None:
        """The leaf's Monomial (None for other nodes)."""
        m = self._mono
        if m is None and self.kind == MONO:
            k = self.key
            m = Monomial(tuple((Var(_KINDS[k[i]], k[i + 1]),
                                Fraction(k[i + 2], k[i + 3]))
                               for i in range(0, len(k), 4)))
            object.__setattr__(self, "_mono", m)
        return m

    def sort_key(self):
        k = self._sort_key
        if k is None:
            if self.kind == MONO:
                k = (0, self.key)
            else:
                k = (_ORDER[self.kind],
                     tuple(c.sort_key() for c in self.children),
                     (self.exp.numerator, self.exp.denominator)
                     if self.exp else ())
            object.__setattr__(self, "_sort_key", k)
        return k

    def __str__(self) -> str:
        if self.kind == MONO:
            return str(self.mono)
        if self.kind in (MAX, MIN):
            return f"{self.kind}({', '.join(str(c) for c in self.children)})"
        if self.kind == PROD:
            return " * ".join(f"({c})" for c in self.children)
        return f"({self.children[0]})^({self.exp})"

    def json(self):
        if self.kind == MONO:
            return {"mono": self.mono.json()}
        if self.kind == POW:
            return {"pow": self.children[0].json(), "exp": str(self.exp)}
        return {self.kind: [c.json() for c in self.children]}


def lmono(m) -> LevelExpr:
    if isinstance(m, str):
        from .monomials import mono as parse
        m = parse(m)
    e = LevelExpr(MONO, m.sort_key())
    object.__setattr__(e, "_mono", m)
    return e


LEVEL_ONE = lmono(ONE)


def lmax(*es) -> LevelExpr:
    es = _spread(es)
    return es[0] if len(es) == 1 else LevelExpr(MAX, children=tuple(es))


def lmin(*es) -> LevelExpr:
    es = _spread(es)
    return es[0] if len(es) == 1 else LevelExpr(MIN, children=tuple(es))


def lprod(*es) -> LevelExpr:
    es = _spread(es)
    return es[0] if len(es) == 1 else LevelExpr(PROD, children=tuple(es))


def lpow(e, r) -> LevelExpr:
    return LevelExpr(POW, children=(_coerce(e),), exp=Fraction(r))


def _coerce(e) -> LevelExpr:
    return e if isinstance(e, LevelExpr) else lmono(e)


def _spread(es) -> list[LevelExpr]:
    if len(es) == 1 and isinstance(es[0], (list, tuple)):
        es = es[0]
    out = [_coerce(e) for e in es]
    if not out:
        raise ValueError("empty operand list")
    return out


def _combine(base: Monomial, node: LevelExpr, e: Fraction) -> LevelExpr:
    """base * node^e for a canonical max/min tree with monomial leaves."""
    if e == 0:
        return lmono(base)
    if node.kind == MONO:
        return lmono(base * (node.mono ** e))
    kind = node.kind if e > 0 else _FLIP[node.kind]
    return LevelExpr(kind, children=tuple(_combine(base, c, e)
                                          for c in node.children))


def canonical(e: LevelExpr) -> LevelExpr:
    """Flatten to alternating max/min nodes over monomial leaves.

    Products and powers distribute into the lattice nodes (non-monomial
    product factors in sorted order), nested same-kind nodes flatten,
    duplicates collapse, children sort.  Comparison of level expressions is
    structural equality of canonical forms.  The result is kept on the node,
    and a canonical tree is its own canonical form.
    """
    c = e._canonical
    if c is None:
        c = _canonical(e)
        object.__setattr__(e, "_canonical", c)
        if c._canonical is None:
            object.__setattr__(c, "_canonical", c)
    return c


def _canonical(e: LevelExpr) -> LevelExpr:
    if e.kind == MONO:
        return e
    if e.kind == POW:
        return canonical(_combine(ONE, canonical(e.children[0]), e.exp))
    if e.kind == PROD:
        mono_part = ONE
        nodes = []
        for c in e.children:
            c = canonical(c)
            if c.kind == MONO:
                mono_part = mono_part * c.mono
            else:
                nodes.append(c)
        if not nodes:
            return lmono(mono_part)
        nodes.sort(key=lambda n: n.sort_key())
        acc = nodes[0]
        if not mono_part.is_one:
            acc = _combine(mono_part, acc, Fraction(1))
        for n in nodes[1:]:
            acc = _cross(acc, n)
        return canonical(acc)
    children = []
    for c in e.children:
        c = canonical(c)
        if c.kind == e.kind:
            children.extend(c.children)
        else:
            children.append(c)
    uniq = sorted(set(children), key=lambda c: c.sort_key())
    if len(uniq) == 1:
        return uniq[0]
    return LevelExpr(e.kind, children=tuple(uniq))


def _cross(a: LevelExpr, b: LevelExpr) -> LevelExpr:
    """Product of two canonical lattice trees, distributing a over b."""
    if a.kind == MONO:
        return _combine(a.mono, b, Fraction(1))
    if b.kind == MONO:
        return _combine(b.mono, a, Fraction(1))
    return LevelExpr(a.kind, children=tuple(_cross(ch, b) for ch in a.children))


def level_eq(a: LevelExpr, b: LevelExpr) -> bool:
    return canonical(a) == canonical(b)


@dataclass(frozen=True)
class LevelFamily:
    rho_Lambda: dict[int, LevelExpr]     # per action, scale variables only
    strict: dict[int, bool]
    elim_order: tuple[int, ...]

    def json(self):
        return {
            "rho_Lambda": {j: str(canonical(e)) for j, e in
                           sorted(self.rho_Lambda.items())},
            "strict": {j: s for j, s in sorted(self.strict.items())},
        }


def build_levels(pipeline: PipelineResult) -> LevelFamily:
    """Per-action levels: the leftover actions get the max of their solved
    scales stage by stage; restriction substitutes them back in elimination
    order (so scale factors cancel exactly as in the worked examples); the
    selected actions restrict their solved inverses."""
    d, p = pipeline.d, pipeline.p
    if is_fixed_point(d, p):
        raise ValueError("level functions need a point outside fixed points")
    rho_lambda = _level_trees(pipeline)[0]
    strict = {j: is_strict(rho_lambda[j], d, j) for j in range(1, d.ell + 1)}
    return LevelFamily(rho_lambda, strict, pipeline.elim_order)


# An exponent vector (numerators, denominator) over a fixed list of
# variables: the monomial whose exponent of variables[i] is
# numerators[i] / denominator.  The denominator is positive and its gcd
# with all the numerators is 1, so equal monomials have equal vectors.
Vector = tuple[tuple[int, ...], int]


def _reduced(nums, den: int) -> Vector:
    g = gcd(*nums, den)
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


def _vector(m: Monomial, index: dict[Var, int]) -> Vector:
    den = lcm(*(e.denominator for _, e in m.exps))
    nums = [0] * len(index)
    for v, e in m.exps:
        nums[index[v]] = e.numerator * (den // e.denominator)
    return tuple(nums), den


def _vector_key(vec: Vector, variables: tuple[Var, ...]) -> tuple:
    """Monomial.sort_key of the vector's monomial."""
    nums, den = vec
    out = []
    for v, n in zip(variables, nums):
        if n:
            g = gcd(n, den)
            out += (*v._key, n // g, den // g)
    return tuple(out)


def _tau_vector(e: LevelExpr) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A leaf's tau exponents as (den, ((k, numerator), ...)) over a common
    denominator."""
    t = e._taus
    if t is None:
        k = e.key
        den = lcm(*k[3::4])
        t = den, tuple((k[i + 1], k[i + 2] * (den // k[i + 3]))
                       for i in range(0, len(k), 4) if k[i] == _TAU)
        object.__setattr__(e, "_taus", t)
    return t


def _level_trees(pipeline: PipelineResult):
    """The canonical restricted level of every action; the variables of
    the exponent vectors; and per eliminated parameter, in elimination
    order, its coordinate and the branches of its unrestricted level.

    The level of parameter j is the max of its branches lam_j * f^(1/|a|),
    one for each pair of the stage j is eliminated from whose monomial f
    has exponent a < 0 in lam_j.  Restriction substitutes the eliminated
    parameters in elimination order, one monomial leaf at a time, on exact
    integer exponent vectors over the tau's and the eliminated lam's; a
    final leaf is keyed on its vector (see LevelExpr).  The restricted form
    of a leaf from a position of the order is memoised for this call: a
    leaf without the parameter at that position moves on to the next one,
    and any other becomes a max (a min for a negative exponent) over that
    parameter's branches, each restricted from the next position.  As canonical forms
    of max and min nodes depend only on the canonical forms of their
    children, the result equals the canonical form of the whole tree
    substituted parameter by parameter.
    """
    d, r = pipeline.d, pipeline.r
    elim = pipeline.elim_order
    variables = (tuple(tau(k) for k in range(1, d.m + 1))
                 + tuple(lam(j) for j in sorted(elim)))
    index = {v: i for i, v in enumerate(variables)}
    kept = [v.kind == TAU and v.index in r.sel_cols for v in variables]

    steps: list[tuple[int, list[Vector]]] = []
    for j in elim:
        v = lam(j)
        i = index[v]
        branches = set()
        for pr in pipeline.stage_before_lambda(j):
            if pr.f.exponent(v) < 0:
                nums = list(_vector(pr.f, index)[0])
                a = nums[i]
                nums[i] = 0
                branches.add(_reduced(nums, -a))
        steps.append((i, sorted(branches,
                                key=lambda b: _vector_key(b, variables))))

    memo: dict[tuple[Vector, int], LevelExpr] = {}
    action = 0

    def leaf(vec: Vector, pos: int) -> LevelExpr:
        key = (vec, pos)
        out = memo.get(key)
        if out is None:
            nums, den = vec
            if pos == len(steps):
                bad = [v for v, n, ok in zip(variables, nums, kept)
                       if n and not ok]
                if bad:
                    raise AssertionError(
                        f"level for action {action} involves {bad}")
                out = LevelExpr(MONO, _vector_key(vec, variables))
            elif not nums[steps[pos][0]]:
                out = leaf(vec, pos + 1)
            else:
                out = substitute(nums, den, pos)
            memo[key] = out
        return out

    def substitute(nums, den: int, pos: int) -> LevelExpr:
        # m * b^x over the branches b of the parameter, where x is m's
        # exponent of it: m's numerators times b's denominator plus x's
        # numerator times b's numerators, over both denominators.
        i, branches = steps[pos]
        x = nums[i]
        rest = list(nums)
        rest[i] = 0
        if not branches:
            return leaf(_reduced(rest, den), pos + 1)
        kids = [leaf(_reduced([n * bd + x * b for n, b in zip(rest, bn)],
                              den * bd), pos + 1)
                for bn, bd in branches]
        return _lattice(MAX if x > 0 else MIN, kids)

    rho_lambda: dict[int, LevelExpr] = {}
    for action in r.sel_rows:
        rho_lambda[action] = leaf(
            _vector(pipeline.derived.phi_inv[action], index), 0)
    for action, (_, branches) in zip(elim, steps):
        rho_lambda[action] = (_lattice(MAX, [leaf(b, 0) for b in branches])
                              if branches else LEVEL_ONE)
    return rho_lambda, variables, steps


def _lattice(kind: str, kids: list[LevelExpr]) -> LevelExpr:
    """The canonical max or min of canonical trees; one tree is itself."""
    if len(kids) == 1:
        return kids[0]
    return canonical(LevelExpr(kind, children=tuple(kids)))


def effective_exponent(e: LevelExpr, scaling) -> Fraction:
    """Exponent of t in e after scaling tau_k by t^{s_k}; as t -> 0+ a max
    is dominated by its smallest exponent and a min by its largest.

    One pass over the tree in integers: with the scaling over the lcm of
    its denominators, a leaf is one dot product over the leaf's own
    denominator, and nodes compare and add such (numerator, denominator)
    pairs by cross-multiplication.  Shared subtrees are evaluated once
    (memoised by identity for this call), and blocks with zero scaling are
    skipped.
    """
    scale = {k: fr(s) for k, s in scaling.items() if s}
    den = lcm(*(s.denominator for s in scale.values()))
    weight = {k: s.numerator * (den // s.denominator)
              for k, s in scale.items()}
    memo: dict[int, tuple[int, int]] = {}

    def walk(n: LevelExpr) -> tuple[int, int]:
        out = memo.get(id(n))
        if out is None:
            kind = n.kind
            if kind == MONO:
                q, taus = _tau_vector(n)
                p = 0
                for k, x in taus:
                    w = weight.get(k)
                    if w is not None:
                        p += w * x
                out = p, q
            elif kind == POW:
                p, q = walk(n.children[0])
                out = n.exp.numerator * p, n.exp.denominator * q
            elif kind == PROD:
                p, q = 0, 1
                for c in n.children:
                    cp, cq = walk(c)
                    p, q = p * cq + cp * q, q * cq
                out = p, q
            else:
                sign = 1 if kind == MAX else -1
                for c in n.children:
                    p, q = walk(c)
                    if out is None or sign * (p * out[1] - out[0] * q) < 0:
                        out = p, q
            memo[id(n)] = out
        return out

    p, q = walk(e)
    return Fraction(p, q * den)


def is_strict(e: LevelExpr, d: DeformationData, j: int) -> bool:
    """Generic-coefficient limit criterion: the level e of action j decays
    along that action's own contraction orbit."""
    scaling = {k: d.entry(j, k) for k in range(1, d.m + 1)}
    return effective_exponent(e, scaling) > 0


def evaluate_level(e: LevelExpr, tau_values) -> float:
    """Numeric value at strictly positive scales."""
    tree = e._tree
    if tree is None:
        tree = _compile(e)
        object.__setattr__(e, "_tree", tree)
    return _run(tree, tau_values)


def _compile(e: LevelExpr) -> tuple:
    """The tree as nested tuples: (MONO, ((block, float exponent), ...)),
    (POW, child, float exponent), or (kind, children)."""
    if e.kind == MONO:
        k = e.key
        for i in range(0, len(k), 4):
            if k[i] != _TAU:
                raise KeyError(Var(_KINDS[k[i]], k[i + 1]))
        # n / d is the double nearest the exponent, as float(Fraction) is
        return MONO, tuple((k[i + 1], k[i + 2] / k[i + 3])
                           for i in range(0, len(k), 4))
    if e.kind == POW:
        return POW, _compile(e.children[0]), float(e.exp)
    return e.kind, tuple(_compile(c) for c in e.children)


def _run(node: tuple, tau_values) -> float:
    kind = node[0]
    if kind == MONO:
        out = 1.0
        for k, x in node[1]:
            base = float(tau_values[k])
            if base <= 0:
                raise ValueError(f"nonpositive value for {Var(TAU, k)}")
            out *= base ** x
        return out
    if kind == POW:
        return _run(node[1], tau_values) ** node[2]
    vals = [_run(c, tau_values) for c in node[1]]
    if kind == MAX:
        return max(vals)
    if kind == MIN:
        return min(vals)
    out = 1.0
    for v in vals:
        out *= v
    return out


class PermutationBudgetExceeded(RuntimeError):
    pass


MAX_ORDERINGS = 5040


def build_generalized_levels(d: DeformationData, r: RankData,
                             p: PointPattern) -> LevelFamily:
    """Minimum of the level families over all admissible action orderings.

    Orderings whose leading rows are linearly independent each give a
    family; duplicates collapse before the pointwise minimum.  An ordering
    acts only through its set of leading rows and the order of the rest:
    the pipeline is run once per set of leading rows, and each order of
    the rest rebuilds only its elimination stages.  Every action is strict
    with respect to the result, which is asserted.  More than MAX_ORDERINGS
    orderings (ell!) raise PermutationBudgetExceeded before any pipeline
    is built.
    """
    total = 1
    for i in range(2, d.ell + 1):
        total *= i
    if total > MAX_ORDERINGS:
        raise PermutationBudgetExceeded(
            f"{total} orderings exceed the budget of {MAX_ORDERINGS}")
    if is_fixed_point(d, p):
        raise ValueError("level functions need a point outside fixed points")

    families: list[dict[int, LevelExpr]] = []
    seen: set[tuple] = set()
    for lead in combinations(range(1, d.ell + 1), r.L):
        if rank([list(d.row(j)) for j in lead]) < r.L:
            continue
        rr = rank_and_normalize(d, p, fixed_rows=lead)
        pipeline = run_pipeline(d, rr, p)
        rest = [j for j in range(1, d.ell + 1) if j not in lead]
        for order in permutations(rest):
            rho = _level_trees(pipeline.reordered(order))[0]
            key = tuple(rho[j] for j in range(1, d.ell + 1))
            if key not in seen:
                seen.add(key)
                families.append(rho)
    if not families:
        raise ValueError("no admissible ordering: the rank data is inconsistent")

    rho_hat: dict[int, LevelExpr] = {}
    for j in range(1, d.ell + 1):
        rho_hat[j] = canonical(lmin([rho[j] for rho in families]))
    strict = {j: is_strict(rho_hat[j], d, j) for j in range(1, d.ell + 1)}
    if not all(strict.values()):
        raise AssertionError("an action is not strict for the generalized "
                             "family; this contradicts its construction")
    return LevelFamily(rho_hat, strict, ())
