"""Level functions: max/min expression trees measuring per-action decay,
their restriction to the scale graph, strictness, and the permutation-
minimised generalised family."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from operator import mul

from .deformation import (DeformationData, PointPattern, RankData,
                          derive_monomials, is_fixed_point, minor_columns)
from .linear import fr
from .monomials import (KINDS, Monomial, ONE, TAU, ZERO, key_text, key_var,
                        lam, tau, times, vector_key)
from .semigroup import (PipelineResult, Vector, build_G, eliminate_rows,
                        reduced, row_of)

MONO, MAX, MIN, PROD, POW = "mono", "max", "min", "prod", "pow"
_FLIP = {MAX: MIN, MIN: MAX}
_ORDER = {MAX: 1, MIN: 2, PROD: 3, POW: 4}
_TAU = KINDS.index(TAU)


@dataclass(frozen=True, slots=True, init=False)
class LevelExpr:
    """A level tree node.  A MONO leaf is the key of its monomial
    (`Monomial.key`), on which it compares, hashes, sorts and prints, so a
    leaf built from an exponent vector equals lmono of the same Monomial.
    Other nodes hold children, a POW node its exponent."""

    kind: str
    key: tuple[int, ...] = ()
    children: tuple["LevelExpr", ...] = ()
    exp: Fraction | None = None
    # Caches filled on first use, outside every comparison: a leaf's tau
    # exponents over one denominator (see effective_exponent); the hash,
    # the sort key, the canonical form (see canonical) and the float tree
    # (see evaluate_level).
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

    def __init__(self, kind: str, key: tuple[int, ...] = (),
                 children: tuple["LevelExpr", ...] = (),
                 exp: Fraction | None = None):
        # Each slot through its own descriptor: half the cost of the
        # generated frozen __init__, which looks every slot up by name.
        _SET_KIND(self, kind)
        _SET_KEY(self, key)
        _SET_CHILDREN(self, children)
        _SET_EXP(self, exp)
        _SET_TAUS(self, None)
        _SET_HASH(self, None)
        _SET_SORT_KEY(self, None)
        _SET_CANONICAL(self, None)
        _SET_TREE(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.key, self.children, self.exp))
            _SET_HASH(self, h)
        return h

    def __reduce__(self):
        return LevelExpr, (self.kind, self.key, self.children, self.exp)

    @property
    def mono(self) -> Monomial | None:
        """The leaf's Monomial (None for other nodes)."""
        return Monomial(self.key) if self.kind == MONO else None

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
            _SET_SORT_KEY(self, k)
        return k

    def __str__(self) -> str:
        if self.kind == MONO:
            return key_text(self.key)
        if self.kind in (MAX, MIN):
            return f"{self.kind}({', '.join(str(c) for c in self.children)})"
        if self.kind == PROD:
            return " * ".join(f"({c})" for c in self.children)
        return f"({self.children[0]})^({self.exp})"


(_SET_KIND, _SET_KEY, _SET_CHILDREN, _SET_EXP, _SET_TAUS, _SET_HASH,
 _SET_SORT_KEY, _SET_CANONICAL, _SET_TREE) = (
    LevelExpr.__dict__[name].__set__ for name in (
        "kind", "key", "children", "exp", "_taus", "_hash", "_sort_key",
        "_canonical", "_tree"))


def lmono(m) -> LevelExpr:
    if isinstance(m, str):
        from .monomials import mono as parse
        m = parse(m)
    return LevelExpr(MONO, m.key)


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


def _combine(base: tuple, node: LevelExpr, e: Fraction | int) -> LevelExpr:
    """base * node^e for a canonical max/min tree with monomial leaves and
    the key of a monomial base."""
    if e == 0:
        return LevelExpr(MONO, base)
    if node.kind == MONO:
        return LevelExpr(MONO, times(base, node.key, e.numerator,
                                     e.denominator))
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
        _SET_CANONICAL(e, c)
        if c._canonical is None:
            _SET_CANONICAL(c, c)
    return c


def _canonical(e: LevelExpr) -> LevelExpr:
    if e.kind == MONO:
        return e
    if e.kind == POW:
        return canonical(_combine((), canonical(e.children[0]), e.exp))
    if e.kind == PROD:
        mono_part = ()  # the key of the product of the monomial factors
        nodes = []
        for c in e.children:
            c = canonical(c)
            if c.kind == MONO:
                mono_part = times(mono_part, c.key, 1, 1)
            else:
                nodes.append(c)
        if not nodes:
            return LevelExpr(MONO, mono_part)
        nodes.sort(key=lambda n: n.sort_key())
        acc = nodes[0]
        if mono_part:
            acc = _combine(mono_part, acc, 1)
        for n in nodes[1:]:
            acc = _cross(acc, n)
        return canonical(acc)
    return _lattice(e.kind, [canonical(c) for c in e.children])


def _lattice(kind: str, kids: list[LevelExpr]) -> LevelExpr:
    """The canonical max or min of canonical trees, built once: children
    of the same kind flatten, duplicates collapse, children sort; one tree
    is itself."""
    if len(kids) == 1:
        return kids[0]
    children = set()
    for c in kids:
        if c.kind == kind:
            children.update(c.children)
        else:
            children.add(c)
    if len(children) == 1:
        return children.pop()
    out = LevelExpr(kind, children=tuple(sorted(children,
                                                key=LevelExpr.sort_key)))
    _SET_CANONICAL(out, out)
    return out


def _cross(a: LevelExpr, b: LevelExpr) -> LevelExpr:
    """Product of two canonical lattice trees, distributing a over b."""
    if a.kind == MONO:
        return _combine(a.key, b, 1)
    if b.kind == MONO:
        return _combine(b.key, a, 1)
    return LevelExpr(a.kind, children=tuple(_cross(ch, b) for ch in a.children))


def level_eq(a: LevelExpr, b: LevelExpr) -> bool:
    return canonical(a) == canonical(b)


@dataclass(frozen=True)
class LevelFamily:
    rho_Lambda: dict[int, LevelExpr]     # per action, scale variables only
    strict: dict[int, bool]

    def json(self):
        return {
            "rho_Lambda": {j: str(canonical(e)) for j, e in
                           sorted(self.rho_Lambda.items())},
            "strict": {j: s for j, s in sorted(self.strict.items())},
        }


def build_levels(pipeline: PipelineResult) -> LevelFamily:
    """Per-action levels: the leftover actions get the max of their solved
    scales stage by stage (the parameter stages eliminated again from G,
    as rows of monomials); restriction substitutes them back in elimination
    order (so scale factors cancel exactly as in the worked examples); the
    selected actions restrict their solved inverses.

    Strictness is read from the elimination steps, without walking a tree.
    The effective exponent along an integer orbit s is a tropical
    evaluation: a max takes the least exponent of its children, a min the
    greatest, a power scales and a product adds.  Restriction puts m * b^x
    in place of a leaf m whose parameter at a position has exponent x,
    over that position's branches b, under a max for x > 0 and a min for
    x < 0; either way the exponent is that of m plus x times the least
    exponent of a branch.  So, from the last position back, E at a
    position is the least over its branches (nums, den) of

        (sum_k nums[tau_k] s_k + sum_pos' nums[lam_pos'] E[pos']) / den

    over the later positions pos' (a branch holds no other parameter),
    and E = 0 at a step with no branches, whose parameter becomes 1
    (LEVEL_ONE).  An eliminated action's exponent is E at its own
    position, a selected action's the same form of the row of its solved
    inverse, and it is strict when that exponent is positive.  This is
    exactly the value `effective_exponent` walks the restricted tree for,
    and that walk (`is_strict`) is the oracle of this route.
    """
    d, p = pipeline.d, pipeline.p
    if is_fixed_point(d, p, pipeline.r):
        raise ValueError("level functions need a point outside fixed points")
    rho_lambda, variables, steps = next(_level_families(
        d, pipeline.r, pipeline.derived, pipeline.G, [pipeline.elim_order]))
    strict = {j: n > 0 for j, (n, _) in
              _orbit_exponents(pipeline, variables, steps).items()}
    return LevelFamily(rho_lambda, strict)


def _tau_vector(e: LevelExpr) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A leaf's tau exponents as (den, ((k, numerator), ...)) over a common
    denominator."""
    t = e._taus
    if t is None:
        k = e.key
        den = lcm(*k[3::4])
        t = den, tuple((k[i + 1], k[i + 2] * (den // k[i + 3]))
                       for i in range(0, len(k), 4) if k[i] == _TAU)
        _SET_TAUS(e, t)
    return t


def _orbit_exponents(pipeline: PipelineResult, variables,
                     steps) -> dict[int, tuple[int, int]]:
    """Per action j, the effective exponent of its restricted level along
    its own integer orbit d.ints[j - 1], read from the branches of the
    steps (see build_levels), as (p, q) with q > 0; values are integer
    pairs compared by cross-multiplication."""
    d, r = pipeline.d, pipeline.r
    index = {v: i for i, v in enumerate(variables)}
    rows = {j: row_of(pipeline.derived.phi_inv[j], ZERO, index)[:2]
            for j in r.sel_rows}
    position = {j: pos for pos, j in enumerate(pipeline.elim_order)}
    out = {}
    for j in range(1, d.ell + 1):
        s = d.ints[j - 1]
        later: list[tuple[int, int, int]] = []  # (column, p, q) of each E
        at = {}
        for pos in range(len(steps) - 1, -1, -1):
            i, branches = steps[pos]
            e = None
            for b in branches:
                x = _exponent(b, s, later)
                if e is None or x[0] * e[1] < e[0] * x[1]:
                    e = x
            if e is None:
                e = 0, 1  # no branches: the parameter becomes 1
            else:
                g = gcd(*e)
                e = e[0] // g, e[1] // g
            at[pos] = e
            later.append((i, *e))
        out[j] = at[position[j]] if j in position else \
            _exponent(rows[j], s, later)
    return out


def _exponent(vec: Vector, s, later) -> tuple[int, int]:
    """The exponent (p, q), q > 0, of the vector along the tau scaling s
    with each later parameter's column at its exponent; the tau columns
    come first."""
    nums, den = vec
    p, q = sum(map(mul, nums, s)), 1
    for i, ep, eq in later:
        n = nums[i]
        if n:
            p, q = p * eq + n * ep * q, q * eq
    return p, q * den


def _level_families(d: DeformationData, r: RankData, derived, G, orders):
    """For each order of eliminating the unselected parameters from G: the
    canonical restricted level of every action; the variables of the
    exponent vectors; and per eliminated parameter, in elimination order,
    its coordinate and the branches of its unrestricted level.

    Stages are rows over every tau and the eliminated lams (`row_of`).
    The level of a parameter j is the max of its branches lam_j *
    f^(1/|a|), one for each row f with exponent a < 0 in lam_j of the stage
    j is eliminated from.  Restriction substitutes the eliminated
    parameters in elimination order, one monomial leaf at a time, on exact
    integer exponent vectors over the tau's and the eliminated lam's; a
    final leaf is keyed on its vector (see LevelExpr).  A leaf skips the
    steps whose parameter it lacks; its restricted form from the next step
    it has is a max (a min for a negative exponent) over that step's
    branches, each restricted by the steps after.  Each max and min node is
    built in canonical form (`_lattice`).  As canonical forms of max and
    min nodes depend only on the canonical forms of their children, the
    result equals the canonical form of the whole tree substituted
    parameter by parameter.

    The orders share what they have in common.  Each prefix of an order is
    eliminated once, and the step of its last parameter built once.  A
    restricted form depends only on its vector and the chain of steps left
    (and on the tau columns of the minor, fixed here), so equal chains are
    interned as one, (column, branches, next chain, id), and the memo is
    keyed on (vector, chain id): orders share the restriction along every
    equal suffix of their steps, and the selected actions' rows are read
    once.
    """
    index = {v.key(): i for i, v in enumerate(
        [tau(k) for k in range(1, d.m + 1)]
        + [lam(j) for j in sorted(orders[0])])}
    variables = tuple(index)
    width = len(index)
    # The tau columns of the minor, with their variable keys, and the tau
    # columns outside it.  A final leaf has substituted or skipped every
    # parameter, so its lam columns are zero.
    kept = [(i, *v) for i, v in enumerate(variables)
            if v[0] == _TAU and v[1] in r.sel_cols]
    outside = [i for i, v in enumerate(variables)
               if v[0] == _TAU and v[1] not in r.sel_cols]
    selected = [(j, row_of(derived.phi_inv[j], ZERO, index)[:2])
                for j in r.sel_rows]

    after = {(): {row_of(pr.f, ZERO, index) for pr in G}}  # per prefix
    steps: dict[tuple, tuple] = {}   # prefix -> step of its last parameter
    chains: dict[tuple, tuple] = {}  # (step, id of the next chain) -> chain
    memo: dict[tuple[Vector, int], LevelExpr] = {}
    end = (None, (), None, 0)        # the chain with no step left
    action = 0

    def leaf(vec: Vector, chain) -> LevelExpr:
        nums = vec[0]
        while chain is not end and not nums[chain[0]]:
            chain = chain[2]
        key = vec, chain[3]
        out = memo.get(key)
        if out is None:
            out = memo[key] = (final(*vec) if chain is end
                               else substitute(*vec, chain))
        return out

    def final(nums, den: int) -> LevelExpr:
        if outside:
            bad = [key_var(*variables[i]) for i in outside if nums[i]]
            if bad:
                raise AssertionError(
                    f"level for action {action} involves {bad}")
        k = []  # vector_key over the kept columns
        for i, kind, number in kept:
            n = nums[i]
            if n:
                if den == 1:
                    k += (kind, number, n, 1)
                else:
                    g = gcd(n, den)
                    k += (kind, number, n // g, den // g)
        return LevelExpr(MONO, tuple(k))

    def substitute(nums, den: int, chain) -> LevelExpr:
        # m * b^x over the branches b of the parameter, where x is m's
        # exponent of it: m's numerators times b's denominator plus x's
        # numerator times b's numerators, over both denominators; a branch
        # is zero in the parameter's column, which the product clears.
        i, branches, rest_chain, _ = chain
        x = nums[i]
        if not branches:
            rest = list(nums)
            rest[i] = 0
            return leaf(reduced(rest, den), rest_chain)
        kids = []
        for bn, bd in branches:
            if bd == 1:
                vec = [n + x * b for n, b in zip(nums, bn)]
                vd = den
            else:
                vec = [n * bd + x * b for n, b in zip(nums, bn)]
                vd = den * bd
            vec[i] = 0
            if vd != 1:
                g = gcd(*vec, vd)
                if g != 1:
                    vec = [n // g for n in vec]
                    vd //= g
            kids.append(leaf((tuple(vec), vd), rest_chain))
        return _lattice(MAX if x > 0 else MIN, kids)

    for order in orders:
        order_steps = []
        for n, j in enumerate(order):
            prefix = order[:n + 1]
            step = steps.get(prefix)
            if step is None:
                stage = after[order[:n]]
                i = index[lam(j).key()]
                if n + 1 < len(order):
                    after[prefix] = eliminate_rows(stage, i, width, False)
                branches = set()
                for nums, _, _ in stage:
                    a = nums[i]
                    if a < 0:
                        nums = list(nums)
                        nums[i] = 0
                        branches.add(reduced(nums, -a))
                step = steps[prefix] = (i, tuple(sorted(
                    branches, key=lambda b: vector_key(b, variables))))
            order_steps.append(step)
        links = [end]
        for step in reversed(order_steps):
            key = step, links[-1][3]
            chain = chains.get(key)
            if chain is None:
                chain = chains[key] = (*step, links[-1], len(chains) + 1)
            links.append(chain)
        links.reverse()

        rho_lambda: dict[int, LevelExpr] = {}
        for action, vec in selected:
            rho_lambda[action] = leaf(vec, links[0])
        for action, (_, branches, rest, _) in zip(order, links):
            rho_lambda[action] = (
                _lattice(MAX, [leaf(b, rest) for b in branches])
                if branches else LEVEL_ONE)
        yield rho_lambda, variables, order_steps


def effective_exponent(e: LevelExpr, scaling) -> Fraction:
    """Exponent of t in e after scaling tau_k by t^{s_k}; as t -> 0+ a max
    is dominated by its smallest exponent and a min by its largest.

    One pass over the tree in integers: with the scaling over the lcm of
    its denominators, a leaf is one dot product over the leaf's own
    denominator, and nodes compare and add such (numerator, denominator)
    pairs by cross-multiplication.  Shared subtrees are evaluated once
    (memoised by identity for this call), and blocks with zero scaling are
    skipped.

    The walk is as large as the tree.  `build_levels` reads the same value
    for its levels from the elimination steps (a max of restricted
    branches is the least of their exponents, so one value per position
    suffices), and this walk is the oracle of that route.
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
    along that action's own contraction orbit.  The integer row scales
    the exponent by d.den > 0, which keeps its sign.  This walks the tree:
    it is the oracle of `build_levels`, which reads the same exponent from
    its elimination steps, and the check of `build_generalized_levels`,
    whose minimum over orderings has no steps of its own."""
    return effective_exponent(e, dict(enumerate(d.ints[j - 1], 1))) > 0


def evaluate_level(e: LevelExpr, tau_values) -> float:
    """Numeric value at strictly positive scales."""
    tree = e._tree
    if tree is None:
        tree = _compile(e)
        _SET_TREE(e, tree)
    return _run(tree, tau_values)


def _compile(e: LevelExpr) -> tuple:
    """The tree as nested tuples: (MONO, ((block, float exponent), ...)),
    (POW, child, float exponent), or (kind, children)."""
    if e.kind == MONO:
        k = e.key
        for i in range(0, len(k), 4):
            if k[i] != _TAU:
                raise KeyError(key_var(k[i], k[i + 1]))
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
                raise ValueError(f"nonpositive value for {tau(k)}")
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
    G is built once per set of leading rows, and the orders of the rest
    share the stages of their common prefixes, in rows, and the
    restriction along the equal suffixes of their steps (see
    `_level_families`).  Every action is
    strict with respect to the result, which is asserted.  More than
    MAX_ORDERINGS orderings (ell!) raise PermutationBudgetExceeded before
    any G is built.
    """
    total = 1
    for i in range(2, d.ell + 1):
        total *= i
    if total > MAX_ORDERINGS:
        raise PermutationBudgetExceeded(
            f"{total} orderings exceed the budget of {MAX_ORDERINGS}")
    if is_fixed_point(d, p, r):
        raise ValueError("level functions need a point outside fixed points")

    families: list[dict[int, LevelExpr]] = []
    seen: set[tuple] = set()
    for lead in combinations(range(1, d.ell + 1), r.L):
        cols = minor_columns(d, lead)
        if len(cols) < r.L:
            continue
        rr = replace(r, sel_rows=lead, sel_cols=cols)
        derived = derive_monomials(d, rr)
        rest = [j for j in range(1, d.ell + 1) if j not in lead]
        for rho, _, _ in _level_families(d, rr, derived,
                                         build_G(d, rr, p, derived),
                                         list(permutations(rest))):
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
    return LevelFamily(rho_hat, strict)
