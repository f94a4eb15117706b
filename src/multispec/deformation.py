"""The action matrix, its validation/classification, block coordinates,
derived monomials, base-point zero patterns, and the fixed-point test."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, inf, lcm

from .linear import adjugate, fr, pivots
from .monomials import Monomial, lam, tau, vector_key


class ActionClass(Enum):
    DEGENERATE = "degenerate"
    NON_DEGENERATE = "non-degenerate"
    TRANSITIVE = "transitive"
    NORMAL = "normal"


class IdentityActionError(ValueError):
    """A zero row would make that action the identity; callers must drop it."""


@dataclass(frozen=True)
class DeformationData:
    """An ell x m matrix of non-negative rationals defining the actions.

    Row j scales block k by lambda_j^{a_jk}; the blocks that vanish on the
    j-th manifold are that row's support.

    The matrix is held twice: A as Fractions, which printing, JSON and
    `entry` read, and, computed once, ints, its integer rows over one
    positive denominator den (A = ints / den, den the lcm of A's
    denominators), which every exact computation reads.
    """

    ell: int
    m: int
    A: tuple[tuple[Fraction, ...], ...]
    block_dims: tuple[int, ...]
    complement_block: frozenset[int] = frozenset()
    ints: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                              compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        den = lcm(*(x.denominator for row in self.A for x in row))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", tuple(
            tuple(x.numerator * (den // x.denominator) for x in row)
            for row in self.A))

    def entry(self, j: int, k: int) -> Fraction:
        return self.A[j - 1][k - 1]

    def support(self, j: int) -> frozenset[int]:
        return frozenset(k for k, x in enumerate(self.ints[j - 1], 1) if x)

    def k_union(self, J) -> frozenset[int]:
        """K_J: the blocks that vanish on some manifold of J."""
        return frozenset().union(*(self.support(j) for j in J))


def _naturals(value, top) -> bool:
    """Is value a list (or tuple or set) of natural numbers 1..top?"""
    return isinstance(value, (list, tuple, set, frozenset)) and all(
        type(x) is int and 1 <= x <= top for x in value)


def deformation(rows, block_dims=None, K_sets=None,
                complement_block=frozenset()) -> DeformationData:
    """The validated action matrix.  K_sets, when given, lists one set of
    blocks per action, which must be that row's support: it is checked,
    not stored."""
    if not (isinstance(rows, (list, tuple)) and all(
            isinstance(row, (list, tuple)) for row in rows)):
        raise ValueError("the action matrix must be a list of rows, each a "
                         f"list, not {json.dumps(rows, default=repr)}")
    a = [[fr(x) for x in row] for row in rows]
    ell = len(a)
    if ell == 0:
        raise ValueError("need at least one action row")
    m = len(a[0])
    if any(len(row) != m for row in a):
        raise ValueError("ragged action matrix")
    if any(x < 0 for row in a for x in row):
        raise ValueError("action exponents must be non-negative")
    for j, row in enumerate(a, start=1):
        if all(x == 0 for x in row):
            raise IdentityActionError(
                f"row {j} is zero, so that action is the identity; "
                "remove the redundant deformation parameter first")
    seen = {}
    for j, row in enumerate(a, start=1):
        key = tuple(row)
        if key in seen:
            warnings.warn(
                f"rows {seen[key]} and {j} coincide; duplicated actions are "
                "allowed in the local model but can be eliminated",
                stacklevel=2)
        else:
            seen[key] = j
    dims = [1] * m if block_dims is None else block_dims
    if not (isinstance(dims, (list, tuple)) and len(dims) == m
            and all(type(d) is int and d >= 1 for d in dims)):
        raise ValueError(
            "block_dims must list a natural number of at least 1 per block, "
            f"not {json.dumps(dims, default=repr)}")
    if not _naturals(complement_block, inf):
        raise ValueError(
            "complement must list natural numbers of at least 1, not "
            f"{json.dumps(complement_block, default=repr)}")
    d = DeformationData(ell, m, tuple(tuple(row) for row in a), tuple(dims),
                        frozenset(complement_block))
    if K_sets is None:
        return d
    if not (isinstance(K_sets, (list, tuple)) and len(K_sets) == ell
            and all(_naturals(s, m) for s in K_sets)):
        raise ValueError(f"K must list one set of blocks 1..{m} per action, "
                         f"not {json.dumps(K_sets, default=repr)}")
    for j, k_set in enumerate(K_sets, 1):
        if frozenset(k_set) != d.support(j):
            raise ValueError(
                f"fixed-point condition violated on row {j}: nonzero "
                f"entries {sorted(d.support(j))} must match K set "
                f"{sorted(k_set)}")
    return d


def build_from_index_family(I_sets) -> DeformationData:
    """Blocks = equivalence classes of coordinates sharing the same manifold
    membership pattern; the matrix is the 0/1 incidence of classes in sets."""
    sets = [frozenset(s) for s in I_sets]
    if not sets:
        raise ValueError("need at least one index set")
    universe = set().union(*sets)
    if not universe:
        raise ValueError("the index sets are all empty")
    classes: dict[tuple[bool, ...], list[int]] = {}
    for i in sorted(universe):
        pattern = tuple(i in s for s in sets)
        classes.setdefault(pattern, []).append(i)
    ordered = sorted(classes.values(), key=min)
    rows = [[Fraction(int(set(cls) <= s)) for cls in ordered] for s in sets]
    dims = [len(cls) for cls in ordered]
    ks = [frozenset(k + 1 for k, cls in enumerate(ordered) if set(cls) <= s)
          for s in sets]
    top = max(universe)
    complement = frozenset(i for i in range(1, top + 1) if i not in universe)
    return deformation(rows, block_dims=dims, K_sets=ks, complement_block=complement)


@dataclass(frozen=True)
class PointPattern:
    """Zero pattern of a base point: which block directions vanish.

    norms give |xi^(k)| for the nonzero blocks (used numerically and, when
    not normalized, symbolically via the norm symbols); normalized means
    the selected nonzero blocks are rescaled to unit norm.
    """

    zero_blocks: frozenset[int]
    norms: dict[int, float] = field(default_factory=dict)
    normalized: bool = True


def point(zero_blocks=(), norms=None, normalized=True) -> PointPattern:
    return PointPattern(frozenset(zero_blocks), dict(norms or {}), normalized)


def check_point(d: DeformationData, p: PointPattern) -> None:
    """The point fits the matrix: a block with a zero column vanishes,
    and every zero block and every norm names a block of the matrix, with
    a positive norm."""
    for k in range(1, d.m + 1):
        if k not in p.zero_blocks and not any(row[k - 1] for row in d.ints):
            raise ValueError(
                f"block {k} has a zero column, so its direction must vanish")
    for k in p.zero_blocks:
        if type(k) is not int or not 1 <= k <= d.m:
            raise ValueError(f"zero block {json.dumps(k, default=repr)} "
                             "out of range")
    for k, norm in p.norms.items():
        if not 1 <= k <= d.m:
            raise ValueError(f"norm of block {k} out of range")
        if not norm > 0:
            raise ValueError(f"norm of block {k} is {norm}, not positive")


def classify_action(d: DeformationData) -> ActionClass:
    r = len(pivots(d.ints))
    if r == d.ell == d.m:
        return ActionClass.NORMAL
    if r == d.ell < d.m:
        return ActionClass.NON_DEGENERATE
    if r == d.m < d.ell:
        return ActionClass.TRANSITIVE
    return ActionClass.DEGENERATE


def is_fixed_point(d: DeformationData, p: PointPattern, r: RankData) -> bool:
    """Does the action lose rank on the point's live blocks?  r is the rank
    data of d (`rank_and_normalize`), whose L is the rank of d.A."""
    check_point(d, p)
    return len(pivots([[x for k, x in enumerate(row, 1)
                        if k not in p.zero_blocks] for row in d.ints])) < r.L


@dataclass(frozen=True)
class RankData:
    """Rank, the chosen invertible minor, and the integrality scale.

    sel_rows/sel_cols list the L rows and columns of the minor in increasing
    order.  sigma_A is the least positive rational that makes every entry
    an integer with gcd 1: den over the gcd of the integer rows.
    """

    L: int
    sel_rows: tuple[int, ...]
    sel_cols: tuple[int, ...]
    sigma_A: Fraction


def minor_columns(d: DeformationData, rows) -> tuple[int, ...]:
    """The pivot columns of the given rows: the lexicographically first
    columns that make an invertible minor with them, when there are as many
    as rows."""
    return tuple(k + 1 for k in pivots([d.ints[j - 1] for j in rows]))


def rank_and_normalize(d: DeformationData, p: PointPattern) -> RankData:
    """The invertible L x L minor on the pivot rows of the matrix (those of
    its transpose) and their pivot columns.  Greedy bases of a matroid are
    its lexicographically first (Edmonds), so these are the first L rows
    and, on them, the first L columns that give an invertible minor."""
    check_point(d, p)
    rows = tuple(j + 1 for j in pivots(list(zip(*d.ints))))
    return RankData(len(rows), rows, minor_columns(d, rows),
                    Fraction(d.den, gcd(*(x for row in d.ints for x in row))))


@dataclass(frozen=True)
class DerivedMonomials:
    """The solved phi_j^{-1} (in tau', lambda'') and the lambda-free
    quotients psi_k, all over original labels."""

    phi_inv: dict[int, Monomial]
    psi: dict[int, Monomial]


def derive_monomials(d: DeformationData, r: RankData) -> DerivedMonomials:
    """The solved inverses and the quotients, in integers: with the
    matrix as its integer rows over d.den and the inverse of their minor as
    adj / den (`adjugate`), every exponent is an integer over den.  Each
    column, solved on the selected rows, must give back its other rows: a
    selected column as a unit vector, which is the round trip (2.9), and
    any other as the span of the selected columns.  Both are checked as
    integer identities.  Each monomial is built from its integer exponents
    as its key (`vector_key`)."""
    taus = [tau(k).key() for k in range(1, d.m + 1)]
    lams = [lam(j).key() for j in range(1, d.ell + 1)]
    a, scale = d.ints, d.den
    sel_rows, sel_cols = r.sel_rows, r.sel_cols
    unsel_rows = [j for j in range(1, d.ell + 1) if j not in sel_rows]
    adj, den = adjugate([[a[j - 1][k - 1] for k in sel_cols]
                         for j in sel_rows])
    if den < 0:  # a key's denominators are positive
        adj, den = [[-x for x in row] for row in adj], -den

    def mono(exps) -> Monomial:  # (variable key, numerator) in key order
        return Monomial(vector_key(([n for _, n in exps], den),
                                   [v for v, _ in exps]))

    def lower(i, col):  # row i over the selected columns, times col
        return sum(a[i - 1][k - 1] * x for k, x in zip(sel_cols, col))

    phi_inv = {j: mono([(taus[k - 1], x * scale) for k, x in zip(sel_cols, col)]
                       + [(lams[i - 1], -lower(i, col)) for i in unsel_rows])
               for j, col in zip(sel_rows, zip(*adj))}
    psi: dict[int, Monomial] = {}
    for k in range(1, d.m + 1):
        alpha = [sum(x * a[j - 1][k - 1] for x, j in zip(row, sel_rows))
                 for row in adj]
        unit = [den * (kk == k) for kk in sel_cols]
        if k in sel_cols and alpha != unit or any(
                a[i - 1][k - 1] * den != lower(i, alpha) for i in unsel_rows):
            raise AssertionError("round-trip identity failed; singular data"
                                 if k in sel_cols else f"column {k} is not "
                                 "spanned by the selected columns")
        if k not in sel_cols:
            psi[k] = mono(sorted([(taus[k - 1], den)] + [
                (taus[kk - 1], -x) for kk, x in zip(sel_cols, alpha)]))

    return DerivedMonomials(phi_inv, psi)


@dataclass(frozen=True)
class BundleSummand:
    block: int
    B_k: frozenset[int]
    ambient: str       # N_k as text
    text: str          # full quotient description


def _manifold_name(j: int) -> str:
    return f"M{j}"


def bundle_decomposition(d: DeformationData) -> list[BundleSummand]:
    """Per block: the acting set B_k and the quotient-bundle description.

    Only transitive-type actions carry this vector-bundle structure; other
    inputs are rejected (the clean-but-not-transverse two-plane family is
    the standard counterexample).
    """
    cls = classify_action(d)
    if cls not in (ActionClass.TRANSITIVE, ActionClass.NORMAL):
        raise ValueError(
            "no vector-bundle structure guaranteed: the action is "
            f"{cls.value}, not transitive (cf. the clean two-plane family "
            "where the zero section is not a bundle)")
    all_rows = frozenset(range(1, d.ell + 1))
    full_union = d.k_union(all_rows)
    out = []
    for k in range(1, d.m + 1):
        bk = frozenset(j for j in all_rows if d.entry(j, k) != 0)
        ambient_zero = d.k_union(all_rows - bk)
        if bk == all_rows:
            ambient = "X"
        else:
            ambient = " ∩ ".join(_manifold_name(j)
                                 for j in sorted(all_rows - bk))
        terms = []
        for j in sorted(bk):
            inter_zero = d.support(j) | ambient_zero
            if inter_zero == full_union:
                continue  # the term collapses to TM and is absorbed
            piece = _manifold_name(j) if ambient == "X" else \
                f"({_manifold_name(j)} ∩ {ambient})"
            terms.append(f"T{piece}×M")
        if terms:
            text = f"T{ambient}×M / ({' + '.join(terms)} + TM)"
        else:
            text = f"T_M {ambient}"
        out.append(BundleSummand(k, bk, ambient, text))
    return out
