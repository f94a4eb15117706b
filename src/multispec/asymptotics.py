"""Expansion index sets, inclusion-exclusion templates, remainder
exponents, induced maps, the numerical estimate harness, and the
two-manifold catalogue."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from .deformation import DeformationData, PointPattern, RankData
from .linear import pivots
from .monomials import tau
from .polynomials import BlockStructure, BlockPolynomial, factorial_multi
from .semigroup import run_pipeline

if TYPE_CHECKING:
    from .levels import LevelExpr, LevelFamily
    from .multicone import MulticoneSystem


def structure_of(d: DeformationData) -> BlockStructure:
    return BlockStructure(tuple(d.block_dims))


def subsets_of_actions(ell: int):
    """All nonempty subsets of the action indices (duplicates untouched)."""
    if ell > 8:
        raise ValueError("inclusion-exclusion over more than 8 actions is "
                         "not supported; reduce duplicated actions first")
    idx = range(1, ell + 1)
    return [frozenset(c) for r in range(1, ell + 1)
            for c in combinations(idx, r)]


def weight_vector(d: DeformationData, struct: BlockStructure, idx,
                  sigma: Fraction) -> tuple[Fraction, ...]:
    """Per-action scaled weight of a monomial: sigma * sum_k a_jk |idx^(k)|."""
    lengths = struct.block_lengths(idx)
    return tuple(sigma * sum(d.entry(j, k) * lengths[k - 1]
                             for k in range(1, d.m + 1))
                 for j in range(1, d.ell + 1))


def subset_label(J) -> str:
    """An action subset as text, e.g. "{1,2}"."""
    return "{" + ",".join(str(j) for j in sorted(J)) + "}"


def constraint_text(d: DeformationData, J, sigma: Fraction) -> list[str]:
    """The weight constraints of the index set of J, one per action, with
    the orders left symbolic: "3*|a1| + 2*|a2| < n1"."""
    out = []
    for j in sorted(J):
        parts = [
            (f"|a{k}|" if d.entry(j, k) == 1 else f"{d.entry(j, k)}*|a{k}|")
            for k in range(1, d.m + 1) if d.entry(j, k) != 0]
        rhs = f"n{j}" if sigma == 1 else f"n{j}/{sigma}"
        out.append(" + ".join(parts) + f" < {rhs}")
    return out


@dataclass(frozen=True)
class IndexSet:
    members: tuple[tuple[int, ...], ...]


def _weight_steps(d: DeformationData, r: RankData, acts) -> list[list[int]]:
    """Per block k, what one more unit of |alpha^(k)| adds to the scaled
    weight of each action in acts (see weight_vector): sigma_A * a_jk, an
    integer, is the integer entry over g = den / sigma_A, the gcd of the
    entries."""
    g = d.den * r.sigma_A.denominator // r.sigma_A.numerator
    return [[d.ints[j - 1][k] // g for j in acts] for k in range(d.m)]


def index_set(d: DeformationData, r: RankData, J, N) -> IndexSet:
    """Block multi-indices supported on the union of the acting blocks whose
    scaled weights fall strictly below the per-action orders."""
    J = frozenset(J)
    if not J:
        raise ValueError("the action subset must be nonempty")
    N = tuple(int(n) for n in N)
    struct = structure_of(d)
    K_J = d.k_union(J)
    coords = [c for c, k in enumerate(struct.coord_blocks) if k in K_J]
    acts = sorted(J)
    block_steps = _weight_steps(d, r, acts)
    steps = [block_steps[struct.coord_blocks[c] - 1] for c in coords]

    def below(w) -> bool:
        return all(x < N[j - 1] for x, j in zip(w, acts))

    members: list[tuple[int, ...]] = []

    def rec(pos: int, idx: list[int], w: list[int]):
        if pos == len(coords):
            members.append(tuple(idx))
            return
        c = coords[pos]
        v = 0
        while below(w):
            nxt = idx[:]
            nxt[c] = v
            rec(pos + 1, nxt, w)
            v += 1
            w = [x + s for x, s in zip(w, steps[pos])]

    if any(n > 0 for n in N):
        zero = [0] * len(acts)
        if below(zero):
            rec(0, [0] * struct.n, zero)
    return IndexSet(tuple(sorted(members)))


CoefficientFamily = dict  # frozenset[int] -> dict[idx -> BlockPolynomial]


def canonical_family(f: BlockPolynomial, d: DeformationData) -> CoefficientFamily:
    """The derivative family: coefficient = matching derivative restricted
    to the vanishing locus of the acting blocks.

    Built in one pass over f's terms per subset J: the derivative of order
    alpha (supported on the acting coordinates), restricted to their zero
    locus, keeps exactly the terms whose acting part is alpha, each with its
    acting part removed and its coefficient times alpha!."""
    struct = f.struct
    fam: CoefficientFamily = {}
    for J in subsets_of_actions(d.ell):
        K_J = d.k_union(J)
        acting = [k in K_J for k in struct.coord_blocks]
        groups: dict[tuple[int, ...], dict] = {}
        for idx, c in f.terms:
            alpha = tuple(i if a else 0 for i, a in zip(idx, acting))
            rest = tuple(0 if a else i for i, a in zip(idx, acting))
            groups.setdefault(alpha, {})[rest] = c * factorial_multi(alpha)
        fam[J] = {alpha: BlockPolynomial.from_dict(struct, terms)
                  for alpha, terms in groups.items()}
    return fam


def app_template(d: DeformationData, r: RankData, N,
                 F: CoefficientFamily) -> BlockPolynomial:
    """Inclusion-exclusion over all nonempty action subsets; duplicated
    actions contribute duplicated terms, exactly as the formula says.

    Each subset J adds, with its sign, coeff * z^alpha / alpha! for every
    index alpha of its family that lies in J's index set (`index_set`):
    supported on the acting blocks K_J, with each scaled weight of an
    action in J below that action's order."""
    struct = structure_of(d)
    N = tuple(int(n) for n in N)
    blocks = struct.coord_blocks
    out: dict[tuple[int, ...], Fraction] = {}
    for J in subsets_of_actions(d.ell):
        sign = 1 if len(J) % 2 == 1 else -1
        acts = sorted(J)
        block_steps = _weight_steps(d, r, acts)
        steps = [block_steps[k - 1] for k in blocks]
        K_J = d.k_union(J)
        idle = [c for c, k in enumerate(blocks) if k not in K_J]
        for alpha, coeff in F.get(J, {}).items():
            if any(alpha[c] for c in idle) or any(
                    sum(a * s[i] for a, s in zip(alpha, steps)) >= N[j - 1]
                    for i, j in enumerate(acts)):
                continue
            c_alpha = Fraction(sign, factorial_multi(alpha))
            for idx, c in coeff.terms:
                key = tuple(x + a for x, a in zip(idx, alpha))
                out[key] = out.get(key, 0) + c_alpha * c
    return BlockPolynomial.from_dict(struct, out)


def remainder_exponent(family: LevelFamily, N, sigma: Fraction) -> LevelExpr:
    """The remainder's level: the product of the per-action levels, each
    raised to its order over the scale, left factored (LEVEL_ONE when every
    order is zero).  canonical() multiplies it out into a max/min tree;
    level_eq and evaluate_level take either form."""
    from .levels import LEVEL_ONE, lpow, lprod

    N = tuple(N)
    factors = []
    for j, e in sorted(family.rho_Lambda.items()):
        n_j = Fraction(N[j - 1])
        if n_j == 0:
            continue
        factors.append(lpow(e, n_j / sigma))
    return lprod(factors) if factors else LEVEL_ONE


@dataclass(frozen=True)
class PolyMapSpec:
    source: DeformationData
    target: DeformationData
    components: tuple[BlockPolynomial, ...]  # one per target coordinate


@dataclass(frozen=True)
class MapCheck:
    ok: bool
    induced: tuple[BlockPolynomial, ...] | None
    reason: str | None = None
    witness: tuple | None = None


def check_map(spec: PolyMapSpec) -> MapCheck:
    """Validate a polynomial map between deformations and extract the
    induced zero-section map: only grading-homogeneous terms survive.

    Fails when a component fails to vanish on the image constraint or a
    monomial's source weights drop below the target column.
    """
    src, tgt = spec.source, spec.target
    if src.ell != tgt.ell:
        return MapCheck(False, None, "action counts differ")
    s_struct = structure_of(src)
    t_struct = structure_of(tgt)
    if len(spec.components) != t_struct.n:
        return MapCheck(False, None, "one component per target coordinate "
                                     "is required")
    # f(M_j) inside N_j: components of acted target blocks vanish when the
    # source's acted blocks vanish.
    for j in range(1, src.ell + 1):
        for coord, k in enumerate(t_struct.coord_blocks):
            if k in tgt.support(j):
                rest = spec.components[coord].restrict_zero(src.support(j))
                if not rest.is_zero:
                    return MapCheck(
                        False, None,
                        f"component {coord} does not map manifold {j} "
                        f"into its target", witness=(j, coord))
    induced = []
    for coord, k in enumerate(t_struct.coord_blocks):
        col = [tgt.entry(j, k) for j in range(1, tgt.ell + 1)]
        kept = {}
        for idx, c in spec.components[coord].terms:
            w = weight_vector(src, s_struct, idx, Fraction(1))
            if any(wj < cj for wj, cj in zip(w, col)):
                return MapCheck(
                    False, None,
                    f"monomial {dict(enumerate(idx))} of component {coord} "
                    f"has weight below the target column on some action",
                    witness=(coord, idx,
                             next(j + 1 for j, (wj, cj) in
                                  enumerate(zip(w, col)) if wj < cj)))
            if all(wj == cj for wj, cj in zip(w, col)):
                kept[idx] = c
        induced.append(BlockPolynomial.from_dict(s_struct, kept))
    return MapCheck(True, tuple(induced))


@dataclass(frozen=True)
class EstimateReport:
    C_fit: float
    C_half: float
    samples: int
    passed: bool
    skipped: int  # sampled points whose remainder bound underflows to 0.0


def verify_estimate(d: DeformationData, r: RankData, p: PointPattern,
                    f: BlockPolynomial, N, samples: int = 2000, eps: float = 0.1,
                    seed: int = 0) -> EstimateReport:
    """Fit the constant in the remainder bound by sampling and re-fit on the
    halved scale; the estimate passes when the constant does not grow by
    more than a factor of two.  The bound at a sampled point is the
    remainder level (`remainder_exponent`, which `expand` prints) evaluated
    there.  A sampled point whose bound is 0.0 cannot bound anything: it is
    left out of the fit and counted in `skipped`, and a fit left with no
    point fails the estimate.  Fewer than one sample, or an eps that
    `sample_members` rejects, raises ValueError."""
    # The layers load before numpy: the other order raises the peak memory
    # of `multispec verify` by about 1 MB.
    from .levels import build_levels, evaluate_level
    from .multicone import build_multicone, sample_members

    import numpy as np

    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    pipeline = run_pipeline(d, r, p)
    rem = remainder_exponent(build_levels(pipeline), N, r.sigma_A)
    diffp = f - app_template(d, r, N, canonical_family(f, d))
    system = build_multicone(pipeline, p, check_equivalence=False)
    rng = np.random.default_rng(seed)
    coord_blocks = structure_of(d).coord_blocks

    def fit(scale: float, n: int) -> tuple[float, int, bool]:
        """The worst ratio, the skipped points, and whether any point was
        used."""
        pts = sample_members(system, n, scale, rng)
        if len(pts) < max(1, n // 4):
            raise RuntimeError(
                f"sampling starvation: {len(pts)} of {n} requested points at "
                f"scale {scale}")
        worst, skipped = 0.0, 0
        for norms in pts:
            bound = evaluate_level(rem, norms)
            if bound == 0.0:
                skipped += 1
                continue
            val = abs(diffp.evaluate([float(norms.get(k, 0.0))
                                      for k in coord_blocks]))
            worst = max(worst, val / bound)
        return worst, skipped, skipped < len(pts)

    c_full, skipped_full, used_full = fit(eps, samples)
    c_half, skipped_half, used_half = fit(eps / 2.0, samples)
    passed = used_full and used_half and c_half <= 2.0 * c_full + 1e-12
    return EstimateReport(c_full, c_half, samples, passed,
                          skipped=skipped_full + skipped_half)


@dataclass(frozen=True)
class TwoManifoldCase:
    label: str
    system: MulticoneSystem
    constraints: dict[str, list[str]]
    family: LevelFamily
    sigma: Fraction

    def remainder_text(self) -> str:
        """Exponent of each block norm as a linear form in the orders."""
        from .levels import canonical

        leaves = {j: canonical(e).mono
                  for j, e in sorted(self.family.rho_Lambda.items())}
        if None in leaves.values():
            return "(not a single monomial; see multispec expand)"
        parts = []
        for k in sorted({v.index for m_ in leaves.values()
                         for v, _ in m_.exps}):
            coeffs = []
            for j, leaf in leaves.items():
                exp = leaf.exponent(tau(k))
                if exp:
                    c = exp / self.sigma
                    coeffs.append(f"n{j}" if c == 1 else f"({c})*n{j}")
            if coeffs:
                parts.append(f"|z{k}|^({' + '.join(coeffs)})")
        return "*".join(parts) if parts else "1"


def classify_two_manifolds(d: DeformationData) -> TwoManifoldCase:
    """Match a normalized 2-row action matrix (`deformation`) against the
    catalogue of two-manifold expansions with at most three blocks."""
    from .levels import build_levels
    from .multicone import build_multicone

    a, m = d.A, d.m
    if d.ell != 2:
        raise ValueError("the catalogue covers exactly two actions")
    if m not in (2, 3):
        raise ValueError("the catalogue covers two or three blocks")
    if len(pivots(d.ints)) < 2:
        raise ValueError("degenerate action: reduces to the one-manifold case")
    if any(all(a[j][k] == 0 for j in range(2)) for k in range(m)):
        raise ValueError("a zero column reduces to fewer blocks")
    if not (a[0][0] == 1 and a[1][1] == 1):
        raise ValueError("normalize the matrix first: unit diagonal via row "
                         "scaling and column order")
    if 1 - a[0][1] * a[1][0] <= 0:
        raise ValueError("normalize the matrix first: the leading minor "
                         "determinant must be positive")
    b, c = a[0][1], a[1][0]
    nonzero = sum(1 for row in a for x in row if x != 0)
    subcase = None
    if m == 2:
        label = f"m=2,N={nonzero}"
    else:
        e, rr = a[0][2], a[1][2]
        if nonzero == 3:
            if e == 0 or rr != 0 or b != 0 or c != 0:
                # catalogue form carries the extra entry in the first row
                if rr != 0 and e == 0 and b == 0 and c == 0:
                    raise ValueError("swap the two actions to reach the "
                                     "catalogue form")
                if e == 0:
                    raise ValueError("out of catalogue: reduces to m = 2")
            if e == 1:
                raise ValueError("the third block duplicates the first: "
                                 "reduces to m = 2")
            label = "m=3,N=3"
        elif nonzero == 4:
            if e != 0 and rr == 0:
                if e == 1:
                    raise ValueError("the third block duplicates the first: "
                                     "reduces to m = 2")
                subcase = "a"
            elif e == 0 and rr != 0:
                subcase = "b"
            else:
                raise ValueError("out of catalogue: reduces to m = 2")
            label = f"m=3,N=4{subcase}"
        elif nonzero == 5:
            if c != 0:
                raise ValueError("out of catalogue form for N = 5")
            if b * rr == e:
                raise ValueError("proportional third block: reduces to m = 2")
            label = "m=3,N=5"
        else:
            if b * rr == e or c * e == rr:
                raise ValueError("proportional third block: reduces to m = 2")
            label = "m=3,N=6"

    pipeline = run_pipeline(d)
    sigma = pipeline.r.sigma_A
    system = build_multicone(pipeline, check_equivalence=False)
    family = build_levels(pipeline)
    constraints = {subset_label(J): constraint_text(d, J, sigma)
                   for J in subsets_of_actions(2)}
    return TwoManifoldCase(label, system, constraints, family, sigma)
