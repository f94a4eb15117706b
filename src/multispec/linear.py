"""Exact rational linear algebra: rank, inverse, solving, cone feasibility.

Everything works over Fraction.  The cone feasibility solver is a small
phase-one simplex with Bland's rule.  It decides radical membership, and
with it equivalence of generating sets, and prunes the integer membership
search.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


Matrix = list[list[Fraction]]
Vector = list[Fraction]


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows) -> Matrix:
    return [[fr(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    m = [row[:] for row in a]
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


def inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(a)
    m = [row[:] + identity(n)[i] for i, row in enumerate(a)]
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


def solve_unique(a: Matrix, b: Vector) -> Vector:
    """Solve a*x = b for square invertible a."""
    inv = inverse(a)
    return [sum(inv[i][j] * b[j] for j in range(len(b))) for i in range(len(inv))]


def in_row_space(rows: Matrix, v: Vector) -> bool:
    return rank(rows + [list(v)]) == rank(rows)


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b) if a and b else max(abs(a), abs(b))


def sigma_for(entries) -> Fraction:
    """Smallest positive rational s with s*a integral for all a and gcd 1.

    With D the lcm of denominators and g the gcd of the integers D*a, the
    answer is D/g.  All-zero input returns 1.
    """
    fracs = [fr(a) for row in entries for a in row]
    nonzero = [a for a in fracs if a != 0]
    if not nonzero:
        return Fraction(1)
    d = 1
    for a in nonzero:
        d = lcm(d, a.denominator)
    g = 0
    for a in nonzero:
        g = gcd(g, abs(int(a * d)))
    return Fraction(d, g)


def nonneg_solution(columns: list[Vector], target: Vector) -> list[Fraction] | None:
    """Find rational x >= 0 with sum x_i * columns[i] = target, or None.

    Phase-one simplex over exact rationals (Bland's rule, always
    terminates).  Returns one feasible point, not a canonical one.
    """
    m = len(target)
    n = len(columns)
    # Tableau rows: [A | I | b] with b >= 0 after sign flips.
    a = [[columns[j][i] for j in range(n)] for i in range(m)]
    b = list(target)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    total = n + m
    rows = [a[i] + [Fraction(int(k == i)) for k in range(m)] + [b[i]] for i in range(m)]
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


def cone_feasible(columns: list[Vector], target: Vector) -> bool:
    return nonneg_solution(columns, target) is not None
