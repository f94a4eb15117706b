"""Exact rational linear algebra: rank, inverse, solving, cone feasibility.

Everything takes Fraction input; rank, inverse and the cone feasibility
solver eliminate on integers scaled from it, dividing exactly by the
previous pivot (Bareiss; Edmonds), and build Fractions only for the
answer.  The cone feasibility solver is an integer phase-one simplex,
Bland's rule.  It decides radical membership, and with it equivalence of
generating sets, and prunes the integer membership search.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


Matrix = list[list[Fraction]]
Vector = list[Fraction]


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows) -> Matrix:
    return [[fr(x) for x in row] for row in rows]


def _whole_row(row) -> list[int]:
    """The row times the lcm of its denominators: integers, same span."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def rank(a: Matrix) -> int:
    """Fraction-free elimination (Bareiss) on the rows made integral: each
    step divides exactly by the previous pivot."""
    if not a or not a[0]:
        return 0
    m = [_whole_row(row) for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    d = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, rows):
            f = m[i][c]
            m[i] = [(p * x - f * y) // d for x, y in zip(m[i], top)]
        d = p
        r += 1
        if r == rows:
            break
    return r


def adjugate(a: Matrix) -> tuple[list[list[int]], int]:
    """The inverse of a square matrix over one integer d, inverse(a) =
    adj / d; raises ValueError if singular.

    Fraction-free Gauss-Jordan elimination on [a | I] with each row made
    integral (which leaves the inverse unchanged): each step divides
    exactly by the previous pivot, so the left block ends as d*I, d the
    last pivot, and the right block as d times the inverse."""
    n = len(a)
    m = [_whole_row(list(row) + [int(i == j) for j in range(n)])
         for i, row in enumerate(a)]
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        top = m[c]
        p = top[c]

        def eliminated(row):
            f = row[c]
            return [(p * x - f * y) // d for x, y in zip(row, top)]

        m = [row if i == c else eliminated(row) for i, row in enumerate(m)]
        d = p
    return [row[n:] for row in m], d


def inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    adj, d = adjugate(a)
    return [[Fraction(x, d) for x in row] for row in adj]


def solve_unique(a: Matrix, b: Vector) -> Vector:
    """Solve a*x = b for square invertible a."""
    inv = inverse(a)
    return [sum(inv[i][j] * b[j] for j in range(len(b))) for i in range(len(inv))]


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


def nonneg_solution(columns: list[Vector], target: Vector) -> list[Fraction] | None:
    """Find rational x >= 0 with sum x_i * columns[i] = target, or None.

    Phase-one simplex with Bland's rule (always terminates) on an integer
    tableau: columns and target are scaled by the lcm of their
    denominators, and fraction-free pivoting (Bareiss; Edmonds) keeps every
    entry an integer over one common divisor d, the determinant of the
    current basis.  Returns one feasible point, not a canonical one.
    """
    m = len(target)
    n = len(columns)
    total = n + m
    scale = lcm(*(x.denominator for col in columns for x in col),
                *(t.denominator for t in target))

    def whole(x) -> int:
        return x.numerator * (scale // x.denominator)

    # Tableau rows: [A | I | b] with b >= 0 after sign flips.
    rows = []
    for i, t in enumerate(target):
        sign = -1 if t < 0 else 1
        rows.append([sign * whole(col[i]) for col in columns]
                    + [int(k == i) for k in range(m)] + [sign * whole(t)])
    basis = [n + i for i in range(m)]
    # Reduced costs of minimising the sum of artificials, times d; the last
    # entry is minus the objective value.
    reduced = [int(n <= k < total) - sum(row[k] for row in rows)
               for k in range(total + 1)]
    d = 1
    while True:
        enter = next((j for j in range(total) if reduced[j] < 0), None)
        if enter is None:
            break
        # Bland: least ratio rhs/entry over positive entries, ties to the
        # least basic column.  Phase one is bounded below, so an entering
        # column has a positive entry.
        leave = min((i for i, row in enumerate(rows) if row[enter] > 0),
                    key=lambda i: (Fraction(rows[i][total], rows[i][enter]),
                                   basis[i]))
        pivot_row = rows[leave]
        p = pivot_row[enter]

        # exact: every entry stays a minor of the scaled starting tableau
        def eliminated(row):
            f = row[enter]
            return [(p * a - f * b) // d for a, b in zip(row, pivot_row)]

        rows = [row if i == leave else eliminated(row)
                for i, row in enumerate(rows)]
        reduced = eliminated(reduced)
        basis[leave] = enter
        d = p
    if reduced[total]:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[i][total], d)
    return x


def cone_feasible(columns: list[Vector], target: Vector) -> bool:
    return nonneg_solution(columns, target) is not None
