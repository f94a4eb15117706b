"""Exact rational linear algebra: pivots, adjugate, cone feasibility.

Everything eliminates on integers.  One fraction-free Gauss-Jordan step,
`_pivot`, divides exactly by the previous pivot (Bareiss), so every entry
stays a minor of the integer start, and serves three routines: `pivots`
(the pivot columns, whose number is the rank) and `adjugate` (the inverse
over one integer) on integer rows, such as `DeformationData.ints`, and the
phase-one simplex of `nonneg_solution` (Bland's rule), which takes integer
columns and pivots its objective row as one more row.  The simplex decides
radical membership, and with it equivalence of generating sets;
`cone_feasible` poses it on rational columns, the one place besides `fr`
where Fractions come in.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


Vector = list[Fraction]


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _whole_row(row) -> list[int]:
    """The row times the lcm of its denominators: integers, same span."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """One fraction-free Gauss-Jordan step: every row but rows[r] loses its
    column c, dividing exactly by d, the previous pivot (Bareiss).  Returns
    the new pivot, the next step's d."""
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
    return p


def pivots(a) -> list[int]:
    """The pivot columns of the integer rows a in order, 0-based: the
    lexicographically first column basis; their number is the rank.  A
    pivot row is dropped once it has cleared its column from the rows left
    (Bareiss's forward elimination)."""
    m = [list(row) for row in a]
    found: list[int] = []
    d = 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i, row in enumerate(m) if row[c]), None)
        if piv is None:
            continue
        m[0], m[piv] = m[piv], m[0]
        d = _pivot(m, 0, c, d)
        found.append(c)
        m = m[1:]
    return found


def adjugate(a) -> tuple[list[list[int]], int]:
    """The inverse of a square integer matrix over one integer d,
    inverse(a) = adj / d; raises ValueError if singular.

    Fraction-free Gauss-Jordan elimination on [a | I]: the left block ends
    as d*I, d the last pivot, and the right block as d times the inverse."""
    n = len(a)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        d = _pivot(m, c, c, d)
    return [row[n:] for row in m], d


def nonneg_solution(columns: list[list[int]],
                    target: list[int]) -> tuple[list[int], int] | None:
    """Rational x >= 0 with sum x_i * columns[i] = target, for integer
    columns and target: integer numerators over one positive denominator,
    or None.

    Phase-one simplex with Bland's rule (always terminates) on an integer
    tableau: fraction-free pivoting (Bareiss; Edmonds) keeps every entry an
    integer over one divisor d > 0, the current basis's determinant, and
    the ratio test compares cross products.  Positive scalings of columns
    or target keep Bland's path and scale x, so rational callers scale
    first.  Returns one feasible point, not a canonical one."""
    m = len(target)
    n = len(columns)
    total = n + m
    # Tableau rows: [A | I | b] with b >= 0 after sign flips.
    rows = []
    for i, t in enumerate(target):
        sign = -1 if t < 0 else 1
        rows.append([sign * col[i] for col in columns]
                    + [int(k == i) for k in range(m)] + [sign * t])
    basis = [n + i for i in range(m)]
    # Last row: the reduced costs of minimising the sum of artificials,
    # times d, pivoted as one more row; its last entry is minus the
    # objective value.
    rows.append([int(n <= k < total) - sum(row[k] for row in rows)
                 for k in range(total + 1)])
    d = 1
    while True:
        enter = next((j for j in range(total) if rows[m][j] < 0), None)
        if enter is None:
            break
        # Bland: least ratio rhs/entry over positive entries, ties to the
        # least basic column.  Phase one is bounded below, so an entering
        # column has a positive entry.
        leave = None
        for i in range(m):
            if rows[i][enter] > 0 and (leave is None or (
                    rows[i][total] * rows[leave][enter], basis[i])
                    < (rows[leave][total] * rows[i][enter], basis[leave])):
                leave = i
        d = _pivot(rows, leave, enter, d)
        basis[leave] = enter
    if rows[m][total]:
        return None
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rows[i][total]
    return x, d


def cone_feasible(columns: list[Vector], target: Vector) -> bool:
    """Is target a non-negative combination of the rational columns?
    Scaling each column and the target to integers keeps the answer."""
    return nonneg_solution([_whole_row(c) for c in columns],
                           _whole_row(target)) is not None
