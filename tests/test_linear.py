from copy import deepcopy
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

import multispec.linear
import multispec.semigroup
import oracles
from multispec.deformation import deformation, point
from multispec.fixtures import run_fixtures
from multispec.linear import (_pivot, adjugate, cone_feasible,
                              nonneg_solution, pivots)
from multispec.semigroup import Verdict, equivalent, run_pipeline


def _solve(cols, target):
    """nonneg_solution on a rational system scaled to integers by one lcm,
    with its answer as Fractions: a uniform positive scale keeps x."""
    scale = lcm(*(Fraction(x).denominator for c in (*cols, target) for x in c))
    found = nonneg_solution([[int(x * scale) for x in c] for c in cols],
                            [int(t * scale) for t in target])
    return None if found is None else [Fraction(a, found[1])
                                       for a in found[0]]


def _ints(a):
    """The rational matrix a as integer rows over one positive scale."""
    scale = lcm(*(x.denominator for row in a for x in row))
    return [[int(x * scale) for x in row] for row in a], scale


_RANK_ENTRIES = st.sampled_from(
    [Fraction(x) for x in ("0", "0", "0", "1/3", "-1/2", "1", "-1", "3/2",
                           "2", "-3", "5/7", "-12/5")])


@st.composite
def _rank_matrices(draw):
    """Matrices up to 7 x 5 with zero rows and columns, duplicated and
    scaled rows, in shuffled order."""
    n_cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_RANK_ENTRIES, min_size=n_cols,
                                  max_size=n_cols), min_size=1, max_size=4))
    for kind, src, c in draw(st.lists(st.tuples(
            st.sampled_from(("zero row", "duplicate", "scaled")),
            st.integers(0, 3), _RANK_ENTRIES), max_size=3)):
        if kind == "zero row":
            rows.append([Fraction(0)] * n_cols)
        elif kind == "duplicate":
            rows.append(list(rows[src % len(rows)]))
        else:
            rows.append([c * x for x in rows[src % len(rows)]])
    for k in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in rows:
            row[k] = Fraction(0)
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_rank_matrices())
@example([])
@example([[]])
@example([[Fraction(0), Fraction(2, 3), Fraction(-1)]])
@example([[Fraction(0)], [Fraction(1, 2)], [Fraction(-3)]])
@example([[Fraction(0)] * 3] * 2)
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)],
          [Fraction(0), Fraction(5, 7)]])
def test_integer_rank_matches_fraction_oracle(a):
    # the pivot columns are the lexicographically first independent ones
    cols = pivots(_ints(a)[0])
    assert len(cols) == oracles.rank(a)
    assert cols == sorted(cols)
    for c in range(len(a[0]) if a else 0):
        prefix = [row[:c + 1] for row in a]
        assert (c in cols) == \
            (oracles.rank(prefix) > oracles.rank([row[:c] for row in a]))
    t = [list(col) for col in zip(*a)]
    assert len(pivots(_ints(t)[0])) == oracles.rank(t)
    if a and a[0]:
        assert len(pivots(_ints(t)[0])) == len(cols)


@st.composite
def _square_matrices(draw):
    """Square matrices of size 1 to 5; a duplicated, scaled or zero row
    makes some of them singular."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_RANK_ENTRIES, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        rows[dst] = [draw(_RANK_ENTRIES) * x for x in rows[src]]
    return rows


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
@example([[Fraction(1, 2)]])
@example([[Fraction(0)]])
@example([[Fraction(0), Fraction(2, 3)], [Fraction(-5, 7), Fraction(0)]])
@example([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]])
def test_fraction_free_inverse_matches_fraction_oracle(a):
    try:
        want = oracles.inverse(a)
    except ValueError:
        with pytest.raises(ValueError):
            adjugate(_ints(a)[0])
        return
    # the inverse of scale * a is inverse(a) / scale
    ints, scale = _ints(a)
    adj, d = adjugate(ints)
    assert [[Fraction(x * scale, d) for x in row] for row in adj] == want
    n = len(a)
    assert [[sum(adj[i][k] * ints[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[d * (i == j) for j in range(n)]
                                   for i in range(n)]


def test_rank_and_inverse():
    assert pivots([[1, 2], [2, 4]]) == [0]
    assert pivots([[1, 0], [0, 1]]) == [0, 1]
    # an empty matrix, zero-width rows, a zero column
    assert pivots([]) == []
    assert pivots([[], []]) == []
    assert pivots([[0, 1], [0, 2], [0, 3]]) == [1]
    # a rank-deficient rectangular matrix: the third row is the sum of the
    # first two, and column 2 is twice column 1
    assert pivots([[1, 2, 0, 1], [1, 2, 1, 0], [2, 4, 1, 1]]) == [0, 2]
    adj, d = adjugate([[3, 2], [1, 1]])
    assert [[Fraction(x, d) for x in row] for row in adj] == \
        [[1, -2], [-1, 3]]
    with pytest.raises(ValueError):
        adjugate([[1, 1], [1, 1]])
    # the solve of m x = (1, 0)
    assert [Fraction(sum(x * b for x, b in zip(row, [1, 0])), d)
            for row in adj] == [Fraction(1), Fraction(-1)]


def test_sigma_examples():
    # the Fraction oracle that rank_and_normalize's sigma_A is checked
    # against (test_deformation.py)
    assert oracles.sigma_for([[3, 2], [1, 1]]) == 1
    assert oracles.sigma_for([[Fraction(1, 2), 1], [0, 1]]) == 2
    assert oracles.sigma_for([[0, 0]]) == 1
    assert oracles.sigma_for([[Fraction(2, 1), Fraction(4, 1)]]) == \
        Fraction(1, 2)


def test_nonneg_solution_exactness():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)],
            [Fraction(-1), Fraction(2)]]
    target = [Fraction(1), Fraction(5)]
    x = _solve(cols, target)
    assert x is not None and all(xi >= 0 for xi in x)
    for i in range(2):
        assert sum(x[j] * cols[j][i] for j in range(3)) == target[i]


def test_nonneg_solution_against_float_lp():
    rng = np.random.default_rng(321)
    agree = 0
    for _ in range(200):
        n_cols = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        cols = [[Fraction(int(rng.integers(-3, 4))) for _ in range(dim)]
                for _ in range(n_cols)]
        target = [Fraction(int(rng.integers(-4, 5))) for _ in range(dim)]
        exact = _solve(cols, target)
        a_eq = np.array([[float(cols[j][i]) for j in range(n_cols)]
                         for i in range(dim)])
        res = scipy.optimize.linprog(
            c=np.zeros(n_cols), A_eq=a_eq,
            b_eq=np.array([float(t) for t in target]),
            bounds=[(0, None)] * n_cols, method="highs")
        if exact is not None:
            assert res.status == 0, (cols, target)
            for i in range(dim):
                assert sum(exact[j] * cols[j][i]
                           for j in range(n_cols)) == target[i]
            assert all(x >= 0 for x in exact)
        else:
            assert res.status != 0, (cols, target)
        agree += 1
    assert agree == 200


def test_cone_feasible_scaling_invariance():
    cols = [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]
    target = [Fraction(2), Fraction(1)]
    assert cone_feasible(cols, target)
    assert cone_feasible(cols, [4 * t for t in target])
    bad = [Fraction(-1), Fraction(0)]
    assert not cone_feasible(cols, bad)
    assert not cone_feasible(cols, [3 * t for t in bad])


ENTRIES = [Fraction(x) for x in ("0", "1/3", "-1/3", "1/2", "-1/2", "1", "-1",
                                 "3/2", "-3/2", "2", "3")]


@st.composite
def systems(draw):
    """Random rational systems, with zero and duplicate columns mixed in."""
    m = draw(st.integers(0, 4))
    vec = st.lists(st.sampled_from(ENTRIES), min_size=m, max_size=m)
    cols = draw(st.lists(vec, max_size=6))
    if draw(st.booleans()):
        cols.append([Fraction(0)] * m)
    if cols and draw(st.booleans()):
        cols.append(list(draw(st.sampled_from(cols))))
    order = draw(st.permutations(range(len(cols))))
    return [cols[j] for j in order], draw(vec)


# Beale's cycling example in equality form, structural columns before the
# slacks: two of its three targets are zero, so its pivots are degenerate.
BEALE = ([[Fraction(1, 4), Fraction(1, 2), Fraction(0)],
          [Fraction(-8), Fraction(-12), Fraction(0)],
          [Fraction(-1), Fraction(-1, 2), Fraction(1)],
          [Fraction(9), Fraction(3), Fraction(0)],
          [Fraction(1), Fraction(0), Fraction(0)],
          [Fraction(0), Fraction(1), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(1)]],
         [Fraction(0), Fraction(0), Fraction(1)])

# A ratio tie that only the basic-column rule breaks the oracle's way.
TIE = ([[Fraction(3, 2), Fraction(-1, 3), Fraction(2)],
        [Fraction(-3, 2), Fraction(3), Fraction(1)],
        [Fraction(1, 3), Fraction(-3, 2), Fraction(1)],
        [Fraction(0), Fraction(-1, 2), Fraction(-1, 3)],
        [Fraction(-1, 3), Fraction(3), Fraction(-1, 2)],
        [Fraction(-1, 2), Fraction(2), Fraction(3, 2)]],
       [Fraction(-3, 2), Fraction(0), Fraction(0)])


@settings(max_examples=300, deadline=None)
@given(systems())
@example(([], []))
@example(([[], []], []))
@example(([], [Fraction(0), Fraction(0)]))
@example(([], [Fraction(-1), Fraction(0)]))
@example(BEALE)
@example(TIE)
def test_integer_simplex_matches_fraction_oracle(system):
    cols, target = system
    got = _solve(cols, target)
    assert got == oracles.nonneg_solution(cols, target)
    if got is not None:
        assert all(x >= 0 for x in got)
        assert all(sum(x * c[i] for x, c in zip(got, cols)) == target[i]
                   for i in range(len(target)))


def test_ratio_tie_goes_to_the_least_basic_column():
    # Pivots: column 1 enters (ratios 1 and 0, no tie), then column 3 with
    # rows 0 and 2 tied at ratio 0 (degenerate), holding basic columns 4
    # (an artificial) and 1.  The integer cross products must see the tie
    # and give row 2 the pivot, as the Fraction-keyed rule does; row 0
    # would end at x = (0, 2/3, 1, 1/3).
    cols = [[-1, 0, 0], [-1, 1, 1], [0, 0, -1], [2, 1, 1]]
    x, d = nonneg_solution(cols, [0, 1, 0])
    assert [Fraction(a, d) for a in x] == \
        oracles.nonneg_solution(cols, [0, 1, 0]) == [2, 0, 1, 1]


def test_replayed_calls_match_fraction_oracle(monkeypatch):
    """Every LP that the fixtures and the 2x4 lineality case pose, on
    integer columns, gets the same point from both simplexes."""
    calls = []
    real = nonneg_solution

    def recording(columns, target):
        calls.append(([list(c) for c in columns], list(target)))
        return real(columns, target)

    monkeypatch.setattr(multispec.linear, "nonneg_solution", recording)
    monkeypatch.setattr(multispec.semigroup, "nonneg_solution", recording)
    assert all(check.ok for _, check in run_fixtures())
    d = deformation([[2, 1, Fraction(3, 2), 1], [2, Fraction(1, 2), 2, 0]])
    pl = run_pipeline(d, None, point(zero_blocks={2}))
    assert equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L) is Verdict.YES
    assert len(calls) > 20
    for columns, target in calls:
        found = real(columns, target)
        assert (found and [Fraction(a, found[1]) for a in found[0]]) == \
            oracles.nonneg_solution(columns, target), (columns, target)


def test_a_clear_row_is_only_rescaled():
    # rows[1] has no entry in the pivot column: with p == d it is left as
    # it is, with p != d it is scaled by p / d, exactly
    rows = [[1, 2], [0, 5], [3, 4]]
    clear = rows[1]
    assert _pivot(rows, 0, 0, 1) == 1
    assert rows == [[1, 2], [0, 5], [0, -2]] and rows[1] is clear
    rows = [[2, 2], [0, 5], [3, 4]]
    assert _pivot(rows, 0, 0, 1) == 2
    assert rows == [[2, 2], [0, 10], [0, 2]] and clear == [0, 5]
    # the second step of adjugate([[2, 0], [0, 3]]): the first row is
    # clear in column 1 and 6 * x / 2 is whole
    rows = [[2, 0, 1, 0], [0, 6, 0, 2]]
    assert _pivot(rows, 1, 1, 2) == 6
    assert rows == [[6, 0, 3, 0], [0, 6, 0, 2]]


_SPARSE_ENTRIES = st.sampled_from(
    [Fraction(0)] * 8 + [Fraction(x) for x in ("1", "-1", "2", "-3", "1/2",
                                               "3/2")])


@st.composite
def _sparse_systems(draw):
    """Zero-heavy matrices up to 5 x 5, and a target as long as a row: most
    rows are already clear in the column of a pivot."""
    n_cols = draw(st.integers(1, 5))
    row = st.lists(_SPARSE_ENTRIES, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=1, max_size=5)), draw(row)


_UNIT = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


@settings(max_examples=300, deadline=None)
@given(_sparse_systems())
# each pivot leaves the other, clear rows as they are (p == d)
@example((_UNIT, [Fraction(1), Fraction(0), Fraction(2)]))
# each pivot rescales the other, clear rows (p != d)
@example(([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
          [Fraction(1), Fraction(1)]))
# both: with target (1, 2) the simplex pivots on 1 (= d), then on 2
@example(([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],
          [Fraction(1), Fraction(2)]))
@example(([[Fraction(0), Fraction(0), Fraction(-3)],
           [Fraction(1, 2), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(2), Fraction(0)]],
          [Fraction(0), Fraction(-1), Fraction(3, 2)]))
def test_clear_rows_match_fraction_oracles(system):
    a, target = system
    ints, scale = _ints(a)
    given_rows = deepcopy(ints)
    cols = pivots(ints)
    assert ints == given_rows
    assert len(cols) == oracles.rank(a)
    assert all(oracles.rank([row[:c + 1] for row in a])
               > oracles.rank([row[:c] for row in a]) for c in cols)
    # the leading square block; its inverse is inverse(a) / scale
    n = min(len(a), len(a[0]))
    square = [row[:n] for row in ints[:n]]
    try:
        want = oracles.inverse([row[:n] for row in a[:n]])
    except ValueError:
        with pytest.raises(ValueError):
            adjugate(square)
    else:
        adj, d = adjugate(square)
        assert [[Fraction(x * scale, d) for x in row] for row in adj] == want
    assert square == [row[:n] for row in given_rows[:n]]
    # the rows of a as columns, scaled with the target by one lcm
    (*columns, t), _ = _ints([*a, target])
    given_system = deepcopy((columns, t))
    found = nonneg_solution(columns, t)
    assert (columns, t) == given_system
    assert (found and [Fraction(x, found[1]) for x in found[0]]) == \
        oracles.nonneg_solution(a, target)
