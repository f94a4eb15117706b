"""Hypothesis strategies that draw admissible scenarios by construction:
no action row is zero (it would be the identity) and every zero column is
in the zero pattern (its direction cannot move), so each draw has a
pipeline and no test filters draws away."""

import warnings
from fractions import Fraction

from hypothesis import strategies as st

import oracles
from multispec.deformation import deformation, point
from multispec.semigroup import run_pipeline

HALVES = [Fraction(x) for x in ("0", "1/2", "1", "3/2", "2", "3")]


def _rows(ell: int, m: int):
    return st.lists(st.lists(st.sampled_from(HALVES), min_size=m,
                             max_size=m).filter(any),
                    min_size=ell, max_size=ell)


def _with_zero_columns(rows, zeros) -> set[int]:
    return set(zeros) | {k for k in range(1, len(rows[0]) + 1)
                         if all(row[k - 1] == 0 for row in rows)}


@st.composite
def scenarios(draw, max_rows=4, max_cols=4, min_rows=2):
    """An action matrix and a zero pattern drawn from all blocks, so the
    point may be fixed."""
    ell = draw(st.integers(min_rows, max_rows))
    m = draw(st.integers(2, max_cols))
    rows = draw(_rows(ell, m))
    return rows, _with_zero_columns(rows, draw(st.sets(st.integers(1, m))))


@st.composite
def moving_scenarios(draw, max_rows=4, max_cols=4, min_rows=2):
    """Scenarios off the fixed points by construction: the zero set is drawn
    only outside a column basis, so the live columns keep the rank of the
    matrix."""
    ell = draw(st.integers(min_rows, max_rows))
    m = draw(st.integers(2, max_cols))
    rows = draw(_rows(ell, m))
    basis = []
    for k in draw(st.permutations(range(1, m + 1))):
        live = [[row[c - 1] for c in basis + [k]] for row in rows]
        if oracles.rank(live) > len(basis):
            basis.append(k)
    zeros = {k for k in range(1, m + 1)
             if k not in basis and draw(st.booleans())}
    return rows, _with_zero_columns(rows, zeros)


def pipeline_of(rows, zeros):
    """The pipeline of a drawn scenario; coinciding rows do not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(deformation(rows), None, point(zero_blocks=zeros))
