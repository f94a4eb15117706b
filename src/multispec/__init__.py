"""Exact combinatorics of multi-normal deformations.

The package computes, from an action matrix and a base-point zero pattern:
generator semigroups and their elimination pipeline, multicone inequality
systems and closures, level functions and strictness, restriction
verdicts, asymptotic-expansion templates with remainder exponents, and
induced maps between deformations.  Symbolic data is exact: the matrix is
integer rows over one denominator, with Fractions in printing, JSON, `d.A`,
`d.entry` and `RankData.sigma_A`; numeric checks live in the samplers.
"""

from .monomials import (Var, Monomial, Value, Pair, ONE, ZERO, UNIT_VALUE,
                        tau, lam, xi, mono, pair, xival,
                        fraction_closure, sorted_pairs, render_genset)
from .deformation import (DeformationData, PointPattern, RankData,
                          DerivedMonomials, ActionClass, deformation, point,
                          build_from_index_family, classify_action,
                          is_fixed_point, rank_and_normalize, derive_monomials,
                          bundle_decomposition)
from .semigroup import (PipelineResult, Verdict, MembershipResult,
                        eliminate, build_G, run_pipeline, radical_member,
                        equivalent, eliminate_lambda)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
