"""Expansion templates: weighted index sets, the inclusion-exclusion sum,
remainder exponents, and the numeric estimate harness.
"""

from fractions import Fraction

from multispec import deformation, point, rank_and_normalize, run_pipeline
from multispec.levels import build_levels, canonical
from multispec.asymptotics import (index_set, constraint_text, subset_label,
                                   structure_of, canonical_family,
                                   app_template, remainder_exponent,
                                   subsets_of_actions, verify_estimate)
from multispec.polynomials import poly_monomial, exp_truncation

d = deformation([[3, 2], [1, 1]])
p = point()
r = rank_and_normalize(d, p)
s = structure_of(d)

print("weighted index sets of the cusp-type action")
for J in subsets_of_actions(d.ell):
    iset = index_set(d, r, J, (7, 4))
    print(f"  A_{subset_label(J)}(7,4): {len(iset.members)} indices, "
          "constraints " + "; ".join(constraint_text(d, J, r.sigma_A)))

f = poly_monomial(s, (1, 1)) + poly_monomial(s, (3, 0)).scale(Fraction(1, 6))
fam = canonical_family(f, d)
print("\nf =", f)
for N in [(1, 1), (6, 3), (10, 4)]:
    app = app_template(d, r, N, fam)
    print(f"  App at orders {N}: {app}")

family = build_levels(run_pipeline(d, r, p))
for N in [(1, 1), (3, 2)]:
    print(f"remainder exponent at {N}:",
          canonical(remainder_exponent(family, N, r.sigma_A)))

print("\nnumeric estimate for f = z1*z2 at orders (1,1)")
rep = verify_estimate(d, r, p, poly_monomial(s, (1, 1)), (1, 1), samples=500)
print(f"  fitted C = {rep.C_fit:.3g}, at half scale {rep.C_half:.3g}, "
      f"pass: {rep.passed}")

print("\ndegree-8 exponential truncation at orders (3,3)")
rep = verify_estimate(d, r, p, exp_truncation(s, 8), (3, 3), samples=500)
print(f"  fitted C = {rep.C_fit:.3g}, at half scale {rep.C_half:.3g}, "
      f"pass: {rep.passed}")
